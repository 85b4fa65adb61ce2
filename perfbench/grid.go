package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/marking"
	"repro/internal/memsys"
	"repro/internal/pfl"
	"repro/internal/prog"
	"repro/internal/sections"
	"repro/internal/sim"
	"repro/internal/stats"
)

// variant is one memory-system configuration: a scheme, plus the L1
// size that selects two-level TPI.
type variant struct {
	name    string
	scheme  machine.Scheme
	l1Words int64
}

// variants covers every scheme family and two-level TPI, in the order
// per-variant metrics are listed.
var variants = []variant{
	{"BASE", machine.SchemeBase, 0},
	{"SC", machine.SchemeSC, 0},
	{"TPI", machine.SchemeTPI, 0},
	{"TPI2L", machine.SchemeTPI, 64},
	{"HW", machine.SchemeHW, 0},
	{"VC", machine.SchemeVC, 0},
	{"TARDIS", machine.SchemeTardis, 0},
	{"TARDIS2", machine.SchemeTardis2, 0},
}

func variantNamed(name string) variant {
	for _, v := range variants {
		if v.name == name {
			return v
		}
	}
	panic("perfbench: unknown variant " + name)
}

// point is one simulation of the paper or large-P grid.
type point struct {
	kernel string
	v      variant
	procs  int
	mesh   bool
}

func (p point) key() string { return fmt.Sprintf("%s/%s/P%d", p.kernel, p.v.name, p.procs) }

func (p point) config(fastPath bool) machine.Config {
	cfg := machine.Default(p.v.scheme)
	cfg.L1Words = p.v.l1Words
	cfg.Procs = p.procs
	cfg.FastPath = fastPath
	if p.mesh {
		cfg.Topology = "mesh"
		cfg.ClusterSize = 16
	}
	return cfg
}

// paperPoints is the paper's grid: six kernels x every scheme variant x
// P=16, plus P=64, where the narrow presence tier is slowest. tiny keeps
// one kernel at P=16 for the benchmark's tests.
func paperPoints(tiny bool) []point {
	kernels, procs := bench.Names, []int{16, 64}
	if tiny {
		kernels, procs = []string{"ocean"}, []int{16}
	}
	var pts []point
	for _, k := range kernels {
		for _, v := range variants {
			for _, p := range procs {
				pts = append(pts, point{k, v, p, false})
			}
		}
	}
	return pts
}

// largePPoints runs the wide presence and timestamp tiers, the mesh and
// lazy per-processor allocation: ocean and qcd2 under HW, TPI2L and
// TARDIS2 at P=1024 and 4096 on a clustered mesh.
func largePPoints(tiny bool) []point {
	kernels, procs := []string{"ocean", "qcd2"}, []int{1024, 4096}
	if tiny {
		kernels, procs = []string{"ocean"}, []int{1024}
	}
	var pts []point
	for _, k := range kernels {
		for _, name := range []string{"HW", "TPI2L", "TARDIS2"} {
			for _, p := range procs {
				pts = append(pts, point{k, variantNamed(name), p, true})
			}
		}
	}
	return pts
}

// digests.json holds the sha256 of each grid point's stats.Snapshot JSON
// at bench.PaperParams, keyed by workload then point; --update-digests
// rewrites it after oracle-verifying every point.
//
//go:embed digests.json
var digestsJSON []byte

func loadDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func digest(st *stats.Stats) (string, error) {
	b, err := json.Marshal(st.Snapshot())
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// program is one kernel compiled once in set-up.
type program struct {
	c  *core.Compiled
	lp *sim.Program
}

// counts are the simulated quantities of one pass. A change that only
// makes the simulator faster must leave them identical.
type counts struct {
	refs, cycles, misses, coherenceWords, epochs, streamLoops, streamFallbacks int64
}

func (c *counts) add(st *stats.Stats, last sim.Progress) {
	c.refs += st.Reads + st.Writes
	c.cycles += st.Cycles
	c.misses += st.TotalReadMisses() + st.TotalWriteMisses()
	c.coherenceWords += st.CoherenceTrafficWords
	c.epochs += last.Epoch
	c.streamLoops += last.StreamLoops
	c.streamFallbacks += last.StreamFallbacks
}

// pass records one timed pass over every point.
type pass struct {
	scalar    bool
	simTime   time.Duration   // CPU time inside the simulating calls
	pointTime []time.Duration // by point index
	counts    counts
	refsBy    map[string]int64 // simulated references by variant
	allocs    uint64
	allocB    uint64
	rssMiB    float64 // peak resident memory during the pass
}

// grid is the paper or large-P workload: a fixed grid of points
// compiled and oracle-verified in set-up, then simulated pass after
// pass in a seeded order, each result checked against its digest.
type grid struct {
	o      *options
	ops    *tally
	tr     *tracer
	points []point
	want   map[string]string
	// record, when set, makes set-up store each point's digest here
	// instead of checking it (--update-digests).
	record map[string]string
	progs  map[string]program
	passes []pass
}

func newGrid(o *options, ops *tally, tr *tracer, points []point) *grid {
	return &grid{o: o, ops: ops, tr: tr, points: points}
}

func (g *grid) setUp() error {
	if g.record == nil {
		d, err := loadDigests()
		if err != nil {
			return err
		}
		g.want = d[g.o.workload]
	}
	// Every workload compiles all six kernels, so the traced run's
	// front-end numbers mean the same on every workload.
	var err error
	if g.progs, err = compileStaged(g.tr); err != nil {
		return err
	}
	for _, p := range g.points {
		st, err := core.VerifyAgainstOracle(g.progs[p.kernel].c, p.config(true))
		g.ops.check(g.checkDigest(p, st, err))
	}
	return nil
}

func (g *grid) tearDown() { g.progs = nil }

// checkDigest compares a point's statistics with its recorded digest.
func (g *grid) checkDigest(p point, st *stats.Stats, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", p.key(), err)
	}
	got, err := digest(st)
	if err != nil {
		return fmt.Errorf("%s: %w", p.key(), err)
	}
	if g.record != nil {
		g.record[p.key()] = got
		return nil
	}
	if want := g.want[p.key()]; got != want {
		return fmt.Errorf("%s: stats digest %s, want %q", p.key(), got, want)
	}
	return nil
}

// minPasses lets every run compare the exact counts of two passes.
const minPasses = 2

func (g *grid) measure() error {
	rng := rand.New(rand.NewSource(g.o.seed))
	start := time.Now()
	// A traced run alternates the stream fast path with scalar passes,
	// so it needs a third pass to see two fast ones.
	least := minPasses
	if g.tr != nil {
		least = 2*minPasses - 1
	}
	for i := 0; i < least || time.Since(start) < g.o.seconds; i++ {
		scalar := g.tr != nil && i%2 == 1
		g.tr.setPass(i)
		ps := pass{scalar: scalar, pointTime: make([]time.Duration, len(g.points)), refsBy: map[string]int64{}}
		// Each pass starts from a collected heap, so its peak is the
		// live set plus one pass's garbage. Otherwise the peak climbs
		// pass by pass until the collector next runs (largep keeps
		// about 1 GB live, so that is dozens of passes away), and the
		// median pass would depend on how many passes the host's speed
		// allowed. The collection is outside every timed call.
		runtime.GC()
		resetPeakRSS()
		for _, idx := range rng.Perm(len(g.points)) {
			p := g.points[idx]
			var err error
			if g.tr == nil {
				err = g.runPoint(idx, p, &ps)
			} else {
				err = g.tracePoint(idx, p, &ps)
			}
			g.ops.check(err)
		}
		ps.rssMiB = peakRSSMiB()
		g.passes = append(g.passes, ps)
	}
	fast := g.fast()
	for _, ps := range fast[1:] {
		if ps.counts != fast[0].counts {
			g.ops.check(fmt.Errorf("simulated counts differ between passes: %+v vs %+v", ps.counts, fast[0].counts))
		}
	}
	return nil
}

// runPoint simulates one point through core.Run.
func (g *grid) runPoint(idx int, p point, ps *pass) error {
	t0 := cpuTime()
	st, err := core.Run(g.progs[p.kernel].c, p.config(true))
	d := cpuTime() - t0
	if err := g.checkDigest(p, st, err); err != nil {
		return err
	}
	ps.simTime += d
	ps.pointTime[idx] = d
	ps.counts.refs += st.Reads + st.Writes
	return nil
}

// tracePoint does what core.Run does, one public call at a time, with a
// span around each; scalar passes turn the stream fast path off.
func (g *grid) tracePoint(idx int, p point, ps *pass) error {
	tr, pr, label := g.tr, g.progs[p.kernel], p.v.name
	cfg := p.config(!ps.scalar)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	top := tr.begin("point", label, "")
	b := tr.begin("memsys.build", label, "")
	sys, err := core.NewSystem(cfg, pr.c.Prog)
	tr.end(b)
	if err != nil {
		tr.end(top)
		return fmt.Errorf("%s: %w", p.key(), err)
	}
	r := sim.NewLowered(pr.lp, sys, cfg)
	var last sim.Progress
	r.SetProgress(func(s sim.Progress) { last = s }, math.MaxInt64) // the final sample only
	s := tr.begin("sim.run", label, "")
	st, err := r.Run()
	tr.end(s)
	if ck, ok := sys.(interface{ CheckInvariants() error }); ok && err == nil {
		name := "directory.check"
		if p.v.scheme == machine.SchemeTardis || p.v.scheme == machine.SchemeTardis2 {
			name = "tardis.check"
		}
		c := tr.begin(name, label, "")
		err = ck.CheckInvariants()
		tr.end(c)
	}
	rel := tr.begin("memsys.release", label, "")
	if rl, ok := sys.(memsys.Releaser); ok {
		rl.ReleaseCaches()
	}
	tr.end(rel)
	tr.end(top)
	runtime.ReadMemStats(&m1)
	if err := g.checkDigest(p, st, err); err != nil {
		return err
	}

	e := tr.begin("core.encode", label, "")
	_, err = json.Marshal(core.NewRunResult(p.kernel, cfg, st, nil))
	tr.end(e)
	if err != nil {
		return fmt.Errorf("%s: encode: %w", p.key(), err)
	}
	ps.pointTime[idx] = tr.spans[top].End - tr.spans[top].Start
	ps.simTime += ps.pointTime[idx]
	ps.counts.add(st, last)
	ps.refsBy[label] += st.Reads + st.Writes
	ps.allocs += m1.Mallocs - m0.Mallocs
	ps.allocB += m1.TotalAlloc - m0.TotalAlloc
	return nil
}

// fast returns the passes that ran with the stream fast path on.
func (g *grid) fast() []pass {
	var out []pass
	for _, ps := range g.passes {
		if !ps.scalar {
			out = append(out, ps)
		}
	}
	return out
}

// throughput is the median over fast passes of simulated references per
// host second, and latency the median over points of each point's
// median time: the typical host time of one simulation.
func (g *grid) throughputLatency() (mrefs, pointMS float64) {
	var rates []float64
	fast := g.fast()
	for _, ps := range fast {
		rates = append(rates, float64(ps.counts.refs)/ps.simTime.Seconds()/1e6)
	}
	var perPoint []float64
	for i := range g.points {
		var ts []float64
		for _, ps := range fast {
			ts = append(ts, ms(ps.pointTime[i]))
		}
		perPoint = append(perPoint, median(ts))
	}
	return median(rates), median(perPoint)
}

func (g *grid) report() metrics {
	mrefs, pointMS := g.throughputLatency()
	m := metrics{}
	if g.tr == nil {
		m.set("mrefs_per_s", mrefs, "Mref/s")
		m.set("cold_ms_p50", pointMS, "ms")
		var rss []float64
		for _, ps := range g.passes {
			rss = append(rss, ps.rssMiB)
		}
		m.set("max_rss_mb", median(rss), "MiB")
		return m
	}
	m = zeroPerLayer()
	m.set("trace.mrefs_per_s", mrefs, "Mref/s")
	m.set("trace.cold_ms_p50", pointMS, "ms")
	frontEndMetrics(m, g.tr)

	sums := g.tr.sums()
	// perPass is the median over the fast or the scalar passes of f,
	// given the pass index for looking up self times.
	perPass := func(scalar bool, f func(i int, ps pass) float64) float64 {
		var xs []float64
		for i, ps := range g.passes {
			if ps.scalar == scalar {
				xs = append(xs, f(i, ps))
			}
		}
		return median(xs)
	}
	selfMS := func(name, label string, i int) float64 { return ms(sums[spanKey{name, label, i}]) }
	inGrid := map[string]bool{}
	for _, p := range g.points {
		inGrid[p.v.name] = true
	}
	for _, v := range variants {
		if !inGrid[v.name] {
			continue
		}
		n := v.name
		m.set("sim.run_ms."+n, perPass(false, func(i int, _ pass) float64 { return selfMS("sim.run", n, i) }), "ms")
		m.set("sim.scalar_ms."+n, perPass(true, func(i int, _ pass) float64 { return selfMS("sim.run", n, i) }), "ms")
		m.set("sim.ns_per_ref."+n, perPass(false, func(i int, ps pass) float64 {
			return 1e6 * selfMS("sim.run", n, i) / float64(ps.refsBy[n])
		}), "ns")
		m.set("memsys.build_ms."+n, perPass(false, func(i int, _ pass) float64 {
			return selfMS("memsys.build", n, i) + selfMS("memsys.release", n, i)
		}), "ms")
	}
	for _, name := range []string{"directory.check", "tardis.check"} {
		m.set(name+"_ms", perPass(false, func(i int, _ pass) float64 {
			var t float64
			for _, v := range variants {
				t += selfMS(name, v.name, i)
			}
			return t
		}), "ms")
	}

	c := g.fast()[0].counts
	m.set("sim.refs", float64(c.refs), "count")
	m.set("sim.cycles", float64(c.cycles), "count")
	m.set("sim.misses", float64(c.misses), "count")
	m.set("sim.coherence_words", float64(c.coherenceWords), "count")
	m.set("sim.epochs", float64(c.epochs), "count")
	m.set("sim.stream_loops", float64(c.streamLoops), "count")
	m.set("sim.stream_fallbacks", float64(c.streamFallbacks), "count")
	if t := c.streamLoops + c.streamFallbacks; t > 0 {
		m.set("sim.stream_coverage", float64(c.streamLoops)/float64(t), "ratio")
	}
	var allocs, allocMB, enc []float64
	for _, ps := range g.fast() {
		allocs = append(allocs, float64(ps.allocs))
		allocMB = append(allocMB, float64(ps.allocB)/(1<<20))
	}
	for _, d := range g.tr.durations("core.encode") {
		enc = append(enc, float64(d.Nanoseconds())/1e3)
	}
	m.set("core.allocs_per_pass", median(allocs), "count")
	m.set("core.alloc_mb_per_pass", median(allocMB), "MiB")
	m.set("core.encode_us", median(enc), "us")
	return m
}

// compileStaged runs core.Compile's stages one call at a time over all
// six kernels at bench.PaperParams, with a span around each when tr is
// set.
func compileStaged(tr *tracer) (map[string]program, error) {
	opts := core.DefaultCompileOptions()
	out := map[string]program{}
	for _, k := range bench.Kernels(bench.PaperParams()) {
		s := tr.begin("pfl.parse", k.Name, "")
		ast, err := pfl.Parse(k.Source)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("pfl.check", k.Name, "")
		info, err := pfl.Check(ast)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("prog.build", k.Name, "")
		p, err := prog.BuildPadded(info, opts.AlignWords, opts.PadScalars)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("sections.analyze", k.Name, "")
		a := sections.Analyze(p, sections.Options{Interproc: opts.Interproc})
		tr.end(s)
		s = tr.begin("marking.compute", k.Name, "")
		marks := marking.Compute(a, marking.Options{FirstReadReuse: opts.FirstReadReuse})
		tr.end(s)
		s = tr.begin("sim.lower", k.Name, "")
		lp, err := sim.Lower(p, marks)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		c := &core.Compiled{Source: k.Source, AST: ast, Info: info, Prog: p, Analysis: a, Marks: marks,
			Key: core.CompileKey(k.Source, opts)}
		out[k.Name] = program{c, lp}
	}
	return out, nil
}

// frontEndStages are the compiler stages compileStaged times.
var frontEndStages = []string{"pfl.parse", "pfl.check", "prog.build", "sections.analyze", "marking.compute", "sim.lower"}

// frontEndMetrics sets each stage's time summed over the six kernels,
// the median over the run's set-ups.
func frontEndMetrics(m metrics, tr *tracer) {
	perSetUp := map[string]map[int]time.Duration{}
	for k, d := range tr.sums() {
		if k.pass < 0 {
			if perSetUp[k.name] == nil {
				perSetUp[k.name] = map[int]time.Duration{}
			}
			perSetUp[k.name][k.pass] += d
		}
	}
	for _, stage := range frontEndStages {
		var xs []float64
		for _, d := range perSetUp[stage] {
			xs = append(xs, float64(d.Nanoseconds())/1e3)
		}
		m.set(stage+"_us", median(xs), "us")
	}
}

// updateDigests oracle-verifies every paper and large-P point, through
// the grid's own set-up, and writes their stats digests to path.
func updateDigests(path string) error {
	out := map[string]map[string]string{}
	for name, pts := range map[string][]point{"paper": paperPoints(false), "largep": largePPoints(false)} {
		ops := &tally{}
		g := newGrid(&options{workload: name}, ops, nil, pts)
		g.record = map[string]string{}
		err := g.setUp()
		g.tearDown()
		if err != nil {
			return err
		}
		if ops.failed > 0 {
			return fmt.Errorf("%s: %d points failed: %s", name, ops.failed, strings.Join(ops.notes, "; "))
		}
		out[name] = g.record
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
