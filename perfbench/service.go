package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/httpx"
	"repro/internal/machine"
	"repro/internal/svc"
	"repro/internal/telemetry"
)

// The servers' bounds. Each run makes far more results than the result
// tier holds, so the tier fills within seconds and stays full: the
// servers' memory then depends on the bounds, not on how many requests
// a run completes. The compile tier keeps the 54 warmed kernel sources,
// which cold-kernel requests touch every second or two, beside the
// never-reused cold-source programs, which cycle through the rest in a
// few seconds; so about 1% of cold-kernel requests find their source
// aged out and compile it again.
const (
	resultEntries  = 512
	compileEntries = 256
	jobHistory     = 256
)

// server is one in-process svc.Server on a loopback listener.
type server struct {
	s    *svc.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve returns
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// One worker: with one client request in flight only one goroutine
	// simulates.
	s := svc.New(svc.Options{Workers: 1, CompileCacheEntries: compileEntries,
		ResultCacheEntries: resultEntries, JobHistory: jobHistory})
	sv := &server{s: s, hs: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(),
		done: make(chan struct{})}
	go func() {
		defer close(sv.done)
		sv.hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return sv, nil
}

// stop drains the job server, then shuts the listener and waits for it.
func (sv *server) stop() {
	sv.s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sv.hs.Shutdown(ctx) //nolint:errcheck // a forced close is fine at the end of a run
	<-sv.done
}

// Request classes of the service mix.
const (
	classColdKernel = "cold-kernel" // built-in kernel: result misses, compile hits
	classColdSource = "cold-source" // inline PFL variant: both tiers miss
	classHit        = "hit"         // resubmission to a server holding the result
	classPeer       = "peer"        // resubmission to the server that does not hold it
)

// use is what the client knows of one result in one server's result
// tier: whether it was ever stored there, and the server's insertion
// and touch counts at its last insertion or touch.
type use struct {
	stored     bool
	ins, touch int64
}

// entry is one result key the client can request.
type entry struct {
	key    string // content address, as svc.RequestKey computes it
	req    svc.RunRequest
	sum    [32]byte // sha256 of the first cold body; every later body must match
	summed bool
	on     [2]use
}

// sample is one timed request.
type sample struct {
	class   string
	rt      time.Duration // process CPU time of the round trip
	wall    time.Duration // wall-clock round trip, the clock of QueueMS and RunMS
	queueMS float64
	runMS   float64
	refs    int64 // simulated references of the result
}

// service is the job-service workload: two servers wired as peers and
// one closed-loop client sending a seeded mix of request classes.
//
// The client tracks each server's LRU result tier from the outside.
// Every insertion (a simulated or peer-adopted result) and every touch
// (a hit, or a peer's fetch of a held result) counts. A result touched
// fewer than resultEntries times ago is surely still held, because
// fewer than resultEntries other results can have been used since; one
// with resultEntries insertions since its last touch is surely gone.
// Hits and peer requests go only to results surely held, cold requests
// only to keys surely held nowhere, so every class is served the way it
// claims and every mismatch is a failure.
type service struct {
	o   *options
	ops *tally
	tr  *tracer

	servers [2]*server
	client  *httpx.Client
	rng     *rand.Rand

	universe []*entry    // every cold-kernel key
	recent   [2][]*entry // each server's last resultEntries/2 insertions, a ring
	next     [2]int      // where each ring writes next
	ins      [2]int64    // insertions per server
	touch    [2]int64    // insertions and touches per server
	sources  int
	reqs     int // requests sent, for span request ids

	samples  []sample
	rss      []float64 // peak RSS of each window of the timed loop
	encodeUS []float64
	fetchMS  []float64
	loop     time.Duration // process CPU time of the timed loop
	before   [2]*telemetry.Parsed
	after    [2]*telemetry.Parsed
}

func newService(o *options, ops *tally, tr *tracer) *service {
	return &service{o: o, ops: ops, tr: tr}
}

// coldSpace spans the cold-kernel keys: kernels × sizes × every variant
// × P=16, 32, 64 × two observation levels, 2592 keys over 54 compiled
// sources. The sizes step by 2 from 16, the way tpiload mints distinct
// points (n + 2·variant), and P runs from the paper's 16 processors to
// the 64 the paper grid also runs. What matters for the cache model is
// that the space is several times what the two result tiers hold
// together (2592 against 2 × 512), so a recycled key has surely left
// both tiers.
func (s *service) coldSpace() (kernels []string, ns, procs []int) {
	if s.o.tiny {
		return []string{"ocean", "trfd"}, []int{16, 20}, []int{16, 32, 64}
	}
	return bench.Names, []int{16, 18, 20, 22, 24, 26, 28, 30, 32}, []int{16, 32, 64}
}

func (s *service) setUp() error {
	if s.tr != nil {
		if _, err := compileStaged(s.tr); err != nil {
			return err
		}
	}
	s.rng = rand.New(rand.NewSource(s.o.seed))
	s.recent, s.next, s.ins, s.touch, s.sources, s.reqs = [2][]*entry{}, [2]int{}, [2]int64{}, [2]int64{}, 0, 0
	s.client = httpx.New(httpx.Options{Retries: -1, Timeout: time.Minute, MaxIdleConnsPerHost: 1})
	for i := range s.servers {
		sv, err := startServer()
		if err != nil {
			return err
		}
		s.servers[i] = sv
	}
	for i, sv := range s.servers {
		if err := sv.s.SetPeers([]string{s.servers[1-i].url}); err != nil {
			return err
		}
	}
	kernels, ns, procs := s.coldSpace()
	s.universe = nil
	for _, k := range kernels {
		for _, n := range ns {
			for _, v := range variants {
				for _, p := range procs {
					for _, obs := range []string{"", "counters"} {
						req := svc.RunRequest{Kernel: k, N: n, Steps: 1, Scheme: v.scheme.String(),
							Config: configJSON(p, v.l1Words), Obs: obs}
						key, err := svc.RequestKey(&req)
						if err != nil {
							return err
						}
						s.universe = append(s.universe, &entry{key: key, req: req})
					}
				}
			}
		}
	}
	// Warm the compile tier: every cold-kernel source is compiled on
	// both servers. The universe lists the variants of one source
	// together, so entry i of a source's block runs on server i.
	block := len(variants) * len(procs) * 2
	for b := 0; b < len(s.universe); b += block {
		for i := range s.servers {
			if err := s.cold(s.universe[b+i], classColdKernel, i); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *service) tearDown() {
	for i, sv := range s.servers {
		if sv != nil {
			sv.stop()
			s.servers[i] = nil
		}
	}
}

// held reports whether server i surely holds e's result.
func (s *service) held(e *entry, i int) bool {
	return e.on[i].stored && s.touch[i]-e.on[i].touch < resultEntries
}

// gone reports whether server i surely does not hold e's result.
func (s *service) gone(e *entry, i int) bool {
	return !e.on[i].stored || s.ins[i]-e.on[i].ins >= resultEntries
}

// stored records that server i put e's result in its result tier.
func (s *service) stored(e *entry, i int) {
	s.ins[i]++
	s.touched(e, i)
	e.on[i].stored = true
	ring := s.recent[i]
	if len(ring) < resultEntries/2 {
		s.recent[i] = append(ring, e)
		return
	}
	ring[s.next[i]] = e
	s.next[i] = (s.next[i] + 1) % len(ring)
}

// touched records that server i used e's held result.
func (s *service) touched(e *entry, i int) {
	s.touch[i]++
	e.on[i].ins, e.on[i].touch = s.ins[i], s.touch[i]
}

// cold submits a request whose result no server holds and records it
// as stored on the target; a transport failure ends the run.
func (s *service) cold(e *entry, class string, target int) error {
	st, smp, err := s.send(e.req, class, target)
	if err != nil {
		return err
	}
	rr, err := s.validate(st, class, e)
	if !s.ops.check(err) {
		return nil
	}
	smp.refs = rr.Stats.Reads + rr.Stats.Writes
	s.stored(e, target)
	if s.tr != nil {
		s.encode(rr)
	}
	s.samples = append(s.samples, smp)
	return nil
}

// send POSTs one request and times the round trip.
func (s *service) send(req svc.RunRequest, class string, target int) (*svc.JobStatus, sample, error) {
	s.reqs++
	sp := s.tr.begin("svc.request", class, s.reqID())
	t0, w0 := cpuTime(), time.Now()
	code, body, err := s.client.PostJSON(context.Background(), s.servers[target].url+"/v1/runs", req)
	rt, wall := cpuTime()-t0, time.Since(w0)
	s.tr.end(sp)
	if err != nil {
		return nil, sample{}, fmt.Errorf("%s request: %w", class, err)
	}
	st := &svc.JobStatus{}
	if err := json.Unmarshal(body, st); err != nil || code != http.StatusOK {
		st.State = fmt.Sprintf("HTTP %d: %.200s", code, body)
	}
	return st, sample{class: class, rt: rt, wall: wall, queueMS: st.QueueMS, runMS: st.RunMS}, nil
}

// reqID names the request last sent, tying its spans together.
func (s *service) reqID() string { return fmt.Sprintf("r%d", s.reqs) }

// validate checks a response: done, a valid RunResult, served the way
// its class predicts, and byte-equal to the key's first cold body (by
// sha256, so the client keeps 32 bytes per key, not the body).
func (s *service) validate(st *svc.JobStatus, class string, e *entry) (*core.RunResult, error) {
	if st.State != svc.StateDone {
		return nil, fmt.Errorf("%s: state %q %s", class, st.State, st.Error)
	}
	rr, err := exper.ValidateRunResult(st.Result)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", class, err)
	}
	switch class {
	case classHit:
		if !st.Cached || st.Peer {
			return nil, fmt.Errorf("hit: cached=%t peer=%t", st.Cached, st.Peer)
		}
	case classPeer:
		if !st.Peer {
			return nil, errors.New("peer: not served from the peer")
		}
	default:
		if st.Cached || st.Peer {
			return nil, fmt.Errorf("%s: cached=%t peer=%t, want a simulation", class, st.Cached, st.Peer)
		}
	}
	if err := e.check(st.Result); err != nil {
		return nil, fmt.Errorf("%s: %w", class, err)
	}
	return rr, nil
}

// check compares a body with the key's first cold body, or records it
// as that body.
func (e *entry) check(body []byte) error {
	sum := sha256.Sum256(body)
	if !e.summed {
		e.sum, e.summed = sum, true
		return nil
	}
	if sum != e.sum {
		return errors.New("body differs from the first cold body")
	}
	return nil
}

// encode times the service's result encoding on a simulated result.
func (s *service) encode(rr *core.RunResult) {
	sc, err := machine.ParseScheme(rr.Scheme)
	if err != nil {
		return
	}
	cfg := machine.Default(sc)
	cfg.Procs = rr.Procs
	st := rr.Stats.Restore()
	sp := s.tr.begin("core.encode", rr.Scheme, "")
	t0 := cpuTime()
	_, err = json.Marshal(core.NewRunResult(rr.Program, cfg, st, rr.Obs))
	d := cpuTime() - t0
	s.tr.end(sp)
	if err == nil {
		s.encodeUS = append(s.encodeUS, float64(d.Nanoseconds())/1e3)
	}
}

// repeat resubmits a held result to the target server: a hit when the
// target holds it, a peer request when only the other server does.
func (s *service) repeat(e *entry, class string, target int) error {
	st, smp, err := s.send(e.req, class, target)
	if err != nil {
		return err
	}
	if _, err := s.validate(st, class, e); s.ops.check(err) {
		s.samples = append(s.samples, smp)
	}
	if class == classPeer {
		s.touched(e, 1-target)
		s.stored(e, target)
		return nil
	}
	s.touched(e, target)
	if s.tr != nil {
		// The traced run also times the peer-fetch endpoint directly.
		sp := s.tr.begin("svc.peer_fetch", "", s.reqID())
		t0 := cpuTime()
		code, body, err := s.client.Get(context.Background(), s.servers[target].url+"/v1/cache/"+e.key)
		d := cpuTime() - t0
		s.tr.end(sp)
		if err != nil {
			return fmt.Errorf("cache fetch: %w", err)
		}
		s.touched(e, target)
		if s.ops.check(fetchError(code, body, e)) {
			s.fetchMS = append(s.fetchMS, ms(d))
		}
	}
	return nil
}

func fetchError(code int, body []byte, e *entry) error {
	if code != http.StatusOK {
		return fmt.Errorf("cache fetch: HTTP %d", code)
	}
	if err := e.check(body); err != nil {
		return fmt.Errorf("cache fetch: %w", err)
	}
	return nil
}

// Shares of the mix; the rest are cold-kernel requests. Half the
// requests resubmit an earlier one, as in tpiload's default -dup 0.5,
// and a client that does not know which of the two servers holds a
// result sends each resubmission to either with equal chance, so a
// quarter are hits and a quarter peer requests. The repository has no
// traffic with inline sources to copy, so the cold half is split evenly
// between cold-source and cold-kernel requests. Both draw the
// observation level evenly from the two the service accepts (the
// cold-kernel keys carry both).
const (
	hitShare      = 0.25
	peerShare     = 0.25
	sourceShare   = 0.25
	countersShare = 0.5
)

// Tries at drawing a key of the wanted class before sending a
// cold-source request instead. A server can hold, or be in doubt about,
// only its last 512 insertions plus the 256 recent ones touched since,
// so at least two fifths of the 2592 cold-kernel keys are surely held
// nowhere and 32 tries fail less than once in 10^7.
const drawTries = 32

// rssWindow is how many requests the timed loop makes between peak-RSS
// readings; minRequests keeps a tiny run long enough to draw every
// class.
const (
	rssWindow   = 400
	minRequests = 40
)

func (s *service) measure() error {
	s.samples, s.rss, s.encodeUS, s.fetchMS = nil, nil, nil, nil
	if s.tr != nil {
		if err := s.scrape(&s.before); err != nil {
			return err
		}
	}
	s.tr.setPass(0)
	resetPeakRSS()
	start, cpu0 := time.Now(), cpuTime()
	for n := 0; n < minRequests || time.Since(start) < s.o.seconds; n++ {
		if err := s.step(); err != nil {
			return err
		}
		if (n+1)%rssWindow == 0 {
			s.rss = append(s.rss, peakRSSMiB())
			resetPeakRSS()
		}
	}
	s.loop = cpuTime() - cpu0
	if len(s.rss) == 0 {
		s.rss = append(s.rss, peakRSSMiB())
	}
	if s.tr != nil {
		return s.scrape(&s.after)
	}
	return nil
}

// step draws and sends one request of the mix.
func (s *service) step() error {
	u := s.rng.Float64()
	switch {
	case u < hitShare:
		for try := 0; try < drawTries; try++ {
			i := s.rng.Intn(2)
			if e := s.pick(i); e != nil && s.held(e, i) {
				return s.repeat(e, classHit, i)
			}
		}
	case u < hitShare+peerShare:
		for try := 0; try < drawTries; try++ {
			i := s.rng.Intn(2)
			if e := s.pick(i); e != nil && s.held(e, i) && s.gone(e, 1-i) {
				return s.repeat(e, classPeer, 1-i)
			}
		}
	case u >= hitShare+peerShare+sourceShare:
		for try := 0; try < drawTries; try++ {
			if e := s.universe[s.rng.Intn(len(s.universe))]; s.gone(e, 0) && s.gone(e, 1) {
				return s.cold(e, classColdKernel, s.rng.Intn(2))
			}
		}
	}
	return s.cold(s.sourceEntry(), classColdSource, s.rng.Intn(2))
}

// pick draws one of server i's recent insertions, nil if it has none.
func (s *service) pick(i int) *entry {
	if len(s.recent[i]) == 0 {
		return nil
	}
	return s.recent[i][s.rng.Intn(len(s.recent[i]))]
}

// sourceEntry makes a PFL variant of a kernel that no server has
// compiled: a size outside the warmed ones plus a unique comment.
func (s *service) sourceEntry() *entry {
	kernels, _, _ := s.coldSpace()
	k, err := bench.Get(kernels[s.rng.Intn(len(kernels))], bench.Params{N: 17 + 2*s.rng.Intn(8), Steps: 1})
	if err != nil {
		panic(err) // the kernel names come from bench itself
	}
	s.sources++
	v := variants[s.rng.Intn(len(variants))]
	req := svc.RunRequest{Source: fmt.Sprintf("# variant %d-%d\n%s", s.o.seed, s.sources, k.Source),
		Scheme: v.scheme.String(), Config: configJSON(16, v.l1Words)}
	if s.rng.Float64() < countersShare {
		req.Obs = "counters"
	}
	key, err := svc.RequestKey(&req)
	if err != nil {
		panic(err) // bench sources always resolve
	}
	return &entry{key: key, req: req}
}

func configJSON(procs int, l1Words int64) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"Procs":%d,"L1Words":%d}`, procs, l1Words))
}

// scrape reads both servers' Prometheus metrics.
func (s *service) scrape(into *[2]*telemetry.Parsed) error {
	for i, sv := range s.servers {
		sp := s.tr.begin("svc.scrape", "", "")
		code, body, err := s.client.Get(context.Background(), sv.url+"/metrics")
		s.tr.end(sp)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("scrape /metrics: HTTP %d %v", code, err)
		}
		p, err := telemetry.ParseText(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("scrape /metrics: %w", err)
		}
		into[i] = p
	}
	return nil
}

// delta sums a metric's growth over the timed loop on both servers.
func (s *service) delta(name string, labels map[string]string) float64 {
	var d float64
	for i := range s.servers {
		d += sampleValue(s.after[i], name, labels) - sampleValue(s.before[i], name, labels)
	}
	return d
}

func sampleValue(p *telemetry.Parsed, name string, labels map[string]string) float64 {
	var v float64
	for _, smp := range p.Samples {
		if smp.Name != name {
			continue
		}
		match := true
		for k, want := range labels {
			if smp.Labels[k] != want {
				match = false
			}
		}
		if match {
			v += smp.Value
		}
	}
	return v
}

// byClass returns the round trips, in ms, of the timed requests of the
// given classes.
func (s *service) byClass(classes ...string) []float64 {
	var out []float64
	for _, smp := range s.samples {
		for _, c := range classes {
			if smp.class == c {
				out = append(out, ms(smp.rt))
			}
		}
	}
	return out
}

// coldThroughput is simulated references per host second spent on the
// requests that simulated.
func (s *service) coldThroughput() float64 {
	var refs int64
	var t time.Duration
	for _, smp := range s.samples {
		if smp.class == classColdKernel || smp.class == classColdSource {
			refs += smp.refs
			t += smp.rt
		}
	}
	return float64(refs) / t.Seconds() / 1e6
}

func (s *service) report() metrics {
	cold := s.byClass(classColdKernel, classColdSource)
	hits := s.byClass(classHit)
	if s.tr == nil {
		m := metrics{}
		m.set("mrefs_per_s", s.coldThroughput(), "Mref/s")
		m.set("cold_ms_p50", median(cold), "ms")
		m.set("max_rss_mb", median(s.rss), "MiB")
		m.set("jobs_per_s", float64(len(s.samples))/s.loop.Seconds(), "1/s")
		m.set("cold_ms_p90", tail(cold, 0.9), "ms")
		m.set("hit_ms_p50", median(hits), "ms")
		m.set("peer_ms_p50", median(s.byClass(classPeer)), "ms")
		return m
	}
	m := zeroPerLayer()
	frontEndMetrics(m, s.tr)
	m.set("trace.mrefs_per_s", s.coldThroughput(), "Mref/s")
	m.set("trace.cold_ms_p50", median(cold), "ms")
	m.set("core.encode_us", median(s.encodeUS), "us")

	m.set("svc.jobs_per_s", float64(len(s.samples))/s.loop.Seconds(), "1/s")
	m.set("svc.cold_ms_p90", tail(cold, 0.9), "ms")
	m.set("svc.hit_ms_p50", median(hits), "ms")
	m.set("svc.hit_ms_p90", tail(hits, 0.9), "ms")
	m.set("svc.peer_ms_p50", median(s.byClass(classPeer)), "ms")
	m.set("svc.peer_fetch_ms_p50", median(s.fetchMS), "ms")

	var queue, server, httpMS []float64
	for _, smp := range s.samples {
		if smp.class != classHit {
			queue = append(queue, smp.queueMS)
		}
		if smp.class == classColdKernel || smp.class == classColdSource {
			server = append(server, smp.runMS)
		}
		httpMS = append(httpMS, ms(smp.wall)-smp.queueMS-smp.runMS)
	}
	m.set("svc.queue_ms_p50", median(queue), "ms")
	m.set("svc.server_ms_p50", median(server), "ms")
	m.set("svc.http_ms_p50", median(httpMS), "ms")

	for _, phase := range []string{"compile", "run"} {
		l := map[string]string{"phase": phase}
		if n := s.delta("tpiserved_job_phase_seconds_count", l); n > 0 {
			m.set("svc."+phase+"_ms_mean", 1e3*s.delta("tpiserved_job_phase_seconds_sum", l)/n, "ms")
		}
	}
	for _, tier := range []string{"result", "compile"} {
		l := map[string]string{"tier": tier}
		h, miss := s.delta("tpiserved_cache_hits_total", l), s.delta("tpiserved_cache_misses_total", l)
		if h+miss > 0 {
			m.set("svc."+tier+"_hit_ratio", h/(h+miss), "ratio")
		}
	}
	if all := s.delta("tpiserved_peer_cache_requests_total", nil); all > 0 {
		m.set("svc.peer_hit_ratio", s.delta("tpiserved_peer_cache_requests_total", map[string]string{"outcome": "hit"})/all, "ratio")
	}
	return m
}
