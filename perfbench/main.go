// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time and prints, as the last line of its standard output,
// one JSON object: the operations attempted and failed, whether every
// output was correct, and the workload's metrics.
//
//	perfbench --workload paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones a user of the
// simulator or the job service sees. With --trace 1 the same workload
// runs with spans recorded around every call into a layer, the spans are
// written to a Perfetto-readable file under --out, and the metrics are
// the per-layer ones. METRICS.md defines every metric and says which
// per-layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// A run builds its workload from scratch at least minSetUps times and
// until minSetUpTime has gone on set-ups (at most maxSetUps times), so
// a quick set-up is timed often enough for a steady median, setup_s.
const (
	minSetUps    = 5
	maxSetUps    = 25
	minSetUpTime = 5 * time.Second
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// tiny shrinks every workload to a few points or requests, for the
	// benchmark's own tests.
	tiny bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the line the benchmark ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Also holds the untraced metrics of one workload only (the
	// service's request rate and per-class latencies), printed on a line
	// of their own so the result line keeps the metrics every workload
	// shares.
	Also metrics `json:"-"`
}

// tally counts operations: every simulated point, every verification
// and every service request is one, and any error, digest mismatch or
// wrong response fails it.
type tally struct {
	attempted, failed int64
	notes             []string
}

// check counts one operation and records err as its failure.
func (t *tally) check(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.notes) < 10 {
		t.notes = append(t.notes, err.Error())
	}
	return false
}

// workload is one benchmark input set.
type workload interface {
	// setUp builds everything the timed loop needs, from scratch.
	setUp() error
	// tearDown releases what setUp built.
	tearDown()
	// measure runs the timed loop for opts.seconds.
	measure() error
	// report returns the end-to-end metrics, or the per-layer ones when
	// the run is traced. setup_s is added by the caller.
	report() metrics
}

func newWorkload(o *options, ops *tally, tr *tracer) (workload, error) {
	switch o.workload {
	case "paper":
		return newGrid(o, ops, tr, paperPoints(o.tiny)), nil
	case "largep":
		return newGrid(o, ops, tr, largePPoints(o.tiny)), nil
	case "service":
		return newService(o, ops, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, largep or service)", o.workload)
}

// run executes one benchmark run and returns its result; tr is nil for
// an untraced run.
func run(o *options, tr *tracer) (*result, error) {
	ops := &tally{}
	w, err := newWorkload(o, ops, tr)
	if err != nil {
		return nil, err
	}
	var setup []float64
	var spent time.Duration
	for i := 0; ; i++ {
		tr.setPass(-1 - i)
		t0 := cpuTime()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := cpuTime() - t0
		setup = append(setup, d.Seconds())
		spent += d
		if i+1 >= maxSetUps || i+1 >= minSetUps && (spent >= minSetUpTime || o.tiny) {
			break
		}
		w.tearDown()
	}
	err = w.measure()
	w.tearDown()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed, Metrics: w.report()}
	if !o.traced {
		res.Metrics.set("setup_s", median(setup), "s")
		res.Also = metrics{}
		for name, v := range res.Metrics {
			if !slices.ContainsFunc(endToEnd, func(d metricDef) bool { return d.name == name }) {
				res.Also[name] = v
				delete(res.Metrics, name)
			}
		}
	}
	for _, n := range ops.notes {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", n)
	}
	return res, nil
}

// peakRSSMiB returns the process's ru_maxrss: its peak resident memory
// since it started or since the last resetPeakRSS.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime returns the CPU time the process has used so far, in every
// thread, user and kernel. The benchmark times work with it, not with
// the wall clock: on a virtual machine the hypervisor takes the CPU away
// in bursts (steal time), which a guest kernel with steal accounting
// does not charge to the process, while the wall clock counts it. The
// timed work is one goroutine at a time, so on a host of its own the
// two clocks agree; the collector's background work on another core
// counts too, as it should.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// resetPeakRSS restarts the peak that ru_maxrss reports at the current
// resident size, so a workload can read the peak of each window of its
// timed loop: the median window is steady where the peak of the whole
// run depends on when the collector last ran. Where the kernel does not
// allow the reset, peaks run from the start of the process.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// hostInfo fingerprints the machine a run measured.
type hostInfo struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Traced     bool    `json:"traced"`
	ParProbe   float64 `json:"effective_parallelism_probe"`
}

func fingerprint(o *options, commit string) hostInfo {
	return hostInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Workload: o.workload, Seed: o.seed,
		Traced: o.traced, ParProbe: parallelismProbe()}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// parallelismProbe returns the time two goroutines take to spin a fixed
// amount each, over the time one takes alone: about 1 on a host with two
// free cores, about 2 where they share one.
func parallelismProbe() float64 {
	spin := func() {
		x := uint64(1)
		for i := 0; i < 50_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink.Store(x)
	}
	t0 := time.Now()
	spin()
	one := time.Since(t0)
	var wg sync.WaitGroup
	t0 = time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); spin() }()
	}
	wg.Wait()
	return time.Since(t0).Seconds() / one.Seconds()
}

// sink keeps the probe's arithmetic from being optimised away.
var sink atomic.Uint64

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload: paper, largep or service")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (request mix, point order)")
	secs := fs.Int("seconds", 20, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for trace files")
	commit := fs.String("commit", "unknown", "commit being measured, for the host fingerprint")
	update := fs.Bool("update-digests", false, "oracle-verify every grid point and rewrite digests.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *update {
		return updateDigests("perfbench/digests.json")
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	o.seconds = time.Duration(*secs) * time.Second
	o.traced = *trace == 1

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	res, err := run(o, tr)
	if err != nil {
		return err
	}
	host := fingerprint(o, *commit)
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host: %s\n", hb)
	if tr != nil {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := tr.write(path, host); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans)\n", path, len(tr.spans))
	}
	if len(res.Also) > 0 {
		ab, err := json.Marshal(res.Also)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "also: %s\n", ab)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	return nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minTailSamples is the fewest samples of a class a run must have for
// its tail to be reported: a p90 then has at least ten samples beyond it.
const minTailSamples = 100

// tail is the q-quantile of xs, or 0 (not reported) with fewer than
// minTailSamples samples.
func tail(xs []float64, q float64) float64 {
	if len(xs) < minTailSamples {
		return 0
	}
	return quantile(xs, q)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
