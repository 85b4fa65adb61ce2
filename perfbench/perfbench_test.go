package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestSpecMatchesCatalog pins BENCHMARK.json to the metrics the code
// reports, name, unit and direction alike.
func TestSpecMatchesCatalog(t *testing.T) {
	s := loadSpec(t)
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := s.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, code has %s %s %s", i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	pl := perLayer()
	if len(s.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(s.PerLayer), len(pl))
	}
	for i, d := range pl {
		got := s.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, code has %s %s %s", i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
		}
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if _, err := newWorkload(&options{workload: w.Name}, &tally{}, nil); err != nil {
			t.Error(err)
		}
	}
	if got := strings.Join(names, ","); got != "largep,service" {
		t.Errorf("workloads %s, want largep,service", got)
	}
}

func runTiny(t *testing.T, name string, traced bool) *result {
	t.Helper()
	o := &options{workload: name, seed: 7, traced: traced, tiny: true}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res, err := run(o, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if traced {
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.write(path, hostInfo{Workload: name}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) != len(tr.spans) {
			t.Fatalf("trace file: %d events for %d spans, err %v", len(doc.TraceEvents), len(tr.spans), err)
		}
	}
	return res
}

// TestWorkloadsReportEveryMetric runs each workload at tiny size, with
// and without tracing: no operation fails (every digest, oracle check
// and service body checks out, and the exact counts of the two timed
// passes agree), and every metric of BENCHMARK.json appears with its
// unit. It covers paper too, which BENCHMARK.json does not list.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := loadSpec(t)
	for _, name := range []string{"paper", "largep", "service"} {
		t.Run(name, func(t *testing.T) {
			res := runTiny(t, name, false)
			if len(res.Metrics) != len(s.EndToEnd) {
				t.Errorf("%d end-to-end metrics, want %d", len(res.Metrics), len(s.EndToEnd))
			}
			for _, d := range s.EndToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (present %t), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}
			// The service's own end-to-end metrics go on a line of their
			// own; no other workload has any.
			also := map[string]string{}
			if name == "service" {
				also = map[string]string{"jobs_per_s": "1/s", "cold_ms_p90": "ms", "hit_ms_p50": "ms", "peer_ms_p50": "ms"}
			}
			if len(res.Also) != len(also) {
				t.Errorf("also %v, want %v", res.Also, also)
			}
			for name, unit := range also {
				if m, ok := res.Also[name]; !ok || m.Unit != unit {
					t.Errorf("also %s = %+v (present %t), want unit %s", name, m, ok, unit)
				}
			}
			traced := runTiny(t, name, true)
			if len(traced.Metrics) != len(s.PerLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(traced.Metrics), len(s.PerLayer))
			}
			for _, d := range s.PerLayer {
				if m, ok := traced.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s = %+v (present %t), want unit %s", d.Name, m, ok, d.Unit)
				}
			}
			// Layers every workload's calls reach.
			for _, name := range []string{"pfl.parse_us", "sim.lower_us", "core.encode_us", "trace.mrefs_per_s", "trace.cold_ms_p50"} {
				if traced.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, traced.Metrics[name].Value)
				}
			}
		})
	}
}

// TestGridRepeatsExactCounts checks the traced grid runs two fast
// passes with identical simulated counts and reports them.
func TestGridRepeatsExactCounts(t *testing.T) {
	o := &options{workload: "paper", seed: 3, traced: true, tiny: true}
	ops := &tally{}
	g := newGrid(o, ops, newTracer(), paperPoints(true))
	if err := g.setUp(); err != nil {
		t.Fatal(err)
	}
	if err := g.measure(); err != nil {
		t.Fatal(err)
	}
	fast := g.fast()
	if len(fast) < 2 || ops.failed != 0 {
		t.Fatalf("%d fast passes, %d failed operations", len(fast), ops.failed)
	}
	if fast[0].counts != fast[1].counts || fast[0].counts.refs == 0 || fast[0].counts.streamLoops == 0 {
		t.Fatalf("counts %+v then %+v", fast[0].counts, fast[1].counts)
	}
	m := g.report()
	if got := m["sim.refs"].Value; got != float64(fast[0].counts.refs) {
		t.Errorf("sim.refs = %v, want %d", got, fast[0].counts.refs)
	}
	if m["sim.run_ms.TPI"].Value <= 0 || m["sim.scalar_ms.HW"].Value <= 0 || m["directory.check_ms"].Value <= 0 {
		t.Errorf("per-variant layer times missing: %v %v %v", m["sim.run_ms.TPI"], m["sim.scalar_ms.HW"], m["directory.check_ms"])
	}
}

// TestDigestMismatchFails proves the digest gate is live: one wrong
// recorded digest fails that point in set-up and on every pass.
func TestDigestMismatchFails(t *testing.T) {
	o := &options{workload: "paper", seed: 1, tiny: true}
	ops := &tally{}
	g := newGrid(o, ops, nil, paperPoints(true))
	if err := g.setUp(); err != nil {
		t.Fatal(err)
	}
	g.want["ocean/TPI/P16"] = strings.Repeat("0", 64)
	if err := g.measure(); err != nil {
		t.Fatal(err)
	}
	if ops.failed != int64(len(g.passes)) {
		t.Fatalf("%d failed operations over %d passes, want one per pass", ops.failed, len(g.passes))
	}
}

// TestRecordedDigestsMatch checks that set-up in recording mode, the
// path --update-digests takes, reproduces the recorded digests.
func TestRecordedDigestsMatch(t *testing.T) {
	ops := &tally{}
	g := newGrid(&options{workload: "paper", tiny: true}, ops, nil, paperPoints(true))
	g.record = map[string]string{}
	if err := g.setUp(); err != nil {
		t.Fatal(err)
	}
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if ops.failed != 0 || len(g.record) != len(g.points) {
		t.Fatalf("%d failed operations, %d digests for %d points", ops.failed, len(g.record), len(g.points))
	}
	for k, d := range g.record {
		if d != want["paper"][k] {
			t.Errorf("%s: recorded %s, digests.json has %q", k, d, want["paper"][k])
		}
	}
}

// TestServiceRejectsWrongBodies checks the service checks: a hit must
// come from the cache and match the cold body byte for byte.
func TestServiceRejectsWrongBodies(t *testing.T) {
	o := &options{workload: "service", seed: 1, tiny: true}
	s := newService(o, &tally{}, nil)
	if err := s.setUp(); err != nil {
		t.Fatal(err)
	}
	defer s.tearDown()
	e := s.recent[0][0]
	if !s.held(e, 0) || !s.gone(e, 1) {
		t.Fatalf("first warmed result: held on 0 %t, gone from 1 %t", s.held(e, 0), s.gone(e, 1))
	}
	st, _, err := s.send(e.req, classHit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.validate(st, classHit, e); err != nil {
		t.Fatalf("genuine hit rejected: %v", err)
	}
	other := &entry{key: e.key, req: e.req}
	other.check(append([]byte(" "), st.Result...))
	if _, err := s.validate(st, classHit, other); err == nil {
		t.Error("hit with a different body accepted")
	}
	if _, err := s.validate(st, classPeer, e); err == nil {
		t.Error("local hit accepted as a peer fetch")
	}
	if _, err := s.validate(st, classColdKernel, e); err == nil {
		t.Error("cached result accepted as a simulation")
	}
}

// TestServiceTracksEviction checks the client's model of the LRU result
// tier against the server: once resultEntries other results have been
// stored after it, a result is gone, and sending it again simulates.
func TestServiceTracksEviction(t *testing.T) {
	o := &options{workload: "service", seed: 2, tiny: true}
	ops := &tally{}
	s := newService(o, ops, nil)
	if err := s.setUp(); err != nil {
		t.Fatal(err)
	}
	defer s.tearDown()
	first := s.recent[0][0]
	for s.ins[0]-first.on[0].ins < resultEntries {
		if err := s.cold(s.sourceEntry(), classColdSource, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !s.gone(first, 0) || !s.gone(first, 1) {
		t.Fatal("client still counts the first result as held")
	}
	if err := s.cold(first, classColdKernel, 0); err != nil {
		t.Fatal(err)
	}
	if ops.failed != 0 {
		t.Fatalf("%d failed operations: %v", ops.failed, ops.notes)
	}
}
