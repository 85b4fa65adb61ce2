package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that was open when this one began (-1 at the top level); Req ties the
// spans of one service request together.
type span struct {
	Name   string
	Label  string // scheme variant or point key the call worked on
	Req    string
	Pass   int // timed pass index; -1 during set-up
	Parent int
	Start  time.Duration // process CPU time (see cpuTime) since the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory for the length of a run. It is used from
// the one goroutine that drives the workload. A nil *tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Duration
	spans []span
	open  []int
	pass  int
}

func newTracer() *tracer { return &tracer{epoch: cpuTime(), pass: -1} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name, label, req string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Label: label, Req: req, Pass: t.pass,
		Parent: parent, Start: cpuTime() - t.epoch})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = cpuTime() - t.epoch
	t.open = t.open[:len(t.open)-1]
}

// setPass tags the spans begun from now on with a timed pass index.
func (t *tracer) setPass(p int) {
	if t != nil {
		t.pass = p
	}
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one span never overlap: one goroutine
// opens them one after another.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// sums adds up self time by span name, label and pass.
type spanKey struct {
	name, label string
	pass        int
}

func (t *tracer) sums() map[spanKey]time.Duration {
	out := map[spanKey]time.Duration{}
	for i, d := range t.selfTimes() {
		s := t.spans[i]
		out[spanKey{s.Name, s.Label, s.Pass}] += d
	}
	return out
}

// durations lists the total durations of the spans with the given name
// in timed passes, in the order they ran.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.Pass >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event, the JSON form
// Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans and the host fingerprint to path.
func (t *tracer) write(path string, host hostInfo) error {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.Parent, "pass": s.Pass}
		if s.Req != "" {
			args["req"] = s.Req
		}
		events[i] = traceEvent{Name: s.Name, Cat: s.Label, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1, Args: args}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "metadata": host})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
