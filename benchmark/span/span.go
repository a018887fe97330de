// Package span is the benchmark's in-memory trace: one span around each
// call the benchmark makes into a layer, nested under the batch that
// caused it. Spans are recorded from the benchmark's own files — the
// program under test carries no instrumentation — kept in memory during
// the run, and written out once at the end.
package span

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the
// recorder was created; Parent indexes the enclosing span in the same
// client's list (-1 for a root); Batch ties every span of one batch
// together.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
	Client int    `json:"client"`
}

// Total accumulates every span of one name, kept or not.
type Total struct {
	Count int64 `json:"count"`
	// Nanos is the summed duration; ChildNanos the part of it covered by
	// directly nested spans. Self time is the difference.
	Nanos      int64 `json:"total_ns"`
	ChildNanos int64 `json:"child_ns"`
}

// SelfNanos is the span time not covered by child spans.
func (t Total) SelfNanos() int64 { return t.Nanos - t.ChildNanos }

type open struct {
	name  string
	start int64
	child int64 // nanoseconds covered by already closed children
	index int   // position in spans, -1 once the keep limit was reached
}

// Recorder collects the spans of one client goroutine. It is not safe
// for concurrent use: each client owns one, and Merge combines them
// after the clients have stopped. Totals cover every span; the span
// list itself stops growing at the keep limit so a workload with
// millions of batches cannot exhaust memory.
type Recorder struct {
	epoch  time.Time
	client int
	keep   int
	batch  int
	stack  []open
	spans  []Span
	totals map[string]*Total
	// Dropped counts spans that were timed and totalled but not kept.
	Dropped int64
}

// NewRecorder returns a recorder whose clock starts at epoch and which
// keeps at most keep spans in detail.
func NewRecorder(epoch time.Time, client, keep int) *Recorder {
	return &Recorder{epoch: epoch, client: client, keep: keep, totals: map[string]*Total{}}
}

// SetBatch names the batch that the following spans belong to.
func (r *Recorder) SetBatch(id int) {
	if r != nil {
		r.batch = id
	}
}

// Begin opens a span nested under the currently open one. A nil
// recorder is the untraced run: Begin and End do nothing.
func (r *Recorder) Begin(name string) {
	if r == nil {
		return
	}
	o := open{name: name, start: int64(time.Since(r.epoch)), index: -1}
	if len(r.spans) < r.keep {
		parent := -1
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1].index
		}
		o.index = len(r.spans)
		r.spans = append(r.spans, Span{Name: name, Start: o.start, Parent: parent, Batch: r.batch, Client: r.client})
	} else {
		r.Dropped++
	}
	r.stack = append(r.stack, o)
}

// End closes the innermost open span.
func (r *Recorder) End() {
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	n := len(r.stack) - 1
	o := r.stack[n]
	r.stack = r.stack[:n]
	if o.index >= 0 {
		r.spans[o.index].End = end
	}
	d := end - o.start
	t := r.totals[o.name]
	if t == nil {
		t = &Total{}
		r.totals[o.name] = t
	}
	t.Count++
	t.Nanos += d
	t.ChildNanos += o.child
	if n > 0 {
		r.stack[n-1].child += d
	}
}

// Trace is the merged result of a traced run, as written to disk.
type Trace struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Dropped  int64            `json:"spans_dropped"`
	Totals   map[string]Total `json:"totals"`
	Spans    []Span           `json:"spans"`
}

// Merge combines the clients' recorders. Parent indexes stay relative to
// each client's own spans, which are stored contiguously in client order.
func Merge(workload string, seed int64, recs []*Recorder) *Trace {
	tr := &Trace{Workload: workload, Seed: seed, Totals: map[string]Total{}}
	for _, r := range recs {
		base := len(tr.Spans)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			tr.Spans = append(tr.Spans, s)
		}
		tr.Dropped += r.Dropped
		for name, t := range r.totals {
			sum := tr.Totals[name]
			sum.Count += t.Count
			sum.Nanos += t.Nanos
			sum.ChildNanos += t.ChildNanos
			tr.Totals[name] = sum
		}
	}
	return tr
}

// Micros returns the summed duration of every span of the name, in
// microseconds.
func (tr *Trace) Micros(name string) float64 { return float64(tr.Totals[name].Nanos) / 1e3 }

// Names lists the span names in the trace, sorted.
func (tr *Trace) Names() []string {
	names := make([]string, 0, len(tr.Totals))
	for n := range tr.Totals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteFile stores the trace as one JSON document.
func (tr *Trace) WriteFile(path string) error {
	data, err := json.Marshal(tr)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
