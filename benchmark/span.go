package main

// Spans for the traced run. The benchmark cannot see inside a call into the
// program, so it runs each op once per depth — the round trip, then the
// handler alone, then the library calls the handler makes, then the
// eval/database/wal calls those make — each depth on its own copy of the
// state, kept identical by feeding every copy the same ops. A span is
// recorded around each call and linked to the span one depth up on the same
// op; a span's self time is its duration minus its children's.

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Op     int    `json:"op"`     // spans of one op share it
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, which is how the traced and untraced in-process runs are
// told apart.
type tracer struct {
	t0      time.Time
	spans   []span
	enabled bool
}

func newTracer(enabled bool) *tracer { return &tracer{t0: time.Now(), enabled: enabled} }

// begin opens a span and returns its id (0 when disabled).
func (t *tracer) begin(name, layer string, op, parent int) int {
	if !t.enabled {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Layer: layer})
	s := &t.spans[len(t.spans)-1]
	s.Start = int64(time.Since(t.t0))
	return s.ID
}

// end closes the span.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span name, each span's duration minus the summed
// durations of its children, in nanoseconds.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur()-children[s.ID])
	}
	return out
}

// totalTimes returns, per span name, each span's full duration.
func totalTimes(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": workload, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
