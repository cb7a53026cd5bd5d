package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the trace. Every operation (a batch run or
// a submit) owns one root span; Op names that root, so all spans of one
// operation share it. Synthetic spans are not timed directly: they are
// phase durations read back from a report the program returned, laid out
// back to back from their parent's start.
type span struct {
	Op        int    `json:"op"`
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Synthetic bool   `json:"synthetic,omitempty"`
	// next is where the next synthetic child of this span starts.
	next int64
}

// tracer records spans in memory around the benchmark's own calls into the
// program. A disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	stack  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// begin opens a span nested under the innermost open one and returns its
// id (-1 when tracing is off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	parent, op := -1, id
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		op = t.spans[parent].Op
	}
	now := time.Since(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, next: now})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a span measured elsewhere (another goroutine, or a call the
// tracer was not open around) under parent, -1 for a new root, and
// returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	op := id
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: s, End: end.Sub(t.origin).Nanoseconds(), next: s})
	return id
}

// phase attaches a synthetic child of duration d to span parent.
func (t *tracer) phase(parent int, name string, d time.Duration) {
	if parent < 0 {
		return
	}
	p := &t.spans[parent]
	start := p.next
	p.next += d.Nanoseconds()
	t.spans = append(t.spans, span{Op: p.Op, ID: len(t.spans), Parent: parent, Name: name,
		Start: start, End: start + d.Nanoseconds(), Synthetic: true})
}

// layerTimes returns, per span name, the median over operations of each
// operation's summed span duration in milliseconds, plus the same for self
// time (duration minus the children's durations) under "<name>.self".
func (t *tracer) layerTimes() map[string]float64 {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	perOp := map[string]map[int]float64{}
	add := func(name string, op int, ns int64) {
		if perOp[name] == nil {
			perOp[name] = map[int]float64{}
		}
		perOp[name][op] += float64(ns) / 1e6
	}
	for i, s := range t.spans {
		add(s.Name, s.Op, s.End-s.Start)
		add(s.Name+".self", s.Op, s.End-s.Start-childSum[i])
	}
	out := make(map[string]float64, len(perOp))
	for name, byOp := range perOp {
		vals := make([]float64, 0, len(byOp))
		for _, v := range byOp {
			vals = append(vals, v)
		}
		out[name] = median(vals)
	}
	return out
}

// write stores every span as one JSON line, in recording order.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(vals []float64) float64 {
	return quantile(vals, 0.5)
}

// quantile returns the q-quantile of vals by linear interpolation between
// closest ranks; 0 for no values.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
