package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for the unit's root
	start, end time.Time
}

// trace holds the spans and layer samples of one traced unit, in memory
// until the run ends. Calls are sequential within a unit, so the open
// spans form a stack. Every method is a no-op on a nil trace, which is
// how untraced units run the same code.
type trace struct {
	spans   []span
	open    []int
	samples map[string]float64
}

func newTrace() *trace { return &trace{samples: make(map[string]float64)} }

// begin opens a span named name under the innermost open span.
func (t *trace) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *trace) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = time.Now()
}

// sample records a layer observation of this unit, such as a counter
// delta or a ratio.
func (t *trace) sample(name string, v float64) {
	if t != nil {
		t.samples[name] = v
	}
}

// durationOf is the summed duration of the spans named name.
func (t *trace) durationOf(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func (t *trace) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.name] += s.end.Sub(s.start) - covered(children[i])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(a, b int) bool { return spans[a].start.Before(spans[b].start) })
	var total time.Duration
	var reach time.Time
	for _, s := range spans {
		start := s.start
		if start.Before(reach) {
			start = reach
		}
		if s.end.After(start) {
			total += s.end.Sub(start)
			reach = s.end
		}
	}
	return total
}
