package main

import (
	"fmt"
	"sort"
)

// minTailSamples is the number of samples that must lie beyond a tail
// percentile before it is reported.
const minTailSamples = 10

// median returns the median of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tail returns the pct-th percentile of xs (nearest rank) and true, or
// false when fewer than minTailSamples samples lie beyond it.
func tail(xs []float64, pct int) (float64, bool) {
	rank := (pct*len(xs) + 99) / 100 // ceil(pct% of n), 1-based
	if rank < 1 || len(xs)-rank < minTailSamples {
		return 0, false
	}
	return sorted(xs)[rank-1], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// counts is a unit's exact work: a verdict or work count by name.
type counts map[string]int64

// mismatches lists, sorted by name, every count in want that got lacks
// or holds with another value.
func mismatches(want, got counts) []string {
	var out []string
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: missing, want %d", name, w))
		case g != w:
			out = append(out, fmt.Sprintf("%s: got %d, want %d", name, g, w))
		}
	}
	sort.Strings(out)
	return out
}
