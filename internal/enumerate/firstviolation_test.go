package enumerate_test

import (
	"reflect"
	"testing"

	"setagree/internal/enumerate"
	"setagree/internal/obs"
)

// TestFirstViolationSweepEquivalence pins that stopping every sweep
// check at its first violation changes nothing a sweep reports: on E3's
// Thm 4.2 and E8's Thm 7.1 depth-2 families, the sweep with its checks
// reporting every violation and the sweep as it runs render the same
// report (solvers, inconclusive and refuted candidates, the sample
// failure with its witness and cycle) and the same counters, the
// benchmark's exact counts among them. Only explore.violations may
// differ: it counts at most one violation per check.
func TestFirstViolationSweepEquivalence(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		fam  *enumerate.Family
	}{
		{"e3", theorem42Family(2)},
		{"e8", thm71Family(2)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(full bool) (*enumerate.Report, map[string]int64) {
				sink := obs.NewSink()
				opts := enumerate.SweepOptions{Workers: 1, Obs: sink}
				if full {
					opts = enumerate.FullViolations(opts)
				}
				rep, err := enumerate.FalsifyDAC(tc.fam, 3, binaryVectors(3), opts)
				if err != nil {
					t.Fatalf("full=%v: %v", full, err)
				}
				return rep, sink.Snapshot().Counters
			}
			full, fullCounts := run(true)
			first, firstCounts := run(false)
			if !reflect.DeepEqual(first, full) {
				t.Errorf("report differs from the full-violation sweep's")
			}
			if got, want := renderFull(first), renderFull(full); got != want {
				t.Errorf("rendered report differs:\n%s\nvs\n%s", got, want)
			}
			if full.SampleFailure == nil {
				t.Fatalf("no refuted candidate")
			}
			runs := firstCounts["explore.runs"]
			if v := firstCounts["explore.violations"]; v <= 0 || v > runs {
				t.Errorf("explore.violations = %d, want in [1, %d] (one at most per check)", v, runs)
			}
			if firstCounts["explore.violations"] >= fullCounts["explore.violations"] {
				t.Errorf("explore.violations = %d, full sweep %d: no check reported fewer",
					firstCounts["explore.violations"], fullCounts["explore.violations"])
			}
			delete(firstCounts, "explore.violations")
			delete(fullCounts, "explore.violations")
			if !reflect.DeepEqual(firstCounts, fullCounts) {
				t.Errorf("counters differ:\n%v\nvs\n%v", firstCounts, fullCounts)
			}
			t.Logf("candidates %d, refuted %d, explore.runs %d, explore.states %d, sweep.states %d, memo hits %d",
				first.Candidates, firstCounts["sweep.refuted"], runs, firstCounts["explore.states"],
				first.States, firstCounts["sweep.memo_hits"])
		})
	}
}
