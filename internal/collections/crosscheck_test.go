package collections

import (
	"testing"

	"setagree/internal/explore"
	"setagree/internal/obs"
	"setagree/internal/power"
)

// TestCrossValidateMatrix is the acceptance matrix: every decision-
// procedure verdict for the reference menu at N <= 4 is confirmed by
// the model checker — solvable verdicts constructively (the witness
// protocol checks out), unsolvable ones by exhaustive falsification of
// the depth-1 symmetric family.
func TestCrossValidateMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("model-checking matrix")
	}
	t.Parallel()
	eng := NewEngine()
	space := Space{
		Menu: []Type{{N: 2, K: 1}, {N: 3, K: 2}, {N: power.Infinite, K: 2}},
		Size: 1,
	}
	sink := obs.NewSink()
	results, err := CrossValidateMatrix(eng, space, 4, CrossOptions{
		Symmetry: explore.SymmetryIDs,
		Obs:      sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 collections × procs 2..4, each at K = MinAgreement plus, where
	// MinAgreement > 1, at K = MinAgreement-1: 17 verdicts, all confirmed.
	if len(results) != 17 {
		t.Fatalf("matrix has %d verdicts, want 17", len(results))
	}
	solvable, unsolvable := 0, 0
	for _, r := range results {
		if !r.Confirmed {
			t.Errorf("%s procs=%d K=%d solvable=%v NOT confirmed: %s",
				r.Collection, r.Procs, r.K, r.Solvable, r.Detail)
		}
		if r.Solvable {
			solvable++
		} else {
			unsolvable++
		}
	}
	if solvable == 0 || unsolvable == 0 {
		t.Errorf("matrix exercised only one verdict side: %d solvable, %d unsolvable", solvable, unsolvable)
	}
	if got := sink.Counter("collections.crosschecked").Load(); got != int64(len(results)) {
		t.Errorf("collections.crosschecked = %d, want %d", got, len(results))
	}
	if got := sink.Counter("collections.crosscheck_failures").Load(); got != 0 {
		t.Errorf("collections.crosscheck_failures = %d", got)
	}
}

// TestCrossValidateMixedCollection drives a genuinely mixed multiset
// through both verdict sides at N = 4.
func TestCrossValidateMixedCollection(t *testing.T) {
	if testing.Short() {
		t.Skip("model-checking")
	}
	t.Parallel()
	eng := NewEngine()
	c := Collection{Types: []Type{{N: 2, K: 1}, {N: 3, K: 2}}}
	ma, err := eng.MinAgreement(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ma < 2 {
		t.Fatalf("unexpected MinAgreement %d for %s at 4 procs", ma, c)
	}
	pos, err := CrossValidate(eng, c, Task{Procs: 4, K: ma}, CrossOptions{Symmetry: explore.SymmetryIDs})
	if err != nil {
		t.Fatal(err)
	}
	if !pos.Solvable || !pos.Confirmed {
		t.Errorf("solvable side: %+v", pos)
	}
	neg, err := CrossValidate(eng, c, Task{Procs: 4, K: ma - 1}, CrossOptions{Symmetry: explore.SymmetryIDs})
	if err != nil {
		t.Fatal(err)
	}
	if neg.Solvable || !neg.Confirmed {
		t.Errorf("unsolvable side: %+v", neg)
	}
}

// TestWitnessProtocolShape pins the composition rules: instance
// counts, program counts, and the register fallback.
func TestWitnessProtocolShape(t *testing.T) {
	t.Parallel()
	eng := NewEngine()
	alloc, err := eng.Allocate(Collection{Types: []Type{{N: 2, K: 1}}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := WitnessProtocol(alloc, "t")
	if err != nil {
		t.Fatal(err)
	}
	if proto.Procs() != 4 {
		t.Errorf("witness has %d programs, want 4", proto.Procs())
	}
	// 4 processes on 2-consensus: two instances, no registers.
	if len(proto.Objects) != 2 {
		t.Errorf("witness has %d objects, want 2 consensus instances", len(proto.Objects))
	}

	// Registers-only allocation still builds a runnable system.
	empty, err := eng.Allocate(Collection{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	proto, err = WitnessProtocol(empty, "regs")
	if err != nil {
		t.Fatal(err)
	}
	if proto.Procs() != 3 || len(proto.Objects) != 1 {
		t.Errorf("register witness: %d programs, %d objects", proto.Procs(), len(proto.Objects))
	}
}
