package spec_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"setagree/internal/core"
	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/value"
)

func TestAtomicAppliesSpec(t *testing.T) {
	t.Parallel()
	a := spec.NewAtomic(objects.NewRegister(), nil)
	v, err := a.Apply(value.Read())
	if err != nil || v != value.None {
		t.Fatalf("read: %s, %v", v, err)
	}
	if _, err := a.Apply(value.Write(7)); err != nil {
		t.Fatal(err)
	}
	v, err = a.Apply(value.Read())
	if err != nil || v != 7 {
		t.Fatalf("read after write: %s, %v", v, err)
	}
}

func TestAtomicBadOp(t *testing.T) {
	t.Parallel()
	a := spec.NewAtomic(objects.NewRegister(), nil)
	if _, err := a.Apply(value.Propose(1)); !errors.Is(err, spec.ErrBadOp) {
		t.Fatalf("err = %v, want ErrBadOp", err)
	}
}

func TestAtomicReset(t *testing.T) {
	t.Parallel()
	a := spec.NewAtomic(objects.NewRegister(), nil)
	if _, err := a.Apply(value.Write(3)); err != nil {
		t.Fatal(err)
	}
	a.Reset()
	v, err := a.Apply(value.Read())
	if err != nil || v != value.None {
		t.Fatalf("after reset: %s, %v", v, err)
	}
}

// TestAtomicConcurrentCounter hammers one Atomic from many goroutines;
// fetch&add must hand out every prior total exactly once.
func TestAtomicConcurrentCounter(t *testing.T) {
	t.Parallel()
	a := spec.NewAtomic(objects.NewCounter(), nil)
	const workers, each = 8, 200
	var wg sync.WaitGroup
	results := make([][]value.Value, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v, err := a.Apply(value.FetchAdd(1))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				results[w] = append(results[w], v)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[value.Value]bool)
	for _, rs := range results {
		for _, v := range rs {
			if seen[v] {
				t.Fatalf("prior total %s handed out twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != workers*each {
		t.Fatalf("%d distinct totals, want %d", len(seen), workers*each)
	}
}

// TestChooserPolicies pins the four built-in choosers.
func TestChooserPolicies(t *testing.T) {
	t.Parallel()
	if got := spec.FirstChooser().Choose(5); got != 0 {
		t.Errorf("First = %d", got)
	}
	if got := spec.LastChooser().Choose(5); got != 4 {
		t.Errorf("Last = %d", got)
	}
	rot := spec.RotatingChooser()
	a, b := rot.Choose(3), rot.Choose(3)
	if a == b {
		t.Errorf("Rotating returned %d twice", a)
	}
	sc := spec.SeededChooser(42)
	sc2 := spec.SeededChooser(42)
	for i := 0; i < 20; i++ {
		x, y := sc.Choose(7), sc2.Choose(7)
		if x != y {
			t.Fatal("SeededChooser not reproducible")
		}
		if x < 0 || x >= 7 {
			t.Fatalf("SeededChooser out of range: %d", x)
		}
	}
}

// TestAtomicChooserSelectsBranch checks that the chooser drives
// nondeterministic responses: a LastChooser 2-SA returns the most
// recently stored value.
func TestAtomicChooserSelectsBranch(t *testing.T) {
	t.Parallel()
	a := spec.NewAtomic(objects.NewTwoSA(), spec.LastChooser())
	if _, err := a.Apply(value.Propose(1)); err != nil {
		t.Fatal(err)
	}
	v, err := a.Apply(value.Propose(2))
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("LastChooser 2-SA returned %s, want 2", v)
	}

	b := spec.NewAtomic(objects.NewTwoSA(), spec.FirstChooser())
	if _, err := b.Apply(value.Propose(1)); err != nil {
		t.Fatal(err)
	}
	v, err = b.Apply(value.Propose(2))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("FirstChooser 2-SA returned %s, want 1", v)
	}
}

func TestDeterministicDetection(t *testing.T) {
	t.Parallel()
	cases := []struct {
		sp   spec.Spec
		want bool
	}{
		{objects.NewRegister(), true},
		{objects.NewConsensus(3), true},
		{objects.NewTwoSA(), false},
		{objects.NewSetAgreement(4, 1), true},
		{core.NewPAC(2), true},
		{core.NewPACM(2, 2), true},
		{core.NewOPrime(2, nil), false},
	}
	for _, tc := range cases {
		if got := spec.Deterministic(tc.sp); got != tc.want {
			t.Errorf("Deterministic(%s) = %v, want %v", tc.sp.Name(), got, tc.want)
		}
	}
}

func TestCheckProposal(t *testing.T) {
	t.Parallel()
	pac := core.NewPAC(2)
	if err := spec.CheckProposal(pac, value.Propose(3)); err != nil {
		t.Errorf("valid proposal rejected: %v", err)
	}
	for _, v := range []value.Value{value.None, value.Bottom, value.Done} {
		err := spec.CheckProposal(pac, value.Propose(v))
		if !errors.Is(err, spec.ErrBadOp) {
			t.Errorf("sentinel %s accepted", v)
		} else if !strings.HasPrefix(err.Error(), pac.Name()+": ") {
			t.Errorf("sentinel %s: error %q does not name the object", v, err)
		}
	}
}

func TestAtomicSnapshotIsolated(t *testing.T) {
	t.Parallel()
	a := spec.NewAtomic(core.NewPAC(2), nil)
	if _, err := a.Apply(value.ProposeAt(5, 1)); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if _, err := a.Apply(value.Decide(1)); err != nil {
		t.Fatal(err)
	}
	// The earlier snapshot still shows the pre-decide state.
	ps, ok := snap.(core.PACState)
	if !ok || ps.V[0] != 5 {
		t.Fatalf("snapshot changed under later ops: %+v", snap)
	}
}
