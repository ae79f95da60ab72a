package explore_test

import (
	"fmt"
	"testing"

	"setagree/internal/core"
	"setagree/internal/explore"
	"setagree/internal/programs"
	"setagree/internal/task"
	"setagree/internal/value"
)

// canonCase is one system whose reachable successors canonical is
// checked or measured over.
type canonCase struct {
	name   string
	prot   programs.Protocol
	inputs []value.Value
	tsk    task.Task
	mode   explore.Symmetry
	// order and classes pin the group order and its number of distinct
	// value maps, so a case cannot silently degenerate.
	order, classes int
	// slow cases take seconds to scan and are skipped under -short;
	// heavy ones take minutes under the race detector, which has
	// nothing to check in the single-goroutine scan, and skip there.
	slow, heavy bool
}

func dacInputs(n int) []value.Value {
	in := make([]value.Value, n)
	in[0] = 1
	return in
}

var canonCases = []canonCase{
	{name: "alg2-n4-ids", prot: programs.Algorithm2(4, 1), inputs: dacInputs(4), tsk: task.DAC{N: 4, P: 0},
		mode: explore.SymmetryIDs, order: 6, classes: 1},
	{name: "alg2-n4-values", prot: programs.Algorithm2(4, 1), inputs: dacInputs(4), tsk: task.DAC{N: 4, P: 0},
		mode: explore.SymmetryValues, order: 6, classes: 1},
	{name: "alg2-n5-ids", prot: programs.Algorithm2(5, 1), inputs: dacInputs(5), tsk: task.DAC{N: 5, P: 0},
		mode: explore.SymmetryIDs, order: 24, classes: 1},
	{name: "alg2-n5-values", prot: programs.Algorithm2(5, 1), inputs: dacInputs(5), tsk: task.DAC{N: 5, P: 0},
		mode: explore.SymmetryValues, order: 24, classes: 1},
	{name: "alg2-n7-ids", prot: programs.Algorithm2(7, 1), inputs: dacInputs(7), tsk: task.DAC{N: 7, P: 0},
		mode: explore.SymmetryIDs, order: 720, classes: 1, slow: true},
	{name: "alg2-n8-ids", prot: programs.Algorithm2(8, 1), inputs: dacInputs(8), tsk: task.DAC{N: 8, P: 0},
		mode: explore.SymmetryIDs, order: 5040, classes: 1, slow: true, heavy: true},
	// Two program classes (processes 0, 2, 4 and 1, 3) with mixed
	// inputs: value maps swap 4 and 6 alongside processes 1 and 3.
	{name: "partition-uneven-values", prot: programs.PartitionUneven(5, 2, 2), inputs: []value.Value{3, 4, 3, 6, 3},
		tsk: task.KSetAgreement{N: 5, K: 2}, mode: explore.SymmetryValues, order: 12, classes: 2},
	// Distinct inputs: every group element carries its own value map.
	{name: "consensus-values-distinct", prot: programs.ConsensusFromObject(2, 3), inputs: []value.Value{3, 5, 7},
		tsk: task.Consensus{N: 3}, mode: explore.SymmetryValues, order: 6, classes: 6},
	{name: "pacm-alg2-n4-ids", prot: programs.Algorithm2ViaPACM(4, 2, 1), inputs: dacInputs(4), tsk: task.DAC{N: 4, P: 0},
		mode: explore.SymmetryIDs, order: 6, classes: 1},
	{name: "oprime-kset-values", prot: programs.KSetFromOPrime(core.NewOPrime(2, nil), 2, 4), inputs: []value.Value{3, 3, 5, 7},
		tsk: task.KSetAgreement{N: 4, K: 2}, mode: explore.SymmetryValues, order: 4, classes: 2},
	// Processes 2 and 3 share program and input, but only 2 owns a
	// port of the (3,2)-PACs: the group swaps 0 and 1 alone.
	{name: "partition-on-narrow-pac-ids", prot: programs.PartitionObjectO(2, 2), inputs: []value.Value{3, 3, 5, 5},
		tsk: task.KSetAgreement{N: 4, K: 2}, mode: explore.SymmetryIDs, order: 2, classes: 1},
	{name: "oprime-base-kset-ids", prot: programs.KSetFromOPrimeBase(2, 2, 4), inputs: []value.Value{3, 3, 3, 5},
		tsk: task.KSetAgreement{N: 4, K: 2}, mode: explore.SymmetryIDs, order: 6, classes: 1},
}

// canonSuite builds the suite of the named case.
func canonSuite(tb testing.TB, name string) *explore.CanonSuite {
	tb.Helper()
	for _, tc := range canonCases {
		if tc.name == name {
			return tc.suite(tb)
		}
	}
	tb.Fatalf("no canonicalization case %q", name)
	return nil
}

func (tc canonCase) suite(tb testing.TB) *explore.CanonSuite {
	tb.Helper()
	sys, err := tc.prot.System(tc.inputs)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := explore.NewCanonSuite(sys, tc.tsk, tc.mode)
	if err != nil {
		tb.Fatal(err)
	}
	if s.GroupOrder() != tc.order || s.ValueClasses() != tc.classes {
		tb.Fatalf("group order %d with %d value maps, want %d with %d",
			s.GroupOrder(), s.ValueClasses(), tc.order, tc.classes)
	}
	return s
}

// TestSymmetryCanonicalMatchesScan is the differential test of orbit
// canonicalization: on every successor the explorer canonicalizes,
// canonical returns the key bytes, minimizing group index and orbit
// size the full render-every-element scan returns.
func TestSymmetryCanonicalMatchesScan(t *testing.T) {
	t.Parallel()
	for _, tc := range canonCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("the reference scan takes seconds")
			}
			if tc.heavy && raceEnabled {
				t.Skip("the reference scan takes minutes under the race detector")
			}
			t.Parallel()
			s := tc.suite(t)
			moved, err := s.MatchScan()
			if err != nil {
				t.Fatal(err)
			}
			if moved == 0 {
				t.Fatalf("none of %d successors moved under the group: the case is vacuous", s.Len())
			}
		})
	}
}

// TestSymmetryCanonicalMaskByteOrder runs the differential test past
// one mask byte. Alg2 at n=9 with inputs 1,0,0,0,0,1,1,1,1 has classes
// {1..4} and {5..8} (order 576); when three of processes 5..8 have
// stepped, slots {5,7,8} (mask bytes a0 03) beat the lowest slots
// {5,6,7} (e0 01). The reachable graph (81,430 states) is too large
// for a test, so the configurations come from random walks, and the
// test fails if none of them exercises that case.
func TestSymmetryCanonicalMaskByteOrder(t *testing.T) {
	t.Parallel()
	inputs := []value.Value{1, 0, 0, 0, 0, 1, 1, 1, 1}
	sys, err := programs.Algorithm2(9, 1).System(inputs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := explore.NewWalkSuite(sys, task.DAC{N: 9, P: 0}, explore.SymmetryIDs, 60, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.GroupOrder() != 576 {
		t.Fatalf("group order %d, want 576", s.GroupOrder())
	}
	moved, err := s.MatchScan()
	if err != nil {
		t.Fatal(err)
	}
	beyond := s.BeyondLowestSlots()
	if moved == 0 || beyond == 0 {
		t.Fatalf("%d configurations: %d moved, %d with a mask beyond the lowest slots; the walk is vacuous",
			s.Len(), moved, beyond)
	}
	t.Logf("%d configurations: %d moved, %d with a mask beyond the lowest slots", s.Len(), moved, beyond)
}

// TestSymmetryCanonicalAllocs pins canonical allocation-free once its
// scratch is warm, on the process-heavy alg2 instance and on an O'_n
// system whose object keys iterate level maps.
func TestSymmetryCanonicalAllocs(t *testing.T) {
	for _, name := range []string{"alg2-n5-ids", "oprime-kset-values", "oprime-base-kset-ids"} {
		s := canonSuite(t, name)
		for i := 0; i < s.Len(); i++ {
			s.Canonical(i)
		}
		i := 0
		allocs := testing.AllocsPerRun(s.Len(), func() {
			s.Canonical(i % s.Len())
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: canonical allocates %.2f times per call, want 0", name, allocs)
		}
	}
}

// canonSink keeps the benchmarked call from being optimized away.
var canonSink int

// BenchmarkCanonical times orbit canonicalization alone over the
// successors of alg2 under ids symmetry at n=7 (group order 720) and
// n=8 (5,040): one op is one successor. Canonicalization sorts instead
// of scanning the group, so the cost per successor tracks n, not the
// group order.
func BenchmarkCanonical(b *testing.B) {
	for _, n := range []int{7, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := canonSuite(b, fmt.Sprintf("alg2-n%d-ids", n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, gi, _ := s.Canonical(i % s.Len())
				canonSink += gi
			}
		})
	}
}
