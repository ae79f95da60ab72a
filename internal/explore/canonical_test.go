package explore_test

import (
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
	slow           bool
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
				t.Skip("the reference scan over alg2 n=7 takes seconds")
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
// successors of alg2 n=7 under ids symmetry (group order 720): one op
// is one successor.
func BenchmarkCanonical(b *testing.B) {
	s := canonSuite(b, "alg2-n7-ids")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, gi, _ := s.Canonical(i % s.Len())
		canonSink += gi
	}
}
