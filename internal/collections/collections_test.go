package collections

import (
	"bytes"
	"testing"
	"testing/quick"

	"setagree/internal/power"
)

// menuForTests mixes finite, unbounded, and register-equivalent types.
var menuForTests = []Type{
	{N: 2, K: 1},              // 2-consensus
	{N: 3, K: 2},              // (3,2)-SA
	{N: power.Infinite, K: 2}, // unbounded 2-SA
	{N: 1, K: 1},              // register-equivalent
}

// bruteCost is the reference decision procedure: minimize over every
// per-type group size directly (the DP must agree).
func bruteCost(types []Type, procs int) int {
	if len(types) == 0 {
		return procs
	}
	t, rest := types[0], types[1:]
	best := bruteCost(rest, procs)
	for a := 1; a <= procs; a++ {
		if c := t.minAgreement(a) + bruteCost(rest, procs-a); c < best {
			best = c
		}
	}
	return best
}

func TestEngineMatchesBruteForce(t *testing.T) {
	t.Parallel()
	eng := NewEngine()
	colls := [][]Type{
		{},
		{{N: 2, K: 1}},
		{{N: 3, K: 2}},
		{{N: power.Infinite, K: 2}},
		{{N: 2, K: 1}, {N: 3, K: 2}},
		{{N: 2, K: 1}, {N: power.Infinite, K: 3}},
		{{N: 4, K: 1}, {N: 2, K: 1}, {N: 3, K: 2}},
		{{N: 1, K: 1}, {N: 2, K: 2}}, // mutually dominating pair
	}
	for _, types := range colls {
		c := Collection{Types: types}
		for procs := 0; procs <= 7; procs++ {
			want := procs
			if procs > 0 {
				want = bruteCost(types, procs)
			}
			got, err := eng.MinAgreement(c, procs)
			if err != nil {
				t.Fatalf("%s procs=%d: %v", c, procs, err)
			}
			if got != want {
				t.Errorf("%s procs=%d: MinAgreement = %d, brute force = %d", c, procs, got, want)
			}
			raw, err := eng.MinAgreementUnpruned(c, procs)
			if err != nil {
				t.Fatalf("%s procs=%d unpruned: %v", c, procs, err)
			}
			if raw != got {
				t.Errorf("%s procs=%d: pruned %d != unpruned %d", c, procs, got, raw)
			}
		}
	}
}

// TestSingletonPowerEqualsSA is the anchoring property: a collection
// holding one type (in unbounded supply, like power.SA assumes) has
// exactly that type's power sequence.
func TestSingletonPowerEqualsSA(t *testing.T) {
	t.Parallel()
	eng := NewEngine()
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw % 6) // 0 = Infinite
		k := 1 + int(kRaw%4)
		if n != power.Infinite && n < 1 {
			n = 1
		}
		seq, err := eng.Power(Collection{Types: []Type{{N: n, K: k}}})
		if err != nil {
			t.Fatalf("(%d,%d): %v", n, k, err)
		}
		want := power.SA(n, k)
		for j := 1; j <= 6; j++ {
			if got, w := seq.At(j), want.At(j); got != w {
				t.Errorf("(%d,%d): collection At(%d) = %d, power.SA = %d", n, k, j, got, w)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPowerMonotoneUnderAddingObjects: extending a collection never
// lowers its power or raises its agreement cost.
func TestPowerMonotoneUnderAddingObjects(t *testing.T) {
	t.Parallel()
	eng := NewEngine()
	base := Collection{Types: []Type{{N: 2, K: 1}}}
	for _, extra := range menuForTests {
		bigger := Collection{Types: append(append([]Type(nil), base.Types...), extra)}
		for procs := 1; procs <= 6; procs++ {
			a, err := eng.MinAgreement(base, procs)
			if err != nil {
				t.Fatal(err)
			}
			b, err := eng.MinAgreement(bigger, procs)
			if err != nil {
				t.Fatal(err)
			}
			if b > a {
				t.Errorf("adding %s raised MinAgreement(%d): %d -> %d", extra.Name(), procs, a, b)
			}
		}
		bseq, err := eng.Power(base)
		if err != nil {
			t.Fatal(err)
		}
		gseq, err := eng.Power(bigger)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= 5; j++ {
			bv, gv := bseq.At(j), gseq.At(j)
			if bv == power.Infinite && gv != power.Infinite {
				t.Errorf("adding %s lost infinite power at level %d", extra.Name(), j)
			}
			if bv != power.Infinite && gv != power.Infinite && gv < bv {
				t.Errorf("adding %s lowered At(%d): %d -> %d", extra.Name(), j, bv, gv)
			}
		}
	}
}

func TestCanonicalDropsDominated(t *testing.T) {
	t.Parallel()
	c := Collection{Types: []Type{
		{N: 1, K: 1}, {N: 2, K: 1}, {N: 2, K: 1}, {N: 2, K: 2},
	}}
	canon := c.Canonical()
	// (2,1) dominates (1,1); duplicates collapse; (1,1) and (2,2) are
	// register-equivalent so only the dominating 2-consensus survives.
	if got, want := canon.Key(), "2,1"; got != want {
		t.Fatalf("Canonical = %s (key %q), want key %q", canon, got, want)
	}
	// Mutual equivalence without a strict dominator keeps the first.
	eq := Collection{Types: []Type{{N: 2, K: 2}, {N: 1, K: 1}}}
	if got, want := eq.Canonical().Key(), "1,1"; got != want {
		t.Fatalf("equivalence class kept %q, want %q", got, want)
	}
}

func TestAllocateWitnessesMinAgreement(t *testing.T) {
	t.Parallel()
	eng := NewEngine()
	c := Collection{Types: []Type{{N: 2, K: 1}, {N: 3, K: 2}}}
	for procs := 1; procs <= 6; procs++ {
		ma, err := eng.MinAgreement(c, procs)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := eng.Allocate(c, procs)
		if err != nil {
			t.Fatal(err)
		}
		if alloc.Cost != ma {
			t.Errorf("procs=%d: Allocate cost %d != MinAgreement %d", procs, alloc.Cost, ma)
		}
		total, sum := alloc.Registers, alloc.Registers
		for _, g := range alloc.Groups {
			if g.Procs < 1 {
				t.Errorf("procs=%d: empty group %s", procs, g.Type.Name())
			}
			total += g.Procs
			sum += g.Type.minAgreement(g.Procs)
		}
		if total != procs {
			t.Errorf("procs=%d: allocation covers %d processes", procs, total)
		}
		if sum != alloc.Cost {
			t.Errorf("procs=%d: group levels sum to %d, cost %d", procs, sum, alloc.Cost)
		}
	}
}

func TestSpaceEnumeration(t *testing.T) {
	t.Parallel()
	s := Space{Menu: menuForTests, Size: 2}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// C(4+2-1, 2) = 10.
	if got := s.Count(); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}
	seen := map[string]bool{}
	for i := 0; i < s.Count(); i++ {
		c, err := s.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Types) != 2 {
			t.Fatalf("At(%d) = %s: wrong size", i, c)
		}
		key := c.Key()
		if seen[key] {
			t.Fatalf("At(%d) repeats multiset %s", i, c)
		}
		seen[key] = true
	}
	if _, err := s.At(10); err == nil {
		t.Fatal("At(Count) accepted")
	}
	if _, err := s.At(-1); err == nil {
		t.Fatal("At(-1) accepted")
	}
}

func TestSpaceValidation(t *testing.T) {
	t.Parallel()
	cases := []Space{
		{Menu: nil, Size: 1},
		{Menu: []Type{{N: 2, K: 1}}, Size: 0},
		{Menu: []Type{{N: 2, K: 1}, {N: 2, K: 1}}, Size: 1},
		{Menu: []Type{{N: 2, K: 0}}, Size: 1},
		{Menu: []Type{{N: -3, K: 1}}, Size: 1},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid space accepted", i)
		}
	}
}

func testSpace() (Space, Task) {
	return Space{Menu: menuForTests, Size: 2}, Task{Procs: 4, K: 2}
}

// TestSweepDeterministic pins the headline invariant: sweep reports
// are byte-identical at any worker count and with dominance pruning on
// or off. The second input is a
// 35-collection space (every size-3 multiset over five types, bounded
// and unbounded) in which pruning spares every collection a fresh
// evaluation, so pruning on and off do very different DP work and must
// still render the same bytes.
func TestSweepDeterministic(t *testing.T) {
	t.Parallel()
	small, smallTask := testSpace()
	pruned := Space{
		Menu: []Type{
			{N: 2, K: 1}, {N: 3, K: 2}, {N: 4, K: 3},
			{N: power.Infinite, K: 2}, {N: power.Infinite, K: 3},
		},
		Size: 3,
	}
	if got := pruned.Count(); got != 35 {
		t.Fatalf("pruned space has %d collections, want 35", got)
	}
	for _, in := range []struct {
		name  string
		space Space
		tsk   Task
	}{
		{"menu-size2", small, smallTask},
		{"pruned-size3", pruned, Task{Procs: 6, K: 2}},
	} {
		space, tsk := in.space, in.tsk
		var baseline []byte
		for _, cfg := range []struct {
			name    string
			workers int
			prune   bool
		}{
			{"w1-prune", 1, true},
			{"w4-prune", 4, true},
			{"w1-noprune", 1, false},
			{"w4-noprune", 4, false},
		} {
			rep, err := Sweep(space, tsk, SweepOptions{Workers: cfg.workers, DisablePrune: !cfg.prune})
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, cfg.name, err)
			}
			buf, err := rep.Render()
			if err != nil {
				t.Fatal(err)
			}
			if baseline == nil {
				baseline = buf
				continue
			}
			if !bytes.Equal(buf, baseline) {
				t.Errorf("%s %s: report bytes differ from baseline", in.name, cfg.name)
			}
		}
	}
}

func TestSweepVerdicts(t *testing.T) {
	t.Parallel()
	space, tsk := testSpace()
	rep, err := Sweep(space, tsk, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collections != 10 || len(rep.Rows) != 10 {
		t.Fatalf("report covers %d/%d collections", rep.Collections, len(rep.Rows))
	}
	if rep.Pruned == 0 {
		t.Error("no pruned rows in a space with dominated and duplicate collections")
	}
	eng := NewEngine()
	for _, row := range rep.Rows {
		c, err := space.At(row.Index)
		if err != nil {
			t.Fatal(err)
		}
		ma, err := eng.MinAgreement(c, tsk.Procs)
		if err != nil {
			t.Fatal(err)
		}
		if row.MinAgreement != ma {
			t.Errorf("row %d (%s): MinAgreement %d, engine says %d", row.Index, row.Collection, row.MinAgreement, ma)
		}
		if row.Solvable != (ma <= tsk.K) {
			t.Errorf("row %d (%s): Solvable=%v with MinAgreement %d, K %d", row.Index, row.Collection, row.Solvable, ma, tsk.K)
		}
	}
}

func TestSweepRejectsBadInputs(t *testing.T) {
	t.Parallel()
	space, _ := testSpace()
	if _, err := Sweep(space, Task{Procs: 0, K: 1}, SweepOptions{}); err == nil {
		t.Error("degenerate task accepted")
	}
	if _, err := Sweep(Space{Menu: []Type{{N: 0, K: 0}}, Size: 1}, Task{Procs: 2, K: 1}, SweepOptions{}); err == nil {
		t.Error("invalid menu accepted")
	}
}
