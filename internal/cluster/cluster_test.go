package cluster

import (
	"context"
	"encoding/json"
	"testing"

	"setagree/internal/enumerate"
)

// TestSpecRoundTrip pins that a SweepSpec survives JSON and rebuilds
// the same candidate space.
func TestSpecRoundTrip(t *testing.T) {
	t.Parallel()
	sp := Thm71()
	buf, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepSpec
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	p1, err := sp.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := back.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Candidates() != 1116 || p2.Candidates() != 1116 {
		t.Fatalf("candidates = %d / %d, want 1116", p1.Candidates(), p2.Candidates())
	}
	if p1.Pruned() != p2.Pruned() {
		t.Fatalf("pruned = %d / %d", p1.Pruned(), p2.Pruned())
	}
	for _, i := range []int{0, 557, 1115} {
		a, b := p1.Assignment(i), p2.Assignment(i)
		for r := range a.Shapes {
			if a.Shapes[r].String() != b.Shapes[r].String() {
				t.Fatalf("candidate %d shape %d differs after round-trip", i, r)
			}
		}
	}
}

// TestSpecValidation pins the error surface of bad specs.
func TestSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []SweepSpec{
		{},
		{Task: TaskSpec{Kind: "dac", N: 3}, Depth: 1},
		{Task: TaskSpec{Kind: "frobnicate", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 0, Method: "read"}}, Depth: 1, Actions: []string{"retry"}},
		{Task: TaskSpec{Kind: "dac", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 5, Method: "read"}}, Depth: 1, Actions: []string{"retry"}},
		{Task: TaskSpec{Kind: "dac", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 0, Method: "write", Arg: "banana"}}, Depth: 1, Actions: []string{"retry"}},
		{Task: TaskSpec{Kind: "dac", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 0, Method: "read"}}, Depth: 1, Actions: []string{"explode"}},
	}
	for i, sp := range cases {
		if _, err := sp.Prepare(); err == nil {
			t.Errorf("case %d: bad spec prepared without error", i)
		}
	}
}

// TestMergeValidation pins the tiling rules: duplicates collapse,
// gaps, overlaps, and pruned disagreement are errors.
func TestMergeValidation(t *testing.T) {
	t.Parallel()
	sh := func(lo, hi int) *ShardReport { return &ShardReport{Lo: lo, Hi: hi, Pruned: 7, States: hi - lo} }

	rep, err := Merge(10, []*ShardReport{sh(5, 10), sh(0, 5), sh(5, 10)})
	if err != nil {
		t.Fatalf("duplicate shard should collapse, got %v", err)
	}
	if rep.States != 10 {
		t.Errorf("duplicate counted twice: states = %d, want 10", rep.States)
	}
	if _, err := Merge(10, []*ShardReport{sh(0, 5)}); err == nil {
		t.Error("missing tail accepted")
	}
	if _, err := Merge(10, []*ShardReport{sh(0, 5), sh(7, 10)}); err == nil {
		t.Error("gap accepted")
	}
	if _, err := Merge(10, []*ShardReport{sh(0, 6), sh(5, 10)}); err == nil {
		t.Error("overlap accepted")
	}
	bad := sh(5, 10)
	bad.Pruned = 3
	if _, err := Merge(10, []*ShardReport{sh(0, 5), bad}); err == nil {
		t.Error("pruned disagreement accepted")
	}
}

// TestRunLocalMatchesFalsify pins that Run reproduces the enumerate
// sweep it wraps.
func TestRunLocalMatchesFalsify(t *testing.T) {
	t.Parallel()
	sp := Thm71()
	fam, err := sp.Family()
	if err != nil {
		t.Fatal(err)
	}
	vectors, err := sp.Vectors()
	if err != nil {
		t.Fatal(err)
	}
	full, err := enumerate.FalsifyDAC(fam, 3, vectors, enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	one, err := Run(context.Background(), sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.Candidates != full.Candidates || one.States != full.States ||
		len(one.Solvers) != len(full.Solvers) || len(one.Inconclusive) != len(full.Inconclusive) {
		t.Errorf("Run diverges from FalsifyDAC: %+v vs Report{cand %d states %d solvers %d inc %d}",
			one, full.Candidates, full.States, len(full.Solvers), len(full.Inconclusive))
	}
	if (one.Failure != nil) != (full.SampleFailure != nil) {
		t.Errorf("refutation disagreement: Run %v, falsify %v", one.Failure, full.SampleFailure)
	}
}
