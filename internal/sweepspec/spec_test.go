package sweepspec

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"setagree/internal/enumerate"
	"setagree/internal/value"
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

// TestSpecValidation pins the error surface of bad specs on the path
// Run takes: every case fails with an error wrapping ErrSpec, and none
// panics.
func TestSpecValidation(t *testing.T) {
	t.Parallel()
	dac := func(n, p int) SweepSpec {
		sp := Thm71()
		sp.Task = TaskSpec{Kind: "dac", N: n, P: p}
		return sp
	}
	cases := map[string]SweepSpec{
		"empty":      {},
		"no objects": {Task: TaskSpec{Kind: "dac", N: 3}, Depth: 1},
		"unknown task": {Task: TaskSpec{Kind: "frobnicate", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 0, Method: "read"}}, Depth: 1, Actions: []string{"retry"}},
		"object index": {Task: TaskSpec{Kind: "dac", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 5, Method: "read"}}, Depth: 1, Actions: []string{"retry"}},
		"unknown arg": {Task: TaskSpec{Kind: "dac", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 0, Method: "write", Arg: "banana"}}, Depth: 1, Actions: []string{"retry"}},
		"unknown action": {Task: TaskSpec{Kind: "dac", N: 3}, Objects: []ObjectSpec{{Kind: "register"}},
			Menu: []InvokeSpec{{Obj: 0, Method: "read"}}, Depth: 1, Actions: []string{"explode"}},
		// 1<<64 binary vectors wraps to none: every candidate would
		// "solve" without a single check.
		"dac n 64": dac(64, 0),
		// 1<<62 binary vectors cannot be allocated.
		"dac n 62":     dac(62, 0),
		"dac n 65":     dac(65, 0),
		"dac p 2":      dac(3, 2),
		"short input":  func() SweepSpec { sp := Thm52(); sp.Inputs = [][]value.Value{{0, 1}}; return sp }(),
		"bad symmetry": func() SweepSpec { sp := Thm52(); sp.Symmetry = "mirror"; return sp }(),
	}
	for name, sp := range cases {
		if _, err := Run(context.Background(), sp, nil, nil); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: err = %v, want one wrapping ErrSpec", name, err)
		}
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

// e3 is E3's Theorem 4.2 depth-2 sweep as a spec: the largest
// committed family, 768 p-shapes × 560 q-shapes before the prefilter.
func e3() SweepSpec {
	sp := Thm52()
	sp.Task = TaskSpec{Kind: "dac", N: 3}
	sp.Depth = 2
	return sp
}

// TestSpecBounds pins the bounds that keep one sweep job from
// enumerating an unbounded family or running an unbounded solo
// prefilter: Family and Options reject such specs with ErrSpec, by
// counting, before any shape is built. The committed families stay
// admitted, and the count matches the shapes Prepare would pair.
func TestSpecBounds(t *testing.T) {
	t.Parallel()
	with := func(sp SweepSpec, edit func(*SweepSpec)) SweepSpec {
		edit(&sp)
		return sp
	}
	families := map[string]SweepSpec{
		// 3^30 × 35 shapes per role.
		"depth 30": with(Thm71(), func(sp *SweepSpec) { sp.Depth = 30 }),
		// 48 × 35 pairs, but 2^40 invocations per shape.
		"depth 1<<40": with(Thm71(), func(sp *SweepSpec) {
			sp.Menu = sp.Menu[:1]
			sp.Depth = 1 << 40
		}),
		// 48 × 35 pairs, but 65 registers per program.
		"depth 63": with(Thm71(), func(sp *SweepSpec) {
			sp.Menu = sp.Menu[:1]
			sp.Depth = 63
		}),
		// 144 × 105 shapes per role at depth 1; 6,561 × 1,680 pairs at
		// depth 4, though each role alone is within the bound.
		"dac depth 4": with(Thm71(), func(sp *SweepSpec) { sp.Depth = 4 }),
		// Only retry: no q-shape, so no pairs, but 3^30 × 3 p-shapes.
		"retry only": with(Thm71(), func(sp *SweepSpec) {
			sp.Actions = []string{"retry"}
			sp.Depth = 30
		}),
	}
	for name, sp := range families {
		if _, err := sp.Family(); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: Family err = %v, want one wrapping ErrSpec", name, err)
		}
	}
	for _, steps := range []int{maxSoloSteps + 1, 1 << 40} {
		sp := with(Thm71(), func(sp *SweepSpec) { sp.SoloSteps = steps })
		if _, err := sp.Options(); !errors.Is(err, ErrSpec) {
			t.Errorf("solo_steps %d: Options err = %v, want one wrapping ErrSpec", steps, err)
		}
	}
	if _, err := with(Thm71(), func(sp *SweepSpec) { sp.SoloSteps = maxSoloSteps }).Options(); err != nil {
		t.Errorf("solo_steps %d rejected: %v", maxSoloSteps, err)
	}

	admitted := map[string]struct {
		sp   SweepSpec
		want int
	}{
		"thm71":             {Thm71(), 144 * 105},
		"thm52":             {Thm52(), 4 * 35},
		"e3":                {e3(), 768 * 560},
		"consensus depth 4": {with(Thm71(), func(sp *SweepSpec) { sp.Task = TaskSpec{Kind: "consensus", N: 3}; sp.Depth = 4 }), 81 * 35},
	}
	for name, tc := range admitted {
		if _, err := tc.sp.Family(); err != nil {
			t.Errorf("%s: Family rejected a committed family: %v", name, err)
		}
		if got := tc.sp.candidatesBeforePrefilter(); got != tc.want {
			t.Errorf("%s: %d candidates before the prefilter, want %d", name, got, tc.want)
		}
	}
	// The count is what Family.Shapes builds for each role.
	fam, err := Thm71().Family()
	if err != nil {
		t.Fatal(err)
	}
	q := len(fam.Shapes())
	fam.AllowAbort = true
	if got := len(fam.Shapes()) * q; got != Thm71().candidatesBeforePrefilter() {
		t.Errorf("Thm71 pairs %d shapes, counted %d", got, Thm71().candidatesBeforePrefilter())
	}
}
