package enumerate_test

import (
	"testing"

	"setagree/internal/enumerate"
	"setagree/internal/explore"
	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// theorem42Family is the object base Theorem 4.2 permits for the
// 3-DAC problem (n = 2): one 2-consensus object, one register, one
// strong 2-SA object.
func theorem42Family(depth int) *enumerate.Family {
	return &enumerate.Family{
		Objects: []spec.Spec{
			objects.NewConsensus(2),
			objects.NewRegister(),
			objects.NewTwoSA(),
		},
		Menu: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
			{Obj: 2, Method: value.MethodPropose, Arg: enumerate.ArgInput},
		},
		Depth: depth,
		Actions: []enumerate.Action{
			enumerate.ActDecideInput,
			enumerate.ActDecideLast,
			enumerate.ActDecideFirst,
			enumerate.ActDecideZero,
			enumerate.ActDecideOne,
			enumerate.ActRetry,
		},
	}
}

func binaryVectors(n int) [][]value.Value {
	var out [][]value.Value
	for mask := 0; mask < 1<<uint(n); mask++ {
		in := make([]value.Value, n)
		for i := range in {
			if mask&(1<<uint(i)) != 0 {
				in[i] = 1
			}
		}
		out = append(out, in)
	}
	return out
}

// TestShapesEnumeration pins the family arithmetic: depth-1 shapes =
// menu * (actions^2 - 1) (the retry/retry pair is skipped).
func TestShapesEnumeration(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	got := len(f.Shapes())
	want := 4 * (6*6 - 1)
	if got != want {
		t.Fatalf("depth-1 shapes = %d, want %d", got, want)
	}
	f.AllowAbort = true
	got = len(f.Shapes())
	want = 4 * (7*7 - 1)
	if got != want {
		t.Fatalf("abort-enabled shapes = %d, want %d", got, want)
	}
}

// TestProgramMaterialization checks a shape compiles into a runnable
// program with the intended structure.
func TestProgramMaterialization(t *testing.T) {
	t.Parallel()
	f := theorem42Family(2)
	s := enumerate.Shape{
		Seq: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgPrev},
		},
		OnBottom: enumerate.ActRetry,
		OnValue:  enumerate.ActDecideFirst,
	}
	prog, err := f.Program(s, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(prog.Instrs) < 4 {
		t.Fatalf("program too short:\n%s", prog.Disassemble())
	}
}

// TestPositiveControlConsensus validates the sweep machinery on a task
// that IS solvable inside the family: 2-consensus from a 2-consensus
// object. The sweep must find at least one solver (propose-input,
// decide-response survives), so an empty solver list in the DAC sweep
// below is meaningful.
func TestPositiveControlConsensus(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	rep, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 2}, binaryVectors(2), enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solvers) == 0 {
		t.Fatalf("no solver found among %d candidates (machinery broken?)", rep.Candidates)
	}
	found := false
	for _, s := range rep.Solvers {
		sh := s.Assignment.Shapes[0]
		if sh.Seq[0].Obj == 0 && sh.OnValue == enumerate.ActDecideLast {
			found = true
		}
	}
	if !found {
		t.Errorf("expected the canonical propose/decide-response solver; got %v", rep.Solvers)
	}
}

// TestFalsifyThreeConsensusFromTwoConsensus is Theorem 5.2's shape at
// the family scale: no depth-1 candidate solves 3-consensus over
// {2-consensus, register, 2-SA}.
func TestFalsifyThreeConsensusFromTwoConsensus(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	rep, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 3}, binaryVectors(3), enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solvers) != 0 {
		t.Fatalf("family contains %d alleged 3-consensus solvers: %v", len(rep.Solvers), rep.Solvers)
	}
	if rep.Candidates == 0 {
		t.Fatal("sweep checked no candidates")
	}
	if rep.SampleFailure == nil {
		t.Fatal("no sample failure recorded")
	}
	if len(rep.SampleFailure.Violation.Witness) == 0 && rep.SampleFailure.Violation.Kind != explore.ViolationHaltUndecided {
		t.Errorf("sample failure lacks a witness: %+v", rep.SampleFailure.Violation)
	}
}

// TestFalsifyDACDepth1 is experiment E3 at depth 1: no candidate in the
// Theorem 4.2 family solves 3-DAC.
func TestFalsifyDACDepth1(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	rep, err := enumerate.FalsifyDAC(f, 3, binaryVectors(3), enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solvers) != 0 {
		t.Fatalf("family contains %d alleged 3-DAC solvers: %v", len(rep.Solvers), rep.Solvers)
	}
	if rep.Candidates == 0 {
		t.Fatal("sweep checked no candidates")
	}
	t.Logf("depth-1 sweep: %d candidates, %d pruned by solo filter", rep.Candidates, rep.Pruned)
}

// TestFalsifyDACDepth2 extends E3 to depth-2 phase sequences (the
// family Theorem 4.2 refutes grows to tens of thousands of pairs).
func TestFalsifyDACDepth2(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("large candidate family")
	}
	f := theorem42Family(2)
	rep, err := enumerate.FalsifyDAC(f, 3, [][]value.Value{
		{1, 0, 0}, {0, 1, 1}, {0, 0, 0}, {1, 1, 1}, {0, 1, 0}, {1, 0, 1},
	}, enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solvers) != 0 {
		t.Fatalf("family contains %d alleged 3-DAC solvers: %v", len(rep.Solvers), rep.Solvers)
	}
	t.Logf("depth-2 sweep: %d candidates, %d pruned", rep.Candidates, rep.Pruned)
}

// TestSoloFilterAcceptsCanonical checks the prefilter keeps the obvious
// good citizen and rejects an obvious bad one.
func TestSoloFilterBehaviour(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	// decide(input) after proposing to consensus: survives solo probing.
	rep, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 2},
		[][]value.Value{{0, 0}}, enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pruned == 0 {
		t.Error("solo filter pruned nothing")
	}
	if rep.Candidates == 0 {
		t.Error("solo filter pruned everything")
	}
}

// TestFalsifyConsensusFromTwoSA reproduces the shape of "the 2-SA
// object has consensus number 1" — a fact Lemma 6.4 leans on: no
// depth-2 candidate solves 2-consensus over {2-SA, register} alone.
// (Registers and 2-SA both have consensus number 1.)
func TestFalsifyConsensusFromTwoSA(t *testing.T) {
	t.Parallel()
	f := &enumerate.Family{
		Objects: []spec.Spec{objects.NewTwoSA(), objects.NewRegister()},
		Menu: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
		},
		Depth: 2,
		Actions: []enumerate.Action{
			enumerate.ActDecideInput, enumerate.ActDecideLast, enumerate.ActDecideFirst,
			enumerate.ActDecideZero, enumerate.ActDecideOne, enumerate.ActRetry,
		},
	}
	rep, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 2}, binaryVectors(2), enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solvers) != 0 {
		t.Fatalf("found %d alleged 2-consensus-from-2-SA solvers: %v", len(rep.Solvers), rep.Solvers)
	}
	if rep.Candidates == 0 {
		t.Fatal("nothing checked")
	}
	t.Logf("2-SA consensus sweep: %d candidates, %d pruned", rep.Candidates, rep.Pruned)
}

// TestDisableSoloFilterEquivalence: the ablation knob changes cost, not
// verdicts.
func TestDisableSoloFilterEquivalence(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	on, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 2}, binaryVectors(2), enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 2}, binaryVectors(2),
		enumerate.SweepOptions{DisableSoloFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Solvers) != len(off.Solvers) {
		t.Fatalf("solver counts differ: %d (filter on) vs %d (off)", len(on.Solvers), len(off.Solvers))
	}
	if off.Candidates <= on.Candidates {
		t.Fatalf("filter off checked %d <= %d candidates", off.Candidates, on.Candidates)
	}
	if off.Pruned != 0 {
		t.Fatalf("filter off pruned %d", off.Pruned)
	}
}

// TestFalsifyThreeConsensusFromQueue is the other half of "the queue
// has consensus number exactly 2" (its level >= 2 is the verified
// one-token protocol, programs.ConsensusFromQueue): no depth-2
// candidate solves 3-consensus over {one-token queue, register}.
func TestFalsifyThreeConsensusFromQueue(t *testing.T) {
	t.Parallel()
	f := &enumerate.Family{
		Objects: []spec.Spec{objects.NewQueueWith(99), objects.NewRegister()},
		Menu: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodDequeue},
			{Obj: 0, Method: value.MethodEnqueue, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
		},
		Depth: 2,
		Actions: []enumerate.Action{
			enumerate.ActDecideInput, enumerate.ActDecideLast, enumerate.ActDecideFirst,
			enumerate.ActDecideZero, enumerate.ActDecideOne, enumerate.ActRetry,
		},
	}
	rep, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 3}, binaryVectors(3), enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Solvers) != 0 {
		t.Fatalf("found %d alleged 3-consensus-from-queue solvers: %v", len(rep.Solvers), rep.Solvers)
	}
	t.Logf("queue 3-consensus sweep: %d candidates, %d pruned", rep.Candidates, rep.Pruned)
}

// TestShapeRendering pins the human-readable forms used in sweep
// reports.
func TestShapeRendering(t *testing.T) {
	t.Parallel()
	s := enumerate.Shape{
		Seq: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
		},
		OnBottom: enumerate.ActRetry,
		OnValue:  enumerate.ActDecideLast,
	}
	got := s.String()
	want := "obj0.PROPOSE(input); obj1.READ; if ⊥ retry else decide(last)"
	if got != want {
		t.Errorf("Shape.String() = %q, want %q", got, want)
	}
	for a, name := range map[enumerate.Action]string{
		enumerate.ActDecideInput: "decide(input)",
		enumerate.ActDecideLast:  "decide(last)",
		enumerate.ActDecideFirst: "decide(first)",
		enumerate.ActDecideZero:  "decide(0)",
		enumerate.ActDecideOne:   "decide(1)",
		enumerate.ActAbort:       "abort",
		enumerate.ActRetry:       "retry",
	} {
		if a.String() != name {
			t.Errorf("Action(%d).String() = %q, want %q", a, a.String(), name)
		}
	}
	for src, name := range map[enumerate.ArgSource]string{
		enumerate.ArgInput: "input",
		enumerate.ArgZero:  "0",
		enumerate.ArgOne:   "1",
		enumerate.ArgPrev:  "prev",
	} {
		if src.String() != name {
			t.Errorf("ArgSource(%d).String() = %q, want %q", src, src.String(), name)
		}
	}
}
