package explore_test

import (
	"errors"
	"testing"

	"strings"

	"setagree/internal/explore"
	"setagree/internal/programs"
	"setagree/internal/task"
	"setagree/internal/value"
)

// binaryInputs enumerates all 2^n binary input vectors.
func binaryInputs(n int) [][]value.Value {
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

func checkProtocol(t *testing.T, p programs.Protocol, tsk task.Task, inputs []value.Value, opts explore.Options) *explore.Report {
	t.Helper()
	sys, err := p.System(inputs)
	if err != nil {
		t.Fatalf("System(%v): %v", inputs, err)
	}
	rep, err := explore.Check(sys, tsk, opts)
	if err != nil {
		t.Fatalf("Check(%s, %v): %v", p.Name, inputs, err)
	}
	return rep
}

// TestAlgorithm2ExhaustiveSmall model-checks Algorithm 2 (Theorem 4.1)
// for n = 2, 3 over all binary input vectors and all distinguished
// process positions: every reachable configuration satisfies the n-DAC
// safety properties and both termination obligations hold.
func TestAlgorithm2ExhaustiveSmall(t *testing.T) {
	t.Parallel()
	for n := 2; n <= 3; n++ {
		for p := 1; p <= n; p++ {
			prot := programs.Algorithm2(n, p)
			for _, in := range binaryInputs(n) {
				rep := checkProtocol(t, prot, task.DAC{N: n, P: p - 1}, in, explore.Options{})
				if !rep.Solved() {
					t.Fatalf("n=%d p=%d inputs=%v: violations: %v", n, p, in, rep.Violations[0])
				}
				if rep.States == 0 || rep.Transitions == 0 {
					t.Fatalf("n=%d p=%d inputs=%v: empty exploration", n, p, in)
				}
			}
		}
	}
}

// TestAlgorithm2InitialBivalent reproduces Claim 4.2.4's shape on the
// concrete Algorithm 2 instance: with p's input 1 and all others 0, the
// initial configuration is bivalent.
func TestAlgorithm2InitialBivalent(t *testing.T) {
	t.Parallel()
	for n := 2; n <= 3; n++ {
		prot := programs.Algorithm2(n, 1)
		in := make([]value.Value, n)
		in[0] = 1
		rep := checkProtocol(t, prot, task.DAC{N: n, P: 0}, in, explore.Options{Valency: true})
		if !rep.Solved() {
			t.Fatalf("n=%d: unexpected violation %v", n, rep.Violations[0])
		}
		if rep.Valency == nil {
			t.Fatal("valency report missing")
		}
		if !rep.Valency.Initial.Bivalent() {
			t.Errorf("n=%d: initial configuration is %s, want bivalent", n, rep.Valency.Initial)
		}
	}
}

// TestAlgorithm2UniformInputsUnivalent checks Validity's consequence:
// with all inputs equal to v, the initial configuration is v-valent.
func TestAlgorithm2UniformInputsUnivalent(t *testing.T) {
	t.Parallel()
	for _, v := range []value.Value{0, 1} {
		in := []value.Value{v, v, v}
		prot := programs.Algorithm2(3, 1)
		rep := checkProtocol(t, prot, task.DAC{N: 3, P: 0}, in, explore.Options{Valency: true})
		if !rep.Solved() {
			t.Fatalf("v=%s: unexpected violation %v", v, rep.Violations[0])
		}
		got := rep.Valency.Initial
		if got.Bivalent() || !got.Univalent() {
			t.Fatalf("v=%s: initial valence %s, want univalent", v, got)
		}
		want := explore.CanDecide0
		if v == 1 {
			want = explore.CanDecide1
		}
		if got&(explore.CanDecide0|explore.CanDecide1) != want {
			t.Errorf("v=%s: initial valence %s", v, got)
		}
	}
}

// TestNaiveTwoSAConsensusFails confirms the checker refutes the naive
// consensus-from-2-SA protocol with an Agreement violation.
func TestNaiveTwoSAConsensusFails(t *testing.T) {
	t.Parallel()
	prot := programs.NaiveTwoSAConsensus(2)
	rep := checkProtocol(t, prot, task.Consensus{N: 2}, []value.Value{0, 1}, explore.Options{})
	if rep.Solved() {
		t.Fatal("flawed protocol reported as correct")
	}
	v := rep.Violations[0]
	if v.Kind != explore.ViolationSafety {
		t.Fatalf("violation kind = %s, want safety", v.Kind)
	}
	if !errors.Is(v.Err, task.ErrViolation) {
		t.Fatalf("violation error %v does not wrap task.ErrViolation", v.Err)
	}
	if len(v.Witness) == 0 {
		t.Fatal("safety violation has no witness schedule")
	}
}

// TestOverSubscribedConsensusFails confirms the checker refutes the
// m-consensus-object protocol run by m+1 processes with a wait-freedom
// violation (the ⊥ receiver spins on the hand-off register).
func TestOverSubscribedConsensusFails(t *testing.T) {
	t.Parallel()
	for m := 2; m <= 3; m++ {
		prot := programs.OverSubscribedConsensus(m)
		in := make([]value.Value, m+1)
		for i := range in {
			in[i] = value.Value(i)
		}
		rep := checkProtocol(t, prot, task.Consensus{N: m + 1}, in, explore.Options{})
		if rep.Solved() {
			t.Fatalf("m=%d: flawed protocol reported as correct", m)
		}
		foundWaitFree := false
		for _, v := range rep.Violations {
			if v.Kind == explore.ViolationWaitFree {
				foundWaitFree = true
				if len(v.Cycle) == 0 {
					t.Errorf("m=%d: wait-free violation without cycle witness", m)
				}
			}
		}
		if !foundWaitFree {
			t.Errorf("m=%d: no wait-free violation among %v", m, rep.Violations)
		}
	}
}

// TestUpsettingAlgorithm2Fails confirms the double-propose variant
// violates the n-DAC spec (the PAC object gets upset; p aborts even in
// solo runs, violating Nontriviality).
func TestUpsettingAlgorithm2Fails(t *testing.T) {
	t.Parallel()
	prot := programs.UpsettingAlgorithm2(3, 1)
	rep := checkProtocol(t, prot, task.DAC{N: 3, P: 0}, []value.Value{1, 0, 0}, explore.Options{})
	if rep.Solved() {
		t.Fatal("upsetting variant reported as correct")
	}
}

// TestDACAttemptFails confirms the Theorem 4.2-flavoured candidate
// (n-consensus + 2-SA + register for (n+1)-DAC) is refuted.
func TestDACAttemptFails(t *testing.T) {
	t.Parallel()
	prot := programs.DACFromConsensusAndTwoSA(2, 1)
	failed := false
	for _, in := range binaryInputs(3) {
		rep := checkProtocol(t, prot, task.DAC{N: 3, P: 0}, in, explore.Options{})
		if !rep.Solved() {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("flawed DAC attempt passed on every input vector")
	}
}

// TestStateLimit confirms the exploration cap triggers cleanly.
func TestStateLimit(t *testing.T) {
	t.Parallel()
	prot := programs.Algorithm2(3, 1)
	sys, err := prot.System([]value.Value{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	_, err = explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{MaxStates: 4})
	if !errors.Is(err, explore.ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

// TestStateLimitPartialReport is the regression test for the partial
// Report returned alongside ErrStateLimit: States must count the
// configurations actually interned (it used to stay 0 while Transitions
// was populated), keeping the report self-consistent.
func TestStateLimitPartialReport(t *testing.T) {
	t.Parallel()
	prot := programs.Algorithm2(3, 1)
	sys, err := prot.System([]value.Value{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	const max = 10
	rep, err := explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{MaxStates: max})
	if !errors.Is(err, explore.ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
	if rep == nil {
		t.Fatal("no partial report returned with ErrStateLimit")
	}
	if rep.States != max+1 {
		t.Errorf("partial report States = %d, want %d (the config that broke the cap)", rep.States, max+1)
	}
	if rep.Transitions == 0 {
		t.Error("partial report lost its transition count")
	}
	// Every non-root configuration was first reached over some edge.
	if rep.States > rep.Transitions+1 {
		t.Errorf("inconsistent partial report: %d states > %d transitions + 1", rep.States, rep.Transitions)
	}
}

// TestStateLimitPartialReportNoSafety: a state-limited exploration
// that interned an unsafe configuration before the cap still reports
// no violation; safety, like liveness, is reported on complete graphs
// only.
func TestStateLimitPartialReportNoSafety(t *testing.T) {
	t.Parallel()
	sys, err := programs.NaiveTwoSAConsensus(3).System([]value.Value{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := explore.Check(sys, task.Consensus{N: 3}, explore.Options{})
	if err != nil || full.Solved() || full.Violations[0].Kind != explore.ViolationSafety {
		t.Fatalf("full check: %v %v", err, full.Violations)
	}
	rep, err := explore.Check(sys, task.Consensus{N: 3}, explore.Options{MaxStates: full.States - 1})
	if !errors.Is(err, explore.ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
	if id := explore.UnsafeID(rep); id < 0 || id != explore.UnsafeID(full) {
		t.Fatalf("partial check noted unsafe configuration %d, full check %d", id, explore.UnsafeID(full))
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("partial report carries violations: %v", rep.Violations)
	}
}

// TestWriteDOT exercises the Graphviz export.
func TestWriteDOT(t *testing.T) {
	t.Parallel()
	prot := programs.Algorithm2(2, 1)
	sys, err := prot.System([]value.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.Check(sys, task.DAC{N: 2, P: 0}, explore.Options{Valency: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := rep.WriteDOT(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "fillcolor=gold", "doublecircle", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Truncation path.
	buf.Reset()
	if err := rep.WriteDOT(&buf, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "truncated") {
		t.Error("truncation comment missing")
	}
}

// TestAnnotateSchedule replays a checker witness with state annotation.
func TestAnnotateSchedule(t *testing.T) {
	t.Parallel()
	prot := programs.NaiveTwoSAConsensus(2)
	sys, err := prot.System([]value.Value{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.Check(sys, task.Consensus{N: 2}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solved() {
		t.Fatal("expected violation")
	}
	sys2, err := prot.System([]value.Value{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := explore.AnnotateSchedule(&buf, sys2, rep.Violations[0].Witness); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"inputs:", "PROPOSE", "2-SA state:", "DECIDES"} {
		if !strings.Contains(out, want) {
			t.Errorf("annotation missing %q:\n%s", want, out)
		}
	}
	// A schedule that steps a terminated process is rejected.
	bogus := append(append([]explore.Step(nil), rep.Violations[0].Witness...),
		rep.Violations[0].Witness...)
	sys3, _ := prot.System([]value.Value{0, 1})
	if err := explore.AnnotateSchedule(&buf, sys3, bogus); err == nil {
		t.Error("inapplicable schedule accepted")
	}
}

// TestDisplaySurfaces pins the reporting strings the CLI leans on.
func TestDisplaySurfaces(t *testing.T) {
	t.Parallel()
	if explore.ViolationSafety.String() != "safety" ||
		explore.ViolationWaitFree.String() != "wait-free termination" ||
		explore.ViolationDACTerminationA.String() != "DAC termination (a)" ||
		explore.ViolationDACTerminationB.String() != "DAC termination (b)" ||
		explore.ViolationHaltUndecided.String() != "halt while undecided" {
		t.Error("violation kind names changed")
	}
	if (explore.CanDecide0 | explore.CanDecide1).String() != "bivalent" {
		t.Error("bivalent rendering")
	}
	if explore.CanDecide0.String() != "0-valent" || explore.CanDecide1.String() != "1-valent" {
		t.Error("univalent rendering")
	}
	if explore.Valence(0).String() != "null-valent" {
		t.Error("null rendering")
	}
	if (explore.CanAbort).Bivalent() || !(explore.CanDecide0 | explore.CanDecide1).Bivalent() {
		t.Error("Bivalent predicate")
	}
	s := explore.Step{Proc: 2, Obj: 1, Op: value.ProposeAt(5, 3), Resp: value.Done}
	if s.String() != "p3: PROPOSE_AT(5, 3) on obj1 -> done" {
		t.Errorf("Step.String() = %q", s.String())
	}
}
