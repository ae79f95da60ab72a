package machine_test

import (
	"errors"
	"strings"
	"testing"

	"setagree/internal/machine"
	"setagree/internal/value"
)

func TestBuilderBuildsAndValidates(t *testing.T) {
	t.Parallel()
	p, err := machine.NewBuilder("t", 4).
		Set(2, machine.C(5)).
		Label("loop").
		Invoke(3, 0, value.MethodPropose, machine.R(2), machine.Operand{}).
		JEq(machine.R(3), machine.C(value.Bottom), "loop").
		Decide(machine.R(3)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 4 {
		t.Fatalf("got %d instructions", len(p.Instrs))
	}
	if p.Instrs[2].Target != 1 {
		t.Fatalf("jump target = %d, want 1", p.Instrs[2].Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	t.Parallel()
	_, err := machine.NewBuilder("t", 2).Jmp("nowhere").Build()
	if !errors.Is(err, machine.ErrProgram) {
		t.Fatalf("err = %v, want ErrProgram", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	t.Parallel()
	_, err := machine.NewBuilder("t", 2).Label("a").Label("a").Halt().Build()
	if !errors.Is(err, machine.ErrProgram) {
		t.Fatalf("err = %v, want ErrProgram", err)
	}
}

func TestValidateRejectsBadRegister(t *testing.T) {
	t.Parallel()
	p := &machine.Program{
		Name:    "bad",
		NumRegs: 2,
		Instrs:  []machine.Instr{{Kind: machine.InstrSet, Dst: 7, A: machine.C(1)}},
	}
	if err := p.Validate(); !errors.Is(err, machine.ErrProgram) {
		t.Fatalf("err = %v, want ErrProgram", err)
	}
}

func TestValidateRejectsBadJumpTarget(t *testing.T) {
	t.Parallel()
	p := &machine.Program{
		Name:    "bad",
		NumRegs: 2,
		Instrs:  []machine.Instr{{Kind: machine.InstrJmp, Target: 9}},
	}
	if err := p.Validate(); !errors.Is(err, machine.ErrProgram) {
		t.Fatalf("err = %v, want ErrProgram", err)
	}
}

// TestStartConventions pins the r0 = input, r1 = pid convention.
func TestStartConventions(t *testing.T) {
	t.Parallel()
	p := machine.NewBuilder("t", 4).
		Invoke(2, 0, value.MethodPropose, machine.R(machine.RegInput), machine.Operand{}).
		Decide(machine.R(2)).
		MustBuild()
	ps, err := machine.Start(p, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Regs[machine.RegInput] != 77 || ps.Regs[machine.RegID1] != 3 {
		t.Fatalf("regs = %v", ps.Regs)
	}
	if ps.Status != machine.StatusPoised {
		t.Fatalf("status = %s", ps.Status)
	}
	poise, ok := machine.Poised(p, ps)
	if !ok || poise.Op.Method != value.MethodPropose || poise.Op.Arg != 77 {
		t.Fatalf("poise = %+v", poise)
	}
}

// TestLocalExecutionUntilPoise checks that local instructions run for
// free until the next shared step.
func TestLocalExecutionUntilPoise(t *testing.T) {
	t.Parallel()
	p := machine.NewBuilder("t", 6).
		Set(2, machine.C(10)).
		Add(3, machine.R(2), machine.C(4)).
		Sub(4, machine.R(3), machine.C(1)).
		Invoke(5, 0, value.MethodWrite, machine.R(4), machine.Operand{}).
		Halt().
		MustBuild()
	ps, err := machine.Start(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	poise, ok := machine.Poised(p, ps)
	if !ok {
		t.Fatal("not poised")
	}
	if poise.Op.Arg != 13 {
		t.Fatalf("arg = %s, want 13 (10+4-1)", poise.Op.Arg)
	}
}

// TestResumeAdvances checks response delivery and re-poising.
func TestResumeAdvances(t *testing.T) {
	t.Parallel()
	p := machine.NewBuilder("t", 4).
		Label("loop").
		Invoke(2, 0, value.MethodPropose, machine.R(0), machine.Operand{}).
		JEq(machine.R(2), machine.C(value.Bottom), "loop").
		Decide(machine.R(2)).
		MustBuild()
	ps, err := machine.Start(p, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// ⊥ loops back to the invoke.
	ps, err = machine.Resume(p, ps, value.Bottom)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Status != machine.StatusPoised {
		t.Fatalf("status after ⊥ = %s", ps.Status)
	}
	// A value decides.
	ps, err = machine.Resume(p, ps, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Status != machine.StatusDecided || ps.Decision != 9 {
		t.Fatalf("after value: %s decision=%s", ps.Status, ps.Decision)
	}
	// Resuming a decided process is a program error.
	if _, err := machine.Resume(p, ps, 1); !errors.Is(err, machine.ErrProgram) {
		t.Fatalf("resume of decided process: %v", err)
	}
}

// TestResumeDoesNotMutatePrior checks value semantics of ProcState.
func TestResumeDoesNotMutatePrior(t *testing.T) {
	t.Parallel()
	p := machine.NewBuilder("t", 4).
		Invoke(2, 0, value.MethodPropose, machine.R(0), machine.Operand{}).
		Invoke(3, 0, value.MethodPropose, machine.R(2), machine.Operand{}).
		Halt().
		MustBuild()
	ps0, err := machine.Start(p, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	key0 := ps0.Key()
	if _, err := machine.Resume(p, ps0, 8); err != nil {
		t.Fatal(err)
	}
	if ps0.Key() != key0 {
		t.Fatal("Resume mutated the prior state")
	}
}

// TestResumeAllocs pins what Resume allocates when local writes follow
// the invoke: the one register file it returns. The local Set writes
// into that fresh file instead of cloning it a second time.
func TestResumeAllocs(t *testing.T) {
	p := machine.NewBuilder("t", 4).
		Invoke(2, 0, value.MethodPropose, machine.R(0), machine.Operand{}).
		Set(3, machine.R(2)).
		Invoke(2, 0, value.MethodPropose, machine.R(3), machine.Operand{}).
		MustBuild()
	ps, err := machine.Start(p, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	var next machine.ProcState
	allocs := testing.AllocsPerRun(100, func() {
		if next, err = machine.Resume(p, ps, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Resume allocates %v objects, want 1", allocs)
	}
	if next.PC != 2 || next.Regs[3] != 8 || ps.Regs[3] != 0 {
		t.Fatalf("Resume gave pc %d, r3 = %s (prior r3 = %s)", next.PC, next.Regs[3], ps.Regs[3])
	}
}

func TestAbortAndHaltStatuses(t *testing.T) {
	t.Parallel()
	abortProg := machine.NewBuilder("a", 2).Abort().MustBuild()
	ps, err := machine.Start(abortProg, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Status != machine.StatusAborted {
		t.Fatalf("status = %s, want aborted", ps.Status)
	}

	// Falling off the end halts.
	fall := machine.NewBuilder("f", 2).Set(0, machine.C(1)).MustBuild()
	ps, err = machine.Start(fall, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Status != machine.StatusHalted {
		t.Fatalf("status = %s, want halted", ps.Status)
	}
}

func TestCrash(t *testing.T) {
	t.Parallel()
	p := machine.NewBuilder("t", 2).
		Invoke(0, 0, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Halt().
		MustBuild()
	ps, err := machine.Start(p, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ps = machine.Crash(ps)
	if ps.Status != machine.StatusCrashed || !ps.Status.Terminal() {
		t.Fatalf("status = %s", ps.Status)
	}
	if _, ok := machine.Poised(p, ps); ok {
		t.Fatal("crashed process still poised")
	}
}

// TestLocalLoopDetected checks the MaxLocalSteps guard: a pure local
// loop (no shared step) is a program error, not a hang.
func TestLocalLoopDetected(t *testing.T) {
	t.Parallel()
	p := machine.NewBuilder("spin", 2).
		Label("top").
		Jmp("top").
		MustBuild()
	if _, err := machine.Start(p, 1, 0); !errors.Is(err, machine.ErrProgram) {
		t.Fatalf("err = %v, want ErrProgram", err)
	}
}

func TestProcStateKeyReflectsRegisters(t *testing.T) {
	t.Parallel()
	p := machine.NewBuilder("t", 3).
		Invoke(2, 0, value.MethodPropose, machine.R(0), machine.Operand{}).
		Invoke(2, 0, value.MethodPropose, machine.R(2), machine.Operand{}).
		Halt().
		MustBuild()
	ps, err := machine.Start(p, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := machine.Resume(p, ps, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.Resume(p, ps, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == b.Key() {
		t.Fatal("distinct register contents share a key")
	}
}

func TestDisassembleRoundTrips(t *testing.T) {
	t.Parallel()
	p := machine.NewBuilder("t", 4).
		Set(2, machine.C(value.Bottom)).
		Invoke(3, 1, value.MethodProposeAt, machine.R(0), machine.R(1)).
		JNe(machine.R(3), machine.C(0), "end").
		Label("end").
		Decide(machine.C(1)).
		MustBuild()
	dis := p.Disassemble()
	for _, want := range []string{"set r2, ⊥", "invoke r3, obj1, PROPOSE_AT, r0, r1", "jne r3, 0, 3", "decide 1"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

// TestStatusStrings pins the lifecycle names used in reports.
func TestStatusStrings(t *testing.T) {
	t.Parallel()
	cases := map[machine.Status]string{
		machine.StatusPoised:  "poised",
		machine.StatusDecided: "decided",
		machine.StatusAborted: "aborted",
		machine.StatusHalted:  "halted",
		machine.StatusCrashed: "crashed",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", st, st.String(), want)
		}
		if st == machine.StatusPoised && st.Terminal() {
			t.Error("poised must not be terminal")
		}
		if st != machine.StatusPoised && !st.Terminal() {
			t.Errorf("%s must be terminal", want)
		}
	}
	if machine.Status(99).String() != "status(99)" {
		t.Error("unknown status rendering")
	}
}

// TestOperandString pins operand rendering.
func TestOperandString(t *testing.T) {
	t.Parallel()
	if machine.R(3).String() != "r3" {
		t.Error("register operand")
	}
	if machine.C(value.Bottom).String() != "⊥" || machine.C(7).String() != "7" {
		t.Error("constant operand")
	}
}
