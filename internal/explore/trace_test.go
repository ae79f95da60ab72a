package explore_test

import (
	"errors"
	"strings"
	"testing"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/objects"
	"setagree/internal/programs"
	"setagree/internal/sim"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// dacSystem builds a fresh 2-process Algorithm 2 system for replay.
func dacSystem(t *testing.T) *explore.System {
	t.Helper()
	sys, err := programs.Algorithm2(2, 1).System([]value.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAnnotateScheduleBadProcess rejects a schedule step naming a
// process outside the system.
func TestAnnotateScheduleBadProcess(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	err := explore.AnnotateSchedule(&buf, dacSystem(t), []explore.Step{{Proc: 7}})
	if err == nil {
		t.Fatal("out-of-range process accepted")
	}
	if !errors.Is(err, machine.ErrProgram) {
		t.Errorf("want machine.ErrProgram, got %v", err)
	}
	if !strings.Contains(err.Error(), "process 8 out of range") {
		t.Errorf("error does not name the bad process: %v", err)
	}
}

// TestAnnotateScheduleTerminatedProcess rejects a step of a process
// that has already terminated (a non-applicable schedule).
func TestAnnotateScheduleTerminatedProcess(t *testing.T) {
	t.Parallel()
	sys := dacSystem(t)
	res, err := sim.Run(sys, task.DAC{N: 2, P: 0}, sim.RoundRobin(),
		sim.Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("round-robin run did not complete")
	}
	// The recorded trace replays cleanly; one extra step of any process
	// steps a terminated machine and must be rejected with its index.
	overrun := append(append([]explore.Step(nil), res.Trace...), explore.Step{Proc: 0})
	var buf strings.Builder
	err = explore.AnnotateSchedule(&buf, dacSystem(t), overrun)
	if err == nil {
		t.Fatal("step of terminated process accepted")
	}
	if !errors.Is(err, machine.ErrProgram) {
		t.Errorf("want machine.ErrProgram, got %v", err)
	}
	if !strings.Contains(err.Error(), "cannot step") {
		t.Errorf("error does not say the process cannot step: %v", err)
	}
}

// TestAnnotateScheduleBadBranch rejects a branch index outside the
// object's transition set.
func TestAnnotateScheduleBadBranch(t *testing.T) {
	t.Parallel()
	var buf strings.Builder
	err := explore.AnnotateSchedule(&buf, dacSystem(t), []explore.Step{{Proc: 0, Branch: 42}})
	if err == nil {
		t.Fatal("out-of-range branch accepted")
	}
	if !errors.Is(err, machine.ErrProgram) {
		t.Errorf("want machine.ErrProgram, got %v", err)
	}
	if !strings.Contains(err.Error(), "branch 42") {
		t.Errorf("error does not name the bad branch: %v", err)
	}
}

// TestAnnotateScheduleBadObject rejects a step whose invocation names
// an object past the system's last with spec.ErrBadOp, not a panic.
func TestAnnotateScheduleBadObject(t *testing.T) {
	t.Parallel()
	p, err := machine.Parse("far", "invoke r2, obj5, PROPOSE, r0\ndecide r2", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := &explore.System{
		Programs: []*machine.Program{p},
		Objects:  []spec.Spec{objects.NewConsensus(2)},
		Inputs:   []value.Value{1},
	}
	var buf strings.Builder
	err = explore.AnnotateSchedule(&buf, sys, []explore.Step{{Proc: 0}})
	if !errors.Is(err, spec.ErrBadOp) {
		t.Fatalf("want spec.ErrBadOp, got %v", err)
	}
	if !strings.Contains(err.Error(), "object index 5 out of range") {
		t.Errorf("error does not name the bad object: %v", err)
	}
}
