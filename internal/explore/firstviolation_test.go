package explore_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// firstViolationCases are TestStoreDigests' systems and five more whose
// reports hold more than one violation: a disagreement next to a
// toggler's livelock (safety, then wait-free termination), a halted
// process next to a toggler (halt, then wait-free termination), the
// swapped togglers (safety, then DAC Termination (b) twice), two
// spinners on a register nobody writes (DAC Termination (b) twice) and
// the mixed livelock under consensus (safety, then wait-free
// termination twice).
func firstViolationCases(t *testing.T) []digestCase {
	t.Helper()
	regs := []spec.Spec{objects.NewRegister(), objects.NewRegister()}
	halter := machine.NewBuilder("halter", 4).
		Invoke(2, 0, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Halt().
		MustBuild()
	return append(digestCases(t),
		digestCase{name: "safety-and-livelock", tsk: task.Consensus{N: 3}, sys: &explore.System{
			Programs: []*machine.Program{decideOwn(0), decideOwn(0), toggler()},
			Objects:  regs,
			Inputs:   []value.Value{0, 1, 0},
		}},
		digestCase{name: "halt-and-livelock", tsk: task.Consensus{N: 2}, sys: &explore.System{
			Programs: []*machine.Program{toggler(), halter},
			Objects:  regs,
			Inputs:   []value.Value{0, 1},
		}},
		digestCase{name: "swapped-togglers", tsk: task.DAC{N: 3, P: 0}, sys: swappedTogglers()[0].sys},
		digestCase{name: "spinners", tsk: task.DAC{N: 3, P: 0}, sys: &explore.System{
			Programs: []*machine.Program{decideOwn(0), spinOnRegister(1, 9), spinOnRegister(1, 9)},
			Objects:  regs,
			Inputs:   []value.Value{0, 0, 0},
		}},
		digestCase{name: "mixed-livelock-consensus", tsk: task.Consensus{N: 3}, sys: mixedLivelock(t)},
	)
}

// checkFirstViolation fails t unless first, a report under
// Options.FirstViolation, holds exactly the first violation of full, a
// full Check's report of the same run, and equals it in everything
// else.
func checkFirstViolation(t *testing.T, name string, first, full *explore.Report) {
	t.Helper()
	want := full.Violations
	if len(want) > 1 {
		want = want[:1]
	}
	if len(first.Violations) != len(want) {
		t.Errorf("%s: %d violations, want %d of %d", name, len(first.Violations), len(want), len(full.Violations))
	}
	for i := range min(len(first.Violations), len(want)) {
		g, w := first.Violations[i], want[i]
		if g.Kind != w.Kind || g.Proc != w.Proc || g.Err.Error() != w.Err.Error() ||
			!reflect.DeepEqual(g.Witness, w.Witness) || !reflect.DeepEqual(g.Cycle, w.Cycle) {
			t.Errorf("%s: violation %v (proc %d, witness %v, cycle %v), want %v (proc %d, witness %v, cycle %v)",
				name, g, g.Proc, g.Witness, g.Cycle, w, w.Proc, w.Witness, w.Cycle)
		}
	}
	type counts struct {
		States, Transitions, Quiescent  int
		UnreducedStates, UnreducedTrans int64
		Cover                           []explore.BranchCover
		Valency                         *explore.ValencyReport
	}
	c := func(r *explore.Report) counts {
		return counts{r.States, r.Transitions, r.Quiescent, r.UnreducedStates, r.UnreducedTransitions, r.Cover, r.Valency}
	}
	if g, w := c(first), c(full); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: %+v, full Check %+v", name, g, w)
	}
}

// TestFirstViolationContract checks Options.FirstViolation against a
// full Check on every firstViolationCases system, at Workers 1 and 4,
// symmetry off and ids, on the heap store and a directory store, and
// through a Fork of a one-level prefix: the violations are the first
// of the full Check's, witness and cycle included, and every count,
// the coverage and the valency analysis are the same.
func TestFirstViolationContract(t *testing.T) {
	t.Parallel()
	multi := 0
	for _, c := range firstViolationCases(t) {
		for _, workers := range []int{1, 4} {
			for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
				for _, onDisk := range []bool{false, true} {
					name := fmt.Sprintf("%s/workers=%d/symmetry=%s/disk=%v", c.name, workers, sym, onDisk)
					check := func(first bool) *explore.Report {
						opts := explore.Options{
							Workers:        workers,
							Symmetry:       sym,
							Valency:        c.valency,
							Cover:          &explore.CoverRequest{GuardPC: 1},
							FirstViolation: first,
						}
						if onDisk {
							opts.Store = store.Options{Dir: filepath.Join(t.TempDir(), "store")}
						}
						rep, err := explore.Check(c.sys, c.tsk, opts)
						if err != nil {
							t.Fatalf("%s (first %v): %v", name, first, err)
						}
						t.Cleanup(func() { rep.Close() })
						return rep
					}
					full := check(false)
					if len(full.Violations) > 1 {
						multi++
					}
					checkFirstViolation(t, name, check(true), full)
				}
			}
		}

		name := c.name + "/fork"
		opts := explore.Options{Workers: 1, Cover: &explore.CoverRequest{GuardPC: 1}}
		full, err := explore.Check(c.sys, c.tsk, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snapOpts := opts
		snapOpts.Cover = nil
		snap, err := explore.SnapshotPrefix(c.sys, c.tsk, 1, snapOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opts.FirstViolation = true
		first, err := new(explore.Checker).Fork(snap, c.sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkFirstViolation(t, name, first, full)
	}
	if multi == 0 {
		t.Fatal("no case reported more than one violation")
	}
}
