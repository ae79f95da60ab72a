package explore_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/objects"
	"setagree/internal/obs"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// forkFamily builds enumerate-shaped candidates sharing a one-invoke
// prefix: every program starts Invoke r2 ← obj0.propose(input), then
// diverges at the second invocation and the guarded actions — exactly
// the trie structure the sweep memoizer snapshots at level depth-1.
func forkFamily() (base, alt []*machine.Program, objs []spec.Spec) {
	candA := machine.NewBuilder("fork-cand-a", 4).
		Invoke(2, 0, value.MethodPropose, machine.R(machine.RegInput), machine.Operand{}).
		Invoke(3, 0, value.MethodPropose, machine.R(machine.RegInput), machine.Operand{}).
		JEq(machine.R(3), machine.C(value.Bottom), "onbottom").
		Decide(machine.R(3)).
		Label("onbottom").
		Decide(machine.R(2)).
		MustBuild()
	candB := machine.NewBuilder("fork-cand-b", 4).
		Invoke(2, 0, value.MethodPropose, machine.R(machine.RegInput), machine.Operand{}).
		Invoke(3, 1, value.MethodRead, machine.Operand{}, machine.Operand{}).
		JEq(machine.R(3), machine.C(value.Bottom), "onbottom").
		Decide(machine.R(3)).
		Label("onbottom").
		Abort().
		MustBuild()
	objs = []spec.Spec{objects.NewConsensus(1), objects.NewRegister()}
	return []*machine.Program{candA, candA}, []*machine.Program{candB, candB}, objs
}

// reportKernel is the comparable projection of a Report: everything
// except the private graph, with violations flattened to rendered
// errors plus concrete schedules.
type reportKernel struct {
	States, Transitions, Quiescent int
	Cover                          []explore.BranchCover
	Violations                     []violationKernel
}

type violationKernel struct {
	Msg            string
	Proc           int
	Witness, Cycle []explore.Step
}

func kernel(r *explore.Report) reportKernel {
	k := reportKernel{
		States:      r.States,
		Transitions: r.Transitions,
		Quiescent:   r.Quiescent,
		Cover:       r.Cover,
	}
	for _, v := range r.Violations {
		k.Violations = append(k.Violations, violationKernel{
			Msg:     v.Error(),
			Proc:    v.Proc,
			Witness: v.Witness,
			Cycle:   v.Cycle,
		})
	}
	return k
}

// TestForkMatchesFromScratch checks the core fork contract: a Report
// produced by Snapshot+Fork is identical — counts, coverage, violation
// witnesses, and flushed metrics — to a from-scratch Check of the
// forked system, for both the snapshot's own system and a sibling
// candidate diverging after the shared prefix.
func TestForkMatchesFromScratch(t *testing.T) {
	t.Parallel()
	base, alt, objs := forkFamily()
	inputs := []value.Value{0, 1}
	tsk := task.Consensus{N: 2}
	cover := &explore.CoverRequest{GuardPC: 1}

	snap, err := explore.SnapshotPrefix(&explore.System{Programs: base, Objects: objs, Inputs: inputs},
		tsk, 1, explore.Options{})
	if err != nil {
		t.Fatalf("SnapshotPrefix: %v", err)
	}
	if snap.States() == 0 {
		t.Fatal("empty snapshot prefix")
	}

	for name, progs := range map[string][]*machine.Program{"same": base, "sibling": alt} {
		sys := &explore.System{Programs: progs, Objects: objs, Inputs: inputs}
		scratchSink, forkSink := obs.NewSink(), obs.NewSink()
		want, werr := explore.Check(sys, tsk, explore.Options{Cover: cover, Obs: scratchSink})
		got, gerr := new(explore.Checker).Fork(snap, sys, explore.Options{Cover: cover, Obs: forkSink})
		if werr != nil || gerr != nil {
			t.Fatalf("%s: Check err %v, Fork err %v", name, werr, gerr)
		}
		if !reflect.DeepEqual(kernel(want), kernel(got)) {
			t.Errorf("%s: fork report diverges:\nwant %+v\ngot  %+v", name, kernel(want), kernel(got))
		}
		ws, fs := scratchSink.Snapshot(), forkSink.Snapshot()
		if !reflect.DeepEqual(ws.Counters, fs.Counters) {
			t.Errorf("%s: counters diverge:\nwant %v\ngot  %v", name, ws.Counters, fs.Counters)
		}
		if !reflect.DeepEqual(ws.Gauges, fs.Gauges) {
			t.Errorf("%s: gauges diverge:\nwant %v\ngot  %v", name, ws.Gauges, fs.Gauges)
		}
	}
}

// TestForkCarriesHaltedIDs: a process that halts undecided inside a
// snapshot's prefix is reported by a fork exactly as by a fresh Check,
// and the reused checker's next check, of a system where nothing halts,
// reports no halt.
func TestForkCarriesHaltedIDs(t *testing.T) {
	t.Parallel()
	base, alt, objs := forkFamily()
	halter := machine.NewBuilder("halter", 4).
		Invoke(2, 1, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Halt().
		MustBuild()
	tsk := task.Consensus{N: 2}
	in := []value.Value{0, 1}
	snap, err := explore.SnapshotPrefix(&explore.System{Programs: []*machine.Program{halter, base[1]}, Objects: objs, Inputs: in},
		tsk, 1, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forked := &explore.System{Programs: []*machine.Program{halter, alt[1]}, Objects: objs, Inputs: in}
	plain := &explore.System{Programs: alt, Objects: objs, Inputs: in}
	ck := new(explore.Checker)
	for _, sys := range []*explore.System{forked, plain} {
		want, err := explore.Check(sys, tsk, explore.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got *explore.Report
		if sys == forked {
			got, err = ck.Fork(snap, sys, explore.Options{Workers: 1})
		} else {
			got, err = ck.Check(sys, tsk, explore.Options{Workers: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderReport(got), renderReport(want); g != w {
			t.Fatalf("reused checker diverges from a fresh Check:\n%s\nwant\n%s", g, w)
		}
		halts := 0
		for _, v := range want.Violations {
			if v.Kind == explore.ViolationHaltUndecided && v.Proc == 0 {
				halts++
			}
		}
		wantHalts := 0
		if sys == forked {
			wantHalts = 1
		}
		if halts != wantHalts {
			t.Fatalf("%d halt violations of p1, want %d: %v", halts, wantHalts, want.Violations)
		}
	}
}

// TestForkCarriesUnsafeID: intern notes the first unsafe configuration
// as it goes, so a fork, which never re-interns its snapshot's prefix,
// must carry the note over. Process 1 decides the NIL it reads from the
// unwritten register in its first step, so the snapshot's level-1
// prefix holds the first unsafe configuration.
func TestForkCarriesUnsafeID(t *testing.T) {
	t.Parallel()
	base, alt, objs := forkFamily()
	decideNil := machine.NewBuilder("decide-nil", 4).
		Invoke(2, 1, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Decide(machine.R(2)).
		MustBuild()
	tsk := task.Consensus{N: 2}
	in := []value.Value{0, 1}
	snap, err := explore.SnapshotPrefix(&explore.System{Programs: []*machine.Program{decideNil, base[1]}, Objects: objs, Inputs: in},
		tsk, 1, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forked := &explore.System{Programs: []*machine.Program{decideNil, alt[1]}, Objects: objs, Inputs: in}
	ck := new(explore.Checker)
	for _, sys := range []*explore.System{forked, {Programs: alt, Objects: objs, Inputs: in}} {
		want, err := explore.Check(sys, tsk, explore.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got *explore.Report
		if sys == forked {
			got, err = ck.Fork(snap, sys, explore.Options{Workers: 1})
		} else {
			got, err = ck.Check(sys, tsk, explore.Options{Workers: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderReport(got), renderReport(want); g != w {
			t.Fatalf("reused checker diverges from a fresh Check:\n%s\nwant\n%s", g, w)
		}
		unsafe := len(want.Violations) > 0 && want.Violations[0].Kind == explore.ViolationSafety &&
			len(want.Violations[0].Witness) == 1
		if unsafe != (sys == forked) {
			t.Fatalf("level-1 safety violation %v, want %v: %v", unsafe, sys == forked, want.Violations)
		}
	}
}

// TestForkConcurrent runs many forks of one snapshot concurrently; the
// race detector validates that the frozen prefix really is read-only
// and each fork's report still matches a from-scratch run.
func TestForkConcurrent(t *testing.T) {
	t.Parallel()
	base, alt, objs := forkFamily()
	inputs := []value.Value{0, 1}
	tsk := task.Consensus{N: 2}
	snap, err := explore.SnapshotPrefix(&explore.System{Programs: base, Objects: objs, Inputs: inputs},
		tsk, 1, explore.Options{})
	if err != nil {
		t.Fatalf("SnapshotPrefix: %v", err)
	}
	wants := make([]reportKernel, 2)
	for i, progs := range [][]*machine.Program{base, alt} {
		rep, err := explore.Check(&explore.System{Programs: progs, Objects: objs, Inputs: inputs}, tsk, explore.Options{})
		if err != nil {
			t.Fatalf("Check(%d): %v", i, err)
		}
		wants[i] = kernel(rep)
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i, progs := range [][]*machine.Program{base, alt} {
			wg.Add(1)
			go func(i int, progs []*machine.Program) {
				defer wg.Done()
				rep, err := new(explore.Checker).Fork(snap, &explore.System{Programs: progs, Objects: objs, Inputs: inputs}, explore.Options{})
				if err != nil {
					t.Errorf("Fork(%d): %v", i, err)
					return
				}
				if got := kernel(rep); !reflect.DeepEqual(wants[i], got) {
					t.Errorf("concurrent fork %d diverges: want %+v got %+v", i, wants[i], got)
				}
			}(i, progs)
		}
	}
	wg.Wait()
}

// TestForkStateLimitIdentical checks that a fork truncates at exactly
// the same configuration as a from-scratch run with the same MaxStates:
// partial counts and the ErrStateLimit error match.
func TestForkStateLimitIdentical(t *testing.T) {
	t.Parallel()
	base, alt, objs := forkFamily()
	inputs := []value.Value{0, 1}
	tsk := task.Consensus{N: 2}
	const limit = 9
	snap, err := explore.SnapshotPrefix(&explore.System{Programs: base, Objects: objs, Inputs: inputs},
		tsk, 1, explore.Options{MaxStates: limit})
	if err != nil {
		t.Fatalf("SnapshotPrefix: %v", err)
	}
	sys := &explore.System{Programs: alt, Objects: objs, Inputs: inputs}
	want, werr := explore.Check(sys, tsk, explore.Options{MaxStates: limit})
	got, gerr := new(explore.Checker).Fork(snap, sys, explore.Options{MaxStates: limit})
	if !errors.Is(werr, explore.ErrStateLimit) || !errors.Is(gerr, explore.ErrStateLimit) {
		t.Fatalf("want ErrStateLimit from both: Check %v, Fork %v", werr, gerr)
	}
	if werr.Error() != gerr.Error() {
		t.Errorf("state-limit errors diverge: %q vs %q", werr, gerr)
	}
	if !reflect.DeepEqual(kernel(want), kernel(got)) {
		t.Errorf("partial reports diverge:\nwant %+v\ngot  %+v", kernel(want), kernel(got))
	}
}

// TestForkRejections pins the unsupported-envelope errors.
func TestForkRejections(t *testing.T) {
	t.Parallel()
	base, _, objs := forkFamily()
	inputs := []value.Value{0, 1}
	tsk := task.Consensus{N: 2}
	sys := &explore.System{Programs: base, Objects: objs, Inputs: inputs}

	if _, err := explore.SnapshotPrefix(sys, tsk, 0, explore.Options{}); !errors.Is(err, explore.ErrForkUnsupported) {
		t.Errorf("zero levels: err %v, want ErrForkUnsupported", err)
	}
	if _, err := explore.SnapshotPrefix(sys, tsk, 1, explore.Options{Symmetry: explore.SymmetryIDs}); !errors.Is(err, explore.ErrForkUnsupported) {
		t.Errorf("symmetry snapshot: err %v, want ErrForkUnsupported", err)
	}

	snap, err := explore.SnapshotPrefix(sys, tsk, 1, explore.Options{})
	if err != nil {
		t.Fatalf("SnapshotPrefix: %v", err)
	}
	if _, err := new(explore.Checker).Fork(snap, sys, explore.Options{MaxStates: 7}); !errors.Is(err, explore.ErrForkUnsupported) {
		t.Errorf("MaxStates mismatch: err %v, want ErrForkUnsupported", err)
	}
	if _, err := new(explore.Checker).Fork(snap, sys, explore.Options{Valency: true}); !errors.Is(err, explore.ErrForkUnsupported) {
		t.Errorf("valency fork: err %v, want ErrForkUnsupported", err)
	}
	narrow := &explore.System{Programs: base[:1], Objects: objs, Inputs: inputs[:1]}
	if _, err := new(explore.Checker).Fork(snap, narrow, explore.Options{}); !errors.Is(err, explore.ErrForkUnsupported) {
		t.Errorf("shape mismatch: err %v, want ErrForkUnsupported", err)
	}
	flipped := &explore.System{Programs: base, Objects: objs, Inputs: []value.Value{1, 0}}
	if _, err := new(explore.Checker).Fork(snap, flipped, explore.Options{}); !errors.Is(err, explore.ErrForkUnsupported) {
		t.Errorf("input mismatch: err %v, want ErrForkUnsupported", err)
	}
}

// TestProbeSymmetryMatchesCheck confirms ProbeSymmetry accepts exactly
// when Check runs reduced and rejects with the same sentinel when Check
// falls back.
func TestProbeSymmetryMatchesCheck(t *testing.T) {
	t.Parallel()
	base, alt, objs := forkFamily()
	tsk := task.Consensus{N: 2}
	// Identical programs + identical inputs: ids-symmetric.
	symmetric := &explore.System{Programs: base, Objects: objs, Inputs: []value.Value{1, 1}}
	if err := explore.ProbeSymmetry(symmetric, tsk, explore.SymmetryIDs); err != nil {
		t.Errorf("symmetric probe: %v", err)
	}
	if _, err := explore.Check(symmetric, tsk, explore.Options{Symmetry: explore.SymmetryIDs}); err != nil {
		t.Errorf("symmetric Check: %v", err)
	}
	// Distinct inputs break ids-stability of the root.
	asym := &explore.System{Programs: alt, Objects: objs, Inputs: []value.Value{0, 1}}
	perr := explore.ProbeSymmetry(asym, tsk, explore.SymmetryIDs)
	_, cerr := explore.Check(asym, tsk, explore.Options{Symmetry: explore.SymmetryIDs})
	if (perr == nil) != (cerr == nil) {
		t.Fatalf("probe err %v but Check err %v", perr, cerr)
	}
	if perr != nil && !errors.Is(perr, explore.ErrNotSymmetric) && !errors.Is(perr, explore.ErrSymmetryUnsupported) {
		t.Errorf("probe rejection %v is not a symmetry sentinel", perr)
	}
	if err := explore.ProbeSymmetry(asym, tsk, explore.SymmetryOff); err != nil {
		t.Errorf("off-mode probe: %v", err)
	}
}
