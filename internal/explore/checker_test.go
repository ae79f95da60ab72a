package explore_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// checkerStep is one call in a reused-checker sequence: a Check, or a
// Fork of fork when it is set.
type checkerStep struct {
	name string
	sys  *explore.System
	tsk  task.Task
	opts explore.Options
	fork *explore.Snapshot
}

// checkerRun is everything a step's comparison looks at: the rendered
// report with its coverage, the error, the DOT rendering, and the
// fixed-clock event stream.
type checkerRun struct {
	report, err, dot, events string
}

// renderCovered is renderReport plus the branch coverage.
func renderCovered(rep *explore.Report) string {
	return renderReport(rep) + fmt.Sprintf("cover=%#v\n", rep.Cover)
}

// runStep runs the step on ck, or one-shot when ck is nil: a fresh
// Check of the step's system, also for fork steps, since a fork's
// report equals a from-scratch check's. The returned report is ck's
// until its next call.
func runStep(t *testing.T, ck *explore.Checker, s checkerStep) (*explore.Report, checkerRun) {
	t.Helper()
	var ev bytes.Buffer
	opts := s.opts
	opts.Events = obs.NewEmitterAt(&ev, fixedClock)
	if opts.Store.Dir != "" {
		opts.Store.Dir = t.TempDir()
	}
	var (
		rep *explore.Report
		err error
	)
	switch {
	case ck == nil:
		rep, err = explore.Check(s.sys, s.tsk, opts)
	case s.fork != nil:
		rep, err = ck.Fork(s.fork, s.sys, opts)
	default:
		rep, err = ck.Check(s.sys, s.tsk, opts)
	}
	if rep == nil {
		t.Fatalf("%s: no report: %v", s.name, err)
	}
	run := checkerRun{report: renderCovered(rep), events: ev.String()}
	if err != nil {
		run.err = err.Error()
	}
	var dot bytes.Buffer
	if werr := rep.WriteDOT(&dot, 1<<20); werr != nil {
		t.Fatalf("%s: WriteDOT: %v", s.name, werr)
	}
	run.dot = dot.String()
	return rep, run
}

// checkerSteps is a sequence over different systems, tasks, symmetry
// modes, worker counts and stores, state-limited checks, and forks of
// two snapshots. Large checks precede small ones and forks, so the
// reused store meets a table larger than it needs, and store.CopyFrom
// rehashes a snapshot's table into it.
func checkerSteps(t *testing.T) []checkerStep {
	t.Helper()
	mk := func(prot programs.Protocol, in ...value.Value) *explore.System {
		sys, err := prot.System(in)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	base, alt, objs := forkFamily()
	forkIn := []value.Value{0, 1}
	forkTsk := task.Consensus{N: 2}
	baseSys := &explore.System{Programs: base, Objects: objs, Inputs: forkIn}
	altSys := &explore.System{Programs: alt, Objects: objs, Inputs: forkIn}
	snap, err := explore.SnapshotPrefix(baseSys, forkTsk, 1, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const limit = 9
	limSnap, err := explore.SnapshotPrefix(baseSys, forkTsk, 1, explore.Options{MaxStates: limit})
	if err != nil {
		t.Fatal(err)
	}
	cover := &explore.CoverRequest{GuardPC: 1}
	alg3 := mk(programs.Algorithm2(3, 1), 1, 0, 0)
	alg4 := mk(programs.Algorithm2(4, 1), 1, 0, 0, 0)
	return []checkerStep{
		{name: "fork-first", sys: altSys, tsk: forkTsk, opts: explore.Options{Workers: 1, Cover: cover}, fork: snap},
		{name: "alg2-n3-valency", sys: alg3, tsk: task.DAC{N: 3, P: 0}, opts: explore.Options{Workers: 1, Valency: true}},
		// The step memo keeps its object half across checks whose object
		// specs are equal, and empties it for a system with other ones:
		// alg2 on a PAC, then on the PAC face of a PACM, then on a PAC
		// again.
		{name: "alg2-n3-pacm", sys: mk(programs.Algorithm2ViaPACM(3, 2, 1), 1, 0, 0), tsk: task.DAC{N: 3, P: 0},
			opts: explore.Options{Workers: 1}},
		{name: "alg2-n3-after-pacm", sys: alg3, tsk: task.DAC{N: 3, P: 0}, opts: explore.Options{Workers: 1}},
		{name: "alg2-n4-workers4", sys: alg4, tsk: task.DAC{N: 4, P: 0}, opts: explore.Options{Workers: 4, HeartbeatEvery: 64}},
		{name: "naive-2sa-safety", sys: mk(programs.NaiveTwoSAConsensus(2), 0, 1), tsk: task.Consensus{N: 2},
			opts: explore.Options{Workers: 4}},
		{name: "fork-after-large", sys: altSys, tsk: forkTsk, opts: explore.Options{Workers: 1, Cover: cover}, fork: snap},
		{name: "fork-own-system", sys: baseSys, tsk: forkTsk, opts: explore.Options{Workers: 1, Cover: cover}, fork: snap},
		{name: "alg2-n4-ids", sys: alg4, tsk: task.DAC{N: 4, P: 0}, opts: explore.Options{Workers: 1, Symmetry: explore.SymmetryIDs}},
		{name: "consensus-values", sys: mk(programs.ConsensusFromObject(2, 3), 3, 5, 7), tsk: task.Consensus{N: 3},
			opts: explore.Options{Workers: 2, Symmetry: explore.SymmetryValues}},
		{name: "oversubscribed-liveness", sys: mk(programs.OverSubscribedConsensus(2), 0, 1, 2), tsk: task.Consensus{N: 3},
			opts: explore.Options{Workers: 1}},
		{name: "alg2-n4-state-limit", sys: alg4, tsk: task.DAC{N: 4, P: 0}, opts: explore.Options{Workers: 1, MaxStates: 50}},
		{name: "fork-state-limit", sys: altSys, tsk: forkTsk, opts: explore.Options{Workers: 1, MaxStates: limit}, fork: limSnap},
		{name: "alg2-n3-dir-store", sys: alg3, tsk: task.DAC{N: 3, P: 0},
			opts: explore.Options{Workers: 1, Store: store.Options{Dir: "set per run"}}},
		{name: "alg2-n3-after-dir", sys: alg3, tsk: task.DAC{N: 3, P: 0}, opts: explore.Options{Workers: 4}},
		// Successor configurations live in slabs the checker recycles
		// at every level barrier and at every call: a state-limited
		// check leaves both generations in use, then a fork, full checks
		// at one and four workers, and the same under symmetry build
		// into them again.
		{name: "lifecycle-limit", sys: alg4, tsk: task.DAC{N: 4, P: 0}, opts: explore.Options{Workers: 4, MaxStates: 300}},
		{name: "lifecycle-fork", sys: altSys, tsk: forkTsk, opts: explore.Options{Workers: 1, Cover: cover}, fork: snap},
		{name: "lifecycle-workers1", sys: alg4, tsk: task.DAC{N: 4, P: 0}, opts: explore.Options{Workers: 1}},
		{name: "lifecycle-workers4", sys: alg4, tsk: task.DAC{N: 4, P: 0}, opts: explore.Options{Workers: 4}},
		{name: "lifecycle-ids-limit", sys: alg4, tsk: task.DAC{N: 4, P: 0},
			opts: explore.Options{Workers: 4, MaxStates: 40, Symmetry: explore.SymmetryIDs}},
		{name: "lifecycle-ids-workers1", sys: alg4, tsk: task.DAC{N: 4, P: 0}, opts: explore.Options{Workers: 1, Symmetry: explore.SymmetryIDs}},
		{name: "lifecycle-ids-workers4", sys: alg4, tsk: task.DAC{N: 4, P: 0}, opts: explore.Options{Workers: 4, Symmetry: explore.SymmetryIDs}},
	}
}

// TestCheckerReuseMatchesFresh runs one Checker through checkerSteps
// and compares every step with a fresh one-shot Check: reports with
// violations and witnesses, errors, DOT and events are byte-identical.
// After the sequence, each reused step's report still renders as it
// did (its counts, violations and coverage own their memory), and
// both snapshots' bytes are unchanged by the forks.
func TestCheckerReuseMatchesFresh(t *testing.T) {
	t.Parallel()
	steps := checkerSteps(t)
	snapBefore := map[*explore.Snapshot][]byte{}
	for _, s := range steps {
		if s.fork != nil && snapBefore[s.fork] == nil {
			snapBefore[s.fork] = explore.SnapshotBytes(s.fork)
		}
	}
	ck := new(explore.Checker)
	reps := make([]*explore.Report, len(steps))
	rendered := make([]string, len(steps))
	var sawViolation, sawLimit bool
	for i, s := range steps {
		rep, got := runStep(t, ck, s)
		reps[i], rendered[i] = rep, got.report
		sawViolation = sawViolation || len(rep.Violations) > 0
		sawLimit = sawLimit || strings.Contains(got.err, explore.ErrStateLimit.Error())
		freshRep, want := runStep(t, nil, s)
		if got != want {
			t.Errorf("%s: reused checker diverges from a fresh Check:\nreused %+v\nfresh  %+v", s.name, got, want)
		}
		if s.opts.Store.Dir != "" {
			if err := rep.Close(); err != nil {
				t.Fatal(err)
			}
			if err := freshRep.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, s := range steps {
		if got := renderCovered(reps[i]); got != rendered[i] {
			t.Errorf("%s: report changed after later calls:\nthen %s\nnow  %s", s.name, rendered[i], got)
		}
	}
	if !sawViolation || !sawLimit {
		t.Fatalf("sequence lacks a violation (%v) or a state-limited check (%v)", sawViolation, sawLimit)
	}
	for snap, before := range snapBefore {
		if after := explore.SnapshotBytes(snap); !bytes.Equal(before, after) {
			t.Errorf("a snapshot changed under forks:\nbefore %s\nafter  %s", before, after)
		}
	}
}

// TestCheckerReuseLivenessAllocs: once a reused checker has checked a
// DAC instance with cyclic SCCs and solo-cycle candidates, its liveness
// check, and intern's safety note over its configurations, allocate
// nothing. It does not run in parallel: testing.AllocsPerRun counts
// every goroutine's allocations, so concurrent tests would show up in
// the count.
func TestCheckerReuseLivenessAllocs(t *testing.T) {
	ck := new(explore.Checker)
	for _, n := range []int{4, 3} {
		in := make([]value.Value, n)
		in[0] = 1
		sys, err := programs.Algorithm2(n, 1).System(in)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ck.Check(sys, task.DAC{N: n, P: 0}, explore.Options{Workers: 1})
		if err != nil || !rep.Solved() {
			t.Fatalf("alg2 n=%d: %v %v", n, err, rep.Violations)
		}
		if edges, _, err := explore.SoloAgreement(rep, 0); err != nil || edges == 0 {
			t.Fatalf("alg2 n=%d: %d intra-SCC edges of non-distinguished processes, %v", n, edges, err)
		}
	}
	if allocs := explore.LivenessAllocs(ck); allocs != 0 {
		t.Fatalf("a reused checker's liveness check allocates %v times", allocs)
	}
	if allocs := explore.SafetyAllocs(ck); allocs != 0 {
		t.Fatalf("a reused checker's safety note allocates %v times over a solved check", allocs)
	}
}

// TestWarmCheckAllocs: a warm checker's check of alg2 n=5 (symmetry
// off) allocates at most warmCheckAllocs times, against 7,772
// configurations explored: every successor configuration comes from
// the checker's recycled slabs, and the step memo keeps its object half
// across checks of a system with equal object specs, so what allocates
// is the process steps' misses, emptied per search, and a fixed cost
// per call. It does not run in parallel: testing.AllocsPerRun counts
// every goroutine's allocations.
func TestWarmCheckAllocs(t *testing.T) {
	const warmCheckAllocs = 96
	sys, err := programs.Algorithm2(5, 1).System([]value.Value{1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	ck := new(explore.Checker)
	states := 0
	check := func() {
		rep, err := ck.Check(sys, task.DAC{N: 5, P: 0}, explore.Options{Workers: 1})
		if err != nil || !rep.Solved() {
			t.Fatalf("alg2 n=5: %v %v", err, rep.Violations)
		}
		states = rep.States
	}
	check()
	allocs := testing.AllocsPerRun(1, check)
	if states != 7772 {
		t.Fatalf("alg2 n=5: %d states, want 7772", states)
	}
	if allocs > warmCheckAllocs {
		t.Fatalf("a warm check of %d states allocates %v times, more than %d", states, allocs, warmCheckAllocs)
	}
	t.Logf("a warm check of %d states allocates %v times", states, allocs)
}

// TestCheckerReuseSafety: a reused checker runs refuted, solved and
// refuted checks, over different and equal input vectors, and each
// report, with its safety violation, matches a fresh Check. The safety
// note the previous check left must not leak into the next.
func TestCheckerReuseSafety(t *testing.T) {
	t.Parallel()
	mk := func(prot programs.Protocol, in ...value.Value) *explore.System {
		sys, err := prot.System(in)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	naive := mk(programs.NaiveTwoSAConsensus(3), 0, 1, 1)
	steps := []struct {
		sys     *explore.System
		tsk     task.Task
		refuted bool
	}{
		{naive, task.Consensus{N: 3}, true},
		{mk(programs.Algorithm2(3, 1), 1, 0, 0), task.DAC{N: 3, P: 0}, false},
		{mk(programs.NaiveTwoSAConsensus(2), 0, 1), task.Consensus{N: 2}, true},
		{mk(programs.ConsensusFromObject(2, 2), 0, 1), task.Consensus{N: 2}, false},
		{naive, task.Consensus{N: 3}, true},
		{mk(programs.ConsensusFromSticky(3), 0, 1, 1), task.Consensus{N: 3}, false},
	}
	ck := new(explore.Checker)
	for k, s := range steps {
		got, err := ck.Check(s.sys, s.tsk, explore.Options{Workers: 1})
		if err != nil {
			t.Fatal(k, err)
		}
		want, err := explore.Check(s.sys, s.tsk, explore.Options{Workers: 1})
		if err != nil {
			t.Fatal(k, err)
		}
		if g, w := renderReport(got), renderReport(want); g != w {
			t.Errorf("step %d: reused checker diverges from a fresh Check:\n%s\nwant\n%s", k, g, w)
		}
		refuted := len(got.Violations) > 0 && got.Violations[0].Kind == explore.ViolationSafety
		if refuted != s.refuted {
			t.Errorf("step %d: safety refuted %v, want %v: %v", k, refuted, s.refuted, got.Violations)
		}
	}
}

// TestCheckerFirstCallErrors: a checker whose first call fails its
// argument checks or opens no store is still usable.
func TestCheckerFirstCallErrors(t *testing.T) {
	t.Parallel()
	ck := new(explore.Checker)
	sys, err := programs.Algorithm2(3, 1).System([]value.Value{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Check(sys, task.DAC{N: 4, P: 0}, explore.Options{}); !errors.Is(err, machine.ErrProgram) {
		t.Fatalf("mismatched task: %v, want ErrProgram", err)
	}
	want, err := explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ck.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if renderReport(got) != renderReport(want) {
		t.Fatalf("after a rejected call: %s, want %s", renderReport(got), renderReport(want))
	}
}

// TestCheckerForksConcurrent: goroutines that each own a Checker fork
// one snapshot over and over, as sweep workers do. Under the race
// detector this checks that a fork only reads the snapshot, and every
// fork's report still matches a fresh Check.
func TestCheckerForksConcurrent(t *testing.T) {
	t.Parallel()
	base, alt, objs := forkFamily()
	inputs := []value.Value{0, 1}
	tsk := task.Consensus{N: 2}
	snap, err := explore.SnapshotPrefix(&explore.System{Programs: base, Objects: objs, Inputs: inputs},
		tsk, 1, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := explore.SnapshotBytes(snap)
	systems := []*explore.System{
		{Programs: base, Objects: objs, Inputs: inputs},
		{Programs: alt, Objects: objs, Inputs: inputs},
	}
	wants := make([]string, len(systems))
	for i, sys := range systems {
		rep, err := explore.Check(sys, tsk, explore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = renderReport(rep)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ck := new(explore.Checker)
			for round := 0; round < 8; round++ {
				i := (w + round) % len(systems)
				rep, err := ck.Fork(snap, systems[i], explore.Options{Workers: 1})
				if err != nil {
					t.Errorf("worker %d fork %d: %v", w, i, err)
					return
				}
				if got := renderReport(rep); got != wants[i] {
					t.Errorf("worker %d fork %d diverges:\n%s\nwant\n%s", w, i, got, wants[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if after := explore.SnapshotBytes(snap); !bytes.Equal(before, after) {
		t.Error("the snapshot changed under concurrent forks")
	}
}
