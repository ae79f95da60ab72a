package explore_test

import (
	"errors"
	"fmt"
	"testing"

	"setagree/internal/core"
	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/objects"
	"setagree/internal/programs"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// spinOnRegister builds a program that reads obj[reg] until it equals
// trigger, then decides its input — a solo livelock while nobody writes.
func spinOnRegister(obj int, trigger value.Value) *machine.Program {
	return machine.NewBuilder("spinner", 4).
		Label("loop").
		Invoke(2, obj, value.MethodRead, machine.Operand{}, machine.Operand{}).
		JNe(machine.R(2), machine.C(trigger), "loop").
		Decide(machine.R(machine.RegInput)).
		MustBuild()
}

// decideOwn builds a program that performs one register write and
// decides its input.
func decideOwn(obj int) *machine.Program {
	return machine.NewBuilder("decide-own", 4).
		Invoke(2, obj, value.MethodWrite, machine.R(machine.RegInput), machine.Operand{}).
		Decide(machine.R(machine.RegInput)).
		MustBuild()
}

// TestDACTerminationBViolation builds a DAC protocol whose
// non-distinguished process spins solo on an unwritten register: the
// checker must attribute the violation to Termination (b) and produce a
// pure-q cycle witness.
func TestDACTerminationBViolation(t *testing.T) {
	t.Parallel()
	p := machine.NewBuilder("p-decides", 4).
		Invoke(2, 0, value.MethodWrite, machine.C(7), machine.Operand{}).
		Decide(machine.R(machine.RegInput)).
		MustBuild()
	q := spinOnRegister(1, 1) // register obj1 is never written
	sys := &explore.System{
		Programs: []*machine.Program{p, q},
		Objects:  []spec.Spec{objects.NewRegister(), objects.NewRegister()},
		Inputs:   []value.Value{0, 0},
	}
	rep, err := explore.Check(sys, task.DAC{N: 2, P: 0}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solved() {
		t.Fatal("solo livelock not detected")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == explore.ViolationDACTerminationB && v.Proc == 1 {
			found = true
			if len(v.Cycle) == 0 {
				t.Error("no cycle witness")
			}
			for _, s := range v.Cycle {
				if s.Proc != 1 {
					t.Errorf("Termination (b) cycle contains a step of p%d", s.Proc+1)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no Termination (b) violation among %v", rep.Violations)
	}
}

// TestDACTerminationAViolation: the distinguished process itself spins.
func TestDACTerminationAViolation(t *testing.T) {
	t.Parallel()
	sys := &explore.System{
		Programs: []*machine.Program{spinOnRegister(0, 1), decideOwn(0)},
		Objects:  []spec.Spec{objects.NewRegister()},
		Inputs:   []value.Value{1, 1},
	}
	// q writes its input 1 to obj0 which releases p... make the trigger
	// unreachable instead: q writes 1, p waits for 1 — p CAN be released.
	// Use trigger 2 so p never terminates.
	sys.Programs[0] = spinOnRegister(0, 2)
	rep, err := explore.Check(sys, task.DAC{N: 2, P: 0}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == explore.ViolationDACTerminationA && v.Proc == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no Termination (a) violation among %v", rep.Violations)
	}
}

// TestMixedLivelockAllowedByDAC pins the key liveness distinction: the
// Algorithm 2 retry livelock involves several processes, which n-DAC
// permits (only wait-free tasks forbid it). A two-process mutual
// spin over a PAC object (each upsetting the other's label timing)
// must NOT be flagged under DAC liveness, but MUST be flagged under
// consensus (wait-free) liveness.
func TestMixedLivelockAllowedByDAC(t *testing.T) {
	t.Parallel()
	// Non-distinguished retry loops as in Algorithm 2 for both q's;
	// p decides immediately via its own label.
	retry := machine.NewBuilder("retry", 4).
		Label("loop").
		Invoke(2, 0, value.MethodProposeAt, machine.R(machine.RegInput), machine.R(machine.RegID1)).
		Invoke(3, 0, value.MethodDecide, machine.Operand{}, machine.R(machine.RegID1)).
		JNe(machine.R(3), machine.C(value.Bottom), "win").
		Jmp("loop").
		Label("win").
		Decide(machine.R(3)).
		MustBuild()
	pProg := machine.NewBuilder("p", 4).
		Invoke(2, 0, value.MethodProposeAt, machine.R(machine.RegInput), machine.R(machine.RegID1)).
		Invoke(3, 0, value.MethodDecide, machine.Operand{}, machine.R(machine.RegID1)).
		JEq(machine.R(3), machine.C(value.Bottom), "abort").
		Decide(machine.R(3)).
		Label("abort").
		Abort().
		MustBuild()
	sys := &explore.System{
		Programs: []*machine.Program{pProg, retry, retry},
		Objects:  []spec.Spec{core.NewPAC(3)},
		Inputs:   []value.Value{1, 0, 0},
	}
	rep, err := explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solved() {
		t.Fatalf("DAC flagged the permitted mixed livelock: %v", rep.Violations[0])
	}

	// The same system fails wait-free consensus liveness (the mixed
	// cycle now counts) — and would also fail safety if p aborts, so we
	// only assert it is not solved.
	sys2 := &explore.System{
		Programs: []*machine.Program{retry, retry, retry},
		Objects:  []spec.Spec{core.NewPAC(3)},
		Inputs:   []value.Value{1, 0, 0},
	}
	rep2, err := explore.Check(sys2, task.Consensus{N: 3}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	foundWF := false
	for _, v := range rep2.Violations {
		if v.Kind == explore.ViolationWaitFree {
			foundWF = true
		}
	}
	if !foundWF {
		t.Fatalf("wait-free check missed the mixed livelock: %v", rep2.Violations)
	}
}

// TestLivenessReportOrder: violations are reported in walk order, so
// processes whose first violating edges leave one configuration are
// reported in process order. Under wait-free consensus the first two
// retrying processes of the mixed livelock first violate from the same
// configuration.
func TestLivenessReportOrder(t *testing.T) {
	t.Parallel()
	a2 := algorithm2System(t)
	retry := a2.Programs[1]
	sys := &explore.System{
		Programs: []*machine.Program{retry, retry, retry},
		Objects:  []spec.Spec{core.NewPAC(3)},
		Inputs:   []value.Value{1, 0, 0},
	}
	rep, err := explore.Check(sys, task.Consensus{N: 3}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 3 {
		t.Fatalf("%d violations, want one per process: %v", len(rep.Violations), rep.Violations)
	}
	for i, v := range rep.Violations {
		if v.Kind != explore.ViolationWaitFree || v.Proc != i {
			t.Fatalf("violation %d: %s of p%d, want wait-free of p%d", i, v.Kind, v.Proc+1, i+1)
		}
	}
	if a, b := fmt.Sprint(rep.Violations[0].Witness), fmt.Sprint(rep.Violations[1].Witness); a != b {
		t.Fatalf("p1 and p2 violate from different configurations:\n%s\n%s", a, b)
	}
}

// TestHaltUndecidedViolation: a process whose program simply ends.
func TestHaltUndecidedViolation(t *testing.T) {
	t.Parallel()
	halter := machine.NewBuilder("halter", 4).
		Invoke(2, 0, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Halt().
		MustBuild()
	sys := &explore.System{
		Programs: []*machine.Program{decideOwn(0), halter},
		Objects:  []spec.Spec{objects.NewRegister()},
		Inputs:   []value.Value{0, 0},
	}
	rep, err := explore.Check(sys, task.Consensus{N: 2}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == explore.ViolationHaltUndecided && v.Proc == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("halt-undecided not flagged: %v", rep.Violations)
	}
}

// TestDecidedSentinelIsSafetyViolation pins the hole found by the
// depth-2 falsification sweep: a protocol that "decides" NIL or ⊥ must
// be refuted, not treated as undecided.
func TestDecidedSentinelIsSafetyViolation(t *testing.T) {
	t.Parallel()
	// Reads the unwritten register (NIL) and decides the response.
	prog := machine.NewBuilder("decide-nil", 4).
		Invoke(2, 0, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Decide(machine.R(2)).
		MustBuild()
	sys := &explore.System{
		Programs: []*machine.Program{prog, prog},
		Objects:  []spec.Spec{objects.NewRegister()},
		Inputs:   []value.Value{0, 1},
	}
	rep, err := explore.Check(sys, task.Consensus{N: 2}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solved() {
		t.Fatal("deciding NIL slipped through the safety predicate")
	}
	if rep.Violations[0].Kind != explore.ViolationSafety {
		t.Fatalf("kind = %s, want safety", rep.Violations[0].Kind)
	}
}

// TestValencyAbortBit checks the CanAbort valence bit on Algorithm 2:
// from the initial configuration of the canonical instance an abort of
// p is reachable.
func TestValencyAbortBit(t *testing.T) {
	t.Parallel()
	prot := algorithm2System(t)
	rep, err := explore.Check(prot, task.DAC{N: 2, P: 0}, explore.Options{Valency: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valency.Initial&explore.CanAbort == 0 {
		t.Fatal("abort unreachable from the initial configuration — but the adversary can always interleave q")
	}
}

// TestReportDeterminism: two explorations of the same system agree on
// all counts.
func TestReportDeterminism(t *testing.T) {
	t.Parallel()
	a, err := explore.Check(algorithm2System(t), task.DAC{N: 2, P: 0}, explore.Options{Valency: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := explore.Check(algorithm2System(t), task.DAC{N: 2, P: 0}, explore.Options{Valency: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.States != b.States || a.Transitions != b.Transitions || a.Quiescent != b.Quiescent {
		t.Fatalf("reports differ: %+v vs %+v", a, b)
	}
	if a.Valency.CriticalCount != b.Valency.CriticalCount ||
		a.Valency.Bivalent != b.Valency.Bivalent ||
		a.Valency.Initial != b.Valency.Initial {
		t.Fatal("valency reports differ")
	}
}

// mixedLivelock is Algorithm 2's distinguished process and two of its
// retrying processes over one 3-PAC, inputs 1, 0, 0: the retrying
// processes can upset the PAC for each other forever.
func mixedLivelock(t *testing.T) *explore.System {
	t.Helper()
	a2 := algorithm2System(t)
	return &explore.System{
		Programs: []*machine.Program{a2.Programs[0], a2.Programs[1], a2.Programs[1]},
		Objects:  []spec.Spec{core.NewPAC(3)},
		Inputs:   []value.Value{1, 0, 0},
	}
}

// toggler writes its input to register 1, then 0, forever: it never
// decides.
func toggler() *machine.Program {
	return machine.NewBuilder("toggler", 4).
		Label("loop").
		Invoke(2, 1, value.MethodWrite, machine.R(machine.RegInput), machine.Operand{}).
		Invoke(2, 1, value.MethodWrite, machine.C(0), machine.Operand{}).
		Jmp("loop").
		MustBuild()
}

// swappedTogglers are two systems of a deciding process and two
// togglers, which write their input, then 0, forever, and so violate
// Termination (b) of n-DAC with process 0 distinguished. Where both
// togglers sit at the loop head the configuration is fixed by swapping
// them (in values mode together with their inputs), so a toggler's
// cycle through it comes back, in the quotient, in the other's slot.
// The first system's togglers share an input, for ids; the second's
// differ, for values.
func swappedTogglers() []struct {
	name string
	sys  *explore.System
} {
	toggler := toggler()
	mk := func(inputs ...value.Value) *explore.System {
		return &explore.System{
			Programs: []*machine.Program{decideOwn(0), toggler, toggler},
			Objects:  []spec.Spec{objects.NewRegister(), objects.NewRegister()},
			Inputs:   inputs,
		}
	}
	return []struct {
		name string
		sys  *explore.System
	}{
		{"swapped-togglers", mk(5, 7, 7)},
		{"swapped-togglers-values", mk(5, 7, 9)},
	}
}

// TestSoloSCCsMatchSoloCycle compares the solo-graph SCC test for
// Termination (b) with the per-edge searches it replaced (liftedCycle's
// solo walk, and soloCycle's without symmetry; explore.SoloAgreement)
// on every intra-SCC edge of every non-distinguished process, at
// symmetry off, ids and values and at Workers 1 and 4: over this file's
// systems, two togglers whose solo cycles return through configurations
// that swap them, Algorithm 2 at n=3 for every distinguished process
// and binary input vector, and Algorithm 2 at n=4.
func TestSoloSCCsMatchSoloCycle(t *testing.T) {
	t.Parallel()
	type instance struct {
		name string
		sys  *explore.System
		skip int // the distinguished process, -1 to compare every process
	}
	a2 := algorithm2System(t)
	retrying := mixedLivelock(t)
	halter := machine.NewBuilder("halter", 4).
		Invoke(2, 0, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Halt().
		MustBuild()
	pDecides := machine.NewBuilder("p-decides", 4).
		Invoke(2, 0, value.MethodWrite, machine.C(7), machine.Operand{}).
		Decide(machine.R(machine.RegInput)).
		MustBuild()
	instances := []instance{
		{"solo-spinner", &explore.System{
			Programs: []*machine.Program{pDecides, spinOnRegister(1, 1)},
			Objects:  []spec.Spec{objects.NewRegister(), objects.NewRegister()},
			Inputs:   []value.Value{0, 0},
		}, 0},
		{"p-spins", &explore.System{
			Programs: []*machine.Program{spinOnRegister(0, 2), decideOwn(0)},
			Objects:  []spec.Spec{objects.NewRegister()},
			Inputs:   []value.Value{1, 1},
		}, 0},
		{"mixed-livelock", retrying, 0},
		{"mixed-livelock-all", retrying, -1},
		{"halter", &explore.System{
			Programs: []*machine.Program{decideOwn(0), halter},
			Objects:  []spec.Spec{objects.NewRegister()},
			Inputs:   []value.Value{0, 0},
		}, -1},
		{"alg2-n2", a2, 0},
	}
	for _, tg := range swappedTogglers() {
		instances = append(instances, instance{tg.name, tg.sys, 0})
	}
	for p := 1; p <= 3; p++ {
		for bits := 0; bits < 8; bits++ {
			in := []value.Value{value.Value(bits & 1), value.Value(bits >> 1 & 1), value.Value(bits >> 2 & 1)}
			sys, err := programs.Algorithm2(3, p).System(in)
			if err != nil {
				t.Fatal(err)
			}
			instances = append(instances, instance{fmt.Sprintf("alg2-n3-p%d-%v", p, in), sys, p - 1})
		}
	}
	sys4, err := programs.Algorithm2(4, 1).System([]value.Value{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, instance{"alg2-n4", sys4, 0})

	for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs, explore.SymmetryValues} {
		for _, workers := range []int{1, 4} {
			var edges, solo, reduced int
			for _, in := range instances {
				var tsk task.Task
				if in.skip >= 0 {
					tsk = task.DAC{N: in.sys.Procs(), P: in.skip}
				}
				rep, err := explore.Check(in.sys, tsk, explore.Options{Workers: workers, Symmetry: sym})
				if errors.Is(err, explore.ErrNotSymmetric) || errors.Is(err, explore.ErrSymmetryUnsupported) {
					continue
				}
				if err != nil {
					t.Fatal(in.name, err)
				}
				if rep.SymmetryGroupOrder() > 1 {
					reduced++
				}
				e, s, err := explore.SoloAgreement(rep, in.skip)
				if err != nil {
					t.Errorf("%s/%s/workers=%d: %v", in.name, sym, workers, err)
				}
				edges += e
				solo += s
			}
			if solo == 0 || solo == edges {
				t.Fatalf("%s/workers=%d: %d of %d compared edges lie on a solo cycle: the suite must show both answers", sym, workers, solo, edges)
			}
			if sym != explore.SymmetryOff && reduced == 0 {
				t.Fatalf("%s: no instance has a nontrivial group", sym)
			}
		}
	}
}

// TestSolvedCheckMakesNoLiftedWalk: Termination (b) is decided by one
// SCC pass, so a solved check, which reports no cycle, makes no lifted
// walk, with symmetry off and under ids.
func TestSolvedCheckMakesNoLiftedWalk(t *testing.T) {
	t.Parallel()
	sys, err := programs.Algorithm2(5, 1).System([]value.Value{1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
		rep, err := explore.Check(sys, task.DAC{N: 5, P: 0}, explore.Options{Workers: 1, Symmetry: sym})
		if err != nil || !rep.Solved() {
			t.Fatalf("%s: %v %v", sym, err, rep.Violations)
		}
		if sym == explore.SymmetryIDs && rep.SymmetryGroupOrder() != 24 {
			t.Fatalf("ids: group order %d, want 24", rep.SymmetryGroupOrder())
		}
		if n := explore.LiftedWalks(rep); n != 0 {
			t.Fatalf("%s: a solved check made %d lifted walks", sym, n)
		}
	}
}

// TestLiftedCycleMatchesReferences compares the one cycle search the
// liveness report and the adversary use with the references it
// replaced, on every intra-SCC edge (explore.CycleAgreement): this
// file's systems under their tasks, and Algorithm 2 at n=3 for every
// distinguished process and binary input vector and at n=4, at
// symmetry off and ids.
func TestLiftedCycleMatchesReferences(t *testing.T) {
	t.Parallel()
	type instance struct {
		name string
		sys  *explore.System
		tsk  task.Task
	}
	a2 := algorithm2System(t)
	retrying := mixedLivelock(t)
	halter := machine.NewBuilder("halter", 4).
		Invoke(2, 0, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Halt().
		MustBuild()
	pDecides := machine.NewBuilder("p-decides", 4).
		Invoke(2, 0, value.MethodWrite, machine.C(7), machine.Operand{}).
		Decide(machine.R(machine.RegInput)).
		MustBuild()
	instances := []instance{
		{"solo-spinner", &explore.System{
			Programs: []*machine.Program{pDecides, spinOnRegister(1, 1)},
			Objects:  []spec.Spec{objects.NewRegister(), objects.NewRegister()},
			Inputs:   []value.Value{0, 0},
		}, task.DAC{N: 2, P: 0}},
		{"p-spins", &explore.System{
			Programs: []*machine.Program{spinOnRegister(0, 2), decideOwn(0)},
			Objects:  []spec.Spec{objects.NewRegister()},
			Inputs:   []value.Value{1, 1},
		}, task.DAC{N: 2, P: 0}},
		{"mixed-livelock-dac", retrying, task.DAC{N: 3, P: 0}},
		{"mixed-livelock-consensus", retrying, task.Consensus{N: 3}},
		{"all-retry-consensus", &explore.System{
			Programs: []*machine.Program{a2.Programs[1], a2.Programs[1], a2.Programs[1]},
			Objects:  []spec.Spec{core.NewPAC(3)},
			Inputs:   []value.Value{1, 0, 0},
		}, task.Consensus{N: 3}},
		{"halter", &explore.System{
			Programs: []*machine.Program{decideOwn(0), halter},
			Objects:  []spec.Spec{objects.NewRegister()},
			Inputs:   []value.Value{0, 0},
		}, task.Consensus{N: 2}},
		{"alg2-n2", a2, task.DAC{N: 2, P: 0}},
	}
	for p := 1; p <= 3; p++ {
		for bits := 0; bits < 8; bits++ {
			in := []value.Value{value.Value(bits & 1), value.Value(bits >> 1 & 1), value.Value(bits >> 2 & 1)}
			sys, err := programs.Algorithm2(3, p).System(in)
			if err != nil {
				t.Fatal(err)
			}
			instances = append(instances, instance{fmt.Sprintf("alg2-n3-p%d-%v", p, in), sys, task.DAC{N: 3, P: p - 1}})
		}
	}
	sys4, err := programs.Algorithm2(4, 1).System([]value.Value{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, instance{"alg2-n4", sys4, task.DAC{N: 4, P: 0}})

	for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
		var edges, solo, violations, reduced int
		for _, in := range instances {
			rep, err := explore.Check(in.sys, in.tsk, explore.Options{Workers: 1, Symmetry: sym})
			if errors.Is(err, explore.ErrNotSymmetric) {
				continue
			}
			if err != nil {
				t.Fatal(in.name, err)
			}
			if rep.SymmetryGroupOrder() > 1 {
				reduced++
			}
			e, s, err := explore.CycleAgreement(rep)
			if err != nil {
				t.Errorf("%s/%s: %v", in.name, sym, err)
			}
			edges += e
			solo += s
			for _, v := range rep.Violations {
				if len(v.Cycle) > 0 {
					violations++
				}
			}
		}
		if solo == 0 || solo == edges || violations == 0 {
			t.Fatalf("%s: %d of %d compared edges lie on a solo cycle, %d violations with a cycle: the suite must show both answers and some violations",
				sym, solo, edges, violations)
		}
		t.Logf("%s: %d intra-SCC edges, %d on a solo cycle, %d violations with a cycle, %d reduced instances",
			sym, edges, solo, violations, reduced)
		if sym != explore.SymmetryOff && reduced == 0 {
			t.Fatalf("%s: no instance has a nontrivial group", sym)
		}
	}
}

func algorithm2System(t *testing.T) *explore.System {
	t.Helper()
	pProg := machine.NewBuilder("p", 4).
		Invoke(2, 0, value.MethodProposeAt, machine.R(machine.RegInput), machine.R(machine.RegID1)).
		Invoke(3, 0, value.MethodDecide, machine.Operand{}, machine.R(machine.RegID1)).
		JEq(machine.R(3), machine.C(value.Bottom), "abort").
		Decide(machine.R(3)).
		Label("abort").
		Abort().
		MustBuild()
	retry := machine.NewBuilder("q", 4).
		Label("loop").
		Invoke(2, 0, value.MethodProposeAt, machine.R(machine.RegInput), machine.R(machine.RegID1)).
		Invoke(3, 0, value.MethodDecide, machine.Operand{}, machine.R(machine.RegID1)).
		JNe(machine.R(3), machine.C(value.Bottom), "win").
		Jmp("loop").
		Label("win").
		Decide(machine.R(3)).
		MustBuild()
	return &explore.System{
		Programs: []*machine.Program{pProg, retry},
		Objects:  []spec.Spec{core.NewPAC(2)},
		Inputs:   []value.Value{1, 0},
	}
}
