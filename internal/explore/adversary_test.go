package explore_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"setagree/internal/explore"
	"setagree/internal/programs"
	"setagree/internal/task"
	"setagree/internal/value"
)

// TestAdversaryKeepsAlgorithm2BivalentForever: for Algorithm 2 the
// bivalence-preserving adversary finds an infinite bivalent run — the
// two non-distinguished processes can retry against each other forever
// while p stays frozen. This is exactly the weak-termination loophole
// of the n-DAC problem (only Termination (a)/(b), not wait-freedom).
func TestAdversaryKeepsAlgorithm2BivalentForever(t *testing.T) {
	t.Parallel()
	prot := programs.Algorithm2(3, 1)
	sys, err := prot.System([]value.Value{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{Valency: true})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := rep.Adversary()
	if err != nil {
		t.Fatal(err)
	}
	if !adv.KeepsBivalentForever() {
		t.Fatalf("adversary stopped at critical configuration %d after %d steps; "+
			"expected an infinite bivalent run", adv.CriticalID, len(adv.Schedule))
	}
	// The infinite run must not involve the distinguished process
	// infinitely often (p has Termination (a)): every step of the cycle
	// is a non-p step.
	for _, s := range adv.Cycle {
		if s.Proc == 0 {
			t.Fatalf("cycle contains a step of p: %s (would violate Termination (a))", s)
		}
	}
}

// TestAdversaryHitsCriticalOnWaitFreeProtocol: for a verified wait-free
// protocol the adversary CANNOT cycle (an infinite bivalent run would
// be a wait-freedom violation); it must end at a critical
// configuration (Claim 5.2.2's conclusion).
func TestAdversaryHitsCriticalOnWaitFreeProtocol(t *testing.T) {
	t.Parallel()
	prot := programs.ConsensusFromPACM(3, 2, 2)
	sys, err := prot.System([]value.Value{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.Check(sys, task.Consensus{N: 2}, explore.Options{Valency: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solved() {
		t.Fatalf("protocol refuted: %v", rep.Violations[0])
	}
	adv, err := rep.Adversary()
	if err != nil {
		t.Fatal(err)
	}
	if adv.KeepsBivalentForever() {
		t.Fatal("adversary cycled on a wait-free-correct protocol — impossible")
	}
	if adv.CriticalID < 0 {
		t.Fatal("no critical configuration reached")
	}
}

// TestAdversaryRequiresValency pins the error contract.
func TestAdversaryRequiresValency(t *testing.T) {
	t.Parallel()
	prot := programs.Algorithm2(2, 1)
	sys, err := prot.System([]value.Value{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.Check(sys, task.DAC{N: 2, P: 0}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Adversary(); !errors.Is(err, explore.ErrNoValency) {
		t.Fatalf("err = %v, want ErrNoValency", err)
	}
}

// TestAdversaryRejectsUnivalentStart: with unanimous inputs the initial
// configuration is univalent and the adversary has nothing to preserve.
func TestAdversaryRejectsUnivalentStart(t *testing.T) {
	t.Parallel()
	prot := programs.Algorithm2(2, 1)
	sys, err := prot.System([]value.Value{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.Check(sys, task.DAC{N: 2, P: 0}, explore.Options{Valency: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Adversary(); !errors.Is(err, explore.ErrNoValency) {
		t.Fatalf("err = %v, want ErrNoValency", err)
	}
}

// adversarySystems are the systems the adversary tests below run on:
// protocols that cycle, that reach a critical configuration, and one
// whose bivalent region has neither.
func adversarySystems(t *testing.T) []struct {
	name string
	sys  *explore.System
	tsk  task.Task
} {
	t.Helper()
	type system = struct {
		name string
		sys  *explore.System
		tsk  task.Task
	}
	var out []system
	add := func(name string, prot programs.Protocol, tsk task.Task, in ...value.Value) {
		sys, err := prot.System(in)
		if err != nil {
			t.Fatal(name, err)
		}
		out = append(out, system{name, sys, tsk})
	}
	add("alg2-n3", programs.Algorithm2(3, 1), task.DAC{N: 3, P: 0}, 1, 0, 0)
	add("alg2-n3-p2", programs.Algorithm2(3, 2), task.DAC{N: 3, P: 1}, 0, 1, 0)
	add("dac-attempt-n4", programs.DACFromConsensusAndTwoSA(3, 1), task.DAC{N: 4, P: 0}, 1, 0, 0, 0)
	add("pacm-consensus-2", programs.ConsensusFromPACM(3, 2, 2), task.Consensus{N: 2}, 0, 1)
	add("pacm-consensus-3", programs.ConsensusFromPACM(4, 3, 3), task.Consensus{N: 3}, 0, 1, 1)
	add("queue-consensus", programs.ConsensusFromQueue(), task.Consensus{N: 2}, 0, 1)
	add("tas-consensus", programs.ConsensusFromTAS(), task.Consensus{N: 2}, 1, 0)
	add("sticky-consensus-3", programs.ConsensusFromSticky(3), task.Consensus{N: 3}, 0, 1, 1)
	add("naive-2sa-3", programs.NaiveTwoSAConsensus(3), task.Consensus{N: 3}, 0, 1, 1)
	return out
}

// TestAdversaryMatchesValency: on every adversary system, the walk's
// region is the bivalent configurations in id order along BFS tree
// paths (the premise the adversary rests on), a CriticalID satisfies
// valency's critical predicate and is one of ValencyReport.Critical
// with the same schedule, and a cycle replays as an all-bivalent loop.
func TestAdversaryMatchesValency(t *testing.T) {
	t.Parallel()
	var cycles, criticals, neither int
	for _, s := range adversarySystems(t) {
		rep, err := explore.Check(s.sys, s.tsk, explore.Options{Workers: 1, Valency: true})
		if err != nil {
			t.Fatal(s.name, err)
		}
		if !rep.Valency.Initial.Bivalent() {
			t.Fatalf("%s: initial configuration is %s", s.name, rep.Valency.Initial)
		}
		if err := explore.RegionMatchesIDOrder(rep); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
		adv, err := rep.Adversary()
		switch {
		case err != nil:
			if !errors.Is(err, explore.ErrNoValency) || rep.Valency.CriticalCount != 0 {
				t.Errorf("%s: %v with %d critical configurations", s.name, err, rep.Valency.CriticalCount)
			}
			neither++
		case adv.KeepsBivalentForever():
			if adv.CriticalID != -1 {
				t.Errorf("%s: cycle and critical id %d", s.name, adv.CriticalID)
			}
			cycles++
		default:
			if !explore.IsCritical(rep, adv.CriticalID) {
				t.Errorf("%s: critical id %d fails valency's predicate", s.name, adv.CriticalID)
			}
			found := false
			for _, cc := range rep.Valency.Critical {
				if cc.ID == adv.CriticalID {
					found = true
					if !reflect.DeepEqual(cc.Schedule, adv.Schedule) {
						t.Errorf("%s: schedule %v, valency's %v", s.name, adv.Schedule, cc.Schedule)
					}
				}
			}
			if !found {
				t.Errorf("%s: critical id %d not among ValencyReport.Critical", s.name, adv.CriticalID)
			}
			criticals++
		}
	}
	if cycles == 0 || criticals == 0 || neither == 0 {
		t.Fatalf("%d cycles, %d critical, %d neither: the suite must show every outcome", cycles, criticals, neither)
	}
}

// TestAdversaryDeterministic: the adversary's answer depends on the
// graph alone. Naive 2-SA consensus among three processes has a
// bivalent region with no cycle and no critical configuration (every
// bivalent configuration the walk can stop at is quiescent, having
// decided both values); 50 calls return the same typed error.
func TestAdversaryDeterministic(t *testing.T) {
	t.Parallel()
	sys, err := programs.NaiveTwoSAConsensus(3).System([]value.Value{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := explore.Check(sys, task.Consensus{N: 3}, explore.Options{Valency: true})
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		adv, err := rep.Adversary()
		return fmt.Sprintf("%+v %v", adv, err)
	}
	first := render()
	for k := 1; k < 50; k++ {
		if got := render(); got != first {
			t.Fatalf("call %d: %s, first call: %s", k, got, first)
		}
	}
	if _, err := rep.Adversary(); !errors.Is(err, explore.ErrNoValency) || rep.Valency.CriticalCount != 0 {
		t.Fatalf("%v with %d critical configurations, want ErrNoValency with none", err, rep.Valency.CriticalCount)
	}
}
