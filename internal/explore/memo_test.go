package explore_test

import (
	"errors"
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

// memoSystems are the step memo's test systems: Algorithm 2 at n=3 and
// n=4, this package's liveness systems (solo spinners, mixed livelocks,
// a halter), Algorithm 2 on the PAC face of a (3,2)-PAC, and consensus
// and 3-set agreement attempts on set-agreement objects, whose steps
// offer several branches.
func memoSystems(t *testing.T) map[string]*explore.System {
	t.Helper()
	mk := func(prot programs.Protocol, in ...value.Value) *explore.System {
		sys, err := prot.System(in)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a2 := algorithm2System(t)
	halter := machine.NewBuilder("halter", 4).
		Invoke(2, 0, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Halt().
		MustBuild()
	pDecides := machine.NewBuilder("p-decides", 4).
		Invoke(2, 0, value.MethodWrite, machine.C(7), machine.Operand{}).
		Decide(machine.R(machine.RegInput)).
		MustBuild()
	return map[string]*explore.System{
		"alg2-n3":   mk(programs.Algorithm2(3, 1), 1, 0, 1),
		"alg2-n4":   mk(programs.Algorithm2(4, 2), 1, 0, 0, 1),
		"alg2-n2":   a2,
		"pacm-3-2":  mk(programs.Algorithm2ViaPACM(3, 2, 1), 1, 0, 0),
		"naive-2sa": mk(programs.NaiveTwoSAConsensus(3), 0, 1, 2),
		"kset-4-3":  mk(programs.KSetFromSA(4, 3, 4), 0, 1, 2, 3),
		"solo-spinner": {
			Programs: []*machine.Program{pDecides, spinOnRegister(1, 1)},
			Objects:  []spec.Spec{objects.NewRegister(), objects.NewRegister()},
			Inputs:   []value.Value{0, 0},
		},
		"p-spins": {
			Programs: []*machine.Program{spinOnRegister(0, 2), decideOwn(0)},
			Objects:  []spec.Spec{objects.NewRegister()},
			Inputs:   []value.Value{1, 1},
		},
		"mixed-livelock": {
			Programs: []*machine.Program{a2.Programs[0], a2.Programs[1], a2.Programs[1]},
			Objects:  []spec.Spec{core.NewPAC(3)},
			Inputs:   []value.Value{1, 0, 0},
		},
		"halter": {
			Programs: []*machine.Program{decideOwn(0), halter},
			Objects:  []spec.Spec{objects.NewRegister()},
			Inputs:   []value.Value{0, 0},
		},
	}
}

// TestMemoMatchesReferenceStep: on every reachable configuration of the
// memo systems, at Workers 1 and 4, with symmetry off and under ids and
// values where the system admits them, expansion served from the step
// memo gives the same successors, in the same order, as the step built
// from poised, step, after and AppendKey, or canonicalized by the
// reference canonical, with the same group element and orbit size, on
// the memos the Check warmed, on one of them reset and on a fresh one. After the Check and again
// after the expansions, every memo state still encodes to its cached
// key and every resident configuration to the key the store copied when
// it was interned: no step mutated a state the memo shares. Each system
// is also checked under a state limit that stops the search with its
// last levels resident, so configurations carrying handles are
// expanded on the memos that built them, on others, and after the reset
// that makes their handles stale; their handles must re-encode to their
// keys.
func TestMemoMatchesReferenceStep(t *testing.T) {
	t.Parallel()
	branched, handled := 0, 0
	reduced := map[explore.Symmetry]int{}
	for sname, sys := range memoSystems(t) {
		for _, mode := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs, explore.SymmetryValues} {
			name := sname + "/" + mode.String()
			full := 0
			for _, limited := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					opts := explore.Options{Workers: workers, Symmetry: mode}
					if limited {
						opts.MaxStates = full / 2
					}
					ck := new(explore.Checker)
					rep, err := ck.Check(sys, nil, opts)
					if errors.Is(err, explore.ErrNotSymmetric) {
						continue
					}
					if limited != errors.Is(err, explore.ErrStateLimit) || (err != nil && !limited) {
						t.Fatalf("%s/workers=%d/limit=%d: %v", name, workers, opts.MaxStates, err)
					}
					if rep.SymmetryGroupOrder() > 1 {
						reduced[mode]++
					}
					full = max(full, rep.States)
					held, h, err := explore.MemoIntact(ck)
					if err != nil || held == 0 {
						t.Fatalf("%s/workers=%d/limit=%d: after the Check: %d memo states, %v", name, workers, opts.MaxStates, held, err)
					}
					handled += h
					n, b, err := explore.MemoExpansions(ck)
					branched += b
					if err != nil {
						t.Fatalf("%s/workers=%d/limit=%d: %v", name, workers, opts.MaxStates, err)
					}
					if n <= rep.States {
						t.Fatalf("%s/workers=%d/limit=%d: %d expansions compared over %d states", name, workers, opts.MaxStates, n, rep.States)
					}
					if _, _, err := explore.MemoIntact(ck); err != nil {
						t.Fatalf("%s/workers=%d/limit=%d: after the expansions: %v", name, workers, opts.MaxStates, err)
					}
				}
			}
		}
	}
	if branched == 0 {
		t.Fatal("no step compared takes an object's second branch or later")
	}
	if handled == 0 {
		t.Fatal("no resident configuration carried live handles")
	}
	if reduced[explore.SymmetryIDs] == 0 || reduced[explore.SymmetryValues] == 0 {
		t.Fatalf("checks under a nontrivial group: %d at ids, %d at values", reduced[explore.SymmetryIDs], reduced[explore.SymmetryValues])
	}
}

// TestWarmMemoExpandAllocs: with a warmed step memo, expanding a
// configuration whose successors are all interned allocates nothing.
// It does not run in parallel: testing.AllocsPerRun counts every
// goroutine's allocations.
func TestWarmMemoExpandAllocs(t *testing.T) {
	warmExpandAllocs(t, explore.SymmetryOff)
}

// TestWarmMemoExpandAllocsIDs is TestWarmMemoExpandAllocs under ids
// symmetry, where every successor is canonicalized from its entries.
func TestWarmMemoExpandAllocsIDs(t *testing.T) {
	warmExpandAllocs(t, explore.SymmetryIDs)
}

func warmExpandAllocs(t *testing.T, mode explore.Symmetry) {
	ck := new(explore.Checker)
	sys, err := programs.Algorithm2(4, 1).System([]value.Value{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ck.Check(sys, task.DAC{N: 4, P: 0}, explore.Options{Workers: 1, Symmetry: mode}); err != nil {
		t.Fatal(err)
	}
	if allocs := explore.WarmExpandAllocs(ck); allocs != 0 {
		t.Fatalf("expanding every configuration on a warm memo allocates %v times", allocs)
	}
}
