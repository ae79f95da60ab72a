package explore

import (
	"bytes"
	"errors"
	"testing"

	"setagree/internal/machine"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// symProg is a minimal value-opaque program over one consensus object:
// propose the input, decide the response. Passes AnalyzeSymmetry.
func symProg(t *testing.T) *machine.Program {
	t.Helper()
	return machine.NewBuilder("sym-propose", 4).
		Invoke(2, 0, value.MethodPropose, machine.R(machine.RegInput), machine.Operand{}).
		Decide(machine.R(2)).
		MustBuild()
}

func symSystem(t *testing.T, inputs ...value.Value) *System {
	t.Helper()
	prog := symProg(t)
	sys := &System{
		Objects: []spec.Spec{consensusSpec(t)},
		Inputs:  inputs,
	}
	for range inputs {
		sys.Programs = append(sys.Programs, prog)
	}
	return sys
}

// consensusSpec pulls the consensus spec without importing the objects
// package into the engine tests twice; the indirection keeps the
// white-box tests decoupled from the zoo's constructors.
func consensusSpec(t *testing.T) spec.Spec {
	t.Helper()
	return testConsensus{}
}

// testConsensus is a tiny single-shot consensus spec whose state
// implements spec.Symmetric, local to the white-box tests.
type testConsensus struct{}

type testConsState struct{ val value.Value }

func (testConsensus) Name() string     { return "test-consensus" }
func (testConsensus) Init() spec.State { return testConsState{val: value.None} }
func (testConsensus) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st := s.(testConsState)
	if op.Method != value.MethodPropose {
		return nil, spec.BadOpError("test-consensus", op, "unsupported method")
	}
	if st.val == value.None {
		st.val = op.Arg
	}
	return []spec.Transition{{Next: st, Resp: st.val}}, nil
}

func (s testConsState) Key() string { return s.val.String() }
func (s testConsState) AppendKey(dst []byte) []byte {
	return append(dst, []byte(s.val.String())...)
}
func (s testConsState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	return append(dst, []byte(p.Val(s.val).String())...)
}

// TestBuildGroupOrders pins the admissible group orders: ids mode
// groups processes by (program, input); values mode additionally
// matches inputs up to a bijection.
func TestBuildGroupOrders(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		inputs []value.Value
		mode   Symmetry
		order  int
	}{
		{"ids-three-equal", []value.Value{7, 7, 7}, SymmetryIDs, 6},
		{"ids-split", []value.Value{7, 7, 8}, SymmetryIDs, 2},
		{"ids-distinct", []value.Value{7, 8, 9}, SymmetryIDs, 1},
		{"values-distinct", []value.Value{7, 8, 9}, SymmetryValues, 6},
		{"values-multiset", []value.Value{7, 7, 8}, SymmetryValues, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := symSystem(t, tc.inputs...)
			grp, err := buildGroup(sys, nil, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(grp.perms) != tc.order {
				t.Fatalf("group order %d, want %d", len(grp.perms), tc.order)
			}
			if !grp.perms[0].Identity() {
				t.Fatal("perms[0] is not the identity")
			}
			for a := range grp.perms {
				if grp.comp[a][grp.inv[a]] != 0 || grp.comp[grp.inv[a]][a] != 0 {
					t.Fatalf("inv[%d] = %d is not a two-sided inverse", a, grp.inv[a])
				}
			}
		})
	}
}

// TestBuildGroupFixesDACDistinguished: the DAC distinguished process
// must be a fixed point of every admissible permutation, and 0/1 of
// every value map.
func TestBuildGroupFixesDACDistinguished(t *testing.T) {
	t.Parallel()
	sys := symSystem(t, 0, 0, 0)
	grp, err := buildGroup(sys, task.DAC{N: 3, P: 1}, SymmetryIDs)
	if err != nil {
		t.Fatal(err)
	}
	if len(grp.perms) != 2 {
		t.Fatalf("group order %d, want 2 (procs 0 and 2 exchangeable)", len(grp.perms))
	}
	for k, p := range grp.perms {
		if p.ProcIdx(1) != 1 {
			t.Fatalf("perm %d moves the distinguished process: %v", k, p.Proc)
		}
	}
}

// TestBuildGroupOrderCap: past maxGroupOrder the group is rejected with
// ErrSymmetryUnsupported instead of materializing a huge table.
func TestBuildGroupOrderCap(t *testing.T) {
	t.Parallel()
	inputs := make([]value.Value, 9)
	sys := symSystem(t, inputs...)
	_, err := buildGroup(sys, nil, SymmetryIDs)
	if !errors.Is(err, ErrSymmetryUnsupported) {
		t.Fatalf("9 identical processes (9! orbits) accepted: %v", err)
	}
}

// applySchedule walks a schedule through the successor relation,
// checking each step's (proc, branch, op, resp) labels match, and
// returns the reached configuration.
func applySchedule(t *testing.T, sys *System, from *Config, sched []Step) *Config {
	t.Helper()
	c := from
	for k, s := range sched {
		nexts, steps, err := successors(sys, c, s.Proc)
		if err != nil {
			t.Fatalf("step %d (%v): %v", k, s, err)
		}
		if s.Branch < 0 || s.Branch >= len(nexts) {
			t.Fatalf("step %d (%v): branch out of range (%d offered)", k, s, len(nexts))
		}
		if steps[s.Branch] != s {
			t.Fatalf("step %d: schedule says %v, graph offers %v", k, s, steps[s.Branch])
		}
		c = nexts[s.Branch]
	}
	return c
}

// TestSymmetryEquivariance is the orbit property test: for every
// admissible permutation p and schedule S, replaying the permuted
// schedule permuteStep(S, p) reaches exactly the configuration whose
// concrete key is AppendKeyUnder(C, p) of the original endpoint — the
// encoder renders precisely the state the permuted execution builds.
// Along the way it cross-checks that the pruned canonical() agrees
// with a naive minimum over the full group and that the canonical key
// is orbit-invariant.
func TestSymmetryEquivariance(t *testing.T) {
	t.Parallel()
	for _, mode := range []Symmetry{SymmetryIDs, SymmetryValues} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			inputs := []value.Value{5, 5, 9}
			if mode == SymmetryValues {
				inputs = []value.Value{5, 7, 9}
			}
			sys := symSystem(t, inputs...)
			grp, err := buildGroup(sys, nil, mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(grp.perms) < 2 {
				t.Fatalf("trivial group (order %d) makes this test vacuous", len(grp.perms))
			}
			// Collect every reachable configuration with its discovery
			// schedule via an unreduced exploration.
			rep, err := Check(sys, nil, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			g := rep.g
			root := g.configs[0]
			sc, sc2 := &keyScratch{}, &keyScratch{}
			var naive, under []byte
			for id := range g.configs {
				c := g.configAt(id)
				sched := g.pathTo(id)
				aliased, gi, orbit := grp.canonical(sc, c)
				// canonical's result aliases its scratch; keep a stable copy.
				key := append([]byte(nil), aliased...)
				// Pruned minimum == naive minimum over the full group.
				naive = c.AppendKey(naive[:0])
				for k := 1; k < len(grp.perms); k++ {
					under = c.AppendKeyUnder(under[:0], grp.perms[k])
					if bytes.Compare(under, naive) < 0 {
						naive = append(naive[:0], under...)
					}
				}
				if !bytes.Equal(key, naive) {
					t.Fatalf("config %d: canonical() != naive group minimum", id)
				}
				if orbit < 1 || len(grp.perms)%orbit != 0 {
					t.Fatalf("config %d: orbit size %d does not divide group order %d",
						id, orbit, len(grp.perms))
				}
				under = c.AppendKeyUnder(under[:0], grp.perms[gi])
				if !bytes.Equal(under, key) {
					t.Fatalf("config %d: reported minimizer %d does not realize the canonical key", id, gi)
				}
				for k := 1; k < len(grp.perms); k++ {
					p := grp.perms[k]
					// Equivariance: the permuted schedule is executable and
					// lands on the configuration the encoder claims.
					perm := make([]Step, len(sched))
					for j, s := range sched {
						perm[j] = permuteStep(s, p)
					}
					d := applySchedule(t, sys, root, perm)
					under = c.AppendKeyUnder(under[:0], p)
					got := d.AppendKey(nil)
					if !bytes.Equal(got, under) {
						t.Fatalf("config %d, perm %d: permuted execution reaches a different state than AppendKeyUnder renders", id, k)
					}
					// Orbit invariance: the permuted image canonicalizes to
					// the same key.
					dkey, _, dorbit := grp.canonical(sc2, d)
					if !bytes.Equal(dkey, key) {
						t.Fatalf("config %d, perm %d: canonical key not orbit-invariant", id, k)
					}
					if dorbit != orbit {
						t.Fatalf("config %d, perm %d: orbit size %d != %d", id, k, dorbit, orbit)
					}
				}
			}
		})
	}
}

// TestPermuteMask: bits move with the permutation, high bits survive.
func TestPermuteMask(t *testing.T) {
	t.Parallel()
	p := spec.MakePerm([]int{1, 2, 0}, nil)
	if got := permuteMask(0b101, p); got != 0b011 {
		t.Fatalf("permuteMask(0b101) = %b, want 011", got)
	}
	if got := permuteMask(1<<63|1, p); got != 1<<63|2 {
		t.Fatalf("high bit not preserved: %b", got)
	}
	if got := permuteMask(0b111, spec.Perm{}); got != 0b111 {
		t.Fatalf("identity mask changed: %b", got)
	}
}
