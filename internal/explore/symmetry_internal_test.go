package explore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
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

// checkAgainstReference checks grp's element naming against the
// materialized reference group: for every element k, rank(unrank(k))
// is k and unrank(k) is the reference's element k, and for every pair
// the composition and the a⁻¹∘b relation agree with brute-force
// products looked up in the reference list.
func checkAgainstReference(t *testing.T, grp *group, perms []spec.Perm) {
	t.Helper()
	if grp.order != len(perms) {
		t.Fatalf("group order %d, reference has %d elements", grp.order, len(perms))
	}
	if !perms[0].Identity() {
		t.Fatal("reference element 0 is not the identity")
	}
	index := make(map[string]int, len(perms))
	procKey := func(proc []int) string { return fmt.Sprint(proc) }
	for k, p := range perms {
		index[procKey(p.Proc)] = k
		got := grp.element(k)
		if !slices.Equal(got.Proc, p.Proc) || !slices.Equal(got.Inv, p.Inv) || !maps.Equal(got.Vals, p.Vals) {
			t.Fatalf("unrank(%d) = %v %v, reference has %v %v", k, got.Proc, got.Vals, p.Proc, p.Vals)
		}
		if r := grp.rank(got.Proc); r != k {
			t.Fatalf("rank(unrank(%d)) = %d", k, r)
		}
	}
	prod := make([]int, grp.n)
	for a, pa := range perms {
		for b, pb := range perms {
			for i := range prod {
				prod[i] = pa.Proc[pb.Proc[i]]
			}
			want, ok := index[procKey(prod)]
			if !ok {
				t.Fatalf("reference group not closed: %v ∘ %v", pa.Proc, pb.Proc)
			}
			if got := grp.compose(pa, pb); got != want {
				t.Fatalf("compose(%d, %d) = %d, want %d", a, b, got, want)
			}
			for i := range prod {
				prod[i] = pa.Inv[pb.Proc[i]]
			}
			if got, want := grp.relate(a, b), index[procKey(prod)]; got != want {
				t.Fatalf("relate(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
		if inv := grp.relate(a, 0); !slices.Equal(perms[inv].Proc, pa.Inv) {
			t.Fatalf("inverse of %d is %v, want %v", a, perms[inv].Proc, pa.Inv)
		}
	}
}

// TestBuildGroupOrders pins the admissible group orders: ids mode
// groups processes by (program, input); values mode additionally
// matches inputs up to a bijection. Every group's element naming is
// checked against the materialized reference.
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
		// Interleaved classes, and two value maps whose cosets interleave
		// in the lexicographic order.
		{"ids-interleaved", []value.Value{7, 8, 7, 8, 7}, SymmetryIDs, 12},
		{"values-interleaved", []value.Value{8, 7, 9, 7, 8}, SymmetryValues, 8},
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
			if grp.order != tc.order {
				t.Fatalf("group order %d, want %d", grp.order, tc.order)
			}
			perms, err := referenceGroup(sys, nil, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, grp, perms)
		})
	}
}

// TestRelateCacheMatchesUnrank: relate, which composes maps from the
// group's element cache, equals the composition of two freshly
// unranked elements on random index pairs, and every cached element's
// maps and coset equal unrankInto's. The first two groups outnumber
// the cache's entries, so entries are evicted and refilled; the second
// has two cosets and the third a coset per element.
func TestRelateCacheMatchesUnrank(t *testing.T) {
	t.Parallel()
	relateUnranked := func(grp *group, a, b int) int {
		pa, pb, proc := make([]int, grp.n), make([]int, grp.n), make([]int, grp.n)
		grp.unrankInto(a, pa)
		grp.unrankInto(b, pb)
		for i, j := range pb {
			proc[i] = slices.Index(pa, j) // a⁻¹(b(i))
		}
		return grp.rank(proc)
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		mode          Symmetry
		inputs        []value.Value
		order, cosets int
	}{
		{SymmetryIDs, []value.Value{7, 7, 7, 7, 7, 7, 7, 7}, 40320, 1},
		{SymmetryValues, []value.Value{7, 7, 7, 7, 8, 8, 8, 8}, 1152, 2},
		{SymmetryValues, []value.Value{3, 4, 5, 6, 7}, 120, 120},
	} {
		grp, err := buildGroup(symSystem(t, tc.inputs...), nil, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if grp.order != tc.order || len(grp.vmaps) != tc.cosets {
			t.Fatalf("%v %v: group order %d in %d cosets, want %d in %d", tc.mode, tc.inputs, grp.order, len(grp.vmaps), tc.order, tc.cosets)
		}
		proc := make([]int, grp.n)
		for range 20000 {
			a, b := rng.Intn(grp.order), rng.Intn(grp.order)
			if got, want := grp.relate(a, b), relateUnranked(grp, a, b); got != want {
				t.Fatalf("%v %v: relate(%d, %d) = %d, want %d", tc.mode, tc.inputs, a, b, got, want)
			}
			k := rng.Intn(grp.order)
			fwd, inv, c := grp.elem(k)
			coset := grp.unrankInto(k, proc)
			for i, j := range proc {
				if int(fwd[i]) != j || int(inv[j]) != i {
					t.Fatalf("%v %v: element %d cached as %v/%v, unranks to %v", tc.mode, tc.inputs, k, fwd, inv, proc)
				}
			}
			if c != coset {
				t.Fatalf("%v %v: element %d cached in coset %d, unranks in %d", tc.mode, tc.inputs, k, c, coset)
			}
		}
	}
}

// TestBuildGroupFixesDACDistinguished: the DAC distinguished process
// must be a fixed point of every admissible permutation, and 0/1 of
// every value map.
func TestBuildGroupFixesDACDistinguished(t *testing.T) {
	t.Parallel()
	sys := symSystem(t, 0, 0, 0)
	tsk := task.DAC{N: 3, P: 1}
	grp, err := buildGroup(sys, tsk, SymmetryIDs)
	if err != nil {
		t.Fatal(err)
	}
	if grp.order != 2 {
		t.Fatalf("group order %d, want 2 (procs 0 and 2 exchangeable)", grp.order)
	}
	perms, err := referenceGroup(sys, tsk, SymmetryIDs)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, grp, perms)
	for k := range grp.order {
		if p := grp.element(k); p.ProcIdx(1) != 1 {
			t.Fatalf("element %d moves the distinguished process: %v", k, p.Proc)
		}
	}
}

// TestBuildGroupOrderCap: the group is never materialized, so its
// order is bounded only by an int. Nine identical processes (9!, past
// the old 8! cap) are accepted; 22 (22! > 2⁶³) are rejected with
// ErrSymmetryUnsupported rather than a wrapped order.
func TestBuildGroupOrderCap(t *testing.T) {
	t.Parallel()
	grp, err := buildGroup(symSystem(t, make([]value.Value, 9)...), nil, SymmetryIDs)
	if err != nil {
		t.Fatalf("9 identical processes rejected: %v", err)
	}
	if grp.order != 362880 {
		t.Fatalf("9 identical processes: order %d, want 362880", grp.order)
	}
	grp, err = buildGroup(symSystem(t, make([]value.Value, 22)...), nil, SymmetryIDs)
	if !errors.Is(err, ErrSymmetryUnsupported) {
		order := 0
		if grp != nil {
			order = grp.order
		}
		t.Fatalf("22 identical processes (22! orbits) accepted with order %d: %v", order, err)
	}
}

// applySchedule replays a schedule step by step, checking each step's
// (proc, branch, op, resp) labels match what the configuration offers,
// and returns the reached configuration.
func applySchedule(t *testing.T, sys *System, from *Config, sched []Step) *Config {
	t.Helper()
	c := from
	for k, s := range sched {
		next, ok, err := sys.replay(c, s)
		if err != nil {
			t.Fatalf("step %d (%v): %v", k, s, err)
		}
		if !ok {
			t.Fatalf("step %d: schedule says %v, the configuration does not offer it", k, s)
		}
		c = next
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
			perms, err := referenceGroup(sys, nil, mode)
			if err != nil {
				t.Fatal(err)
			}
			if len(perms) < 2 {
				t.Fatalf("trivial group (order %d) makes this test vacuous", len(perms))
			}
			// Collect every reachable configuration with its discovery
			// schedule via an unreduced exploration.
			rep, err := Check(sys, nil, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			g := rep.g
			root := g.configs[0]
			z, z2 := newCanonizer(grp, sys), newCanonizer(grp, sys)
			var naive, under []byte
			for id := range g.configs {
				c := g.configAt(id)
				sched := g.pathTo(id)
				aliased, gi, orbit := z.canonical(c)
				// canonical's result aliases its scratch; keep a stable copy.
				key := append([]byte(nil), aliased...)
				// Pruned minimum == naive minimum over the full group.
				naive = c.AppendKey(naive[:0])
				for k := 1; k < len(perms); k++ {
					under = c.AppendKeyUnder(under[:0], perms[k])
					if bytes.Compare(under, naive) < 0 {
						naive = append(naive[:0], under...)
					}
				}
				if !bytes.Equal(key, naive) {
					t.Fatalf("config %d: canonical() != naive group minimum", id)
				}
				if orbit < 1 || len(perms)%orbit != 0 {
					t.Fatalf("config %d: orbit size %d does not divide group order %d",
						id, orbit, len(perms))
				}
				under = c.AppendKeyUnder(under[:0], perms[gi])
				if !bytes.Equal(under, key) {
					t.Fatalf("config %d: reported minimizer %d does not realize the canonical key", id, gi)
				}
				for k := 1; k < len(perms); k++ {
					p := perms[k]
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
					dkey, _, dorbit := z2.canonical(d)
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

// pairState is a synthetic object state holding unordered pairs of
// port labels. Its stabilizer contains double transpositions that swap
// whole pairs, so distinct placements of interchangeable processes can
// tie on the whole key.
type pairState struct{ pairs [][2]int }

func (s pairState) Key() string                 { return fmt.Sprintf("%x", s.AppendKey(nil)) }
func (s pairState) AppendKey(dst []byte) []byte { return s.AppendKeyUnder(dst, spec.Perm{}) }
func (s pairState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	img := make([][2]int, len(s.pairs))
	for k, pr := range s.pairs {
		a, b := p.Port(pr[0]), p.Port(pr[1])
		img[k] = [2]int{min(a, b), max(a, b)}
	}
	slices.SortFunc(img, func(x, y [2]int) int { return slices.Compare(x[:], y[:]) })
	dst = append(dst, byte(len(img)))
	for _, pr := range img {
		dst = append(dst, byte(pr[0]), byte(pr[1]))
	}
	return dst
}

// TestSymmetryCanonicalTieBreak checks canonical against the reference
// scan on configurations whose object state ties distinct placements:
// six interchangeable processes, random stepped masks, and random pair
// sets as the object. The reported element must be the first
// minimizer in the reference order, not merely a minimizer.
func TestSymmetryCanonicalTieBreak(t *testing.T) {
	t.Parallel()
	sys := symSystem(t, 0, 0, 0, 0, 0, 0)
	grp, err := buildGroup(sys, nil, SymmetryIDs)
	if err != nil {
		t.Fatal(err)
	}
	perms, err := referenceGroup(sys, nil, SymmetryIDs)
	if err != nil {
		t.Fatal(err)
	}
	root, err := initialConfig(sys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	z := newCanonizer(grp, sys)
	for trial := 0; trial < 500; trial++ {
		var st pairState
		for k := rng.Intn(4); k > 0; k-- {
			a, b := 1+rng.Intn(6), 1+rng.Intn(6)
			if a != b {
				st.pairs = append(st.pairs, [2]int{a, b})
			}
		}
		c := &Config{Procs: root.Procs, Objs: []spec.State{st}, SteppedMask: uint64(rng.Intn(64))}
		key, gi, orbit := z.canonical(c)
		wkey, wgi, worbit := scanCanonical(perms, c)
		if !bytes.Equal(key, wkey) || gi != wgi || orbit != worbit {
			t.Fatalf("pairs %v, mask %06b: canonical gives gi %d, orbit %d, key %x; scan gives gi %d, orbit %d, key %x",
				st.pairs, c.SteppedMask, gi, orbit, key, wgi, worbit, wkey)
		}
	}
}
