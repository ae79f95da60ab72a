package explore

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"setagree/internal/machine"
	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/store"
	"setagree/internal/value"
)

// synthGraph builds a random reachable-looking graph whose
// configurations hold a single process in a terminal state, so valence
// comes entirely from the seeded outcomes and the edge structure (and
// describeCritical never needs a real program). Node 0 is the root;
// every other node gets a tree parent among its predecessors plus
// random extra edges, which freely create cycles and diamonds. The
// adjacency lists are returned alongside for reference checks.
func synthGraph(t *testing.T, rng *rand.Rand) (*graph, [][]edge) {
	n := 2 + rng.Intn(24)
	var configs []*Config
	var parents []int
	adj := make([][]edge, n)
	for i := 0; i < n; i++ {
		ps := machine.ProcState{Status: machine.StatusHalted, Decision: value.None}
		switch rng.Intn(10) {
		case 0, 1:
			ps = machine.ProcState{Status: machine.StatusDecided, Decision: 0}
		case 2, 3:
			ps = machine.ProcState{Status: machine.StatusDecided, Decision: 1}
		case 4:
			ps = machine.ProcState{Status: machine.StatusAborted, Decision: value.None}
		case 5:
			ps = machine.ProcState{Status: machine.StatusCrashed, Decision: value.None}
		}
		c := &Config{Procs: []machine.ProcState{ps}}
		parent := -1
		if i > 0 {
			parent = rng.Intn(i)
		}
		configs = append(configs, c)
		parents = append(parents, parent)
		if parent >= 0 {
			adj[parent] = append(adj[parent], edge{to: i})
		}
	}
	for m := rng.Intn(2 * n); m > 0; m-- {
		from, to := rng.Intn(n), rng.Intn(n)
		adj[from] = append(adj[from], edge{to: to})
	}
	return storedGraph(t, &System{Programs: []*machine.Program{nil}}, configs, parents, adj), adj
}

// storedGraph returns the graph over configs with BFS tree parents and
// adjacency lists adj, interning their keys and writing their edge
// records in id order into a heap-backed store, as an exploration's
// merge does. Equal configurations are interned again under new ids.
func storedGraph(t *testing.T, sys *System, configs []*Config, parents []int, adj [][]edge) *graph {
	t.Helper()
	s, err := store.Open(store.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &diskState{s: s}
	for id, c := range configs {
		rec := binary.AppendVarint(nil, int64(len(adj[id])))
		for _, e := range adj[id] {
			rec = appendEdge(rec, e.to, e.step, e.g)
		}
		if _, err := s.Intern(c.AppendKey(nil)); err != nil {
			t.Fatal(err)
		}
		edgeOff, err := s.Edges.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		d.edgeOff = append(d.edgeOff, edgeOff)
	}
	d.edgeDurable = s.Edges.Len()
	return &graph{sys: sys, configs: configs, parent: parents, canon: make([]int, len(configs)), disk: d}
}

// naiveValence is the obviously-correct reference: seed each
// configuration's mask from its immediate outcomes, then run the
// reachability fixpoint edge by edge until nothing changes.
func naiveValence(g *graph, adj [][]edge) []Valence {
	masks := make([]Valence, len(g.configs))
	for id, c := range g.configs {
		for _, ps := range c.Procs {
			switch ps.Status {
			case machine.StatusDecided:
				if ps.Decision == 0 {
					masks[id] |= CanDecide0
				} else {
					masks[id] |= CanDecide1
				}
			case machine.StatusAborted:
				masks[id] |= CanAbort
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for id := range g.configs {
			for _, e := range adj[id] {
				if m := masks[id] | masks[e.to]; m != masks[id] {
					masks[id] = m
					changed = true
				}
			}
		}
	}
	return masks
}

// TestValencyMatchesNaiveFixpoint: valency()'s single pass over the
// Tarjan condensation (reverse-topological component numbering) must
// agree with the naive per-edge fixpoint on every configuration of
// randomized graphs, cycles included — along with the census, the
// initial valence, and the critical-configuration count.
func TestValencyMatchesNaiveFixpoint(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, adj := synthGraph(t, rng)
		rep, err := g.valency()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := naiveValence(g, adj)
		census := [4]int{} // bivalent, 0-valent, 1-valent, null
		criticals := 0
		for id, v := range want {
			if g.valence[id] != v {
				t.Fatalf("seed %d: config %d labelled %s, fixpoint says %s",
					seed, id, g.valence[id], v)
			}
			switch {
			case v.Bivalent():
				census[0]++
			case v&CanDecide0 != 0:
				census[1]++
			case v&CanDecide1 != 0:
				census[2]++
			default:
				census[3]++
			}
			if v.Bivalent() && len(adj[id]) > 0 {
				critical := true
				for _, e := range adj[id] {
					if want[e.to].Bivalent() {
						critical = false
						break
					}
				}
				if critical {
					criticals++
				}
			}
		}
		if rep.Initial != want[0] {
			t.Fatalf("seed %d: initial valence %s, fixpoint says %s", seed, rep.Initial, want[0])
		}
		if rep.Bivalent != census[0] || rep.Univalent0 != census[1] ||
			rep.Univalent1 != census[2] || rep.Null != census[3] {
			t.Fatalf("seed %d: census %d/%d/%d/%d, fixpoint says %d/%d/%d/%d",
				seed, rep.Bivalent, rep.Univalent0, rep.Univalent1, rep.Null,
				census[0], census[1], census[2], census[3])
		}
		if rep.CriticalCount != criticals {
			t.Fatalf("seed %d: %d critical configurations, fixpoint says %d",
				seed, rep.CriticalCount, criticals)
		}
	}
}

// TestDescribeCriticalAllTerminated: a critical configuration whose
// processes have all terminated has no poised object; SameObject must
// be false (common stays -1) rather than indexing Objects[-1].
func TestDescribeCriticalAllTerminated(t *testing.T) {
	t.Parallel()
	g := storedGraph(t, &System{Programs: []*machine.Program{nil, nil}},
		[]*Config{{Procs: []machine.ProcState{
			{Status: machine.StatusHalted, Decision: value.None},
			{Status: machine.StatusDecided, Decision: 1},
		}}},
		[]int{-1}, [][]edge{nil})
	cc := g.describeCritical(0)
	if cc.SameObject {
		t.Fatal("all-terminated configuration reported SameObject")
	}
	if cc.ObjectName != "" {
		t.Fatalf("all-terminated configuration named object %q", cc.ObjectName)
	}
	for i, o := range cc.PoisedObj {
		if o != -1 {
			t.Fatalf("terminated process %d reported poised on object %d", i, o)
		}
	}
}

// TestBinaryKeyMatchesStringKey: on a real branching exploration the
// compact binary interning must distinguish exactly the configurations
// the human-readable Key() distinguishes — States equals the count of
// distinct keys under both encodings.
func TestBinaryKeyMatchesStringKey(t *testing.T) {
	t.Parallel()
	prog := machine.NewBuilder("key-xcheck", 4).
		Invoke(2, 0, value.MethodPropose, machine.R(machine.RegInput), machine.Operand{}).
		Invoke(3, 1, value.MethodWrite, machine.R(2), machine.Operand{}).
		Invoke(3, 1, value.MethodRead, machine.Operand{}, machine.Operand{}).
		Decide(machine.R(2)).
		MustBuild()
	sys := &System{
		Programs: []*machine.Program{prog, prog},
		Objects:  []spec.Spec{objects.NewTwoSA(), objects.NewRegister()},
		Inputs:   []value.Value{0, 1},
	}
	rep, err := Check(sys, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States < 10 {
		t.Fatalf("only %d states; exploration too small to exercise interning", rep.States)
	}
	stringKeys := make(map[string]bool, rep.States)
	binaryKeys := make(map[string]bool, rep.States)
	for id := range rep.g.configs {
		c := rep.g.configAt(id)
		stringKeys[c.Key()] = true
		binaryKeys[string(c.AppendKey(nil))] = true
	}
	if len(stringKeys) != rep.States {
		t.Fatalf("%d distinct string keys for %d states", len(stringKeys), rep.States)
	}
	if len(binaryKeys) != rep.States {
		t.Fatalf("%d distinct binary keys for %d states", len(binaryKeys), rep.States)
	}
}
