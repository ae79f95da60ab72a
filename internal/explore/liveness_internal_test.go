package explore

import (
	"math/rand"
	"testing"

	"setagree/internal/machine"
)

// TestTarjanRandomDigraphs checks the shared Tarjan core and the
// solo graph (soloGraph) against a naive transitive closure on seeded
// random digraphs of up to 30 nodes, with self loops and edges labelled
// by one of three processes:
//   - two nodes share a component iff each reaches the other;
//   - a component is cyclic iff its nodes reach themselves by a
//     nonempty path;
//   - every edge between components goes to a lower-numbered one;
//   - an intra-SCC i-edge from→to has endpoints in one component of
//     the solo graph iff an i-only path leads from to back to from.
func TestTarjanRandomDigraphs(t *testing.T) {
	t.Parallel()
	const procs = 3
	rng := rand.New(rand.NewSource(1))
	var full tarjan[csrCursor]
	var solo, intra int
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(30)
		m := rng.Intn(3*n + 1)
		// Edges grouped by source, in source order, as the walk visits
		// them: out[v] lists v's (target, process) pairs.
		out := make([][][2]int, n)
		for e := 0; e < m; e++ {
			v := rng.Intn(n)
			out[v] = append(out[v], [2]int{rng.Intn(n), rng.Intn(procs)})
		}
		var g csrEdges
		for _, es := range out {
			g.off = append(g.off, int32(len(g.adj)))
			for _, e := range es {
				g.adj = append(g.adj, int32(e[0]))
			}
		}
		g.off = append(g.off, int32(len(g.adj)))
		comp, cyclic := runTarjan(&full, n, g)

		// reach[p][u][v]: a nonempty path u→v using edges of process p,
		// or of any process for p == procs.
		reach := make([][][]bool, procs+1)
		for p := range reach {
			reach[p] = make([][]bool, n)
			for u := range reach[p] {
				reach[p][u] = make([]bool, n)
			}
			for u, es := range out {
				for _, e := range es {
					if p == procs || e[1] == p {
						reach[p][u][e[0]] = true
					}
				}
			}
			for k := 0; k < n; k++ {
				for u := 0; u < n; u++ {
					if !reach[p][u][k] {
						continue
					}
					for v := 0; v < n; v++ {
						reach[p][u][v] = reach[p][u][v] || reach[p][k][v]
					}
				}
			}
		}
		all := reach[procs]
		for u := 0; u < n; u++ {
			if cyclic[comp[u]] != all[u][u] {
				t.Fatalf("trial %d: node %d cyclic %v, closure says %v", trial, u, cyclic[comp[u]], all[u][u])
			}
			for v := 0; v < n; v++ {
				mutual := u == v || all[u][v] && all[v][u]
				if (comp[u] == comp[v]) != mutual {
					t.Fatalf("trial %d: nodes %d, %d share a component: %v, mutually reachable: %v", trial, u, v, comp[u] == comp[v], mutual)
				}
			}
			for _, e := range out[u] {
				if comp[e[0]] > comp[u] {
					t.Fatalf("trial %d: edge %d->%d goes from component %d up to %d", trial, u, e[0], comp[u], comp[e[0]])
				}
			}
		}

		// The same digraph as an explored graph, each edge a step of its
		// process, no process distinguished.
		sys := &System{Programs: make([]*machine.Program, procs)}
		configs, parents, adj := make([]*Config, n), make([]int, n), make([][]edge, n)
		for u, es := range out {
			configs[u], parents[u] = &Config{Procs: make([]machine.ProcState, procs)}, -1
			for _, e := range es {
				adj[u] = append(adj[u], edge{to: e[0], step: Step{Proc: e[1]}})
			}
		}
		sg := storedGraph(t, sys, configs, parents, adj)
		gcomp, gcyclic := sg.sccs()
		anySolo := sg.soloGraph(gcomp, gcyclic, -1)
		for u, es := range out {
			for _, e := range es {
				v, p := e[0], e[1]
				if comp[v] != comp[u] {
					continue
				}
				got := anySolo && sg.onSoloCycle(u, v, p, 0)
				want := u == v || reach[p][v][u]
				if got != want {
					t.Fatalf("trial %d: p%d edge %d->%d on a solo-graph cycle %v, i-only path back %v", trial, p, u, v, got, want)
				}
				intra++
				if want {
					solo++
				}
			}
		}
	}
	if solo == 0 || solo == intra {
		t.Fatalf("%d of %d intra-SCC edges lie on a solo cycle: the graphs must show both answers", solo, intra)
	}
	t.Logf("%d intra-SCC edges, %d on a solo cycle", intra, solo)
}
