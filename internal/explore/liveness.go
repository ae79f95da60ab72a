package explore

import (
	"fmt"
	"math/bits"
	"slices"

	"setagree/internal/spec"
	"setagree/internal/task"
)

// checkLiveness verifies the task's termination obligations over the
// explored graph:
//
//   - wait-free tasks: no process takes infinitely many steps without
//     deciding, i.e. no reachable cycle contains a step of an undecided
//     process (every stepping process is undecided by construction);
//   - n-DAC: Termination (a) — no reachable cycle contains a step of the
//     distinguished process; Termination (b) — no reachable cycle
//     consists solely of steps of one non-distinguished process (a solo
//     livelock);
//   - all tasks: a process with a termination obligation must never stop
//     undecided (halt), since then even its solo runs fail to decide.
//
// The work is linear in the graph: one Tarjan walk, then one walk over
// the edges of the configurations in cyclic SCCs (every cycle lies in
// one), both decoding only each edge's target and process. n-DAC adds
// two walks over those edges and one Tarjan walk over the solo graph
// Termination (b) is decided on (see soloGraph). Each process's first
// violating edge in walk order is reported, exactly as a per-edge
// search would.
//
// With first set only the first violation is reported: a halted process
// skips the SCC passes, and the cycle walk stops at its first hit,
// which is the first that reportHits would report, since walk order is
// report order.
func (g *graph) checkLiveness(rep *Report, first bool) {
	live := g.tsk.Liveness()
	n := g.sys.Procs()
	sc := &g.scc

	// Halted-undecided processes. We read "takes infinitely many steps"
	// as "keeps executing": a correct algorithm never stops a process
	// that has not decided (or, for the DAC distinguished process,
	// aborted) — otherwise the trivial all-halt protocol would satisfy
	// the termination properties vacuously. Both task families here
	// (consensus/k-set agreement and n-DAC) oblige every process, so any
	// undecided halt is a violation. intern noted each process's first
	// halted configuration.
	hits := resize(sc.hits, n)
	sc.hits = hits
	for i := range hits {
		hits[i] = livenessHit{at: g.halted[i], kind: ViolationHaltUndecided}
	}
	reported := g.reportHits(rep, hits, nil, first)
	if first && reported != 0 {
		return
	}

	comp, cyclic := g.sccs()
	isDAC := !live.WaitFree && live.DACDistinguished >= 0
	solo := isDAC && g.soloGraph(comp, cyclic, live.DACDistinguished)

	// For resilience-bounded tasks we reason per SCC: the processes with
	// no step inside a cyclic SCC are "effectively crashed" in the
	// corresponding infinite executions; the cycle only violates
	// termination when that count is within the tolerated bound.
	// (Process statuses are constant across an SCC: decisions and aborts
	// are irrevocable, so a status change cannot lie on a cycle.)
	if !live.WaitFree && !isDAC {
		sc.steps = resize(sc.steps, len(cyclic))
		clear(sc.steps)
		var m metaRec
		for from := range g.configs {
			s := &sc.steps[comp[from]]
			if !cyclic[comp[from]] {
				continue
			}
			if s.live == 0 { // an SCC with an internal edge has a live process
				g.metaAt(from, &m)
				for j := 0; j < n; j++ {
					if m.live(j) {
						s.live |= 1 << uint(j)
					}
				}
			}
			for it := g.edgeIter(from); ; {
				to, i, ok := it.lean()
				if !ok {
					break
				}
				if comp[to] == comp[from] {
					s.stepping |= 1 << uint(i)
				}
			}
		}
	}

walk:
	for from := range g.configs {
		c := comp[from]
		if !cyclic[c] {
			continue
		}
		it := g.edgeIter(from)
		for k := 0; ; k++ {
			to, i, gi, ok := it.leanGroup()
			if !ok {
				break
			}
			if comp[to] != c || reported&(1<<uint(i)) != 0 || hits[i].at >= 0 {
				continue
			}
			kind := ViolationWaitFree
			switch {
			case live.WaitFree:
			case isDAC && i == live.DACDistinguished:
				kind = ViolationDACTerminationA
			case isDAC:
				if !solo || !g.onSoloCycle(from, to, i, gi) {
					continue
				}
				kind = ViolationDACTerminationB
			default:
				// Resilience bound: the poised processes that take no
				// step inside this SCC crash in the infinite execution
				// this cycle induces. Within the tolerance the run is one
				// the protocol must survive, so an undecided stepper is a
				// violation; beyond it, the run is excused.
				if s := sc.steps[c]; bits.OnesCount64(s.live&^s.stepping) > live.Tolerance {
					continue
				}
			}
			hits[i] = livenessHit{at: from, k: k, kind: kind}
			if first {
				break walk
			}
		}
	}
	g.reportHits(rep, hits, comp, first)
}

// soloGraph builds and labels the graph Termination (b) is decided on,
// and reports whether it has a cycle. Its nodes are pairs (v, o) of a
// configuration v in a cyclic SCC and an orbit o of v's stabilizer on
// the process slots, o holding a non-distinguished process with a step
// inside the SCC; without symmetry every orbit is one slot. A quotient
// edge u→v of such a process k, with group index g, becomes the edge
// (u, [k]) → (v, [g⁻¹(k)]): the concrete successor is g·R_v, so the
// process that stepped sits in slot g⁻¹(k) of the representative R_v.
//
// An edge lies on a concrete solo cycle of its process iff its two
// endpoints share a component. A cycle through (u, [k]), followed with
// the process's own edges, brings it back to u in a slot of k's orbit;
// composing the accumulated group element with the stabilizer element
// that moves that slot back to k gives an element G fixing k, and
// repeating the cycle ord(G) times closes it concretely. Conversely a
// concrete solo cycle returns to u by an element of u's stabilizer,
// which keeps k in its orbit, so it projects onto a cycle. A graph of
// slots instead of orbits misses exactly the cycles that bring the
// process back in another slot of its orbit. Without symmetry every
// orbit is one slot and every g the identity, so the graph splits into
// one subgraph per process.
//
// It reads each intra-SCC edge twice, first to number the nodes
// (sc.base and sc.mask), then to build the compressed sparse rows of
// their successors, an edge to a node without one dropped.
func (g *graph) soloGraph(comp []int, cyclic []bool, d int) bool {
	sc := &g.scc
	sc.base, sc.mask = resize(sc.base, len(g.configs)), resize(sc.mask, len(g.configs))
	nodes := int32(0)
	for v := range g.configs {
		if !cyclic[comp[v]] {
			continue
		}
		var m uint64
		for it := g.edgeIter(v); ; {
			to, i, ok := it.lean()
			if !ok {
				break
			}
			if i != d && comp[to] == comp[v] {
				m |= 1 << g.orbitOf(v, i)
			}
		}
		sc.base[v], sc.mask[v] = nodes, m
		nodes += int32(bits.OnesCount64(m))
	}
	sc.off, sc.adj = sc.off[:0], sc.adj[:0]
	for v := range g.configs {
		if !cyclic[comp[v]] {
			continue
		}
		row := sc.row[:0]
		for it := g.edgeIter(v); ; {
			to, i, gi, ok := it.leanGroup()
			if !ok {
				break
			}
			if i == d || comp[to] != comp[v] {
				continue
			}
			arc := soloArc{g.orbitOf(v, i), g.soloNode(to, i, gi)}
			x := len(row)
			row = append(row, arc)
			for ; x > 0 && row[x-1].orb > arc.orb; x-- { // stable, by orbit
				row[x] = row[x-1]
			}
			row[x] = arc
		}
		for x, a := range row {
			if x == 0 || a.orb != row[x-1].orb {
				sc.off = append(sc.off, int32(len(sc.adj)))
			}
			if a.to >= 0 {
				sc.adj = append(sc.adj, a.to)
			}
		}
		sc.row = row
	}
	sc.off = append(sc.off, int32(len(sc.adj)))
	var cyc []bool
	sc.soloComp, cyc = runTarjan(&sc.solo, int(nodes), csrEdges{sc.off, sc.adj})
	return slices.Contains(cyc, true)
}

// soloArc is one successor of a configuration in soloGraph: the orbit
// of the process that steps, and the node it reaches (-1 for none).
type soloArc struct {
	orb uint
	to  int32
}

// orbitOf returns the least slot of slot i's orbit under configuration
// v's stabilizer: i itself without symmetry.
func (g *graph) orbitOf(v, i int) uint {
	if g.grp == nil {
		return uint(i)
	}
	return uint(g.stab[v*g.grp.n+i])
}

// soloNode returns the solo-graph node of process k's step to v with
// group index gi, (v, [gi⁻¹(k)]), or -1 when soloGraph numbered none.
func (g *graph) soloNode(v, k, gi int) int32 {
	if gi != 0 {
		_, inv, _ := g.grp.elem(gi)
		k = int(inv[k])
	}
	o, m := g.orbitOf(v, k), g.scc.mask[v]
	if m&(1<<o) == 0 {
		return -1
	}
	return g.scc.base[v] + int32(bits.OnesCount64(m&(1<<o-1)))
}

// onSoloCycle reports whether the step of non-distinguished process k
// from u to v with group index gi lies on a solo cycle of k: whether
// its endpoints in the graph soloGraph built share a component.
func (g *graph) onSoloCycle(u, v, k, gi int) bool {
	sc := &g.scc
	to := g.soloNode(v, k, gi)
	return to >= 0 && sc.soloComp[g.soloNode(u, k, 0)] == sc.soloComp[to]
}

// livenessHit is a process's first violation: edge k of configuration
// at for a cycle, at itself for a halt; at < 0 when there is none.
type livenessHit struct {
	at, k int
	kind  ViolationKind
}

// reportHits appends one violation per hit, in (configuration,
// process) order, which is walk order (a configuration's edges are in
// process order), clears the hits, and returns the processes reported;
// with first set it stops after the first violation, leaving the other
// hits set. Cycle schedules stay inside the SCCs comp labels.
func (g *graph) reportHits(rep *Report, hits []livenessHit, comp []int, first bool) (reported uint64) {
	for more := true; more; more = !first {
		i := -1
		for j, h := range hits {
			if h.at >= 0 && (i < 0 || h.at < hits[i].at) {
				i = j
			}
		}
		if i < 0 {
			break
		}
		h := hits[i]
		hits[i].at = -1
		reported |= 1 << uint(i)
		v := &Violation{Kind: h.kind, Proc: i, Witness: g.pathTo(h.at)}
		rep.Violations = append(rep.Violations, v)
		if h.kind == ViolationHaltUndecided {
			v.Err = fmt.Errorf("process %d stopped without deciding: %w", i+1, task.ErrViolation)
			continue
		}
		v.Err = fmt.Errorf("process %d takes infinitely many steps without deciding: %w",
			i+1, task.ErrViolation)
		it := g.edgeIter(h.at)
		e, _ := it.next()
		for k := 0; k < h.k; k++ {
			e, _ = it.next()
		}
		// Under symmetry quotient edges chain concrete steps of different
		// orbit translates; the lifted walk re-aligns them into one
		// concrete cycle schedule.
		v.Cycle = g.liftedCycle(h.at, e, i, h.kind == ViolationDACTerminationB, comp)
	}
	return reported
}

// sccScratch is the working memory of the SCC-based passes. The graph
// keeps it, so a reused Checker's liveness checks allocate nothing.
type sccScratch struct {
	graph tarjan[edgeIter]  // sccs's
	solo  tarjan[csrCursor] // soloGraph's
	hits  []livenessHit
	steps []struct{ live, stepping uint64 } // per SCC, for resilience bounds
	// soloGraph's: per configuration in a cyclic SCC its first node and
	// the orbits it has nodes for, the CSR rows, a configuration's arcs
	// and the nodes' components.
	base     []int32
	mask     []uint64
	off, adj []int32
	row      []soloArc
	soloComp []int
	// liftedCycle's: the stabilizer of the configuration its last walk
	// started from, the walk's crumbs and queue, and the group elements
	// of the node it is at and of the edge it follows.
	stab         stabChecker
	crumbs       map[liftNode]crumb
	queue        []liftNode
	hperm, gperm spec.Perm
	walks        int // liftedCycle calls since the search began
}

// sccs labels the explored graph's strongly connected components: each
// configuration's component, numbered in reverse topological order,
// and per component whether it is cyclic. Both are the graph's
// scratch, valid until the next sccs call.
func (g *graph) sccs() (comp []int, cyclic []bool) {
	return runTarjan(&g.scc.graph, len(g.configs), arenaEdges{g})
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
