package explore

import (
	"fmt"
	"math/bits"

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
// one), both decoding only each edge's target and process. Each
// process's first violating edge in that walk is reported, in walk
// order, exactly as a per-edge search would.
func (g *graph) checkLiveness(rep *Report) {
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
	reported := g.reportHits(rep, hits, nil)

	comp, cyclic := g.sccs()
	isDAC := !live.WaitFree && live.DACDistinguished >= 0
	// Termination (b) without symmetry: an i-edge inside an SCC lies on
	// an i-only cycle iff its endpoints share a component of the
	// subgraph of intra-SCC i-edges, which the walk collects per process.
	soloExact := isDAC && g.grp == nil
	sc.edges = resize(sc.edges, n)
	for i := range sc.edges {
		sc.edges[i] = sc.edges[i][:0]
	}

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

	for from := range g.configs {
		c := comp[from]
		if !cyclic[c] {
			continue
		}
		it := g.edgeIter(from)
		for k := 0; ; k++ {
			at := it
			to, i, ok := it.lean()
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
			case soloExact:
				sc.edges[i] = append(sc.edges[i], soloEdge{int32(from), int32(to), int32(k)})
				continue
			case isDAC:
				// Under symmetry quotient i-edges conflate steps of i's
				// translates: seek the solo cycle in the lifted graph.
				if e, _ := at.next(); g.liftedCycle(from, e, i, true, comp) == nil {
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
		}
	}
	sc.lid = resize(sc.lid, len(g.configs))
	for i, es := range sc.edges {
		if len(es) > 0 {
			sc.soloSCCs(es)
		}
		for _, e := range es {
			if sc.soloComp[sc.lid[e.from]] == sc.soloComp[sc.lid[e.to]] {
				hits[i] = livenessHit{at: int(e.from), k: int(e.k), kind: ViolationDACTerminationB}
				break
			}
		}
	}
	g.reportHits(rep, hits, comp)
}

// livenessHit is a process's first violation: edge k of configuration
// at for a cycle, at itself for a halt; at < 0 when there is none.
type livenessHit struct {
	at, k int
	kind  ViolationKind
}

// soloEdge is edge k of from, to a configuration in from's SCC.
type soloEdge struct{ from, to, k int32 }

// reportHits appends one violation per hit, in (configuration,
// process) order, which is walk order (a configuration's edges are in
// process order), clears the hits, and returns the processes reported.
// Cycle schedules stay inside the SCCs comp labels.
func (g *graph) reportHits(rep *Report, hits []livenessHit, comp []int) (reported uint64) {
	for {
		i := -1
		for j, h := range hits {
			if h.at >= 0 && (i < 0 || h.at < hits[i].at) {
				i = j
			}
		}
		if i < 0 {
			return reported
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
}

// sccScratch is the working memory of the SCC-based passes. The graph
// keeps it, so a reused Checker's liveness checks allocate nothing.
type sccScratch struct {
	graph tarjan[edgeIter]  // sccs's
	solo  tarjan[csrCursor] // soloSCCs's
	hits  []livenessHit
	steps []struct{ live, stepping uint64 } // per SCC, for resilience bounds
	edges [][]soloEdge                      // per process, for soloSCCs
	// soloSCCs's subgraph: a sparse set of local ids (lid[v] is v's iff
	// nodes[lid[v]] == v, so lid is never cleared), CSR rows and the
	// local ids' components.
	lid, nodes, off, adj []int32
	soloComp             []int
	// liftedCycle's: the stabilizer of the configuration its last walk
	// started from, the walk's crumbs and queue, and the group elements
	// of the node it is at and of the edge it follows.
	stab         stabChecker
	crumbs       map[liftNode]crumb
	queue        []liftNode
	hperm, gperm spec.Perm
}

// sccs labels the explored graph's strongly connected components: each
// configuration's component, numbered in reverse topological order,
// and per component whether it is cyclic. Both are the graph's
// scratch, valid until the next sccs call.
func (g *graph) sccs() (comp []int, cyclic []bool) {
	return runTarjan(&g.scc.graph, len(g.configs), arenaEdges{g})
}

// soloSCCs labels the components of the subgraph one process's
// collected edges es span, in sc.soloComp by local id. es is in walk
// order, so each source's edges are contiguous and, with sources
// numbered first, already CSR rows; sc.lid must cover every
// configuration.
func (sc *sccScratch) soloSCCs(es []soloEdge) {
	local := func(v int32) int32 {
		if l := sc.lid[v]; int(l) < len(sc.nodes) && sc.nodes[l] == v {
			return l
		}
		sc.lid[v] = int32(len(sc.nodes))
		sc.nodes = append(sc.nodes, v)
		return sc.lid[v]
	}
	sc.nodes, sc.off, sc.adj = sc.nodes[:0], sc.off[:0], sc.adj[:0]
	for x, e := range es {
		if x == 0 || e.from != es[x-1].from {
			local(e.from)
			sc.off = append(sc.off, int32(x))
		}
	}
	for _, e := range es {
		sc.adj = append(sc.adj, local(e.to))
	}
	for len(sc.off) <= len(sc.nodes) { // targets that are no source have no row
		sc.off = append(sc.off, int32(len(es)))
	}
	sc.soloComp, _ = runTarjan(&sc.solo, len(sc.nodes), csrEdges{sc.off, sc.adj})
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
