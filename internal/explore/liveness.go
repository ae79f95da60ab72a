package explore

import (
	"fmt"

	"setagree/internal/machine"
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
func (g *graph) checkLiveness(rep *Report) {
	live := g.tsk.Liveness()
	n := g.sys.Procs()

	// Halted-undecided processes. We read "takes infinitely many steps"
	// as "keeps executing": a correct algorithm never stops a process
	// that has not decided (or, for the DAC distinguished process,
	// aborted) — otherwise the trivial all-halt protocol would satisfy
	// the termination properties vacuously. Both task families here
	// (consensus/k-set agreement and n-DAC) oblige every process, so any
	// undecided halt is a violation.
	reported := make([]bool, n)
	var m metaRec
	for id := range g.configs {
		g.metaAt(id, &m)
		for i := 0; i < n; i++ {
			if m.status[i] != machine.StatusHalted || reported[i] {
				continue
			}
			reported[i] = true
			rep.Violations = append(rep.Violations, &Violation{
				Kind: ViolationHaltUndecided,
				Err: fmt.Errorf("process %d stopped without deciding: %w",
					i+1, task.ErrViolation),
				Proc:    i,
				Witness: g.pathTo(id),
			})
		}
	}

	comp := g.sccs()
	isDAC := !live.WaitFree && live.DACDistinguished >= 0

	// For resilience-bounded tasks we reason per SCC: the processes with
	// no step inside a cyclic SCC are "effectively crashed" in the
	// corresponding infinite executions; the cycle only violates
	// termination when that count is within the tolerated bound.
	// (Process statuses are constant across an SCC: decisions and aborts
	// are irrevocable, so a status change cannot lie on a cycle.)
	var sccStepping map[int]uint64
	if !live.WaitFree && !isDAC {
		sccStepping = make(map[int]uint64)
		for from := range g.configs {
			for it := g.edgeIter(from); ; {
				e, ok := it.next()
				if !ok {
					break
				}
				if comp[from] == comp[e.to] {
					sccStepping[comp[from]] |= 1 << uint(e.step.Proc)
				}
			}
		}
	}

	// Cycle-based obligations. An SCC is cyclic if it has an internal
	// edge (size > 1, or a self loop).
	for from := range g.configs {
		for it := g.edgeIter(from); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if comp[from] != comp[e.to] {
				continue
			}
			i := e.step.Proc
			var kind ViolationKind
			switch {
			case live.WaitFree:
				kind = ViolationWaitFree
			case isDAC && i == live.DACDistinguished:
				kind = ViolationDACTerminationA
			case isDAC:
				// Termination (b) prohibits only solo livelocks: the
				// cycle must consist purely of i-steps. Check whether an
				// i-only cycle through this edge exists — in the lifted
				// graph when the exploration was symmetry-reduced, since
				// quotient i-edges conflate steps of i's translates.
				if g.grp != nil {
					if !g.liftedSolo(from, e, comp) {
						continue
					}
				} else if !g.soloCycle(from, e.to, i, comp) {
					continue
				}
				kind = ViolationDACTerminationB
			default:
				// Resilience bound: count the poised processes that take
				// no step inside this SCC — they crash in the infinite
				// execution this cycle induces. Within the tolerance the
				// run is one the protocol must survive, so an undecided
				// stepper is a violation; beyond it, the run is excused.
				crashed := 0
				stepping := sccStepping[comp[from]]
				g.metaAt(from, &m)
				for j := 0; j < n; j++ {
					if m.live(j) && stepping&(1<<uint(j)) == 0 {
						crashed++
					}
				}
				if crashed > live.Tolerance {
					continue
				}
				kind = ViolationWaitFree
			}
			if reported[i] {
				continue
			}
			reported[i] = true
			wit := g.pathTo(from)
			var cyc []Step
			if g.grp != nil {
				// Quotient edges chain concrete steps of different orbit
				// translates; the lifted walk re-aligns them into one
				// concrete cycle schedule.
				cyc = g.liftedCycle(from, e, i, kind == ViolationDACTerminationB, comp)
			} else {
				cyc = append([]Step{e.step}, g.cyclePath(e.to, from, i, kind, comp)...)
			}
			rep.Violations = append(rep.Violations, &Violation{
				Kind: kind,
				Err: fmt.Errorf("process %d takes infinitely many steps without deciding: %w",
					i+1, task.ErrViolation),
				Proc:    i,
				Witness: wit,
				Cycle:   cyc,
			})
		}
	}
}

// soloCycle reports whether there is a cycle of pure i-steps passing
// through the edge from->to (both already known to share an SCC).
func (g *graph) soloCycle(from, to, i int, comp []int) bool {
	if from == to {
		return true
	}
	// BFS over i-edges from to, looking for from.
	seen := map[int]bool{to: true}
	queue := []int{to}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for it := g.edgeIter(at); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if e.step.Proc != i || comp[e.to] != comp[at] || seen[e.to] {
				continue
			}
			if e.to == from {
				return true
			}
			seen[e.to] = true
			queue = append(queue, e.to)
		}
	}
	return false
}

// cyclePath returns a schedule from config `from` back to config `to`
// inside one SCC; for Termination (b) violations it restricts the path
// to steps of process i (a solo cycle was already shown to exist).
func (g *graph) cyclePath(from, to, i int, kind ViolationKind, comp []int) []Step {
	if from == to {
		return nil
	}
	type crumb struct {
		prev int
		step Step
	}
	soloOnly := kind == ViolationDACTerminationB
	seen := map[int]crumb{from: {prev: -1}}
	queue := []int{from}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for it := g.edgeIter(at); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if comp[e.to] != comp[at] {
				continue
			}
			if soloOnly && e.step.Proc != i {
				continue
			}
			if _, dup := seen[e.to]; dup {
				continue
			}
			seen[e.to] = crumb{prev: at, step: e.step}
			if e.to == to {
				var rev []Step
				for at := to; at != from; at = seen[at].prev {
					rev = append(rev, seen[at].step)
				}
				for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
					rev[l], rev[r] = rev[r], rev[l]
				}
				return rev
			}
			queue = append(queue, e.to)
		}
	}
	return nil
}

// sccScratch is sccs's working memory. The graph keeps it, so a reused
// Checker's checks run Tarjan without allocating.
type sccScratch struct {
	index, low, comp, stack []int
	onStack                 []bool
	frames                  []sccFrame
}

type sccFrame struct {
	v  int
	it edgeIter
}

// sccs computes strongly connected components (iterative Tarjan) and
// returns the component id of every configuration. The slice is the
// graph's scratch, valid until the next sccs call.
func (g *graph) sccs() []int {
	n := len(g.configs)
	const unvisited = -1
	sc := &g.scc
	index := resize(sc.index, n)
	low := resize(sc.low, n)
	comp := resize(sc.comp, n)
	onStack := resize(sc.onStack, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	clear(onStack)
	stack := sc.stack[:0]
	frames := sc.frames[:0]
	next := 0
	nComp := 0

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], sccFrame{v: root, it: g.edgeIter(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if e, ok := f.it.next(); ok {
				w := e.to
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, sccFrame{v: w, it: g.edgeIter(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// finish v
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				nComp++
			}
		}
	}
	*sc = sccScratch{index: index, low: low, comp: comp, stack: stack, onStack: onStack, frames: frames}
	return comp
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
