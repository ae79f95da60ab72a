// The strongly connected components core. One iterative Tarjan serves
// every graph the analyses label: the explored graph, walked through
// its edge records in the Edges arena (sccs, for liveness and valency),
// and the solo graph Termination (b) is decided on, held as compressed
// sparse rows (soloGraph).
package explore

// sccEdges is a graph as runTarjan walks it: cursor starts node v's
// successor list and next advances it.
type sccEdges[C any] interface {
	cursor(v int) C
	next(c *C) (w int, ok bool)
}

// arenaEdges is the explored graph, read from its edge records.
type arenaEdges struct{ g *graph }

func (a arenaEdges) cursor(v int) edgeIter { return a.g.edgeIter(v) }

func (arenaEdges) next(it *edgeIter) (int, bool) {
	to, _, ok := it.lean()
	return to, ok
}

// csrEdges is a graph whose node v has successors adj[off[v]:off[v+1]].
type csrEdges struct{ off, adj []int32 }

type csrCursor struct{ at, end int32 }

func (g csrEdges) cursor(v int) csrCursor { return csrCursor{g.off[v], g.off[v+1]} }

func (g csrEdges) next(c *csrCursor) (int, bool) {
	if c.at == c.end {
		return 0, false
	}
	c.at++
	return int(g.adj[c.at-1]), true
}

// tarjan is runTarjan's working memory for cursors of type C.
type tarjan[C any] struct {
	index, low, comp, stack []int
	cyclic                  []bool
	frames                  []sccFrame[C]
}

type sccFrame[C any] struct {
	v    int
	loop bool // v has a self loop
	c    C
}

// runTarjan computes the strongly connected components of the n-node
// graph es (iterative Tarjan) in t's memory. It returns the component
// of every node, numbered in reverse topological order (every edge
// between components goes to a lower number), and per component
// whether it is cyclic: more than one node, or a self loop.
func runTarjan[C any, E sccEdges[C]](t *tarjan[C], n int, es E) (comp []int, cyclic []bool) {
	const unvisited = -1
	index, low, comp := resize(t.index, n), resize(t.low, n), resize(t.comp, n)
	for i := range index {
		// A visited node without a component is on the stack.
		index[i], comp[i] = unvisited, unvisited
	}
	stack, frames, cyclic := t.stack[:0], t.frames[:0], t.cyclic[:0]
	next := 0
	visit := func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		frames = append(frames, sccFrame[C]{v: v, c: es.cursor(v)})
	}
	for root := 0; root < n; root++ {
		if index[root] == unvisited {
			visit(root)
		}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if w, ok := es.next(&f.c); ok {
				if index[w] == unvisited {
					visit(w)
				} else if comp[w] == unvisited {
					low[f.v] = min(low[f.v], index[w])
					f.loop = f.loop || w == f.v
				}
				continue
			}
			// finish v
			v, cyc := f.v, f.loop
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				low[p.v] = min(low[p.v], low[v])
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = len(cyclic)
					if w == v {
						break
					}
					cyc = true
				}
				cyclic = append(cyclic, cyc)
			}
		}
	}
	*t = tarjan[C]{index: index, low: low, comp: comp, stack: stack, cyclic: cyclic, frames: frames}
	return comp, cyclic
}
