package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"setagree/internal/machine"
	"setagree/internal/spec"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// referenceGroup materializes the admissible group the plain way: every
// process permutation the admissibility rules allow, paired with the
// value map it induces, in lexicographic order of the forward map Proc.
// Element k of the list is the element group index k names.
func referenceGroup(sys *System, tsk task.Task, mode Symmetry) ([]spec.Perm, error) {
	fixed, consts, err := admissibility(sys, tsk, mode)
	if err != nil {
		return nil, err
	}
	n := sys.Procs()
	widths := portWidths(sys)
	var perms []spec.Perm
	used := make([]bool, n)
	img := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			var vals map[value.Value]value.Value
			if mode == SymmetryValues {
				vals = make(map[value.Value]value.Value, n)
				for p, q := range img {
					v, w := sys.Inputs[p], sys.Inputs[q]
					if prev, ok := vals[v]; ok {
						if prev != w {
							return // τ not well defined for this σ
						}
						continue
					}
					vals[v] = w
				}
				seen := make(map[value.Value]bool, len(vals))
				identity := true
				for v, w := range vals {
					if seen[w] {
						return // τ not injective
					}
					seen[w] = true
					if v != w {
						identity = false
						if consts[v] || consts[w] || v.IsSentinel() || w.IsSentinel() {
							return // τ moves a constant or sentinel
						}
					}
				}
				if identity {
					vals = nil
				}
			}
			perms = append(perms, spec.MakePerm(slices.Clone(img), vals))
			return
		}
		for j := 0; j < n; j++ {
			if used[j] || (fixed[i] || fixed[j]) && i != j ||
				!machine.SamePrograms(sys.Programs[i], sys.Programs[j]) ||
				!samePorts(widths, i, j) ||
				mode == SymmetryIDs && sys.Inputs[i] != sys.Inputs[j] {
				continue
			}
			img[i] = j
			used[j] = true
			rec(i + 1)
			used[j] = false
		}
	}
	rec(0)
	return perms, nil
}

// scanCanonical is the reference orbit canonicalization canonical
// must agree with byte for byte: render the full key under every
// element of the materialized group in order, keep the first minimum,
// and count its ties. Candidates whose mask and process blocks already
// lose, rendered a piece at a time, are pruned before the full render.
func scanCanonical(perms []spec.Perm, c *Config) (key []byte, gi, orbit int) {
	best := c.AppendKey(nil)
	var cand []byte
	ties := 1
	for k := 1; k < len(perms); k++ {
		p := perms[k]
		cand = binary.AppendUvarint(cand[:0], permuteMask(c.SteppedMask, p))
		lost := false
		for j := 0; ; j++ {
			n := min(len(cand), len(best))
			d := bytes.Compare(cand[:n], best[:n])
			lost = d > 0
			if d != 0 || j == len(c.Procs) {
				break
			}
			cand = c.Procs[p.ProcInvIdx(j)].AppendKeyUnder(cand, p)
		}
		if lost {
			continue
		}
		cand = c.AppendKeyUnder(cand[:0], p)
		switch bytes.Compare(cand, best) {
		case -1:
			best, cand = cand, best
			gi, ties = k, 1
		case 0:
			ties++
		}
	}
	return best, gi, len(perms) / ties
}

// CanonSuite is a fixed input set for canonical: every successor of
// every configuration a symmetry-reduced exploration stores, which is
// exactly the set the explorer canonicalizes.
type CanonSuite struct {
	*canonizer
	succs []*Config
	// hs holds each successor's handles in the canonizer's memo, resolved
	// on its first canonicalization.
	hs [][]int32
	// ref builds the reference group scanCanonical scans.
	ref func() ([]spec.Perm, error)
}

// canonizer canonicalizes configurations in hand the way restore does:
// through a step memo of its own, which resolves their components.
type canonizer struct {
	grp *group
	sys *System
	m   *stepMemo
	sc  keyScratch
}

func newCanonizer(grp *group, sys *System) *canonizer {
	m := newStepMemo()
	m.reset(sys.Objects, grp)
	return &canonizer{grp: grp, sys: sys, m: m}
}

// canonical canonicalizes c; the key aliases the canonizer's scratch.
func (z *canonizer) canonical(c *Config) (key []byte, gi, orbit int) {
	hs, err := z.m.handles(z.sys, c, &z.sc.hnd)
	if err != nil {
		panic(err)
	}
	return z.grp.canonical(&z.sc, z.m, hs, c.SteppedMask)
}

// element unranks group element k.
func (grp *group) element(k int) spec.Perm {
	var p spec.Perm
	grp.elementInto(k, &p)
	return p
}

// referenceCanonical is canonical as it was before the step memo served
// symmetry, and its reference: it renders c's process blocks, pid
// masked, once per value map, and finds the sub-runs of its runs by
// rendering c's objects under each transposition (referenceSubRuns).
// It shares placement and the candidate loop (place, runsOf,
// objectStage) with canonical. sc must not be a canonical call's.
func (grp *group) referenceCanonical(sc *keyScratch, c *Config) (key []byte, gi, orbit int) {
	n := len(c.Procs)
	sc.reset(grp, n)
	sc.blocks = sc.blocks[:0]
	var mask uint64
	for t := range grp.vmaps {
		refs := sc.refs[t*n : (t+1)*n]
		for i := range c.Procs {
			lo := len(sc.blocks)
			sc.blocks = c.Procs[i].AppendKeyWithPid(sc.blocks, grp.vmaps[t], 0)
			refs[i] = blockRef{lo: int32(lo), hi: int32(len(sc.blocks))}
		}
		sc.rankBlocks(refs)
		m := grp.place(sc, c.SteppedMask, t) | c.SteppedMask>>uint(n)<<uint(n)
		if len(sc.vties) > 0 {
			d := cmpUvarint(m, mask)
			if d == 0 {
				d = sc.cmpPlaced(n, t, sc.vties[0])
			}
			if d > 0 {
				continue
			}
			if d < 0 {
				sc.vties = sc.vties[:0]
			}
		}
		mask = m
		sc.vties = append(sc.vties, t)
	}
	sc.runsOf(grp, n, sc.vties[0], mask)
	bt, ties := grp.objectStage(sc, c.Objs, mask, referenceSubRuns(sc, c))
	gi = grp.rank(sc.bproc)
	if gi == 0 {
		return c.AppendKey(nil), 0, grp.order / ties
	}
	return c.AppendKeyUnder(nil, spec.Perm{Proc: sc.bproc, Inv: sc.binv, Vals: grp.vmaps[bt].Vals}), gi, grp.order / ties
}

// referenceSubRuns is subRuns on c's own object states: a run process
// joins the first earlier sub-run whose least process it can trade
// places with, the transposition leaving the object keys unchanged.
func referenceSubRuns(sc *keyScratch, c *Config) int {
	var ref []byte
	for _, o := range c.Objs {
		ref = spec.AppendStateKey(ref, o)
	}
	tp := make([]int, len(c.Procs))
	for i := range tp {
		tp[i] = i
	}
	swapFixes := func(a, b int) bool {
		tp[a], tp[b] = b, a
		cand := appendStatesUnder(nil, c.Objs, spec.Perm{Proc: tp, Inv: tp})
		tp[a], tp[b] = a, b
		return bytes.Equal(cand, ref)
	}
	weight := 1
	for _, r := range sc.runs {
		ps := sc.runProcs[r.lo:r.hi]
		for k, x := range ps {
			sc.sub[x] = x
			for _, y := range ps[:k] {
				if sc.sub[y] == y && swapFixes(y, x) {
					sc.sub[x] = y
					break
				}
			}
		}
		for _, x := range ps {
			size := 0
			for _, y := range ps {
				if sc.sub[y] == x {
					size++
				}
			}
			weight *= factorial[size]
		}
	}
	return weight
}

// NewCanonSuite explores sys against tsk under mode at one worker and
// collects the successors of every stored configuration.
func NewCanonSuite(sys *System, tsk task.Task, mode Symmetry) (*CanonSuite, error) {
	rep, err := Check(sys, tsk, Options{Workers: 1, Symmetry: mode})
	if err != nil {
		return nil, err
	}
	defer rep.Close()
	g := rep.g
	if g.grp == nil {
		return nil, fmt.Errorf("no symmetry group under %v", mode)
	}
	s := &CanonSuite{canonizer: newCanonizer(g.grp, sys), ref: func() ([]spec.Perm, error) { return referenceGroup(sys, tsk, mode) }}
	for id := 0; id < rep.States; id++ {
		c := g.configAt(id)
		for i := range c.Procs {
			if !c.Live(i) {
				continue
			}
			p, ts, err := sys.poised(c, i)
			if err != nil {
				return nil, err
			}
			for b := range ts {
				m, err := sys.step(c, i, p, ts, b)
				if err != nil {
					return nil, err
				}
				s.succs = append(s.succs, c.after(m, nil))
			}
		}
	}
	return s, nil
}

// NewWalkSuite collects the configurations random walks visit: walks
// runs of up to depth steps from the initial configuration, each step
// a uniformly chosen live process and branch, seeded by seed. It
// covers systems whose reachable graph is too large to enumerate.
func NewWalkSuite(sys *System, tsk task.Task, mode Symmetry, walks, depth int, seed int64) (*CanonSuite, error) {
	grp, err := buildGroup(sys, tsk, mode)
	if err != nil {
		return nil, err
	}
	root, err := initialConfig(sys)
	if err != nil {
		return nil, err
	}
	s := &CanonSuite{canonizer: newCanonizer(grp, sys), ref: func() ([]spec.Perm, error) { return referenceGroup(sys, tsk, mode) }}
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < walks; w++ {
		c := root
		for d := 0; d < depth; d++ {
			var live []int
			for i := range c.Procs {
				if c.Live(i) {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				break
			}
			i := live[rng.Intn(len(live))]
			p, ts, err := sys.poised(c, i)
			if err != nil {
				return nil, err
			}
			m, err := sys.step(c, i, p, ts, rng.Intn(len(ts)))
			if err != nil {
				return nil, err
			}
			c = c.after(m, nil)
			s.succs = append(s.succs, c)
		}
	}
	return s, nil
}

// BeyondLowestSlots counts the suite's configurations whose canonical
// stepped mask differs from the one that puts each class's stepped
// processes in its lowest slots (under the identity value map): the
// cases where the mask's uvarint bytes and its integer value disagree.
func (s *CanonSuite) BeyondLowestSlots() int {
	count := 0
	for i, c := range s.succs {
		key, _, _ := s.Canonical(i)
		mask, _ := binary.Uvarint(key)
		var lowest uint64
		for _, slots := range s.grp.slots {
			stepped := bits.OnesCount64(c.SteppedMask & slots)
			for m := slots; stepped > 0; m &= m - 1 {
				lowest |= m & -m
				stepped--
			}
		}
		if mask != lowest {
			count++
		}
	}
	return count
}

// Len is the number of successors in the suite.
func (s *CanonSuite) Len() int { return len(s.succs) }

// GroupOrder is the order of the suite's symmetry group.
func (s *CanonSuite) GroupOrder() int { return s.grp.order }

// ValueClasses is the number of distinct value maps in the group.
func (s *CanonSuite) ValueClasses() int { return len(s.grp.vmaps) }

// Canonical canonicalizes successor i with the suite's own memo and
// scratch. After the first call on i it costs what canonicalizing a
// successor costs the expansion, whose handles are in hand.
func (s *CanonSuite) Canonical(i int) (key []byte, gi, orbit int) {
	if s.hs == nil {
		s.hs = make([][]int32, len(s.succs))
	}
	if s.hs[i] == nil {
		hs, err := s.m.handles(s.sys, s.succs[i], &s.sc.hnd)
		if err != nil {
			panic(err)
		}
		s.hs[i] = slices.Clone(hs)
	}
	return s.grp.canonical(&s.sc, s.m, s.hs[i], s.succs[i].SteppedMask)
}

// MatchScan checks canonical against scanCanonical on every successor
// in the suite: same key bytes, same minimizing index, same orbit
// size. It returns how many successors were not canonical themselves.
func (s *CanonSuite) MatchScan() (moved int, err error) {
	perms, err := s.ref()
	if err != nil {
		return 0, err
	}
	for i, c := range s.succs {
		key, gi, orbit := s.Canonical(i)
		wkey, wgi, worbit := scanCanonical(perms, c)
		if !bytes.Equal(key, wkey) || gi != wgi || orbit != worbit {
			return moved, fmt.Errorf("successor %d (%s): canonical gives gi %d, orbit %d, key %x; scan gives gi %d, orbit %d, key %x",
				i, c.Key(), gi, orbit, key, wgi, worbit, wkey)
		}
		if gi != 0 {
			moved++
		}
	}
	return moved, nil
}

// ExpandCounted explores sys to completion, level by level as bfs
// does, and returns the report counts, the graph's key and edge arena
// bytes, and how many successor Configs the expansion built: one per
// key's first occurrence in its shard.
func ExpandCounted(sys *System, workers int) (built int, rep *Report, graph []byte, err error) {
	opts := Options{Workers: workers}
	st, rep, err := new(Checker).newSearch(sys, nil, &opts)
	if err != nil {
		return 0, rep, nil, err
	}
	g := st.g
	for levelStart := 0; levelStart < len(g.configs); {
		levelEnd := len(g.configs)
		outs := st.expandLevel(levelStart, levelEnd)
		for _, out := range outs {
			built += len(out.cfgs)
		}
		if err := st.mergeLevel(outs); err != nil {
			return built, rep, nil, err
		}
		st.retire(levelStart, levelEnd)
		levelStart = levelEnd
	}
	rep.States = len(g.configs)
	s := g.disk.s
	graph = bytes.Join(append(s.Keys.Sections(s.Keys.Len()), s.Edges.Sections(s.Edges.Len())...), nil)
	return built, rep, graph, nil
}

// SnapshotBytes renders everything a Snapshot holds: its totals, each
// configuration's pointer and key, the BFS-tree columns, the halted and
// unsafe notes, the record offsets, and the store's table and arena
// bytes. A test copies it
// before forking and asserts it unchanged after.
func SnapshotBytes(s *Snapshot) []byte {
	var b bytes.Buffer
	g, d := s.g, s.g.disk
	fmt.Fprintf(&b, "%d %d %d %d %d %d %d %p\n", s.maxStates, s.expanded, s.level,
		s.transitions, s.quiescent, s.frontierMax, s.batchMax, g.sys)
	for id, c := range g.configs {
		fmt.Fprintf(&b, "%d %p %d %d ", id, c, g.parent[id], g.canon[id])
		if c != nil {
			b.Write(c.AppendKey(nil))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%v %d %v %v %d\n%+v\n", g.halted, g.unsafe, g.unsafeErr, d.edgeOff, d.edgeDurable, *d.s)
	for _, a := range []*store.Arena{d.s.Keys, d.s.Edges} {
		b.Write(bytes.Join(a.Sections(a.Len()), nil))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// soloCycle reports whether there is a cycle of pure i-steps passing
// through the edge from->to (both already known to share an SCC): a
// breadth-first search over the SCC's i-edges from to back to from. It
// is the per-edge reference for the per-process SCCs checkLiveness
// decides Termination (b) with.
func (g *graph) soloCycle(from, to, i int, comp []int) bool {
	if from == to {
		return true
	}
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

// SoloAgreement compares, on every intra-SCC edge of every process but
// skip (-1 skips none) in rep's graph, the solo graph's answer to "does
// this edge lie on a solo cycle of its process" (soloGraph and
// onSoloCycle, with skip as the distinguished process) with the
// per-edge references: the lifted walk restricted to the edge's
// process (liftedCycle), and without symmetry also soloCycle's plain
// search. It returns how many edges it compared, how many lie on a solo
// cycle, and the first disagreement.
func SoloAgreement(rep *Report, skip int) (edges, solo int, err error) {
	g := rep.g
	comp, cyclic := g.sccs()
	anySolo := g.soloGraph(comp, cyclic, skip)
	for from := range g.configs {
		for it := g.edgeIter(from); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			i := e.step.Proc
			if i == skip || comp[e.to] != comp[from] {
				continue
			}
			got := anySolo && g.onSoloCycle(from, e.to, i, e.g)
			want := g.liftedCycle(from, e, i, true, comp) != nil
			if got != want && err == nil {
				err = fmt.Errorf("p%d edge %d->%d (group index %d): solo graph says %v, liftedCycle %v", i+1, from, e.to, e.g, got, want)
			}
			if plain := g.grp == nil && g.soloCycle(from, e.to, i, comp); g.grp == nil && plain != want && err == nil {
				err = fmt.Errorf("p%d edge %d->%d: liftedCycle says %v, soloCycle %v", i+1, from, e.to, want, plain)
			}
			edges++
			if want {
				solo++
			}
		}
	}
	return edges, solo, err
}

// EachRecord calls f on every interned key of rep's graph, in id order,
// and then on every configuration's edge record.
func EachRecord(rep *Report, f func(edges bool, id int, rec []byte)) {
	d := rep.g.disk
	for id := range rep.g.configs {
		f(false, id, d.s.Key(id))
	}
	for id := range d.edgeOff {
		f(true, id, record(d.s.Edges, d.edgeOff, id))
	}
}

// LiftedWalks returns how many lifted walks (liftedCycle calls) the
// graph of rep's checker made since its Check began.
func LiftedWalks(rep *Report) int { return rep.g.scc.walks }

// appendMeta encodes c's outcome record as metaAt decodes it: per
// process a status byte, decision varint, and poised-object varint. It
// is metaAt's reference, read off the configuration itself.
func appendMeta(dst []byte, sys *System, c *Config) []byte {
	for i := range c.Procs {
		dst = append(dst, byte(c.Procs[i].Status))
		dst = binary.AppendVarint(dst, int64(c.Procs[i].Decision))
		obj := -1
		if poise, ok := machine.Poised(sys.Programs[i], c.Procs[i]); ok {
			obj = poise.Obj
		}
		dst = binary.AppendVarint(dst, int64(obj))
	}
	return dst
}

// MetaAgreement compares metaAt, which decodes the interned key, with
// appendMeta over configAt's configuration, for every configuration of
// rep's graph, and returns the first disagreement.
func MetaAgreement(rep *Report) error {
	g := rep.g
	var m metaRec
	for id := range g.configs {
		g.metaAt(id, &m)
		var got []byte
		for i := range m.status {
			got = append(got, byte(m.status[i]))
			got = binary.AppendVarint(got, int64(m.decision[i]))
			got = binary.AppendVarint(got, int64(m.poised[i]))
		}
		if want := appendMeta(nil, g.sys, g.configAt(id)); !bytes.Equal(got, want) {
			return fmt.Errorf("configuration %d (group index %d): metaAt %v, configuration %v", id, g.canon[id], got, want)
		}
	}
	return nil
}

// LivenessAllocs is the average number of allocations of one liveness
// check over the graph of ck's last Check, which must have reported no
// violation.
func LivenessAllocs(ck *Checker) float64 {
	rep := &Report{}
	return testing.AllocsPerRun(10, func() { ck.g.checkLiveness(rep, false) })
}

// cyclePath returns a schedule from config `from` back to config `to`
// inside one SCC; for Termination (b) violations it restricts the path
// to steps of process i (a solo cycle was already shown to exist). It
// is the symmetry-off reference for liftedCycle: the cycle the liveness
// report gave for edge e out of to was e.step followed by
// cyclePath(e.to, to, ...).
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

// liftedSolo reports whether a concrete solo cycle of process i passes
// through (a translate of) the quotient edge en out of from: a lifted
// walk from (en.to, en.g) back to (from, h) for some stabilizing h,
// every step of which is concretely an i-step. It is the symmetry
// reference for liftedCycle's solo verdict, and needs a group.
func (g *graph) liftedSolo(from int, en edge, comp []int) bool {
	i := en.step.Proc
	stab := &stabChecker{id: from}
	start := liftNode{en.to, en.g}
	if start.v == from && stab.contains(g, start.h) {
		return true
	}
	seen := map[liftNode]bool{start: true}
	queue := []liftNode{start}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		h := g.grp.element(at.h)
		for it := g.edgeIter(at.v); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if comp[e.to] != comp[at.v] {
				continue
			}
			if h.ProcIdx(e.step.Proc) != i {
				continue
			}
			nx := liftNode{e.to, g.grp.compose(h, g.grp.element(e.g))}
			if seen[nx] {
				continue
			}
			if nx.v == from && stab.contains(g, nx.h) {
				return true
			}
			seen[nx] = true
			queue = append(queue, nx)
		}
	}
	return false
}

// CycleAgreement compares the one cycle search, liftedCycle, with the
// references it replaced on every intra-SCC edge of rep's graph (a
// superset of the edges liveness violations report cycles through),
// unrestricted and restricted to the edge's process. Without symmetry
// each cycle must be the edge's step followed by cyclePath's schedule,
// and a solo cycle must exist exactly when soloCycle finds one. Under
// symmetry the solo verdict must be liftedSolo's, and each cycle must
// replay, concretely, from the edge's source back to it. It returns how
// many edges it compared, how many lie on a solo cycle, and the first
// disagreement.
func CycleAgreement(rep *Report) (edges, solo int, err error) {
	g := rep.g
	comp, _ := g.sccs()
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	for from := range g.configs {
		for it := g.edgeIter(from); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if comp[e.to] != comp[from] {
				continue
			}
			edges++
			i := e.step.Proc
			cyc := g.liftedCycle(from, e, i, false, comp)
			soloCyc := g.liftedCycle(from, e, i, true, comp)
			if soloCyc != nil {
				solo++
			}
			if g.grp == nil {
				want := append([]Step{e.step}, g.cyclePath(e.to, from, i, ViolationWaitFree, comp)...)
				if !slices.Equal(cyc, want) {
					fail("%d->%d: cycle %v, cyclePath's %v", from, e.to, cyc, want)
				}
				if want := g.soloCycle(from, e.to, i, comp); (soloCyc != nil) != want {
					fail("%d->%d p%d: solo cycle %v, soloCycle says %v", from, e.to, i+1, soloCyc, want)
				} else if want {
					want := append([]Step{e.step}, g.cyclePath(e.to, from, i, ViolationDACTerminationB, comp)...)
					if !slices.Equal(soloCyc, want) {
						fail("%d->%d p%d: solo cycle %v, cyclePath's %v", from, e.to, i+1, soloCyc, want)
					}
				}
				continue
			}
			if want := g.liftedSolo(from, e, comp); (soloCyc != nil) != want {
				fail("%d->%d p%d: solo cycle %v, liftedSolo says %v", from, e.to, i+1, soloCyc, want)
			}
			for _, c := range [][]Step{cyc, soloCyc} {
				if c == nil {
					continue
				}
				if rerr := g.replaysToItself(from, c); rerr != nil {
					fail("%d->%d p%d: cycle %v: %v", from, e.to, i+1, c, rerr)
				}
			}
			for _, s := range soloCyc {
				if s.Proc != i {
					fail("%d->%d p%d: solo cycle %v has a step of p%d", from, e.to, i+1, soloCyc, s.Proc+1)
				}
			}
		}
	}
	return edges, solo, err
}

// replaysToItself reports whether sched, replayed step by step from
// configuration id, returns to it.
func (g *graph) replaysToItself(id int, sched []Step) error {
	c := g.configAt(id)
	for k, s := range sched {
		next, ok, err := g.sys.replay(c, s)
		if err != nil || !ok {
			return fmt.Errorf("step %d (%v) does not replay: %v", k, s, err)
		}
		c = next
	}
	if !bytes.Equal(c.AppendKey(nil), g.configAt(id).AppendKey(nil)) {
		return fmt.Errorf("ends elsewhere")
	}
	return nil
}

// IsCritical is the critical predicate valency and the adversary
// share, on rep's graph.
func IsCritical(rep *Report, id int) bool { return rep.g.critical(id) }

// RegionMatchesIDOrder walks the adversary's bivalent region the way
// the adversary used to: a breadth-first search from the root through
// bivalent successors only, with parent pointers. It checks the premise
// the adversary now rests on: the walk visits exactly the bivalent
// configurations, in id order, along BFS tree paths (pathTo). rep must
// come from a symmetry-off Check with valency and a bivalent root.
func RegionMatchesIDOrder(rep *Report) error {
	g := rep.g
	type crumb struct {
		prev int
		step Step
	}
	region := map[int]crumb{0: {prev: -1}}
	order := []int{0}
	for q := 0; q < len(order); q++ {
		for it := g.edgeIter(order[q]); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if _, seen := region[e.to]; seen || !g.valence[e.to].Bivalent() {
				continue
			}
			region[e.to] = crumb{prev: order[q], step: e.step}
			order = append(order, e.to)
		}
	}
	var bivalent []int
	for id, v := range g.valence {
		if v.Bivalent() {
			bivalent = append(bivalent, id)
		}
	}
	if !slices.Equal(order, bivalent) {
		return fmt.Errorf("region in BFS order %v, bivalent configurations %v", order, bivalent)
	}
	for _, id := range order {
		var rev []Step
		for at := id; region[at].prev >= 0; at = region[at].prev {
			rev = append(rev, region[at].step)
		}
		slices.Reverse(rev)
		if want := g.pathTo(id); !slices.Equal(rev, want) {
			return fmt.Errorf("config %d: region path %v, pathTo %v", id, rev, want)
		}
	}
	return nil
}

// SafetyAllocs is the average number of allocations of intern's safety
// note over every configuration of ck's last Check, which must have
// found no unsafe configuration.
func SafetyAllocs(ck *Checker) float64 {
	g := ck.g
	return testing.AllocsPerRun(10, func() {
		for id := range g.configs {
			g.noteUnsafe(id, g.configAt(id))
		}
	})
}

// UnsafeID is the first configuration intern found failing the task's
// safety predicate in rep's graph, -1 when none.
func UnsafeID(rep *Report) int { return rep.g.unsafe }

// refSucc is one successor of the reference expansion: its step, its
// configuration's key, and under symmetry the group element that
// canonicalizes it and its orbit size.
type refSucc struct {
	step      Step
	key       []byte
	gi, orbit int
}

// referenceSuccs expands c the way the step is defined, with no memo:
// poised and step per live process and branch, after, and AppendKey,
// or under grp referenceCanonical on sc.
func referenceSuccs(sys *System, grp *group, sc *keyScratch, c *Config) ([]refSucc, error) {
	var ref []refSucc
	for i := range c.Procs {
		if !c.Live(i) {
			continue
		}
		p, ts, err := sys.poised(c, i)
		if err != nil {
			return nil, err
		}
		for b := range ts {
			m, err := sys.step(c, i, p, ts, b)
			if err != nil {
				return nil, err
			}
			r := refSucc{step: m.Step, orbit: 1}
			if grp == nil {
				r.key = c.after(m, nil).AppendKey(nil)
			} else {
				r.key, r.gi, r.orbit = grp.referenceCanonical(sc, c.after(m, nil))
			}
			ref = append(ref, r)
		}
	}
	return ref, nil
}

// MemoExpansions compares memo-served expansion with the reference on
// every configuration of the graph a Check on ck left. It expands each
// configuration, in id order, on every step memo the Check left warm,
// then on the first of them reset (a new generation that keeps the
// object half), and then on one fresh memo that fills as it goes. A
// configuration still resident from the Check is expanded as it is,
// with the handles it carries; a spilled one is replayed. Each
// expansion's (step, successor key) list must equal, in order, the
// reference's, and under symmetry each successor's group element and
// orbit size too (the orbit is the one its representative was interned
// with); the expansion must leave the configuration's key as it was. It
// returns the number of expansions compared and of successors on a
// branch other than an object's first.
func MemoExpansions(ck *Checker) (n, branched int, err error) {
	g := ck.g
	var memos []*stepMemo
	for _, out := range ck.shards {
		memos = append(memos, out.memo)
	}
	fresh := newStepMemo()
	fresh.reset(g.sys.Objects, g.grp)
	memos = append(memos, nil, fresh)
	local, _ := store.Open(store.Options{}, nil)
	st := &search{g: g}
	var sc keyScratch
	for k, mo := range memos {
		if mo == nil {
			mo = memos[0]
			mo.reset(g.sys.Objects, g.grp)
		}
		out := &shardOut{local: local, memo: mo}
		for id := range g.configs {
			c := g.configAt(id)
			before := c.AppendKey(nil)
			ref, err := referenceSuccs(g.sys, g.grp, &sc, c)
			if err != nil {
				return n, branched, err
			}
			out.reset(id)
			if err := st.expand(out, c); err != nil {
				return n, branched, fmt.Errorf("memo %d, config %d: %w", k, id, err)
			}
			if !bytes.Equal(c.AppendKey(nil), before) {
				return n, branched, fmt.Errorf("memo %d, config %d: expansion changed the configuration", k, id)
			}
			if out.nSuccs != len(ref) {
				return n, branched, fmt.Errorf("memo %d, config %d: %d successors, reference %d", k, id, out.nSuccs, len(ref))
			}
			for j, r := range ref {
				s := &out.succs[j/succChunk][j%succChunk]
				step := out.step(s)
				var key []byte
				orbit := 1
				if s.id >= 0 {
					key = g.disk.s.Key(int(s.id))
					if g.grp != nil {
						orbit = g.orbit[s.id]
					}
				} else {
					key, orbit = out.local.Key(int(^s.id)), out.orbits[^s.id]
				}
				if step != r.step || !bytes.Equal(key, r.key) || int(s.gi) != r.gi || orbit != r.orbit {
					return n, branched, fmt.Errorf("memo %d, config %d, successor %d: %v to %x (gi %d, orbit %d), reference %v to %x (gi %d, orbit %d)",
						k, id, j, step, key, s.gi, orbit, r.step, r.key, r.gi, r.orbit)
				}
				if step.Branch > 0 {
					branched++
				}
			}
			n++
		}
	}
	return n, branched, nil
}

// MemoIntact checks, after a Check on ck, that every state the step
// memos hold still encodes to the key bytes cached with it (and, under
// symmetry, to its cached blocks), that every resident configuration
// still encodes to the key the store copied when it was interned
// (under symmetry, once moved by the group element that canonicalized
// it), and that every resident configuration whose handles are live
// re-encodes through its entries' key bytes to its own key too. It
// returns the number of memo states and of configurations with live
// handles.
func MemoIntact(ck *Checker) (states, handled int, err error) {
	for k, out := range ck.shards {
		m := out.memo
		for e := range m.pents {
			if !bytes.Equal(m.pents[e].state.AppendKey(nil), m.procKey(int32(e))) {
				return states, handled, fmt.Errorf("memo %d: process state %d no longer encodes to its cached key", k, e)
			}
			for t := 0; m.grp != nil && t < len(m.grp.vmaps); t++ {
				b := m.block(int32(e), t)
				if !bytes.Equal(m.pents[e].state.AppendKeyWithPid(nil, m.grp.vmaps[t], 0), m.bkeys[b.lo:b.hi]) {
					return states, handled, fmt.Errorf("memo %d: process state %d no longer encodes to its cached block %d", k, e, t)
				}
			}
		}
		for e := range m.oents {
			if !bytes.Equal(spec.AppendStateKey(nil, m.oents[e].state), m.objKey(int32(e))) {
				return states, handled, fmt.Errorf("memo %d: object state %d no longer encodes to its cached key", k, e)
			}
		}
		states += len(m.pents) + len(m.oents)
	}
	g := ck.g
	for id, c := range g.configs {
		if c == nil {
			continue
		}
		want, own := g.disk.s.Key(id), c.AppendKey(nil)
		key := own
		if g.grp != nil {
			key = c.AppendKeyUnder(nil, g.grp.element(g.canon[id]))
		}
		if !bytes.Equal(key, want) {
			return states, handled, fmt.Errorf("resident configuration %d no longer encodes to its interned key", id)
		}
		m := c.memo
		if m == nil || c.mgen != m.gen {
			continue
		}
		key = binary.AppendUvarint(nil, c.SteppedMask)
		for k, e := range c.hnd {
			if k < len(c.Procs) {
				key = append(key, m.procKey(e)...)
			} else {
				key = append(key, m.objKey(e)...)
			}
		}
		if !bytes.Equal(key, own) {
			return states, handled, fmt.Errorf("resident configuration %d's handles encode to %x, its key is %x", id, key, own)
		}
		handled++
	}
	return states, handled, nil
}

// WarmExpandAllocs is the average number of allocations of expanding
// every configuration of the graph a one-worker Check on ck left, on
// the step memo that Check warmed. Every successor is interned by then.
func WarmExpandAllocs(ck *Checker) float64 {
	g := ck.g
	for id := range g.configs {
		g.configAt(id)
	}
	local, _ := store.Open(store.Options{}, nil)
	out := &shardOut{local: local, memo: ck.shards[0].memo}
	st := &search{g: g}
	return testing.AllocsPerRun(10, func() {
		for id, c := range g.configs {
			out.reset(id)
			if err := st.expand(out, c); err != nil || len(out.cfgs) != 0 {
				panic(fmt.Sprintf("config %d: %v, %d successors not interned", id, err, len(out.cfgs)))
			}
		}
	})
}
