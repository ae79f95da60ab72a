// Symmetry reduction: orbit-canonical interning of configurations.
//
// A system whose processes run identical code and differ only in their
// ids (and, optionally, their proposed values) admits a group of
// configuration-graph automorphisms: renaming process ids (together
// with ports in object states and, in SymmetryValues mode, application
// values) maps reachable configurations to reachable configurations
// and commutes with the step relation. The explorer exploits this by
// interning every configuration under the lexicographically minimal
// binary key in its orbit, so each orbit is expanded once.
//
// Stored configurations remain CONCRETE: the representative kept for
// an orbit is the first concrete member discovered, and the BFS tree
// edges connect concrete configurations, so pathTo witnesses are
// genuine executions with no de-canonicalization step. Each interned
// configuration additionally records the group element mapping it to
// the canonical key (graph.canon) and each edge records the element
// relating the concrete successor to the stored representative
// (edge.g); the lifted walkers below use these annotations to turn
// quotient cycles back into concrete schedules.
package explore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"setagree/internal/machine"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// Symmetry selects the exploration's symmetry-reduction mode.
type Symmetry uint8

// Symmetry modes.
const (
	// SymmetryOff explores the concrete configuration graph (default).
	SymmetryOff Symmetry = iota
	// SymmetryIDs quotients by admissible process-id permutations: ids
	// of processes running the same program with the same input may be
	// exchanged. Values are untouched, so valency analysis stays exact.
	SymmetryIDs
	// SymmetryValues additionally permutes application values: ids of
	// processes running the same program may be exchanged when some
	// value bijection carries their inputs onto each other. Requires
	// every program to treat values opaquely (no arithmetic).
	SymmetryValues
)

// String names the mode as ParseSymmetry accepts it.
func (s Symmetry) String() string {
	switch s {
	case SymmetryOff:
		return "off"
	case SymmetryIDs:
		return "ids"
	case SymmetryValues:
		return "values"
	default:
		return "symmetry(" + fmt.Sprint(uint8(s)) + ")"
	}
}

// ParseSymmetry parses a symmetry mode name: "off", "ids" (alias
// "process-ids"), or "values" (alias "process-and-values").
func ParseSymmetry(s string) (Symmetry, error) {
	switch s {
	case "", "off":
		return SymmetryOff, nil
	case "ids", "process-ids":
		return SymmetryIDs, nil
	case "values", "process-and-values":
		return SymmetryValues, nil
	default:
		return SymmetryOff, fmt.Errorf("explore: unknown symmetry mode %q (want off, ids, or values)", s)
	}
}

// Symmetry failure modes.
var (
	// ErrNotSymmetric reports that the system lacks the structure the
	// requested symmetry mode needs: an object state that does not
	// implement spec.Symmetric, a program whose pid register escapes
	// into general computation, or (in SymmetryValues mode) a program
	// that computes on values.
	ErrNotSymmetric = errors.New("system does not admit symmetry reduction")
	// ErrSymmetryUnsupported reports an analysis that is unsound over
	// the quotient graph: resilience-bounded liveness, valency labels
	// under value permutation, adversary construction, or a symmetry
	// group too large to materialize.
	ErrSymmetryUnsupported = errors.New("analysis not supported under symmetry reduction")
)

// maxGroupOrder caps the materialized permutation group (8!): beyond
// it, the per-successor scan over every group element (and the |G|²
// multiplication table) would dominate any savings.
const maxGroupOrder = 40320

// group is the materialized admissible symmetry group. perms[0] is
// always the identity (the lexicographic generation order guarantees
// it); comp[a][b] indexes the composition a∘b, defined by
// (a∘b)·C = a·(b·C); inv[a] indexes a's inverse. vcls[a] indexes the
// value map perms[a] applies among the distinct maps in vmaps (each a
// Perm carrying only Vals); in SymmetryIDs mode every element shares
// the single identity map.
type group struct {
	perms []spec.Perm
	comp  [][]int
	inv   []int
	vcls  []int
	vmaps []spec.Perm
}

// errGroupTooBig aborts group enumeration past maxGroupOrder.
var errGroupTooBig = errors.New("group too big")

// buildGroup computes the admissible symmetry group of the system: the
// process permutations σ (paired, in SymmetryValues mode, with the
// value bijection τ they induce on the inputs) under which the step
// relation, the initial configuration, and the task predicates are all
// invariant. Admissibility requires, per the analyses documented on
// machine.AnalyzeSymmetry and spec.Symmetric:
//
//   - σ(i) = j only when processes i and j run the same program;
//   - σ fixes every process owning a hard-coded port label and, for
//     n-DAC tasks, the distinguished process;
//   - SymmetryIDs: inputs are preserved literally (τ = id);
//   - SymmetryValues: τ(Inputs[i]) := Inputs[σ(i)] is well defined and
//     injective, and fixes every program constant, 0 and 1, and the
//     sentinels (programs must also be value-safe: no arithmetic).
//
// The admissible set is closed under composition and inverse (the
// constraints compose), so it is a group; comp and inv record its
// multiplication table.
func buildGroup(sys *System, tsk task.Task, mode Symmetry) (*group, error) {
	n := sys.Procs()
	for j, o := range sys.Objects {
		if _, ok := o.Init().(spec.Symmetric); !ok {
			return nil, fmt.Errorf("explore: object %d state (%T) does not implement spec.Symmetric: %w",
				j, o.Init(), ErrNotSymmetric)
		}
	}
	infos := make([]machine.SymmetryInfo, n)
	for i := range sys.Programs {
		inf, err := machine.AnalyzeSymmetry(sys.Programs[i])
		if err != nil {
			return nil, fmt.Errorf("explore: %v: %w", err, ErrNotSymmetric)
		}
		infos[i] = inf
	}
	if mode == SymmetryValues {
		for i, inf := range infos {
			if !inf.ValueSafe {
				return nil, fmt.Errorf("explore: program %s of process %d computes on values; only the identity value permutation is sound: %w",
					sys.Programs[i].Name, i+1, ErrNotSymmetric)
			}
		}
	}

	fixed := make([]bool, n)
	consts := map[value.Value]bool{0: true}
	for _, inf := range infos {
		for _, l := range inf.FixedPorts {
			if l >= 1 && l <= n {
				fixed[l-1] = true
			}
		}
		for _, v := range inf.Constants {
			consts[v] = true
		}
	}
	if tsk != nil {
		live := tsk.Liveness()
		if !live.WaitFree && live.DACDistinguished < 0 {
			// Resilience-bounded liveness counts per-SCC crashed
			// processes, which lifted translates of a quotient SCC do
			// not agree on.
			return nil, fmt.Errorf("explore: resilience-bounded liveness (tolerance %d) needs the concrete graph: %w",
				live.Tolerance, ErrSymmetryUnsupported)
		}
		if d := live.DACDistinguished; d >= 0 && d < n {
			fixed[d] = true
			// The DAC safety predicate distinguishes decisions 0 and 1.
			consts[0] = true
			consts[1] = true
		}
	}

	var perms []spec.Perm
	used := make([]bool, n)
	img := make([]int, n)
	var rec func(i int) error
	rec = func(i int) error {
		if i == n {
			var vals map[value.Value]value.Value
			if mode == SymmetryValues {
				vals = make(map[value.Value]value.Value, n)
				for p, q := range img {
					v, w := sys.Inputs[p], sys.Inputs[q]
					if prev, ok := vals[v]; ok {
						if prev != w {
							return nil // τ not well defined for this σ
						}
						continue
					}
					vals[v] = w
				}
				seen := make(map[value.Value]bool, len(vals))
				identity := true
				for v, w := range vals {
					if seen[w] {
						return nil // τ not injective
					}
					seen[w] = true
					if v != w {
						identity = false
						if consts[v] || consts[w] || v.IsSentinel() || w.IsSentinel() {
							return nil // τ moves a constant or sentinel
						}
					}
				}
				if identity {
					vals = nil
				}
			}
			proc := make([]int, n)
			copy(proc, img)
			perms = append(perms, spec.MakePerm(proc, vals))
			if len(perms) > maxGroupOrder {
				return errGroupTooBig
			}
			return nil
		}
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			if (fixed[i] || fixed[j]) && i != j {
				continue
			}
			if !machine.SamePrograms(sys.Programs[i], sys.Programs[j]) {
				continue
			}
			if mode == SymmetryIDs && sys.Inputs[i] != sys.Inputs[j] {
				continue
			}
			img[i] = j
			used[j] = true
			if err := rec(i + 1); err != nil {
				return err
			}
			used[j] = false
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, fmt.Errorf("explore: symmetry group exceeds %d elements: %w",
			maxGroupOrder, ErrSymmetryUnsupported)
	}
	if len(perms) == 0 || !perms[0].Identity() {
		return nil, fmt.Errorf("explore: internal: identity permutation not first in group enumeration: %w",
			ErrNotSymmetric)
	}

	// Multiplication table. σ alone identifies a group element (τ is a
	// function of σ), so index by the byte-encoded process map.
	keyOf := func(proc []int) string {
		b := make([]byte, len(proc))
		for i, j := range proc {
			b[i] = byte(j)
		}
		return string(b)
	}
	idx := make(map[string]int, len(perms))
	for k, p := range perms {
		idx[keyOf(p.Proc)] = k
	}
	grp := &group{
		perms: perms,
		comp:  make([][]int, len(perms)),
		inv:   make([]int, len(perms)),
	}
	grp.vcls, grp.vmaps = valueClasses(perms)
	buf := make([]int, n)
	for a := range perms {
		grp.comp[a] = make([]int, len(perms))
		for b := range perms {
			for i := 0; i < n; i++ {
				buf[i] = perms[a].Proc[perms[b].Proc[i]]
			}
			k, ok := idx[keyOf(buf)]
			if !ok {
				return nil, fmt.Errorf("explore: internal: admissible permutations not closed under composition: %w",
					ErrNotSymmetric)
			}
			grp.comp[a][b] = k
			if k == 0 {
				grp.inv[a] = b
			}
		}
	}
	return grp, nil
}

// valueClasses groups perms by the value map they apply: cls[k]
// indexes perms[k]'s map in maps, numbered in order of first use (so
// the identity's class is 0).
func valueClasses(perms []spec.Perm) (cls []int, maps []spec.Perm) {
	cls = make([]int, len(perms))
	idx := map[string]int{}
	var vs []value.Value
	var enc []byte
	for k, p := range perms {
		vs = vs[:0]
		for v, w := range p.Vals {
			if v != w {
				vs = append(vs, v)
			}
		}
		slices.Sort(vs)
		enc = enc[:0]
		for _, v := range vs {
			enc = binary.AppendVarint(enc, int64(v))
			enc = binary.AppendVarint(enc, int64(p.Vals[v]))
		}
		c, ok := idx[string(enc)]
		if !ok {
			c = len(maps)
			idx[string(enc)] = c
			maps = append(maps, spec.Perm{Vals: p.Vals})
		}
		cls[k] = c
	}
	return cls, maps
}

// checkRootStable verifies every group element fixes the initial
// configuration — guaranteed by the admissibility constraints (equal
// programs and compatible inputs produce identical start states up to
// the pid register), so a failure indicates an encoder bug rather than
// an asymmetric system. Cheap insurance run once per Check.
func (grp *group) checkRootStable(root *Config) error {
	ref := root.AppendKey(nil)
	var buf []byte
	for k := 1; k < len(grp.perms); k++ {
		buf = root.AppendKeyUnder(buf[:0], grp.perms[k])
		if !bytes.Equal(buf, ref) {
			return fmt.Errorf("explore: internal: admissible permutation %d does not stabilize the initial configuration: %w",
				k, ErrNotSymmetric)
		}
	}
	return nil
}

// keyScratch is the per-shard reusable key workspace. Pooling it
// keeps successor canonicalization allocation-free across shards,
// levels, and runs.
type keyScratch struct {
	// best holds the key canonical returns; cand and objs hold object
	// keys of a tied candidate and of the running minimum.
	best []byte
	cand []byte
	objs []byte
	// blocks holds the process blocks canonical has rendered this call,
	// refs their spans and per-class ranks (indexed class*n + process),
	// and stamp[class] == gen marks a class rendered this call.
	blocks []byte
	refs   []blockRef
	stamp  []uint32
	gen    uint32
	// Spliced-expansion scratch (symmetry off, expandShardSpliced): the
	// parent key and its per-component end offsets.
	parent []byte
	ends   []int
}

// blockRef locates one rendered process block in keyScratch.blocks;
// rank orders it among the blocks of its value-map class (equal bytes,
// equal rank).
type blockRef struct {
	lo, hi, rank int32
}

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// canonical renders the canonical (orbit-minimal) key of c into sc and
// returns it along with the index gi of the first group element
// realizing the minimum (gi == 0 iff c's own key is canonical) and the
// orbit size |G|/|stabilizer| (the stabilizer is exactly the coset of
// elements tying the minimal key, by orbit–stabilizer).
//
// The returned slice aliases sc; callers copy it before reuse. The
// scan visits the group in order, exactly as a full render-and-compare
// of every element would, but compares keys piecewise: a key is the
// stepped-mask uvarint, then one block per process slot, then the
// object keys, and the mask and blocks are self-delimiting, so the
// first differing piece decides the order. The mask compares as an
// integer. Each process's block is rendered once per value-map class,
// with its pid register masked (every block bound for slot j carries
// pid j+1), and ranked within its class, so a slot compares as two
// ranks (bytes only across classes). Object keys are rendered only for
// candidates tying on every slot, and the winner's key once, at the
// end.
func (grp *group) canonical(sc *keyScratch, c *Config) (key []byte, gi, orbit int) {
	sc.reset(grp, len(c.Procs))
	bestMask := c.SteppedMask
	bestObjs := false // sc.objs holds the object keys under perms[gi]
	ties := 1
	for k := 1; k < len(grp.perms); k++ {
		mask := permuteMask(c.SteppedMask, grp.perms[k])
		d := cmpUvarint(mask, bestMask)
		if d == 0 {
			d = sc.cmpProcs(grp, c, k, gi)
		}
		if d == 0 {
			if !bestObjs {
				sc.objs = grp.appendObjKeys(sc.objs[:0], c, gi)
				bestObjs = true
			}
			sc.cand = grp.appendObjKeys(sc.cand[:0], c, k)
			if d = bytes.Compare(sc.cand, sc.objs); d < 0 {
				sc.objs, sc.cand = sc.cand, sc.objs
				gi, ties = k, 1
				continue
			}
		}
		switch {
		case d < 0:
			gi, bestMask, ties, bestObjs = k, mask, 1, false
		case d == 0:
			ties++
		}
	}
	if gi == 0 {
		sc.best = c.AppendKey(sc.best[:0])
	} else {
		sc.best = c.AppendKeyUnder(sc.best[:0], grp.perms[gi])
	}
	return sc.best, gi, len(grp.perms) / ties
}

// reset starts a canonical call over an n-process configuration:
// every class is unrendered and the block arena is empty.
func (sc *keyScratch) reset(grp *group, n int) {
	if sc.gen++; sc.gen == 0 {
		clear(sc.stamp)
		sc.gen = 1
	}
	if len(sc.stamp) < len(grp.vmaps) {
		sc.stamp = make([]uint32, len(grp.vmaps))
	}
	if len(sc.refs) < len(grp.vmaps)*n {
		sc.refs = make([]blockRef, len(grp.vmaps)*n)
	}
	sc.blocks = sc.blocks[:0]
}

// renderClass renders and ranks c's process blocks under value-map
// class cl, once per canonical call.
func (sc *keyScratch) renderClass(grp *group, c *Config, cl int) {
	if sc.stamp[cl] == sc.gen {
		return
	}
	sc.stamp[cl] = sc.gen
	n := len(c.Procs)
	refs := sc.refs[cl*n : (cl+1)*n]
	for i := range c.Procs {
		lo := len(sc.blocks)
		sc.blocks = c.Procs[i].AppendKeyWithPid(sc.blocks, grp.vmaps[cl], 0)
		refs[i] = blockRef{lo: int32(lo), hi: int32(len(sc.blocks))}
	}
	// A block's rank is the number of strictly smaller blocks: equal
	// blocks share a rank and ranks order as the bytes do.
	for i := range refs {
		for j := i + 1; j < len(refs); j++ {
			switch bytes.Compare(sc.block(refs[i]), sc.block(refs[j])) {
			case -1:
				refs[j].rank++
			case 1:
				refs[i].rank++
			}
		}
	}
}

// block returns the rendered bytes r locates.
func (sc *keyScratch) block(r blockRef) []byte { return sc.blocks[r.lo:r.hi] }

// cmpProcs compares the process blocks of perms[a]·c and perms[b]·c
// slot by slot: slot j holds the block of process Inv[j].
func (sc *keyScratch) cmpProcs(grp *group, c *Config, a, b int) int {
	ca, cb := grp.vcls[a], grp.vcls[b]
	sc.renderClass(grp, c, ca)
	sc.renderClass(grp, c, cb)
	n := len(c.Procs)
	ra, rb := sc.refs[ca*n:(ca+1)*n], sc.refs[cb*n:(cb+1)*n]
	ia, ib := grp.perms[a].Inv, grp.perms[b].Inv
	for j := 0; j < n; j++ {
		x, y := ra[ia[j]], rb[ib[j]]
		if ca == cb {
			if x.rank != y.rank {
				return cmp.Compare(x.rank, y.rank)
			}
		} else if d := bytes.Compare(sc.block(x), sc.block(y)); d != 0 {
			return d
		}
	}
	return 0
}

// appendObjKeys appends the object keys of perms[k]·c, the tail of its
// configuration key.
func (grp *group) appendObjKeys(dst []byte, c *Config, k int) []byte {
	if k == 0 {
		return c.appendObjKeys(dst)
	}
	return c.appendObjKeysUnder(dst, grp.perms[k])
}

// cmpUvarint orders a and b as their binary.AppendUvarint encodings
// order bytewise.
func cmpUvarint(a, b uint64) int {
	for {
		x, y := a&0x7f, b&0x7f
		if a >= 0x80 {
			x |= 0x80
		}
		if b >= 0x80 {
			y |= 0x80
		}
		if x != y {
			return cmp.Compare(x, y)
		}
		if a < 0x80 {
			return 0
		}
		a, b = a>>7, b>>7
	}
}

// permuteMask applies the process permutation to a stepped-bit mask;
// bits at or above the permutation's degree are unchanged.
func permuteMask(mask uint64, p spec.Perm) uint64 {
	n := len(p.Proc)
	if n == 0 {
		return mask
	}
	out := mask >> uint(n) << uint(n)
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			out |= 1 << uint(p.Proc[i])
		}
	}
	return out
}

// permuteStep renders the concrete step a p-translate of an execution
// takes where the original takes s: the process and any port label are
// renamed through p, value payloads through τ. Branch indices are
// p-equivariant (every object's transition order is positional in
// state components that permute with p), so Branch is unchanged.
func permuteStep(s Step, p spec.Perm) Step {
	s.Proc = p.ProcIdx(s.Proc)
	if s.Op.Method.TakesArg() {
		s.Op.Arg = p.Val(s.Op.Arg)
	}
	if s.Op.Method.LabelIsPort() {
		s.Op.Label = p.Port(s.Op.Label)
	}
	s.Resp = p.Val(s.Resp)
	return s
}

// liftNode is one node of the lifted graph walked below: the concrete
// configuration perms[h]·R_v, where R_v is the stored representative
// of quotient node v.
type liftNode struct {
	v, h int
}

// stabChecker memoizes membership in the stabilizer of one stored
// configuration (whether perms[h] fixes it), keyed by group index. The
// configuration is rebuilt (see configAt) only when a non-identity
// element is first tested, which many lifted walks never do: the
// identity needs no check.
type stabChecker struct {
	g     *graph
	id    int
	cfg   *Config
	ref   []byte
	buf   []byte
	known map[int]bool
}

func (g *graph) stabilizerOf(id int) *stabChecker {
	return &stabChecker{g: g, id: id, known: map[int]bool{0: true}}
}

func (s *stabChecker) contains(h int) bool {
	if in, ok := s.known[h]; ok {
		return in
	}
	if s.cfg == nil {
		s.cfg = s.g.configAt(s.id)
		s.ref = s.cfg.AppendKey(nil)
	}
	s.buf = s.cfg.AppendKeyUnder(s.buf[:0], s.g.grp.perms[h])
	in := bytes.Equal(s.buf, s.ref)
	s.known[h] = in
	return in
}

// liftedSolo reports whether a concrete solo cycle of process i passes
// through (a translate of) the quotient edge en out of from: a lifted
// walk from (en.to, en.g) back to (from, h) for some stabilizing h,
// every step of which is concretely an i-step. Each quotient edge
// (u→v, step s, g) lifts from (u, h) to (v, comp[h][g]) taking the
// concrete step permuteStep(s, perms[h]); the walk closes concretely
// exactly when it returns to from with h in the stabilizer of the
// stored representative. Sound and complete for the concrete graph:
// a lifted cycle projects to a concrete one by construction, and any
// concrete solo cycle translates into the lifted graph edge by edge.
func (g *graph) liftedSolo(from int, en edge, comp []int) bool {
	grp := g.grp
	i := en.step.Proc
	stab := g.stabilizerOf(from)
	start := liftNode{en.to, en.g}
	if start.v == from && stab.contains(start.h) {
		return true
	}
	seen := map[liftNode]bool{start: true}
	queue := []liftNode{start}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for it := g.edgeIter(at.v); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if comp[e.to] != comp[at.v] {
				continue
			}
			if grp.perms[at.h].ProcIdx(e.step.Proc) != i {
				continue
			}
			nx := liftNode{e.to, grp.comp[at.h][e.g]}
			if seen[nx] {
				continue
			}
			if nx.v == from && stab.contains(nx.h) {
				return true
			}
			seen[nx] = true
			queue = append(queue, nx)
		}
	}
	return false
}

// liftedCycle extracts a concrete cycle schedule through the quotient
// edge en out of from: the entry step followed by lifted steps back to
// a stabilizing return. soloOnly restricts the walk to concrete
// i-steps (Termination (b)); liftedSolo has then already established
// existence. For the unrestricted kinds a returning lifted walk always
// exists once the quotient edge lies in a cyclic SCC: iterating any
// quotient loop multiplies the accumulated group element, which has
// finite order, so some iterate lands in the stabilizer.
func (g *graph) liftedCycle(from int, en edge, i int, soloOnly bool, comp []int) []Step {
	grp := g.grp
	stab := g.stabilizerOf(from)
	start := liftNode{en.to, en.g}
	if start.v == from && stab.contains(start.h) {
		return []Step{en.step}
	}
	type crumb struct {
		prev liftNode
		step Step
		root bool
	}
	crumbs := map[liftNode]crumb{start: {root: true}}
	queue := []liftNode{start}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for it := g.edgeIter(at.v); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if comp[e.to] != comp[at.v] {
				continue
			}
			cstep := permuteStep(e.step, grp.perms[at.h])
			if soloOnly && cstep.Proc != i {
				continue
			}
			nx := liftNode{e.to, grp.comp[at.h][e.g]}
			if _, ok := crumbs[nx]; ok {
				continue
			}
			crumbs[nx] = crumb{prev: at, step: cstep}
			if nx.v == from && stab.contains(nx.h) {
				var rev []Step
				for n := nx; ; n = crumbs[n].prev {
					cr := crumbs[n]
					if cr.root {
						break
					}
					rev = append(rev, cr.step)
				}
				cyc := make([]Step, 0, len(rev)+1)
				cyc = append(cyc, en.step)
				for k := len(rev) - 1; k >= 0; k-- {
					cyc = append(cyc, rev[k])
				}
				return cyc
			}
			queue = append(queue, nx)
		}
	}
	return nil
}

// SymmetryGroupOrder returns the order of the admissible symmetry
// group the exploration quotiented by (1 when symmetry was off or the
// group is trivial).
func (r *Report) SymmetryGroupOrder() int {
	if r.g == nil || r.g.grp == nil {
		return 1
	}
	return len(r.g.grp.perms)
}
