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
	"math"
	"math/bits"
	"slices"

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

// maxValueMaps caps the value maps buildGroup enumerates (8!):
// canonical places the processes once per map, so past it the
// per-successor cost would dominate any savings.
const maxValueMaps = 40320

// group is the admissible symmetry group, kept as its structure rather
// than as a list of elements. G is the union, over the admissible value
// maps τ, of cosets C_τ: C_τ holds exactly the process permutations σ
// that send every process into the τ-image of its class (tgt below), so
// each coset is a product of symmetric groups, one per class. canonical
// builds the orbit minimum by sorting instead of scanning G, and an
// element is named by its index in the lexicographic order of the
// forward maps Proc, computed by rank and unrank; index 0 is the
// identity.
type group struct {
	n, order int
	// cls[i] is process i's class: the processes it may trade places
	// with (same program and input, neither of them fixed). A fixed
	// process is a class of its own. slots[k] is class k's member
	// bitmask.
	cls   []int
	slots []uint64
	// vmaps holds one value map per coset, the identity first, each a
	// Perm carrying only Vals; SymmetryIDs has just the identity.
	// tgt[t][k] is the class whose slots class k's processes fill
	// under vmaps[t].
	vmaps []spec.Perm
	tgt   [][]int
	// tail[i] counts the completions of an admissible prefix σ(0), …,
	// σ(i) within its coset: the product over classes of (members not
	// yet placed)!, the same in every coset.
	tail []int
	// elems caches unranked elements for relate and the analyses.
	elems elemCache
}

// factorial[k] is k!; 20! is the largest that fits an int64, and a
// class of 21 processes overflows the group order anyway.
var factorial = func() (f [21]int) {
	f[0] = 1
	for k := 1; k < len(f); k++ {
		f[k] = f[k-1] * k
	}
	return f
}()

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
// constraints compose), so it is a group. Its order is the number of
// value maps times the product of the class sizes' factorials; an
// order that does not fit an int is ErrSymmetryUnsupported.
func buildGroup(sys *System, tsk task.Task, mode Symmetry) (*group, error) {
	n := sys.Procs()
	if n > MaxProcs {
		return nil, fmt.Errorf("explore: %d processes exceed the %d-process bound: %w", n, MaxProcs, ErrSymmetryUnsupported)
	}
	fixed, consts, err := admissibility(sys, tsk, mode)
	if err != nil {
		return nil, err
	}
	prog := programClasses(sys)
	grp := &group{n: n, cls: make([]int, n), tail: make([]int, n)}
	type classKey struct {
		prog int
		in   value.Value
	}
	byKey := map[classKey]int{}
	var keys []classKey
	for i := 0; i < n; i++ {
		k := classKey{prog[i], sys.Inputs[i]}
		if fixed[i] {
			k = classKey{-1 - i, 0}
		}
		cl, ok := byKey[k]
		if !ok {
			cl = len(grp.slots)
			byKey[k] = cl
			keys = append(keys, k)
			grp.slots = append(grp.slots, 0)
		}
		grp.cls[i] = cl
		grp.slots[cl] |= 1 << uint(i)
	}

	grp.vmaps = []spec.Perm{{}}
	if mode == SymmetryValues {
		maps, err := valueMaps(sys, fixed, consts, prog)
		if err != nil {
			return nil, err
		}
		grp.vmaps = make([]spec.Perm, len(maps))
		for t, m := range maps {
			grp.vmaps[t] = spec.Perm{Vals: m}
		}
	}
	grp.tgt = make([][]int, len(grp.vmaps))
	for t, vm := range grp.vmaps {
		grp.tgt[t] = make([]int, len(keys))
		for cl, k := range keys {
			if k.prog >= 0 {
				k.in = vm.Val(k.in)
			}
			grp.tgt[t][cl] = byKey[k]
		}
	}

	order := len(grp.vmaps)
	left := make([]int, len(grp.slots))
	for cl, s := range grp.slots {
		left[cl] = bits.OnesCount64(s)
		if left[cl] >= len(factorial) || order > math.MaxInt/factorial[left[cl]] {
			return nil, fmt.Errorf("explore: symmetry group order overflows an int: %w", ErrSymmetryUnsupported)
		}
		order *= factorial[left[cl]]
	}
	grp.order = order
	for i := range grp.tail {
		left[grp.cls[i]]--
		grp.tail[i] = 1
		for _, k := range left {
			grp.tail[i] *= factorial[k]
		}
	}
	return grp, nil
}

// admissibility checks that the system admits reduction under mode and
// returns the processes every admissible permutation fixes and the
// values every value map fixes.
func admissibility(sys *System, tsk task.Task, mode Symmetry) (fixed []bool, consts map[value.Value]bool, err error) {
	n := sys.Procs()
	for j, o := range sys.Objects {
		if _, ok := o.Init().(spec.Symmetric); !ok {
			return nil, nil, fmt.Errorf("explore: object %d state (%T) does not implement spec.Symmetric: %w",
				j, o.Init(), ErrNotSymmetric)
		}
	}
	infos := make([]machine.SymmetryInfo, n)
	for i := range sys.Programs {
		inf, err := machine.AnalyzeSymmetry(sys.Programs[i])
		if err != nil {
			return nil, nil, fmt.Errorf("explore: %v: %w", err, ErrNotSymmetric)
		}
		infos[i] = inf
	}
	if mode == SymmetryValues {
		for i, inf := range infos {
			if !inf.ValueSafe {
				return nil, nil, fmt.Errorf("explore: program %s of process %d computes on values; only the identity value permutation is sound: %w",
					sys.Programs[i].Name, i+1, ErrNotSymmetric)
			}
		}
	}

	fixed = make([]bool, n)
	consts = map[value.Value]bool{0: true}
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
			return nil, nil, fmt.Errorf("explore: resilience-bounded liveness (tolerance %d) needs the concrete graph: %w",
				live.Tolerance, ErrSymmetryUnsupported)
		}
		if d := live.DACDistinguished; d >= 0 && d < n {
			fixed[d] = true
			// The DAC safety predicate distinguishes decisions 0 and 1.
			consts[0] = true
			consts[1] = true
		}
	}
	return fixed, consts, nil
}

// programClasses numbers the processes' roles: prog[i] is the lowest
// process running the same program as process i and owning a port of
// the same ported objects (see portWidths).
func programClasses(sys *System) []int {
	widths := portWidths(sys)
	prog := make([]int, sys.Procs())
	for i := range prog {
		prog[i] = i
		for j := 0; j < i; j++ {
			if machine.SamePrograms(sys.Programs[i], sys.Programs[j]) && samePorts(widths, i, j) {
				prog[i] = prog[j]
				break
			}
		}
	}
	return prog
}

// portWidths lists the port counts of the system's spec.Ported objects
// narrower than the system: process i owns a port of such an object
// when i < width, and only permutations that map those owners onto
// themselves leave the object's port-indexed state keyable.
func portWidths(sys *System) []int {
	var widths []int
	for _, o := range sys.Objects {
		if p, ok := o.(spec.Ported); ok && p.Ports() < sys.Procs() {
			widths = append(widths, p.Ports())
		}
	}
	return widths
}

// samePorts reports whether processes i and j own ports of the same
// objects among those portWidths lists.
func samePorts(widths []int, i, j int) bool {
	for _, w := range widths {
		if (i < w) != (j < w) {
			return false
		}
	}
	return true
}

// valueMaps enumerates the admissible value maps, as bijections of the
// distinct inputs, in lexicographic order of their images: the identity
// (nil) first. A map may move v to w only when neither is pinned (a
// constant, a sentinel, or a fixed process's input) and every program
// runs equally many unfixed processes on v as on w, so that some
// process permutation induces it.
func valueMaps(sys *System, fixed []bool, consts map[value.Value]bool, prog []int) ([]map[value.Value]value.Value, error) {
	vs := slices.Clone(sys.Inputs)
	slices.Sort(vs)
	vs = slices.Compact(vs)
	pinned := make([]bool, len(vs))
	sig := make([][]int, len(vs)) // sig[a][p]: unfixed processes running program p on vs[a]
	for a, v := range vs {
		pinned[a] = consts[v] || v.IsSentinel()
		sig[a] = make([]int, len(prog))
	}
	for i, v := range sys.Inputs {
		a, _ := slices.BinarySearch(vs, v)
		if fixed[i] {
			pinned[a] = true
		} else {
			sig[a][prog[i]]++
		}
	}
	var maps []map[value.Value]value.Value
	img := make([]int, len(vs))
	used := make([]bool, len(vs))
	var rec func(a int) error
	rec = func(a int) error {
		if a == len(vs) {
			if len(maps) == maxValueMaps {
				return fmt.Errorf("explore: symmetry group has more than %d value maps: %w",
					maxValueMaps, ErrSymmetryUnsupported)
			}
			var m map[value.Value]value.Value
			for a, b := range img {
				if a != b {
					m = make(map[value.Value]value.Value, len(vs))
					break
				}
			}
			if m != nil {
				for a, b := range img {
					m[vs[a]] = vs[b]
				}
			}
			maps = append(maps, m)
			return nil
		}
		for b := range vs {
			if used[b] || (a != b && (pinned[a] || pinned[b] || !slices.Equal(sig[a], sig[b]))) {
				continue
			}
			img[a], used[b] = b, true
			if err := rec(a + 1); err != nil {
				return err
			}
			used[b] = false
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return maps, nil
}

// rank returns the index of the element with forward map proc in the
// lexicographic order of G's forward maps: for each coset, the members
// that agree with proc on a prefix and then place the next process in
// a lower free slot of its target class, tail[i] of them per slot.
func (grp *group) rank(proc []int) int {
	r := 0
	for _, tgt := range grp.tgt {
		var used uint64
		for i, j := range proc {
			free := grp.slots[tgt[grp.cls[i]]] &^ used
			bit := uint64(1) << uint(j)
			r += bits.OnesCount64(free&(bit-1)) * grp.tail[i]
			if free&bit == 0 {
				break // no member of this coset extends the prefix
			}
			used |= bit
		}
	}
	return r
}

// unrankInto writes element k's forward map into proc and returns its
// coset: at each position it skips whole blocks of elements, one per
// lower free slot and coset still agreeing with the prefix.
func (grp *group) unrankInto(k int, proc []int) (t int) {
	var buf [8]bool
	live := buf[:0]
	if len(grp.tgt) > len(buf) {
		live = make([]bool, 0, len(grp.tgt))
	}
	for range grp.tgt {
		live = append(live, true)
	}
	var used uint64
	for i := range proc {
		for j := 0; j < grp.n; j++ {
			bit := uint64(1) << uint(j)
			if used&bit != 0 {
				continue
			}
			cnt := 0
			for t, tgt := range grp.tgt {
				if live[t] && grp.slots[tgt[grp.cls[i]]]&bit != 0 {
					cnt++
				}
			}
			if k >= cnt*grp.tail[i] {
				k -= cnt * grp.tail[i]
				continue
			}
			proc[i] = j
			used |= bit
			for t, tgt := range grp.tgt {
				live[t] = live[t] && grp.slots[tgt[grp.cls[i]]]&bit != 0
			}
			break
		}
	}
	return slices.Index(live, true)
}

// elementInto unranks group element k into p, reusing its slices.
func (grp *group) elementInto(k int, p *spec.Perm) {
	p.Proc, p.Inv = resize(p.Proc, grp.n), resize(p.Inv, grp.n)
	p.Vals = grp.vmaps[grp.unrankInto(k, p.Proc)].Vals
	for i, j := range p.Proc {
		p.Inv[j] = i
	}
}

// compose returns the index of a∘b, defined by (a∘b)·C = a·(b·C).
func (grp *group) compose(a, b spec.Perm) int {
	var buf [MaxProcs]int
	proc := buf[:grp.n]
	for i := range proc {
		proc[i] = a.ProcIdx(b.ProcIdx(i))
	}
	return grp.rank(proc)
}

// relate returns the index of a⁻¹∘b, composed from the cached maps of
// a and b.
func (grp *group) relate(a, b int) int {
	switch {
	case a == b:
		return 0
	case a == 0:
		return b
	}
	var proc [MaxProcs]int
	fb, _, _ := grp.elem(b)
	for i, j := range fb {
		proc[i] = int(j)
	}
	// b's entry may share a's slot: read it before a's lookup evicts it.
	_, ia, _ := grp.elem(a)
	for i := range grp.n {
		proc[i] = int(ia[proc[i]])
	}
	return grp.rank(proc[:grp.n])
}

// maxElems bounds the element cache's entries, whatever the group
// order.
const maxElems = 1024

// elemCache holds the forward and inverse maps and the coset of
// recently used group elements, direct-mapped by index: entry e serves
// element idx[e], its maps are maps[2ne:2ne+n] and maps[2ne+n:2n(e+1)],
// and idx[e] < 0 marks it empty. The merge and the post-BFS analyses,
// which run single-threaded, are its only users.
type elemCache struct {
	idx   []int
	coset []int32
	maps  []uint8
	shift uint
}

// elem returns element k's forward map, its inverse and its coset,
// unranking k only when its entry holds another element. The maps
// alias the cache and stay valid until the next lookup.
func (grp *group) elem(k int) (fwd, inv []uint8, t int) {
	c, n := &grp.elems, grp.n
	if c.idx == nil {
		size := 1
		for size < min(grp.order, maxElems) {
			size *= 2
		}
		c.idx, c.coset, c.maps = make([]int, size), make([]int32, size), make([]uint8, 2*n*size)
		for e := range c.idx {
			c.idx[e] = -1
		}
		c.shift = uint(64 - bits.TrailingZeros(uint(size)))
	}
	e := int(uint64(k) * 0x9e3779b97f4a7c15 >> c.shift) // Fibonacci hashing; 0 when size is 1
	m := c.maps[2*n*e : 2*n*(e+1)]
	if c.idx[e] != k {
		var proc [MaxProcs]int
		c.idx[e], c.coset[e] = k, int32(grp.unrankInto(k, proc[:n]))
		for i, j := range proc[:n] {
			m[i], m[n+j] = uint8(j), uint8(i)
		}
	}
	return m[:n], m[n:], int(c.coset[e])
}

// rootOrbits returns, per process, the least process of its orbit
// under the whole group, which stabilizes the initial configuration:
// the union of the classes its class's targets name.
func (grp *group) rootOrbits() []uint8 {
	orbs := make([]uint8, grp.n)
	for i, k := range grp.cls {
		var orb uint64
		for _, tgt := range grp.tgt {
			orb |= grp.slots[tgt[k]]
		}
		orbs[i] = uint8(bits.TrailingZeros64(orb))
	}
	return orbs
}

// checkRootStable verifies the group fixes the initial configuration —
// guaranteed by the admissibility constraints (equal programs and
// compatible inputs produce identical start states up to the pid
// register), so a failure indicates an encoder bug rather than an
// asymmetric system. Checking generators suffices: the transpositions
// of adjacent members of each class generate the identity coset, and
// one element of each other coset moves it onto the rest. Cheap
// insurance run once per Check.
func (grp *group) checkRootStable(root *Config) error {
	ref := root.AppendKey(nil)
	var buf []byte
	check := func(p spec.Perm) error {
		buf = root.AppendKeyUnder(buf[:0], p)
		if !bytes.Equal(buf, ref) {
			return fmt.Errorf("explore: internal: admissible permutation %v does not stabilize the initial configuration: %w",
				p.Proc, ErrNotSymmetric)
		}
		return nil
	}
	ident := make([]int, grp.n)
	for i := range ident {
		ident[i] = i
	}
	for _, s := range grp.slots {
		for a := s; a&(a-1) != 0; a &= a - 1 {
			i := bits.TrailingZeros64(a)
			j := bits.TrailingZeros64(a & (a - 1))
			tp := slices.Clone(ident)
			tp[i], tp[j] = j, i
			if err := check(spec.MakePerm(tp, nil)); err != nil {
				return err
			}
		}
	}
	for t, tgt := range grp.tgt[1:] {
		proc := make([]int, grp.n)
		for cl, s := range grp.slots {
			to := grp.slots[tgt[cl]]
			for ; s != 0; s &= s - 1 {
				proc[bits.TrailingZeros64(s)] = bits.TrailingZeros64(to)
				to &= to - 1
			}
		}
		if err := check(spec.MakePerm(proc, grp.vmaps[t+1].Vals)); err != nil {
			return err
		}
	}
	return nil
}

// keyScratch is the reusable key workspace of one shard (see
// shardOut). A Checker keeps its shards across levels and checks, so
// successor keying allocates nothing once the buffers have grown.
type keyScratch struct {
	// best holds the key canonical returns; cand and objs hold object
	// keys of a candidate and of the running minimum.
	best []byte
	cand []byte
	objs []byte
	// blocks holds the process blocks canonical ranks, the step memo's
	// (a read-only view), refs their spans and per-map ranks (indexed
	// map*n + process).
	blocks []byte
	refs   []blockRef
	// asg[t*n+j] is the process value map t's minimal placement puts in
	// slot j; vties lists the maps whose placements tie on mask and
	// blocks; need and ord are placement workspace.
	asg   []int
	vties []int
	need  []int
	ord   []int
	// Object-stage workspace: the runs of interchangeable processes
	// (runSlots and runProcs hold each run's slots and processes, both
	// ascending, and labels the sub-run each slot takes), each process's
	// sub-run label and its sub-run as a mask, a candidate σ (proc, inv)
	// and the least minimizer found (bproc, binv), and the object states
	// the candidates render.
	runs     []objRun
	runSlots []int
	runProcs []int
	labels   []int
	sub      []int
	meet     []uint64
	proc     []int
	inv      []int
	bproc    []int
	binv     []int
	states   []spec.State
	// orb[p] is the least process of p's orbit under the stabilizer of
	// the configuration canonical keyed last. The elements tying the
	// minimal key are a coset of the stabilizer, so it is generated by
	// the permutations within sub-runs and by best⁻¹∘x for each tying
	// candidate x, which objectStage joins.
	orb []uint8
	// Expansion scratch (see expand): the parent key and its
	// per-component end offsets (symmetry off), the handles of a parent
	// the shard's step memo did not build, and a successor's handles
	// (under symmetry).
	parent []byte
	ends   []int
	hnd    []int32
	succ   []int32
}

// blockRef locates one process block in keyScratch.blocks; rank orders
// it among the blocks ranked under its value map (equal bytes, equal
// rank).
type blockRef struct {
	lo, hi, rank int32
}

// objRun is one run of processes a placement leaves interchangeable:
// same class, same stepped bit, equal blocks, in runSlots/runProcs
// [lo, hi).
type objRun struct {
	lo, hi int
}

// canonical renders into sc the canonical (orbit-minimal) key of the
// configuration whose components are the entries hs of step memo m (its
// processes', then its objects') and whose stepped mask is stepped. It
// returns the key along with the index gi of the first group element
// realizing the minimum (gi == 0 iff the configuration's own key is
// canonical) and the orbit size |G|/|stabilizer| (the stabilizer is
// exactly the coset of elements tying the minimal key, by
// orbit–stabilizer), and leaves the stabilizer's orbits on the
// processes in sc.orb.
//
// The returned slice aliases sc; callers copy it before reuse. A key
// is the stepped-mask uvarint, then one block per process slot, then
// the object keys, and the mask and blocks are self-delimiting, so the
// minimum is built a piece at a time, per value map τ:
//
//   - mask: each class's stepped processes take the slots whose bits
//     minimize the mask's uvarint bytes (minMask);
//   - blocks: within a class, stepped and unstepped slots each take
//     their processes' blocks in ascending order. The memo caches each
//     process entry's block per map with its pid register masked: every
//     block bound for slot j carries pid j+1, so masked blocks order as
//     the slot's keys do, and the key writes j+1 back in;
//   - objects: only runs of processes with equal blocks remain free,
//     and the permutations of them that the object states cannot tell
//     apart are skipped (subRuns, objectStage).
//
// Maps tying on mask and blocks are compared on object keys. Ties on
// the whole key are broken by the forward map, which orders as the
// element indices do. Objects are rendered permuted only for those
// ties and for the key itself when gi != 0.
func (grp *group) canonical(sc *keyScratch, m *stepMemo, hs []int32, stepped uint64) (key []byte, gi, orbit int) {
	n := grp.n
	sc.reset(grp, n)
	sc.blocks = m.bkeys[:len(m.bkeys):len(m.bkeys)]
	var mask uint64
	for t := range grp.vmaps {
		refs := sc.refs[t*n : (t+1)*n]
		for i, e := range hs[:n] {
			b := m.block(e, t)
			refs[i] = blockRef{lo: b.lo, hi: b.hi}
		}
		sc.rankBlocks(refs)
		mk := grp.place(sc, stepped, t) | stepped>>uint(n)<<uint(n)
		if len(sc.vties) > 0 {
			d := cmpUvarint(mk, mask)
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
		mask = mk
		sc.vties = append(sc.vties, t)
	}
	objs := hs[n:]
	sc.runsOf(grp, n, sc.vties[0], mask)
	weight := sc.subRuns(m, objs)
	sc.states = sc.states[:0]
	for _, e := range objs {
		sc.states = append(sc.states, m.oents[e].state)
	}
	bt, ties := grp.objectStage(sc, sc.states, mask, weight)
	gi = grp.rank(sc.bproc)
	key = binary.AppendUvarint(sc.best[:0], mask)
	for j, p := range sc.binv {
		key = m.appendBlock(key, hs[p], bt, j+1)
	}
	if gi == 0 {
		for _, e := range objs {
			key = append(key, m.objKey(e)...)
		}
	} else {
		key = appendStatesUnder(key, sc.states, spec.Perm{Proc: sc.bproc, Inv: sc.binv, Vals: grp.vmaps[bt].Vals})
	}
	sc.best = key
	return key, gi, grp.order / ties
}

// reset sizes sc for a canonical call over an n-process configuration.
func (sc *keyScratch) reset(grp *group, n int) {
	nv := len(grp.vmaps)
	sc.refs, sc.asg, sc.need = resize(sc.refs, nv*n), resize(sc.asg, nv*n), resize(sc.need, len(grp.slots))
	sc.sub, sc.meet, sc.proc, sc.inv = resize(sc.sub, n), resize(sc.meet, n), resize(sc.proc, n), resize(sc.inv, n)
	sc.bproc, sc.binv, sc.orb = resize(sc.bproc, n), resize(sc.binv, n), resize(sc.orb, n)
	sc.vties = sc.vties[:0]
}

// rankBlocks sets the rank of every block refs locates: the number of
// strictly smaller blocks, so equal blocks share a rank and ranks order
// as the bytes do.
func (sc *keyScratch) rankBlocks(refs []blockRef) {
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

// block returns the bytes r locates.
func (sc *keyScratch) block(r blockRef) []byte { return sc.blocks[r.lo:r.hi] }

// place fills sc.asg with value map t's minimal placement of the
// processes, whose stepped mask is stepped, and returns its stepped
// mask (bits below n). Each class's stepped processes, sorted by block,
// fill the stepped slots of its target class in ascending order, and
// likewise the unstepped ones; equal blocks keep ascending process
// order, which makes the placement the least forward map among those
// it ties with.
func (grp *group) place(sc *keyScratch, stepped uint64, t int) uint64 {
	n := grp.n
	need := sc.need[:len(grp.slots)]
	clear(need)
	for i, k := range grp.cls {
		if stepped&(1<<uint(i)) != 0 {
			need[grp.tgt[t][k]]++
		}
	}
	mask := grp.minMask(need)
	refs, asg := sc.refs[t*n:(t+1)*n], sc.asg[t*n:(t+1)*n]
	sortKey := func(i int) int32 {
		if stepped&(1<<uint(i)) == 0 {
			return refs[i].rank + MaxProcs
		}
		return refs[i].rank
	}
	for k, s := range grp.slots {
		ord := sc.ord[:0]
		for ; s != 0; s &= s - 1 {
			ord = append(ord, bits.TrailingZeros64(s))
		}
		for a := 1; a < len(ord); a++ {
			x, kx := ord[a], sortKey(ord[a])
			b := a
			for ; b > 0 && sortKey(ord[b-1]) > kx; b-- {
				ord[b] = ord[b-1]
			}
			ord[b] = x
		}
		q := 0
		to := grp.slots[grp.tgt[t][k]]
		for _, m := range [2]uint64{to & mask, to &^ mask} {
			for ; m != 0; m &= m - 1 {
				asg[bits.TrailingZeros64(m)] = ord[q]
				q++
			}
		}
		sc.ord = ord
	}
	return mask
}

// minMask returns the stepped mask whose uvarint bytes are least among
// those giving class k exactly need[k] stepped slots. The uvarint
// orders bytewise as its bits do in byte-significance order: byte b's
// continuation bit (set iff some slot at or above 7(b+1) is), then its
// bits 7b+6 down to 7b. The greedy clears each in that order whenever
// every class can still be filled; within one byte (n ≤ 7) that puts
// each class's stepped processes in its lowest slots.
func (grp *group) minMask(need []int) uint64 {
	n := grp.n
	free := uint64(1)<<uint(n) - 1
	var one uint64
	fits := func(k int) bool {
		return bits.OnesCount64((one|free)&grp.slots[k]) >= need[k]
	}
	for lo := 0; lo < n; lo += 7 {
		hi := min(lo+7, n)
		if above := free &^ (uint64(1)<<uint(hi) - 1); above != 0 {
			free &^= above
			for k := range grp.slots {
				if !fits(k) {
					free |= above // the continuation bit must be set
					break
				}
			}
		}
		for b := hi - 1; b >= lo; b-- {
			bit := uint64(1) << uint(b)
			if free&bit == 0 {
				continue
			}
			free &^= bit
			if !fits(grp.cls[b]) {
				one |= bit
			}
		}
	}
	return one
}

// cmpPlaced compares the slot blocks of value maps a's and b's
// placements.
func (sc *keyScratch) cmpPlaced(n, a, b int) int {
	ra, rb := sc.refs[a*n:(a+1)*n], sc.refs[b*n:(b+1)*n]
	pa, pb := sc.asg[a*n:(a+1)*n], sc.asg[b*n:(b+1)*n]
	for j := 0; j < n; j++ {
		if d := bytes.Compare(sc.block(ra[pa[j]]), sc.block(rb[pb[j]])); d != 0 {
			return d
		}
	}
	return 0
}

// objectStage finishes canonical once mask and blocks are fixed and
// the runs of the first tying value map's placement are labelled with
// their sub-runs, each candidate standing for weight forward maps (see
// subRuns). The elements still tying differ only by permuting runs of
// processes with equal blocks among their slots, and permuting a
// sub-run cannot change the key, so a candidate only chooses which
// slots each sub-run takes (its processes fill them in ascending order,
// the least forward map of the candidate's coset). Candidates render
// the object states objs. It leaves the least minimizer's forward map
// in sc.bproc/sc.binv and returns its value map and the number of group
// elements tying the minimal key.
func (grp *group) objectStage(sc *keyScratch, objs []spec.State, mask uint64, weight int) (bt, ties int) {
	n := grp.n
	bt = sc.vties[0]
	sc.subRunOrbits()
	if !sc.varyingRuns() && len(sc.vties) == 1 {
		sc.setCandidate(n, bt)
		copy(sc.bproc, sc.proc)
		copy(sc.binv, sc.inv)
		return bt, weight
	}
	count := 0
	for vi, t := range sc.vties {
		if vi > 0 {
			sc.runsOf(grp, n, t, mask)
			sc.varyingRuns()
		}
		for {
			sc.setCandidate(n, t)
			sc.cand = appendStatesUnder(sc.cand[:0], objs, spec.Perm{Proc: sc.proc, Inv: sc.inv, Vals: grp.vmaps[t].Vals})
			d := -1
			if count > 0 {
				d = bytes.Compare(sc.cand, sc.objs)
			}
			if d == 0 {
				count++
				// best⁻¹∘candidate fixes the configuration.
				for p, j := range sc.proc {
					sc.join(p, sc.binv[j])
				}
				d = slices.Compare(sc.proc, sc.bproc)
			} else if d < 0 {
				count = 1
				sc.objs, sc.cand = sc.cand, sc.objs
				sc.subRunOrbits()
			}
			if d < 0 {
				bt = t
				copy(sc.bproc, sc.proc)
				copy(sc.binv, sc.inv)
			}
			if !sc.nextCandidate() {
				break
			}
		}
	}
	return bt, count * weight
}

// subRunOrbits resets sc.orb to the sub-runs: the permutations within
// them fix the configuration (see subRuns).
func (sc *keyScratch) subRunOrbits() {
	for p := range sc.orb {
		sc.orb[p] = uint8(p)
	}
	for _, p := range sc.runProcs {
		sc.orb[p] = uint8(sc.sub[p])
	}
}

// join merges the orbits of processes a and b in sc.orb.
func (sc *keyScratch) join(a, b int) {
	lo, hi := min(sc.orb[a], sc.orb[b]), max(sc.orb[a], sc.orb[b])
	for p, o := range sc.orb {
		if o == hi {
			sc.orb[p] = lo
		}
	}
}

// runsOf collects the runs of value map t's placement: maximal groups
// of slots in one class, all stepped or all unstepped, holding equal
// blocks. Only runs of two or more processes are kept.
func (sc *keyScratch) runsOf(grp *group, n, t int, mask uint64) {
	refs, asg := sc.refs[t*n:(t+1)*n], sc.asg[t*n:(t+1)*n]
	sc.runs, sc.runSlots, sc.runProcs = sc.runs[:0], sc.runSlots[:0], sc.runProcs[:0]
	for _, s := range grp.slots {
		for _, m := range [2]uint64{s & mask, s &^ mask} {
			start := len(sc.runSlots)
			for ; m != 0; m &= m - 1 {
				j := bits.TrailingZeros64(m)
				if k := len(sc.runSlots); k > start && refs[asg[j]].rank != refs[sc.runProcs[k-1]].rank {
					sc.closeRun(start)
					start = len(sc.runSlots)
				}
				sc.runSlots = append(sc.runSlots, j)
				sc.runProcs = append(sc.runProcs, asg[j])
			}
			sc.closeRun(start)
		}
	}
}

// closeRun keeps the run runSlots[start:] if it has two or more slots
// and drops it otherwise.
func (sc *keyScratch) closeRun(start int) {
	if len(sc.runSlots)-start < 2 {
		sc.runSlots, sc.runProcs = sc.runSlots[:start], sc.runProcs[:start]
		return
	}
	sc.runs = append(sc.runs, objRun{lo: start, hi: len(sc.runSlots)})
}

// subRuns labels every run process with the least process of its
// sub-run and returns the number of forward maps each candidate stands
// for: the product of the sub-run sizes' factorials. A transposition
// of two processes of one run belongs to the identity coset, and it
// fixes the object states objs, entries of m, iff it fixes each of
// them, so sub-runs are the run cut by the meet of the objects'
// transposition classes (stepMemo.classes), itself an equivalence.
// Sub-runs are the same sets under every value map, as a map renders
// equal blocks equally.
func (sc *keyScratch) subRuns(m *stepMemo, objs []int32) int {
	weight := 1
	for _, r := range sc.runs {
		ps := sc.runProcs[r.lo:r.hi]
		var run uint64
		for _, x := range ps {
			run |= 1 << uint(x)
		}
		for _, x := range ps {
			sc.meet[x] = run
		}
		for _, e := range objs {
			cls := m.classes(e)
			for _, x := range ps {
				sc.meet[x] &= cls[x]
			}
		}
		for _, x := range ps {
			sc.sub[x] = bits.TrailingZeros64(sc.meet[x])
			if sc.sub[x] == x {
				weight *= factorial[bits.OnesCount64(sc.meet[x])]
			}
		}
	}
	return weight
}

// varyingRuns drops the runs with a single sub-run, whose permutations
// the key cannot see, sets each remaining run's labels (sc.labels,
// aligned with sc.runSlots) to their first order, ascending, and
// reports whether any run remains.
func (sc *keyScratch) varyingRuns() bool {
	sc.labels = slices.Grow(sc.labels[:0], len(sc.runSlots))[:len(sc.runSlots)]
	runs := sc.runs[:0]
	for _, r := range sc.runs {
		ls := sc.labels[r.lo:r.hi]
		for k, p := range sc.runProcs[r.lo:r.hi] {
			ls[k] = sc.sub[p]
		}
		slices.Sort(ls)
		if ls[0] != ls[len(ls)-1] {
			runs = append(runs, r)
		}
	}
	sc.runs = runs
	return len(runs) > 0
}

// setCandidate writes into sc.inv and sc.proc the forward map of value
// map t's placement with each varying run's slots given to sub-runs as
// its labels say.
func (sc *keyScratch) setCandidate(n, t int) {
	copy(sc.inv, sc.asg[t*n:(t+1)*n])
	for _, r := range sc.runs {
		ps := sc.runProcs[r.lo:r.hi]
		var taken uint64
		for k, j := range sc.runSlots[r.lo:r.hi] {
			for a, p := range ps {
				if taken&(1<<uint(a)) == 0 && sc.sub[p] == sc.labels[r.lo+k] {
					taken |= 1 << uint(a)
					sc.inv[j] = p
					break
				}
			}
		}
	}
	for j, p := range sc.inv {
		sc.proc[p] = j
	}
}

// nextCandidate steps the varying runs' labels to the next
// combination, odometer fashion, each run through its distinct label
// orders; it reports false, with every run back at its first order,
// after the last.
func (sc *keyScratch) nextCandidate() bool {
	for _, r := range sc.runs {
		if nextPermutation(sc.labels[r.lo:r.hi]) {
			return true
		}
	}
	return false
}

// nextPermutation rearranges a into the next permutation of its
// multiset in lexicographic order and reports true, or, when a is the
// last, sorts it ascending and reports false.
func nextPermutation(a []int) bool {
	i := len(a) - 2
	for i >= 0 && a[i] >= a[i+1] {
		i--
	}
	if i >= 0 {
		j := len(a) - 1
		for a[j] <= a[i] {
			j--
		}
		a[i], a[j] = a[j], a[i]
	}
	slices.Reverse(a[i+1:])
	return i >= 0
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
// configuration h·R_v, where h is group element h and R_v the stored
// representative of quotient node v.
type liftNode struct {
	v, h int
}

// stabChecker memoizes membership in the stabilizer of one stored
// configuration (whether element h fixes it), keyed by group index. The
// identity needs no check, so the configuration is rebuilt (see
// configAt) only when a non-identity element is first tested, which
// many lifted walks, and every walk without symmetry, never do. The
// graph keeps one in its sccScratch for the configuration the last
// lifted walk started from, so the walks from one configuration share
// what it learns.
type stabChecker struct {
	id    int
	cfg   *Config
	ref   []byte
	buf   []byte
	perm  spec.Perm
	known map[int]bool
}

// at readies s for configuration id, keeping what it knows when it
// already serves id.
func (s *stabChecker) at(id int) {
	if s.id != id {
		s.id, s.cfg = id, nil
		clear(s.known)
	}
}

func (s *stabChecker) contains(g *graph, h int) bool {
	if h == 0 {
		return true
	}
	if in, ok := s.known[h]; ok {
		return in
	}
	if s.cfg == nil {
		s.cfg = g.configAt(s.id)
		s.ref = s.cfg.AppendKey(s.ref[:0])
	}
	if s.known == nil {
		s.known = map[int]bool{}
	}
	g.grp.elementInto(h, &s.perm)
	s.buf = s.cfg.AppendKeyUnder(s.buf[:0], s.perm)
	in := bytes.Equal(s.buf, s.ref)
	s.known[h] = in
	return in
}

// crumb is a lifted walk's way into a node: the node it came from and
// the concrete step it took, or root for the walk's start.
type crumb struct {
	prev liftNode
	step Step
	root bool
}

// liftedCycle extracts a concrete cycle schedule through the quotient
// edge en out of from, inside from's SCC: the entry step followed by
// lifted steps back to a stabilizing return, or nil when there is
// none. Each quotient edge (u→v, step s, g) lifts from (u, h) to
// (v, h∘g) taking the concrete step permuteStep(s, h); the walk closes
// concretely exactly when it returns to from with h in the stabilizer
// of the stored representative. Sound and complete for the concrete
// graph: a lifted cycle projects to a concrete one by construction, and
// any concrete cycle translates into the lifted graph edge by edge.
//
// soloOnly restricts the walk to concrete i-steps, so a nil result
// decides that no solo cycle of i passes through the edge; liveness
// decides that for every edge at once (soloGraph) and walks only to
// render the schedule of an edge it reports. For the unrestricted kinds a
// returning lifted walk always exists once the quotient edge lies in a
// cyclic SCC: iterating any quotient loop multiplies the accumulated
// group element, which has finite order, so some iterate lands in the
// stabilizer. Without symmetry every element is the identity, and the
// walk is a plain breadth-first search of the SCC. The walk's memory
// is the graph's sccScratch.
func (g *graph) liftedCycle(from int, en edge, i int, soloOnly bool, comp []int) []Step {
	sc := &g.scc
	sc.walks++
	stab := &sc.stab
	stab.at(from)
	start := liftNode{en.to, en.g}
	if start.v == from && stab.contains(g, start.h) {
		return []Step{en.step}
	}
	if sc.crumbs == nil {
		sc.crumbs = map[liftNode]crumb{}
	}
	crumbs := sc.crumbs
	clear(crumbs)
	crumbs[start] = crumb{root: true}
	queue := append(sc.queue[:0], start)
	defer func() { sc.queue = queue[:0] }()
	h, ge := &sc.hperm, &sc.gperm
	for q := 0; q < len(queue); q++ {
		at := queue[q]
		if g.grp != nil {
			g.grp.elementInto(at.h, h)
		}
		for it := g.edgeIter(at.v); ; {
			e, ok := it.next()
			if !ok {
				break
			}
			if comp[e.to] != comp[at.v] {
				continue
			}
			nx := liftNode{v: e.to}
			if g.grp != nil {
				e.step = permuteStep(e.step, *h)
			}
			if soloOnly && e.step.Proc != i {
				continue
			}
			if g.grp != nil {
				g.grp.elementInto(e.g, ge)
				nx.h = g.grp.compose(*h, *ge)
			}
			if _, ok := crumbs[nx]; ok {
				continue
			}
			crumbs[nx] = crumb{prev: at, step: e.step}
			if nx.v == from && stab.contains(g, nx.h) {
				var rev []Step
				for n := nx; !crumbs[n].root; n = crumbs[n].prev {
					rev = append(rev, crumbs[n].step)
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
// group is trivial), counted from its class sizes and value maps; the
// group itself is never materialized.
func (r *Report) SymmetryGroupOrder() int {
	if r.g == nil || r.g.grp == nil {
		return 1
	}
	return r.g.grp.order
}
