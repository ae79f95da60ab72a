package explore

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"reflect"
	"slices"

	"setagree/internal/machine"
	"setagree/internal/spec"
	"setagree/internal/store"
	"setagree/internal/value"
)

// stepMemo caches the component steps of one shard's expansions. A
// transition is made of two steps on components of the configuration:
// the stepping process's (its invocation, then its next state on the
// response) and the touched object's (the transitions it offers for the
// invocation). Both are pure functions of the component's state, states
// are immutable values, and a component's key bytes determine its state.
// The memo gives every distinct component state it meets an entry —
// process states keyed by (process index, key bytes), object states by
// (object index, key bytes) — holding the state, its key bytes, and the
// steps computed from it so far: a process entry its invocation and its
// next entry per response seen, an object entry the transitions it
// offers per operation seen, each leading to the next state's entry. It
// serves every expansion (see expand).
//
// Every configuration expand builds carries its components' entry ids,
// its handles, so expanding it reads the parent key, the invocations
// and the offers from the entries without encoding or hashing a
// component; only a configuration this memo did not build (the root, a
// restored or replayed one, another shard's, a Fork prefix's) is
// resolved by its component bytes, once, into scratch.
//
// Under symmetry the entries also cache what orbit canonicalization
// reads of them (see group.canonical): a process entry its block, its
// key with the pid register masked, once per value map of the group;
// an object entry, when first asked, its transposition classes.
//
// A miss fills the memo through the System's own step functions
// (invocation, objStep, resume), so the step is defined once. Errors
// are returned, never cached. The tables are store heap tables over
// flat slices, so emptying keeps every buffer and an entry is no heap
// object of its own. The memo holds states that successor
// configurations share: nothing may mutate them.
type stepMemo struct {
	// gen counts resets; handles are valid only in the generation that
	// made them.
	gen uint32
	// The process half, emptied by every reset: procs maps (process
	// index, process key bytes) to an entry of pents; resps holds the
	// entries' response lists; pkeys their key bytes.
	procs *store.Store
	pents []procEntry
	resps []memoResp
	pkeys []byte
	// The object half, kept across resets while the system's object
	// specs stay equal to specs: objs maps (object index, object key
	// bytes) to an entry of oents; offers holds the entries' offer
	// lists, trans the offered transitions, okeys the key bytes.
	specs  []spec.Spec
	objs   *store.Store
	oents  []objEntry
	offers []memoOffer
	trans  []memoTrans
	okeys  []byte
	// mk is the table key being probed, tp a transposition classes
	// renders under.
	mk []byte
	tp []int
	// The symmetry half, emptied by every reset: grp is the search's
	// group (nil when symmetry is off); pblk holds process entry e's
	// block under value map t at e*len(grp.vmaps)+t, its bytes in bkeys;
	// ocls object entry e's transposition classes at e*n, zero until
	// computed.
	grp   *group
	pblk  []procBlock
	bkeys []byte
	ocls  []uint64
	// served counts the process steps answered without a Resume since
	// the expansion's tally (see expand).
	served int
}

// procEntry is one process state: the state, its key bytes, the
// invocation it is poised at (zero when it is not poised), and the head
// of its response list in resps (-1 when empty).
type procEntry struct {
	state machine.ProcState
	key   span
	inv   machine.Poise
	resp  int32
}

// memoResp is a process state's next state, an entry of pents, on one
// response, linked to the next response seen from the same state.
type memoResp struct {
	resp value.Value
	next int32
	link int32
}

// objEntry is one object state: the state, its key bytes, and the head
// of its offer list in offers (-1 when empty).
type objEntry struct {
	state spec.State
	key   span
	offer int32
}

// procBlock locates one process entry's block in stepMemo.bkeys: the
// bytes [lo, hi), whose byte at lo+pid is the masked pid register (pid
// is -1 when the state has none).
type procBlock struct {
	lo, hi, pid int32
}

// memoOffer is the transitions trans[lo:hi] an object state offers
// operation op, linked to the next operation seen on the same state.
type memoOffer struct {
	op     value.Op
	lo, hi int32
	link   int32
}

// memoTrans is one transition an object state offers: the response and
// the next state's entry in oents.
type memoTrans struct {
	resp value.Value
	next int32
}

// span locates key bytes in stepMemo.pkeys or stepMemo.okeys.
type span struct{ lo, hi int32 }

// newStepMemo returns an empty memo.
func newStepMemo() *stepMemo {
	procs, _ := store.Open(store.Options{}, nil) // a heap store cannot fail to open
	objs, _ := store.Open(store.Options{}, nil)
	return &stepMemo{procs: procs, objs: objs}
}

// reset empties the memo for a search of a system with object specs
// objects under group grp (nil when symmetry is off), keeping its
// buffers' capacity and invalidating every handle. The object half
// survives when objects equal the specs it was built for, since an
// object step depends on nothing else. Clearing entries drops their
// states, which a new search's programs must not see.
func (m *stepMemo) reset(objects []spec.Spec, grp *group) {
	m.gen++
	m.procs.Reset()
	clear(m.pents)
	m.pents, m.resps, m.pkeys = m.pents[:0], m.resps[:0], m.pkeys[:0]
	m.grp, m.pblk, m.bkeys, m.ocls = grp, m.pblk[:0], m.bkeys[:0], m.ocls[:0]
	m.served = 0
	if sameSpecs(m.specs, objects) {
		return
	}
	m.objs.Reset()
	clear(m.oents)
	clear(m.specs)
	m.specs = append(m.specs[:0], objects...)
	m.oents, m.offers, m.trans, m.okeys = m.oents[:0], m.offers[:0], m.trans[:0], m.okeys[:0]
}

// sameSpecs reports whether a and b hold equal specs index by index: of
// one dynamic type, comparable and ==. A spec that is not comparable is
// never equal, so the comparison cannot panic.
func sameSpecs(a, b []spec.Spec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if reflect.TypeOf(a[i]) != reflect.TypeOf(b[i]) || !reflect.ValueOf(a[i]).Comparable() || a[i] != b[i] {
			return false
		}
	}
	return true
}

// procKey and objKey return the key bytes of process entry e and object
// entry e.
func (m *stepMemo) procKey(e int32) []byte {
	sp := m.pents[e].key
	return m.pkeys[sp.lo:sp.hi]
}

func (m *stepMemo) objKey(e int32) []byte {
	sp := m.oents[e].key
	return m.okeys[sp.lo:sp.hi]
}

// handles returns the handles of c: its own when this memo built it in
// the current generation, else its components' entries, looked up by
// their key bytes (and added on a miss) into *scratch. c itself is
// never written: other shards may read it.
func (m *stepMemo) handles(sys *System, c *Config, scratch *[]int32) ([]int32, error) {
	if c.memo == m && c.mgen == m.gen {
		return c.hnd, nil
	}
	np := len(c.Procs)
	hs := resize(*scratch, np+len(c.Objs))
	*scratch = hs
	for i := range c.Procs {
		e, err := m.procEntry(sys, i, c.Procs[i])
		if err != nil {
			return nil, err
		}
		hs[i] = e
	}
	for j := range c.Objs {
		e, err := m.objEntry(j, c.Objs[j])
		if err != nil {
			return nil, err
		}
		hs[np+j] = e
	}
	return hs, nil
}

// procEntry returns the entry of process i in state ps, adding it, with
// its invocation, on a miss.
func (m *stepMemo) procEntry(sys *System, i int, ps machine.ProcState) (int32, error) {
	m.mk = binary.AppendUvarint(m.mk[:0], uint64(i))
	pre := len(m.mk)
	m.mk = ps.AppendKey(m.mk)
	h := store.Hash(m.mk)
	if e, ok := m.procs.LookupHash(m.mk, h); ok {
		return int32(e), nil
	}
	if _, err := m.procs.InternHash(m.mk, h); err != nil {
		return 0, err
	}
	lo := len(m.pkeys)
	m.pkeys = append(m.pkeys, m.mk[pre:]...)
	inv, _ := machine.Poised(sys.Programs[i], ps)
	m.pents = append(m.pents, procEntry{state: ps, key: span{int32(lo), int32(len(m.pkeys))}, inv: inv, resp: -1})
	if m.grp != nil {
		m.addBlocks(ps)
	}
	return int32(len(m.pents) - 1), nil
}

// addBlocks renders the blocks of the process entry just added, one per
// value map, with the pid register masked to 0. Rendered with pid 1
// instead, a block differs in exactly the register's byte (the value
// codes of 0 and 1 both take one byte), which locates it.
func (m *stepMemo) addBlocks(ps machine.ProcState) {
	for _, vm := range m.grp.vmaps {
		lo := len(m.bkeys)
		m.bkeys = ps.AppendKeyWithPid(m.bkeys, vm, 0)
		m.mk = ps.AppendKeyWithPid(m.mk[:0], vm, 1)
		b := procBlock{lo: int32(lo), hi: int32(len(m.bkeys)), pid: -1}
		for k, x := range m.bkeys[lo:] {
			if x != m.mk[k] {
				b.pid = int32(k)
				break
			}
		}
		m.pblk = append(m.pblk, b)
	}
}

// block returns process entry e's block under value map t.
func (m *stepMemo) block(e int32, t int) procBlock {
	return m.pblk[int(e)*len(m.grp.vmaps)+t]
}

// appendBlock appends process entry e's block under value map t with
// pid written into its pid register: the process's key in slot pid-1.
func (m *stepMemo) appendBlock(dst []byte, e int32, t, pid int) []byte {
	b := m.block(e, t)
	at := len(dst) + int(b.pid)
	dst = append(dst, m.bkeys[b.lo:b.hi]...)
	switch u := value.KeyUint(value.Value(pid)); {
	case b.pid < 0:
	case u < 0x80:
		dst[at] = byte(u) // pid's one-byte value code
	default:
		dst = value.AppendKey(dst[:at], value.Value(pid))
		dst = append(dst, m.bkeys[b.lo+b.pid+1:b.hi]...)
	}
	return dst
}

// classes returns object entry e's transposition classes: for every
// process x, the processes of x's class in the group whose
// transposition with x leaves the object's key unchanged, x included,
// as a mask. Such transpositions lie in the group and make an
// equivalence, since (a c) = (a b)(b c)(a b), so each class is found
// from its least member. They are computed on the first call.
func (m *stepMemo) classes(e int32) []uint64 {
	n, lo := m.grp.n, int(e)*m.grp.n
	if k := len(m.ocls); k < lo+n {
		m.ocls = slices.Grow(m.ocls, lo+n-k)[:lo+n]
		clear(m.ocls[k:])
	}
	cls := m.ocls[lo : lo+n]
	if cls[0] != 0 {
		return cls
	}
	tp := resize(m.tp, n)
	m.tp = tp
	for x := range tp {
		tp[x] = x
	}
	key, st := m.objKey(e), m.oents[e].state
	for x := range cls {
		if cls[x] != 0 {
			continue // x's class has a lower member
		}
		cls[x] = 1 << uint(x)
		for rest := m.grp.slots[m.grp.cls[x]] &^ (2<<uint(x) - 1); rest != 0; rest &= rest - 1 {
			y := bits.TrailingZeros64(rest)
			if cls[y] != 0 {
				continue
			}
			tp[x], tp[y] = y, x
			m.mk, _ = spec.AppendStateKeyUnder(m.mk[:0], st, spec.Perm{Proc: tp, Inv: tp})
			tp[x], tp[y] = x, y
			if bytes.Equal(m.mk, key) {
				cls[x] |= 1 << uint(y)
			}
		}
		for s := cls[x] &^ (1 << uint(x)); s != 0; s &= s - 1 {
			cls[bits.TrailingZeros64(s)] = cls[x]
		}
	}
	return cls
}

// objEntry returns the entry of object j in state st, adding it on a
// miss.
func (m *stepMemo) objEntry(j int, st spec.State) (int32, error) {
	m.mk = binary.AppendUvarint(m.mk[:0], uint64(j))
	pre := len(m.mk)
	m.mk = spec.AppendStateKey(m.mk, st)
	h := store.Hash(m.mk)
	if e, ok := m.objs.LookupHash(m.mk, h); ok {
		return int32(e), nil
	}
	if _, err := m.objs.InternHash(m.mk, h); err != nil {
		return 0, err
	}
	lo := len(m.okeys)
	m.okeys = append(m.okeys, m.mk[pre:]...)
	m.oents = append(m.oents, objEntry{state: st, key: span{int32(lo), int32(len(m.okeys))}, offer: -1})
	return int32(len(m.oents) - 1), nil
}

// offer returns the range of trans holding the transitions object entry
// oe, of object p.Obj, offers for invocation p, adding them on a miss.
// p.Obj must be in range (System.checkObj).
func (m *stepMemo) offer(sys *System, oe int32, p machine.Poise) (lo, hi int32, err error) {
	for o := m.oents[oe].offer; o >= 0; o = m.offers[o].link {
		if mo := &m.offers[o]; mo.op == p.Op {
			return mo.lo, mo.hi, nil
		}
	}
	ts, err := sys.objStep(m.oents[oe].state, p)
	if err != nil {
		return 0, 0, err
	}
	lo = int32(len(m.trans))
	for _, t := range ts {
		next, err := m.objEntry(p.Obj, t.Next)
		if err != nil {
			return 0, 0, err
		}
		m.trans = append(m.trans, memoTrans{resp: t.Resp, next: next})
	}
	hi = int32(len(m.trans))
	m.offers = append(m.offers, memoOffer{op: p.Op, lo: lo, hi: hi, link: m.oents[oe].offer})
	m.oents[oe].offer = int32(len(m.offers) - 1)
	return lo, hi, nil
}

// next returns the entry of the next state of process i, whose entry is
// e, on response resp, resuming the process on a miss.
func (m *stepMemo) next(sys *System, i int, e int32, resp value.Value) (int32, error) {
	for r := m.pents[e].resp; r >= 0; r = m.resps[r].link {
		if mr := &m.resps[r]; mr.resp == resp {
			m.served++
			return mr.next, nil
		}
	}
	ps, err := sys.resume(i, m.pents[e].state, resp)
	if err != nil {
		return 0, err
	}
	next, err := m.procEntry(sys, i, ps)
	if err != nil {
		return 0, err
	}
	m.resps = append(m.resps, memoResp{resp: resp, next: next, link: m.pents[e].resp})
	m.pents[e].resp = int32(len(m.resps) - 1)
	return next, nil
}

// build returns the successor of c, whose handles are hs, in which
// process i takes the state of process entry pe and object j that of
// object entry oe, built from sl and carrying its own handles.
func (m *stepMemo) build(c *Config, hs []int32, i, j int, pe, oe int32, sl *slab) *Config {
	nc := c.after(move{Step: Step{Proc: i, Obj: j}, proc: m.pents[pe].state, obj: m.oents[oe].state}, sl)
	copy(nc.hnd, hs)
	nc.hnd[i], nc.hnd[len(c.Procs)+j] = pe, oe
	nc.memo, nc.mgen = m, m.gen
	return nc
}
