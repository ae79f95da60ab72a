package explore

import (
	"encoding/binary"

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
// are immutable values, and a component's key bytes determine its state,
// so the key bytes found in the parent's key determine both steps. A
// process or object state is stepped again in every configuration that
// holds it; the memo computes each distinct component step once, with
// the next state's key bytes, and the expansion splices successor keys
// from those bytes. It serves the symmetry-off expansion only (see
// expandSpliced).
//
// A miss fills the memo through the System's own step functions
// (invocation, offer, resume), so the step is defined once. Errors are
// returned, never cached. The tables are store heap tables keyed by
// (component index, key bytes) — and the operation, for objects — over
// flat slices, so emptying keeps every buffer and an entry is no heap
// object of its own. The memo holds states that successor
// configurations share: nothing may mutate them.
type stepMemo struct {
	// procs maps (process index, process block) to an entry of pinv and
	// presp: the invocation, and the head of the entry's response list
	// in resps (-1 when empty).
	procs *store.Store
	pinv  []machine.Poise
	presp []int32
	resps []memoResp
	// objs maps (object index, operation, object block) to an entry of
	// oend: the end of its transitions in trans, which start where the
	// previous entry's end.
	objs  *store.Store
	oend  []int32
	trans []memoTrans
	// keys holds the cached next states' key bytes, mk the memo key
	// being probed.
	keys []byte
	mk   []byte
	// served counts the process steps answered without a Resume since
	// the expansion's tally (see expand).
	served int
}

// memoResp is a process state's next state on one response, linked to
// the next response seen from the same state.
type memoResp struct {
	resp value.Value
	next machine.ProcState
	key  span
	link int32
}

// memoTrans is one transition an object state offers an operation.
type memoTrans struct {
	resp value.Value
	next spec.State
	key  span
}

// span locates key bytes in stepMemo.keys.
type span struct{ lo, hi int32 }

// newStepMemo returns an empty memo.
func newStepMemo() *stepMemo {
	procs, _ := store.Open(store.Options{}, nil) // a heap store cannot fail to open
	objs, _ := store.Open(store.Options{}, nil)
	return &stepMemo{procs: procs, objs: objs}
}

// reset empties the memo, keeping its buffers' capacity. Clearing the
// entries drops their states, which a new search's programs must not
// see.
func (m *stepMemo) reset() {
	m.procs.Reset()
	m.objs.Reset()
	clear(m.resps)
	clear(m.trans)
	m.pinv, m.presp, m.resps = m.pinv[:0], m.presp[:0], m.resps[:0]
	m.oend, m.trans = m.oend[:0], m.trans[:0]
	m.keys, m.served = m.keys[:0], 0
}

// key returns the key bytes at sp.
func (m *stepMemo) key(sp span) []byte { return m.keys[sp.lo:sp.hi] }

// since returns the span of the key bytes appended to keys from lo on.
func (m *stepMemo) since(lo int) span { return span{int32(lo), int32(len(m.keys))} }

// proc returns the entry of live process i of c, whose key bytes are
// block, adding it with its invocation on a miss.
func (m *stepMemo) proc(sys *System, c *Config, i int, block []byte) (int, error) {
	m.mk = append(binary.AppendUvarint(m.mk[:0], uint64(i)), block...)
	h := store.Hash(m.mk)
	if e, ok := m.procs.LookupHash(m.mk, h); ok {
		return e, nil
	}
	e, err := m.procs.InternHash(m.mk, h)
	if err != nil {
		return 0, err
	}
	m.pinv = append(m.pinv, sys.invocation(c, i))
	m.presp = append(m.presp, -1)
	return e, nil
}

// offer returns the range of trans holding the transitions object p.Obj
// of c, whose key bytes are block, offers for invocation p, adding them
// on a miss. p.Obj must be in range (System.checkObj).
func (m *stepMemo) offer(sys *System, c *Config, p machine.Poise, block []byte) (lo, hi int, err error) {
	mk := binary.AppendUvarint(m.mk[:0], uint64(p.Obj))
	mk = append(mk, byte(p.Op.Method))
	mk = binary.AppendVarint(mk, int64(p.Op.Arg))
	mk = binary.AppendVarint(mk, int64(p.Op.Label))
	m.mk = append(mk, block...)
	h := store.Hash(m.mk)
	if e, ok := m.objs.LookupHash(m.mk, h); ok {
		if e > 0 {
			lo = int(m.oend[e-1])
		}
		return lo, int(m.oend[e]), nil
	}
	ts, err := sys.offer(c, p)
	if err != nil {
		return 0, 0, err
	}
	if _, err := m.objs.InternHash(m.mk, h); err != nil {
		return 0, 0, err
	}
	lo = len(m.trans)
	for _, t := range ts {
		k := len(m.keys)
		m.keys = spec.AppendStateKey(m.keys, t.Next)
		m.trans = append(m.trans, memoTrans{resp: t.Resp, next: t.Next, key: m.since(k)})
	}
	m.oend = append(m.oend, int32(len(m.trans)))
	return lo, len(m.trans), nil
}

// next returns the next state of live process i of c, whose entry is e,
// on response resp, and the span of its key bytes, resuming the process
// on a miss.
func (m *stepMemo) next(sys *System, c *Config, i, e int, resp value.Value) (machine.ProcState, span, error) {
	for r := m.presp[e]; r >= 0; r = m.resps[r].link {
		if mr := &m.resps[r]; mr.resp == resp {
			m.served++
			return mr.next, mr.key, nil
		}
	}
	ps, err := sys.resume(c, i, resp)
	if err != nil {
		return ps, span{}, err
	}
	k := len(m.keys)
	m.keys = ps.AppendKey(m.keys)
	sp := m.since(k)
	m.resps = append(m.resps, memoResp{resp: resp, next: ps, key: sp, link: m.presp[e]})
	m.presp[e] = int32(len(m.resps) - 1)
	return ps, sp, nil
}
