// Cross-candidate memoization for falsification sweeps.
//
// Sweep candidates are massively redundant: distinct shapes often
// materialize into identical programs (decide(last) and decide(first)
// coincide at depth 1, prev and input coincide for the first
// invocation), many pairs are related by the 0↔1 value swap, peer
// processes' input vectors are exchangeable, and an action branch the
// checker never reaches cannot influence the verdict. The memoizer
// collapses all four: every concrete model check is recorded under a
// canonical key — the lexicographic minimum, over the admissible value
// swap, of the serialized (symmetry mode, state cap, role programs,
// canonical input vector) — with the branch slots the check proved dead
// wildcarded out, and later candidates whose canonical key matches any
// recorded entry reuse its verdict class and state count instead of
// exploring.
//
// Soundness rests on three facts, each checked before it is used:
//
//   - Byte-identical live instructions: two systems that agree on every
//     instruction the exploration executes produce the same
//     configuration graph, so masking provably-dead action slots
//     (explore.Report.Cover) is exact.
//   - The 0↔1 swap: when every object is value-oblivious
//     (spec.ValueOblivious) with a swap-fixed initial state, every role
//     program is free of value arithmetic and never reads the id
//     register, and the task declares task.ValueSymmetric01, swapping
//     the constants 0/1 in programs and inputs maps runs bijectively
//     onto runs — States, Transitions, and the verdict class are
//     invariant (the concrete counterexample is not; see
//     materializeViolation).
//   - Peer exchange: when the task declares task.PeerSymmetric and the
//     peer processes share one id-oblivious program, permuting the peer
//     entries of the input vector relabels runs bijectively, so vectors
//     are keyed with their peer suffix sorted.
//
// Entries record the verdict class and state count only. Both are
// exact: a state-limited check always stops at MaxStates+1 interned
// configurations, and the bijections above preserve counts. Violations
// are lazily re-derived by one concrete re-check of the single failure
// a report surfaces.
package enumerate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// memoClass is the memoizable part of a verdict.
type memoClass uint8

const (
	// classSolved: the check completed with no violation.
	classSolved memoClass = iota + 1
	// classRefuted: the check found a violation.
	classRefuted
	// classLimit: the check hit the state limit (explore.ErrStateLimit).
	classLimit
)

// memoEntry is one recorded check: its verdict class and the exact
// number of configurations the exploration interned.
type memoEntry struct {
	class  memoClass
	states int
}

// memoTable maps canonical candidate keys to recorded verdicts. One
// table serves a whole Prepared sweep across every CheckRange call and
// worker; first insert wins (duplicates are identical by construction).
// masks is a bitset of the dead-slot masks inserts have actually used,
// so lookups probe only key variants that can possibly exist instead of
// serializing all 2^(2·roles) of them.
type memoTable struct {
	mu    sync.RWMutex
	m     map[string]memoEntry
	masks atomic.Uint32
}

func newMemoTable() *memoTable {
	return &memoTable{m: make(map[string]memoEntry)}
}

// get probes by byte key; the string conversion in the map index does
// not allocate, keeping the (hot) miss-then-hit probe loop cheap.
func (t *memoTable) get(k []byte) (memoEntry, bool) {
	t.mu.RLock()
	e, ok := t.m[string(k)]
	t.mu.RUnlock()
	return e, ok
}

func (t *memoTable) put(k string, mask uint8, e memoEntry) {
	for {
		old := t.masks.Load()
		if old&(1<<mask) != 0 || t.masks.CompareAndSwap(old, old|1<<mask) {
			break
		}
	}
	t.mu.Lock()
	if _, ok := t.m[k]; !ok {
		t.m[k] = e
	}
	t.mu.Unlock()
}

// sigmaPerm is the 0↔1 value swap as a spec permutation (identity on
// processes and every other value).
var sigmaPerm = spec.MakePerm(nil, map[value.Value]value.Value{0: 1, 1: 0})

// sigmaEligible reports whether the family's fixed inputs — objects and
// task — admit the 0↔1 swap: every object declares value obliviousness
// and starts in a swap-fixed state (checked through the symmetry key
// encoder, so objects without spec.Symmetric support are conservatively
// rejected), and the task declares its predicate 0↔1-invariant.
func sigmaEligible(objs []spec.Spec, tsk task.Task) bool {
	if !task.ValueSymmetric01(tsk) {
		return false
	}
	for _, o := range objs {
		if !spec.ValueOblivious(o) {
			return false
		}
		init := o.Init()
		under, ok := spec.AppendStateKeyUnder(nil, init, sigmaPerm)
		if !ok || !bytes.Equal(under, spec.AppendStateKey(nil, init)) {
			return false
		}
	}
	return true
}

// programIDFree reports that no operand reads the process-id register
// R1 — the condition under which a program's behavior is independent of
// which process runs it.
func programIDFree(p *machine.Program) bool {
	for _, in := range p.Instrs {
		if (in.A.IsReg && in.A.Reg == machine.RegID1) ||
			(in.B.IsReg && in.B.Reg == machine.RegID1) {
			return false
		}
	}
	return true
}

// programSigmaSafe reports that the program commutes with the 0↔1
// value swap: only value-oblivious instruction kinds (no arithmetic,
// no order comparisons), no id-register reads, and no register-sourced
// invocation labels (labels name menu entries structurally and are
// exempt from the swap, which is only sound for constants).
func programSigmaSafe(p *machine.Program) bool {
	if !programIDFree(p) {
		return false
	}
	for _, in := range p.Instrs {
		switch in.Kind {
		case machine.InstrInvoke:
			if in.B.IsReg {
				return false
			}
		case machine.InstrJEq, machine.InstrJmp, machine.InstrDecide,
			machine.InstrAbort, machine.InstrHalt:
		default:
			return false
		}
	}
	return true
}

// swap01 applies the 0↔1 swap to one value.
func swap01(v value.Value) value.Value {
	switch v {
	case 0:
		return 1
	case 1:
		return 0
	default:
		return v
	}
}

// maskWildcard replaces a masked action slot in serialized keys. It
// cannot collide with a real instruction, whose leading kind byte is
// always a small enum value.
const maskWildcard = 0xFF

func appendOperandKey(dst []byte, o machine.Operand, swap bool) []byte {
	if o.IsReg {
		return append(dst, 1, byte(o.Reg))
	}
	v := o.Const
	if swap {
		v = swap01(v)
	}
	dst = append(dst, 0)
	return binary.AppendVarint(dst, int64(v))
}

func appendInstrKey(dst []byte, in machine.Instr, swap bool) []byte {
	dst = append(dst, byte(in.Kind), byte(in.Dst), byte(in.Method))
	dst = binary.AppendVarint(dst, int64(in.Obj))
	dst = binary.AppendVarint(dst, int64(in.Target))
	dst = appendOperandKey(dst, in.A, swap)
	// An Invoke's B operand is the constant invocation label, a
	// structural name rather than a data value; it stays unswapped.
	dst = appendOperandKey(dst, in.B, swap && in.Kind != machine.InstrInvoke)
	return dst
}

// progParts is one role program serialized once (under one swap
// choice), with the byte ranges of its two action slots — the
// instruction run when the guarded response is a value (PC depth+1)
// and when it is ⊥ (PC depth+2) — recorded so masked key variants
// assemble by segment copy instead of re-walking the instructions.
type progParts struct {
	full                   []byte
	aOff, aEnd, bOff, bEnd int
}

// progMeta is everything the memoizer precomputes about one distinct
// role program: both key serializations plus the per-program halves of
// the swap and peer-exchange admissibility checks, so per-candidate
// eligibility is a flag AND instead of an instruction walk.
type progMeta struct {
	parts     [2]progParts
	sigmaSafe bool
	idFree    bool
}

func buildProgParts(p *machine.Program, depth int, swap bool) progParts {
	var pp progParts
	dst := binary.AppendUvarint(nil, uint64(p.NumRegs))
	dst = binary.AppendUvarint(dst, uint64(len(p.Instrs)))
	for pc, in := range p.Instrs {
		switch pc {
		case depth + 1:
			pp.aOff = len(dst)
		case depth + 2:
			pp.bOff = len(dst)
		}
		dst = appendInstrKey(dst, in, swap)
		switch pc {
		case depth + 1:
			pp.aEnd = len(dst)
		case depth + 2:
			pp.bEnd = len(dst)
		}
	}
	pp.full = dst
	return pp
}

// keyer builds the canonical memo keys of one candidate. The key
// layout puts the two action slots of every role program at the END —
// header, per-role prefix instructions, input vector, then the slot
// tail — so every dead-slot mask variant shares one serialized prefix:
// a lookup builds the prefix once and emits only the few tail bytes
// per probed mask. The program portion of the prefix is itself reused
// across vectors (it changes only with the effective symmetry mode),
// and role programs are serialized once per sweep (runState.parts)
// and referenced here. Each sweep worker owns one keyer and binds it
// to one candidate at a time.
type keyer struct {
	rs            *runState
	sigma, canonV bool
	// parts[0] holds the identity serializations, parts[1] the
	// 0↔1-swapped ones (filled for every role; used only when sigma).
	// Role counts are 1 or 2 by construction, so fixed arrays avoid
	// per-candidate slice allocations.
	nRoles     int
	parts      [2][2]progParts
	buf0, buf1 []byte
	// g0len/g1len end the header+programs portion (valid for lastMode),
	// p0len/p1len the full prefix including the current vector.
	g0len, g1len int
	p0len, p1len int
	haveMode     bool
	lastMode     explore.Symmetry
}

// bind points the keyer at one memoizable candidate, settling its
// swap and peer-exchange eligibility from the precomputed program
// metadata. The role projection indexes progs directly — progs[0] is
// the distinguished (or only) role, progs[1] the shared peer program —
// so no per-candidate role slice is built. The key buffers are kept.
func (k *keyer) bind(rs *runState, c candidate) {
	k.rs = rs
	k.haveMode = false
	k.nRoles = rs.p.roles
	sigmaSafe, idFree := true, true
	for ri, p := range c.progs[:k.nRoles] {
		m := rs.parts[p]
		k.parts[0][ri] = m.parts[0]
		k.parts[1][ri] = m.parts[1]
		sigmaSafe = sigmaSafe && m.sigmaSafe
		idFree = idFree && m.idFree
	}
	k.sigma = rs.p.sigmaOK && sigmaSafe
	k.canonV = rs.p.peerOK && idFree
}

// assembleProg serializes the vector- and mask-independent key head:
// the effective symmetry mode and state cap (both verdict-relevant)
// and every role program with its action slots excised.
func (k *keyer) assembleProg(dst []byte, swapIdx int, effMode explore.Symmetry) []byte {
	dst = append(dst, byte(effMode))
	dst = binary.AppendUvarint(dst, uint64(k.rs.opts.MaxStatesPerCandidate))
	dst = append(dst, byte(k.nRoles))
	for _, pp := range k.parts[swapIdx][:k.nRoles] {
		dst = append(dst, pp.full[:pp.aOff]...)
		dst = append(dst, pp.full[pp.aEnd:pp.bOff]...)
		dst = append(dst, pp.full[pp.bEnd:]...)
	}
	return dst
}

// appendVector emits the input vector — swapped alongside the programs
// and, when canonV, with its peer suffix sorted.
func (k *keyer) appendVector(dst []byte, swapIdx int, in []value.Value) []byte {
	var arr [16]value.Value
	v := arr[:0]
	if len(in) > len(arr) {
		v = make([]value.Value, 0, len(in))
	}
	for _, x := range in {
		if swapIdx == 1 {
			x = swap01(x)
		}
		v = append(v, x)
	}
	if k.canonV {
		peers := v
		if k.rs.p.roles == 2 {
			peers = v[1:]
		}
		// Insertion sort: peer suffixes are tiny and this avoids the
		// allocation sort.Slice pays for its reflect swapper.
		for i := 1; i < len(peers); i++ {
			for j := i; j > 0 && peers[j] < peers[j-1]; j-- {
				peers[j], peers[j-1] = peers[j-1], peers[j]
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

// appendTail emits the mask-dependent slot tail: for each role, its
// value-slot instruction (or the wildcard byte when mask bit 2r is
// set) then its ⊥-slot instruction (or the wildcard at bit 2r+1).
func (k *keyer) appendTail(dst []byte, swapIdx int, mask uint8) []byte {
	for ri, pp := range k.parts[swapIdx][:k.nRoles] {
		if mask&(1<<(2*ri)) != 0 {
			dst = append(dst, maskWildcard)
		} else {
			dst = append(dst, pp.full[pp.aOff:pp.aEnd]...)
		}
		if mask&(1<<(2*ri+1)) != 0 {
			dst = append(dst, maskWildcard)
		} else {
			dst = append(dst, pp.full[pp.bOff:pp.bEnd]...)
		}
	}
	return dst
}

// begin fixes the (effMode, vector) pair and builds its prefixes; key
// then produces canonical keys for any mask until the next begin. The
// program head is rebuilt only when effMode changes (mode only evolves
// on a symmetry fallback), so consecutive vectors pay for their own
// bytes alone.
func (k *keyer) begin(effMode explore.Symmetry, in []value.Value) {
	if !k.haveMode || effMode != k.lastMode {
		k.buf0 = k.assembleProg(k.buf0[:0], 0, effMode)
		k.g0len = len(k.buf0)
		if k.sigma {
			k.buf1 = k.assembleProg(k.buf1[:0], 1, effMode)
			k.g1len = len(k.buf1)
		}
		k.haveMode, k.lastMode = true, effMode
	}
	k.buf0 = k.appendVector(k.buf0[:k.g0len], 0, in)
	k.p0len = len(k.buf0)
	if k.sigma {
		k.buf1 = k.appendVector(k.buf1[:k.g1len], 1, in)
		k.p1len = len(k.buf1)
	}
}

// key is the canonical key for one mask: the lexicographic minimum
// over the admissible swap choices (identity always; the 0↔1 swap when
// sigma). Canonical equality is an equivalence — each candidate
// minimizes over its full orbit under the two-element swap group. The
// returned slice aliases a keyer buffer, valid until the next call.
func (k *keyer) key(mask uint8) []byte {
	k.buf0 = k.appendTail(k.buf0[:k.p0len], 0, mask)
	if !k.sigma {
		return k.buf0
	}
	k.buf1 = k.appendTail(k.buf1[:k.p1len], 1, mask)
	if bytes.Compare(k.buf1, k.buf0) < 0 {
		return k.buf1
	}
	return k.buf0
}

// lookup probes the memo table under every dead-slot mask some insert
// has used, smallest mask first. An entry recorded at mask m matches a
// candidate agreeing on every unmasked byte; since the recorded run
// never executed the masked slots, its class and states transfer
// exactly (concurrent canonical-equal recordings agree, so which mask
// hits first is irrelevant to the result).
func (rs *runState) lookup(k *keyer, effMode explore.Symmetry, in []value.Value) (memoEntry, bool) {
	used := rs.p.memo.masks.Load()
	if used == 0 {
		return memoEntry{}, false
	}
	k.begin(effMode, in)
	for m := 0; m < 1<<(2*k.nRoles); m++ {
		if used&(1<<m) == 0 {
			continue
		}
		if e, ok := rs.p.memo.get(k.key(uint8(m))); ok {
			return e, true
		}
	}
	return memoEntry{}, false
}

// insert records one concrete check under the dead-slot mask its
// coverage proves: an action slot whose branch no process ever took
// cannot have influenced the exploration, so it is wildcarded. Partial
// (state-limited) coverage is sound — it reflects exactly the levels
// the truncated run merged, which any key-equal candidate reproduces.
func (rs *runState) insert(k *keyer, effMode explore.Symmetry,
	in []value.Value, r *explore.Report, class memoClass,
) {
	var mask uint8
	if cov := r.Cover; len(cov) > 0 {
		or := func(cs []explore.BranchCover) (b explore.BranchCover) {
			for _, c := range cs {
				b.Bottom = b.Bottom || c.Bottom
				b.Value = b.Value || c.Value
			}
			return b
		}
		roleCov := []explore.BranchCover{or(cov)}
		if rs.p.roles == 2 {
			roleCov = []explore.BranchCover{cov[0], or(cov[1:])}
		}
		for ri, b := range roleCov {
			if !b.Value {
				mask |= 1 << (2 * ri)
			}
			if !b.Bottom {
				mask |= 1 << (2*ri + 1)
			}
		}
	}
	k.begin(effMode, in)
	rs.p.memo.put(string(k.key(mask)),
		mask, memoEntry{class: class, states: r.States})
}

// memoizable reports whether the candidate has the exact layout the
// key schema assumes: peers sharing one program object (so the role
// projection determines the whole system) and the family's uniform
// depth+3 instruction layout (so action-slot PCs are where masking
// expects them).
func (rs *runState) memoizable(c candidate) bool {
	if len(c.progs) == 0 {
		return false
	}
	shared, first := c.progs[0], 1
	if rs.p.roles == 2 {
		if len(c.progs) < 2 {
			return false
		}
		shared, first = c.progs[1], 2
	}
	for _, p := range c.progs[first:] {
		if p != shared {
			return false
		}
	}
	for _, p := range c.progs[:rs.p.roles] {
		if len(p.Instrs) != rs.p.depth+3 {
			return false
		}
	}
	return true
}

// materializeViolation re-checks a memo-served refutation concretely to
// recover the counterexample the unmemoized sweep reports: recorded
// classes transfer across canonical-equal candidates but concrete
// witnesses do not, so the one failure a report surfaces is re-derived
// by this candidate's own (deterministic) check on its refuting vector.
// The re-check runs on ck, a worker's checker, and is silent — its
// states were already attributed through the memo entry.
func (p *Prepared) materializeViolation(ck *explore.Checker, c candidate, o *outcome, opts SweepOptions) error {
	f := o.failure
	sys := &explore.System{Programs: c.progs, Objects: p.objs, Inputs: f.Inputs}
	copts := opts.checkOptions(o.vioMode)
	copts.Obs = nil
	r, err := ck.Check(sys, p.tsk, copts)
	if err != nil {
		return fmt.Errorf("candidate %v on %v: materializing memoized refutation: %w",
			c.asn.Shapes, f.Inputs, err)
	}
	if len(r.Violations) == 0 {
		return fmt.Errorf("candidate %v on %v: memoized refutation did not reproduce",
			c.asn.Shapes, f.Inputs)
	}
	f.Violation = r.Violations[0]
	o.vioPending = false
	return nil
}
