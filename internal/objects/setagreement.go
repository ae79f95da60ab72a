package objects

import (
	"encoding/binary"
	"strconv"
	"strings"

	"setagree/internal/spec"
	"setagree/internal/value"
)

// Unbounded, used as the N of a SetAgreement spec, makes the object
// answer every proposal regardless of how many processes use it (the
// 2-SA object of §4 serves "any finite number of processes").
const Unbounded = 0

// SetAgreementState is the state of an (n,k)-SA object.
type SetAgreementState struct {
	// Vals holds the at most K distinct values stored so far, in the
	// order they were first proposed (the paper's STATE set; Algorithm 3
	// line 2 only ever appends).
	Vals []value.Value
	// Count is the number of propose operations performed, saturating
	// at N+1. It stays 0 for unbounded objects.
	Count int
}

// Key implements spec.State.
func (s SetAgreementState) Key() string {
	var b strings.Builder
	for i, v := range s.Vals {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 36))
	}
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(s.Count))
	return b.String()
}

// AppendKey implements spec.AppendKeyer.
func (s SetAgreementState) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Vals)))
	for _, v := range s.Vals {
		dst = value.AppendKey(dst, v)
	}
	return binary.AppendUvarint(dst, uint64(s.Count))
}

var _ spec.State = SetAgreementState{}
var _ spec.AppendKeyer = SetAgreementState{}

func (s SetAgreementState) contains(v value.Value) bool {
	for _, x := range s.Vals {
		if x == v {
			return true
		}
	}
	return false
}

// SetAgreement is the strong (n,k)-set-agreement object family:
//
//   - K bounds the size of STATE: a PROPOSE(v) adds v to STATE only if
//     STATE holds fewer than K distinct values, and every response is
//     drawn (nondeterministically) from STATE, so the object responds
//     with at most K distinct values — the first K distinct values
//     proposed. With K = 2 and N = Unbounded this is exactly the strong
//     2-SA object of §4 (Algorithm 3).
//   - N, when positive, bounds participation the way the n-consensus
//     object of footnote 6 does: only the first N proposals are
//     answered from STATE; later proposals return ⊥. This realizes the
//     (n,k)-SA objects of §6 ("allow up to n processes to solve the
//     k-set agreement problem"), and with K = 1 the spec degenerates to
//     the deterministic n-consensus object.
type SetAgreement struct {
	// N is the participation bound (Unbounded for no bound).
	N int
	// K is the agreement bound (at most K distinct responses).
	K int
}

var _ spec.Spec = SetAgreement{}

// NewTwoSA returns the strong 2-SA object of §4: unbounded
// participation, at most two distinct responses.
func NewTwoSA() SetAgreement { return SetAgreement{N: Unbounded, K: 2} }

// NewSetAgreement returns the (n,k)-SA spec.
func NewSetAgreement(n, k int) SetAgreement { return SetAgreement{N: n, K: k} }

// Name implements spec.Spec.
func (sa SetAgreement) Name() string {
	if sa.N == Unbounded {
		return strconv.Itoa(sa.K) + "-SA"
	}
	return "(" + strconv.Itoa(sa.N) + "," + strconv.Itoa(sa.K) + ")-SA"
}

// Init implements spec.Spec.
func (SetAgreement) Init() spec.State { return SetAgreementState{} }

// Deterministic reports whether the object has any nondeterministic
// branching; only the K = 1 (consensus) degenerate case is
// deterministic.
func (sa SetAgreement) Deterministic() bool { return sa.K <= 1 }

// ValueOblivious implements the spec.ValueOblivious extension: every
// response is one of the stored proposals, never a function of their
// numeric values.
func (SetAgreement) ValueOblivious() bool { return true }

// Step implements spec.Spec. Nondeterminism: one transition per member
// of STATE (they share the successor state and differ only in the
// response).
func (sa SetAgreement) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(SetAgreementState)
	if !ok {
		return nil, spec.BadOpError(sa.Name(), op, "foreign state")
	}
	if op.Method != value.MethodPropose {
		return nil, spec.BadOpError(sa.Name(), op, "set-agreement supports PROPOSE only")
	}
	if err := spec.CheckProposal(sa, op); err != nil {
		return nil, err
	}

	next := SetAgreementState{Vals: st.Vals, Count: st.Count}
	if sa.N != Unbounded && next.Count <= sa.N {
		next.Count++
	}
	if sa.N != Unbounded && st.Count >= sa.N {
		// Participation exhausted: like the n-consensus object, the
		// object answers ⊥ forever after its first N proposals.
		return []spec.Transition{{Next: next, Resp: value.Bottom}}, nil
	}
	if len(st.Vals) < sa.K && !st.contains(op.Arg) {
		vals := make([]value.Value, len(st.Vals), len(st.Vals)+1)
		copy(vals, st.Vals)
		next.Vals = append(vals, op.Arg)
	}
	ts := make([]spec.Transition, len(next.Vals))
	for i, v := range next.Vals {
		ts[i] = spec.Transition{Next: next, Resp: v}
	}
	return ts, nil
}
