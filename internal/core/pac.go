// Package core implements the paper's primary contributions: the
// n-pseudo-abortable-consensus (n-PAC) object of §3 (Algorithm 1), the
// combined (n,m)-PAC object of §5, the objects O_n = (n+1,n)-PAC and
// O'_n of §6, and the n-DAC problem of §4 together with Algorithm 2.
package core

import (
	"encoding/binary"
	"strconv"
	"strings"

	"setagree/internal/spec"
	"setagree/internal/value"
)

// nilLabel is the NIL value of the n-PAC variable L (labels are 1..n).
const nilLabel = 0

// PACState is the state of an n-PAC object, exactly the four components
// listed in §3:
//
//   - Upset, initially false;
//   - V[1..n], initially all NIL — V[i] = v iff the last operation with
//     label i is PROPOSE(v, i);
//   - L, initially NIL — L = i iff the last operation is PROPOSE(-, i);
//   - Val, initially NIL — the consensus value.
type PACState struct {
	// V is the per-label proposal array; index 0 is label 1.
	V []value.Value
	// Val is the consensus value, value.None until fixed.
	Val value.Value
	// L is the label of the last operation if that operation was a
	// propose, else nilLabel.
	L int
	// Upset records whether the object has become permanently upset.
	Upset bool
}

// Key implements spec.State.
func (s PACState) Key() string {
	var b strings.Builder
	if s.Upset {
		b.WriteByte('U')
	}
	b.WriteString(strconv.Itoa(s.L))
	b.WriteByte('.')
	b.WriteString(strconv.FormatInt(int64(s.Val), 36))
	for _, v := range s.V {
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(int64(v), 36))
	}
	return b.String()
}

// AppendKey implements spec.AppendKeyer.
func (s PACState) AppendKey(dst []byte) []byte {
	upset := byte(0)
	if s.Upset {
		upset = 1
	}
	dst = append(dst, upset)
	dst = binary.AppendUvarint(dst, uint64(s.L))
	dst = value.AppendKey(dst, s.Val)
	dst = binary.AppendUvarint(dst, uint64(len(s.V)))
	for _, v := range s.V {
		dst = value.AppendKey(dst, v)
	}
	return dst
}

var _ spec.State = PACState{}
var _ spec.AppendKeyer = PACState{}

func (s PACState) clone() PACState {
	v := make([]value.Value, len(s.V))
	copy(v, s.V)
	s.V = v
	return s
}

// PAC is the sequential specification of the n-PAC object (§3,
// Algorithm 1). It is deterministic and, unlike the n-DAC object of [9]
// it simulates, not abortable: PROPOSE(v, i) always returns done, and
// DECIDE(i) returns the consensus value or ⊥.
type PAC struct {
	// N is the number of labels (ports of the simulated n-DAC object).
	N int
}

var _ spec.Spec = PAC{}

// NewPAC returns the n-PAC spec for the given n (n >= 1).
func NewPAC(n int) PAC { return PAC{N: n} }

// Name implements spec.Spec.
func (p PAC) Name() string { return strconv.Itoa(p.N) + "-PAC" }

// Ports implements spec.Ported: V has one slot per label.
func (p PAC) Ports() int { return p.N }

var _ spec.Ported = PAC{}

// Init implements spec.Spec.
func (p PAC) Init() spec.State {
	v := make([]value.Value, p.N)
	for i := range v {
		v[i] = value.None
	}
	return PACState{V: v, Val: value.None, L: nilLabel}
}

// Deterministic reports that n-PAC objects are deterministic (§3: "a
// non-abortable and deterministic version of the abortable n-DAC").
func (PAC) Deterministic() bool { return true }

// Step implements spec.Spec, transcribing Algorithm 1 line by line.
func (p PAC) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(PACState)
	if !ok || len(st.V) != p.N {
		return nil, spec.BadOpError(p.Name(), op, "foreign state")
	}
	switch op.Method {
	case value.MethodProposeAt:
		if err := spec.CheckProposal(p, op); err != nil {
			return nil, err
		}
		if op.Label < 1 || op.Label > p.N {
			return nil, spec.BadOpError(p.Name(), op, "label out of range")
		}
		next := st.clone()
		if next.V[op.Label-1] != value.None { // line 2
			next.Upset = true
		}
		if !next.Upset { // lines 3-5
			next.L = op.Label
			next.V[op.Label-1] = op.Arg
		}
		return []spec.Transition{{Next: next, Resp: value.Done}}, nil // line 6

	case value.MethodDecide:
		if op.Label < 1 || op.Label > p.N {
			return nil, spec.BadOpError(p.Name(), op, "label out of range")
		}
		next := st.clone()
		if next.V[op.Label-1] == value.None { // line 8
			next.Upset = true
		}
		if next.Upset { // line 9
			return []spec.Transition{{Next: next, Resp: value.Bottom}}, nil
		}
		var temp value.Value
		if next.L != op.Label { // lines 10-11
			temp = value.Bottom
		} else { // lines 12-14
			if next.Val == value.None {
				next.Val = next.V[op.Label-1]
			}
			temp = next.Val
		}
		next.L = nilLabel                                       // line 15
		next.V[op.Label-1] = value.None                         // line 16
		return []spec.Transition{{Next: next, Resp: temp}}, nil // line 17

	default:
		return nil, spec.BadOpError(p.Name(), op, "n-PAC supports PROPOSE_AT and DECIDE only")
	}
}

// IsUpset reports whether an n-PAC state is upset (Observation 3.1:
// once upset, upset forever).
func IsUpset(s spec.State) bool {
	st, ok := s.(PACState)
	return ok && st.Upset
}
