package core

import (
	"encoding/binary"
	"strconv"
	"strings"

	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// OPrimeFromBase is the Lemma 6.4 construction: an implementation of
// O'_n whose components are drawn *only* from n-consensus objects and
// strong 2-SA objects —
//
//   - level k = 1 is served by an n-consensus object (n_1 = n by
//     Observation 6.2, and the (n,1)-SA object *is* the n-consensus
//     object); and
//   - every level k >= 2 is served by its own 2-SA object: the 2-SA
//     object answers any number of processes with at most two distinct
//     proposed values, which satisfies the (n_k,k)-set agreement
//     requirements a fortiori (§4).
//
// Together with Theorem 4.3's consequence (Observation 6.3), this is
// the executable half of the separation: O'_n is implementable from
// {n-consensus, 2-SA, registers} while O_n is not, so the two objects —
// which have the same set agreement power — are not equivalent
// (Theorem 6.5, Corollary 6.6).
type OPrimeFromBase struct {
	// N is the consensus number n of the embodied O_n.
	N int
}

var _ spec.Spec = OPrimeFromBase{}

// NewOPrimeFromBase returns the Lemma 6.4 implementation of O'_n.
func NewOPrimeFromBase(n int) OPrimeFromBase { return OPrimeFromBase{N: n} }

// Name implements spec.Spec.
func (o OPrimeFromBase) Name() string {
	return "O'_" + strconv.Itoa(o.N) + "-from-{" + strconv.Itoa(o.N) + "-consensus,2-SA}"
}

// OPrimeBaseState is the state of an OPrimeFromBase object: the level-1
// n-consensus component plus the lazily instantiated per-level 2-SA
// components.
type OPrimeBaseState struct {
	// Consensus is the level-1 component state.
	Consensus spec.State
	// TwoSA maps level k >= 2 to its 2-SA component state.
	TwoSA map[int]spec.State
}

// Key implements spec.State.
func (s OPrimeBaseState) Key() string {
	var buf [levelBuf]int
	ks := levels(buf[:0], s.TwoSA)
	var b strings.Builder
	b.WriteString(s.Consensus.Key())
	for _, k := range ks {
		b.WriteByte(';')
		b.WriteString(strconv.Itoa(k))
		b.WriteByte(':')
		b.WriteString(s.TwoSA[k].Key())
	}
	return b.String()
}

// AppendKey implements spec.AppendKeyer (canonical: 2-SA components in
// ascending k).
func (s OPrimeBaseState) AppendKey(dst []byte) []byte {
	dst = spec.AppendStateKey(dst, s.Consensus)
	var buf [levelBuf]int
	ks := levels(buf[:0], s.TwoSA)
	dst = binary.AppendUvarint(dst, uint64(len(ks)))
	for _, k := range ks {
		dst = binary.AppendUvarint(dst, uint64(k))
		dst = spec.AppendStateKey(dst, s.TwoSA[k])
	}
	return dst
}

var _ spec.State = OPrimeBaseState{}
var _ spec.AppendKeyer = OPrimeBaseState{}

// Init implements spec.Spec.
func (o OPrimeFromBase) Init() spec.State {
	return OPrimeBaseState{Consensus: objects.NewConsensus(o.N).Init()}
}

// Deterministic reports nondeterminism (the 2-SA components branch).
func (OPrimeFromBase) Deterministic() bool { return false }

// Step implements spec.Spec: PROPOSE(v, 1) goes to the n-consensus
// component, PROPOSE(v, k) for k >= 2 to the level's 2-SA component.
func (o OPrimeFromBase) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(OPrimeBaseState)
	if !ok {
		return nil, spec.BadOpError(o.Name(), op, "foreign state")
	}
	if op.Method != value.MethodProposeK {
		return nil, spec.BadOpError(o.Name(), op, "O'_n supports PROPOSE_K only")
	}
	if op.Label < 1 {
		return nil, spec.BadOpError(o.Name(), op, "level k must be >= 1")
	}
	if op.Label == 1 {
		ts, err := objects.NewConsensus(o.N).Step(st.Consensus, value.Propose(op.Arg))
		if err != nil {
			return nil, err
		}
		return []spec.Transition{{
			Next: OPrimeBaseState{Consensus: ts[0].Next, TwoSA: st.TwoSA},
			Resp: ts[0].Resp,
		}}, nil
	}
	comp := objects.NewTwoSA()
	cs, found := st.TwoSA[op.Label]
	if !found {
		cs = comp.Init()
	}
	ts, err := comp.Step(cs, value.Propose(op.Arg))
	if err != nil {
		return nil, err
	}
	out := make([]spec.Transition, len(ts))
	for i, t := range ts {
		next := make(map[int]spec.State, len(st.TwoSA)+1)
		for k, v := range st.TwoSA {
			next[k] = v
		}
		next[op.Label] = t.Next
		out[i] = spec.Transition{
			Next: OPrimeBaseState{Consensus: st.Consensus, TwoSA: next},
			Resp: t.Resp,
		}
	}
	return out, nil
}
