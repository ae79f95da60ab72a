package objects

import (
	"encoding/binary"
	"strconv"

	"setagree/internal/spec"
	"setagree/internal/value"
)

// ConsensusState is the state of an n-consensus object.
type ConsensusState struct {
	// Val is the value of the first propose operation, or value.None if
	// no propose has occurred yet.
	Val value.Value
	// Count is the number of propose operations performed so far,
	// saturating at N+1 (further counting is unobservable).
	Count int
}

// Key implements spec.State.
func (s ConsensusState) Key() string {
	return strconv.FormatInt(int64(s.Val), 36) + "." + strconv.Itoa(s.Count)
}

// AppendKey implements spec.AppendKeyer.
func (s ConsensusState) AppendKey(dst []byte) []byte {
	dst = value.AppendKey(dst, s.Val)
	return binary.AppendUvarint(dst, uint64(s.Count))
}

var _ spec.State = ConsensusState{}
var _ spec.AppendKeyer = ConsensusState{}

// Consensus is the deterministic linearizable n-consensus object of §4
// footnote 6 (after Jayanti [12] and Qadri [13]): each of the first N
// PROPOSE operations returns the value of the first PROPOSE; every
// subsequent PROPOSE returns ⊥. With this spec the object solves
// consensus among N processes but not among N+1, so its consensus
// number is exactly N.
type Consensus struct {
	// N is the number of propose operations the object answers before
	// responding ⊥.
	N int
}

var _ spec.Spec = Consensus{}

// NewConsensus returns the n-consensus spec for the given n (n >= 1).
func NewConsensus(n int) Consensus { return Consensus{N: n} }

// Name implements spec.Spec.
func (c Consensus) Name() string {
	return strconv.Itoa(c.N) + "-consensus"
}

// Init implements spec.Spec.
func (Consensus) Init() spec.State {
	return ConsensusState{Val: value.None}
}

// Deterministic reports that n-consensus objects are deterministic.
func (Consensus) Deterministic() bool { return true }

// ValueOblivious implements the spec.ValueOblivious extension: the
// winning proposal is adopted and echoed without being inspected.
func (Consensus) ValueOblivious() bool { return true }

// Step implements spec.Spec.
func (c Consensus) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(ConsensusState)
	if !ok {
		return nil, spec.BadOpError(c.Name(), op, "foreign state")
	}
	if op.Method != value.MethodPropose {
		return nil, spec.BadOpError(c.Name(), op, "consensus supports PROPOSE only")
	}
	if err := spec.CheckProposal(c, op); err != nil {
		return nil, err
	}
	next := st
	if next.Count <= c.N {
		next.Count++
	}
	if st.Count >= c.N {
		// The object has already served N proposals; it is "no longer
		// useful" (proof of Claim 4.2.9) and returns ⊥ forever.
		return []spec.Transition{{Next: next, Resp: value.Bottom}}, nil
	}
	if next.Val == value.None {
		next.Val = op.Arg
	}
	return []spec.Transition{{Next: next, Resp: next.Val}}, nil
}
