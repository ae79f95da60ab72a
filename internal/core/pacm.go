package core

import (
	"strconv"

	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// PACMState is the state of an (n,m)-PAC object: the pair of its
// embedded n-PAC state P and m-consensus state C (§5).
type PACMState struct {
	// P is the embedded n-PAC component state.
	P spec.State
	// C is the embedded m-consensus component state.
	C spec.State
}

// Key implements spec.State.
func (s PACMState) Key() string {
	return s.P.Key() + "|" + s.C.Key()
}

// AppendKey implements spec.AppendKeyer: the concatenation of the two
// component encodings (each is self-delimiting).
func (s PACMState) AppendKey(dst []byte) []byte {
	dst = spec.AppendStateKey(dst, s.P)
	return spec.AppendStateKey(dst, s.C)
}

var _ spec.State = PACMState{}
var _ spec.AppendKeyer = PACMState{}

// PACM is the "boosted" (n,m)-PAC object of §5: a combination of an
// n-PAC object P and an m-consensus object C. It supports
//
//   - PROPOSEC(v), redirected to C's PROPOSE(v);
//   - PROPOSEP(v, i), redirected to P's PROPOSE(v, i);
//   - DECIDEP(i), redirected to P's DECIDE(i).
//
// PACM objects are deterministic, since both components are (§5), and
// Theorem 5.3 places them at level m of the consensus hierarchy for all
// m >= 2.
type PACM struct {
	// N is the label count of the n-PAC component.
	N int
	// M is the consensus width of the m-consensus component.
	M int
}

// NewPACM returns the (n,m)-PAC spec.
func NewPACM(n, m int) PACM { return PACM{N: n, M: m} }

var _ spec.Spec = PACM{}

// Name implements spec.Spec.
func (p PACM) Name() string {
	return "(" + strconv.Itoa(p.N) + "," + strconv.Itoa(p.M) + ")-PAC"
}

func (p PACM) pacSpec() PAC                     { return NewPAC(p.N) }
func (p PACM) consensusSpec() objects.Consensus { return objects.NewConsensus(p.M) }

// Ports implements spec.Ported: the n-PAC component is port-indexed.
func (p PACM) Ports() int { return p.N }

var _ spec.Ported = PACM{}

// Init implements spec.Spec.
func (p PACM) Init() spec.State {
	return PACMState{P: p.pacSpec().Init(), C: p.consensusSpec().Init()}
}

// Deterministic reports that (n,m)-PAC objects are deterministic.
func (PACM) Deterministic() bool { return true }

// Step implements spec.Spec by redirecting each operation to the
// appropriate component, exactly as §5 defines.
func (p PACM) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(PACMState)
	if !ok {
		return nil, spec.BadOpError(p.Name(), op, "foreign state")
	}
	switch op.Method {
	case value.MethodProposeC:
		ts, err := p.consensusSpec().Step(st.C, value.Propose(op.Arg))
		if err != nil {
			return nil, err
		}
		return []spec.Transition{{Next: PACMState{P: st.P, C: ts[0].Next}, Resp: ts[0].Resp}}, nil
	case value.MethodProposeP:
		ts, err := p.pacSpec().Step(st.P, value.ProposeAt(op.Arg, op.Label))
		if err != nil {
			return nil, err
		}
		return []spec.Transition{{Next: PACMState{P: ts[0].Next, C: st.C}, Resp: ts[0].Resp}}, nil
	case value.MethodDecideP:
		ts, err := p.pacSpec().Step(st.P, value.Decide(op.Label))
		if err != nil {
			return nil, err
		}
		return []spec.Transition{{Next: PACMState{P: ts[0].Next, C: st.C}, Resp: ts[0].Resp}}, nil
	default:
		return nil, spec.BadOpError(p.Name(), op,
			"(n,m)-PAC supports PROPOSE_C, PROPOSE_P, and DECIDE_P only")
	}
}

// ObjectO returns O_n, defined as the (n+1, n)-PAC object
// (Definition 6.1). By Observation 6.2 its consensus number is n.
func ObjectO(n int) PACM { return NewPACM(n+1, n) }
