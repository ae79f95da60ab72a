// Package objects implements the base shared objects the paper's
// constructions and proofs use as substrates: atomic registers,
// n-consensus objects (§4 footnote 6), and the strong (n,k)-set-
// agreement family, whose unbounded k=2 member is the 2-SA object of §4
// (Algorithm 3).
//
// The paper's own contributions — n-PAC, (n,m)-PAC, O_n and O'_n — live
// in internal/core and are built over these.
package objects

import (
	"strconv"

	"setagree/internal/spec"
	"setagree/internal/value"
)

// RegisterState is the state of an atomic register: the value it holds.
type RegisterState struct {
	// Val is the register content; value.None until first written if
	// the register was created with no initial value.
	Val value.Value
}

// Key implements spec.State.
func (s RegisterState) Key() string {
	return strconv.FormatInt(int64(s.Val), 36)
}

// AppendKey implements spec.AppendKeyer.
func (s RegisterState) AppendKey(dst []byte) []byte {
	return value.AppendKey(dst, s.Val)
}

var _ spec.State = RegisterState{}
var _ spec.AppendKeyer = RegisterState{}

// Register is the sequential specification of an atomic read/write
// register holding a single Value.
type Register struct {
	// Initial is the value the register holds before the first write.
	Initial value.Value
}

var _ spec.Spec = Register{}

// NewRegister returns a register initialized to value.None (the paper's
// registers start unset).
func NewRegister() Register { return Register{Initial: value.None} }

// Name implements spec.Spec.
func (Register) Name() string { return "register" }

// Init implements spec.Spec.
func (r Register) Init() spec.State { return RegisterState{Val: r.Initial} }

// Deterministic reports that registers are deterministic objects.
func (Register) Deterministic() bool { return true }

// ValueOblivious implements the spec.ValueOblivious extension: a
// register stores and returns values without inspecting them.
func (Register) ValueOblivious() bool { return true }

// Step implements spec.Spec: READ returns the current content and leaves
// the state unchanged; WRITE(v) stores v and returns done.
func (r Register) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(RegisterState)
	if !ok {
		return nil, spec.BadOpError(r.Name(), op, "foreign state")
	}
	switch op.Method {
	case value.MethodRead:
		return []spec.Transition{{Next: st, Resp: st.Val}}, nil
	case value.MethodWrite:
		return []spec.Transition{{Next: RegisterState{Val: op.Arg}, Resp: value.Done}}, nil
	default:
		return nil, spec.BadOpError(r.Name(), op, "register supports READ and WRITE only")
	}
}
