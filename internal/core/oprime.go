package core

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"

	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// Sequence is a set agreement power sequence (n_1, n_2, ..., n_k, ...):
// At(k) returns n_k, the k-set agreement number. A return of
// objects.Unbounded (0) encodes n_k = ∞ ("solves k-set agreement among
// any number of processes", §1).
type Sequence interface {
	At(k int) int
}

// SequenceFunc adapts a function to the Sequence interface.
type SequenceFunc func(k int) int

// At implements Sequence.
func (f SequenceFunc) At(k int) int { return f(k) }

var _ Sequence = (SequenceFunc)(nil)

// OPrimeState is the state of an O'_n object: the states of the
// lazily-instantiated (n_k, k)-SA components, keyed by k. The paper's
// collection C_n = ∪_{k>=1} {(n_k,k)-SA} is infinite, but any finite
// run touches only finitely many k, so lazy instantiation is
// behaviourally identical (DESIGN.md substitution 2).
type OPrimeState struct {
	// Components maps k to the state of the (n_k,k)-SA component that
	// has been touched at least once.
	Components map[int]spec.State
}

// levelBuf sizes the stack buffer the O'_n key encoders collect levels
// in; states touching more levels still encode correctly, on the heap.
const levelBuf = 8

// levels appends the keys of a level-indexed component map to buf in
// ascending order, the canonical order of every O'_n key encoding.
// With buf backed by a caller's stack array, encoding allocates
// nothing.
func levels(buf []int, m map[int]spec.State) []int {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// Key implements spec.State (canonical: components in ascending k).
func (s OPrimeState) Key() string {
	var buf [levelBuf]int
	ks := levels(buf[:0], s.Components)
	var b strings.Builder
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(strconv.Itoa(k))
		b.WriteByte(':')
		b.WriteString(s.Components[k].Key())
	}
	return b.String()
}

// AppendKey implements spec.AppendKeyer (canonical: components in
// ascending k).
func (s OPrimeState) AppendKey(dst []byte) []byte {
	var buf [levelBuf]int
	ks := levels(buf[:0], s.Components)
	dst = binary.AppendUvarint(dst, uint64(len(ks)))
	for _, k := range ks {
		dst = binary.AppendUvarint(dst, uint64(k))
		dst = spec.AppendStateKey(dst, s.Components[k])
	}
	return dst
}

var _ spec.State = OPrimeState{}
var _ spec.AppendKeyer = OPrimeState{}

// OPrime is the object O'_n of §6: it "embodies" a set agreement power
// (n_1, n_2, ..., n_k, ...) by combining the collection
// C_n = ∪_{k>=1} {(n_k,k)-SA}. Its single operation PROPOSE(v, k)
// redirects PROPOSE(v) to the (n_k,k)-SA component and returns that
// component's response. By construction O'_n has exactly the given set
// agreement power.
type OPrime struct {
	// Power is the set agreement power sequence the object embodies.
	Power Sequence
	// Label names the object, e.g. "O'_3"; used by Name.
	Label string
}

var _ spec.Spec = OPrime{}

// NewOPrime returns the O'_n object for the power sequence of O_n.
// The default sequence (used when power is nil) is n_k = k·n — the set
// agreement power of the n-consensus object embedded in
// O_n = (n+1,n)-PAC, which is the natural concrete instantiation of the
// paper's abstract sequence (DESIGN.md substitution 3). n_1 = n is
// forced by Observation 6.2 regardless.
func NewOPrime(n int, power Sequence) OPrime {
	if power == nil {
		power = SequenceFunc(func(k int) int { return k * n })
	}
	return OPrime{Power: power, Label: "O'_" + strconv.Itoa(n)}
}

// Name implements spec.Spec.
func (o OPrime) Name() string {
	if o.Label == "" {
		return "O'"
	}
	return o.Label
}

// Init implements spec.Spec.
func (OPrime) Init() spec.State { return OPrimeState{} }

// Deterministic reports that O'_n is nondeterministic in general: its
// (n_k,k)-SA components with k >= 2 are.
func (OPrime) Deterministic() bool { return false }

// Component returns the (n_k,k)-SA spec backing level k.
func (o OPrime) Component(k int) objects.SetAgreement {
	return objects.NewSetAgreement(o.Power.At(k), k)
}

// Step implements spec.Spec: PROPOSE(v, k) is redirected to the
// (n_k,k)-SA component for k = op.Label.
func (o OPrime) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(OPrimeState)
	if !ok {
		return nil, spec.BadOpError(o.Name(), op, "foreign state")
	}
	if op.Method != value.MethodProposeK {
		return nil, spec.BadOpError(o.Name(), op, "O'_n supports PROPOSE_K only")
	}
	if op.Label < 1 {
		return nil, spec.BadOpError(o.Name(), op, "level k must be >= 1")
	}
	comp := o.Component(op.Label)
	cs, found := st.Components[op.Label]
	if !found {
		cs = comp.Init()
	}
	ts, err := comp.Step(cs, value.Propose(op.Arg))
	if err != nil {
		return nil, err
	}
	out := make([]spec.Transition, len(ts))
	for i, t := range ts {
		next := make(map[int]spec.State, len(st.Components)+1)
		for k, v := range st.Components {
			next[k] = v
		}
		next[op.Label] = t.Next
		out[i] = spec.Transition{Next: OPrimeState{Components: next}, Resp: t.Resp}
	}
	return out, nil
}
