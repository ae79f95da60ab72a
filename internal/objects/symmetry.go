// Symmetry (spec.Symmetric) implementations for the base objects.
// None of these states mention process ids or ports, so only the value
// map acts; each encoder mirrors the corresponding AppendKey byte for
// byte with values routed through p.Val.
//
// CounterState deliberately does NOT implement Symmetric: fetch&add
// does arithmetic on values, which no nontrivial value bijection
// commutes with, and its running total is not a multiset of proposals
// either — systems using counters must be explored unreduced.

package objects

import (
	"encoding/binary"

	"setagree/internal/spec"
	"setagree/internal/value"
)

// AppendKeyUnder implements spec.Symmetric.
func (s RegisterState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	return value.AppendKey(dst, p.Val(s.Val))
}

var _ spec.Symmetric = RegisterState{}

// AppendKeyUnder implements spec.Symmetric. Count is a pure
// cardinality, fixed under any permutation; Val is the first proposal,
// and the permuted execution's first proposal is the image of the
// original's.
func (s ConsensusState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	dst = value.AppendKey(dst, p.Val(s.Val))
	return binary.AppendUvarint(dst, uint64(s.Count))
}

var _ spec.Symmetric = ConsensusState{}

// AppendKeyUnder implements spec.Symmetric. Vals is kept in
// first-proposal order and the permuted execution proposes images in
// the same order, so the image state's Vals is the in-order image of
// Vals — never sort here.
func (s SetAgreementState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Vals)))
	for _, v := range s.Vals {
		dst = value.AppendKey(dst, p.Val(v))
	}
	return binary.AppendUvarint(dst, uint64(s.Count))
}

var _ spec.Symmetric = SetAgreementState{}

// AppendKeyUnder implements spec.Symmetric (FIFO order is positional
// and preserved by the permuted execution).
func (s QueueState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Items)))
	for _, v := range s.Items {
		dst = value.AppendKey(dst, p.Val(v))
	}
	return dst
}

var _ spec.Symmetric = QueueState{}

// AppendKeyUnder implements spec.Symmetric (a bit holds no ids or
// values; the key is permutation-invariant).
func (s TASState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	return s.AppendKey(dst)
}

var _ spec.Symmetric = TASState{}
