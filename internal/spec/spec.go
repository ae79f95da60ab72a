// Package spec defines the sequential-specification framework that every
// shared object in this repository is built on.
//
// The paper gives each object "in terms of a set of states, a set of
// operations, a set of responses, and a state transition relation" (§3,
// §4) and assumes the objects are linearizable [11], so it reasons only
// about sequential histories. We mirror that exactly: a Spec is a pure,
// possibly nondeterministic transition relation over immutable states.
// One Spec drives both execution modes of the repository:
//
//   - the concurrent runtime (Atomic in this package) guards a state with
//     a mutex and resolves nondeterminism with a pluggable Chooser; and
//   - the model checker (internal/explore) branches over every
//     transition a Step offers.
package spec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"setagree/internal/value"
)

// ErrBadOp is wrapped by Step implementations when an operation is not
// part of the object's interface (wrong method, out-of-range label, or a
// reserved sentinel proposed as an application value, cf. §3 fn. 4).
var ErrBadOp = errors.New("operation not in object interface")

// State is an immutable snapshot of an object's state. Implementations
// must treat states as values: Step never mutates its input state.
type State interface {
	// Key returns a canonical encoding of the state. Two states of the
	// same Spec are equal if and only if their keys are equal; the model
	// checker hashes configurations by concatenating keys.
	Key() string
}

// AppendKeyer is an optional State extension for allocation-free
// configuration hashing: AppendKey appends a compact binary encoding of
// the state to dst and returns the extended slice, with the same
// canonicity contract as Key (two states of the same Spec are equal iff
// their encodings are equal byte-for-byte). The encoding must be
// self-delimiting — decodable without knowing where the state's bytes
// end — because the model checker concatenates the encodings of every
// process and object state into one configuration key. Length-prefixing
// variable-size components with binary.AppendUvarint suffices. Values
// go in as value.AppendKey codes, which give the sentinels one byte.
//
// States without the extension still work: the model checker falls back
// to the length-prefixed Key string via AppendStateKey. Every State in
// this repository implements AppendKeyer; the interface exists so
// out-of-tree specs remain usable without it.
type AppendKeyer interface {
	AppendKey(dst []byte) []byte
}

// AppendStateKey appends s's self-delimiting binary key to dst: the
// AppendKeyer fast path when implemented, else the Key string prefixed
// with its length (which is self-delimiting for any Key).
func AppendStateKey(dst []byte, s State) []byte {
	if ak, ok := s.(AppendKeyer); ok {
		return ak.AppendKey(dst)
	}
	k := s.Key()
	dst = binary.AppendUvarint(dst, uint64(len(k)))
	return append(dst, k...)
}

// Transition is one entry of the transition relation: the successor
// state together with the operation's response.
type Transition struct {
	// Next is the successor state.
	Next State
	// Resp is the response returned to the caller.
	Resp value.Value
}

// Spec is a sequential object specification.
type Spec interface {
	// Name identifies the object type, e.g. "3-PAC" or "2-SA".
	Name() string

	// Init returns the object's initial state.
	Init() State

	// Step applies op to state s and returns every possible transition.
	// Deterministic objects return exactly one transition.
	// Nondeterministic objects (the strong set-agreement objects of §4
	// and §6) return one transition per allowed response. Step returns
	// an error wrapping ErrBadOp if op is not part of the object's
	// interface; it never returns an empty transition set otherwise.
	Step(s State, op value.Op) ([]Transition, error)
}

// Deterministic reports whether the spec declares itself deterministic.
// Specs that implement the interface{ Deterministic() bool } extension
// are consulted; all other specs are conservatively treated as
// nondeterministic.
func Deterministic(s Spec) bool {
	d, ok := s.(interface{ Deterministic() bool })
	return ok && d.Deterministic()
}

// ValueOblivious reports whether the spec declares its transition
// relation value-oblivious: for every bijection τ of application values
// that fixes the sentinels, τ commutes with Step — relabeling the
// values in a state and operation relabels the transitions' states and
// responses and changes nothing else. Registers, queues, consensus, and
// set-agreement objects qualify (they store and return proposals
// without inspecting them); objects whose responses encode fixed
// values regardless of the proposals — test-and-set's 0/1 winner flag,
// counters — do not. Specs opt in via the
// interface{ ValueOblivious() bool } extension; all other specs are
// conservatively treated as value-sensitive. The sweep memoizer
// (internal/enumerate) consults this to decide whether two candidates
// related by the 0↔1 value swap have isomorphic executions.
func ValueOblivious(s Spec) bool {
	v, ok := s.(interface{ ValueOblivious() bool })
	return ok && v.ValueOblivious()
}

// BadOpError builds the canonical ErrBadOp-wrapping error for spec
// implementations.
func BadOpError(specName string, op value.Op, reason string) error {
	return fmt.Errorf("%s: %s: %s: %w", specName, op, reason, ErrBadOp)
}

// CheckProposal validates that an application-supplied proposal value is
// not one of the reserved sentinels (§3 footnote 4: "processes do not
// propose the special values ⊥ and NIL"). s names the object in the
// error. Its Name is built only when the proposal is rejected, and s is
// a type parameter so it is not boxed into an interface: a valid
// proposal costs no allocation.
func CheckProposal[S Spec](s S, op value.Op) error {
	if op.Arg.IsSentinel() {
		return BadOpError(s.Name(), op, "sentinel values cannot be proposed")
	}
	return nil
}
