// Package value defines the value and operation model shared by every
// object specification in this repository.
//
// The paper ("Life Beyond Set Agreement", PODC 2017) works with objects
// whose operations carry proposal values and labels and whose responses
// are either proposal values or one of three special symbols: NIL (an
// unset state component), ⊥ (the "bottom" failure/upset response), and
// done (the acknowledgement returned by propose operations). Processes
// are assumed never to propose the special symbols (§3, footnote 4).
package value

import (
	"encoding/binary"
	"math"
	"strconv"
)

// Value is a datum stored in, proposed to, or returned by a shared
// object. Non-negative values (and, in general, every value that is not
// one of the three reserved sentinels) are ordinary application values.
type Value int64

// Reserved sentinel values. They live at the far negative end of the
// Value range so that every realistic application value is usable.
const (
	// None is the paper's NIL: the initial, unset content of a state
	// component such as the n-PAC arrays V[1..n] and variables L, val.
	None Value = math.MinInt64

	// Bottom is the paper's ⊥: returned by decide operations on upset
	// n-PAC objects, by n-consensus objects after n proposals, and by
	// (n,k)-SA objects after n proposals.
	Bottom Value = math.MinInt64 + 1

	// Done is the acknowledgement returned by propose operations that
	// carry no decision (n-PAC PROPOSE and register WRITE).
	Done Value = math.MinInt64 + 2
)

// IsSentinel reports whether v is one of the reserved sentinel values
// (None, Bottom, or Done) rather than an application value.
func (v Value) IsSentinel() bool {
	return v == None || v == Bottom || v == Done
}

// keyBias shifts the zigzag encoding so that the three sentinels, whose
// zigzag codes are the three largest uint64s, wrap around to the odd
// codes 5, 3 and 1 below the code of 0.
const keyBias = 6

// KeyUint returns v's key code: the zigzag encoding of v plus 6, mod
// 2⁶⁴. It is a bijection on int64 that maps None, Bottom and Done to
// 5, 3 and 1, and every v with |v| ≤ 60 below 0x80, so each of them
// takes one byte as an unsigned varint where a plain zigzag varint
// spends ten on a sentinel. Every value in a configuration key or a
// step record is written as this code.
func KeyUint(v Value) uint64 {
	return (uint64(v<<1) ^ uint64(v>>63)) + keyBias
}

// FromKeyUint inverts KeyUint.
func FromKeyUint(u uint64) Value {
	u -= keyBias
	return Value(int64(u>>1) ^ -int64(u&1))
}

// AppendKey appends v's key code to dst as an unsigned varint.
func AppendKey(dst []byte, v Value) []byte {
	return binary.AppendUvarint(dst, KeyUint(v))
}

// String renders application values as decimal integers and the
// sentinels by their paper names.
func (v Value) String() string {
	switch v {
	case None:
		return "NIL"
	case Bottom:
		return "⊥"
	case Done:
		return "done"
	default:
		return strconv.FormatInt(int64(v), 10)
	}
}

// Method identifies the operation kind applied to a shared object. The
// set covers every object in the paper: registers (Read/Write),
// consensus and set-agreement objects (Propose), n-PAC objects
// (ProposeAt/Decide, §3), (n,m)-PAC objects (ProposeC/ProposeP/DecideP,
// §5), and the O'_n collection object (ProposeK, §6).
type Method uint8

// Supported operation kinds.
const (
	// MethodRead reads an atomic register.
	MethodRead Method = iota + 1
	// MethodWrite writes Arg into an atomic register.
	MethodWrite
	// MethodPropose is PROPOSE(v) on consensus and (n,k)-SA objects.
	MethodPropose
	// MethodProposeAt is PROPOSE(v, i) on an n-PAC object; Label is i.
	MethodProposeAt
	// MethodDecide is DECIDE(i) on an n-PAC object; Label is i.
	MethodDecide
	// MethodProposeC is PROPOSEC(v) on an (n,m)-PAC object (§5).
	MethodProposeC
	// MethodProposeP is PROPOSEP(v, i) on an (n,m)-PAC object (§5).
	MethodProposeP
	// MethodDecideP is DECIDEP(i) on an (n,m)-PAC object (§5).
	MethodDecideP
	// MethodProposeK is PROPOSE(v, k) on the O'_n collection object
	// (§6); Label is k.
	MethodProposeK
	// MethodEnqueue appends Arg to a FIFO queue.
	MethodEnqueue
	// MethodDequeue removes and returns the queue head (None if empty).
	MethodDequeue
	// MethodFetchAdd adds Arg to a counter and returns the prior value.
	MethodFetchAdd
	// MethodTestAndSet sets a bit and returns its prior value (0 or 1).
	MethodTestAndSet

	methodCount
)

var methodNames = [...]string{
	MethodRead:       "READ",
	MethodWrite:      "WRITE",
	MethodPropose:    "PROPOSE",
	MethodProposeAt:  "PROPOSE_AT",
	MethodDecide:     "DECIDE",
	MethodProposeC:   "PROPOSE_C",
	MethodProposeP:   "PROPOSE_P",
	MethodDecideP:    "DECIDE_P",
	MethodProposeK:   "PROPOSE_K",
	MethodEnqueue:    "ENQUEUE",
	MethodDequeue:    "DEQUEUE",
	MethodFetchAdd:   "FETCH_ADD",
	MethodTestAndSet: "TEST_AND_SET",
}

// Valid reports whether m is one of the defined operation kinds.
func (m Method) Valid() bool {
	return m >= MethodRead && m < methodCount
}

// String returns the canonical upper-case name of the method.
func (m Method) String() string {
	if !m.Valid() {
		return "METHOD(" + strconv.Itoa(int(m)) + ")"
	}
	return methodNames[m]
}

// TakesArg reports whether operations of this kind carry a value
// argument (Op.Arg is meaningful).
func (m Method) TakesArg() bool {
	switch m {
	case MethodWrite, MethodPropose, MethodProposeAt,
		MethodProposeC, MethodProposeP, MethodProposeK,
		MethodEnqueue, MethodFetchAdd:
		return true
	default:
		return false
	}
}

// TakesLabel reports whether operations of this kind carry a label
// (Op.Label is meaningful): the port i of an n-PAC object or the level
// k of an O'_n collection.
func (m Method) TakesLabel() bool {
	switch m {
	case MethodProposeAt, MethodDecide, MethodProposeP,
		MethodDecideP, MethodProposeK:
		return true
	default:
		return false
	}
}

// LabelIsPort reports whether the label of operations of this kind
// names a port — a 1-based slot tied to a process id, which must be
// renamed when process ids are permuted under symmetry reduction — as
// opposed to a level (ProposeK's k), which is id-independent.
func (m Method) LabelIsPort() bool {
	switch m {
	case MethodProposeAt, MethodDecide, MethodProposeP, MethodDecideP:
		return true
	default:
		return false
	}
}

// Op is a single operation applied to a shared object.
type Op struct {
	// Method is the operation kind.
	Method Method
	// Arg is the value argument for methods with TakesArg.
	Arg Value
	// Label is the port/level argument for methods with TakesLabel.
	Label int
}

// String renders the operation in the paper's notation, e.g.
// "PROPOSE_AT(5, 2)" or "DECIDE(1)" or "READ".
func (o Op) String() string {
	s := o.Method.String()
	hasArg, hasLabel := o.Method.TakesArg(), o.Method.TakesLabel()
	switch {
	case hasArg && hasLabel:
		return s + "(" + o.Arg.String() + ", " + strconv.Itoa(o.Label) + ")"
	case hasArg:
		return s + "(" + o.Arg.String() + ")"
	case hasLabel:
		return s + "(" + strconv.Itoa(o.Label) + ")"
	default:
		return s
	}
}

// Read returns a register read operation.
func Read() Op { return Op{Method: MethodRead} }

// Write returns a register write operation storing v.
func Write(v Value) Op { return Op{Method: MethodWrite, Arg: v} }

// Propose returns a PROPOSE(v) operation for consensus and (n,k)-SA
// objects.
func Propose(v Value) Op { return Op{Method: MethodPropose, Arg: v} }

// ProposeAt returns a PROPOSE(v, i) operation for n-PAC objects.
func ProposeAt(v Value, i int) Op {
	return Op{Method: MethodProposeAt, Arg: v, Label: i}
}

// Decide returns a DECIDE(i) operation for n-PAC objects.
func Decide(i int) Op { return Op{Method: MethodDecide, Label: i} }

// ProposeC returns a PROPOSEC(v) operation for (n,m)-PAC objects.
func ProposeC(v Value) Op { return Op{Method: MethodProposeC, Arg: v} }

// ProposeP returns a PROPOSEP(v, i) operation for (n,m)-PAC objects.
func ProposeP(v Value, i int) Op {
	return Op{Method: MethodProposeP, Arg: v, Label: i}
}

// DecideP returns a DECIDEP(i) operation for (n,m)-PAC objects.
func DecideP(i int) Op { return Op{Method: MethodDecideP, Label: i} }

// ProposeK returns a PROPOSE(v, k) operation for O'_n collection
// objects.
func ProposeK(v Value, k int) Op {
	return Op{Method: MethodProposeK, Arg: v, Label: k}
}

// Enqueue returns an ENQUEUE(v) operation for FIFO queues.
func Enqueue(v Value) Op { return Op{Method: MethodEnqueue, Arg: v} }

// Dequeue returns a DEQUEUE operation for FIFO queues.
func Dequeue() Op { return Op{Method: MethodDequeue} }

// FetchAdd returns a FETCH_ADD(v) operation for counters.
func FetchAdd(v Value) Op { return Op{Method: MethodFetchAdd, Arg: v} }

// TestAndSet returns a TEST_AND_SET operation.
func TestAndSet() Op { return Op{Method: MethodTestAndSet} }
