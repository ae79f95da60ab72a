package objects

import (
	"encoding/binary"
	"strconv"
	"strings"

	"setagree/internal/spec"
	"setagree/internal/value"
)

// This file holds the classic objects of Herlihy's consensus hierarchy
// [10] beyond registers and consensus: FIFO queues, fetch&add counters,
// and test&set bits (all at level 2 of the hierarchy). They serve as
// universal-construction targets and as calibration rows for the
// hierarchy experiments.

// QueueState is the state of a FIFO queue.
type QueueState struct {
	// Items holds the queued values, head first.
	Items []value.Value
}

// Key implements spec.State.
func (s QueueState) Key() string {
	var b strings.Builder
	b.WriteByte('q')
	for i, v := range s.Items {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 36))
	}
	return b.String()
}

// AppendKey implements spec.AppendKeyer.
func (s QueueState) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s.Items)))
	for _, v := range s.Items {
		dst = value.AppendKey(dst, v)
	}
	return dst
}

var _ spec.State = QueueState{}
var _ spec.AppendKeyer = QueueState{}

// Queue is the sequential specification of a FIFO queue: ENQUEUE(v)
// returns done; DEQUEUE returns and removes the head, or None when
// empty. Its consensus number is 2 [10] — realized by the classic
// one-token protocol (programs.ConsensusFromQueue), which needs a
// pre-loaded queue (Initial).
type Queue struct {
	// Initial holds the queue's initial contents, head first.
	Initial []value.Value
}

var _ spec.Spec = Queue{}

// NewQueue returns an initially empty FIFO queue spec.
func NewQueue() Queue { return Queue{} }

// NewQueueWith returns a FIFO queue pre-loaded with items (head first).
func NewQueueWith(items ...value.Value) Queue {
	return Queue{Initial: append([]value.Value(nil), items...)}
}

// Name implements spec.Spec.
func (Queue) Name() string { return "queue" }

// Init implements spec.Spec.
func (q Queue) Init() spec.State {
	if len(q.Initial) == 0 {
		return QueueState{}
	}
	items := make([]value.Value, len(q.Initial))
	copy(items, q.Initial)
	return QueueState{Items: items}
}

// Deterministic reports that queues are deterministic.
func (Queue) Deterministic() bool { return true }

// ValueOblivious implements the spec.ValueOblivious extension: a queue
// stores and returns values without inspecting them.
func (Queue) ValueOblivious() bool { return true }

// Step implements spec.Spec.
func (q Queue) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(QueueState)
	if !ok {
		return nil, spec.BadOpError(q.Name(), op, "foreign state")
	}
	switch op.Method {
	case value.MethodEnqueue:
		if err := spec.CheckProposal(q, op); err != nil {
			return nil, err
		}
		items := make([]value.Value, len(st.Items), len(st.Items)+1)
		copy(items, st.Items)
		return []spec.Transition{{
			Next: QueueState{Items: append(items, op.Arg)},
			Resp: value.Done,
		}}, nil
	case value.MethodDequeue:
		if len(st.Items) == 0 {
			return []spec.Transition{{Next: st, Resp: value.None}}, nil
		}
		rest := make([]value.Value, len(st.Items)-1)
		copy(rest, st.Items[1:])
		return []spec.Transition{{Next: QueueState{Items: rest}, Resp: st.Items[0]}}, nil
	default:
		return nil, spec.BadOpError(q.Name(), op, "queue supports ENQUEUE and DEQUEUE only")
	}
}

// CounterState is the state of a fetch&add counter.
type CounterState struct {
	// Total is the running sum.
	Total value.Value
}

// Key implements spec.State.
func (s CounterState) Key() string { return "c" + strconv.FormatInt(int64(s.Total), 36) }

// AppendKey implements spec.AppendKeyer.
func (s CounterState) AppendKey(dst []byte) []byte {
	return value.AppendKey(dst, s.Total)
}

var _ spec.State = CounterState{}
var _ spec.AppendKeyer = CounterState{}

// Counter is the sequential specification of a fetch&add counter:
// FETCH_ADD(v) adds v and returns the prior total. Its consensus number
// is 2 [10].
type Counter struct{}

var _ spec.Spec = Counter{}

// NewCounter returns the fetch&add counter spec.
func NewCounter() Counter { return Counter{} }

// Name implements spec.Spec.
func (Counter) Name() string { return "fetch&add" }

// Init implements spec.Spec.
func (Counter) Init() spec.State { return CounterState{} }

// Deterministic reports that counters are deterministic.
func (Counter) Deterministic() bool { return true }

// Step implements spec.Spec.
func (c Counter) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(CounterState)
	if !ok {
		return nil, spec.BadOpError(c.Name(), op, "foreign state")
	}
	if op.Method == value.MethodRead {
		return []spec.Transition{{Next: st, Resp: st.Total}}, nil
	}
	if op.Method != value.MethodFetchAdd {
		return nil, spec.BadOpError(c.Name(), op, "counter supports FETCH_ADD and READ only")
	}
	if op.Arg.IsSentinel() {
		return nil, spec.BadOpError(c.Name(), op, "sentinel increment")
	}
	return []spec.Transition{{
		Next: CounterState{Total: st.Total + op.Arg},
		Resp: st.Total,
	}}, nil
}

// TASState is the state of a test&set bit.
type TASState struct {
	// Set records whether the bit has been set.
	Set bool
}

// Key implements spec.State.
func (s TASState) Key() string {
	if s.Set {
		return "t1"
	}
	return "t0"
}

// AppendKey implements spec.AppendKeyer.
func (s TASState) AppendKey(dst []byte) []byte {
	if s.Set {
		return append(dst, 1)
	}
	return append(dst, 0)
}

var _ spec.State = TASState{}
var _ spec.AppendKeyer = TASState{}

// TestAndSet is the sequential specification of a test&set bit:
// TEST_AND_SET returns the prior value (0 for the first caller, 1 ever
// after). Its consensus number is 2 [10].
type TestAndSet struct{}

var _ spec.Spec = TestAndSet{}

// NewTestAndSet returns the test&set spec.
func NewTestAndSet() TestAndSet { return TestAndSet{} }

// Name implements spec.Spec.
func (TestAndSet) Name() string { return "test&set" }

// Init implements spec.Spec.
func (TestAndSet) Init() spec.State { return TASState{} }

// Deterministic reports that test&set bits are deterministic.
func (TestAndSet) Deterministic() bool { return true }

// Step implements spec.Spec.
func (t TestAndSet) Step(s spec.State, op value.Op) ([]spec.Transition, error) {
	st, ok := s.(TASState)
	if !ok {
		return nil, spec.BadOpError(t.Name(), op, "foreign state")
	}
	if op.Method != value.MethodTestAndSet {
		return nil, spec.BadOpError(t.Name(), op, "test&set supports TEST_AND_SET only")
	}
	prior := value.Value(0)
	if st.Set {
		prior = 1
	}
	return []spec.Transition{{Next: TASState{Set: true}, Resp: prior}}, nil
}

// Sticky returns the "sticky" consensus object that serves any number
// of processes: the (Unbounded, 1)-SA object, whose first proposal
// fixes the decision forever. Its consensus number is ∞.
func Sticky() SetAgreement { return SetAgreement{N: Unbounded, K: 1} }
