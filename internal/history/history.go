// Package history records concurrent operation histories of shared
// objects. The paper's objects are specified sequentially and assumed
// linearizable [11]; the recorder captures real concurrent executions of
// the runtime objects so that internal/lincheck can verify that the
// implementations are in fact linearizable with respect to their
// sequential specifications.
package history

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"setagree/internal/spec"
	"setagree/internal/value"
)

// Event is one completed operation: its invocation and return
// timestamps come from a shared logical clock, so Inv < Ret and
// real-time precedence between events is Ret(a) < Inv(b).
type Event struct {
	// Proc is the calling process (1-based, informational).
	Proc int `json:"proc"`
	// Obj identifies the object the operation was applied to.
	Obj int `json:"obj"`
	// Method, Arg, Label reconstruct the operation.
	Method value.Method `json:"method"`
	Arg    value.Value  `json:"arg"`
	Label  int          `json:"label"`
	// Resp is the observed response.
	Resp value.Value `json:"resp"`
	// Inv and Ret are the logical invocation/return timestamps.
	Inv int64 `json:"inv"`
	Ret int64 `json:"ret"`
}

// Op reconstructs the operation of the event.
func (e Event) Op() value.Op {
	return value.Op{Method: e.Method, Arg: e.Arg, Label: e.Label}
}

// PrecededBy reports whether other completed before e was invoked
// (real-time order).
func (e Event) PrecededBy(other Event) bool { return other.Ret < e.Inv }

// History is a set of completed events, ordered by invocation time.
type History struct {
	// Events are the completed operations.
	Events []Event `json:"events"`
}

// Len returns the number of events.
func (h *History) Len() int { return len(h.Events) }

// PerObject splits the history by object id (linearizability is a local
// property [11]: a history is linearizable iff each per-object
// subhistory is).
func (h *History) PerObject() map[int]*History {
	out := make(map[int]*History)
	for _, e := range h.Events {
		sub := out[e.Obj]
		if sub == nil {
			sub = &History{}
			out[e.Obj] = sub
		}
		sub.Events = append(sub.Events, e)
	}
	return out
}

// Sort orders events by invocation timestamp.
func (h *History) Sort() {
	sort.Slice(h.Events, func(i, j int) bool { return h.Events[i].Inv < h.Events[j].Inv })
}

// WriteJSON serializes the history.
func (h *History) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("history: encode: %w", err)
	}
	return nil
}

// ReadJSON deserializes a history.
func ReadJSON(r io.Reader) (*History, error) {
	var h History
	if err := json.NewDecoder(r).Decode(&h); err != nil {
		return nil, fmt.Errorf("history: decode: %w", err)
	}
	return &h, nil
}

// Recorder collects events from concurrent operations against any
// number of objects. It is safe for concurrent use.
type Recorder struct {
	clock  atomic.Int64
	mu     sync.Mutex
	events []Event
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Wrap returns a recorded view of obj under the given object id.
func (r *Recorder) Wrap(obj *spec.Atomic, objID int) *Recorded {
	return &Recorded{rec: r, obj: obj, objID: objID}
}

// History returns a sorted copy of everything recorded so far.
func (r *Recorder) History() *History {
	r.mu.Lock()
	events := make([]Event, len(r.events))
	copy(events, r.events)
	r.mu.Unlock()
	h := &History{Events: events}
	h.Sort()
	return h
}

func (r *Recorder) record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Recorded is a recording wrapper around a linearizable object.
type Recorded struct {
	rec   *Recorder
	obj   *spec.Atomic
	objID int
}

// Apply performs op on behalf of proc, recording the completed event.
func (o *Recorded) Apply(proc int, op value.Op) (value.Value, error) {
	inv := o.rec.clock.Add(1)
	resp, err := o.obj.Apply(op)
	ret := o.rec.clock.Add(1)
	if err != nil {
		return resp, err
	}
	o.rec.record(Event{
		Proc:   proc,
		Obj:    o.objID,
		Method: op.Method,
		Arg:    op.Arg,
		Label:  op.Label,
		Resp:   resp,
		Inv:    inv,
		Ret:    ret,
	})
	return resp, nil
}
