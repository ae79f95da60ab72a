package spec

import (
	"fmt"
	"sync"

	"setagree/internal/value"
)

// Chooser resolves nondeterminism when a Step offers several
// transitions: given the number of options it returns the index of the
// transition to take, in [0, n). Choosers may be stateful; Atomic calls
// them while holding the object lock, so implementations need not be
// safe for concurrent use by multiple Atomics.
type Chooser interface {
	Choose(n int) int
}

// ChooserFunc adapts a function to the Chooser interface.
type ChooserFunc func(n int) int

// Choose implements Chooser.
func (f ChooserFunc) Choose(n int) int { return f(n) }

var _ Chooser = (ChooserFunc)(nil)

// FirstChooser always takes the first offered transition. For the
// strong set-agreement objects this means "respond with the earliest
// value added to STATE", the most deterministic-looking adversary.
func FirstChooser() Chooser {
	return ChooserFunc(func(int) int { return 0 })
}

// LastChooser always takes the last offered transition ("respond with
// the most recently added value").
func LastChooser() Chooser {
	return ChooserFunc(func(n int) int { return n - 1 })
}

// RotatingChooser cycles through the offered transitions across
// successive operations, exercising every nondeterministic branch over
// time.
func RotatingChooser() Chooser {
	var turn int
	return ChooserFunc(func(n int) int {
		turn++
		return turn % n
	})
}

// SeededChooser returns a deterministic pseudo-random chooser derived
// from seed, using an xorshift64* generator so replays are reproducible
// without importing math/rand state semantics.
func SeededChooser(seed uint64) Chooser {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	s := seed
	return ChooserFunc(func(n int) int {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		r := s * 0x2545f4914f6cdd1d
		return int(r % uint64(n))
	})
}

// Atomic is a linearizable shared object: a Spec state guarded by a
// mutex. Each Apply is atomic, so the object's concurrent histories are
// linearizable by construction, matching the paper's assumption that
// all objects are linearizable (§3). The zero value is not usable; use
// NewAtomic.
type Atomic struct {
	spec   Spec
	choose Chooser

	mu    sync.Mutex
	state State
}

// NewAtomic creates a linearizable object with the given specification.
// If choose is nil, nondeterminism is resolved with FirstChooser.
func NewAtomic(s Spec, choose Chooser) *Atomic {
	if choose == nil {
		choose = FirstChooser()
	}
	return &Atomic{spec: s, choose: choose, state: s.Init()}
}

// Spec returns the object's sequential specification.
func (a *Atomic) Spec() Spec { return a.spec }

// Apply atomically applies op and returns its response. It returns an
// error only if op is outside the object's interface.
func (a *Atomic) Apply(op value.Op) (value.Value, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, err := a.spec.Step(a.state, op)
	if err != nil {
		return value.None, err
	}
	t := ts[0]
	if len(ts) > 1 {
		i := a.choose.Choose(len(ts))
		if i < 0 || i >= len(ts) {
			return value.None, fmt.Errorf("%s: chooser returned %d for %d options: %w",
				a.spec.Name(), i, len(ts), ErrBadOp)
		}
		t = ts[i]
	}
	a.state = t.Next
	return t.Resp, nil
}

// Snapshot returns the current state. The returned State is immutable
// and safe to retain.
func (a *Atomic) Snapshot() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// Reset restores the object to its initial state.
func (a *Atomic) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state = a.spec.Init()
}
