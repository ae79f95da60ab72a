package value_test

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"setagree/internal/value"
)

func TestSentinelStrings(t *testing.T) {
	t.Parallel()
	cases := []struct {
		v    value.Value
		want string
	}{
		{value.None, "NIL"},
		{value.Bottom, "⊥"},
		{value.Done, "done"},
		{0, "0"},
		{-3, "-3"},
		{42, "42"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", int64(tc.v), got, tc.want)
		}
	}
}

func TestIsSentinel(t *testing.T) {
	t.Parallel()
	for _, v := range []value.Value{value.None, value.Bottom, value.Done} {
		if !v.IsSentinel() {
			t.Errorf("%s not sentinel", v)
		}
	}
	f := func(raw int32) bool {
		return !value.Value(raw).IsSentinel() // all int32-range values are application values
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSentinelsDistinct(t *testing.T) {
	t.Parallel()
	if value.None == value.Bottom || value.Bottom == value.Done || value.None == value.Done {
		t.Fatal("sentinels collide")
	}
}

// keyCodeValues are the values the key-code tests pin: the int64 ends,
// the sentinels among them, and every value around 0 up to the first
// ones that no longer fit one byte.
func keyCodeValues() []value.Value {
	var vs []value.Value
	for k := range 6 {
		vs = append(vs, math.MinInt64+value.Value(k), math.MaxInt64-value.Value(k))
	}
	for v := -61; v <= 61; v++ {
		vs = append(vs, value.Value(v))
	}
	return vs
}

func TestKeyUintRoundTrip(t *testing.T) {
	t.Parallel()
	check := func(v value.Value) bool {
		u := value.KeyUint(v)
		got, n := binary.Uvarint(value.AppendKey(nil, v))
		return value.FromKeyUint(u) == v && got == u && n == len(value.AppendKey(nil, v))
	}
	for _, v := range keyCodeValues() {
		if !check(v) {
			t.Errorf("value %d: code %d does not round-trip", int64(v), value.KeyUint(v))
		}
	}
	if err := quick.Check(func(raw int64) bool { return check(value.Value(raw)) }, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(u uint64) bool { return value.KeyUint(value.FromKeyUint(u)) == u }, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyUintShort(t *testing.T) {
	t.Parallel()
	for v, want := range map[value.Value]uint64{value.None: 5, value.Bottom: 3, value.Done: 1, 0: 6, -1: 7, 1: 8} {
		if got := value.KeyUint(v); got != want {
			t.Errorf("KeyUint(%s) = %d, want %d", v, got, want)
		}
	}
	for _, v := range keyCodeValues() {
		n := len(value.AppendKey(nil, v))
		short := v.IsSentinel() || (v >= -60 && v <= 60)
		if short && n != 1 {
			t.Errorf("value %s takes %d bytes, want 1", v, n)
		}
		if (v == 61 || v == math.MinInt64+3) && n == 1 {
			t.Errorf("value %s takes one byte; the code is not the one documented", v)
		}
	}
}

func TestKeyUintDistinct(t *testing.T) {
	t.Parallel()
	seen := make(map[uint64]value.Value)
	for _, v := range keyCodeValues() {
		u := value.KeyUint(v)
		if w, ok := seen[u]; ok && w != v {
			t.Errorf("values %d and %d share code %d", int64(w), int64(v), u)
		}
		seen[u] = v
	}
	if err := quick.Check(func(a, b int64) bool {
		return a == b || value.KeyUint(value.Value(a)) != value.KeyUint(value.Value(b))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMethodNames(t *testing.T) {
	t.Parallel()
	cases := map[value.Method]string{
		value.MethodRead:       "READ",
		value.MethodWrite:      "WRITE",
		value.MethodPropose:    "PROPOSE",
		value.MethodProposeAt:  "PROPOSE_AT",
		value.MethodDecide:     "DECIDE",
		value.MethodProposeC:   "PROPOSE_C",
		value.MethodProposeP:   "PROPOSE_P",
		value.MethodDecideP:    "DECIDE_P",
		value.MethodProposeK:   "PROPOSE_K",
		value.MethodEnqueue:    "ENQUEUE",
		value.MethodDequeue:    "DEQUEUE",
		value.MethodFetchAdd:   "FETCH_ADD",
		value.MethodTestAndSet: "TEST_AND_SET",
	}
	for m, want := range cases {
		if !m.Valid() {
			t.Errorf("%s invalid", want)
		}
		if got := m.String(); got != want {
			t.Errorf("Method(%d).String() = %q, want %q", m, got, want)
		}
	}
	if value.Method(0).Valid() || value.Method(200).Valid() {
		t.Error("invalid methods reported valid")
	}
	if got := value.Method(200).String(); got != "METHOD(200)" {
		t.Errorf("invalid method string = %q", got)
	}
}

func TestMethodShapes(t *testing.T) {
	t.Parallel()
	// Every method's arg/label shape, pinned.
	type shape struct{ arg, label bool }
	cases := map[value.Method]shape{
		value.MethodRead:       {false, false},
		value.MethodWrite:      {true, false},
		value.MethodPropose:    {true, false},
		value.MethodProposeAt:  {true, true},
		value.MethodDecide:     {false, true},
		value.MethodProposeC:   {true, false},
		value.MethodProposeP:   {true, true},
		value.MethodDecideP:    {false, true},
		value.MethodProposeK:   {true, true},
		value.MethodEnqueue:    {true, false},
		value.MethodDequeue:    {false, false},
		value.MethodFetchAdd:   {true, false},
		value.MethodTestAndSet: {false, false},
	}
	for m, want := range cases {
		if m.TakesArg() != want.arg || m.TakesLabel() != want.label {
			t.Errorf("%s: TakesArg=%v TakesLabel=%v, want %+v", m, m.TakesArg(), m.TakesLabel(), want)
		}
	}
}

func TestOpStrings(t *testing.T) {
	t.Parallel()
	cases := []struct {
		op   value.Op
		want string
	}{
		{value.Read(), "READ"},
		{value.Write(5), "WRITE(5)"},
		{value.Propose(3), "PROPOSE(3)"},
		{value.ProposeAt(5, 2), "PROPOSE_AT(5, 2)"},
		{value.Decide(1), "DECIDE(1)"},
		{value.ProposeC(7), "PROPOSE_C(7)"},
		{value.ProposeP(7, 3), "PROPOSE_P(7, 3)"},
		{value.DecideP(3), "DECIDE_P(3)"},
		{value.ProposeK(9, 4), "PROPOSE_K(9, 4)"},
		{value.Enqueue(1), "ENQUEUE(1)"},
		{value.Dequeue(), "DEQUEUE"},
		{value.FetchAdd(2), "FETCH_ADD(2)"},
		{value.TestAndSet(), "TEST_AND_SET"},
	}
	for _, tc := range cases {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("Op.String() = %q, want %q", got, tc.want)
		}
	}
}

func TestOpConstructorsFillFields(t *testing.T) {
	t.Parallel()
	op := value.ProposeAt(9, 3)
	if op.Method != value.MethodProposeAt || op.Arg != 9 || op.Label != 3 {
		t.Fatalf("op = %+v", op)
	}
	op = value.Decide(2)
	if op.Method != value.MethodDecide || op.Label != 2 {
		t.Fatalf("op = %+v", op)
	}
}
