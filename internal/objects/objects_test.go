package objects_test

import (
	"errors"
	"testing"
	"testing/quick"

	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/value"
)

func applyOne(t *testing.T, sp spec.Spec, st spec.State, op value.Op) (spec.State, value.Value) {
	t.Helper()
	ts, err := sp.Step(st, op)
	if err != nil {
		t.Fatalf("Step(%s): %v", op, err)
	}
	if len(ts) != 1 {
		t.Fatalf("Step(%s): got %d transitions, want 1", op, len(ts))
	}
	return ts[0].Next, ts[0].Resp
}

func TestRegisterInitialRead(t *testing.T) {
	t.Parallel()
	r := objects.NewRegister()
	_, resp := applyOne(t, r, r.Init(), value.Read())
	if resp != value.None {
		t.Errorf("initial read = %s, want NIL", resp)
	}
}

func TestRegisterWriteRead(t *testing.T) {
	t.Parallel()
	r := objects.NewRegister()
	st := r.Init()
	st, resp := applyOne(t, r, st, value.Write(42))
	if resp != value.Done {
		t.Errorf("write returned %s, want done", resp)
	}
	_, resp = applyOne(t, r, st, value.Read())
	if resp != 42 {
		t.Errorf("read = %s, want 42", resp)
	}
}

func TestRegisterOverwrite(t *testing.T) {
	t.Parallel()
	r := objects.NewRegister()
	st := r.Init()
	st, _ = applyOne(t, r, st, value.Write(1))
	st, _ = applyOne(t, r, st, value.Write(2))
	_, resp := applyOne(t, r, st, value.Read())
	if resp != 2 {
		t.Errorf("read = %s, want 2", resp)
	}
}

func TestRegisterBadOps(t *testing.T) {
	t.Parallel()
	r := objects.NewRegister()
	for _, op := range []value.Op{value.Propose(1), value.Decide(1), value.Enqueue(1)} {
		if _, err := r.Step(r.Init(), op); err == nil {
			t.Errorf("Step(%s) accepted", op)
		}
	}
}

func TestRegisterDeterministic(t *testing.T) {
	t.Parallel()
	if !spec.Deterministic(objects.NewRegister()) {
		t.Error("registers are deterministic")
	}
}

// TestConsensusFootnote6 pins the n-consensus object of §4 footnote 6:
// the first n proposes return the first proposed value, later proposes
// return ⊥.
func TestConsensusFootnote6(t *testing.T) {
	t.Parallel()
	for n := 1; n <= 4; n++ {
		c := objects.NewConsensus(n)
		st := c.Init()
		var resp value.Value
		for i := 0; i < n+3; i++ {
			st, resp = applyOne(t, c, st, value.Propose(value.Value(10+i)))
			want := value.Value(10)
			if i >= n {
				want = value.Bottom
			}
			if resp != want {
				t.Fatalf("n=%d propose #%d = %s, want %s", n, i+1, resp, want)
			}
		}
	}
}

func TestConsensusName(t *testing.T) {
	t.Parallel()
	if got := objects.NewConsensus(5).Name(); got != "5-consensus" {
		t.Errorf("Name() = %q", got)
	}
}

func TestConsensusBadOps(t *testing.T) {
	t.Parallel()
	c := objects.NewConsensus(2)
	for _, op := range []value.Op{
		value.Read(), value.Propose(value.Bottom), value.Propose(value.None),
		value.ProposeAt(1, 1),
	} {
		if _, err := c.Step(c.Init(), op); err == nil {
			t.Errorf("Step(%s) accepted", op)
		}
	}
}

// TestTwoSAAlgorithm3 pins Algorithm 3: STATE grows to at most two
// values; every response is drawn from STATE.
func TestTwoSAAlgorithm3(t *testing.T) {
	t.Parallel()
	sa := objects.NewTwoSA()
	st := sa.Init()

	ts, err := sa.Step(st, value.Propose(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Resp != 1 {
		t.Fatalf("first propose: %+v", ts)
	}
	st = ts[0].Next

	ts, err = sa.Step(st, value.Propose(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("second propose offered %d transitions, want 2", len(ts))
	}
	st = ts[0].Next

	// Third distinct value is NOT added (|STATE| = 2); responses still
	// come from {1, 2}.
	ts, err = sa.Step(st, value.Propose(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts {
		if tr.Resp != 1 && tr.Resp != 2 {
			t.Fatalf("response %s not among first two distinct proposals", tr.Resp)
		}
	}
}

// TestTwoSADuplicateProposalNotDoubled checks set semantics: proposing
// an already-stored value does not consume the second STATE slot.
func TestTwoSADuplicateProposalNotDoubled(t *testing.T) {
	t.Parallel()
	sa := objects.NewTwoSA()
	st := sa.Init()
	st, _ = applyOne(t, sa, st, value.Propose(1))
	ts, err := sa.Step(st, value.Propose(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 {
		t.Fatalf("duplicate proposal branched %d ways", len(ts))
	}
	st = ts[0].Next
	// The slot is still free for a genuinely new value.
	ts, err = sa.Step(st, value.Propose(9))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range ts {
		if tr.Resp == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("second distinct value was not stored")
	}
}

// TestTwoSAAtMostTwoDistinctResponses is the object's defining property
// (§4): over any proposal sequence, at most two distinct values are
// ever returned, and they are the first two distinct proposals.
func TestTwoSAAtMostTwoDistinctResponses(t *testing.T) {
	t.Parallel()
	f := func(proposalsRaw []uint8) bool {
		sa := objects.NewTwoSA()
		st := sa.Init()
		var firstTwo []value.Value
		for _, raw := range proposalsRaw {
			v := value.Value(raw % 5)
			dup := false
			for _, x := range firstTwo {
				if x == v {
					dup = true
				}
			}
			if len(firstTwo) < 2 && !dup {
				firstTwo = append(firstTwo, v)
			}
			ts, err := sa.Step(st, value.Propose(v))
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range ts {
				ok := false
				for _, x := range firstTwo {
					if tr.Resp == x {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("response %s outside first two distinct proposals %v", tr.Resp, firstTwo)
				}
			}
			st = ts[len(ts)-1].Next // any branch; states agree
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSetAgreementTransitionsShareState checks that the branches of one
// propose differ only in the response (the proof of Subclaim 4.2.6.2
// relies on this: "the state of the 2-SA object only records values
// that are proposed to it, not values that it returns").
func TestSetAgreementTransitionsShareState(t *testing.T) {
	t.Parallel()
	sa := objects.NewTwoSA()
	st := sa.Init()
	st, _ = applyOne(t, sa, st, value.Propose(1))
	ts, err := sa.Step(st, value.Propose(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range ts[1:] {
		if tr.Next.Key() != ts[0].Next.Key() {
			t.Fatal("branches of one propose must share the successor state")
		}
	}
}

// TestSetAgreementParticipationBound pins the (n,k)-SA bound: after n
// proposals, ⊥ forever.
func TestSetAgreementParticipationBound(t *testing.T) {
	t.Parallel()
	sa := objects.NewSetAgreement(3, 2)
	st := sa.Init()
	for i := 0; i < 3; i++ {
		ts, err := sa.Step(st, value.Propose(value.Value(i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range ts {
			if tr.Resp == value.Bottom {
				t.Fatalf("proposal %d of 3 returned ⊥", i+1)
			}
		}
		st = ts[0].Next
	}
	for i := 0; i < 2; i++ {
		ts, err := sa.Step(st, value.Propose(9))
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) != 1 || ts[0].Resp != value.Bottom {
			t.Fatalf("proposal beyond bound: %+v", ts)
		}
		st = ts[0].Next
	}
}

// TestSetAgreementConsensusDegenerate checks that (n,1)-SA coincides
// with the n-consensus object response-for-response.
func TestSetAgreementConsensusDegenerate(t *testing.T) {
	t.Parallel()
	const n = 3
	sa := objects.NewSetAgreement(n, 1)
	c := objects.NewConsensus(n)
	saSt, cSt := sa.Init(), c.Init()
	for i := 0; i < n+2; i++ {
		var a, b value.Value
		saSt, a = applyOne(t, sa, saSt, value.Propose(value.Value(20+i)))
		cSt, b = applyOne(t, c, cSt, value.Propose(value.Value(20+i)))
		if a != b {
			t.Fatalf("propose #%d: (n,1)-SA=%s, n-consensus=%s", i+1, a, b)
		}
	}
	if !spec.Deterministic(sa) {
		t.Error("(n,1)-SA must be deterministic")
	}
}

func TestSetAgreementNames(t *testing.T) {
	t.Parallel()
	if got := objects.NewTwoSA().Name(); got != "2-SA" {
		t.Errorf("2-SA name = %q", got)
	}
	if got := objects.NewSetAgreement(6, 3).Name(); got != "(6,3)-SA" {
		t.Errorf("(6,3)-SA name = %q", got)
	}
}

func TestSetAgreementBadOps(t *testing.T) {
	t.Parallel()
	sa := objects.NewTwoSA()
	for _, op := range []value.Op{
		value.Read(), value.Propose(value.Done), value.Decide(2),
	} {
		if _, err := sa.Step(sa.Init(), op); err == nil {
			t.Errorf("Step(%s) accepted", op)
		}
	}
}

func TestQueueFIFO(t *testing.T) {
	t.Parallel()
	q := objects.NewQueue()
	st := q.Init()
	_, resp := applyOne(t, q, st, value.Dequeue())
	if resp != value.None {
		t.Fatalf("dequeue of empty queue = %s, want NIL", resp)
	}
	st, _ = applyOne(t, q, st, value.Enqueue(1))
	st, _ = applyOne(t, q, st, value.Enqueue(2))
	st, _ = applyOne(t, q, st, value.Enqueue(3))
	for _, want := range []value.Value{1, 2, 3} {
		st, resp = applyOne(t, q, st, value.Dequeue())
		if resp != want {
			t.Fatalf("dequeue = %s, want %s", resp, want)
		}
	}
	_, resp = applyOne(t, q, st, value.Dequeue())
	if resp != value.None {
		t.Fatalf("drained queue returned %s", resp)
	}
}

func TestQueueStepDoesNotMutate(t *testing.T) {
	t.Parallel()
	q := objects.NewQueue()
	st := q.Init()
	st, _ = applyOne(t, q, st, value.Enqueue(1))
	before := st.Key()
	if _, _ = applyOne(t, q, st, value.Enqueue(2)); st.Key() != before {
		t.Fatal("Step mutated its input state")
	}
	if _, _ = applyOne(t, q, st, value.Dequeue()); st.Key() != before {
		t.Fatal("Step mutated its input state")
	}
}

func TestCounterFetchAdd(t *testing.T) {
	t.Parallel()
	c := objects.NewCounter()
	st := c.Init()
	st, resp := applyOne(t, c, st, value.FetchAdd(5))
	if resp != 0 {
		t.Fatalf("first fetch&add returned %s, want 0", resp)
	}
	st, resp = applyOne(t, c, st, value.FetchAdd(3))
	if resp != 5 {
		t.Fatalf("second fetch&add returned %s, want 5", resp)
	}
	_, resp = applyOne(t, c, st, value.Read())
	if resp != 8 {
		t.Fatalf("read returned %s, want 8", resp)
	}
}

func TestTestAndSet(t *testing.T) {
	t.Parallel()
	ts := objects.NewTestAndSet()
	st := ts.Init()
	st, resp := applyOne(t, ts, st, value.TestAndSet())
	if resp != 0 {
		t.Fatalf("first TAS returned %s, want 0", resp)
	}
	for i := 0; i < 3; i++ {
		st, resp = applyOne(t, ts, st, value.TestAndSet())
		if resp != 1 {
			t.Fatalf("later TAS returned %s, want 1", resp)
		}
	}
}

// TestStickyIsUnboundedConsensus checks the (∞,1)-SA degenerate case.
func TestStickyIsUnboundedConsensus(t *testing.T) {
	t.Parallel()
	s := objects.Sticky()
	st := s.Init()
	var resp value.Value
	for i := 0; i < 20; i++ {
		st, resp = applyOne(t, s, st, value.Propose(value.Value(30+i)))
		if resp != 30 {
			t.Fatalf("propose #%d returned %s, want 30", i+1, resp)
		}
	}
	if !spec.Deterministic(s) {
		t.Error("sticky consensus must be deterministic")
	}
}

// TestSpecMetadata pins the Name/Deterministic/Key surfaces of the zoo
// (these feed the model checker's hashing and the CLI's reporting).
func TestSpecMetadata(t *testing.T) {
	t.Parallel()
	cases := []struct {
		sp            spec.Spec
		name          string
		deterministic bool
	}{
		{objects.NewRegister(), "register", true},
		{objects.NewConsensus(2), "2-consensus", true},
		{objects.NewTwoSA(), "2-SA", false},
		{objects.NewSetAgreement(5, 3), "(5,3)-SA", false},
		{objects.NewSetAgreement(5, 1), "(5,1)-SA", true},
		{objects.NewQueue(), "queue", true},
		{objects.NewQueueWith(1, 2), "queue", true},
		{objects.NewCounter(), "fetch&add", true},
		{objects.NewTestAndSet(), "test&set", true},
		{objects.Sticky(), "1-SA", true},
	}
	for _, tc := range cases {
		if got := tc.sp.Name(); got != tc.name {
			t.Errorf("Name() = %q, want %q", got, tc.name)
		}
		if got := spec.Deterministic(tc.sp); got != tc.deterministic {
			t.Errorf("%s: Deterministic = %v, want %v", tc.name, got, tc.deterministic)
		}
		if tc.sp.Init().Key() == "" {
			t.Errorf("%s: empty initial state key", tc.name)
		}
	}
}

// TestStateKeysDiscriminate pins that distinct object states key
// differently (register content, queue content/order, counter total,
// TAS bit, consensus progress).
func TestStateKeysDiscriminate(t *testing.T) {
	t.Parallel()
	r := objects.NewRegister()
	s0 := r.Init()
	s1, _ := applyOne(t, r, s0, value.Write(1))
	s2, _ := applyOne(t, r, s0, value.Write(2))
	if s1.Key() == s2.Key() || s1.Key() == s0.Key() {
		t.Error("register keys collide")
	}

	q := objects.NewQueue()
	qa, _ := applyOne(t, q, q.Init(), value.Enqueue(1))
	qa, _ = applyOne(t, q, qa, value.Enqueue(2))
	qb, _ := applyOne(t, q, q.Init(), value.Enqueue(2))
	qb, _ = applyOne(t, q, qb, value.Enqueue(1))
	if qa.Key() == qb.Key() {
		t.Error("queue keys ignore order")
	}

	c := objects.NewCounter()
	ca, _ := applyOne(t, c, c.Init(), value.FetchAdd(2))
	cb, _ := applyOne(t, c, c.Init(), value.FetchAdd(3))
	if ca.Key() == cb.Key() {
		t.Error("counter keys collide")
	}

	ts := objects.NewTestAndSet()
	ta, _ := applyOne(t, ts, ts.Init(), value.TestAndSet())
	if ta.Key() == ts.Init().Key() {
		t.Error("TAS keys collide")
	}

	cons := objects.NewConsensus(2)
	k0 := cons.Init().Key()
	k1state, _ := applyOne(t, cons, cons.Init(), value.Propose(5))
	if k1state.Key() == k0 {
		t.Error("consensus keys ignore progress")
	}
}

// TestQueueWithInitIsolated pins that NewQueueWith copies its items and
// Init returns fresh state each time.
func TestQueueWithInitIsolated(t *testing.T) {
	t.Parallel()
	items := []value.Value{7, 8}
	q := objects.NewQueueWith(items...)
	items[0] = 99
	st, resp := applyOne(t, q, q.Init(), value.Dequeue())
	if resp != 7 {
		t.Fatalf("dequeue = %s, want 7 (constructor must copy)", resp)
	}
	// A second Init is unaffected by stepping the first.
	_, resp = applyOne(t, q, q.Init(), value.Dequeue())
	if resp != 7 {
		t.Fatalf("fresh Init dequeue = %s, want 7", resp)
	}
	_ = st
}

// TestClassicBadOps pins interface rejection for the classic objects.
func TestClassicBadOps(t *testing.T) {
	t.Parallel()
	if _, err := objects.NewQueue().Step(objects.NewQueue().Init(), value.Enqueue(value.None)); err == nil {
		t.Error("queue accepted sentinel enqueue")
	}
	if _, err := objects.NewCounter().Step(objects.NewCounter().Init(), value.FetchAdd(value.Bottom)); err == nil {
		t.Error("counter accepted sentinel increment")
	}
	if _, err := objects.NewCounter().Step(objects.NewCounter().Init(), value.Dequeue()); err == nil {
		t.Error("counter accepted dequeue")
	}
	if _, err := objects.NewTestAndSet().Step(objects.NewTestAndSet().Init(), value.Read()); err == nil {
		t.Error("TAS accepted read")
	}
	if _, err := objects.NewQueue().Step(objects.NewCounter().Init(), value.Dequeue()); err == nil {
		t.Error("queue accepted foreign state")
	}
}

// TestProposeValidAllocs pins what a valid Consensus.Step allocates:
// the transition slice and the successor state boxed into spec.State.
// The object's name ("2-consensus") is built only on the error path, so
// checking the proposal costs nothing; building the name up front, as
// every step once did, was a third object.
func TestProposeValidAllocs(t *testing.T) {
	c := objects.NewConsensus(2)
	st := c.Init()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Step(st, value.Propose(1)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("valid Consensus.Step allocates %v objects, want 2", allocs)
	}
}

// TestProposeSentinelError pins the rejection text of a sentinel
// proposal, which names the object.
func TestProposeSentinelError(t *testing.T) {
	for _, tc := range []struct {
		obj  spec.Spec
		op   value.Op
		want string
	}{
		{objects.NewConsensus(2), value.Propose(value.Bottom), "2-consensus: "},
		{objects.NewTwoSA(), value.Propose(value.Bottom), "2-SA: "},
		{objects.Queue{}, value.Op{Method: value.MethodEnqueue, Arg: value.Bottom}, "queue: "},
	} {
		_, err := tc.obj.Step(tc.obj.Init(), tc.op)
		if !errors.Is(err, spec.ErrBadOp) {
			t.Fatalf("%s: Step(%v) = %v, want ErrBadOp", tc.obj.Name(), tc.op, err)
		}
		want := tc.want + tc.op.String() + ": sentinel values cannot be proposed: " + spec.ErrBadOp.Error()
		if err.Error() != want {
			t.Fatalf("%s: error %q, want %q", tc.obj.Name(), err, want)
		}
	}
}
