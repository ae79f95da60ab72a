package core_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"setagree/internal/core"
	"setagree/internal/spec"
	"setagree/internal/value"
)

func TestOPrimeName(t *testing.T) {
	t.Parallel()
	if got := core.NewOPrime(3, nil).Name(); got != "O'_3" {
		t.Errorf("Name() = %q", got)
	}
}

func TestOPrimeDefaultPower(t *testing.T) {
	t.Parallel()
	o := core.NewOPrime(3, nil)
	for k := 1; k <= 5; k++ {
		if got, want := o.Power.At(k), k*3; got != want {
			t.Errorf("default n_%d = %d, want %d", k, got, want)
		}
	}
}

// TestOPrimeLevelOneIsConsensus checks that level k = 1 behaves as the
// n-consensus object (the (n_1,1)-SA component with n_1 = n).
func TestOPrimeLevelOneIsConsensus(t *testing.T) {
	t.Parallel()
	const n = 2
	o := core.NewOPrime(n, nil)
	st := o.Init()
	st, resp := applyOne(t, o, st, value.ProposeK(4, 1))
	if resp != 4 {
		t.Fatalf("first propose at k=1 returned %s", resp)
	}
	st, resp = applyOne(t, o, st, value.ProposeK(5, 1))
	if resp != 4 {
		t.Fatalf("second propose at k=1 returned %s, want 4", resp)
	}
	// n_1 = 2 proposals exhausted: ⊥ from now on.
	st, resp = applyOne(t, o, st, value.ProposeK(6, 1))
	if resp != value.Bottom {
		t.Fatalf("third propose at k=1 returned %s, want ⊥", resp)
	}
	_ = st
}

// TestOPrimeLevelsIndependent checks that distinct k route to distinct
// components.
func TestOPrimeLevelsIndependent(t *testing.T) {
	t.Parallel()
	o := core.NewOPrime(2, nil)
	st := o.Init()
	st, _ = applyOne(t, o, st, value.ProposeK(4, 1))
	st, _ = applyOne(t, o, st, value.ProposeK(5, 1))
	st, resp := applyOne(t, o, st, value.ProposeK(9, 3)) // fresh (6,3)-SA component
	if resp != 9 {
		t.Fatalf("first propose at k=3 returned %s, want 9", resp)
	}
	_ = st
}

// TestOPrimeLevelKBranching checks that a level k >= 2 component is the
// strong (n_k,k)-SA object: at most k distinct responses, offered
// nondeterministically.
func TestOPrimeLevelKBranching(t *testing.T) {
	t.Parallel()
	o := core.NewOPrime(2, nil) // n_2 = 4
	st := o.Init()
	st, _ = applyOne(t, o, st, value.ProposeK(7, 2))
	ts, err := o.Step(st, value.ProposeK(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("second distinct proposal at k=2 offered %d transitions, want 2", len(ts))
	}
	got := map[value.Value]bool{}
	for _, tr := range ts {
		got[tr.Resp] = true
	}
	if !got[7] || !got[8] {
		t.Fatalf("responses offered: %v, want {7, 8}", got)
	}
}

// TestOPrimeParticipationBound checks the n_k bound at a level k >= 2:
// with n_2 = 4, the fifth proposal receives ⊥.
func TestOPrimeParticipationBound(t *testing.T) {
	t.Parallel()
	o := core.NewOPrime(2, nil) // n_2 = 4
	st := o.Init()
	var resp value.Value
	for i := 0; i < 4; i++ {
		ts, err := o.Step(st, value.ProposeK(7, 2))
		if err != nil {
			t.Fatal(err)
		}
		st, resp = ts[0].Next, ts[0].Resp
		if resp == value.Bottom {
			t.Fatalf("proposal %d of 4 returned ⊥", i+1)
		}
	}
	ts, err := o.Step(st, value.ProposeK(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].Resp != value.Bottom {
		t.Fatalf("fifth proposal returned %s, want ⊥ (n_2 = 4)", ts[0].Resp)
	}
}

// TestOPrimeCustomPower checks that an explicit power sequence is
// honored, including Infinite entries.
func TestOPrimeCustomPower(t *testing.T) {
	t.Parallel()
	seq := core.SequenceFunc(func(k int) int {
		if k >= 2 {
			return 0 // Infinite / unbounded
		}
		return 2
	})
	o := core.NewOPrime(2, seq)
	st := o.Init()
	var resp value.Value
	for i := 0; i < 10; i++ {
		ts, err := o.Step(st, value.ProposeK(7, 2))
		if err != nil {
			t.Fatal(err)
		}
		st, resp = ts[0].Next, ts[0].Resp
		if resp == value.Bottom {
			t.Fatalf("unbounded level returned ⊥ at proposal %d", i+1)
		}
	}
}

func TestOPrimeBadOps(t *testing.T) {
	t.Parallel()
	o := core.NewOPrime(2, nil)
	st := o.Init()
	for _, op := range []value.Op{
		value.Propose(1),
		value.ProposeK(1, 0),
		value.ProposeK(1, -3),
		value.ProposeK(value.None, 1),
		value.Decide(1),
	} {
		if _, err := o.Step(st, op); err == nil {
			t.Errorf("Step(%s) accepted an out-of-interface operation", op)
		}
	}
}

// TestOPrimeStateKeyCanonical checks that the component map's key
// encoding is order-independent (canonical), so the model checker does
// not split identical configurations.
func TestOPrimeStateKeyCanonical(t *testing.T) {
	t.Parallel()
	o := core.NewOPrime(2, nil)
	a := o.Init()
	a, _ = applyOne(t, o, a, value.ProposeK(1, 1))
	a, _ = applyOne(t, o, a, value.ProposeK(2, 3))

	b := o.Init()
	b, _ = applyOne(t, o, b, value.ProposeK(2, 3))
	b, _ = applyOne(t, o, b, value.ProposeK(1, 1))

	if a.Key() != b.Key() {
		t.Fatalf("keys differ for the same component states:\n%s\n%s", a.Key(), b.Key())
	}
}

// TestOPrimeNondeterministicFlag pins the Deterministic extension.
func TestOPrimeNondeterministicFlag(t *testing.T) {
	t.Parallel()
	if spec.Deterministic(core.NewOPrime(2, nil)) {
		t.Error("O'_n must report nondeterministic")
	}
}

// TestOPrimeKeysAllocationFree pins the O'_n key encoders to the
// documented bytes (level count, then each touched level in ascending
// order with its component key) and to zero allocations, plain and
// under a permutation, for both O'_n constructions. It does not run in
// parallel: testing.AllocsPerRun counts every goroutine's allocations.
func TestOPrimeKeysAllocationFree(t *testing.T) {
	ops := []value.Op{value.ProposeK(4, 3), value.ProposeK(5, 1), value.ProposeK(6, 2)}
	perm := spec.MakePerm([]int{1, 0, 2}, map[value.Value]value.Value{4: 5, 5: 4})
	for _, o := range []spec.Spec{core.NewOPrime(2, nil), core.NewOPrimeFromBase(2)} {
		s := o.Init()
		for _, op := range ops {
			s, _ = applyOne(t, o, s, op)
		}
		var want []byte
		switch st := s.(type) {
		case core.OPrimeState:
			want = binary.AppendUvarint(want, 3)
			for k := 1; k <= 3; k++ {
				want = binary.AppendUvarint(want, uint64(k))
				want = spec.AppendStateKey(want, st.Components[k])
			}
		case core.OPrimeBaseState:
			want = spec.AppendStateKey(want, st.Consensus)
			want = binary.AppendUvarint(want, 2)
			for k := 2; k <= 3; k++ {
				want = binary.AppendUvarint(want, uint64(k))
				want = spec.AppendStateKey(want, st.TwoSA[k])
			}
		}
		if got := spec.AppendStateKey(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%s: key %x, want %x", o.Name(), got, want)
		}
		sym := s.(spec.Symmetric)
		if got := sym.AppendKeyUnder(nil, spec.Perm{}); !bytes.Equal(got, want) {
			t.Fatalf("%s: identity key %x, want %x", o.Name(), got, want)
		}
		buf := make([]byte, 0, 256)
		if n := testing.AllocsPerRun(100, func() { buf = spec.AppendStateKey(buf[:0], s) }); n != 0 {
			t.Errorf("%s: AppendKey allocates %.1f times, want 0", o.Name(), n)
		}
		if n := testing.AllocsPerRun(100, func() { buf = sym.AppendKeyUnder(buf[:0], perm) }); n != 0 {
			t.Errorf("%s: AppendKeyUnder allocates %.1f times, want 0", o.Name(), n)
		}
	}
}
