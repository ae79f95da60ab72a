package task_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"setagree/internal/task"
	"setagree/internal/value"
)

func outcome(inputs []value.Value, mutate func(*task.Outcome)) task.Outcome {
	o := task.NewOutcome(inputs)
	if mutate != nil {
		mutate(&o)
	}
	return o
}

func TestConsensusSafetyAccepts(t *testing.T) {
	t.Parallel()
	c := task.Consensus{N: 3}
	cases := []task.Outcome{
		outcome([]value.Value{0, 1, 1}, nil),
		outcome([]value.Value{0, 1, 1}, func(o *task.Outcome) { o.Decide(0, 1) }),
		outcome([]value.Value{0, 1, 1}, func(o *task.Outcome) {
			o.Decide(0, 0)
			o.Decide(1, 0)
			o.Decide(2, 0)
		}),
	}
	for i, o := range cases {
		if err := c.CheckSafety(o); err != nil {
			t.Errorf("case %d rejected: %v", i, err)
		}
	}
}

func TestConsensusSafetyRejects(t *testing.T) {
	t.Parallel()
	c := task.Consensus{N: 2}
	cases := []struct {
		name string
		o    task.Outcome
	}{
		{"disagreement", outcome([]value.Value{0, 1}, func(o *task.Outcome) {
			o.Decide(0, 0)
			o.Decide(1, 1)
		})},
		{"invalid value", outcome([]value.Value{0, 1}, func(o *task.Outcome) {
			o.Decide(0, 7)
		})},
		{"sentinel decision", outcome([]value.Value{0, 1}, func(o *task.Outcome) {
			o.Decide(0, value.Bottom)
		})},
		{"abort in abortless task", outcome([]value.Value{0, 1}, func(o *task.Outcome) {
			o.Aborted[0] = true
		})},
	}
	for _, tc := range cases {
		if err := c.CheckSafety(tc.o); !errors.Is(err, task.ErrViolation) {
			t.Errorf("%s: err = %v, want ErrViolation", tc.name, err)
		}
	}
}

func TestKSetAgreementBound(t *testing.T) {
	t.Parallel()
	k2 := task.KSetAgreement{N: 4, K: 2}
	two := outcome([]value.Value{0, 1, 2, 3}, func(o *task.Outcome) {
		o.Decide(0, 0)
		o.Decide(1, 1)
		o.Decide(2, 1)
	})
	if err := k2.CheckSafety(two); err != nil {
		t.Errorf("two distinct decisions rejected: %v", err)
	}
	three := outcome([]value.Value{0, 1, 2, 3}, func(o *task.Outcome) {
		o.Decide(0, 0)
		o.Decide(1, 1)
		o.Decide(2, 2)
	})
	if err := k2.CheckSafety(three); !errors.Is(err, task.ErrViolation) {
		t.Errorf("three distinct decisions accepted: %v", err)
	}
}

func TestKSetAgreementValidity(t *testing.T) {
	t.Parallel()
	k2 := task.KSetAgreement{N: 2, K: 2}
	bad := outcome([]value.Value{4, 5}, func(o *task.Outcome) { o.Decide(0, 6) })
	if err := k2.CheckSafety(bad); !errors.Is(err, task.ErrViolation) {
		t.Errorf("unproposed decision accepted: %v", err)
	}
}

func TestDACAgreement(t *testing.T) {
	t.Parallel()
	d := task.DAC{N: 3, P: 0}
	bad := outcome([]value.Value{1, 0, 0}, func(o *task.Outcome) {
		o.Decide(1, 0)
		o.Decide(2, 1)
	})
	if err := d.CheckSafety(bad); !errors.Is(err, task.ErrViolation) {
		t.Errorf("disagreement accepted: %v", err)
	}
}

func TestDACValidityRespectsAborts(t *testing.T) {
	t.Parallel()
	d := task.DAC{N: 3, P: 0}
	// p is the only process with input 1; p aborted; someone decided 1.
	bad := outcome([]value.Value{1, 0, 0}, func(o *task.Outcome) {
		o.Aborted[0] = true
		o.Stepped[1] = true
		o.Decide(1, 1)
	})
	if err := d.CheckSafety(bad); !errors.Is(err, task.ErrViolation) {
		t.Errorf("validity with aborted proposer accepted: %v", err)
	}
	// Same decisions but p did NOT abort: fine.
	good := outcome([]value.Value{1, 0, 0}, func(o *task.Outcome) {
		o.Decide(1, 1)
	})
	if err := d.CheckSafety(good); err != nil {
		t.Errorf("valid outcome rejected: %v", err)
	}
}

func TestDACNonBinaryDecision(t *testing.T) {
	t.Parallel()
	d := task.DAC{N: 2, P: 0}
	bad := outcome([]value.Value{1, 0}, func(o *task.Outcome) { o.Decide(1, 3) })
	if err := d.CheckSafety(bad); !errors.Is(err, task.ErrViolation) {
		t.Errorf("non-binary decision accepted: %v", err)
	}
}

func TestDACNontriviality(t *testing.T) {
	t.Parallel()
	d := task.DAC{N: 3, P: 1}
	// p aborted although nobody else took a step.
	bad := outcome([]value.Value{0, 1, 0}, func(o *task.Outcome) {
		o.Aborted[1] = true
		o.Stepped[1] = true
	})
	if err := d.CheckSafety(bad); !errors.Is(err, task.ErrViolation) {
		t.Errorf("trivial abort accepted: %v", err)
	}
	// p aborted after q took a step: fine.
	good := outcome([]value.Value{0, 1, 0}, func(o *task.Outcome) {
		o.Aborted[1] = true
		o.Stepped[0] = true
	})
	if err := d.CheckSafety(good); err != nil {
		t.Errorf("legitimate abort rejected: %v", err)
	}
}

func TestDACOnlyDistinguishedAborts(t *testing.T) {
	t.Parallel()
	d := task.DAC{N: 3, P: 0}
	bad := outcome([]value.Value{1, 0, 0}, func(o *task.Outcome) {
		o.Aborted[2] = true
		o.Stepped[0] = true
	})
	if err := d.CheckSafety(bad); !errors.Is(err, task.ErrViolation) {
		t.Errorf("non-distinguished abort accepted: %v", err)
	}
}

func TestLivenessDescriptors(t *testing.T) {
	t.Parallel()
	if l := (task.Consensus{N: 3}).Liveness(); !l.WaitFree || l.DACDistinguished != -1 {
		t.Errorf("consensus liveness = %+v", l)
	}
	if l := (task.DAC{N: 3, P: 2}).Liveness(); l.WaitFree || l.DACDistinguished != 2 {
		t.Errorf("DAC liveness = %+v", l)
	}
}

func TestTaskNamesAndProcs(t *testing.T) {
	t.Parallel()
	if got := (task.Consensus{N: 4}).Name(); got != "4-process consensus" {
		t.Errorf("name = %q", got)
	}
	if got := (task.KSetAgreement{N: 6, K: 2}).Name(); got != "(6,2)-set agreement" {
		t.Errorf("name = %q", got)
	}
	if got := (task.DAC{N: 5, P: 0}).Name(); got != "5-DAC" {
		t.Errorf("name = %q", got)
	}
	if (task.DAC{N: 5, P: 0}).Procs() != 5 {
		t.Error("procs")
	}
}

func TestNewOutcomeCopiesInputs(t *testing.T) {
	t.Parallel()
	in := []value.Value{1, 2}
	o := task.NewOutcome(in)
	in[0] = 9
	if o.Inputs[0] != 1 {
		t.Error("NewOutcome aliases its input slice")
	}
	for _, d := range o.Decisions {
		if d != value.None {
			t.Error("fresh outcome has decisions")
		}
	}
}

func TestResilientKSetName(t *testing.T) {
	t.Parallel()
	got := (task.ResilientKSet{N: 4, K: 3, F: 2}).Name()
	if got != "2-resilient (4,3)-set agreement" {
		t.Errorf("name = %q", got)
	}
}

func TestResilientKSetLiveness(t *testing.T) {
	t.Parallel()
	l := (task.ResilientKSet{N: 4, K: 3, F: 2}).Liveness()
	if l.WaitFree || l.Tolerance != 2 || l.DACDistinguished != -1 {
		t.Errorf("liveness = %+v", l)
	}
}

func TestResilientKSetSafetyDelegates(t *testing.T) {
	t.Parallel()
	rt := task.ResilientKSet{N: 3, K: 2, F: 1}
	bad := outcome([]value.Value{1, 2, 3}, func(o *task.Outcome) {
		o.Decide(0, 1)
		o.Decide(1, 2)
		o.Decide(2, 3)
	})
	if err := rt.CheckSafety(bad); !errors.Is(err, task.ErrViolation) {
		t.Errorf("3 distinct decisions accepted: %v", err)
	}
	good := outcome([]value.Value{1, 2, 3}, func(o *task.Outcome) {
		o.Decide(0, 1)
		o.Decide(1, 1)
	})
	if err := rt.CheckSafety(good); err != nil {
		t.Errorf("valid outcome rejected: %v", err)
	}
}

// TestSafetyDecidedOutcomesAllocateNothing: the k-set agreement
// predicate, and the consensus and resilient tasks that delegate to it,
// allocate nothing on outcomes with decided processes that satisfy it.
// The model checker evaluates the predicate on every configuration it
// interns. It does not run in parallel: testing.AllocsPerRun counts
// every goroutine's allocations.
func TestSafetyDecidedOutcomesAllocateNothing(t *testing.T) {
	in := []value.Value{0, 1, 1, 2}
	tasks := []task.Task{
		task.Consensus{N: 4},
		task.KSetAgreement{N: 4, K: 2},
		task.ResilientKSet{N: 4, K: 2, F: 1},
	}
	outcomes := []task.Outcome{
		outcome(in, func(o *task.Outcome) { o.Decide(1, 1) }),
		outcome(in, func(o *task.Outcome) {
			o.Decide(0, 1)
			o.Decide(2, 1)
			o.Decide(3, 1)
		}),
	}
	for _, tsk := range tasks {
		for k, o := range outcomes {
			if err := tsk.CheckSafety(o); err != nil {
				t.Fatalf("%s, outcome %d: %v", tsk.Name(), k, err)
			}
			if allocs := testing.AllocsPerRun(100, func() { _ = tsk.CheckSafety(o) }); allocs != 0 {
				t.Errorf("%s, outcome %d: CheckSafety allocates %v times", tsk.Name(), k, allocs)
			}
		}
	}
	// A violation still names each distinct decision once, in process
	// order.
	three := outcome(in, func(o *task.Outcome) {
		o.Decide(0, 2)
		o.Decide(1, 0)
		o.Decide(2, 2)
		o.Decide(3, 1)
	})
	err := task.KSetAgreement{N: 4, K: 2}.CheckSafety(three)
	want := fmt.Sprintf("3 distinct decisions %v exceed k=2", []value.Value{2, 0, 1})
	if !errors.Is(err, task.ErrViolation) || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want one containing %q", err, want)
	}
}
