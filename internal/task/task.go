// Package task defines the decision tasks of the paper — consensus,
// k-set agreement (§1), and the n-DAC problem (§4) — as machine-checkable
// predicates over execution outcomes. The model checker
// (internal/explore) evaluates the safety predicate at every reachable
// configuration and the liveness requirements over the configuration
// graph; the simulator (internal/sim) evaluates both over sampled runs.
package task

import (
	"errors"
	"fmt"
	"strconv"

	"setagree/internal/value"
)

// ErrViolation is wrapped by every safety-predicate failure.
var ErrViolation = errors.New("task property violated")

// Outcome is a snapshot of the externally visible behaviour of an
// execution: which processes decided what, which aborted, and which have
// taken at least one step. Decisions and aborts are irrevocable, so a
// violation in any reachable snapshot is a violation of the run.
type Outcome struct {
	// Inputs are the proposal values, indexed by process (0-based).
	Inputs []value.Value
	// Decisions hold each process's decided value; the entry is
	// meaningful only when Decided is set. A decided sentinel (NIL, ⊥,
	// done) is representable — and is always a safety violation.
	Decisions []value.Value
	// Decided marks processes that have decided.
	Decided []bool
	// Aborted marks processes that aborted (n-DAC distinguished process
	// only).
	Aborted []bool
	// Stepped marks processes that have performed at least one
	// shared-memory step (used by n-DAC Nontriviality).
	Stepped []bool
}

// NewOutcome allocates an all-undecided outcome for the given inputs.
func NewOutcome(inputs []value.Value) Outcome {
	n := len(inputs)
	in := make([]value.Value, n)
	copy(in, inputs)
	dec := make([]value.Value, n)
	for i := range dec {
		dec[i] = value.None
	}
	return Outcome{
		Inputs:    in,
		Decisions: dec,
		Decided:   make([]bool, n),
		Aborted:   make([]bool, n),
		Stepped:   make([]bool, n),
	}
}

// Decide records process i's decision.
func (o *Outcome) Decide(i int, v value.Value) {
	o.Decided[i] = true
	o.Decisions[i] = v
}

// Task is a decision task: a process count, a safety predicate, and the
// liveness obligations the checker must enforce.
type Task interface {
	// Name identifies the task, e.g. "3-consensus" or "4-DAC".
	Name() string
	// Procs is the number of participating processes.
	Procs() int
	// CheckSafety returns a wrapped ErrViolation if the (possibly
	// partial) outcome already violates the task's safety properties.
	// The caller may reuse o's slices for the next outcome once
	// CheckSafety returns, so a predicate must not keep o or its slices
	// (an error it returns may copy values out of them).
	CheckSafety(o Outcome) error
	// Liveness describes the termination obligations.
	Liveness() Liveness
}

// ValueSymmetric01 reports whether the task declares its safety
// predicate invariant under swapping the values 0 and 1 uniformly
// across an outcome's Inputs and Decisions (liveness obligations never
// mention values, so they are trivially invariant). All tasks in this
// package qualify: agreement and validity compare values for equality
// only, and DAC's binary-decision check is itself 0↔1-symmetric. Tasks
// opt in via the interface{ ValueSymmetric01() bool } extension; all
// other tasks are conservatively treated as value-sensitive. The sweep
// memoizer (internal/enumerate) consults this to collapse candidates
// related by the 0↔1 swap.
func ValueSymmetric01(t Task) bool {
	v, ok := t.(interface{ ValueSymmetric01() bool })
	return ok && v.ValueSymmetric01()
}

// PeerSymmetric reports whether the task declares its safety predicate
// and liveness obligations invariant under permuting non-distinguished
// processes together with their inputs (every process when
// Liveness().DACDistinguished < 0). All tasks in this package qualify:
// their predicates examine the per-process Outcome arrays uniformly,
// and only DAC singles out the distinguished index. Tasks opt in via
// the interface{ PeerSymmetric() bool } extension; all other tasks are
// conservatively treated as process-sensitive. The sweep memoizer
// (internal/enumerate) consults this to canonicalize input vectors of
// candidates whose peer processes run a common program.
func PeerSymmetric(t Task) bool {
	v, ok := t.(interface{ PeerSymmetric() bool })
	return ok && v.PeerSymmetric()
}

// Liveness describes which termination properties a task demands.
type Liveness struct {
	// WaitFree demands every process that takes infinitely many steps
	// decides (consensus, k-set agreement).
	WaitFree bool
	// Tolerance, for non-wait-free, non-DAC tasks, is the resilience
	// bound f: termination is demanded only in executions where at most
	// f processes crash (stop taking steps while undecided). WaitFree is
	// equivalent to Tolerance = n-1.
	Tolerance int
	// DACDistinguished, when >= 0, is the 0-based index of the n-DAC
	// distinguished process p: p must decide or abort if it takes
	// infinitely many steps (Termination (a)), and every other process
	// must decide when running solo (Termination (b)).
	DACDistinguished int
}

// Consensus is the consensus task among N processes: Agreement,
// Validity, and wait-free Termination.
type Consensus struct {
	// N is the number of processes.
	N int
}

var _ Task = Consensus{}

// Name implements Task.
func (c Consensus) Name() string { return strconv.Itoa(c.N) + "-process consensus" }

// Procs implements Task.
func (c Consensus) Procs() int { return c.N }

// Liveness implements Task: consensus is wait-free.
func (Consensus) Liveness() Liveness {
	return Liveness{WaitFree: true, DACDistinguished: -1}
}

// ValueSymmetric01 implements the value-symmetry extension.
func (Consensus) ValueSymmetric01() bool { return true }

// PeerSymmetric implements the process-symmetry extension.
func (Consensus) PeerSymmetric() bool { return true }

// CheckSafety implements Task.
func (c Consensus) CheckSafety(o Outcome) error {
	return KSetAgreement{N: c.N, K: 1}.CheckSafety(o)
}

// KSetAgreement is the k-set agreement task among N processes: at most
// K distinct decisions, every decision is some process's input, and
// wait-free termination.
type KSetAgreement struct {
	// N is the number of processes.
	N int
	// K is the agreement bound.
	K int
}

var _ Task = KSetAgreement{}

// Name implements Task.
func (t KSetAgreement) Name() string {
	return "(" + strconv.Itoa(t.N) + "," + strconv.Itoa(t.K) + ")-set agreement"
}

// Procs implements Task.
func (t KSetAgreement) Procs() int { return t.N }

// Liveness implements Task: k-set agreement is wait-free.
func (KSetAgreement) Liveness() Liveness {
	return Liveness{WaitFree: true, DACDistinguished: -1}
}

// ValueSymmetric01 implements the value-symmetry extension.
func (KSetAgreement) ValueSymmetric01() bool { return true }

// PeerSymmetric implements the process-symmetry extension.
func (KSetAgreement) PeerSymmetric() bool { return true }

// CheckSafety implements Task: k-agreement plus validity.
// It allocates only to build an error: the model checker evaluates it
// on every configuration it interns.
func (t KSetAgreement) CheckSafety(o Outcome) error {
	distinct := 0
	for i, d := range o.Decisions {
		if !o.Decided[i] {
			continue
		}
		if d.IsSentinel() {
			return fmt.Errorf("%s: process %d decided sentinel %s: %w", t.Name(), i+1, d, ErrViolation)
		}
		if !contains(o.Inputs, d) {
			return fmt.Errorf("%s: validity: process %d decided %s, proposed by no process: %w",
				t.Name(), i+1, d, ErrViolation)
		}
		if firstDecided(o, i) {
			distinct++
		}
	}
	if distinct > t.K {
		var ds []value.Value
		for i, d := range o.Decisions {
			if o.Decided[i] && firstDecided(o, i) {
				ds = append(ds, d)
			}
		}
		return fmt.Errorf("%s: agreement: %d distinct decisions %v exceed k=%d: %w",
			t.Name(), distinct, ds, t.K, ErrViolation)
	}
	for i, a := range o.Aborted {
		if a {
			return fmt.Errorf("%s: process %d aborted, but the task has no abort action: %w",
				t.Name(), i+1, ErrViolation)
		}
	}
	return nil
}

// firstDecided reports whether no process before decided process i
// decided the same value.
func firstDecided(o Outcome, i int) bool {
	for j := range i {
		if o.Decided[j] && o.Decisions[j] == o.Decisions[i] {
			return false
		}
	}
	return true
}

// DAC is the n-DAC problem of §4 among N processes with binary inputs:
// the distinguished process P (0-based) may abort instead of deciding.
//
//   - Agreement: all decisions are equal.
//   - Validity: a decided value is the input of some process that does
//     not abort.
//   - Termination (a): if P takes infinitely many steps, P decides or
//     aborts.
//   - Termination (b): every other process decides when it runs solo.
//   - Nontriviality: if P aborts, some other process took at least one
//     step.
type DAC struct {
	// N is the number of processes.
	N int
	// P is the 0-based index of the distinguished process.
	P int
}

var _ Task = DAC{}

// Name implements Task.
func (t DAC) Name() string { return strconv.Itoa(t.N) + "-DAC" }

// Procs implements Task.
func (t DAC) Procs() int { return t.N }

// Liveness implements Task: the DAC termination pair (a)/(b).
func (t DAC) Liveness() Liveness {
	return Liveness{WaitFree: false, DACDistinguished: t.P}
}

// ValueSymmetric01 implements the value-symmetry extension: the
// binary-decision, agreement, validity, and nontriviality clauses all
// survive a uniform 0↔1 relabeling.
func (DAC) ValueSymmetric01() bool { return true }

// PeerSymmetric implements the process-symmetry extension: only the
// distinguished process is singled out; the remaining processes enter
// every clause symmetrically.
func (DAC) PeerSymmetric() bool { return true }

// CheckSafety implements Task.
func (t DAC) CheckSafety(o Outcome) error {
	haveDecision := false
	var decided value.Value
	for i, d := range o.Decisions {
		if !o.Decided[i] {
			continue
		}
		if d != 0 && d != 1 {
			return fmt.Errorf("%s: process %d decided non-binary %s: %w", t.Name(), i+1, d, ErrViolation)
		}
		if !haveDecision {
			haveDecision = true
			decided = d
		} else if d != decided {
			return fmt.Errorf("%s: agreement: decisions %s and %s differ: %w",
				t.Name(), decided, d, ErrViolation)
		}
		// Validity: some process that has not aborted has input d. Aborts
		// are irrevocable, so checking every reachable snapshot makes
		// this exact for whole runs.
		valid := false
		for j, in := range o.Inputs {
			if in == d && !o.Aborted[j] {
				valid = true
				break
			}
		}
		if !valid {
			return fmt.Errorf("%s: validity: %s decided but every process with that input aborted: %w",
				t.Name(), d, ErrViolation)
		}
	}
	for i, a := range o.Aborted {
		if !a {
			continue
		}
		if i != t.P {
			return fmt.Errorf("%s: process %d aborted but only the distinguished process %d may: %w",
				t.Name(), i+1, t.P+1, ErrViolation)
		}
		someoneStepped := false
		for j, s := range o.Stepped {
			if j != t.P && s {
				someoneStepped = true
				break
			}
		}
		if !someoneStepped {
			return fmt.Errorf("%s: nontriviality: p aborted although no other process took a step: %w",
				t.Name(), ErrViolation)
		}
	}
	return nil
}

func contains(vs []value.Value, v value.Value) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// ResilientKSet is the f-resilient k-set agreement task among N
// processes (Chaudhuri [5]): the safety properties of k-set agreement,
// with termination demanded only in executions where at most F
// processes crash. It is solvable from registers alone iff F < K (the
// positive direction is Chaudhuri's protocol, programs.ChaudhuriKSet;
// the negative direction is the Borowsky–Gafni / Herlihy–Shavit /
// Saks–Zaharoglou theorem).
type ResilientKSet struct {
	// N is the number of processes.
	N int
	// K is the agreement bound.
	K int
	// F is the resilience (maximum tolerated crashes).
	F int
}

var _ Task = ResilientKSet{}

// Name implements Task.
func (t ResilientKSet) Name() string {
	return strconv.Itoa(t.F) + "-resilient (" + strconv.Itoa(t.N) + "," + strconv.Itoa(t.K) + ")-set agreement"
}

// Procs implements Task.
func (t ResilientKSet) Procs() int { return t.N }

// Liveness implements Task.
func (t ResilientKSet) Liveness() Liveness {
	return Liveness{Tolerance: t.F, DACDistinguished: -1}
}

// ValueSymmetric01 implements the value-symmetry extension.
func (ResilientKSet) ValueSymmetric01() bool { return true }

// PeerSymmetric implements the process-symmetry extension.
func (ResilientKSet) PeerSymmetric() bool { return true }

// CheckSafety implements Task (identical to the wait-free variant).
func (t ResilientKSet) CheckSafety(o Outcome) error {
	return KSetAgreement{N: t.N, K: t.K}.CheckSafety(o)
}
