// Package enumerate synthesizes bounded families of candidate protocols
// and model-checks every member against a task. Impossibility theorems
// (4.2, 5.2, 7.1) quantify over all algorithms and cannot be established
// by running code; this package reproduces their *shape* executably: for
// a natural finite family of protocols over exactly the object base the
// theorem permits, no member solves the task, and each failure comes
// with a concrete counterexample run (DESIGN.md substitution 1).
//
// A candidate program is a bounded straight-line phase sequence — D
// shared-memory invocations drawn from a menu — followed by a guarded
// final action: one action when the last response is ⊥, another
// otherwise. Actions decide a constant, the input, or a recorded
// response, abort (distinguished n-DAC process only), or retry the whole
// phase sequence (loop).
package enumerate

import (
	"fmt"
	"strconv"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/spec"
	"setagree/internal/value"
)

// ArgSource selects the value operand of a synthesized invocation.
type ArgSource uint8

// Argument sources.
const (
	// ArgInput proposes/writes the process input.
	ArgInput ArgSource = iota + 1
	// ArgZero proposes/writes the constant 0.
	ArgZero
	// ArgOne proposes/writes the constant 1.
	ArgOne
	// ArgPrev proposes/writes the previous invocation's response (the
	// input for the first invocation).
	ArgPrev
)

func (a ArgSource) String() string {
	switch a {
	case ArgInput:
		return "input"
	case ArgZero:
		return "0"
	case ArgOne:
		return "1"
	case ArgPrev:
		return "prev"
	default:
		return "arg(" + strconv.Itoa(int(a)) + ")"
	}
}

// Invoke is one menu entry: an operation template against a fixed
// object index.
type Invoke struct {
	// Obj is the shared-object index in the family's object list.
	Obj int
	// Method is the operation kind.
	Method value.Method
	// Arg selects the value operand for methods that take one.
	Arg ArgSource
	// Label is the constant label for methods that take one.
	Label int
}

func (iv Invoke) String() string {
	s := "obj" + strconv.Itoa(iv.Obj) + "." + iv.Method.String()
	if iv.Method.TakesArg() {
		s += "(" + iv.Arg.String() + ")"
	}
	return s
}

// Action is a synthesized final action.
type Action uint8

// Final actions.
const (
	// ActDecideInput decides the process input.
	ActDecideInput Action = iota + 1
	// ActDecideLast decides the last response.
	ActDecideLast
	// ActDecideFirst decides the first invocation's response.
	ActDecideFirst
	// ActDecideZero and ActDecideOne decide constants.
	ActDecideZero
	ActDecideOne
	// ActAbort aborts (allowed only for the distinguished process).
	ActAbort
	// ActRetry restarts the phase sequence.
	ActRetry
)

func (a Action) String() string {
	switch a {
	case ActDecideInput:
		return "decide(input)"
	case ActDecideLast:
		return "decide(last)"
	case ActDecideFirst:
		return "decide(first)"
	case ActDecideZero:
		return "decide(0)"
	case ActDecideOne:
		return "decide(1)"
	case ActAbort:
		return "abort"
	case ActRetry:
		return "retry"
	default:
		return "act(" + strconv.Itoa(int(a)) + ")"
	}
}

// Shape is one synthesized program shape: the invocation sequence and
// the guarded final action pair.
type Shape struct {
	// Seq is the phase sequence of invocations.
	Seq []Invoke
	// OnBottom runs when the last response is ⊥; OnValue otherwise.
	OnBottom, OnValue Action
}

// String renders the shape compactly.
func (s Shape) String() string {
	out := ""
	for i, iv := range s.Seq {
		if i > 0 {
			out += "; "
		}
		out += iv.String()
	}
	return out + "; if ⊥ " + s.OnBottom.String() + " else " + s.OnValue.String()
}

// Family is a bounded candidate family.
type Family struct {
	// Objects is the permitted object base (the theorem's hypothesis).
	Objects []spec.Spec
	// Menu is the set of invocation templates.
	Menu []Invoke
	// Depth is the exact number of invocations per phase.
	Depth int
	// Actions is the permitted final-action set.
	Actions []Action
	// AllowAbort additionally permits ActAbort (distinguished role).
	AllowAbort bool
}

// Shapes enumerates every program shape of the family.
func (f *Family) Shapes() []Shape {
	actions := f.Actions
	if f.AllowAbort {
		actions = append(append([]Action(nil), actions...), ActAbort)
	}
	var out []Shape
	seq := make([]Invoke, f.Depth)
	var rec func(d int)
	rec = func(d int) {
		if d == f.Depth {
			for _, ob := range actions {
				for _, ov := range actions {
					if ov == ActRetry && ob == ActRetry {
						continue // loops forever without deciding; skip the degenerate shape
					}
					s := Shape{Seq: append([]Invoke(nil), seq...), OnBottom: ob, OnValue: ov}
					out = append(out, s)
				}
			}
			return
		}
		for _, iv := range f.Menu {
			seq[d] = iv
			rec(d + 1)
		}
	}
	rec(0)
	return out
}

// respReg returns the register holding invocation i's response.
func respReg(i int) machine.RegID { return machine.RegID(2 + i) }

// Program materializes a shape as a machine program.
func (f *Family) Program(s Shape, name string) (*machine.Program, error) {
	b := machine.NewBuilder(name, 2+f.Depth)
	b.Label("start")
	for i, iv := range s.Seq {
		var arg machine.Operand
		if iv.Method.TakesArg() {
			switch iv.Arg {
			case ArgInput:
				arg = machine.R(machine.RegInput)
			case ArgZero:
				arg = machine.C(0)
			case ArgOne:
				arg = machine.C(1)
			case ArgPrev:
				if i == 0 {
					arg = machine.R(machine.RegInput)
				} else {
					arg = machine.R(respReg(i - 1))
				}
			default:
				return nil, fmt.Errorf("shape %s: bad arg source: %w", s, machine.ErrProgram)
			}
		}
		var label machine.Operand
		if iv.Method.TakesLabel() {
			label = machine.C(value.Value(iv.Label))
		}
		b.Invoke(respReg(i), iv.Obj, iv.Method, arg, label)
	}
	last := machine.R(respReg(f.Depth - 1))
	b.JEq(last, machine.C(value.Bottom), "onbottom")
	if err := emitAction(b, s.OnValue, f.Depth); err != nil {
		return nil, err
	}
	b.Label("onbottom")
	if err := emitAction(b, s.OnBottom, f.Depth); err != nil {
		return nil, err
	}
	return b.Build()
}

func emitAction(b *machine.Builder, a Action, depth int) error {
	switch a {
	case ActDecideInput:
		b.Decide(machine.R(machine.RegInput))
	case ActDecideLast:
		b.Decide(machine.R(respReg(depth - 1)))
	case ActDecideFirst:
		b.Decide(machine.R(respReg(0)))
	case ActDecideZero:
		b.Decide(machine.C(0))
	case ActDecideOne:
		b.Decide(machine.C(1))
	case ActAbort:
		b.Abort()
	case ActRetry:
		b.Jmp("start")
	default:
		return fmt.Errorf("unknown action %d: %w", a, machine.ErrProgram)
	}
	return nil
}

// Assignment pairs one shape per role. Role 0 is the program of the
// distinguished process (or of every process for symmetric tasks).
type Assignment struct {
	// Shapes holds one shape per role.
	Shapes []Shape
}

// Report summarizes a falsification sweep of candidates [lo, hi) (the
// whole candidate list for FalsifyDAC and FalsifySymmetric). Its
// contents depend only on the candidate order, never on scheduling:
// sweeps aggregate worker results by candidate index, so the same
// sweep renders byte-identically at any SweepOptions.Workers setting.
// Entries carry global candidate indices, so the reports of a
// partition of [0, Prepared.Candidates()), concatenated in index
// order, list what one full sweep does.
type Report struct {
	// Candidates is the number of protocol assignments checked.
	Candidates int
	// Pruned counts assignments rejected by the cheap solo prefilter
	// across the whole prepared sweep.
	Pruned int
	// States is the total number of configurations explored across all
	// model checks, partial (state-limited) explorations included.
	States int
	// Solvers lists assignments that passed every check (expected empty
	// for impossibility experiments), in candidate order.
	Solvers []Solver
	// Inconclusive lists assignments the sweep could not settle: some
	// model check hit SweepOptions.MaxStatesPerCandidate and no input
	// vector refuted the assignment. They are listed in candidate order;
	// re-run with a larger limit to settle them.
	Inconclusive []Inconclusive
	// SampleFailure is the refuted assignment with the lowest candidate
	// index, with its violation, for reporting.
	SampleFailure *Failure
	// SymmetryFallbacks counts candidates that requested symmetry
	// reduction (SweepOptions.Symmetry) but were checked unreduced
	// because their system rejected it (asymmetric objects, or an
	// analysis the quotient does not support). The verdicts for those
	// candidates are exact either way.
	SymmetryFallbacks int
}

// Solver is one candidate that passed every model check.
type Solver struct {
	// Index is the global candidate index.
	Index int
	// Assignment is the solving candidate.
	Assignment Assignment
}

// Failure is one refuted candidate.
type Failure struct {
	// Index is the global candidate index.
	Index int
	// Assignment is the refuted candidate.
	Assignment Assignment
	// Violation is the checker's counterexample.
	Violation *explore.Violation
	// Inputs is the input vector it failed on.
	Inputs []value.Value
}

// Inconclusive is one candidate the sweep could not settle: the model
// check exceeded the per-candidate state limit on Inputs, and no other
// input vector refuted the candidate.
type Inconclusive struct {
	// Index is the global candidate index.
	Index int
	// Assignment is the unsettled candidate.
	Assignment Assignment
	// Inputs is the first input vector whose check hit the state limit.
	Inputs []value.Value
}
