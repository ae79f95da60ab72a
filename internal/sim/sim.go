// Package sim executes protocol systems under concrete schedules. Where
// internal/explore quantifies over every schedule (feasible for small
// instances), sim samples: seeded pseudo-random schedulers, round-robin,
// solo runs, and adversarially crashed processes, over instances far
// beyond model-checking scale. The same machine semantics back both, so
// a sim run is exactly one path of the explorer's configuration graph.
package sim

import (
	"context"
	"fmt"

	"setagree/internal/explore"
	"setagree/internal/history"
	"setagree/internal/machine"
	"setagree/internal/obs"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// Scheduler picks the next process to step and resolves object
// nondeterminism. Implementations may be stateful; a Scheduler drives
// one run at a time.
type Scheduler interface {
	// NextProc picks an element of live (the processes able to step).
	NextProc(live []int) int
	// Chooser resolves nondeterministic object transitions.
	spec.Chooser
}

// roundRobin cycles through live processes.
type roundRobin struct {
	turn int
}

// RoundRobin returns a scheduler that steps live processes cyclically
// and resolves object nondeterminism with the first transition.
func RoundRobin() Scheduler { return &roundRobin{} }

func (s *roundRobin) NextProc(live []int) int {
	s.turn++
	return live[s.turn%len(live)]
}

func (*roundRobin) Choose(int) int { return 0 }

// random is a seeded xorshift scheduler.
type random struct {
	state uint64
}

// Random returns a deterministic pseudo-random scheduler seeded with
// seed; identical seeds replay identical runs.
func Random(seed uint64) Scheduler {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &random{state: seed}
}

func (s *random) next() uint64 {
	s.state ^= s.state >> 12
	s.state ^= s.state << 25
	s.state ^= s.state >> 27
	return s.state * 0x2545f4914f6cdd1d
}

func (s *random) NextProc(live []int) int {
	return live[s.next()%uint64(len(live))]
}

func (s *random) Choose(n int) int {
	return int(s.next() % uint64(n))
}

// solo steps one preferred process while it is live, then falls back to
// round-robin over the rest — the "q runs solo" histories the paper's
// proofs use.
type solo struct {
	rr     roundRobin
	prefer int
}

// Solo returns a scheduler that runs process prefer (0-based) solo
// until it terminates, then the others round-robin.
func Solo(prefer int) Scheduler { return &solo{prefer: prefer} }

func (s *solo) NextProc(live []int) int {
	for _, p := range live {
		if p == s.prefer {
			return p
		}
	}
	return s.rr.NextProc(live)
}

func (*solo) Choose(int) int { return 0 }

// Options configures a run.
type Options struct {
	// MaxSteps bounds the run length (default 1 << 16).
	MaxSteps int
	// CrashAt maps a 0-based process to the global step count at which
	// it crashes (takes no further steps).
	CrashAt map[int]int
	// RecordTrace retains the executed schedule in the result.
	RecordTrace bool
	// Obs, when set, receives the sim.* run metrics: runs, steps,
	// completed, violations, and replays (runs driven by a Replay
	// scheduler). Values are sums of work done, so identical runs yield
	// identical metrics. Nil disables metrics at zero cost.
	Obs *obs.Sink
	// Ctx, when set, cancels cooperatively: Run checks it every
	// ctxCheckEvery steps (still flushing the sim.* counters for the
	// partial run), and Trials additionally checks it between trials.
	// Both return an error satisfying errors.Is(err, ctx.Err()).
	Ctx context.Context
}

// ctxCheckEvery is how many executed steps Run lets pass between
// cancellation polls — frequent enough to stop promptly, rare enough
// that the uncancelled fast path stays branch-predictable.
const ctxCheckEvery = 1 << 10

// Result describes one run.
type Result struct {
	// Outcome is the final externally visible outcome.
	Outcome task.Outcome
	// Steps is the number of shared-memory steps executed.
	Steps int
	// Completed reports that every non-crashed process terminated.
	Completed bool
	// Trace is the executed schedule when Options.RecordTrace was set.
	Trace []explore.Step
	// Violation is the first task safety violation observed, nil if
	// none (liveness cannot be decided from one finite run).
	Violation error
	// Final is the configuration the run stopped in.
	Final *explore.Config
}

// Run executes sys under sched until every process terminates, a safety
// violation occurs, or the step budget expires.
func Run(sys *explore.System, tsk task.Task, sched Scheduler, opts Options) (*Result, error) {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 1 << 16
	}
	n := sys.Procs()
	procs := make([]machine.ProcState, n)
	for i := 0; i < n; i++ {
		ps, err := machine.Start(sys.Programs[i], i+1, sys.Inputs[i])
		if err != nil {
			return nil, err
		}
		procs[i] = ps
	}
	objs := make([]spec.State, len(sys.Objects))
	for j, o := range sys.Objects {
		objs[j] = o.Init()
	}
	stepped := make([]bool, n)
	res := &Result{}

	outcome := func() task.Outcome {
		o := task.NewOutcome(sys.Inputs)
		for i, ps := range procs {
			switch ps.Status {
			case machine.StatusDecided:
				o.Decide(i, ps.Decision)
			case machine.StatusAborted:
				o.Aborted[i] = true
			}
			o.Stepped[i] = stepped[i]
		}
		return o
	}

	var interrupted error
	for res.Steps < opts.MaxSteps {
		if ctx := opts.Ctx; ctx != nil && res.Steps%ctxCheckEvery == 0 && ctx.Err() != nil {
			interrupted = fmt.Errorf("sim: run interrupted after %d steps: %w", res.Steps, ctx.Err())
			break
		}
		// Crash processes whose time has come.
		for i, at := range opts.CrashAt {
			if res.Steps >= at && procs[i].Status == machine.StatusPoised {
				procs[i] = machine.Crash(procs[i])
			}
		}
		var live []int
		for i := range procs {
			if procs[i].Status == machine.StatusPoised {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			res.Completed = true
			break
		}
		i := sched.NextProc(live)
		if procs[i].Status != machine.StatusPoised {
			return nil, fmt.Errorf("sim: scheduler picked non-live process %d: %w", i+1, machine.ErrProgram)
		}
		poise, _ := machine.Poised(sys.Programs[i], procs[i])
		if poise.Obj < 0 || poise.Obj >= len(sys.Objects) {
			return nil, spec.BadOpError("sim", poise.Op, "object index out of range")
		}
		ts, err := sys.Objects[poise.Obj].Step(objs[poise.Obj], poise.Op)
		if err != nil {
			return nil, err
		}
		branch := 0
		if len(ts) > 1 {
			branch = sched.Choose(len(ts))
			if branch < 0 || branch >= len(ts) {
				return nil, fmt.Errorf("sim: chooser picked branch %d of %d: %w", branch, len(ts), machine.ErrProgram)
			}
		}
		t := ts[branch]
		next, err := machine.Resume(sys.Programs[i], procs[i], t.Resp)
		if err != nil {
			return nil, err
		}
		procs[i] = next
		objs[poise.Obj] = t.Next
		stepped[i] = true
		res.Steps++
		if stepper, ok := sched.(interface{ advance() }); ok {
			stepper.advance()
		}
		if opts.RecordTrace {
			res.Trace = append(res.Trace, explore.Step{
				Proc: i, Obj: poise.Obj, Op: poise.Op, Resp: t.Resp, Branch: branch,
			})
		}
		if tsk != nil {
			if err := tsk.CheckSafety(outcome()); err != nil {
				res.Violation = err
				break
			}
		}
	}
	res.Outcome = outcome()
	res.Final = &explore.Config{Procs: procs, Objs: objs}
	for i, ok := range stepped {
		if ok {
			res.Final.SteppedMask |= 1 << uint(i)
		}
	}
	if opts.Obs != nil {
		o := opts.Obs
		o.Counter("sim.runs").Inc()
		o.Counter("sim.steps").Add(int64(res.Steps))
		if res.Completed {
			o.Counter("sim.completed").Inc()
		}
		if res.Violation != nil {
			o.Counter("sim.violations").Inc()
		}
		if _, isReplay := sched.(*replay); isReplay {
			o.Counter("sim.replays").Inc()
		}
	}
	if interrupted != nil {
		return nil, interrupted
	}
	return res, nil
}

// TrialViolation is the violation Trials reports: the underlying task
// safety violation together with everything needed to reproduce the
// failing run from the error message alone — the trial index, the
// exact scheduler seed of that trial, and the step budget.
type TrialViolation struct {
	// Err is the underlying safety violation.
	Err error
	// Seed is the exact seed of the failing trial's scheduler; replay
	// the run with sim.Random(Seed) on a fresh system.
	Seed uint64
	// Trial is the 0-based trial index within the Trials call.
	Trial int
	// MaxSteps is the step budget the failing run executed under.
	MaxSteps int
}

// Error renders the violation with its reproduction recipe.
func (v *TrialViolation) Error() string {
	return fmt.Sprintf("trial %d (scheduler sim.Random(%d), max steps %d): %v",
		v.Trial, v.Seed, v.MaxSteps, v.Err)
}

// Unwrap exposes the underlying safety violation to errors.Is/As.
func (v *TrialViolation) Unwrap() error { return v.Err }

// Trials runs the same system under `trials` differently seeded random
// schedules and returns the first safety violation, if any, together
// with the number of completed runs. A non-nil violation is always a
// *TrialViolation carrying the failing trial's index, scheduler seed,
// and step budget, so the failure is reproducible from the message
// alone. With Options.Obs set, the sink additionally collects the
// sim.trials counter on top of each run's sim.* metrics.
func Trials(mk func() (*explore.System, error), tsk task.Task, trials int, seed uint64, opts Options) (completed int, violation error, err error) {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1 << 16
	}
	trialCounter := opts.Obs.Counter("sim.trials")
	for t := 0; t < trials; t++ {
		if ctx := opts.Ctx; ctx != nil && ctx.Err() != nil {
			return completed, violation, fmt.Errorf("sim: interrupted after %d of %d trials: %w", t, trials, ctx.Err())
		}
		sys, err := mk()
		if err != nil {
			return completed, violation, err
		}
		trialSeed := seed + uint64(t)*0x9e37
		r, err := Run(sys, tsk, Random(trialSeed), opts)
		if err != nil {
			return completed, violation, err
		}
		trialCounter.Inc()
		if r.Violation != nil && violation == nil {
			violation = &TrialViolation{Trial: t, Seed: trialSeed, MaxSteps: maxSteps, Err: r.Violation}
		}
		if r.Completed {
			completed++
		}
	}
	return completed, violation, nil
}

// Inputs builds an input vector of n values drawn cyclically from vals.
func Inputs(n int, vals ...value.Value) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	return out
}

// replay follows a recorded schedule step for step, both in process
// choice and in nondeterministic branch choice. After the schedule is
// exhausted it refuses to continue (NextProc panics are avoided by
// falling back to the first live process; Choose falls back to 0).
type replay struct {
	steps []explore.Step
	at    int
}

// Replay returns a scheduler that re-executes a schedule produced by
// the model checker (a Violation witness) or a recorded sim trace. Use
// with Options.MaxSteps = len(steps) to stop exactly at the end.
func Replay(steps []explore.Step) Scheduler {
	copied := make([]explore.Step, len(steps))
	copy(copied, steps)
	return &replay{steps: copied}
}

func (r *replay) NextProc(live []int) int {
	if r.at >= len(r.steps) {
		return live[0]
	}
	want := r.steps[r.at].Proc
	for _, p := range live {
		if p == want {
			return p
		}
	}
	return live[0]
}

func (r *replay) Choose(n int) int {
	if r.at >= len(r.steps) {
		return 0
	}
	b := r.steps[r.at].Branch
	if b < 0 || b >= n {
		return 0
	}
	return b
}

// advance is called by Run after each executed step.
func (r *replay) advance() { r.at++ }

// TraceToHistory converts a recorded schedule into a completed-operation
// history (each step is atomic, so its invocation and return are
// adjacent logical instants). Together with internal/lincheck this
// cross-validates the machine semantics against the object specs: any
// trace the simulator (or the model checker) produces must be
// linearizable per object.
func TraceToHistory(trace []explore.Step) *history.History {
	h := &history.History{Events: make([]history.Event, 0, len(trace))}
	clock := int64(0)
	for _, s := range trace {
		clock++
		inv := clock
		clock++
		h.Events = append(h.Events, history.Event{
			Proc:   s.Proc + 1,
			Obj:    s.Obj,
			Method: s.Op.Method,
			Arg:    s.Op.Arg,
			Label:  s.Op.Label,
			Resp:   s.Resp,
			Inv:    inv,
			Ret:    clock,
		})
	}
	return h
}
