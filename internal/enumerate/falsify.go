package enumerate

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/obs"
	"setagree/internal/sim"
	"setagree/internal/task"
	"setagree/internal/value"
)

// SweepOptions tunes a falsification sweep.
type SweepOptions struct {
	// MaxStatesPerCandidate caps each model check (default 1 << 15).
	// A candidate that exceeds the cap on some input vector is recorded
	// in Report.Inconclusive (unless another vector refutes it); it does
	// not abort the sweep.
	MaxStatesPerCandidate int
	// SoloSteps caps the solo prefilter run length (default 64).
	SoloSteps int
	// DisableSoloFilter skips the cheap solo prefilter and model-checks
	// every shape (the ablation knob: measures what the prefilter buys).
	DisableSoloFilter bool
	// DisableMemo turns off cross-candidate memoization and prefix
	// forking (see memo.go), model-checking every candidate from
	// scratch: each input vector is one plain check, with no branch
	// coverage recorded and no fork. Reports are byte-identical either
	// way — memoization changes how verdicts are computed, never what
	// they are — so this is the equivalence-testing and benchmarking
	// knob, not a correctness one. Memoization is also bypassed
	// transparently for candidates outside the memoizer's soundness
	// envelope and under SymmetryValues reduction.
	DisableMemo bool
	// Workers is the number of goroutines model-checking candidates
	// (default runtime.GOMAXPROCS(0)). The Report is identical for every
	// worker count: results are aggregated by candidate index. Each
	// goroutine runs its checks one at a time on one reused
	// explore.Checker, and every check runs single-worker
	// (explore.Options.Workers 1): the parallelism is across candidates.
	Workers int
	// Symmetry, when not SymmetryOff, model-checks each candidate on the
	// symmetry-reduced configuration graph (see explore.Options.Symmetry;
	// verdicts are identical to unreduced checks). A candidate whose
	// system rejects the reduction — explore.ErrNotSymmetric or
	// explore.ErrSymmetryUnsupported — is transparently re-checked
	// unreduced and counted in Report.SymmetryFallbacks and the
	// sweep.symmetry_fallbacks metric; it is not an error. All other
	// check errors still abort the sweep.
	Symmetry explore.Symmetry
	// OnProgress, when set, receives a snapshot after each candidate
	// completes. Calls are serialized and counters are nondecreasing,
	// but with Workers > 1 the completion order is not the candidate
	// order. The callback must not call back into the sweep.
	//
	// OnProgress is implemented on top of the same per-candidate
	// accounting that feeds Obs: both observe every completed candidate
	// exactly once and agree with the final Report.
	OnProgress func(Progress)
	// Obs, when set, receives the sweep.* run metrics: candidates,
	// pruned, inconclusive, refuted, solvers, and states counters (all
	// sums of work done, so identical sweeps yield identical values at
	// any Workers setting), plus the sweep.candidate timer. The sink is
	// also threaded into every candidate's model check, accumulating
	// the explore.* counters across the whole sweep. Nil disables
	// metrics at zero cost.
	//
	// With memoization on, the verdict counters and sweep.states stay
	// schedule-independent, but sweep.memo_hits, sweep.dedup_candidates,
	// sweep.fork_states_saved, the sweep.candidate timer, and the
	// explore.* counters depend on which canonical-equal candidate a
	// worker reached first; set DisableMemo for fully deterministic
	// snapshots.
	Obs *obs.Sink
	// Events, when set, receives one sweep.candidate JSONL event per
	// checked candidate (index, outcome, states, elapsed_ns; emitted in
	// completion order, which under Workers > 1 is not candidate order)
	// and exactly one terminal event: sweep.done on success, or
	// sweep.error (with an "error" field) when the sweep failed or was
	// cancelled. Nil disables events.
	Events *obs.Emitter
	// Ctx, when set, cancels the sweep cooperatively: workers stop
	// claiming candidates, in-flight model checks stop at their next
	// BFS level barrier (Ctx is threaded into each explore.Check),
	// counters for completed candidates stay flushed, one sweep.error
	// terminal event is emitted, and the sweep returns an error
	// satisfying errors.Is(err, ctx.Err()).
	Ctx context.Context

	// fullViolations makes every check report all its violations, as a
	// plain explore.Check does; the sweep reads only the first, so only
	// the equivalence tests set it.
	fullViolations bool
}

// checkOptions are the options of every model check the sweep runs.
// Each check runs single-worker: candidates are already spread over
// Workers goroutines, so shard goroutines inside a check would add CPU
// and give no speed-up. The sweep's sink (if any) accumulates the
// explore.* counters across every check; per-check events stay off
// (the sweep loop emits one sweep.candidate event per candidate
// instead, keeping event volume proportional to candidates rather than
// model-checker states). A sweep reads one violation per refuted
// check, so the checks stop their analyses at the first
// (FirstViolation): the explore.violations counter counts at most one
// per check.
func (o *SweepOptions) checkOptions(mode explore.Symmetry) explore.Options {
	return explore.Options{
		Workers:        1,
		MaxStates:      o.MaxStatesPerCandidate,
		Symmetry:       mode,
		Obs:            o.Obs,
		Ctx:            o.Ctx,
		FirstViolation: !o.fullViolations,
	}
}

func (o *SweepOptions) fill() {
	if o.MaxStatesPerCandidate <= 0 {
		o.MaxStatesPerCandidate = 1 << 15
	}
	if o.SoloSteps <= 0 {
		o.SoloSteps = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Progress is a live snapshot of a running sweep, delivered to
// SweepOptions.OnProgress.
type Progress struct {
	// Candidates is the number of candidates fully checked so far.
	Candidates int
	// Pruned is the number of shapes rejected by the solo prefilter
	// (fixed before candidate checking starts).
	Pruned int
	// Inconclusive is the number of candidates whose model check hit the
	// state limit so far.
	Inconclusive int
	// States is the total number of configurations explored across all
	// model checks so far (partial explorations included).
	States int
}

// soloFilter cheaply rejects a shape by running its program solo (as
// process 0 of a 1-process system over fresh objects) on inputs 0 and
// 1. A surviving shape decides its own input in both solo runs — a
// necessary condition for any role of consensus-like tasks and n-DAC
// (Validity + Nontriviality + solo termination, cf. Claim 4.2.4's solo
// arguments).
func (f *Family) soloFilter(s Shape, opts SweepOptions) (bool, error) {
	prog, err := f.Program(s, "solo-probe")
	if err != nil {
		return false, err
	}
	for _, input := range []value.Value{0, 1} {
		sys := &explore.System{
			Programs: []*machine.Program{prog},
			Objects:  f.Objects,
			Inputs:   []value.Value{input},
		}
		res, err := sim.Run(sys, nil, sim.Solo(0), sim.Options{MaxSteps: opts.SoloSteps})
		if err != nil {
			return false, err
		}
		if !res.Completed {
			return false, nil // solo livelock
		}
		if res.Outcome.Aborted[0] {
			return false, nil // abort without any other process stepping
		}
		if !res.Outcome.Decided[0] || res.Outcome.Decisions[0] != input {
			return false, nil // solo validity (and no sentinel "decisions")
		}
	}
	return true, nil
}

// FalsifyDAC sweeps the family over the n-DAC task with n processes:
// process 0 is the distinguished process and runs a shape from the
// abort-enabled family; processes 1..n-1 all run a common shape from
// the abort-free family. Every (p-shape, q-shape) pair surviving the
// solo prefilter is model-checked on every given input vector; a pair
// that passes all of them is recorded as a solver (the impossibility
// experiments expect none), and a pair whose check blows the state
// limit is recorded as inconclusive.
func FalsifyDAC(f *Family, n int, inputVectors [][]value.Value, opts SweepOptions) (*Report, error) {
	p, err := PrepareDAC(f, n, opts)
	if err != nil {
		return nil, err
	}
	return p.CheckRange(0, p.Candidates(), inputVectors, opts)
}

// FalsifySymmetric sweeps the family over a symmetric task (consensus,
// k-set agreement): every process runs the same shape.
func FalsifySymmetric(f *Family, tsk task.Task, inputVectors [][]value.Value, opts SweepOptions) (*Report, error) {
	p, err := PrepareSymmetric(f, tsk, opts)
	if err != nil {
		return nil, err
	}
	return p.CheckRange(0, p.Candidates(), inputVectors, opts)
}

func survivors(f *Family, opts SweepOptions) ([]Shape, error) {
	shapes := f.Shapes()
	if opts.DisableSoloFilter {
		return shapes, nil
	}
	var out []Shape
	for _, s := range shapes {
		ok, err := f.soloFilter(s, opts)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, s)
		}
	}
	return out, nil
}

// candidate is one sweep job: a protocol assignment with its per-process
// programs materialized.
type candidate struct {
	asn   Assignment
	progs []*machine.Program
}

// outcome classifies one checked candidate. Unless err is set, at most
// one of failure, inconclusive, or solver is set, and an outcome with
// none was refuted: runCandidates keeps the failure of the
// lowest-indexed refuted outcome only.
type outcome struct {
	failure      *Failure
	inconclusive *Inconclusive
	solver       bool
	states       int
	symFallback  bool
	err          error
	// fullHit marks a candidate served entirely from the memo table —
	// no exploration ran, so its sweep.candidate timer sample is
	// skipped (a near-zero duration would skew the latency profile).
	fullHit bool
	// vioPending marks a memo-served refutation whose failure carries a
	// nil Violation; vioMode is the symmetry mode its re-derivation
	// must run under (see materializeViolation).
	vioPending bool
	vioMode    explore.Symmetry
}

// dropFailure makes a refuted outcome one that holds no failure.
func (o *outcome) dropFailure() {
	o.failure, o.vioPending = nil, false
}

// terminalError accounts a sweep-level failure and emits the single
// sweep.error terminal event, preserving the one-terminal-event
// contract for errors discovered after runCandidates returned.
func terminalError(opts SweepOptions, stats *runStats, err error) error {
	opts.Obs.Counter("sweep.errors").Inc()
	if opts.Events != nil {
		opts.Events.Emit("sweep.error", obs.Fields{
			"error":             err.Error(),
			"memo_hits":         stats.memoHits.Load(),
			"dedup_candidates":  stats.dedupCandidates.Load(),
			"fork_states_saved": stats.forkStatesSaved.Load(),
		})
	}
	return err
}

// runCandidates is CheckRange's worker pool: it fans candidates
// [lo, hi) out to opts.Workers goroutines, each with its own
// explore.Checker in rs.checkers and its own keyer, and returns the
// per-candidate outcomes indexed by position. Of the refuted outcomes
// only the lowest-indexed keeps its Failure (and its witness), the one
// CheckRange's fold reports; the others are refuted with none. Workers
// claim candidates
// in the runState's order — prefix-grouped when the trie engine is on
// — but outcomes always land at their candidate's position, so
// folding is order-blind. Metric
// handles resolve once per call; a nil Obs hands out nil (no-op)
// handles, so the uninstrumented path pays nothing. Per-candidate
// sweep.candidate events carry lo+i, so a range's events use global
// candidate indices. On a hard error or cancellation it emits one
// sweep.error terminal event and returns the lowest-indexed error (the
// terminal-event contract matches explore's: a CheckRange that finishes
// normally emits the single sweep.done itself).
func runCandidates(p *Prepared, lo, hi int, inputVectors [][]value.Value, opts SweepOptions,
) ([]outcome, *runState, error) {
	rs := newRunState(p, lo, hi, inputVectors, opts)
	cands := rs.cands
	outcomes := make([]outcome, len(cands))
	rs.checkers = make([]*explore.Checker, min(opts.Workers, len(cands)))

	var (
		candCounter     = opts.Obs.Counter("sweep.candidates")
		statesCounter   = opts.Obs.Counter("sweep.states")
		incCounter      = opts.Obs.Counter("sweep.inconclusive")
		refutedCounter  = opts.Obs.Counter("sweep.refuted")
		solverCounter   = opts.Obs.Counter("sweep.solvers")
		fallbackCounter = opts.Obs.Counter("sweep.symmetry_fallbacks")
		candTimer       = opts.Obs.Timer("sweep.candidate")
		timed           = opts.Obs != nil || opts.Events != nil
	)

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		prog   = Progress{Pruned: p.pruned}
		// held is the one outcome still holding a failure, -1 when none;
		// guarded by mu.
		held = -1
	)
	next.Store(-1)
	for w := range rs.checkers {
		ck, ky := new(explore.Checker), new(keyer)
		rs.checkers[w] = ck
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1))
				if k >= len(cands) || failed.Load() {
					return
				}
				if ctx := opts.Ctx; ctx != nil && ctx.Err() != nil {
					return
				}
				i := rs.order[k]
				var begin time.Time
				if timed {
					begin = time.Now()
				}
				out := rs.check(i, ck, ky)
				mu.Lock()
				if out.failure != nil {
					if held >= 0 && held < i {
						out.dropFailure()
					} else {
						if held >= 0 {
							outcomes[held].dropFailure()
						}
						held = i
					}
				}
				outcomes[i] = out
				mu.Unlock()
				if out.err != nil {
					failed.Store(true)
					return
				}
				candCounter.Inc()
				statesCounter.Add(int64(out.states))
				if out.symFallback {
					fallbackCounter.Inc()
				}
				if out.fullHit {
					rs.stats.dedupCandidates.Add(1)
					rs.dedupCounter.Inc()
				}
				verdict := "refuted"
				switch {
				case out.inconclusive != nil:
					incCounter.Inc()
					verdict = "inconclusive"
				case out.solver:
					solverCounter.Inc()
					verdict = "solver"
				default:
					refutedCounter.Inc()
				}
				if timed {
					elapsed := time.Since(begin)
					// Memo-hit candidates ran no exploration; recording
					// their near-zero durations would collapse the timer's
					// percentiles, so only explored candidates sample it.
					if !out.fullHit {
						candTimer.Observe(elapsed)
					}
					if opts.Events != nil {
						opts.Events.Emit("sweep.candidate", obs.Fields{
							"index":      lo + i,
							"outcome":    verdict,
							"states":     out.states,
							"elapsed_ns": elapsed.Nanoseconds(),
							"memo":       out.fullHit,
						})
					}
				}
				if opts.OnProgress != nil {
					mu.Lock()
					prog.Candidates++
					if out.inconclusive != nil {
						prog.Inconclusive++
					}
					prog.States += out.states
					opts.OnProgress(prog)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Counters for completed candidates were flushed live above, so a
	// failed or cancelled run still reports its partial work.
	fail := func(err error) ([]outcome, *runState, error) {
		return nil, rs, terminalError(opts, &rs.stats, err)
	}
	for i := range outcomes {
		if err := outcomes[i].err; err != nil {
			return fail(err)
		}
	}
	if ctx := opts.Ctx; ctx != nil && ctx.Err() != nil {
		return fail(fmt.Errorf("enumerate: sweep interrupted: %w", ctx.Err()))
	}
	return outcomes, rs, nil
}

// check model-checks candidate ci on every input vector, on the
// worker's checker ck and keyer k. A vector that refutes the candidate
// settles it; a vector that blows the state limit marks it inconclusive
// but later vectors still get a chance to refute it (a refutation on
// any vector is conclusive).
//
// The memo layer (memo.go) runs only for memoizable candidates of a
// memoized sweep: there, symmetry admissibility is settled per vector
// by explore.ProbeSymmetry — exactly the rejection pipeline a concrete
// check runs first — so the mode evolution (and SymmetryFallbacks)
// matches the unmemoized sweep even when no exploration happens, and a
// vector whose canonical key is recorded is served from the table
// instead of explored. Refutations served from memo carry a nil
// Violation plus the re-derivation mode; sweep folding materializes
// the one failure it reports (materializeViolation). Otherwise a
// vector is one ck.Check under the sweep's check options.
func (rs *runState) check(ci int, ck *explore.Checker, k *keyer) outcome {
	var (
		out     outcome
		c       = rs.cands[ci]
		memo    = rs.useMemo && rs.memoOK[ci]
		mode    = rs.opts.Symmetry
		fullHit = memo
		// sysBuf backs the per-vector System, built only when a probe or
		// exploration needs one. Reuse is safe only when no prefix
		// snapshot can retain the pointer (SnapshotPrefix keeps its
		// builder's System), i.e. unless this candidate can fork.
		sysBuf explore.System
	)
	if memo {
		k.bind(rs, c)
	}
	for vi, in := range rs.vectors {
		var sys *explore.System
		mkSys := func() *explore.System {
			if memo && rs.p.depth >= 2 {
				return &explore.System{Programs: c.progs, Objects: rs.p.objs, Inputs: in}
			}
			sysBuf = explore.System{Programs: c.progs, Objects: rs.p.objs, Inputs: in}
			return &sysBuf
		}
		keyed := memo
		if memo && mode != explore.SymmetryOff {
			sys = mkSys()
			switch err := explore.ProbeSymmetry(sys, rs.p.tsk, mode); {
			case err == nil:
			case symmetryRejected(err):
				mode = explore.SymmetryOff
				out.symFallback = true
			default:
				// A construction error: let the concrete check surface it
				// with the sweep's exact wrapping; nothing is memoized.
				keyed = false
			}
		}
		var (
			e   memoEntry
			hit bool
			r   *explore.Report
		)
		if keyed {
			e, hit = rs.lookup(k, mode, in)
		}
		if hit {
			rs.stats.memoHits.Add(1)
			rs.memoCounter.Inc()
		} else {
			fullHit = false
			if sys == nil {
				sys = mkSys()
			}
			var err error
			r, err = rs.explore(ck, ci, vi, sys, mode, memo)
			if mode != explore.SymmetryOff && symmetryRejected(err) {
				// This candidate's system admits no reduction; re-check
				// it (and its remaining vectors) unreduced. The verdict
				// is exact either way, so the fallback is recorded
				// rather than fatal.
				mode = explore.SymmetryOff
				out.symFallback = true
				keyed = false
				r, err = rs.explore(ck, ci, vi, sys, mode, memo)
			}
			switch {
			case errors.Is(err, explore.ErrStateLimit):
				e.class = classLimit
			case err != nil:
				out.err = fmt.Errorf("candidate %v on %v: %w", c.asn.Shapes, in, err)
				return out
			case !r.Solved():
				e.class = classRefuted
			default:
				e.class = classSolved
			}
			e.states = r.States
			if keyed {
				rs.insert(k, mode, in, r, e.class)
			}
		}
		out.states += e.states
		switch e.class {
		case classLimit:
			if out.inconclusive == nil {
				out.inconclusive = &Inconclusive{
					Assignment: c.asn,
					Inputs:     append([]value.Value(nil), in...),
				}
			}
		case classRefuted:
			out.failure = &Failure{
				Assignment: c.asn,
				Inputs:     append([]value.Value(nil), in...),
			}
			if hit {
				out.vioPending, out.vioMode = true, mode
			} else {
				out.failure.Violation = r.Violations[0]
			}
			out.inconclusive = nil
			out.fullHit = fullHit
			return out
		}
	}
	out.solver = out.inconclusive == nil
	out.fullHit = fullHit && len(rs.vectors) > 0
	return out
}

// symmetryRejected reports whether err is a system's rejection of
// symmetry reduction, which the sweep answers with an unreduced check.
func symmetryRejected(err error) bool {
	return errors.Is(err, explore.ErrNotSymmetric) || errors.Is(err, explore.ErrSymmetryUnsupported)
}
