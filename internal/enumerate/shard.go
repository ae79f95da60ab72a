package enumerate

import (
	"fmt"

	"setagree/internal/machine"
	"setagree/internal/obs"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// Prepared is a materialized sweep: the deterministic, post-prefilter
// candidate list of a FalsifyDAC or FalsifySymmetric call, reusable to
// model-check any sub-range of candidates. Candidate order depends
// only on the family (shape enumeration order is fixed and the solo
// prefilter is deterministic), so every Prepare of the same family
// agrees on every candidate index, and ranges checked separately
// agree with the Report a single full sweep produces.
type Prepared struct {
	cands  []candidate
	objs   []spec.Spec
	tsk    task.Task
	pruned int

	// depth is the family's invocation depth: the guarded invocation
	// sits at PC depth-1 and the two action slots at depth+1/depth+2 —
	// the layout facts the memoizer's keys and coverage masks rely on.
	depth int
	// roles is the number of distinct role programs per candidate: 2
	// for DAC sweeps (distinguished + shared peer), 1 for symmetric.
	roles int
	// sigmaOK marks the family's objects and task eligible for the 0↔1
	// canonical swap; peerOK marks the task eligible for peer input-
	// vector canonicalization (see memo.go). Both are necessary, not
	// sufficient — per-candidate program checks still apply.
	sigmaOK bool
	peerOK  bool
	// memo is the sweep-wide verdict cache, shared by every CheckRange
	// call against this Prepared.
	memo *memoTable
}

// PrepareDAC materializes the candidate list FalsifyDAC would sweep:
// every (p-shape, q-shape) pair surviving the solo prefilter, in
// enumeration order. Only SweepOptions' prefilter knobs (SoloSteps,
// DisableSoloFilter) matter here.
func PrepareDAC(f *Family, n int, opts SweepOptions) (*Prepared, error) {
	opts.fill()
	pFam := *f
	pFam.AllowAbort = true
	qFam := *f
	qFam.AllowAbort = false

	pShapes, err := survivors(&pFam, opts)
	if err != nil {
		return nil, err
	}
	qShapes, err := survivors(&qFam, opts)
	if err != nil {
		return nil, err
	}

	qProgs := make([]*machine.Program, len(qShapes))
	for qi, qs := range qShapes {
		if qProgs[qi], err = qFam.Program(qs, "cand-q"); err != nil {
			return nil, err
		}
	}

	cands := make([]candidate, 0, len(pShapes)*len(qShapes))
	for _, ps := range pShapes {
		pProg, err := pFam.Program(ps, "cand-p")
		if err != nil {
			return nil, err
		}
		for qi, qs := range qShapes {
			progs := make([]*machine.Program, n)
			progs[0] = pProg
			for i := 1; i < n; i++ {
				progs[i] = qProgs[qi]
			}
			cands = append(cands, candidate{
				asn:   Assignment{Shapes: []Shape{ps, qs}},
				progs: progs,
			})
		}
	}
	tsk := task.DAC{N: n, P: 0}
	return &Prepared{
		cands:   cands,
		objs:    f.Objects,
		tsk:     tsk,
		pruned:  (len(pFam.Shapes()) - len(pShapes)) + (len(qFam.Shapes()) - len(qShapes)),
		depth:   f.Depth,
		roles:   2,
		sigmaOK: sigmaEligible(f.Objects, tsk),
		peerOK:  task.PeerSymmetric(tsk),
		memo:    newMemoTable(),
	}, nil
}

// PrepareSymmetric materializes the candidate list FalsifySymmetric
// would sweep: every prefilter survivor, run by all processes.
func PrepareSymmetric(f *Family, tsk task.Task, opts SweepOptions) (*Prepared, error) {
	opts.fill()
	fam := *f
	fam.AllowAbort = false
	shapes, err := survivors(&fam, opts)
	if err != nil {
		return nil, err
	}
	cands := make([]candidate, 0, len(shapes))
	for _, s := range shapes {
		prog, err := fam.Program(s, "cand")
		if err != nil {
			return nil, err
		}
		progs := make([]*machine.Program, tsk.Procs())
		for i := range progs {
			progs[i] = prog
		}
		cands = append(cands, candidate{asn: Assignment{Shapes: []Shape{s}}, progs: progs})
	}
	return &Prepared{
		cands:   cands,
		objs:    f.Objects,
		tsk:     tsk,
		pruned:  len(fam.Shapes()) - len(shapes),
		depth:   f.Depth,
		roles:   1,
		sigmaOK: sigmaEligible(f.Objects, tsk),
		peerOK:  task.PeerSymmetric(tsk),
		memo:    newMemoTable(),
	}, nil
}

// Candidates is the number of materialized candidates (the sweep's
// index space is [0, Candidates())).
func (p *Prepared) Candidates() int { return len(p.cands) }

// Pruned is the number of shapes the solo prefilter rejected.
func (p *Prepared) Pruned() int { return p.pruned }

// Assignment returns candidate i's protocol assignment.
func (p *Prepared) Assignment(i int) Assignment { return p.cands[i].asn }

// RangeSolver is one candidate of a checked range that passed every
// model check.
type RangeSolver struct {
	// Index is the global candidate index.
	Index int
	// Assignment is the solving candidate.
	Assignment Assignment
}

// RangeInconclusive is one candidate of a checked range whose model
// check hit the state limit without any vector refuting it.
type RangeInconclusive struct {
	// Index is the global candidate index.
	Index int
	// Assignment is the unsettled candidate.
	Assignment Assignment
	// Inputs is the first input vector whose check hit the state limit.
	Inputs []value.Value
}

// RangeFailure is the refuted candidate with the lowest index in a
// checked range, with its counterexample rendered.
type RangeFailure struct {
	// Index is the global candidate index.
	Index int
	// Assignment is the refuted candidate.
	Assignment Assignment
	// Inputs is the input vector it failed on.
	Inputs []value.Value
	// Violation is the checker's counterexample, rendered.
	Violation string
}

// RangeReport is the outcome of checking candidates [Lo, Hi) of a
// prepared sweep. It is a pure function of (family, task, vectors,
// range, check options) — no timing — and carries global candidate
// indices.
type RangeReport struct {
	// Lo and Hi bound the checked range, [Lo, Hi).
	Lo, Hi int
	// States is the total number of configurations explored checking
	// this range.
	States int
	// SymmetryFallbacks counts candidates in the range re-checked
	// unreduced (see Report.SymmetryFallbacks).
	SymmetryFallbacks int
	// Solvers lists candidates in the range that passed every check,
	// in candidate order.
	Solvers []RangeSolver
	// Inconclusive lists unsettled candidates in the range, in
	// candidate order.
	Inconclusive []RangeInconclusive
	// Failure is the lowest-indexed refuted candidate in the range,
	// nil when every candidate solved or stayed unsettled.
	Failure *RangeFailure
}

// CheckRange model-checks candidates [lo, hi) on every input vector
// and returns the range's outcome. The per-candidate verdicts are
// identical to the ones a full FalsifyDAC/FalsifySymmetric sweep
// computes (the same checkCandidate runs with the same options), so
// checking a partition of [0, Candidates()) range by range and folding
// the ranges in index order reproduces the full sweep's Report
// exactly. Metrics, events (with
// global candidate indices), progress callbacks, and cancellation all
// behave as in a full sweep; one terminal event (sweep.done or
// sweep.error) is emitted per call.
func (p *Prepared) CheckRange(lo, hi int, inputVectors [][]value.Value, opts SweepOptions) (*RangeReport, error) {
	opts.fill()
	if lo < 0 || hi > len(p.cands) || lo > hi {
		return nil, fmt.Errorf("enumerate: range [%d,%d) outside candidates [0,%d)", lo, hi, len(p.cands))
	}
	outcomes, stats, err := runCandidates(p, lo, hi, inputVectors, opts)
	if err != nil {
		return nil, err
	}
	rr := &RangeReport{Lo: lo, Hi: hi}
	var sample *outcome
	sampleIdx := -1
	for i := range outcomes {
		o := &outcomes[i]
		rr.States += o.states
		if o.symFallback {
			rr.SymmetryFallbacks++
		}
		switch {
		case o.failure != nil:
			if rr.Failure == nil {
				sample, sampleIdx = o, lo+i
				rr.Failure = &RangeFailure{
					Index:      lo + i,
					Assignment: o.failure.Assignment,
					Inputs:     o.failure.Inputs,
				}
			}
		case o.inconclusive != nil:
			rr.Inconclusive = append(rr.Inconclusive, RangeInconclusive{
				Index:      lo + i,
				Assignment: o.inconclusive.Assignment,
				Inputs:     o.inconclusive.Inputs,
			})
		case o.solver:
			rr.Solvers = append(rr.Solvers, RangeSolver{Index: lo + i, Assignment: p.cands[lo+i].asn})
		}
	}
	if sample != nil {
		if sample.vioPending {
			if err := p.materializeViolation(p.cands[sampleIdx], sample, opts); err != nil {
				terminalError(opts, stats, err)
				return nil, err
			}
		}
		rr.Failure.Violation = sample.failure.Violation.Error()
	}
	if opts.Events != nil {
		opts.Events.Emit("sweep.done", obs.Fields{
			"lo":                 lo,
			"hi":                 hi,
			"candidates":         hi - lo,
			"states":             rr.States,
			"inconclusive":       len(rr.Inconclusive),
			"solvers":            len(rr.Solvers),
			"symmetry_fallbacks": rr.SymmetryFallbacks,
			"memo_hits":          stats.memoHits,
			"dedup_candidates":   stats.dedupCandidates,
			"fork_states_saved":  stats.forkStatesSaved,
		})
	}
	return rr, nil
}
