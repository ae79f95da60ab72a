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
// agrees on every candidate index.
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

// CheckRange model-checks candidates [lo, hi) on every input vector
// and folds the outcomes, in candidate-index order, into a Report with
// global candidate indices. FalsifyDAC and FalsifySymmetric are
// CheckRange over every candidate, so checking a partition of
// [0, Candidates()) range by range reproduces the full sweep: the
// ranges' States and SymmetryFallbacks sum to the full sweep's, their
// Solvers and Inconclusive lists concatenate to its lists, and the
// first SampleFailure in range order is its SampleFailure. Each call
// counts one sweep.sweeps and the sweep's sweep.pruned, and emits one
// terminal event (sweep.done or sweep.error); metrics, events,
// progress callbacks and cancellation otherwise behave per candidate.
func (p *Prepared) CheckRange(lo, hi int, inputVectors [][]value.Value, opts SweepOptions) (*Report, error) {
	opts.fill()
	if lo < 0 || hi > len(p.cands) || lo > hi {
		return nil, fmt.Errorf("enumerate: range [%d,%d) outside candidates [0,%d)", lo, hi, len(p.cands))
	}
	opts.Obs.Counter("sweep.sweeps").Inc()
	opts.Obs.Counter("sweep.pruned").Add(int64(p.pruned))
	outcomes, rs, err := runCandidates(p, lo, hi, inputVectors, opts)
	if err != nil {
		return nil, err
	}
	stats := &rs.stats
	rep := &Report{Candidates: hi - lo, Pruned: p.pruned}
	var sample *outcome
	for i := range outcomes {
		o := &outcomes[i]
		rep.States += o.states
		if o.symFallback {
			rep.SymmetryFallbacks++
		}
		switch {
		case o.failure != nil:
			if sample == nil {
				sample = o
				o.failure.Index = lo + i
				rep.SampleFailure = o.failure
			}
		case o.inconclusive != nil:
			o.inconclusive.Index = lo + i
			rep.Inconclusive = append(rep.Inconclusive, *o.inconclusive)
		case o.solver:
			rep.Solvers = append(rep.Solvers, Solver{Index: lo + i, Assignment: p.cands[lo+i].asn})
		}
	}
	if sample != nil && sample.vioPending {
		// A failure means some candidate ran, so there is a worker.
		ck := rs.checkers[0]
		if err := p.materializeViolation(ck, p.cands[sample.failure.Index], sample, opts); err != nil {
			return nil, terminalError(opts, stats, err)
		}
	}
	if opts.Events != nil {
		opts.Events.Emit("sweep.done", obs.Fields{
			"lo":                 lo,
			"hi":                 hi,
			"candidates":         rep.Candidates,
			"pruned":             rep.Pruned,
			"states":             rep.States,
			"inconclusive":       len(rep.Inconclusive),
			"solvers":            len(rep.Solvers),
			"symmetry_fallbacks": rep.SymmetryFallbacks,
			"memo_hits":          stats.memoHits.Load(),
			"dedup_candidates":   stats.dedupCandidates.Load(),
			"fork_states_saved":  stats.forkStatesSaved.Load(),
		})
	}
	return rep, nil
}
