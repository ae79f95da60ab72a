package sweepspec

import (
	"context"
	"encoding/json"

	"setagree/internal/enumerate"
	"setagree/internal/obs"
	"setagree/internal/value"
)

// SweepSolver is a solving candidate, shapes rendered one per role.
type SweepSolver struct {
	Index  int      `json:"index"`
	Shapes []string `json:"shapes"`
}

// SweepInconclusive is an unsettled candidate.
type SweepInconclusive struct {
	Index  int           `json:"index"`
	Shapes []string      `json:"shapes"`
	Inputs []value.Value `json:"inputs"`
}

// SweepFailure is the lowest-indexed refuted candidate with its
// rendered counterexample.
type SweepFailure struct {
	Index     int           `json:"index"`
	Shapes    []string      `json:"shapes"`
	Inputs    []value.Value `json:"inputs"`
	Violation string        `json:"violation"`
}

// SweepReport is the canonical outcome of a sweep. It is a pure
// function of the sweep spec: no timing appears, so the same spec
// renders byte-identically on every run.
type SweepReport struct {
	Candidates        int                 `json:"candidates"`
	Pruned            int                 `json:"pruned"`
	States            int                 `json:"states"`
	SymmetryFallbacks int                 `json:"symmetry_fallbacks"`
	Refuted           bool                `json:"refuted"`
	Solvers           []SweepSolver       `json:"solvers"`
	Inconclusive      []SweepInconclusive `json:"inconclusive"`
	Failure           *SweepFailure       `json:"failure,omitempty"`
}

// Run checks the whole sweep in process and renders its shapes into
// the canonical SweepReport. Sink and events receive the enumerate
// sweep's metrics and event stream; either may be nil.
func Run(ctx context.Context, sp SweepSpec, sink *obs.Sink, events *obs.Emitter) (*SweepReport, error) {
	vectors, err := sp.Vectors()
	if err != nil {
		return nil, err
	}
	p, err := sp.Prepare()
	if err != nil {
		return nil, err
	}
	opts, err := sp.Options()
	if err != nil {
		return nil, err
	}
	opts.Ctx = ctx
	opts.Obs = sink
	opts.Events = events
	r, err := p.CheckRange(0, p.Candidates(), vectors, opts)
	if err != nil {
		return nil, err
	}
	rep := &SweepReport{
		Candidates:        r.Candidates,
		Pruned:            r.Pruned,
		States:            r.States,
		SymmetryFallbacks: r.SymmetryFallbacks,
		Refuted:           r.SampleFailure != nil,
		Solvers:           make([]SweepSolver, 0, len(r.Solvers)),
		Inconclusive:      make([]SweepInconclusive, 0, len(r.Inconclusive)),
	}
	for _, s := range r.Solvers {
		rep.Solvers = append(rep.Solvers, SweepSolver{Index: s.Index, Shapes: renderShapes(s.Assignment)})
	}
	for _, inc := range r.Inconclusive {
		rep.Inconclusive = append(rep.Inconclusive, SweepInconclusive{
			Index: inc.Index, Shapes: renderShapes(inc.Assignment), Inputs: inc.Inputs,
		})
	}
	if f := r.SampleFailure; f != nil {
		rep.Failure = &SweepFailure{
			Index: f.Index, Shapes: renderShapes(f.Assignment), Inputs: f.Inputs, Violation: f.Violation.Error(),
		}
	}
	return rep, nil
}

func renderShapes(a enumerate.Assignment) []string {
	out := make([]string, len(a.Shapes))
	for i, s := range a.Shapes {
		out[i] = s.String()
	}
	return out
}

// Render is the canonical byte encoding of the sweep document.
func (r *SweepReport) Render() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
