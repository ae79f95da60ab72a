package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"setagree/internal/enumerate"
	"setagree/internal/obs"
	"setagree/internal/value"
)

// ShardSolver is a solving candidate, shapes rendered one per role.
type ShardSolver struct {
	Index  int      `json:"index"`
	Shapes []string `json:"shapes"`
}

// ShardInconclusive is an unsettled candidate.
type ShardInconclusive struct {
	Index  int           `json:"index"`
	Shapes []string      `json:"shapes"`
	Inputs []value.Value `json:"inputs"`
}

// ShardFailure is a refuted candidate with its rendered counterexample.
type ShardFailure struct {
	Index     int           `json:"index"`
	Shapes    []string      `json:"shapes"`
	Inputs    []value.Value `json:"inputs"`
	Violation string        `json:"violation"`
}

// ShardReport is the serializable outcome of one candidate range:
// enumerate.RangeReport with every shape rendered.
type ShardReport struct {
	Lo                int                 `json:"lo"`
	Hi                int                 `json:"hi"`
	Pruned            int                 `json:"pruned"`
	States            int                 `json:"states"`
	SymmetryFallbacks int                 `json:"symmetry_fallbacks"`
	Solvers           []ShardSolver       `json:"solvers,omitempty"`
	Inconclusive      []ShardInconclusive `json:"inconclusive,omitempty"`
	Failure           *ShardFailure       `json:"failure,omitempty"`
}

// Run checks the whole sweep in process and merges it into the
// canonical SweepReport. Sink and events receive the enumerate sweep's
// metrics and event stream; either may be nil.
func Run(ctx context.Context, sp SweepSpec, sink *obs.Sink, events *obs.Emitter) (*SweepReport, error) {
	p, err := sp.Prepare()
	if err != nil {
		return nil, err
	}
	vectors, err := sp.Vectors()
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
	n := p.Candidates()
	rr, err := p.CheckRange(0, n, vectors, opts)
	if err != nil {
		return nil, err
	}
	return Merge(n, []*ShardReport{ShardReportOf(rr)})
}

func renderShapes(a enumerate.Assignment) []string {
	out := make([]string, len(a.Shapes))
	for i, s := range a.Shapes {
		out[i] = s.String()
	}
	return out
}

// ShardReportOf renders a RangeReport's shapes.
func ShardReportOf(rr *enumerate.RangeReport) *ShardReport {
	sr := &ShardReport{
		Lo:                rr.Lo,
		Hi:                rr.Hi,
		Pruned:            rr.Pruned,
		States:            rr.States,
		SymmetryFallbacks: rr.SymmetryFallbacks,
	}
	for _, s := range rr.Solvers {
		sr.Solvers = append(sr.Solvers, ShardSolver{Index: s.Index, Shapes: renderShapes(s.Assignment)})
	}
	for _, inc := range rr.Inconclusive {
		sr.Inconclusive = append(sr.Inconclusive, ShardInconclusive{
			Index: inc.Index, Shapes: renderShapes(inc.Assignment), Inputs: inc.Inputs,
		})
	}
	if f := rr.Failure; f != nil {
		sr.Failure = &ShardFailure{
			Index: f.Index, Shapes: renderShapes(f.Assignment), Inputs: f.Inputs, Violation: f.Violation,
		}
	}
	return sr
}

// SweepReport is the merged outcome of a sweep. It is a pure function
// of the sweep spec: no timing or range boundaries appear, so the same
// spec renders byte-identically however its candidates were tiled.
type SweepReport struct {
	Candidates        int                 `json:"candidates"`
	Pruned            int                 `json:"pruned"`
	States            int                 `json:"states"`
	SymmetryFallbacks int                 `json:"symmetry_fallbacks"`
	Refuted           bool                `json:"refuted"`
	Solvers           []ShardSolver       `json:"solvers"`
	Inconclusive      []ShardInconclusive `json:"inconclusive"`
	Failure           *ShardFailure       `json:"failure,omitempty"`
}

// Merge folds shard reports into the sweep document. The shards must
// tile [0, candidates) exactly: sorted by range, exact-duplicate
// ranges collapse to one (results are deterministic), gaps and
// partial overlaps are errors, as is any disagreement on the
// sweep-global pruned count. Failure is the lowest-indexed refuted
// candidate across all shards, matching a full single sweep.
func Merge(candidates int, shards []*ShardReport) (*SweepReport, error) {
	sorted := make([]*ShardReport, len(shards))
	copy(sorted, shards)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Lo != sorted[b].Lo {
			return sorted[a].Lo < sorted[b].Lo
		}
		return sorted[a].Hi < sorted[b].Hi
	})

	rep := &SweepReport{
		Candidates:   candidates,
		Solvers:      []ShardSolver{},
		Inconclusive: []ShardInconclusive{},
	}
	next := 0
	for i, sh := range sorted {
		if i > 0 && sh.Lo == sorted[i-1].Lo && sh.Hi == sorted[i-1].Hi {
			continue // the same range twice; results are deterministic
		}
		if sh.Lo != next {
			if sh.Lo < next {
				return nil, fmt.Errorf("cluster: shard [%d,%d) overlaps previous shard ending at %d", sh.Lo, sh.Hi, next)
			}
			return nil, fmt.Errorf("cluster: gap in shard cover: no shard for [%d,%d)", next, sh.Lo)
		}
		if i == 0 {
			rep.Pruned = sh.Pruned
		} else if sh.Pruned != rep.Pruned {
			return nil, fmt.Errorf("cluster: shard [%d,%d) reports pruned=%d, earlier shards %d — specs differ", sh.Lo, sh.Hi, sh.Pruned, rep.Pruned)
		}
		rep.States += sh.States
		rep.SymmetryFallbacks += sh.SymmetryFallbacks
		rep.Solvers = append(rep.Solvers, sh.Solvers...)
		rep.Inconclusive = append(rep.Inconclusive, sh.Inconclusive...)
		if sh.Failure != nil && (rep.Failure == nil || sh.Failure.Index < rep.Failure.Index) {
			rep.Failure = sh.Failure
		}
		next = sh.Hi
	}
	if next != candidates {
		return nil, fmt.Errorf("cluster: shard cover ends at %d, want %d candidates", next, candidates)
	}
	rep.Refuted = rep.Failure != nil
	return rep, nil
}

// Render is the canonical byte encoding of the sweep document.
func (r *SweepReport) Render() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
