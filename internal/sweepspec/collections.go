package sweepspec

import (
	"context"

	"setagree/internal/collections"
	"setagree/internal/obs"
)

// Bounds on a collections spec. The decision DP's tables grow with the
// process count and with menu types' process bounds, and a sweep
// decides every collection of the space, so RunCollections rejects
// larger specs before any table is built.
const (
	maxCollectionsProcs  = 64
	maxCollectionsSize   = 16
	maxCollectionsLevels = 16
	maxCollections       = 4096
)

// SATypeSpec names one (n,k)-SA type in a collections spec. N == 0
// means unbounded participation, matching ObjectSpec.
type SATypeSpec struct {
	N int `json:"n,omitempty"`
	K int `json:"k"`
}

// CollectionsSpec is a fully data-driven collections sweep: everything
// needed to rebuild the collection space and the verdict question, in
// JSON. It travels inside "collections-sweep" job specs.
type CollectionsSpec struct {
	// Menu and Size define the collection space (size-Size multisets
	// over Menu).
	Menu []SATypeSpec `json:"menu"`
	Size int          `json:"size"`
	// Procs and K are the verdict question: can Procs processes solve
	// K-set agreement with the collection?
	Procs int `json:"procs"`
	K     int `json:"k"`
	// Levels is the power-prefix length per row (0 = 4).
	Levels int `json:"levels,omitempty"`
	// Prune toggles dominance pruning. Nil or true leaves it on —
	// pruned and unpruned sweeps produce byte-identical reports, so
	// this is an ablation/benchmarking knob, not a correctness one.
	Prune *bool `json:"prune,omitempty"`
}

// Space rebuilds the collection space the spec describes.
func (sp CollectionsSpec) Space() collections.Space {
	menu := make([]collections.Type, len(sp.Menu))
	for i, t := range sp.Menu {
		menu[i] = collections.Type{N: t.N, K: t.K}
	}
	return collections.Space{Menu: menu, Size: sp.Size}
}

// Task rebuilds the verdict question.
func (sp CollectionsSpec) Task() collections.Task {
	return collections.Task{Procs: sp.Procs, K: sp.K}
}

// validate rejects specs beyond the bounds above, and spaces or tasks
// collections.Sweep would reject.
func (sp CollectionsSpec) validate() error {
	if sp.Procs > maxCollectionsProcs {
		return specErrorf("collections spec needs procs <= %d, got %d", maxCollectionsProcs, sp.Procs)
	}
	if sp.Size > maxCollectionsSize {
		return specErrorf("collections spec needs size <= %d, got %d", maxCollectionsSize, sp.Size)
	}
	if sp.Levels > maxCollectionsLevels {
		return specErrorf("collections spec needs levels <= %d, got %d", maxCollectionsLevels, sp.Levels)
	}
	for i, t := range sp.Menu {
		if t.N > maxCollectionsProcs {
			return specErrorf("collections menu entry %d needs n <= %d, got %d", i, maxCollectionsProcs, t.N)
		}
	}
	space := sp.Space()
	if err := space.Validate(); err != nil {
		return specErrorf("%w", err)
	}
	if n := space.Count(); n > maxCollections {
		return specErrorf("collections space has %d collections, more than %d", n, maxCollections)
	}
	if err := sp.Task().Validate(); err != nil {
		return specErrorf("%w", err)
	}
	return nil
}

// RunCollections decides every collection of the spec's space in
// process and returns the canonical collections.Report. Sink and
// events receive the sweep's metrics and event stream; either may be
// nil.
func RunCollections(ctx context.Context, sp CollectionsSpec, sink *obs.Sink, events *obs.Emitter) (*collections.Report, error) {
	if err := sp.validate(); err != nil {
		return nil, err
	}
	opts := sp.Options()
	opts.Ctx = ctx
	opts.Obs = sink
	opts.Events = events
	return collections.Sweep(sp.Space(), sp.Task(), opts)
}

// Options builds the collections.SweepOptions the spec's knobs select.
func (sp CollectionsSpec) Options() collections.SweepOptions {
	return collections.SweepOptions{
		Levels:       sp.Levels,
		DisablePrune: sp.Prune != nil && !*sp.Prune,
	}
}

// CollectionsRef is the reference collections sweep: all 6 two-type
// multisets over {2-consensus, (3,2)-SA, 2-SA}, asked whether 4
// processes solve 2-set agreement — small enough for tests and the
// bench harness, rich enough to exercise pruning and both verdicts.
func CollectionsRef() CollectionsSpec {
	return CollectionsSpec{
		Menu:  []SATypeSpec{{N: 2, K: 1}, {N: 3, K: 2}, {K: 2}},
		Size:  2,
		Procs: 4,
		K:     2,
	}
}
