package explore

import (
	"errors"
	"fmt"
)

// ErrNoValency reports an adversary request on a report explored
// without Options.Valency.
var ErrNoValency = errors.New("explore: adversarial schedule requires valency analysis")

// AdversaryResult is the outcome of the bivalence-preserving adversary.
type AdversaryResult struct {
	// Schedule is the constructed run prefix (each step moves to a
	// bivalent configuration while one exists).
	Schedule []Step
	// Cycle, when non-empty, is a loop of steps through bivalent
	// configurations: the adversary can keep the protocol bivalent —
	// hence undecided — forever. For protocols with wait-free
	// obligations this cannot happen (it would be a termination
	// violation); for n-DAC protocols it is exactly the weak-termination
	// loophole the paper's objects are built around.
	Cycle []Step
	// CriticalID is the critical configuration the schedule ends at
	// when no cycle exists, -1 otherwise: the first configuration of
	// the bivalent region, in breadth-first order, that is critical in
	// valency's sense (bivalent, with successors, none of them
	// bivalent), so it is always one of ValencyReport's critical
	// configurations.
	CriticalID int
}

// KeepsBivalentForever reports whether the adversary found an infinite
// bivalent run.
func (r *AdversaryResult) KeepsBivalentForever() bool { return len(r.Cycle) > 0 }

// Adversary mechanizes the proofs' scheduling adversary (the engine of
// Claims 4.2.5 and 5.2.2): starting from the initial configuration, it
// repeatedly takes a step whose successor is still bivalent. Two
// outcomes are possible on a fully explored graph:
//
//   - the bivalent region contains a cycle: the adversary owns an
//     infinite bivalent run (Schedule, then Cycle forever), or
//   - it does not, and the walk ends at a critical configuration — the
//     pivot the impossibility proofs interrogate (CriticalID).
//
// The region, every configuration reachable through bivalent ones
// only, is walked in breadth-first order, so the result is
// deterministic: the first region configuration on a cycle, else the
// first critical one. The report must have been produced with
// Options.Valency set, and the initial configuration must be bivalent.
func (r *Report) Adversary() (*AdversaryResult, error) {
	if r.Valency == nil || r.g == nil || len(r.g.valence) == 0 {
		return nil, ErrNoValency
	}
	if r.g.grp != nil {
		// Region paths concatenate quotient edges, whose concrete steps
		// belong to different orbit translates; the spliced schedule
		// would not be a real execution. Re-explore unreduced.
		return nil, fmt.Errorf("explore: the adversary walks the concrete configuration graph; re-explore with SymmetryOff: %w",
			ErrSymmetryUnsupported)
	}
	g := r.g
	if !g.valence[0].Bivalent() {
		return nil, fmt.Errorf("initial configuration is %s: %w", g.valence[0], ErrNoValency)
	}
	// A configuration reaches every outcome its successors reach, so
	// every predecessor of a bivalent configuration is bivalent. The
	// region is therefore exactly the bivalent configurations, its
	// breadth-first order is id order, and the BFS tree path to each
	// (pathTo) stays inside it.
	//
	// Valence is constant on an SCC, so the region has a cycle exactly
	// when a bivalent configuration lies in a cyclic SCC, and the
	// cycle through its first intra-SCC edge stays bivalent.
	comp, cyclic := g.sccs()
	for id := range g.configs {
		if !g.valence[id].Bivalent() || !cyclic[comp[id]] {
			continue
		}
		for it := g.edgeIter(id); ; {
			if e, _ := it.next(); comp[e.to] == comp[id] {
				return &AdversaryResult{
					Schedule:   g.pathTo(id),
					Cycle:      g.liftedCycle(id, e, -1, false, comp),
					CriticalID: -1,
				}, nil
			}
		}
	}
	// An acyclic region ends at critical configurations unless a
	// bivalent configuration is quiescent, which has then decided both
	// values.
	for id := range g.configs {
		if g.critical(id) {
			return &AdversaryResult{Schedule: g.pathTo(id), CriticalID: id}, nil
		}
	}
	return nil, fmt.Errorf("explore: bivalent region has neither cycle nor critical configuration: %w", ErrNoValency)
}
