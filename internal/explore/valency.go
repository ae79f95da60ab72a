package explore

import (
	"fmt"

	"setagree/internal/machine"
)

// Valence is the set of outcomes reachable from a configuration,
// encoded as a bitmask.
type Valence uint8

// Valence bits.
const (
	// CanDecide0 is set when some reachable configuration has a process
	// decided 0.
	CanDecide0 Valence = 1 << iota
	// CanDecide1 is set when some reachable configuration has a process
	// decided 1.
	CanDecide1
	// CanAbort is set when some reachable configuration has an aborted
	// process (n-DAC only).
	CanAbort
)

// Bivalent reports whether both decision values are reachable ([8]: the
// configuration is bivalent).
func (v Valence) Bivalent() bool {
	return v&CanDecide0 != 0 && v&CanDecide1 != 0
}

// Univalent reports whether exactly one decision value is reachable.
func (v Valence) Univalent() bool {
	d := v & (CanDecide0 | CanDecide1)
	return d == CanDecide0 || d == CanDecide1
}

// String renders the valence in the paper's terminology.
func (v Valence) String() string {
	switch {
	case v.Bivalent():
		return "bivalent"
	case v&CanDecide0 != 0:
		return "0-valent"
	case v&CanDecide1 != 0:
		return "1-valent"
	default:
		return "null-valent"
	}
}

// CriticalConfig describes one critical configuration: a bivalent
// configuration whose every successor is univalent — the pivot of the
// bivalency proofs (Claim 4.2.5 / Claim 5.2.2).
type CriticalConfig struct {
	// Schedule reaches the configuration from the initial one.
	Schedule []Step
	// PoisedObj maps each process to the object it is poised on (-1 for
	// terminated processes).
	PoisedObj []int
	// ID is the configuration id in the explored graph.
	ID int
	// SameObject reports whether all poised processes are about to
	// access one common object (the structure Claims 4.2.7 and 5.2.3
	// establish must hold).
	SameObject bool
	// ObjectName is the spec name of that common object when SameObject.
	ObjectName string
}

// ValencyReport summarizes the valence structure of the reachable
// configuration graph.
type ValencyReport struct {
	// Initial is the valence of the initial configuration; the proofs'
	// first move (Claim 4.2.4 / Claim 5.2.1) is showing it bivalent for
	// suitable inputs.
	Initial Valence
	// Bivalent, Univalent0, Univalent1, and Null count configurations by
	// valence.
	Bivalent   int
	Univalent0 int
	Univalent1 int
	Null       int
	// Critical holds the first critical configurations found (at most
	// MaxCriticalStored), and CriticalCount the total.
	Critical      []CriticalConfig
	CriticalCount int
	// CriticalSameObject counts critical configurations whose poised
	// processes all target one object.
	CriticalSameObject int
}

// MaxCriticalStored bounds how many critical configurations a
// ValencyReport retains in full.
const MaxCriticalStored = 16

// valency labels every configuration with its valence and finds the
// critical configurations. Decisions must be binary.
func (g *graph) valency() (*ValencyReport, error) {
	comp, cyclic := g.sccs()
	nComp := len(cyclic)
	masks := make([]Valence, nComp)

	// Seed with immediate outcomes.
	var m metaRec
	for id := range g.configs {
		g.metaAt(id, &m)
		for i := range m.status {
			switch m.status[i] {
			case machine.StatusDecided:
				switch m.decision[i] {
				case 0:
					masks[comp[id]] |= CanDecide0
				case 1:
					masks[comp[id]] |= CanDecide1
				default:
					return nil, fmt.Errorf("explore: got decision %s: %w",
						m.decision[i], ErrNotBinary)
				}
			case machine.StatusAborted:
				masks[comp[id]] |= CanAbort
			}
		}
	}

	// Propagate along the condensation. Tarjan numbers components in
	// reverse topological order: every cross edge goes from a
	// higher-numbered component to a lower-numbered one, so scanning
	// configurations grouped by ascending component id sees final target
	// masks.
	byComp := make([][]int, nComp)
	for id := range g.configs {
		byComp[comp[id]] = append(byComp[comp[id]], id)
	}
	for ci := 0; ci < nComp; ci++ {
		for _, id := range byComp[ci] {
			for it := g.edgeIter(id); ; {
				to, _, ok := it.lean()
				if !ok {
					break
				}
				masks[ci] |= masks[comp[to]]
			}
		}
	}

	rep := &ValencyReport{Initial: masks[comp[0]]}
	g.valence = make([]Valence, len(g.configs))
	for id := range g.configs {
		g.valence[id] = masks[comp[id]]
	}
	for id := range g.configs {
		v := masks[comp[id]]
		switch {
		case v.Bivalent():
			rep.Bivalent++
		case v&CanDecide0 != 0:
			rep.Univalent0++
		case v&CanDecide1 != 0:
			rep.Univalent1++
		default:
			rep.Null++
		}
		if !g.critical(id) {
			continue
		}
		rep.CriticalCount++
		cc := g.describeCritical(id)
		if cc.SameObject {
			rep.CriticalSameObject++
		}
		if len(rep.Critical) < MaxCriticalStored {
			rep.Critical = append(rep.Critical, cc)
		}
	}
	return rep, nil
}

// critical reports whether configuration id is critical: bivalent,
// with at least one successor and no bivalent one. It reads the labels
// valency sets.
func (g *graph) critical(id int) bool {
	if !g.valence[id].Bivalent() {
		return false
	}
	it := g.edgeIter(id)
	if it.rem == 0 {
		return false
	}
	for {
		to, _, ok := it.lean()
		if !ok {
			return true
		}
		if g.valence[to].Bivalent() {
			return false
		}
	}
}

// describeCritical captures the poised structure of a critical
// configuration.
func (g *graph) describeCritical(id int) CriticalConfig {
	var m metaRec
	g.metaAt(id, &m)
	cc := CriticalConfig{
		ID:         id,
		Schedule:   g.pathTo(id),
		PoisedObj:  make([]int, len(m.poised)),
		SameObject: true,
	}
	copy(cc.PoisedObj, m.poised)
	common := -1
	for _, obj := range m.poised {
		if obj < 0 {
			continue
		}
		if common == -1 {
			common = obj
		} else if obj != common {
			cc.SameObject = false
		}
	}
	if common == -1 {
		cc.SameObject = false
	}
	if cc.SameObject {
		cc.ObjectName = g.sys.Objects[common].Name()
	}
	return cc
}
