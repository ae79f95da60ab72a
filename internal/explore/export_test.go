package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"setagree/internal/machine"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// referenceGroup materializes the admissible group the plain way: every
// process permutation the admissibility rules allow, paired with the
// value map it induces, in lexicographic order of the forward map Proc.
// Element k of the list is the element group index k names.
func referenceGroup(sys *System, tsk task.Task, mode Symmetry) ([]spec.Perm, error) {
	fixed, consts, err := admissibility(sys, tsk, mode)
	if err != nil {
		return nil, err
	}
	n := sys.Procs()
	var perms []spec.Perm
	used := make([]bool, n)
	img := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			var vals map[value.Value]value.Value
			if mode == SymmetryValues {
				vals = make(map[value.Value]value.Value, n)
				for p, q := range img {
					v, w := sys.Inputs[p], sys.Inputs[q]
					if prev, ok := vals[v]; ok {
						if prev != w {
							return // τ not well defined for this σ
						}
						continue
					}
					vals[v] = w
				}
				seen := make(map[value.Value]bool, len(vals))
				identity := true
				for v, w := range vals {
					if seen[w] {
						return // τ not injective
					}
					seen[w] = true
					if v != w {
						identity = false
						if consts[v] || consts[w] || v.IsSentinel() || w.IsSentinel() {
							return // τ moves a constant or sentinel
						}
					}
				}
				if identity {
					vals = nil
				}
			}
			perms = append(perms, spec.MakePerm(slices.Clone(img), vals))
			return
		}
		for j := 0; j < n; j++ {
			if used[j] || (fixed[i] || fixed[j]) && i != j ||
				!machine.SamePrograms(sys.Programs[i], sys.Programs[j]) ||
				mode == SymmetryIDs && sys.Inputs[i] != sys.Inputs[j] {
				continue
			}
			img[i] = j
			used[j] = true
			rec(i + 1)
			used[j] = false
		}
	}
	rec(0)
	return perms, nil
}

// scanCanonical is the reference orbit canonicalization canonical
// must agree with byte for byte: render the full key under every
// element of the materialized group in order, keep the first minimum,
// and count its ties. Candidates whose mask and process blocks already
// lose, rendered a piece at a time, are pruned before the full render.
func scanCanonical(perms []spec.Perm, c *Config) (key []byte, gi, orbit int) {
	best := c.AppendKey(nil)
	var cand []byte
	ties := 1
	for k := 1; k < len(perms); k++ {
		p := perms[k]
		cand = binary.AppendUvarint(cand[:0], permuteMask(c.SteppedMask, p))
		lost := false
		for j := 0; ; j++ {
			n := min(len(cand), len(best))
			d := bytes.Compare(cand[:n], best[:n])
			lost = d > 0
			if d != 0 || j == len(c.Procs) {
				break
			}
			cand = c.Procs[p.ProcInvIdx(j)].AppendKeyUnder(cand, p)
		}
		if lost {
			continue
		}
		cand = c.AppendKeyUnder(cand[:0], p)
		switch bytes.Compare(cand, best) {
		case -1:
			best, cand = cand, best
			gi, ties = k, 1
		case 0:
			ties++
		}
	}
	return best, gi, len(perms) / ties
}

// CanonSuite is a fixed input set for canonical: every successor of
// every configuration a symmetry-reduced exploration stores, which is
// exactly the set the explorer canonicalizes.
type CanonSuite struct {
	grp   *group
	succs []*Config
	sc    keyScratch
	// ref builds the reference group scanCanonical scans.
	ref func() ([]spec.Perm, error)
}

// NewCanonSuite explores sys against tsk under mode at one worker and
// collects the successors of every stored configuration.
func NewCanonSuite(sys *System, tsk task.Task, mode Symmetry) (*CanonSuite, error) {
	rep, err := Check(sys, tsk, Options{Workers: 1, Symmetry: mode})
	if err != nil {
		return nil, err
	}
	defer rep.Close()
	g := rep.g
	if g.grp == nil {
		return nil, fmt.Errorf("no symmetry group under %v", mode)
	}
	s := &CanonSuite{grp: g.grp, ref: func() ([]spec.Perm, error) { return referenceGroup(sys, tsk, mode) }}
	for id := 0; id < rep.States; id++ {
		c := g.configAt(id)
		for i := range c.Procs {
			if !c.Live(i) {
				continue
			}
			nexts, _, err := successors(sys, c, i)
			if err != nil {
				return nil, err
			}
			s.succs = append(s.succs, nexts...)
		}
	}
	return s, nil
}

// NewWalkSuite collects the configurations random walks visit: walks
// runs of up to depth steps from the initial configuration, each step
// a uniformly chosen live process and branch, seeded by seed. It
// covers systems whose reachable graph is too large to enumerate.
func NewWalkSuite(sys *System, tsk task.Task, mode Symmetry, walks, depth int, seed int64) (*CanonSuite, error) {
	grp, err := buildGroup(sys, tsk, mode)
	if err != nil {
		return nil, err
	}
	root, err := initialConfig(sys)
	if err != nil {
		return nil, err
	}
	s := &CanonSuite{grp: grp, ref: func() ([]spec.Perm, error) { return referenceGroup(sys, tsk, mode) }}
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < walks; w++ {
		c := root
		for d := 0; d < depth; d++ {
			var live []int
			for i := range c.Procs {
				if c.Live(i) {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				break
			}
			nexts, _, err := successors(sys, c, live[rng.Intn(len(live))])
			if err != nil {
				return nil, err
			}
			c = nexts[rng.Intn(len(nexts))]
			s.succs = append(s.succs, c)
		}
	}
	return s, nil
}

// BeyondLowestSlots counts the suite's configurations whose canonical
// stepped mask differs from the one that puts each class's stepped
// processes in its lowest slots (under the identity value map): the
// cases where the mask's uvarint bytes and its integer value disagree.
func (s *CanonSuite) BeyondLowestSlots() int {
	count := 0
	for i, c := range s.succs {
		key, _, _ := s.Canonical(i)
		mask, _ := binary.Uvarint(key)
		var lowest uint64
		for _, slots := range s.grp.slots {
			stepped := bits.OnesCount64(c.SteppedMask & slots)
			for m := slots; stepped > 0; m &= m - 1 {
				lowest |= m & -m
				stepped--
			}
		}
		if mask != lowest {
			count++
		}
	}
	return count
}

// Len is the number of successors in the suite.
func (s *CanonSuite) Len() int { return len(s.succs) }

// GroupOrder is the order of the suite's symmetry group.
func (s *CanonSuite) GroupOrder() int { return s.grp.order }

// ValueClasses is the number of distinct value maps in the group.
func (s *CanonSuite) ValueClasses() int { return len(s.grp.vmaps) }

// Canonical canonicalizes successor i with the suite's own scratch.
func (s *CanonSuite) Canonical(i int) (key []byte, gi, orbit int) {
	return s.grp.canonical(&s.sc, s.succs[i])
}

// MatchScan checks canonical against scanCanonical on every successor
// in the suite: same key bytes, same minimizing index, same orbit
// size. It returns how many successors were not canonical themselves.
func (s *CanonSuite) MatchScan() (moved int, err error) {
	perms, err := s.ref()
	if err != nil {
		return 0, err
	}
	for i, c := range s.succs {
		key, gi, orbit := s.Canonical(i)
		wkey, wgi, worbit := scanCanonical(perms, c)
		if !bytes.Equal(key, wkey) || gi != wgi || orbit != worbit {
			return moved, fmt.Errorf("successor %d (%s): canonical gives gi %d, orbit %d, key %x; scan gives gi %d, orbit %d, key %x",
				i, c.Key(), gi, orbit, key, wgi, worbit, wkey)
		}
		if gi != 0 {
			moved++
		}
	}
	return moved, nil
}
