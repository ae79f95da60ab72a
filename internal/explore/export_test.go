package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"setagree/internal/task"
)

// scanCanonical is the reference orbit canonicalization canonical
// must agree with byte for byte: render the full key under every group
// element in order, keep the first minimum, and count its ties. The
// mask prefix prunes candidates whose first component already loses.
func scanCanonical(grp *group, c *Config) (key []byte, gi, orbit int) {
	best := c.AppendKey(nil)
	var cand []byte
	ties := 1
	var maskBuf [binary.MaxVarintLen64]byte
	for k := 1; k < len(grp.perms); k++ {
		p := grp.perms[k]
		pre := binary.PutUvarint(maskBuf[:], permuteMask(c.SteppedMask, p))
		if pre > len(best) {
			pre = len(best)
		}
		if bytes.Compare(maskBuf[:pre], best[:pre]) > 0 {
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
	return best, gi, len(grp.perms) / ties
}

// CanonSuite is a fixed input set for canonical: every successor of
// every configuration a symmetry-reduced exploration stores, which is
// exactly the set the explorer canonicalizes.
type CanonSuite struct {
	grp   *group
	succs []*Config
	sc    keyScratch
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
	s := &CanonSuite{grp: g.grp}
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

// Len is the number of successors in the suite.
func (s *CanonSuite) Len() int { return len(s.succs) }

// GroupOrder is the order of the suite's symmetry group.
func (s *CanonSuite) GroupOrder() int { return len(s.grp.perms) }

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
	for i, c := range s.succs {
		key, gi, orbit := s.Canonical(i)
		wkey, wgi, worbit := scanCanonical(s.grp, c)
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
