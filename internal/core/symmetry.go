// Symmetry (spec.Symmetric) implementations for the paper's objects.
// The n-PAC state is the only one in the repository that stores port
// labels (V is indexed by port, L names the last-proposing port), so
// it is where the process-id permutation acts on object state; the
// composite objects delegate to their components.

package core

import (
	"encoding/binary"
	"fmt"

	"setagree/internal/spec"
	"setagree/internal/value"
)

// appendComponentKeyUnder renders a component state's key under p. All
// component states this package creates implement spec.Symmetric; a
// foreign component is a construction-time bug, not a runtime
// condition, so it panics rather than silently mis-keying the state.
func appendComponentKeyUnder(dst []byte, s spec.State, p spec.Perm) []byte {
	out, ok := spec.AppendStateKeyUnder(dst, s, p)
	if !ok {
		panic(fmt.Sprintf("core: component state %T does not implement spec.Symmetric", s))
	}
	return out
}

// AppendKeyUnder implements spec.Symmetric. The permuted state's slot
// Port(l) holds the image of slot l's proposal, so output slot j is
// filled from input slot PortInv(j+1); L moves with its port (the nil
// label 0 is outside the port range and fixed); Val is a proposal
// value. Upset is a pure boolean, invariant because slot-occupancy
// (V[i] != None) is preserved by sentinel-fixing bijections.
func (s PACState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	upset := byte(0)
	if s.Upset {
		upset = 1
	}
	dst = append(dst, upset)
	dst = binary.AppendUvarint(dst, uint64(p.Port(s.L)))
	dst = value.AppendKey(dst, p.Val(s.Val))
	dst = binary.AppendUvarint(dst, uint64(len(s.V)))
	for j := range s.V {
		dst = value.AppendKey(dst, p.Val(s.V[p.PortInv(j+1)-1]))
	}
	return dst
}

var _ spec.Symmetric = PACState{}

// AppendKeyUnder implements spec.Symmetric by delegating to the two
// components, mirroring AppendKey.
func (s PACMState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	dst = appendComponentKeyUnder(dst, s.P, p)
	return appendComponentKeyUnder(dst, s.C, p)
}

var _ spec.Symmetric = PACMState{}

// AppendKeyUnder implements spec.Symmetric. Levels k are not ports —
// they are id-independent and stay fixed — so only the component
// states transform.
func (s OPrimeState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	var buf [levelBuf]int
	ks := levels(buf[:0], s.Components)
	dst = binary.AppendUvarint(dst, uint64(len(ks)))
	for _, k := range ks {
		dst = binary.AppendUvarint(dst, uint64(k))
		dst = appendComponentKeyUnder(dst, s.Components[k], p)
	}
	return dst
}

var _ spec.Symmetric = OPrimeState{}

// AppendKeyUnder implements spec.Symmetric (levels fixed, components
// transformed, ascending-k order as in AppendKey).
func (s OPrimeBaseState) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	dst = appendComponentKeyUnder(dst, s.Consensus, p)
	var buf [levelBuf]int
	ks := levels(buf[:0], s.TwoSA)
	dst = binary.AppendUvarint(dst, uint64(len(ks)))
	for _, k := range ks {
		dst = binary.AppendUvarint(dst, uint64(k))
		dst = appendComponentKeyUnder(dst, s.TwoSA[k], p)
	}
	return dst
}

var _ spec.Symmetric = OPrimeBaseState{}
