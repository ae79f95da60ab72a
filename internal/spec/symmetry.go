// Symmetry support for state keys. A protocol whose processes run the
// same code and differ only in their ids (and possibly their proposed
// values) induces an automorphism group on the configuration graph:
// permuting process ids (and values) of a reachable configuration
// yields another reachable configuration with the same future behavior
// up to the same permutation. The model checker exploits this by
// interning each configuration under the lexicographically minimal key
// in its orbit; Symmetric is the per-state hook that renders the key a
// permuted configuration WOULD have, without materializing the
// permuted state.

package spec

import "setagree/internal/value"

// Perm is one admissible symmetry: a permutation of process ids
// together with a (possibly identity) permutation of application
// values. The zero Perm is the identity.
type Perm struct {
	// Proc maps 0-based process index i to its image Proc[i]. A nil
	// slice is the identity on every index.
	Proc []int
	// Inv is the inverse of Proc (Inv[Proc[i]] = i), kept alongside it
	// because key encoders iterate OUTPUT positions: the permuted
	// state's slot j holds what the original kept in slot Inv[j]. Nil
	// iff Proc is nil.
	Inv []int
	// Vals maps application values to their images. Values absent from
	// the map — and in particular the reserved sentinels, which are
	// never admissible images — map to themselves. Nil is the identity.
	Vals map[value.Value]value.Value
}

// ProcIdx returns the image of 0-based process index i. Indices
// outside the permutation's domain map to themselves.
func (p Perm) ProcIdx(i int) int {
	if p.Proc == nil || i < 0 || i >= len(p.Proc) {
		return i
	}
	return p.Proc[i]
}

// ProcInvIdx returns the pre-image of 0-based process index j: the i
// with ProcIdx(i) == j. Indices outside the domain map to themselves.
func (p Perm) ProcInvIdx(j int) int {
	if p.Inv == nil || j < 0 || j >= len(p.Inv) {
		return j
	}
	return p.Inv[j]
}

// PortInv returns the pre-image of a 1-based port label: the l' with
// Port(l') == l. Labels outside [1, n] map to themselves.
func (p Perm) PortInv(l int) int {
	if p.Inv == nil || l < 1 || l > len(p.Inv) {
		return l
	}
	return p.Inv[l-1] + 1
}

// Port returns the image of a 1-based port label. Port l belongs to
// process l-1, so ports permute alongside process ids; labels outside
// [1, n] (the nil label 0, or ports beyond the process count, as in a
// PAC wider than the system) map to themselves.
func (p Perm) Port(l int) int {
	if p.Proc == nil || l < 1 || l > len(p.Proc) {
		return l
	}
	return p.Proc[l-1] + 1
}

// Val returns the image of v: Vals[v] when present, otherwise v.
// Sentinels always map to themselves because admissible Vals maps
// never contain them.
func (p Perm) Val(v value.Value) value.Value {
	if p.Vals == nil {
		return v
	}
	if w, ok := p.Vals[v]; ok {
		return w
	}
	return v
}

// Identity reports whether p acts as the identity on every process
// index and value.
func (p Perm) Identity() bool {
	for i, j := range p.Proc {
		if i != j {
			return false
		}
	}
	for v, w := range p.Vals {
		if v != w {
			return false
		}
	}
	return true
}

// MakePerm builds a Perm from a forward process map and an optional
// value map, computing the inverse. proc must be a permutation of
// 0..len(proc)-1; vals must be a bijection fixing the sentinels.
func MakePerm(proc []int, vals map[value.Value]value.Value) Perm {
	if proc == nil {
		return Perm{Vals: vals}
	}
	inv := make([]int, len(proc))
	for i, j := range proc {
		inv[j] = i
	}
	return Perm{Proc: proc, Inv: inv, Vals: vals}
}

// Ported is an optional Spec extension for objects whose state keeps
// one slot per port label, as the n-PAC does. Ports returns how many
// labels (1 through Ports()) the object has slots for. A process
// permutation acts on such a state only when it maps those labels onto
// themselves, so a symmetry-reduced explorer never interchanges a
// process that owns one of them with a process that does not.
type Ported interface {
	Ports() int
}

// Symmetric is an optional State extension for symmetry-reduced
// exploration: AppendKeyUnder appends the binary key that the state
// p·s — s with every process id i renamed to p.ProcIdx(i), every port
// label l renamed to p.Port(l), and every application value v renamed
// to p.Val(v) — would produce from AppendKey, without building p·s.
// The contract ties the two encodings together:
//
//	s.AppendKeyUnder(dst, Perm{}) == s.AppendKey(dst)
//
// and for states s, t of the same Spec, AppendKeyUnder(nil, p) of s
// equals AppendKey(nil) of t iff t is the permuted image p·s.
//
// Implementations need only honor the contract for permutations the
// explorer deems admissible for the system (same program per orbit,
// compatible inputs); they may assume p is a bijection.
type Symmetric interface {
	AppendKeyUnder(dst []byte, p Perm) []byte
}

// AppendStateKeyUnder appends the key of p·s to dst via the Symmetric
// fast path. The boolean reports whether s supports symmetry; when
// false dst is returned unchanged and the caller must treat the
// enclosing spec as asymmetric.
func AppendStateKeyUnder(dst []byte, s State, p Perm) ([]byte, bool) {
	sym, ok := s.(Symmetric)
	if !ok {
		return dst, false
	}
	return sym.AppendKeyUnder(dst, p), true
}
