package collections

import "fmt"

// Space is a bounded collection family: every size-Size multiset over
// the Menu of types, enumerated in a fixed order (nondecreasing menu
// index, lexicographic) so that every Space built from the same menu
// and size agrees on every collection index — report rows carry these
// indices, the direct analogue of internal/enumerate's candidate
// families.
type Space struct {
	// Menu lists the distinct types collections draw from.
	Menu []Type `json:"menu"`
	// Size is the multiset size.
	Size int `json:"size"`
}

// Validate rejects empty or duplicate-entry menus, non-positive
// sizes, and spaces whose Count overflows.
func (s Space) Validate() error {
	if len(s.Menu) == 0 {
		return fmt.Errorf("collections: space needs a non-empty menu")
	}
	if s.Size < 1 {
		return fmt.Errorf("collections: space size must be >= 1, got %d", s.Size)
	}
	seen := make(map[Type]bool, len(s.Menu))
	for i, t := range s.Menu {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("collections: menu entry %d: %w", i, err)
		}
		if seen[t] {
			return fmt.Errorf("collections: menu entry %d duplicates %s", i, t.Name())
		}
		seen[t] = true
	}
	if _, err := multisets(len(s.Menu), s.Size); err != nil {
		return fmt.Errorf("collections: space too large: %w", err)
	}
	return nil
}

// Count returns the number of collections in the space,
// C(len(Menu)+Size-1, Size). Validate first; an invalid space counts
// as empty.
func (s Space) Count() int {
	n, err := multisets(len(s.Menu), s.Size)
	if err != nil {
		return 0
	}
	return n
}

// At unranks collection i: the i-th size-Size multiset over the menu
// in enumeration order.
func (s Space) At(i int) (Collection, error) {
	if err := s.Validate(); err != nil {
		return Collection{}, err
	}
	total := s.Count()
	if i < 0 || i >= total {
		return Collection{}, fmt.Errorf("collections: index %d outside space [0,%d)", i, total)
	}
	types := make([]Type, 0, s.Size)
	j, rank := 0, i
	for r := s.Size; r > 0; r-- {
		for {
			// Multisets of size r whose least entry is j: one copy of j
			// plus any size-(r-1) multiset over entries >= j.
			c, err := multisets(len(s.Menu)-j, r-1)
			if err != nil {
				return Collection{}, err
			}
			if rank < c {
				break
			}
			rank -= c
			j++
		}
		types = append(types, s.Menu[j])
	}
	return Collection{Types: types}, nil
}

// multisets returns C(m+r-1, r), the number of size-r multisets over
// m items, with overflow detection.
func multisets(m, r int) (int, error) {
	if m < 0 || r < 0 {
		return 0, fmt.Errorf("negative multiset parameters m=%d r=%d", m, r)
	}
	if m == 0 {
		if r == 0 {
			return 1, nil
		}
		return 0, nil
	}
	// C(m+r-1, r) built incrementally; each step multiplies before it
	// divides exactly, so overflow is checked on the product.
	out := 1
	for i := 1; i <= r; i++ {
		num := m + i - 1
		if out > (1<<60)/num {
			return 0, fmt.Errorf("multiset count C(%d+%d-1,%d) overflows", m, r, r)
		}
		out = out * num / i
	}
	return out, nil
}
