package cluster

import (
	"testing"

	"setagree/internal/collections"
)

// TestCollectionsSpecValidation pins the error surface of bad specs.
func TestCollectionsSpecValidation(t *testing.T) {
	t.Parallel()
	cases := []CollectionsSpec{
		{},
		{Menu: []SATypeSpec{{N: 2, K: 1}}, Size: 0, Procs: 4, K: 2},
		{Menu: []SATypeSpec{{N: 2, K: 0}}, Size: 1, Procs: 4, K: 2},
		{Menu: []SATypeSpec{{N: 2, K: 1}}, Size: 1, Procs: 0, K: 2},
		{Menu: []SATypeSpec{{N: 2, K: 1}}, Size: 1, Procs: 4, K: 0},
		{Menu: []SATypeSpec{{N: 2, K: 1}, {N: 2, K: 1}}, Size: 1, Procs: 4, K: 2},
	}
	for i, sp := range cases {
		if _, err := collections.Sweep(sp.Space(), sp.Task(), sp.Options()); err == nil {
			t.Errorf("case %d: bad collections spec accepted", i)
		}
	}
}
