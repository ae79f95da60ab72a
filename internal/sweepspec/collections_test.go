package sweepspec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"setagree/internal/obs"
)

// TestCollectionsRefDigest pins the reference collections sweep's
// report bytes, the result of a dacd "collections-sweep" job on
// CollectionsRef.
func TestCollectionsRefDigest(t *testing.T) {
	t.Parallel()
	rep, err := RunCollections(context.Background(), CollectionsRef(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := rep.Render()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	const want = "9ac97e109645541bbb243e36ca08b9229c5e71f56925070ea7110852481be750"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("report SHA-256 = %s, want %s:\n%s", got, want, buf)
	}
}

// TestCollectionsSpecValidation pins the error surface of bad specs on
// the path dacd's collections-sweep runner takes. Every case wraps
// ErrSpec; the oversized ones must fail before any DP table is built.
func TestCollectionsSpecValidation(t *testing.T) {
	t.Parallel()
	ref := CollectionsRef()
	cases := map[string]CollectionsSpec{
		"empty":          {},
		"size 0":         {Menu: []SATypeSpec{{N: 2, K: 1}}, Size: 0, Procs: 4, K: 2},
		"type k 0":       {Menu: []SATypeSpec{{N: 2, K: 0}}, Size: 1, Procs: 4, K: 2},
		"procs 0":        {Menu: []SATypeSpec{{N: 2, K: 1}}, Size: 1, Procs: 0, K: 2},
		"k 0":            {Menu: []SATypeSpec{{N: 2, K: 1}}, Size: 1, Procs: 4, K: 0},
		"duplicate type": {Menu: []SATypeSpec{{N: 2, K: 1}, {N: 2, K: 1}}, Size: 1, Procs: 4, K: 2},
		"procs 1<<40":    {Menu: ref.Menu, Size: ref.Size, Procs: 1 << 40, K: 2},
		"procs 65":       {Menu: ref.Menu, Size: ref.Size, Procs: 65, K: 2},
		"size 17":        {Menu: ref.Menu, Size: 17, Procs: 4, K: 2},
		"levels 17":      {Menu: ref.Menu, Size: ref.Size, Procs: 4, K: 2, Levels: 17},
		"type n 1<<40":   {Menu: []SATypeSpec{{N: 1 << 40, K: 1}}, Size: 1, Procs: 4, K: 2},
		// C(20+16-1, 16) collections, far above the bound.
		"space too large": {Menu: menuOf(20), Size: 16, Procs: 4, K: 2},
	}
	for name, sp := range cases {
		sink := obs.NewSink()
		_, err := RunCollections(context.Background(), sp, sink, nil)
		if !errors.Is(err, ErrSpec) {
			t.Errorf("%s: err = %v, want one wrapping ErrSpec", name, err)
		}
		if n := sink.Snapshot().Counters["collections.memo_misses"]; n != 0 {
			t.Errorf("%s: %d cost tables built before the spec was rejected", name, n)
		}
	}
}

// TestCollectionsSpecBoundsAdmitCommitted pins that the bounds admit
// the largest committed collections space: 35 collections (every
// size-3 multiset over five types) asked of 6 processes.
func TestCollectionsSpecBoundsAdmitCommitted(t *testing.T) {
	t.Parallel()
	sp := CollectionsSpec{
		Menu:  []SATypeSpec{{N: 2, K: 1}, {N: 3, K: 2}, {N: 4, K: 3}, {K: 2}, {K: 3}},
		Size:  3,
		Procs: 6,
		K:     2,
	}
	rep, err := RunCollections(context.Background(), sp, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collections != 35 {
		t.Errorf("collections = %d, want 35", rep.Collections)
	}
}

// menuOf returns m distinct unbounded set-agreement types.
func menuOf(m int) []SATypeSpec {
	out := make([]SATypeSpec, m)
	for i := range out {
		out[i] = SATypeSpec{K: i + 1}
	}
	return out
}
