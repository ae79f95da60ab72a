package sweepspec

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSweepSpec decodes arbitrary sweep job specs and runs every
// validation step a sweep job takes before Prepare: each returns nil
// or an error wrapping ErrSpec, none panics, and an accepted family
// has at most maxSweepCandidates candidates before the solo prefilter.
// Prepare itself is not called: an accepted spec may still take
// seconds to prepare.
func FuzzSweepSpec(f *testing.F) {
	for _, sp := range []SweepSpec{Thm71(), Thm52()} {
		seed, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp SweepSpec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		check := func(step string, err error) {
			if err != nil && !errors.Is(err, ErrSpec) {
				t.Fatalf("%s: %v does not wrap ErrSpec", step, err)
			}
		}
		_, err := sp.Vectors()
		check("Vectors", err)
		_, err = sp.Options()
		check("Options", err)
		fam, err := sp.Family()
		check("Family", err)
		if err != nil {
			return
		}
		n := sp.candidatesBeforePrefilter()
		if n > maxSweepCandidates {
			t.Fatalf("Family accepted %d candidates before the prefilter, more than %d", n, maxSweepCandidates)
		}
		// Small families are cheap to build: the count must be exact.
		if n == 0 || n > 1<<12 {
			return
		}
		got := len(fam.Shapes())
		if sp.Task.Kind == "dac" {
			fam.AllowAbort = true
			got *= len(fam.Shapes())
		}
		if got != n {
			t.Fatalf("family builds %d candidates before the prefilter, counted %d", got, n)
		}
	})
}

// FuzzCollectionsSpec decodes arbitrary collections job specs: validate
// returns nil or an error wrapping ErrSpec, never panics, and an
// accepted space has at most maxCollections collections.
func FuzzCollectionsSpec(f *testing.F) {
	seed, err := json.Marshal(CollectionsRef())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp CollectionsSpec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		err := sp.validate()
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("validate: %v does not wrap ErrSpec", err)
			}
			return
		}
		if n := sp.Space().Count(); n > maxCollections {
			t.Fatalf("validate accepted %d collections, more than %d", n, maxCollections)
		}
	})
}
