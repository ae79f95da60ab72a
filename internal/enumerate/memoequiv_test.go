package enumerate_test

import (
	"fmt"
	"testing"

	"setagree/internal/enumerate"
	"setagree/internal/explore"
	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// thm71Family is the Theorem 7.1 family over {2-consensus, register}
// at the given depth; depth 1 is the 1116-candidate DAC sweep
// (EXPERIMENTS E8).
func thm71Family(depth int) *enumerate.Family {
	return &enumerate.Family{
		Objects: []spec.Spec{objects.NewConsensus(2), objects.NewRegister()},
		Menu: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
		},
		Depth: depth,
		Actions: []enumerate.Action{
			enumerate.ActDecideInput, enumerate.ActDecideLast, enumerate.ActDecideFirst,
			enumerate.ActDecideZero, enumerate.ActDecideOne, enumerate.ActRetry,
		},
	}
}

// renderFull extends renderReport with the fallback counter, so the
// memo-equivalence comparison also pins SymmetryFallbacks (the memo
// path re-derives the mode evolution per vector via ProbeSymmetry;
// this is where a divergence would surface).
func renderFull(rep *enumerate.Report) string {
	return fmt.Sprintf("fallbacks=%d\n%s", rep.SymmetryFallbacks, renderReport(rep))
}

// TestMemoByteEquivalence pins the memoizer's core transparency
// promise at the engine level: for both reference sweeps, at worker
// counts 1 and 4 and with symmetry reduction off and at ids, the
// memoized sweep renders a report byte-identical to the unmemoized
// one — same aggregates, same solver and inconclusive sets, and the
// same sample failure with the same materialized violation (witness
// and cycle included, exercising materializeViolation against the
// concrete counterexample the plain engine reports).
func TestMemoByteEquivalence(t *testing.T) {
	t.Parallel()
	vectors := binaryVectors(3)
	sweeps := []struct {
		name string
		run  func(opts enumerate.SweepOptions) (*enumerate.Report, error)
	}{
		{"thm52", func(opts enumerate.SweepOptions) (*enumerate.Report, error) {
			return enumerate.FalsifySymmetric(theorem42Family(1), task.Consensus{N: 3}, vectors, opts)
		}},
		{"thm71", func(opts enumerate.SweepOptions) (*enumerate.Report, error) {
			return enumerate.FalsifyDAC(thm71Family(1), 3, vectors, opts)
		}},
	}
	for _, sw := range sweeps {
		sw := sw
		t.Run(sw.name, func(t *testing.T) {
			t.Parallel()
			for _, sym := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
				for _, workers := range []int{1, 4} {
					off, err := sw.run(enumerate.SweepOptions{
						Workers: workers, Symmetry: sym, DisableMemo: true,
					})
					if err != nil {
						t.Fatalf("sym=%v workers=%d memo=off: %v", sym, workers, err)
					}
					on, err := sw.run(enumerate.SweepOptions{
						Workers: workers, Symmetry: sym,
					})
					if err != nil {
						t.Fatalf("sym=%v workers=%d memo=on: %v", sym, workers, err)
					}
					if got, want := renderFull(on), renderFull(off); got != want {
						t.Errorf("sym=%v workers=%d: memoized report differs:\n%s\nvs\n%s",
							sym, workers, got, want)
					}
				}
			}
		})
	}
}
