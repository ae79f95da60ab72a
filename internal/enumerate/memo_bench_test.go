package enumerate

import (
	"fmt"
	"testing"
)

// BenchmarkFalsifyDACThm71 times the Theorem 7.1 reference sweep (1116
// candidates) with cross-candidate memoization off and on, at one
// worker (isolating the engine from scheduling) and at the default
// worker count. It exists for profiling and local comparison; the
// repository benchmark's sweep-e3 workload (bash benchmark/run.sh) is
// the measured and gated sweep.
func BenchmarkFalsifyDACThm71(b *testing.B) {
	vectors := shardVectors(3)
	for _, memo := range []bool{false, true} {
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("memo=%v/workers=%d", memo, workers)
			b.Run(name, func(b *testing.B) {
				f := shardFamily()
				for i := 0; i < b.N; i++ {
					rep, err := FalsifyDAC(f, 3, vectors, SweepOptions{DisableMemo: !memo, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					if rep.Candidates != 1116 {
						b.Fatalf("candidates = %d, want 1116", rep.Candidates)
					}
				}
			})
		}
	}
}
