package sweepspec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestClusterMemoByteEquivalence pins the memoizer's transparency
// promise on the canonical reports dacd serves: for both reference
// sweeps, at every combination of symmetry mode and memoization
// setting, Run's SweepReport renders to the same pinned SHA-256. The
// digests are those of the dacd "sweep" job results since the
// multi-daemon coordinator was deleted; a change to them is a change
// to every stored sweep result.
func TestClusterMemoByteEquivalence(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name       string
		sp         SweepSpec
		candidates int
		sha256     map[string]string // by symmetry mode
	}{
		{"thm52", Thm52(), 49, map[string]string{
			"":    "edaf286422437ee4a21352d0caa15cd745f9b5917ce6c0b37ebdfb5d3141f767",
			"ids": "3915e4d1ca47e2dad86bbc0ac180e95c01ce5a43837c5a6c79b269ab6005c8e6",
		}},
		{"thm71", Thm71(), 1116, map[string]string{
			"":    "6c83053fcbb1df7d606a226af42e78e0f70c9616af4a58c70101d43c869da00a",
			"ids": "22e8205fc6947a7c78130281ab341cea4245ed3cc7c73d3160a7d68c424ec092",
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, sym := range []string{"", "ids"} {
				for _, memo := range []bool{false, true} {
					sp := tc.sp
					sp.Symmetry = sym
					m := memo
					sp.Memo = &m
					name := fmt.Sprintf("sym=%q memo=%v", sym, memo)
					rep, err := Run(context.Background(), sp, nil, nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if rep.Candidates != tc.candidates {
						t.Fatalf("%s: candidates = %d, want %d", name, rep.Candidates, tc.candidates)
					}
					buf, err := rep.Render()
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(buf)
					if got := hex.EncodeToString(sum[:]); got != tc.sha256[sym] {
						t.Errorf("%s: report SHA-256 = %s, want %s:\n%.800s", name, got, tc.sha256[sym], buf)
					}
				}
			}
		})
	}
}
