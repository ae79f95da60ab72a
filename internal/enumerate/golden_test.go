package enumerate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// TestPrepareDACGoldenOrder pins the prepared-candidate enumeration
// order of the Theorem 7.1 reference family byte for byte. Everything
// downstream leans on this order being frozen: CheckRange ranges
// address candidates by global index, sweep reports and event streams
// carry indices, and the memoizer attributes equivalence-class
// verdicts back to indices. A change that reorders enumeration
// (reordering Family.Shapes, the solo prefilter, or the p×q nesting in
// PrepareDAC) is not necessarily wrong — but it changes the index of
// every candidate in a sweep job's result, so it must show up here and
// be made deliberately.
func TestPrepareDACGoldenOrder(t *testing.T) {
	t.Parallel()
	p, err := PrepareDAC(shardFamily(), 3, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Candidates() != 1116 {
		t.Fatalf("candidates = %d, want 1116", p.Candidates())
	}

	// Literal spot checks: ends of the list plus one interior index,
	// so a failure here reads as actual programs, not just a hash.
	spot := map[int]string{
		0:    "[obj0.PROPOSE(input); if ⊥ decide(input) else decide(input) obj0.PROPOSE(input); if ⊥ decide(input) else decide(input)]",
		1:    "[obj0.PROPOSE(input); if ⊥ decide(input) else decide(input) obj0.PROPOSE(input); if ⊥ decide(input) else decide(last)]",
		557:  "[obj0.PROPOSE(input); if ⊥ retry else decide(last) obj1.READ; if ⊥ retry else decide(input)]",
		1115: "[obj1.READ; if ⊥ abort else decide(input) obj1.READ; if ⊥ retry else decide(input)]",
	}
	for i, want := range spot {
		if got := fmt.Sprintf("%v", p.Assignment(i).Shapes); got != want {
			t.Errorf("candidate %d = %s, want %s", i, got, want)
		}
	}

	// The full order, hashed. Regenerate by printing every
	// Assignment(i).Shapes line and re-hashing — and bump the stored
	// digest only alongside a deliberate enumeration-order change.
	var b strings.Builder
	for i := 0; i < p.Candidates(); i++ {
		fmt.Fprintf(&b, "%v\n", p.Assignment(i).Shapes)
	}
	sum := sha256.Sum256([]byte(b.String()))
	const want = "1c259eb150391793eccaa310634e623c1baaa530090a67d76bf0818c56da7dca"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("enumeration-order digest = %s, want %s", got, want)
	}
}
