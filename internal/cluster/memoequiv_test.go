package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"setagree/internal/enumerate"
	"setagree/internal/value"
)

// prepare builds everything Prepared.CheckRange needs from sp.
func prepare(t *testing.T, sp SweepSpec) (*enumerate.Prepared, [][]value.Value, enumerate.SweepOptions) {
	t.Helper()
	p, err := sp.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	vectors, err := sp.Vectors()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := sp.Options()
	if err != nil {
		t.Fatal(err)
	}
	return p, vectors, opts
}

// checkTiled checks sp's candidates as `ranges` near-equal ranges on
// one Prepared, so memoized verdicts recorded in one range are hit in
// later ones, and merges the range reports.
func checkTiled(t *testing.T, sp SweepSpec, ranges int) *SweepReport {
	t.Helper()
	p, vectors, opts := prepare(t, sp)
	n := p.Candidates()
	shards := make([]*ShardReport, 0, ranges)
	for i := 0; i < ranges; i++ {
		rr, err := p.CheckRange(i*n/ranges, (i+1)*n/ranges, vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, ShardReportOf(rr))
	}
	rep, err := Merge(n, shards)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestClusterMemoByteEquivalence pins the memoizer's transparency
// promise on merged reports: for both reference sweeps, at every
// combination of range tiling, symmetry mode, and memoization setting,
// the merged SweepReport renders byte-identical output. Range
// boundaries decide which CheckRange call first records each
// equivalence class and which hits it, so this exercises memo-table
// sharing across CheckRange calls on one Prepared, with verdict
// attribution crossing range cuts.
func TestClusterMemoByteEquivalence(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name       string
		sp         SweepSpec
		candidates int
	}{
		{"thm52", Thm52(), 49},
		{"thm71", Thm71(), 1116},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, sym := range []string{"", "ids"} {
				var base []byte
				baseFrom := ""
				for _, ranges := range []int{1, 3} {
					for _, memo := range []bool{false, true} {
						sp := tc.sp
						sp.Symmetry = sym
						m := memo
						sp.Memo = &m
						name := fmt.Sprintf("sym=%q ranges=%d memo=%v", sym, ranges, memo)
						rep := checkTiled(t, sp, ranges)
						if rep.Candidates != tc.candidates {
							t.Fatalf("%s: candidates = %d, want %d", name, rep.Candidates, tc.candidates)
						}
						buf, err := rep.Render()
						if err != nil {
							t.Fatal(err)
						}
						if base == nil {
							base, baseFrom = buf, name
						} else if !bytes.Equal(base, buf) {
							t.Errorf("%s renders differently from %s:\n%s\nvs\n%s",
								name, baseFrom, buf, base)
						}
					}
				}
			}
		})
	}
}

// TestShardMemoByteEquivalence pins the same promise for a single
// interior range of the Theorem 7.1 sweep: a memoized range's JSON
// report is byte-identical to the unmemoized one. The sweep's
// candidates come in rows of 31 that share one distinguished-role
// shape, and the range starts mid-row (index 300 lies in the row
// starting at 279), so memoized verdict attribution is exercised at a
// partial prefix row.
func TestShardMemoByteEquivalence(t *testing.T) {
	t.Parallel()
	run := func(memo bool) []byte {
		sp := Thm71()
		sp.Memo = &memo
		p, vectors, opts := prepare(t, sp)
		rr, err := p.CheckRange(300, 651, vectors, opts)
		if err != nil {
			t.Fatalf("memo=%v: %v", memo, err)
		}
		buf, err := json.Marshal(ShardReportOf(rr))
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	on, off := run(true), run(false)
	if !bytes.Equal(on, off) {
		t.Errorf("memoized range report differs:\n%s\nvs\n%s", on, off)
	}
}
