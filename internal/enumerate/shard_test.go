package enumerate

import (
	"reflect"
	"testing"

	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// shardFamily is the Theorem 7.1 depth-1 family over {2-consensus,
// register} — the 1116-candidate sweep (EXPERIMENTS E8).
func shardFamily() *Family {
	return &Family{
		Objects: []spec.Spec{objects.NewConsensus(2), objects.NewRegister()},
		Menu: []Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: ArgInput},
			{Obj: 1, Method: value.MethodRead},
		},
		Depth: 1,
		Actions: []Action{
			ActDecideInput, ActDecideLast, ActDecideFirst,
			ActDecideZero, ActDecideOne, ActRetry,
		},
	}
}

func shardVectors(n int) [][]value.Value {
	out := make([][]value.Value, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		v := make([]value.Value, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v[i] = 1
			}
		}
		out = append(out, v)
	}
	return out
}

// TestCheckRangePartitionMatchesFullSweep pins the range checks' core
// invariant: checking an uneven partition of the candidate space range
// by range yields exactly the aggregates, solver/inconclusive sets,
// and lowest-index sample failure of the one-shot FalsifyDAC sweep.
func TestCheckRangePartitionMatchesFullSweep(t *testing.T) {
	t.Parallel()
	fam := shardFamily()
	vectors := shardVectors(3)
	opts := SweepOptions{}

	full, err := FalsifyDAC(fam, 3, vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Candidates != 1116 {
		t.Fatalf("full sweep candidates = %d, want 1116", full.Candidates)
	}

	p, err := PrepareDAC(fam, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Candidates() != full.Candidates || p.Pruned() != full.Pruned {
		t.Fatalf("prepared: %d candidates, %d pruned; full sweep: %d, %d",
			p.Candidates(), p.Pruned(), full.Candidates, full.Pruned)
	}

	// Deliberately uneven, unordered shard boundaries.
	bounds := [][2]int{{700, 1116}, {0, 1}, {1, 700}}
	var (
		states       int
		fallbacks    int
		solvers      []Assignment
		inconclusive []Inconclusive
		failure      *RangeFailure
	)
	merged := make(map[int]*RangeReport)
	for _, b := range bounds {
		rr, err := p.CheckRange(b[0], b[1], vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		merged[b[0]] = rr
	}
	// Fold in index order.
	for lo := 0; lo < p.Candidates(); {
		rr, ok := merged[lo]
		if !ok {
			t.Fatalf("no shard starting at %d", lo)
		}
		states += rr.States
		fallbacks += rr.SymmetryFallbacks
		for _, s := range rr.Solvers {
			solvers = append(solvers, s.Assignment)
		}
		for _, inc := range rr.Inconclusive {
			inconclusive = append(inconclusive, Inconclusive{Assignment: inc.Assignment, Inputs: inc.Inputs})
		}
		if failure == nil && rr.Failure != nil {
			failure = rr.Failure
		}
		lo = rr.Hi
	}

	if states != full.States {
		t.Errorf("merged states = %d, full sweep %d", states, full.States)
	}
	if fallbacks != full.SymmetryFallbacks {
		t.Errorf("merged symmetry fallbacks = %d, full sweep %d", fallbacks, full.SymmetryFallbacks)
	}
	if !reflect.DeepEqual(solvers, full.Solvers) {
		t.Errorf("merged solvers differ:\n%v\nvs\n%v", solvers, full.Solvers)
	}
	if !reflect.DeepEqual(inconclusive, full.Inconclusive) {
		t.Errorf("merged inconclusive differ:\n%v\nvs\n%v", inconclusive, full.Inconclusive)
	}
	switch {
	case failure == nil && full.SampleFailure != nil:
		t.Errorf("merged shards found no failure; full sweep did: %v", full.SampleFailure.Violation)
	case failure != nil && full.SampleFailure == nil:
		t.Errorf("merged shards found a failure; full sweep did not")
	case failure != nil:
		if !reflect.DeepEqual(failure.Assignment, full.SampleFailure.Assignment) ||
			!reflect.DeepEqual(failure.Inputs, full.SampleFailure.Inputs) ||
			failure.Violation != full.SampleFailure.Violation.Error() {
			t.Errorf("merged sample failure differs:\n%+v\nvs\n%+v", failure, full.SampleFailure)
		}
	}
}

// TestShardMemoByteEquivalence pins the memoizer's transparency
// promise for a single interior range of the Theorem 7.1 sweep: the
// memoized range report equals the unmemoized one. The sweep's
// candidates come in rows of 31 that share one distinguished-role
// shape, and the range starts mid-row (index 300 lies in the row
// starting at 279), so memoized verdict attribution is exercised at a
// partial prefix row.
func TestShardMemoByteEquivalence(t *testing.T) {
	t.Parallel()
	vectors := shardVectors(3)
	run := func(disableMemo bool) *RangeReport {
		opts := SweepOptions{DisableMemo: disableMemo}
		p, err := PrepareDAC(shardFamily(), 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := p.CheckRange(300, 651, vectors, opts)
		if err != nil {
			t.Fatalf("disableMemo=%v: %v", disableMemo, err)
		}
		return rr
	}
	on, off := run(false), run(true)
	if on.Failure == nil || on.States == 0 {
		t.Fatalf("range [300,651) checked nothing: %+v", on)
	}
	if !reflect.DeepEqual(on, off) {
		t.Errorf("memoized range report differs:\n%+v\nvs\n%+v", on, off)
	}
}

// TestCheckRangeBounds pins range validation and the empty range.
func TestCheckRangeBounds(t *testing.T) {
	t.Parallel()
	fam := &Family{
		Objects: []spec.Spec{objects.NewRegister()},
		Menu:    []Invoke{{Obj: 0, Method: value.MethodRead}},
		Depth:   1,
		Actions: []Action{ActDecideInput},
	}
	p, err := PrepareSymmetric(fam, task.Consensus{N: 2}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CheckRange(-1, 0, nil, SweepOptions{}); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := p.CheckRange(0, p.Candidates()+1, nil, SweepOptions{}); err == nil {
		t.Error("hi beyond candidates accepted")
	}
	if _, err := p.CheckRange(1, 0, nil, SweepOptions{}); err == nil {
		t.Error("inverted range accepted")
	}
	rr, err := p.CheckRange(0, 0, nil, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.States != 0 || rr.Failure != nil || len(rr.Solvers) != 0 {
		t.Errorf("empty range not empty: %+v", rr)
	}
}
