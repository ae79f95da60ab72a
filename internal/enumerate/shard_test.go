package enumerate

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"setagree/internal/objects"
	"setagree/internal/obs"
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
// by range yields exactly the aggregates, solver/inconclusive lists,
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

	// Deliberately uneven, unordered range boundaries.
	bounds := [][2]int{{700, 1116}, {0, 1}, {1, 700}}
	ranges := make(map[int]*Report)
	for _, b := range bounds {
		r, err := p.CheckRange(b[0], b[1], vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Candidates != b[1]-b[0] || r.Pruned != full.Pruned {
			t.Errorf("range %v: %d candidates, %d pruned", b, r.Candidates, r.Pruned)
		}
		ranges[b[0]] = r
	}
	// Fold in index order.
	merged := &Report{}
	for lo := 0; lo < p.Candidates(); {
		r, ok := ranges[lo]
		if !ok {
			t.Fatalf("no range starting at %d", lo)
		}
		lo += r.Candidates
		merged.Candidates += r.Candidates
		merged.States += r.States
		merged.SymmetryFallbacks += r.SymmetryFallbacks
		merged.Solvers = append(merged.Solvers, r.Solvers...)
		merged.Inconclusive = append(merged.Inconclusive, r.Inconclusive...)
		if merged.SampleFailure == nil {
			merged.SampleFailure = r.SampleFailure
		}
	}

	if merged.Candidates != full.Candidates || merged.States != full.States ||
		merged.SymmetryFallbacks != full.SymmetryFallbacks {
		t.Errorf("merged candidates/states/fallbacks = %d/%d/%d, full sweep %d/%d/%d",
			merged.Candidates, merged.States, merged.SymmetryFallbacks,
			full.Candidates, full.States, full.SymmetryFallbacks)
	}
	if !reflect.DeepEqual(merged.Solvers, full.Solvers) {
		t.Errorf("merged solvers differ:\n%v\nvs\n%v", merged.Solvers, full.Solvers)
	}
	if !reflect.DeepEqual(merged.Inconclusive, full.Inconclusive) {
		t.Errorf("merged inconclusive differ:\n%v\nvs\n%v", merged.Inconclusive, full.Inconclusive)
	}
	mf, ff := merged.SampleFailure, full.SampleFailure
	switch {
	case ff == nil:
		t.Fatal("full sweep found no failure")
	case mf == nil:
		t.Errorf("merged ranges found no failure; full sweep did: %v", ff.Violation)
	case mf.Index != ff.Index:
		t.Errorf("merged sample failure index = %d, full sweep %d", mf.Index, ff.Index)
	case !reflect.DeepEqual(mf, ff):
		t.Errorf("merged sample failure differs:\n%+v\nvs\n%+v", mf, ff)
	}
}

// TestFalsifyIsCheckRange pins the one outcome fold: a FalsifyDAC
// sweep and PrepareDAC followed by CheckRange over every candidate
// return equal Reports, emit identical sweep.done fields, and count
// identical sweep.* counters, one sweep.sweeps each. Workers is 1 so
// the memo counters are schedule-independent too.
func TestFalsifyIsCheckRange(t *testing.T) {
	t.Parallel()
	vectors := shardVectors(3)
	type result struct {
		rep      *Report
		done     map[string]any
		counters map[string]int64
	}
	run := func(check func(SweepOptions) (*Report, error)) result {
		sink := obs.NewSink()
		var events bytes.Buffer
		rep, err := check(SweepOptions{Workers: 1, Obs: sink, Events: obs.NewEmitter(&events)})
		if err != nil {
			t.Fatal(err)
		}
		res := result{rep: rep, counters: make(map[string]int64)}
		for name, v := range sink.Snapshot().Counters {
			if strings.HasPrefix(name, "sweep.") {
				res.counters[name] = v
			}
		}
		for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatal(err)
			}
			if ev["event"] == "sweep.done" {
				if res.done != nil {
					t.Fatal("more than one sweep.done event")
				}
				delete(ev, "seq")
				delete(ev, "ts")
				res.done = ev
			}
		}
		return res
	}
	full := run(func(opts SweepOptions) (*Report, error) {
		return FalsifyDAC(shardFamily(), 3, vectors, opts)
	})
	ranged := run(func(opts SweepOptions) (*Report, error) {
		p, err := PrepareDAC(shardFamily(), 3, opts)
		if err != nil {
			return nil, err
		}
		return p.CheckRange(0, p.Candidates(), vectors, opts)
	})
	if !reflect.DeepEqual(full.rep, ranged.rep) {
		t.Errorf("reports differ:\n%+v\nvs\n%+v", full.rep, ranged.rep)
	}
	if !reflect.DeepEqual(full.done, ranged.done) {
		t.Errorf("sweep.done fields differ:\n%v\nvs\n%v", full.done, ranged.done)
	}
	if !reflect.DeepEqual(full.counters, ranged.counters) {
		t.Errorf("sweep counters differ:\n%v\nvs\n%v", full.counters, ranged.counters)
	}
	want := map[string]any{"lo": 0.0, "hi": 1116.0, "candidates": 1116.0, "pruned": float64(full.rep.Pruned)}
	for k, v := range want {
		if full.done[k] != v {
			t.Errorf("sweep.done %s = %v, want %v", k, full.done[k], v)
		}
	}
	if full.counters["sweep.sweeps"] != 1 || full.counters["sweep.pruned"] != int64(full.rep.Pruned) ||
		full.rep.Pruned == 0 {
		t.Errorf("sweep.sweeps = %d, sweep.pruned = %d, want 1 and %d (nonzero)",
			full.counters["sweep.sweeps"], full.counters["sweep.pruned"], full.rep.Pruned)
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
	run := func(disableMemo bool) *Report {
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
	if on.SampleFailure == nil || on.States == 0 {
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
	if rr.States != 0 || rr.SampleFailure != nil || len(rr.Solvers) != 0 {
		t.Errorf("empty range not empty: %+v", rr)
	}
}
