package enumerate_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"setagree/internal/enumerate"
	"setagree/internal/task"
)

// renderReport flattens a Report into a canonical string with every
// pointer dereferenced, so equality means byte-identical content.
func renderReport(rep *enumerate.Report) string {
	s := fmt.Sprintf("candidates=%d pruned=%d states=%d\nsolvers=%v\ninconclusive=%v\n",
		rep.Candidates, rep.Pruned, rep.States, rep.Solvers, rep.Inconclusive)
	if rep.SampleFailure != nil {
		f := rep.SampleFailure
		s += fmt.Sprintf("failure: %v on %v: %v\nwitness=%v cycle=%v\n",
			f.Assignment.Shapes, f.Inputs, f.Violation.Error(),
			f.Violation.Witness, f.Violation.Cycle)
	}
	return s
}

// TestWorkersDeterminismDAC pins the tentpole contract: the same sweep
// renders a byte-identical Report at every worker count, because
// results are aggregated by candidate index.
func TestWorkersDeterminismDAC(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	vectors := binaryVectors(3)
	var reports []*enumerate.Report
	for _, w := range []int{1, 2, 8} {
		rep, err := enumerate.FalsifyDAC(f, 3, vectors, enumerate.SweepOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		reports = append(reports, rep)
	}
	base := renderReport(reports[0])
	for i, rep := range reports[1:] {
		if !reflect.DeepEqual(reports[0], rep) {
			t.Errorf("report at workers=%d differs structurally from workers=1", []int{2, 8}[i])
		}
		if got := renderReport(rep); got != base {
			t.Errorf("report at workers=%d renders differently:\n%s\nvs\n%s", []int{2, 8}[i], got, base)
		}
	}
	if reports[0].SampleFailure == nil {
		t.Error("no sample failure recorded")
	}
	if reports[0].States == 0 {
		t.Error("no states tallied")
	}
}

// TestWorkersDeterminismSymmetric repeats the determinism check on the
// symmetric sweep, including the solver list (the positive control has
// solvers, so their order is exercised too).
func TestWorkersDeterminismSymmetric(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	vectors := binaryVectors(2)
	seq, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 2}, vectors, enumerate.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 2}, vectors, enumerate.SweepOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("workers=1 and workers=8 reports differ:\n%+v\nvs\n%+v", seq, par)
	}
	if len(seq.Solvers) == 0 {
		t.Fatal("positive control found no solvers")
	}
}

// TestInconclusiveTolerated pins the motivating bugfix: a sweep
// containing state-limit candidates completes, listing them in
// Report.Inconclusive with the triggering input vector, instead of
// aborting with an error.
func TestInconclusiveTolerated(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	vectors := binaryVectors(3)
	// A 3-process check needs far more than 4 configurations, so every
	// candidate that reaches the model checker blows this limit — unless
	// an early vector refutes it inside the budget.
	rep, err := enumerate.FalsifyDAC(f, 3, vectors, enumerate.SweepOptions{
		MaxStatesPerCandidate: 4,
	})
	if err != nil {
		t.Fatalf("state-limited sweep aborted: %v", err)
	}
	if len(rep.Inconclusive) == 0 {
		t.Fatal("no inconclusive candidates recorded at MaxStatesPerCandidate=4")
	}
	if rep.Candidates == 0 {
		t.Fatal("sweep checked no candidates")
	}
	for i, inc := range rep.Inconclusive {
		if len(inc.Inputs) != 3 {
			t.Fatalf("inconclusive[%d] has inputs %v, want a 3-vector", i, inc.Inputs)
		}
		if len(inc.Assignment.Shapes) != 2 {
			t.Fatalf("inconclusive[%d] has %d shapes, want 2", i, len(inc.Assignment.Shapes))
		}
	}
	if len(rep.Solvers) != 0 {
		t.Errorf("state-limited candidates leaked into Solvers: %v", rep.Solvers)
	}

	// The same sweep with a generous limit settles every candidate.
	full, err := enumerate.FalsifyDAC(f, 3, vectors, enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Inconclusive) != 0 {
		t.Errorf("%d inconclusive candidates at the default limit", len(full.Inconclusive))
	}
	if full.Candidates != rep.Candidates {
		t.Errorf("candidate counts differ: %d (limited) vs %d (full)", rep.Candidates, full.Candidates)
	}
}

// TestInconclusiveDeterminism: the inconclusive list is also
// aggregation-order independent.
func TestInconclusiveDeterminism(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	vectors := binaryVectors(3)
	opts := func(w int) enumerate.SweepOptions {
		return enumerate.SweepOptions{MaxStatesPerCandidate: 4, Workers: w}
	}
	seq, err := enumerate.FalsifyDAC(f, 3, vectors, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := enumerate.FalsifyDAC(f, 3, vectors, opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("inconclusive-heavy reports differ between workers=1 and workers=8")
	}
}

// TestProgressCallback checks the progress stream: serialized calls,
// nondecreasing counters, and a final snapshot that agrees with the
// returned Report.
func TestProgressCallback(t *testing.T) {
	t.Parallel()
	f := theorem42Family(1)
	var snaps []enumerate.Progress
	rep, err := enumerate.FalsifySymmetric(f, task.Consensus{N: 2}, binaryVectors(2),
		enumerate.SweepOptions{
			Workers: 4,
			// The callback is serialized by the sweep, so plain appends
			// are safe even at Workers > 1.
			OnProgress: func(p enumerate.Progress) { snaps = append(snaps, p) },
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != rep.Candidates {
		t.Fatalf("%d progress calls for %d candidates", len(snaps), rep.Candidates)
	}
	for i := 1; i < len(snaps); i++ {
		prev, cur := snaps[i-1], snaps[i]
		if cur.Candidates != prev.Candidates+1 {
			t.Fatalf("snapshot %d: candidates %d after %d", i, cur.Candidates, prev.Candidates)
		}
		if cur.Inconclusive < prev.Inconclusive || cur.States < prev.States {
			t.Fatalf("snapshot %d not monotone: %+v after %+v", i, cur, prev)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Candidates != rep.Candidates || last.Inconclusive != len(rep.Inconclusive) ||
		last.States != rep.States || last.Pruned != rep.Pruned {
		t.Fatalf("final snapshot %+v disagrees with report (%d candidates, %d inconclusive, %d states, %d pruned)",
			last, rep.Candidates, len(rep.Inconclusive), rep.States, rep.Pruned)
	}
}

// TestSweepHoldsOneFailure checks that a sweep keeps only the failure
// it reports: after E3's depth-2 sweep (Theorem 4.2's family, n=3, every
// binary vector), in which every candidate is refuted, exactly one
// outcome holds a failure at Workers 1 and 4, and CheckRange's report,
// sample failure and witness included, renders to the pinned digest.
func TestSweepHoldsOneFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("E3 depth-2 sweep")
	}
	t.Parallel()
	p, err := enumerate.PrepareDAC(theorem42Family(2), 3, enumerate.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vectors := binaryVectors(3)
	for _, w := range []int{1, 4} {
		opts := enumerate.SweepOptions{Workers: w}
		held, err := enumerate.HeldFailures(p, 0, p.Candidates(), vectors, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if held != 1 {
			t.Errorf("workers=%d: %d outcomes hold a failure, want 1", w, held)
		}
		rep, err := p.CheckRange(0, p.Candidates(), vectors, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if rep.SampleFailure == nil || rep.SampleFailure.Index != 0 {
			t.Fatalf("workers=%d: sample failure %+v, want candidate 0", w, rep.SampleFailure)
		}
		sum := sha256.Sum256([]byte(renderFull(rep)))
		const want = "9e3d5f28759cc18bb2af8d81649e947bb06388d072a418e4f37b41c5f98e2523"
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: report digest %s, want %s:\n%s", w, got, want, renderFull(rep))
		}
	}
}
