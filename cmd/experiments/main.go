// Command experiments runs the reproduction's theorem-by-theorem
// experiment suite (the model-checked rows of EXPERIMENTS.md) in one
// shot and prints a verdict table: every positive claim is verified
// exhaustively on its small instances, and every impossibility claim's
// bounded-family falsification reports zero solvers.
//
// Usage:
//
//	experiments [-quick] [-v] [-workers N] [-symmetry off|ids|values]
//	            [-memo=false]
//	            [-metrics out.json] [-events out.jsonl]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	            [-checkpoint run.ckpt [-checkpoint-every L]]
//
// -quick trims the heavier rows (depth-2 sweeps, n >= 5 state spaces).
// -workers sets the goroutine count for the falsification sweeps
// (default: GOMAXPROCS); verdicts are identical at every setting.
// -memo=false disables cross-candidate memoization in the sweeps (an
// ablation knob: reports are byte-identical either way, only the rate
// changes; time the sweeps with bash benchmark/run.sh --workload
// sweep-e3).
// -symmetry ids|values model-checks on the symmetry-reduced
// configuration graph (verdicts are unchanged; rows whose system or
// analysis rejects the reduction fall back to unreduced and say so —
// E11's adversary row always runs unreduced).
// With -v the sweeps additionally report live progress. -metrics
// writes a run-report JSON aggregating every row's explore.* and
// sweep.* counters with throughput rates; -events streams one
// experiment.row event per finished row plus the engines' heartbeat
// and summary events (see EXPERIMENTS.md "Reading run reports").
//
// SIGINT/SIGTERM interrupt the suite cleanly: the in-flight engine
// stops at its next barrier, the finished rows print as a partial
// verdict table (the interrupted row shows INT), and the tool exits 4.
// With -checkpoint <file> an interrupted model-check row writes a
// final snapshot there — resume that single exploration with
// explore -resume -checkpoint <file>. (Falsification sweeps are not
// checkpointed: their synthesized candidates are tiny and have no
// explore-CLI spelling.) -resume itself is rejected: each row is a
// fresh exploration, so there is nothing suite-level to restore.
//
// Exit status: 0 iff every experiment matches the paper's claim, 1 if
// any row FAILs, 2 on usage or internal error, 4 if interrupted
// (partial table printed; matches cmd/explore's convention, alongside
// its INCONCLUSIVE exit 3).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"setagree/cmd/internal/obsflags"
	"setagree/internal/core"
	"setagree/internal/enumerate"
	"setagree/internal/explore"
	"setagree/internal/objects"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// row is one experiment outcome.
type row struct {
	id          string
	claim       string
	instance    string
	detail      string
	ok          bool
	interrupted bool
	elapsed     time.Duration
}

type runner struct {
	rows      []row
	quick     bool
	verbose   bool
	workers   int
	memo      bool
	symmetry  explore.Symmetry
	out       io.Writer
	sink      *obs.Sink
	events    *obs.Emitter
	ctx       context.Context
	ckpt      string // -checkpoint: interrupt-snapshot path for the in-flight exploration
	ckptEvery int
}

// stopped reports whether the suite was interrupted; row functions
// check it before starting (and between) experiments so cancellation
// stops the suite at the next row boundary.
func (r *runner) stopped() bool {
	return r.ctx.Err() != nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "trim the heavier experiments")
	verbose := fs.Bool("v", false, "print each row as it finishes, with sweep progress")
	workers := fs.Int("workers", 0, "worker goroutines per falsification sweep (default GOMAXPROCS)")
	memo := fs.Bool("memo", true, "cross-candidate memoization in the falsification sweeps (reports are byte-identical either way)")
	symmetry := fs.String("symmetry", "off", "symmetry reduction for the model checks: off | ids | values (rows whose system rejects it fall back to unreduced)")
	obsF := obsflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	symMode, err := explore.ParseSymmetry(*symmetry)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	ck := obsF.Checkpointing()
	if ck.Resume {
		fmt.Fprintln(stderr, "experiments: -resume is not supported: each row is a fresh exploration; resume an interrupted row with explore -resume -checkpoint <file>")
		return 2
	}
	if err := ck.Validate(); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	sess, err := obsflags.Start("experiments", obsF, args)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	defer sess.CloseTo(stderr)
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	r := &runner{
		quick:     *quick,
		verbose:   *verbose,
		workers:   *workers,
		memo:      *memo,
		symmetry:  symMode,
		out:       stdout,
		sink:      sess.Sink,
		events:    sess.Events,
		ctx:       ctx,
		ckpt:      ck.Path,
		ckptEvery: ck.EveryLevels,
	}

	r.e2Algorithm2()
	r.e3Falsification()
	r.e5PACMLevel()
	r.e7SamePower()
	r.e8Theorem71()
	r.e10Hierarchy()
	r.e11Valency()
	r.e13Chaudhuri()
	r.e16Collections()

	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "%-4s %-7s %-52s %-30s %s\n", "id", "verdict", "claim", "instance", "detail")
	allOK := true
	var total time.Duration
	for _, row := range r.rows {
		verdict := "MATCH"
		switch {
		case row.interrupted:
			verdict = "INT"
		case !row.ok:
			verdict = "FAIL"
			allOK = false
		}
		fmt.Fprintf(stdout, "%-4s %-7s %-52s %-30s %s\n", row.id, verdict, row.claim, row.instance, row.detail)
		total += row.elapsed
	}
	fmt.Fprintf(stdout, "\n%d experiments in %s\n", len(r.rows), total.Round(time.Millisecond))
	if r.stopped() {
		fmt.Fprintln(stderr, "experiments: interrupted — the table above is partial")
		if r.ckpt != "" {
			// Sweeps don't checkpoint (their synthesized candidates are
			// tiny and not expressible to the explore CLI), so the file
			// only exists when the signal landed in a model-check row.
			if _, statErr := os.Stat(r.ckpt); statErr == nil {
				fmt.Fprintf(stderr, "experiments: the interrupted exploration's snapshot is in %s (resume it with explore -resume -checkpoint %s)\n", r.ckpt, r.ckpt)
			} else {
				fmt.Fprintf(stderr, "experiments: no snapshot in %s — the signal landed outside a model-check row\n", r.ckpt)
			}
		}
		if !allOK {
			fmt.Fprintln(stderr, "experiments: some completed rows FAILED")
		}
		return 4
	}
	if !allOK {
		fmt.Fprintln(stderr, "experiments: some rows FAILED")
		return 1
	}
	fmt.Fprintln(stdout, "every experiment matches the paper's claim")
	return 0
}

func (r *runner) add(id, claim, instance string, ok bool, detail string, elapsed time.Duration) {
	// A not-ok row recorded after cancellation is the in-flight
	// experiment the signal stopped, not a refutation of the claim:
	// row functions return at the next boundary once stopped, so no
	// genuinely-failed row can land here after the interrupt.
	interrupted := !ok && r.stopped()
	r.rows = append(r.rows, row{id: id, claim: claim, instance: instance, ok: ok, interrupted: interrupted, detail: detail, elapsed: elapsed})
	r.sink.Counter("experiments.rows").Inc()
	if !ok && !interrupted {
		r.sink.Counter("experiments.failed").Inc()
	}
	r.events.Emit("experiment.row", obs.Fields{
		"id":         id,
		"claim":      claim,
		"instance":   instance,
		"ok":         ok,
		"detail":     detail,
		"elapsed_ns": elapsed.Nanoseconds(),
	})
	if r.verbose {
		fmt.Fprintf(r.out, "[%s] %s — %s: ok=%v (%s; %s)\n", id, claim, instance, ok, detail, elapsed.Round(time.Millisecond))
	}
}

// checkSolved model-checks a protocol and reports solved + state count,
// feeding the run's metrics sink and event stream when enabled. The
// -symmetry mode is applied per row; rows whose system rejects the
// reduction (asymmetric objects, or an analysis the quotient does not
// support) are transparently re-checked unreduced — the verdict is
// exact either way.
func (r *runner) checkSolved(prot programs.Protocol, tsk task.Task, inputs []value.Value, opts explore.Options) (bool, string, error) {
	sys, err := prot.System(inputs)
	if err != nil {
		return false, "", err
	}
	opts.Obs = r.sink
	opts.Events = r.events
	opts.Symmetry = r.symmetry
	opts.Ctx = r.ctx
	if r.ckpt != "" {
		// The suite's -checkpoint is an interrupt-snapshot path, not a
		// resume point: rows share the file, so by default nothing is
		// written until a signal lands and the in-flight exploration
		// snapshots its final state for explore -resume. An explicit
		// -checkpoint-every turns periodic snapshots back on.
		every := r.ckptEvery
		if every == 0 {
			every = 1 << 30
		}
		opts.Checkpoint = explore.CheckpointOptions{Path: r.ckpt, EveryLevels: every}
	}
	rep, err := explore.Check(sys, tsk, opts)
	suffix := ""
	if opts.Symmetry != explore.SymmetryOff {
		if errors.Is(err, explore.ErrNotSymmetric) || errors.Is(err, explore.ErrSymmetryUnsupported) {
			fresh, sysErr := prot.System(inputs)
			if sysErr != nil {
				return false, "", sysErr
			}
			opts.Symmetry = explore.SymmetryOff
			rep, err = explore.Check(fresh, tsk, opts)
			suffix = "; symmetry n/a"
		} else if err == nil {
			suffix = fmt.Sprintf("; orbit reps, |G|=%d", rep.SymmetryGroupOrder())
		}
	}
	if err != nil {
		return false, "", err
	}
	detail := fmt.Sprintf("%d configs%s", rep.States, suffix)
	if !rep.Solved() {
		detail += "; " + rep.Violations[0].Error()
	}
	return rep.Solved(), detail, nil
}

func distinct(n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.Value(10 + i)
	}
	return out
}

func canonical(n int) []value.Value {
	out := make([]value.Value, n)
	out[0] = 1
	return out
}

// e2Algorithm2: Theorem 4.1 exhaustively across sizes.
func (r *runner) e2Algorithm2() {
	maxN := 5
	if r.quick {
		maxN = 4
	}
	for n := 2; n <= maxN; n++ {
		if r.stopped() {
			return
		}
		start := time.Now()
		ok, detail, err := r.checkSolved(programs.Algorithm2(n, 1), task.DAC{N: n, P: 0}, canonical(n), explore.Options{})
		if err != nil {
			detail = err.Error()
			ok = false
		}
		r.add("E2", "Thm 4.1: Algorithm 2 solves n-DAC", fmt.Sprintf("n=%d, every schedule", n), ok, detail, time.Since(start))
	}
}

// theorem42Family is the Theorem 4.2 object base {2-consensus,
// register, 2-SA} with its 4-entry invocation menu.
func theorem42Family(depth int) *enumerate.Family {
	return &enumerate.Family{
		Objects: []spec.Spec{objects.NewConsensus(2), objects.NewRegister(), objects.NewTwoSA()},
		Menu: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
			{Obj: 2, Method: value.MethodPropose, Arg: enumerate.ArgInput},
		},
		Depth: depth,
		Actions: []enumerate.Action{
			enumerate.ActDecideInput, enumerate.ActDecideLast, enumerate.ActDecideFirst,
			enumerate.ActDecideZero, enumerate.ActDecideOne, enumerate.ActRetry,
		},
	}
}

// binaryVectors returns all 2^n binary input vectors.
func binaryVectors(n int) [][]value.Value {
	var out [][]value.Value
	for mask := 0; mask < 1<<uint(n); mask++ {
		in := make([]value.Value, n)
		for i := range in {
			if mask&(1<<uint(i)) != 0 {
				in[i] = 1
			}
		}
		out = append(out, in)
	}
	return out
}

// sweepOptions wires the -workers and -memo flags and, with -v, live
// progress into a falsification sweep.
func (r *runner) sweepOptions(id string) enumerate.SweepOptions {
	opts := enumerate.SweepOptions{Workers: r.workers, Symmetry: r.symmetry, DisableMemo: !r.memo, Obs: r.sink, Events: r.events, Ctx: r.ctx}
	if r.verbose {
		opts.OnProgress = func(p enumerate.Progress) {
			if p.Candidates%1000 == 0 {
				fmt.Fprintf(r.out, "[%s] progress: %d candidates (%d pruned, %d inconclusive), %d states explored\n",
					id, p.Candidates, p.Pruned, p.Inconclusive, p.States)
			}
		}
	}
	return opts
}

// sweepVerdict folds a sweep into a row verdict: the impossibility
// claim holds only if candidates were checked, none solved the task,
// and none was left inconclusive by the state limit.
func sweepVerdict(rep *enumerate.Report, err error) (bool, string) {
	if err != nil {
		return false, err.Error()
	}
	ok := len(rep.Solvers) == 0 && len(rep.Inconclusive) == 0 && rep.Candidates > 0
	return ok, fmt.Sprintf("%d candidates, %d inconclusive, %d solvers",
		rep.Candidates, len(rep.Inconclusive), len(rep.Solvers))
}

// e3Falsification: Theorem 4.2's bounded-family sweep.
func (r *runner) e3Falsification() {
	vectors := binaryVectors(3)
	depths := []int{1}
	if !r.quick {
		depths = append(depths, 2)
	}
	for _, d := range depths {
		if r.stopped() {
			return
		}
		start := time.Now()
		rep, err := enumerate.FalsifyDAC(theorem42Family(d), 3, vectors, r.sweepOptions("E3"))
		ok, detail := sweepVerdict(rep, err)
		r.add("E3", "Thm 4.2: no 3-DAC from {2-cons, reg, 2-SA}",
			fmt.Sprintf("depth-%d family", d), ok, detail, time.Since(start))
	}
}

// e5PACMLevel: Theorem 5.3's positive half, plus the Theorem 5.2
// negative shape at family scale: no depth-1 candidate over the level-2
// base solves 3-consensus.
func (r *runner) e5PACMLevel() {
	for _, m := range []int{2, 3} {
		if r.stopped() {
			return
		}
		start := time.Now()
		ok, detail, err := r.checkSolved(programs.ConsensusFromPACM(m+1, m, m),
			task.Consensus{N: m}, distinct(m), explore.Options{})
		if err != nil {
			detail = err.Error()
			ok = false
		}
		r.add("E5", "Thm 5.3: (n,m)-PAC solves m-consensus", fmt.Sprintf("m=%d", m), ok, detail, time.Since(start))
	}

	if r.stopped() {
		return
	}
	start := time.Now()
	rep, err := enumerate.FalsifySymmetric(theorem42Family(1), task.Consensus{N: 3},
		binaryVectors(3), r.sweepOptions("E5"))
	ok, detail := sweepVerdict(rep, err)
	r.add("E5", "Thm 5.2 (-): no 3-consensus at level 2", "depth-1 family", ok, detail, time.Since(start))
}

// e7SamePower: Corollary 6.6's positive halves (n = 2, k = 1..2).
func (r *runner) e7SamePower() {
	const n = 2
	for k := 1; k <= 2; k++ {
		procs := k * n
		tsk := task.KSetAgreement{N: procs, K: k}
		variants := []struct {
			label string
			prot  programs.Protocol
		}{
			{"O'_2 (abstract)", programs.KSetFromOPrime(core.NewOPrime(n, nil), k, procs)},
			{"O'_2 per Lemma 6.4", programs.KSetFromOPrimeBase(n, k, procs)},
		}
		if k == 1 {
			variants = append(variants, struct {
				label string
				prot  programs.Protocol
			}{"O_2 consensus face", programs.ConsensusFromPACM(n+1, n, procs)})
		} else {
			variants = append(variants, struct {
				label string
				prot  programs.Protocol
			}{"O_2 partition", programs.PartitionObjectO(k, n)})
		}
		for _, v := range variants {
			if r.stopped() {
				return
			}
			start := time.Now()
			ok, detail, err := r.checkSolved(v.prot, tsk, distinct(procs), explore.Options{})
			if err != nil {
				detail = err.Error()
				ok = false
			}
			r.add("E7", "Cor 6.6: O_n and O'_n share their tasks",
				fmt.Sprintf("k=%d via %s", k, v.label), ok, detail, time.Since(start))
		}
	}
}

// theorem71Family is the Theorem 7.1 negative base {2-consensus,
// register} with its 3-entry menu — the 1116-candidate sweep.
func theorem71Family() *enumerate.Family {
	return &enumerate.Family{
		Objects: []spec.Spec{objects.NewConsensus(2), objects.NewRegister()},
		Menu: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
		},
		Depth: 1,
		Actions: []enumerate.Action{
			enumerate.ActDecideInput, enumerate.ActDecideLast, enumerate.ActDecideFirst,
			enumerate.ActDecideZero, enumerate.ActDecideOne, enumerate.ActRetry,
		},
	}
}

// e8Theorem71: Observation 5.1(b) route — (n,m)-PAC solves n-DAC — and
// the unimplementability shape: no bounded-family candidate over
// {2-consensus, register} (Theorem 7.1's base without the PAC object)
// solves 3-DAC.
func (r *runner) e8Theorem71() {
	if r.stopped() {
		return
	}
	start := time.Now()
	ok, detail, err := r.checkSolved(programs.Algorithm2ViaPACM(3, 2, 1),
		task.DAC{N: 3, P: 0}, canonical(3), explore.Options{})
	if err != nil {
		detail = err.Error()
		ok = false
	}
	r.add("E8", "Thm 7.1 (+): (3,2)-PAC face solves 3-DAC", "n=3, m=2", ok, detail, time.Since(start))

	fam := theorem71Family()
	if r.stopped() {
		return
	}
	start = time.Now()
	rep, sweepErr := enumerate.FalsifyDAC(fam, 3, binaryVectors(3), r.sweepOptions("E8"))
	ok, detail = sweepVerdict(rep, sweepErr)
	r.add("E8", "Thm 7.1 (-): no 3-DAC from {2-cons, reg}", "depth-1 family", ok, detail, time.Since(start))
}

// e10Hierarchy: partition lower bounds and classic level-2 protocols.
func (r *runner) e10Hierarchy() {
	if r.stopped() {
		return
	}
	start := time.Now()
	ok, detail, err := r.checkSolved(programs.Partition(2, 2),
		task.KSetAgreement{N: 4, K: 2}, distinct(4), explore.Options{})
	if err != nil {
		detail = err.Error()
		ok = false
	}
	r.add("E10", "CR formula (+): k groups give (km,k)-SA", "k=2, m=2", ok, detail, time.Since(start))

	if r.stopped() {
		return
	}
	start = time.Now()
	ok, detail, err = r.checkSolved(programs.ConsensusFromQueue(),
		task.Consensus{N: 2}, []value.Value{3, 4}, explore.Options{})
	if err != nil {
		detail = err.Error()
		ok = false
	}
	r.add("E10", "Herlihy: queue is at level >= 2", "one-token queue", ok, detail, time.Since(start))
}

// e11Valency: the proof-technique artifacts.
func (r *runner) e11Valency() {
	if r.stopped() {
		return
	}
	start := time.Now()
	prot := programs.Algorithm2(3, 1)
	sys, err := prot.System(canonical(3))
	if err != nil {
		r.add("E11", "Claims 4.2.4-7: valency structure", "n=3", false, err.Error(), time.Since(start))
		return
	}
	// Deliberately unreduced regardless of -symmetry: this row drives the
	// bivalence-preserving adversary, which walks the concrete graph.
	rep, err := explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{Valency: true, Obs: r.sink, Events: r.events})
	if err != nil {
		r.add("E11", "Claims 4.2.4-7: valency structure", "n=3", false, err.Error(), time.Since(start))
		return
	}
	v := rep.Valency
	ok := v.Initial.Bivalent() && v.CriticalCount > 0 && v.CriticalSameObject == v.CriticalCount
	detail := fmt.Sprintf("initial %s; %d critical, %d single-object",
		v.Initial, v.CriticalCount, v.CriticalSameObject)
	adv, advErr := rep.Adversary()
	if advErr != nil || !adv.KeepsBivalentForever() {
		ok = false
		detail += "; adversary failed to stay bivalent"
	} else {
		detail += fmt.Sprintf("; adversary cycles after %d steps", len(adv.Schedule))
	}
	r.add("E11", "Claims 4.2.4-7: valency structure", "Algorithm 2, n=3", ok, detail, time.Since(start))
}

// e13Chaudhuri: the resilience boundary.
func (r *runner) e13Chaudhuri() {
	const n, k = 3, 2
	if r.stopped() {
		return
	}
	start := time.Now()
	ok, detail, err := r.checkSolved(programs.ChaudhuriKSet(n, k),
		task.ResilientKSet{N: n, K: k, F: k - 1}, distinct(n), explore.Options{})
	if err != nil {
		detail = err.Error()
		ok = false
	}
	r.add("E13", "Chaudhuri (+): f=k-1 resilient k-SA from registers", "n=3, k=2, f=1", ok, detail, time.Since(start))

	if r.stopped() {
		return
	}
	start = time.Now()
	solved, detail2, err := r.checkSolved(programs.ChaudhuriKSet(n, k),
		task.ResilientKSet{N: n, K: k, F: k}, distinct(n), explore.Options{})
	ok = err == nil && !solved // the refutation is the expected result
	if err != nil {
		detail2 = err.Error()
	}
	r.add("E13", "BG/HS/SZ (-): not f=k resilient", "n=3, k=2, f=2", ok, detail2, time.Since(start))
}
