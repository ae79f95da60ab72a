// Command explore model-checks a protocol exhaustively over every
// schedule and every nondeterministic object response, mechanizing the
// bivalency technique of the paper's proofs (§§4–5): it reports safety
// and termination verdicts with concrete witness schedules, and with
// -valency it labels configurations bivalent/univalent, counts critical
// configurations, and checks the "all processes poised on one object"
// structure (Claims 4.2.7, 5.2.3).
//
// Usage:
//
//	explore -protocol alg2 -n 3 -p 1 [-inputs 1,0,0] [-valency] [-witness] [-workers N]
//	explore -protocol alg2 -n 4 -checkpoint run.ckpt [-checkpoint-every L] [-resume]
//	explore -protocol alg2 -n 7 -store ./run-store:1.5GB
//	explore -protocol consensus-pacm -n 3 -m 2
//	explore -protocol partition -k 2 -m 2
//	explore -protocol naive-2sa -procs 2
//	explore -protocol oversub -m 2
//	explore -protocol dac-attempt -n 2 -p 1
//	explore -asm prog.s -objects consensus:2,register -task consensus -procs 2
//
// Named protocols: alg2, alg2-upset, alg2-pacm, consensus-pacm,
// consensus-direct, consensus-queue, consensus-tas, partition,
// partition-on, kset-sa, kset-oprime, kset-oprime-base, chaudhuri,
// naive-2sa, oversub, dac-attempt.
//
// Exit status: 0 solved, 1 refuted, 2 usage or internal error, 3
// inconclusive (the -max-states cap was hit; the partial exploration
// counts, elapsed wall time, and states/sec are printed), 4
// interrupted (SIGINT/SIGTERM landed mid-search; the same partial
// counts are printed, and with -checkpoint a final snapshot is
// written first so the run can continue with -resume).
//
// Durable runs: -checkpoint <file> snapshots the search at BFS level
// boundaries (cadence -checkpoint-every, default every level) with an
// atomic temp+fsync+rename write, and -resume restores it — the
// resumed run's report, witnesses, valency labels, and DOT output are
// byte-identical to an uninterrupted run, at any -workers setting.
// Snapshots embed a fingerprint of the system, task, inputs, and
// analysis options; a -resume against a different instance is
// rejected. The -events stream of a resumed CLI run starts fresh
// (run.start, then events from the restored level on); the
// byte-continuous event stream across kills is the dacd daemon's job.
// See EXPERIMENTS.md "Durable runs" for the container format.
//
// Out-of-core runs: -store <dir>[:<budget>] keeps the configuration
// store's append-only arenas in mmap'd files under dir instead of on
// the heap; either way only the active BFS frontier stays hot. An
// optional budget (e.g. 1.5GB) bounds the live heap, aborting at a
// level barrier with a final checkpoint when exceeded. Reports,
// witnesses, valency labels, DOT output, and event streams are
// byte-identical to a run without -store. See EXPERIMENTS.md
// "Out-of-core exploration".
//
// Exploration runs a level-synchronized parallel BFS; -workers sets
// the goroutine count (default GOMAXPROCS) and every report, witness
// schedule, valency label, and DOT file is byte-identical at any
// setting. Systems are capped at 64 processes (the Stepped bitmask).
//
// -symmetry ids|values interns one canonical representative per orbit
// of the admissible process (and, for values, input-value) permutation
// group: verdicts are identical to an unreduced run and witnesses stay
// concrete, but the state graph shrinks by up to the group order.
// Incompatible requests are rejected up front: systems whose objects
// or task admit no symmetry (ErrNotSymmetric), and -valency with
// -symmetry values, -adversary, or resilience-bounded liveness under
// any reduction (ErrSymmetryUnsupported).
//
// Observability (shared with every cmd tool; see EXPERIMENTS.md
// "Reading run reports"): -metrics <file> writes the final run-report
// JSON, -events <file> streams JSONL events (explore.heartbeat while
// the search runs, explore.done / explore.statelimit / explore.error
// at the end, all carrying a "workers" field), -cpuprofile /
// -memprofile write pprof profiles.
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
	"setagree/cmd/internal/protobuild"
	"setagree/internal/explore"
	"setagree/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	pb        protobuild.Config
	valency   bool
	adversary bool
	witness   bool
	annotate  bool
	maxStates int
	workers   int
	symmetry  string
	dotFile   string
	storeFlag string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.pb.Protocol, "protocol", "", "named protocol (see doc)")
	fs.StringVar(&c.pb.Asm, "asm", "", "assembly file: one symmetric program for all processes")
	fs.StringVar(&c.pb.Objects, "objects", "", "object list for -asm, e.g. consensus:2,register,2sa")
	fs.StringVar(&c.pb.Task, "task", "", "task for -asm: consensus | kset:K | dac")
	fs.StringVar(&c.pb.Inputs, "inputs", "", "comma-separated inputs (default: task-appropriate)")
	fs.IntVar(&c.pb.N, "n", 3, "n parameter (processes / PAC labels)")
	fs.IntVar(&c.pb.M, "m", 2, "m parameter (consensus width)")
	fs.IntVar(&c.pb.K, "k", 2, "k parameter (agreement bound)")
	fs.IntVar(&c.pb.P, "p", 1, "distinguished process (1-based, DAC protocols)")
	fs.IntVar(&c.pb.Procs, "procs", 0, "process count override")
	fs.BoolVar(&c.valency, "valency", false, "compute valence labels and critical configurations")
	fs.BoolVar(&c.adversary, "adversary", false, "run the bivalence-preserving adversary (implies -valency)")
	fs.StringVar(&c.dotFile, "dot", "", "write the configuration graph (Graphviz DOT) to this file")
	fs.BoolVar(&c.annotate, "annotate", false, "replay witnesses with object-state annotations (implies -witness)")
	fs.BoolVar(&c.witness, "witness", false, "print full witness schedules")
	fs.IntVar(&c.maxStates, "max-states", 1<<21, "state cap")
	fs.IntVar(&c.workers, "workers", 0, "BFS worker goroutines (0 = GOMAXPROCS; output is byte-identical at any setting)")
	fs.StringVar(&c.symmetry, "symmetry", "off", "symmetry reduction: off | ids | values (intern orbit representatives; verdicts match -symmetry off)")
	fs.StringVar(&c.storeFlag, "store", "", "out-of-core exploration: spill the configuration store to this directory, optionally with an in-memory budget, e.g. ./run-store or ./run-store:1.5GB (output is byte-identical to a run without -store)")
	obsF := obsflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	symMode, err := explore.ParseSymmetry(c.symmetry)
	if err != nil {
		fmt.Fprintf(stderr, "explore: %v\n", err)
		return 2
	}
	storeOpts, err := store.ParseFlag(c.storeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "explore: %v\n", err)
		return 2
	}
	ck := obsF.Checkpointing()
	if err := ck.Validate(); err != nil {
		fmt.Fprintf(stderr, "explore: %v\n", err)
		return 2
	}

	prot, tsk, inputs, err := c.pb.Build()
	if err != nil {
		fmt.Fprintf(stderr, "explore: %v\n", err)
		return 2
	}
	sys, err := prot.System(inputs)
	if err != nil {
		fmt.Fprintf(stderr, "explore: %v\n", err)
		return 2
	}
	sess, err := obsflags.Start("explore", obsF, args)
	if err != nil {
		fmt.Fprintf(stderr, "explore: %v\n", err)
		return 2
	}
	defer sess.CloseTo(stderr)

	if c.adversary {
		c.valency = true
	}
	fmt.Fprintf(stdout, "protocol: %s\n", prot.Name)
	fmt.Fprintf(stdout, "task:     %s, inputs %v\n", tsk.Name(), inputs)
	// SIGINT/SIGTERM cancel the context; the explorer notices at the
	// next level barrier, writes a final checkpoint (when -checkpoint
	// is set), flushes its counters, and returns the partial report.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opts := explore.Options{
		Valency:   c.valency,
		MaxStates: c.maxStates,
		Workers:   c.workers,
		Symmetry:  symMode,
		Obs:       sess.Sink,
		Events:    sess.Events,
		Ctx:       ctx,
		Store:     storeOpts,
		Checkpoint: explore.CheckpointOptions{
			Path:        ck.Path,
			EveryLevels: ck.EveryLevels,
		},
	}
	start := time.Now()
	var rep *explore.Report
	// Close releases the store's arena files (no-op without -store)
	// after every report artifact — witnesses, valency, DOT — has been
	// rendered.
	defer func() {
		if rep != nil {
			rep.Close()
		}
	}()
	if ck.Resume {
		rep, err = explore.Resume(ck.Path, sys, tsk, opts)
	} else {
		rep, err = explore.Check(sys, tsk, opts)
	}
	elapsed := time.Since(start)
	if ctxErr := ctx.Err(); ctxErr != nil && err != nil && errors.Is(err, ctxErr) {
		fmt.Fprintf(stdout, "explored: %d configurations, %d transitions (partial)\n",
			rep.States, rep.Transitions)
		fmt.Fprintf(stdout, "elapsed:  %s (%.0f states/sec)\n",
			elapsed.Round(time.Microsecond), statesPerSec(rep.States, elapsed))
		fmt.Fprintf(stdout, "verdict:  INTERRUPTED — %v\n", err)
		if ck.Path != "" {
			fmt.Fprintf(stdout, "checkpoint: final snapshot in %s — continue with -resume -checkpoint %s\n",
				ck.Path, ck.Path)
		}
		return 4
	}
	if errors.Is(err, explore.ErrStateLimit) {
		// The state-limit path prints the same timing diagnostics as a
		// completed run, so state-limit hits are tunable from the output
		// alone (how fast was the search going, how far did it get).
		fmt.Fprintf(stdout, "explored: %d configurations, %d transitions (partial)\n",
			rep.States, rep.Transitions)
		fmt.Fprintf(stdout, "elapsed:  %s (%.0f states/sec)\n",
			elapsed.Round(time.Microsecond), statesPerSec(rep.States, elapsed))
		fmt.Fprintf(stdout, "verdict:  INCONCLUSIVE — %v (raise -max-states)\n", err)
		return 3
	}
	if err != nil {
		fmt.Fprintf(stderr, "explore: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "explored: %d configurations, %d transitions, %d quiescent\n",
		rep.States, rep.Transitions, rep.Quiescent)
	if symMode != explore.SymmetryOff {
		fmt.Fprintf(stdout, "symmetry: %s (group order %d) — counts are orbit representatives of %d configurations, %d transitions\n",
			symMode, rep.SymmetryGroupOrder(), rep.UnreducedStates, rep.UnreducedTransitions)
	}
	fmt.Fprintf(stdout, "elapsed:  %s (%.0f states/sec)\n",
		elapsed.Round(time.Microsecond), statesPerSec(rep.States, elapsed))

	if rep.Solved() {
		fmt.Fprintln(stdout, "verdict:  SOLVED — all safety and termination properties hold on every schedule")
	} else {
		fmt.Fprintf(stdout, "verdict:  REFUTED — %d violation(s)\n", len(rep.Violations))
		for i, v := range rep.Violations {
			fmt.Fprintf(stdout, "  [%d] %s\n", i+1, v.Error())
			if c.annotate {
				fresh, err := prot.System(inputs)
				if err != nil {
					fmt.Fprintf(stderr, "explore: %v\n", err)
					return 2
				}
				full := append(append([]explore.Step(nil), v.Witness...), v.Cycle...)
				if err := explore.AnnotateSchedule(stdout, fresh, full); err != nil {
					fmt.Fprintf(stderr, "explore: annotate: %v\n", err)
					return 2
				}
				continue
			}
			if c.witness {
				for _, s := range v.Witness {
					fmt.Fprintf(stdout, "        %s\n", s)
				}
				if len(v.Cycle) > 0 {
					fmt.Fprintln(stdout, "      cycle (repeats forever):")
					for _, s := range v.Cycle {
						fmt.Fprintf(stdout, "        %s\n", s)
					}
				}
			} else {
				fmt.Fprintf(stdout, "      witness: %d steps", len(v.Witness))
				if len(v.Cycle) > 0 {
					fmt.Fprintf(stdout, " + %d-step cycle", len(v.Cycle))
				}
				fmt.Fprintln(stdout, "  (-witness to print)")
			}
		}
	}

	if rep.Valency != nil {
		v := rep.Valency
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "valency:  initial configuration is %s\n", v.Initial)
		fmt.Fprintf(stdout, "          %d bivalent, %d 0-valent, %d 1-valent, %d null-valent\n",
			v.Bivalent, v.Univalent0, v.Univalent1, v.Null)
		fmt.Fprintf(stdout, "critical: %d critical configuration(s); %d with every process poised on one object\n",
			v.CriticalCount, v.CriticalSameObject)
		for i, cc := range v.Critical {
			if i >= 4 && !c.witness {
				fmt.Fprintf(stdout, "          ... (%d more)\n", len(v.Critical)-i)
				break
			}
			obj := "mixed objects"
			if cc.SameObject {
				obj = "all poised on " + cc.ObjectName
			}
			fmt.Fprintf(stdout, "  config #%d after %d steps: %s\n", cc.ID, len(cc.Schedule), obj)
		}
	}
	if c.adversary {
		adv, err := rep.Adversary()
		if err != nil {
			fmt.Fprintf(stderr, "explore: adversary: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout)
		if adv.KeepsBivalentForever() {
			fmt.Fprintf(stdout, "adversary: the protocol can be kept BIVALENT FOREVER — after %d steps, repeat:\n",
				len(adv.Schedule))
			for _, s := range adv.Cycle {
				fmt.Fprintf(stdout, "  %s\n", s)
			}
		} else {
			fmt.Fprintf(stdout, "adversary: forced to a critical configuration (id %d) after %d steps\n",
				adv.CriticalID, len(adv.Schedule))
			if c.witness {
				for _, s := range adv.Schedule {
					fmt.Fprintf(stdout, "  %s\n", s)
				}
			}
		}
	}
	if c.dotFile != "" {
		f, err := os.Create(c.dotFile)
		if err != nil {
			fmt.Fprintf(stderr, "explore: %v\n", err)
			return 2
		}
		writeErr := rep.WriteDOT(f, 512)
		if closeErr := f.Close(); writeErr == nil {
			writeErr = closeErr
		}
		if writeErr != nil {
			fmt.Fprintf(stderr, "explore: %v\n", writeErr)
			return 2
		}
		fmt.Fprintf(stdout, "wrote configuration graph to %s\n", c.dotFile)
	}
	if rep.Solved() {
		return 0
	}
	return 1
}

// statesPerSec computes exploration throughput, 0 on a degenerate
// elapsed time.
func statesPerSec(states int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(states) / elapsed.Seconds()
}
