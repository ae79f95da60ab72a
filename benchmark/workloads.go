package main

import (
	"context"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"setagree/internal/enumerate"
	"setagree/internal/explore"
	"setagree/internal/objects"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// workloads are the benchmark's pinned workloads with the exact work
// every unit must repeat. README.md gives the reason for each.
var workloads = []workloadDef{
	{
		name: "explore-n7",
		want: counts{"solved": 1, "states": 263312, "transitions": 1400206, "quiescent": 3, "group_order": 1},
		make: func(cfg config) workload { return &exploreWorkload{seed: cfg.seed, sym: explore.SymmetryOff} },
	},
	{
		name: "explore-n7-ids",
		want: counts{"solved": 1, "states": 2260, "transitions": 11861, "quiescent": 3, "group_order": 720},
		make: func(cfg config) workload { return &exploreWorkload{seed: cfg.seed, sym: explore.SymmetryIDs} },
	},
	{
		name: "sweep-e3",
		want: counts{
			"candidates": 47908, "pruned": 889, "solvers": 0, "inconclusive": 0,
			"sweep.refuted": 47908, "sweep.states": 4511934,
			"explore.states": 583404, "explore.runs": 9456, "sweep.memo_hits": 75180,
			"sweep.dedup_candidates": 40804, "sweep.fork_states_saved": 37696,
		},
		make: func(config) workload { return &sweepWorkload{} },
	},
	{
		name: "dacd-jobs",
		want: counts{"solved": 1, "states": 7772, "transitions": 28762, "quiescent": 3},
		make: func(cfg config) workload { return newDacdWorkload(cfg) },
	},
}

// dacInputs is the n-DAC input vector the explore CLI defaults to (1 for
// the distinguished process, 0 for the others), with 0 and 1 swapped
// for odd seeds. Algorithm 2 treats the two values alike, so both
// labellings give isomorphic graphs and the same exact counts.
func dacInputs(n int, seed int64) []value.Value {
	in := make([]value.Value, n)
	for i := range in {
		if (i == 0) != (seed%2 != 0) {
			in[i] = 1
		}
	}
	return in
}

// unitPeaks starts every in-process unit from an empty heap, as a CLI
// invocation does, and records each unit's peak RSS: the heap is
// collected and returned to the OS, and the kernel's high-water mark is
// reset, before a unit and read after it.
type unitPeaks struct {
	peaks   []float64
	pending bool // a unit ran since the last reset
}

// start ends the previous unit's measurement and prepares the next unit.
func (p *unitPeaks) start() {
	p.stop()
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS.
	p.pending = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

func (p *unitPeaks) stop() {
	if !p.pending {
		return
	}
	p.pending = false
	if mb, err := peakRSSMB(os.Getpid()); err == nil {
		p.peaks = append(p.peaks, mb)
	}
}

// median is the median of the units' peaks, or the process's lifetime
// peak where the high-water mark cannot be reset.
func (p *unitPeaks) median() (float64, error) {
	p.stop()
	if len(p.peaks) == 0 {
		return peakRSSMB(os.Getpid())
	}
	return median(p.peaks), nil
}

// exploreWorkload model-checks Algorithm 2 at n=7 in memory with
// explore.Check at Workers 1.
type exploreWorkload struct {
	unitPeaks
	seed int64
	sym  explore.Symmetry
	prot programs.Protocol
}

func (w *exploreWorkload) setUp(context.Context) error {
	w.prot = programs.Algorithm2(7, 1)
	return nil
}

func (w *exploreWorkload) tearDown() error {
	w.prot = programs.Protocol{}
	return nil
}

func (w *exploreWorkload) cpu() (time.Duration, error) { return ownCPU() }

func (w *exploreWorkload) beforeUnit() { w.start() }

func (w *exploreWorkload) unit(ctx context.Context, tr *trace) (counts, error) {
	tr.begin("explore.build")
	sys, err := w.prot.System(dacInputs(7, w.seed))
	tr.end()
	if err != nil {
		return nil, err
	}
	opts := explore.Options{Workers: 1, Symmetry: w.sym, Ctx: ctx}
	var before, after runtime.MemStats
	if tr != nil {
		opts.Obs = obs.NewSink()
		runtime.ReadMemStats(&before)
	}
	tr.begin("explore.check")
	rep, err := explore.Check(sys, task.DAC{N: 7, P: 0}, opts)
	tr.end()
	if err != nil {
		rep.Close()
		return nil, err
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
		states := float64(rep.States)
		snap := opts.Obs.Snapshot()
		levels := snap.Histograms["explore.level_ns"]
		tr.sample("explore.states_per_s", states/tr.durationOf("explore.check").Seconds())
		tr.sample("explore.allocs_per_state", float64(after.Mallocs-before.Mallocs)/states)
		tr.sample("explore.bytes_per_state", float64(after.TotalAlloc-before.TotalAlloc)/states)
		tr.sample("explore.gc_cycles", float64(after.NumGC-before.NumGC))
		tr.sample("explore.gc_pause_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e9)
		tr.sample("explore.levels", float64(levels.Count))
		tr.sample("explore.level_ns_p50", float64(levels.P50))
		tr.sample("explore.level_ns_p99", float64(levels.P99))
		tr.sample("explore.frontier_max", float64(snap.Gauges["explore.frontier_max"]))
		tr.sample("explore.symmetry_hits_per_state", float64(snap.Counters["explore.symmetry_hits"])/states)
		tr.sample("explore.orbit_size_max", float64(snap.Gauges["explore.orbit_size_max"]))
	}
	got := counts{
		"states":      int64(rep.States),
		"transitions": int64(rep.Transitions),
		"quiescent":   int64(rep.Quiescent),
		"group_order": int64(rep.SymmetryGroupOrder()),
	}
	if rep.Solved() {
		got["solved"] = 1
	}
	tr.begin("explore.close")
	err = rep.Close()
	tr.end()
	return got, err
}

func (w *exploreWorkload) finish(bool) (float64, map[string]float64, error) {
	rss, err := w.median()
	return rss, nil, err
}

// sweepWorkload runs E3's Thm 4.2 depth-2 falsification sweep: every
// candidate 3-DAC protocol over {2-consensus, register, 2-SA}, on all
// eight binary input vectors, memo on, Workers 1. At one worker every
// counter, the memo's included, repeats exactly.
type sweepWorkload struct {
	unitPeaks
	family  *enumerate.Family
	vectors [][]value.Value
}

func (w *sweepWorkload) setUp(context.Context) error {
	w.family = &enumerate.Family{
		Objects: []spec.Spec{objects.NewConsensus(2), objects.NewRegister(), objects.NewTwoSA()},
		Menu: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
			{Obj: 2, Method: value.MethodPropose, Arg: enumerate.ArgInput},
		},
		Depth: 2,
		Actions: []enumerate.Action{
			enumerate.ActDecideInput, enumerate.ActDecideLast, enumerate.ActDecideFirst,
			enumerate.ActDecideZero, enumerate.ActDecideOne, enumerate.ActRetry,
		},
	}
	w.vectors = nil
	for mask := 0; mask < 8; mask++ {
		w.vectors = append(w.vectors, []value.Value{value.Value(mask & 1), value.Value(mask >> 1 & 1), value.Value(mask >> 2 & 1)})
	}
	return nil
}

func (w *sweepWorkload) tearDown() error {
	w.family, w.vectors = nil, nil
	return nil
}

func (w *sweepWorkload) cpu() (time.Duration, error) { return ownCPU() }

func (w *sweepWorkload) beforeUnit() { w.start() }

// unit runs the sweep through FalsifyDAC, or, when traced, through
// PrepareDAC and CheckRange over every candidate, which is the same
// work split at the layer boundary.
func (w *sweepWorkload) unit(ctx context.Context, tr *trace) (counts, error) {
	sink := obs.NewSink()
	opts := enumerate.SweepOptions{Workers: 1, Obs: sink, Ctx: ctx}
	got := counts{}
	if tr == nil {
		rep, err := enumerate.FalsifyDAC(w.family, 3, w.vectors, opts)
		if err != nil {
			return nil, err
		}
		got["candidates"], got["pruned"] = int64(rep.Candidates), int64(rep.Pruned)
		got["solvers"], got["inconclusive"] = int64(len(rep.Solvers)), int64(len(rep.Inconclusive))
		got["sweep.states"] = int64(rep.States)
	} else {
		tr.begin("enumerate.prepare")
		p, err := enumerate.PrepareDAC(w.family, 3, opts)
		tr.end()
		if err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.begin("enumerate.check_range")
		rr, err := p.CheckRange(0, p.Candidates(), w.vectors, opts)
		tr.end()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		got["candidates"], got["pruned"] = int64(p.Candidates()), int64(p.Pruned())
		got["solvers"], got["inconclusive"] = int64(len(rr.Solvers)), int64(len(rr.Inconclusive))
		got["sweep.states"] = int64(rr.States)
		tr.sample("enumerate.allocs_per_candidate", float64(after.Mallocs-before.Mallocs)/float64(p.Candidates()))
	}
	snap := sink.Snapshot()
	for _, name := range []string{"sweep.refuted", "explore.states", "explore.runs",
		"sweep.memo_hits", "sweep.dedup_candidates", "sweep.fork_states_saved"} {
		got[name] = snap.Counters[name]
	}
	if tr != nil {
		explored := float64(got["explore.states"])
		cand := snap.Timers["sweep.candidate"]
		tr.sample("sweep.explore_runs", float64(got["explore.runs"]))
		tr.sample("sweep.states_per_run", explored/float64(got["explore.runs"]))
		tr.sample("sweep.dedup_ratio", float64(got["sweep.dedup_candidates"])/float64(got["candidates"]))
		tr.sample("sweep.memo_hits", float64(got["sweep.memo_hits"]))
		tr.sample("sweep.fork_saved_ratio", float64(got["sweep.fork_states_saved"])/explored)
		tr.sample("sweep.explored_per_covered", explored/float64(got["sweep.states"]))
		tr.sample("sweep.candidate_s_mean", float64(cand.TotalNS)/float64(cand.Count)/1e9)
	}
	return got, nil
}

func (w *sweepWorkload) finish(bool) (float64, map[string]float64, error) {
	rss, err := w.median()
	return rss, nil, err
}
