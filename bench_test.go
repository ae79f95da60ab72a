// Benchmarks for the experiment suite of EXPERIMENTS.md. The paper has
// no empirical tables (it is a theory paper); these benches are the
// synthetic-performance experiment E12 plus one bench per experiment
// family, so every row of the experiment index is regenerable with
//
//	go test -bench=. -benchmem
package setagree_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"setagree"
	"setagree/internal/core"
	"setagree/internal/enumerate"
	"setagree/internal/explore"
	"setagree/internal/history"
	"setagree/internal/lincheck"
	"setagree/internal/objects"
	"setagree/internal/obs"
	"setagree/internal/power"
	"setagree/internal/programs"
	"setagree/internal/sim"
	"setagree/internal/spec"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/universal"
	"setagree/internal/value"
)

// --- E1: object operation throughput -------------------------------

// BenchmarkPACProposeDecide measures one propose/decide pair on an
// n-PAC object (the §3 pairing discipline), sequentially.
func BenchmarkPACProposeDecide(b *testing.B) {
	for _, n := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := setagree.NewPAC(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.Propose(1, 1); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Decide(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPACContention measures the pairing discipline under real
// goroutine contention (each goroutine uses its own label).
func BenchmarkPACContention(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			d := setagree.NewPAC(procs)
			b.ReportAllocs()
			b.SetParallelism(procs)
			var ctr int64
			var mu sync.Mutex
			label := func() int {
				mu.Lock()
				defer mu.Unlock()
				ctr++
				return int(ctr-1)%procs + 1
			}
			b.RunParallel(func(pb *testing.PB) {
				i := label()
				for pb.Next() {
					if err := d.Propose(setagree.Value(i), i); err != nil {
						b.Fatal(err)
					}
					if _, err := d.Decide(i); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkObjectOps measures a single operation on each object type.
func BenchmarkObjectOps(b *testing.B) {
	b.Run("register-write", func(b *testing.B) {
		r := setagree.NewRegister()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Write(setagree.Value(i))
		}
	})
	b.Run("consensus-propose", func(b *testing.B) {
		// Exhausted consensus objects answer ⊥ in O(1); re-use one.
		c := setagree.NewConsensus(1 << 30)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Propose(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("2sa-propose", func(b *testing.B) {
		s := setagree.NewTwoSA()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Propose(setagree.Value(i & 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pacm-proposec", func(b *testing.B) {
		o := setagree.NewPACM(4, 1<<30)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := o.ProposeC(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oprime-propose-k2", func(b *testing.B) {
		o := setagree.NewOPrime(2, core.SequenceFunc(func(int) int { return setagree.Unbounded }))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := o.Propose(setagree.Value(i&1), 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E2: Algorithm 2 ------------------------------------------------

// BenchmarkRunDACLive measures a complete live n-DAC execution
// (goroutine spawn + Algorithm 2 + join).
func BenchmarkRunDACLive(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := make([]setagree.Value, n)
			inputs[0] = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := setagree.RunDAC(n, 1, inputs, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimDAC measures one simulated Algorithm 2 run under a seeded
// random schedule (deterministic work per iteration).
func BenchmarkSimDAC(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prot := programs.Algorithm2(n, 1)
			inputs := sim.Inputs(n, 1, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := prot.System(inputs)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sys, task.DAC{N: n, P: 0}, sim.Random(uint64(i+1)),
					sim.Options{MaxSteps: 1 << 14})
				if err != nil {
					b.Fatal(err)
				}
				if res.Violation != nil {
					b.Fatal(res.Violation)
				}
			}
		})
	}
}

// BenchmarkModelCheckDAC measures exhaustive verification of Theorem
// 4.1 (the state space growth is the real measurement; states/op and
// obs-derived states/sec are reported as custom metrics). The largest
// instance adds the -workers dimension: the level-synchronized
// parallel BFS produces a byte-identical Report at every setting, so
// the workers=N rows measure pure speedup. The symmetry=MODE rows add
// the orbit-reduction dimension at workers=1: the verdict is the same,
// but the reduced rows intern orbit representatives only, so "states"
// shrinks by up to the group order while each interned state pays the
// canonicalization minimum over the group (allocs/op measures the
// per-shard key-scratch pooling).
func BenchmarkModelCheckDAC(b *testing.B) {
	workerCounts := []int{1, 2, 4}
	if max := runtime.GOMAXPROCS(0); max > 4 {
		workerCounts = append(workerCounts, max)
	}
	for _, n := range []int{2, 3, 4} {
		ws := []int{1}
		if n == 4 {
			ws = workerCounts
		}
		for _, w := range ws {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				benchModelCheckDAC(b, n, sim.Inputs(n, 1, 0), w, explore.SymmetryOff)
			})
		}
	}
	// The symmetry rows use the canonical input vector 1,0,…,0 (the
	// CLI's default), whose n-1 zero-input processes give the largest
	// admissible group; sim.Inputs' cycling vector would cut it to 2.
	canonical := make([]value.Value, 4)
	canonical[0] = 1
	for _, mode := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs} {
		b.Run(fmt.Sprintf("n=4/symmetry=%s", mode), func(b *testing.B) {
			benchModelCheckDAC(b, 4, canonical, 1, mode)
		})
	}
	// The n=7 ids row is the benchmark's explore-n7-ids unit: alg2 n=7
	// on inputs 1,0,…,0 under ids symmetry at Workers 1, a group of
	// order 720 and 2,260 orbit representatives.
	b.Run("n=7/symmetry=ids", func(b *testing.B) {
		in := make([]value.Value, 7)
		in[0] = 1
		benchModelCheckDAC(b, 7, in, 1, explore.SymmetryIDs)
	})
	// The checkpoint rows measure durable-run overhead: the same
	// exploration with snapshots written atomically to a throwaway file
	// at every level and at every 4th level. n=7 is the smallest
	// instance big enough to be representative — checkpointing exists
	// for long runs, and on tiny graphs the per-snapshot write+fsync
	// latency (~10ms here) swamps the levels between snapshots.
	// The overhead figure is the in-run ckpt_frac metric (snapshot-write
	// ns over wall time, from the explorer's own counters); the target
	// is ckpt_frac < 5% at every=4. The checkpoint=off row stays as a raw
	// ns/op reference, not the denominator of the target.
	for _, every := range []int{0, 1, 4} {
		name := "off"
		if every > 0 {
			name = fmt.Sprint(every)
		}
		every := every
		b.Run(fmt.Sprintf("n=7/checkpoint=%s", name), func(b *testing.B) {
			ckpt := explore.CheckpointOptions{}
			if every > 0 {
				ckpt = explore.CheckpointOptions{Path: b.TempDir() + "/bench.ckpt", EveryLevels: every}
			}
			benchModelCheckDACCkpt(b, 7, sim.Inputs(7, 1, 0), 1, explore.SymmetryOff, ckpt)
		})
	}
	// The store rows compare the heap-backed configuration store against
	// the directory-backed one (internal/store) on the same n=7 instance. The
	// disk row runs under a 1.5 GiB live-heap budget — exceeding it would
	// fail the row, so a passing run is itself the acceptance evidence —
	// and both rows report report_fp, an FNV-32a fingerprint of the
	// verdict counts, which must agree between the backends (full
	// byte-identity, including DOT and event streams, is pinned by
	// TestDiskStoreReportEquivalence). The spill volume shows up as
	// spilled_mb and the observed heap high-water mark as heap_max_mb.
	for _, disk := range []bool{false, true} {
		name := "mem"
		so := store.Options{}
		if disk {
			name = "disk"
			so = store.Options{Dir: b.TempDir(), Budget: 3 << 29} // 1.5 GiB
		}
		b.Run(fmt.Sprintf("n=7/store=%s", name), func(b *testing.B) {
			benchModelCheckDACStore(b, 7, sim.Inputs(7, 1, 0), so)
		})
	}
	// The obs rows measure the instrumentation tax directly: the same
	// n=7 instance with metrics disabled (nil sink — every counter,
	// gauge, and histogram handle is a nil no-op) and enabled (a live
	// sink, whose per-level explore.level_ns histogram is the heaviest
	// hook added for the dacd ops surface). Run them with -count 6 and
	// take the min ns/op per row: the on-vs-off delta must stay under
	// 2%. The on row also exports the histogram's quantiles, whose
	// plausibility (p50 > 0, p99 >= p50) TestLevelLatencyHistogram
	// checks on a small instance.
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		on := on
		b.Run(fmt.Sprintf("n=7/obs=%s", name), func(b *testing.B) {
			benchModelCheckDACObs(b, 7, sim.Inputs(7, 1, 0), on)
		})
	}
}

// benchModelCheckDACObs is the instrumentation-dimension variant: the
// exploration with and without a metrics sink attached, reporting the
// level-latency histogram when instrumented.
func benchModelCheckDACObs(b *testing.B, n int, inputs []value.Value, instrumented bool) {
	prot := programs.Algorithm2(n, 1)
	var sink *obs.Sink // nil disables every obs hook in the engine
	if instrumented {
		sink = obs.NewSink()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := prot.System(inputs)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := explore.Check(sys, task.DAC{N: n, P: 0},
			explore.Options{Obs: sink, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Solved() {
			b.Fatal(rep.Violations[0])
		}
	}
	if instrumented {
		h := sink.Snapshot().Histograms["explore.level_ns"]
		b.ReportMetric(float64(h.Count)/float64(b.N), "levels/op")
		b.ReportMetric(float64(h.P50), "level_p50_ns")
		b.ReportMetric(float64(h.P99), "level_p99_ns")
	}
}

// benchModelCheckDACStore is the store-dimension variant: same
// exploration, optionally through the disk-backed store, with the
// fingerprint and spill metrics described at the call site.
func benchModelCheckDACStore(b *testing.B, n int, inputs []value.Value, so store.Options) {
	prot := programs.Algorithm2(n, 1)
	sink := obs.NewSink()
	var last *explore.Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := prot.System(inputs)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := explore.Check(sys, task.DAC{N: n, P: 0},
			explore.Options{Obs: sink, Workers: 1, Store: so})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Solved() {
			b.Fatal(rep.Violations[0])
		}
		if last != nil {
			last.Close()
		}
		last = rep
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%d/%d/%d", last.States, last.Transitions, last.Quiescent, len(last.Violations))
	last.Close()
	b.ReportMetric(float64(h.Sum32()), "report_fp")
	b.ReportMetric(float64(last.States), "states")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(sink.Counter("explore.states").Load())/secs, "states/sec")
	}
	if so.Enabled() {
		b.ReportMetric(float64(sink.Counter("store.spilled_bytes").Load())/float64(b.N)/(1<<20), "spilled_mb")
		b.ReportMetric(float64(sink.Gauge("store.heap_bytes_max").Load())/(1<<20), "heap_max_mb")
	}
}

func benchModelCheckDAC(b *testing.B, n int, inputs []value.Value, workers int, mode explore.Symmetry) {
	benchModelCheckDACCkpt(b, n, inputs, workers, mode, explore.CheckpointOptions{})
}

func benchModelCheckDACCkpt(b *testing.B, n int, inputs []value.Value, workers int, mode explore.Symmetry, ckpt explore.CheckpointOptions) {
	prot := programs.Algorithm2(n, 1)
	sink := obs.NewSink()
	states := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := prot.System(inputs)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := explore.Check(sys, task.DAC{N: n, P: 0},
			explore.Options{Obs: sink, Workers: workers, Symmetry: mode, Checkpoint: ckpt})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Solved() {
			b.Fatal(rep.Violations[0])
		}
		states = rep.States
	}
	b.ReportMetric(float64(states), "states")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(sink.Counter("explore.states").Load())/secs, "states/sec")
	}
	// In-run overhead fraction: nanoseconds spent inside snapshot
	// writes over the run's total wall time, from the explorer's own
	// counters. Unlike a cross-row ns/op differential this needs no
	// baseline row, so it is immune to run-to-run host noise.
	if ckpt.Path != "" {
		if ns := b.Elapsed().Nanoseconds(); ns > 0 {
			b.ReportMetric(float64(sink.Counter("explore.checkpoint_ns").Load())/float64(ns), "ckpt_frac")
			b.ReportMetric(float64(sink.Counter("explore.checkpoint_encode_ns").Load())/float64(ns), "ckpt_enc_frac")
		}
		b.ReportMetric(float64(sink.Counter("explore.checkpoints").Load())/float64(b.N), "ckpts/op")
	}
}

// --- E3: candidate-family falsification ------------------------------

// BenchmarkEnumerateDAC measures the Theorem 4.2 sweep. The depth-1
// rows run across worker counts (the -workers dimension: the sweep
// engine fans the candidate model checks out to a goroutine pool with
// a byte-identical Report at every setting, so this measures pure
// speedup). Depth-1 candidates share no prefix and never fork, so the
// depth=2/workers=1 row is the one whose B/op shows the prefix forks
// and the per-worker checker reuse. The sweep's obs sink derives
// candidates/sec and states/sec throughput metrics.
func BenchmarkEnumerateDAC(b *testing.B) {
	family := func(depth int) *enumerate.Family {
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
	vectors := [][]value.Value{{1, 0, 0}, {0, 1, 1}, {0, 0, 0}, {1, 1, 1}}
	type row struct{ depth, workers int }
	rows := []row{{1, 1}, {1, 2}, {1, 4}}
	if max := runtime.GOMAXPROCS(0); max > 4 {
		rows = append(rows, row{1, max})
	}
	rows = append(rows, row{2, 1})
	for _, r := range rows {
		fam := family(r.depth)
		b.Run(fmt.Sprintf("depth=%d/workers=%d", r.depth, r.workers), func(b *testing.B) {
			sink := obs.NewSink()
			candidates := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := enumerate.FalsifyDAC(fam, 3, vectors, enumerate.SweepOptions{Workers: r.workers, Obs: sink})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Solvers) != 0 {
					b.Fatal("solver found")
				}
				candidates = rep.Candidates
			}
			b.ReportMetric(float64(candidates), "candidates")
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(sink.Counter("sweep.candidates").Load())/secs, "candidates/sec")
				b.ReportMetric(float64(sink.Counter("sweep.states").Load())/secs, "states/sec")
			}
		})
	}
}

// --- E5: (n,m)-PAC level --------------------------------------------

// BenchmarkConsensusFromPACM measures exhaustive verification of the
// positive half of Theorem 5.3.
func BenchmarkConsensusFromPACM(b *testing.B) {
	for _, m := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			prot := programs.ConsensusFromPACM(m+1, m, m)
			inputs := sim.Inputs(m, 0, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := prot.System(inputs)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := explore.Check(sys, task.Consensus{N: m}, explore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Solved() {
					b.Fatal(rep.Violations[0])
				}
			}
		})
	}
}

// --- E7: O'_n tasks ---------------------------------------------------

// BenchmarkKSetFromOPrime measures exhaustive verification of the
// level-k task on O'_2 and on the Lemma 6.4 implementation.
func BenchmarkKSetFromOPrime(b *testing.B) {
	const n, k = 2, 2
	procs := k * n
	for _, variant := range []struct {
		name string
		prot programs.Protocol
	}{
		{"abstract", programs.KSetFromOPrime(core.NewOPrime(n, nil), k, procs)},
		{"lemma64-base", programs.KSetFromOPrimeBase(n, k, procs)},
	} {
		b.Run(variant.name, func(b *testing.B) {
			inputs := make([]value.Value, procs)
			for i := range inputs {
				inputs[i] = value.Value(10 + i)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := variant.prot.System(inputs)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := explore.Check(sys, task.KSetAgreement{N: procs, K: k}, explore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Solved() {
					b.Fatal(rep.Violations[0])
				}
			}
		})
	}
}

// --- E9: universal construction --------------------------------------

// BenchmarkUniversalQueue measures one enqueue+dequeue pair through
// Herlihy's construction under goroutine contention.
func BenchmarkUniversalQueue(b *testing.B) {
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			u, err := universal.New(objects.NewQueue(), procs)
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			per := b.N/procs + 1
			b.ReportAllocs()
			b.ResetTimer()
			for p := 1; p <= procs; p++ {
				h, err := u.Handle(p)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func(h *universal.Handle) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, err := h.Apply(value.Enqueue(1)); err != nil {
							b.Error(err)
							return
						}
						if _, err := h.Apply(value.Dequeue()); err != nil {
							b.Error(err)
							return
						}
					}
				}(h)
			}
			wg.Wait()
		})
	}
}

// --- E11: valency analysis -------------------------------------------

// BenchmarkValency measures full valence labelling + critical
// configuration detection on Algorithm 2.
func BenchmarkValency(b *testing.B) {
	for _, n := range []int{2, 3} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prot := programs.Algorithm2(n, 1)
			inputs := sim.Inputs(n, 1, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := prot.System(inputs)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := explore.Check(sys, task.DAC{N: n, P: 0}, explore.Options{Valency: true})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Valency.Initial.Bivalent() {
					b.Fatal("expected bivalent initial configuration")
				}
			}
		})
	}
}

// --- E10: power arithmetic -------------------------------------------

// BenchmarkPowerTable measures computing a full power table.
func BenchmarkPowerTable(b *testing.B) {
	rows := []power.Sequence{
		power.Consensus(2), power.Consensus(3), power.Consensus(4),
		power.SA(power.Infinite, 2), power.SA(6, 3), power.ObjectO(3),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if power.Table(rows, 8) == "" {
			b.Fatal("empty table")
		}
	}
}

// --- E12: linearizability checking -----------------------------------

// BenchmarkLincheck measures Wing–Gong verification cost against
// history length on concurrent PAC histories.
func BenchmarkLincheck(b *testing.B) {
	for _, events := range []int{8, 16, 24} {
		b.Run(fmt.Sprintf("events=%d", events), func(b *testing.B) {
			h := recordPACHistory(b, events)
			sp := core.NewPAC(4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lincheck.CheckObject(h, sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// recordPACHistory produces a concurrent history with the given number
// of completed operations.
func recordPACHistory(b *testing.B, events int) *history.History {
	b.Helper()
	rec := history.NewRecorder()
	obj := rec.Wrap(spec.NewAtomic(core.NewPAC(4), nil), 0)
	var wg sync.WaitGroup
	per := events / 4
	for p := 1; p <= 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				op := value.ProposeAt(value.Value(p), p)
				if i%2 == 1 {
					op = value.Decide(p)
				}
				if _, err := obj.Apply(p, op); err != nil {
					b.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	return rec.History()
}

// --- Ablations (design-choice benches called out in DESIGN.md) --------

// BenchmarkEnumerateAblation measures what the solo prefilter buys the
// falsification sweep: with the filter on, most doomed shapes die in a
// 64-step probe instead of a full model check per input vector.
func BenchmarkEnumerateAblation(b *testing.B) {
	fam := &enumerate.Family{
		Objects: []spec.Spec{objects.NewConsensus(2), objects.NewRegister(), objects.NewTwoSA()},
		Menu: []enumerate.Invoke{
			{Obj: 0, Method: value.MethodPropose, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodWrite, Arg: enumerate.ArgInput},
			{Obj: 1, Method: value.MethodRead},
			{Obj: 2, Method: value.MethodPropose, Arg: enumerate.ArgInput},
		},
		Depth: 1,
		Actions: []enumerate.Action{
			enumerate.ActDecideInput, enumerate.ActDecideLast, enumerate.ActDecideFirst,
			enumerate.ActDecideZero, enumerate.ActDecideOne, enumerate.ActRetry,
		},
	}
	// All 8 binary vectors: without the solo filter, refutation power
	// must come entirely from the model checks (a constant-deciding
	// shape survives any vector set that misses a unanimous input).
	var vectors [][]value.Value
	for mask := 0; mask < 8; mask++ {
		in := make([]value.Value, 3)
		for i := range in {
			if mask&(1<<uint(i)) != 0 {
				in[i] = 1
			}
		}
		vectors = append(vectors, in)
	}
	for _, disabled := range []bool{false, true} {
		name := "solo-filter-on"
		if disabled {
			name = "solo-filter-off"
		}
		b.Run(name, func(b *testing.B) {
			candidates := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := enumerate.FalsifyDAC(fam, 3, vectors,
					enumerate.SweepOptions{DisableSoloFilter: disabled})
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Solvers) != 0 {
					b.Fatal("solver found")
				}
				candidates = rep.Candidates
			}
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}

// BenchmarkValencyAblation isolates the valency pass: exploring the
// Algorithm 2 graph with and without valence labelling + critical
// detection.
func BenchmarkValencyAblation(b *testing.B) {
	prot := programs.Algorithm2(3, 1)
	inputs := sim.Inputs(3, 1, 0)
	for _, valency := range []bool{false, true} {
		name := "valency-off"
		if valency {
			name = "valency-on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := prot.System(inputs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{Valency: valency}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E13: Chaudhuri's resilient protocol ------------------------------

// BenchmarkChaudhuri measures exhaustive verification of the
// (k-1)-resilient k-set agreement protocol from registers.
func BenchmarkChaudhuri(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{2, 2}, {3, 2}, {3, 3}} {
		b.Run(fmt.Sprintf("n=%d,k=%d", tc.n, tc.k), func(b *testing.B) {
			prot := programs.ChaudhuriKSet(tc.n, tc.k)
			inputs := make([]value.Value, tc.n)
			for i := range inputs {
				inputs[i] = value.Value(10 + i)
			}
			tsk := task.ResilientKSet{N: tc.n, K: tc.k, F: tc.k - 1}
			states := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := prot.System(inputs)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := explore.Check(sys, tsk, explore.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Solved() {
					b.Fatal(rep.Violations[0])
				}
				states = rep.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// --- E14: safe agreement / BG primitives ------------------------------

// BenchmarkSafeAgreement measures a full propose+resolve round under
// contention.
func BenchmarkSafeAgreement(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sa := setagree.NewSafeAgreement(procs)
				var wg sync.WaitGroup
				for p := 1; p <= procs; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						if err := sa.Propose(p, setagree.Value(p)); err != nil {
							b.Error(err)
						}
					}(p)
				}
				wg.Wait()
				if _, ok := sa.Resolve(); !ok {
					b.Fatal("unresolved after all proposes")
				}
			}
		})
	}
}
