package explore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"setagree/internal/machine"
	"setagree/internal/obs"
	"setagree/internal/spec"
	"setagree/internal/store"
	"setagree/internal/task"
	"setagree/internal/value"
)

// Exploration failure modes.
var (
	// ErrStateLimit reports that the reachable graph exceeded
	// Options.MaxStates.
	ErrStateLimit = errors.New("state limit exceeded")
	// ErrNotBinary reports that valency analysis was requested for a
	// protocol deciding values outside {0, 1}.
	ErrNotBinary = errors.New("valency analysis requires binary decisions")
)

// Options tunes an exploration.
type Options struct {
	// MaxStates caps the number of distinct configurations explored
	// (default 1 << 21).
	MaxStates int
	// Workers is the number of goroutines expanding frontier shards of
	// the level-synchronized BFS (default runtime.GOMAXPROCS(0)).
	// Exploration is deterministic at every setting: successors are
	// merged into the configuration table single-threaded at each level
	// barrier in canonical (parent id, step order) order, so
	// configuration ids — and with them Report counts, witness
	// schedules, valency labels, and DOT output — are byte-identical at
	// Workers 1 and Workers 64.
	Workers int
	// Valency enables valence labelling of every configuration and
	// critical-configuration detection. It requires a binary task (all
	// decisions in {0, 1}).
	Valency bool
	// Symmetry selects orbit-canonical interning (see the package's
	// symmetry.go): configurations equal up to an admissible process-id
	// (and, for SymmetryValues, value) permutation are explored once,
	// shrinking the graph by up to the symmetry group's order. Verdicts
	// match an unreduced run, and witnesses stay concrete, replayable
	// schedules — equal to unreduced ones up to a uniform permutation.
	// Check rejects the mode with ErrNotSymmetric when the system lacks
	// the required structure, and combinations that are unsound on the
	// quotient (resilience-bounded liveness; Valency with
	// SymmetryValues) with ErrSymmetryUnsupported. Default off.
	Symmetry Symmetry
	// Obs, when set, receives the run's metrics: the explore.* counters
	// (runs, states, transitions, quiescent, violations, statelimit
	// hits, errors, valency label tallies), the explore.frontier_max
	// gauge (level-granular: the unexpanded remainder measured at each
	// level barrier), and the explore.workers gauge. Counter values
	// depend only on the explored graph, never on scheduling or wall
	// time, so identical runs produce identical metrics. The sink also
	// receives the explore.level_ns histogram — per-level expansion
	// latency (expand + merge wall time at each BFS barrier), the
	// daemon's live-operations signal — which, like Timers, is wall
	// time and excluded from determinism claims. Nil disables metrics
	// at zero cost.
	Obs *obs.Sink
	// Events, when set, receives structured JSONL events: a periodic
	// explore.heartbeat while the BFS runs and exactly one terminal
	// event per Check call — explore.done on success,
	// explore.statelimit when MaxStates was hit, or explore.error (with
	// an "error" field) when the engine failed. Nil disables events.
	Events *obs.Emitter
	// HeartbeatEvery emits an explore.heartbeat at the first level
	// barrier after every N expanded configurations when Events is set
	// (default 1 << 15; negative disables heartbeats).
	HeartbeatEvery int
	// Ctx, when set, cancels the exploration cooperatively: the BFS
	// checks it at each level barrier (never mid-level, so the partial
	// state stays level-consistent), writes a final snapshot when
	// Checkpoint is configured, flushes partial counters, emits one
	// explore.error terminal event, and returns the partial Report with
	// an error satisfying errors.Is(err, ctx.Err()).
	Ctx context.Context
	// Checkpoint configures durable snapshots of the BFS (see
	// CheckpointOptions); the zero value disables them.
	Checkpoint CheckpointOptions
	// Store configures the configuration store (see internal/store) that
	// holds the interning table, per-configuration outcome metadata, and
	// the edge lists of completed BFS levels, while only the active
	// frontier stays live. The zero value keeps the store on the heap;
	// with Store.Dir set its arenas are mmap'd files there. Reports,
	// witnesses, valency labels, DOT output, events, and checkpoint
	// files are byte-identical in both backends at any worker count;
	// only a directory store records the store.* observability metrics.
	// Callers of a directory-backed exploration own the returned
	// Report's store and must Close it.
	Store store.Options
	// Cover, when non-nil, records which guarded branches each process
	// exercised (see CoverRequest); the result lands in Report.Cover.
	// Recording is a pure observation at the merge barrier: it changes
	// no interning, counting, or verdict, so Reports with and without
	// Cover are otherwise identical.
	Cover *CoverRequest
}

// CoverRequest asks the exploration to record branch coverage of the
// guarded final action of enumerate-style programs: for every merged
// transition taken by a process poised at GuardPC (the program's last
// shared-memory invocation), the response's ⊥-ness selects which of the
// two action branches ran. Under symmetry reduction the recorded
// process index is the orbit representative's, so the bits are reliable
// at role granularity (processes sharing a program), which is all the
// sweep memoizer consumes.
type CoverRequest struct {
	// GuardPC is the program counter of the guarded invocation.
	GuardPC int
}

// BranchCover is one process's guarded-branch coverage.
type BranchCover struct {
	// Bottom is set when a step from the guard PC returned ⊥.
	Bottom bool
	// Value is set when a step from the guard PC returned a non-⊥
	// response.
	Value bool
}

// CheckpointOptions configures durable snapshots of an exploration.
// Snapshots are written atomically at level barriers and restored by
// Resume, which continues the BFS to a Report — and witness schedules,
// DOT output, and event stream — byte-identical to the uninterrupted
// run's.
type CheckpointOptions struct {
	// Path is the snapshot file; empty disables checkpointing. Each
	// snapshot atomically replaces the previous one.
	Path string
	// EveryLevels writes a snapshot after every N completed BFS levels
	// (default 1: every level barrier).
	EveryLevels int
	// After, when set, runs after each periodic snapshot commits,
	// receiving the number of completed levels. Returning a non-nil
	// error aborts the run with it: the kill-resume tests use this to
	// simulate a crash at an exact level boundary, and long-running
	// services can surface snapshot progress through it. Setting After
	// makes every commit synchronous at its barrier (the hook's
	// contract is that its level's snapshot is on disk); without it the
	// write+fsync overlaps the next levels' exploration.
	After func(level int) error
}

// ViolationKind classifies a found violation.
type ViolationKind uint8

// Violation kinds.
const (
	// ViolationSafety is a task safety-predicate failure at a reachable
	// configuration.
	ViolationSafety ViolationKind = iota + 1
	// ViolationWaitFree is an infinite execution in which some process
	// takes infinitely many steps without deciding.
	ViolationWaitFree
	// ViolationDACTerminationA is an infinite execution in which the
	// distinguished process takes infinitely many steps without deciding
	// or aborting (n-DAC Termination (a)).
	ViolationDACTerminationA
	// ViolationDACTerminationB is a solo execution of a non-distinguished
	// process that never decides (n-DAC Termination (b)).
	ViolationDACTerminationB
	// ViolationHaltUndecided is a process with termination obligations
	// whose program stopped without deciding.
	ViolationHaltUndecided
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case ViolationSafety:
		return "safety"
	case ViolationWaitFree:
		return "wait-free termination"
	case ViolationDACTerminationA:
		return "DAC termination (a)"
	case ViolationDACTerminationB:
		return "DAC termination (b)"
	case ViolationHaltUndecided:
		return "halt while undecided"
	default:
		return "violation"
	}
}

// Violation is one counterexample: the failed property, the offending
// process where applicable, and a concrete witness.
type Violation struct {
	// Err is the precise property failure.
	Err error
	// Witness is the finite schedule from the initial configuration to
	// the violating configuration; for liveness violations it is
	// extended by Cycle.
	Witness []Step
	// Cycle, for liveness violations, is a schedule that returns the
	// violating configuration to itself (the infinite run repeats it).
	Cycle []Step
	// Kind classifies the violation.
	Kind ViolationKind
	// Proc is the affected process (0-based), or -1.
	Proc int
}

// Error renders the violation. A Violation without an Err (e.g. a
// zero value) renders its kind alone rather than panicking.
func (v *Violation) Error() string {
	if v.Err == nil {
		return v.Kind.String()
	}
	return v.Kind.String() + ": " + v.Err.Error()
}

// Report is the result of an exploration.
type Report struct {
	// States is the number of distinct reachable configurations.
	States int
	// Transitions is the number of labelled edges.
	Transitions int
	// Quiescent is the number of configurations where no process can
	// take a step.
	Quiescent int
	// Violations lists every property failure found (empty means the
	// protocol solves the task on this instance).
	Violations []*Violation
	// Valency holds the valence analysis when Options.Valency was set.
	Valency *ValencyReport
	// Cover is the per-process branch coverage when Options.Cover was
	// set (valid on partial reports too: a state-limited prefix records
	// exactly the branches its merged levels exercised).
	Cover []BranchCover

	g *graph
}

// Solved reports whether no violation was found.
func (r *Report) Solved() bool { return len(r.Violations) == 0 }

// graph is the explored configuration graph. Configurations are
// interned by their compact binary key (Config.AppendKey) in the
// configuration store (see store.go): keys live in its hash table,
// outcome records in its Meta arena, edge lists in its Edges arena,
// and expanded configs entries are nil after their level's spill.
type graph struct {
	sys     *System
	tsk     task.Task
	configs []*Config
	parent  []int      // BFS tree: parent config id (-1 for root)
	parentE []Step     // BFS tree: step from parent
	valence []Valence  // per-config valence, populated by valency()
	grp     *group     // symmetry group, nil when Options.Symmetry is off
	canon   []int      // per config: index of the group element g with g·config canonical
	disk    *diskState // configuration store
}

type edge struct {
	to   int
	step Step
	// g is the group index relating the concrete successor D the step
	// produces to the stored representative: D = g·configs[to].
	// Always 0 when symmetry is off, and on BFS tree edges (the stored
	// representative IS the first-discovered concrete successor).
	g int
}

// minShardConfigs is the smallest per-worker shard worth a goroutine:
// narrower levels are expanded inline to keep barrier overhead off
// small graphs.
const minShardConfigs = 8

// Check explores the full reachable configuration graph of sys and
// verifies tsk's safety and liveness properties over it.
//
// The exploration is a level-synchronized parallel BFS (Options.
// Workers goroutines) with deterministic output at every worker count.
// On failure after argument validation — ErrStateLimit, a successor
// engine error, or a valency error — Check flushes partial counters,
// emits the matching terminal event, and returns the partial Report
// alongside the error.
func Check(sys *System, tsk task.Task, opts Options) (*Report, error) {
	st, rep, err := newSearch(sys, tsk, &opts)
	if err != nil {
		return rep, err
	}
	return st.run()
}

// newSearch validates the system/task pair, normalizes opts in place,
// builds the symmetry group, and interns the root configuration. On
// validation failure before the graph exists the returned Report is
// nil; past that point the partial Report is returned flushed (one
// explore.error terminal event), matching Check's error contract.
func newSearch(sys *System, tsk task.Task, opts *Options) (*search, *Report, error) {
	if len(sys.Programs) != len(sys.Inputs) {
		return nil, nil, fmt.Errorf("explore: %d programs but %d inputs: %w",
			len(sys.Programs), len(sys.Inputs), machine.ErrProgram)
	}
	if tsk != nil && tsk.Procs() != sys.Procs() {
		return nil, nil, fmt.Errorf("explore: task %s wants %d processes, system has %d: %w",
			tsk.Name(), tsk.Procs(), sys.Procs(), machine.ErrProgram)
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 1 << 21
	}
	if opts.HeartbeatEvery == 0 {
		opts.HeartbeatEvery = 1 << 15
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	g := &graph{sys: sys, tsk: tsk}
	rep := &Report{g: g}
	st := &search{g: g, rep: rep, opts: opts, frontierMax: 1, hbNext: opts.HeartbeatEvery}
	if opts.Cover != nil {
		// The slice is shared with the report up front so partial exits
		// (state limit, cancellation) carry the coverage observed so far.
		st.cover = make([]BranchCover, sys.Procs())
		st.coverPC = opts.Cover.GuardPC
		rep.Cover = st.cover
	}
	if opts.Obs != nil {
		// Resolved once here so both Check and Resume record per-level
		// latency; nil when metrics are off, costing the loop one nil
		// check per level.
		st.levelHist = opts.Obs.Histogram("explore.level_ns")
	}
	fail := func(err error) (*search, *Report, error) {
		rep.States = len(g.configs)
		st.flush("explore.error", err)
		// A failed construction leaves no graph worth walking; release
		// the store (idempotent — callers may Close again).
		rep.Close()
		return nil, rep, err
	}

	s, err := store.Open(opts.Store, opts.Obs)
	if err != nil {
		return fail(err)
	}
	g.disk = &diskState{s: s}

	root, err := initialConfig(sys)
	if err != nil {
		return fail(err)
	}
	if opts.Symmetry != SymmetryOff {
		if opts.Valency && opts.Symmetry == SymmetryValues {
			return fail(fmt.Errorf("explore: valency labels are not invariant under value permutations; use SymmetryIDs or SymmetryOff: %w",
				ErrSymmetryUnsupported))
		}
		grp, err := buildGroup(sys, tsk, opts.Symmetry)
		if err != nil {
			return fail(err)
		}
		if err := grp.checkRootStable(root); err != nil {
			return fail(err)
		}
		g.grp = grp
	}
	// Every group element stabilizes the root, so its concrete key is
	// already canonical.
	if _, err := g.intern(root.AppendKey(nil), root, -1, Step{}, 0); err != nil {
		return fail(err)
	}
	return st, rep, nil
}

// run drives the BFS to completion (or failure) and performs the
// post-exploration analyses — the shared tail of Check and Resume.
func (st *search) run() (*Report, error) {
	g, rep, opts := st.g, st.rep, st.opts
	fail := func(err error) (*Report, error) {
		rep.States = len(g.configs)
		st.flush("explore.error", err)
		return rep, err
	}

	if err := st.bfs(); err != nil {
		rep.States = len(g.configs)
		if errors.Is(err, ErrStateLimit) {
			st.flush("explore.statelimit", err)
			return rep, err
		}
		st.flush("explore.error", err)
		return rep, err
	}
	rep.States = len(g.configs)

	if g.tsk != nil {
		g.checkSafety(rep)
		g.checkLiveness(rep)
	}
	if opts.Valency {
		v, err := g.valency()
		if err != nil {
			return fail(flushCkpt(st, err))
		}
		rep.Valency = v
	}
	// Drain the last snapshot write, which bfs's success path leaves
	// committing in the background across the analyses above. No Check
	// return leaves a write in flight.
	if err := st.ckptWait(); err != nil {
		return fail(err)
	}
	st.flush("explore.done", nil)
	return rep, nil
}

// search is the state of one level-synchronized BFS.
type search struct {
	g           *graph
	rep         *Report
	opts        *Options
	expanded    int // configurations expanded (all levels merged so far)
	frontierMax int // max unexpanded remainder at any level barrier
	hbNext      int // next heartbeat boundary in expanded configs
	symHits     int // successors whose canonical key differed from their concrete key
	orbitMax    int // largest successor orbit seen
	batchMax    int // most successors merged at one level barrier
	level       int // completed BFS levels
	stopLevels  int // when > 0, bfs stops after this many levels (snapshot prefixes)
	coverPC     int // guard PC when cover != nil
	cover       []BranchCover
	fp          uint64 // memoized system fingerprint (see fingerprint)
	fpSet       bool

	// Append-only snapshot section cache (see encodeSnapshot): the
	// encoded spanning-tree entries for ids [1, ckptTreeN), and the
	// counters-section scratch reused across snapshots.
	ckptTree  []byte
	ckptTreeN int
	ckptBuf   []byte

	// levelHist, when metrics are enabled, receives each level's
	// expand+merge wall time (the explore.level_ns histogram).
	levelHist *obs.Histogram

	// Result channel of the in-flight background snapshot write; nil
	// when none. See writeCheckpoint/ckptWait.
	ckptPending chan error
}

// succRec is one successor produced by a worker, in canonical (proc,
// branch) order within its parent's expansion.
type succRec struct {
	cfg      *Config // retained only when the successor was not yet interned
	step     Step
	id       int // interned id when >= 0 (already in the global table)
	off, end int // key bytes in the shard's arena when id < 0
	gi       int // group index minimizing the key (0 when symmetry off)
}

// expansion is the full successor set of one expanded configuration.
type expansion struct {
	quiescent bool
	succs     []succRec
}

// shardOut is one worker's result for a contiguous shard of a BFS
// level. The shard's key arena keeps candidate keys alive without one
// allocation per successor.
type shardOut struct {
	start    int // first config id of the shard
	exps     []expansion
	arena    []byte
	err      error
	errAt    int // config id whose expansion failed
	symHits  int // successors canonicalized to a different key
	orbitMax int // largest successor orbit in the shard
}

// bfs runs the level-synchronized exploration: workers expand disjoint
// contiguous shards of the current level against the frozen
// configuration table, then a single-threaded merge interns successors
// in canonical order. Because FIFO BFS discovers whole levels
// contiguously, the canonical merge assigns exactly the ids a
// sequential BFS would, at any worker count.
// A resumed search re-enters the loop at the restored st.expanded and
// proceeds identically, which is what makes kill-resume byte-exact.
func (st *search) bfs() error {
	g := st.g
	for levelStart := st.expanded; levelStart < len(g.configs); {
		if err := st.interrupted(); err != nil {
			return flushCkpt(st, err)
		}
		levelEnd := len(g.configs)
		var levelT0 time.Time
		if st.levelHist != nil {
			levelT0 = time.Now()
		}
		outs := st.expandLevel(levelStart, levelEnd)
		if err := st.mergeLevel(outs); err != nil {
			return flushCkpt(st, err)
		}
		if st.levelHist != nil {
			st.levelHist.ObserveDuration(time.Since(levelT0))
		}
		st.expanded = levelEnd
		// The Edges arena now holds exactly the records of the expanded
		// configurations; snapshots serialize this prefix while later
		// merges append beyond it.
		g.disk.edgeDurable = g.disk.s.Edges.Len()
		if frontier := len(g.configs) - st.expanded; frontier > st.frontierMax {
			st.frontierMax = frontier
		}
		st.level++
		// Heartbeat before snapshot, so the snapshot's event-sequence
		// counter covers everything this barrier emitted.
		st.heartbeat()
		if err := st.maybeCheckpoint(); err != nil {
			return flushCkpt(st, err)
		}
		// Spill after the snapshot is encoded, then hold the run to its
		// in-memory budget — so a budget failure surfaces only after this
		// barrier's snapshot is on its way to disk.
		g.spillExpanded(levelStart, levelEnd)
		if err := g.disk.s.CheckBudget(); err != nil {
			return flushCkpt(st, err)
		}
		if st.stopLevels > 0 && st.level >= st.stopLevels {
			// Snapshot-prefix mode (see fork.go): leave the frontier
			// unexpanded at this barrier; forks resume from exactly here.
			return nil
		}
		levelStart = levelEnd
	}
	// The last periodic snapshot may still be committing in the
	// background. Error exits above drain it; the success path leaves
	// it in flight so the commit overlaps the post-exploration
	// analyses — run() drains before Check returns.
	return nil
}

// flushCkpt drains any in-flight snapshot write before bfs surfaces
// err, joining a write failure onto it. It deliberately returns err
// itself (not a wrapper) when the drain is clean, so callers matching
// with errors.Is see the undecorated error chain.
func flushCkpt(st *search, err error) error {
	if werr := st.ckptWait(); werr != nil {
		return errors.Join(err, werr)
	}
	return err
}

// interrupted polls Options.Ctx at a level barrier. On cancellation it
// writes a final snapshot (when checkpointing is configured) so the run
// is resumable from exactly this barrier, then reports an error
// wrapping ctx.Err().
func (st *search) interrupted() error {
	ctx := st.opts.Ctx
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
	default:
		return nil
	}
	err := fmt.Errorf("explore: interrupted after level %d (%d of %d configurations expanded): %w",
		st.level, st.expanded, len(st.g.configs), ctx.Err())
	if st.opts.Checkpoint.Path != "" {
		// wait=true: the caller may exit the process right after this
		// barrier, so the final snapshot must be durable before the
		// error surfaces.
		if werr := st.writeCheckpoint(true); werr != nil {
			return errors.Join(err, werr)
		}
	}
	return err
}

// maybeCheckpoint writes the periodic snapshot at a level barrier and
// runs the After hook. Without a hook the container commit overlaps
// the next levels' exploration (see writeCheckpoint); with one, the
// hook's contract — this level's snapshot is on disk when it runs —
// forces the barrier to wait for the commit first.
func (st *search) maybeCheckpoint() error {
	cp := &st.opts.Checkpoint
	if cp.Path == "" {
		return nil
	}
	every := cp.EveryLevels
	if every <= 0 {
		every = 1
	}
	if st.level%every != 0 {
		return nil
	}
	if err := st.writeCheckpoint(cp.After != nil); err != nil {
		return err
	}
	if cp.After != nil {
		return cp.After(st.level)
	}
	return nil
}

// expandLevel fans the level's configurations out to contiguous shards,
// one goroutine each; levels too narrow to amortize a barrier are
// expanded inline.
func (st *search) expandLevel(levelStart, levelEnd int) []*shardOut {
	size := levelEnd - levelStart
	shards := st.opts.Workers
	if max := (size + minShardConfigs - 1) / minShardConfigs; shards > max {
		shards = max
	}
	if shards <= 1 {
		return []*shardOut{st.expandShard(levelStart, levelEnd)}
	}
	chunk := (size + shards - 1) / shards
	outs := make([]*shardOut, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		start := levelStart + w*chunk
		end := start + chunk
		if end > levelEnd {
			end = levelEnd
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			outs[w] = st.expandShard(start, end)
		}(w, start, end)
	}
	wg.Wait()
	return outs
}

// expandShard expands configurations [start, end) against the frozen
// global table (read-only during a level, so lock-free). Successor keys
// are built in pooled scratch buffers that persist across shards and
// levels; already-interned successors cost no allocation at all, fresh
// ones are copied into the shard arena for the merge. Under symmetry
// the probed key is the canonical orbit minimum rather than the
// concrete key; without it the key is spliced from the parent's
// (see expandShardSpliced).
func (st *search) expandShard(start, end int) *shardOut {
	g := st.g
	out := &shardOut{start: start, exps: make([]expansion, 0, end-start)}
	sc := keyScratchPool.Get().(*keyScratch)
	defer keyScratchPool.Put(sc)
	if g.grp == nil {
		st.expandShardSpliced(out, sc, start, end)
		return out
	}
	for at := start; at < end; at++ {
		c := g.configs[at]
		exp := expansion{quiescent: c.Quiescent()}
		for i := range c.Procs {
			if !c.Live(i) {
				continue
			}
			nexts, steps, err := successors(g.sys, c, i)
			if err != nil {
				out.err = err
				out.errAt = at
				return out
			}
			for b, nc := range nexts {
				rec := succRec{step: steps[b], id: -1}
				var orbit int
				var key []byte
				key, rec.gi, orbit = g.grp.canonical(sc, nc)
				if orbit > out.orbitMax {
					out.orbitMax = orbit
				}
				if rec.gi != 0 {
					out.symHits++
				}
				if id, ok := g.disk.s.Lookup(key); ok {
					rec.id = id
				} else {
					rec.cfg = nc
					rec.off = len(out.arena)
					out.arena = append(out.arena, key...)
					rec.end = len(out.arena)
				}
				exp.succs = append(exp.succs, rec)
			}
		}
		out.exps = append(out.exps, exp)
	}
	return out
}

// expandShardSpliced is expandShard's symmetry-off fast path. A step
// changes exactly two components of a configuration — the stepping
// process's state and the touched object's state — and every component
// encoding is self-delimiting, so a successor's interning key can be
// spliced from the parent's key bytes plus the two re-encoded
// components, without materializing the successor Config. The parent
// key is rendered once per configuration with per-component end
// offsets; only successors the table has never seen (the ones the
// merge will intern) then build a real Config. Since most successors
// at a level are duplicates, this keeps the dominant share of
// expansion work allocation-free.
//
// The successor enumeration mirrors successors() exactly — same
// ordering, same error values at the same points — so reports and
// witnesses are unchanged.
func (st *search) expandShardSpliced(out *shardOut, sc *keyScratch, start, end int) {
	g := st.g
	np := g.sys.Procs()
	nobj := len(g.sys.Objects)
	if cap(sc.ends) < 1+np+nobj {
		sc.ends = make([]int, 1+np+nobj)
	}
	ends := sc.ends[:1+np+nobj]
	for at := start; at < end; at++ {
		c := g.configs[at]
		exp := expansion{quiescent: c.Quiescent()}
		// Parent key with component ends: the mask ends at ends[0],
		// process i at ends[1+i], object j at ends[1+np+j].
		pkey := sc.parent[:0]
		pkey = binary.AppendUvarint(pkey, c.SteppedMask)
		ends[0] = len(pkey)
		for i := range c.Procs {
			pkey = c.Procs[i].AppendKey(pkey)
			ends[1+i] = len(pkey)
		}
		for j := range c.Objs {
			pkey = spec.AppendStateKey(pkey, c.Objs[j])
			ends[1+np+j] = len(pkey)
		}
		sc.parent = pkey
		for i := range c.Procs {
			if !c.Live(i) {
				continue
			}
			poise, ok := machine.Poised(g.sys.Programs[i], c.Procs[i])
			if !ok {
				continue
			}
			if poise.Obj < 0 || poise.Obj >= nobj {
				out.err = spec.BadOpError("system", poise.Op,
					"object index "+strconv.Itoa(poise.Obj)+" out of range")
				out.errAt = at
				return
			}
			ts, err := g.sys.Objects[poise.Obj].Step(c.Objs[poise.Obj], poise.Op)
			if err != nil {
				out.err, out.errAt = err, at
				return
			}
			for b, t := range ts {
				ps, err := machine.Resume(g.sys.Programs[i], c.Procs[i], t.Resp)
				if err != nil {
					out.err, out.errAt = err, at
					return
				}
				jo := poise.Obj
				cand := sc.best[:0]
				cand = binary.AppendUvarint(cand, c.SteppedMask|1<<uint(i))
				cand = append(cand, pkey[ends[0]:ends[i]]...)
				cand = ps.AppendKey(cand)
				cand = append(cand, pkey[ends[i+1]:ends[np+jo]]...)
				cand = spec.AppendStateKey(cand, t.Next)
				cand = append(cand, pkey[ends[np+jo+1]:]...)
				sc.best = cand
				rec := succRec{
					step: Step{Proc: i, Obj: jo, Op: poise.Op, Resp: t.Resp, Branch: b},
					id:   -1,
				}
				if id, ok := g.disk.s.Lookup(cand); ok {
					rec.id = id
				} else {
					nc := &Config{
						Procs:       make([]machine.ProcState, len(c.Procs)),
						Objs:        make([]spec.State, len(c.Objs)),
						SteppedMask: c.SteppedMask | 1<<uint(i),
					}
					copy(nc.Procs, c.Procs)
					copy(nc.Objs, c.Objs)
					nc.Procs[i] = ps
					nc.Objs[jo] = t.Next
					rec.cfg = nc
					rec.off = len(out.arena)
					out.arena = append(out.arena, cand...)
					rec.end = len(out.arena)
				}
				exp.succs = append(exp.succs, rec)
			}
		}
		out.exps = append(out.exps, exp)
	}
}

// mergeLevel folds the shard results into the graph single-threaded,
// in ascending (config id, proc, branch) order — the exact order a
// sequential BFS interns successors, which is what makes ids canonical.
// Successors two shards discovered independently deduplicate here. On a
// worker error the level is not merged and the canonically first error
// (smallest config id) is returned, so the error — and the counters,
// which then cover completed levels only — are identical at any worker
// count.
func (st *search) mergeLevel(outs []*shardOut) error {
	var firstErr error
	errAt := -1
	for _, out := range outs {
		if out.err != nil && (errAt < 0 || out.errAt < errAt) {
			firstErr, errAt = out.err, out.errAt
		}
	}
	if firstErr != nil {
		return firstErr
	}
	g, rep, d := st.g, st.rep, st.g.disk
	for _, out := range outs {
		st.symHits += out.symHits
		if out.orbitMax > st.orbitMax {
			st.orbitMax = out.orbitMax
		}
	}
	batch := 0
	for _, out := range outs {
		for rel := range out.exps {
			exp := &out.exps[rel]
			at := out.start + rel
			if exp.quiescent {
				rep.Quiescent++
			}
			batch += len(exp.succs)
			rec := d.edgeRec[:0]
			merged := 0
			var stop error
			for _, s := range exp.succs {
				if st.cover != nil && g.configs[at].Procs[s.step.Proc].PC == st.coverPC {
					// The parent configuration of the currently merging
					// level is always resident (spilling runs after the
					// merge).
					if s.step.Resp == value.Bottom {
						st.cover[s.step.Proc].Bottom = true
					} else {
						st.cover[s.step.Proc].Value = true
					}
				}
				id, fresh := s.id, false
				if id < 0 {
					key := out.arena[s.off:s.end]
					if known, ok := g.disk.s.Lookup(key); ok {
						id = known
					} else {
						var err error
						if id, err = g.intern(key, s.cfg, at, s.step, s.gi); err != nil {
							return err
						}
						fresh = true
					}
				}
				gi := 0
				if g.grp != nil {
					// The concrete successor D satisfies
					// s.gi·D = canonical = canon[id]·R_id, so
					// D = (s.gi⁻¹ ∘ canon[id])·R_id.
					gi = g.grp.relate(s.gi, g.canon[id])
				}
				rec = appendEdge(rec, id, s.step, gi)
				merged++
				rep.Transitions++
				if fresh && len(g.configs) > st.opts.MaxStates {
					// Keep the partial report self-consistent: States must
					// count the configurations actually interned, matching
					// the Transitions already tallied.
					stop = fmt.Errorf("explore: %d states: %w", len(g.configs), ErrStateLimit)
					break
				}
			}
			// One arena append per configuration — the whole edge batch,
			// count-prefixed in the checkpoint section format — rather
			// than one write per successor. On an aborted merge the
			// truncated record still lands, so the partial graph keeps
			// every merged edge; it never enters a snapshot (edgeDurable
			// only advances at completed barriers).
			d.edgeRec = rec
			var hdr [binary.MaxVarintLen64]byte
			off, err := d.s.Edges.Append(hdr[:putV(hdr[:], 0, int64(merged))])
			if err == nil {
				_, err = d.s.Edges.Append(rec)
			}
			if err != nil {
				return err
			}
			d.edgeOff = append(d.edgeOff, off)
			if stop != nil {
				return stop
			}
		}
	}
	if batch > st.batchMax {
		st.batchMax = batch
	}
	return nil
}

// heartbeat emits one explore.heartbeat at the first level barrier
// after each HeartbeatEvery expanded configurations. Field values are
// level-boundary snapshots, so the stream is deterministic at any
// worker count.
func (st *search) heartbeat() {
	opts := st.opts
	if opts.Events == nil || opts.HeartbeatEvery <= 0 || st.expanded < st.hbNext {
		return
	}
	for st.hbNext <= st.expanded {
		st.hbNext += opts.HeartbeatEvery
	}
	opts.Events.Emit("explore.heartbeat", obs.Fields{
		"expanded":    st.expanded,
		"states":      len(st.g.configs),
		"transitions": st.rep.Transitions,
		"frontier":    len(st.g.configs) - st.expanded,
	})
}

// flush folds the exploration into the optional metrics sink and emits
// the terminal event (explore.done, explore.statelimit, or
// explore.error — exactly one per Check call, on every exit path past
// argument validation). Counters are flushed once per run rather than
// incremented per transition, so instrumented explorations stay within
// noise of uninstrumented ones.
func (st *search) flush(event string, err error) {
	rep, opts := st.rep, st.opts
	if opts.Obs != nil {
		o := opts.Obs
		o.Counter("explore.runs").Inc()
		o.Counter("explore.states").Add(int64(rep.States))
		o.Counter("explore.transitions").Add(int64(rep.Transitions))
		o.Counter("explore.quiescent").Add(int64(rep.Quiescent))
		o.Counter("explore.violations").Add(int64(len(rep.Violations)))
		switch event {
		case "explore.statelimit":
			o.Counter("explore.statelimit_hits").Inc()
		case "explore.error":
			o.Counter("explore.errors").Inc()
		}
		o.Gauge("explore.frontier_max").SetMax(int64(st.frontierMax))
		o.Gauge("explore.workers").SetMax(int64(opts.Workers))
		o.Gauge("explore.batch_size").SetMax(int64(st.batchMax))
		if st.g.grp != nil {
			o.Counter("explore.symmetry_hits").Add(int64(st.symHits))
			o.Gauge("explore.orbit_size_max").SetMax(int64(st.orbitMax))
		}
		if v := rep.Valency; v != nil {
			o.Counter("explore.valency.bivalent").Add(int64(v.Bivalent))
			o.Counter("explore.valency.univalent0").Add(int64(v.Univalent0))
			o.Counter("explore.valency.univalent1").Add(int64(v.Univalent1))
			o.Counter("explore.valency.null").Add(int64(v.Null))
			o.Counter("explore.valency.critical").Add(int64(v.CriticalCount))
		}
	}
	if opts.Events != nil {
		fields := obs.Fields{
			"states":       rep.States,
			"transitions":  rep.Transitions,
			"quiescent":    rep.Quiescent,
			"violations":   len(rep.Violations),
			"frontier_max": st.frontierMax,
			"workers":      opts.Workers,
		}
		if event == "explore.error" && err != nil {
			fields["error"] = err.Error()
		}
		if st.g.grp != nil {
			fields["symmetry"] = opts.Symmetry.String()
			fields["group_order"] = st.g.grp.order
			fields["symmetry_hits"] = st.symHits
			fields["orbit_size_max"] = st.orbitMax
		}
		if v := rep.Valency; v != nil {
			fields["bivalent"] = v.Bivalent
			fields["critical"] = v.CriticalCount
		}
		opts.Events.Emit(event, fields)
	}
}

// pathTo reconstructs the BFS schedule from the root to config id.
func (g *graph) pathTo(id int) []Step {
	var rev []Step
	for at := id; g.parent[at] >= 0; at = g.parent[at] {
		rev = append(rev, g.parentE[at])
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// checkSafety evaluates the task predicate at every reachable
// configuration and records the first violation (with witness).
func (g *graph) checkSafety(rep *Report) {
	var m metaRec
	for id := range g.configs {
		g.metaAt(id, &m)
		if err := g.tsk.CheckSafety(m.outcome(g.sys.Inputs)); err != nil {
			rep.Violations = append(rep.Violations, &Violation{
				Kind:    ViolationSafety,
				Err:     err,
				Proc:    -1,
				Witness: g.pathTo(id),
			})
			return
		}
	}
}
