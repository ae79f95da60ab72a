package explore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"setagree/internal/machine"
	"setagree/internal/obs"
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
	// Workers 1 and Workers 64. A falsification sweep (internal/
	// enumerate) runs every check at Workers 1: its parallelism is
	// across candidates, each worker on one reused Checker.
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
	// FirstViolation stops the analyses once the first violation is
	// known: Report.Violations is exactly the first element of a full
	// Check's, witness and cycle included, or empty when that is. The
	// exploration itself is the same, so every count, Cover and Valency
	// match a full Check. A safety failure skips the liveness analysis, a
	// halted-undecided process skips the SCC walk, and otherwise only the
	// first cycle violation's witness and cycle are built. A caller that
	// needs one counterexample per protocol (a falsification sweep) sets
	// it; the explore.violations counter then counts at most one.
	FirstViolation bool
}

// fill applies the defaults of MaxStates, HeartbeatEvery and Workers.
func (o *Options) fill() {
	if o.MaxStates <= 0 {
		o.MaxStates = 1 << 21
	}
	if o.HeartbeatEvery == 0 {
		o.HeartbeatEvery = 1 << 15
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
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
	// protocol solves the task on this instance); under
	// Options.FirstViolation, only the first.
	Violations []*Violation
	// Valency holds the valence analysis when Options.Valency was set.
	Valency *ValencyReport
	// Cover is the per-process branch coverage when Options.Cover was
	// set (valid on partial reports too: a state-limited prefix records
	// exactly the branches its merged levels exercised).
	Cover []BranchCover
	// UnreducedStates and UnreducedTransitions count the concrete graph
	// explored: under symmetry, Σ orbit(rep) and Σ orbit(rep)·outdeg(rep)
	// over the representatives (every orbit member has its
	// representative's out-degree); without, States and Transitions.
	UnreducedStates      int64
	UnreducedTransitions int64

	g *graph
}

// Solved reports whether no violation was found.
func (r *Report) Solved() bool { return len(r.Violations) == 0 }

// graph is the explored configuration graph. Configurations are
// interned by their compact binary key (Config.AppendKey) in the
// configuration store (see store.go): keys live in its hash table
// and Keys arena, edge lists in its Edges arena, and expanded configs
// entries are nil after their level's spill.
type graph struct {
	sys     *System
	tsk     task.Task
	configs []*Config
	// parent is the BFS tree: config id's parent id (-1 for the root).
	// The tree step into id is not kept: it is the first edge in the
	// parent's edge record that targets id (see treeStep).
	parent  []int
	valence []Valence  // per-config valence, populated by valency()
	grp     *group     // symmetry group, nil when Options.Symmetry is off
	canon   []int      // per config: index of the group element g with g·config canonical
	orbit   []int      // per config under symmetry: its orbit size
	stab    []uint8    // under symmetry, n per config: its stabilizer's orbits (see keyScratch.orb)
	disk    *diskState // configuration store
	scc     sccScratch // the liveness and valency passes' working memory
	// Under symmetry, Σ orbit over the interned configurations and Σ
	// orbit·outdegree over the expanded ones: the unreduced counts.
	unreducedStates, unreducedTrans int64
	// halted[i] is the first configuration (in id order) in which
	// process i has halted undecided, -1 when none; intern keeps it.
	halted []int
	// unsafe is the first configuration (in id order) that fails the
	// task's safety predicate, with the predicate's error, -1 when none;
	// intern keeps both, evaluating the predicate through outcome, which
	// it fills in place.
	unsafe    int
	unsafeErr error
	outcome   task.Outcome
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
//
// Check is a one-shot Checker: new(Checker).Check(sys, tsk, opts).
func Check(sys *System, tsk task.Task, opts Options) (*Report, error) {
	return new(Checker).Check(sys, tsk, opts)
}

// Checker runs explorations one after another, keeping its buffers
// between them: the heap configuration store (emptied with
// store.Reset), the graph columns, the merge scratch, and the shard
// buffers, among them the slabs the BFS builds successor
// configurations in, which every call and every level barrier recycle.
// Callers that run many small checks — a sweep worker runs
// thousands of a few dozen configurations each — keep one Checker and
// allocate almost nothing per check. The zero value is ready to use.
//
// A Report a Checker returns stays valid until that Checker's next
// Check or Fork call, which reuses the memory the Report's graph walks
// (WriteDOT, Adversary) read. Its counts, Violations (with witnesses
// and cycles), Valency and Cover never alias reused memory and stay
// valid for good. A run with Options.Store.Dir set opens its own
// directory store, which the caller closes as with Check, and before
// the checker's next call. A Checker is not safe for concurrent use;
// give each goroutine its own.
type Checker struct {
	g      *graph
	heap   *store.Store // the reused heap store, nil until first needed
	shards []*shardOut
}

// Check is the package-level Check on the checker's buffers.
func (c *Checker) Check(sys *System, tsk task.Task, opts Options) (*Report, error) {
	st, rep, err := c.newSearch(sys, tsk, &opts)
	if err != nil {
		return rep, err
	}
	return st.run()
}

// reset empties the checker's graph for an exploration of sys/tsk,
// keeping every column's capacity. The graph has no store until
// openStore gives it one. The Report of the checker's previous call is
// invalid from here on.
func (c *Checker) reset(sys *System, tsk task.Task) *graph {
	if c.g == nil {
		c.g = &graph{disk: &diskState{}}
	}
	g, d := c.g, c.g.disk
	// Dropped pointers keep no configuration of the last run alive.
	clear(g.configs)
	*g = graph{
		sys:     sys,
		tsk:     tsk,
		configs: g.configs[:0],
		parent:  g.parent[:0],
		canon:   g.canon[:0],
		orbit:   g.orbit[:0],
		stab:    g.stab[:0],
		disk:    d,
		scc:     g.scc,
		halted:  resize(g.halted, sys.Procs()),
		unsafe:  -1,
		outcome: g.outcome,
	}
	for i := range g.halted {
		g.halted[i] = -1
	}
	g.scc.stab.at(-1)
	g.scc.walks = 0
	if !slices.Equal(g.outcome.Inputs, sys.Inputs) {
		g.outcome = task.NewOutcome(sys.Inputs)
	}
	*d = diskState{
		edgeOff: d.edgeOff[:0],
		edgeRec: d.edgeRec[:0],
	}
	return g
}

// openStore gives the graph its configuration store: the checker's own
// heap store, reset, unless so asks for anything else (a directory or a
// budget), which opens a store of the run's own.
func (c *Checker) openStore(so store.Options, sink *obs.Sink) error {
	if so != (store.Options{}) {
		s, err := store.Open(so, sink)
		c.g.disk.s = s
		return err
	}
	c.g.disk.s = c.heapStore()
	c.g.disk.s.Reset()
	return nil
}

// heapStore returns the checker's reused heap store, opening it on
// first use.
func (c *Checker) heapStore() *store.Store {
	if c.heap == nil {
		c.heap, _ = store.Open(store.Options{}, nil) // a heap store cannot fail to open
	}
	return c.heap
}

// begin starts a search over g on the checker's shard buffers.
func (c *Checker) begin(g *graph, rep *Report, opts *Options) *search {
	st := &search{ck: c, g: g, rep: rep, opts: opts, frontierMax: 1, hbNext: opts.HeartbeatEvery}
	for _, out := range c.shards {
		// The last search's configurations are dead: its Report is
		// invalid from here on.
		for i := range out.slabs {
			out.slabs[i].recycle(out.slabs[i].n)
		}
	}
	if opts.Cover != nil {
		// A fresh slice, shared with the report up front so partial exits
		// (state limit, cancellation) carry the coverage observed so far.
		st.cover = make([]BranchCover, g.sys.Procs())
		st.coverPC = opts.Cover.GuardPC
		rep.Cover = st.cover
	}
	if opts.Obs != nil {
		// Resolved once here so Check, Fork and Resume all record
		// per-level latency; nil when metrics are off, costing the loop
		// one nil check per level.
		st.levelHist = opts.Obs.Histogram("explore.level_ns")
	}
	return st
}

// resetMemos readies the shards' step memos, which cache the last
// search's steps, for a search of g with its group built.
func (c *Checker) resetMemos(g *graph) {
	for _, out := range c.shards {
		out.memo.reset(g.sys.Objects, g.grp)
	}
}

// newSearch validates the system/task pair, normalizes opts in place,
// builds the symmetry group, and interns the root configuration, on
// the checker's buffers. On validation failure before the graph exists
// the returned Report is nil; past that point the partial Report is
// returned flushed (one explore.error terminal event), matching Check's
// error contract.
func (c *Checker) newSearch(sys *System, tsk task.Task, opts *Options) (*search, *Report, error) {
	if len(sys.Programs) != len(sys.Inputs) {
		return nil, nil, fmt.Errorf("explore: %d programs but %d inputs: %w",
			len(sys.Programs), len(sys.Inputs), machine.ErrProgram)
	}
	if tsk != nil && tsk.Procs() != sys.Procs() {
		return nil, nil, fmt.Errorf("explore: task %s wants %d processes, system has %d: %w",
			tsk.Name(), tsk.Procs(), sys.Procs(), machine.ErrProgram)
	}
	opts.fill()

	g := c.reset(sys, tsk)
	rep := &Report{g: g}
	st := c.begin(g, rep, opts)
	fail := func(err error) (*search, *Report, error) {
		rep.States = len(g.configs)
		st.flush("explore.error", err)
		// A failed construction leaves no graph worth walking; release
		// the store (idempotent — callers may Close again).
		rep.Close()
		return nil, rep, err
	}

	if err := c.openStore(opts.Store, opts.Obs); err != nil {
		return fail(err)
	}

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
	c.resetMemos(g)
	// Every group element stabilizes the root, so its concrete key is
	// already canonical and its orbit is the root alone.
	rootKey := root.AppendKey(nil)
	var rootStab []uint8
	if g.grp != nil {
		rootStab = g.grp.rootOrbits()
	}
	if _, err := g.intern(rootKey, store.Hash(rootKey), root, -1, 0, 1, rootStab); err != nil {
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

	err := st.bfs()
	// The analyses below expand nothing. Dropping the checker lets a
	// one-shot Check's shard buffers go; a reused checker's owner keeps
	// them.
	st.ck = nil
	if err != nil {
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
		if g.unsafe >= 0 {
			rep.Violations = append(rep.Violations, &Violation{
				Kind:    ViolationSafety,
				Err:     g.unsafeErr,
				Proc:    -1,
				Witness: g.pathTo(g.unsafe),
			})
		}
		if !opts.FirstViolation || len(rep.Violations) == 0 {
			g.checkLiveness(rep, opts.FirstViolation)
		}
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

	// ck owns the shard buffers, one per worker, reset at every level
	// (see expandLevel); nil once the BFS is done.
	ck *Checker
	// gen is the slab generation the level being expanded builds its
	// successors in (see retire).
	gen int
}

// succRec is one successor produced by a worker, in canonical (proc,
// branch) order within its parent's expansion. It names its step by
// the shard's step memo, which rebuilds it at the merge (see step).
type succRec struct {
	id     int32 // global id when >= 0 (interned before this level), else ^ the level-local id in the shard's table
	gi     int32 // group index minimizing the key (0 when symmetry off)
	pe     int32 // the stepping process's memo entry, which holds its invocation
	b      int32 // the transition's index in the memo's trans, which holds its response
	proc   int32
	branch int32
}

// expansion is one expanded configuration's entry in its shard: its
// successors are the shard's succs from the previous expansion's end up
// to end.
type expansion struct {
	quiescent bool
	end       int
}

// shardOut is one worker's result for a contiguous shard of a BFS
// level. Successors the frozen global table misses are interned into
// the shard's level-local table, so a configuration several parents
// reach in one level costs one key copy and one Config: only its first
// occurrence in the shard builds one. A Checker keeps one shardOut per
// worker and resets it at every level of every search.
type shardOut struct {
	start    int // first config id of the shard
	exps     []expansion
	succs    [][]succRec // the level's successors, in chunks of succChunk
	nSuccs   int
	local    *store.Store // level-local table of keys the global one missed
	khash    []uint32     // by local id: the key's store.Hash
	cfgs     []*Config    // by local id: the first occurrence's configuration
	orbits   []int        // by local id: the configuration's orbit size (1 without symmetry)
	stabs    []uint8      // under symmetry, n per local id: its stabilizer's orbits
	gids     []int        // merge scratch: global id by local id, -1 until merged
	err      error
	errAt    int // config id whose expansion failed
	symHits  int // successors canonicalized to a different key
	orbitMax int // largest successor orbit in the shard
	sc       keyScratch
	memo     *stepMemo // kept across the levels of a search
	// slabs are the two generations of successor configurations (see
	// search.retire), kept across levels and searches.
	slabs [2]slab
}

// reset empties out for the shard starting at config id start, keeping
// its buffers' capacity, its step memo and its slabs. Clearing cfgs
// keeps the slab chunks a recycle trimmed collectable.
func (out *shardOut) reset(start int) {
	out.local.Reset()
	clear(out.cfgs)
	*out = shardOut{
		start:  start,
		exps:   out.exps[:0],
		succs:  out.succs,
		local:  out.local,
		khash:  out.khash[:0],
		cfgs:   out.cfgs[:0],
		orbits: out.orbits[:0],
		stabs:  out.stabs[:0],
		gids:   out.gids[:0],
		sc:     out.sc,
		memo:   out.memo,
		slabs:  out.slabs,
	}
}

// succChunk is the number of successors in one chunk of a shard's
// successor buffer. The chunks are kept across levels and never move, so
// a level wider than every earlier one adds chunks rather than regrowing
// and copying one buffer.
const succChunk = 256

// addSucc appends rec to the level's successors.
func (out *shardOut) addSucc(rec succRec) {
	if out.nSuccs == len(out.succs)*succChunk {
		out.succs = append(out.succs, make([]succRec, succChunk))
	}
	out.succs[out.nSuccs/succChunk][out.nSuccs%succChunk] = rec
	out.nSuccs++
}

// step rebuilds the step of successor s from the shard's step memo.
func (out *shardOut) step(s *succRec) Step {
	inv := &out.memo.pents[s.pe].inv
	return Step{Proc: int(s.proc), Obj: inv.Obj, Op: inv.Op, Resp: out.memo.trans[s.b].resp, Branch: int(s.branch)}
}

// lookup resolves a successor's key, whose store.Hash is h, against
// the frozen global table and then the shard's level-local one, setting
// rec's id. It reports false when both miss.
func (out *shardOut) lookup(g *graph, rec *succRec, key []byte, h uint32) bool {
	if id, ok := g.disk.s.LookupHash(key, h); ok {
		rec.id = int32(id)
		return true
	}
	if lid, ok := out.local.LookupHash(key, h); ok {
		rec.id = ^int32(lid)
		return true
	}
	return false
}

// intern adds the first occurrence of key, whose store.Hash is h, in
// the shard to the level-local table, keeping its configuration c and
// its orbit size, and returns the local id.
func (out *shardOut) intern(key []byte, h uint32, c *Config, orbit int) (int, error) {
	lid, err := out.local.InternHash(key, h)
	if err != nil {
		return 0, err
	}
	out.khash = append(out.khash, h)
	out.cfgs = append(out.cfgs, c)
	out.orbits = append(out.orbits, orbit)
	return lid, nil
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
		st.retire(levelStart, levelEnd)
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

// retire ends a level barrier past the merge: it spills the expanded
// level [start, end) and recycles the slab generation that held its
// configurations, which the next level's successors are built in. A
// configuration built from a slab thus lives from the merge that
// interns it until the barrier after its own level's expansion, and two
// generations suffice: the level being expanded and the level being
// built. Every recycled generation keeps at most the chunks the level
// just merged needed in its shard, so the memory it retains is bounded
// by the resident frontier's.
func (st *search) retire(start, end int) {
	st.g.spillExpanded(start, end)
	st.gen ^= 1
	for _, out := range st.ck.shards {
		out.slabs[st.gen].recycle(out.slabs[st.gen^1].n)
	}
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
// expanded inline. The returned shards are the checker's reused
// buffers, valid until the next level's expansion.
func (st *search) expandLevel(levelStart, levelEnd int) []*shardOut {
	size := levelEnd - levelStart
	shards := max(min(st.opts.Workers, (size+minShardConfigs-1)/minShardConfigs), 1)
	ck := st.ck
	for len(ck.shards) < shards {
		local, _ := store.Open(store.Options{}, nil) // a heap store cannot fail to open
		memo := newStepMemo()
		memo.reset(st.g.sys.Objects, st.g.grp)
		ck.shards = append(ck.shards, &shardOut{local: local, memo: memo})
	}
	outs := ck.shards[:shards]
	if shards == 1 {
		st.expandShard(outs[0], levelStart, levelEnd)
		return outs
	}
	chunk := (size + shards - 1) / shards
	var wg sync.WaitGroup
	for w, out := range outs {
		start := levelStart + w*chunk
		end := min(start+chunk, levelEnd)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.expandShard(out, start, end)
		}()
	}
	wg.Wait()
	return outs
}

// expandShard expands configurations [start, end) into out against the
// frozen global table (read-only during a level, so lock-free).
// Successor keys are built in the shard's scratch; already-interned
// successors cost no Config at all. The global table cannot see this
// level's successors, so most successors reaching a fresh
// configuration miss it; the shard's level-local table catches the
// repeats, and only a key's first occurrence in the shard is copied
// and keeps its configuration for the merge. Each key is hashed once,
// for both probes, the local intern and the merge.
func (st *search) expandShard(out *shardOut, start, end int) {
	out.reset(start)
	for at := start; at < end; at++ {
		if err := st.expand(out, st.g.configs[at]); err != nil {
			out.err, out.errAt = err, at
			return
		}
	}
}

// expand appends the successors of c, in (proc, branch) order, and
// then c's expansion entry to out. Every component step comes from the
// shard's step memo through the parent's handles (see stepMemo): the
// invocation from the process entry, the offered transitions from the
// object entry and the operation, the next process entry per response.
// A step changes two components, the stepping process's state and the
// touched object's, so a successor is the parent's handles with two
// replaced, and its probe key is formed from them: without symmetry
// spliced, the parent's key bytes (concatenated once from its entries',
// with per-component end offsets) with the two components' replaced;
// under symmetry canonical, which group.canonical reads from the
// entries. A successor builds a Config, from the memo's states and with
// its own handles, only when both tables miss its key.
func (st *search) expand(out *shardOut, c *Config) error {
	g, sc, mo := st.g, &out.sc, out.memo
	hs, err := mo.handles(g.sys, c, &sc.hnd)
	if err != nil {
		return err
	}
	np := len(c.Procs)
	var pkey []byte
	var ends []int
	if g.grp == nil {
		// Parent key with component ends: the mask ends at ends[0],
		// process i at ends[1+i], object j at ends[1+np+j].
		ends = slices.Grow(sc.ends[:0], 1+len(hs))[:1+len(hs)]
		pkey = binary.AppendUvarint(sc.parent[:0], c.SteppedMask)
		ends[0] = len(pkey)
		for k, e := range hs {
			if k < np {
				pkey = append(pkey, mo.procKey(e)...)
			} else {
				pkey = append(pkey, mo.objKey(e)...)
			}
			ends[1+k] = len(pkey)
		}
		sc.parent, sc.ends = pkey, ends
	} else {
		sc.succ = append(sc.succ[:0], hs...)
	}
	for i := range c.Procs {
		if !c.Live(i) {
			continue
		}
		pe := hs[i]
		p := mo.pents[pe].inv
		if err := g.sys.checkObj(p); err != nil {
			return err
		}
		jo := p.Obj
		lo, hi, err := mo.offer(g.sys, hs[np+jo], p)
		if err != nil {
			return err
		}
		for b := lo; b < hi; b++ {
			t := mo.trans[b]
			ne, err := mo.next(g.sys, i, pe, t.resp)
			if err != nil {
				return err
			}
			rec := succRec{pe: pe, b: b, proc: int32(i), branch: b - lo}
			var key []byte
			orbit := 1
			if g.grp == nil {
				key = binary.AppendUvarint(sc.best[:0], c.SteppedMask|1<<uint(i))
				key = append(key, pkey[ends[0]:ends[i]]...)
				key = append(key, mo.procKey(ne)...)
				key = append(key, pkey[ends[i+1]:ends[np+jo]]...)
				key = append(key, mo.objKey(t.next)...)
				key = append(key, pkey[ends[np+jo+1]:]...)
				sc.best = key
			} else {
				sc.succ[i], sc.succ[np+jo] = ne, t.next
				var gi int
				key, gi, orbit = g.grp.canonical(sc, mo, sc.succ, c.SteppedMask|1<<uint(i))
				rec.gi = int32(gi)
				sc.succ[i], sc.succ[np+jo] = pe, hs[np+jo]
				out.orbitMax = max(out.orbitMax, orbit)
				if rec.gi != 0 {
					out.symHits++
				}
			}
			if h := store.Hash(key); !out.lookup(g, &rec, key, h) {
				nc := mo.build(c, hs, i, jo, ne, t.next, &out.slabs[st.gen])
				lid, err := out.intern(key, h, nc, orbit)
				if err != nil {
					return err
				}
				rec.id = ^int32(lid)
				if g.grp != nil {
					out.stabs = append(out.stabs, sc.orb...)
				}
			}
			out.addSucc(rec)
		}
	}
	// Memo-served steps are still steps: one tally per expansion.
	machine.CountSteps(mo.served)
	mo.served = 0
	out.exps = append(out.exps, expansion{quiescent: c.Quiescent(), end: out.nSuccs})
	return nil
}

// mergeLevel folds the shard results into the graph single-threaded,
// in ascending (config id, proc, branch) order — the exact order a
// sequential BFS interns successors, which is what makes ids canonical.
// A successor's first occurrence in its shard probes the global table,
// where an earlier shard may have interned the same configuration during
// this merge; the shard's later occurrences reuse the id it received.
// On a worker error the level is not merged and the canonically first
// error (smallest config id) is returned, so the error — and the
// counters, which then cover completed levels only — are identical at
// any worker count.
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
	np := g.sys.Procs()
	for _, out := range outs {
		st.symHits += out.symHits
		if out.orbitMax > st.orbitMax {
			st.orbitMax = out.orbitMax
		}
	}
	batch := 0
	for x, out := range outs {
		for range out.cfgs {
			out.gids = append(out.gids, -1)
		}
		lo := 0
		for rel, exp := range out.exps {
			at := out.start + rel
			if exp.quiescent {
				rep.Quiescent++
			}
			batch += exp.end - lo
			rec := d.edgeRec[:0]
			merged := 0
			var stop error
			for k := lo; k < exp.end; k++ {
				s := &out.succs[k/succChunk][k%succChunk]
				step := out.step(s)
				if st.cover != nil && g.configs[at].Procs[step.Proc].PC == st.coverPC {
					// The parent configuration of the currently merging
					// level is always resident (spilling runs after the
					// merge).
					if step.Resp == value.Bottom {
						st.cover[step.Proc].Bottom = true
					} else {
						st.cover[step.Proc].Value = true
					}
				}
				id, fresh := int(s.id), false
				if id < 0 {
					lid := int(^s.id)
					if id = out.gids[lid]; id < 0 {
						key, h := out.local.Key(lid), out.khash[lid]
						known, ok := 0, false
						if x > 0 { // the first shard's keys missed the frozen table in expansion, and nothing has joined it since
							known, ok = g.disk.s.LookupHash(key, h)
						}
						if ok {
							id = known
						} else {
							var err error
							var stab []uint8
							if g.grp != nil {
								stab = out.stabs[lid*np : (lid+1)*np]
							}
							if id, err = g.intern(key, h, out.cfgs[lid], at, int(s.gi), out.orbits[lid], stab); err != nil {
								return err
							}
							fresh = true
						}
						out.gids[lid] = id
					}
				}
				gi := 0
				if g.grp != nil {
					// The concrete successor D satisfies
					// s.gi·D = canonical = canon[id]·R_id, so
					// D = (s.gi⁻¹ ∘ canon[id])·R_id.
					gi = g.grp.relate(int(s.gi), g.canon[id])
				}
				rec = appendEdge(rec, id, step, gi)
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
			lo = exp.end
			if g.grp != nil {
				g.unreducedTrans += int64(g.orbit[at]) * int64(merged)
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
	rep.UnreducedStates, rep.UnreducedTransitions = int64(rep.States), int64(rep.Transitions)
	if st.g.grp != nil {
		rep.UnreducedStates, rep.UnreducedTransitions = st.g.unreducedStates, st.g.unreducedTrans
	}
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
		rev = append(rev, g.treeStep(at))
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}
