// Prefix snapshots and forked explorations.
//
// Candidate programs produced by internal/enumerate differ only in
// their final guarded actions: the first Depth-1 shared-memory
// invocations are common to every candidate of a prefix-trie node. A
// level-synchronized BFS makes the shared work a clean prefix of the
// level sequence — a configuration at BFS level L has some process
// with min(L, Depth) completed steps, so every configuration at level
// <= Depth-1 was produced exclusively by instructions the whole group
// shares. SnapshotPrefix freezes the search at that barrier; Fork
// resumes it per candidate on a copy of the frozen tables (the *Config
// pointers, the BFS-tree columns, the heap-backed store's table and
// arenas), copied into the forking Checker's reused buffers, producing
// a Report byte-identical to a from-scratch run of the forked system.
//
// Restrictions: heap-backed store, symmetry off, no valency, no
// checkpointing — exactly the configuration falsification sweeps run.
package explore

import (
	"errors"
	"fmt"

	"setagree/internal/task"
)

// ErrForkUnsupported reports a SnapshotPrefix or Fork option outside
// the supported envelope (symmetry, valency, store directory,
// checkpoints, or a mismatched forked system).
var ErrForkUnsupported = errors.New("explore: fork does not support this configuration")

// ProbeSymmetry replays exactly the pre-BFS admissibility pipeline of
// a symmetry-reduced Check — initial configuration, group
// construction, root stability — without exploring anything. It
// returns nil when Check would run reduced, an error matching
// ErrNotSymmetric/ErrSymmetryUnsupported when Check would reject the
// reduction (the sweep fallback path), and any other construction
// error verbatim. The sweep memoizer uses it to account symmetry
// fallbacks exactly on candidates whose exploration it elides.
func ProbeSymmetry(sys *System, tsk task.Task, mode Symmetry) error {
	if mode == SymmetryOff {
		return nil
	}
	root, err := initialConfig(sys)
	if err != nil {
		return err
	}
	grp, err := buildGroup(sys, tsk, mode)
	if err != nil {
		return err
	}
	return grp.checkRootStable(root)
}

// plainEngine reports whether opts stay inside the snapshot and fork
// envelope: symmetry off, no valency, the heap-backed store and no
// checkpoints.
func (o *Options) plainEngine() bool {
	return o.Symmetry == SymmetryOff && !o.Valency && !o.Store.Enabled() && o.Checkpoint.Path == ""
}

// Snapshot is a frozen BFS prefix: the configuration table, BFS tree,
// and report totals of an exploration stopped at a level barrier.
// A Snapshot is immutable and owns its buffers; any number of Forks,
// on different Checkers, may run concurrently against it.
type Snapshot struct {
	g           *graph
	maxStates   int
	expanded    int
	level       int
	transitions int
	quiescent   int
	frontierMax int
	batchMax    int
}

// States is the number of configurations interned in the prefix — the
// exploration work each additional Fork reuses instead of redoing.
func (s *Snapshot) States() int { return len(s.g.configs) }

// SnapshotPrefix explores sys for exactly `levels` BFS levels and
// freezes the search at that barrier. The run is silent (no metrics,
// events, or checkpoints) and supports only the plain heap-backed
// symmetry-off engine. Callers guarantee that every system later
// passed to Fork executes instructions identical to sys's over the
// snapshot's levels; the prefix levels of enumerate's candidate
// families satisfy this by construction.
func SnapshotPrefix(sys *System, tsk task.Task, levels int, opts Options) (*Snapshot, error) {
	if levels <= 0 {
		return nil, fmt.Errorf("explore: snapshot of %d levels: %w", levels, ErrForkUnsupported)
	}
	if !opts.plainEngine() || opts.Cover != nil {
		return nil, fmt.Errorf("explore: snapshot prefixes support only the plain heap-backed engine: %w", ErrForkUnsupported)
	}
	opts.Obs = nil
	opts.Events = nil
	opts.HeartbeatEvery = -1
	// A checker of its own, never reused: the snapshot keeps its graph.
	st, _, err := new(Checker).newSearch(sys, tsk, &opts)
	if err != nil {
		return nil, err
	}
	st.stopLevels = levels
	if err := st.bfs(); err != nil {
		return nil, err
	}
	// The frontier's handles name this checker's step memo, which no
	// fork reads: a fork resolves them into its own. Dropping them lets
	// the memo go while the snapshot lives.
	for _, c := range st.g.configs[st.expanded:] {
		c.memo = nil
	}
	return &Snapshot{
		g:           st.g,
		maxStates:   opts.MaxStates,
		expanded:    st.expanded,
		level:       st.level,
		transitions: st.rep.Transitions,
		quiescent:   st.rep.Quiescent,
		frontierMax: st.frontierMax,
		batchMax:    st.batchMax,
	}, nil
}

// Fork resumes the snapshot for a forked system — same process count,
// objects, and inputs; programs that agree with the snapshot's over
// every instruction executed in the prefix — and drives the search to
// completion. The fork starts from a copy of the snapshot's prefix in
// the checker's buffers: the configuration pointers, BFS-tree columns,
// and the store's table and arenas. The snapshot is only read, so
// forks on different checkers may run concurrently. Because the prefix
// executions are identical by the caller's guarantee and the merge
// order is canonical, the returned Report — ids, counts, violations,
// witnesses — is byte-identical to a from-scratch Check of the forked
// system; opts.MaxStates must equal the snapshot's so state-limit
// truncation points agree too. Metrics flushed to opts.Obs count the
// whole logical run (prefix included), matching the from-scratch
// equivalent; the work actually saved is States() per reuse. The
// Report stays valid until the checker's next call (see Checker).
func (c *Checker) Fork(s *Snapshot, sys *System, opts Options) (*Report, error) {
	base := s.g
	if len(sys.Programs) != len(base.sys.Programs) || len(sys.Inputs) != len(base.sys.Inputs) ||
		len(sys.Objects) != len(base.sys.Objects) {
		return nil, fmt.Errorf("explore: forked system shape differs from snapshot: %w", ErrForkUnsupported)
	}
	for i, in := range sys.Inputs {
		if in != base.sys.Inputs[i] {
			return nil, fmt.Errorf("explore: forked input %d differs from snapshot: %w", i, ErrForkUnsupported)
		}
	}
	opts.fill()
	if opts.MaxStates != s.maxStates {
		return nil, fmt.Errorf("explore: fork MaxStates %d differs from snapshot's %d: %w",
			opts.MaxStates, s.maxStates, ErrForkUnsupported)
	}
	if !opts.plainEngine() {
		return nil, fmt.Errorf("explore: forks support only the plain heap-backed engine: %w", ErrForkUnsupported)
	}

	g := c.reset(sys, base.tsk)
	g.configs = append(g.configs, base.configs...)
	g.parent = append(g.parent, base.parent...)
	g.canon = append(g.canon, base.canon...)
	copy(g.halted, base.halted)
	g.unsafe, g.unsafeErr = base.unsafe, base.unsafeErr
	d, bd := g.disk, base.disk
	d.s = c.heapStore()
	d.s.CopyFrom(bd.s)
	d.edgeOff = append(d.edgeOff, bd.edgeOff...)
	d.edgeDurable = bd.edgeDurable

	rep := &Report{g: g, Transitions: s.transitions, Quiescent: s.quiescent}
	st := c.begin(g, rep, &opts)
	c.resetMemos(g)
	st.expanded = s.expanded
	st.frontierMax = s.frontierMax
	st.batchMax = s.batchMax
	st.level = s.level
	// Prefix steps never leave the guard PC (the prefix stops before any
	// process reaches its final invocation), so the empty coverage the
	// search starts with matches a from-scratch recording.
	return st.run()
}
