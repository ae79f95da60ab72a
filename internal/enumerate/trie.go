// Prefix-trie sweep scheduling and forked explorations.
//
// Candidates of one family differ only late in their programs: the
// first Depth-1 invocations are drawn from the same menu positions, so
// the candidate list factors into a trie of shared instruction
// prefixes. The sweep walks that trie depth-first — candidates are
// claimed in an order that keeps each prefix group contiguous — and
// the first member of a group to need a concrete exploration freezes
// the BFS at the last all-shared level (explore.SnapshotPrefix); every
// later member forks the frozen search (explore.Checker.Fork) instead
// of re-exploring the common prefix. Forked reports are byte-identical
// to from-scratch checks, so scheduling stays invisible in every
// Report. At depth 1 there is no shared prefix and the trie degenerates
// to the flat list; the memo layer (memo.go) carries the speedup there.
package enumerate

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/obs"
	"setagree/internal/value"
)

// maxSnapshots caps the number of live prefix snapshots per
// runCandidates call; groups beyond the cap explore from scratch.
const maxSnapshots = 256

// snapEntry is one lazily built prefix snapshot, shared by every
// candidate of a (prefix group, input vector) cell.
type snapEntry struct {
	once sync.Once
	snap *explore.Snapshot
	err  error
	uses atomic.Int64
}

// runStats aggregates the memoization counters of one runCandidates
// call for the terminal sweep event.
type runStats struct {
	memoHits        atomic.Int64
	dedupCandidates atomic.Int64
	forkStatesSaved atomic.Int64
}

// runState is the per-runCandidates sweep engine: the claimed slice of
// candidates, the memo/trie scheduling state, and the resolved metric
// handles. It is shared by the worker goroutines; everything mutable
// is lock- or atomic-protected.
type runState struct {
	p       *Prepared
	cands   []candidate
	vectors [][]value.Value
	opts    SweepOptions

	// useMemo gates the whole memo/fork layer: memoization is on, the
	// sweep is not value-symmetry-reduced (whose quotient interacts
	// with the 0↔1 canonical swap), and the family has the guarded
	// layout the key schema assumes.
	useMemo bool
	// order is the claim order: identity normally, prefix-grouped
	// (trie depth-first) when forking is possible.
	order []int
	// group holds each candidate's prefix-group id, -1 for candidates
	// outside the memoizable layout. Nil when forking is off.
	group []int

	// parts caches each distinct role program's key serializations
	// (identity and 0↔1-swapped) and its swap/id-safety verdicts.
	// Programs are shared across many candidates, so this is built once
	// up front and read-only after.
	parts map[*machine.Program]progMeta
	// memoOK precomputes memoizable() per candidate, so the per-claim
	// dispatch is an index instead of a layout walk. Nil unless useMemo.
	memoOK []bool

	snapMu sync.Mutex
	snaps  map[uint64]*snapEntry

	// checkers holds one explore.Checker per worker goroutine (see
	// runCandidates); every check a worker runs goes through its own.
	checkers []*explore.Checker

	stats runStats

	// Memo metric handles resolve only when useMemo, so unmemoized
	// sweeps never register memo counters in the sink.
	memoCounter  *obs.Counter
	dedupCounter *obs.Counter
	forkCounter  *obs.Counter
}

func newRunState(p *Prepared, lo, hi int, vectors [][]value.Value, opts SweepOptions) *runState {
	rs := &runState{p: p, cands: p.cands[lo:hi], vectors: vectors, opts: opts}
	rs.order = make([]int, len(rs.cands))
	for i := range rs.order {
		rs.order[i] = i
	}
	rs.useMemo = !opts.DisableMemo && p.memo != nil && p.depth >= 1 &&
		opts.Symmetry != explore.SymmetryValues
	if !rs.useMemo {
		return rs
	}
	rs.memoCounter = opts.Obs.Counter("sweep.memo_hits")
	rs.dedupCounter = opts.Obs.Counter("sweep.dedup_candidates")
	rs.forkCounter = opts.Obs.Counter("sweep.fork_states_saved")
	rs.parts = make(map[*machine.Program]progMeta)
	rs.memoOK = make([]bool, len(rs.cands))
	for i, c := range rs.cands {
		if !rs.memoizable(c) {
			continue
		}
		rs.memoOK[i] = true
		for _, p := range c.progs[:rs.p.roles] {
			if _, ok := rs.parts[p]; !ok {
				rs.parts[p] = progMeta{
					parts: [2]progParts{
						buildProgParts(p, rs.p.depth, false),
						buildProgParts(p, rs.p.depth, true),
					},
					sigmaSafe: programSigmaSafe(p),
					idFree:    programIDFree(p),
				}
			}
		}
	}
	if p.depth >= 2 {
		rs.buildTrie()
	}
	return rs
}

// prefixKey serializes the instructions every group member shares: the
// first depth-1 invocations of each role program. Keys are built from
// instruction bytes, not shapes, so shape aliases (prev vs input in the
// first slot) land in the same group.
func prefixKey(roles []*machine.Program, depth int) string {
	var dst []byte
	for _, p := range roles {
		dst = binary.AppendUvarint(dst, uint64(p.NumRegs))
		for pc := 0; pc < depth-1; pc++ {
			dst = appendInstrKey(dst, p.Instrs[pc], false)
		}
	}
	return string(dst)
}

// buildTrie assigns each memoizable candidate its prefix group and
// reorders claiming so groups run contiguously (stable within a group:
// ascending candidate index). The permutation affects scheduling only —
// outcomes fold by candidate index — so reports are unchanged.
func (rs *runState) buildTrie() {
	keys := make([]string, len(rs.cands))
	rs.group = make([]int, len(rs.cands))
	gid := make(map[string]int)
	for i, c := range rs.cands {
		if !rs.memoOK[i] {
			rs.group[i] = -1
			continue
		}
		k := prefixKey(c.progs[:rs.p.roles], rs.p.depth)
		keys[i] = k
		id, ok := gid[k]
		if !ok {
			id = len(gid)
			gid[k] = id
		}
		rs.group[i] = id
	}
	sort.SliceStable(rs.order, func(a, b int) bool {
		ia, ib := rs.order[a], rs.order[b]
		if keys[ia] != keys[ib] {
			return keys[ia] < keys[ib]
		}
		return ia < ib
	})
	rs.snaps = make(map[uint64]*snapEntry)
}

// snapshotFor returns the prefix snapshot for the candidate's group on
// vector vi, building it once from the first requester's system (any
// member's prefix levels are identical by the group key). Nil when the
// group is untracked, the cap is reached, or the snapshot itself
// failed (state limit, cancellation) — callers then explore from
// scratch, which reproduces the failure or verdict identically.
func (rs *runState) snapshotFor(ci, vi int, sys *explore.System) *snapEntry {
	if rs.snaps == nil || rs.group[ci] < 0 {
		return nil
	}
	key := uint64(rs.group[ci])<<32 | uint64(vi)
	rs.snapMu.Lock()
	ent, ok := rs.snaps[key]
	if !ok {
		if len(rs.snaps) >= maxSnapshots {
			rs.snapMu.Unlock()
			return nil
		}
		ent = &snapEntry{}
		rs.snaps[key] = ent
	}
	rs.snapMu.Unlock()
	ent.once.Do(func() {
		ent.snap, ent.err = explore.SnapshotPrefix(sys, rs.p.tsk, rs.p.depth-1, rs.opts.checkOptions(explore.SymmetryOff))
	})
	if ent.err != nil {
		return nil
	}
	return ent
}

// explore runs one concrete model check on the worker's checker ck.
// For a memoized candidate it records branch coverage and forks the
// group's prefix snapshot when the configuration supports it (plain
// engine, depth with a shareable prefix); otherwise it is one ck.Check
// under the sweep's check options. Forked and from-scratch reports are
// byte-identical; fork savings are counted from the second use of each
// snapshot (the first had to explore the prefix to build it). The
// Report is valid until ck's next call.
func (rs *runState) explore(ck *explore.Checker, ci, vi int, sys *explore.System, mode explore.Symmetry, memo bool) (*explore.Report, error) {
	opts := rs.opts.checkOptions(mode)
	if !memo {
		return ck.Check(sys, rs.p.tsk, opts)
	}
	opts.Cover = &explore.CoverRequest{GuardPC: rs.p.depth - 1}
	if mode == explore.SymmetryOff && rs.p.depth >= 2 {
		if ent := rs.snapshotFor(ci, vi, sys); ent != nil {
			r, err := ck.Fork(ent.snap, sys, opts)
			if !errors.Is(err, explore.ErrForkUnsupported) {
				if ent.uses.Add(1) > 1 {
					saved := int64(ent.snap.States())
					rs.stats.forkStatesSaved.Add(saved)
					rs.forkCounter.Add(saved)
				}
				return r, err
			}
		}
	}
	return ck.Check(sys, rs.p.tsk, opts)
}
