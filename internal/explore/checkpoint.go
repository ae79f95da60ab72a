// Durable snapshots of the level-synchronized BFS.
//
// A snapshot is taken only at level barriers, where the search state is
// a handful of counters plus the explored graph. The graph is NOT
// serialized as raw configurations — binary keys are injective but not
// decodable — and it does not need to be: the BFS spanning tree (parent
// id + the Step that produced each configuration) determines every
// stored configuration by replay, one machine.Resume + one object Step
// each, far cheaper than re-expanding the graph. Cross edges (with
// their symmetry annotations) are stored explicitly; interning keys,
// canonicalizing group elements, and the graph.canon column are
// recomputed during replay, which doubles as an integrity check — a
// corrupted tree surfaces as a replay mismatch or duplicate key, never
// as a silently wrong graph.
//
// The payload rides in the internal/checkpoint container, which rejects
// foreign files, damaged bytes, version skew, and — via the system
// fingerprint below — snapshots taken from a different instance than
// the resume was asked to continue. MaxStates and Workers are
// deliberately NOT fingerprinted: exploration is deterministic at any
// worker count, and raising the state cap on resume is a feature, not a
// mismatch.
package explore

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"setagree/internal/checkpoint"
	"setagree/internal/machine"
	"setagree/internal/task"
	"setagree/internal/value"
)

// checkpointKind and checkpointVersion identify the explorer's snapshot
// payload schema inside the generic container.
const (
	checkpointKind    = "explore.bfs"
	checkpointVersion = 1
)

// fingerprint returns the snapshot fingerprint of the search's
// instance: FNV-1a over the programs, object specs, root configuration
// key (which covers the inputs and every object's initial state), task
// identity, and symmetry mode. Memoized; the root must be interned.
func (st *search) fingerprint() uint64 {
	if st.fpSet {
		return st.fp
	}
	g := st.g
	f := checkpoint.NewFingerprint().String(checkpointKind)
	f = f.Int(g.sys.Procs())
	for _, p := range g.sys.Programs {
		f = fingerprintProgram(f, p)
	}
	f = f.Int(len(g.sys.Objects))
	for _, o := range g.sys.Objects {
		f = f.String(o.Name())
	}
	f = f.Write(g.configs[0].AppendKey(nil))
	if g.tsk != nil {
		f = f.String(g.tsk.Name()).Int(g.tsk.Procs())
	} else {
		f = f.String("")
	}
	f = f.Int(int(st.opts.Symmetry))
	st.fp, st.fpSet = uint64(f), true
	return st.fp
}

func fingerprintProgram(f checkpoint.Fingerprint, p *machine.Program) checkpoint.Fingerprint {
	f = f.String(p.Name).Int(p.NumRegs).Int(len(p.Instrs))
	for _, in := range p.Instrs {
		f = f.Int(int(in.Kind)).Int(int(in.Method)).Int(in.Obj).Int(in.Target).Int(int(in.Dst))
		f = fingerprintOperand(f, in.A)
		f = fingerprintOperand(f, in.B)
	}
	return f
}

func fingerprintOperand(f checkpoint.Fingerprint, o machine.Operand) checkpoint.Fingerprint {
	if o.IsReg {
		return f.Int(1).Int(int(o.Reg))
	}
	return f.Int(0).Uint64(uint64(int64(o.Const)))
}

// writeCheckpoint persists the barrier snapshot to
// Options.Checkpoint.Path. The delta encode runs at the barrier (the
// tree-section cache is single-threaded), but the container commit —
// dominated by write+fsync of the whole payload — runs on a background
// goroutine so the next levels explore while the snapshot lands on
// disk. At most one write is ever in flight: every caller drains the
// previous one via ckptWait first, which is also what makes reusing
// the payload scratch safe. wait=true (the interrupt/final snapshot,
// and barriers with an After hook, whose contract is "the snapshot for
// this level is on disk") blocks until the commit completes.
//
// The time the barrier loop spends blocked on checkpointing — encode
// plus any drain — is accounted to the explore.checkpoint_ns counter
// (with explore.checkpoints / checkpoint_bytes beside it), so a single
// instrumented run reports its own durable-write overhead
// (checkpoint_ns over wall time) without a differential baseline.
func (st *search) writeCheckpoint(wait bool) error {
	if err := st.ckptWait(); err != nil {
		return err
	}
	start := time.Now()
	h := checkpoint.Header{
		Kind:        checkpointKind,
		Version:     checkpointVersion,
		Fingerprint: st.fingerprint(),
	}
	sections := st.encodeSnapshot()
	bytes := 0
	for _, s := range sections {
		bytes += len(s)
	}
	done := make(chan error, 1)
	st.ckptPending = done
	path, o := st.opts.Checkpoint.Path, st.opts.Obs
	go func() {
		err := checkpoint.WriteV(path, h, sections)
		if o != nil && err == nil {
			o.Counter("explore.checkpoints").Inc()
			o.Counter("explore.checkpoint_bytes").Add(int64(bytes))
		}
		done <- err
	}()
	encode := time.Since(start)
	st.addCkptNs(encode)
	if o != nil {
		o.Counter("explore.checkpoint_encode_ns").Add(int64(encode))
	}
	if wait {
		return st.ckptWait()
	}
	return nil
}

// ckptWait drains the in-flight snapshot write, if any, and returns
// its result. Called before every new snapshot, by the final/interrupt
// paths, and at every bfs exit, so no write outlives the search.
func (st *search) ckptWait() error {
	if st.ckptPending == nil {
		return nil
	}
	start := time.Now()
	err := <-st.ckptPending
	st.ckptPending = nil
	st.addCkptNs(time.Since(start))
	return err
}

func (st *search) addCkptNs(d time.Duration) {
	if o := st.opts.Obs; o != nil {
		o.Counter("explore.checkpoint_ns").Add(int64(d))
	}
}

// encodeSnapshot renders the barrier state: counters first (so peeks
// decode a bounded prefix), then the spanning tree, then the edge lists
// of the expanded configurations.
//
// Both payload sections only grow between barriers — configurations
// are interned append-only and a configuration's edge list is final
// once its level is expanded. The encoded tree section is cached on the
// search, so each snapshot encodes just the delta since the previous
// one; the edge section is the Edges arena's durable prefix itself. The
// sections are returned by reference for checkpoint.WriteV, not
// assembled into one payload: the background writer reads them while
// the BFS explores on, which is safe because only the next
// encodeSnapshot call appends to the tree cache, merges append to the
// arena only past edgeDurable, and every caller drains the in-flight
// write first (see writeCheckpoint). The file is still rewritten whole
// — the snapshot stays one atomic, self-checksummed unit.
func (st *search) encodeSnapshot() [][]byte {
	g := st.g
	buf := st.ckptTree
	first := st.ckptTreeN
	if first < 1 {
		first = 1 // id 0 is the root; the tree section starts at id 1
	}
	for id := first; id < len(g.configs); id++ {
		n := len(buf)
		buf = slices.Grow(buf, treeRecMax)[:n+treeRecMax]
		i := putV(buf, n, int64(g.parent[id]))
		buf = buf[:putStep(buf, i, g.parentE[id])]
	}
	st.ckptTree, st.ckptTreeN = buf, len(g.configs)

	e := checkpoint.Enc{Buf: st.ckptBuf[:0]}
	e.Byte(byte(st.opts.Symmetry))
	order := 0
	if g.grp != nil {
		order = g.grp.order
	}
	e.Int(order)
	e.Int(st.level)
	e.Int(st.expanded)
	e.Int(st.rep.Transitions)
	e.Int(st.rep.Quiescent)
	e.Int(st.frontierMax)
	e.Int(st.hbNext)
	e.Int(st.symHits)
	e.Int(st.orbitMax)
	e.Varint(st.opts.Events.Seq())
	e.Int(len(g.configs))
	st.ckptBuf = e.Buf
	// The Edges arena already holds the expanded configurations' edge
	// lists in exactly this section's encoding; serve the durable prefix
	// zero-copy. The views stay stable while the background writer reads
	// them: later merges only append at or beyond edgeDurable.
	d := g.disk
	return append([][]byte{e.Buf, st.ckptTree}, d.s.Edges.Sections(d.edgeDurable)...)
}

// Upper bounds on one encoded record, for the single capacity
// reservation each encodeSnapshot append makes: a Step is one raw byte
// plus six varints; tree records prepend the parent id, edge records
// add the target and group index.
const (
	stepLenMax = 1 + 6*binary.MaxVarintLen64
	treeRecMax = binary.MaxVarintLen64 + stepLenMax
	edgeRecMax = 2*binary.MaxVarintLen64 + stepLenMax
)

// putV writes the signed varint v at buf[i:] (the caller has reserved
// room) and returns the end offset — byte-identical to
// binary.PutVarint, with the dominant one-byte case inlined. Together
// with the single capacity reservation per record this keeps the
// snapshot encoder off the per-byte grow checks and per-field call
// overhead of append-style encoding, which otherwise dominate the
// barrier stall on snapshot-sized graphs.
func putV(buf []byte, i int, v int64) int {
	u := uint64(v<<1) ^ uint64(v>>63)
	if u < 0x80 {
		buf[i] = byte(u)
		return i + 1
	}
	return i + binary.PutUvarint(buf[i:], u)
}

// putStep writes s at buf[i:] and returns the end offset, producing
// exactly the bytes decodeStep (and recDec.step) reads back.
func putStep(buf []byte, i int, s Step) int {
	buf[i] = byte(s.Op.Method)
	i++
	i = putV(buf, i, int64(s.Op.Arg))
	i = putV(buf, i, int64(s.Op.Label))
	i = putV(buf, i, int64(s.Resp))
	i = putV(buf, i, int64(s.Proc))
	i = putV(buf, i, int64(s.Obj))
	i = putV(buf, i, int64(s.Branch))
	return i
}

// appendEdge appends one edge record — target, step, group index — in
// the snapshot's edge-section encoding.
func appendEdge(buf []byte, to int, s Step, gi int) []byte {
	n := len(buf)
	buf = slices.Grow(buf, edgeRecMax)[:n+edgeRecMax]
	i := putV(buf, n, int64(to))
	i = putStep(buf, i, s)
	return buf[:putV(buf, i, int64(gi))]
}

func decodeStep(d *checkpoint.Dec) Step {
	var s Step
	s.Op.Method = value.Method(d.Byte())
	s.Op.Arg = value.Value(d.Varint())
	s.Op.Label = d.Int()
	s.Resp = value.Value(d.Varint())
	s.Proc = d.Int()
	s.Obj = d.Int()
	s.Branch = d.Int()
	return s
}

// Resume continues a checkpointed exploration of sys/tsk from the
// snapshot at path, with the invariant that the completed run's Report,
// witness schedules, DOT output, and event stream are byte-identical to
// an uninterrupted Check of the same instance (event wall-clock
// timestamps aside). The snapshot must have been taken from the same
// system, task, and symmetry mode — mismatches are rejected with
// checkpoint.ErrFingerprint before any payload byte is trusted —
// while MaxStates and Workers may differ freely. When opts.Events is
// set, its sequence counter is fast-forwarded to the snapshot's; pair
// with obs.TruncateEventsFile to trim a reused events file first.
//
// Past argument validation Resume follows Check's error contract:
// partial counters are flushed and exactly one terminal event is
// emitted on every exit path, including a rejected snapshot.
func Resume(path string, sys *System, tsk task.Task, opts Options) (*Report, error) {
	st, rep, err := newSearch(sys, tsk, &opts)
	if err != nil {
		return rep, err
	}
	if err := st.restore(path); err != nil {
		st.rep.States = len(st.g.configs)
		st.flush("explore.error", err)
		return st.rep, err
	}
	return st.run()
}

// corruptf wraps a replay-integrity failure.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("explore: checkpoint: "+format+": %w",
		append(args, checkpoint.ErrCorrupt)...)
}

// restore loads the snapshot at path into a freshly constructed search
// (root interned, group built), replaying the spanning tree to rebuild
// the configuration table.
func (st *search) restore(path string) error {
	g, opts := st.g, st.opts
	_, payload, err := checkpoint.Read(path, checkpointKind, checkpointVersion, st.fingerprint())
	if err != nil {
		return err
	}
	d := checkpoint.NewDec(payload)
	mode := Symmetry(d.Byte())
	order := d.Int()
	level := d.Int()
	expanded := d.Int()
	transitions := d.Int()
	quiescent := d.Int()
	frontierMax := d.Int()
	hbNext := d.Int()
	symHits := d.Int()
	orbitMax := d.Int()
	eventSeq := d.Varint()
	numConfigs := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if mode != opts.Symmetry {
		return corruptf("symmetry mode %v, resume asked for %v", mode, opts.Symmetry)
	}
	wantOrder := 0
	if g.grp != nil {
		wantOrder = g.grp.order
	}
	if order != wantOrder {
		return corruptf("group order %d, rebuilt group has %d", order, wantOrder)
	}
	// numConfigs-1 tree entries at >= 8 bytes each must fit the payload;
	// this bounds the replay loop before trusting the decoded count.
	if numConfigs < 1 || numConfigs-1 > d.Len() {
		return corruptf("implausible configuration count %d (%d payload bytes left)", numConfigs, d.Len())
	}
	if expanded < 0 || expanded > numConfigs || level < 0 ||
		transitions < 0 || quiescent < 0 || frontierMax < 0 || hbNext < 0 ||
		symHits < 0 || orbitMax < 0 || eventSeq < 0 {
		return corruptf("negative or inconsistent counters")
	}

	n := g.sys.Procs()
	sc := keyScratchPool.Get().(*keyScratch)
	defer keyScratchPool.Put(sc)
	for id := 1; id < numConfigs; id++ {
		parent := d.Int()
		s := decodeStep(d)
		if err := d.Err(); err != nil {
			return err
		}
		if parent < 0 || parent >= id {
			return corruptf("config %d: parent %d out of tree order", id, parent)
		}
		if s.Proc < 0 || s.Proc >= n {
			return corruptf("config %d: process %d out of range", id, s.Proc)
		}
		nexts, steps, err := successors(g.sys, g.configs[parent], s.Proc)
		if err != nil {
			return corruptf("config %d: replay: %v", id, err)
		}
		if s.Branch < 0 || s.Branch >= len(nexts) || steps[s.Branch] != s {
			return corruptf("config %d: stored step %v does not replay from its parent", id, s)
		}
		nc := nexts[s.Branch]
		var key []byte
		gi := 0
		if g.grp != nil {
			key, gi, _ = g.grp.canonical(sc, nc)
		} else {
			sc.best = nc.AppendKey(sc.best[:0])
			key = sc.best
		}
		if _, dup := g.disk.s.Lookup(key); dup {
			return corruptf("config %d: duplicate configuration in spanning tree", id)
		}
		if _, err := g.intern(key, nc, parent, s, gi); err != nil {
			return err
		}
	}
	for id := 0; id < expanded; id++ {
		// The validated record bytes — already in the edge arena's
		// encoding — are appended to it verbatim at the end of this
		// iteration.
		recStart := len(payload) - d.Len()
		cnt := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if cnt < 0 || cnt > d.Len() {
			return corruptf("config %d: implausible edge count %d", id, cnt)
		}
		for k := 0; k < cnt; k++ {
			to := d.Int()
			decodeStep(d)
			gi := d.Int()
			if err := d.Err(); err != nil {
				return err
			}
			if to < 0 || to >= numConfigs {
				return corruptf("config %d: edge to %d out of range", id, to)
			}
			if gi < 0 || gi >= max(order, 1) {
				return corruptf("config %d: edge group index %d out of range", id, gi)
			}
		}
		off, err := g.disk.s.Edges.Append(payload[recStart : len(payload)-d.Len()])
		if err != nil {
			return err
		}
		g.disk.edgeOff = append(g.disk.edgeOff, off)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return corruptf("%d trailing payload bytes", d.Len())
	}
	g.disk.edgeDurable = g.disk.s.Edges.Len()
	g.spillExpanded(1, expanded)

	st.level = level
	st.expanded = expanded
	st.frontierMax = frontierMax
	st.hbNext = hbNext
	st.symHits = symHits
	st.orbitMax = orbitMax
	st.rep.Transitions = transitions
	st.rep.Quiescent = quiescent
	opts.Events.SetSeq(eventSeq)
	return nil
}

// CheckpointInfo summarizes a snapshot without resuming it.
type CheckpointInfo struct {
	// Version is the payload schema version.
	Version uint64
	// Fingerprint is the stored system fingerprint. PeekCheckpoint does
	// not verify it (the system may not be reconstructed yet); Resume
	// does.
	Fingerprint uint64
	// Symmetry is the snapshot's reduction mode; GroupOrder the
	// symmetry group's order (0 when off).
	Symmetry   Symmetry
	GroupOrder int
	// Level is the number of completed BFS levels; States the interned
	// configurations; Expanded how many of them have been expanded.
	Level    int
	States   int
	Expanded int
	// Transitions is the labelled-edge count so far.
	Transitions int
	// EventSeq is the event stream's sequence counter at the snapshot —
	// the maxSeq to hand obs.TruncateEventsFile before resuming into a
	// reused events file.
	EventSeq int64
}

// PeekCheckpoint reads the snapshot summary at path, validating
// integrity, kind, and version but not the fingerprint.
func PeekCheckpoint(path string) (*CheckpointInfo, error) {
	h, payload, err := checkpoint.ReadUnverified(path, checkpointKind, checkpointVersion)
	if err != nil {
		return nil, err
	}
	d := checkpoint.NewDec(payload)
	info := &CheckpointInfo{Version: h.Version, Fingerprint: h.Fingerprint}
	info.Symmetry = Symmetry(d.Byte())
	info.GroupOrder = d.Int()
	info.Level = d.Int()
	info.Expanded = d.Int()
	info.Transitions = d.Int()
	d.Int() // quiescent
	d.Int() // frontierMax
	d.Int() // hbNext
	d.Int() // symHits
	d.Int() // orbitMax
	info.EventSeq = d.Varint()
	info.States = d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return info, nil
}
