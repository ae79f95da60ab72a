// The configuration store.
//
// The explorer keeps the active BFS frontier live in memory while
// everything only the post-exploration analyses need — the interning
// table, per-configuration outcome metadata, and the encoded edge lists
// of completed levels — lives in the append-only arenas of
// internal/store: on the heap, or mmap'd under Options.Store.Dir.
// Edge lists are written in exactly the delta-encoded section format
// the checkpoint package persists, so a snapshot's edge section is
// served zero-copy from the arena's committed prefix, and the two
// backends produce byte-identical Reports, witnesses, valency labels,
// DOT output, event streams, and snapshots at any worker count.
//
// What stays resident per configuration: the BFS tree's parent id, the
// canon column, one (nil after spill) *Config pointer, and two arena
// offsets. The tree step into a configuration is decoded from its
// parent's edge record (treeStep). Everything else is decoded on demand
// through metaAt/edgeIter below: edgeIter.next decodes whole edges, and
// edgeIter.lean only the target and stepping process, for the walks
// that read nothing else (SCCs, the liveness cycle loop, valency
// propagation). The safety check and the liveness check's
// halted-undecided scan read no record at all: intern evaluates the
// task's safety predicate on the configuration in hand and notes the
// first that fails it, and each process's first halted configuration,
// as it goes.
//
// A configuration the BFS builds comes from its shard's slab (see slab
// and search.retire), with its step-memo handles (see stepMemo), and
// lives from the merge that interns it until
// spillExpanded drops it, after its own level's expansion; the barrier
// that spills a level recycles the slab generation that held it. The
// root, and every configuration replay, restore or configAt builds,
// comes from the heap instead and is never recycled, since it may stay
// resident for good.
package explore

import (
	"encoding/binary"
	"fmt"

	"setagree/internal/machine"
	"setagree/internal/store"
	"setagree/internal/value"
)

// diskState is the explorer's view of its configuration store.
type diskState struct {
	s *store.Store
	// metaOff[id] and edgeOff[id] locate config id's outcome record in
	// the Meta arena and its encoded edge list in the Edges arena; both
	// are written in id order, so each record ends where the next one
	// starts (or at the arena's Len for the last).
	metaOff []int64
	edgeOff []int64
	// edgeDurable is the Edges-arena prefix covered by completed level
	// barriers. Snapshots serialize exactly this prefix; the merge of a
	// partially-failed level may append beyond it, and those bytes never
	// enter a snapshot.
	edgeDurable int64
	// Single-threaded merge/intern scratch.
	edgeRec []byte
	metaRec []byte
}

// intern adds a fresh configuration under its binary key (the
// canonical orbit key when symmetry is on; the stored configuration
// stays concrete), whose store.Hash is h, recording its BFS parent, the
// group index gi that canonicalizes it and, under symmetry, its orbit
// size, and returns the new id. The
// tree step from the parent is the parent's first edge to the new id
// (see treeStep). The caller has already verified the key is absent.
// The key and the outcome metadata record go to the store's arenas. Every configuration — root, merged
// successor, restored checkpoint entry — passes through here, in id
// order, so this is where the first configuration that fails the
// task's safety predicate is noted for the safety check, and the first
// halted-undecided configuration of each process for the liveness
// check.
func (g *graph) intern(key []byte, h uint32, c *Config, parent, gi, orbit int) (int, error) {
	id := len(g.configs)
	d := g.disk
	sid, err := d.s.InternHash(key, h)
	if err != nil {
		return 0, err
	}
	if sid != id {
		return 0, fmt.Errorf("explore: internal: store assigned id %d to configuration %d", sid, id)
	}
	d.metaRec = appendMeta(d.metaRec[:0], g.sys, c)
	off, err := d.s.Meta.Append(d.metaRec)
	if err != nil {
		return 0, err
	}
	d.metaOff = append(d.metaOff, off)
	g.noteUnsafe(id, c)
	for i := range c.Procs {
		if c.Procs[i].Status == machine.StatusHalted && g.halted[i] < 0 {
			g.halted[i] = id
		}
	}
	g.configs = append(g.configs, c)
	g.parent = append(g.parent, parent)
	g.canon = append(g.canon, gi)
	if g.grp != nil {
		g.orbit = append(g.orbit, orbit)
		g.unreducedStates += int64(orbit)
	}
	return id, nil
}

// noteUnsafe evaluates the task's safety predicate on c, interned as
// id, until the first configuration fails it, and notes that one.
func (g *graph) noteUnsafe(id int, c *Config) {
	if g.unsafe >= 0 || g.tsk == nil {
		return
	}
	c.fillOutcome(&g.outcome)
	if err := g.tsk.CheckSafety(g.outcome); err != nil {
		g.unsafe, g.unsafeErr = id, err
	}
}

// spillExpanded drops the resident *Config of every configuration in
// [start, end) — they have been expanded, and every later read goes
// through the meta arena (or tree replay, for the rare witness-time
// configAt). The root (id 0) always stays resident: the snapshot
// fingerprint and the symmetry root-stability check key it directly.
func (g *graph) spillExpanded(start, end int) {
	for id := max(start, 1); id < end; id++ {
		g.configs[id] = nil
	}
}

// configAt returns the concrete configuration with the given id,
// replaying the BFS tree from the nearest resident ancestor when it
// was spilled. Replayed configurations stay resident, so later replays
// through them start there. Replay is witness-extraction machinery
// (stabilizer checks), never the hot path.
func (g *graph) configAt(id int) *Config {
	if c := g.configs[id]; c != nil {
		return c
	}
	var chain []int
	at := id
	for g.configs[at] == nil {
		chain = append(chain, at)
		at = g.parent[at]
	}
	c := g.configs[at]
	for k := len(chain) - 1; k >= 0; k-- {
		next, ok, err := g.sys.replay(c, g.treeStep(chain[k]))
		if err != nil || !ok {
			// The same replay succeeded when the configuration was first
			// interned (or restored), so failure here is memory corruption,
			// not an input error.
			panic(fmt.Sprintf("explore: internal: spilled configuration %d does not replay", chain[k]))
		}
		c = next
		g.configs[chain[k]] = c
	}
	return c
}

// treeStep returns the BFS tree step into config id, which is not the
// root: the first edge in its parent's edge record that targets id. The
// merge interns id on that edge, and no earlier edge of the parent can
// reach a configuration not yet interned; restore checks that a
// snapshot's tree agrees.
func (g *graph) treeStep(id int) Step {
	s, ok := g.firstEdge(g.parent[id], id)
	if !ok {
		panic(fmt.Sprintf("explore: internal: no edge of configuration %d reaches its child %d", g.parent[id], id))
	}
	return s
}

// firstEdge returns the step of the first edge in from's edge record
// that targets to, decoding only the targets of the edges before it.
func (g *graph) firstEdge(from, to int) (Step, bool) {
	it := g.edgeIter(from)
	for d := &it.dec; it.rem > 0; it.rem-- {
		if int(d.varint()) == to {
			return d.step(), true
		}
		d.i++     // method byte
		d.skip(7) // arg, label, response, process, object, branch, group index
	}
	return Step{}, false
}

// metaRec is the decoded per-configuration outcome record: everything
// the liveness, valency, and DOT passes read from a configuration,
// without the configuration. The stepped mask is not in it: only the
// safety predicate reads that, and intern evaluates it on the
// configuration itself.
type metaRec struct {
	status   []machine.Status
	decision []value.Value
	poised   []int // object index process i is poised on, -1 when none
}

// appendMeta encodes c's outcome record: per process a status byte,
// decision varint, and poised-object varint.
func appendMeta(dst []byte, sys *System, c *Config) []byte {
	for i := range c.Procs {
		dst = append(dst, byte(c.Procs[i].Status))
		dst = binary.AppendVarint(dst, int64(c.Procs[i].Decision))
		obj := -1
		if poise, ok := machine.Poised(sys.Programs[i], c.Procs[i]); ok {
			obj = poise.Obj
		}
		dst = binary.AppendVarint(dst, int64(obj))
	}
	return dst
}

// metaAt fills m with config id's outcome record, decoded from the meta
// arena. m's slices are reused across calls; callers keep one metaRec
// per scan.
func (g *graph) metaAt(id int, m *metaRec) {
	n := g.sys.Procs()
	if len(m.status) != n {
		m.status = make([]machine.Status, n)
		m.decision = make([]value.Value, n)
		m.poised = make([]int, n)
	}
	d := g.disk
	dec := recDec{b: record(d.s.Meta, d.metaOff, id)}
	for i := 0; i < n; i++ {
		m.status[i] = machine.Status(dec.byte())
		m.decision[i] = value.Value(dec.varint())
		m.poised[i] = int(dec.varint())
	}
}

// record returns record id of an arena whose records start at offs and
// are laid out in id order, each ending where the next one starts (or
// at the arena's end, for the last).
func record(a *store.Arena, offs []int64, id int) []byte {
	end := a.Len()
	if id+1 < len(offs) {
		end = offs[id+1]
	}
	return a.Span(offs[id], end)
}

// live reports whether process i is poised to take a step.
func (m *metaRec) live(i int) bool { return m.status[i] == machine.StatusPoised }

// quiescent reports whether no process can take a step.
func (m *metaRec) quiescent() bool {
	for _, s := range m.status {
		if s == machine.StatusPoised {
			return false
		}
	}
	return true
}

// recDec decodes one arena record. The records are the explorer's own
// write-once bytes, so there is no error path: a malformed record
// indicates memory corruption and panics via the bounds check.
type recDec struct {
	b []byte
	i int
}

func (d *recDec) byte() byte {
	b := d.b[d.i]
	d.i++
	return b
}

// uvarint decodes an unsigned varint, with the dominant one-byte case
// first.
func (d *recDec) uvarint() uint64 {
	if b := d.b[d.i]; b < 0x80 {
		d.i++
		return uint64(b)
	}
	x, n := binary.Uvarint(d.b[d.i:])
	d.i += n
	return x
}

// varint decodes a zigzag-encoded signed varint.
func (d *recDec) varint() int64 {
	ux := d.uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// skip advances past k varints.
func (d *recDec) skip(k int) {
	for ; k > 0; k-- {
		for d.b[d.i] >= 0x80 {
			d.i++
		}
		d.i++
	}
}

// step decodes exactly the bytes putStep writes.
func (d *recDec) step() Step {
	var s Step
	s.Op.Method = value.Method(d.byte())
	s.Op.Arg = value.Value(d.varint())
	s.Op.Label = int(d.varint())
	s.Resp = value.Value(d.varint())
	s.Proc = int(d.varint())
	s.Obj = int(d.varint())
	s.Branch = int(d.varint())
	return s
}

// edgeIter walks one configuration's outgoing edges by decoding its
// record in the Edges arena, in the canonical merge order the record
// was written in.
type edgeIter struct {
	rem int // edges left to decode
	dec recDec
}

// edgeIter returns an iterator over config id's outgoing edges.
// Unexpanded configurations (frontier at an aborted run) have none.
func (g *graph) edgeIter(id int) edgeIter {
	d := g.disk
	if id >= len(d.edgeOff) {
		return edgeIter{}
	}
	dec := recDec{b: record(d.s.Edges, d.edgeOff, id)}
	return edgeIter{rem: int(dec.varint()), dec: dec}
}

func (it *edgeIter) next() (edge, bool) {
	if it.rem == 0 {
		return edge{}, false
	}
	it.rem--
	var e edge
	e.to = int(it.dec.varint())
	e.step = it.dec.step()
	e.g = int(it.dec.varint())
	return e, true
}

// lean decodes only the next edge's target and stepping process, and
// skips the other step fields and the group index by their
// continuation bits: the walks that read nothing else (SCCs, the
// liveness cycle loop, valency propagation) never decode a full Step.
func (it *edgeIter) lean() (to, proc int, ok bool) {
	if it.rem == 0 {
		return 0, 0, false
	}
	it.rem--
	d := &it.dec
	to = int(d.varint())
	d.i++     // method byte
	d.skip(3) // arg, label, response
	proc = int(d.varint())
	d.skip(3) // object, branch, group index
	return to, proc, true
}

// Close releases the report's configuration store, unmapping and
// removing the arena files of a directory store. It is a no-op for
// heap-backed stores, nil-safe, and idempotent. After Close on a
// directory store the report's counts, violations, and valency summary
// remain valid, but the graph walks — WriteDOT, Adversary — must not be
// called.
func (r *Report) Close() error {
	if r == nil || r.g == nil || r.g.disk == nil || r.g.disk.s == nil {
		return nil
	}
	return r.g.disk.s.Close()
}
