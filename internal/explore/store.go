// The configuration store.
//
// The explorer keeps the active BFS frontier live in memory while
// everything only the post-exploration analyses need — the interning
// table with its keys, and the encoded edge lists of completed levels
// — lives in the append-only arenas of internal/store: on the heap, or
// mmap'd under Options.Store.Dir.
// Edge lists are written in exactly the delta-encoded section format
// the checkpoint package persists, so a snapshot's edge section is
// served zero-copy from the arena's committed prefix, and the two
// backends produce byte-identical Reports, witnesses, valency labels,
// DOT output, event streams, and snapshots at any worker count.
//
// What stays resident per configuration: the BFS tree's parent id, the
// canon column, one (nil after spill) *Config pointer, the key table's
// offset and the edge record's (under symmetry also the orbit size and
// the stabilizer's orbits). The tree step into a configuration is
// decoded from its parent's edge record (treeStep). Everything else is
// decoded on demand through metaAt/edgeIter below: metaAt reads the
// process outcomes from the interned key, edgeIter.next decodes whole
// edges, and edgeIter.lean only the target and stepping process, for
// the walks that read nothing else (SCCs, the liveness cycle loop,
// valency propagation). The safety check and the liveness check's
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
	// edgeOff[id] locates config id's encoded edge list in the Edges
	// arena. Lists are written in id order, so each ends where the next
	// one starts (or at the arena's Len for the last).
	edgeOff []int64
	// edgeDurable is the Edges-arena prefix covered by completed level
	// barriers. Snapshots serialize exactly this prefix; the merge of a
	// partially-failed level may append beyond it, and those bytes never
	// enter a snapshot.
	edgeDurable int64
	// Single-threaded merge scratch.
	edgeRec []byte
}

// intern adds a fresh configuration under its binary key (the
// canonical orbit key when symmetry is on; the stored configuration
// stays concrete), whose store.Hash is h, recording its BFS parent, the
// group index gi that canonicalizes it and, under symmetry, its orbit
// size, and returns the new id. The
// tree step from the parent is the parent's first edge to the new id
// (see treeStep). The caller has already verified the key is absent.
// The key goes to the store's Keys arena and, under symmetry, stab (the
// orbits of the configuration's stabilizer, see keyScratch.orb) to the
// stab column. Every configuration — root, merged
// successor, restored checkpoint entry — passes through here, in id
// order, so this is where the first configuration that fails the
// task's safety predicate is noted for the safety check, and the first
// halted-undecided configuration of each process for the liveness
// check.
func (g *graph) intern(key []byte, h uint32, c *Config, parent, gi, orbit int, stab []uint8) (int, error) {
	id := len(g.configs)
	d := g.disk
	sid, err := d.s.InternHash(key, h)
	if err != nil {
		return 0, err
	}
	if sid != id {
		return 0, fmt.Errorf("explore: internal: store assigned id %d to configuration %d", sid, id)
	}
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
		g.stab = append(g.stab, stab...)
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
// through the store's arenas (or tree replay, for the rare witness-time
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

// metaAt fills m with config id's outcome record, decoded from its
// interned key: per process slot a block of status byte, PC uvarint,
// decision value code, register count and registers (see
// Config.AppendKey), the poised object read off the program at the
// PC. Under symmetry the key is the canonical one, canon[id]·R_id,
// whose slot g(i) holds process i's block with its decision renamed by
// g's value map, so metaAt maps both back. m's slices are reused
// across calls; callers keep one metaRec per scan.
func (g *graph) metaAt(id int, m *metaRec) {
	n := g.sys.Procs()
	if len(m.status) != n {
		m.status = make([]machine.Status, n)
		m.decision = make([]value.Value, n)
		m.poised = make([]int, n)
	}
	var inv []uint8
	var vals map[value.Value]value.Value
	if gi := g.canon[id]; gi != 0 {
		var t int
		_, inv, t = g.grp.elem(gi)
		vals = g.grp.vmaps[t].Vals
	}
	dec := recDec{b: g.disk.s.Key(id)}
	dec.skip(1) // stepped mask
	for j := 0; j < n; j++ {
		i := j
		if inv != nil {
			i = int(inv[j])
		}
		st, pc := machine.Status(dec.byte()), int(dec.uvarint())
		m.status[i], m.decision[i], m.poised[i] = st, preimage(vals, value.FromKeyUint(dec.uvarint())), -1
		if st == machine.StatusPoised {
			m.poised[i] = g.sys.Programs[i].Instrs[pc].Obj
		}
		dec.skip(int(dec.uvarint())) // registers
	}
}

// preimage returns the value vals maps to v, v itself when none does
// (vals is a value map: a bijection on the values it moves).
func preimage(vals map[value.Value]value.Value, v value.Value) value.Value {
	for u, w := range vals {
		if w == v {
			return u
		}
	}
	return v
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
	s.Op.Arg = value.FromKeyUint(d.uvarint())
	s.Op.Label = int(d.varint())
	s.Resp = value.FromKeyUint(d.uvarint())
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

// leanGroup is lean that also decodes the edge's group index, for the
// walks that relate a step to its target's slots (the liveness cycle
// loop and the solo graph).
func (it *edgeIter) leanGroup() (to, proc, g int, ok bool) {
	if it.rem == 0 {
		return 0, 0, 0, false
	}
	it.rem--
	d := &it.dec
	to = int(d.varint())
	d.i++     // method byte
	d.skip(3) // arg, label, response
	proc = int(d.varint())
	d.skip(2) // object, branch
	return to, proc, int(d.varint()), true
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
