// Package explore is an exhaustive model checker for protocols in the
// paper's system model: finitely many deterministic processes applying
// operations to linearizable shared objects under every possible
// schedule and every nondeterministic object response.
//
// It mechanizes the proof technique of §4 and §5 (the bivalency
// arguments of [8, 10]): it builds the reachable configuration graph,
// checks safety predicates at every configuration, checks the paper's
// termination properties via strongly-connected-component analysis,
// labels configurations with their valence, and extracts concrete
// witness schedules for every violation — the runs the proofs'
// adversaries construct.
package explore

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"setagree/internal/machine"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// System is a closed protocol instance: one program per process, the
// shared objects, and the processes' input values.
type System struct {
	// Programs holds one program per process (entries may alias).
	Programs []*machine.Program
	// Objects are the shared objects' sequential specifications.
	Objects []spec.Spec
	// Inputs are the per-process proposal values.
	Inputs []value.Value
}

// Procs returns the number of processes.
func (s *System) Procs() int { return len(s.Programs) }

// Config is one configuration: the state of every process and every
// object, plus which processes have taken at least one step (needed by
// the n-DAC Nontriviality property).
type Config struct {
	// Procs are the process states.
	Procs []machine.ProcState
	// Objs are the object states.
	Objs []spec.State
	// SteppedMask has bit i set when process i has taken a step.
	SteppedMask uint64

	// hnd holds the step-memo entry ids ("handles") of a configuration
	// expand built: its processes' entries, then its objects'.
	// They are valid only while memo, the memo that built it, is still
	// in generation mgen (see stepMemo.handles).
	hnd  []int32
	memo *stepMemo
	mgen uint32
}

// Key returns the canonical human-readable encoding of the
// configuration. The explorer interns configurations through the
// compact binary AppendKey instead; Key remains for debugging and for
// the invariant tests that cross-check the two encodings.
func (c *Config) Key() string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(c.SteppedMask, 36))
	for _, p := range c.Procs {
		b.WriteByte('/')
		b.WriteString(p.Key())
	}
	for _, o := range c.Objs {
		b.WriteByte('#')
		b.WriteString(o.Key())
	}
	return b.String()
}

// AppendKey appends the canonical compact binary encoding of the
// configuration to dst and returns the extended slice. Two
// configurations of one System are equal iff their encodings are equal:
// the process and object counts are fixed per System and every
// component encoding is self-delimiting, so the concatenation is
// injective. The explorer interns configurations by these bytes in the
// configuration store (internal/store), whose table compares a probe
// against the key arena's bytes without copying them, and its analyses
// decode per-process outcomes from the interned bytes (metaAt).
func (c *Config) AppendKey(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, c.SteppedMask)
	for _, p := range c.Procs {
		dst = p.AppendKey(dst)
	}
	for _, o := range c.Objs {
		dst = spec.AppendStateKey(dst, o)
	}
	return dst
}

// AppendKeyUnder appends the binary key the permuted configuration
// p·c — process i's state moved to slot p.ProcIdx(i) and renamed, the
// stepped mask permuted alongside, object states keyed under p — would
// produce from AppendKey. It implements the spec.Symmetric contract at
// the configuration level and is what orbit canonicalization minimizes
// over. Panics when an object state lacks spec.Symmetric; the explorer
// validates that up front, so this is unreachable past buildGroup.
func (c *Config) AppendKeyUnder(dst []byte, p spec.Perm) []byte {
	dst = binary.AppendUvarint(dst, permuteMask(c.SteppedMask, p))
	for j := range c.Procs {
		dst = c.Procs[p.ProcInvIdx(j)].AppendKeyUnder(dst, p)
	}
	return appendStatesUnder(dst, c.Objs, p)
}

// appendStatesUnder appends the keys of object states objs under p, the
// object-state tail of AppendKeyUnder.
func appendStatesUnder(dst []byte, objs []spec.State, p spec.Perm) []byte {
	for _, o := range objs {
		var ok bool
		dst, ok = spec.AppendStateKeyUnder(dst, o, p)
		if !ok {
			panic(fmt.Sprintf("explore: object state %T does not implement spec.Symmetric", o))
		}
	}
	return dst
}

// Outcome projects the externally visible outcome of the configuration
// for task predicates.
func (c *Config) Outcome(inputs []value.Value) task.Outcome {
	o := task.NewOutcome(inputs)
	c.fillOutcome(&o)
	return o
}

// fillOutcome writes c's outcome into o in place. o must come from
// task.NewOutcome over the system's inputs; every other field is
// overwritten, so one Outcome serves every configuration of a run.
func (c *Config) fillOutcome(o *task.Outcome) {
	for i, p := range c.Procs {
		o.Decisions[i], o.Decided[i], o.Aborted[i] = value.None, false, false
		switch p.Status {
		case machine.StatusDecided:
			o.Decide(i, p.Decision)
		case machine.StatusAborted:
			o.Aborted[i] = true
		}
		o.Stepped[i] = c.SteppedMask&(1<<uint(i)) != 0
	}
}

// Live reports whether process i is poised to take a step.
func (c *Config) Live(i int) bool {
	return c.Procs[i].Status == machine.StatusPoised
}

// Quiescent reports whether no process can take a step.
func (c *Config) Quiescent() bool {
	for i := range c.Procs {
		if c.Live(i) {
			return false
		}
	}
	return true
}

// MaxProcs is the largest process count the explorer accepts:
// Config.SteppedMask tracks "has taken a step" in a uint64, so a 65th
// process would silently overflow the mask and corrupt the
// Nontriviality/Stepped projection.
const MaxProcs = 64

// initialConfig builds the initial configuration of the system: every
// process started on its input, every object in its initial state.
func initialConfig(sys *System) (*Config, error) {
	n := sys.Procs()
	if n > MaxProcs {
		return nil, fmt.Errorf("explore: %d processes exceed the %d-process bound (SteppedMask is a uint64): %w",
			n, MaxProcs, machine.ErrProgram)
	}
	c := &Config{
		Procs: make([]machine.ProcState, n),
		Objs:  make([]spec.State, len(sys.Objects)),
	}
	for i := 0; i < n; i++ {
		ps, err := machine.Start(sys.Programs[i], i+1, sys.Inputs[i])
		if err != nil {
			return nil, err
		}
		c.Procs[i] = ps
	}
	for j, o := range sys.Objects {
		c.Objs[j] = o.Init()
	}
	return c, nil
}

// Step is one labelled transition of the configuration graph: process
// Proc applied Op to object Obj and received Resp (branch Branch of the
// object's nondeterministic transition relation).
type Step struct {
	// Op is the applied operation.
	Op value.Op
	// Resp is the response the object chose.
	Resp value.Value
	// Proc is the stepping process (0-based).
	Proc int
	// Obj is the object index.
	Obj int
	// Branch is the index into the object's offered transitions.
	Branch int
}

// String renders the step as "p3: PROPOSE_AT(0, 3) on obj0 -> done".
func (s Step) String() string {
	return "p" + strconv.Itoa(s.Proc+1) + ": " + s.Op.String() +
		" on obj" + strconv.Itoa(s.Obj) + " -> " + s.Resp.String()
}

// poised returns the invocation live process i of c is poised at and
// the transitions its object offers for it, one per branch: the
// process half of a step, then its object half.
func (s *System) poised(c *Config, i int) (machine.Poise, []spec.Transition, error) {
	p, _ := machine.Poised(s.Programs[i], c.Procs[i])
	ts, err := s.offer(c, p)
	return p, ts, err
}

// checkObj rejects an invocation of an object the system does not have.
func (s *System) checkObj(p machine.Poise) error {
	if p.Obj < 0 || p.Obj >= len(s.Objects) {
		return spec.BadOpError("system", p.Op,
			"object index "+strconv.Itoa(p.Obj)+" out of range")
	}
	return nil
}

// offer returns the transitions object p.Obj of c offers for
// invocation p, one per branch. It is the explorer's one application of
// an object's sequential specification.
func (s *System) offer(c *Config, p machine.Poise) ([]spec.Transition, error) {
	if err := s.checkObj(p); err != nil {
		return nil, err
	}
	return s.objStep(c.Objs[p.Obj], p)
}

// objStep returns the transitions object p.Obj, in state st, offers for
// invocation p. p.Obj must be in range (checkObj).
func (s *System) objStep(st spec.State, p machine.Poise) ([]spec.Transition, error) {
	return s.Objects[p.Obj].Step(st, p.Op)
}

// resume returns process i's next state from ps on response resp.
func (s *System) resume(i int, ps machine.ProcState, resp value.Value) (machine.ProcState, error) {
	return machine.Resume(s.Programs[i], ps, resp)
}

// move is one branch of a step from a configuration: the step's labels
// and the two components it changes, the stepping process's next state
// and the touched object's, from which Config.after builds the
// successor.
type move struct {
	Step
	proc machine.ProcState
	obj  spec.State
}

// step takes branch b of the transitions ts that poised offered live
// process i of c at invocation p: it resumes the process on the
// branch's response.
func (s *System) step(c *Config, i int, p machine.Poise, ts []spec.Transition, b int) (move, error) {
	t := ts[b]
	ps, err := s.resume(i, c.Procs[i], t.Resp)
	return move{
		Step: Step{Proc: i, Obj: p.Obj, Op: p.Op, Resp: t.Resp, Branch: b},
		proc: ps,
		obj:  t.Next,
	}, err
}

// after returns the configuration move m leads c to, built from sl, or
// on the heap when sl is nil.
func (c *Config) after(m move, sl *slab) *Config {
	next := c.clone(sl)
	next.SteppedMask |= 1 << uint(m.Proc)
	next.Procs[m.Proc] = m.proc
	next.Objs[m.Obj] = m.obj
	return next
}

// clone returns a copy of c built from sl, or on the heap when sl is
// nil. Component states are immutable values, so the copy shares them.
// The copy carries no step-memo handles.
func (c *Config) clone(sl *slab) *Config {
	next := sl.alloc(len(c.Procs), len(c.Objs))
	copy(next.Procs, c.Procs)
	copy(next.Objs, c.Objs)
	next.SteppedMask = c.SteppedMask
	next.memo = nil
	return next
}

// slabChunk is the number of configurations in one chunk of a slab.
const slabChunk = 256

// slab hands out the successor configurations one BFS level builds in
// one shard: each Config and its Procs, Objs and handle backing arrays
// come from chunks of slabChunk configurations, which never move, so a
// handed-out *Config stays valid until the slab is recycled. A shard keeps two
// slabs, one per generation: the level being built and the level being
// expanded (see search.retire). The root and every configuration that
// replay, restore or configAt builds stay resident for good, so they
// never come from a slab.
type slab struct {
	cfgs  [][]Config
	procs [][]machine.ProcState
	objs  [][]spec.State
	hnds  [][]int32
	n     int // configurations handed out since the last recycle
}

// alloc returns a configuration with np process and no object slots,
// and, from a slab, np+no handle slots, from s, or from the heap when s
// is nil. A slab's configuration holds whatever its slot held last; the
// caller overwrites every field.
func (s *slab) alloc(np, no int) *Config {
	if s == nil {
		return &Config{Procs: make([]machine.ProcState, np), Objs: make([]spec.State, no)}
	}
	k, i := s.n/slabChunk, s.n%slabChunk
	if k == len(s.cfgs) {
		s.cfgs = append(s.cfgs, make([]Config, slabChunk))
		s.procs = append(s.procs, nil)
		s.objs = append(s.objs, nil)
		s.hnds = append(s.hnds, nil)
	}
	nh := np + no
	if i == 0 && (len(s.procs[k]) != slabChunk*np || len(s.objs[k]) != slabChunk*no) {
		// A new chunk, or one sized for another search's system.
		s.procs[k] = make([]machine.ProcState, slabChunk*np)
		s.objs[k] = make([]spec.State, slabChunk*no)
		s.hnds[k] = make([]int32, slabChunk*nh)
	}
	s.n++
	c := &s.cfgs[k][i]
	c.Procs = s.procs[k][i*np : (i+1)*np : (i+1)*np]
	c.Objs = s.objs[k][i*no : (i+1)*no : (i+1)*no]
	c.hnd = s.hnds[k][i*nh : (i+1)*nh : (i+1)*nh]
	return c
}

// recycle rewinds s so its chunks serve again, keeping at most keep
// configurations' worth of them (and at least one chunk), so a level
// that shrinks does not hold on to the memory of a wider one.
func (s *slab) recycle(keep int) {
	s.n = 0
	k := max((keep+slabChunk-1)/slabChunk, 1)
	if k >= len(s.cfgs) {
		return
	}
	clear(s.cfgs[k:])
	clear(s.procs[k:])
	clear(s.objs[k:])
	clear(s.hnds[k:])
	s.cfgs, s.procs, s.objs, s.hnds = s.cfgs[:k], s.procs[:k], s.objs[:k], s.hnds[:k]
}

// replay applies st, a step of process st.Proc (in range), to c. It
// reports ok false when c does not offer st: the process is not
// poised, has no branch st.Branch, or labels it otherwise.
func (s *System) replay(c *Config, st Step) (next *Config, ok bool, err error) {
	if !c.Live(st.Proc) {
		return nil, false, nil
	}
	p, ts, err := s.poised(c, st.Proc)
	if err != nil || st.Branch < 0 || st.Branch >= len(ts) {
		return nil, false, err
	}
	m, err := s.step(c, st.Proc, p, ts, st.Branch)
	if err != nil || m.Step != st {
		return nil, false, err
	}
	return c.after(m, nil), true, nil
}
