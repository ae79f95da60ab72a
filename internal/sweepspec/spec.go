// Package sweepspec holds the JSON sweep specs dacd's "sweep" and
// "collections-sweep" jobs carry, and the canonical reports they
// render. A SweepSpec rebuilds an enumerate candidate family from
// data; Run checks it in process and renders a SweepReport whose bytes
// are a pure function of the spec. A CollectionsSpec does the same for
// a set-consensus collections space through RunCollections. Both
// reject specs they cannot check with an error wrapping ErrSpec.
package sweepspec

import (
	"errors"
	"fmt"

	"setagree/internal/enumerate"
	"setagree/internal/explore"
	"setagree/internal/objects"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// ErrSpec is wrapped by every error that rejects a spec's contents.
var ErrSpec = errors.New("sweepspec: invalid spec")

// specErrorf returns an ErrSpec-wrapping error.
func specErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrSpec}, args...)...)
}

// Bounds on a sweep spec, checked before any shape or program is
// built.
const (
	// maxBinaryProcs is the largest process count whose input vectors
	// a spec may leave implicit: all 2^n binary vectors are generated,
	// so larger tasks must list their inputs.
	maxBinaryProcs = 16
	// maxSweepDepth keeps a shape's program within machine's 64
	// registers: two fixed registers plus one response per invocation.
	maxSweepDepth = 62
	// maxSweepCandidates bounds the candidates a spec yields before the
	// solo prefilter: |p-shapes|×|q-shapes| for a dac task, |shapes|
	// for a symmetric one, where a role has |menu|^depth ×
	// (|actions|² − |retry actions|²) shapes. Family.Shapes builds
	// every one of them. The bound admits E3's depth-2 Theorem 4.2
	// family (768 × 560 = 430,080 pairs) almost five times over.
	maxSweepCandidates = 1 << 21
	// maxSoloSteps bounds the solo prefilter's run length, 64 times
	// enumerate's default of 64. Preparing a sweep runs every shape solo
	// for up to this many steps, uncancellably.
	maxSoloSteps = 4096
)

// SweepSpec is a fully data-driven falsification sweep: everything
// needed to rebuild the candidate family, in JSON. It travels inside
// "sweep" job specs.
type SweepSpec struct {
	// Task selects the task the candidates are checked against.
	Task TaskSpec `json:"task"`
	// Objects is the permitted object base, by name.
	Objects []ObjectSpec `json:"objects"`
	// Menu is the invocation-template menu.
	Menu []InvokeSpec `json:"menu"`
	// Depth is the number of invocations per phase.
	Depth int `json:"depth"`
	// Actions is the permitted final-action set (abort is added
	// automatically for the distinguished DAC role).
	Actions []string `json:"actions"`
	// Inputs is the list of input vectors to check each candidate on;
	// empty means all binary vectors over the task's process count,
	// which must then be at most 16.
	Inputs [][]value.Value `json:"inputs,omitempty"`
	// MaxStatesPerCandidate caps each model check (0 = enumerate's
	// default).
	MaxStatesPerCandidate int `json:"max_states_per_candidate,omitempty"`
	// SoloSteps caps the solo prefilter (0 = enumerate's default).
	SoloSteps int `json:"solo_steps,omitempty"`
	// Symmetry is the reduction mode: "" or "off", "ids", "values".
	Symmetry string `json:"symmetry,omitempty"`
	// Memo toggles cross-candidate memoization (prefix-trie scheduling,
	// forked explorers, canonical-program dedup). Nil or true leaves it
	// on — memoized and unmemoized sweeps produce byte-identical
	// reports, so this is an ablation/benchmarking knob, not a
	// correctness one. False disables it.
	Memo *bool `json:"memo,omitempty"`
}

// TaskSpec names a task.
type TaskSpec struct {
	// Kind is "dac", "consensus", or "ksa".
	Kind string `json:"kind"`
	// N is the process count, at most explore.MaxProcs.
	N int `json:"n"`
	// K is the agreement bound (ksa only).
	K int `json:"k,omitempty"`
	// P is the distinguished process (dac only); it must be 0.
	P int `json:"p,omitempty"`
}

// ObjectSpec names a shared object.
type ObjectSpec struct {
	// Kind is "register", "consensus", "setagreement", "queue", or
	// "testandset".
	Kind string `json:"kind"`
	// N is the power (consensus) or process bound (setagreement).
	N int `json:"n,omitempty"`
	// K is the agreement bound (setagreement only).
	K int `json:"k,omitempty"`
}

// InvokeSpec names one menu entry.
type InvokeSpec struct {
	// Obj indexes Objects.
	Obj int `json:"obj"`
	// Method is "read", "write", "propose", "enqueue", or "dequeue".
	Method string `json:"method"`
	// Arg is "input", "0", "1", or "prev" (methods that take one).
	Arg string `json:"arg,omitempty"`
	// Label is the constant label for methods that take one.
	Label int `json:"label,omitempty"`
}

// Thm71 is the Theorem 7.1 negative sweep (EXPERIMENTS E8): the
// 1116-candidate depth-1 family over {2-consensus, register} checked
// against 3-DAC — the heaviest committed sweep and the reference
// workload of the sweep job.
func Thm71() SweepSpec {
	return SweepSpec{
		Task:    TaskSpec{Kind: "dac", N: 3},
		Objects: []ObjectSpec{{Kind: "consensus", N: 2}, {Kind: "register"}},
		Menu: []InvokeSpec{
			{Obj: 0, Method: "propose", Arg: "input"},
			{Obj: 1, Method: "write", Arg: "input"},
			{Obj: 1, Method: "read"},
		},
		Depth: 1,
		Actions: []string{
			"decide-input", "decide-last", "decide-first",
			"decide-0", "decide-1", "retry",
		},
	}
}

// Thm52 is the Theorem 5.2 positive sweep (EXPERIMENTS E5): the
// 49-candidate depth-1 symmetric family over {2-consensus, register,
// 2-SA} checked against 3-consensus — the small reference sweep, used
// where per-sweep fixed costs need to stay visible.
func Thm52() SweepSpec {
	return SweepSpec{
		Task: TaskSpec{Kind: "consensus", N: 3},
		Objects: []ObjectSpec{
			{Kind: "consensus", N: 2}, {Kind: "register"}, {Kind: "setagreement", K: 2},
		},
		Menu: []InvokeSpec{
			{Obj: 0, Method: "propose", Arg: "input"},
			{Obj: 1, Method: "write", Arg: "input"},
			{Obj: 1, Method: "read"},
			{Obj: 2, Method: "propose", Arg: "input"},
		},
		Depth: 1,
		Actions: []string{
			"decide-input", "decide-last", "decide-first",
			"decide-0", "decide-1", "retry",
		},
	}
}

func (t TaskSpec) build() (task.Task, error) {
	if t.N > explore.MaxProcs {
		return nil, specErrorf("task needs n <= %d, got %d", explore.MaxProcs, t.N)
	}
	switch t.Kind {
	case "dac":
		if t.N < 2 {
			return nil, specErrorf("dac task needs n >= 2, got %d", t.N)
		}
		if t.P != 0 {
			// PrepareDAC gives process 0 the distinguished role.
			return nil, specErrorf("dac task needs p = 0, got %d", t.P)
		}
		return task.DAC{N: t.N}, nil
	case "consensus":
		if t.N < 1 {
			return nil, specErrorf("consensus task needs n >= 1, got %d", t.N)
		}
		return task.Consensus{N: t.N}, nil
	case "ksa":
		if t.N < 1 || t.K < 1 {
			return nil, specErrorf("ksa task needs n, k >= 1, got n=%d k=%d", t.N, t.K)
		}
		return task.KSetAgreement{N: t.N, K: t.K}, nil
	default:
		return nil, specErrorf("unknown task kind %q", t.Kind)
	}
}

func (o ObjectSpec) build() (spec.Spec, error) {
	switch o.Kind {
	case "register":
		return objects.NewRegister(), nil
	case "consensus":
		if o.N < 1 {
			return nil, specErrorf("consensus object needs n >= 1, got %d", o.N)
		}
		return objects.NewConsensus(o.N), nil
	case "setagreement":
		if o.K < 1 {
			return nil, specErrorf("setagreement object needs k >= 1, got k=%d", o.K)
		}
		if o.N == 0 {
			// No process bound: the paper's k-SA object (TwoSA at k=2).
			return objects.SetAgreement{N: objects.Unbounded, K: o.K}, nil
		}
		if o.N < 1 {
			return nil, specErrorf("setagreement object needs n >= 1 or 0 for unbounded, got n=%d", o.N)
		}
		return objects.NewSetAgreement(o.N, o.K), nil
	case "queue":
		return objects.NewQueue(), nil
	case "testandset":
		return objects.NewTestAndSet(), nil
	default:
		return nil, specErrorf("unknown object kind %q", o.Kind)
	}
}

var methods = map[string]value.Method{
	"read":    value.MethodRead,
	"write":   value.MethodWrite,
	"propose": value.MethodPropose,
	"enqueue": value.MethodEnqueue,
	"dequeue": value.MethodDequeue,
}

var argSources = map[string]enumerate.ArgSource{
	"input": enumerate.ArgInput,
	"0":     enumerate.ArgZero,
	"1":     enumerate.ArgOne,
	"prev":  enumerate.ArgPrev,
}

var actions = map[string]enumerate.Action{
	"decide-input": enumerate.ActDecideInput,
	"decide-last":  enumerate.ActDecideLast,
	"decide-first": enumerate.ActDecideFirst,
	"decide-0":     enumerate.ActDecideZero,
	"decide-1":     enumerate.ActDecideOne,
	"retry":        enumerate.ActRetry,
}

// Family rebuilds the enumerate.Family the spec describes. It rejects
// a family with more than maxSweepCandidates candidates before the
// prefilter, counted without building a shape.
func (sp SweepSpec) Family() (*enumerate.Family, error) {
	if sp.Depth < 1 || sp.Depth > maxSweepDepth {
		return nil, specErrorf("depth must be in [1, %d], got %d", maxSweepDepth, sp.Depth)
	}
	if len(sp.Objects) == 0 || len(sp.Menu) == 0 || len(sp.Actions) == 0 {
		return nil, specErrorf("sweep spec needs objects, menu, and actions")
	}
	if sp.candidatesBeforePrefilter() > maxSweepCandidates {
		return nil, specErrorf("sweep family has more than %d candidates before the solo prefilter", maxSweepCandidates)
	}
	objs := make([]spec.Spec, len(sp.Objects))
	for i, o := range sp.Objects {
		var err error
		if objs[i], err = o.build(); err != nil {
			return nil, err
		}
	}
	menu := make([]enumerate.Invoke, len(sp.Menu))
	for i, m := range sp.Menu {
		if m.Obj < 0 || m.Obj >= len(objs) {
			return nil, specErrorf("menu entry %d references object %d of %d", i, m.Obj, len(objs))
		}
		method, ok := methods[m.Method]
		if !ok {
			return nil, specErrorf("unknown method %q", m.Method)
		}
		iv := enumerate.Invoke{Obj: m.Obj, Method: method, Label: m.Label}
		if method.TakesArg() {
			src, ok := argSources[m.Arg]
			if !ok {
				return nil, specErrorf("method %q needs arg one of input/0/1/prev, got %q", m.Method, m.Arg)
			}
			iv.Arg = src
		}
		menu[i] = iv
	}
	acts := make([]enumerate.Action, len(sp.Actions))
	for i, a := range sp.Actions {
		act, ok := actions[a]
		if !ok {
			return nil, specErrorf("unknown action %q", a)
		}
		acts[i] = act
	}
	return &enumerate.Family{Objects: objs, Menu: menu, Depth: sp.Depth, Actions: acts}, nil
}

// candidatesBeforePrefilter counts the candidates Prepare pairs up
// before the solo prefilter, saturating at maxSweepCandidates+1. The
// depth must already be within maxSweepDepth.
func (sp SweepSpec) candidatesBeforePrefilter() int {
	retries := 0
	for _, a := range sp.Actions {
		if a == "retry" {
			retries++
		}
	}
	q := shapeCount(len(sp.Menu), sp.Depth, len(sp.Actions), retries)
	if sp.Task.Kind != "dac" {
		return q
	}
	// The distinguished role may also abort.
	p := shapeCount(len(sp.Menu), sp.Depth, len(sp.Actions)+1, retries)
	if p > maxSweepCandidates || (q > 0 && p > maxSweepCandidates/q) {
		return maxSweepCandidates + 1
	}
	return p * q
}

// shapeCount is the number of shapes enumerate.Family.Shapes builds for
// one role: menu^depth invocation sequences times the action pairs
// that are not both retry. It saturates at maxSweepCandidates+1.
func shapeCount(menu, depth, actions, retries int) int {
	if actions > maxSweepCandidates {
		return maxSweepCandidates + 1
	}
	n := actions*actions - retries*retries
	for i := 0; i < depth && n > 0; i++ {
		if n > maxSweepCandidates/menu {
			return maxSweepCandidates + 1
		}
		n *= menu
	}
	return n
}

// Options builds the enumerate.SweepOptions the spec's knobs select.
func (sp SweepSpec) Options() (enumerate.SweepOptions, error) {
	if sp.SoloSteps > maxSoloSteps {
		return enumerate.SweepOptions{}, specErrorf("solo_steps must be at most %d, got %d", maxSoloSteps, sp.SoloSteps)
	}
	opts := enumerate.SweepOptions{
		MaxStatesPerCandidate: sp.MaxStatesPerCandidate,
		SoloSteps:             sp.SoloSteps,
		DisableMemo:           sp.Memo != nil && !*sp.Memo,
	}
	if sp.Symmetry != "" {
		mode, err := explore.ParseSymmetry(sp.Symmetry)
		if err != nil {
			return opts, specErrorf("%w", err)
		}
		opts.Symmetry = mode
	}
	return opts, nil
}

// Vectors returns the input vectors to check each candidate on: the
// explicit list, or all binary vectors over the task's process count
// (at most maxBinaryProcs).
func (sp SweepSpec) Vectors() ([][]value.Value, error) {
	tsk, err := sp.Task.build()
	if err != nil {
		return nil, err
	}
	if len(sp.Inputs) > 0 {
		for i, v := range sp.Inputs {
			if len(v) != tsk.Procs() {
				return nil, specErrorf("input vector %d has %d values for a %d-process task", i, len(v), tsk.Procs())
			}
		}
		return sp.Inputs, nil
	}
	n := tsk.Procs()
	if n > maxBinaryProcs {
		return nil, specErrorf("task with n = %d > %d needs explicit inputs", n, maxBinaryProcs)
	}
	out := make([][]value.Value, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		v := make([]value.Value, n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v[i] = 1
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// Prepare materializes the spec's candidate list. Every Prepare of the
// same spec yields the same candidate order, so report indices are
// stable.
func (sp SweepSpec) Prepare() (*enumerate.Prepared, error) {
	fam, err := sp.Family()
	if err != nil {
		return nil, err
	}
	opts, err := sp.Options()
	if err != nil {
		return nil, err
	}
	tsk, err := sp.Task.build()
	if err != nil {
		return nil, err
	}
	if sp.Task.Kind == "dac" {
		return enumerate.PrepareDAC(fam, sp.Task.N, opts)
	}
	return enumerate.PrepareSymmetric(fam, tsk, opts)
}
