package explore_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/objects"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/sim"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// symmetryWorkerSet returns the worker counts the soundness suite runs
// reduced explorations at. EXPLORE_SYMMETRY_WORKERS pins a single
// count — the Makefile's race target uses it to cover Workers 1 and 4
// under -race without tripling the suite.
func symmetryWorkerSet(t *testing.T) []int {
	t.Helper()
	if s := os.Getenv("EXPLORE_SYMMETRY_WORKERS"); s != "" {
		w, err := strconv.Atoi(s)
		if err != nil || w < 1 {
			t.Fatalf("EXPLORE_SYMMETRY_WORKERS=%q: %v", s, err)
		}
		return []int{w}
	}
	return []int{1, 2, 8}
}

// violationKinds collects the distinct violation kinds of a report.
// Symmetry reduction may conflate which translate of a process gets
// reported, so soundness compares kind sets rather than violation
// lists verbatim.
func violationKinds(rep *explore.Report) map[explore.ViolationKind]bool {
	kinds := map[explore.ViolationKind]bool{}
	for _, v := range rep.Violations {
		kinds[v.Kind] = true
	}
	return kinds
}

// replaySchedule drives sched through the simulator with trace
// recording and asserts the replay is faithful: every step executes
// exactly as scheduled (sim's Replay scheduler silently substitutes
// live processes and branch 0 when a schedule is inapplicable, which
// trace comparison catches).
func replaySchedule(t *testing.T, sys *explore.System, tsk task.Task, sched []explore.Step) *sim.Result {
	t.Helper()
	res, err := sim.Run(sys, tsk, sim.Replay(sched), sim.Options{
		MaxSteps:    len(sched),
		RecordTrace: true,
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(res.Trace) != len(sched) {
		t.Fatalf("replay executed %d of %d scheduled steps", len(res.Trace), len(sched))
	}
	for k := range sched {
		if res.Trace[k] != sched[k] {
			t.Fatalf("replay diverged at step %d: scheduled %v, executed %v",
				k, sched[k], res.Trace[k])
		}
	}
	return res
}

// soundCases are TestSymmetrySound's systems, each with the modes it
// is reduced under.
var soundCases = []struct {
	name   string
	prot   programs.Protocol
	inputs []value.Value
	tsk    task.Task
	modes  []explore.Symmetry
}{
	{
		// Solved n-DAC protocol: the two 0-input non-distinguished
		// processes are exchangeable in ids mode.
		name:   "algorithm2-dac",
		prot:   programs.Algorithm2(3, 1),
		inputs: []value.Value{1, 0, 0},
		tsk:    task.DAC{N: 3, P: 0},
		modes:  []explore.Symmetry{explore.SymmetryIDs, explore.SymmetryValues},
	},
	{
		// Safety violation: ids mode has a trivial group (distinct
		// inputs); values mode can swap the processes along with
		// their proposals.
		name:   "naive-2sa-safety",
		prot:   programs.NaiveTwoSAConsensus(2),
		inputs: []value.Value{0, 1},
		tsk:    task.Consensus{N: 2},
		modes:  []explore.Symmetry{explore.SymmetryIDs, explore.SymmetryValues},
	},
	{
		// Liveness violations with cycle witnesses.
		name:   "oversubscribed-liveness",
		prot:   programs.OverSubscribedConsensus(2),
		inputs: []value.Value{0, 1, 2},
		tsk:    task.Consensus{N: 3},
		modes:  []explore.Symmetry{explore.SymmetryIDs, explore.SymmetryValues},
	},
	{
		// (3,2)-PACs among four processes: process 3 owns none of
		// their ports, so it never trades places with process 2,
		// though both run the same program on the same input. Keying
		// a PAC under such a swap indexed past its slots.
		name:   "partition-on-narrow-pac",
		prot:   programs.PartitionObjectO(2, 2),
		inputs: []value.Value{3, 3, 5, 5},
		tsk:    task.KSetAgreement{N: 4, K: 2},
		modes:  []explore.Symmetry{explore.SymmetryIDs, explore.SymmetryValues},
	},
}

// TestSymmetrySound cross-checks reduced against unreduced exploration
// on every determinism-suite protocol: identical verdicts, state
// counts bounded by the orbit equation, deterministic reduced runs at
// every worker count, and concrete witnesses that replay step-for-step
// in the simulator — safety witnesses reproduce the violation,
// liveness witnesses execute their cycle.
func TestSymmetrySound(t *testing.T) {
	t.Parallel()
	for _, tc := range soundCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys, err := tc.prot.System(tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			base, err := explore.Check(sys, tc.tsk, explore.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range tc.modes {
				mode := mode
				t.Run(mode.String(), func(t *testing.T) {
					t.Parallel()
					var first *explore.Report
					for _, w := range symmetryWorkerSet(t) {
						red, err := explore.Check(sys, tc.tsk, explore.Options{
							Workers:  w,
							Symmetry: mode,
						})
						if err != nil {
							t.Fatalf("workers=%d: %v", w, err)
						}
						if first == nil {
							first = red
						} else {
							if red.States != first.States || red.Transitions != first.Transitions ||
								red.Quiescent != first.Quiescent {
								t.Fatalf("workers=%d: reduced counts %d/%d/%d differ from workers=%d run",
									w, red.States, red.Transitions, red.Quiescent, symmetryWorkerSet(t)[0])
							}
							if !reflect.DeepEqual(red.Violations, first.Violations) {
								t.Fatalf("workers=%d: reduced violations differ across worker counts", w)
							}
							continue
						}
						// Verdict equality with the unreduced run.
						if red.Solved() != base.Solved() {
							t.Fatalf("reduced Solved()=%v, unreduced %v", red.Solved(), base.Solved())
						}
						if !reflect.DeepEqual(violationKinds(red), violationKinds(base)) {
							t.Fatalf("violation kinds differ: reduced %v, unreduced %v",
								violationKinds(red), violationKinds(base))
						}
						// Orbit bounds: the quotient is never larger, and the
						// concrete graph is covered by at most |G| translates
						// of each representative.
						order := red.SymmetryGroupOrder()
						if red.States > base.States {
							t.Fatalf("reduced states %d > unreduced %d", red.States, base.States)
						}
						if base.States > red.States*order {
							t.Fatalf("unreduced states %d exceed reduced %d x group order %d",
								base.States, red.States, order)
						}
						// Every witness is a concrete, replayable execution.
						for _, v := range red.Violations {
							switch v.Kind {
							case explore.ViolationSafety:
								res := replaySchedule(t, sys, tc.tsk, v.Witness)
								if res.Violation == nil {
									t.Fatalf("safety witness replays without violating %s", tc.tsk.Name())
								}
							case explore.ViolationWaitFree, explore.ViolationDACTerminationA,
								explore.ViolationDACTerminationB:
								if len(v.Cycle) == 0 {
									t.Fatalf("liveness violation without cycle: %v", v)
								}
								sched := append([]explore.Step{}, v.Witness...)
								for k := 0; k < 3; k++ {
									sched = append(sched, v.Cycle...)
								}
								res := replaySchedule(t, sys, tc.tsk, sched)
								if res.Completed {
									t.Fatalf("liveness witness+3x cycle replayed to completion")
								}
							case explore.ViolationHaltUndecided:
								replaySchedule(t, sys, tc.tsk, v.Witness)
							}
						}
					}
				})
			}
		})
	}
}

// TestSymmetryLivenessWitnessesClose replays every liveness violation
// a reduced check reports, on TestSymmetrySound's systems, the swapped
// togglers and the mixed livelock under ids and values, through the
// simulator: first the witness, then the witness and the cycle. Both
// replays must follow their schedules step for step, the cycle must
// close, ending in the very configuration the witness reaches, and a
// Termination (b) cycle must be the reported process's solo run. Which
// member of an orbit is canonical depends on the key bytes, so this
// pins the reported schedules to concrete executions whatever the key
// encoding.
func TestSymmetryLivenessWitnessesClose(t *testing.T) {
	t.Parallel()
	type system struct {
		name string
		sys  *explore.System
		tsk  task.Task
	}
	var systems []system
	for _, tc := range soundCases {
		sys, err := tc.prot.System(tc.inputs)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{tc.name, sys, tc.tsk})
	}
	for _, tg := range swappedTogglers() {
		systems = append(systems, system{tg.name, tg.sys, task.DAC{N: 3, P: 0}})
	}
	retrying := mixedLivelock(t)
	systems = append(systems,
		system{"mixed-livelock-dac", retrying, task.DAC{N: 3, P: 0}},
		system{"mixed-livelock-consensus", retrying, task.Consensus{N: 3}})
	var cycles, soloB, reduced int
	for _, sy := range systems {
		for _, mode := range []explore.Symmetry{explore.SymmetryIDs, explore.SymmetryValues} {
			for _, w := range symmetryWorkerSet(t) {
				name := sy.name + "/" + mode.String() + "/workers=" + strconv.Itoa(w)
				rep, err := explore.Check(sy.sys, sy.tsk, explore.Options{Workers: w, Symmetry: mode})
				if errors.Is(err, explore.ErrNotSymmetric) || errors.Is(err, explore.ErrSymmetryUnsupported) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, v := range rep.Violations {
					switch v.Kind {
					case explore.ViolationWaitFree, explore.ViolationDACTerminationA, explore.ViolationDACTerminationB:
					default:
						continue
					}
					if len(v.Cycle) == 0 {
						t.Fatalf("%s: liveness violation without a cycle: %v", name, v)
					}
					at := replaySchedule(t, sy.sys, sy.tsk, v.Witness).Final
					after := replaySchedule(t, sy.sys, sy.tsk, append(slices.Clone(v.Witness), v.Cycle...)).Final
					if got, want := after.Key(), at.Key(); got != want {
						t.Errorf("%s: %v: the cycle ends in %s, not where it starts, %s", name, v.Kind, got, want)
					}
					cycles++
					if rep.SymmetryGroupOrder() > 1 {
						reduced++
					}
					if v.Kind != explore.ViolationDACTerminationB {
						continue
					}
					soloB++
					for k, s := range v.Cycle {
						if s.Proc != v.Proc {
							t.Errorf("%s: Termination (b) cycle of process %d takes step %d by process %d", name, v.Proc, k, s.Proc)
						}
					}
				}
			}
		}
	}
	if cycles == 0 || soloB == 0 || reduced == 0 {
		t.Fatalf("replayed %d cycles, %d of them Termination (b) and %d under a nontrivial group: the suite must cover each", cycles, soloB, reduced)
	}
}

// TestUnreducedCounts checks the counts a reduced exploration reports
// for the concrete graph, Σ orbit(rep) and Σ orbit(rep)·outdeg(rep),
// against an unreduced run of the same system, for every
// TestSymmetrySound and canonicalization case under ids and values
// (a mode the system does not admit is skipped), at Workers 1 and 4.
// The alg2 n=8 counts, whose unreduced run is too large for a test,
// are pinned.
func TestUnreducedCounts(t *testing.T) {
	t.Parallel()
	type run struct {
		name   string
		prot   programs.Protocol
		inputs []value.Value
		tsk    task.Task
		states int64
		trans  int64
	}
	var runs []run
	for _, tc := range soundCases {
		runs = append(runs, run{name: tc.name, prot: tc.prot, inputs: tc.inputs, tsk: tc.tsk})
	}
	for _, tc := range canonCases {
		if tc.slow && testing.Short() {
			continue
		}
		r := run{name: tc.name, prot: tc.prot, inputs: tc.inputs, tsk: tc.tsk}
		if tc.name == "alg2-n8-ids" {
			r.states, r.trans = alg2N8States, alg2N8Transitions
		}
		runs = append(runs, r)
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			sys, err := r.prot.System(r.inputs)
			if err != nil {
				t.Fatal(err)
			}
			if r.states == 0 {
				base, err := explore.Check(sys, r.tsk, explore.Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if base.UnreducedStates != int64(base.States) || base.UnreducedTransitions != int64(base.Transitions) {
					t.Fatalf("unreduced run reports %d/%d concrete counts for %d/%d",
						base.UnreducedStates, base.UnreducedTransitions, base.States, base.Transitions)
				}
				r.states, r.trans = int64(base.States), int64(base.Transitions)
			}
			reduced := 0
			for _, mode := range []explore.Symmetry{explore.SymmetryIDs, explore.SymmetryValues} {
				for _, w := range []int{1, 4} {
					red, err := explore.Check(sys, r.tsk, explore.Options{Workers: w, Symmetry: mode})
					if errors.Is(err, explore.ErrNotSymmetric) || errors.Is(err, explore.ErrSymmetryUnsupported) {
						continue
					}
					if err != nil {
						t.Fatalf("%v/workers=%d: %v", mode, w, err)
					}
					if red.UnreducedStates != r.states || red.UnreducedTransitions != r.trans {
						t.Fatalf("%v/workers=%d: %d representatives stand for %d configurations and %d transitions, unreduced %d and %d",
							mode, w, red.States, red.UnreducedStates, red.UnreducedTransitions, r.states, r.trans)
					}
					reduced++
				}
			}
			if reduced == 0 {
				t.Fatal("no symmetry mode admits the system")
			}
		})
	}
}

// TestMetaAtMatchesConfigs: the outcome record the analyses decode from
// each interned key (metaAt) is the one read off the configuration
// itself, at symmetry off, ids and values, over TestSymmetrySound's
// systems and the canonicalization cases that are not slow. Under
// symmetry the keys are canonical, so this checks that metaAt maps
// slots and decision values back to the stored configuration's.
func TestMetaAtMatchesConfigs(t *testing.T) {
	t.Parallel()
	type run struct {
		name   string
		prot   programs.Protocol
		inputs []value.Value
		tsk    task.Task
	}
	var runs []run
	for _, tc := range soundCases {
		runs = append(runs, run{tc.name, tc.prot, tc.inputs, tc.tsk})
	}
	for _, tc := range canonCases {
		if !tc.slow {
			runs = append(runs, run{tc.name, tc.prot, tc.inputs, tc.tsk})
		}
	}
	moved := 0
	for _, r := range runs {
		sys, err := r.prot.System(r.inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []explore.Symmetry{explore.SymmetryOff, explore.SymmetryIDs, explore.SymmetryValues} {
			rep, err := explore.Check(sys, r.tsk, explore.Options{Workers: 2, Symmetry: mode})
			if errors.Is(err, explore.ErrNotSymmetric) || errors.Is(err, explore.ErrSymmetryUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s/%v: %v", r.name, mode, err)
			}
			if err := explore.MetaAgreement(rep); err != nil {
				t.Errorf("%s/%v: %v", r.name, mode, err)
			}
			if rep.SymmetryGroupOrder() > 1 {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no run has a nontrivial group")
	}
}

// The alg2 n=8 (p=1, inputs 1,0,…,0) concrete counts: an unreduced run
// and Σ orbit(rep), Σ orbit(rep)·outdeg(rep) over its ids quotient
// agree on them.
const (
	alg2N8States      = 1_484_272
	alg2N8Transitions = 9_088_544
)

// TestSymmetryReductionRatio pins the headline win on the paper's
// Algorithm 2 at n = 4 with one distinguished 1-input: three
// exchangeable processes give a group of order 6, and the quotient
// must be at least 4x smaller (the acceptance bar; the measured ratio
// is near 6x since most orbits are free).
func TestSymmetryReductionRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("unreduced n=4 exploration is slow")
	}
	t.Parallel()
	prot := programs.Algorithm2(4, 1)
	sys, err := prot.System([]value.Value{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	tsk := task.DAC{N: 4, P: 0}
	base, err := explore.Check(sys, tsk, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := explore.Check(sys, tsk, explore.Options{Symmetry: explore.SymmetryIDs})
	if err != nil {
		t.Fatal(err)
	}
	if got := red.SymmetryGroupOrder(); got != 6 {
		t.Fatalf("group order %d, want 6 (S3 on the three 0-input processes)", got)
	}
	if base.Solved() != red.Solved() {
		t.Fatalf("verdicts differ: unreduced %v, reduced %v", base.Solved(), red.Solved())
	}
	if base.States < 4*red.States {
		t.Fatalf("reduction ratio %d/%d < 4x", base.States, red.States)
	}
}

// counterSystem shares one fetch&add counter between two identical
// processes; CounterState deliberately lacks spec.Symmetric.
func counterSystem() *explore.System {
	prog := machine.NewBuilder("count", 4).
		Invoke(2, 0, value.MethodFetchAdd, machine.C(1), machine.Operand{}).
		Decide(machine.R(2)).
		MustBuild()
	return &explore.System{
		Programs: []*machine.Program{prog, prog},
		Objects:  []spec.Spec{objects.NewCounter()},
		Inputs:   []value.Value{0, 0},
	}
}

// TestSymmetryRejectsAsymmetricObject mirrors the engine-error
// observability contract: requesting symmetry on a system whose object
// state lacks spec.Symmetric fails up front with ErrNotSymmetric, and
// the failure still flushes counters and emits the explore.error
// terminal event.
func TestSymmetryRejectsAsymmetricObject(t *testing.T) {
	t.Parallel()
	sink := obs.NewSink()
	var evBuf bytes.Buffer
	em := obs.NewEmitter(&evBuf)
	rep, err := explore.Check(counterSystem(), nil, explore.Options{
		Symmetry: explore.SymmetryIDs,
		Obs:      sink,
		Events:   em,
	})
	if !errors.Is(err, explore.ErrNotSymmetric) {
		t.Fatalf("got %v, want ErrNotSymmetric", err)
	}
	if rep == nil {
		t.Fatal("rejection dropped the partial report")
	}
	snap := sink.Snapshot()
	if snap.Counters["explore.runs"] != 1 || snap.Counters["explore.errors"] != 1 {
		t.Fatalf("counters runs=%d errors=%d, want 1/1",
			snap.Counters["explore.runs"], snap.Counters["explore.errors"])
	}
	lines := strings.Split(strings.TrimSpace(evBuf.String()), "\n")
	var ev map[string]any
	if jsonErr := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); jsonErr != nil {
		t.Fatalf("bad terminal event: %v", jsonErr)
	}
	if ev["event"] != "explore.error" {
		t.Fatalf("terminal event %v, want explore.error", ev["event"])
	}
	if msg, _ := ev["error"].(string); !strings.Contains(msg, "spec.Symmetric") {
		t.Fatalf("terminal event error %q does not name the asymmetric object", msg)
	}
	// The same system explores fine unreduced.
	if _, err := explore.Check(counterSystem(), nil, explore.Options{}); err != nil {
		t.Fatalf("unreduced exploration of the counter system failed: %v", err)
	}
}

// TestSymmetryRejectsUnsupportedAnalyses: combinations that are
// unsound over the quotient graph fail with ErrSymmetryUnsupported —
// resilience-bounded liveness, valency under value permutation, and
// adversary construction on a reduced report.
func TestSymmetryRejectsUnsupportedAnalyses(t *testing.T) {
	t.Parallel()
	prot := programs.Algorithm2(3, 1)
	sys, err := prot.System([]value.Value{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := explore.Check(sys, task.ResilientKSet{N: 3, K: 2, F: 1}, explore.Options{
		Symmetry: explore.SymmetryIDs,
	}); !errors.Is(err, explore.ErrSymmetryUnsupported) {
		t.Fatalf("resilient task: got %v, want ErrSymmetryUnsupported", err)
	}
	if _, err := explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{
		Symmetry: explore.SymmetryValues,
		Valency:  true,
	}); !errors.Is(err, explore.ErrSymmetryUnsupported) {
		t.Fatalf("valency+values: got %v, want ErrSymmetryUnsupported", err)
	}
	// Valency composes with ids-only symmetry, but the adversary needs
	// the concrete graph.
	rep, err := explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{
		Symmetry: explore.SymmetryIDs,
		Valency:  true,
	})
	if err != nil {
		t.Fatalf("valency+ids rejected: %v", err)
	}
	if _, err := rep.Adversary(); !errors.Is(err, explore.ErrSymmetryUnsupported) {
		t.Fatalf("adversary on reduced graph: got %v, want ErrSymmetryUnsupported", err)
	}
}

// TestSymmetryObservability: a reduced run reports the symmetry
// counters and stamps the terminal event with the mode and group order.
func TestSymmetryObservability(t *testing.T) {
	t.Parallel()
	prot := programs.Algorithm2(3, 1)
	sys, err := prot.System([]value.Value{1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewSink()
	var evBuf bytes.Buffer
	em := obs.NewEmitter(&evBuf)
	rep, err := explore.Check(sys, task.DAC{N: 3, P: 0}, explore.Options{
		Symmetry: explore.SymmetryIDs,
		Obs:      sink,
		Events:   em,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solved() {
		t.Fatalf("unexpected violation: %v", rep.Violations[0])
	}
	snap := sink.Snapshot()
	if snap.Counters["explore.symmetry_hits"] == 0 {
		t.Error("explore.symmetry_hits stayed 0 on a reduced run")
	}
	if snap.Gauges["explore.orbit_size_max"] != 2 {
		t.Errorf("explore.orbit_size_max = %d, want 2 (group order 2)",
			snap.Gauges["explore.orbit_size_max"])
	}
	last := strings.TrimSpace(evBuf.String())
	last = last[strings.LastIndexByte(last, '\n')+1:]
	var ev map[string]any
	if err := json.Unmarshal([]byte(last), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["event"] != "explore.done" || ev["symmetry"] != "ids" {
		t.Fatalf("terminal event %v lacks symmetry fields", ev)
	}
	if ev["group_order"] != float64(2) {
		t.Fatalf("group_order = %v, want 2", ev["group_order"])
	}
}

// TestParseSymmetry pins the CLI surface.
func TestParseSymmetry(t *testing.T) {
	t.Parallel()
	for in, want := range map[string]explore.Symmetry{
		"":                   explore.SymmetryOff,
		"off":                explore.SymmetryOff,
		"ids":                explore.SymmetryIDs,
		"process-ids":        explore.SymmetryIDs,
		"values":             explore.SymmetryValues,
		"process-and-values": explore.SymmetryValues,
	} {
		got, err := explore.ParseSymmetry(in)
		if err != nil || got != want {
			t.Errorf("ParseSymmetry(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() == "" {
			t.Errorf("Symmetry(%v).String() empty", got)
		}
	}
	if _, err := explore.ParseSymmetry("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}
