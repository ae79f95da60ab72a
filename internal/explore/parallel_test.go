package explore_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"setagree/internal/explore"
	"setagree/internal/machine"
	"setagree/internal/objects"
	"setagree/internal/obs"
	"setagree/internal/programs"
	"setagree/internal/spec"
	"setagree/internal/task"
	"setagree/internal/value"
)

// detRun is everything a determinism comparison looks at: the full
// report (counts, violations with witnesses and cycles, valency), the
// DOT rendering, and the event stream with the clock pinned and the
// workers field masked (it is the one field that legitimately differs
// between runs).
type detRun struct {
	rep    *explore.Report
	dot    string
	events []string
}

func runDeterministic(t *testing.T, sys *explore.System, tsk task.Task, workers int, valency bool) detRun {
	t.Helper()
	var evBuf bytes.Buffer
	fixed := time.Date(2017, 7, 25, 0, 0, 0, 0, time.UTC)
	em := obs.NewEmitterAt(&evBuf, func() time.Time { return fixed })
	rep, err := explore.Check(sys, tsk, explore.Options{
		Workers:        workers,
		Valency:        valency,
		Events:         em,
		HeartbeatEvery: 16,
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var dot bytes.Buffer
	if err := rep.WriteDOT(&dot, 1<<20); err != nil {
		t.Fatalf("workers=%d: WriteDOT: %v", workers, err)
	}
	return detRun{rep: rep, dot: dot.String(), events: maskWorkersField(t, evBuf.String())}
}

// maskWorkersField re-marshals each JSONL event line without its
// "workers" key so streams from runs at different worker counts can be
// compared byte-for-byte (json.Marshal sorts map keys).
func maskWorkersField(t *testing.T, stream string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(stream, "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		delete(m, "workers")
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	return out
}

// TestWorkersDeterminism: the level-synchronized parallel BFS must be
// byte-identical to the sequential exploration at every worker count —
// same counts, same violation witnesses and cycles, same valency
// labels and critical configurations, same DOT bytes, and the same
// heartbeat/terminal event stream (modulo the workers field).
func TestWorkersDeterminism(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		prot    programs.Protocol
		inputs  []value.Value
		tsk     task.Task
		valency bool
	}{
		{
			// Solved protocol with valency + critical configurations.
			name:    "algorithm2-dac",
			prot:    programs.Algorithm2(3, 1),
			inputs:  []value.Value{1, 0, 0},
			tsk:     task.DAC{N: 3, P: 0},
			valency: true,
		},
		{
			// Safety violation: the witness schedule must be identical.
			name:   "naive-2sa-safety",
			prot:   programs.NaiveTwoSAConsensus(2),
			inputs: []value.Value{0, 1},
			tsk:    task.Consensus{N: 2},
		},
		{
			// Liveness violations: witness + cycle must be identical.
			name:   "oversubscribed-liveness",
			prot:   programs.OverSubscribedConsensus(2),
			inputs: []value.Value{0, 1, 2},
			tsk:    task.Consensus{N: 3},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys, err := tc.prot.System(tc.inputs)
			if err != nil {
				t.Fatal(err)
			}
			base := runDeterministic(t, sys, tc.tsk, 1, tc.valency)
			if base.rep.States == 0 {
				t.Fatal("empty exploration")
			}
			for _, w := range []int{2, 8} {
				got := runDeterministic(t, sys, tc.tsk, w, tc.valency)
				if !reflect.DeepEqual(got.rep, base.rep) {
					t.Errorf("workers=%d: report differs from sequential run:\n got %+v\nwant %+v",
						w, got.rep, base.rep)
				}
				if got.dot != base.dot {
					t.Errorf("workers=%d: DOT output differs from sequential run", w)
				}
				if !reflect.DeepEqual(got.events, base.events) {
					t.Errorf("workers=%d: event stream differs from sequential run:\n got %v\nwant %v",
						w, got.events, base.events)
				}
				if tc.valency && !reflect.DeepEqual(got.rep.Valency, base.rep.Valency) {
					t.Errorf("workers=%d: valency report differs", w)
				}
			}
		})
	}
}

// TestWorkersDeterminismStateLimit: hitting MaxStates mid-level must
// cut at the same configuration regardless of worker count, so the
// partial report and error text are identical too.
func TestWorkersDeterminismStateLimit(t *testing.T) {
	t.Parallel()
	prot := programs.Algorithm2(3, 1)
	run := func(workers int) (*explore.Report, string) {
		sys, err := prot.System([]value.Value{1, 0, 0})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := explore.Check(sys, nil, explore.Options{MaxStates: 40, Workers: workers})
		if !errors.Is(err, explore.ErrStateLimit) {
			t.Fatalf("workers=%d: got %v, want ErrStateLimit", workers, err)
		}
		return rep, err.Error()
	}
	baseRep, baseErr := run(1)
	if baseRep.States != 41 {
		t.Fatalf("partial report has %d states, want MaxStates+1 = 41", baseRep.States)
	}
	for _, w := range []int{2, 8} {
		rep, errText := run(w)
		if rep.States != baseRep.States || rep.Transitions != baseRep.Transitions ||
			rep.Quiescent != baseRep.Quiescent {
			t.Errorf("workers=%d: partial report %d/%d/%d differs from sequential %d/%d/%d",
				w, rep.States, rep.Transitions, rep.Quiescent,
				baseRep.States, baseRep.Transitions, baseRep.Quiescent)
		}
		if errText != baseErr {
			t.Errorf("workers=%d: error %q differs from sequential %q", w, errText, baseErr)
		}
	}
}

// TestTooManyProcsRejected: SteppedMask is a uint64, so a 65th process
// must be rejected up front instead of silently overflowing the mask.
func TestTooManyProcsRejected(t *testing.T) {
	t.Parallel()
	prog := machine.NewBuilder("trivial", 4).
		Decide(machine.R(machine.RegInput)).
		MustBuild()
	n := explore.MaxProcs + 1
	sys := &explore.System{
		Programs: make([]*machine.Program, n),
		Inputs:   make([]value.Value, n),
	}
	for i := 0; i < n; i++ {
		sys.Programs[i] = prog
		sys.Inputs[i] = 0
	}
	_, err := explore.Check(sys, nil, explore.Options{})
	if err == nil {
		t.Fatalf("%d processes accepted; SteppedMask would overflow", n)
	}
	if !errors.Is(err, machine.ErrProgram) || !strings.Contains(err.Error(), "64") {
		t.Fatalf("got %v, want an ErrProgram naming the 64-process bound", err)
	}
	// At the bound itself the mask still fits.
	okSys := &explore.System{
		Programs: make([]*machine.Program, explore.MaxProcs),
		Inputs:   make([]value.Value, explore.MaxProcs),
	}
	for i := 0; i < explore.MaxProcs; i++ {
		okSys.Programs[i] = prog
		okSys.Inputs[i] = 0
	}
	if _, err := explore.Check(okSys, nil, explore.Options{}); err != nil {
		t.Fatalf("%d processes rejected: %v", explore.MaxProcs, err)
	}
}

// TestViolationErrorNilErr: a Violation without an Err (e.g. a zero
// value) must render its kind instead of panicking.
func TestViolationErrorNilErr(t *testing.T) {
	t.Parallel()
	var zero explore.Violation
	if got := zero.Error(); got != "violation" {
		t.Fatalf("zero value renders %q, want %q", got, "violation")
	}
	v := &explore.Violation{Kind: explore.ViolationSafety}
	if got := v.Error(); got != "safety" {
		t.Fatalf("nil-Err safety violation renders %q, want %q", got, "safety")
	}
	withErr := &explore.Violation{Kind: explore.ViolationSafety, Err: errors.New("boom")}
	if got := withErr.Error(); got != "safety: boom" {
		t.Fatalf("got %q, want %q", got, "safety: boom")
	}
}

// badObjectSystem is a system whose program passes Validate (object
// indices are only checked for >= 0 there) but references an object the
// system does not have, so expansion fails at depth 2 — after the first
// level has already been merged.
func badObjectSystem() *explore.System {
	prog := machine.NewBuilder("bad-obj", 4).
		Invoke(2, 0, value.MethodWrite, machine.C(1), machine.Operand{}).
		Invoke(2, 5, value.MethodWrite, machine.C(1), machine.Operand{}).
		Decide(machine.C(0)).
		MustBuild()
	return &explore.System{
		Programs: []*machine.Program{prog, prog},
		Objects:  []spec.Spec{objects.NewRegister()},
		Inputs:   []value.Value{0, 1},
	}
}

// TestEngineErrorFlushesObservability: when successor computation fails
// mid-exploration, Check must still emit exactly one terminal event
// (explore.error, with the error text) and flush the partial counters —
// the paths the pre-fix code returned early from, dropping both.
func TestEngineErrorFlushesObservability(t *testing.T) {
	t.Parallel()
	sink := obs.NewSink()
	var evBuf bytes.Buffer
	em := obs.NewEmitter(&evBuf)
	rep, err := explore.Check(badObjectSystem(), nil, explore.Options{Obs: sink, Events: em})
	if err == nil {
		t.Fatal("out-of-range object index not reported")
	}
	if rep == nil {
		t.Fatal("engine error dropped the partial report")
	}
	if rep.States == 0 {
		t.Fatal("partial report lost the states explored before the failure")
	}
	snap := sink.Snapshot()
	if snap.Counters["explore.runs"] != 1 || snap.Counters["explore.errors"] != 1 {
		t.Fatalf("counters runs=%d errors=%d, want 1/1",
			snap.Counters["explore.runs"], snap.Counters["explore.errors"])
	}
	if snap.Counters["explore.states"] != int64(rep.States) {
		t.Fatalf("flushed %d states, report has %d",
			snap.Counters["explore.states"], rep.States)
	}
	lines := strings.Split(strings.TrimSpace(evBuf.String()), "\n")
	last := lines[len(lines)-1]
	var ev map[string]any
	if jsonErr := json.Unmarshal([]byte(last), &ev); jsonErr != nil {
		t.Fatalf("bad terminal event %q: %v", last, jsonErr)
	}
	if ev["event"] != "explore.error" {
		t.Fatalf("terminal event is %v, want explore.error", ev["event"])
	}
	if msg, _ := ev["error"].(string); !strings.Contains(msg, "out of range") {
		t.Fatalf("terminal event error field %q does not carry the engine error", msg)
	}
	if _, ok := ev["workers"]; !ok {
		t.Fatal("terminal event is missing the workers field")
	}
	terminal := 0
	for _, line := range lines {
		if strings.Contains(line, `"event":"explore.done"`) ||
			strings.Contains(line, `"event":"explore.error"`) ||
			strings.Contains(line, `"event":"explore.statelimit"`) {
			terminal++
		}
	}
	if terminal != 1 {
		t.Fatalf("%d terminal events emitted, want exactly 1", terminal)
	}
}

// TestEngineErrorDeterministicAcrossWorkers: the canonical-first error
// rule must surface the same error and the same partial counts at any
// worker count.
func TestEngineErrorDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	run := func(workers int) (*explore.Report, string) {
		rep, err := explore.Check(badObjectSystem(), nil, explore.Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: out-of-range object index not reported", workers)
		}
		return rep, err.Error()
	}
	baseRep, baseErr := run(1)
	for _, w := range []int{2, 8} {
		rep, errText := run(w)
		if errText != baseErr {
			t.Errorf("workers=%d: error %q differs from sequential %q", w, errText, baseErr)
		}
		if rep.States != baseRep.States || rep.Transitions != baseRep.Transitions {
			t.Errorf("workers=%d: partial counts %d/%d differ from sequential %d/%d",
				w, rep.States, rep.Transitions, baseRep.States, baseRep.Transitions)
		}
	}
}

// TestValencyNonBinaryFlushes: a valency request on a non-binary
// protocol fails after the graph is built; the partial report and the
// explore.error terminal event must both survive.
func TestValencyNonBinaryFlushes(t *testing.T) {
	t.Parallel()
	prog := machine.NewBuilder("decide-two", 4).
		Decide(machine.C(2)).
		MustBuild()
	sys := &explore.System{
		Programs: []*machine.Program{prog},
		Inputs:   []value.Value{0},
	}
	var evBuf bytes.Buffer
	em := obs.NewEmitter(&evBuf)
	rep, err := explore.Check(sys, nil, explore.Options{Valency: true, Events: em})
	if !errors.Is(err, explore.ErrNotBinary) {
		t.Fatalf("got %v, want ErrNotBinary", err)
	}
	if rep == nil || rep.States != 1 {
		t.Fatalf("partial report %+v, want the 1 explored state", rep)
	}
	if !strings.Contains(evBuf.String(), `"event":"explore.error"`) {
		t.Fatalf("no explore.error terminal event in %q", evBuf.String())
	}
}

// TestWorkersDeterminismSuccessorConfigs pins the level-local
// deduplication of successors: at one worker, expansion builds exactly
// one Config per fresh configuration (States − 1, every state but the
// root), however many parents reach it in its level. Shards at four
// workers each build their own first occurrences, so at least as many,
// and the graph they merge is byte-identical.
func TestWorkersDeterminismSuccessorConfigs(t *testing.T) {
	t.Parallel()
	for _, n := range []int{4, 5} {
		sys, err := programs.Algorithm2(n, 1).System(append([]value.Value{1}, make([]value.Value, n-1)...))
		if err != nil {
			t.Fatal(err)
		}
		built, rep, graph, err := explore.ExpandCounted(sys, 1)
		if err != nil {
			t.Fatal(err)
		}
		if built != rep.States-1 {
			t.Errorf("n=%d workers=1: expansion built %d Configs for %d states, want States-1", n, built, rep.States)
		}
		if rep.Transitions <= rep.States {
			t.Errorf("n=%d: %d transitions over %d states: no duplicate successors to deduplicate", n, rep.Transitions, rep.States)
		}
		built4, rep4, graph4, err := explore.ExpandCounted(sys, 4)
		if err != nil {
			t.Fatal(err)
		}
		if built4 < rep.States-1 {
			t.Errorf("n=%d workers=4: expansion built %d Configs for %d states", n, built4, rep.States)
		}
		if rep4.States != rep.States || rep4.Transitions != rep.Transitions || rep4.Quiescent != rep.Quiescent {
			t.Errorf("n=%d workers=4: counts %d/%d/%d, workers=1 %d/%d/%d", n,
				rep4.States, rep4.Transitions, rep4.Quiescent, rep.States, rep.Transitions, rep.Quiescent)
		}
		if !bytes.Equal(graph4, graph) {
			t.Errorf("n=%d workers=4: key and edge arenas differ from workers=1", n)
		}
	}
}
