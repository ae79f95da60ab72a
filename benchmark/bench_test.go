package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so tail must sort
		}
		return out
	}
	if _, ok := tail(xs(99), 90); ok {
		t.Error("p90 of 99 samples has 9 beyond it; want no tail")
	}
	v, ok := tail(xs(100), 90)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := tail(xs(999), 99); ok {
		t.Error("p99 of 999 samples has 9 beyond it; want no tail")
	}
	if _, ok := tail(nil, 90); ok {
		t.Error("tail of no samples")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestExactWorkFailsOnOneChangedCount(t *testing.T) {
	for _, def := range workloads {
		got := counts{}
		for k, v := range def.want {
			got[k] = v
		}
		if bad := mismatches(def.want, got); len(bad) != 0 {
			t.Fatalf("%s: identical counts reported as %v", def.name, bad)
		}
		for name := range def.want {
			got[name]++
			bad := mismatches(def.want, got)
			if len(bad) != 1 || !strings.HasPrefix(bad[0], name+":") {
				t.Errorf("%s: changing %s gave %v; want one mismatch naming it", def.name, name, bad)
			}
			got[name]--
		}
		delete(got, "solved")
		if _, ok := def.want["solved"]; ok && len(mismatches(def.want, got)) != 1 {
			t.Errorf("%s: a missing verdict is not a mismatch", def.name)
		}
	}
}

// TestSampler checks that the sampler runs the reference computation
// every refPeriod, that its thread's CPU time is its own, and that a
// span shorter than refNear periods is measured by the nearest runs.
func TestSampler(t *testing.T) {
	start := time.Now()
	s := startSampler()
	running = s
	defer func() { running = nil }()
	time.Sleep(10 * refPeriod)
	own, err := ownCPU()
	if err != nil {
		t.Fatal(err)
	}
	thread, err := s.threadCPU()
	if err != nil {
		t.Fatal(err)
	}
	proc, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	runs := s.all()
	if len(runs) < refNear {
		t.Fatalf("%d reference runs in %v", len(runs), 10*refPeriod)
	}
	if thread <= 0 || own <= 0 || own+thread > proc {
		t.Errorf("process CPU %v, sampler thread %v, own %v", proc, thread, own)
	}
	if d := s.during(start, start); d <= 0 {
		t.Errorf("reference time near the start %v", d)
	}
	if d := s.during(start, time.Now()); d != median(runs) {
		t.Errorf("reference time over the whole run %v, want the median %v", d, median(runs))
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &trace{spans: []span{
		{name: "unit", parent: -1, start: at(0), end: at(100)},
		{name: "dacd.poll", parent: 0, start: at(10), end: at(20)},
		{name: "dacd.poll", parent: 0, start: at(30), end: at(45)},
		{name: "dacd.result", parent: 0, start: at(40), end: at(50)}, // overlaps the second poll
	}}
	self := tr.selfTimes()
	want := map[string]time.Duration{"unit": 70 * time.Millisecond, "dacd.poll": 25 * time.Millisecond, "dacd.result": 10 * time.Millisecond}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *trace
	tr.begin("unit")
	tr.sample("x", 1)
	tr.end()
}

// TestMetricsMatchBenchmarkJSON checks that every metric the benchmark
// prints is declared in BENCHMARK.json with the same unit, and the
// other way round, and that the workloads agree.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name, Unit string }, printed []metric) {
		units := make(map[string]string)
		for _, d := range declared {
			units[d.Name] = d.Unit
		}
		for _, m := range printed {
			u, ok := units[m.name]
			if !ok || u != m.unit {
				t.Errorf("%s metric %s (%s) is not declared with that unit in BENCHMARK.json", what, m.name, m.unit)
			}
			delete(units, m.name)
		}
		for name := range units {
			t.Errorf("%s metric %s in BENCHMARK.json is never printed", what, name)
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)

	for _, name := range spanMetrics {
		if !declared(name) {
			t.Errorf("span metric %s is not a per-layer metric", name)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark workloads %v", names, workloadNames())
	}
}

func declared(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

func TestDACInputsRelabel(t *testing.T) {
	if got := dacInputs(3, 2); got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Errorf("even seed: %v, want [1 0 0]", got)
	}
	if got := dacInputs(3, 7); got[0] != 0 || got[1] != 1 || got[2] != 1 {
		t.Errorf("odd seed: %v, want [0 1 1]", got)
	}
}

// fakeWorkload finishes each unit at once with the wanted counts.
type fakeWorkload struct{ want counts }

func (f fakeWorkload) setUp(context.Context) error { return nil }
func (f fakeWorkload) tearDown() error             { return nil }
func (f fakeWorkload) cpu() (time.Duration, error) { return ownCPU() }
func (f fakeWorkload) beforeUnit()                 {}
func (f fakeWorkload) finish(bool) (float64, map[string]float64, error) {
	return 1, map[string]float64{"checkpoint.count_per_job": 3}, nil
}

func (f fakeWorkload) unit(_ context.Context, tr *trace) (counts, error) {
	tr.begin("explore.check")
	time.Sleep(time.Millisecond)
	tr.end()
	tr.sample("explore.levels", 21)
	return f.want, nil
}

// TestResultPrintsExactlyTheDeclaredMetrics runs the measuring loop on
// a fake workload and checks the result line's metric names.
func TestResultPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	want := counts{"states": 5}
	def := workloadDef{name: "fake", want: want, make: func(config) workload { return fakeWorkload{want} }}
	for _, traced := range []bool{false, true} {
		out, err := measure(context.Background(), def, config{seconds: 1, traced: traced})
		if err != nil {
			t.Fatal(err)
		}
		r := out.result
		if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
			t.Fatalf("traced=%v: result %+v", traced, r)
		}
		metrics := endToEnd
		if traced {
			metrics = perLayer
		}
		if len(r.Metrics) != len(metrics) {
			t.Errorf("traced=%v: %d metrics printed, %d declared", traced, len(r.Metrics), len(metrics))
		}
		for _, m := range metrics {
			if v, ok := r.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("traced=%v: metric %s missing or with unit %q", traced, m.name, v.Unit)
			}
		}
		if traced && (r.Metrics["explore.levels"].Value != 21 || r.Metrics["checkpoint.count_per_job"].Value != 3 ||
			r.Metrics["explore.check_s"].Value < 0.001) {
			t.Errorf("traced layer metrics not carried: %+v", r.Metrics)
		}
	}
}

// countingWorkload counts set-ups and tear-downs.
type countingWorkload struct {
	fakeWorkload
	setUps, tearDowns int
}

func (c *countingWorkload) setUp(context.Context) error { c.setUps++; return nil }
func (c *countingWorkload) tearDown() error             { c.tearDowns++; return nil }

// TestSetUpSamples checks that a set-up far shorter than a sample is
// repeated within each sample, and that every set-up is torn down once.
func TestSetUpSamples(t *testing.T) {
	want := counts{"states": 5}
	c := &countingWorkload{fakeWorkload: fakeWorkload{want}}
	def := workloadDef{name: "fake", want: want, make: func(config) workload { return c }}
	out, err := measure(context.Background(), def, config{seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.setUps < 10*setupSamples || c.tearDowns != c.setUps {
		t.Errorf("%d set-ups, %d tear-downs; want at least %d set-ups, each torn down", c.setUps, c.tearDowns, 10*setupSamples)
	}
	if v := out.result.Metrics["setup_s"].Value; v <= 0 || v > 1e-4 {
		t.Errorf("setup_s = %v, want the time of one empty set-up", v)
	}
}

// TestFailedUnitsCount checks that a unit whose work differs from the
// recorded counts is counted as failed and named in the report.
func TestFailedUnitsCount(t *testing.T) {
	def := workloadDef{name: "fake", want: counts{"states": 6},
		make: func(config) workload { return fakeWorkload{counts{"states": 5}} }}
	out, err := measure(context.Background(), def, config{seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.result.Correct || out.result.Failed != out.result.Attempted {
		t.Errorf("result %+v, want every unit failed", out.result)
	}
	if !strings.Contains(strings.Join(out.report, "\n"), "states: got 5, want 6") {
		t.Errorf("report does not name the mismatch:\n%s", strings.Join(out.report, "\n"))
	}
}
