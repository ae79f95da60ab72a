// Command benchmark is the repository's benchmark runner. It runs one
// pinned workload through the checker's public entry points for a fixed
// wall-clock budget, checks every unit's verdict and exact work counts,
// and prints one JSON result line last. Build and run it with
//
//	bash benchmark/run.sh --workload explore-n7 --seed 1 --seconds 28 --trace 0
//
// from the repository root. A unit's cost is the CPU time of the process
// doing its work over that of a fixed reference computation which a
// thread of its own repeats meanwhile, so that it does not drift with
// the speed other tenants leave the host. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 the run alternates untraced and
// traced units and carries the per-layer metrics, taken from spans
// recorded around each public call, and the tracing overhead. README.md
// beside this file describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// procs is the thread budget: GOMAXPROCS of the benchmark and of the
// daemon, whatever the host's CPU count.
const procs = 2

// setupSamples is how many set-up samples a run takes; setup_s is
// their median. setupSampleMin is the least set-up time one sample sums:
// a set-up shorter than that is repeated within the sample, and the
// sample is the mean, so that set-ups of a few microseconds are not
// read off single timer readings. It spans a few reference periods, so
// that the reference runs a sample is scaled by are made during the
// set-ups, not during the units after them.
const (
	setupSamples   = 31
	setupSampleMin = 20 * time.Millisecond
)

// graceSeconds bounds how long a run may take beyond its measuring
// budget before its units are cancelled.
const graceSeconds = 120

// workload is one pinned benchmark workload.
type workload interface {
	// setUp prepares the workload (building systems or families, or
	// starting the daemon). It is timed as setup_s and runs no unit.
	setUp(ctx context.Context) error
	// tearDown releases what setUp acquired. It is called once after
	// every setUp, on every exit path.
	tearDown() error
	// cpu returns the CPU time the process doing the work has used so
	// far; a unit costs the difference over it.
	cpu() (time.Duration, error)
	// beforeUnit runs untimed before each unit.
	beforeUnit()
	// unit runs one unit and returns its exact work counts. It records
	// spans and layer samples on tr, which is nil in untraced units.
	unit(ctx context.Context, tr *trace) (counts, error)
	// finish runs after the last unit, before tearDown: it returns the
	// peak RSS in MB of the process doing the work and, for traced runs,
	// the per-layer metrics measured over the whole run.
	finish(traced bool) (rssMB float64, layers map[string]float64, err error)
}

// workloadDef is a workload by name, with the exact work every unit
// must repeat.
type workloadDef struct {
	name string
	want counts
	make func(cfg config) workload
}

// config is a run's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	dacd     string // daemon binary
	work     string // directory for run artifacts
}

// unitRecord is one finished unit.
type unitRecord struct {
	dur    time.Duration // wall time
	start  time.Time
	cpu    time.Duration // CPU time of the working process
	ref    float64       // reference CPU time during the unit, in seconds
	traced bool
	tr     *trace
	bad    []string // exact-work mismatches and errors
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload inputs are made from")
	fs.IntVar(&cfg.seconds, "seconds", 28, "measuring budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs a traced run that reports per-layer metrics")
	fs.StringVar(&cfg.dacd, "dacd", ".bench_build/dacd", "dacd binary")
	fs.StringVar(&cfg.work, "work", ".bench_build", "directory for run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := lookup(cfg.workload)
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.traced = traceFlag == 1
	runtime.GOMAXPROCS(procs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, time.Duration(cfg.seconds+graceSeconds)*time.Second)
	defer cancel()

	hostStart := readHost()
	res, err := measure(ctx, def, cfg)
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("run cut short: %w", ctx.Err())
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, line)
	}
	host, _ := json.Marshal(map[string]hostRecord{"start": hostStart, "end": readHost()})
	fmt.Fprintf(stdout, "host %s\n", host)
	out, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, d := range workloads {
		names = append(names, d.name)
	}
	return names
}

func lookup(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// metricValue is one reported metric value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is a measured run: the result line and the readable lines
// printed before it.
type outcome struct {
	result result
	report []string
}

// measure takes setupSamples set-up samples, runs units until the
// budget is spent, checks each unit's exact work, and derives the
// metrics.
func measure(ctx context.Context, def workloadDef, cfg config) (*outcome, error) {
	w := def.make(cfg)
	ref := startSampler()
	running = ref
	defer func() { running = nil }()
	setups, err := sampleSetUps(ctx, w)
	if err != nil {
		return nil, errors.Join(err, ref.close())
	}
	units := runUnits(ctx, w, def.want, cfg)
	err = ref.close()
	rss, layers, finishErr := w.finish(cfg.traced)
	if err := errors.Join(err, finishErr, w.tearDown()); err != nil {
		return nil, err
	}
	var setupTimes, setupWalls []float64
	for _, su := range setups {
		setupTimes = append(setupTimes, su.seconds*refNominal.Seconds()/ref.during(su.start, su.end))
		setupWalls = append(setupWalls, su.seconds)
	}
	for i := range units {
		u := &units[i]
		u.ref = ref.during(u.start, u.start.Add(u.dur))
	}
	refs := ref.all()

	out := &outcome{result: result{Attempted: len(units), Metrics: make(map[string]metricValue)}}
	// Only untraced units, which run no tracing code, are timed.
	var durs, cpus, costs, tracedDurs []float64
	bad := make(map[string]int)
	for _, u := range units {
		if len(u.bad) > 0 {
			out.result.Failed++
			for _, b := range u.bad {
				bad[b]++
			}
			continue
		}
		if u.traced {
			tracedDurs = append(tracedDurs, u.dur.Seconds())
			continue
		}
		durs = append(durs, u.dur.Seconds())
		cpus = append(cpus, u.cpu.Seconds())
		costs = append(costs, u.cpu.Seconds()/u.ref)
	}
	out.result.Correct = len(units) > 0 && out.result.Failed == 0
	for _, b := range sortedKeys(bad) {
		out.report = append(out.report, fmt.Sprintf("FAILED %d units: %s", bad[b], b))
	}
	failFrac := 0.0
	if len(units) > 0 {
		failFrac = float64(out.result.Failed) / float64(len(units))
	}
	out.report = append(out.report, fmt.Sprintf("%s seed %d trace %v: %d units attempted, %d failed",
		def.name, cfg.seed, cfg.traced, len(units), out.result.Failed),
		fmt.Sprintf("fail_frac %g ratio", failFrac))

	if !cfg.traced {
		vals := map[string]float64{
			"setup_s":        median(setupTimes),
			"unit_cost_refs": median(costs),
			"rss_peak_mb":    rss,
		}
		for _, m := range endToEnd {
			out.result.Metrics[m.name] = metricValue{vals[m.name], m.unit}
			out.report = append(out.report, fmt.Sprintf("%s %g %s", m.name, vals[m.name], m.unit))
		}
		out.report = append(out.report,
			fmt.Sprintf("setup_wall_s_p50 %g s", median(setupWalls)),
			fmt.Sprintf("unit_cpu_s_p50 %g s", median(cpus)),
			fmt.Sprintf("ref_cpu_s_p50 %g s (%d samples)", median(refs), len(refs)),
			fmt.Sprintf("unit_s_p50 %g s (wall)", median(durs)),
			fmt.Sprintf("units_cost_refs %.4g", costs),
			fmt.Sprintf("units_cpu_s %.4g", cpus),
			fmt.Sprintf("units_s %.4g", durs),
			fmt.Sprintf("refs_cpu_s %.4g", refs))
		if p90, ok := tail(durs, 90); ok {
			out.report = append(out.report, fmt.Sprintf("unit_s_p90 %g s (%d samples)", p90, len(durs)))
		}
		return out, nil
	}

	if layers == nil {
		layers = make(map[string]float64)
	}
	for name, v := range traceLayers(units) {
		layers[name] = v
	}
	layers["unit.cpu_s_p50"] = median(cpus)
	layers["ref.cpu_s_p50"] = median(refs)
	layers["trace.untraced_unit_s_p50"] = median(durs)
	layers["trace.traced_unit_s_p50"] = median(tracedDurs)
	if u := median(durs); u > 0 {
		layers["trace.overhead_frac"] = median(tracedDurs)/u - 1
	}
	known := make(map[string]bool)
	for _, m := range perLayer {
		known[m.name] = true
		out.result.Metrics[m.name] = metricValue{layers[m.name], m.unit}
		out.report = append(out.report, fmt.Sprintf("%s %g %s", m.name, layers[m.name], m.unit))
	}
	for name := range layers {
		if !known[name] {
			return nil, fmt.Errorf("layer metric %s is not declared", name)
		}
	}
	return out, nil
}

// setUpSample is one set-up sample: the mean wall time of the set-ups
// made from start to end, in seconds.
type setUpSample struct {
	start, end time.Time
	seconds    float64
}

// sampleSetUps takes setupSamples set-up samples. It leaves the workload
// set up, or torn down on an error.
func sampleSetUps(ctx context.Context, w workload) ([]setUpSample, error) {
	var setups []setUpSample
	up := false
	for len(setups) < setupSamples {
		var spent time.Duration
		reps := 0
		first := time.Now()
		for spent < setupSampleMin {
			if up {
				if err := w.tearDown(); err != nil {
					return nil, fmt.Errorf("tear-down: %w", err)
				}
			}
			start := time.Now()
			err := w.setUp(ctx)
			spent += time.Since(start)
			reps++
			if err != nil {
				return nil, errors.Join(fmt.Errorf("set-up: %w", err), w.tearDown())
			}
			up = true
		}
		setups = append(setups, setUpSample{first, time.Now(), spent.Seconds() / float64(reps)})
	}
	return setups, nil
}

// runUnits runs units in a closed loop until the budget is spent: each
// unit starts only after the previous one returned, and none starts
// after the deadline. In a traced run every other unit is traced.
func runUnits(ctx context.Context, w workload, want counts, cfg config) []unitRecord {
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	var units []unitRecord
	for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
		var tr *trace
		if cfg.traced && k%2 == 1 {
			tr = newTrace()
		}
		w.beforeUnit()
		cpu0, cpuErr0 := w.cpu()
		start := time.Now()
		tr.begin("unit")
		got, err := w.unit(ctx, tr)
		tr.end()
		u := unitRecord{start: start, dur: time.Since(start), traced: tr != nil, tr: tr}
		cpu1, cpuErr1 := w.cpu()
		u.cpu = cpu1 - cpu0
		if err == nil {
			err = errors.Join(cpuErr0, cpuErr1)
		}
		if err != nil {
			u.bad = []string{"error: " + err.Error()}
		} else {
			u.bad = mismatches(want, got)
		}
		units = append(units, u)
	}
	return units
}

// running is the sampler of the run in progress; in-process workloads
// leave its thread out of their CPU time.
var running *sampler

// ownCPU returns the CPU time this process has used so far, without the
// sampler's thread.
func ownCPU() (time.Duration, error) {
	p, err := processCPU(os.Getpid())
	if err != nil || running == nil {
		return p, err
	}
	t, err := running.threadCPU()
	return p - t, err
}

// traceLayers takes the median over the correct traced units of each
// span's self time and of each layer sample.
func traceLayers(units []unitRecord) map[string]float64 {
	perName := make(map[string][]float64)
	for _, u := range units {
		if u.tr == nil || len(u.bad) > 0 {
			continue
		}
		for name, d := range u.tr.selfTimes() {
			perName[spanMetrics[name]] = append(perName[spanMetrics[name]], d.Seconds())
		}
		for name, v := range u.tr.samples {
			perName[name] = append(perName[name], v)
		}
	}
	out := make(map[string]float64)
	for name, xs := range perName {
		out[name] = median(xs)
	}
	return out
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
