package main

// metric is a reported metric's name and unit. The lists below must
// match BENCHMARK.json's end_to_end and per_layer entries (a test
// checks both ways).
type metric struct{ name, unit string }

// endToEnd is what a user of the checker sees, reported by untraced
// runs. unit_cost_refs is the median over units of a unit's CPU time
// over the median CPU time of the reference computations run beside it:
// the time a result takes, in units that do not drift with the speed
// other tenants leave the host.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"unit_cost_refs", "refs"},
	{"rss_peak_mb", "MB"},
}

// perLayer is reported by traced runs, on every workload: a layer the
// workload bypasses reads 0. Span metrics are self times: a span's
// duration minus the part its child spans cover.
var perLayer = []metric{
	// The benchmark itself: the unit span's self time, the median
	// untraced unit's CPU time, and the reference computation's CPU time
	// (which shows the host's speed during the run).
	{"unit.self_s", "s"},
	{"unit.cpu_s_p50", "s"},
	{"ref.cpu_s_p50", "s"},

	// explore
	{"explore.build_s", "s"},
	{"explore.check_s", "s"},
	{"explore.close_s", "s"},
	{"explore.states_per_s", "1/s"},
	{"explore.allocs_per_state", "count"},
	{"explore.bytes_per_state", "B"},
	{"explore.gc_cycles", "count"},
	{"explore.gc_pause_s", "s"},
	{"explore.levels", "count"},
	{"explore.level_ns_p50", "ns"},
	{"explore.level_ns_p99", "ns"},
	{"explore.frontier_max", "count"},
	{"explore.symmetry_hits_per_state", "ratio"},
	{"explore.orbit_size_max", "count"},

	// enumerate and sim
	{"enumerate.prepare_s", "s"},
	{"enumerate.check_range_s", "s"},
	{"enumerate.allocs_per_candidate", "count"},
	{"sweep.explore_runs", "count"},
	{"sweep.states_per_run", "count"},
	{"sweep.dedup_ratio", "ratio"},
	{"sweep.memo_hits", "count"},
	{"sweep.fork_saved_ratio", "ratio"},
	{"sweep.explored_per_covered", "ratio"},
	{"sweep.candidate_s_mean", "s"},

	// dacd, jobs, checkpoint and store
	{"dacd.submit_s_p50", "s"},
	{"dacd.poll_s_p50", "s"},
	{"dacd.result_s_p50", "s"},
	{"dacd.run_s_p50", "s"},
	{"dacd.overhead_s_p50", "s"},
	{"checkpoint.count_per_job", "count"},
	{"checkpoint.write_s_per_job", "s"},
	{"checkpoint.bytes_per_job", "B"},
	{"checkpoint.encode_frac", "ratio"},
	{"store.spilled_bytes_per_job", "B"},
	{"store.arena_faults_per_job", "count"},
	{"jobs.journal_bytes_per_job", "B"},

	// Tracing overhead: traced against untraced units of the same run.
	{"trace.untraced_unit_s_p50", "s"},
	{"trace.traced_unit_s_p50", "s"},
	{"trace.overhead_frac", "ratio"},
}

// spanMetrics names the per-layer metric that reports each span's self
// time.
var spanMetrics = map[string]string{
	"unit":                  "unit.self_s",
	"explore.build":         "explore.build_s",
	"explore.check":         "explore.check_s",
	"explore.close":         "explore.close_s",
	"enumerate.prepare":     "enumerate.prepare_s",
	"enumerate.check_range": "enumerate.check_range_s",
	"dacd.submit":           "dacd.submit_s_p50",
	"dacd.poll":             "dacd.poll_s_p50",
	"dacd.result":           "dacd.result_s_p50",
}
