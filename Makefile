# Verification targets. `make verify` is the full gate every change
# must pass: gofmt + vet + build + tests + the race detector on the
# packages that run goroutines (the parallel sweep engine in enumerate,
# the parallel-BFS explorer it drives — whose multi-worker determinism
# tests run under -race here — the lincheck fuzzer, the obs metrics
# layer they all feed, and internal/cluster, whose
# memoized-vs-unmemoized byte-equivalence suite drives the parallel
# sweep engine's shared memo table across range cuts).

GO ?= go

.PHONY: verify fmt vet build test race bench bench-json bench-gate bench-schema experiments

verify: fmt vet build test race bench-gate bench-schema

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The two pinned-worker runs re-execute the symmetry soundness suite
# (reduced-vs-unreduced verdict equality + witness replay) under the
# race detector at exactly Workers=1 and Workers=4; the unpinned
# ./internal/explore run above already covers the default {1,2,8} set.
# The final line re-runs the durable-runs suite — checkpoint
# kill-resume byte-equality, the jobs store/pool, and the dacd daemon's
# kill -9 e2e — under the race detector with caching disabled, since
# the kill-resume invariant (resumed report + event stream identical to
# an uninterrupted run) is exactly the kind of cross-goroutine
# determinism claim -race exists to audit.
race:
	$(GO) test -race ./internal/enumerate ./internal/explore ./internal/lincheck ./internal/obs ./internal/store ./internal/cluster ./internal/collections
	EXPLORE_SYMMETRY_WORKERS=1 $(GO) test -race -run 'TestSymmetry' ./internal/explore
	EXPLORE_SYMMETRY_WORKERS=4 $(GO) test -race -run 'TestSymmetry' ./internal/explore
	$(GO) test -race -count=1 -run 'TestKillResume|TestResume|TestContextCancel|TestDiskStore' ./internal/explore
	$(GO) test -race -count=1 ./internal/checkpoint ./internal/jobs ./cmd/dacd

bench:
	$(GO) test -bench=. -benchmem

# bench-json snapshots instrumented run reports for trajectory
# comparison across commits (see EXPERIMENTS.md "Reading run reports").
# BENCH_explore.json carries the workers dimension: the same alg2 -n 4
# exploration at -workers 1 and -workers 4 (reports are byte-identical
# by construction; only the rates differ) plus two ratios — the
# parallel speedup (bounded by the host's core count; ~1.0 on a
# single-core runner) and the speedup of the workers=4 engine over
# SEED_STATES_PER_SEC, the rate the seed's sequential string-key
# explorer recorded for the identical instance (BENCH_explore.json at
# commit bd294c8), which isolates the compact-binary-key rewrite.
# The symmetry block compares the same instances reduced vs unreduced
# (alg2 -n 4 at off/ids/values, alg2 -n 5 at off/ids; the -workers 1
# run doubles as the n=4 "off" baseline). Honest framing: the reduced
# runs intern orbit representatives, so "explore.states" shrinks by up
# to the group order while the raw states_per_sec rate DROPS (each
# interned state pays a canonicalization minimum over the group); the
# wall-clock win shows up in covered_states_per_sec — concrete states
# verified per second, i.e. the unreduced state count over the reduced
# run's wall time. benchmem_raw snapshots the off-vs-ids allocs/op
# rows of BenchmarkModelCheckDAC (the key-scratch pooling measurement).
# BENCH_experiments.json composes (bench_experiments.jq) the -quick
# battery's metrics report with the -bench-sweeps memoization
# comparison: the Thm 5.2 and Thm 7.1 reference sweeps timed with the
# cross-candidate memoizer off and on, with derived candidates_per_sec,
# speedup, and the in-process report byte-identity verdict.
SEED_STATES_PER_SEC = 39497.2975169156
bench-json:
	$(GO) run ./cmd/explore -protocol alg2 -n 4 -workers 1 -metrics .bench_explore_w1.json > /dev/null
	$(GO) run ./cmd/explore -protocol alg2 -n 4 -workers 4 -metrics .bench_explore_w4.json > /dev/null
	$(GO) run ./cmd/explore -protocol alg2 -n 4 -symmetry ids -metrics .bench_sym_n4_ids.json > /dev/null
	$(GO) run ./cmd/explore -protocol alg2 -n 4 -symmetry values -metrics .bench_sym_n4_values.json > /dev/null
	$(GO) run ./cmd/explore -protocol alg2 -n 5 -metrics .bench_sym_n5_off.json > /dev/null
	$(GO) run ./cmd/explore -protocol alg2 -n 5 -symmetry ids -metrics .bench_sym_n5_ids.json > /dev/null
	$(GO) test -run '^$$' -bench 'ModelCheckDAC/n=4/symmetry' -benchmem . > .bench_sym_allocs.txt
	jq -n --slurpfile w1 .bench_explore_w1.json --slurpfile w4 .bench_explore_w4.json \
		--slurpfile s4i .bench_sym_n4_ids.json --slurpfile s4v .bench_sym_n4_values.json \
		--slurpfile s5o .bench_sym_n5_off.json --slurpfile s5i .bench_sym_n5_ids.json \
		--rawfile benchmem .bench_sym_allocs.txt \
		--argjson seed $(SEED_STATES_PER_SEC) \
		-f bench_explore.jq > BENCH_explore.json
	rm -f .bench_explore_w1.json .bench_explore_w4.json .bench_sym_n4_ids.json \
		.bench_sym_n4_values.json .bench_sym_n5_off.json .bench_sym_n5_ids.json .bench_sym_allocs.txt
	$(GO) run ./cmd/experiments -quick -metrics .bench_experiments_quick.json > /dev/null
	$(GO) run ./cmd/experiments -bench-sweeps .bench_sweeps.json
	jq -n --slurpfile quick .bench_experiments_quick.json --slurpfile sweeps .bench_sweeps.json \
		-f bench_experiments.jq > BENCH_experiments.json
	rm -f .bench_experiments_quick.json .bench_sweeps.json
	$(GO) run ./cmd/experiments -bench-collections .bench_collections.json
	jq -n --slurpfile bench .bench_collections.json -f bench_collections.jq > BENCH_collections.json
	rm -f .bench_collections.json
	$(GO) test -run '^$$' -bench 'ModelCheckDAC/n=7/checkpoint' -benchtime 2x . > .bench_checkpoint.txt
	jq -n --rawfile bench .bench_checkpoint.txt -f bench_checkpoint.jq > BENCH_checkpoint.json
	rm -f .bench_checkpoint.txt
	$(GO) test -run '^$$' -bench 'ModelCheckDAC/n=7/store' -benchtime 2x . > .bench_store.txt
	jq -n --rawfile bench .bench_store.txt -f bench_store.jq > BENCH_store.json
	rm -f .bench_store.txt
	$(GO) test -run '^$$' -bench 'ModelCheckDAC/n=7/obs' -benchtime 2x -count 6 . > .bench_obs.txt
	jq -n --rawfile bench .bench_obs.txt --arg date "$$(date +%Y-%m-%d)" -f bench_obs.jq > BENCH_obs.json
	rm -f .bench_obs.txt
	@echo "wrote BENCH_explore.json BENCH_experiments.json BENCH_collections.json BENCH_checkpoint.json BENCH_store.json BENCH_obs.json"

# bench-gate is verify's throughput regression guard: one full alg2
# n=7 exploration (~285k configurations) must hold at least 90% of the
# committed baseline rate. The baseline is deliberately the FLOOR of
# the rates sampled on a loaded single-core runner when it was
# committed (observed spread 20k-48k states/sec run-to-run; typical
# hosts sit well above), so the gate trips on gross regressions — a
# lost fast path, an accidental O(n^2) — not on host noise. Update the
# baseline in the same commit as any intentional engine change that
# shifts it.
BASELINE_STATES_PER_SEC = 20527.4853259108
# The sweep gate guards the memoized falsification engine the same
# way: the Thm 5.2 reference sweep with cross-candidate memoization on
# must hold at least 90% of the committed floor rate (again the FLOOR
# of rates sampled on a loaded single-core runner — observed spread
# 41k-51k candidates/sec; typical hosts sit well above), and the
# memoized and unmemoized engines must render byte-identical reports
# on both reference sweeps in the same run. The gate uses the SMALL
# sweep deliberately: its fixed per-sweep costs dominate, so a
# regression in the memo hit path (key assembly, table probes) shows
# up here first rather than being hidden by Thm 7.1's dedup leverage.
BASELINE_SWEEP_CPS = 41156.5
bench-gate:
	$(GO) run ./cmd/explore -protocol alg2 -n 7 -metrics .bench_gate.json > /dev/null
	@jq -e --argjson base $(BASELINE_STATES_PER_SEC) \
		'.rates."explore.states_per_sec" >= $$base * 0.9' .bench_gate.json > /dev/null \
		|| { echo "bench-gate: explore.states_per_sec $$(jq '.rates."explore.states_per_sec"' .bench_gate.json) fell below 90% of baseline $(BASELINE_STATES_PER_SEC)"; rm -f .bench_gate.json; exit 1; }
	@echo "bench-gate: $$(jq '.rates."explore.states_per_sec"' .bench_gate.json) states/sec (baseline $(BASELINE_STATES_PER_SEC))"
	@rm -f .bench_gate.json
	$(GO) run ./cmd/experiments -bench-sweeps .bench_gate_sweeps.json
	@jq -e --argjson base $(BASELINE_SWEEP_CPS) \
		'(.sweeps | map(select(.id == "thm52"))[0].memo_on.candidates_per_sec >= $$base * 0.9) and (.sweeps | all(.render_identical))' .bench_gate_sweeps.json > /dev/null \
		|| { echo "bench-gate: memoized thm52 sweep $$(jq '.sweeps | map(select(.id == "thm52"))[0].memo_on.candidates_per_sec' .bench_gate_sweeps.json) candidates/sec below 90% of baseline $(BASELINE_SWEEP_CPS), or reports not byte-identical"; rm -f .bench_gate_sweeps.json; exit 1; }
	@echo "bench-gate: $$(jq '.sweeps | map(select(.id == "thm52"))[0].memo_on.candidates_per_sec' .bench_gate_sweeps.json) memoized candidates/sec (baseline $(BASELINE_SWEEP_CPS)), thm71 speedup $$(jq '.sweeps | map(select(.id == "thm71"))[0].speedup' .bench_gate_sweeps.json)x"
	@rm -f .bench_gate_sweeps.json

# bench-schema is verify's evidence-file guard: BENCH_obs.json (the
# committed instrumentation-overhead measurement, regenerated by
# bench-json) must carry a plausible level-latency histogram — positive
# quantiles in the right order — and both bench rows, so the /metrics
# quantile pipeline can't silently rot out of the evidence.
bench-schema:
	@jq -e '.threshold_percent == 2 and (.results | length) == 2 and .histogram.level_count_per_op > 0 and .histogram.level_p50_ns > 0 and .histogram.level_p99_ns >= .histogram.level_p50_ns' BENCH_obs.json > /dev/null \
		|| { echo "bench-schema: BENCH_obs.json missing or has implausible histogram fields"; exit 1; }
	@echo "bench-schema: BENCH_obs.json ok ($$(jq -r .verdict BENCH_obs.json | cut -c1-40)...)"
	@jq -e '(.sweeps.thm52.candidates == 49) and (.sweeps.thm71.candidates == 1116) and .sweeps.thm52.render_identical and .sweeps.thm71.render_identical and (.sweeps.thm71.memo_on.candidates_per_sec > 0) and (.sweeps.thm71.memo_off.candidates_per_sec > 0) and (.memoization.render_identical == true) and (.quick.counters."sweep.sweeps" >= 1)' BENCH_experiments.json > /dev/null \
		|| { echo "bench-schema: BENCH_experiments.json missing the memoization sweep comparison or reports not byte-identical (regenerate with make bench-json)"; exit 1; }
	@echo "bench-schema: BENCH_experiments.json ok (thm71 speedup $$(jq -r .memoization.thm71_speedup BENCH_experiments.json)x, identical=$$(jq -r .memoization.render_identical BENCH_experiments.json))"
	@jq -e '(.space.collections == 35) and .pruning.render_identical and (.pruning.on.collections_per_sec > 0) and (.pruning.off.collections_per_sec > 0) and .cross_validation.all_confirmed' BENCH_collections.json > /dev/null \
		|| { echo "bench-schema: BENCH_collections.json missing, reports not byte-identical across pruning, or a cross-validation verdict unconfirmed (regenerate with make bench-json)"; exit 1; }
	@echo "bench-schema: BENCH_collections.json ok (pruning speedup $$(jq -r .pruning.speedup BENCH_collections.json)x, cross-validations $$(jq -r .cross_validation.confirmed BENCH_collections.json)/$$(jq -r .cross_validation.checks BENCH_collections.json) confirmed)"

experiments:
	$(GO) run ./cmd/experiments
