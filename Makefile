# Verification targets. `make verify` is the full gate every change
# must pass: gofmt + vet + build + tests + the race detector on the
# packages that run goroutines (the parallel sweep engine in enumerate,
# the parallel-BFS explorer it drives — whose multi-worker determinism
# tests run under -race here — the lincheck fuzzer, the obs metrics
# layer they all feed, and internal/sweepspec, whose pinned-digest
# suite runs the parallel sweep engine memoized and unmemoized through
# dacd's sweep path; memo sharing across range cuts is enumerate's
# TestCheckRangePartitionMatchesFullSweep) + bench-gate, the
# benchmark's exact-work and cost-ceiling check.

GO ?= go

.PHONY: verify fmt vet build test race fuzz bench bench-gate experiments

verify: fmt vet build test race bench-gate

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
# The final lines re-run the durable-runs suite — checkpoint
# kill-resume byte-equality, the restore checks (among them
# TestResumeRejectsUnexpandedParent: a spanning-tree parent that was
# never expanded is corrupt, and TestResumeSafetyFromEveryBarrier), the
# store-backend equivalence and pinned output digests, the jobs
# store/pool, and the dacd daemon's kill -9 e2e — under the race
# detector with caching disabled, since
# the kill-resume invariant (resumed report + event stream identical to
# an uninterrupted run) is exactly the kind of cross-goroutine
# determinism claim -race exists to audit.
race:
	$(GO) test -race ./internal/enumerate ./internal/explore ./internal/lincheck ./internal/obs ./internal/store ./internal/sweepspec ./internal/collections
	EXPLORE_SYMMETRY_WORKERS=1 $(GO) test -race -run 'TestSymmetry' ./internal/explore
	EXPLORE_SYMMETRY_WORKERS=4 $(GO) test -race -run 'TestSymmetry' ./internal/explore
	$(GO) test -race -count=1 -run 'TestKillResume|TestResume|TestContextCancel|TestDiskStore|TestStoreDigests' ./internal/explore
	$(GO) test -race -count=1 ./internal/checkpoint ./internal/jobs ./cmd/dacd

# fuzz runs each fuzz target for 30 s past its seed corpus, which plain
# `go test` already runs: FuzzResume (mutated explorer checkpoint
# payloads), FuzzSweepSpec and FuzzCollectionsSpec (arbitrary dacd
# sweep and collections job specs, checked up to, not including, the
# sweep itself), FuzzExploreSpec (arbitrary dacd explore job specs,
# built into a system but never checked), FuzzParse (arbitrary
# machine assembly, round-tripped through Disassemble when accepted),
# FuzzJournal (arbitrary job-store journals replayed by jobs.Open),
# FuzzArchive (arbitrary bytes read back as an archived job's gzipped
# result and events) and FuzzHistory (arbitrary lincheck history JSON
# of at most 10 events).
# It is not part of verify.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzResume$$' -fuzztime 30s ./internal/explore
	$(GO) test -run '^$$' -fuzz '^FuzzSweepSpec$$' -fuzztime 30s ./internal/sweepspec
	$(GO) test -run '^$$' -fuzz '^FuzzCollectionsSpec$$' -fuzztime 30s ./internal/sweepspec
	$(GO) test -run '^$$' -fuzz '^FuzzExploreSpec$$' -fuzztime 30s ./cmd/dacd
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/machine
	$(GO) test -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime 30s ./internal/jobs
	$(GO) test -run '^$$' -fuzz '^FuzzArchive$$' -fuzztime 30s ./internal/jobs
	$(GO) test -run '^$$' -fuzz '^FuzzHistory$$' -fuzztime 30s ./cmd/lincheck

bench:
	$(GO) test -bench=. -benchmem

# bench-gate is verify's benchmark gate. It runs each BENCHMARK.json
# workload for 3 s through benchmark/run.sh, the same runner and method
# the benchmark measures with. The runner checks every unit's exact
# verdict and state, transition, memo, dedup and fork counts, and its
# last output line is one JSON result. The gate fails unless that line
# reports "correct":true and "failed":0, and unless its unit_cost_refs
# (unit CPU time over a reference computation run alongside, so the
# figure does not drift with host load) is at most the workload's
# ceiling in BENCH_CEILINGS. Each ceiling is about twice the median
# unit_cost_refs measured over interleaved 28-s runs once every value
# in a key or step record took its one-byte value code (the commit
# after f0d92b9): explore-n7 about 1,860, explore-n7-ids about 54 and
# dacd-jobs about 71; sweep-e3's, about 1,250, once sweep checks
# stopped at their first violation (the commit after 5e43ca8). So a
# ceiling trips on a lost fast path, not on noise.
# Lower a ceiling in the same commit as a measured speed-up it should
# hold.
# encoding/json writes the metrics map with sorted keys, so sed can
# read the value without a JSON tool.
BENCH_CEILINGS = explore-n7:3700 explore-n7-ids:110 sweep-e3:2500 dacd-jobs:140
bench-gate:
	@for wc in $(BENCH_CEILINGS); do \
		w=$${wc%%:*}; ceiling=$${wc#*:}; \
		out=$$(bash benchmark/run.sh --workload $$w --seconds 3); \
		line=$$(printf '%s\n' "$$out" | tail -n 1); \
		case "$$line" in \
		*'"correct":true,'*'"failed":0,'*) ;; \
		*) printf '%s\n' "$$out" | grep '^FAILED'; \
			echo "bench-gate: $$w: exact-work check failed: $$line"; exit 1 ;; \
		esac; \
		cost=$$(printf '%s\n' "$$line" | sed -n 's/.*"unit_cost_refs":{"value":\([^,}]*\).*/\1/p'); \
		awk -v c="$$cost" -v m="$$ceiling" 'BEGIN { exit !(c != "" && c + 0 <= m + 0) }' \
			|| { echo "bench-gate: $$w: unit_cost_refs '$$cost' above ceiling $$ceiling"; exit 1; }; \
		echo "bench-gate: $$w: correct, unit_cost_refs $$cost (ceiling $$ceiling)"; \
	done

experiments:
	$(GO) run ./cmd/experiments
