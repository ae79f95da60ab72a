#!/usr/bin/env bash
# Builds the benchmark runner and the dacd daemon from the checkout it is
# run in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload explore-n7 --seed 1 --seconds 28 --trace 0
#
# Every build and run artifact (Go build cache, binaries, dacd data
# directories) stays under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd benchmark && go build -o "$out/bench" .)
go build -o "$out/dacd" ./cmd/dacd
exec "$out/bench" -dacd "$out/dacd" -work "$out" "$@"
