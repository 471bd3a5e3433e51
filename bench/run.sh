#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source inside
# the checkout and runs it with the arguments given.
#
#	bash bench/run.sh                                  every workload, end-to-end metrics
#	bash bench/run.sh --workload festival --seed 3 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
# Everything the go command writes stays under .bench_build: the build cache
# and, through XDG_CONFIG_HOME, its telemetry counters.
XDG_CONFIG_HOME="$build/config" GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go build -C "$here" -o "$build/logmob-bench" .
exec "$build/logmob-bench" "$@"
