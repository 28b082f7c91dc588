#!/usr/bin/env bash
# The benchmark's entry point (see BENCHMARK.json): build the benchmark from
# source into .bench_build/ — Go's build cache too, so nothing is written
# outside the checkout — then run it with the driver's arguments.
# Run from the repository root:
#   bash benchmark/run.sh --workload scan-ed --seed 1 --seconds 12 --trace 0
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
bin=.bench_build/benchmark
# VCS stamping gives the report its commit; a checkout git cannot read
# (no repository, or one owned by someone else) builds without it.
go build -o "$bin" ./benchmark || go build -buildvcs=false -o "$bin" ./benchmark
exec "$bin" "$@"
