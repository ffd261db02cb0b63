#!/bin/bash
# The command BENCHMARK.json names: builds the benchmark inside the checkout
# (the Go build cache too, so nothing is read or written outside it) and runs
# it with the caller's arguments, e.g.
#   bash bench/run.sh --workload small-suite --seed 1 --seconds 16 --trace 0
set -eu
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOTOOLCHAIN=local
exec go run . "$@"
