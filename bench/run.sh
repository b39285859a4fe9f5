#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (Go's build cache and the binary) goes
# under .bench_build/ at the repository root; nothing is read or written
# outside the checkout, and nothing is downloaded.
#
#   bash bench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1          # the whole suite, every metric
#   bash bench/run.sh -selfcheck       # two untraced sets, compared
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
