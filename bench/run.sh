#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build and the run leave behind (Go build cache, binary, segment
# files) stays under .bench_build/ in the checkout; nothing is downloaded.
#
#   bash bench/run.sh --workload query_mem --seed 7 --seconds 20 --trace 0
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off

go build -C "$here" -o "$build/bench" .
exec "$build/bench" -tmp "$build/tmp" -contract "$root/BENCHMARK.json" "$@"
