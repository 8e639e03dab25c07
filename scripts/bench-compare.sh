#!/usr/bin/env bash
# bench-compare.sh — the paired benchmark comparison of bench/README.md as
# one command: this checkout against a base ref.
#
#   scripts/bench-compare.sh <base-ref> [seeds] [seconds]
#
# Checks the base ref out as a git worktree under .bench_build/, runs all
# four workloads on seeds 1..seeds (default 10) for `seconds` each (default
# 20, BENCHMARK.json's run_seconds), the two sides taking turns — odd seeds
# base then new, even seeds new then base, so neither side always runs on
# the host the other just warmed — and hands the two result files to
# `bench -compare`. Its exit status is the comparison's: non-zero when any
# end-to-end metric is worse than its bound allows, or when a run fails its
# correctness check. The result files stay in .bench_build/compare/.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <base-ref> [seeds] [seconds]" >&2
    exit 2
fi
base_ref=$1
seeds=${2:-10}
seconds=${3:-20}

root=$(cd "$(dirname "$0")/.." && pwd)
base="$root/.bench_build/compare-base"
out="$root/.bench_build/compare"
mkdir -p "$out"
rm -f "$out/base.jsonl" "$out/new.jsonl"

drop_base() { git -C "$root" worktree remove --force "$base" 2>/dev/null || true; }
drop_base
git -C "$root" worktree add --detach "$base" "$base_ref" >/dev/null
trap drop_base EXIT

# run <checkout> <result file> <workload> <seed>
run() {
    echo "bench-compare: $(basename "$2" .jsonl) $3 seed $4" >&2
    bash "$1/bench/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 -out "$2" >/dev/null
}

for seed in $(seq 1 "$seeds"); do
    for workload in synth_cold query_mem query_disk serve_mix; do
        if [ $((seed % 2)) -eq 1 ]; then
            run "$base" "$out/base.jsonl" "$workload" "$seed"
            run "$root" "$out/new.jsonl" "$workload" "$seed"
        else
            run "$root" "$out/new.jsonl" "$workload" "$seed"
            run "$base" "$out/base.jsonl" "$workload" "$seed"
        fi
    done
done

bash "$root/bench/run.sh" -compare "$out/base.jsonl" "$out/new.jsonl"
