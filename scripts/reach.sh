#!/usr/bin/env bash
# reach.sh — which statements of sia/... do the binaries, the workloads and
# the paper outputs execute?
#
#   scripts/reach.sh [queries]      # queries defaults to 200, the paper's size
#
# Builds every binary (cmd/siabench, siad, sia, tpchgen), every example and
# the benchmark command (bench/) with integration coverage
# (-cover -coverpkg=sia/...), runs them with GOCOVERDIR set, merges the
# counters with go tool covdata
# and prints, per package, the statements, the percent reached and the
# functions no run entered. Unit tests are left out on purpose: a function
# only a test reaches is a deletion candidate, not evidence of use.
#
# The runs: the paper outputs at -queries N over scales 1 and 4, and Table 2
# at 5 queries with the CEGIS tracer on; each
# benchmark workload at seed 1, untraced and traced; the examples; cmd/sia
# on an integer schema under every preset and on a nullable DOUBLE schema;
# tpchgen in CSV and segment mode; scripts/smoke-siad.sh and
# smoke-cluster.sh as they are, under GOFLAGS (their go build honours it).
# Nothing is downloaded. Everything lands in .bench_build/reach/:
# summary.txt (what is printed), func.txt (every function) and the logs.
# The map is a tool, not a gate: no target or CI step runs it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
queries=${1:-200}
out="$root/.bench_build/reach"
rm -rf "$out"
mkdir -p "$out/bin" "$out/cov" "$out/tmp" "$out/log"
export GOTOOLCHAIN=local GOPROXY=off

cover=(-cover -coverpkg=sia/...)
echo "reach: building" >&2
for c in siabench siad sia tpchgen; do
	go build "${cover[@]}" -o "$out/bin/$c" "./cmd/$c"
done
for e in examples/*/; do
	go build "${cover[@]}" -o "$out/bin/example-$(basename "$e")" "./$e"
done
go build -C bench "${cover[@]}" -o "$out/bin/bench" .

export GOCOVERDIR="$out/cov"
bin="$out/bin"
log="$out/log"

echo "reach: paper outputs at -queries $queries" >&2
"$bin/siabench" -experiment table1,table2,table3,table4,fig6,fig7,fig8,fig9,fig9-disk,motivating \
	-queries "$queries" -scale 1,4 >"$log/siabench.txt"
# The CEGIS tracer (obs/trace.go) only runs under -trace.
"$bin/siabench" -experiment table2 -queries 5 -trace "$out/tmp/cegis.jsonl" >"$log/siabench-trace.txt"

for w in synth_cold query_mem query_disk serve_mix; do
	for trace in 0 1; do
		echo "reach: workload $w --trace $trace" >&2
		"$bin/bench" --workload "$w" --seed 1 --seconds 5 --trace "$trace" \
			-tmp "$out/tmp" -contract "$root/BENCHMARK.json" >"$log/bench-$w-$trace.txt"
	done
done

echo "reach: examples, sia, tpchgen" >&2
for e in "$bin"/example-*; do
	"$e" >"$log/$(basename "$e").txt"
done
for variant in sia sia_v1 sia_v2; do
	"$bin/sia" -variant "$variant" -v -schema 'a:int,b:int' -cols a \
		-pred 'a - b < 20 AND b < 0' >"$log/sia-int-$variant.txt"
done
"$bin/sia" -v -schema 'x:double?,y:double?' -cols x \
	-pred 'x - y < 2.5 AND y < 0' >"$log/sia-double.txt"
"$bin/tpchgen" -scale 1 -table orders >"$log/tpchgen-orders.csv"
"$bin/tpchgen" -scale 1 -table lineitem -segments "$out/tmp/segments" >"$log/tpchgen-segments.txt"

echo "reach: smoke scripts" >&2
GOFLAGS="${cover[*]}" ./scripts/smoke-siad.sh >"$log/smoke-siad.txt" 2>&1
GOFLAGS="${cover[*]}" ./scripts/smoke-cluster.sh >"$log/smoke-cluster.txt" 2>&1

# The benchmark command is its own module: go tool cover cannot resolve its
# files from the root module, so its blocks are dropped before -func.
go tool covdata textfmt -i="$out/cov" -o "$out/all.txt"
grep -v '^sia/bench/' "$out/all.txt" >"$out/profile.txt"
go tool cover -func="$out/profile.txt" >"$out/func.txt"

{
	# One line per block: file:range statements count. A block can appear
	# once per binary, so counts are summed per block before it is judged.
	awk 'NR > 1 {
		stmts[$1] = $2; count[$1] += $3
	}
	END {
		for (b in stmts) {
			pkg = b; sub(/\/[^\/]*:.*$/, "", pkg)
			total[pkg] += stmts[b]
			if (count[b] > 0) reached[pkg] += stmts[b]
		}
		printf "%-32s %10s %8s\n", "package", "statements", "reached"
		for (p in total) {
			printf "%-32s %10d %7.1f%%\n", p, total[p], 100 * reached[p] / total[p] | "sort"
			all += total[p]; hit += reached[p]
		}
		close("sort")
		printf "%-32s %10d %7.1f%%\n", "total", all, 100 * hit / all
	}' "$out/profile.txt"
	echo
	echo "unreached functions:"
	awk '$NF == "0.0%" { sub(/^sia\//, "", $1); print "  " $1 " " $2 }' "$out/func.txt"
} | tee "$out/summary.txt"
