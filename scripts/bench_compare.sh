#!/usr/bin/env bash
# bench_compare.sh: measure the all-sources BFS kernels, the
# implicit-vs-CSR neighbor generation cost and the route kernel, and gate
# their ratios against the checked-in baseline.
#
# Runs BenchmarkAllSourcesBFS (scalar vs msbfs vs orbits vs symmetry),
# BenchmarkNeighborGen (CSR arena rows vs rank/unrank codec rows) and
# BenchmarkRouteBFS (full-BFS walk vs bidirectional search), all single
# threaded, converts the ns/op samples into per-family ratios with
# cmd/benchratio, writes them to BENCH_PR4.json, and fails when any
# speedup drops more than 15% below — or any implicit cost factor rises
# more than 15% above — scripts/bench_baseline_pr4.json.  Ratios, not raw
# ns/op, are compared, so the gate is meaningful on any machine.
#
# Sampling: every sub-benchmark runs for a fixed time, so the short
# kernels (a 0.1 ms symmetry BFS, a 25 us neighbor sweep) are timed over
# hundreds of ops in steady state rather than over three cold ones.  The
# whole suite runs in five passes, and benchratio takes each ratio as the
# median of the five passes' own ratios: a shared host slows down for
# seconds at a time, which can split one pass's two kernels, but rarely
# three passes of the same kernel some fifteen seconds apart.
#
# Usage:
#   scripts/bench_compare.sh                # measure + gate (CI entry point)
#   BENCH_BASELINE= scripts/bench_compare.sh  # measure only, no gate
#   BENCHTIME=1s scripts/bench_compare.sh     # slower, steadier samples
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-200ms}"
OUT="${BENCH_OUT:-BENCH_PR4.json}"
BASELINE="${BENCH_BASELINE-scripts/bench_baseline_pr4.json}"

echo "bench_compare: running BenchmarkAllSourcesBFS + BenchmarkNeighborGen + BenchmarkRouteBFS (benchtime=$BENCHTIME)..." >&2
raw=""
for _ in 1 2 3 4 5; do
  raw+="$(go test -run=NONE -bench='^(BenchmarkAllSourcesBFS|BenchmarkNeighborGen|BenchmarkRouteBFS)$' -benchtime="$BENCHTIME" -cpu=1 .)"$'\n'
done

args=(-out "$OUT")
if [[ -n "$BASELINE" ]]; then
  args+=(-baseline "$BASELINE")
fi
echo "$raw" | go run ./cmd/benchratio "${args[@]}"
echo "bench_compare: wrote $OUT" >&2
