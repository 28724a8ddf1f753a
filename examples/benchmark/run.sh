#!/usr/bin/env bash
# Full benchmark run, traced run, and a comparison of the new results
# with the ones committed before the run. Run from anywhere:
#
#   examples/benchmark/run.sh [SEED]
#
# Writes bench_out/benchmark/{all,<workload>}.json (end-to-end),
# bench_out/benchmark/{all,<workload>}.trace.json (per-layer), appends to
# bench_out/benchmark/trajectory.jsonl, and keeps the previous results
# in target/benchmark/previous.json for the comparison.
set -euo pipefail
cd "$(dirname "$0")/../.."
seed="${1:-7}"
bench=(cargo run --quiet --release --offline --manifest-path examples/benchmark/Cargo.toml --)

mkdir -p target/benchmark
previous=target/benchmark/previous.json
if [[ -f bench_out/benchmark/all.json ]]; then
  cp bench_out/benchmark/all.json "$previous"
fi

"${bench[@]}" --workload all --seed "$seed" --trace 0
"${bench[@]}" --workload all --seed "$seed" --trace 1

if [[ -f "$previous" ]]; then
  "${bench[@]}" --compare "$previous" bench_out/benchmark/all.json
fi
