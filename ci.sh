#!/usr/bin/env bash
# Tier-1 CI gate: build, test, lint. Run from the repo root.
#
# The workspace is hermetic (no external crates), so everything runs
# with --offline. Clippy is pinned at -D warnings: a warning anywhere
# in the workspace, including tests and benches, fails the gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== build (release) =="
cargo build --release --offline

echo "== test =="
cargo test -q --offline

echo "== test (release: differential, checkpoint, determinism, router edge-case and gating suites) =="
# Release builds wrap on integer overflow instead of panicking and
# compile out the debug_assert cross-checks (buffered-flit and in-flight
# counters against the rings, the allocator's masks against the state
# they summarize, the gating units' timestamps against the clock), so
# the router buffer index arithmetic and the inline u8 rings, masks and
# pointers must also pass these suites as the benchmark runs them;
# noc_edge_cases and proptest_invariants cover the 1-VC, 16-deep and
# random-shape routers. Residencies are differences of timestamps,
# which also wrap silently here: gating_invariants and power_accounting
# pin the residency partitions, the CSC bounds, wake-ups at t_wakeup 0
# and port-gated static power (about 1.5 s of test time on 2 vCPUs).
# The checkpoint suite's mutation test
# (mutated_checkpoints_fail_typed_or_run_but_never_panic: re-sealed
# hostile payloads, none may panic) runs 10,000 trials here; the debug
# run above, with the wormhole debug_asserts live, ran 2,000.
cargo test -q --release --offline --test eventdriven --test checkpoint --test determinism \
  --test noc_edge_cases --test proptest_invariants --test gating_invariants --test power_accounting

echo "== trace diff (production step vs the per-cycle oracle, near idle and at load 0.08) =="
# Diffs full telemetry traces and CSV timelines of step against
# step_reference at router granularity (CatnapRcs) and port granularity
# (LocalIdlePort) near idle, and under CatnapRcs and LocalIdle (router
# units) at load 0.08, where the gating and detector worklists are busy;
# exits 1 on a divergence in any, naming the first divergent cycle.
cargo run -q --release --offline --example trace_diff -- --demo

echo "== CLI (System via mix, the open-loop network via synthetic: two runs, same bytes) =="
# Outside the tests, nothing else runs either subcommand. Each runs
# twice at one seed; the outputs must match byte for byte.
CLI_TMP="$(mktemp -d)"
trap 'rm -rf "$CLI_TMP"' EXIT
for sub in "mix --mix heavy" "synthetic --config 4NT-128b --load 0.05"; do
  for run in 1 2; do
    # $sub is left unquoted so it splits into the subcommand and its flags.
    # shellcheck disable=SC2086
    target/release/catnap-sim $sub --cycles 1200 --gating --seed 7 > "$CLI_TMP/$run.out"
  done
  cmp "$CLI_TMP/1.out" "$CLI_TMP/2.out"
done
rm -rf "$CLI_TMP"

echo "== serve cache cap (catnap-serve on stdin, cache named by CATNAP_CACHE_DIR) =="
# Each job stores a result and a warm-up checkpoint: six entries without
# a cap. --max-entries must hold however the directory was named.
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP"' EXIT
for rate in 0.01 0.02 0.03; do
  echo "{\"job\": {\"config\": \"catnap-2x128-64core\", \"rate\": $rate, \"warmup\": 50, \"measure\": 50, \"seed\": 7}}"
done | CATNAP_CACHE_DIR="$SERVE_TMP/cache" target/release/catnap-serve --max-entries 1 > "$SERVE_TMP/out.jsonl"
ENTRIES="$(find "$SERVE_TMP/cache" -type f | wc -l)"
test "$ENTRIES" -eq 1 || { echo "catnap-serve --max-entries 1 left $ENTRIES cache entries"; exit 1; }
rm -rf "$SERVE_TMP"

echo "== benchmark smoke (examples/benchmark builds against the libraries and runs) =="
cargo run -q --release --offline --manifest-path examples/benchmark/Cargo.toml -- --smoke

echo "== hive smoke (3 spawned catnap-serve workers over loopback TCP, two fleets, one cache) =="
# The hive integration tests (tests/hive.rs) already ran above with
# in-process fleets, each worker with a private cache; this exercises
# the real multi-process path: catnap-hive forks catnap-serve children
# sharing one cache directory. The second pass spawns a fresh fleet over
# the same directory, so it is answered from the first fleet's
# result-cache entries, and its output must equal the first pass's byte
# for byte. The release build above built the worker binary (every
# crate is a default workspace member).
HIVE_TMP="$(mktemp -d)"
trap 'rm -rf "$HIVE_TMP"' EXIT
for pass in 1 2; do
  cargo run -q --release --offline -p catnap-hive -- sweep \
    --spawn 3 --worker-bin target/release/catnap-serve \
    --config single-noc-128b --pattern transpose --loads 0.02,0.04,0.06 \
    --packet-bits 128 --warmup 60 --measure 60 --seed 11 \
    --cache "$HIVE_TMP/cache" --out "$HIVE_TMP/sweep-$pass.json"
done
test -s "$HIVE_TMP/sweep-1.json" || { echo "hive smoke produced no output"; exit 1; }
cmp "$HIVE_TMP/sweep-1.json" "$HIVE_TMP/sweep-2.json"
# The divergence bisector over checkpoint digests: a constant load
# against a schedule that steps up at cycle 150 first differs in the
# state after cycle 151's traffic, and a job never diverges from itself.
BISECT_A='{"config":"catnap-2x128-64core","rate":0.05,"warmup":100,"measure":200,"seed":7}'
BISECT_B='{"config":"catnap-2x128-64core","schedule":[[0,0.05],[150,0.3]],"warmup":100,"measure":200,"seed":7}'
target/release/catnap-hive bisect --job-a "$BISECT_A" --job-b "$BISECT_B" > "$HIVE_TMP/bisect.out"
grep -q "^first divergent cycle: 151 " "$HIVE_TMP/bisect.out" || { cat "$HIVE_TMP/bisect.out"; exit 1; }
target/release/catnap-hive bisect --job-a "$BISECT_A" --job-b "$BISECT_A" > "$HIVE_TMP/bisect.out"
grep -q "^states identical" "$HIVE_TMP/bisect.out" || { cat "$HIVE_TMP/bisect.out"; exit 1; }

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, -D warnings) =="
# Broken, private or ambiguous intra-doc links fail the gate, so docs
# cannot keep pointing at renamed or deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "ci.sh: all green"
