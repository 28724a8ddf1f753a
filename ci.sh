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

echo "== test (release: differential, checkpoint and determinism suites) =="
# Release builds wrap on integer overflow instead of panicking and
# compile out the debug_assert cross-checks (buffered-flit and in-flight
# counters against the rings), so the router buffer index arithmetic
# must also pass these suites as the benchmark runs it.
cargo test -q --release --offline --test eventdriven --test checkpoint --test determinism

echo "== trace diff (production step vs the per-cycle oracle at near-idle load) =="
# Diffs full telemetry traces and CSV timelines at router granularity
# (CatnapRcs) and at port granularity (LocalIdlePort); exits 1 on a
# divergence in either, naming the first divergent cycle.
cargo run -q --release --offline --example trace_diff -- --demo

echo "== closed-loop CLI (System via mix, CacheSystem via cache: two runs, same bytes) =="
# Outside the tests, `cache` is CacheSystem's only caller, and nothing
# else runs either subcommand. Each runs twice at one seed; the outputs
# must match byte for byte.
CLI_TMP="$(mktemp -d)"
trap 'rm -rf "$CLI_TMP"' EXIT
for sub in "mix --mix heavy" "cache --workload heavy"; do
  for run in 1 2; do
    # $sub is left unquoted so it splits into the subcommand and its flags.
    # shellcheck disable=SC2086
    target/release/catnap-sim $sub --cycles 1200 --gating --seed 7 > "$CLI_TMP/$run.out"
  done
  cmp "$CLI_TMP/1.out" "$CLI_TMP/2.out"
done
rm -rf "$CLI_TMP"

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

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, -D warnings) =="
# Broken, private or ambiguous intra-doc links fail the gate, so docs
# cannot keep pointing at renamed or deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "ci.sh: all green"
