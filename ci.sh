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
# Diffs full telemetry traces and CSV timelines; exits 1 on a
# divergence, naming the first divergent cycle.
cargo run -q --release --offline --example trace_diff -- --demo

echo "== benchmark smoke (examples/benchmark builds against the libraries and runs) =="
cargo run -q --release --offline --manifest-path examples/benchmark/Cargo.toml -- --smoke

echo "== hive smoke (3 spawned catnap-serve workers over loopback TCP) =="
# The hive integration tests (tests/hive.rs) already ran above with
# in-process fleets; this exercises the real multi-process path:
# catnap-hive forks catnap-serve children sharing one cache directory.
# The release build above built the worker binary (every crate is a
# default workspace member).
HIVE_TMP="$(mktemp -d)"
trap 'rm -rf "$HIVE_TMP"' EXIT
cargo run -q --release --offline -p catnap-hive -- sweep \
  --spawn 3 --worker-bin target/release/catnap-serve \
  --config single-noc-128b --pattern transpose --loads 0.02,0.04,0.06 \
  --packet-bits 128 --warmup 60 --measure 60 --seed 11 \
  --cache "$HIVE_TMP/cache" --out "$HIVE_TMP/sweep.json"
test -s "$HIVE_TMP/sweep.json" || { echo "hive smoke produced no output"; exit 1; }

echo "== clippy (workspace, all targets, -D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (workspace, -D warnings) =="
# Broken, private or ambiguous intra-doc links fail the gate, so docs
# cannot keep pointing at renamed or deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "ci.sh: all green"
