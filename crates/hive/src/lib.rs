#![warn(missing_docs)]

//! # catnap-hive
//!
//! A distributed sweep coordinator for Catnap simulations: partitions a
//! latency sweep into `catnap-serve` jobs and drives a fleet of workers
//! over the JSONL protocol, surviving worker crashes and hangs without
//! ever changing a result byte.
//!
//! ## Protocol
//!
//! The coordinator is a plain `catnap-serve` TCP client. Each worker
//! connection is validated with a `ping` handshake — the worker's
//! `fingerprint_schema` must equal this build's
//! [`catnap::FINGERPRINT_SCHEMA_VERSION`], because a fleet mixing
//! fingerprint schemas would silently cross-pollute shared caches —
//! then fed `{"id": N, "job": {…}}` lines one at a time. Workers
//! spawned by the coordinator itself ([`ProcessFleet`],
//! `catnap-hive sweep --spawn N`) are retired with the protocol's
//! `shutdown` command.
//!
//! ## Failure model
//!
//! Every job is in exactly one place: pending, held by one worker, or
//! done. A job goes back to the front of the queue when its worker
//! crashes, refuses the connection, sends a garbled reply, or hangs
//! past [`HiveConfig::request_timeout`]; each such failure costs the
//! worker one strike, and a worker dies after
//! [`HiveConfig::max_attempts`] consecutive strikes, sleeping a
//! deterministic jittered backoff ([`Backoff`]) between them. A hung
//! worker therefore costs one request timeout per strike. A worker
//! speaking another fingerprint schema is retired at once.
//! Protocol-level *rejections* are deterministic (every worker would
//! refuse the same line) and fail the sweep immediately.
//!
//! ## Determinism argument
//!
//! Every job's result is a pure function of the job line: the simulator
//! is bit-deterministic, and the caches are keyed by fingerprints of
//! the job itself. Scheduling therefore affects only *who* computes
//! each result, never the bytes — any worker count and any failure
//! schedule that completes yields the identical result vector, in job
//! order. No job is ever run twice at once, so there are no duplicate
//! results to reconcile. The only nondeterminism left is in wall-clock
//! timing, and even the retry jitter replays exactly under a fixed
//! [`HiveConfig::seed`].
//!
//! ## Divergence bisection
//!
//! When two runs that should agree don't, [`bisect_jobs`] finds the
//! first divergent cycle in `O(log horizon)` state comparisons by
//! binary-searching over checkpoint-payload digests, resuming from a
//! retained checkpoint ladder, and attaches an event-level
//! [`catnap_telemetry::TraceDiff`] over the bracketing window. See
//! DESIGN.md §15 for the full argument.

pub mod backoff;
pub mod bisect;
pub mod coordinator;
pub mod fleet;
mod queue;

pub use backoff::Backoff;
pub use bisect::{bisect_jobs, first_divergence_linear, BisectReport, WindowReport};
pub use coordinator::{
    ping, run_sweep, shutdown_workers, Connection, HiveConfig, HiveError, HiveStats, PingInfo, SweepOutcome,
};
pub use fleet::{default_worker_bin, ProcessFleet, ThreadFleet};
