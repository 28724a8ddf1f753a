#![warn(missing_docs)]

//! # catnap-bench
//!
//! The paper-reproduction harness. Each `[[bench]]` target (with
//! `harness = false`) regenerates one table, figure, ablation or
//! extension of the Catnap paper: it runs the relevant simulations,
//! prints an aligned text table mirroring the paper's rows/series, and
//! writes the series as JSON under `bench_out/`.
//!
//! The targets share one synthetic-traffic runner, [`run_job_uncached`]:
//! [`run_synthetic`] and [`latency_sweep`] are its constant-load case,
//! and [`run_synthetic_cached`], which `catnap-serve` answers jobs with,
//! adds the result and warm-up-checkpoint caches around it. Simulator
//! speed is measured by the repository benchmark (`examples/benchmark`),
//! not by a target here.
//!
//! Run everything with `cargo bench --workspace`, or one figure with
//! e.g. `cargo bench -p catnap-bench --bench fig10_uniform_power_gating`.

pub mod cached;
pub mod harness;
pub mod runs;

pub use cached::{
    job_fingerprint, run_job_uncached, run_synthetic_cached, sweep_requests, CacheOutcome, JobRequest, SimJob,
};
pub use harness::{emit_csv_timeline, emit_json, emit_trace, print_banner, Table};
pub use runs::{latency_sweep, run_mix, run_synthetic, trace_synthetic, MixResult, SweepPoint};
