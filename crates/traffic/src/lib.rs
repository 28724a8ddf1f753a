#![warn(missing_docs)]

//! # catnap-traffic
//!
//! Traffic generation for NoC simulation:
//!
//! * [`SyntheticPattern`] — the paper's synthetic patterns (uniform
//!   random, transpose, bit complement) plus common extras.
//! * [`SyntheticWorkload`] — open-loop Bernoulli injectors with a
//!   time-varying [`LoadSchedule`] for the bursty experiments (Fig. 12).
//! * [`workload`] — the catalog of the paper's 35 applications and the
//!   four multiprogrammed mixes of Table 3, as synthetic per-benchmark
//!   memory-behaviour parameters (the documented substitution for the
//!   paper's Pin traces; see DESIGN.md §3).
//! * [`trace`] — a JSON-lines trace format so workloads can be recorded
//!   and replayed deterministically.

pub mod generator;
pub mod patterns;
pub mod schedule;
pub mod trace;
pub mod workload;

pub use generator::{PacketSink, SyntheticWorkload};
pub use patterns::SyntheticPattern;
pub use schedule::LoadSchedule;
pub use workload::{Benchmark, WorkloadMix};
