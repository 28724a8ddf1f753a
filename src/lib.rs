#![warn(missing_docs)]

//! # catnap-repro
//!
//! Facade crate for the reproduction of **"Catnap: Energy Proportional
//! Multiple Network-on-Chip"** (Das, Narayanasamy, Satpathy, Dreslinski;
//! ISCA 2013).
//!
//! This crate re-exports the workspace members so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`noc`] — cycle-level wormhole/VC mesh simulator (one subnet).
//! * [`power`] — Orion-style analytic power model and energy accounting.
//! * [`traffic`] — synthetic traffic patterns, bursty schedules and the
//!   application workload catalog.
//! * [`catnap`] — the paper's contribution: Multi-NoC orchestration,
//!   subnet-selection, regional congestion detection and power gating.
//! * [`multicore`] — closed-loop many-core substrate (cores, caches, MESI
//!   directory coherence, memory controllers).
//! * [`telemetry`] — cycle-level tracing and metrics: typed events,
//!   statically-dispatched sinks, HDR-style histograms, Chrome-trace and
//!   CSV exporters.
//! * [`bench`](mod@bench) — benchmark harnesses regenerating the
//!   paper's figures, plus the fingerprint-keyed simulation cache
//!   front-end.
//! * [`serve`] — batch simulation server: a JSONL job queue (stdin/stdout
//!   or TCP) deduplicated through the result cache.
//! * [`hive`] — distributed sweep coordinator over `catnap-serve`
//!   workers, with deterministic retry/backoff and cycle-exact
//!   divergence bisection over checkpoints.
//! * [`util`] — zero-dependency support library (seedable RNG, minimal
//!   JSON, mini property-testing runner) keeping the build hermetic.
//!
//! ## Quickstart
//!
//! ```
//! use catnap_repro::catnap::{MultiNocConfig, MultiNoc};
//! use catnap_repro::traffic::{SyntheticPattern, SyntheticWorkload};
//!
//! // The paper's 4NT-128b Catnap configuration with power gating.
//! let cfg = MultiNocConfig::catnap_4x128().gating(true);
//! let mut net = MultiNoc::new(cfg);
//! let mut workload = SyntheticWorkload::new(
//!     SyntheticPattern::UniformRandom,
//!     0.05,          // packets/node/cycle
//!     512,           // packet size in bits
//!     net.dims(),
//!     42,            // seed
//! );
//! for _ in 0..1_000 {
//!     workload.drive(&mut net);
//!     net.step();
//! }
//! let report = net.finish();
//! assert!(report.packets_delivered > 0);
//! ```

pub use catnap;
pub use catnap_bench as bench;
pub use catnap_hive as hive;
pub use catnap_multicore as multicore;
pub use catnap_noc as noc;
pub use catnap_power as power;
pub use catnap_serve as serve;
pub use catnap_telemetry as telemetry;
pub use catnap_traffic as traffic;
pub use catnap_util as util;
