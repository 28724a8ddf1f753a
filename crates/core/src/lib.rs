#![warn(missing_docs)]

//! # catnap
//!
//! The Catnap architecture (Das, Narayanasamy, Satpathy, Dreslinski —
//! *"Catnap: Energy Proportional Multiple Network-on-Chip"*, ISCA 2013):
//! a multiple-network (Multi-NoC) design with synergistic subnet-selection
//! and power-gating policies that make the on-chip network energy
//! proportional.
//!
//! ## The idea
//!
//! A Multi-NoC partitions the wires and buffers of a wide network into
//! several narrower *subnets*; every node's network interface (NI)
//! connects to one router in each subnet. Unlike a single network — where
//! most routers must stay powered to preserve connectivity even under a
//! trickle of traffic — a Multi-NoC can gate *entire subnets* without
//! disconnecting any node. Catnap exploits this with three cooperating
//! mechanisms:
//!
//! 1. **Strict-priority subnet selection** ([`select`]): packets go to
//!    the lowest-order subnet that is not close to congestion, so
//!    higher-order subnets see long idle periods.
//! 2. **Regional congestion detection** ([`congestion`], [`rcs`]): each
//!    node computes a local congestion status — the best metric is the
//!    *maximum input-port buffer occupancy* (BFM, threshold 9 flits) —
//!    and a 1-bit OR network per 4x4 region aggregates it into a regional
//!    congestion status (RCS) with a 6-cycle update period.
//! 3. **RCS-driven power gating** ([`gating`]): a router in subnet *h*
//!    sleeps when its buffers have been empty for 4 cycles and the RCS of
//!    subnet *h−1* is off; it wakes when that RCS turns on or a
//!    look-ahead wake-up signal arrives. Subnet 0 never sleeps.
//!
//! [`MultiNoc`] ties these policies to the cycle-level mechanisms of
//! [`catnap_noc`] and is the main entry point.
//!
//! ## Example
//!
//! ```
//! use catnap::{MultiNoc, MultiNocConfig};
//! use catnap_traffic::{SyntheticPattern, SyntheticWorkload};
//!
//! let cfg = MultiNocConfig::catnap_4x128().gating(true);
//! let mut net = MultiNoc::new(cfg);
//! let mut load = SyntheticWorkload::new(
//!     SyntheticPattern::UniformRandom, 0.02, 512, net.dims(), 7);
//! for _ in 0..2_000 {
//!     load.drive(&mut net);
//!     net.step();
//! }
//! let report = net.finish();
//! // At 0.02 packets/node/cycle most routers of the three higher-order
//! // subnets spend nearly all their time asleep.
//! assert!(report.csc_fraction > 0.3);
//! assert!(report.packets_delivered > 1_000);
//! ```

pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod congestion;
pub mod gating;
pub mod multinoc;
pub mod ni;
pub mod power_report;
pub mod rcs;
pub mod select;

pub use cache::{CacheStats, SimCache};
pub use checkpoint::{config_fingerprint, CHECKPOINT_VERSION, FINGERPRINT_SCHEMA_VERSION};
pub use config::{MultiNocConfig, SelectorKind};
pub use congestion::{CongestionMetric, MetricKind};
pub use gating::GatingPolicy;
pub use multinoc::{DispatchStats, MultiNoc, RunReport, Snapshot};
pub use power_report::MultiNocPowerReport;
pub use rcs::OrNetwork;
pub use select::{congestion_mask, SubnetSelector};
