#![warn(missing_docs)]

//! # catnap-multicore
//!
//! A closed-loop many-core substrate for evaluating on-chip networks,
//! modelling the paper's 256-core target system (Table 1): 2-wide cores
//! with 64-entry instruction windows and 32 MSHRs, private L1 caches, a
//! shared distributed L2 with a 4-hop MESI directory protocol, and eight
//! on-chip memory controllers with 80-cycle DRAM latency.
//!
//! **Substitution note** (DESIGN.md §3): the paper replays Pin-collected
//! instruction traces; we generate each core's memory behaviour
//! synthetically from the per-benchmark parameters in
//! [`catnap_traffic::workload`]. No cache is simulated: whether a miss
//! hits in L2, goes to memory or meets a sharer is drawn from the same
//! parameters. What the network observes — message
//! rates, burstiness, destination spread, control/data packet mix, and
//! the closed-loop throttling of cores by network latency and bandwidth —
//! is modelled faithfully; absolute IPC values are not meaningful, only
//! ratios between network configurations.
//!
//! ## Structure
//!
//! * [`core_model`] — interval-style core model: commits up to 2
//!   instructions/cycle, generates misses per benchmark MPKI (with phase
//!   bursts), tolerates misses up to the instruction window and MSHR
//!   limits, then stalls until responses return.
//! * [`protocol`] — MESI directory transaction scripts: 2-hop L2 hits,
//!   3/4-hop directory forwards, memory fetches, invalidations and
//!   writebacks, each leg a control (1-flit) or data (cache block)
//!   packet.
//! * [`memory`] — bandwidth-limited memory controllers.
//! * [`system`] — the closed loop: cores draw each miss's transaction
//!   from their benchmark's probabilities; reports system performance.
//! * `transactions` (crate-private) — the coherence-transaction engine
//!   the system drives: it injects each leg on the
//!   [`catnap::MultiNoc`], waits out service delays, queues memory legs
//!   at the controllers (retrying refused ones) and reports completed
//!   misses back to the system.

pub mod config;
pub mod core_model;
pub mod memory;
pub mod protocol;
pub mod system;
mod transactions;

pub use config::SystemConfig;
pub use system::{System, SystemReport};
