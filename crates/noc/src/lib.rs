#![warn(missing_docs)]

//! # catnap-noc
//!
//! A cycle-level wormhole-switched, virtual-channel, mesh network-on-chip
//! simulator. This crate provides the *mechanisms* used by the Catnap
//! architecture (ISCA 2013): a concentrated 2-D mesh of input-buffered
//! routers with a speculative two-stage pipeline, look-ahead X-Y routing,
//! credit-based virtual-channel flow control, and a per-router power-state
//! machine (active / sleep / wake-up) that supports runtime power gating.
//!
//! One [`Network`] models a *single* physical network (one subnet of a
//! Multi-NoC). Multi-network orchestration, subnet selection and
//! power-gating *policies* live in the `catnap` crate, which drives one
//! `Network` per subnet.
//!
//! ## Model summary
//!
//! * Topology: `cols x rows` mesh ([`MeshDims`]); each node concentrates
//!   several tiles behind one router (concentration is handled by the
//!   network interface in the `catnap` crate).
//! * Router: 5 ports (North/East/South/West/Local), `vcs_per_port` virtual
//!   channels per port, `vc_depth` flits per VC, separable round-robin
//!   switch allocation, one flit per input port per cycle.
//! * Pipeline: stage 1 = speculative virtual-channel + switch allocation
//!   (route is already known via look-ahead routing), stage 2 = switch
//!   traversal, followed by a one-cycle link — three cycles per hop at zero
//!   load.
//! * Power gating: a gating unit — the whole router, or one input port at
//!   [`Granularity::Port`] — can be put to sleep when its inputs have been
//!   empty for [`GatingConfig::t_idle_detect`] consecutive cycles and no
//!   upstream router holds a wormhole binding towards it; waking takes
//!   [`GatingConfig::t_wakeup`] cycles, partially hidden by wake-up signals
//!   sent at look-ahead routing time.
//!
//! ## Example
//!
//! ```
//! use catnap_noc::{Network, NetworkConfig, Flit, NodeId};
//!
//! let cfg = NetworkConfig::paper();
//! let mut net = Network::new(cfg);
//! let src = NodeId::new(0);
//! let dst = NodeId::new(63);
//! // Inject a single-flit packet directly at the local port (normally the
//! // network interface in the `catnap` crate does this).
//! let flit = net.make_single_flit_packet(src, dst);
//! assert!(net.try_inject_flit(src, 0, flit, 0));
//! for cycle in 0..100 {
//!     net.step();
//! }
//! assert_eq!(net.stats().packets_ejected, 1);
//! ```

pub mod checkpoint;
pub mod config;
pub mod flit;
pub mod geometry;
pub mod network;
pub mod power_state;
pub mod router;
pub mod stats;
pub mod vc;

pub use config::{GatingConfig, Granularity, NetworkConfig};
pub use flit::{Delivery, Flit, FlitKind, MessageClass, PacketDescriptor, PacketId};
pub use geometry::{Direction, MeshDims, NodeId, Port, RegionId, RegionMap};
pub use network::{Network, NodeSet, SchedStats};
pub use power_state::PowerState;
pub use router::Router;
pub use stats::{NetworkStats, RouterActivity};
pub use vc::{MAX_VCS, MAX_VC_DEPTH};
