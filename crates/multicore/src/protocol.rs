//! MESI directory-protocol transaction scripts.
//!
//! Every L1 miss becomes a *transaction*: a sequence of protocol message
//! legs between the requesting core's node, the block's home L2
//! slice/directory, possibly a remote owner/sharer, and possibly a memory
//! controller. Control messages (requests, forwards, invalidations,
//! acknowledgements) are single-flit 72-bit-header packets; data messages
//! carry a 64-byte cache block (paper Section 4.1).
//!
//! The scripts below model the paper's 4-hop MESI directory protocol
//! transaction shapes; [`crate::system`] draws which shape a given miss
//! takes from the benchmark's `l2_miss_ratio` and `sharing_fraction`
//! parameters.

use crate::config::SystemConfig;
use catnap_noc::{MessageClass, NodeId};

/// One message leg of a transaction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Leg {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Packet size in bits.
    pub bits: u32,
    /// Message class (controls VC mapping for deadlock freedom).
    pub class: MessageClass,
    /// Fixed service latency (cache bank access etc.) before this leg's
    /// packet is injected, counted from delivery of the previous leg.
    pub delay_before: u32,
    /// Whether this leg is a memory response: it is released by the
    /// memory controller's bandwidth/latency model instead of
    /// `delay_before`.
    pub via_mc: bool,
}

/// A transaction: its legs and the leg whose delivery unblocks the core.
#[derive(Clone, Debug, PartialEq)]
pub struct TransactionScript {
    /// Message legs in order.
    pub legs: Vec<Leg>,
    /// Index of the leg whose delivery completes the miss for the core.
    /// Legs after it (e.g. directory acknowledgements) still execute as
    /// background traffic.
    pub completes_at: usize,
}

impl TransactionScript {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the script is empty or `completes_at` is out of range.
    pub fn check(&self) -> &Self {
        assert!(!self.legs.is_empty(), "empty transaction");
        assert!(self.completes_at < self.legs.len(), "completes_at out of range");
        self
    }

    /// Total bits moved over the network (self-legs excluded).
    pub fn network_bits(&self) -> u64 {
        self.legs.iter().filter(|l| l.from != l.to).map(|l| u64::from(l.bits)).sum()
    }
}

fn ctrl(from: NodeId, to: NodeId, class: MessageClass, delay: u32, cfg: &SystemConfig) -> Leg {
    Leg {
        from,
        to,
        bits: cfg.control_bits,
        class,
        delay_before: delay,
        via_mc: false,
    }
}

fn data(from: NodeId, to: NodeId, delay: u32, cfg: &SystemConfig) -> Leg {
    Leg {
        from,
        to,
        bits: cfg.data_bits,
        class: MessageClass::Response,
        delay_before: delay,
        via_mc: false,
    }
}

/// Read miss that hits in the home L2 slice: request + data response
/// (2-hop).
pub fn read_l2_hit(core: NodeId, home: NodeId, cfg: &SystemConfig) -> TransactionScript {
    TransactionScript {
        legs: vec![
            ctrl(core, home, MessageClass::Request, 0, cfg),
            data(home, core, cfg.l2_latency, cfg),
        ],
        completes_at: 1,
    }
}

/// Read miss to a block owned by another core: request, directory
/// forward, cache-to-cache data, plus a background ack to the directory
/// (the 4-hop path of the MESI protocol).
pub fn read_forward(core: NodeId, home: NodeId, owner: NodeId, cfg: &SystemConfig) -> TransactionScript {
    TransactionScript {
        legs: vec![
            ctrl(core, home, MessageClass::Request, 0, cfg),
            ctrl(home, owner, MessageClass::Forward, cfg.l2_latency, cfg),
            data(owner, core, 2, cfg),
            ctrl(owner, home, MessageClass::Response, 0, cfg),
        ],
        completes_at: 2,
    }
}

/// Read miss that also misses in L2: request, memory fetch through a
/// controller (bandwidth/latency modelled by [`crate::memory`]), fill to
/// the home slice, data to the core.
pub fn read_memory(core: NodeId, home: NodeId, mc: NodeId, cfg: &SystemConfig) -> TransactionScript {
    TransactionScript {
        legs: vec![
            ctrl(core, home, MessageClass::Request, 0, cfg),
            ctrl(home, mc, MessageClass::Forward, cfg.l2_latency, cfg),
            Leg {
                from: mc,
                to: home,
                bits: cfg.data_bits,
                class: MessageClass::Response,
                delay_before: 0,
                via_mc: true,
            },
            data(home, core, cfg.l2_latency, cfg),
        ],
        completes_at: 3,
    }
}

/// Write miss to a shared block: request, invalidation to a sharer,
/// invalidation ack to the requester, data from home (4-hop write path).
pub fn write_invalidate(core: NodeId, home: NodeId, sharer: NodeId, cfg: &SystemConfig) -> TransactionScript {
    TransactionScript {
        legs: vec![
            ctrl(core, home, MessageClass::Request, 0, cfg),
            ctrl(home, sharer, MessageClass::Forward, cfg.l2_latency, cfg),
            ctrl(sharer, core, MessageClass::Response, 1, cfg),
            data(home, core, 0, cfg),
        ],
        completes_at: 3,
    }
}

/// Dirty-block writeback: fire-and-forget data packet to the home slice.
pub fn writeback(core: NodeId, home: NodeId, cfg: &SystemConfig) -> TransactionScript {
    TransactionScript {
        legs: vec![data(core, home, 0, cfg)],
        completes_at: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::paper()
    }

    #[test]
    fn scripts_are_well_formed() {
        let c = cfg();
        let (a, b, o, m) = (NodeId(0), NodeId(9), NodeId(17), NodeId(5));
        for s in [
            read_l2_hit(a, b, &c),
            read_forward(a, b, o, &c),
            read_memory(a, b, m, &c),
            write_invalidate(a, b, o, &c),
            writeback(a, b, &c),
        ] {
            s.check();
            assert!(s.legs[0].from == a, "transactions start at the requester");
        }
    }

    #[test]
    fn control_packets_are_single_flit_everywhere() {
        let c = cfg();
        let s = read_forward(NodeId(0), NodeId(9), NodeId(17), &c);
        // 72-bit control packets fit one flit even on 64-bit subnets? No:
        // they take 2 flits at 64 bits, 1 flit at 128+ bits — matching the
        // paper's designs (narrowest studied subnet for apps is 128 bits).
        assert_eq!(catnap_noc::Flit::flits_for_bits(s.legs[0].bits, 128), 1);
        assert_eq!(catnap_noc::Flit::flits_for_bits(s.legs[0].bits, 512), 1);
    }

    #[test]
    fn data_packet_flit_counts_match_paper() {
        let c = cfg();
        // 64B + 72b header = 584 bits: 2 flits at 512b? No — 584 > 512, so
        // 2 flits at 512 bits and 5 at 128 bits.
        assert_eq!(catnap_noc::Flit::flits_for_bits(c.data_bits, 512), 2);
        assert_eq!(catnap_noc::Flit::flits_for_bits(c.data_bits, 128), 5);
    }

    #[test]
    fn memory_script_routes_through_mc() {
        let c = cfg();
        let s = read_memory(NodeId(0), NodeId(9), NodeId(5), &c);
        assert!(s.legs[2].via_mc);
        assert_eq!(s.legs[2].from, NodeId(5));
        assert_eq!(s.completes_at, 3, "core waits for the final data leg");
    }

    #[test]
    fn forward_completes_before_background_ack() {
        let c = cfg();
        let s = read_forward(NodeId(0), NodeId(9), NodeId(17), &c);
        assert_eq!(s.completes_at, 2);
        assert_eq!(s.legs.len(), 4, "ack continues after completion");
    }

    #[test]
    fn network_bits_skips_self_legs() {
        let c = cfg();
        let s = read_l2_hit(NodeId(3), NodeId(3), &c);
        assert_eq!(s.network_bits(), 0);
        let s2 = read_l2_hit(NodeId(3), NodeId(4), &c);
        assert_eq!(s2.network_bits(), u64::from(c.control_bits + c.data_bits));
    }
}
