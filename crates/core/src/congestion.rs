//! Local congestion status (LCS) detection.
//!
//! Each node continuously classifies each subnet as congested or not by
//! examining its local router (and NI). The paper investigates five
//! metrics (Sections 3.2.1 and 3.4); Catnap's final design uses **BFM**,
//! the maximum buffer occupancy over the local router's input ports,
//! because its congestion threshold is independent of the traffic pattern
//! and it is cheap to implement.
//!
//! All metrics use set/clear hysteresis: once congestion is declared it is
//! only cleared when the metric falls below a (lower) clear threshold, so
//! the status is stable for at least a few cycles.

use crate::ni::NodeNi;
use catnap_noc::Router;
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// Which local congestion metric a detector uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Maximum input-port buffer occupancy (Catnap's choice).
    Bfm,
    /// Average input-port buffer occupancy.
    Bfa,
    /// Node injection rate into the subnet (flits per cycle over a window).
    InjectionRate,
    /// NI injection-queue occupancy (shared across subnets).
    IqOcc,
    /// Average blocking delay per flit at the local router (sampled).
    Delay,
}

/// A local congestion metric with its thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CongestionMetric {
    /// Max port occupancy in flits: set when `>= set`, cleared when
    /// `< clear`.
    Bfm {
        /// Set threshold in flits (paper: 9).
        set: usize,
        /// Clear threshold in flits.
        clear: usize,
    },
    /// Average port occupancy in flits (paper threshold: 2).
    Bfa {
        /// Set threshold.
        set: f64,
        /// Clear threshold.
        clear: f64,
    },
    /// Injection rate in flits per cycle, measured over `window` cycles
    /// (paper sweeps packet-rate thresholds 0.04–0.24; expressed here in
    /// flits/cycle of the subnet).
    InjectionRate {
        /// Rate threshold in flits per cycle.
        threshold: f64,
        /// Measurement window in cycles.
        window: u32,
    },
    /// NI injection-queue occupancy in flits (paper: 4 of a 16-flit
    /// queue).
    IqOcc {
        /// Set threshold in flits.
        set: usize,
        /// Clear threshold in flits.
        clear: usize,
    },
    /// Average blocking delay per switched flit over a sampling window
    /// (paper: 1.5 cycles).
    Delay {
        /// Delay threshold in cycles.
        threshold: f64,
        /// Sampling window in cycles.
        window: u32,
    },
}

impl CongestionMetric {
    /// The paper's best-performing thresholds for each metric
    /// (Section 4.1).
    pub fn paper_default(kind: MetricKind) -> Self {
        match kind {
            MetricKind::Bfm => CongestionMetric::Bfm { set: 9, clear: 6 },
            MetricKind::Bfa => CongestionMetric::Bfa { set: 2.0, clear: 1.25 },
            MetricKind::InjectionRate => CongestionMetric::InjectionRate {
                threshold: 0.20 * 4.0, // 0.20 packets/node/cycle × 4 flits/packet
                window: 64,
            },
            MetricKind::IqOcc => CongestionMetric::IqOcc { set: 4, clear: 2 },
            MetricKind::Delay => CongestionMetric::Delay {
                threshold: 1.5,
                window: 32,
            },
        }
    }

    /// Which metric family this is.
    pub fn kind(&self) -> MetricKind {
        match self {
            CongestionMetric::Bfm { .. } => MetricKind::Bfm,
            CongestionMetric::Bfa { .. } => MetricKind::Bfa,
            CongestionMetric::InjectionRate { .. } => MetricKind::InjectionRate,
            CongestionMetric::IqOcc { .. } => MetricKind::IqOcc,
            CongestionMetric::Delay { .. } => MetricKind::Delay,
        }
    }

    /// Whether the metric keeps a [`Window`] per node (IR and Delay).
    pub(crate) fn windowed(&self) -> bool {
        matches!(self, Self::InjectionRate { .. } | Self::Delay { .. })
    }

    /// Counts a flit the node injected into the subnet, in its IR window.
    pub(crate) fn count_injection(&self, window: Option<&mut Window>) {
        if let (CongestionMetric::InjectionRate { .. }, Some(w)) = (self, window) {
            w.0 += 1;
        }
    }

    /// Which nodes' LCS bits [`MultiNoc::step`](crate::MultiNoc::step)
    /// updates at cycle edge `cycle`: for every other node the update
    /// would return the bit unchanged.
    ///
    /// BFM, BFA and IQOcc with a positive set threshold keep every bit a
    /// fixed point of its node's sample ([`CongestionMetric::settled`]):
    /// the start state (bit off, sample 0) is one, hysteresis makes one
    /// (`h(h(b, v), v) == h(b, v)`), and a sample changes only at a node
    /// on the worklist. A router's buffers change only in a step that
    /// runs it, and an NI's queue only while it is busy. A set threshold
    /// of 0 or less makes the start state congested, so those sweep.
    /// Delay changes a bit only as a window closes; IR sets its bit from
    /// its estimate on every update, and sweeps.
    pub(crate) fn visits(&self, cycle: u64) -> Visit {
        match *self {
            CongestionMetric::Bfm { set, .. } if set > 0 => Visit::RunSet,
            CongestionMetric::Bfa { set, .. } if set > 0.0 => Visit::RunSet,
            CongestionMetric::IqOcc { set, .. } if set > 0 => Visit::BusyNis,
            CongestionMetric::Delay { window, .. } if !cycle.is_multiple_of(u64::from(window)) => Visit::Nobody,
            _ => Visit::Everyone,
        }
    }

    /// Whether a node's LCS bit is a fixed point of its sample,
    /// `h(bit, sample) == bit`, as every cycle edge keeps it under a
    /// metric updated from a worklist (see [`CongestionMetric::visits`]);
    /// always true under the others.
    pub(crate) fn settled(&self, bit: bool, router: &Router, ni: &NodeNi) -> bool {
        // A worklist metric's update reads neither the clock nor a window.
        let worklist = matches!(self.visits(0), Visit::RunSet | Visit::BusyNis);
        !worklist || self.update(bit, 0, router, ni, None) == bit
    }

    /// A node's LCS bit after cycle edge `cycle`, from its bit before
    /// (`bit`), its router after the cycle's step, its NI and, for a
    /// windowed metric, its window.
    ///
    /// # Panics
    ///
    /// Panics if a windowed metric gets no window.
    pub(crate) fn update(&self, bit: bool, cycle: u64, router: &Router, ni: &NodeNi, w: Option<&mut Window>) -> bool {
        match *self {
            CongestionMetric::Bfm { set, clear } => {
                hysteresis(bit, router.max_port_occupancy() as f64, set as f64, clear as f64)
            }
            CongestionMetric::Bfa { set, clear } => hysteresis(bit, router.avg_port_occupancy(), set, clear),
            CongestionMetric::IqOcc { set, clear } => {
                hysteresis(bit, ni.ni_queue_occupancy_flits() as f64, set as f64, clear as f64)
            }
            CongestionMetric::InjectionRate { threshold, window: len } => {
                let w = w.expect("IR keeps a window per node");
                if cycle.is_multiple_of(u64::from(len)) {
                    *w = Window(0, w.0);
                }
                // Set from the estimate on every update, so a threshold
                // of 0 or less sets the bit on the first cycle.
                w.1 as f64 / len as f64 >= threshold
            }
            CongestionMetric::Delay { threshold, window: len } => {
                if !cycle.is_multiple_of(u64::from(len)) {
                    return bit;
                }
                let w = w.expect("Delay keeps a window per node");
                let a = router.activity;
                let blocked = a.head_blocked_cycles - w.0;
                let reads = a.buffer_reads() - w.1;
                *w = Window(a.head_blocked_cycles, a.buffer_reads());
                // Average blocking delay per switched flit in the window.
                // With no movement at all but waiting flits, treat as
                // congested.
                let avg = if reads > 0 {
                    blocked as f64 / reads as f64
                } else if blocked > 0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                avg >= threshold
            }
        }
    }
}

/// The nodes whose LCS bits a detector phase updates
/// ([`CongestionMetric::visits`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Visit {
    /// The routers the subnet's last step ran.
    RunSet,
    /// The NIs on the busy worklist.
    BusyNis,
    /// None.
    Nobody,
    /// Every node.
    Everyone,
}

/// A windowed metric's state for one node on one subnet: for IR, the
/// flits the node injected into the subnet in the open window and in
/// the last closed one (the estimate is that count over the window); for
/// Delay, its router's head-blocked cycles and buffer reads at the last
/// window end. Both close a window on every edge `cycle` with
/// `cycle % window == 0`. BFM, BFA and IQOcc are pure functions of the
/// node's router or NI and its LCS bit, which [`crate::MultiNoc`] owns,
/// and keep none.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Window(u64, u64);

impl Window {
    /// Serializes the window (checkpointing).
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.0);
        w.put_u64(self.1);
    }

    /// Rebuilds a window of `metric` from [`Window::encode`] output at
    /// cycle edge `cycle`, refusing what no run reaches: an IR count
    /// above the cycles elapsed in its window, or a closed window's
    /// above the window (a node injects at most one flit per cycle into
    /// a subnet), and a Delay snapshot above `router`'s counter.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        metric: &CongestionMetric,
        cycle: u64,
        router: &Router,
    ) -> Result<Self, CodecError> {
        let w = Window(r.get_u64()?, r.get_u64()?);
        let a = router.activity;
        match *metric {
            CongestionMetric::InjectionRate { window, .. }
                if w.0 > cycle % u64::from(window) || w.1 > u64::from(window) =>
            {
                Err(CodecError::Invalid("IR count above the cycles of its window"))
            }
            CongestionMetric::Delay { .. } if w.0 > a.head_blocked_cycles || w.1 > a.buffer_reads() => {
                Err(CodecError::Invalid("Delay snapshot above its router's counter"))
            }
            _ => Ok(w),
        }
    }
}

/// Set/clear hysteresis: set at or above `set`, cleared below `clear`,
/// held in between.
fn hysteresis(bit: bool, value: f64, set: f64, clear: f64) -> bool {
    if value >= set {
        true
    } else if value < clear {
        false
    } else {
        bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catnap_noc::{Flit, FlitKind, MessageClass, NodeId, PacketDescriptor, PacketId, Port};

    fn router_with_flits(n: usize) -> Router {
        // An inner router of the paper's 8x8 mesh: every port is linked.
        let mut r = Router::new(NodeId(9), &catnap_noc::NetworkConfig::paper());
        for i in 0..n {
            let vc = (i / 4) as u8; // fill VCs of the West port 4-deep
            r.deliver(
                Port::West,
                Flit {
                    packet: PacketId(i as u64),
                    kind: FlitKind::Single,
                    dst: NodeId(4),
                    seq: 0,
                    class: MessageClass::Synthetic,
                    lookahead: Port::East,
                    vc,
                },
                0,
            );
        }
        r
    }

    /// The NI of node 9 holding one `flits`-flit packet in its injection
    /// queue (none for 0).
    fn ni_with_flits(flits: u32) -> NodeNi {
        let mut ni = NodeNi::new(NodeId(9), 1, 128, 16);
        if flits > 0 {
            ni.submit(PacketDescriptor {
                id: PacketId(0),
                src: NodeId(9),
                dst: NodeId(4),
                bits: flits * 128,
                class: MessageClass::Synthetic,
                created_cycle: 0,
            });
            ni.refill();
        }
        ni
    }

    #[test]
    fn bfm_sets_at_threshold_and_clears_with_hysteresis() {
        let metric = CongestionMetric::paper_default(MetricKind::Bfm);
        assert!(!metric.windowed(), "BFM keeps no state beyond the bit");
        let ni = ni_with_flits(0);
        let mut bit = false;
        let mut update = |flits, cycle| {
            bit = metric.update(bit, cycle, &router_with_flits(flits), &ni, None);
            bit
        };
        assert!(!update(8, 1), "8 flits is below the set threshold of 9");
        assert!(update(9, 2));
        // Between clear (6) and set (9): stays congested.
        assert!(update(7, 3), "hysteresis holds the status");
        assert!(!update(5, 4));
    }

    #[test]
    fn bfa_uses_average_over_ports() {
        // 9 flits on one port: BFM says congested, BFA (avg 1.8 < 2.0)
        // does not — the paper's point about BFA missing single-path
        // congestion.
        let (r, ni) = (router_with_flits(9), ni_with_flits(0));
        let bit = |kind| CongestionMetric::paper_default(kind).update(false, 1, &r, &ni, None);
        assert!(bit(MetricKind::Bfm));
        assert!(!bit(MetricKind::Bfa));
    }

    #[test]
    fn injection_rate_windowed() {
        let metric = CongestionMetric::InjectionRate {
            threshold: 0.5,
            window: 10,
        };
        let mut w = Window::default();
        let (r, ni) = (router_with_flits(0), ni_with_flits(0));
        let mut bit = false;
        // 8 flits in the window of cycles 1..=10: rate 0.8 >= 0.5, set
        // as the window closes at cycle 10.
        for cycle in 1..=10 {
            if cycle <= 8 {
                metric.count_injection(Some(&mut w));
            }
            bit = metric.update(bit, cycle, &r, &ni, Some(&mut w));
            assert_eq!(bit, cycle == 10, "cycle {cycle}");
        }
        // Now 10 idle cycles: rate 0 -> clears as the window closes.
        for cycle in 11..=20 {
            bit = metric.update(bit, cycle, &r, &ni, Some(&mut w));
            assert_eq!(bit, cycle < 20, "cycle {cycle}");
        }
        // The bit follows the estimate on every update: a threshold of 0
        // sets it on the first cycle, before any window closes.
        let zero = CongestionMetric::InjectionRate {
            threshold: 0.0,
            window: 10,
        };
        assert!(zero.update(false, 1, &r, &ni, Some(&mut Window::default())));
    }

    #[test]
    fn iqocc_follows_queue_occupancy() {
        let metric = CongestionMetric::paper_default(MetricKind::IqOcc);
        let r = router_with_flits(0);
        let mut bit = false;
        // Hysteresis: 3 is between clear=2 and set=4.
        for (cycle, flits, want) in [(1, 4, true), (2, 3, true), (3, 1, false)] {
            bit = metric.update(bit, cycle, &r, &ni_with_flits(flits), None);
            assert_eq!(bit, want, "{flits} queued flits");
        }
    }

    #[test]
    fn delay_metric_detects_stalled_router() {
        let metric = CongestionMetric::Delay {
            threshold: 1.5,
            window: 4,
        };
        let mut w = Window::default();
        // A router whose only flit cannot move (downstream inactive).
        let mut r = router_with_flits(1);
        let ni = ni_with_flits(0);
        let mut out = catnap_noc::router::RouterOutput::default();
        let mut blocked_nbrs = [true; 5];
        blocked_nbrs[Port::East.index()] = false;
        let mut bit = false;
        for cycle in 1..=4 {
            r.step(cycle, &blocked_nbrs, &mut out);
            bit = metric.update(bit, cycle, &r, &ni, Some(&mut w));
            // Waiting flits with zero reads are infinite delay, seen as
            // the window closes.
            assert_eq!(bit, cycle == 4, "cycle {cycle}");
        }
    }

    /// Decode refuses window state no run reaches: an IR count above the
    /// cycles elapsed in its window or above a whole window, and a Delay
    /// snapshot above its router's counter.
    #[test]
    fn decode_rejects_window_state_a_run_cannot_reach() {
        let decode = |metric: CongestionMetric, cycle: u64, words: [u64; 2], r: &Router| {
            let mut w = ByteWriter::new();
            Window(words[0], words[1]).encode(&mut w);
            let bytes = w.into_inner();
            Window::decode(&mut ByteReader::new(&bytes), &metric, cycle, r).map(|_| ())
        };
        let ir = CongestionMetric::InjectionRate {
            threshold: 0.5,
            window: 64,
        };
        let r = router_with_flits(0);
        let too_many = Err(CodecError::Invalid("IR count above the cycles of its window"));
        // Cycle 70 is 6 cycles into its window.
        assert_eq!(decode(ir, 70, [6, 64], &r), Ok(()));
        assert_eq!(decode(ir, 70, [7, 0], &r), too_many);
        assert_eq!(decode(ir, 70, [0, 65], &r), too_many);

        let delay = CongestionMetric::paper_default(MetricKind::Delay);
        let mut r = router_with_flits(1);
        let mut out = catnap_noc::router::RouterOutput::default();
        for cycle in 1..=3 {
            r.step(cycle, &[true; 5], &mut out);
        }
        let (blocked, reads) = (r.activity.head_blocked_cycles, r.activity.buffer_reads());
        assert!(reads > 0, "the flit was granted");
        let above = Err(CodecError::Invalid("Delay snapshot above its router's counter"));
        assert_eq!(decode(delay, 3, [blocked, reads], &r), Ok(()));
        assert_eq!(decode(delay, 3, [blocked + 1, reads], &r), above);
        assert_eq!(decode(delay, 3, [blocked, reads + 1], &r), above);
    }

    #[test]
    fn paper_defaults_match_section_4() {
        assert_eq!(
            CongestionMetric::paper_default(MetricKind::Bfm),
            CongestionMetric::Bfm { set: 9, clear: 6 }
        );
        match CongestionMetric::paper_default(MetricKind::Delay) {
            CongestionMetric::Delay { threshold, .. } => assert!((threshold - 1.5).abs() < 1e-12),
            _ => unreachable!(),
        }
        assert_eq!(CongestionMetric::paper_default(MetricKind::Bfm).kind(), MetricKind::Bfm);
    }
}
