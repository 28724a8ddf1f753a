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
}

/// Inputs a detector may need beyond the router itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeSignals {
    /// Current NI injection-queue occupancy, in flits (shared per node).
    pub ni_queue_flits: usize,
    /// Flits this node injected into this subnet this cycle.
    pub injected_flits_this_cycle: u32,
}

/// Per-(node, subnet) local congestion detector.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LocalDetector {
    congested: bool,
    // Injection-rate window state.
    window_pos: u32,
    window_flits: u64,
    rate_estimate: f64,
    // Delay-metric window state: last-seen cumulative counters.
    last_blocked: u64,
    last_reads: u64,
}

impl LocalDetector {
    /// Current local congestion status.
    pub fn is_congested(&self) -> bool {
        self.congested
    }

    /// Updates the status from this cycle's observations.
    pub fn update(&mut self, metric: &CongestionMetric, router: &Router, signals: &NodeSignals) {
        match *metric {
            CongestionMetric::Bfm { set, clear } => {
                let occ = router.max_port_occupancy();
                self.hysteresis(occ as f64, set as f64, clear as f64);
            }
            CongestionMetric::Bfa { set, clear } => {
                let occ = router.avg_port_occupancy();
                self.hysteresis(occ, set, clear);
            }
            CongestionMetric::InjectionRate { threshold, window } => {
                self.window_flits += u64::from(signals.injected_flits_this_cycle);
                self.window_pos += 1;
                if self.window_pos >= window {
                    self.rate_estimate = self.window_flits as f64 / window as f64;
                    self.window_pos = 0;
                    self.window_flits = 0;
                }
                self.congested = self.rate_estimate >= threshold;
            }
            CongestionMetric::IqOcc { set, clear } => {
                self.hysteresis(signals.ni_queue_flits as f64, set as f64, clear as f64);
            }
            CongestionMetric::Delay { threshold, window } => {
                self.window_pos += 1;
                if self.window_pos >= window {
                    self.window_pos = 0;
                    let a = router.activity;
                    let blocked = a.head_blocked_cycles - self.last_blocked;
                    let reads = a.buffer_reads() - self.last_reads;
                    self.last_blocked = a.head_blocked_cycles;
                    self.last_reads = a.buffer_reads();
                    // Average blocking delay per switched flit in the
                    // window. With no movement at all but waiting flits,
                    // treat as congested.
                    let avg = if reads > 0 {
                        blocked as f64 / reads as f64
                    } else if blocked > 0 {
                        f64::INFINITY
                    } else {
                        0.0
                    };
                    self.congested = avg >= threshold;
                }
            }
        }
    }

    fn hysteresis(&mut self, value: f64, set: f64, clear: f64) {
        if value >= set {
            self.congested = true;
        } else if value < clear {
            self.congested = false;
        }
    }

    /// Serializes the detector (checkpointing). Every field is mutable
    /// state — window history must survive a resume so windowed metrics
    /// latch on the same cycle they would have straight through.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(self.congested);
        w.put_u32(self.window_pos);
        w.put_u64(self.window_flits);
        w.put_f64(self.rate_estimate);
        w.put_u64(self.last_blocked);
        w.put_u64(self.last_reads);
    }

    /// Rebuilds a detector from [`LocalDetector::encode`] output.
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(LocalDetector {
            congested: r.get_bool()?,
            window_pos: r.get_u32()?,
            window_flits: r.get_u64()?,
            rate_estimate: r.get_f64()?,
            last_blocked: r.get_u64()?,
            last_reads: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catnap_noc::{Flit, FlitKind, MessageClass, NodeId, PacketId, Port};

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
            );
        }
        r
    }

    #[test]
    fn bfm_sets_at_threshold_and_clears_with_hysteresis() {
        let metric = CongestionMetric::paper_default(MetricKind::Bfm);
        let mut d = LocalDetector::default();
        let sig = NodeSignals::default();
        d.update(&metric, &router_with_flits(8), &sig);
        assert!(!d.is_congested(), "8 flits is below the set threshold of 9");
        d.update(&metric, &router_with_flits(9), &sig);
        assert!(d.is_congested());
        // Between clear (6) and set (9): stays congested.
        d.update(&metric, &router_with_flits(7), &sig);
        assert!(d.is_congested(), "hysteresis holds the status");
        d.update(&metric, &router_with_flits(5), &sig);
        assert!(!d.is_congested());
    }

    #[test]
    fn bfa_uses_average_over_ports() {
        // 9 flits on one port: BFM says congested, BFA (avg 1.8 < 2.0)
        // does not — the paper's point about BFA missing single-path
        // congestion.
        let r = router_with_flits(9);
        let sig = NodeSignals::default();
        let mut bfm = LocalDetector::default();
        bfm.update(&CongestionMetric::paper_default(MetricKind::Bfm), &r, &sig);
        let mut bfa = LocalDetector::default();
        bfa.update(&CongestionMetric::paper_default(MetricKind::Bfa), &r, &sig);
        assert!(bfm.is_congested());
        assert!(!bfa.is_congested());
    }

    #[test]
    fn injection_rate_windowed() {
        let metric = CongestionMetric::InjectionRate {
            threshold: 0.5,
            window: 10,
        };
        let mut d = LocalDetector::default();
        let r = router_with_flits(0);
        // 8 flits in 10 cycles: rate 0.8 >= 0.5.
        for i in 0..10 {
            let sig = NodeSignals {
                injected_flits_this_cycle: u32::from(i < 8),
                ..Default::default()
            };
            d.update(&metric, &r, &sig);
        }
        assert!(d.is_congested());
        // Now 10 idle cycles: rate 0 -> clears after the window completes.
        for _ in 0..10 {
            d.update(&metric, &r, &NodeSignals::default());
        }
        assert!(!d.is_congested());
    }

    #[test]
    fn iqocc_follows_queue_occupancy() {
        let metric = CongestionMetric::paper_default(MetricKind::IqOcc);
        let mut d = LocalDetector::default();
        let r = router_with_flits(0);
        d.update(
            &metric,
            &r,
            &NodeSignals {
                ni_queue_flits: 4,
                ..Default::default()
            },
        );
        assert!(d.is_congested());
        d.update(
            &metric,
            &r,
            &NodeSignals {
                ni_queue_flits: 3,
                ..Default::default()
            },
        );
        assert!(d.is_congested(), "hysteresis: 3 is between clear=2 and set=4");
        d.update(
            &metric,
            &r,
            &NodeSignals {
                ni_queue_flits: 1,
                ..Default::default()
            },
        );
        assert!(!d.is_congested());
    }

    #[test]
    fn delay_metric_detects_stalled_router() {
        let metric = CongestionMetric::Delay {
            threshold: 1.5,
            window: 4,
        };
        let mut d = LocalDetector::default();
        // A router whose only flit cannot move (downstream inactive).
        let mut r = router_with_flits(1);
        let mut out = catnap_noc::router::RouterOutput::default();
        let mut blocked_nbrs = [true; 5];
        blocked_nbrs[Port::East.index()] = false;
        for _ in 0..4 {
            r.step(&blocked_nbrs, &mut out);
            d.update(&metric, &r, &NodeSignals::default());
        }
        assert!(d.is_congested(), "waiting flits with zero reads are infinite delay");
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
