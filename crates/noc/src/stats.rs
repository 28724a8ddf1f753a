//! Activity counters and aggregate statistics.
//!
//! [`RouterActivity`] counts the micro-architectural events that the power
//! model (`catnap-power`) converts into energy: buffer writes/reads,
//! crossbar traversals, link flits and arbitration activity. The counters
//! are pure data so the power model stays decoupled from the simulator.
//! Each event is counted once: a count that equals another count, or a
//! sum of counts, is a method (see DESIGN.md §4, "Who counts what").

/// Per-router event counters accumulated over a simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits written into input VC buffers (arrivals and injections).
    pub buffer_writes: u64,
    /// Flits placed on inter-router links (excludes ejection to the NI).
    pub link_flits: u64,
    /// Flits ejected through the local port to the NI.
    pub ejected_flits: u64,
    /// Switch-allocation requests issued by input VCs.
    pub arb_requests: u64,
    /// Switch-allocation grants.
    pub arb_grants: u64,
    /// Cycles in which some head flit was ready but not granted (summed per
    /// blocked VC; feeds the blocking-delay congestion metric).
    pub head_blocked_cycles: u64,
}

impl RouterActivity {
    /// Element-wise sum of two activity records.
    pub fn merged(self, other: RouterActivity) -> RouterActivity {
        RouterActivity {
            buffer_writes: self.buffer_writes + other.buffer_writes,
            link_flits: self.link_flits + other.link_flits,
            ejected_flits: self.ejected_flits + other.ejected_flits,
            arb_requests: self.arb_requests + other.arb_requests,
            arb_grants: self.arb_grants + other.arb_grants,
            head_blocked_cycles: self.head_blocked_cycles + other.head_blocked_cycles,
        }
    }

    /// Flits read out of input VC buffers: one per switch-allocation
    /// grant, so this is [`RouterActivity::arb_grants`].
    pub fn buffer_reads(&self) -> u64 {
        self.arb_grants
    }

    /// Flits that traversed the crossbar: every traversal leaves on a
    /// link or is ejected to the NI.
    pub fn xbar_traversals(&self) -> u64 {
        self.link_flits + self.ejected_flits
    }

    /// Average blocking delay per switched flit, in cycles.
    pub fn avg_blocking_delay(&self) -> f64 {
        if self.arb_grants == 0 {
            0.0
        } else {
            self.head_blocked_cycles as f64 / self.arb_grants as f64
        }
    }
}

/// Power-gating residency summary for one router.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GatingActivity {
    /// Cycles the router was active (powered, operational).
    pub active_cycles: u64,
    /// Cycles the router was asleep (gated; no leakage).
    pub sleep_cycles: u64,
    /// Cycles spent in wake-up transitions (powered, not operational).
    pub wakeup_cycles: u64,
    /// Number of active→sleep transitions.
    pub sleep_transitions: u64,
    /// Compensated sleep cycles: Σ max(0, period − t_breakeven).
    pub compensated_sleep_cycles: u64,
}

impl GatingActivity {
    /// Element-wise sum.
    pub fn merged(self, other: GatingActivity) -> GatingActivity {
        GatingActivity {
            active_cycles: self.active_cycles + other.active_cycles,
            sleep_cycles: self.sleep_cycles + other.sleep_cycles,
            wakeup_cycles: self.wakeup_cycles + other.wakeup_cycles,
            sleep_transitions: self.sleep_transitions + other.sleep_transitions,
            compensated_sleep_cycles: self.compensated_sleep_cycles + other.compensated_sleep_cycles,
        }
    }

    /// Fraction of total cycles that were compensated sleep cycles.
    pub fn csc_fraction(&self) -> f64 {
        let total = self.active_cycles + self.sleep_cycles + self.wakeup_cycles;
        if total == 0 {
            0.0
        } else {
            self.compensated_sleep_cycles as f64 / total as f64
        }
    }
}

/// The statistics of one subnet that no router counts (flits ejected
/// are the routers' [`RouterActivity::ejected_flits`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkStats {
    /// Flits injected at local ports.
    pub flits_injected: u64,
    /// Packets whose tail flit has been ejected.
    pub packets_ejected: u64,
    /// Sum of network latencies (tail ejection − head network injection) of
    /// ejected packets.
    pub net_latency_sum: u64,
}

impl NetworkStats {
    /// Mean network latency per packet, in cycles.
    pub fn avg_net_latency(&self) -> f64 {
        if self.packets_ejected == 0 {
            0.0
        } else {
            self.net_latency_sum as f64 / self.packets_ejected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_merge_adds_fields() {
        let a = RouterActivity {
            buffer_writes: 1,
            link_flits: 4,
            ejected_flits: 5,
            arb_requests: 6,
            arb_grants: 7,
            head_blocked_cycles: 8,
        };
        let m = a.merged(a);
        assert_eq!(m.buffer_writes, 2);
        assert_eq!(m.head_blocked_cycles, 16);
        assert_eq!((m.buffer_reads(), m.xbar_traversals()), (14, 18));
    }

    #[test]
    fn blocking_delay_average() {
        let a = RouterActivity {
            arb_grants: 4,
            head_blocked_cycles: 6,
            ..Default::default()
        };
        assert!((a.avg_blocking_delay() - 1.5).abs() < 1e-12);
        assert_eq!(RouterActivity::default().avg_blocking_delay(), 0.0);
    }

    #[test]
    fn csc_fraction() {
        let g = GatingActivity {
            active_cycles: 30,
            sleep_cycles: 60,
            wakeup_cycles: 10,
            sleep_transitions: 2,
            compensated_sleep_cycles: 36,
        };
        assert!((g.csc_fraction() - 0.36).abs() < 1e-12);
        assert_eq!(GatingActivity::default().csc_fraction(), 0.0);
    }

    #[test]
    fn network_stats_rates() {
        let s = NetworkStats {
            packets_ejected: 50,
            net_latency_sum: 1000,
            ..Default::default()
        };
        assert!((s.avg_net_latency() - 20.0).abs() < 1e-12);
        assert_eq!(NetworkStats::default().avg_net_latency(), 0.0);
    }
}
