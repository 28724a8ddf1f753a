//! Activity counters and aggregate statistics.
//!
//! [`RouterActivity`] counts the micro-architectural events that the power
//! model (`catnap-power`) converts into energy: buffer writes/reads,
//! crossbar traversals, link flits and arbitration activity. The counters
//! are pure data so the power model stays decoupled from the simulator.

/// Per-router event counters accumulated over a simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits written into input VC buffers (arrivals and injections).
    pub buffer_writes: u64,
    /// Flits read out of input VC buffers (switch-allocation winners).
    pub buffer_reads: u64,
    /// Flits that traversed the crossbar.
    pub xbar_traversals: u64,
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
            buffer_reads: self.buffer_reads + other.buffer_reads,
            xbar_traversals: self.xbar_traversals + other.xbar_traversals,
            link_flits: self.link_flits + other.link_flits,
            ejected_flits: self.ejected_flits + other.ejected_flits,
            arb_requests: self.arb_requests + other.arb_requests,
            arb_grants: self.arb_grants + other.arb_grants,
            head_blocked_cycles: self.head_blocked_cycles + other.head_blocked_cycles,
        }
    }

    /// Average blocking delay per switched flit, in cycles.
    pub fn avg_blocking_delay(&self) -> f64 {
        if self.buffer_reads == 0 {
            0.0
        } else {
            self.head_blocked_cycles as f64 / self.buffer_reads as f64
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

/// Aggregate statistics for one subnet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetworkStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Flits injected at local ports.
    pub flits_injected: u64,
    /// Flits ejected at destinations.
    pub flits_ejected: u64,
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

    /// Accepted throughput in flits per node per cycle.
    pub fn accepted_flits_per_node_cycle(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.flits_ejected as f64 / (self.cycles as f64 * nodes as f64)
        }
    }

    /// Accepted throughput in packets per node per cycle.
    pub fn accepted_packets_per_node_cycle(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            0.0
        } else {
            self.packets_ejected as f64 / (self.cycles as f64 * nodes as f64)
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
            buffer_reads: 2,
            xbar_traversals: 3,
            link_flits: 4,
            ejected_flits: 5,
            arb_requests: 6,
            arb_grants: 7,
            head_blocked_cycles: 8,
        };
        let m = a.merged(a);
        assert_eq!(m.buffer_writes, 2);
        assert_eq!(m.head_blocked_cycles, 16);
    }

    #[test]
    fn blocking_delay_average() {
        let a = RouterActivity {
            buffer_reads: 4,
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
            cycles: 100,
            flits_ejected: 200,
            packets_ejected: 50,
            net_latency_sum: 1000,
            ..Default::default()
        };
        assert!((s.avg_net_latency() - 20.0).abs() < 1e-12);
        assert!((s.accepted_flits_per_node_cycle(4) - 0.5).abs() < 1e-12);
        assert!((s.accepted_packets_per_node_cycle(4) - 0.125).abs() < 1e-12);
        assert_eq!(NetworkStats::default().avg_net_latency(), 0.0);
        assert_eq!(s.accepted_flits_per_node_cycle(0), 0.0);
    }
}
