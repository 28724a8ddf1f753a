//! Cycle-stamped typed events and the trace container they accumulate in.
//!
//! Events are small `Copy` structs so recording one is a bounds check and
//! a 24-byte store; the hot loop never formats, allocates or boxes. The
//! exporters ([`crate::chrome`], [`crate::csv`]) and the metrics builder
//! ([`crate::metrics::Registry::from_trace`]) interpret them after the
//! run.

/// Coarse power phase of a router, as seen by telemetry.
///
/// This is the telemetry-side mirror of `catnap_noc::PowerState` with the
/// wake-up countdown erased: a trace cares *when* the phase changed, not
/// how many countdown cycles remain. `catnap-noc` provides the
/// `From<PowerState>` conversion (telemetry sits below the simulator in
/// the dependency graph and cannot name its types).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PowerPhase {
    /// Powered and operational.
    Active,
    /// Power gated.
    Sleep,
    /// Charging back up to Vdd.
    Wake,
}

impl PowerPhase {
    /// Short lower-case label used in trace names and CSV cells.
    pub fn label(self) -> &'static str {
        match self {
            PowerPhase::Active => "active",
            PowerPhase::Sleep => "sleep",
            PowerPhase::Wake => "wake",
        }
    }
}

/// One cycle-stamped simulation event.
///
/// Node, subnet and region identifiers are kept at their natural widths
/// so the whole enum stays 24 bytes; a recording run at light load emits
/// a few events per cycle, not per router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A router changed power phase (emitted by the subnet `Network`).
    Power {
        /// Cycle of the transition.
        cycle: u64,
        /// Router / node index.
        node: u16,
        /// Phase before the transition.
        from: PowerPhase,
        /// Phase after the transition.
        to: PowerPhase,
    },
    /// A node's local congestion status (BFM/IQOcc bit) flipped.
    Lcs {
        /// Cycle of the flip.
        cycle: u64,
        /// Subnet whose detector flipped.
        subnet: u8,
        /// Node index.
        node: u16,
        /// New value of the bit.
        on: bool,
    },
    /// A region's latched regional congestion status flipped.
    Rcs {
        /// Cycle of the OR-network latch.
        cycle: u64,
        /// Subnet whose OR network latched.
        subnet: u8,
        /// Region index.
        region: u8,
        /// New latched value.
        on: bool,
    },
    /// The subnet selector assigned a head-of-queue packet to a subnet.
    Select {
        /// Cycle of the decision.
        cycle: u64,
        /// Injecting node.
        node: u16,
        /// Chosen subnet.
        subnet: u8,
        /// Congestion view the selector saw, bit `s` = subnet `s`
        /// congested (see `catnap::select::congestion_mask`).
        congested_mask: u8,
    },
    /// A packet started streaming into a subnet's local router.
    PacketInject {
        /// Cycle injection started.
        cycle: u64,
        /// Packet id.
        id: u64,
        /// Carrying subnet.
        subnet: u8,
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
    },
    /// A packet's tail flit was ejected at its destination.
    PacketEject {
        /// Cycle of tail ejection.
        cycle: u64,
        /// Packet id.
        id: u64,
        /// Carrying subnet.
        subnet: u8,
        /// Destination node.
        dst: u16,
        /// End-to-end latency in cycles (creation to tail ejection).
        latency: u32,
    },
}

impl Event {
    /// Human-readable names of the event kinds, indexed by
    /// [`Event::kind_index`].
    pub const KIND_NAMES: [&'static str; 6] = ["power", "lcs", "rcs", "select", "packet_inject", "packet_eject"];

    /// The cycle this event is stamped with.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::Power { cycle, .. }
            | Event::Lcs { cycle, .. }
            | Event::Rcs { cycle, .. }
            | Event::Select { cycle, .. }
            | Event::PacketInject { cycle, .. }
            | Event::PacketEject { cycle, .. } => cycle,
        }
    }

    /// Dense index of the event kind (for counting sinks and summaries).
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Power { .. } => 0,
            Event::Lcs { .. } => 1,
            Event::Rcs { .. } => 2,
            Event::Select { .. } => 3,
            Event::PacketInject { .. } => 4,
            Event::PacketEject { .. } => 5,
        }
    }
}

/// Which component of a `MultiNoc` a sink instance is attached to.
///
/// The simulator asks a factory for one sink per scope so each subnet
/// records its own event stream; the streams are only merged when the
/// trace is collected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkScope {
    /// The serial policy layer: selection, congestion bits, packet
    /// inject/eject.
    Policy,
    /// One subnet network: router power transitions.
    Subnet(usize),
}

/// Run parameters a trace carries so exporters can label tracks and
/// close open intervals without access to the simulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// Configuration name (e.g. `4NT-128b-PG`).
    pub name: String,
    /// Mesh columns.
    pub cols: u16,
    /// Mesh rows.
    pub rows: u16,
    /// Number of subnets.
    pub subnets: usize,
    /// Cycles simulated when the trace was collected (closes the last
    /// power interval of every router).
    pub cycles: u64,
    /// Subnet-selection policy name.
    pub selector: String,
    /// Power-gating policy name.
    pub gating: String,
}

impl TraceMeta {
    /// Nodes in the mesh.
    pub fn num_nodes(&self) -> usize {
        self.cols as usize * self.rows as usize
    }
}

/// A collected run trace: the policy-level event stream plus one power
/// event stream per subnet, each in non-decreasing cycle order.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Run parameters.
    pub meta: TraceMeta,
    /// Events emitted by the serial policy layer.
    pub policy: Vec<Event>,
    /// Power events per subnet (index = subnet).
    pub subnets: Vec<Vec<Event>>,
}

impl Trace {
    /// Total number of events across all streams.
    pub fn num_events(&self) -> usize {
        self.policy.len() + self.subnets.iter().map(Vec::len).sum::<usize>()
    }

    /// Counts of each event kind, indexed like [`Event::kind_index`].
    pub fn kind_counts(&self) -> [u64; 6] {
        let mut counts = [0u64; 6];
        for ev in self.policy.iter().chain(self.subnets.iter().flatten()) {
            counts[ev.kind_index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_small() {
        // The hot-loop cost of recording is one store of this size.
        assert!(std::mem::size_of::<Event>() <= 24, "{}", std::mem::size_of::<Event>());
    }

    #[test]
    fn cycle_and_kind_cover_all_variants() {
        let evs = [
            Event::Power {
                cycle: 1,
                node: 0,
                from: PowerPhase::Active,
                to: PowerPhase::Sleep,
            },
            Event::Lcs {
                cycle: 2,
                subnet: 0,
                node: 3,
                on: true,
            },
            Event::Rcs {
                cycle: 3,
                subnet: 1,
                region: 2,
                on: false,
            },
            Event::Select {
                cycle: 4,
                node: 5,
                subnet: 2,
                congested_mask: 0b0011,
            },
            Event::PacketInject {
                cycle: 5,
                id: 9,
                subnet: 0,
                src: 1,
                dst: 2,
            },
            Event::PacketEject {
                cycle: 6,
                id: 9,
                subnet: 0,
                dst: 2,
                latency: 40,
            },
        ];
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.cycle(), i as u64 + 1);
            assert_eq!(ev.kind_index(), i);
        }
        assert_eq!(Event::KIND_NAMES.len(), 6);
    }

    #[test]
    fn trace_counts_all_streams() {
        let meta = TraceMeta {
            name: "t".into(),
            cols: 2,
            rows: 2,
            subnets: 2,
            cycles: 10,
            selector: "round-robin".into(),
            gating: "no-gating".into(),
        };
        let t = Trace {
            meta,
            policy: vec![Event::Select {
                cycle: 1,
                node: 0,
                subnet: 0,
                congested_mask: 0,
            }],
            subnets: vec![
                vec![Event::Power {
                    cycle: 2,
                    node: 1,
                    from: PowerPhase::Active,
                    to: PowerPhase::Sleep,
                }],
                vec![],
            ],
        };
        assert_eq!(t.num_events(), 2);
        assert_eq!(t.kind_counts()[0], 1);
        assert_eq!(t.kind_counts()[3], 1);
        assert_eq!(t.meta.num_nodes(), 4);
    }
}
