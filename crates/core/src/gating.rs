//! Power-gating policies: when routers are asked to sleep and when whole
//! regions are woken.
//!
//! The *mechanisms* (power-state machine, sleep guards, look-ahead wake
//! signals, NI wake requests) live in `catnap-noc`; this module supplies
//! the *policy* that drives them each cycle via [`GatingPolicy::apply`].

use crate::ni::NodeNi;
use crate::rcs::OrNetwork;
use catnap_noc::{Granularity, MeshDims, Network, NodeId, NodeSet, Port};
use catnap_telemetry::Sink;

/// Which power-gating policy a [`MultiNoc`](crate::MultiNoc) runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatingPolicy {
    /// No power gating: every router stays active.
    None,
    /// Matsutani-style local-idle gating (ASP-DAC '08), the paper's
    /// baseline for Single-NoC and for round-robin Multi-NoC: any router
    /// whose buffers have been empty for `t_idle_detect` cycles goes to
    /// sleep; wake-ups come from look-ahead signals and NI demand only.
    LocalIdle,
    /// Fine-grained variant (Matsutani et al., TCAD '11): individual
    /// input ports (buffers + incoming link) gate independently while the
    /// crossbar, control and clock stay powered — more sleep opportunity
    /// per unit, less leakage saved per sleeping unit.
    LocalIdlePort,
    /// Catnap's RCS-driven policy (Section 3.3): a router in subnet `h`
    /// sleeps only when, additionally, the regional congestion status of
    /// subnet `h-1` is off; it is woken as soon as that RCS turns on.
    /// Subnet 0 is never gated.
    CatnapRcs,
}

impl GatingPolicy {
    /// The gating granularity this policy drives the subnets at.
    pub fn granularity(self) -> Granularity {
        match self {
            GatingPolicy::None => Granularity::Off,
            GatingPolicy::LocalIdle | GatingPolicy::CatnapRcs => Granularity::Router,
            GatingPolicy::LocalIdlePort => Granularity::Port,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            GatingPolicy::None => "no-gating",
            GatingPolicy::LocalIdle => "local-idle",
            GatingPolicy::LocalIdlePort => "local-idle-port",
            GatingPolicy::CatnapRcs => "catnap-rcs",
        }
    }

    /// Runs one cycle of the policy: issues sleep and wake requests to
    /// the subnet networks. Called by `MultiNoc::step` between NI
    /// injection and the subnet steps.
    ///
    /// The networks veto unsafe requests themselves (sleep guards,
    /// in-flight flit checks), so the policy may ask freely; every
    /// granted transition is reported through each network's telemetry
    /// sink.
    ///
    /// With `sweep` set, every node gets its request, as
    /// `MultiNoc::step_reference` asks. Otherwise, at router granularity,
    /// only the nodes whose request can do something get one, in the
    /// same ascending node order: a wake request to a sleeping router,
    /// and a sleep request to one that is neither asleep nor holding
    /// flits ([`Network::queued`]). The rest are no-ops: a wake request
    /// to a router that is not asleep starts nothing, and the sleep guard
    /// refuses a router that is asleep or not drained. Port units keep
    /// the sweep, as a router holding flits can still gate an empty port.
    pub fn apply<S: Sink>(
        self,
        dims: MeshDims,
        subnets: &mut [Network<S>],
        or_nets: &[OrNetwork],
        nis: &[NodeNi],
        sweep: bool,
    ) {
        let k = subnets.len();
        let n = dims.num_nodes();
        match self {
            GatingPolicy::None => {}
            GatingPolicy::LocalIdlePort => {
                // Port units never gate the local port out from under an
                // in-flight NI injection.
                for (s, net) in subnets.iter_mut().enumerate() {
                    for node in dims.nodes() {
                        let keep_awake = if nis[node.index()].wants_subnet(s) {
                            1 << Port::Local.index()
                        } else {
                            0
                        };
                        net.request_sleep(node, keep_awake);
                    }
                }
            }
            // A router unit has no local-port veto: NI demand wakes it.
            GatingPolicy::LocalIdle => {
                for net in subnets.iter_mut() {
                    for w in 0..n.div_ceil(64) {
                        let candidates = if sweep {
                            !0
                        } else {
                            !(net.asleep().words()[w] | net.queued().words()[w])
                        };
                        for idx in NodeSet::members_of(w, candidates).take_while(|&idx| idx < n) {
                            net.request_sleep(NodeId(idx as u16), 0);
                        }
                    }
                }
            }
            GatingPolicy::CatnapRcs => {
                // Subnet h's routers wake where subnet h-1's RCS is on and
                // may sleep where it is off.
                for h in 1..k {
                    let net = &mut subnets[h];
                    for w in 0..n.div_ceil(64) {
                        let rcs = or_nets[h - 1].rcs_nodes().words()[w];
                        let asleep = net.asleep().words()[w];
                        let candidates = if sweep {
                            !0
                        } else {
                            (asleep & rcs) | !(asleep | net.queued().words()[w] | rcs)
                        };
                        for idx in NodeSet::members_of(w, candidates).take_while(|&idx| idx < n) {
                            let node = NodeId(idx as u16);
                            if rcs & (1 << (idx % 64)) != 0 {
                                net.request_wake(node);
                            } else {
                                net.request_sleep(node, 0);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultiNoc, MultiNocConfig};

    /// Routers asleep per subnet after `cycles` idle cycles under
    /// `policy` on the two-subnet 64-core design.
    fn sleepers_after_idle(policy: GatingPolicy, cycles: u64) -> Vec<usize> {
        let mut net = MultiNoc::new(MultiNocConfig::catnap_2x128_64core().gating_policy(policy));
        for _ in 0..cycles {
            net.step();
        }
        (0..net.num_subnets()).map(|s| net.subnet(s).power_state_census().1).collect()
    }

    #[test]
    fn subnet_zero_protected_only_by_catnap() {
        assert_eq!(sleepers_after_idle(GatingPolicy::CatnapRcs, 20), [0, 16]);
        assert_eq!(sleepers_after_idle(GatingPolicy::LocalIdle, 20), [16, 16]);
        assert_eq!(sleepers_after_idle(GatingPolicy::None, 20), [0, 0]);
    }

    #[test]
    fn gates_flag() {
        assert_eq!(GatingPolicy::None.granularity(), Granularity::Off);
        assert_eq!(GatingPolicy::LocalIdle.granularity(), Granularity::Router);
        assert_eq!(GatingPolicy::CatnapRcs.granularity(), Granularity::Router);
        assert_eq!(GatingPolicy::LocalIdlePort.granularity(), Granularity::Port);
    }

    #[test]
    fn names_stable() {
        assert_eq!(GatingPolicy::CatnapRcs.name(), "catnap-rcs");
        assert_eq!(GatingPolicy::LocalIdle.name(), "local-idle");
        assert_eq!(GatingPolicy::None.name(), "no-gating");
    }
}
