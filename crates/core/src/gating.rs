//! Power-gating policies: when routers are asked to sleep and when whole
//! regions are woken.
//!
//! The *mechanisms* (power-state machine, sleep guards, look-ahead wake
//! signals, NI wake requests) live in `catnap-noc`; this module supplies
//! the *policy* that drives them each cycle via [`GatingPolicy::apply`].

use crate::ni::NodeNi;
use crate::rcs::OrNetwork;
use catnap_noc::{Granularity, MeshDims, Network, Port};
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
    /// With `elide` set, sweeps over a fully sleeping subnet are skipped
    /// (they are provable no-ops). `MultiNoc::step_reference` passes
    /// `false`, so the oracle issues every request and the differential
    /// suites check the shortcut and the sleeper census it reads.
    pub fn apply<S: Sink>(
        self,
        dims: MeshDims,
        subnets: &mut [Network<S>],
        or_nets: &[OrNetwork],
        nis: &[NodeNi],
        elide: bool,
    ) {
        let k = subnets.len();
        match self {
            GatingPolicy::None => {}
            GatingPolicy::LocalIdle | GatingPolicy::LocalIdlePort => {
                // Port units never gate the local port out from under an
                // in-flight NI injection. A router unit has no such veto:
                // NI demand wakes it instead.
                let veto_local = self.granularity() == Granularity::Port;
                for (s, net) in subnets.iter_mut().enumerate() {
                    // A fully sleeping subnet rejects every request (the
                    // sleep guard needs an Active machine), so the sweep
                    // is a provable no-op. Never true at port
                    // granularity, where routers never sleep whole.
                    if elide && net.all_asleep() {
                        continue;
                    }
                    for node in dims.nodes() {
                        let keep_awake = if veto_local && nis[node.index()].wants_subnet(s) {
                            1 << Port::Local.index()
                        } else {
                            0
                        };
                        net.request_sleep(node, keep_awake);
                    }
                }
            }
            GatingPolicy::CatnapRcs => {
                for h in 1..k {
                    // With subnet h-1's RCS fully clear, every branch
                    // below is a sleep request; if subnet h is already
                    // fully asleep those are all rejected by the sleep
                    // guard, so the sweep is a provable no-op.
                    if elide && !or_nets[h - 1].any() && subnets[h].all_asleep() {
                        continue;
                    }
                    for node in dims.nodes() {
                        if or_nets[h - 1].rcs_at(node) {
                            subnets[h].request_wake(node);
                        } else {
                            subnets[h].request_sleep(node, 0);
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
