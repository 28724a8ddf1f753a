//! Power accounting for a whole Multi-NoC run (all subnets, shared NIs,
//! and the RCS OR networks).

use crate::multinoc::{MultiNoc, Snapshot};
use catnap_power::model::{NetworkPowerModel, RouterPowerModel};
use catnap_power::{PowerBreakdown, TechParams};

/// Power of a Multi-NoC over a measurement window.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiNocPowerReport {
    /// Configuration name.
    pub name: String,
    /// Dynamic power by component, watts.
    pub dynamic: PowerBreakdown,
    /// Static power by component after gating, watts.
    pub static_: PowerBreakdown,
    /// Fraction of router-cycles that were compensated sleep cycles.
    pub csc_fraction: f64,
}

catnap_util::impl_to_json_struct!(MultiNocPowerReport {
    name,
    dynamic,
    static_,
    csc_fraction
});

impl MultiNocPowerReport {
    /// Total network power in watts.
    pub fn total(&self) -> f64 {
        self.dynamic.total() + self.static_.total()
    }
}

impl<S: catnap_telemetry::Sink> MultiNoc<S> {
    /// Router power model for this design's subnets.
    pub fn router_power_model(&self, tech: TechParams) -> RouterPowerModel {
        let cfg = self.config();
        RouterPowerModel {
            width_bits: cfg.subnet_width_bits,
            vcs: cfg.vcs,
            vc_depth: cfg.vc_depth,
            vdd: cfg.vdd,
            freq_hz: cfg.freq_hz,
            tech,
        }
    }

    /// Computes network power over the window between two snapshots.
    pub fn power_between(&self, earlier: &Snapshot, later: &Snapshot, tech: TechParams) -> MultiNocPowerReport {
        let cfg = self.config();
        let d = later.delta(earlier);
        let cycles = d.cycle;
        if cycles == 0 {
            return MultiNocPowerReport {
                name: cfg.name.clone(),
                dynamic: PowerBreakdown::default(),
                static_: PowerBreakdown::default(),
                csc_fraction: 0.0,
            };
        }
        let router = self.router_power_model(tech);
        let link_factor = if cfg.subnets > 1 {
            tech.multi_link_crossover_factor
        } else {
            1.0
        };
        let model = NetworkPowerModel::for_mesh(cfg.dims, router, link_factor);
        let time_s = cycles as f64 / cfg.freq_hz;

        let mut dynamic = PowerBreakdown::default();
        let mut static_ = PowerBreakdown::default();
        for s in 0..cfg.subnets {
            let rep = model.report(
                &d.activity_per_subnet[s],
                &d.gating_per_subnet[s],
                cycles,
                cfg.gating_cfg.t_breakeven,
                cfg.gating_policy.granularity(),
            );
            dynamic += rep.dynamic;
            static_ += rep.static_;
        }

        // Shared NI: dynamic energy per flit transit (injections plus
        // ejections across all subnets), leakage for a queue sized for the
        // aggregate datapath (16 flits of the aggregate width).
        let transits: u64 =
            d.injected_flits_per_subnet.iter().sum::<u64>() + d.ejected_flits_per_subnet.iter().sum::<u64>();
        dynamic.ni = router.ni_energy_j(transits) / time_s;
        let nodes = cfg.dims.num_nodes() as f64;
        let ni_bits = cfg.ni_queue_flits as f64 * cfg.aggregate_width_bits() as f64;
        static_.ni = nodes * ni_bits * tech.leak_w_per_buffer_bit * tech.leakage_scale(cfg.vdd);

        // RCS OR networks: switching energy, charged to control.
        dynamic.control += d.or_switch_events as f64 * tech.or_network_pj_per_switch * 1e-12 / time_s;

        let gating = d.total_gating();
        MultiNocPowerReport {
            name: cfg.name.clone(),
            dynamic,
            static_,
            csc_fraction: gating.csc_fraction(),
        }
    }

    /// Power over the whole run so far.
    pub fn power_report(&self, tech: TechParams) -> MultiNocPowerReport {
        let zero = Snapshot::zero(self.num_subnets());
        let now = self.snapshot();
        self.power_between(&zero, &now, tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiNocConfig;
    use catnap_traffic::generator::PacketSink;
    use catnap_traffic::{SyntheticPattern, SyntheticWorkload};

    fn run(cfg: MultiNocConfig, rate: f64, cycles: u64) -> (MultiNoc, MultiNocPowerReport) {
        let mut net = MultiNoc::new(cfg);
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, net.dims(), 99);
        for _ in 0..cycles {
            load.drive(&mut net);
            net.step();
        }
        let rep = net.power_report(TechParams::catnap_32nm());
        (net, rep)
    }

    #[test]
    fn ungated_single_noc_static_near_anchor() {
        let (_, rep) = run(MultiNocConfig::single_noc_512b(), 0.05, 2_000);
        // Routers + links ~24.5 W plus NI ~2.6 W.
        assert!(
            rep.static_.total() > 23.0 && rep.static_.total() < 29.0,
            "static {:.1} W",
            rep.static_.total()
        );
        assert_eq!(rep.csc_fraction, 0.0);
    }

    #[test]
    fn gated_multi_noc_cuts_static_at_low_load() {
        let (_, ungated) = run(MultiNocConfig::catnap_4x128(), 0.02, 4_000);
        let (_, gated) = run(MultiNocConfig::catnap_4x128().gating(true), 0.02, 4_000);
        assert!(
            gated.static_.total() < 0.6 * ungated.static_.total(),
            "gating must cut static power substantially at low load: {:.1} vs {:.1} W",
            gated.static_.total(),
            ungated.static_.total()
        );
        assert!(gated.csc_fraction > 0.4, "csc {:.2}", gated.csc_fraction);
    }

    #[test]
    fn dynamic_power_grows_with_load() {
        let (_, lo) = run(MultiNocConfig::single_noc_512b(), 0.02, 2_000);
        let (_, hi) = run(MultiNocConfig::single_noc_512b(), 0.20, 2_000);
        assert!(hi.dynamic.total() > lo.dynamic.total() * 2.0);
    }

    #[test]
    fn power_between_windows() {
        let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128());
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.1, 512, net.dims(), 1);
        for _ in 0..500 {
            load.drive(&mut net);
            net.step();
        }
        let a = net.snapshot();
        for _ in 0..500 {
            load.drive(&mut net);
            net.step();
        }
        let b = net.snapshot();
        let rep = net.power_between(&a, &b, TechParams::catnap_32nm());
        assert!(rep.total() > 0.0);
        assert!(rep.dynamic.ni > 0.0);
        let _ = net.now();
    }

    #[test]
    fn zero_window_is_zero_power() {
        let net = MultiNoc::new(MultiNocConfig::catnap_4x128());
        let s = net.snapshot();
        let rep = net.power_between(&s, &s, TechParams::catnap_32nm());
        assert_eq!(rep.total(), 0.0);
    }
}
