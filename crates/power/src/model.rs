//! Activity-driven power model: converts simulator event counts
//! ([`RouterActivity`]) and power-gating residency ([`GatingActivity`])
//! into per-component dynamic and static power.

use crate::breakdown::PowerBreakdown;
use crate::params::TechParams;
use catnap_noc::stats::{GatingActivity, RouterActivity};
use catnap_noc::{Granularity, MeshDims};

const PJ: f64 = 1e-12;

/// Power model of a single router (and the links it drives).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouterPowerModel {
    /// Datapath width in bits.
    pub width_bits: u32,
    /// Virtual channels per port.
    pub vcs: usize,
    /// Buffer depth per VC, in flits.
    pub vc_depth: usize,
    /// Supply voltage.
    pub vdd: f64,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Technology coefficients.
    pub tech: TechParams,
}

impl RouterPowerModel {
    /// Total buffer storage bits of the router (5 ports).
    pub fn storage_bits(&self) -> f64 {
        5.0 * self.vcs as f64 * self.vc_depth as f64 * self.width_bits as f64
    }

    /// Leakage of one router (buffers, crossbar, control/clock), excluding
    /// its links.
    pub fn leakage_w(&self) -> PowerBreakdown {
        let t = &self.tech;
        let s = t.leakage_scale(self.vdd);
        let w = self.width_bits as f64;
        PowerBreakdown {
            buffer: self.storage_bits() * t.leak_w_per_buffer_bit * s,
            crossbar: w * w * t.leak_w_per_xbar_bit2 * s,
            control: 0.5 * t.leak_w_fixed_per_router * s,
            clock: 0.5 * t.leak_w_fixed_per_router * s,
            link: 0.0,
            ni: 0.0,
        }
    }

    /// Leakage of one directed link driven by this router.
    pub fn link_leakage_w(&self) -> f64 {
        self.width_bits as f64 * self.tech.leak_w_per_link_bit * self.tech.leakage_scale(self.vdd)
    }

    /// Dynamic energy (joules) of the counted events, excluding the
    /// per-cycle clock/control component (see
    /// [`RouterPowerModel::per_cycle_energy_j`]).
    pub fn event_energy_j(&self, a: &RouterActivity) -> PowerBreakdown {
        let t = &self.tech;
        let scale = t.dynamic_scale(self.vdd) * PJ;
        let w = self.width_bits as f64;
        PowerBreakdown {
            buffer: (a.buffer_writes as f64 * t.buf_write_pj_per_bit + a.buffer_reads() as f64 * t.buf_read_pj_per_bit)
                * w
                * scale,
            crossbar: a.xbar_traversals() as f64 * t.xbar_pj_per_bit2 * w * w * scale,
            control: a.arb_grants as f64 * t.arb_pj_per_grant * scale,
            clock: 0.0,
            link: a.link_flits as f64 * t.link_pj_per_bit * w * scale,
            ni: 0.0,
        }
    }

    /// Clock-tree and control dynamic energy (joules) for the given number
    /// of *active* router cycles (a gated router's clock is off).
    pub fn per_cycle_energy_j(&self, active_cycles: u64) -> PowerBreakdown {
        let t = &self.tech;
        let scale = t.dynamic_scale(self.vdd) * PJ;
        let w = self.width_bits as f64;
        PowerBreakdown {
            clock: active_cycles as f64 * t.clock_pj_per_width_bit_cycle * w * scale,
            control: active_cycles as f64 * t.control_pj_per_cycle * scale,
            ..PowerBreakdown::default()
        }
    }

    /// Network-interface energy (joules) for the given number of flit
    /// transits (injections plus ejections) through an NI of this width.
    pub fn ni_energy_j(&self, flit_transits: u64) -> f64 {
        flit_transits as f64 * self.tech.ni_pj_per_bit * self.width_bits as f64 * self.tech.dynamic_scale(self.vdd) * PJ
    }
}

/// Power report for one subnet over a measurement window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SubnetPowerReport {
    /// Dynamic power by component, in watts.
    pub dynamic: PowerBreakdown,
    /// Static (leakage) power by component, in watts, after accounting for
    /// power gating (gated cycles leak nothing; each sleep transition is
    /// charged `t_breakeven` cycles of leakage).
    pub static_: PowerBreakdown,
    /// Fraction of router-cycles that were compensated sleep cycles.
    pub csc_fraction: f64,
}

impl SubnetPowerReport {
    /// Total power in watts.
    pub fn total(&self) -> f64 {
        self.dynamic.total() + self.static_.total()
    }
}

/// Power model of one whole subnet: `num_routers` routers plus the mesh
/// links between them. NI power is accounted separately (NIs are shared
/// across subnets in a Multi-NoC).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkPowerModel {
    /// Per-router model.
    pub router: RouterPowerModel,
    /// Number of routers.
    pub num_routers: usize,
    /// Number of directed inter-router links.
    pub num_links: usize,
    /// Multiplier on link power (layout crossover penalty for Multi-NoC).
    pub link_factor: f64,
}

impl NetworkPowerModel {
    /// Builds the model for a mesh of the given dimensions.
    pub fn for_mesh(dims: MeshDims, router: RouterPowerModel, link_factor: f64) -> Self {
        NetworkPowerModel {
            router,
            num_routers: dims.num_nodes(),
            num_links: directed_links(dims),
            link_factor,
        }
    }

    /// Ungated leakage of the whole subnet (routers plus links).
    pub fn leakage_w(&self) -> PowerBreakdown {
        let mut leak = self.router.leakage_w() * self.num_routers as f64;
        leak.link = self.router.link_leakage_w() * self.num_links as f64 * self.link_factor;
        leak
    }

    /// Computes the subnet power over a measurement window.
    ///
    /// * `activity` — event counts summed over all routers in the window;
    /// * `gating` — gating residency summed over the gating units (for an
    ///   ungated run pass active = `num_routers * cycles`);
    /// * `cycles` — window length in cycles;
    /// * `t_breakeven` — leakage-equivalent cycles charged per sleep
    ///   transition;
    /// * `granularity` — what one gating unit powers. A router unit (also
    ///   used with gating off) gates every component, and clock and
    ///   control are charged for its active cycles. Port units
    ///   (fine-grained gating, Matsutani et al., TCAD '11) gate only the
    ///   buffers and links; crossbar, control and clock stay powered and
    ///   clocked the whole time — the granularity/savings trade-off of
    ///   port-level gating.
    ///
    /// Gated components leak for the units' powered fraction: active and
    /// wake-up cycles plus `t_breakeven` cycles per sleep transition
    /// (sleep-transistor switching and decap recharge), over all unit
    /// cycles.
    pub fn report(
        &self,
        activity: &RouterActivity,
        gating: &GatingActivity,
        cycles: u64,
        t_breakeven: u32,
        granularity: Granularity,
    ) -> SubnetPowerReport {
        if cycles == 0 {
            return SubnetPowerReport::default();
        }
        let time_s = cycles as f64 / self.router.freq_hz;
        let port_units = granularity == Granularity::Port;

        let mut energy = self.router.event_energy_j(activity);
        energy.link *= self.link_factor;
        let clocked = if port_units {
            self.num_routers as u64 * cycles
        } else {
            gating.active_cycles
        };
        energy += self.router.per_cycle_energy_j(clocked);
        let dynamic = energy * (1.0 / time_s);

        let unit_cycles = (gating.active_cycles + gating.sleep_cycles + gating.wakeup_cycles).max(1) as f64;
        let powered = gating.active_cycles as f64
            + gating.wakeup_cycles as f64
            + gating.sleep_transitions as f64 * t_breakeven as f64;
        let powered_frac = (powered / unit_cycles).min(1.0);
        let full = self.leakage_w();
        let static_ = if port_units {
            PowerBreakdown {
                buffer: full.buffer * powered_frac,
                link: full.link * powered_frac,
                ..full
            }
        } else {
            full * powered_frac
        };

        SubnetPowerReport {
            dynamic,
            static_,
            csc_fraction: gating.csc_fraction(),
        }
    }
}

/// Number of directed inter-router links in a mesh.
pub fn directed_links(dims: MeshDims) -> usize {
    let c = dims.cols as usize;
    let r = dims.rows as usize;
    2 * ((c - 1) * r + (r - 1) * c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_noc_model() -> NetworkPowerModel {
        let router = RouterPowerModel {
            width_bits: 512,
            vcs: 4,
            vc_depth: 4,
            vdd: 0.750,
            freq_hz: 2.0e9,
            tech: TechParams::catnap_32nm(),
        };
        NetworkPowerModel::for_mesh(MeshDims::new(8, 8), router, 1.0)
    }

    fn multi_noc_subnet_model() -> NetworkPowerModel {
        let router = RouterPowerModel {
            width_bits: 128,
            vcs: 4,
            vc_depth: 4,
            vdd: 0.625,
            freq_hz: 2.0e9,
            tech: TechParams::catnap_32nm(),
        };
        NetworkPowerModel::for_mesh(MeshDims::new(8, 8), router, 1.12)
    }

    #[test]
    fn directed_link_count() {
        assert_eq!(directed_links(MeshDims::new(8, 8)), 224);
        assert_eq!(directed_links(MeshDims::new(4, 4)), 48);
        assert_eq!(directed_links(MeshDims::new(2, 1)), 2);
    }

    #[test]
    fn single_noc_leakage_near_paper_anchor() {
        // Paper: ~25 W static for the bandwidth-equivalent designs,
        // excluding the NI (which adds ~2.6 W and is modelled separately).
        let leak = single_noc_model().leakage_w().total();
        assert!(
            leak > 19.0 && leak < 25.0,
            "Single-NoC router+link leakage {leak:.1} W out of expected band"
        );
    }

    #[test]
    fn multi_noc_static_similar_to_single() {
        let single = single_noc_model().leakage_w().total();
        let multi = multi_noc_subnet_model().leakage_w().total() * 4.0;
        let ratio = multi / single;
        // Buffers and links dominate leakage and are width-neutral in
        // aggregate; only the crossbars shrink. Paper: "about the same".
        assert!(
            ratio > 0.80 && ratio < 1.05,
            "4x128b leakage should be close to 1x512b, ratio {ratio:.2}"
        );
    }

    #[test]
    fn crossbar_leakage_quadratic_in_width() {
        let t = TechParams::catnap_32nm();
        let mk = |w| RouterPowerModel {
            width_bits: w,
            vcs: 4,
            vc_depth: 4,
            vdd: 0.75,
            freq_hz: 2e9,
            tech: t,
        };
        let x512 = mk(512).leakage_w().crossbar;
        let x128 = mk(128).leakage_w().crossbar;
        assert!((x512 / x128 - 16.0).abs() < 1e-6);
    }

    #[test]
    fn dynamic_energy_scales_with_voltage_squared() {
        let a = RouterActivity {
            buffer_writes: 1000,
            link_flits: 800,
            ejected_flits: 200,
            arb_grants: 1000,
            ..Default::default()
        };
        let hi = RouterPowerModel {
            width_bits: 128,
            vcs: 4,
            vc_depth: 4,
            vdd: 0.750,
            freq_hz: 2e9,
            tech: TechParams::catnap_32nm(),
        };
        let lo = RouterPowerModel { vdd: 0.625, ..hi };
        let ratio = lo.event_energy_j(&a).total() / hi.event_energy_j(&a).total();
        assert!((ratio - (0.625f64 / 0.75).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn gated_static_power_scales_with_powered_fraction() {
        let m = single_noc_model();
        let cycles = 10_000u64;
        let a = RouterActivity::default();
        // Fully active.
        let all_on = GatingActivity {
            active_cycles: 64 * cycles,
            ..Default::default()
        };
        let on = m.report(&a, &all_on, cycles, 12, Granularity::Router);
        // Half the router-cycles asleep, no transitions charged.
        let half = GatingActivity {
            active_cycles: 32 * cycles,
            sleep_cycles: 32 * cycles,
            ..Default::default()
        };
        let h = m.report(&a, &half, cycles, 12, Granularity::Router);
        assert!((h.static_.total() / on.static_.total() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sleep_transitions_charge_breakeven_energy() {
        let m = single_noc_model();
        let cycles = 1_000u64;
        let a = RouterActivity::default();
        let gating = GatingActivity {
            active_cycles: 0,
            sleep_cycles: 64 * cycles,
            sleep_transitions: 64,
            ..Default::default()
        };
        let rep = m.report(&a, &gating, cycles, 12, Granularity::Router);
        let expected_frac = (64.0 * 12.0) / (64.0 * cycles as f64);
        assert!((rep.static_.total() / m.leakage_w().total() - expected_frac).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_reports_zero() {
        let m = single_noc_model();
        let rep = m.report(
            &RouterActivity::default(),
            &GatingActivity::default(),
            0,
            12,
            Granularity::Router,
        );
        assert_eq!(rep.total(), 0.0);
    }

    #[test]
    fn ni_energy_proportional_to_width_and_transits() {
        let r = single_noc_model().router;
        let e1 = r.ni_energy_j(100);
        let e2 = r.ni_energy_j(200);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
    }
}
