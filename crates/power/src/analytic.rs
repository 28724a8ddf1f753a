//! Closed-form network power at a given per-port load factor.
//!
//! The paper's Figure 7 compares Single-NoC and Multi-NoC power "at near
//! saturation (that is, we assume a per-port load factor of 0.5)" without
//! running a simulation; this module provides the same computation. A
//! per-port load factor `L` means each router output port carries a flit
//! in a fraction `L` of cycles, from which all event rates follow:
//!
//! * crossbar traversals per router-cycle: `5 L` (five output ports);
//! * buffer writes and reads per router-cycle: `5 L` each;
//! * link flits per router-cycle: `links/routers · L`;
//! * NI flit transits per node-cycle: `2 L` (one inject + one eject port).

use crate::breakdown::PowerBreakdown;
use crate::model::{NetworkPowerModel, RouterPowerModel};
use crate::params::TechParams;
use catnap_noc::MeshDims;

/// Description of a (possibly multi-subnet) network design for analytic
/// power evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DesignPoint {
    /// Human-readable name, e.g. `"1NT-512b 0.750V"`.
    pub name: &'static str,
    /// Number of subnets.
    pub subnets: usize,
    /// Datapath width per subnet, in bits.
    pub width_bits: u32,
    /// Supply voltage.
    pub vdd: f64,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Mesh dimensions.
    pub dims: MeshDims,
    /// Virtual channels per port.
    pub vcs: usize,
    /// VC depth in flits.
    pub vc_depth: usize,
}

impl DesignPoint {
    /// The paper's 1NT-512b Single-NoC at 0.750 V.
    pub fn single_512b_0v750() -> Self {
        DesignPoint {
            name: "1NT-512b 0.750V",
            subnets: 1,
            width_bits: 512,
            vdd: 0.750,
            freq_hz: 2.0e9,
            dims: MeshDims::new(8, 8),
            vcs: 4,
            vc_depth: 4,
        }
    }

    /// The paper's 4NT-128b Multi-NoC at 0.750 V (no voltage scaling).
    pub fn multi_4x128b_0v750() -> Self {
        DesignPoint {
            name: "4NT-128b 0.750V",
            subnets: 4,
            width_bits: 128,
            vdd: 0.750,
            ..DesignPoint::single_512b_0v750()
        }
    }

    /// The paper's 4NT-128b Multi-NoC at 0.625 V (voltage scaled; the
    /// configuration highlighted in Table 2 and used in the evaluation).
    pub fn multi_4x128b_0v625() -> Self {
        DesignPoint {
            name: "4NT-128b 0.625V",
            subnets: 4,
            width_bits: 128,
            vdd: 0.625,
            ..DesignPoint::single_512b_0v750()
        }
    }

    fn router_model(&self, tech: TechParams) -> RouterPowerModel {
        RouterPowerModel {
            width_bits: self.width_bits,
            vcs: self.vcs,
            vc_depth: self.vc_depth,
            vdd: self.vdd,
            freq_hz: self.freq_hz,
            tech,
        }
    }

    /// NI queue storage bits per node: the NI is shared across subnets and
    /// sized for the aggregate datapath (16 flits of the aggregate width).
    pub fn ni_queue_bits(&self) -> f64 {
        16.0 * (self.width_bits as f64 * self.subnets as f64)
    }

    /// Analytic network power (all subnets plus NIs) at per-port load
    /// factor `load`, split into dynamic and static parts.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= load <= 1.0`.
    pub fn power_at_load(&self, tech: TechParams, load: f64) -> (PowerBreakdown, PowerBreakdown) {
        assert!((0.0..=1.0).contains(&load), "load factor must be in [0, 1]");
        let router = self.router_model(tech);
        let link_factor = if self.subnets > 1 {
            tech.multi_link_crossover_factor
        } else {
            1.0
        };
        let nets = NetworkPowerModel::for_mesh(self.dims, router, link_factor);
        let routers = nets.num_routers as f64;
        let links = nets.num_links as f64;
        let nodes = self.dims.num_nodes() as f64;
        let scale = tech.dynamic_scale(self.vdd);
        let w = self.width_bits as f64;
        let hz = self.freq_hz;
        let pj = 1e-12;

        // Per-subnet event rates (events per second, whole subnet).
        let xbar_rate = 5.0 * load * routers * hz;
        let buf_rate = 5.0 * load * routers * hz;
        let link_rate = load * links * hz;

        let mut dynamic = PowerBreakdown {
            buffer: buf_rate * (tech.buf_write_pj_per_bit + tech.buf_read_pj_per_bit) * w * scale * pj,
            crossbar: xbar_rate * tech.xbar_pj_per_bit2 * w * w * scale * pj,
            control: (routers * hz * tech.control_pj_per_cycle + xbar_rate * tech.arb_pj_per_grant) * scale * pj,
            clock: routers * hz * tech.clock_pj_per_width_bit_cycle * w * scale * pj,
            link: link_rate * tech.link_pj_per_bit * w * scale * pj * link_factor,
            ni: 0.0,
        } * self.subnets as f64;

        // NI: shared across subnets; 2L flit transits per node-cycle per
        // subnet, each of the subnet flit width.
        let ni_rate = 2.0 * load * nodes * hz * self.subnets as f64;
        dynamic.ni = ni_rate * tech.ni_pj_per_bit * w * scale * pj;

        let mut static_ = nets.leakage_w() * self.subnets as f64;
        static_.ni = self.ni_queue_bits() * nodes * tech.leak_w_per_buffer_bit * tech.leakage_scale(self.vdd);

        (dynamic, static_)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_fraction_at_saturation_near_paper() {
        // Paper Section 1: leakage can be as high as 39% of network power
        // at saturation for the 256-core system.
        let d = DesignPoint::single_512b_0v750();
        let (dyn_, stat) = d.power_at_load(TechParams::catnap_32nm(), 0.5);
        let frac = stat.total() / (stat.total() + dyn_.total());
        assert!(
            frac > 0.33 && frac < 0.45,
            "leakage fraction at saturation {frac:.2}, paper says ~0.39"
        );
    }

    #[test]
    fn total_static_near_25w() {
        let d = DesignPoint::single_512b_0v750();
        let (_, stat) = d.power_at_load(TechParams::catnap_32nm(), 0.5);
        assert!(
            stat.total() > 22.0 && stat.total() < 28.0,
            "static {:.1} W, paper anchor ~25 W",
            stat.total()
        );
    }

    #[test]
    fn fig7_ordering_holds() {
        // Figure 7: dynamic power of 4NT-128b @ 0.750V is somewhat lower
        // than 1NT-512b (narrower crossbars), and 4NT-128b @ 0.625V is
        // significantly lower (voltage scaling).
        let t = TechParams::catnap_32nm();
        let (d1, s1) = DesignPoint::single_512b_0v750().power_at_load(t, 0.5);
        let (d2, s2) = DesignPoint::multi_4x128b_0v750().power_at_load(t, 0.5);
        let (d3, s3) = DesignPoint::multi_4x128b_0v625().power_at_load(t, 0.5);
        let t1 = d1.total() + s1.total();
        let t2 = d2.total() + s2.total();
        let t3 = d3.total() + s3.total();
        assert!(t2 < t1, "4NT@0.750V ({t2:.1}) must be below 1NT ({t1:.1})");
        assert!(t3 < t2, "4NT@0.625V ({t3:.1}) must be below 4NT@0.750V ({t2:.1})");
        assert!(t3 < 0.85 * t1, "voltage-scaled Multi-NoC should be clearly lower");
    }

    #[test]
    fn crossbar_dominates_less_in_multi() {
        let t = TechParams::catnap_32nm();
        let (d1, _) = DesignPoint::single_512b_0v750().power_at_load(t, 0.5);
        let (d2, _) = DesignPoint::multi_4x128b_0v750().power_at_load(t, 0.5);
        // Same aggregate bits, but four narrow crossbars: 4x less energy.
        assert!((d1.crossbar / d2.crossbar - 4.0).abs() < 0.01);
        // Buffers move the same bits: equal dynamic power.
        assert!((d1.buffer / d2.buffer - 1.0).abs() < 0.01);
        // Links pay the crossover penalty.
        assert!((d2.link / d1.link - t.multi_link_crossover_factor).abs() < 0.01);
    }

    #[test]
    fn dynamic_power_linear_in_load() {
        let d = DesignPoint::single_512b_0v750();
        let t = TechParams::catnap_32nm();
        let (d1, _) = d.power_at_load(t, 0.2);
        let (d2, _) = d.power_at_load(t, 0.4);
        // Clock and the per-cycle control part are load-independent.
        let clk1 = d1.clock + 64.0 * 2.0e9 * t.control_pj_per_cycle * 1e-12;
        let var1 = d1.total() - d1.clock;
        let var2 = d2.total() - d2.clock;
        assert!(var2 > var1 * 1.5, "load-dependent part must grow with load");
        assert!((d1.clock - d2.clock).abs() < 1e-9, "clock is load-independent");
        let _ = clk1;
    }

    #[test]
    #[should_panic]
    fn load_out_of_range_panics() {
        DesignPoint::single_512b_0v750().power_at_load(TechParams::catnap_32nm(), 1.5);
    }

    #[test]
    fn zero_load_has_only_clock_control_and_static() {
        let (dyn_, stat) = DesignPoint::single_512b_0v750().power_at_load(TechParams::catnap_32nm(), 0.0);
        assert_eq!(dyn_.buffer, 0.0);
        assert_eq!(dyn_.crossbar, 0.0);
        assert_eq!(dyn_.link, 0.0);
        assert_eq!(dyn_.ni, 0.0);
        assert!(dyn_.clock > 0.0);
        assert!(stat.total() > 0.0);
    }
}
