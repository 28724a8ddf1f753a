//! Multi-NoC configuration and the paper's design points.

use crate::congestion::{CongestionMetric, MetricKind};
use crate::gating::GatingPolicy;
use catnap_noc::{GatingConfig, MeshDims, NetworkConfig};
use catnap_power::DelayModel;

/// Which subnet-selection policy to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectorKind {
    /// Round-robin across subnets (conventional baseline).
    RoundRobin,
    /// Uniformly random.
    Random,
    /// Catnap's strict-priority selection.
    CatnapPriority,
}

/// How the mesh is partitioned into RCS regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionMode {
    /// Quadrants (4x4 regions of the 8x8 mesh — the paper's design).
    Quadrants,
    /// One global region (an idealized global detector).
    Global,
    /// One region per node (degenerates RCS to local-only status).
    PerNode,
}

/// Full configuration of a (multi-)network design point.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiNocConfig {
    /// Display name, e.g. `"4NT-128b-PG"`.
    pub name: String,
    /// Number of subnets.
    pub subnets: usize,
    /// Datapath width of each subnet, in bits.
    pub subnet_width_bits: u32,
    /// Mesh dimensions.
    pub dims: MeshDims,
    /// Virtual channels per port.
    pub vcs: usize,
    /// VC buffer depth in flits.
    pub vc_depth: usize,
    /// Power-gating timing (wake-up, break-even, idle-detect).
    pub gating_cfg: GatingConfig,
    /// Power-gating policy.
    pub gating_policy: GatingPolicy,
    /// Subnet-selection policy.
    pub selector: SelectorKind,
    /// Local congestion metric and thresholds.
    pub metric: CongestionMetric,
    /// Whether regional congestion status is used (false = local-only
    /// status, the paper's `BFM-local` / `IQOcc-Local` variants).
    pub use_rcs: bool,
    /// RCS OR-network update period in cycles (paper: 6).
    pub rcs_period: u32,
    /// RCS region partitioning.
    pub region_mode: RegionMode,
    /// NI injection-queue capacity in flits (paper: 16).
    pub ni_queue_flits: usize,
    /// NI-side spill rule: if the head packet has waited this many cycles
    /// behind a busy injection slot, that subnet is treated as congested
    /// at this node and the selector may pick the next subnet. This keeps
    /// injection-bandwidth-bound nodes (e.g. memory-controller nodes,
    /// whose responses plus local core traffic exceed one subnet's local
    /// port) from serializing behind subnet 0 even though no *router*
    /// buffer ever fills — a blind spot of purely router-side congestion
    /// metrics. `0` disables the rule (the paper's literal policy).
    pub spill_wait_cycles: u32,
    /// Supply voltage for the power model.
    pub vdd: f64,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// RNG seed (random selector).
    pub seed: u64,
}

impl MultiNocConfig {
    fn base(name: &str, subnets: usize, width: u32) -> Self {
        let vdd = DelayModel::catnap_32nm()
            .required_vdd(width, 2.0e9)
            .expect("2 GHz reachable for all studied widths");
        MultiNocConfig {
            name: name.to_string(),
            subnets,
            subnet_width_bits: width,
            dims: MeshDims::new(8, 8),
            vcs: 4,
            vc_depth: 4,
            gating_cfg: GatingConfig::paper(),
            gating_policy: GatingPolicy::None,
            selector: SelectorKind::CatnapPriority,
            metric: CongestionMetric::paper_default(MetricKind::Bfm),
            use_rcs: true,
            rcs_period: 6,
            region_mode: RegionMode::Quadrants,
            ni_queue_flits: 16,
            spill_wait_cycles: 5,
            vdd,
            freq_hz: 2.0e9,
            seed: 0xCA7,
        }
    }

    /// The paper's 1NT-512b Single-NoC (0.750 V).
    pub fn single_noc_512b() -> Self {
        MultiNocConfig::base("1NT-512b", 1, 512)
    }

    /// The under-provisioned 1NT-128b Single-NoC.
    pub fn single_noc_128b() -> Self {
        MultiNocConfig::base("1NT-128b", 1, 128)
    }

    /// The paper's 4NT-128b Catnap Multi-NoC (0.625 V).
    pub fn catnap_4x128() -> Self {
        MultiNocConfig::base("4NT-128b", 4, 128)
    }

    /// A bandwidth-equivalent Multi-NoC with `n` subnets of `512/n` bits
    /// (2NT-256b, 4NT-128b, 8NT-64b of Figure 6).
    ///
    /// # Panics
    ///
    /// Panics unless `n` divides 512 evenly and is non-zero.
    pub fn bandwidth_equivalent(n: usize) -> Self {
        assert!(n > 0 && 512 % n as u32 == 0, "subnets must divide 512");
        let width = 512 / n as u32;
        MultiNocConfig::base(&format!("{n}NT-{width}b"), n, width)
    }

    /// The 64-core configuration (Section 6.6): 4x4 c-mesh, 256-bit
    /// Single-NoC.
    pub fn single_noc_256b_64core() -> Self {
        let mut cfg = MultiNocConfig::base("64core-1NT-256b", 1, 256);
        cfg.dims = MeshDims::new(4, 4);
        cfg
    }

    /// The 64-core Multi-NoC: two 128-bit subnets on a 4x4 c-mesh.
    pub fn catnap_2x128_64core() -> Self {
        let mut cfg = MultiNocConfig::base("64core-2NT-128b", 2, 128);
        cfg.dims = MeshDims::new(4, 4);
        cfg
    }

    /// Builder-style: enables the natural power-gating policy for the
    /// design (Catnap RCS gating for a priority-selected Multi-NoC,
    /// local-idle gating otherwise), or disables gating.
    pub fn gating(mut self, enabled: bool) -> Self {
        self.gating_policy = if !enabled {
            GatingPolicy::None
        } else if self.subnets > 1 && self.selector == SelectorKind::CatnapPriority && self.use_rcs {
            GatingPolicy::CatnapRcs
        } else {
            GatingPolicy::LocalIdle
        };
        if enabled && !self.name.ends_with("-PG") {
            self.name.push_str("-PG");
        }
        self
    }

    /// Builder-style: sets an explicit gating policy.
    pub fn gating_policy(mut self, policy: GatingPolicy) -> Self {
        self.gating_policy = policy;
        self
    }

    /// Builder-style: sets the subnet selector.
    pub fn selector(mut self, kind: SelectorKind) -> Self {
        self.selector = kind;
        self
    }

    /// Builder-style: sets the local congestion metric.
    pub fn metric(mut self, metric: CongestionMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Builder-style: disables the regional OR network (local-only
    /// congestion status).
    pub fn local_only(mut self) -> Self {
        self.use_rcs = false;
        self
    }

    /// Builder-style: sets the RCS update period.
    pub fn rcs_period(mut self, period: u32) -> Self {
        self.rcs_period = period;
        self
    }

    /// Builder-style: sets the region partitioning.
    pub fn region_mode(mut self, mode: RegionMode) -> Self {
        self.region_mode = mode;
        self
    }

    /// Builder-style: sets the NI spill-wait threshold (0 disables).
    pub fn spill_wait(mut self, cycles: u32) -> Self {
        self.spill_wait_cycles = cycles;
        self
    }

    /// Builder-style: sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: renames the configuration.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Aggregate datapath width across subnets, in bits.
    pub fn aggregate_width_bits(&self) -> u32 {
        self.subnet_width_bits * self.subnets as u32
    }

    /// Flits per packet of `bits` bits on this design's subnets.
    pub fn flits_per_packet(&self, bits: u32) -> u16 {
        catnap_noc::Flit::flits_for_bits(bits, self.subnet_width_bits)
    }

    /// The per-subnet [`NetworkConfig`].
    pub fn subnet_config(&self) -> NetworkConfig {
        let mut cfg = NetworkConfig::with_width(self.subnet_width_bits)
            .dims(self.dims)
            .buffers(self.vcs, self.vc_depth)
            .gating_enabled(self.gating_policy.gates())
            .port_gating(self.gating_policy.is_port_granularity());
        cfg.gating = self.gating_cfg;
        cfg
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.subnets == 0 {
            return Err("need at least one subnet".into());
        }
        self.subnet_config().validate()?;
        if self.rcs_period == 0 {
            return Err("rcs_period must be non-zero".into());
        }
        if self.ni_queue_flits == 0 {
            return Err("NI queue capacity must be non-zero".into());
        }
        if !(0.1..=1.5).contains(&self.vdd) {
            return Err(format!("implausible vdd {}", self.vdd));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_points() {
        let single = MultiNocConfig::single_noc_512b();
        assert_eq!(single.subnets, 1);
        assert_eq!(single.subnet_width_bits, 512);
        assert!((single.vdd - 0.750).abs() < 0.01, "512b needs 0.750V for 2 GHz");

        let multi = MultiNocConfig::catnap_4x128();
        assert_eq!(multi.subnets, 4);
        assert_eq!(multi.aggregate_width_bits(), 512);
        assert!((multi.vdd - 0.625).abs() < 0.01, "128b reaches 2 GHz at 0.625V");
        multi.validate().unwrap();
    }

    #[test]
    fn bandwidth_equivalents() {
        for n in [1usize, 2, 4, 8] {
            let cfg = MultiNocConfig::bandwidth_equivalent(n);
            assert_eq!(cfg.aggregate_width_bits(), 512);
            assert_eq!(cfg.flits_per_packet(512) as usize, n);
            cfg.validate().unwrap();
        }
    }

    #[test]
    #[should_panic]
    fn bad_subnet_count_panics() {
        MultiNocConfig::bandwidth_equivalent(3);
    }

    #[test]
    fn gating_builder_chooses_policy() {
        let catnap = MultiNocConfig::catnap_4x128().gating(true);
        assert_eq!(catnap.gating_policy, GatingPolicy::CatnapRcs);
        assert!(catnap.name.ends_with("-PG"));

        let single = MultiNocConfig::single_noc_512b().gating(true);
        assert_eq!(single.gating_policy, GatingPolicy::LocalIdle);

        let rr = MultiNocConfig::catnap_4x128().selector(SelectorKind::RoundRobin).gating(true);
        assert_eq!(rr.gating_policy, GatingPolicy::LocalIdle);

        let off = MultiNocConfig::catnap_4x128().gating(false);
        assert_eq!(off.gating_policy, GatingPolicy::None);
    }

    #[test]
    fn subnet_config_propagates_gating() {
        let cfg = MultiNocConfig::catnap_4x128().gating(true).subnet_config();
        assert!(cfg.gating_enabled);
        assert_eq!(cfg.gating.t_wakeup, 10);
        let off = MultiNocConfig::catnap_4x128().subnet_config();
        assert!(!off.gating_enabled);
    }

    #[test]
    fn sixty_four_core_presets() {
        let s = MultiNocConfig::single_noc_256b_64core();
        assert_eq!(s.dims.num_nodes(), 16);
        assert_eq!(s.aggregate_width_bits(), 256);
        let m = MultiNocConfig::catnap_2x128_64core();
        assert_eq!(m.aggregate_width_bits(), 256);
        assert!(m.vdd < s.vdd, "narrower subnets run at lower voltage");
    }

    #[test]
    fn validation_catches_errors() {
        let mut cfg = MultiNocConfig::catnap_4x128();
        cfg.rcs_period = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = MultiNocConfig::catnap_4x128();
        cfg.subnets = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = MultiNocConfig::catnap_4x128();
        cfg.vdd = 5.0;
        assert!(cfg.validate().is_err());
    }
}
