//! Network and power-gating configuration.

use crate::geometry::MeshDims;

/// Timing and energy parameters of runtime power gating, as determined by
/// the paper's SPICE analysis (Section 4.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GatingConfig {
    /// Cycles to charge a gated router back up to Vdd (paper: 10 cycles for
    /// a 128-bit router at 2 GHz; 3 of them hidden by look-ahead wake-up).
    pub t_wakeup: u32,
    /// Sleep-period length (cycles of saved leakage) at which a sleep
    /// transition breaks even with the energy cost of switching the sleep
    /// transistor and recharging decoupling capacitance (paper: 12 cycles).
    pub t_breakeven: u32,
    /// Consecutive empty-buffer cycles required before the buffer-empty
    /// condition is considered true (paper: 4 cycles).
    pub t_idle_detect: u32,
}

impl GatingConfig {
    /// The paper's SPICE-derived values.
    pub fn paper() -> Self {
        GatingConfig {
            t_wakeup: 10,
            t_breakeven: 12,
            t_idle_detect: 4,
        }
    }
}

impl Default for GatingConfig {
    fn default() -> Self {
        GatingConfig::paper()
    }
}

/// Static configuration of one physical network (one subnet).
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Mesh dimensions (paper: 8x8 concentrated mesh for 256 cores, 4x4 for
    /// 64 cores).
    pub dims: MeshDims,
    /// Virtual channels per input port (paper: 4).
    pub vcs_per_port: usize,
    /// Buffer depth per virtual channel, in flits (paper: 4; constant
    /// across subnet widths because flits shrink with the datapath).
    pub vc_depth: usize,
    /// Datapath / link width in bits (512 for the Single-NoC, 128 per
    /// subnet in the four-subnet Multi-NoC).
    pub link_width_bits: u32,
    /// Power-gating timing parameters.
    pub gating: GatingConfig,
    /// If false, sleep requests are ignored: the network is always on
    /// (baselines without power gating).
    pub gating_enabled: bool,
    /// Fine-grained per-input-port gating (Matsutani et al., TCAD '11)
    /// instead of whole-router gating: each input port's buffers and
    /// incoming link gate independently while crossbar/control/clock stay
    /// powered. Requires `gating_enabled`.
    pub port_gating: bool,
}

impl NetworkConfig {
    /// A 512-bit Single-NoC subnet on an 8x8 mesh (the paper's 1NT-512b).
    pub fn single_noc_512b() -> Self {
        NetworkConfig::with_width(512)
    }

    /// A 128-bit under-provisioned Single-NoC (the paper's 1NT-128b).
    pub fn single_noc_128b() -> Self {
        NetworkConfig::with_width(128)
    }

    /// One 128-bit subnet of the paper's four-subnet Multi-NoC (4NT-128b).
    pub fn catnap_subnet_128b() -> Self {
        NetworkConfig::with_width(128)
    }

    /// An 8x8 mesh subnet with the paper's router parameters and the given
    /// datapath width.
    pub fn with_width(link_width_bits: u32) -> Self {
        NetworkConfig {
            dims: MeshDims::new(8, 8),
            vcs_per_port: 4,
            vc_depth: 4,
            link_width_bits,
            gating: GatingConfig::paper(),
            gating_enabled: false,
            port_gating: false,
        }
    }

    /// Builder-style: sets mesh dimensions.
    pub fn dims(mut self, dims: MeshDims) -> Self {
        self.dims = dims;
        self
    }

    /// Builder-style: enables or disables power gating.
    pub fn gating_enabled(mut self, enabled: bool) -> Self {
        self.gating_enabled = enabled;
        self
    }

    /// Builder-style: switches to fine-grained per-port gating.
    pub fn port_gating(mut self, enabled: bool) -> Self {
        self.port_gating = enabled;
        self
    }

    /// Builder-style: sets VC count and depth.
    pub fn buffers(mut self, vcs: usize, depth: usize) -> Self {
        self.vcs_per_port = vcs;
        self.vc_depth = depth;
        self
    }

    /// Maximum occupancy of one input port, in flits.
    pub fn port_capacity_flits(&self) -> usize {
        self.vcs_per_port * self.vc_depth
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.vcs_per_port == 0 || self.vcs_per_port > 64 {
            return Err(format!("vcs_per_port must be in 1..=64, got {}", self.vcs_per_port));
        }
        if self.vc_depth == 0 {
            return Err("vc_depth must be non-zero".to_string());
        }
        if self.vc_depth > crate::vc::MAX_VC_DEPTH {
            return Err(format!(
                "vc_depth {} exceeds the validation bound MAX_VC_DEPTH = {}",
                self.vc_depth,
                crate::vc::MAX_VC_DEPTH
            ));
        }
        if self.link_width_bits == 0 {
            return Err("link_width_bits must be non-zero".to_string());
        }
        if self.dims.num_nodes() < 2 {
            return Err("mesh must have at least two nodes".to_string());
        }
        Ok(())
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::single_noc_512b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gating_constants() {
        let g = GatingConfig::paper();
        assert_eq!(g.t_wakeup, 10);
        assert_eq!(g.t_breakeven, 12);
        assert_eq!(g.t_idle_detect, 4);
    }

    #[test]
    fn presets_have_paper_router_params() {
        for cfg in [
            NetworkConfig::single_noc_512b(),
            NetworkConfig::single_noc_128b(),
            NetworkConfig::catnap_subnet_128b(),
        ] {
            assert_eq!(cfg.dims, MeshDims::new(8, 8));
            assert_eq!(cfg.vcs_per_port, 4);
            assert_eq!(cfg.vc_depth, 4);
            assert_eq!(cfg.port_capacity_flits(), 16);
            cfg.validate().unwrap();
        }
        assert_eq!(NetworkConfig::single_noc_512b().link_width_bits, 512);
        assert_eq!(NetworkConfig::catnap_subnet_128b().link_width_bits, 128);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(NetworkConfig::with_width(512).buffers(0, 4).validate().is_err());
        assert!(NetworkConfig::with_width(512).buffers(4, 0).validate().is_err());
        let mut cfg = NetworkConfig::with_width(512);
        cfg.link_width_bits = 0;
        assert!(cfg.validate().is_err());
        let one = NetworkConfig::with_width(512).dims(MeshDims::new(1, 1));
        assert!(one.validate().is_err());
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = NetworkConfig::with_width(256)
            .dims(MeshDims::new(4, 4))
            .gating_enabled(true)
            .buffers(2, 8);
        assert_eq!(cfg.link_width_bits, 256);
        assert_eq!(cfg.dims.num_nodes(), 16);
        assert!(cfg.gating_enabled);
        assert_eq!(cfg.port_capacity_flits(), 16);
    }
}
