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

/// What one power-gating unit covers, or no gating at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// No power gating: sleep requests are refused and every router
    /// stays on (baselines without power gating).
    Off,
    /// Whole-router gating (the paper's policies): one gating unit per
    /// router.
    Router,
    /// Fine-grained per-input-port gating (Matsutani et al., TCAD '11):
    /// five gating units per router, one per input port (its buffers and
    /// incoming link), while crossbar, control and clock stay powered.
    Port,
}

/// Static configuration of one physical network (one subnet).
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Mesh dimensions (paper: 8x8 concentrated mesh for 256 cores, 4x4 for
    /// 64 cores).
    pub dims: MeshDims,
    /// Virtual channels per input port (paper: 4; at most
    /// [`MAX_VCS`](crate::MAX_VCS)).
    pub vcs_per_port: usize,
    /// Buffer depth per virtual channel, in flits (paper: 4; constant
    /// across subnet widths because flits shrink with the datapath).
    pub vc_depth: usize,
    /// Power-gating timing parameters.
    pub gating: GatingConfig,
    /// Power-gating granularity.
    pub granularity: Granularity,
}

impl NetworkConfig {
    /// An 8x8 mesh with the paper's router parameters and power gating
    /// off. Datapath width does not enter the network model: flits are
    /// counted, and the network interface sizes packets into flits.
    pub fn paper() -> Self {
        NetworkConfig {
            dims: MeshDims::new(8, 8),
            vcs_per_port: 4,
            vc_depth: 4,
            gating: GatingConfig::paper(),
            granularity: Granularity::Off,
        }
    }

    /// Builder-style: sets mesh dimensions.
    pub fn dims(mut self, dims: MeshDims) -> Self {
        self.dims = dims;
        self
    }

    /// Builder-style: sets the power-gating granularity.
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Builder-style: sets VC count and depth.
    pub fn buffers(mut self, vcs: usize, depth: usize) -> Self {
        self.vcs_per_port = vcs;
        self.vc_depth = depth;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.vcs_per_port == 0 || self.vcs_per_port > crate::vc::MAX_VCS {
            return Err(format!(
                "vcs_per_port must be in 1..={}, got {}",
                crate::vc::MAX_VCS,
                self.vcs_per_port
            ));
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
        if self.dims.num_nodes() < 2 {
            return Err("mesh must have at least two nodes".to_string());
        }
        Ok(())
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::paper()
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
        let cfg = NetworkConfig::paper();
        assert_eq!(cfg.dims, MeshDims::new(8, 8));
        assert_eq!(cfg.vcs_per_port, 4);
        assert_eq!(cfg.vc_depth, 4);
        assert_eq!(cfg.granularity, Granularity::Off);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(NetworkConfig::paper().buffers(0, 4).validate().is_err());
        assert!(NetworkConfig::paper().buffers(8, 4).validate().is_ok());
        assert_eq!(
            NetworkConfig::paper().buffers(9, 4).validate(),
            Err("vcs_per_port must be in 1..=8, got 9".to_string())
        );
        assert!(NetworkConfig::paper().buffers(4, 0).validate().is_err());
        assert!(NetworkConfig::paper().buffers(4, 17).validate().is_err());
        let one = NetworkConfig::paper().dims(MeshDims::new(1, 1));
        assert!(one.validate().is_err());
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = NetworkConfig::paper()
            .dims(MeshDims::new(4, 4))
            .granularity(Granularity::Port)
            .buffers(2, 8);
        assert_eq!(cfg.dims.num_nodes(), 16);
        assert_eq!(cfg.granularity, Granularity::Port);
        assert_eq!((cfg.vcs_per_port, cfg.vc_depth), (2, 8));
    }
}
