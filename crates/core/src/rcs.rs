//! Regional congestion status (RCS): a 1-bit OR network per region.
//!
//! Local (per-node) congestion detection can be too slow to protect
//! lower-order subnets from oversubscription: back-pressure takes many
//! cycles to propagate to the injecting node, causing latency spikes under
//! non-uniform traffic. Catnap therefore aggregates the local congestion
//! status (LCS) bits of every node in a *region* (a 4x4 sub-grid of the
//! 8x8 mesh) through a 1-bit OR network, routed as an H-tree. SPICE
//! analysis puts its propagation delay at 2.7 ns — 6 cycles at 2 GHz — so
//! nodes latch a fresh regional value every 6 cycles; each switching event
//! costs 8.7 pJ (paper Section 4.1).

use catnap_noc::{NodeId, RegionId, RegionMap};
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// The per-subnet OR network aggregating LCS bits into per-region RCS
/// bits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrNetwork {
    regions: RegionMap,
    /// Latch period in cycles: the network latches on every cycle edge
    /// that is a multiple of it, counted from cycle 0.
    period: u32,
    /// Latched RCS value per region.
    latched: Vec<bool>,
    /// Change flags (either edge) from the most recent latch (consumed
    /// by telemetry to emit one event per RCS flip). Read only on a
    /// cycle that latches, and every latch rewrites them, so checkpoints
    /// do not store them.
    changed: Vec<bool>,
    /// Total bit-switching events (for OR-network energy accounting).
    switch_events: u64,
}

impl OrNetwork {
    /// Creates an OR network over the given region partition with the
    /// given update period in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(regions: RegionMap, period: u32) -> Self {
        assert!(period > 0, "update period must be non-zero");
        let n = regions.num_regions();
        OrNetwork {
            regions,
            period,
            latched: vec![false; n],
            changed: vec![false; n],
            switch_events: 0,
        }
    }

    /// The paper's configuration: quadrant regions, 6-cycle period.
    pub fn paper(regions: RegionMap) -> Self {
        OrNetwork::new(regions, 6)
    }

    /// The region partition.
    pub fn regions(&self) -> &RegionMap {
        &self.regions
    }

    /// Latched RCS of the region containing `node`.
    pub fn rcs_at(&self, node: NodeId) -> bool {
        self.latched[self.regions.region_of(node).index()]
    }

    /// Latched RCS of a region.
    pub fn rcs_of(&self, region: RegionId) -> bool {
        self.latched[region.index()]
    }

    /// Whether any region is congested.
    pub fn any(&self) -> bool {
        self.latched.iter().any(|&b| b)
    }

    /// Regions whose RCS changed (either edge) at the most recent latch.
    /// Only meaningful on a cycle where [`OrNetwork::tick`] returned
    /// `true`; the flags persist until the next latch.
    pub fn changed_regions(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.changed
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c)
            .map(|(i, _)| RegionId(i as u8))
    }

    /// Total OR-network switching events so far.
    pub fn switch_events(&self) -> u64 {
        self.switch_events
    }

    /// The OR network at cycle edge `cycle`: on a multiple of the
    /// period, samples the LCS of every node via `lcs(node)` and latches
    /// new per-region values. Returns `true` when it latched.
    pub fn tick<F: FnMut(NodeId) -> bool>(&mut self, cycle: u64, mut lcs: F) -> bool {
        if !cycle.is_multiple_of(u64::from(self.period)) {
            return false;
        }
        for i in 0..self.latched.len() {
            let region = RegionId(i as u8);
            let new = self.regions.nodes_in(region).any(&mut lcs);
            self.changed[i] = new != self.latched[i];
            if new != self.latched[i] {
                self.switch_events += 1;
            }
            self.latched[i] = new;
        }
        true
    }

    /// Serializes the OR network's mutable state (checkpointing). The
    /// region partition and period are functions of the configuration
    /// and are reconstructed by [`OrNetwork::decode`]; the clock gives
    /// the latch phase.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        for &b in &self.latched {
            w.put_bool(b);
        }
        w.put_u64(self.switch_events);
    }

    /// Rebuilds an OR network from [`OrNetwork::encode`] output over the
    /// given (configuration-derived) region partition and period.
    pub(crate) fn decode(r: &mut ByteReader<'_>, regions: RegionMap, period: u32) -> Result<Self, CodecError> {
        let mut or = OrNetwork::new(regions, period);
        for b in or.latched.iter_mut() {
            *b = r.get_bool()?;
        }
        or.switch_events = r.get_u64()?;
        Ok(or)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catnap_noc::MeshDims;

    fn quadrants() -> RegionMap {
        RegionMap::quadrants(MeshDims::new(8, 8))
    }

    #[test]
    fn latches_only_every_period() {
        let mut or = OrNetwork::paper(quadrants());
        let latched: Vec<u64> = (1..=30).filter(|&c| or.tick(c, |_| true)).collect();
        assert_eq!(latched, [6, 12, 18, 24, 30], "6-cycle period over 30 cycles");
    }

    #[test]
    fn rcs_is_or_over_region_nodes() {
        let mut or = OrNetwork::paper(quadrants());
        // Only node (0,0) congested: region 0 on, others off.
        for c in 1..=6 {
            or.tick(c, |n| n == NodeId(0));
        }
        assert!(or.rcs_at(NodeId(0)));
        assert!(or.rcs_at(NodeId(27)), "node (3,3) shares region 0");
        assert!(!or.rcs_at(NodeId(63)), "far quadrant unaffected");
        assert!(or.any());
    }

    #[test]
    fn update_has_latency() {
        let mut or = OrNetwork::paper(quadrants());
        // Congestion appears at cycle 1 but is only visible at the next
        // latch point.
        or.tick(1, |_| true);
        assert!(!or.any(), "RCS must lag by the propagation delay");
        for c in 2..=6 {
            or.tick(c, |_| true);
        }
        assert!(or.any());
    }

    #[test]
    fn switch_events_count_transitions() {
        let mut or = OrNetwork::new(quadrants(), 1);
        or.tick(1, |_| true); // 4 regions rise
        or.tick(2, |_| true); // stable
        or.tick(3, |_| false); // 4 regions fall
        assert_eq!(or.switch_events(), 8);
    }

    #[test]
    fn changed_regions_report_both_edges() {
        let mut or = OrNetwork::new(quadrants(), 1);
        or.tick(1, |n| n == NodeId(0));
        assert_eq!(or.changed_regions().count(), 1, "rise is a change");
        or.tick(2, |n| n == NodeId(0));
        assert_eq!(or.changed_regions().count(), 0, "level-stable");
        or.tick(3, |_| false);
        let changed: Vec<RegionId> = or.changed_regions().collect();
        assert_eq!(changed, vec![RegionId(0)], "fall is a change too");
    }

    #[test]
    fn global_region_map_degenerates_to_global_detector() {
        let mut or = OrNetwork::new(RegionMap::global(MeshDims::new(8, 8)), 1);
        or.tick(1, |n| n == NodeId(63));
        assert!(or.rcs_at(NodeId(0)), "global region: any LCS sets everyone's RCS");
    }

    #[test]
    #[should_panic]
    fn zero_period_panics() {
        OrNetwork::new(quadrants(), 0);
    }
}
