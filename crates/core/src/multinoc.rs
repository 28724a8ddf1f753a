//! The Catnap Multi-NoC: K subnet networks behind shared per-node NIs,
//! driven by the subnet-selection, congestion-detection and power-gating
//! policies.

use crate::config::{MultiNocConfig, RegionMode, SelectorKind};
use crate::congestion::{CongestionMetric, LocalDetector, NodeSignals};
use crate::ni::NodeNi;
use crate::rcs::OrNetwork;
use crate::select::{congestion_mask, CatnapPriority, RandomSelect, RoundRobin, SubnetSelector};
use catnap_noc::checkpoint::{get_flit, put_flit};
use catnap_noc::quiescence::{Quiescence, QuiescenceTracker};
use catnap_noc::stats::{GatingActivity, RouterActivity};
use catnap_noc::{Flit, MeshDims, Network, NodeId, PacketDescriptor, RegionMap};
use catnap_telemetry::{Event, NopSink, Sink, SinkScope, Trace, TraceMeta};
use catnap_traffic::generator::{PacketSink, TrafficSource};
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// A multiple network-on-chip with Catnap policies.
///
/// Drive it by submitting packets — it implements
/// [`catnap_traffic::generator::PacketSink`] — and calling
/// [`MultiNoc::step`] once per cycle; read results via
/// [`MultiNoc::snapshot`] / [`MultiNoc::finish`].
///
/// Like [`Network`], the design is generic over a telemetry [`Sink`]
/// (default [`NopSink`], compiled to nothing). [`MultiNoc::with_sinks`]
/// attaches one sink per [`SinkScope`] — the policy layer plus one per
/// subnet — and [`MultiNoc::take_trace`] merges them into a [`Trace`]
/// for the exporters.
pub struct MultiNoc<S: Sink = NopSink> {
    cfg: MultiNocConfig,
    subnets: Vec<Network<S>>,
    nis: Vec<NodeNi>,
    detectors: Vec<Vec<LocalDetector>>,
    lcs: Vec<Vec<bool>>,
    or_nets: Vec<OrNetwork>,
    selector: Box<dyn SubnetSelector + Send>,
    cycle: u64,
    generated_packets: u64,
    delivered_packets: u64,
    delivered_flits: u64,
    latency_sum: u64,
    latency_max: u64,
    ejected_flits_per_subnet: Vec<u64>,
    injected_flits_per_subnet: Vec<u64>,
    delivered_tails: Vec<catnap_noc::Flit>,
    track_deliveries: bool,
    /// Cycles each node's NI-queue head has waited behind a busy slot.
    head_wait: Vec<u32>,
    /// Whether each NI is on the busy worklist (`busy_nis`).
    ni_busy: Vec<bool>,
    /// Indices of NIs with pending work, kept sorted ascending so the
    /// per-NI phase visits them in node order (the subnet selector draws
    /// from one RNG in visit order, so order is load-bearing). An NI
    /// joins at `submit` and leaves at the end of a cycle that observes
    /// it idle — the exact condition under which its per-cycle body is a
    /// no-op. Ignored under forced full stepping (the canonical
    /// all-nodes scan runs instead).
    busy_nis: Vec<u32>,
    /// Per-subnet count of set local-congestion bits (`lcs[s]`), so the
    /// detector and OR-network elisions can test "all clear" in O(1).
    lcs_set: Vec<usize>,
    /// Reusable buffer for per-subnet ejection drains (no per-cycle
    /// allocation).
    eject_buf: Vec<(NodeId, Flit)>,
    /// Reusable per-subnet congestion mask handed to the selector.
    congested_buf: Vec<bool>,
    /// Per-subnet quiescence trackers driving `step_until`'s multi-cycle
    /// fast-forward.
    trackers: Vec<QuiescenceTracker>,
    /// When true, `step_until` never fast-forwards (the audited
    /// cycle-by-cycle escape hatch, see
    /// [`MultiNoc::set_force_full_step`]).
    force_full: bool,
    /// Fast-forward invocations so far.
    skips: u64,
    /// Cycles covered by fast-forwards (also counted in `cycle`).
    skipped_cycles: u64,
    /// Sink for policy-layer events (selection, congestion flips,
    /// packet lifecycle); the subnets carry their own.
    policy_sink: S,
}

impl MultiNoc {
    /// Builds a Multi-NoC from a validated configuration, without
    /// telemetry (the [`NopSink`] monomorphization).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: MultiNocConfig) -> Self {
        MultiNoc::with_sinks(cfg, |_| NopSink)
    }
}

impl<S: Sink> MultiNoc<S> {
    /// Builds a Multi-NoC with one telemetry sink per scope: the factory
    /// is called once with [`SinkScope::Policy`] and once per subnet
    /// with [`SinkScope::Subnet`]; collect them merged via
    /// [`MultiNoc::take_trace`].
    ///
    /// Telemetry is observation-only: runs are bit-identical with any
    /// sink (the determinism suite asserts this against the goldens).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_sinks(cfg: MultiNocConfig, mut sinks: impl FnMut(SinkScope) -> S) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid MultiNoc configuration: {e}");
        }
        let k = cfg.subnets;
        let nodes = cfg.dims.num_nodes();
        let subnets: Vec<Network<S>> = (0..k)
            .map(|s| Network::with_sink(cfg.subnet_config(), sinks(SinkScope::Subnet(s))))
            .collect();
        let nis = cfg
            .dims
            .nodes()
            .map(|n| NodeNi::new(n, k, cfg.subnet_width_bits, cfg.ni_queue_flits))
            .collect();
        let region_map = match cfg.region_mode {
            RegionMode::Quadrants => RegionMap::quadrants(cfg.dims),
            RegionMode::Global => RegionMap::global(cfg.dims),
            RegionMode::PerNode => RegionMap::per_node(cfg.dims),
        };
        let or_nets = (0..k).map(|_| OrNetwork::new(region_map.clone(), cfg.rcs_period)).collect();
        let selector: Box<dyn SubnetSelector + Send> = match cfg.selector {
            SelectorKind::RoundRobin => Box::new(RoundRobin::new(nodes)),
            SelectorKind::Random => Box::new(RandomSelect::new(cfg.seed)),
            SelectorKind::CatnapPriority => Box::new(CatnapPriority::new(nodes)),
        };
        MultiNoc {
            subnets,
            nis,
            detectors: vec![vec![LocalDetector::default(); nodes]; k],
            lcs: vec![vec![false; nodes]; k],
            or_nets,
            selector,
            cycle: 0,
            generated_packets: 0,
            delivered_packets: 0,
            delivered_flits: 0,
            latency_sum: 0,
            latency_max: 0,
            ejected_flits_per_subnet: vec![0; k],
            injected_flits_per_subnet: vec![0; k],
            delivered_tails: Vec::new(),
            track_deliveries: false,
            head_wait: vec![0; nodes],
            ni_busy: vec![false; nodes],
            busy_nis: Vec::new(),
            lcs_set: vec![0; k],
            eject_buf: Vec::new(),
            congested_buf: Vec::with_capacity(k),
            trackers: vec![QuiescenceTracker::new(); k],
            force_full: false,
            skips: 0,
            skipped_cycles: 0,
            policy_sink: sinks(SinkScope::Policy),
            cfg,
        }
    }

    /// Collects everything recorded so far into a [`Trace`], leaving the
    /// sinks empty. The meta block captures the run parameters the
    /// exporters need (mesh shape, subnet count, cycles simulated).
    pub fn take_trace(&mut self) -> Trace {
        let meta = TraceMeta {
            name: self.cfg.name.clone(),
            cols: self.cfg.dims.cols,
            rows: self.cfg.dims.rows,
            subnets: self.cfg.subnets,
            cycles: self.cycle,
            selector: self.selector.name().to_string(),
            gating: self.cfg.gating_policy.name().to_string(),
        };
        Trace {
            meta,
            policy: self.policy_sink.drain(),
            subnets: self.subnets.iter_mut().map(|n| n.take_events()).collect(),
        }
    }

    /// Subnet-phase counters in the shape the benchmark package reads:
    /// every cycle steps its subnets serially, so `phase_serial` equals
    /// `cycles` and the parallel and pool counters stay zero.
    pub fn dispatch_stats(&self) -> DispatchStats {
        DispatchStats {
            cycles: self.cycle,
            phase_serial: self.cycle,
            ..DispatchStats::default()
        }
    }

    /// Disables (or re-enables) *every* cycle-skipping shortcut: the
    /// drained-router fast path in each subnet (see
    /// [`Network::set_force_full_step`]) **and** the multi-cycle
    /// fast-forward of [`MultiNoc::step_until`]. One switch is the single
    /// audited escape hatch — forcing full stepping must leave no skip
    /// machinery engaged anywhere. Results are bit-identical either way.
    pub fn set_force_full_step(&mut self, force: bool) {
        self.force_full = force;
        for net in &mut self.subnets {
            net.set_force_full_step(force);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MultiNocConfig {
        &self.cfg
    }

    /// Mesh dimensions.
    pub fn dims(&self) -> MeshDims {
        self.cfg.dims
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of subnets.
    pub fn num_subnets(&self) -> usize {
        self.cfg.subnets
    }

    /// Read access to one subnet network.
    pub fn subnet(&self, s: usize) -> &Network<S> {
        &self.subnets[s]
    }

    /// The node's current congestion view of subnet `s`: local status OR
    /// (if enabled) regional status — exactly what the NI consults before
    /// injecting (Section 3.2.1).
    pub fn congestion_view(&self, s: usize, node: NodeId) -> bool {
        self.lcs[s][node.index()] || (self.cfg.use_rcs && self.or_nets[s].rcs_at(node))
    }

    /// Latched regional congestion status of subnet `s` at `node`.
    pub fn rcs(&self, s: usize, node: NodeId) -> bool {
        self.or_nets[s].rcs_at(node)
    }

    /// One NI's per-cycle body: refill, subnet assignment, injection.
    /// For an idle NI (empty queues, no in-flight slot, zero head wait)
    /// this is an exact no-op — which is what lets the busy worklist
    /// skip idle NIs without perturbing anything.
    fn ni_cycle(&mut self, idx: usize) {
        let k = self.cfg.subnets;
        let node = NodeId(idx as u16);
        self.nis[idx].refill();
        if self.nis[idx].head_waiting() {
            // A subnet is unattractive if it looks congested (local or
            // regional status), or — under the NI spill rule — if its
            // injection slot has been busy for too long while this
            // head waited (injection-bandwidth congestion that router
            // buffers cannot reveal).
            let spill = self.cfg.spill_wait_cycles;
            let stuck = spill > 0 && self.head_wait[idx] >= spill;
            self.congested_buf.clear();
            for s in 0..k {
                let c = self.congestion_view(s, node) || (stuck && !self.nis[idx].slot_free(s));
                self.congested_buf.push(c);
            }
            let s = self.selector.select(idx, &self.congested_buf);
            if self.nis[idx].slot_free(s) {
                if S::ENABLED {
                    self.policy_sink.record(Event::Select {
                        cycle: self.cycle,
                        node: idx as u16,
                        subnet: s as u8,
                        congested_mask: congestion_mask(&self.congested_buf),
                    });
                    if let Some(desc) = self.nis[idx].head_packet() {
                        self.policy_sink.record(Event::PacketInject {
                            cycle: self.cycle,
                            id: desc.id.0,
                            subnet: s as u8,
                            src: desc.src.0,
                            dst: desc.dst.0,
                        });
                    }
                }
                self.nis[idx].start_head_packet(s);
                self.head_wait[idx] = 0;
            } else {
                self.head_wait[idx] = self.head_wait[idx].saturating_add(1);
            }
        } else {
            self.head_wait[idx] = 0;
        }
        for s in 0..k {
            self.nis[idx].inject_into(s, &mut self.subnets[s]);
        }
    }

    /// Whether this cycle's detector sweep over subnet `s` is a provable
    /// no-op that may be skipped. Holds only for the memoryless
    /// hysteresis metrics observing an all-zero sample against an
    /// all-clear status vector — and only with a non-degenerate set
    /// threshold (a `set` of zero would latch congestion on a zero
    /// sample). The windowed metrics (InjectionRate, Delay) mutate their
    /// window position every cycle and are never skipped.
    fn detector_sweep_elidable(&self, s: usize) -> bool {
        if self.force_full || self.lcs_set[s] != 0 {
            return false;
        }
        match self.cfg.metric {
            // Zero buffer occupancy everywhere: guaranteed by every
            // router of the subnet being drained (flits still on links
            // are invisible to port occupancy until delivered).
            CongestionMetric::Bfm { set, .. } => set > 0 && self.subnets[s].all_drained(),
            CongestionMetric::Bfa { set, .. } => set > 0.0 && self.subnets[s].all_drained(),
            // Zero NI-queue occupancy everywhere: guaranteed by an empty
            // busy worklist (every NI idle).
            CongestionMetric::IqOcc { set, .. } => set > 0 && self.busy_nis.is_empty(),
            CongestionMetric::InjectionRate { .. } | CongestionMetric::Delay { .. } => false,
        }
    }

    /// Advances the whole design by one cycle.
    pub fn step(&mut self) {
        let k = self.cfg.subnets;

        // --- Network interfaces: refill, subnet assignment, injection ---
        if self.force_full {
            for idx in 0..self.nis.len() {
                self.ni_cycle(idx);
            }
        } else {
            // Only NIs with pending work; their per-cycle body is the
            // identity for the rest. Worklist drops happen at the end of
            // the cycle (after injection counters are consumed).
            let list = std::mem::take(&mut self.busy_nis);
            for &idxu in &list {
                self.ni_cycle(idxu as usize);
            }
            self.busy_nis = list;
        }

        // --- Power-gating policy ---
        self.cfg
            .gating_policy
            .apply(self.cfg.dims, &mut self.subnets, &self.or_nets, &self.nis);

        // --- Step every subnet ---
        // Each `Network::step` is self-contained (no cross-subnet state,
        // no RNG); all cross-subnet coupling (NIs, policies, detectors,
        // OR networks) happens around this point.
        for net in &mut self.subnets {
            net.step();
        }
        self.cycle = self.subnets[0].cycle();

        // --- Ejection and latency accounting ---
        for s in 0..k {
            self.eject_buf.clear();
            self.subnets[s].drain_ejected_into(&mut self.eject_buf);
            for &(node, flit) in &self.eject_buf {
                self.ejected_flits_per_subnet[s] += 1;
                self.delivered_flits += 1;
                if flit.kind.is_tail() {
                    self.delivered_packets += 1;
                    let lat = self.cycle.saturating_sub(flit.created_cycle);
                    self.latency_sum += lat;
                    self.latency_max = self.latency_max.max(lat);
                    if S::ENABLED {
                        self.policy_sink.record(Event::PacketEject {
                            cycle: self.cycle,
                            id: flit.packet.0,
                            subnet: s as u8,
                            dst: node.0,
                            latency: lat.min(u64::from(u32::MAX)) as u32,
                        });
                    }
                    if self.track_deliveries {
                        self.delivered_tails.push(flit);
                    }
                }
            }
        }

        // --- Local congestion detection (post-step state) ---
        for s in 0..k {
            if self.detector_sweep_elidable(s) {
                continue;
            }
            for idx in 0..self.nis.len() {
                let node = NodeId(idx as u16);
                let signals = NodeSignals {
                    ni_queue_flits: self.nis[idx].ni_queue_occupancy_flits(),
                    injected_flits_this_cycle: self.nis[idx].injected_flits_this_cycle[s],
                };
                let det = &mut self.detectors[s][idx];
                det.update(&self.cfg.metric, self.subnets[s].router(node), &signals);
                let now = det.is_congested();
                if now != self.lcs[s][idx] {
                    if now {
                        self.lcs_set[s] += 1;
                    } else {
                        self.lcs_set[s] -= 1;
                    }
                    if S::ENABLED {
                        self.policy_sink.record(Event::Lcs {
                            cycle: self.cycle,
                            subnet: s as u8,
                            node: idx as u16,
                            on: now,
                        });
                    }
                }
                self.lcs[s][idx] = now;
            }
        }
        if self.force_full {
            for ni in self.nis.iter_mut() {
                for (s, &flits) in ni.injected_flits_this_cycle.iter().enumerate() {
                    self.injected_flits_per_subnet[s] += u64::from(flits);
                }
                ni.end_cycle();
            }
        } else {
            // Only busy NIs can have injected this cycle; this is also
            // where NIs observed idle leave the worklist (after their
            // counters were consumed by the detectors above).
            let mut list = std::mem::take(&mut self.busy_nis);
            list.retain(|&idxu| {
                let ni = &mut self.nis[idxu as usize];
                for (s, &flits) in ni.injected_flits_this_cycle.iter().enumerate() {
                    self.injected_flits_per_subnet[s] += u64::from(flits);
                }
                ni.end_cycle();
                let keep = !ni.is_idle();
                if !keep {
                    self.ni_busy[idxu as usize] = false;
                }
                keep
            });
            self.busy_nis = list;
        }

        // --- Regional OR networks ---
        for s in 0..k {
            let lcs = &self.lcs[s];
            if !self.force_full && self.lcs_set[s] == 0 && !self.or_nets[s].any() {
                // All-false sample into an all-clear network: a latch (if
                // one falls here) observes no set bit and reports no
                // change, so only the countdown moves — which the
                // one-cycle closed form reproduces exactly.
                self.or_nets[s].fast_forward(1);
                continue;
            }
            let latched = self.or_nets[s].tick(|n| lcs[n.index()]);
            if S::ENABLED && latched {
                for region in self.or_nets[s].changed_regions() {
                    self.policy_sink.record(Event::Rcs {
                        cycle: self.cycle,
                        subnet: s as u8,
                        region: region.0,
                        on: self.or_nets[s].rcs_of(region),
                    });
                }
            }
        }
    }

    /// Drives the whole system to `target_cycle` with `source`, skipping
    /// quiescent stretches in closed form.
    ///
    /// Bit-identical to the canonical per-cycle loop
    /// `while cycle < target { source.drive(net); net.step(); }`: every
    /// cycle with any activity — flits in flight, power-state countdowns
    /// about to expire, gate-ripe routers, congestion windows carrying
    /// history, packet arrivals — is stepped normally; only stretches
    /// where *every* intervening cycle is a provable no-op are replaced
    /// by one [`MultiNoc::fast_forward`]. The skip horizon is the
    /// minimum over the per-subnet [`QuiescenceTracker`] horizons, the
    /// per-node congestion-detector bounds, and the traffic source's
    /// [`TrafficSource::next_arrival_cycle`].
    ///
    /// [`MultiNoc::set_force_full_step`] disables the fast-forward
    /// entirely (the audited baseline for equivalence checks).
    pub fn step_until<T: TrafficSource>(&mut self, source: &mut T, target_cycle: u64) {
        while self.cycle < target_cycle {
            source.drive(self);
            if !self.force_full {
                let horizon = self.assess_skip();
                if horizon >= 2 {
                    let next_arrival = source.next_arrival_cycle(self.cycle + 1, target_cycle);
                    let dt = horizon.min(next_arrival - self.cycle);
                    // Landing exactly on the arrival cycle is fine: its
                    // drive() runs at the top of the next iteration,
                    // before anything else observes the cycle.
                    if dt >= 2 {
                        self.fast_forward(dt);
                        continue;
                    }
                }
            }
            self.step();
        }
    }

    /// Whether the whole system is quiescent: no packet queued or in
    /// flight anywhere, and every congestion status bit (local and
    /// latched regional) clear. In this state a cycle can only change
    /// power-state counters.
    pub fn is_quiescent(&self) -> bool {
        self.packets_outstanding() == 0
            && self.lcs_set.iter().all(|&c| c == 0)
            && self.or_nets.iter().all(|or| !or.any())
    }

    /// How many cycles may be fast-forwarded from the current state: 0
    /// when anything is busy, else the minimum over subnet horizons and
    /// detector window bounds (arrival times are the caller's concern).
    fn assess_skip(&mut self) -> u64 {
        if !self.is_quiescent() {
            return 0;
        }
        debug_assert!(
            self.nis.iter().all(NodeNi::is_idle),
            "no outstanding packets but an NI is busy"
        );
        debug_assert!(
            self.head_wait.iter().all(|&w| w == 0),
            "quiescent NIs cannot have waiting heads"
        );
        let mut dt = u64::MAX;
        for s in 0..self.cfg.subnets {
            let may_sleep = self.cfg.gating_policy.subnet_gateable(s);
            match self.trackers[s].assess(&self.subnets[s], may_sleep) {
                Quiescence::Busy => return 0,
                Quiescence::QuietFor(h) => dt = dt.min(h),
            }
            if dt == 0 {
                return 0;
            }
            for idx in 0..self.nis.len() {
                let router = self.subnets[s].router(NodeId(idx as u16));
                dt = dt.min(self.detectors[s][idx].skip_bound(&self.cfg.metric, router));
                if dt == 0 {
                    return 0;
                }
            }
        }
        dt
    }

    /// Advances the whole system `dt` cycles in closed form — O(routers)
    /// arithmetic instead of `dt` full steps. Callers must have
    /// established that the skip is safe (see
    /// [`MultiNoc::step_until`]); debug builds verify the precondition
    /// and, for skips up to [`catnap_noc::SHADOW_REPLAY_MAX`] cycles,
    /// shadow-replay the detectors and OR networks cycle-by-cycle and
    /// compare.
    pub fn fast_forward(&mut self, dt: u64) {
        if dt == 0 {
            return;
        }
        debug_assert!(self.is_quiescent(), "fast-forward of a non-quiescent system");
        #[cfg(debug_assertions)]
        let shadow = (dt <= catnap_noc::SHADOW_REPLAY_MAX).then(|| (self.detectors.clone(), self.or_nets.clone()));
        for net in &mut self.subnets {
            net.fast_forward(dt);
        }
        self.cycle = self.subnets[0].cycle();
        for s in 0..self.cfg.subnets {
            for det in &mut self.detectors[s] {
                det.fast_forward(&self.cfg.metric, dt);
            }
            self.or_nets[s].fast_forward(dt);
        }
        self.skips += 1;
        self.skipped_cycles += dt;
        #[cfg(debug_assertions)]
        if let Some((mut dets, mut ors)) = shadow {
            // Idle routers are static in everything a detector reads
            // (occupancy, cumulative activity), so replaying against the
            // post-skip router observes the same values every cycle.
            for s in 0..self.cfg.subnets {
                for (idx, det) in dets[s].iter_mut().enumerate() {
                    let router = self.subnets[s].router(NodeId(idx as u16));
                    for _ in 0..dt {
                        det.update(&self.cfg.metric, router, &NodeSignals::default());
                    }
                }
                for _ in 0..dt {
                    ors[s].tick(|_| false);
                }
            }
            debug_assert_eq!(
                dets, self.detectors,
                "detector closed form diverged from per-cycle replay"
            );
            debug_assert_eq!(
                ors, self.or_nets,
                "OR-network closed form diverged from per-cycle replay"
            );
        }
    }

    /// Fast-forward effectiveness counters (all zero unless
    /// [`MultiNoc::step_until`] skipped something).
    pub fn skip_stats(&self) -> SkipStats {
        SkipStats {
            skips: self.skips,
            skipped_cycles: self.skipped_cycles,
            assessments: self.trackers.iter().map(QuiescenceTracker::assessments).sum(),
            quiescent_assessments: self.trackers.iter().map(QuiescenceTracker::quiescent_hits).sum(),
        }
    }

    /// Enables per-packet delivery tracking (off by default so open-loop
    /// runs don't accumulate an unbounded buffer).
    pub fn set_track_deliveries(&mut self, on: bool) {
        self.track_deliveries = on;
    }

    /// Drains the tail flits of packets delivered since the last call
    /// (the closed-loop multicore substrate uses these to advance
    /// coherence transactions). Requires
    /// [`MultiNoc::set_track_deliveries`] to have been enabled.
    pub fn drain_delivered(&mut self) -> Vec<catnap_noc::Flit> {
        std::mem::take(&mut self.delivered_tails)
    }

    /// Cumulative counters at this instant (diff two snapshots for
    /// windowed measurements).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cycle: self.cycle,
            generated_packets: self.generated_packets,
            delivered_packets: self.delivered_packets,
            delivered_flits: self.delivered_flits,
            latency_sum: self.latency_sum,
            ejected_flits_per_subnet: self.ejected_flits_per_subnet.clone(),
            injected_flits_per_subnet: self.injected_flits_per_subnet.clone(),
            activity_per_subnet: self.subnets.iter().map(|n| n.total_activity()).collect(),
            gating_per_subnet: self.subnets.iter().map(|n| n.total_gating()).collect(),
            or_switch_events: self.or_nets.iter().map(OrNetwork::switch_events).sum(),
        }
    }

    /// Number of packets still queued or in flight.
    pub fn packets_outstanding(&self) -> u64 {
        self.generated_packets - self.delivered_packets
    }

    /// Routers currently active / sleeping / waking, summed over subnets.
    pub fn power_state_census(&self) -> (usize, usize, usize) {
        self.subnets
            .iter()
            .map(|n| n.power_state_census())
            .fold((0, 0, 0), |(a, s, w), (a2, s2, w2)| (a + a2, s + s2, w + w2))
    }

    /// Serializes the complete simulation state (checkpointing). Must be
    /// called at a cycle edge — after a [`MultiNoc::step`], before the
    /// next cycle's traffic drive. The configuration itself is not part
    /// of the stream; [`MultiNoc::load_state`] overlays onto a fresh
    /// instance of the *same* configuration (the public checkpoint
    /// container in [`crate::checkpoint`] guards that with a
    /// fingerprint). Telemetry sinks are not captured: a resumed
    /// recording sink starts empty and its suffix matches a
    /// straight-through run's suffix bit for bit.
    pub(crate) fn save_state(&mut self, w: &mut ByteWriter) {
        let k = self.cfg.subnets;
        w.put_u64(self.cycle);
        w.put_u64(self.generated_packets);
        w.put_u64(self.delivered_packets);
        w.put_u64(self.delivered_flits);
        w.put_u64(self.latency_sum);
        w.put_u64(self.latency_max);
        for s in 0..k {
            w.put_u64(self.ejected_flits_per_subnet[s]);
            w.put_u64(self.injected_flits_per_subnet[s]);
        }
        w.put_bool(self.track_deliveries);
        w.put_usize(self.delivered_tails.len());
        for f in &self.delivered_tails {
            put_flit(w, f);
        }
        for &hw in &self.head_wait {
            w.put_u32(hw);
        }
        w.put_usize(self.busy_nis.len());
        for &idx in &self.busy_nis {
            w.put_u32(idx);
        }
        for s in 0..k {
            for &b in &self.lcs[s] {
                w.put_bool(b);
            }
            for det in &self.detectors[s] {
                det.encode(w);
            }
            self.or_nets[s].encode(w);
            w.put_u64(self.trackers[s].assessments());
            w.put_u64(self.trackers[s].quiescent_hits());
        }
        self.selector.encode_state(w);
        w.put_bool(self.force_full);
        w.put_u64(self.skips);
        w.put_u64(self.skipped_cycles);
        for net in &mut self.subnets {
            net.save_state(w);
        }
        for ni in &self.nis {
            ni.encode(w);
        }
    }

    /// Overlays serialized state from [`MultiNoc::save_state`] onto this
    /// freshly-built instance (same configuration). Derived structures —
    /// the per-subnet set-bit censuses, the busy-NI membership flags,
    /// scratch buffers — are recomputed, never deserialized.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a truncated or inconsistent stream; the
    /// instance must then be discarded.
    pub(crate) fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let k = self.cfg.subnets;
        let nodes = self.cfg.dims.num_nodes();
        self.cycle = r.get_u64()?;
        self.generated_packets = r.get_u64()?;
        self.delivered_packets = r.get_u64()?;
        self.delivered_flits = r.get_u64()?;
        self.latency_sum = r.get_u64()?;
        self.latency_max = r.get_u64()?;
        for s in 0..k {
            self.ejected_flits_per_subnet[s] = r.get_u64()?;
            self.injected_flits_per_subnet[s] = r.get_u64()?;
        }
        self.track_deliveries = r.get_bool()?;
        let tails = r.get_usize()?;
        if tails > 1 << 24 {
            return Err(CodecError::Invalid("delivery buffer implausibly large"));
        }
        self.delivered_tails.clear();
        for _ in 0..tails {
            self.delivered_tails.push(get_flit(r)?);
        }
        for hw in self.head_wait.iter_mut() {
            *hw = r.get_u32()?;
        }
        let busy = r.get_usize()?;
        if busy > nodes {
            return Err(CodecError::Invalid("busy worklist larger than the mesh"));
        }
        self.busy_nis.clear();
        self.ni_busy = vec![false; nodes];
        for _ in 0..busy {
            let idx = r.get_u32()?;
            if idx as usize >= nodes {
                return Err(CodecError::Invalid("busy NI index out of range"));
            }
            if self.busy_nis.last().is_some_and(|&prev| prev >= idx) {
                return Err(CodecError::Invalid("busy worklist not sorted"));
            }
            self.busy_nis.push(idx);
            self.ni_busy[idx as usize] = true;
        }
        for s in 0..k {
            self.lcs_set[s] = 0;
            for idx in 0..nodes {
                let on = r.get_bool()?;
                self.lcs[s][idx] = on;
                if on {
                    self.lcs_set[s] += 1;
                }
            }
            for det in self.detectors[s].iter_mut() {
                *det = LocalDetector::decode(r)?;
            }
            self.or_nets[s] = OrNetwork::decode(r, self.or_nets[s].regions().clone(), self.cfg.rcs_period)?;
            let assessments = r.get_u64()?;
            let hits = r.get_u64()?;
            if hits > assessments {
                return Err(CodecError::Invalid("quiescence counters inconsistent"));
            }
            self.trackers[s] = QuiescenceTracker::from_counters(assessments, hits);
        }
        self.selector.decode_state(r)?;
        self.force_full = r.get_bool()?;
        self.skips = r.get_u64()?;
        self.skipped_cycles = r.get_u64()?;
        for net in self.subnets.iter_mut() {
            net.load_state(r)?;
        }
        for idx in 0..nodes {
            self.nis[idx] = crate::ni::NodeNi::decode(
                r,
                NodeId(idx as u16),
                k,
                self.cfg.subnet_width_bits,
                self.cfg.ni_queue_flits,
            )?;
        }
        if self.generated_packets < self.delivered_packets {
            return Err(CodecError::Invalid("delivered more packets than generated"));
        }
        self.eject_buf.clear();
        self.congested_buf.clear();
        Ok(())
    }

    /// Finalizes gating accounting and produces the run report.
    pub fn finish(&mut self) -> RunReport {
        for net in &mut self.subnets {
            net.finalize();
        }
        let snap = self.snapshot();
        let gating = snap
            .gating_per_subnet
            .iter()
            .fold(GatingActivity::default(), |acc, g| acc.merged(*g));
        let nodes = self.cfg.dims.num_nodes() as f64;
        let cycles = self.cycle.max(1) as f64;
        let inj_total: u64 = snap.injected_flits_per_subnet.iter().sum();
        let utilization = snap
            .injected_flits_per_subnet
            .iter()
            .map(|&f| {
                if inj_total == 0 {
                    0.0
                } else {
                    f as f64 / inj_total as f64
                }
            })
            .collect();
        RunReport {
            name: self.cfg.name.clone(),
            cycles: self.cycle,
            packets_generated: self.generated_packets,
            packets_delivered: self.delivered_packets,
            avg_packet_latency: if self.delivered_packets == 0 {
                0.0
            } else {
                self.latency_sum as f64 / self.delivered_packets as f64
            },
            max_packet_latency: self.latency_max,
            accepted_packets_per_node_cycle: self.delivered_packets as f64 / (nodes * cycles),
            accepted_flits_per_node_cycle: self.delivered_flits as f64 / (nodes * cycles),
            csc_fraction: gating.csc_fraction(),
            sleep_transitions: gating.sleep_transitions,
            subnet_utilization: utilization,
        }
    }
}

impl<S: Sink> PacketSink for MultiNoc<S> {
    fn now(&self) -> u64 {
        self.cycle
    }

    fn submit(&mut self, desc: PacketDescriptor) {
        self.generated_packets += 1;
        let idx = desc.src.index();
        if !self.ni_busy[idx] {
            self.ni_busy[idx] = true;
            let pos = self.busy_nis.partition_point(|&i| (i as usize) < idx);
            self.busy_nis.insert(pos, idx as u32);
        }
        self.nis[idx].submit(desc);
    }
}

impl<S: Sink> std::fmt::Debug for MultiNoc<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiNoc")
            .field("name", &self.cfg.name)
            .field("cycle", &self.cycle)
            .field("generated", &self.generated_packets)
            .field("delivered", &self.delivered_packets)
            .finish_non_exhaustive()
    }
}

/// Fast-forward effectiveness counters of a [`MultiNoc`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkipStats {
    /// Fast-forward invocations.
    pub skips: u64,
    /// Total cycles covered by fast-forwards.
    pub skipped_cycles: u64,
    /// Per-subnet quiescence assessments made (summed over subnets).
    pub assessments: u64,
    /// Assessments that found the subnet quiescent.
    pub quiescent_assessments: u64,
}

/// Subnet-phase and pool counters of a [`MultiNoc`] run
/// ([`MultiNoc::dispatch_stats`]). Subnets always step serially, so only
/// `cycles` and `phase_serial` move; the struct stays only because the
/// benchmark package reads these seven fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Cycles simulated so far.
    pub cycles: u64,
    /// Cycles whose subnets stepped serially.
    pub phase_serial: u64,
    /// Cycles whose subnets stepped in parallel (always 0).
    pub phase_parallel: u64,
    /// Pool jobs run (always 0).
    pub pool_jobs_run: u64,
    /// Pool steals (always 0).
    pub pool_steals: u64,
    /// Failed pool steal scans (always 0).
    pub pool_failed_steals: u64,
    /// Pool condvar parks (always 0).
    pub pool_park_waits: u64,
}

/// Cumulative counters of a [`MultiNoc`] at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Cycle the snapshot was taken at.
    pub cycle: u64,
    /// Packets submitted.
    pub generated_packets: u64,
    /// Packets fully delivered.
    pub delivered_packets: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Sum of end-to-end packet latencies.
    pub latency_sum: u64,
    /// Flits ejected per subnet.
    pub ejected_flits_per_subnet: Vec<u64>,
    /// Flits injected per subnet.
    pub injected_flits_per_subnet: Vec<u64>,
    /// Router event counters summed per subnet.
    pub activity_per_subnet: Vec<RouterActivity>,
    /// Gating residency summed per subnet.
    pub gating_per_subnet: Vec<GatingActivity>,
    /// OR-network switching events (all subnets).
    pub or_switch_events: u64,
}

impl Snapshot {
    /// An all-zero snapshot for `k` subnets (the start of a run).
    pub fn zero(k: usize) -> Self {
        Snapshot {
            cycle: 0,
            generated_packets: 0,
            delivered_packets: 0,
            delivered_flits: 0,
            latency_sum: 0,
            ejected_flits_per_subnet: vec![0; k],
            injected_flits_per_subnet: vec![0; k],
            activity_per_subnet: vec![RouterActivity::default(); k],
            gating_per_subnet: vec![GatingActivity::default(); k],
            or_switch_events: 0,
        }
    }

    /// Counter differences `self - earlier` (a measurement window).
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is a later snapshot or has a different subnet
    /// count.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        assert!(earlier.cycle <= self.cycle, "snapshots out of order");
        assert_eq!(
            earlier.ejected_flits_per_subnet.len(),
            self.ejected_flits_per_subnet.len(),
            "subnet count mismatch"
        );
        Snapshot {
            cycle: self.cycle - earlier.cycle,
            generated_packets: self.generated_packets - earlier.generated_packets,
            delivered_packets: self.delivered_packets - earlier.delivered_packets,
            delivered_flits: self.delivered_flits - earlier.delivered_flits,
            latency_sum: self.latency_sum - earlier.latency_sum,
            ejected_flits_per_subnet: sub_vec(&self.ejected_flits_per_subnet, &earlier.ejected_flits_per_subnet),
            injected_flits_per_subnet: sub_vec(&self.injected_flits_per_subnet, &earlier.injected_flits_per_subnet),
            activity_per_subnet: self
                .activity_per_subnet
                .iter()
                .zip(&earlier.activity_per_subnet)
                .map(|(a, b)| sub_activity(a, b))
                .collect(),
            gating_per_subnet: self
                .gating_per_subnet
                .iter()
                .zip(&earlier.gating_per_subnet)
                .map(|(a, b)| sub_gating(a, b))
                .collect(),
            or_switch_events: self.or_switch_events - earlier.or_switch_events,
        }
    }

    /// Average end-to-end packet latency in this window.
    pub fn avg_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Accepted throughput in packets per node per cycle.
    pub fn accepted_packets_per_node_cycle(&self, nodes: usize) -> f64 {
        if self.cycle == 0 || nodes == 0 {
            0.0
        } else {
            self.delivered_packets as f64 / (self.cycle as f64 * nodes as f64)
        }
    }

    /// Combined gating residency over all subnets.
    pub fn total_gating(&self) -> GatingActivity {
        self.gating_per_subnet
            .iter()
            .fold(GatingActivity::default(), |acc, g| acc.merged(*g))
    }
}

fn sub_vec(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

fn sub_activity(a: &RouterActivity, b: &RouterActivity) -> RouterActivity {
    RouterActivity {
        buffer_writes: a.buffer_writes - b.buffer_writes,
        buffer_reads: a.buffer_reads - b.buffer_reads,
        xbar_traversals: a.xbar_traversals - b.xbar_traversals,
        link_flits: a.link_flits - b.link_flits,
        ejected_flits: a.ejected_flits - b.ejected_flits,
        arb_requests: a.arb_requests - b.arb_requests,
        arb_grants: a.arb_grants - b.arb_grants,
        head_blocked_cycles: a.head_blocked_cycles - b.head_blocked_cycles,
    }
}

fn sub_gating(a: &GatingActivity, b: &GatingActivity) -> GatingActivity {
    GatingActivity {
        active_cycles: a.active_cycles - b.active_cycles,
        sleep_cycles: a.sleep_cycles - b.sleep_cycles,
        wakeup_cycles: a.wakeup_cycles - b.wakeup_cycles,
        sleep_transitions: a.sleep_transitions - b.sleep_transitions,
        compensated_sleep_cycles: a.compensated_sleep_cycles - b.compensated_sleep_cycles,
    }
}

/// Summary of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Configuration name.
    pub name: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Packets submitted.
    pub packets_generated: u64,
    /// Packets delivered.
    pub packets_delivered: u64,
    /// Mean end-to-end latency (creation to tail ejection), cycles.
    pub avg_packet_latency: f64,
    /// Maximum end-to-end latency.
    pub max_packet_latency: u64,
    /// Accepted throughput, packets per node per cycle.
    pub accepted_packets_per_node_cycle: f64,
    /// Accepted throughput, flits per node per cycle.
    pub accepted_flits_per_node_cycle: f64,
    /// Fraction of router-cycles that were compensated sleep cycles.
    pub csc_fraction: f64,
    /// Total active→sleep transitions.
    pub sleep_transitions: u64,
    /// Share of injected flits carried by each subnet.
    pub subnet_utilization: Vec<f64>,
}

catnap_util::impl_to_json_struct!(RunReport {
    name,
    cycles,
    packets_generated,
    packets_delivered,
    avg_packet_latency,
    max_packet_latency,
    accepted_packets_per_node_cycle,
    accepted_flits_per_node_cycle,
    csc_fraction,
    sleep_transitions,
    subnet_utilization,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiNocConfig;
    use catnap_noc::MessageClass;
    use catnap_traffic::{SyntheticPattern, SyntheticWorkload};

    fn desc(id: u64, src: u16, dst: u16, bits: u32) -> PacketDescriptor {
        PacketDescriptor {
            id: catnap_noc::PacketId(id),
            src: NodeId(src),
            dst: NodeId(dst),
            bits,
            class: MessageClass::Synthetic,
            created_cycle: 0,
        }
    }

    #[test]
    fn single_packet_delivery_and_latency() {
        let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128());
        net.submit(desc(0, 0, 63, 512));
        for _ in 0..200 {
            net.step();
        }
        let rep = net.finish();
        assert_eq!(rep.packets_delivered, 1);
        // 14 hops * 3 cycles + serialization (4 flits) + NI overheads.
        assert!(
            rep.avg_packet_latency >= 45.0 && rep.avg_packet_latency < 70.0,
            "latency {}",
            rep.avg_packet_latency
        );
        assert_eq!(rep.subnet_utilization[0], 1.0, "lone packet rides subnet 0");
    }

    #[test]
    fn snapshot_delta_ordering_enforced() {
        let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128());
        let early = net.snapshot();
        net.step();
        let late = net.snapshot();
        let d = late.delta(&early);
        assert_eq!(d.cycle, 1);
        let r = std::panic::catch_unwind(|| early.delta(&late));
        assert!(r.is_err(), "reversed snapshot order must panic");
    }

    #[test]
    fn congestion_view_false_when_idle() {
        let net = MultiNoc::new(MultiNocConfig::catnap_4x128());
        for s in 0..4 {
            for node in net.dims().nodes() {
                assert!(!net.congestion_view(s, node));
                assert!(!net.rcs(s, node));
            }
        }
    }

    #[test]
    fn spill_rule_disabled_keeps_strict_priority() {
        // With spill 0 and no congestion, even bursty back-to-back packets
        // from one node stay on subnet 0.
        let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().spill_wait(0));
        for i in 0..40 {
            net.submit(desc(i, 0, 60, 584));
        }
        for _ in 0..1_500 {
            net.step();
        }
        let rep = net.finish();
        assert_eq!(rep.packets_delivered, 40);
        assert_eq!(rep.subnet_utilization[0], 1.0, "util {:?}", rep.subnet_utilization);
    }

    #[test]
    fn spill_rule_overflows_a_hot_injector() {
        // 584-bit packets stream for 5 cycles; a threshold of 2 makes the
        // second head spill while the first still occupies the slot.
        let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().spill_wait(2));
        for i in 0..40 {
            net.submit(desc(i, 0, 60, 584));
        }
        for _ in 0..1_500 {
            net.step();
        }
        let rep = net.finish();
        assert_eq!(rep.packets_delivered, 40);
        assert!(
            rep.subnet_utilization[0] < 1.0,
            "a saturated injector must spill: {:?}",
            rep.subnet_utilization
        );
    }

    #[test]
    fn outstanding_counts_packets_in_flight() {
        let mut net = MultiNoc::new(MultiNocConfig::single_noc_512b());
        net.submit(desc(0, 0, 63, 512));
        assert_eq!(net.packets_outstanding(), 1);
        for _ in 0..200 {
            net.step();
        }
        assert_eq!(net.packets_outstanding(), 0);
    }

    #[test]
    fn debug_format_is_nonempty() {
        let net = MultiNoc::new(MultiNocConfig::catnap_4x128());
        let s = format!("{net:?}");
        assert!(s.contains("MultiNoc") && s.contains("4NT-128b"));
    }

    #[test]
    fn step_until_skips_idle_stretches_bit_identically() {
        let cfg = MultiNocConfig::catnap_2x128_64core().gating(true).seed(11);
        let load = |dims| SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.001, 512, dims, 5);

        let mut stepped = MultiNoc::new(cfg.clone());
        let mut ls = load(stepped.dims());
        for _ in 0..4_000 {
            ls.drive(&mut stepped);
            stepped.step();
        }

        let mut skipped = MultiNoc::new(cfg);
        let mut lk = load(skipped.dims());
        skipped.step_until(&mut lk, 4_000);

        let stats = skipped.skip_stats();
        assert!(
            stats.skipped_cycles > 0,
            "a 0.001-rate run must have skippable stretches: {stats:?}"
        );
        assert!(stats.quiescent_assessments <= stats.assessments);
        assert_eq!(skipped.cycle(), stepped.cycle());
        assert_eq!(skipped.snapshot(), stepped.snapshot());
        assert_eq!(skipped.finish(), stepped.finish());
    }

    #[test]
    fn force_full_step_disables_fast_forward() {
        let cfg = MultiNocConfig::catnap_2x128_64core().gating(true).seed(11);
        let mut net = MultiNoc::new(cfg);
        net.set_force_full_step(true);
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.001, 512, net.dims(), 5);
        net.step_until(&mut load, 2_000);
        assert_eq!(
            net.skip_stats(),
            SkipStats::default(),
            "the escape hatch must reach every shortcut"
        );
        assert_eq!(net.cycle(), 2_000);
        // Re-enabling restores skipping.
        net.set_force_full_step(false);
        net.step_until(&mut load, 4_000);
        assert!(net.skip_stats().skipped_cycles > 0);
    }

    #[test]
    fn heavier_synthetic_load_uses_more_subnets_than_light() {
        let util = |rate: f64| {
            let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128());
            let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, net.dims(), 9);
            for _ in 0..4_000 {
                load.drive(&mut net);
                net.step();
            }
            net.finish().subnet_utilization
        };
        let low = util(0.02);
        let high = util(0.40);
        assert!(low[0] > 0.9);
        assert!(high[0] < 0.6, "high load must spread: {high:?}");
    }
}
