//! The Catnap Multi-NoC: K subnet networks behind shared per-node NIs,
//! driven by the subnet-selection, congestion-detection and power-gating
//! policies.

use crate::config::{MultiNocConfig, RegionMode, SelectorKind};
use crate::congestion::{CongestionMetric, Window};
use crate::ni::NodeNi;
use crate::rcs::OrNetwork;
use crate::select::{congestion_mask, CatnapPriority, RandomSelect, RoundRobin, SubnetSelector};
use catnap_noc::stats::{GatingActivity, RouterActivity};
use catnap_noc::{Delivery, MeshDims, Network, NodeId, PacketDescriptor, PacketId, RegionMap};
use catnap_telemetry::{Event, NopSink, Sink, SinkScope, Trace, TraceMeta};
use catnap_traffic::generator::PacketSink;
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
///
/// The subnets own the clock and every network count (injections,
/// ejections, network latency); the Multi-NoC counts only what no
/// subnet sees: packets generated and end-to-end latency.
pub struct MultiNoc<S: Sink = NopSink> {
    cfg: MultiNocConfig,
    subnets: Vec<Network<S>>,
    nis: Vec<NodeNi>,
    /// Each subnet's local congestion status (LCS) bit per node: the
    /// only copy, read by the selector, the OR networks and the
    /// detectors' next update.
    lcs: Vec<Vec<bool>>,
    /// Each subnet's window per node under a windowed metric (IR,
    /// Delay); empty under the others.
    windows: Vec<Vec<Window>>,
    or_nets: Vec<OrNetwork>,
    selector: Box<dyn SubnetSelector + Send>,
    generated_packets: u64,
    latency_sum: u64,
    latency_max: u64,
    /// The packets delivered in the last cycle, until drained or the
    /// next cycle starts.
    delivered: Vec<Delivery>,
    /// Cycles each node's NI-queue head has waited behind a busy slot.
    head_wait: Vec<u32>,
    /// Whether each NI is on the busy worklist (`busy_nis`).
    ni_busy: Vec<bool>,
    /// Indices of NIs with pending work, kept sorted ascending so the
    /// per-NI phase visits them in node order (the subnet selector draws
    /// from one RNG in visit order, so order is load-bearing). An NI
    /// joins at `submit` and leaves at the end of a cycle that observes
    /// it idle — the exact condition under which its per-cycle body is a
    /// no-op. [`MultiNoc::step_reference`] scans every NI instead, but
    /// still prunes the list so the two steps can be interleaved.
    busy_nis: Vec<u32>,
    /// Per-subnet count of set local-congestion bits (`lcs[s]`), so the
    /// detector and OR-network elisions can test "all clear" in O(1).
    lcs_set: Vec<usize>,
    /// Reusable per-subnet congestion mask handed to the selector.
    congested_buf: Vec<bool>,
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
            lcs: vec![vec![false; nodes]; k],
            windows: vec![vec![Window::default(); if cfg.metric.windowed() { nodes } else { 0 }]; k],
            or_nets,
            selector,
            generated_packets: 0,
            latency_sum: 0,
            latency_max: 0,
            delivered: Vec::new(),
            head_wait: vec![0; nodes],
            ni_busy: vec![false; nodes],
            busy_nis: Vec::new(),
            lcs_set: vec![0; k],
            congested_buf: Vec::with_capacity(k),
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
            cycles: self.cycle(),
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
            cycles: self.cycle(),
            phase_serial: self.cycle(),
            ..DispatchStats::default()
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

    /// Current cycle: the subnets' clock (they step together).
    pub fn cycle(&self) -> u64 {
        self.subnets[0].cycle()
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
                    let cycle = self.cycle();
                    self.policy_sink.record(Event::Select {
                        cycle,
                        node: idx as u16,
                        subnet: s as u8,
                        congested_mask: congestion_mask(&self.congested_buf),
                    });
                    if let Some(desc) = self.nis[idx].head_packet() {
                        self.policy_sink.record(Event::PacketInject {
                            cycle,
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
            if self.nis[idx].inject_into(s, &mut self.subnets[s]) {
                self.cfg.metric.count_injection(self.windows[s].get_mut(idx));
            }
        }
    }

    /// Whether this cycle's detector sweep over subnet `s` is a provable
    /// no-op that may be skipped. Holds only for the memoryless
    /// hysteresis metrics observing an all-zero sample against an
    /// all-clear status vector — and only with a non-degenerate set
    /// threshold (a `set` of zero would latch congestion on a zero
    /// sample). The windowed metrics (InjectionRate, Delay) close their
    /// windows on the clock and are never skipped.
    fn detector_sweep_elidable(&self, s: usize) -> bool {
        if self.lcs_set[s] != 0 {
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
        self.advance::<false>();
    }

    /// The per-cycle oracle for [`MultiNoc::step`]: one cycle with every
    /// worklist and elision off. Every NI runs its per-cycle body, the
    /// gating policy sweeps every subnet (no all-asleep shortcut), every
    /// detector updates, every OR network ticks, and each subnet steps
    /// through [`Network::step_reference`]. Bit-identical to `step`
    /// (asserted by `tests/eventdriven.rs`), and freely interleavable
    /// with it. The per-cycle loop `drive(); step_reference()` is the
    /// baseline the differential suites and benchmarks compare the
    /// production loop `drive(); step()` against.
    pub fn step_reference(&mut self) {
        self.advance::<true>();
    }

    /// One cycle of the design; `REFERENCE` selects the oracle's
    /// scan-everything variant of each phase at compile time.
    fn advance<const REFERENCE: bool>(&mut self) {
        let k = self.cfg.subnets;
        self.delivered.clear();

        // --- Network interfaces: refill, subnet assignment, injection ---
        if REFERENCE {
            for idx in 0..self.nis.len() {
                self.ni_cycle(idx);
            }
        } else {
            // Only NIs with pending work; their per-cycle body is the
            // identity for the rest. Worklist drops happen at the end of
            // the cycle.
            let list = std::mem::take(&mut self.busy_nis);
            for &idxu in &list {
                self.ni_cycle(idxu as usize);
            }
            self.busy_nis = list;
        }

        // --- Power-gating policy ---
        self.cfg
            .gating_policy
            .apply(self.cfg.dims, &mut self.subnets, &self.or_nets, &self.nis, !REFERENCE);

        // --- Step every subnet ---
        // Each `Network::step` is self-contained (no cross-subnet state,
        // no RNG); all cross-subnet coupling (NIs, policies, detectors,
        // OR networks) happens around this point.
        for net in &mut self.subnets {
            if REFERENCE {
                net.step_reference();
            } else {
                net.step();
            }
        }
        let cycle = self.cycle();

        // --- End-to-end latency of the delivered packets ---
        for s in 0..k {
            let from = self.delivered.len();
            self.subnets[s].drain_ejected_into(&mut self.delivered);
            for d in &self.delivered[from..] {
                let lat = cycle.saturating_sub(d.created_cycle);
                self.latency_sum += lat;
                self.latency_max = self.latency_max.max(lat);
                if S::ENABLED {
                    self.policy_sink.record(Event::PacketEject {
                        cycle,
                        id: d.tail.packet.0,
                        subnet: s as u8,
                        dst: d.tail.dst.0,
                        latency: lat.min(u64::from(u32::MAX)) as u32,
                    });
                }
            }
        }

        // --- Local congestion detection (post-step state) ---
        for s in 0..k {
            if !REFERENCE && self.detector_sweep_elidable(s) {
                continue;
            }
            for idx in 0..self.nis.len() {
                let bit = self.lcs[s][idx];
                let router = self.subnets[s].router(NodeId(idx as u16));
                let window = self.windows[s].get_mut(idx);
                let now = self.cfg.metric.update(bit, cycle, router, &self.nis[idx], window);
                if now != bit {
                    self.lcs[s][idx] = now;
                    if now {
                        self.lcs_set[s] += 1;
                    } else {
                        self.lcs_set[s] -= 1;
                    }
                    if S::ENABLED {
                        self.policy_sink.record(Event::Lcs {
                            cycle,
                            subnet: s as u8,
                            node: idx as u16,
                            on: now,
                        });
                    }
                }
            }
        }
        // NIs observed idle leave the worklist.
        let mut list = std::mem::take(&mut self.busy_nis);
        list.retain(|&idxu| {
            let idx = idxu as usize;
            let keep = !self.nis[idx].is_idle();
            if !keep {
                self.ni_busy[idx] = false;
            }
            keep
        });
        self.busy_nis = list;

        // --- Regional OR networks ---
        for s in 0..k {
            if !REFERENCE && self.lcs_set[s] == 0 && !self.or_nets[s].any() {
                // All-false sample into an all-clear network: a latch (if
                // one falls here) re-latches false, with no switching
                // event and no change. The change flags it would clear
                // are read only on a cycle that latched.
                continue;
            }
            let lcs = &self.lcs[s];
            let latched = self.or_nets[s].tick(cycle, |n| lcs[n.index()]);
            if S::ENABLED && latched {
                for region in self.or_nets[s].changed_regions() {
                    self.policy_sink.record(Event::Rcs {
                        cycle,
                        subnet: s as u8,
                        region: region.0,
                        on: self.or_nets[s].rcs_of(region),
                    });
                }
            }
        }
    }

    /// Appends the packets delivered in the last cycle to `buf` (the
    /// closed loop advances coherence transactions with them). The next
    /// cycle drops deliveries not taken.
    pub fn drain_delivered_into(&mut self, buf: &mut Vec<Delivery>) {
        buf.append(&mut self.delivered);
    }

    /// Packets delivered so far: the subnets' ejected packets.
    fn delivered_packets(&self) -> u64 {
        self.subnets.iter().map(|n| n.stats().packets_ejected).sum()
    }

    /// Cumulative counters at this instant, read from their owners (diff
    /// two snapshots for windowed measurements).
    pub fn snapshot(&self) -> Snapshot {
        let activity_per_subnet: Vec<RouterActivity> = self.subnets.iter().map(|n| n.total_activity()).collect();
        let ejected_flits_per_subnet: Vec<u64> = activity_per_subnet.iter().map(|a| a.ejected_flits).collect();
        Snapshot {
            cycle: self.cycle(),
            generated_packets: self.generated_packets,
            delivered_packets: self.delivered_packets(),
            delivered_flits: ejected_flits_per_subnet.iter().sum(),
            latency_sum: self.latency_sum,
            ejected_flits_per_subnet,
            injected_flits_per_subnet: self.subnets.iter().map(|n| n.stats().flits_injected).collect(),
            activity_per_subnet,
            gating_per_subnet: self.subnets.iter().map(|n| n.total_gating()).collect(),
            or_switch_events: self.or_nets.iter().map(OrNetwork::switch_events).sum(),
        }
    }

    /// Number of packets still queued or in flight.
    pub fn packets_outstanding(&self) -> u64 {
        self.generated_packets - self.delivered_packets()
    }

    /// Routers currently active / sleeping / waking, summed over subnets.
    pub fn power_state_census(&self) -> (usize, usize, usize) {
        self.subnets
            .iter()
            .map(|n| n.power_state_census())
            .fold((0, 0, 0), |(a, s, w), (a2, s2, w2)| (a + a2, s + s2, w + w2))
    }

    /// Serializes the simulation state (checkpointing). Must be called
    /// at a cycle edge — after a [`MultiNoc::step`], before the next
    /// cycle's traffic drive. The configuration itself is not part of
    /// the stream; [`MultiNoc::load_state`] overlays onto a fresh
    /// instance of the *same* configuration (the public checkpoint
    /// container in [`crate::checkpoint`] guards that with a
    /// fingerprint), and rebuilds what follows from the stored state:
    /// the busy-NI worklist and the per-subnet counts of set LCS bits.
    /// The subnets store the clock, the network counts and their packet
    /// tables; each subnet's policy layer stores its LCS bits, its
    /// detectors' window state (none for BFM, BFA and IQOcc) and its OR
    /// network's latched bits. The last cycle's deliveries are not
    /// stored. Telemetry sinks are not captured: a resumed recording
    /// sink starts empty and its suffix matches a straight-through run's
    /// suffix bit for bit.
    pub(crate) fn save_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.generated_packets);
        w.put_u64(self.latency_sum);
        w.put_u64(self.latency_max);
        for &hw in &self.head_wait {
            w.put_u32(hw);
        }
        self.selector.encode_state(w);
        for net in &self.subnets {
            net.save_state(w);
        }
        for ((lcs, windows), or_net) in self.lcs.iter().zip(&self.windows).zip(&self.or_nets) {
            for &bit in lcs {
                w.put_bool(bit);
            }
            windows.iter().for_each(|window| window.encode(w));
            or_net.encode(w);
        }
        for ni in &self.nis {
            ni.encode(w);
        }
    }

    /// Overlays serialized state from [`MultiNoc::save_state`] onto this
    /// freshly-built instance (same configuration). Derived structures —
    /// the busy-NI worklist (the NIs that are not idle, in node order)
    /// and its membership flags, the per-subnet counts of set LCS bits,
    /// scratch buffers — are recomputed, never deserialized.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a truncated or inconsistent stream, including
    /// subnets at different cycles, detector windows no run reaches
    /// (see [`Window::decode`]), a packet id held twice (waiting
    /// at an interface and in flight, or twice in either) and more
    /// packets delivered than generated; the instance must then be
    /// discarded.
    pub(crate) fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let nodes = self.cfg.dims.num_nodes();
        self.generated_packets = r.get_u64()?;
        self.latency_sum = r.get_u64()?;
        self.latency_max = r.get_u64()?;
        for hw in self.head_wait.iter_mut() {
            *hw = r.get_u32()?;
        }
        self.selector.decode_state(r)?;
        for net in self.subnets.iter_mut() {
            net.load_state(r)?;
        }
        let cycle = self.cycle();
        if self.subnets.iter().any(|n| n.cycle() != cycle) {
            return Err(CodecError::Invalid("subnets at different cycles"));
        }
        for (s, net) in self.subnets.iter().enumerate() {
            for bit in self.lcs[s].iter_mut() {
                *bit = r.get_bool()?;
            }
            self.lcs_set[s] = self.lcs[s].iter().filter(|&&on| on).count();
            for (idx, window) in self.windows[s].iter_mut().enumerate() {
                *window = Window::decode(r, &self.cfg.metric, cycle, net.router(NodeId(idx as u16)))?;
            }
            self.or_nets[s] = OrNetwork::decode(r, self.or_nets[s].regions().clone(), self.cfg.rcs_period)?;
        }
        for idx in 0..nodes {
            self.nis[idx] = crate::ni::NodeNi::decode(r, NodeId(idx as u16), &self.cfg)?;
        }
        for (s, net) in self.subnets.iter().enumerate() {
            net.check_wormholes(|node| self.nis[node.index()].next_flit(s))?;
        }
        // A packet id names one packet: waiting at an interface, or in
        // flight on one subnet (a packet part-way through injection is in
        // flight, and `check_wormholes` ties it to its subnet's table).
        let waiting = self.nis.iter().flat_map(|ni| ni.waiting_packets());
        let mut ids: Vec<PacketId> = waiting.chain(self.subnets.iter().flat_map(|n| n.packets_in_flight())).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(CodecError::Invalid("packet id held twice"));
        }
        if self.generated_packets < self.delivered_packets() {
            return Err(CodecError::Invalid("delivered more packets than generated"));
        }
        self.ni_busy = self.nis.iter().map(|ni| !ni.is_idle()).collect();
        self.busy_nis = (0..nodes as u32).filter(|&idx| self.ni_busy[idx as usize]).collect();
        self.delivered.clear();
        self.congested_buf.clear();
        Ok(())
    }

    /// Finalizes gating accounting and reports the whole-run [`Snapshot`].
    pub fn finish(&mut self) -> RunReport {
        for net in &mut self.subnets {
            net.finalize();
        }
        let snap = self.snapshot();
        let gating = snap.total_gating();
        let nodes = self.cfg.dims.num_nodes();
        let injected: u64 = snap.injected_flits_per_subnet.iter().sum();
        RunReport {
            name: self.cfg.name.clone(),
            cycles: snap.cycle,
            packets_generated: snap.generated_packets,
            packets_delivered: snap.delivered_packets,
            avg_packet_latency: snap.avg_latency(),
            max_packet_latency: self.latency_max,
            accepted_packets_per_node_cycle: snap.accepted_packets_per_node_cycle(nodes),
            accepted_flits_per_node_cycle: snap.delivered_flits as f64 / (nodes as f64 * snap.cycle.max(1) as f64),
            csc_fraction: gating.csc_fraction(),
            sleep_transitions: gating.sleep_transitions,
            subnet_utilization: (snap.injected_flits_per_subnet.iter())
                .map(|&f| if injected == 0 { 0.0 } else { f as f64 / injected as f64 })
                .collect(),
        }
    }
}

impl<S: Sink> PacketSink for MultiNoc<S> {
    fn now(&self) -> u64 {
        self.cycle()
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
            .field("cycle", &self.cycle())
            .field("generated", &self.generated_packets)
            .field("delivered", &self.delivered_packets())
            .finish_non_exhaustive()
    }
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
    fn step_reference_interleaves_with_step_bit_identically() {
        let cfg = MultiNocConfig::catnap_2x128_64core().gating(true).seed(11);
        let load = |dims| SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.05, 512, dims, 5);

        let mut plain = MultiNoc::new(cfg.clone());
        let mut lp = load(plain.dims());
        let mut mixed = MultiNoc::new(cfg);
        let mut lm = load(mixed.dims());
        for c in 0..3_000u64 {
            lp.drive(&mut plain);
            plain.step();
            // Alternate 37-cycle stretches of the two steps, so switches
            // land mid-packet, mid-wake-up and on routers left idle for long.
            lm.drive(&mut mixed);
            if (c / 37) % 2 == 0 {
                mixed.step_reference();
            } else {
                mixed.step();
            }
        }
        assert_eq!(mixed.snapshot(), plain.snapshot());
        assert_eq!(mixed.finish(), plain.finish());
    }

    /// The subnets own the clock and step together, so a checkpoint
    /// whose subnets disagree on the cycle cannot decode.
    #[test]
    fn decode_rejects_subnets_at_different_cycles() {
        let resume = |skew: bool| {
            let cfg = MultiNocConfig::catnap_4x128().gating(true);
            let mut net = MultiNoc::new(cfg.clone());
            for _ in 0..20 {
                net.step();
            }
            if skew {
                net.subnets[2].step();
            }
            MultiNoc::resume_from(cfg, &net.save_checkpoint(&[])).map(|_| ())
        };
        assert_eq!(resume(false), Ok(()));
        assert_eq!(resume(true), Err(CodecError::Invalid("subnets at different cycles")));
    }

    /// An open-loop run nobody drains holds only the tails of its last
    /// cycle: each drain (every third cycle here) hands out exactly the
    /// packets the subnets ejected in the cycle just stepped.
    #[test]
    fn delivered_tails_are_kept_for_one_cycle() {
        let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().gating(true));
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.30, 512, net.dims(), 3);
        let (mut tails, mut ejected, mut most) = (Vec::new(), 0, 0);
        for c in 0..3_000u64 {
            load.drive(&mut net);
            net.step();
            let before = std::mem::replace(&mut ejected, net.delivered_packets());
            if c % 3 == 0 {
                net.drain_delivered_into(&mut tails);
                assert_eq!(tails.len() as u64, ejected - before, "cycle {c}");
                most = most.max(tails.len());
                tails.clear();
            }
        }
        assert!(most > 1, "the load must deliver several packets in a cycle");
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
