//! One physical network (subnet): a mesh of routers connected by
//! one-cycle links, with staged (two-phase) transfer so simulation results
//! are independent of router iteration order.

use crate::checkpoint;
use crate::config::{Granularity, NetworkConfig};
use crate::flit::{Delivery, Flit, FlitKind, MessageClass, PacketId};
use crate::geometry::{MeshDims, NodeId, Port, NUM_PORTS};
use crate::power_state::PowerState;
use crate::router::{Router, RouterOutput};
use crate::stats::{GatingActivity, NetworkStats, RouterActivity};
use catnap_telemetry::{Event, NopSink, PowerPhase, Sink};
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};
use std::collections::HashMap;

/// A single physical network-on-chip (one subnet of a Multi-NoC).
///
/// The network advances in discrete cycles via [`Network::step`]. Flits are
/// injected at local ports between steps (by the network interface layer in
/// the `catnap` crate, or directly in tests) and delivered packets are
/// drained via [`Network::drain_ejected`].
///
/// The network is generic over a telemetry [`Sink`], defaulting to
/// [`NopSink`]: the default monomorphization carries no instrumentation
/// at all (every `if S::ENABLED` point is compiled out), while
/// [`Network::with_sink`] builds a recording instance that emits a
/// [`Event::Power`] for every router power-phase transition.
#[derive(Clone, Debug)]
pub struct Network<S: Sink = NopSink> {
    cfg: NetworkConfig,
    routers: Vec<Router>,
    /// Flits that completed switch traversal this cycle and are entering
    /// the link: `(router index, input port, flit)`.
    link_stage: Vec<(u32, Port, Flit)>,
    /// Flits finishing their link cycle: delivered to input buffers at the
    /// start of the next step. `(router index, input port, flit)`.
    staged_flits: Vec<(u32, Port, Flit)>,
    /// Credits in flight: `(router index, output port, vc)`.
    staged_credits: Vec<(u32, Port, u8)>,
    /// Packets whose tail ejected, awaiting pickup by the NI layer.
    ejected: Vec<Delivery>,
    /// The packets in flight whose head has entered: written when the
    /// head enters, removed when the tail ejects. Only lookups read it;
    /// a checkpoint writes it in id order.
    packets: HashMap<PacketId, PacketTimes>,
    stats: NetworkStats,
    cycle: u64,
    next_packet_id: u64,
    /// Scratch buffer reused across router steps.
    scratch: RouterOutput,
    /// Precomputed adjacency: `adj[idx][p]` is the router index across
    /// mesh port `p` of router `idx`, or [`NO_NEIGHBOR`] at a mesh edge
    /// (and always for the local port).
    adj: Vec<[usize; NUM_PORTS]>,
    /// Precomputed X-Y routes, indexed `[at * num_nodes + dst]`.
    route_lut: Vec<Port>,
    /// In-flight flits per `(router idx, input port)`, flattened: counts
    /// entries of `link_stage` plus `staged_flits` headed to that input,
    /// so the sleep guards need no linear scan.
    inflight: Vec<u32>,
    /// Run set of the step in progress, scanned in ascending index order
    /// (index order is load-bearing: wake completions flip `port_active`
    /// mid-phase at the completing router's position, and later routers
    /// must observe that exactly as the per-cycle loop would). The scan
    /// re-reads the set after every run, so an in-step wake request for
    /// a router ahead of it still runs this cycle. Empty between steps.
    hot: RouterSet,
    /// Routers queued to run on the next step; it becomes `hot` when the
    /// step starts. At a cycle edge this is exactly the set of
    /// non-drained routers.
    next: RouterSet,
    /// Drained routers with a pending wake-up, which completes on cycle
    /// `wake_due[i]`: the one cycle such a router must run although
    /// nothing reaches it. Queued routers are never in here: they run
    /// anyway, and re-enter when they settle drained.
    waking: RouterSet,
    /// Wake-up completion cycle per router, meaningful while its
    /// `waking` bit is set.
    wake_due: Vec<u64>,
    /// Routers whose router-level power state is Sleep (for the policy
    /// layer's all-asleep elision; never counted at port granularity).
    sleepers: usize,
    /// Set by [`Network::step_reference`], which leaves `next`, `waking`
    /// and `active_mask` unmaintained; the next [`Network::step`]
    /// re-seeds them from live state first. Keeps the oracle's per-cycle
    /// cost to its scan alone.
    sched_stale: bool,
    /// Event-scheduler effectiveness counters (left untouched by
    /// [`Network::step_reference`] — the regression suite asserts the
    /// oracle truly bypasses the scheduler). Not checkpointed.
    sched: SchedStats,
    /// Cache of [`Router::port_active_mask`] per router, so a stepping
    /// router's four neighbour-acceptance reads hit one dense byte
    /// array instead of four cache-cold router structs. Refreshed at
    /// every power transition and after every phase-2 run (wake-ups
    /// complete inside the tick); a router that does not run keeps its
    /// mask, because only its own tick completes a wake-up. Only read on
    /// the scheduled path — the reference step
    /// reads the routers directly, and the cache is recomputed when
    /// `step` next re-seeds the scheduler.
    active_mask: Vec<u8>,
    /// Telemetry sink; [`NopSink`] by default, which erases every
    /// instrumentation point at monomorphization.
    sink: S,
    /// Last power phase reported per router, so transitions that happen
    /// inside `Router::step` (wake-ups completing) are
    /// detected by comparison at the end of the step. Empty for the
    /// `NopSink` monomorphization.
    power_shadow: Vec<PowerPhase>,
}

/// Marker in the adjacency table for "no link in this direction".
const NO_NEIGHBOR: usize = usize::MAX;

/// The phase-2 position of a wake request raised between steps, after
/// every router's tick of the current cycle (see [`Network::wake`]).
const BETWEEN_STEPS: usize = usize::MAX;

/// When a packet in flight was created at its source and when its head
/// entered the network: what its tail's ejection reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct PacketTimes {
    created: u64,
    injected: u64,
}

/// A set of router indices, one bit per router in `u64` words.
#[derive(Clone, Debug)]
struct RouterSet(Vec<u64>);

impl RouterSet {
    fn new(n: usize) -> Self {
        RouterSet(vec![0; n.div_ceil(64)])
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    fn clear(&mut self) {
        self.0.fill(0);
    }

    /// The smallest member `>= from`. Reads the words afresh on every
    /// call, so a scan sees members inserted ahead of it since its last
    /// call.
    fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.0.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            bits = *self.0.get(w)?;
        }
    }
}

/// Effectiveness counters of the event scheduler in [`Network::step`].
/// All remain zero over a run stepped only by
/// [`Network::step_reference`] — the differential suite asserts the
/// oracle bypasses the scheduler by observing exactly that. They are
/// instrumentation, not simulation state: checkpoints do not store them,
/// and a resumed network counts its own work from zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Routers run in phase 2.
    pub router_runs: u64,
    /// Phase-2 runs of routers that were drained when they ran: a
    /// drained router runs only on the cycle a wake-up completes on it.
    pub idle_runs: u64,
    /// Drained routers whose wake-up completed, each run on its
    /// completion cycle.
    pub wakeup_pops: u64,
    /// Always 0: the scheduler holds no entries that can go stale. Kept
    /// only because the repository benchmark builds this struct by
    /// literal.
    pub stale_wakeups: u64,
    /// Always 0: routers keep time as timestamps, so nothing is caught
    /// up. Kept only because the repository benchmark builds this struct
    /// by literal.
    pub syncs: u64,
    /// Always 0, like [`SchedStats::syncs`].
    pub synced_cycles: u64,
    /// Phase-2 runs of non-drained routers that produced no
    /// outputs at all (no traversal, no credit, no ejection, no ping):
    /// the router was stalled on downstream backpressure.
    pub stalled_runs: u64,
}

impl Network {
    /// Builds a network from a validated configuration, without
    /// telemetry (the [`NopSink`] monomorphization).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NetworkConfig::validate`]).
    pub fn new(cfg: NetworkConfig) -> Self {
        Network::with_sink(cfg, NopSink)
    }
}

impl<S: Sink> Network<S> {
    /// Builds a network that reports router power-phase transitions to
    /// `sink`. Telemetry is observation-only: the simulation is
    /// bit-identical with any sink (the determinism suite asserts this).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NetworkConfig::validate`]).
    pub fn with_sink(cfg: NetworkConfig, sink: S) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid network configuration: {e}");
        }
        let dims = cfg.dims;
        let routers: Vec<Router> = dims.nodes().map(|node| Router::new(node, &cfg)).collect();
        let n = dims.num_nodes();
        let adj = dims
            .nodes()
            .map(|node| {
                let mut row = [NO_NEIGHBOR; NUM_PORTS];
                for dir in crate::geometry::Direction::ALL {
                    if let Some(nbr) = dims.neighbor(node, dir) {
                        row[Port::from(dir).index()] = nbr.index();
                    }
                }
                row
            })
            .collect();
        let mut route_lut = Vec::with_capacity(n * n);
        for at in dims.nodes() {
            for dst in dims.nodes() {
                route_lut.push(dims.xy_route(at, dst));
            }
        }
        let active_mask = routers.iter().map(Router::port_active_mask).collect();
        Network {
            cfg,
            routers,
            link_stage: Vec::new(),
            staged_flits: Vec::new(),
            staged_credits: Vec::new(),
            ejected: Vec::new(),
            packets: HashMap::new(),
            stats: NetworkStats::default(),
            cycle: 0,
            next_packet_id: 0,
            scratch: RouterOutput::default(),
            adj,
            route_lut,
            inflight: vec![0; n * NUM_PORTS],
            hot: RouterSet::new(n),
            next: RouterSet::new(n),
            waking: RouterSet::new(n),
            wake_due: vec![0; n],
            sleepers: 0,
            sched_stale: false,
            sched: SchedStats::default(),
            active_mask,
            sink,
            power_shadow: if S::ENABLED {
                vec![PowerPhase::Active; n]
            } else {
                Vec::new()
            },
        }
    }

    /// Hands back the events the sink accumulated so far, leaving it
    /// empty. Returns nothing for sinks that retain nothing.
    pub fn take_events(&mut self) -> Vec<Event> {
        self.sink.drain()
    }

    /// Emits a [`Event::Power`] if `idx`'s router is in a different
    /// phase than last reported. Compiled out entirely for [`NopSink`].
    #[inline]
    fn note_power(&mut self, idx: usize) {
        if S::ENABLED {
            let now = PowerPhase::from(self.routers[idx].power_state());
            let before = self.power_shadow[idx];
            if now != before {
                self.power_shadow[idx] = now;
                self.sink.record(Event::Power {
                    cycle: self.cycle,
                    node: idx as u16,
                    from: before,
                    to: now,
                });
            }
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Mesh dimensions.
    pub fn dims(&self) -> MeshDims {
        self.cfg.dims
    }

    /// Current cycle (number of completed steps).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Immutable access to a node's router (for congestion metrics).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// Whether a node's router is in the active power state.
    pub fn is_active(&self, node: NodeId) -> bool {
        self.routers[node.index()].power_state().is_active()
    }

    /// Power state of a node's router.
    pub fn power_state(&self, node: NodeId) -> PowerState {
        self.routers[node.index()].power_state()
    }

    /// Attempts to inject a flit at `node`'s local port into virtual
    /// channel `vc`. Returns `false` (without side effects) if the router
    /// is not active or the VC has no free slot.
    ///
    /// The caller (network interface) is responsible for wormhole
    /// discipline: flits of one packet must be injected contiguously into
    /// one VC, with `flit.lookahead` set to the route at this first router
    /// (see [`Network::route_at`]). A head enters the packet into the
    /// network's packet table with `created_cycle`, the cycle the packet
    /// was created at its source, and the next cycle as its network
    /// injection cycle; other flits ignore `created_cycle`. The tail's
    /// ejection hands the packet out with its creation cycle (see
    /// [`Network::drain_ejected`]).
    pub fn try_inject_flit(&mut self, node: NodeId, vc: usize, mut flit: Flit, created_cycle: u64) -> bool {
        let router = &mut self.routers[node.index()];
        if !router.port_active(Port::Local) || router.local_vc_free_space(vc) == 0 {
            return false;
        }
        flit.vc = vc as u8;
        let idx = node.index();
        // The router gains work: schedule it for the next step.
        self.mark_next(idx);
        if flit.kind.is_head() {
            let times = PacketTimes {
                created: created_cycle,
                injected: self.cycle + 1,
            };
            self.packets.insert(flit.packet, times);
        }
        if let Some(ping_dir) = self.routers[idx].deliver(Port::Local, flit, self.cycle) {
            self.wake_neighbor(idx, ping_dir, BETWEEN_STEPS, true);
        }
        self.stats.flits_injected += 1;
        true
    }

    /// The packets in flight whose head has entered this network and
    /// whose tail has not ejected, in no particular order.
    pub fn packets_in_flight(&self) -> impl Iterator<Item = PacketId> + '_ {
        self.packets.keys().copied()
    }

    /// The X-Y route output port for a packet at `at` headed to `dst`
    /// (used by NIs to set the look-ahead field at injection).
    pub fn route_at(&self, at: NodeId, dst: NodeId) -> Port {
        self.route_lut[at.index() * self.cfg.dims.num_nodes() + dst.index()]
    }

    /// Event-scheduler effectiveness counters. All-zero when the
    /// network has only ever been stepped by [`Network::step_reference`]
    /// — the differential suite relies on that to prove the oracle
    /// truly bypasses the scheduler.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }

    /// Rebuilds the scheduler's derived state from the live routers:
    /// non-drained routers are queued for the next step, drained ones
    /// with a pending wake-up enter the waking set. Used by the first
    /// `step` after a reference step and at checkpoint resume.
    fn reseed_scheduler(&mut self) {
        self.sched_stale = false;
        self.next.clear();
        self.waking.clear();
        for idx in 0..self.routers.len() {
            self.active_mask[idx] = self.routers[idx].port_active_mask();
            if self.routers[idx].is_drained() {
                self.reschedule(idx);
            } else {
                self.mark_next(idx);
            }
        }
    }

    /// Debug cross-check at a cycle edge: `next` holds exactly the
    /// non-drained routers, and `waking` exactly the drained ones with a
    /// pending wake-up, each due on the cycle its wake-up completes;
    /// every router's timestamps fit the edge as checkpoint decode
    /// requires ([`Router::time_error`]); each router's allocator masks
    /// and counts match the state they summarize; and every flit in the
    /// subnet has a packet-table entry.
    #[cfg(debug_assertions)]
    fn check_scheduler(&self) {
        let has_entry = |flit: &Flit| {
            assert!(
                self.packets.contains_key(&flit.packet),
                "flit of {} has no packet entry",
                flit.packet
            );
        };
        self.link_stage
            .iter()
            .chain(&self.staged_flits)
            .for_each(|(_, _, flit)| has_entry(flit));
        for (idx, r) in self.routers.iter().enumerate() {
            r.check_masks();
            if let Some(what) = r.time_error(self.cycle) {
                panic!("{what} at router {idx}, cycle {}", self.cycle);
            }
            let drained = r.is_drained();
            if !drained {
                r.for_each_flit(has_entry);
            }
            assert_eq!(self.next.contains(idx), !drained, "run set out of sync at router {idx}");
            let due = r.next_wake_completion().filter(|_| drained);
            assert_eq!(
                self.waking.contains(idx).then(|| self.wake_due[idx]),
                due,
                "waking set out of sync at router {idx}"
            );
        }
    }

    /// Enters router `idx` into the waking set if it has a pending
    /// wake-up and is not queued. Called whenever a router settles
    /// drained after a run or a wake request lands on it; a queued
    /// router is left out, as it runs anyway.
    fn reschedule(&mut self, idx: usize) {
        if self.next.contains(idx) {
            return;
        }
        if let Some(until) = self.routers[idx].next_wake_completion() {
            self.wake_due[idx] = until;
            self.waking.insert(idx);
        }
    }

    /// Queues router `idx` to run on the next step.
    fn mark_next(&mut self, idx: usize) {
        self.next.insert(idx);
        self.waking.remove(idx);
    }

    /// Queues router `idx` to run later in the *current* step's phase 2.
    fn mark_in(&mut self, idx: usize) {
        self.hot.insert(idx);
        self.waking.remove(idx);
    }

    /// Whether `node` can accept NI injections right now (the unit that
    /// powers its local input port is active).
    pub fn can_inject(&self, node: NodeId) -> bool {
        self.routers[node.index()].port_active(Port::Local)
    }

    /// Requests a wake-up of the unit that powers `node`'s local input
    /// port: the whole router, or only that port at port granularity.
    /// Called between steps, after every router's tick of the current
    /// cycle; a wake-up it starts enters the waking set.
    pub fn request_wake(&mut self, node: NodeId) {
        self.wake(node.index(), Port::Local, BETWEEN_STEPS, true);
    }

    /// Wakes the unit of router `idx` that powers input port `port`,
    /// maintaining the sleeper count and telemetry. The request is
    /// raised at phase-2 position `pos` of the current cycle, so it
    /// lands on the cycle edge after the router's tick of the cycle if
    /// `idx < pos`, and on the edge before it otherwise: phase-1
    /// deliveries pass 0, and calls between steps [`BETWEEN_STEPS`]. A
    /// request that starts no wake-up changes nothing. With `schedule`,
    /// a started wake-up enters the waking set, or the current run set
    /// if it completes in this cycle's tick (`t_wakeup` 1 on a router
    /// still ahead). The reference step passes no `schedule`, as it runs
    /// every router and re-seeds the sets afterwards.
    fn wake(&mut self, idx: usize, port: Port, pos: usize, schedule: bool) {
        let cycle = self.cycle;
        let past = idx < pos;
        let edge = if past { cycle } else { cycle - 1 };
        let r = &mut self.routers[idx];
        let was_sleeping = r.power_state().is_sleeping();
        if !r.request_wake(port, edge, cycle) {
            return;
        }
        self.sleepers -= usize::from(was_sleeping);
        self.active_mask[idx] = self.routers[idx].port_active_mask();
        self.note_power(idx);
        if schedule {
            if !past && self.routers[idx].next_wake_completion() == Some(cycle) {
                self.mark_in(idx);
            } else {
                self.reschedule(idx);
            }
        }
    }

    /// Whether the gating unit that powers input port `port` of `node`'s
    /// router may be safely gated right now (see
    /// [`Network::request_sleep`]). At router granularity every port
    /// names the one router unit.
    pub fn can_sleep(&self, node: NodeId, port: Port) -> bool {
        let idx = node.index();
        self.unit_can_sleep(idx, self.routers[idx].unit_of(port))
    }

    /// Whether gating unit `unit` of router `idx` may be gated: gating is
    /// on, the router-local guard holds (the unit is active and idle long
    /// enough, its inputs are empty), no flit is in flight toward any
    /// port the unit powers, and no upstream router holds an open
    /// wormhole or a crossbar flit toward one of them. A unit powering
    /// the local port additionally relies on the NI's wake-on-demand.
    fn unit_can_sleep(&self, idx: usize, unit: usize) -> bool {
        if self.cfg.granularity == Granularity::Off {
            return false;
        }
        let router = &self.routers[idx];
        if !router.sleep_guard_ok(unit, self.cycle) {
            return false;
        }
        let ports = router.unit_ports(unit);
        let powers = |port: Port| ports & (1 << port.index()) != 0;
        debug_assert_eq!(
            Port::ALL
                .into_iter()
                .filter(|&p| powers(p))
                .map(|p| self.inflight[idx * NUM_PORTS + p.index()] as usize)
                .sum::<usize>(),
            self.staged_flits
                .iter()
                .chain(self.link_stage.iter())
                .filter(|&&(i, p, _)| i as usize == idx && powers(p))
                .count(),
            "in-flight counters out of sync at {}",
            router.node()
        );
        for port in Port::ALL {
            if !powers(port) {
                continue;
            }
            if self.inflight[idx * NUM_PORTS + port.index()] > 0 {
                return false;
            }
            let upstream = self.adj[idx][port.index()];
            if upstream != NO_NEIGHBOR {
                let towards_us = port.opposite();
                let ur = &self.routers[upstream];
                if ur.outbound_binding_ports()[towards_us.index()] || ur.xbar_holds_toward(towards_us) {
                    return false;
                }
            }
        }
        true
    }

    /// Gates every unit of `node`'s router for which
    /// [`Network::can_sleep`] holds, except units that power a port in
    /// `keep_awake` (a bitmask over port indices). Returns whether any
    /// unit was put to sleep.
    pub fn request_sleep(&mut self, node: NodeId, keep_awake: u8) -> bool {
        let idx = node.index();
        let mut slept = false;
        for unit in 0..self.routers[idx].units().len() {
            if self.routers[idx].unit_ports(unit) & keep_awake != 0 || !self.unit_can_sleep(idx, unit) {
                continue;
            }
            let cycle = self.cycle;
            self.routers[idx].enter_sleep(unit, cycle);
            slept = true;
        }
        if slept {
            if self.routers[idx].power_state().is_sleeping() {
                self.sleepers += 1;
            }
            self.active_mask[idx] = self.routers[idx].port_active_mask();
            self.note_power(idx);
        }
        slept
    }

    /// Drains the packets whose tail ejected since the last drain, each
    /// with its creation cycle. A tail ejects at its destination,
    /// `tail.dst`.
    pub fn drain_ejected(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.ejected)
    }

    /// Appends the packets whose tail ejected since the last drain to
    /// `buf`, leaving the internal ejection buffer empty but with its
    /// capacity intact. Allocation-free steady state, unlike
    /// [`Network::drain_ejected`].
    pub fn drain_ejected_into(&mut self, buf: &mut Vec<Delivery>) {
        buf.append(&mut self.ejected);
    }

    /// Advances the network by one cycle through the event scheduler: a
    /// cycle only touches routers that have work (non-drained), receive
    /// a delivery or a wake request, or whose wake-up completes this
    /// cycle. Every other router is left untouched: its gating units
    /// keep time as timestamps, exact at every cycle edge without a
    /// tick. Bit-identical to
    /// [`Network::step_reference`] (asserted by the differential suite in
    /// `tests/eventdriven.rs`).
    pub fn step(&mut self) {
        if self.sched_stale {
            self.reseed_scheduler();
        }
        #[cfg(debug_assertions)]
        self.check_scheduler();
        self.cycle += 1;
        let cycle = self.cycle;

        // Collect this cycle's run set: routers queued by the previous
        // step, plus drained routers whose wake-up completes now.
        std::mem::swap(&mut self.hot, &mut self.next);
        let mut from = 0;
        while let Some(i) = self.waking.next_from(from) {
            from = i + 1;
            debug_assert!(self.wake_due[i] >= cycle, "wake-up completion missed at router {i}");
            if self.wake_due[i] == cycle {
                self.sched.wakeup_pops += 1;
                self.mark_in(i);
            }
        }

        // Phase 1: deliver flits that completed their link cycle, on the
        // edge before every router's tick of this cycle, and advance
        // flits leaving crossbars onto the link. Delivery targets join
        // the run set.
        let mut delivered = std::mem::take(&mut self.staged_flits);
        for &(idx, port, flit) in &delivered {
            let idx = idx as usize;
            self.inflight[idx * NUM_PORTS + port.index()] -= 1;
            let ping = self.routers[idx].deliver(port, flit, cycle - 1);
            self.mark_in(idx);
            if let Some(ping_dir) = ping {
                self.wake_neighbor(idx, ping_dir, 0, true);
            }
        }
        // Rotate buffers so their capacity is reused: flits placed on
        // links last cycle are now in transit, and the consumed vector
        // becomes the empty backing store for this cycle's link pushes.
        delivered.clear();
        self.staged_flits = std::mem::replace(&mut self.link_stage, delivered);
        self.return_staged_credits();

        // Phase 2: run the hot set in ascending index order. A wake
        // request raised mid-phase inserts its target ahead of the scan,
        // which reaches it.
        let mut from = 0;
        while let Some(idx) = self.hot.next_from(from) {
            from = idx + 1;
            self.run_scheduled_router(idx, cycle);
        }

        // Telemetry: catch transitions that happened inside the router
        // steps themselves (wake-ups completing in `psm.tick`), which no
        // explicit request call observed. Only
        // routers that ticked this cycle can have transitioned, and the
        // sweep visits them in ascending order, as the full loop's 0..n
        // sweep does.
        if S::ENABLED {
            let mut from = 0;
            while let Some(idx) = self.hot.next_from(from) {
                from = idx + 1;
                self.note_power(idx);
            }
        }
        self.hot.clear();
    }

    /// Runs one router of the current cycle's hot set (phase 2 of
    /// [`Network::step`]): tick the router, stage its link
    /// traversals and credit returns, record ejections, and propagate
    /// in-step wake requests. Refreshes the `active_mask` cache after
    /// the tick so later routers in the same phase observe wake-up
    /// countdowns that completed inside it.
    fn run_scheduled_router(&mut self, idx: usize, cycle: u64) {
        self.sched.router_runs += 1;
        // A drained router runs only when a wake-up completes on it; its
        // step does no allocation or traversal and produces no outputs.
        let idle = self.routers[idx].is_drained();
        self.sched.idle_runs += u64::from(idle);
        let adj = self.adj[idx];
        // Snapshot which neighbours can accept flits this cycle: the
        // downstream unit powering the input port our link feeds must be
        // active. The mask cache is refreshed at every power transition.
        let mut neighbor_active = [true; NUM_PORTS];
        for port in [Port::North, Port::East, Port::South, Port::West] {
            let pi = port.index();
            neighbor_active[pi] = match adj[pi] {
                NO_NEIGHBOR => false,
                nbr => self.active_mask[nbr] & (1u8 << port.opposite().index()) != 0,
            };
        }

        self.routers[idx].step(cycle, &neighbor_active, &mut self.scratch);
        self.active_mask[idx] = self.routers[idx].port_active_mask();
        let out = &self.scratch;
        if out.outbound.is_empty() && out.credits.is_empty() && out.ejected.is_empty() && out.wake_pings.is_empty() {
            self.sched.stalled_runs += u64::from(!idle);
        }
        self.stage_outputs(idx);
        if !self.scratch.wake_pings.is_empty() {
            let pings = std::mem::take(&mut self.scratch.wake_pings);
            for &ping in &pings {
                self.wake_neighbor(idx, ping, idx, true);
            }
            self.scratch.wake_pings = pings;
        }

        if self.routers[idx].is_drained() {
            self.reschedule(idx);
        } else {
            self.mark_next(idx);
        }
    }

    /// The per-cycle oracle for [`Network::step`]: one cycle of the
    /// original scan-everything loop, in which every router computes
    /// its neighbour mask from the live routers and runs
    /// [`Router::step_reference`] (the independently implemented
    /// reference allocator), with no scheduler machinery engaged. The
    /// differential suites diff it against `step`, and the benchmarks
    /// time it as the naive baseline.
    ///
    /// Calls may be freely interleaved with `step`: the scheduler's
    /// sets are marked stale afterwards, so the next `step` re-seeds
    /// them from live state. A run stepped only by this method leaves
    /// [`Network::sched_stats`] at zero and does no scheduler work.
    pub fn step_reference(&mut self) {
        self.cycle += 1;
        let cycle = self.cycle;

        // Phase 1: deliver flits that completed their link cycle, and
        // advance flits leaving crossbars onto the link.
        let mut delivered = std::mem::take(&mut self.staged_flits);
        for &(idx, port, flit) in &delivered {
            let idx = idx as usize;
            self.inflight[idx * NUM_PORTS + port.index()] -= 1;
            if let Some(ping_dir) = self.routers[idx].deliver(port, flit, cycle - 1) {
                self.wake_neighbor(idx, ping_dir, 0, false);
            }
        }
        delivered.clear();
        self.staged_flits = std::mem::replace(&mut self.link_stage, delivered);
        self.return_staged_credits();

        // Phase 2: step every router; collect outputs into fresh staging.
        for idx in 0..self.routers.len() {
            let adj = self.adj[idx];
            let mut neighbor_active = [true; NUM_PORTS];
            for port in [Port::North, Port::East, Port::South, Port::West] {
                let pi = port.index();
                neighbor_active[pi] = match adj[pi] {
                    NO_NEIGHBOR => false,
                    nbr => self.routers[nbr].port_active(port.opposite()),
                };
            }

            self.routers[idx].step_reference(cycle, &neighbor_active, &mut self.scratch);
            self.stage_outputs(idx);
            let pings = std::mem::take(&mut self.scratch.wake_pings);
            for &ping in &pings {
                self.wake_neighbor(idx, ping, idx, false);
            }
            self.scratch.wake_pings = pings;
        }

        if S::ENABLED {
            for idx in 0..self.routers.len() {
                self.note_power(idx);
            }
        }
        self.sched_stale = true;
    }

    /// Returns the credits staged last cycle to their routers. Credit
    /// returns are time-invariant and cannot create work for a drained
    /// router (nothing buffered to send), so no receiver is scheduled.
    fn return_staged_credits(&mut self) {
        let mut credits = std::mem::take(&mut self.staged_credits);
        for &(idx, port, vc) in &credits {
            self.routers[idx as usize].return_credit(port, vc);
        }
        credits.clear();
        self.staged_credits = credits;
    }

    /// Stages router `idx`'s outputs of this cycle, left in `scratch`, in
    /// both steps: flits leaving on links (with the look-ahead route at
    /// the next router), credits back upstream, and ejections. Wake pings
    /// are the caller's.
    #[inline]
    fn stage_outputs(&mut self, idx: usize) {
        let (n, adj) = (self.cfg.dims.num_nodes(), self.adj[idx]);
        let out = &self.scratch;
        for ob in &out.outbound {
            let nbr = adj[ob.out_port.index()];
            debug_assert!(nbr != NO_NEIGHBOR, "link to nowhere");
            let in_port = ob.out_port.opposite();
            let mut flit = ob.flit;
            flit.lookahead = self.route_lut[nbr * n + flit.dst.index()];
            self.inflight[nbr * NUM_PORTS + in_port.index()] += 1;
            self.link_stage.push((nbr as u32, in_port, flit));
        }
        for cr in &out.credits {
            let upstream = adj[cr.in_port.index()];
            debug_assert!(upstream != NO_NEIGHBOR, "credit to nowhere");
            // The upstream router's output port towards us.
            self.staged_credits.push((upstream as u32, cr.in_port.opposite(), cr.vc));
        }
        if !out.ejected.is_empty() {
            let mut ejected = std::mem::take(&mut self.scratch.ejected);
            for flit in ejected.drain(..) {
                debug_assert_eq!(flit.dst.index(), idx, "flit ejected at wrong node");
                if flit.kind.is_tail() {
                    self.record_delivery(flit);
                }
            }
            self.scratch.ejected = ejected;
        }
    }

    /// A tail ejected: its packet leaves the packet table, and the
    /// network counts the packet and its network latency.
    fn record_delivery(&mut self, tail: Flit) {
        // Decode and the debug scheduler check guarantee the entry.
        let times = self.packets.remove(&tail.packet).unwrap_or_default();
        self.stats.packets_ejected += 1;
        self.stats.net_latency_sum += self.cycle.saturating_sub(times.injected);
        self.ejected.push(Delivery {
            tail,
            created_cycle: times.created,
        });
    }

    /// Look-ahead wake ping from router `from` toward `dir_port`,
    /// raised at phase-2 position `pos` (see [`Network::wake`]): wakes
    /// the unit that powers the input port the link enters, if there is
    /// a router across it.
    fn wake_neighbor(&mut self, from: usize, dir_port: Port, pos: usize, schedule: bool) {
        let nbr = self.adj[from][dir_port.index()];
        if nbr != NO_NEIGHBOR {
            self.wake(nbr, dir_port.opposite(), pos, schedule);
        }
    }

    /// Whether every router is in the `Sleep` power state. O(1) via the
    /// scheduler's census counter; always `false` at port granularity
    /// (the router-level state never leaves Active).
    pub fn all_asleep(&self) -> bool {
        self.sleepers == self.routers.len()
    }

    /// Whether no router holds any flit in its input buffers or crossbar
    /// register: the scheduler queues exactly the non-drained routers for
    /// the next step, so this reads whether that set is empty.
    /// Conservatively `false` right after a reference step (the set is
    /// rebuilt by the next `step`). Flits on links or in staging are
    /// *not* covered (see [`Network::flits_in_network`]).
    pub fn all_drained(&self) -> bool {
        !self.sched_stale && self.next.is_empty()
    }

    /// Sum of router activity counters across the network.
    pub fn total_activity(&self) -> RouterActivity {
        self.routers
            .iter()
            .map(|r| r.activity)
            .fold(RouterActivity::default(), RouterActivity::merged)
    }

    /// Sum of power-gating residency across the network.
    pub fn total_gating(&self) -> GatingActivity {
        self.routers
            .iter()
            .map(|r| r.gating_activity(self.cycle))
            .fold(GatingActivity::default(), GatingActivity::merged)
    }

    /// Number of routers currently in each router-level power state:
    /// `(active, sleeping, waking)`.
    pub fn power_state_census(&self) -> (usize, usize, usize) {
        let mut census = (0, 0, 0);
        for r in &self.routers {
            match r.power_state() {
                PowerState::Active => census.0 += 1,
                PowerState::Sleep => census.1 += 1,
                PowerState::WakeUp { .. } => census.2 += 1,
            }
        }
        census
    }

    /// Total flits currently buffered, in flight, or in crossbar registers
    /// (for conservation checks in tests). Single pass over the routers,
    /// reading each one's occupancy counter.
    pub fn flits_in_network(&self) -> usize {
        let in_routers: usize = self.routers.iter().map(Router::occupancy).sum();
        in_routers + self.staged_flits.len() + self.link_stage.len()
    }

    /// Closes out gating accounting (call once at the end of a run before
    /// reading [`Network::total_gating`]).
    pub fn finalize(&mut self) {
        let cycle = self.cycle;
        for r in &mut self.routers {
            r.finalize(cycle);
        }
    }

    /// Serializes the subnet's simulation state (checkpointing).
    ///
    /// Must be called at a cycle edge (between steps). Saving reads the
    /// network and changes nothing, so it cannot perturb the run. What
    /// is stored: clock, packet-id counter, the statistics no router
    /// counts, every router with its gating units' timestamps as held,
    /// the link and staging
    /// buffers, the credits in flight, the delivered packets not yet
    /// drained and, once per packet in flight, its creation and
    /// injection cycles. Everything
    /// else is derived, and [`Network::load_state`] rebuilds it: the adjacency
    /// and route tables (functions of the config), every flit's
    /// look-ahead, the routers' credits, the in-flight counters, the
    /// event-scheduler sets and the telemetry shadows. The scheduler's
    /// [`SchedStats`] are instrumentation, not simulation state: a
    /// resumed network counts its own work from zero, so checkpoints of
    /// equal state are equal bytes however often the run was saved.
    pub fn save_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.cycle);
        w.put_u64(self.next_packet_id);
        w.put_u64(self.stats.flits_injected);
        w.put_u64(self.stats.packets_ejected);
        w.put_u64(self.stats.net_latency_sum);
        for r in &self.routers {
            r.encode(w);
        }
        for stage in [&self.link_stage, &self.staged_flits] {
            w.put_usize(stage.len());
            for &(idx, port, ref flit) in stage {
                w.put_u32(idx);
                checkpoint::put_port(w, port);
                checkpoint::put_flit(w, flit);
            }
        }
        w.put_usize(self.staged_credits.len());
        for &(idx, port, vc) in &self.staged_credits {
            w.put_u32(idx);
            checkpoint::put_port(w, port);
            w.put_u8(vc);
        }
        w.put_usize(self.ejected.len());
        for d in &self.ejected {
            checkpoint::put_flit(w, &d.tail);
            w.put_u64(d.created_cycle);
        }
        // In id order, so equal tables are equal bytes.
        let mut packets: Vec<_> = self.packets.iter().collect();
        packets.sort_unstable_by_key(|&(id, _)| *id);
        w.put_usize(packets.len());
        for (id, times) in packets {
            w.put_u64(id.0);
            w.put_u64(times.created);
            w.put_u64(times.injected);
        }
    }

    /// Overlays serialized state from [`Network::save_state`] onto this
    /// network, which must have been built from the *same configuration*
    /// (the config itself is not in the byte stream; the core crate's
    /// checkpoint container guards it with a fingerprint), and rebuilds
    /// every derived value from the decoded state.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the stream is truncated or names a state the
    /// simulation cannot reach: bad tags; a router, node id or VC out of
    /// range; a gating-unit count that does not match the granularity; a
    /// gating unit's timestamp after the clock, a wake-up that does not
    /// complete within the wake-up latency after it, or a gating unit
    /// slept or woke for more cycles than have elapsed; a
    /// flit or binding at an input port without a link; a binding toward
    /// a port without a link; a downstream VC bound twice; a staged flit
    /// that does not enter through a linked, powered mesh port; a
    /// crossbar flit toward a gated port; a staged credit for a port
    /// without a link; or a downstream VC owing more flits and credits
    /// than its depth; a packet-table entry out of id order; or a flit
    /// whose packet has no table entry. Wormhole order and which packets
    /// the table may hold also depend on what the network interfaces
    /// inject next, so [`Network::check_wormholes`] checks them once they
    /// are decoded. On error the network is left in an unspecified but
    /// memory-safe state and must be discarded.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        let n = self.routers.len();
        let vcs = self.cfg.vcs_per_port;
        self.cycle = r.get_u64()?;
        self.next_packet_id = r.get_u64()?;
        self.stats = NetworkStats {
            flits_injected: r.get_u64()?,
            packets_ejected: r.get_u64()?,
            net_latency_sum: r.get_u64()?,
        };
        for idx in 0..n {
            self.routers[idx] = Router::decode(r, NodeId(idx as u16), &self.cfg, self.cycle)?;
        }
        let decode_staged = |r: &mut ByteReader<'_>| -> Result<Vec<(u32, Port, Flit)>, CodecError> {
            let len = r.get_usize()?;
            if len > n * NUM_PORTS * 64 {
                return Err(CodecError::Invalid("staging buffer implausibly large"));
            }
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                let idx = r.get_u32()? as usize;
                if idx >= n {
                    return Err(CodecError::Invalid("staged router index out of range"));
                }
                // Only a link (never the local port) carries a staged
                // flit. The sender's allocation saw the receiving unit
                // active, and a unit with a flit in flight toward it
                // cannot gate.
                let port = checkpoint::get_port(r)?;
                if self.adj[idx][port.index()] == NO_NEIGHBOR || !self.routers[idx].port_active(port) {
                    return Err(CodecError::Invalid("staged flit not entering a linked, powered port"));
                }
                let flit = checkpoint::get_flit(r, n, vcs, |dst| self.route_lut[idx * n + dst.index()])?;
                out.push((idx as u32, port, flit));
            }
            Ok(out)
        };
        self.link_stage = decode_staged(r)?;
        self.staged_flits = decode_staged(r)?;
        let credits_len = r.get_usize()?;
        if credits_len > n * NUM_PORTS * 64 {
            return Err(CodecError::Invalid("credit staging implausibly large"));
        }
        self.staged_credits.clear();
        for _ in 0..credits_len {
            let idx = r.get_u32()? as usize;
            if idx >= n {
                return Err(CodecError::Invalid("staged credit index out of range"));
            }
            let port = checkpoint::get_port(r)?;
            if self.adj[idx][port.index()] == NO_NEIGHBOR {
                return Err(CodecError::Invalid("staged credit for a port without a link"));
            }
            let vc = r.get_u8()?;
            if vc as usize >= vcs {
                return Err(CodecError::Invalid("staged credit VC out of range"));
            }
            self.staged_credits.push((idx as u32, port, vc));
        }
        let ejected_len = r.get_usize()?;
        if ejected_len > n * 64 {
            return Err(CodecError::Invalid("ejection buffer implausibly large"));
        }
        self.ejected.clear();
        for _ in 0..ejected_len {
            let tail = checkpoint::get_flit(r, n, vcs, |_| Port::Local)?;
            if !tail.kind.is_tail() {
                return Err(CodecError::Invalid("delivered packet without its tail"));
            }
            let created_cycle = r.get_u64()?;
            self.ejected.push(Delivery { tail, created_cycle });
        }
        let packets_len = r.get_usize()?;
        if packets_len > self.flits_in_network() + n {
            return Err(CodecError::Invalid("packet table larger than the packets in flight"));
        }
        self.packets.clear();
        let mut last = None;
        for _ in 0..packets_len {
            let id = PacketId(r.get_u64()?);
            if last.is_some_and(|last| id <= last) {
                return Err(CodecError::Invalid("packet table out of id order"));
            }
            last = Some(id);
            let times = PacketTimes {
                created: r.get_u64()?,
                injected: r.get_u64()?,
            };
            self.packets.insert(id, times);
        }
        let mut in_network: Vec<&Flit> = self.link_stage.iter().chain(&self.staged_flits).map(|(_, _, f)| f).collect();
        self.routers.iter().for_each(|r| r.for_each_flit(|f| in_network.push(f)));
        if in_network.iter().any(|f| !self.packets.contains_key(&f.packet)) {
            return Err(CodecError::Invalid("flit of a packet with no table entry"));
        }
        // A granted flit crosses its crossbar next cycle into a
        // downstream unit that was active at the grant and cannot gate
        // while the flit is headed for it. (Its port is its X-Y route,
        // which always has a link.)
        for idx in 0..n {
            for flit in self.routers[idx].xbar_flits() {
                let port = flit.lookahead;
                if port != Port::Local && !self.routers[self.adj[idx][port.index()]].port_active(port.opposite()) {
                    return Err(CodecError::Invalid("crossbar flit toward a gated port"));
                }
            }
        }

        // Everything below is derived: recomputed, never deserialized.
        self.rebuild_credits()?;
        self.sched = SchedStats::default();
        self.scratch = RouterOutput::default();
        self.inflight = vec![0; n * NUM_PORTS];
        for &(idx, port, _) in self.link_stage.iter().chain(&self.staged_flits) {
            self.inflight[idx as usize * NUM_PORTS + port.index()] += 1;
        }
        self.sleepers = self.routers.iter().filter(|r| r.power_state().is_sleeping()).count();
        if S::ENABLED {
            self.power_shadow = self.routers.iter().map(|r| PowerPhase::from(r.power_state())).collect();
        }
        self.reseed_scheduler();
        Ok(())
    }

    /// Checks wormhole order after checkpoint decode (DESIGN.md §13):
    /// every flit of a packet carries one destination, and along each
    /// input VC's arrival stream — its buffer, what arrives next at it
    /// (staged, link and upstream crossbar flits, or at a local port the
    /// interface's next flit), then up to the first tail the stream of
    /// the upstream VC bound to it — an unbound VC's stream starts with
    /// a head, each flit [follows](Flit::follows) the one before, and a
    /// bound packet routes through its binding up to its tail, which the
    /// stream holds unless it ends at an interface part-way through the
    /// packet. `next(node)` is that flit of `node`'s interface on this
    /// subnet, with its local VC.
    ///
    /// It also checks the packet table against the flits: no flit is
    /// held twice or after its packet's tail (a crossbar flit leaving
    /// through the local port is in no arrival stream), every flit in
    /// the network or next at an interface has
    /// its packet's entry, and every entry's packet has a flit left in
    /// the network or at an interface.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] if any of this does not hold.
    pub fn check_wormholes(&self, next: impl Fn(NodeId) -> Option<(usize, Flit)>) -> Result<(), CodecError> {
        let (n, vcs) = (self.routers.len(), self.cfg.vcs_per_port);
        // VCs are indexed `(router * NUM_PORTS + port) * vcs + vc`.
        let vc_at = |i: usize| (i / (NUM_PORTS * vcs), Port::from_index(i / vcs % NUM_PORTS), i % vcs);
        let at = |idx: usize, port: Port, vc: usize| (idx * NUM_PORTS + port.index()) * vcs + vc;
        let mut in_network: Vec<&Flit> = self.link_stage.iter().chain(&self.staged_flits).map(|(_, _, f)| f).collect();
        self.routers.iter().for_each(|r| r.for_each_flit(|f| in_network.push(f)));
        let mut dsts: Vec<(PacketId, NodeId)> = (in_network.iter().copied())
            .chain(self.ejected.iter().map(|d| &d.tail))
            .map(|flit| (flit.packet, flit.dst))
            .collect();
        dsts.sort_unstable();
        dsts.dedup();
        if dsts.windows(2).any(|pair| pair[0].0 == pair[1].0) {
            return Err(CodecError::Invalid("packet's flits bound for different nodes"));
        }
        let mut held: Vec<(PacketId, u16, bool)> =
            in_network.iter().map(|f| (f.packet, f.seq, f.kind.is_tail())).collect();
        let at_interfaces: Vec<Flit> = (0..n).filter_map(|i| next(NodeId(i as u16))).map(|(_, f)| f).collect();
        held.extend(at_interfaces.iter().map(|f| (f.packet, f.seq, f.kind.is_tail())));
        held.sort_unstable();
        if held.windows(2).any(|pair| (pair[0].0, pair[0].1) == (pair[1].0, pair[1].1)) {
            return Err(CodecError::Invalid("flit held twice"));
        }
        // A tail is its packet's last flit, wherever it sits (a crossbar
        // flit on its way out through the local port is in no VC's
        // arrival stream below).
        if held.windows(2).any(|pair| pair[0].2 && pair[0].0 == pair[1].0) {
            return Err(CodecError::Invalid("flit held after its packet's tail"));
        }
        if at_interfaces.iter().any(|f| !self.packets.contains_key(&f.packet)) {
            return Err(CodecError::Invalid("flit of a packet with no table entry"));
        }
        let has_flit = |id: &PacketId| {
            let first = held.partition_point(|(p, ..)| p < id);
            held.get(first).is_some_and(|(p, ..)| p == id)
        };
        if self.packets.keys().any(|id| !has_flit(id)) {
            return Err(CodecError::Invalid("packet entry with no flit left"));
        }

        // Per VC: the flits arriving next, in order, and the upstream VC
        // bound to it.
        let mut inflight: Vec<Vec<Flit>> = vec![Vec::new(); n * NUM_PORTS * vcs];
        let mut upstream: Vec<Option<usize>> = vec![None; n * NUM_PORTS * vcs];
        for &(idx, port, flit) in self.staged_flits.iter().chain(&self.link_stage) {
            inflight[at(idx as usize, port, flit.vc as usize)].push(flit);
        }
        for (idx, router) in self.routers.iter().enumerate() {
            for &flit in router.xbar_flits() {
                let out = flit.lookahead;
                if out != Port::Local {
                    inflight[at(self.adj[idx][out.index()], out.opposite(), flit.vc as usize)].push(flit);
                }
            }
            if let Some((vc, flit)) = next(router.node()).filter(|&(vc, _)| vc < vcs) {
                inflight[at(idx, Port::Local, vc)].push(flit);
            }
        }
        for i in 0..upstream.len() {
            let (idx, port, vc) = vc_at(i);
            if let Some(b) = self.routers[idx].binding(port, vc).filter(|b| b.out_port != Port::Local) {
                let downstream = self.adj[idx][b.out_port.index()];
                upstream[at(downstream, b.out_port.opposite(), b.out_vc as usize)] = Some(i);
            }
        }

        for i in 0..upstream.len() {
            let (idx, port, vc) = vc_at(i);
            let mut bound = self.routers[idx].binding(port, vc).map(|b| b.out_port);
            let mut prev: Option<&Flit> = None;
            let mut link = i;
            // A packet's bindings run along its X-Y path: a longer chain
            // is a cycle, and its bound packet never ends.
            'chain: for _ in 0..n {
                let (jdx, jport, jvc) = vc_at(link);
                for flit in self.routers[jdx].vc_flits(jport, jvc).chain(&inflight[link]) {
                    if !prev.map_or(bound.is_some() || flit.kind.is_head(), |p| flit.follows(p)) {
                        return Err(CodecError::Invalid("flits out of wormhole order"));
                    }
                    if let Some(out) = bound {
                        if self.route_lut[idx * n + flit.dst.index()] != out {
                            return Err(CodecError::Invalid("bound VC's packet routes away from its binding"));
                        }
                        if flit.kind.is_tail() {
                            bound = None;
                        }
                    }
                    prev = Some(flit);
                    if link != i && flit.kind.is_tail() {
                        break 'chain;
                    }
                }
                let Some(up) = upstream[link] else { break };
                link = up;
            }
            if bound.is_some() && (vc_at(link).1 != Port::Local || inflight[link].is_empty()) {
                return Err(CodecError::Invalid("bound VC's packet has no tail upstream"));
            }
        }
        Ok(())
    }

    /// Rebuilds every router's credits from the decoded flits and
    /// credits (credit-based flow control's invariant): a mesh output
    /// VC's credit is `vc_depth` less the flits in the downstream VC, on
    /// the link toward it and in this router's crossbar register toward
    /// it, less the credits on their way back for it.
    fn rebuild_credits(&mut self) -> Result<(), CodecError> {
        let vcs = self.cfg.vcs_per_port;
        let at = |idx: usize, out: Port, vc: usize| (idx * NUM_PORTS + out.index()) * vcs + vc;
        let mut owed = vec![0u32; self.routers.len() * NUM_PORTS * vcs];
        for (idx, router) in self.routers.iter().enumerate() {
            for in_port in Port::ALL {
                let upstream = self.adj[idx][in_port.index()];
                if upstream != NO_NEIGHBOR {
                    for vc in 0..vcs {
                        owed[at(upstream, in_port.opposite(), vc)] += router.vc_occupancy(in_port, vc) as u32;
                    }
                }
            }
            for flit in router.xbar_flits() {
                if flit.lookahead != Port::Local {
                    owed[at(idx, flit.lookahead, flit.vc as usize)] += 1;
                }
            }
        }
        for &(idx, in_port, flit) in self.link_stage.iter().chain(&self.staged_flits) {
            owed[at(
                self.adj[idx as usize][in_port.index()],
                in_port.opposite(),
                flit.vc as usize,
            )] += 1;
        }
        for &(idx, out, vc) in &self.staged_credits {
            owed[at(idx as usize, out, vc as usize)] += 1;
        }
        for (router, owed) in self.routers.iter_mut().zip(owed.chunks(NUM_PORTS * vcs)) {
            router.restore_credits(owed)?;
        }
        Ok(())
    }

    /// Convenience for tests and examples: builds a single-flit synthetic
    /// packet from `src` to `dst` with the correct look-ahead field, ready
    /// for [`Network::try_inject_flit`].
    pub fn make_single_flit_packet(&mut self, src: NodeId, dst: NodeId) -> Flit {
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        Flit {
            packet: id,
            kind: FlitKind::Single,
            dst,
            seq: 0,
            class: MessageClass::Synthetic,
            lookahead: self.route_at(src, dst),
            vc: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GatingConfig;
    use crate::geometry::MeshDims;

    fn small_net(gating: bool) -> Network {
        let granularity = if gating { Granularity::Router } else { Granularity::Off };
        Network::new(NetworkConfig::paper().dims(MeshDims::new(4, 4)).granularity(granularity))
    }

    /// Every flit of a packet carries the packet's destination: a tail
    /// queued behind its head but bound elsewhere cannot decode.
    #[test]
    fn decode_rejects_a_packet_bound_for_two_nodes() {
        let with_body_to = |dst: NodeId| {
            let mut net = small_net(false);
            let head = head_to_15(&mut net);
            let tail = Flit {
                dst,
                ..behind(head, 1, 2)
            };
            assert!(net.try_inject_flit(NodeId(0), 0, head, 0) && net.try_inject_flit(NodeId(0), 0, tail, 0));
            reload_checked(&net)
        };
        assert_eq!(with_body_to(NodeId(15)), Ok(()));
        assert_eq!(
            with_body_to(NodeId(14)),
            Err(CodecError::Invalid("packet's flits bound for different nodes"))
        );
    }

    /// The head of a multi-flit packet from node 0 to node 15 of a 4x4
    /// mesh, where it leaves East.
    fn head_to_15(net: &mut Network) -> Flit {
        let single = net.make_single_flit_packet(NodeId(0), NodeId(15));
        Flit {
            kind: FlitKind::Head,
            ..single
        }
    }

    /// Flit `seq` of `head`'s packet of `len` flits: the head itself, a
    /// body, or the tail if last.
    fn behind(head: Flit, seq: u16, len: u16) -> Flit {
        let kind = match seq {
            0 => head.kind,
            s if s + 1 >= len => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        Flit { kind, seq, ..head }
    }

    /// [`reload`], then the wormhole check with no interface part-way
    /// through a packet.
    fn reload_checked(net: &Network) -> Result<(), CodecError> {
        reload(net)?.check_wormholes(|_| None)
    }

    /// An unbound VC holds no packet yet, so its stream starts with a
    /// head.
    #[test]
    fn decode_rejects_an_unbound_vc_fronted_by_a_non_head_flit() {
        let fronted_by = |seq: u16| {
            let mut net = small_net(false);
            let head = head_to_15(&mut net);
            net.packets.insert(head.packet, PacketTimes::default());
            assert!(net.try_inject_flit(NodeId(0), 0, behind(head, seq, 2), 0));
            reload_checked(&net)
        };
        assert_eq!(fronted_by(0), Ok(()));
        assert_eq!(fronted_by(1), Err(CodecError::Invalid("flits out of wormhole order")));
    }

    /// Node 0's local VC stays bound East until the tail leaves, so a
    /// tail routed South from there (toward node 12) cannot decode.
    #[test]
    fn decode_rejects_a_bound_packet_routed_away_from_its_binding() {
        let tail_to = |dst: NodeId| {
            let mut net = small_net(false);
            let head = head_to_15(&mut net);
            assert!(net.try_inject_flit(NodeId(0), 0, head, 0));
            while net.total_activity().ejected_flits == 0 {
                net.step();
            }
            assert!(net.try_inject_flit(
                NodeId(0),
                0,
                Flit {
                    dst,
                    ..behind(head, 1, 2)
                },
                0
            ));
            reload_checked(&net)
        };
        assert_eq!(tail_to(NodeId(15)), Ok(()));
        assert_eq!(
            tail_to(NodeId(12)),
            Err(CodecError::Invalid("bound VC's packet routes away from its binding"))
        );
    }

    /// A VC's binding holds until its packet's tail leaves, and the
    /// packet's other flits reach it from upstream: router 1's West VC,
    /// bound for a head that arrived with no upstream binding and no
    /// tail behind it, cannot decode.
    #[test]
    fn decode_rejects_a_bound_packet_without_its_tail() {
        let with_flits = |len: u16| {
            let mut net = small_net(false);
            let head = head_to_15(&mut net);
            net.packets.insert(head.packet, PacketTimes::default());
            for seq in 0..len {
                net.routers[1].deliver(Port::West, behind(head, seq, 2), 0);
            }
            net.step_reference();
            reload_checked(&net)
        };
        assert_eq!(with_flits(2), Ok(()));
        assert_eq!(
            with_flits(1),
            Err(CodecError::Invalid("bound VC's packet has no tail upstream"))
        );
    }

    /// A tail is its packet's last flit. A crossbar flit leaving through
    /// the local port is in no VC's arrival stream, so a head there read
    /// as a tail, with the rest of its packet buffered behind it, is
    /// caught by the packet's flits alone: its ejection would drop the
    /// table entry the rest still needs.
    #[test]
    fn decode_rejects_a_flit_held_after_its_packets_tail() {
        let mut net = small_net(false);
        let head = Flit {
            packet: PacketId(0x5eed_cafe),
            dst: NodeId(1),
            lookahead: Port::Local,
            ..head_to_15(&mut net)
        };
        net.packets.insert(head.packet, PacketTimes::default());
        for seq in 0..4 {
            net.routers[1].deliver(Port::West, behind(head, seq, 4), 0);
        }
        net.step_reference();
        // The head is in router 1's crossbar register on its way out;
        // find it by packet, kind, destination and sequence number.
        let mut w = ByteWriter::new();
        net.save_state(&mut w);
        let mut bytes = w.into_inner();
        let mut stored = ByteWriter::new();
        crate::checkpoint::put_flit(&mut stored, &head);
        let stored = &stored.into_inner()[..13];
        let at = bytes
            .windows(stored.len())
            .position(|b| b == stored)
            .expect("crossbar head stored");
        let decode = |bytes: &[u8]| {
            let mut back = Network::new(net.config().clone());
            back.load_state(&mut ByteReader::new(bytes))?;
            back.check_wormholes(|_| None)
        };
        assert_eq!(decode(&bytes), Ok(()));
        bytes[at + 8] = 2; // the kind byte: Tail
        assert_eq!(
            decode(&bytes),
            Err(CodecError::Invalid("flit held after its packet's tail"))
        );
    }

    /// After node 0's head leaves, its local VC 0 is bound for the rest
    /// of the packet, which the interface injects: its next flit must
    /// follow the head into VC 0, and VC 0 cannot be left without it.
    #[test]
    fn interface_flits_continue_the_local_vc_they_are_bound_for() {
        let mut net = small_net(false);
        let head = head_to_15(&mut net);
        assert!(net.try_inject_flit(NodeId(0), 0, head, 0));
        net.step();
        let next = |vc: usize, seq: u16| move |node: NodeId| (node == NodeId(0)).then_some((vc, behind(head, seq, 3)));
        assert_eq!(net.check_wormholes(next(0, 1)), Ok(()));
        assert_eq!(
            net.check_wormholes(next(0, 2)),
            Err(CodecError::Invalid("flits out of wormhole order"))
        );
        for unfed in [net.check_wormholes(next(1, 1)), net.check_wormholes(|_| None)] {
            assert_eq!(
                unfed,
                Err(CodecError::Invalid("bound VC's packet has no tail upstream"))
            );
        }
    }

    /// A gating unit's open sleep period runs from its start to the
    /// clock, and its active residency is the elapsed cycles less its
    /// sleep and wake-up residencies: a network whose clock (the first
    /// eight payload bytes) reads earlier than a router began to sleep
    /// cannot decode, nor one whose clock is past a router's wake-up
    /// completion, nor one that slept longer than the clock has run
    /// (see the power-state machine's decode tests).
    #[test]
    fn decode_rejects_gated_residency_beyond_the_elapsed_cycles() {
        let mut net = small_net(true);
        for _ in 0..10 {
            net.step();
        }
        assert!(net.request_sleep(NodeId(5), 0));
        for _ in 0..20 {
            net.step();
        }
        let at_cycle = |net: &Network, cycle: u64| {
            let mut w = ByteWriter::new();
            net.save_state(&mut w);
            let mut bytes = w.into_inner();
            bytes[..8].copy_from_slice(&cycle.to_le_bytes());
            small_net(true).load_state(&mut ByteReader::new(&bytes))
        };
        assert_eq!(at_cycle(&net, 30), Ok(()));
        assert_eq!(at_cycle(&net, 10), Ok(()), "slept no cycle yet");
        assert_eq!(
            at_cycle(&net, 9),
            Err(CodecError::Invalid("timestamp after the checkpoint's cycle"))
        );
        net.request_wake(NodeId(5));
        let t_wakeup = u64::from(net.config().gating.t_wakeup);
        assert_eq!(at_cycle(&net, 30 + t_wakeup - 1), Ok(()));
        assert_eq!(
            at_cycle(&net, 30 + t_wakeup),
            Err(CodecError::Invalid("wake-up completion outside the wake-up latency"))
        );
    }

    #[test]
    fn single_flit_end_to_end() {
        let mut net = small_net(false);
        let src = NodeId(0);
        let dst = NodeId(15);
        let flit = net.make_single_flit_packet(src, dst);
        assert!(net.try_inject_flit(src, 0, flit, 0));
        let mut ejections = Vec::new();
        for _ in 0..60 {
            net.step();
            ejections.extend(net.drain_ejected());
        }
        assert_eq!(ejections.len(), 1);
        assert_eq!(ejections[0].tail.dst, dst);
        assert_eq!(net.stats().packets_ejected, 1);
        // 6 hops on a 4x4 mesh corner-to-corner, ~3 cycles/hop.
        let lat = net.stats().avg_net_latency();
        assert!((18.0..=26.0).contains(&lat), "zero-load latency {lat} out of range");
    }

    #[test]
    fn injection_fails_when_vc_full() {
        let mut net = small_net(false);
        let src = NodeId(0);
        let dst = NodeId(3);
        for _ in 0..4 {
            let f = net.make_single_flit_packet(src, dst);
            assert!(net.try_inject_flit(src, 0, f, 0));
        }
        let f = net.make_single_flit_packet(src, dst);
        assert!(
            !net.try_inject_flit(src, 0, f, 0),
            "fifth flit must not fit in depth-4 VC"
        );
    }

    #[test]
    fn many_packets_all_delivered() {
        let mut net = small_net(false);
        let dims = net.dims();
        let mut sent = 0u64;
        for round in 0..10 {
            for node in dims.nodes() {
                let dst = NodeId(((node.index() as u16) * 7 + 3 + round) % 16);
                if dst == node {
                    continue;
                }
                let f = net.make_single_flit_packet(node, dst);
                if net.try_inject_flit(node, round as usize % 4, f, 0) {
                    sent += 1;
                }
            }
            net.step();
        }
        for _ in 0..300 {
            net.step();
        }
        net.drain_ejected();
        assert_eq!(net.stats().packets_ejected, sent);
        assert_eq!(net.total_activity().ejected_flits, net.stats().flits_injected);
    }

    #[test]
    fn gated_network_sleeps_and_recovers() {
        let mut net = small_net(true);
        // Let everything idle out, then gate every router.
        for _ in 0..10 {
            net.step();
        }
        for node in net.dims().nodes() {
            assert!(net.can_sleep(node, Port::Local), "idle router must be gateable");
            assert!(net.request_sleep(node, 0));
        }
        let (active, sleeping, _) = net.power_state_census();
        assert_eq!(active, 0);
        assert_eq!(sleeping, 16);
        // Wake the source and let a packet force wake-ups along its path.
        net.request_wake(NodeId(0));
        for _ in 0..GatingConfig::paper().t_wakeup as usize {
            net.step();
        }
        assert!(net.is_active(NodeId(0)));
        let f = net.make_single_flit_packet(NodeId(0), NodeId(15));
        assert!(net.try_inject_flit(NodeId(0), 0, f, 0));
        let mut got = Vec::new();
        for _ in 0..200 {
            net.step();
            got.extend(net.drain_ejected());
        }
        assert_eq!(
            got.len(),
            1,
            "packet must be delivered through sleeping routers via wake-ups"
        );
        // Latency includes wake-up stalls.
        assert!(net.stats().avg_net_latency() > 20.0);
    }

    #[test]
    fn sleep_denied_when_gating_disabled() {
        let mut net = small_net(false);
        for _ in 0..10 {
            net.step();
        }
        assert!(!net.can_sleep(NodeId(5), Port::Local));
        assert!(!net.request_sleep(NodeId(5), 0));
    }

    #[test]
    fn sleep_denied_with_inbound_wormhole() {
        let mut net = small_net(true);
        // A 4-flit packet from node 0 to node 3 passes through nodes 1, 2.
        let src = NodeId(0);
        let dst = NodeId(3);
        let mut flits = Vec::new();
        let id = PacketId(999);
        for seq in 0..4u16 {
            let kind = match seq {
                0 => FlitKind::Head,
                3 => FlitKind::Tail,
                _ => FlitKind::Body,
            };
            flits.push(Flit {
                packet: id,
                kind,
                dst,
                seq,
                class: MessageClass::Synthetic,
                lookahead: net.route_at(src, dst),
                vc: 0,
            });
        }
        for f in flits {
            assert!(net.try_inject_flit(src, 0, f, 0));
        }
        // Step until the head reaches node 1 and opens a wormhole onward.
        for _ in 0..3 {
            net.step();
        }
        // Node 2 must not be gateable while the wormhole from node 1 is
        // open or flits are in flight, even if its buffers are empty.
        let mut denied_while_traffic = false;
        for _ in 0..4 {
            if !net.can_sleep(NodeId(2), Port::West) {
                denied_while_traffic = true;
            }
            net.step();
        }
        assert!(denied_while_traffic);
        for _ in 0..100 {
            net.step();
        }
        net.drain_ejected();
        assert_eq!(net.stats().packets_ejected, 1);
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut net = small_net(true);
        let dims = net.dims();
        // Build up non-trivial state: multi-hop traffic in flight plus
        // some gated routers.
        for round in 0..6u16 {
            for node in dims.nodes() {
                let dst = NodeId((node.index() as u16 * 5 + 2 + round) % 16);
                if dst == node {
                    continue;
                }
                let f = net.make_single_flit_packet(node, dst);
                net.try_inject_flit(node, round as usize % 4, f, 0);
            }
            net.step();
        }
        for _ in 0..30 {
            net.step();
        }
        for node in dims.nodes() {
            net.request_sleep(node, 0);
        }
        net.step();

        let mut w = ByteWriter::new();
        net.save_state(&mut w);
        let bytes = w.into_inner();
        let mut resumed = small_net(true);
        let mut r = ByteReader::new(&bytes);
        resumed.load_state(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after load");

        // Drive both for a while, with fresh traffic, and compare.
        for round in 0..40u16 {
            for net in [&mut net, &mut resumed] {
                if round % 3 == 0 {
                    let src = NodeId(round % 16);
                    let dst = NodeId((round * 7 + 1) % 16);
                    if src != dst {
                        let cycle = net.cycle();
                        let f = net.make_single_flit_packet(src, dst);
                        if !net.try_inject_flit(src, 0, f, cycle) {
                            net.request_wake(src);
                        }
                    }
                }
                net.step();
            }
            assert_eq!(net.drain_ejected(), resumed.drain_ejected(), "ejections diverged");
        }
        assert_eq!(net.stats(), resumed.stats());
        for node in dims.nodes() {
            assert_eq!(
                net.router(node).units(),
                resumed.router(node).units(),
                "power state diverged at {node}"
            );
        }
    }

    /// One network stepped by the scheduler only, its twin switching
    /// between the scheduler and the reference oracle every 3 cycles,
    /// under traffic plus periodic sleep sweeps so the switches land on
    /// untouched, sleeping and waking routers, and right after injections
    /// (which queue the router for the next step).
    fn assert_interleaving_matches(dims: MeshDims, granularity: Granularity) {
        let cfg = NetworkConfig::paper().dims(dims).granularity(granularity);
        let n = dims.num_nodes() as u16;
        let mut plain = Network::new(cfg.clone());
        let mut mixed = Network::new(cfg);
        let mut pending = [std::collections::VecDeque::new(), std::collections::VecDeque::new()];
        let mut sched_runs = 0;
        for c in 0..600u16 {
            for (net, queue) in [&mut plain, &mut mixed].into_iter().zip(&mut pending) {
                if c % 2 == 0 && c < 400 {
                    queue.push_back((NodeId((c * 3) % n), NodeId((c * 7 + 5) % n)));
                }
                if let Some(&(src, dst)) = queue.front() {
                    let cycle = net.cycle();
                    let f = net.make_single_flit_packet(src, dst);
                    if src == dst || net.try_inject_flit(src, 0, f, cycle) {
                        queue.pop_front();
                    } else {
                        net.request_wake(src);
                    }
                }
                if c % 16 == 0 {
                    for node in dims.nodes() {
                        net.request_sleep(node, 0);
                    }
                }
            }
            plain.step();
            if (c / 3) % 2 == 0 {
                mixed.step_reference();
            } else {
                mixed.step();
                sched_runs += 1;
            }
            assert_eq!(
                plain.drain_ejected(),
                mixed.drain_ejected(),
                "ejections diverged at cycle {c}"
            );
        }
        assert!(sched_runs > 0);
        let ejected = plain.stats().packets_ejected;
        assert!(ejected >= 20, "traffic must actually flow, got {ejected} packets");
        assert_eq!(plain.stats(), mixed.stats());
        assert_eq!(plain.power_state_census(), mixed.power_state_census());
        for node in dims.nodes() {
            assert_eq!(
                plain.router(node).units(),
                mixed.router(node).units(),
                "power state diverged at {node}"
            );
        }
    }

    #[test]
    fn step_reference_interleaves_with_step_bit_identically() {
        // 9x8 has 72 routers: the scheduler's sets span two words, with
        // the word boundary in the middle of a mesh row.
        for dims in [MeshDims::new(4, 4), MeshDims::new(9, 8)] {
            for granularity in [Granularity::Router, Granularity::Port] {
                assert_interleaving_matches(dims, granularity);
            }
        }
    }

    /// Saves `net` and loads the bytes into a fresh network of the same
    /// configuration.
    fn reload(net: &Network) -> Result<Network, CodecError> {
        let mut w = ByteWriter::new();
        net.save_state(&mut w);
        let bytes = w.into_inner();
        let mut back = Network::new(net.config().clone());
        back.load_state(&mut ByteReader::new(&bytes)).map(|()| back)
    }

    /// A flit from router 0 staged into router 1 through its West port,
    /// the link between them; at router 1, its destination, it looks
    /// ahead to Local. Its packet enters the packet table.
    fn staged_into_1(net: &mut Network) -> Flit {
        let mut flit = net.make_single_flit_packet(NodeId(0), NodeId(1));
        flit.lookahead = Port::Local;
        net.packets.insert(flit.packet, PacketTimes::default());
        flit
    }

    /// A checkpoint whose staged flit names a VC or a node outside the
    /// network is refused with a typed error at load, before a step can
    /// index a buffer or the route table out of range.
    #[test]
    fn load_rejects_flits_outside_the_network() {
        let vcs = small_net(false).config().vcs_per_port as u8;
        for (vc, dst) in [(vcs, NodeId(1)), (0, NodeId(16))] {
            let mut net = small_net(false);
            let mut flit = staged_into_1(&mut net);
            flit.vc = vc;
            flit.dst = dst;
            net.staged_flits.push((1, Port::West, flit));
            let loaded = reload(&net).map(|_| ());
            assert!(
                matches!(loaded, Err(CodecError::Invalid(_))),
                "VC {vc}, destination {dst}: {loaded:?}"
            );
        }
    }

    /// Staged flits cross a link into a powered input port. One staged
    /// into a gated router, or through a port without a link (corner
    /// router 0 has no West neighbour), is refused at load instead of
    /// panicking at delivery or returning its credit to no router.
    #[test]
    fn load_rejects_staged_flits_into_gated_or_unlinked_ports() {
        let mut net = small_net(true);
        for _ in 0..10 {
            net.step();
        }
        let flit = staged_into_1(&mut net);
        net.staged_flits.push((1, Port::West, flit));
        let mut back = reload(&net).expect("an active receiver loads");
        for _ in 0..10 {
            back.step();
        }
        let ejected = back.drain_ejected();
        assert_eq!(ejected.len(), 1);
        assert_eq!((ejected[0].tail.dst, ejected[0].tail.packet), (NodeId(1), flit.packet));

        net.staged_flits.clear();
        assert!(net.request_sleep(NodeId(1), 0));
        net.staged_flits.push((1, Port::West, flit));
        assert!(matches!(reload(&net), Err(CodecError::Invalid(_))), "gated receiver");

        let mut net = small_net(true);
        let mut flit = net.make_single_flit_packet(NodeId(1), NodeId(0));
        flit.lookahead = Port::Local;
        net.staged_flits.push((0, Port::West, flit));
        assert!(matches!(reload(&net), Err(CodecError::Invalid(_))), "no link");
    }

    /// Credits are rebuilt from the flits they stand for, so a flit
    /// staged into a VC whose depth is already buffered over-commits it.
    #[test]
    fn load_rejects_a_staged_flit_into_a_full_vc() {
        let mut net = small_net(false);
        let flit = staged_into_1(&mut net);
        for _ in 1..net.config().vc_depth {
            net.routers[1].deliver(Port::West, flit, 0);
        }
        net.staged_flits.push((1, Port::West, flit));
        assert!(reload(&net).is_ok(), "the VC's depth in flits fits");
        net.routers[1].deliver(Port::West, flit, 0);
        assert_eq!(
            reload(&net).map(|_| ()),
            Err(CodecError::Invalid("downstream VC over-committed"))
        );
    }

    #[test]
    fn census_and_conservation() {
        let mut net = small_net(false);
        let (a, s, w) = net.power_state_census();
        assert_eq!((a, s, w), (16, 0, 0));
        for i in 0..8u16 {
            let f = net.make_single_flit_packet(NodeId(i), NodeId(15 - i));
            net.try_inject_flit(NodeId(i), 0, f, 0);
        }
        net.step();
        net.step();
        let in_net = net.flits_in_network() as u64;
        assert_eq!(net.stats().flits_injected, net.total_activity().ejected_flits + in_net);
    }
}

#[cfg(test)]
mod port_gating_tests {
    use super::*;
    use crate::geometry::MeshDims;

    fn net(gating: bool) -> Network {
        let granularity = if gating { Granularity::Port } else { Granularity::Off };
        Network::new(NetworkConfig::paper().dims(MeshDims::new(4, 4)).granularity(granularity))
    }

    #[test]
    fn ports_gate_independently() {
        let mut n = net(true);
        for _ in 0..10 {
            n.step();
        }
        let node = NodeId(5);
        assert!(n.can_sleep(node, Port::North));
        let all_but_north = !(1 << Port::North.index());
        assert!(n.request_sleep(node, all_but_north));
        assert!(!n.router(node).port_active(Port::North));
        assert!(n.router(node).port_active(Port::East), "other ports unaffected");
        assert!(n.router(node).power_state().is_active(), "router itself stays on");
        // With every port gated the router-level state stays Active:
        // crossbar, control and clock never gate at port granularity.
        assert!(n.request_sleep(node, 0));
        assert_eq!(n.router(node).port_active_mask(), 0);
        assert!(n.router(node).power_state().is_active());
        assert!(!n.all_asleep());
    }

    #[test]
    fn packet_crosses_gated_ports_via_wakeups() {
        let mut n = net(true);
        for _ in 0..10 {
            n.step();
        }
        let mut gated = 0;
        for node in n.dims().nodes() {
            n.request_sleep(node, 0);
            gated += NUM_PORTS as u32 - n.router(node).port_active_mask().count_ones();
        }
        assert!(gated > 60, "most ports should gate, got {gated}");
        let f = n.make_single_flit_packet(NodeId(0), NodeId(15));
        // The source's local port sleeps: injection fails, wake, retry.
        let mut injected = false;
        let mut got = Vec::new();
        for _ in 0..300 {
            if !injected {
                if n.try_inject_flit(NodeId(0), 0, f, 0) {
                    injected = true;
                } else {
                    n.request_wake(NodeId(0));
                }
            }
            n.step();
            got.extend(n.drain_ejected());
        }
        assert_eq!(got.len(), 1, "packet must wake each port along its path");
    }

    #[test]
    fn port_gating_activity_counts_port_cycles() {
        let mut n = net(true);
        for _ in 0..20 {
            n.step();
        }
        let g = n.total_gating();
        let total = g.active_cycles + g.sleep_cycles + g.wakeup_cycles;
        assert_eq!(total, 5 * 16 * 20, "residency in port-cycles (5 ports x 16 routers)");
    }

    #[test]
    fn gating_disabled_blocks_port_sleep() {
        let mut n = net(false);
        for _ in 0..10 {
            n.step();
        }
        assert!(!n.can_sleep(NodeId(3), Port::West));
        assert!(!n.request_sleep(NodeId(3), 0));
    }
}
