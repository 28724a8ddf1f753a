//! Input-buffered virtual-channel router with a speculative two-stage
//! pipeline and a power-gating state machine.
//!
//! Pipeline (Peh & Dally, HPCA '01 style, with look-ahead routing):
//!
//! * **Stage 1 — VA + SA**: the packet at the head of an input VC already
//!   knows its output port (carried by the head flit via look-ahead
//!   routing). It speculatively performs virtual-channel allocation and
//!   switch allocation in the same cycle. Allocation is separable: each
//!   input port nominates one VC (round-robin), then each output port
//!   grants one input port (round-robin).
//! * **Stage 2 — ST**: granted flits traverse the crossbar and are placed
//!   on the output links; they arrive in the downstream router's input
//!   buffer after one link cycle.
//!
//! Wormhole switching: the head flit allocates one VC at the downstream
//! input port and the packet holds it until the tail flit departs.
//! Credit-based flow control: one credit per downstream buffer slot,
//! returned when the downstream router dequeues a flit.

use crate::checkpoint;
use crate::flit::Flit;
use crate::geometry::{NodeId, Port, NUM_PORTS};
use crate::power_state::{PowerState, PowerStateMachine, ResidencySnapshot, WakeReason};
use crate::stats::{GatingActivity, RouterActivity};
use crate::vc::{Binding, InputBuffers, MAX_VC_DEPTH};
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// Snapshot of all router state `idle_tick` can touch; two routers that
/// compare equal here are indistinguishable to the gating layer. Used
/// by the debug-mode shadow replay of [`Router::fast_forward`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouterPowerFingerprint {
    /// Whole-router power-state machine.
    pub psm: ResidencySnapshot,
    /// Consecutive drained cycles.
    pub idle_cycles: u32,
    /// Per-port idle counters.
    pub port_idle: [u32; NUM_PORTS],
    /// Per-port machines when port gating is enabled.
    pub port_psm: Option<Vec<ResidencySnapshot>>,
}

/// A flit leaving a router through a mesh output port, to be delivered to
/// the downstream router after the link cycle.
#[derive(Clone, Copy, Debug)]
pub struct OutboundFlit {
    /// Output port the flit leaves through (never [`Port::Local`]).
    pub out_port: Port,
    /// The flit (with `vc` set to the downstream VC).
    pub flit: Flit,
}

/// A credit returned to the upstream router across an input port.
#[derive(Clone, Copy, Debug)]
pub struct CreditReturn {
    /// The input port of *this* router the dequeued flit arrived on
    /// (never [`Port::Local`]).
    pub in_port: Port,
    /// The VC the flit occupied.
    pub vc: u8,
}

/// Result of one router cycle: flits that left, flits ejected locally, and
/// credits to return upstream.
#[derive(Clone, Debug, Default)]
pub struct RouterOutput {
    /// Flits placed on mesh links this cycle.
    pub outbound: Vec<OutboundFlit>,
    /// Flits ejected through the local port.
    pub ejected: Vec<Flit>,
    /// Credits to return to upstream routers.
    pub credits: Vec<CreditReturn>,
    /// Wake-up signals to send to neighbours (look-ahead wake, Matsutani
    /// ASP-DAC '08): directions in which a head flit will travel next.
    pub wake_pings: Vec<Port>,
}

impl RouterOutput {
    fn clear(&mut self) {
        self.outbound.clear();
        self.ejected.clear();
        self.credits.clear();
        self.wake_pings.clear();
    }
}

/// One mesh router.
#[derive(Clone, Debug)]
pub struct Router {
    node: NodeId,
    vcs: usize,
    vc_depth: usize,
    /// Input VC buffers of every port, with their occupancy counters,
    /// non-empty and bound masks, and the wormhole bindings.
    inputs: InputBuffers,
    /// Which ports have a physical link (edge routers have fewer).
    connected: [bool; NUM_PORTS],
    /// Per output port, bitmask of downstream VCs currently allocated to a
    /// packet of this router.
    out_owned: [u64; NUM_PORTS],
    /// Credits per output port per downstream VC, flattened. Unused for
    /// [`Port::Local`].
    credits: Vec<u16>,
    /// Crossbar pipeline register: flits granted in stage 1 last cycle,
    /// traversing the switch this cycle. At most one per input port.
    xbar_reg: Vec<(Flit, Port)>,
    /// Round-robin pointer per input port for input-side SA.
    in_rr: [usize; NUM_PORTS],
    /// Round-robin pointer per output port for output-side SA.
    out_rr: [usize; NUM_PORTS],
    /// Round-robin pointer per output port for VC allocation.
    vc_rr: [usize; NUM_PORTS],
    psm: PowerStateMachine,
    /// Consecutive cycles with empty buffers and an empty crossbar register.
    idle_cycles: u32,
    t_idle_detect: u32,
    t_wakeup: u32,
    t_breakeven: u32,
    /// Fine-grained port gating (Matsutani et al., TCAD '11): per-input-
    /// port power-state machines and idle counters. `None` = whole-router
    /// granularity only.
    port_psm: Option<Vec<PowerStateMachine>>,
    port_idle: [u32; NUM_PORTS],
    /// Event counters for the power model.
    pub activity: RouterActivity,
}

impl Router {
    /// Creates a router.
    ///
    /// `connected[p]` tells whether port `p` has a link (the local port must
    /// always be connected).
    pub fn new(
        node: NodeId,
        vcs: usize,
        vc_depth: usize,
        connected: [bool; NUM_PORTS],
        t_wakeup: u32,
        t_breakeven: u32,
        t_idle_detect: u32,
    ) -> Self {
        assert!(connected[Port::Local.index()], "local port must be connected");
        Router {
            node,
            vcs,
            vc_depth,
            inputs: InputBuffers::new(vcs, vc_depth),
            connected,
            out_owned: [0; NUM_PORTS],
            credits: vec![vc_depth as u16; NUM_PORTS * vcs],
            xbar_reg: Vec::with_capacity(NUM_PORTS),
            in_rr: [0; NUM_PORTS],
            out_rr: [0; NUM_PORTS],
            vc_rr: [0; NUM_PORTS],
            psm: PowerStateMachine::new(t_wakeup, t_breakeven),
            idle_cycles: 0,
            t_idle_detect,
            t_wakeup,
            t_breakeven,
            port_psm: None,
            port_idle: [0; NUM_PORTS],
            activity: RouterActivity::default(),
        }
    }

    /// Enables fine-grained per-input-port power gating: each input port
    /// (buffers plus incoming link) has its own power-state machine; the
    /// crossbar, control and clock stay powered. The policy layer uses
    /// either this or whole-router gating, never both.
    pub fn enable_port_gating(&mut self) {
        let (tw, tb) = (self.t_wakeup, self.t_breakeven);
        self.port_psm = Some((0..NUM_PORTS).map(|_| PowerStateMachine::new(tw, tb)).collect());
    }

    /// Whether per-port gating is enabled.
    pub fn port_gating(&self) -> bool {
        self.port_psm.is_some()
    }

    /// Whether `port` can receive flits this cycle (its buffers are
    /// powered). With whole-router granularity this is the router state.
    pub fn port_active(&self, port: Port) -> bool {
        match &self.port_psm {
            Some(psms) => self.psm.state().is_active() && psms[port.index()].state().is_active(),
            None => self.psm.state().is_active(),
        }
    }

    /// [`Router::port_active`] for all ports at once, as a bitmask over
    /// port indices. The network caches these masks densely so a
    /// stepping router reads its four neighbours' acceptance state
    /// without touching their (cache-cold) structs.
    pub fn port_active_mask(&self) -> u8 {
        if !self.psm.state().is_active() {
            return 0;
        }
        match &self.port_psm {
            Some(psms) => {
                let mut mask = 0u8;
                for (i, p) in psms.iter().enumerate() {
                    mask |= u8::from(p.state().is_active()) << i;
                }
                mask
            }
            None => (1u8 << NUM_PORTS) - 1,
        }
    }

    /// Power state of one input port (port-gating mode) or of the whole
    /// router.
    pub fn port_power_state(&self, port: Port) -> PowerState {
        match &self.port_psm {
            Some(psms) => psms[port.index()].state(),
            None => self.psm.state(),
        }
    }

    /// Requests a wake-up of one input port (no-op without port gating or
    /// unless that port sleeps).
    pub fn request_wake_port(&mut self, port: Port, cycle: u64, reason: WakeReason) {
        if let Some(psms) = &mut self.port_psm {
            psms[port.index()].request_wake(cycle, reason);
        }
    }

    /// Whether one input port satisfies the local sleep guard: empty for
    /// `t_idle_detect` cycles, no open wormhole binding on any of its VCs
    /// (a packet may still have flits upstream of the router — e.g. in
    /// the NI — while the buffer is momentarily empty), and port gating
    /// enabled.
    pub fn port_sleep_guard_ok(&self, port: Port) -> bool {
        let Some(psms) = &self.port_psm else { return false };
        psms[port.index()].state().is_active()
            && self.port_idle[port.index()] >= self.t_idle_detect
            && self.port_vcs_free(port)
    }

    /// Lag-aware variant of [`Router::port_sleep_guard_ok`] (see
    /// [`Router::sleep_guard_ok_lagged`]): per-port idle counters advance
    /// every deferred cycle too (the router machine stays active in
    /// port-gating mode), so the deferred stretch is credited directly.
    pub fn port_sleep_guard_ok_lagged(&self, port: Port, lag: u64) -> bool {
        let Some(psms) = &self.port_psm else { return false };
        psms[port.index()].state().is_active()
            && self.port_idle[port.index()] as u64 + lag >= self.t_idle_detect as u64
            && self.port_vcs_free(port)
    }

    /// Whether every VC of `port` is empty and unbound.
    fn port_vcs_free(&self, port: Port) -> bool {
        let pi = port.index();
        self.inputs.nonempty(pi) == 0 && self.inputs.bound(pi) == 0
    }

    /// Ticks until the earliest pending wake-up countdown (the router's
    /// machine or any gated port's) completes: after exactly that many
    /// idle ticks the machine reaches Active. `None` when no countdown is
    /// pending — Sleep and Active are stable indefinitely under idle
    /// ticks, so a deferred router in those classes never needs to be
    /// woken by the scheduler.
    pub fn next_wake_completion(&self) -> Option<u64> {
        let mut due: Option<u64> = None;
        let fold = |stable: Option<u64>, due: &mut Option<u64>| {
            if let Some(s) = stable {
                let d = s + 1;
                *due = Some(due.map_or(d, |x| x.min(d)));
            }
        };
        fold(self.psm.stable_ticks(), &mut due);
        if let Some(psms) = &self.port_psm {
            for p in psms {
                fold(p.stable_ticks(), &mut due);
            }
        }
        due
    }

    /// Gates one input port.
    ///
    /// # Panics
    ///
    /// Panics if the guard does not hold or port gating is disabled.
    pub fn enter_port_sleep(&mut self, port: Port, cycle: u64) {
        assert!(self.port_sleep_guard_ok(port), "port sleep guard violated");
        self.port_psm
            .as_mut()
            .expect("port gating enabled")
            .get_mut(port.index())
            .expect("valid port")
            .enter_sleep(cycle);
    }

    /// This router's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerState {
        self.psm.state()
    }

    /// Current power state as the telemetry-side phase (the wake-up
    /// countdown erased).
    pub fn power_phase(&self) -> catnap_telemetry::PowerPhase {
        self.psm.state().into()
    }

    /// Virtual channels per port.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// VC buffer depth in flits.
    pub fn vc_depth(&self) -> usize {
        self.vc_depth
    }

    /// Total flits buffered at one input port (across its VCs).
    pub fn port_occupancy(&self, port: Port) -> usize {
        self.inputs.port_occ()[port.index()] as usize
    }

    /// Maximum input-port occupancy, in flits: the paper's **BFM** local
    /// congestion metric (Section 3.2.1). Disconnected ports never
    /// receive flits, so the max over all five counters equals the max
    /// over connected ports.
    pub fn max_port_occupancy(&self) -> usize {
        let mut max = 0u32;
        for &occ in self.inputs.port_occ() {
            max = max.max(occ);
        }
        max as usize
    }

    /// Mean input-port occupancy over connected ports, in flits: the
    /// paper's **BFA** alternative metric (Section 3.4.2).
    pub fn avg_port_occupancy(&self) -> f64 {
        let (mut total, mut ports) = (0u32, 0u32);
        for (&occ, &connected) in self.inputs.port_occ().iter().zip(&self.connected) {
            if connected {
                total += occ;
                ports += 1;
            }
        }
        if ports == 0 {
            return 0.0;
        }
        total as f64 / ports as f64
    }

    /// Free slots in a local-port VC (used by the network interface for
    /// injection).
    pub fn local_vc_free_space(&self, vc: usize) -> usize {
        self.inputs.free_space(Port::Local.index(), vc)
    }

    /// Whether all input buffers and the crossbar register are empty.
    pub fn is_drained(&self) -> bool {
        debug_assert_eq!(
            self.inputs.buffered() as usize,
            self.inputs.ring_total(),
            "buffered-flit counter out of sync at {}",
            self.node
        );
        self.inputs.buffered() == 0 && self.xbar_reg.is_empty()
    }

    /// Flits currently inside the router (input buffers plus the crossbar
    /// pipeline register).
    pub fn occupancy(&self) -> usize {
        self.inputs.buffered() as usize + self.xbar_reg.len()
    }

    /// Whether the buffer-empty condition has held for `t_idle_detect`
    /// consecutive cycles (paper Section 3.3).
    pub fn idle_long_enough(&self) -> bool {
        self.idle_cycles >= self.t_idle_detect
    }

    /// Bitmask over mesh ports of outputs with at least one downstream VC
    /// currently allocated (an open wormhole towards that neighbour).
    pub fn outbound_binding_ports(&self) -> [bool; NUM_PORTS] {
        let mut mask = [false; NUM_PORTS];
        for p in Port::ALL {
            mask[p.index()] = self.out_owned[p.index()] != 0;
        }
        mask
    }

    /// Whether the crossbar register holds a flit headed out of `port`.
    pub fn xbar_holds_toward(&self, port: Port) -> bool {
        self.xbar_reg.iter().any(|(_, p)| *p == port)
    }

    /// Number of flits in the crossbar pipeline register.
    pub fn xbar_len(&self) -> usize {
        self.xbar_reg.len()
    }

    /// Delivers an arriving flit into the input buffer `(port, flit.vc)`.
    /// Returns the direction to send a look-ahead wake-up ping, if the flit
    /// is a head flit bound for a mesh neighbour.
    ///
    /// # Panics
    ///
    /// Panics if the router is not active (the flow-control protocol never
    /// delivers flits to gated routers) or on buffer overflow.
    pub fn deliver(&mut self, port: Port, flit: Flit) -> Option<Port> {
        assert!(
            self.port_active(port),
            "flit delivered to non-active router/port {} {port} (protocol violation)",
            self.node
        );
        let vc = flit.vc as usize;
        assert!(vc < self.vcs, "flit VC out of range");
        let ping = (flit.kind.is_head() && flit.lookahead != Port::Local).then_some(flit.lookahead);
        self.inputs.push(port.index(), vc, flit);
        self.activity.buffer_writes += 1;
        self.idle_cycles = 0;
        self.port_idle[port.index()] = 0;
        ping
    }

    /// Returns one credit for `(out_port, vc)` (the downstream router
    /// dequeued a flit).
    pub fn return_credit(&mut self, out_port: Port, vc: u8) {
        let idx = out_port.index() * self.vcs + vc as usize;
        self.credits[idx] += 1;
        debug_assert!(
            self.credits[idx] as usize <= self.vc_depth,
            "credit overflow on {}:{:?}",
            self.node,
            out_port
        );
    }

    /// Requests a wake-up (no-op unless sleeping).
    pub fn request_wake(&mut self, cycle: u64, reason: WakeReason) {
        self.psm.request_wake(cycle, reason);
    }

    /// Whether the router-local sleep guard holds: active, drained, and
    /// idle for long enough. The network adds link-level conditions (no
    /// inbound wormholes or in-flight flits) before actually gating.
    /// Whole-router gating is unavailable when per-port gating is in use.
    pub fn sleep_guard_ok(&self) -> bool {
        self.port_psm.is_none() && self.psm.state().is_active() && self.is_drained() && self.idle_long_enough()
    }

    /// Lag-aware variant of [`Router::sleep_guard_ok`] for the event
    /// scheduler: credits `lag` additional drained-Active cycles that the
    /// scheduler has deferred but not yet materialized into
    /// `idle_cycles`. Exact because a deferred router is drained and its
    /// power-state class cannot change across the deferred stretch, so
    /// every deferred cycle would have incremented the idle counter.
    pub fn sleep_guard_ok_lagged(&self, lag: u64) -> bool {
        self.port_psm.is_none()
            && self.psm.state().is_active()
            && self.is_drained()
            && self.idle_cycles as u64 + lag >= self.t_idle_detect as u64
    }

    /// Gates the router. The caller must have checked [`Router::sleep_guard_ok`]
    /// and the network-level inbound conditions.
    ///
    /// # Panics
    ///
    /// Panics if the guard does not hold.
    pub fn enter_sleep(&mut self, cycle: u64) {
        assert!(self.sleep_guard_ok(), "sleep guard violated for {}", self.node);
        self.psm.enter_sleep(cycle);
    }

    /// One cycle of router operation. `neighbor_active[p]` tells whether
    /// the router across output port `p` can accept flits this cycle
    /// (`true` for the local port).
    ///
    /// Outputs are written into `out` (cleared first).
    pub fn step(&mut self, neighbor_active: &[bool; NUM_PORTS], out: &mut RouterOutput) {
        out.clear();
        if self.psm.state().is_active() {
            self.switch_traversal(out);
            self.allocate(neighbor_active, out);
            self.update_idle_counters();
        }
        self.tick_power();
    }

    /// [`Router::step`] through the *reference* allocator: the original
    /// scan-everything stage-1 implementation, kept verbatim as an
    /// independent code path. [`crate::Network::step_reference`] uses
    /// it, so the differential suite compares two genuinely distinct
    /// allocators (an optimization bug in [`Router::step`] cannot cancel
    /// out against itself) and the reference benchmark baseline stays
    /// the naive per-cycle walk.
    pub fn step_reference(&mut self, neighbor_active: &[bool; NUM_PORTS], out: &mut RouterOutput) {
        out.clear();
        if self.psm.state().is_active() {
            self.switch_traversal(out);
            self.allocate_reference(neighbor_active, out);
            self.update_idle_counters();
        }
        self.tick_power();
    }

    /// Idle detection after the move stages: buffers and pipeline empty
    /// this cycle.
    fn update_idle_counters(&mut self) {
        if self.is_drained() {
            self.idle_cycles = self.idle_cycles.saturating_add(1);
        } else {
            self.idle_cycles = 0;
        }
        for pi in 0..NUM_PORTS {
            if self.inputs.port_occ()[pi] == 0 {
                self.port_idle[pi] = self.port_idle[pi].saturating_add(1);
            } else {
                self.port_idle[pi] = 0;
            }
        }
    }

    /// Advances the power-state machines by one tick.
    fn tick_power(&mut self) {
        let was_active = self.psm.state().is_active();
        self.psm.tick();
        if !was_active && self.psm.state().is_active() {
            // A freshly woken router must stay up long enough for the
            // in-flight flit that caused the wake-up to arrive; otherwise
            // an eager gating controller could re-gate it instantly and
            // strand the packet (the wake ping is one-shot).
            self.idle_cycles = 0;
        }
        if let Some(psms) = &mut self.port_psm {
            for (i, p) in psms.iter_mut().enumerate() {
                let was = p.state().is_active();
                p.tick();
                if !was && p.state().is_active() {
                    self.port_idle[i] = 0;
                }
            }
        }
    }

    /// One cycle of a **drained** router, equivalent to [`Router::step`]
    /// with empty buffers and an empty crossbar register: no allocation or
    /// traversal work can happen, so only the idle counters and the
    /// power-state machines advance, and no outputs are produced. Never
    /// reads neighbour state, which is what lets the network skip drained
    /// routers without computing their `neighbor_active` masks.
    pub fn idle_tick(&mut self) {
        debug_assert!(self.is_drained(), "idle_tick on a non-drained router {}", self.node);
        if self.psm.state().is_active() {
            self.idle_cycles = self.idle_cycles.saturating_add(1);
            for pi in 0..NUM_PORTS {
                self.port_idle[pi] = self.port_idle[pi].saturating_add(1);
            }
        }
        self.tick_power();
    }

    /// Advances a **drained** router by `dt` cycles in O(ports)
    /// arithmetic, equivalent to `dt` calls of [`Router::idle_tick`]
    /// provided no power-state machine completes a wake-up inside the
    /// interval (idle counters would reset and telemetry would miss the
    /// edge): `dt` must stay below [`Router::next_wake_completion`],
    /// which the network's scheduler guarantees by running the router
    /// on the completing cycle.
    pub fn fast_forward(&mut self, dt: u64) {
        debug_assert!(self.is_drained(), "fast_forward on a non-drained router {}", self.node);
        if dt == 0 {
            return;
        }
        let d32 = dt.min(u32::MAX as u64) as u32;
        if self.psm.state().is_active() {
            self.idle_cycles = self.idle_cycles.saturating_add(d32);
            for pi in 0..NUM_PORTS {
                self.port_idle[pi] = self.port_idle[pi].saturating_add(d32);
            }
        }
        self.psm.fast_forward(dt);
        if let Some(psms) = &mut self.port_psm {
            for p in psms {
                p.fast_forward(dt);
            }
        }
    }

    /// Everything `idle_tick` can touch, for shadow-replay equality
    /// checks of [`Router::fast_forward`].
    pub fn power_fingerprint(&self) -> RouterPowerFingerprint {
        RouterPowerFingerprint {
            psm: self.psm.residency_snapshot(),
            idle_cycles: self.idle_cycles,
            port_idle: self.port_idle,
            port_psm: self
                .port_psm
                .as_ref()
                .map(|psms| psms.iter().map(PowerStateMachine::residency_snapshot).collect()),
        }
    }

    /// Stage 2: flits granted last cycle traverse the crossbar onto links
    /// or out of the local port.
    fn switch_traversal(&mut self, out: &mut RouterOutput) {
        for (flit, out_port) in self.xbar_reg.drain(..) {
            self.activity.xbar_traversals += 1;
            if out_port == Port::Local {
                self.activity.ejected_flits += 1;
                out.ejected.push(flit);
            } else {
                self.activity.link_flits += 1;
                out.outbound.push(OutboundFlit { out_port, flit });
            }
        }
    }

    /// Stage 1: speculative VC allocation plus separable switch
    /// allocation, with busy-path fast exits. Bit-identical to
    /// [`Router::allocate_reference`] (asserted by the differential
    /// suite): skipped work is exactly the work the reference performs
    /// on empty inputs, which reads nothing, writes nothing, and leaves
    /// every round-robin pointer untouched.
    fn allocate(&mut self, neighbor_active: &[bool; NUM_PORTS], out: &mut RouterOutput) {
        if self.inputs.buffered() == 0 {
            // No buffered flit anywhere: no head to allocate, no
            // candidate to arbitrate, nothing blocked. The reference
            // scan is a pure no-op in this state.
            return;
        }
        let vcs = self.vcs;
        // --- VC allocation for head flits without a binding ---
        // Only a non-empty, unbound VC can hold a head awaiting VA (an
        // unbound VC's front flit is always a head: the binding exists
        // from the head's allocation to the tail's departure, and flits
        // of a packet are contiguous in their VC). The reference loop
        // `continue`s on every other VC without reading or writing
        // anything, so iterating the mask bits in ascending order is
        // bit-identical — including the order of wake pings.
        for port in Port::ALL {
            let pi = port.index();
            let mut pending = self.inputs.nonempty(pi) & !self.inputs.bound(pi);
            while pending != 0 {
                let vc = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let head = self.inputs.front(pi, vc).expect("non-empty by mask");
                debug_assert!(head.kind.is_head(), "unbound VC fronted by a non-head flit");
                let out_port = head.lookahead;
                debug_assert!(
                    self.connected[out_port.index()],
                    "route towards a disconnected port at {}",
                    self.node
                );
                if out_port != Port::Local && !neighbor_active[out_port.index()] {
                    // Liveness: re-request the wake-up while the head is
                    // waiting for the downstream router to power on.
                    out.wake_pings.push(out_port);
                    continue;
                }
                let mask = head.class.vc_mask(vcs) & !self.out_owned[out_port.index()];
                if mask == 0 {
                    continue;
                }
                // Round-robin winner: the first free VC at or after the
                // pointer, else the first free VC from zero (equivalent
                // to the reference's wrapping scan).
                let start = self.vc_rr[out_port.index()];
                let from_start = mask >> start;
                let ovc = if from_start != 0 {
                    start + from_start.trailing_zeros() as usize
                } else {
                    mask.trailing_zeros() as usize
                };
                let next = ovc + 1;
                self.vc_rr[out_port.index()] = if next == vcs { 0 } else { next };
                self.out_owned[out_port.index()] |= 1u64 << ovc;
                self.inputs.bind(
                    pi,
                    vc,
                    Binding {
                        out_port,
                        out_vc: ovc as u8,
                    },
                );
            }
        }

        // --- Input-side switch arbitration: one candidate VC per port ---
        // Only bound VCs can request the switch; unbound non-empty VCs
        // contribute to the blocked count and nothing else, and empty
        // VCs are skipped entirely. The bound VCs are visited in the
        // same wrapping round-robin order as the reference scan, so
        // candidate choice, `arb_requests` and wake-ping order all
        // match.
        let mut candidate: [Option<(usize, Binding)>; NUM_PORTS] = [None; NUM_PORTS];
        let mut nonempty_vcs = 0u64;
        let mut any_candidate = false;
        for port in Port::ALL {
            let pi = port.index();
            let ne = self.inputs.nonempty(pi);
            if ne == 0 {
                continue;
            }
            nonempty_vcs += u64::from(ne.count_ones());
            let bound = ne & self.inputs.bound(pi);
            if bound == 0 {
                continue;
            }
            let start = self.in_rr[pi];
            // Split the mask at the round-robin pointer: VCs at/after
            // `start` first (in ascending order), then the wrapped ones.
            let mut segment = bound >> start;
            let mut base = start;
            loop {
                while segment != 0 {
                    let vc = base + segment.trailing_zeros() as usize;
                    segment &= segment - 1;
                    let binding = self.inputs.bound_binding(pi, vc);
                    let opi = binding.out_port.index();
                    if binding.out_port != Port::Local && !neighbor_active[opi] {
                        // Liveness: keep requesting the sleeping
                        // neighbour's wake-up while we hold flits for
                        // it.
                        out.wake_pings.push(binding.out_port);
                    }
                    let eligible = binding.out_port == Port::Local
                        || (neighbor_active[opi] && self.credits[opi * vcs + binding.out_vc as usize] > 0);
                    if eligible {
                        self.activity.arb_requests += 1;
                        if candidate[pi].is_none() {
                            candidate[pi] = Some((vc, binding));
                            any_candidate = true;
                        }
                    }
                }
                if base == 0 || start == 0 {
                    break;
                }
                segment = bound & ((1u64 << start) - 1);
                base = 0;
            }
        }

        let mut grants = 0u64;
        if any_candidate {
            // --- Output-side arbitration: one grant per output port ---
            // Output ports nobody requests grant nothing and leave their
            // round-robin pointer untouched in the reference scan, so
            // they can be skipped outright.
            let mut requested = 0u32;
            for (_, binding) in candidate.iter().flatten() {
                requested |= 1u32 << binding.out_port.index();
            }
            let mut granted: [Option<(usize, Binding)>; NUM_PORTS] = [None; NUM_PORTS]; // by input port
            for out_port in Port::ALL {
                let opi = out_port.index();
                if requested & (1u32 << opi) == 0 {
                    continue;
                }
                let start = self.out_rr[opi];
                let mut in_pi = start;
                for _ in 0..NUM_PORTS {
                    if let Some((vc, binding)) = candidate[in_pi] {
                        if binding.out_port == out_port {
                            granted[in_pi] = Some((vc, binding));
                            candidate[in_pi] = None;
                            let next = in_pi + 1;
                            self.out_rr[opi] = if next == NUM_PORTS { 0 } else { next };
                            break;
                        }
                    }
                    in_pi += 1;
                    if in_pi == NUM_PORTS {
                        in_pi = 0;
                    }
                }
            }

            // --- Winners: dequeue, update credits/bindings, enter the
            //     crossbar register; return credits upstream. ---
            for in_port in Port::ALL {
                let pi = in_port.index();
                let Some((vc, binding)) = granted[pi] else { continue };
                grants += 1;
                let next = vc + 1;
                self.in_rr[pi] = if next == vcs { 0 } else { next };
                let mut flit = self.inputs.pop(pi, vc).expect("granted VC must be non-empty");
                self.activity.buffer_reads += 1;
                flit.vc = binding.out_vc;
                let opi = binding.out_port.index();
                if binding.out_port != Port::Local {
                    let cidx = opi * vcs + binding.out_vc as usize;
                    debug_assert!(self.credits[cidx] > 0);
                    self.credits[cidx] -= 1;
                }
                if flit.kind.is_tail() {
                    self.inputs.unbind(pi, vc);
                    self.out_owned[opi] &= !(1u64 << binding.out_vc);
                }
                if in_port != Port::Local {
                    // The credit is for the buffer slot freed at the
                    // *arrival* VC, not the downstream VC just written
                    // into the flit.
                    out.credits.push(CreditReturn { in_port, vc: vc as u8 });
                }
                self.xbar_reg.push((flit, binding.out_port));
            }
        }
        self.activity.arb_grants += grants;
        // Blocked accounting: every non-empty VC whose front flit did not
        // move waits one more cycle. This includes credit-starved and
        // VA-starved waiting, which is exactly the back-pressure the
        // blocking-delay congestion metric should observe.
        self.activity.head_blocked_cycles += nonempty_vcs.saturating_sub(grants);
    }

    /// Stage 1, reference implementation: the original scan-everything
    /// allocator, byte-for-byte the pre-scheduler behaviour. Kept as an
    /// independent twin of [`Router::allocate`] for the reference
    /// baseline and the differential tests.
    fn allocate_reference(&mut self, neighbor_active: &[bool; NUM_PORTS], out: &mut RouterOutput) {
        // --- VC allocation for head flits without a binding ---
        for port in Port::ALL {
            let pi = port.index();
            for vc in 0..self.vcs {
                let Some(head) = self.inputs.front(pi, vc) else {
                    continue;
                };
                if !head.kind.is_head() || self.inputs.binding(pi, vc).is_some() {
                    continue;
                }
                let out_port = head.lookahead;
                debug_assert!(
                    self.connected[out_port.index()],
                    "route towards a disconnected port at {}",
                    self.node
                );
                if out_port != Port::Local && !neighbor_active[out_port.index()] {
                    // Liveness: re-request the wake-up while the head is
                    // waiting for the downstream router to power on.
                    out.wake_pings.push(out_port);
                    continue;
                }
                let mask = head.class.vc_mask(self.vcs) & !self.out_owned[out_port.index()];
                if mask == 0 {
                    continue;
                }
                // Round-robin scan for a free downstream VC.
                let start = self.vc_rr[out_port.index()];
                let mut chosen = None;
                for off in 0..self.vcs {
                    let cand = (start + off) % self.vcs;
                    if mask & (1u64 << cand) != 0 {
                        chosen = Some(cand);
                        break;
                    }
                }
                if let Some(ovc) = chosen {
                    self.vc_rr[out_port.index()] = (ovc + 1) % self.vcs;
                    self.out_owned[out_port.index()] |= 1u64 << ovc;
                    self.inputs.bind(
                        pi,
                        vc,
                        Binding {
                            out_port,
                            out_vc: ovc as u8,
                        },
                    );
                }
            }
        }

        // --- Input-side switch arbitration: one candidate VC per port ---
        // candidate[in_port] = (vc index, binding)
        let mut candidate: [Option<(usize, Binding)>; NUM_PORTS] = [None; NUM_PORTS];
        let mut nonempty_vcs = 0u64;
        for port in Port::ALL {
            let pi = port.index();
            let start = self.in_rr[pi];
            for off in 0..self.vcs {
                let vc = (start + off) % self.vcs;
                if self.inputs.len(pi, vc) == 0 {
                    continue;
                }
                nonempty_vcs += 1;
                let Some(binding) = self.inputs.binding(pi, vc) else {
                    continue;
                };
                let opi = binding.out_port.index();
                if binding.out_port != Port::Local && !neighbor_active[opi] {
                    // Liveness: keep requesting the sleeping neighbour's
                    // wake-up while we hold flits for it.
                    out.wake_pings.push(binding.out_port);
                }
                let eligible = if binding.out_port == Port::Local {
                    true
                } else {
                    neighbor_active[opi] && self.credits[opi * self.vcs + binding.out_vc as usize] > 0
                };
                if eligible {
                    self.activity.arb_requests += 1;
                    if candidate[pi].is_none() {
                        candidate[pi] = Some((vc, binding));
                    }
                }
            }
        }

        // --- Output-side arbitration: one grant per output port ---
        let mut granted: [Option<(usize, Binding)>; NUM_PORTS] = [None; NUM_PORTS]; // by input port
        for out_port in Port::ALL {
            let opi = out_port.index();
            let start = self.out_rr[opi];
            for off in 0..NUM_PORTS {
                let in_pi = (start + off) % NUM_PORTS;
                if let Some((vc, binding)) = candidate[in_pi] {
                    if binding.out_port == out_port {
                        granted[in_pi] = Some((vc, binding));
                        candidate[in_pi] = None;
                        self.out_rr[opi] = (in_pi + 1) % NUM_PORTS;
                        break;
                    }
                }
            }
        }

        // --- Winners: dequeue, update credits/bindings, enter the crossbar
        //     register; return credits upstream. ---
        let mut grants = 0u64;
        for in_port in Port::ALL {
            let pi = in_port.index();
            let Some((vc, binding)) = granted[pi] else { continue };
            grants += 1;
            self.in_rr[pi] = (vc + 1) % self.vcs;
            let mut flit = self.inputs.pop(pi, vc).expect("granted VC must be non-empty");
            self.activity.buffer_reads += 1;
            flit.vc = binding.out_vc;
            let opi = binding.out_port.index();
            if binding.out_port != Port::Local {
                let cidx = opi * self.vcs + binding.out_vc as usize;
                debug_assert!(self.credits[cidx] > 0);
                self.credits[cidx] -= 1;
            }
            if flit.kind.is_tail() {
                self.inputs.unbind(pi, vc);
                self.out_owned[opi] &= !(1u64 << binding.out_vc);
            }
            if in_port != Port::Local {
                // The credit is for the buffer slot freed at the *arrival*
                // VC, not the downstream VC just written into the flit.
                out.credits.push(CreditReturn { in_port, vc: vc as u8 });
            }
            self.xbar_reg.push((flit, binding.out_port));
        }
        self.activity.arb_grants += grants;
        // Blocked accounting: every non-empty VC whose front flit did not
        // move waits one more cycle. This includes credit-starved and
        // VA-starved waiting, which is exactly the back-pressure the
        // blocking-delay congestion metric should observe.
        self.activity.head_blocked_cycles += nonempty_vcs.saturating_sub(grants);
    }

    /// Power-gating residency statistics. `cycle` is the current
    /// simulation cycle, used to credit compensated sleep cycles of a
    /// still-open sleep period. With port gating enabled, the residencies
    /// are summed over the five ports (so totals are in port-cycles).
    pub fn gating_activity(&self, cycle: u64) -> GatingActivity {
        match &self.port_psm {
            None => GatingActivity {
                active_cycles: self.psm.active_cycles,
                sleep_cycles: self.psm.sleep_cycles,
                wakeup_cycles: self.psm.wakeup_cycles,
                sleep_transitions: self.psm.sleep_transitions,
                compensated_sleep_cycles: self.psm.compensated_at(cycle),
            },
            Some(psms) => psms
                .iter()
                .map(|p| GatingActivity {
                    active_cycles: p.active_cycles,
                    sleep_cycles: p.sleep_cycles,
                    wakeup_cycles: p.wakeup_cycles,
                    sleep_transitions: p.sleep_transitions,
                    compensated_sleep_cycles: p.compensated_at(cycle),
                })
                .fold(GatingActivity::default(), GatingActivity::merged),
        }
    }

    /// Lag-aware variant of [`Router::gating_activity`] for the event
    /// scheduler: credits `lag` deferred idle ticks to whichever
    /// residency counter the machine's *current* state class accrues
    /// into. Exact because the class is constant across a deferred
    /// stretch (the scheduler materializes a router before any class
    /// transition can land), and `compensated_at` is already time-based.
    pub fn gating_activity_lagged(&self, cycle: u64, lag: u64) -> GatingActivity {
        fn one(p: &PowerStateMachine, cycle: u64, lag: u64) -> GatingActivity {
            let mut g = GatingActivity {
                active_cycles: p.active_cycles,
                sleep_cycles: p.sleep_cycles,
                wakeup_cycles: p.wakeup_cycles,
                sleep_transitions: p.sleep_transitions,
                compensated_sleep_cycles: p.compensated_at(cycle),
            };
            match p.state() {
                PowerState::Active => g.active_cycles += lag,
                PowerState::Sleep => g.sleep_cycles += lag,
                PowerState::WakeUp { .. } => g.wakeup_cycles += lag,
            }
            g
        }
        match &self.port_psm {
            None => one(&self.psm, cycle, lag),
            Some(psms) => psms
                .iter()
                .map(|p| one(p, cycle, lag))
                .fold(GatingActivity::default(), GatingActivity::merged),
        }
    }

    /// Power state as it would read after `lag` further idle ticks (a
    /// wake-up countdown shortened by the deferred stretch; Sleep and
    /// Active unchanged).
    pub fn power_state_lagged(&self, lag: u64) -> PowerState {
        match self.psm.state() {
            PowerState::WakeUp { remaining } => PowerState::WakeUp {
                remaining: remaining - (lag.min(u64::from(remaining) - 1) as u32),
            },
            s => s,
        }
    }

    /// Closes the power-state accounting at the end of a simulation.
    pub fn finalize(&mut self, cycle: u64) {
        self.psm.finalize(cycle);
        if let Some(psms) = &mut self.port_psm {
            for p in psms {
                p.finalize(cycle);
            }
        }
    }

    /// Serializes the full router state (checkpointing). The input
    /// buffers' occupancy counters and non-empty mask are *not* captured
    /// — they are pure functions of the ring contents, which
    /// [`Router::decode`] replays into fresh buffers, so a checkpoint
    /// cannot carry a desynchronized cache.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_u16(self.node.0);
        w.put_usize(self.vcs);
        w.put_usize(self.vc_depth);
        for c in self.connected {
            w.put_bool(c);
        }
        self.inputs.encode(w);
        for m in self.out_owned {
            w.put_u64(m);
        }
        for &c in &self.credits {
            w.put_u16(c);
        }
        w.put_usize(self.xbar_reg.len());
        for (flit, port) in &self.xbar_reg {
            checkpoint::put_flit(w, flit);
            checkpoint::put_port(w, *port);
        }
        for rr in self.in_rr {
            w.put_usize(rr);
        }
        for rr in self.out_rr {
            w.put_usize(rr);
        }
        for rr in self.vc_rr {
            w.put_usize(rr);
        }
        self.psm.encode(w);
        w.put_u32(self.idle_cycles);
        w.put_u32(self.t_idle_detect);
        w.put_u32(self.t_wakeup);
        w.put_u32(self.t_breakeven);
        match &self.port_psm {
            None => w.put_bool(false),
            Some(psms) => {
                w.put_bool(true);
                for p in psms {
                    p.encode(w);
                }
            }
        }
        for pi in self.port_idle {
            w.put_u32(pi);
        }
        checkpoint::put_router_activity(w, &self.activity);
    }

    /// Rebuilds a router serialized by [`Router::encode`].
    pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let node = NodeId(r.get_u16()?);
        let vcs = r.get_usize()?;
        if vcs == 0 || vcs > 64 {
            return Err(CodecError::Invalid("router vcs out of range"));
        }
        let vc_depth = r.get_usize()?;
        if vc_depth == 0 || vc_depth > MAX_VC_DEPTH {
            return Err(CodecError::Invalid("router vc_depth out of range"));
        }
        let mut connected = [false; NUM_PORTS];
        for c in connected.iter_mut() {
            *c = r.get_bool()?;
        }
        if !connected[Port::Local.index()] {
            return Err(CodecError::Invalid("local port disconnected"));
        }
        // Gating timings land below (after the PSM); zeros are placeholders.
        let mut router = Router::new(node, vcs, vc_depth, connected, 0, 0, 0);
        router.inputs = InputBuffers::decode(r, vcs, vc_depth)?;
        for m in router.out_owned.iter_mut() {
            *m = r.get_u64()?;
        }
        for c in router.credits.iter_mut() {
            let credit = r.get_u16()?;
            if credit as usize > vc_depth {
                return Err(CodecError::Invalid("credit exceeds VC depth"));
            }
            *c = credit;
        }
        let xbar_len = r.get_usize()?;
        if xbar_len > NUM_PORTS {
            return Err(CodecError::Invalid("crossbar register overfull"));
        }
        router.xbar_reg.clear();
        for _ in 0..xbar_len {
            let flit = checkpoint::get_flit(r)?;
            let port = checkpoint::get_port(r)?;
            router.xbar_reg.push((flit, port));
        }
        for rr in router.in_rr.iter_mut() {
            *rr = r.get_usize()?;
            if *rr >= vcs {
                return Err(CodecError::Invalid("input round-robin pointer out of range"));
            }
        }
        for rr in router.out_rr.iter_mut() {
            *rr = r.get_usize()?;
            if *rr >= NUM_PORTS {
                return Err(CodecError::Invalid("output round-robin pointer out of range"));
            }
        }
        for rr in router.vc_rr.iter_mut() {
            *rr = r.get_usize()?;
            if *rr >= vcs {
                return Err(CodecError::Invalid("VC round-robin pointer out of range"));
            }
        }
        router.psm = PowerStateMachine::decode(r)?;
        router.idle_cycles = r.get_u32()?;
        router.t_idle_detect = r.get_u32()?;
        router.t_wakeup = r.get_u32()?;
        router.t_breakeven = r.get_u32()?;
        if r.get_bool()? {
            let mut psms = Vec::with_capacity(NUM_PORTS);
            for _ in 0..NUM_PORTS {
                psms.push(PowerStateMachine::decode(r)?);
            }
            router.port_psm = Some(psms);
        }
        for pi in router.port_idle.iter_mut() {
            *pi = r.get_u32()?;
        }
        router.activity = checkpoint::get_router_activity(r)?;
        Ok(router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, MessageClass, PacketId};

    const ALL_ACTIVE: [bool; NUM_PORTS] = [true; NUM_PORTS];

    fn router() -> Router {
        Router::new(NodeId(9), 4, 4, [true; NUM_PORTS], 10, 12, 4)
    }

    fn flit(packet: u64, kind: FlitKind, seq: u16, len: u16, lookahead: Port, vc: u8) -> Flit {
        Flit {
            packet: PacketId(packet),
            kind,
            src: NodeId(0),
            dst: NodeId(63),
            seq,
            packet_len: len,
            class: MessageClass::Synthetic,
            lookahead,
            vc,
            created_cycle: 0,
            net_inject_cycle: 0,
        }
    }

    #[test]
    fn single_flit_crosses_in_two_cycles() {
        let mut r = router();
        let mut out = RouterOutput::default();
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, 1, Port::East, 0));
        // Cycle 1: VA + SA grant into the crossbar register.
        r.step(&ALL_ACTIVE, &mut out);
        assert!(out.outbound.is_empty());
        // Cycle 2: switch traversal.
        r.step(&ALL_ACTIVE, &mut out);
        assert_eq!(out.outbound.len(), 1);
        assert_eq!(out.outbound[0].out_port, Port::East);
        assert_eq!(r.activity.buffer_reads, 1);
        assert_eq!(r.activity.xbar_traversals, 1);
        assert_eq!(r.activity.link_flits, 1);
    }

    #[test]
    fn credit_returned_for_arrival_vc() {
        let mut r = router();
        let mut out = RouterOutput::default();
        r.deliver(Port::North, flit(1, FlitKind::Single, 0, 1, Port::South, 3));
        r.step(&ALL_ACTIVE, &mut out);
        assert_eq!(out.credits.len(), 1);
        assert_eq!(out.credits[0].in_port, Port::North);
        assert_eq!(out.credits[0].vc, 3);
    }

    #[test]
    fn local_ejection_credits_upstream_but_injection_does_not() {
        // A flit arriving from a mesh neighbour and ejecting locally still
        // frees a buffer slot, so a credit goes back upstream...
        let mut r = router();
        let mut out = RouterOutput::default();
        r.deliver(Port::North, flit(1, FlitKind::Single, 0, 1, Port::Local, 0));
        r.step(&ALL_ACTIVE, &mut out);
        assert_eq!(out.credits.len(), 1);
        assert_eq!(out.credits[0].in_port, Port::North);
        r.step(&ALL_ACTIVE, &mut out);
        assert_eq!(out.ejected.len(), 1);
        assert_eq!(r.activity.ejected_flits, 1);
        assert_eq!(r.activity.link_flits, 0);

        // ...whereas a locally injected flit produces no credit (the NI
        // observes buffer space directly).
        let mut r2 = router();
        r2.deliver(Port::Local, flit(2, FlitKind::Single, 0, 1, Port::East, 0));
        r2.step(&ALL_ACTIVE, &mut out);
        assert!(out.credits.is_empty());
    }

    #[test]
    fn wormhole_binding_held_until_tail() {
        let mut r = router();
        let mut out = RouterOutput::default();
        r.deliver(Port::West, flit(1, FlitKind::Head, 0, 3, Port::East, 0));
        r.step(&ALL_ACTIVE, &mut out);
        assert!(r.outbound_binding_ports()[Port::East.index()]);
        r.deliver(Port::West, flit(1, FlitKind::Body, 1, 3, Port::East, 0));
        r.step(&ALL_ACTIVE, &mut out);
        assert!(r.outbound_binding_ports()[Port::East.index()]);
        r.deliver(Port::West, flit(1, FlitKind::Tail, 2, 3, Port::East, 0));
        r.step(&ALL_ACTIVE, &mut out);
        // Tail was granted this cycle, releasing the binding.
        assert!(!r.outbound_binding_ports()[Port::East.index()]);
    }

    #[test]
    fn downstream_vcs_kept_distinct_for_concurrent_packets() {
        let mut r = router();
        let mut out = RouterOutput::default();
        // Two whole packets from different input ports to the same output
        // port, delivered up front.
        r.deliver(Port::West, flit(1, FlitKind::Head, 0, 2, Port::East, 0));
        r.deliver(Port::North, flit(2, FlitKind::Head, 0, 2, Port::East, 0));
        r.deliver(Port::West, flit(1, FlitKind::Tail, 1, 2, Port::East, 0));
        r.deliver(Port::North, flit(2, FlitKind::Tail, 1, 2, Port::East, 0));
        let mut seen = Vec::new();
        for _ in 0..10 {
            r.step(&ALL_ACTIVE, &mut out);
            for ob in &out.outbound {
                seen.push((ob.flit.packet, ob.flit.vc));
            }
        }
        let vcs_of = |p: u64| {
            seen.iter()
                .filter(|(pk, _)| *pk == PacketId(p))
                .map(|(_, vc)| *vc)
                .collect::<Vec<u8>>()
        };
        let a = vcs_of(1);
        let b = vcs_of(2);
        assert_eq!(a.len(), 2, "packet 1 flits: {seen:?}");
        assert_eq!(b.len(), 2, "packet 2 flits: {seen:?}");
        assert!(a.iter().all(|&v| v == a[0]), "packet keeps one VC");
        assert!(b.iter().all(|&v| v == b[0]), "packet keeps one VC");
        assert_ne!(a[0], b[0], "concurrent packets must use distinct downstream VCs");
    }

    #[test]
    fn only_one_grant_per_output_port_per_cycle() {
        let mut r = router();
        let mut out = RouterOutput::default();
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, 1, Port::East, 0));
        r.deliver(Port::North, flit(2, FlitKind::Single, 0, 1, Port::East, 1));
        r.step(&ALL_ACTIVE, &mut out);
        assert_eq!(r.activity.arb_grants, 1, "output port conflict must serialize");
        assert!(r.activity.head_blocked_cycles >= 1);
        r.step(&ALL_ACTIVE, &mut out);
        assert_eq!(out.outbound.len(), 1);
        r.step(&ALL_ACTIVE, &mut out);
        assert_eq!(out.outbound.len(), 1);
    }

    #[test]
    fn no_grant_toward_inactive_neighbor() {
        let mut r = router();
        let mut out = RouterOutput::default();
        let mut east_off = ALL_ACTIVE;
        east_off[Port::East.index()] = false;
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, 1, Port::East, 0));
        for _ in 0..5 {
            r.step(&east_off, &mut out);
            assert!(out.outbound.is_empty());
        }
        assert_eq!(r.activity.buffer_reads, 0);
        assert!(r.activity.head_blocked_cycles >= 5);
        // Neighbour wakes: flit proceeds.
        r.step(&ALL_ACTIVE, &mut out);
        r.step(&ALL_ACTIVE, &mut out);
        assert_eq!(out.outbound.len(), 1);
    }

    #[test]
    fn credit_starvation_blocks_sending() {
        let mut r = router();
        let mut out = RouterOutput::default();
        // Consume all 4 credits of the chosen downstream VC by sending a
        // 5-flit packet with no credits returned.
        for (i, kind) in [FlitKind::Head, FlitKind::Body, FlitKind::Body, FlitKind::Body]
            .iter()
            .enumerate()
        {
            r.deliver(Port::West, flit(1, *kind, i as u16, 6, Port::East, 0));
        }
        let mut sent = 0;
        for _ in 0..12 {
            r.step(&ALL_ACTIVE, &mut out);
            sent += out.outbound.len();
        }
        assert_eq!(sent, 4, "only vc_depth flits may be in flight without credit returns");
        // Return one credit for the VC that was allocated.
        let alloc_vc = (0..4).find(|&v| r.out_owned[Port::East.index()] & (1 << v) != 0).unwrap();
        r.deliver(Port::West, flit(1, FlitKind::Body, 4, 6, Port::East, 0));
        r.return_credit(Port::East, alloc_vc as u8);
        let mut sent2 = 0;
        for _ in 0..4 {
            r.step(&ALL_ACTIVE, &mut out);
            sent2 += out.outbound.len();
        }
        assert_eq!(sent2, 1);
    }

    #[test]
    fn idle_detection_counts_consecutive_empty_cycles() {
        let mut r = router();
        let mut out = RouterOutput::default();
        assert!(!r.idle_long_enough());
        for _ in 0..4 {
            r.step(&ALL_ACTIVE, &mut out);
        }
        assert!(r.idle_long_enough());
        assert!(r.sleep_guard_ok());
        // A delivery resets idleness.
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, 1, Port::East, 0));
        assert!(!r.idle_long_enough());
    }

    #[test]
    fn sleep_and_wake_cycle() {
        let mut r = router();
        let mut out = RouterOutput::default();
        for _ in 0..4 {
            r.step(&ALL_ACTIVE, &mut out);
        }
        r.enter_sleep(4);
        assert!(r.power_state().is_sleeping());
        // Sleeping routers do nothing.
        r.step(&ALL_ACTIVE, &mut out);
        assert!(out.outbound.is_empty());
        r.request_wake(6, WakeReason::LookaheadSignal);
        for _ in 0..10 {
            assert!(!r.power_state().is_active());
            r.step(&ALL_ACTIVE, &mut out);
        }
        assert!(r.power_state().is_active());
        let g = r.gating_activity(20);
        assert_eq!(g.sleep_transitions, 1);
        assert!(g.wakeup_cycles == 10);
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn delivery_to_sleeping_router_panics() {
        let mut r = router();
        let mut out = RouterOutput::default();
        for _ in 0..4 {
            r.step(&ALL_ACTIVE, &mut out);
        }
        r.enter_sleep(4);
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, 1, Port::East, 0));
    }

    #[test]
    fn bfm_is_max_port_occupancy() {
        let mut r = router();
        r.deliver(Port::West, flit(1, FlitKind::Head, 0, 9, Port::East, 0));
        r.deliver(Port::West, flit(1, FlitKind::Body, 1, 9, Port::East, 0));
        r.deliver(Port::North, flit(2, FlitKind::Head, 0, 9, Port::East, 1));
        assert_eq!(r.port_occupancy(Port::West), 2);
        assert_eq!(r.port_occupancy(Port::North), 1);
        assert_eq!(r.max_port_occupancy(), 2);
        assert!((r.avg_port_occupancy() - 3.0 / 5.0).abs() < 1e-12);

        // BFA averages over connected ports only: a corner router (no
        // North or West link) divides by three.
        let mut corner = Router::new(NodeId(0), 4, 4, [false, true, true, false, true], 10, 12, 4);
        corner.deliver(Port::East, flit(1, FlitKind::Head, 0, 9, Port::South, 0));
        corner.deliver(Port::East, flit(1, FlitKind::Body, 1, 9, Port::South, 0));
        corner.deliver(Port::Local, flit(2, FlitKind::Head, 0, 9, Port::South, 1));
        assert!((corner.avg_port_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fast_forward_matches_idle_ticks() {
        // Drained active router, whole-router granularity, up to the
        // cycle its idle detect matures.
        let mut a = router();
        let mut b = a.clone();
        for _ in 0..4 {
            a.idle_tick();
        }
        b.fast_forward(4);
        assert_eq!(a.power_fingerprint(), b.power_fingerprint());
        // Sleeping router: the closed form matches over any stretch.
        a.enter_sleep(4);
        let mut c = a.clone();
        for _ in 0..1000 {
            a.idle_tick();
        }
        c.fast_forward(1000);
        assert_eq!(a.power_fingerprint(), c.power_fingerprint());
        // Waking router: the closed form holds up to the tick before the
        // countdown completes.
        a.request_wake(1004, WakeReason::External);
        let mut d = a.clone();
        for _ in 0..9 {
            a.idle_tick();
        }
        d.fast_forward(9);
        assert_eq!(a.power_fingerprint(), d.power_fingerprint());
    }

    #[test]
    fn fast_forward_matches_idle_ticks_with_port_gating() {
        let mut a = router();
        a.enable_port_gating();
        let mut out = RouterOutput::default();
        for _ in 0..4 {
            a.step(&ALL_ACTIVE, &mut out);
        }
        a.enter_port_sleep(Port::East, 4);
        let mut b = a.clone();
        for _ in 0..700 {
            a.idle_tick();
        }
        b.fast_forward(700);
        assert_eq!(a.power_fingerprint(), b.power_fingerprint());
    }

    #[test]
    fn deliver_returns_lookahead_wake_ping() {
        let mut r = router();
        let ping = r.deliver(Port::West, flit(1, FlitKind::Head, 0, 2, Port::East, 0));
        assert_eq!(ping, Some(Port::East));
        let no_ping = r.deliver(Port::West, flit(1, FlitKind::Tail, 1, 2, Port::East, 0));
        assert_eq!(no_ping, None);
        let local = r.deliver(Port::North, flit(2, FlitKind::Single, 0, 1, Port::Local, 0));
        assert_eq!(local, None, "ejecting flits need no wake ping");
    }
}
