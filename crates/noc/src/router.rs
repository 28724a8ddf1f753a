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
use crate::config::{Granularity, NetworkConfig};
use crate::flit::{Flit, MessageClass};
use crate::geometry::{Direction, NodeId, Port, NUM_PORTS};
use crate::power_state::{PowerState, PowerStateMachine};
use crate::stats::{GatingActivity, RouterActivity};
use crate::vc::{Binding, InputBuffers, PORT_VCS};
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// Port mask of a unit that powers every input port.
const ALL_PORTS: u8 = (1 << NUM_PORTS) - 1;

/// One power-gating unit: a power-state machine and its idle-detect
/// timestamp. A router gates as one unit (router granularity, also used
/// with gating off) or as five, one per input port, indexed like
/// [`Port::index`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct GatingUnit {
    psm: PowerStateMachine,
    /// The cycle edge the unit's idle count last restarted: a flit
    /// delivered to the unit, a tick that ends with its inputs holding a
    /// flit (the buffers or crossbar register for a router unit, its
    /// port's buffers for a port unit), or a completed or immediate
    /// wake-up. At cycle edge `c` the unit has been idle `c - idle_from`
    /// consecutive cycles; a router unit's count means nothing while it
    /// sleeps or wakes, and the sleep guard reads it only when active.
    idle_from: u64,
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
    out_owned: [u8; NUM_PORTS],
    /// Credits per output port per downstream VC, `[port][vc]`. Unused
    /// for [`Port::Local`].
    credits: [u8; PORT_VCS],
    /// Per output port, bitmask of the downstream VCs that hold a credit:
    /// bit `v` of `has_credit[p]` is set exactly when `p`'s VC `v` has a
    /// credit left. A credit return sets the bit, a grant that spends the
    /// last credit clears it.
    has_credit: [u8; NUM_PORTS],
    /// [`MessageClass::vc_mask`] of each class at this router's VC
    /// count, indexed by the class's discriminant.
    class_vcs: [u8; 4],
    /// Crossbar pipeline register: flits granted in stage 1 last cycle,
    /// traversing the switch this cycle, at most one per input port. Each
    /// leaves through its look-ahead, the output port of its binding.
    xbar: [Flit; NUM_PORTS],
    xbar_len: u8,
    /// Round-robin pointer per input port for input-side SA.
    in_rr: [u8; NUM_PORTS],
    /// Round-robin pointer per output port for output-side SA.
    out_rr: [u8; NUM_PORTS],
    /// Round-robin pointer per output port for VC allocation.
    vc_rr: [u8; NUM_PORTS],
    /// Power-gating units: one for the whole router, or one per input
    /// port at [`Granularity::Port`].
    units: Vec<GatingUnit>,
    t_idle_detect: u32,
    /// Event counters for the power model.
    pub activity: RouterActivity,
}

impl Router {
    /// Creates the router of `node` in a network configured by `cfg`:
    /// its links follow the mesh, and its gating units the granularity.
    pub fn new(node: NodeId, cfg: &NetworkConfig) -> Self {
        let mut connected = [false; NUM_PORTS];
        connected[Port::Local.index()] = true;
        for dir in Direction::ALL {
            connected[Port::from(dir).index()] = cfg.dims.neighbor(node, dir).is_some();
        }
        let (vcs, vc_depth) = (cfg.vcs_per_port, cfg.vc_depth);
        let unit = GatingUnit {
            psm: PowerStateMachine::new(cfg.gating.t_wakeup, cfg.gating.t_breakeven),
            idle_from: 0,
        };
        let units = if cfg.granularity == Granularity::Port {
            NUM_PORTS
        } else {
            1
        };
        let inputs = InputBuffers::new(vcs, vc_depth);
        let all_vcs = ((1u32 << vcs) - 1) as u8;
        Router {
            node,
            vcs,
            vc_depth,
            inputs,
            connected,
            out_owned: [0; NUM_PORTS],
            credits: [vc_depth as u8; PORT_VCS],
            has_credit: [all_vcs; NUM_PORTS],
            class_vcs: MessageClass::ALL.map(|c| c.vc_mask(vcs) as u8),
            xbar: [Flit::PLACEHOLDER; NUM_PORTS],
            xbar_len: 0,
            in_rr: [0; NUM_PORTS],
            out_rr: [0; NUM_PORTS],
            vc_rr: [0; NUM_PORTS],
            units: vec![unit; units],
            t_idle_detect: cfg.gating.t_idle_detect,
            activity: RouterActivity::default(),
        }
    }

    /// The gating units, for state comparisons.
    pub(crate) fn units(&self) -> &[GatingUnit] {
        &self.units
    }

    /// The gating unit that powers input port `port`.
    pub(crate) fn unit_of(&self, port: Port) -> usize {
        if self.units.len() == 1 {
            0
        } else {
            port.index()
        }
    }

    /// The input ports gating unit `unit` powers, as a bitmask over port
    /// indices.
    pub(crate) fn unit_ports(&self, unit: usize) -> u8 {
        if self.units.len() == 1 {
            ALL_PORTS
        } else {
            1 << unit
        }
    }

    /// Whether `port` can receive flits this cycle: the unit that powers
    /// it is active.
    pub fn port_active(&self, port: Port) -> bool {
        self.units[self.unit_of(port)].psm.state().is_active()
    }

    /// [`Router::port_active`] for all ports at once, as a bitmask over
    /// port indices. The network caches these masks densely so a
    /// stepping router reads its four neighbours' acceptance state
    /// without touching their (cache-cold) structs.
    pub fn port_active_mask(&self) -> u8 {
        let mut mask = 0;
        for (u, unit) in self.units.iter().enumerate() {
            if unit.psm.state().is_active() {
                mask |= self.unit_ports(u);
            }
        }
        mask
    }

    /// Requests a wake-up of the unit that powers input port `port`
    /// (no-op unless it sleeps), landing on cycle edge `edge`; `cycle`
    /// is the network's clock (see [`PowerStateMachine::request_wake`]).
    /// Returns whether it started a wake-up.
    pub(crate) fn request_wake(&mut self, port: Port, edge: u64, cycle: u64) -> bool {
        let u = self.unit_of(port);
        let unit = &mut self.units[u];
        let sleeping = unit.psm.state().is_sleeping();
        if sleeping {
            unit.psm.request_wake(edge, cycle);
            if unit.psm.state().is_active() {
                // Woken at once (`t_wakeup` 0): restart the idle count as
                // a completed wake-up does in `tick_power`, or the policy
                // re-gates the unit before the pinging head arrives.
                unit.idle_from = edge;
            }
        }
        sleeping
    }

    /// Whether gating unit `unit` satisfies the router-local sleep guard
    /// at cycle edge `cycle`: the unit is active, it has been idle for
    /// `t_idle_detect` cycles, and its inputs are empty. For a router
    /// unit that means drained (buffers and crossbar register); for a
    /// port unit, no flit and no open wormhole binding on any VC of its
    /// port (a packet may still have flits upstream of the router — e.g.
    /// in the NI — while the buffer is momentarily empty). The network
    /// adds link-level conditions (no inbound wormholes or in-flight
    /// flits) before actually gating.
    pub(crate) fn sleep_guard_ok(&self, unit: usize, cycle: u64) -> bool {
        let u = &self.units[unit];
        let empty = if self.units.len() == 1 {
            self.is_drained()
        } else {
            self.inputs.nonempty(unit) == 0 && self.inputs.bound(unit) == 0
        };
        u.psm.state().is_active() && cycle - u.idle_from >= u64::from(self.t_idle_detect) && empty
    }

    /// Gates unit `unit` at cycle edge `cycle`. The caller must have
    /// checked [`Router::sleep_guard_ok`] and the network-level inbound
    /// conditions.
    ///
    /// # Panics
    ///
    /// Panics if the guard does not hold.
    pub(crate) fn enter_sleep(&mut self, unit: usize, cycle: u64) {
        assert!(
            self.sleep_guard_ok(unit, cycle),
            "sleep guard violated for {} unit {unit}",
            self.node
        );
        self.units[unit].psm.enter_sleep(cycle);
    }

    /// The cycle the earliest pending wake-up of any unit completes on:
    /// the router's tick of that cycle makes the unit active. `None`
    /// when no wake-up is pending — nothing else changes a unit that no
    /// request touches, so a router that does not run in that state
    /// never needs to be run by the scheduler.
    pub fn next_wake_completion(&self) -> Option<u64> {
        (self.units.iter())
            .filter_map(|u| match u.psm.state() {
                PowerState::WakeUp { until } => Some(until),
                PowerState::Active | PowerState::Sleep => None,
            })
            .min()
    }

    /// Why the router cannot be at cycle edge `cycle`, if it cannot: an
    /// idle count restarted after it, a power-state machine that does
    /// not fit it ([`PowerStateMachine::time_error`]), or an activity
    /// count above what the edges up to it allow (one flit into each
    /// input port per edge, and one request, grant or blocked cycle per
    /// VC per cycle). Checkpoint decode refuses such a router, and debug
    /// builds check every router at every edge ([`crate::Network`]'s
    /// scheduler check).
    pub(crate) fn time_error(&self, cycle: u64) -> Option<&'static str> {
        let most = ((NUM_PORTS * self.vcs) as u64).saturating_mul(cycle.saturating_add(1));
        let a = &self.activity;
        let counts = [
            a.buffer_writes,
            a.link_flits,
            a.ejected_flits,
            a.arb_requests,
            a.arb_grants,
            a.head_blocked_cycles,
        ];
        if counts.into_iter().any(|count| count > most) {
            return Some("router activity exceeds the elapsed cycles");
        }
        (self.units.iter()).find_map(|u| {
            if u.idle_from > cycle {
                Some("timestamp after the checkpoint's cycle")
            } else {
                u.psm.time_error(cycle)
            }
        })
    }

    /// This router's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Router-level power state: the router unit's state, and Active at
    /// port granularity, where crossbar, control and clock stay powered.
    /// The router is up — runs allocation and traversal, and its idle
    /// counts advance — exactly when this is Active.
    pub fn power_state(&self) -> PowerState {
        match &self.units[..] {
            [router] => router.psm.state(),
            _ => PowerState::Active,
        }
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
        self.inputs.buffered() == 0 && self.xbar_len == 0
    }

    /// Flits currently inside the router (input buffers plus the crossbar
    /// pipeline register).
    pub fn occupancy(&self) -> usize {
        self.inputs.buffered() as usize + self.xbar_len()
    }

    /// Bitmask over mesh ports of outputs with at least one downstream VC
    /// currently allocated (an open wormhole towards that neighbour).
    pub fn outbound_binding_ports(&self) -> [bool; NUM_PORTS] {
        self.out_owned.map(|owned| owned != 0)
    }

    /// Whether the crossbar register holds a flit headed out of `port`.
    pub fn xbar_holds_toward(&self, port: Port) -> bool {
        self.xbar_flits().iter().any(|f| f.lookahead == port)
    }

    /// Number of flits in the crossbar pipeline register.
    pub fn xbar_len(&self) -> usize {
        self.xbar_len as usize
    }

    /// The crossbar pipeline register. Each flit leaves through its
    /// look-ahead.
    pub(crate) fn xbar_flits(&self) -> &[Flit] {
        &self.xbar[..self.xbar_len as usize]
    }

    /// Calls `f` on every flit inside the router: the input buffers'
    /// and the crossbar register's.
    pub(crate) fn for_each_flit<'a>(&'a self, mut f: impl FnMut(&'a Flit)) {
        for pi in 0..NUM_PORTS {
            let mut nonempty = self.inputs.nonempty(pi);
            while nonempty != 0 {
                let vc = nonempty.trailing_zeros() as usize;
                nonempty &= nonempty - 1;
                self.inputs.iter(pi, vc).for_each(&mut f);
            }
        }
        self.xbar_flits().iter().for_each(f);
    }

    /// Debug cross-check of the allocator's masks and counts: every
    /// output's credit mask equals `credits > 0` per downstream VC, and
    /// the non-empty VC count equals the non-empty masks' popcount.
    #[cfg(debug_assertions)]
    pub(crate) fn check_masks(&self) {
        for pi in 0..NUM_PORTS {
            let mut want = 0u8;
            for vc in 0..self.vcs {
                if self.credits[pi * self.vcs + vc] > 0 {
                    want |= 1 << vc;
                }
            }
            assert!(
                self.has_credit[pi] == want,
                "credit mask out of sync at {} port {pi}",
                self.node
            );
        }
        assert!(
            u32::from(self.inputs.nonempty_vcs()) == self.inputs.mask_total(),
            "non-empty VC count out of sync at {}",
            self.node
        );
    }

    /// Flits buffered in VC `vc` of input port `port`.
    pub(crate) fn vc_occupancy(&self, port: Port, vc: usize) -> usize {
        self.inputs.len(port.index(), vc)
    }

    /// The flits in VC `vc` of input port `port`, front first.
    pub(crate) fn vc_flits(&self, port: Port, vc: usize) -> impl Iterator<Item = &Flit> + '_ {
        self.inputs.iter(port.index(), vc)
    }

    /// The wormhole binding of VC `vc` of input port `port`, if any.
    pub(crate) fn binding(&self, port: Port, vc: usize) -> Option<Binding> {
        self.inputs.binding(port.index(), vc)
    }

    /// Delivers an arriving flit into the input buffer `(port, flit.vc)`
    /// on cycle edge `edge`, restarting the idle count of the unit that
    /// powers `port`. Returns the direction to send a look-ahead wake-up
    /// ping, if the flit is a head flit bound for a mesh neighbour.
    ///
    /// # Panics
    ///
    /// Panics if the port is not powered (the flow-control protocol never
    /// delivers flits to gated routers or ports) or on buffer overflow.
    pub fn deliver(&mut self, port: Port, flit: Flit, edge: u64) -> Option<Port> {
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
        let u = self.unit_of(port);
        self.units[u].idle_from = edge;
        ping
    }

    /// Returns one credit for `(out_port, vc)` (the downstream router
    /// dequeued a flit).
    pub fn return_credit(&mut self, out_port: Port, vc: u8) {
        let opi = out_port.index();
        let idx = opi * self.vcs + vc as usize;
        self.credits[idx] += 1;
        self.has_credit[opi] |= 1 << vc;
        debug_assert!(
            self.credits[idx] as usize <= self.vc_depth,
            "credit overflow on {}:{:?}",
            self.node,
            out_port
        );
    }

    /// Spends one credit of downstream VC `out_vc` of mesh output `opi`
    /// on a granted flit, clearing the VC's credit bit with the last one.
    #[inline]
    fn spend_credit(&mut self, opi: usize, out_vc: u8) {
        let idx = opi * self.vcs + out_vc as usize;
        debug_assert!(self.credits[idx] > 0);
        self.credits[idx] -= 1;
        if self.credits[idx] == 0 {
            self.has_credit[opi] &= !(1 << out_vc);
        }
    }

    /// The router's operation in cycle `cycle`. `neighbor_active[p]`
    /// tells whether the router across output port `p` can accept flits
    /// this cycle (`true` for the local port).
    ///
    /// Outputs are written into `out` (cleared first).
    pub fn step(&mut self, cycle: u64, neighbor_active: &[bool; NUM_PORTS], out: &mut RouterOutput) {
        out.clear();
        if self.power_state().is_active() {
            self.switch_traversal(out);
            self.allocate(neighbor_active, out);
            self.update_idle_counts(cycle);
        }
        self.tick_power(cycle);
    }

    /// [`Router::step`] through the *reference* allocator: the original
    /// scan-everything stage-1 implementation, kept verbatim as an
    /// independent code path. [`crate::Network::step_reference`] uses
    /// it, so the differential suite compares two genuinely distinct
    /// allocators (an optimization bug in [`Router::step`] cannot cancel
    /// out against itself) and the reference benchmark baseline stays
    /// the naive per-cycle walk.
    pub fn step_reference(&mut self, cycle: u64, neighbor_active: &[bool; NUM_PORTS], out: &mut RouterOutput) {
        out.clear();
        if self.power_state().is_active() {
            self.switch_traversal(out);
            self.allocate_reference(neighbor_active, out);
            self.update_idle_counts(cycle);
        }
        self.tick_power(cycle);
    }

    /// Idle detection after the move stages of cycle `cycle`: a unit
    /// whose inputs still hold a flit restarts its idle count (see
    /// [`GatingUnit`]'s timestamp); an empty one counts on.
    fn update_idle_counts(&mut self, cycle: u64) {
        let drained = self.is_drained();
        let whole = self.units.len() == 1;
        let occ = self.inputs.port_occ();
        for (u, unit) in self.units.iter_mut().enumerate() {
            let empty = if whole { drained } else { occ[u] == 0 };
            if !empty {
                unit.idle_from = cycle;
            }
        }
    }

    /// The power-state machines' tick of cycle `cycle`: completes the
    /// wake-ups due on it.
    fn tick_power(&mut self, cycle: u64) {
        for unit in &mut self.units {
            if unit.psm.tick(cycle) {
                // A freshly woken unit must stay up long enough for the
                // in-flight flit that caused the wake-up to arrive;
                // otherwise an eager gating controller could re-gate it
                // instantly and strand the packet (the wake ping is
                // one-shot).
                unit.idle_from = cycle;
            }
        }
    }

    /// Stage 2: flits granted last cycle traverse the crossbar onto links
    /// or out of the local port.
    fn switch_traversal(&mut self, out: &mut RouterOutput) {
        for i in 0..self.xbar_len as usize {
            let flit = self.xbar[i];
            let out_port = flit.lookahead;
            if out_port == Port::Local {
                self.activity.ejected_flits += 1;
                out.ejected.push(flit);
            } else {
                self.activity.link_flits += 1;
                out.outbound.push(OutboundFlit { out_port, flit });
            }
        }
        self.xbar_len = 0;
    }

    /// Moves a granted flit into the crossbar register.
    #[inline]
    fn enter_crossbar(&mut self, flit: Flit) {
        self.xbar[self.xbar_len as usize] = flit;
        self.xbar_len += 1;
    }

    /// Stage 1: speculative VC allocation plus separable switch
    /// allocation, on bitmasks. Bit-identical to
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
        let vcs = self.vcs as u8;
        // --- VC allocation for head flits without a binding ---
        // Only a non-empty, unbound VC can hold a head awaiting VA (an
        // unbound VC's front flit is always a head: the binding exists
        // from the head's allocation to the tail's departure, and flits
        // of a packet are contiguous in their VC). The reference loop
        // `continue`s on every other VC without reading or writing
        // anything, so iterating the mask bits in ascending order is
        // bit-identical — including the order of wake pings.
        for pi in 0..NUM_PORTS {
            let mut pending = self.inputs.nonempty(pi) & !self.inputs.bound(pi);
            while pending != 0 {
                let vc = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let head = self.inputs.front(pi, vc).expect("non-empty by mask");
                debug_assert!(head.kind.is_head(), "unbound VC fronted by a non-head flit");
                let out_port = head.lookahead;
                let opi = out_port.index();
                debug_assert!(
                    self.connected[opi],
                    "route towards a disconnected port at {}",
                    self.node
                );
                if out_port != Port::Local && !neighbor_active[opi] {
                    // Liveness: re-request the wake-up while the head is
                    // waiting for the downstream router to power on.
                    out.wake_pings.push(out_port);
                    continue;
                }
                let free = self.class_vcs[head.class as usize] & !self.out_owned[opi];
                if free == 0 {
                    continue;
                }
                // Round-robin winner: the first free VC at or after the
                // pointer, else the first free VC from zero (equivalent
                // to the reference's wrapping scan).
                let out_vc = first_at_or_after(free, self.vc_rr[opi]);
                let next = out_vc + 1;
                self.vc_rr[opi] = if next == vcs { 0 } else { next };
                self.out_owned[opi] |= 1 << out_vc;
                self.inputs.bind(pi, vc, Binding { out_port, out_vc });
            }
        }

        // --- Input-side switch arbitration: one candidate VC per port ---
        // Only bound VCs can request the switch; unbound non-empty VCs
        // contribute to the blocked count and nothing else. A bound VC
        // requests its output when the output is local, or its neighbour
        // accepts flits and the downstream VC has a credit: one bit test
        // on the output's credit mask. The candidate is the first
        // requesting VC in the reference's wrapping round-robin order.
        // Requests toward a sleeping neighbour ping it, in that same
        // order; a pinging VC never requests, so the pings can be issued
        // apart from the request scan.
        let nonempty_vcs = u64::from(self.inputs.nonempty_vcs());
        let mut cand_vc = [0u8; NUM_PORTS];
        // Per output port, the input ports whose candidate requests it.
        let mut requesters = [0u8; NUM_PORTS];
        let mut requests = 0u64;
        for (pi, cand) in cand_vc.iter_mut().enumerate() {
            let mut bound = self.inputs.nonempty(pi) & self.inputs.bound(pi);
            if bound == 0 {
                continue;
            }
            let start = self.in_rr[pi];
            // The first requesting VC at or after the pointer, and the
            // first one before it: the round-robin candidate is the
            // former if there is one.
            let (mut from_start, mut wrapped) = (None, None);
            let mut asleep = 0u8;
            while bound != 0 {
                let vc = bound.trailing_zeros() as u8;
                bound &= bound - 1;
                let binding = self.inputs.bound_binding(pi, vc as usize);
                let opi = binding.out_port.index();
                if binding.out_port == Port::Local
                    || (neighbor_active[opi] && self.has_credit[opi] & (1 << binding.out_vc) != 0)
                {
                    requests += 1;
                    let first = if vc >= start { &mut from_start } else { &mut wrapped };
                    first.get_or_insert((vc, opi));
                } else if !neighbor_active[opi] {
                    asleep |= 1 << vc;
                }
            }
            if asleep != 0 {
                // Liveness: keep requesting the sleeping neighbour's
                // wake-up while we hold flits for it.
                for vc in (start..vcs).chain(0..start) {
                    if asleep & (1 << vc) != 0 {
                        out.wake_pings.push(self.inputs.bound_binding(pi, vc as usize).out_port);
                    }
                }
            }
            if let Some((vc, opi)) = from_start.or(wrapped) {
                *cand = vc;
                requesters[opi] |= 1 << pi;
            }
        }
        self.activity.arb_requests += requests;

        // --- Output-side arbitration: one grant per output port ---
        // Each output grants the first requesting input port at or after
        // its round-robin pointer. Output ports nobody requests grant
        // nothing and leave their pointer untouched, as in the reference.
        let mut granted = 0u8; // by input port
        for (&req, rr) in requesters.iter().zip(&mut self.out_rr) {
            if req != 0 {
                let winner = first_at_or_after(req, *rr);
                let next = winner + 1;
                *rr = if next as usize == NUM_PORTS { 0 } else { next };
                granted |= 1 << winner;
            }
        }

        // --- Winners: dequeue, update credits/bindings, enter the
        //     crossbar register; return credits upstream. ---
        let mut grants = 0u64;
        while granted != 0 {
            let pi = granted.trailing_zeros() as usize;
            granted &= granted - 1;
            grants += 1;
            let vc = cand_vc[pi];
            let binding = self.inputs.bound_binding(pi, vc as usize);
            let next = vc + 1;
            self.in_rr[pi] = if next == vcs { 0 } else { next };
            let mut flit = self.inputs.pop(pi, vc as usize).expect("granted VC must be non-empty");
            flit.vc = binding.out_vc;
            flit.lookahead = binding.out_port;
            let opi = binding.out_port.index();
            if binding.out_port != Port::Local {
                self.spend_credit(opi, binding.out_vc);
            }
            if flit.kind.is_tail() {
                self.inputs.unbind(pi, vc as usize);
                self.out_owned[opi] &= !(1 << binding.out_vc);
            }
            if pi != Port::Local.index() {
                // The credit is for the buffer slot freed at the
                // *arrival* VC, not the downstream VC just written into
                // the flit.
                out.credits.push(CreditReturn {
                    in_port: Port::from_index(pi),
                    vc,
                });
            }
            self.enter_crossbar(flit);
        }
        self.activity.arb_grants += grants;
        // Blocked accounting: every VC that was non-empty at arbitration
        // and whose front flit did not move waits one more cycle. This
        // includes credit-starved and VA-starved waiting, which is
        // exactly the back-pressure the blocking-delay congestion metric
        // should observe.
        self.activity.head_blocked_cycles += nonempty_vcs - grants;
    }

    /// Stage 1, reference implementation: the original scan-everything
    /// allocator. Kept as an independent twin of [`Router::allocate`]
    /// for the reference baseline and the differential tests: it reads
    /// every VC's state and the credit counters themselves, and keeps
    /// the credit mask up to date through the same credit calls without
    /// ever reading it.
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
                let mask = head.class.vc_mask(self.vcs) & !u64::from(self.out_owned[out_port.index()]);
                if mask == 0 {
                    continue;
                }
                // Round-robin scan for a free downstream VC.
                let start = self.vc_rr[out_port.index()] as usize;
                let mut chosen = None;
                for off in 0..self.vcs {
                    let cand = (start + off) % self.vcs;
                    if mask & (1u64 << cand) != 0 {
                        chosen = Some(cand);
                        break;
                    }
                }
                if let Some(ovc) = chosen {
                    self.vc_rr[out_port.index()] = ((ovc + 1) % self.vcs) as u8;
                    self.out_owned[out_port.index()] |= 1 << ovc;
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
            let start = self.in_rr[pi] as usize;
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
            let start = self.out_rr[opi] as usize;
            for off in 0..NUM_PORTS {
                let in_pi = (start + off) % NUM_PORTS;
                if let Some((vc, binding)) = candidate[in_pi] {
                    if binding.out_port == out_port {
                        granted[in_pi] = Some((vc, binding));
                        candidate[in_pi] = None;
                        self.out_rr[opi] = ((in_pi + 1) % NUM_PORTS) as u8;
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
            self.in_rr[pi] = ((vc + 1) % self.vcs) as u8;
            let mut flit = self.inputs.pop(pi, vc).expect("granted VC must be non-empty");
            flit.vc = binding.out_vc;
            flit.lookahead = binding.out_port;
            let opi = binding.out_port.index();
            if binding.out_port != Port::Local {
                self.spend_credit(opi, binding.out_vc);
            }
            if flit.kind.is_tail() {
                self.inputs.unbind(pi, vc);
                self.out_owned[opi] &= !(1 << binding.out_vc);
            }
            if in_port != Port::Local {
                // The credit is for the buffer slot freed at the *arrival*
                // VC, not the downstream VC just written into the flit.
                out.credits.push(CreditReturn { in_port, vc: vc as u8 });
            }
            self.enter_crossbar(flit);
        }
        self.activity.arb_grants += grants;
        // Blocked accounting: every non-empty VC whose front flit did not
        // move waits one more cycle. This includes credit-starved and
        // VA-starved waiting, which is exactly the back-pressure the
        // blocking-delay congestion metric should observe.
        self.activity.head_blocked_cycles += nonempty_vcs.saturating_sub(grants);
    }

    /// Power-gating residency statistics summed over the gating units
    /// (router-cycles, or port-cycles at port granularity) at cycle edge
    /// `cycle` ([`PowerStateMachine::activity`]).
    pub fn gating_activity(&self, cycle: u64) -> GatingActivity {
        (self.units.iter())
            .map(|unit| unit.psm.activity(cycle))
            .fold(GatingActivity::default(), GatingActivity::merged)
    }

    /// Closes the power-state accounting at the end of a simulation.
    pub fn finalize(&mut self, cycle: u64) {
        for unit in &mut self.units {
            unit.psm.finalize(cycle);
        }
    }

    /// Serializes the router's simulation state (checkpointing). What
    /// the configuration fixes — links, buffer geometry, gating timings
    /// — is not written; the unit count is, as a cross-check against
    /// the granularity. Nor is anything derivable: the buffers'
    /// counters and masks (functions of the ring contents), the
    /// downstream-VC ownership masks (functions of the bindings), the
    /// crossbar ports (each flit's look-ahead) and the credits (rebuilt
    /// by [`Network::load_state`](crate::Network::load_state) from the
    /// flits and credits in flight), so a checkpoint cannot carry a
    /// desynchronized copy.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.put_u16(self.node.0);
        self.inputs.encode(w);
        w.put_u8(self.xbar_len);
        for flit in self.xbar_flits() {
            checkpoint::put_flit(w, flit);
        }
        for rr in [self.in_rr, self.out_rr, self.vc_rr] {
            for p in rr {
                w.put_u8(p);
            }
        }
        w.put_u8(self.units.len() as u8);
        for unit in &self.units {
            unit.psm.encode(w);
            w.put_u64(unit.idle_from);
        }
        let a = &self.activity;
        w.put_u64(a.buffer_writes);
        w.put_u64(a.link_flits);
        w.put_u64(a.ejected_flits);
        w.put_u64(a.arb_requests);
        w.put_u64(a.arb_grants);
        w.put_u64(a.head_blocked_cycles);
    }

    /// Rebuilds router `node` of a network configured by `cfg`, at
    /// cycle `cycle`, from [`Router::encode`] output. Every flit's
    /// look-ahead is the X-Y route at this router, and a crossbar flit
    /// leaves through its look-ahead. The credits stay at `vc_depth`
    /// until the network calls [`Router::restore_credits`].
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        node: NodeId,
        cfg: &NetworkConfig,
        cycle: u64,
    ) -> Result<Self, CodecError> {
        if r.get_u16()? != node.0 {
            return Err(CodecError::Invalid("router out of order"));
        }
        let mut router = Router::new(node, cfg);
        let (vcs, vc_depth, nodes) = (router.vcs, router.vc_depth, cfg.dims.num_nodes());
        let route = |dst| cfg.dims.xy_route(node, dst);
        router.inputs = InputBuffers::decode(r, vcs, vc_depth, nodes, route)?;
        for port in Port::ALL {
            let pi = port.index();
            // Only a link fills a mesh input port; a flit there would
            // return its credit to no router.
            if !router.connected[pi] && (router.inputs.nonempty(pi) | router.inputs.bound(pi)) != 0 {
                return Err(CodecError::Invalid("flit or binding at an input port without a link"));
            }
            let mut bound = router.inputs.bound(pi);
            while bound != 0 {
                let vc = bound.trailing_zeros() as usize;
                bound &= bound - 1;
                let b = router.inputs.bound_binding(pi, vc);
                if !router.connected[b.out_port.index()] {
                    return Err(CodecError::Invalid("binding toward a port without a link"));
                }
                let owned = &mut router.out_owned[b.out_port.index()];
                if *owned & (1 << b.out_vc) != 0 {
                    return Err(CodecError::Invalid("downstream VC bound twice"));
                }
                *owned |= 1 << b.out_vc;
            }
        }
        let xbar_len = r.get_u8()?;
        if usize::from(xbar_len) > NUM_PORTS {
            return Err(CodecError::Invalid("crossbar register overfull"));
        }
        for _ in 0..xbar_len {
            router.enter_crossbar(checkpoint::get_flit(r, nodes, vcs, route)?);
        }
        let pointers = [
            (&mut router.in_rr, vcs, "input round-robin pointer out of range"),
            (&mut router.out_rr, NUM_PORTS, "output round-robin pointer out of range"),
            (&mut router.vc_rr, vcs, "VC round-robin pointer out of range"),
        ];
        for (rr, bound, what) in pointers {
            for p in rr.iter_mut() {
                *p = r.get_u8()?;
                if usize::from(*p) >= bound {
                    return Err(CodecError::Invalid(what));
                }
            }
        }
        if usize::from(r.get_u8()?) != router.units.len() {
            return Err(CodecError::Invalid("gating units do not match the granularity"));
        }
        for unit in router.units.iter_mut() {
            unit.psm = PowerStateMachine::decode(r, &cfg.gating)?;
            unit.idle_from = r.get_u64()?;
        }
        router.activity = RouterActivity {
            buffer_writes: r.get_u64()?,
            link_flits: r.get_u64()?,
            ejected_flits: r.get_u64()?,
            arb_requests: r.get_u64()?,
            arb_grants: r.get_u64()?,
            head_blocked_cycles: r.get_u64()?,
        };
        if let Some(what) = router.time_error(cycle) {
            return Err(CodecError::Invalid(what));
        }
        Ok(router)
    }

    /// Sets the credit counters and the credit masks at checkpoint
    /// decode: each output VC's credit is `vc_depth` less what the
    /// network counted against it, `owed`, indexed like the counters
    /// (`port * vcs + vc`).
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] if a VC owes more than its depth.
    pub(crate) fn restore_credits(&mut self, owed: &[u32]) -> Result<(), CodecError> {
        self.has_credit = [0; NUM_PORTS];
        for (i, &owed) in owed.iter().enumerate().take(NUM_PORTS * self.vcs) {
            let left = (self.vc_depth as u32).checked_sub(owed);
            let left = left.ok_or(CodecError::Invalid("downstream VC over-committed"))? as u8;
            self.credits[i] = left;
            if left > 0 {
                self.has_credit[i / self.vcs] |= 1 << (i % self.vcs);
            }
        }
        Ok(())
    }
}

/// The first set bit of `mask` at or after bit `start`, else the first
/// set bit: a round-robin pick. `mask` must be non-zero.
#[inline]
fn first_at_or_after(mask: u8, start: u8) -> u8 {
    debug_assert!(mask != 0);
    let from_start = mask >> start;
    if from_start != 0 {
        start + from_start.trailing_zeros() as u8
    } else {
        mask.trailing_zeros() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, MessageClass, PacketId};

    const ALL_ACTIVE: [bool; NUM_PORTS] = [true; NUM_PORTS];

    // Only the gating units read the cycle: tests that never gate run
    // and deliver at cycle 0 throughout.

    /// An inner router (every port linked) of the paper's 8x8 mesh:
    /// 4 VCs of depth 4, `t_wakeup` 10, `t_breakeven` 12, `t_idle_detect`
    /// 4.
    fn router() -> Router {
        Router::new(NodeId(9), &NetworkConfig::paper())
    }

    fn flit(packet: u64, kind: FlitKind, seq: u16, lookahead: Port, vc: u8) -> Flit {
        Flit {
            packet: PacketId(packet),
            kind,
            dst: NodeId(63),
            seq,
            class: MessageClass::Synthetic,
            lookahead,
            vc,
        }
    }

    #[test]
    fn single_flit_crosses_in_two_cycles() {
        let mut r = router();
        let mut out = RouterOutput::default();
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, Port::East, 0), 0);
        // Cycle 1: VA + SA grant into the crossbar register.
        r.step(0, &ALL_ACTIVE, &mut out);
        assert!(out.outbound.is_empty());
        // Cycle 2: switch traversal.
        r.step(0, &ALL_ACTIVE, &mut out);
        assert_eq!(out.outbound.len(), 1);
        assert_eq!(out.outbound[0].out_port, Port::East);
        assert_eq!(r.activity.arb_grants, 1);
        assert_eq!(r.activity.link_flits, 1);
    }

    #[test]
    fn credit_returned_for_arrival_vc() {
        let mut r = router();
        let mut out = RouterOutput::default();
        r.deliver(Port::North, flit(1, FlitKind::Single, 0, Port::South, 3), 0);
        r.step(0, &ALL_ACTIVE, &mut out);
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
        r.deliver(Port::North, flit(1, FlitKind::Single, 0, Port::Local, 0), 0);
        r.step(0, &ALL_ACTIVE, &mut out);
        assert_eq!(out.credits.len(), 1);
        assert_eq!(out.credits[0].in_port, Port::North);
        r.step(0, &ALL_ACTIVE, &mut out);
        assert_eq!(out.ejected.len(), 1);
        assert_eq!(r.activity.ejected_flits, 1);
        assert_eq!(r.activity.link_flits, 0);

        // ...whereas a locally injected flit produces no credit (the NI
        // observes buffer space directly).
        let mut r2 = router();
        r2.deliver(Port::Local, flit(2, FlitKind::Single, 0, Port::East, 0), 0);
        r2.step(0, &ALL_ACTIVE, &mut out);
        assert!(out.credits.is_empty());
    }

    #[test]
    fn wormhole_binding_held_until_tail() {
        let mut r = router();
        let mut out = RouterOutput::default();
        r.deliver(Port::West, flit(1, FlitKind::Head, 0, Port::East, 0), 0);
        r.step(0, &ALL_ACTIVE, &mut out);
        assert!(r.outbound_binding_ports()[Port::East.index()]);
        r.deliver(Port::West, flit(1, FlitKind::Body, 1, Port::East, 0), 0);
        r.step(0, &ALL_ACTIVE, &mut out);
        assert!(r.outbound_binding_ports()[Port::East.index()]);
        r.deliver(Port::West, flit(1, FlitKind::Tail, 2, Port::East, 0), 0);
        r.step(0, &ALL_ACTIVE, &mut out);
        // Tail was granted this cycle, releasing the binding.
        assert!(!r.outbound_binding_ports()[Port::East.index()]);
    }

    #[test]
    fn downstream_vcs_kept_distinct_for_concurrent_packets() {
        let mut r = router();
        let mut out = RouterOutput::default();
        // Two whole packets from different input ports to the same output
        // port, delivered up front.
        r.deliver(Port::West, flit(1, FlitKind::Head, 0, Port::East, 0), 0);
        r.deliver(Port::North, flit(2, FlitKind::Head, 0, Port::East, 0), 0);
        r.deliver(Port::West, flit(1, FlitKind::Tail, 1, Port::East, 0), 0);
        r.deliver(Port::North, flit(2, FlitKind::Tail, 1, Port::East, 0), 0);
        let mut seen = Vec::new();
        for _ in 0..10 {
            r.step(0, &ALL_ACTIVE, &mut out);
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
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, Port::East, 0), 0);
        r.deliver(Port::North, flit(2, FlitKind::Single, 0, Port::East, 1), 0);
        r.step(0, &ALL_ACTIVE, &mut out);
        assert_eq!(r.activity.arb_grants, 1, "output port conflict must serialize");
        assert!(r.activity.head_blocked_cycles >= 1);
        r.step(0, &ALL_ACTIVE, &mut out);
        assert_eq!(out.outbound.len(), 1);
        r.step(0, &ALL_ACTIVE, &mut out);
        assert_eq!(out.outbound.len(), 1);
    }

    #[test]
    fn no_grant_toward_inactive_neighbor() {
        let mut r = router();
        let mut out = RouterOutput::default();
        let mut east_off = ALL_ACTIVE;
        east_off[Port::East.index()] = false;
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, Port::East, 0), 0);
        for _ in 0..5 {
            r.step(0, &east_off, &mut out);
            assert!(out.outbound.is_empty());
        }
        assert_eq!(r.activity.arb_grants, 0);
        assert!(r.activity.head_blocked_cycles >= 5);
        // Neighbour wakes: flit proceeds.
        r.step(0, &ALL_ACTIVE, &mut out);
        r.step(0, &ALL_ACTIVE, &mut out);
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
            r.deliver(Port::West, flit(1, *kind, i as u16, Port::East, 0), 0);
        }
        let mut sent = 0;
        for _ in 0..12 {
            r.step(0, &ALL_ACTIVE, &mut out);
            sent += out.outbound.len();
        }
        assert_eq!(sent, 4, "only vc_depth flits may be in flight without credit returns");
        // Return one credit for the VC that was allocated.
        let alloc_vc = (0..4).find(|&v| r.out_owned[Port::East.index()] & (1 << v) != 0).unwrap();
        r.deliver(Port::West, flit(1, FlitKind::Body, 4, Port::East, 0), 0);
        r.return_credit(Port::East, alloc_vc as u8);
        let mut sent2 = 0;
        for _ in 0..4 {
            r.step(0, &ALL_ACTIVE, &mut out);
            sent2 += out.outbound.len();
        }
        assert_eq!(sent2, 1);
    }

    #[test]
    fn idle_detection_counts_consecutive_empty_cycles() {
        let mut r = router();
        let mut out = RouterOutput::default();
        assert!(!r.sleep_guard_ok(0, 0));
        for cycle in 1..=3 {
            r.step(cycle, &ALL_ACTIVE, &mut out);
        }
        assert!(!r.sleep_guard_ok(0, 3));
        // The count is exact at every edge, whether the router ran or not.
        assert!(r.sleep_guard_ok(0, 4));
        r.step(4, &ALL_ACTIVE, &mut out);
        assert!(r.sleep_guard_ok(0, 4));
        // A delivery restarts the count.
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, Port::East, 0), 4);
        assert_eq!(r.units[0].idle_from, 4);
        // A tick that ends with a flit inside restarts it again.
        r.step(5, &ALL_ACTIVE, &mut out);
        assert_eq!(r.units[0].idle_from, 5);
    }

    #[test]
    fn sleep_and_wake_cycle() {
        let mut r = router();
        let mut out = RouterOutput::default();
        for cycle in 1..=4 {
            r.step(cycle, &ALL_ACTIVE, &mut out);
        }
        r.enter_sleep(0, 4);
        assert!(r.power_state().is_sleeping());
        // Sleeping routers do nothing.
        r.step(5, &ALL_ACTIVE, &mut out);
        assert!(out.outbound.is_empty());
        r.request_wake(Port::East, 5, 6);
        for cycle in 6..=15 {
            assert!(!r.power_state().is_active());
            r.step(cycle, &ALL_ACTIVE, &mut out);
        }
        assert!(r.power_state().is_active());
        assert_eq!(r.units[0].idle_from, 15, "a completed wake-up restarts the idle count");
        // 15 ticks: 4 active, 1 asleep, 10 waking.
        let g = r.gating_activity(15);
        assert_eq!(g.sleep_transitions, 1);
        assert_eq!((g.active_cycles, g.sleep_cycles, g.wakeup_cycles), (4, 1, 10));
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn delivery_to_sleeping_router_panics() {
        let mut r = router();
        let mut out = RouterOutput::default();
        for cycle in 1..=4 {
            r.step(cycle, &ALL_ACTIVE, &mut out);
        }
        r.enter_sleep(0, 4);
        r.deliver(Port::West, flit(1, FlitKind::Single, 0, Port::East, 0), 4);
    }

    #[test]
    fn bfm_is_max_port_occupancy() {
        let mut r = router();
        r.deliver(Port::West, flit(1, FlitKind::Head, 0, Port::East, 0), 0);
        r.deliver(Port::West, flit(1, FlitKind::Body, 1, Port::East, 0), 0);
        r.deliver(Port::North, flit(2, FlitKind::Head, 0, Port::East, 1), 0);
        assert_eq!(r.port_occupancy(Port::West), 2);
        assert_eq!(r.port_occupancy(Port::North), 1);
        assert_eq!(r.max_port_occupancy(), 2);
        assert!((r.avg_port_occupancy() - 3.0 / 5.0).abs() < 1e-12);

        // BFA averages over connected ports only: a corner router (no
        // North or West link) divides by three.
        let mut corner = Router::new(NodeId(0), &NetworkConfig::paper());
        assert_eq!(corner.connected, [false, true, true, false, true]);
        corner.deliver(Port::East, flit(1, FlitKind::Head, 0, Port::South, 0), 0);
        corner.deliver(Port::East, flit(1, FlitKind::Body, 1, Port::South, 0), 0);
        corner.deliver(Port::Local, flit(2, FlitKind::Head, 0, Port::South, 1), 0);
        assert!((corner.avg_port_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deliver_returns_lookahead_wake_ping() {
        let mut r = router();
        let ping = r.deliver(Port::West, flit(1, FlitKind::Head, 0, Port::East, 0), 0);
        assert_eq!(ping, Some(Port::East));
        let no_ping = r.deliver(Port::West, flit(1, FlitKind::Tail, 1, Port::East, 0), 0);
        assert_eq!(no_ping, None);
        let local = r.deliver(Port::North, flit(2, FlitKind::Single, 0, Port::Local, 0), 0);
        assert_eq!(local, None, "ejecting flits need no wake ping");
    }

    fn round_trip(r: &Router) -> Result<Router, CodecError> {
        let mut w = ByteWriter::new();
        r.encode(&mut w);
        let bytes = w.into_inner();
        Router::decode(&mut ByteReader::new(&bytes), r.node, &NetworkConfig::paper(), 0)
    }

    /// A router takes at most one flit into each input port per cycle
    /// edge, and counts at most one request, grant or blocked cycle per
    /// VC per cycle: at cycle 0 a paper router (5 ports, 4 VCs) can have
    /// counted 20 of each, and decode refuses more, which would otherwise
    /// overflow `RouterActivity::merged` when a network sums its routers.
    #[test]
    fn decode_rejects_activity_beyond_the_elapsed_cycles() {
        let mut r = Router::new(NodeId(9), &NetworkConfig::paper());
        r.activity.head_blocked_cycles = 20;
        assert!(round_trip(&r).is_ok());
        for count in [21, 1 << 63] {
            r.activity.buffer_writes = count;
            assert_eq!(
                round_trip(&r).map(|_| ()),
                Err(CodecError::Invalid("router activity exceeds the elapsed cycles"))
            );
        }
    }

    /// Look-aheads are not stored: decode gives every buffered and
    /// crossbar flit the X-Y route at its router, and a crossbar entry
    /// leaves through it. Corner router 0 has no North link; a head
    /// saved looking ahead North, and a crossbar flit saved looking
    /// ahead South, come back routed East, toward node 63.
    #[test]
    fn decoded_lookaheads_follow_the_route() {
        let head = |lookahead| flit(1, FlitKind::Head, 0, lookahead, 0);
        let mut r = Router::new(NodeId(0), &NetworkConfig::paper());
        r.deliver(Port::Local, head(Port::North), 0);
        r.enter_crossbar(head(Port::South));
        let back = round_trip(&r).unwrap();
        let buffered = back.inputs.front(Port::Local.index(), 0).map(|f| f.lookahead);
        assert_eq!(buffered, Some(Port::East));
        assert_eq!(back.xbar_flits(), [head(Port::East)]);
    }

    /// The downstream-VC ownership masks are rebuilt from the bindings,
    /// so two input VCs bound to one downstream VC cannot decode.
    #[test]
    fn decode_rejects_a_downstream_vc_bound_twice() {
        let to = |out_vc| Binding {
            out_port: Port::East,
            out_vc,
        };
        let mut r = router();
        r.inputs.bind(Port::West.index(), 0, to(0));
        r.inputs.bind(Port::North.index(), 1, to(1));
        let back = round_trip(&r).unwrap();
        assert_eq!(back.out_owned[Port::East.index()], 0b11);
        r.inputs.bind(Port::South.index(), 2, to(1));
        assert_eq!(
            round_trip(&r).map(|_| ()),
            Err(CodecError::Invalid("downstream VC bound twice"))
        );
    }

    /// Corner router 0 has no North link, so no VC can be bound toward
    /// it.
    #[test]
    fn decode_rejects_a_binding_toward_a_port_without_a_link() {
        let bound_toward = |out_port| {
            let mut r = Router::new(NodeId(0), &NetworkConfig::paper());
            r.inputs.bind(Port::Local.index(), 0, Binding { out_port, out_vc: 0 });
            round_trip(&r).map(|_| ())
        };
        assert_eq!(bound_toward(Port::East), Ok(()));
        assert_eq!(
            bound_toward(Port::North),
            Err(CodecError::Invalid("binding toward a port without a link"))
        );
    }

    /// Corner router 0 has no West link, so nothing can be buffered or
    /// bound at its West input.
    #[test]
    fn decode_rejects_state_at_an_input_port_without_a_link() {
        let mut r = Router::new(NodeId(0), &NetworkConfig::paper());
        r.inputs
            .push(Port::West.index(), 0, flit(1, FlitKind::Single, 0, Port::East, 0));
        assert!(matches!(round_trip(&r), Err(CodecError::Invalid(_))));
        let mut r = Router::new(NodeId(0), &NetworkConfig::paper());
        r.inputs.bind(
            Port::West.index(),
            0,
            Binding {
                out_port: Port::East,
                out_vc: 0,
            },
        );
        assert!(matches!(round_trip(&r), Err(CodecError::Invalid(_))));
    }
}
