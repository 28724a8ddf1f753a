//! Router input buffers (every virtual channel of every input port, in
//! structure-of-arrays form) and wormhole bindings.

use crate::checkpoint;
use crate::flit::Flit;
use crate::geometry::{NodeId, Port, NUM_PORTS};
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// Largest VC buffer depth, in flits, that `NetworkConfig::validate`
/// and checkpoint decode accept. It is a validation bound only: buffer
/// storage is sized by the configured depth. The paper's routers use
/// depth 4; 16 covers the deep-buffer edge-case configs.
pub const MAX_VC_DEPTH: usize = 16;

/// Most virtual channels per port that `NetworkConfig::validate` and
/// checkpoint decode accept. The paper's routers use 4. Eight bounds
/// every per-port VC mask to a `u8` and lets the per-VC state live
/// inline in the router.
pub const MAX_VCS: usize = 8;

/// Per-VC state slots of one router: every VC of every port.
pub(crate) const PORT_VCS: usize = NUM_PORTS * MAX_VCS;

/// The downstream resources a packet at the head of an input VC has been
/// allocated: an output port and a VC at the downstream router. Held from
/// successful VC allocation until the tail flit leaves (wormhole
/// switching).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Binding {
    /// Output port at this router.
    pub out_port: Port,
    /// Virtual channel at the downstream router's input port.
    pub out_vc: u8,
}

/// One input VC's ring and binding: 6 bytes, inline.
#[derive(Clone, Copy, Debug)]
struct VcState {
    /// Slab index of the ring's first slot.
    base: u16,
    head: u8,
    len: u8,
    /// Meaningful while the VC's `bound` bit is set.
    binding: Binding,
}

/// The input buffers of one router: `NUM_PORTS × vcs` virtual-channel
/// FIFOs of `depth` flits each, stored as router-level arrays.
///
/// * `slab` holds every VC's ring back to back, `[port][vc][slot]`: one
///   allocation of exactly `NUM_PORTS × vcs × depth` flits.
/// * `state` holds each VC's ring (its slab base, head and length) and
///   its binding, inline, at `[port][vc]` with a stride of
///   [`MAX_VCS`]. A position wraps by comparison with the depth; a pop
///   does not overwrite the slot it vacates.
/// * `nonempty`/`bound` are per-port bitmasks over VCs, and a VC's
///   binding is meaningful while its `bound` bit is set: the one
///   binding store. The allocator walks the masks and never touches an
///   empty or unbound VC's state.
/// * `nonempty_vcs` counts the non-empty VCs, and `buffered`/`port_occ`
///   count flits (router-wide and per port), so the blocked count,
///   drain and occupancy checks are O(1).
///
/// Every mutation goes through [`push`](Self::push),
/// [`pop`](Self::pop), [`bind`](Self::bind) and
/// [`unbind`](Self::unbind), which keep the masks and counters in step
/// with the rings.
#[derive(Clone, Debug)]
pub(crate) struct InputBuffers {
    vcs: usize,
    depth: u8,
    slab: Vec<Flit>,
    state: [VcState; PORT_VCS],
    nonempty: [u8; NUM_PORTS],
    bound: [u8; NUM_PORTS],
    nonempty_vcs: u8,
    buffered: u32,
    port_occ: [u32; NUM_PORTS],
}

impl InputBuffers {
    /// Empty buffers of `vcs` VCs per port, `depth` flits per VC.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is outside `1..=`[`MAX_VCS`] or `depth` outside
    /// `1..=`[`MAX_VC_DEPTH`].
    pub(crate) fn new(vcs: usize, depth: usize) -> Self {
        assert!(vcs > 0 && vcs <= MAX_VCS, "vcs must be in 1..={MAX_VCS}");
        assert!(depth > 0, "VC depth must be non-zero");
        assert!(
            depth <= MAX_VC_DEPTH,
            "VC depth {depth} exceeds the validation bound {MAX_VC_DEPTH}"
        );
        let empty = VcState {
            base: 0,
            head: 0,
            len: 0,
            binding: Binding {
                out_port: Port::Local,
                out_vc: 0,
            },
        };
        let mut state = [empty; PORT_VCS];
        for pi in 0..NUM_PORTS {
            for vc in 0..vcs {
                state[pi * MAX_VCS + vc].base = ((pi * vcs + vc) * depth) as u16;
            }
        }
        InputBuffers {
            vcs,
            depth: depth as u8,
            slab: vec![Flit::PLACEHOLDER; NUM_PORTS * vcs * depth],
            state,
            nonempty: [0; NUM_PORTS],
            bound: [0; NUM_PORTS],
            nonempty_vcs: 0,
            buffered: 0,
            port_occ: [0; NUM_PORTS],
        }
    }

    /// Index of a VC's state, `[port][vc]`.
    #[inline]
    fn at(pi: usize, vc: usize) -> usize {
        pi * MAX_VCS + vc
    }

    /// Slab index of ring position `pos` of VC state `s`.
    #[inline]
    fn slot(s: &VcState, pos: u8) -> usize {
        usize::from(s.base) + usize::from(pos)
    }

    /// Flits buffered in VC `(port index, vc)`.
    #[inline]
    pub(crate) fn len(&self, pi: usize, vc: usize) -> usize {
        self.state[Self::at(pi, vc)].len as usize
    }

    /// Free flit slots in VC `(port index, vc)`.
    #[inline]
    pub(crate) fn free_space(&self, pi: usize, vc: usize) -> usize {
        (self.depth - self.state[Self::at(pi, vc)].len) as usize
    }

    /// Total flits buffered across all VCs.
    #[inline]
    pub(crate) fn buffered(&self) -> u32 {
        self.buffered
    }

    /// Flits buffered at one input port, per port index.
    #[inline]
    pub(crate) fn port_occ(&self) -> &[u32; NUM_PORTS] {
        &self.port_occ
    }

    /// Non-empty VCs across all ports.
    #[inline]
    pub(crate) fn nonempty_vcs(&self) -> u8 {
        self.nonempty_vcs
    }

    /// Sum of the ring lengths, computed from the rings themselves (the
    /// debug cross-check of [`InputBuffers::buffered`]).
    pub(crate) fn ring_total(&self) -> usize {
        self.state.iter().map(|s| s.len as usize).sum()
    }

    /// The non-empty VCs counted from the masks (the debug cross-check
    /// of [`InputBuffers::nonempty_vcs`]).
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn mask_total(&self) -> u32 {
        self.nonempty.iter().map(|m| m.count_ones()).sum()
    }

    /// Bitmask of the non-empty VCs of one port.
    #[inline]
    pub(crate) fn nonempty(&self, pi: usize) -> u8 {
        self.nonempty[pi]
    }

    /// Bitmask of the VCs of one port that hold a wormhole binding.
    #[inline]
    pub(crate) fn bound(&self, pi: usize) -> u8 {
        self.bound[pi]
    }

    /// The flit at the head of VC `(port index, vc)`.
    #[inline]
    pub(crate) fn front(&self, pi: usize, vc: usize) -> Option<&Flit> {
        let s = &self.state[Self::at(pi, vc)];
        (s.len > 0).then(|| &self.slab[Self::slot(s, s.head)])
    }

    /// The flits of VC `(port index, vc)`, front first.
    pub(crate) fn iter(&self, pi: usize, vc: usize) -> impl Iterator<Item = &Flit> + '_ {
        let s = &self.state[Self::at(pi, vc)];
        let depth = self.depth as usize;
        (0..s.len as usize).map(move |k| &self.slab[Self::slot(s, ((s.head as usize + k) % depth) as u8)])
    }

    /// Enqueues an arriving flit into VC `(port index, vc)`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is full (a credit protocol violation).
    #[inline]
    pub(crate) fn push(&mut self, pi: usize, vc: usize, flit: Flit) {
        let depth = self.depth;
        let s = &mut self.state[Self::at(pi, vc)];
        let len = s.len;
        assert!(len < depth, "VC buffer overflow: credit protocol violated");
        let mut tail = s.head + len;
        if tail >= depth {
            tail -= depth;
        }
        s.len = len + 1;
        self.slab[Self::slot(s, tail)] = flit;
        if len == 0 {
            self.nonempty[pi] |= 1 << vc;
            self.nonempty_vcs += 1;
        }
        self.buffered += 1;
        self.port_occ[pi] += 1;
    }

    /// Dequeues the head flit of VC `(port index, vc)`.
    #[inline]
    pub(crate) fn pop(&mut self, pi: usize, vc: usize) -> Option<Flit> {
        let depth = self.depth;
        let s = &mut self.state[Self::at(pi, vc)];
        let (head, len) = (s.head, s.len);
        if len == 0 {
            return None;
        }
        let flit = self.slab[Self::slot(s, head)];
        let next = head + 1;
        s.head = if next == depth { 0 } else { next };
        s.len = len - 1;
        if len == 1 {
            self.nonempty[pi] &= !(1 << vc);
            self.nonempty_vcs -= 1;
        }
        self.buffered -= 1;
        self.port_occ[pi] -= 1;
        Some(flit)
    }

    /// The wormhole binding of VC `(port index, vc)`, if the packet at
    /// its head has been allocated downstream resources.
    #[inline]
    pub(crate) fn binding(&self, pi: usize, vc: usize) -> Option<Binding> {
        (self.bound[pi] & (1 << vc) != 0).then(|| self.state[Self::at(pi, vc)].binding)
    }

    /// The binding of a VC known to be bound (its `bound` bit is set).
    #[inline]
    pub(crate) fn bound_binding(&self, pi: usize, vc: usize) -> Binding {
        debug_assert!(self.bound[pi] & (1 << vc) != 0, "VC holds no binding");
        self.state[Self::at(pi, vc)].binding
    }

    /// Records a successful VC allocation.
    ///
    /// # Panics
    ///
    /// Panics if the VC already holds a binding.
    #[inline]
    pub(crate) fn bind(&mut self, pi: usize, vc: usize, binding: Binding) {
        let bit = 1 << vc;
        assert!(self.bound[pi] & bit == 0, "VC already holds a wormhole binding");
        self.bound[pi] |= bit;
        self.state[Self::at(pi, vc)].binding = binding;
    }

    /// Releases the binding of VC `(port index, vc)` (after the tail
    /// flit departs).
    ///
    /// # Panics
    ///
    /// Panics if the VC holds no binding.
    #[inline]
    pub(crate) fn unbind(&mut self, pi: usize, vc: usize) {
        let bit = 1 << vc;
        assert!(self.bound[pi] & bit != 0, "no wormhole binding to release");
        self.bound[pi] &= !bit;
    }

    /// Serializes every VC in `[port][vc]` order: its live flits in FIFO
    /// order and its binding. The rings' physical head positions are
    /// *not* captured — they are not observable (decode re-packs each
    /// ring from position 0), so checkpoints taken at different ring
    /// phases of identical logical state are identical.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        for pi in 0..NUM_PORTS {
            for vc in 0..self.vcs {
                w.put_u8(self.len(pi, vc) as u8);
                for flit in self.iter(pi, vc) {
                    checkpoint::put_flit(w, flit);
                }
                match self.binding(pi, vc) {
                    None => w.put_bool(false),
                    Some(b) => {
                        w.put_bool(true);
                        checkpoint::put_port(w, b.out_port);
                        w.put_u8(b.out_vc);
                    }
                }
            }
        }
    }

    /// Rebuilds buffers serialized by [`InputBuffers::encode`] for a
    /// router of `vcs` VCs of `depth` flits (both already range-checked
    /// by the caller) in a mesh of `nodes` routers; `route` gives a
    /// buffered flit's look-ahead from its destination. The masks and
    /// counters are rebuilt by the same `push`/`bind` calls the
    /// simulation makes, so a checkpoint cannot carry a desynchronized
    /// cache.
    pub(crate) fn decode(
        r: &mut ByteReader<'_>,
        vcs: usize,
        depth: usize,
        nodes: usize,
        route: impl Fn(NodeId) -> Port,
    ) -> Result<Self, CodecError> {
        let mut buffers = InputBuffers::new(vcs, depth);
        for pi in 0..NUM_PORTS {
            for vc in 0..vcs {
                let len = r.get_u8()? as usize;
                if len > depth {
                    return Err(CodecError::Invalid("VC occupancy exceeds depth"));
                }
                for _ in 0..len {
                    buffers.push(pi, vc, checkpoint::get_flit(r, nodes, vcs, &route)?);
                }
                if r.get_bool()? {
                    let out_port = checkpoint::get_port(r)?;
                    let out_vc = r.get_u8()?;
                    if out_vc as usize >= vcs {
                        return Err(CodecError::Invalid("bound downstream VC out of range"));
                    }
                    buffers.bind(pi, vc, Binding { out_port, out_vc });
                }
            }
        }
        Ok(buffers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlitKind, MessageClass, PacketId};

    fn flit(seq: u16) -> Flit {
        Flit {
            packet: PacketId(7),
            kind: FlitKind::Body,
            dst: NodeId(1),
            seq,
            class: MessageClass::Synthetic,
            lookahead: Port::East,
            vc: 0,
        }
    }

    const B: Binding = Binding {
        out_port: Port::South,
        out_vc: 2,
    };

    #[test]
    fn fifo_order() {
        let mut buf = InputBuffers::new(4, 4);
        for s in 0..4 {
            buf.push(2, 1, flit(s));
        }
        assert_eq!(buf.len(2, 1), 4);
        assert_eq!(buf.free_space(2, 1), 0);
        assert_eq!((buf.buffered(), buf.port_occ()[2]), (4, 4));
        assert_eq!(buf.nonempty(2), 0b10);
        for s in 0..4 {
            assert_eq!(buf.pop(2, 1).unwrap().seq, s);
        }
        assert_eq!(buf.len(2, 1), 0);
        assert_eq!(buf.pop(2, 1), None);
        assert_eq!((buf.buffered(), buf.nonempty(2)), (0, 0));
    }

    #[test]
    fn vcs_are_isolated_in_the_slab() {
        // Neighbouring VCs share the slab: filling one to its depth must
        // not spill into the next one's slots.
        let mut buf = InputBuffers::new(2, 3);
        for s in 0..3 {
            buf.push(0, 0, flit(s));
            buf.push(0, 1, flit(100 + s));
            buf.push(1, 0, flit(200 + s));
        }
        for s in 0..3 {
            assert_eq!(buf.pop(0, 1).unwrap().seq, 100 + s);
            assert_eq!(buf.pop(1, 0).unwrap().seq, 200 + s);
            assert_eq!(buf.pop(0, 0).unwrap().seq, s);
        }
        assert_eq!(buf.ring_total(), 0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut buf = InputBuffers::new(4, 2);
        buf.push(0, 3, flit(0));
        buf.push(0, 3, flit(1));
        buf.push(0, 3, flit(2));
    }

    #[test]
    fn binding_lifecycle() {
        let mut buf = InputBuffers::new(4, 4);
        assert_eq!(buf.binding(3, 1), None);
        buf.bind(3, 1, B);
        assert_eq!(buf.binding(3, 1), Some(B));
        assert_eq!(buf.bound_binding(3, 1), B);
        assert_eq!(buf.bound(3), 0b10);
        buf.unbind(3, 1);
        assert_eq!((buf.binding(3, 1), buf.bound(3)), (None, 0));
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn double_bind_panics() {
        let mut buf = InputBuffers::new(4, 4);
        buf.bind(1, 2, B);
        buf.bind(1, 2, B);
    }

    #[test]
    #[should_panic(expected = "no wormhole binding")]
    fn unbind_without_binding_panics() {
        InputBuffers::new(4, 4).unbind(0, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_depth_panics() {
        InputBuffers::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "validation bound")]
    fn over_bound_depth_panics() {
        InputBuffers::new(4, MAX_VC_DEPTH + 1);
    }

    #[test]
    fn slab_is_sized_by_the_configured_depth() {
        let buf = InputBuffers::new(4, 3);
        assert_eq!(buf.slab.len(), NUM_PORTS * 4 * 3);
    }

    #[test]
    fn ring_wraps_preserving_fifo_order() {
        // Interleave pushes and pops long enough to wrap every ring many
        // times at every fill level, on a VC in the middle of the slab so
        // a wrong wrap lands in a neighbour's slots. Depth 3 is the
        // non-power-of-two case; 1 and MAX_VC_DEPTH are the extremes.
        for depth in 1..=MAX_VC_DEPTH {
            let mut buf = InputBuffers::new(3, depth);
            let (pi, vc) = (2, 1);
            let mut next_in = 0u16;
            let mut next_out = 0u16;
            for round in 0..100 {
                let burst = 1 + (round % depth);
                for _ in 0..burst.min(buf.free_space(pi, vc)) {
                    buf.push(pi, vc, flit(next_in));
                    next_in += 1;
                }
                assert_eq!(buf.front(pi, vc).map(|f| f.seq), Some(next_out));
                for _ in 0..1 + (round % 2) {
                    if let Some(f) = buf.pop(pi, vc) {
                        assert_eq!(f.seq, next_out, "FIFO order broken at depth {depth}");
                        next_out += 1;
                    }
                }
                assert_eq!(buf.ring_total(), buf.buffered() as usize);
                assert_eq!(buf.nonempty(pi) != 0, buf.len(pi, vc) > 0);
                assert_eq!(u32::from(buf.nonempty_vcs()), buf.mask_total());
            }
            while let Some(f) = buf.pop(pi, vc) {
                assert_eq!(f.seq, next_out);
                next_out += 1;
            }
            assert_eq!(next_in, next_out, "every pushed flit popped exactly once");
            assert_eq!(buf.ring_total(), 0);
        }
    }

    #[test]
    fn encode_decode_round_trips_a_wrapped_ring() {
        // Depth 3, head moved off position 0 so the live window wraps.
        let mut buf = InputBuffers::new(3, 3);
        for s in 0..3 {
            buf.push(4, 1, flit(s));
        }
        buf.pop(4, 1);
        buf.pop(4, 1);
        buf.push(4, 1, flit(3));
        buf.push(4, 1, flit(4));
        buf.bind(4, 1, B);
        let mut w = ByteWriter::new();
        buf.encode(&mut w);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        let mut back = InputBuffers::decode(&mut r, 3, 3, 2, |_| Port::East).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.binding(4, 1), Some(B));
        assert_eq!((back.buffered(), back.nonempty(4)), (3, 0b10));
        // Re-encoding the re-packed ring yields the same bytes.
        let mut w2 = ByteWriter::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_inner(), bytes);
        let seqs: Vec<u16> = std::iter::from_fn(|| back.pop(4, 1)).map(|f| f.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
    }

    #[test]
    fn decode_rejects_out_of_range_occupancy_and_binding() {
        let mut w = ByteWriter::new();
        w.put_u8(3); // port 0, VC 0: three flits in a depth-2 ring
        let bytes = w.into_inner();
        assert!(matches!(
            InputBuffers::decode(&mut ByteReader::new(&bytes), 1, 2, 2, |_| Port::East),
            Err(CodecError::Invalid(_))
        ));

        let mut w = ByteWriter::new();
        w.put_u8(0);
        w.put_bool(true);
        checkpoint::put_port(&mut w, Port::East);
        w.put_u8(1); // downstream VC 1 of a 1-VC router
        let bytes = w.into_inner();
        assert!(matches!(
            InputBuffers::decode(&mut ByteReader::new(&bytes), 1, 2, 2, |_| Port::East),
            Err(CodecError::Invalid(_))
        ));
    }
}
