//! Router input buffers (every virtual channel of every input port, in
//! structure-of-arrays form) and wormhole bindings.

use crate::checkpoint;
use crate::flit::Flit;
use crate::geometry::{Port, NUM_PORTS};
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// Largest VC buffer depth, in flits, that `NetworkConfig::validate`
/// and checkpoint decode accept. It is a validation bound only: buffer
/// storage is sized by the configured depth. The paper's routers use
/// depth 4; 16 covers the deep-buffer edge-case configs.
pub const MAX_VC_DEPTH: usize = 16;

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

/// The input buffers of one router: `NUM_PORTS × vcs` virtual-channel
/// FIFOs of `depth` flits each, stored as router-level arrays.
///
/// * `slab` holds every VC's ring back to back, `[port][vc][slot]`: one
///   allocation of exactly `NUM_PORTS × vcs × depth` flits.
/// * `head`/`len` are the ring positions per VC (`[port][vc]`). A
///   position wraps by comparison with the depth; a pop does not
///   overwrite the slot it vacates.
/// * `nonempty`/`bound` are per-port bitmasks over VCs, and `bindings`
///   holds the binding of every VC whose `bound` bit is set: the one
///   binding store. The allocator walks the masks and never touches an
///   empty or unbound VC's state.
/// * `buffered`/`port_occ` count flits (router-wide and per port) so
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
    head: Vec<u8>,
    len: Vec<u8>,
    nonempty: [u64; NUM_PORTS],
    bound: [u64; NUM_PORTS],
    bindings: Vec<Binding>,
    buffered: u32,
    port_occ: [u32; NUM_PORTS],
}

impl InputBuffers {
    /// Empty buffers of `vcs` VCs per port, `depth` flits per VC.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is outside `1..=64` or `depth` outside
    /// `1..=`[`MAX_VC_DEPTH`].
    pub(crate) fn new(vcs: usize, depth: usize) -> Self {
        assert!(vcs > 0 && vcs <= 64, "vcs must be in 1..=64");
        assert!(depth > 0, "VC depth must be non-zero");
        assert!(
            depth <= MAX_VC_DEPTH,
            "VC depth {depth} exceeds the validation bound {MAX_VC_DEPTH}"
        );
        let n = NUM_PORTS * vcs;
        InputBuffers {
            vcs,
            depth: depth as u8,
            slab: vec![Flit::PLACEHOLDER; n * depth],
            head: vec![0; n],
            len: vec![0; n],
            nonempty: [0; NUM_PORTS],
            bound: [0; NUM_PORTS],
            bindings: vec![
                Binding {
                    out_port: Port::Local,
                    out_vc: 0,
                };
                n
            ],
            buffered: 0,
            port_occ: [0; NUM_PORTS],
        }
    }

    /// Flat `[port][vc]` index of a VC.
    #[inline]
    fn at(&self, pi: usize, vc: usize) -> usize {
        pi * self.vcs + vc
    }

    /// Slab index of ring position `pos` of VC `i`.
    #[inline]
    fn slot(&self, i: usize, pos: u8) -> usize {
        i * self.depth as usize + pos as usize
    }

    /// Flits buffered in VC `(port index, vc)`.
    #[inline]
    pub(crate) fn len(&self, pi: usize, vc: usize) -> usize {
        self.len[self.at(pi, vc)] as usize
    }

    /// Free flit slots in VC `(port index, vc)`.
    #[inline]
    pub(crate) fn free_space(&self, pi: usize, vc: usize) -> usize {
        (self.depth - self.len[self.at(pi, vc)]) as usize
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

    /// Sum of the ring lengths, computed from the rings themselves (the
    /// debug cross-check of [`InputBuffers::buffered`]).
    pub(crate) fn ring_total(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }

    /// Bitmask of the non-empty VCs of one port.
    #[inline]
    pub(crate) fn nonempty(&self, pi: usize) -> u64 {
        self.nonempty[pi]
    }

    /// Bitmask of the VCs of one port that hold a wormhole binding.
    #[inline]
    pub(crate) fn bound(&self, pi: usize) -> u64 {
        self.bound[pi]
    }

    /// The flit at the head of VC `(port index, vc)`.
    #[inline]
    pub(crate) fn front(&self, pi: usize, vc: usize) -> Option<&Flit> {
        let i = self.at(pi, vc);
        (self.len[i] > 0).then(|| &self.slab[self.slot(i, self.head[i])])
    }

    /// Enqueues an arriving flit into VC `(port index, vc)`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is full (a credit protocol violation).
    #[inline]
    pub(crate) fn push(&mut self, pi: usize, vc: usize, flit: Flit) {
        let i = self.at(pi, vc);
        let len = self.len[i];
        assert!(len < self.depth, "VC buffer overflow: credit protocol violated");
        let mut tail = self.head[i] + len;
        if tail >= self.depth {
            tail -= self.depth;
        }
        let s = self.slot(i, tail);
        self.slab[s] = flit;
        self.len[i] = len + 1;
        self.nonempty[pi] |= 1u64 << vc;
        self.buffered += 1;
        self.port_occ[pi] += 1;
    }

    /// Dequeues the head flit of VC `(port index, vc)`.
    #[inline]
    pub(crate) fn pop(&mut self, pi: usize, vc: usize) -> Option<Flit> {
        let i = self.at(pi, vc);
        let len = self.len[i];
        if len == 0 {
            return None;
        }
        let head = self.head[i];
        let flit = self.slab[self.slot(i, head)];
        let next = head + 1;
        self.head[i] = if next == self.depth { 0 } else { next };
        self.len[i] = len - 1;
        if len == 1 {
            self.nonempty[pi] &= !(1u64 << vc);
        }
        self.buffered -= 1;
        self.port_occ[pi] -= 1;
        Some(flit)
    }

    /// The wormhole binding of VC `(port index, vc)`, if the packet at
    /// its head has been allocated downstream resources.
    #[inline]
    pub(crate) fn binding(&self, pi: usize, vc: usize) -> Option<Binding> {
        (self.bound[pi] & (1u64 << vc) != 0).then(|| self.bindings[self.at(pi, vc)])
    }

    /// The binding of a VC known to be bound (its `bound` bit is set).
    #[inline]
    pub(crate) fn bound_binding(&self, pi: usize, vc: usize) -> Binding {
        debug_assert!(self.bound[pi] & (1u64 << vc) != 0, "VC holds no binding");
        self.bindings[self.at(pi, vc)]
    }

    /// Records a successful VC allocation.
    ///
    /// # Panics
    ///
    /// Panics if the VC already holds a binding.
    #[inline]
    pub(crate) fn bind(&mut self, pi: usize, vc: usize, binding: Binding) {
        let bit = 1u64 << vc;
        assert!(self.bound[pi] & bit == 0, "VC already holds a wormhole binding");
        self.bound[pi] |= bit;
        let i = self.at(pi, vc);
        self.bindings[i] = binding;
    }

    /// Releases the binding of VC `(port index, vc)` (after the tail
    /// flit departs).
    ///
    /// # Panics
    ///
    /// Panics if the VC holds no binding.
    #[inline]
    pub(crate) fn unbind(&mut self, pi: usize, vc: usize) {
        let bit = 1u64 << vc;
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
                let i = self.at(pi, vc);
                let len = self.len[i];
                w.put_u8(len);
                let mut pos = self.head[i];
                for _ in 0..len {
                    checkpoint::put_flit(w, &self.slab[self.slot(i, pos)]);
                    pos += 1;
                    if pos == self.depth {
                        pos = 0;
                    }
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
    /// by the caller). The masks and counters are rebuilt by the same
    /// `push`/`bind` calls the simulation makes, so a checkpoint cannot
    /// carry a desynchronized cache.
    pub(crate) fn decode(r: &mut ByteReader<'_>, vcs: usize, depth: usize) -> Result<Self, CodecError> {
        let mut buffers = InputBuffers::new(vcs, depth);
        for pi in 0..NUM_PORTS {
            for vc in 0..vcs {
                let len = r.get_u8()? as usize;
                if len > depth {
                    return Err(CodecError::Invalid("VC occupancy exceeds depth"));
                }
                for _ in 0..len {
                    buffers.push(pi, vc, checkpoint::get_flit(r)?);
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
    use crate::geometry::NodeId;

    fn flit(seq: u16) -> Flit {
        Flit {
            packet: PacketId(7),
            kind: FlitKind::Body,
            src: NodeId(0),
            dst: NodeId(1),
            seq,
            packet_len: 4,
            class: MessageClass::Synthetic,
            lookahead: Port::East,
            vc: 0,
            created_cycle: 0,
            net_inject_cycle: 0,
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
        let mut back = InputBuffers::decode(&mut r, 3, 3).unwrap();
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
            InputBuffers::decode(&mut ByteReader::new(&bytes), 1, 2),
            Err(CodecError::Invalid(_))
        ));

        let mut w = ByteWriter::new();
        w.put_u8(0);
        w.put_bool(true);
        checkpoint::put_port(&mut w, Port::East);
        w.put_u8(1); // downstream VC 1 of a 1-VC router
        let bytes = w.into_inner();
        assert!(matches!(
            InputBuffers::decode(&mut ByteReader::new(&bytes), 1, 2),
            Err(CodecError::Invalid(_))
        ));
    }
}
