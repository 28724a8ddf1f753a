//! Packets and flits: the units of data transfer in the network.
//!
//! A packet of `B` bits travelling on a subnet with datapath width `W`
//! is serialized into `ceil(B / W)` flits. All flits of a packet travel on
//! the same subnet and, per wormhole switching, follow the head flit's
//! path, holding one virtual channel per router until the tail passes.

use crate::geometry::{NodeId, Port};
use std::fmt;

/// Globally unique packet identifier (unique per simulation).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Coherence-protocol message class of a packet.
///
/// The paper maps dependent message classes to disjoint virtual channels to
/// guarantee protocol-level deadlock freedom (Section 2.3). Synthetic
/// traffic uses [`MessageClass::Synthetic`], which may use any VC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MessageClass {
    /// Coherence request (GetS/GetM/upgrade); 1-flit control packets.
    Request,
    /// Directory-forwarded request or invalidation; 1-flit control packets.
    Forward,
    /// Data or acknowledgement response; carries a cache block.
    Response,
    /// Synthetic benchmark traffic (no protocol deadlock concerns).
    #[default]
    Synthetic,
}

impl MessageClass {
    /// All classes.
    pub const ALL: [MessageClass; 4] = [
        MessageClass::Request,
        MessageClass::Forward,
        MessageClass::Response,
        MessageClass::Synthetic,
    ];

    /// Bitmask of virtual channels this class may use, given `vcs` VCs per
    /// port.
    ///
    /// With four VCs (the paper's configuration) the mapping is: requests on
    /// VC 0, forwards on VC 1, responses on VCs 2-3, synthetic traffic on
    /// any VC. With fewer VCs the classes share conservatively while keeping
    /// request/response disjoint (the property required for deadlock
    /// freedom in a MESI directory protocol).
    ///
    /// # Panics
    ///
    /// Panics if `vcs == 0` or `vcs > 64`.
    pub fn vc_mask(self, vcs: usize) -> u64 {
        assert!(vcs > 0 && vcs <= 64, "vcs must be in 1..=64");
        let all: u64 = if vcs == 64 { u64::MAX } else { (1u64 << vcs) - 1 };
        if vcs == 1 {
            return all;
        }
        match self {
            MessageClass::Synthetic => all,
            MessageClass::Request => 1,
            MessageClass::Forward => {
                if vcs >= 3 {
                    0b10
                } else {
                    0b01
                }
            }
            MessageClass::Response => {
                if vcs >= 3 {
                    // All remaining higher VCs.
                    all & !0b11
                } else {
                    0b10
                }
            }
        }
    }
}

/// Position of a flit within its packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing information.
    Head,
    /// Interior flit.
    Body,
    /// Last flit of a multi-flit packet; releases the wormhole.
    Tail,
    /// The only flit of a single-flit packet (head and tail at once).
    Single,
}

impl FlitKind {
    /// Whether this flit opens a wormhole (carries routing info).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// Whether this flit closes the wormhole.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }
}

/// A flow-control unit traversing the network: 16 bytes, what routers
/// and links read. When a packet was created and when its head entered
/// the network are kept once per packet, by the subnet it travels on
/// (see [`crate::Network::try_inject_flit`]), and handed out with its
/// tail as a [`Delivery`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Head/body/tail position.
    pub kind: FlitKind,
    /// Destination node.
    pub dst: NodeId,
    /// Index of this flit within the packet (0 = head).
    pub seq: u16,
    /// Message class (controls the VC mask).
    pub class: MessageClass,
    /// Output port to take at the router currently buffering this flit.
    ///
    /// Maintained by look-ahead routing: when a flit leaves a router, the
    /// *next* router's output port is computed and stored here, so routing
    /// computation is off the critical path (Galles, Hot Interconnects '96).
    pub lookahead: Port,
    /// Virtual channel this flit travels on (assigned per-hop by the
    /// upstream router's VC allocation).
    pub vc: u8,
}

/// A packet delivered to its destination: its tail flit, which ejected
/// at `tail.dst`, and the cycle the packet was created at its source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delivery {
    /// The packet's last flit.
    pub tail: Flit,
    /// Cycle at which the packet was created at the source (for
    /// end-to-end latency, including source queueing).
    pub created_cycle: u64,
}

impl Flit {
    /// An inert filler flit that initializes the router buffer slab.
    /// Never enters the network: a slot is only read while it is inside
    /// its VC's live `head..head+len` window, which a push fills first.
    pub const PLACEHOLDER: Flit = Flit {
        packet: PacketId(u64::MAX),
        kind: FlitKind::Single,
        dst: NodeId(0),
        seq: 0,
        class: MessageClass::Synthetic,
        lookahead: Port::Local,
        vc: 0,
    };

    /// Number of flits needed to carry `packet_bits` over a `width_bits`
    /// datapath (at least one).
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is zero.
    pub fn flits_for_bits(packet_bits: u32, width_bits: u32) -> u16 {
        assert!(width_bits > 0, "link width must be non-zero");
        packet_bits.div_ceil(width_bits).max(1) as u16
    }

    /// Whether this flit may come right behind `prev` in one VC's
    /// stream (wormhole order): a tail is followed by a head, any other
    /// flit by the next flit of its packet.
    pub fn follows(&self, prev: &Flit) -> bool {
        if prev.kind.is_tail() {
            return self.kind.is_head();
        }
        !self.kind.is_head()
            && self.packet == prev.packet
            && self.dst == prev.dst
            && u32::from(self.seq) == u32::from(prev.seq) + 1
    }
}

/// Descriptor of a packet awaiting injection (the NI-side representation:
/// flits are materialized lazily as they enter the network).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacketDescriptor {
    /// Unique packet id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload plus header size in bits (serialized into flits per subnet
    /// width).
    pub bits: u32,
    /// Message class.
    pub class: MessageClass,
    /// Cycle the packet was created at its source.
    pub created_cycle: u64,
}

impl PacketDescriptor {
    /// Number of flits this packet occupies on a subnet of the given width.
    pub fn len_flits(&self, width_bits: u32) -> u16 {
        Flit::flits_for_bits(self.bits, width_bits)
    }

    /// Materializes flit `seq` of this packet for a subnet of the given
    /// width. `lookahead` must be the output port at the first router.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range for the packet length.
    pub fn flit(&self, seq: u16, width_bits: u32, lookahead: Port) -> Flit {
        let len = self.len_flits(width_bits);
        assert!(seq < len, "flit seq {seq} out of range for packet of {len} flits");
        let kind = match (seq, len) {
            (0, 1) => FlitKind::Single,
            (0, _) => FlitKind::Head,
            (s, l) if s + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        Flit {
            packet: self.id,
            kind,
            dst: self.dst,
            seq,
            class: self.class,
            lookahead,
            vc: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_count_rounds_up() {
        assert_eq!(Flit::flits_for_bits(512, 512), 1);
        assert_eq!(Flit::flits_for_bits(512, 128), 4);
        assert_eq!(Flit::flits_for_bits(512, 64), 8);
        assert_eq!(Flit::flits_for_bits(584, 128), 5);
        assert_eq!(Flit::flits_for_bits(72, 512), 1);
        assert_eq!(Flit::flits_for_bits(0, 128), 1, "zero-size packets still take one flit");
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        Flit::flits_for_bits(512, 0);
    }

    #[test]
    fn kinds_for_multi_flit_packet() {
        let d = PacketDescriptor {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(5),
            bits: 512,
            class: MessageClass::Synthetic,
            created_cycle: 0,
        };
        let kinds: Vec<FlitKind> = (0..4).map(|s| d.flit(s, 128, Port::East).kind).collect();
        assert_eq!(
            kinds,
            vec![FlitKind::Head, FlitKind::Body, FlitKind::Body, FlitKind::Tail]
        );
    }

    #[test]
    fn kind_for_single_flit_packet() {
        let d = PacketDescriptor {
            id: PacketId(2),
            src: NodeId(0),
            dst: NodeId(5),
            bits: 72,
            class: MessageClass::Request,
            created_cycle: 10,
        };
        let f = d.flit(0, 512, Port::Local);
        assert_eq!(f.kind, FlitKind::Single);
        assert!(f.kind.is_head() && f.kind.is_tail());
        assert_eq!((f.packet, f.dst, f.class), (d.id, d.dst, d.class));
    }

    /// Routers, links and ejection lists move flits by value, so the
    /// flit stays at 16 bytes: packet id, destination, sequence number,
    /// kind, class, look-ahead and VC.
    #[test]
    fn a_flit_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Flit>(), 16);
    }

    #[test]
    fn vc_masks_disjoint_for_protocol_classes() {
        for vcs in [2usize, 3, 4, 8] {
            let req = MessageClass::Request.vc_mask(vcs);
            let rsp = MessageClass::Response.vc_mask(vcs);
            assert_eq!(req & rsp, 0, "request/response VCs must be disjoint at {vcs} VCs");
            assert_ne!(req, 0);
            assert_ne!(rsp, 0);
            assert_ne!(MessageClass::Forward.vc_mask(vcs), 0);
        }
    }

    #[test]
    fn synthetic_uses_all_vcs() {
        assert_eq!(MessageClass::Synthetic.vc_mask(4), 0b1111);
        assert_eq!(MessageClass::Synthetic.vc_mask(1), 0b1);
    }

    #[test]
    fn forward_disjoint_from_response_with_three_plus_vcs() {
        for vcs in [3usize, 4, 6] {
            let fwd = MessageClass::Forward.vc_mask(vcs);
            let rsp = MessageClass::Response.vc_mask(vcs);
            assert_eq!(fwd & rsp, 0);
        }
    }
}
