//! Binary codec helpers for checkpointing network state.
//!
//! The per-structure `encode`/`decode` functions live next to the
//! structures they serialize (Rust privacy is module-scoped), but the
//! plain-data types with public fields — flits, packet descriptors,
//! port tags — are encoded here so the `catnap` core crate can reuse the
//! exact same byte layout for its own state (NI queues). See DESIGN.md
//! §13 for the container format and for what is stored and what decode
//! rebuilds.

use crate::flit::{Flit, FlitKind, MessageClass, PacketDescriptor, PacketId};
use crate::geometry::{NodeId, Port};
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// Encodes a [`Port`] as its stable index (N=0, E=1, S=2, W=3, L=4).
pub fn put_port(w: &mut ByteWriter, p: Port) {
    w.put_u8(p.index() as u8);
}

/// Decodes a [`Port`] tag.
///
/// # Errors
///
/// [`CodecError::Invalid`] on a tag outside `0..5`.
pub fn get_port(r: &mut ByteReader<'_>) -> Result<Port, CodecError> {
    let tag = r.get_u8()?;
    if tag as usize >= crate::geometry::NUM_PORTS {
        return Err(CodecError::Invalid("port tag"));
    }
    Ok(Port::from_index(tag as usize))
}

/// Encodes a [`FlitKind`] tag.
pub fn put_flit_kind(w: &mut ByteWriter, k: FlitKind) {
    w.put_u8(match k {
        FlitKind::Head => 0,
        FlitKind::Body => 1,
        FlitKind::Tail => 2,
        FlitKind::Single => 3,
    });
}

/// Decodes a [`FlitKind`] tag.
///
/// # Errors
///
/// [`CodecError::Invalid`] on an unknown tag.
pub fn get_flit_kind(r: &mut ByteReader<'_>) -> Result<FlitKind, CodecError> {
    Ok(match r.get_u8()? {
        0 => FlitKind::Head,
        1 => FlitKind::Body,
        2 => FlitKind::Tail,
        3 => FlitKind::Single,
        _ => return Err(CodecError::Invalid("flit kind tag")),
    })
}

/// Encodes a [`MessageClass`] tag.
pub fn put_message_class(w: &mut ByteWriter, c: MessageClass) {
    w.put_u8(match c {
        MessageClass::Request => 0,
        MessageClass::Forward => 1,
        MessageClass::Response => 2,
        MessageClass::Synthetic => 3,
    });
}

/// Decodes a [`MessageClass`] tag.
///
/// # Errors
///
/// [`CodecError::Invalid`] on an unknown tag.
pub fn get_message_class(r: &mut ByteReader<'_>) -> Result<MessageClass, CodecError> {
    Ok(match r.get_u8()? {
        0 => MessageClass::Request,
        1 => MessageClass::Forward,
        2 => MessageClass::Response,
        3 => MessageClass::Synthetic,
        _ => return Err(CodecError::Invalid("message class tag")),
    })
}

/// Encodes a [`Flit`], bit-exact except for its look-ahead, which is
/// the X-Y route at the router holding the flit and is recomputed on
/// decode.
pub fn put_flit(w: &mut ByteWriter, f: &Flit) {
    w.put_u64(f.packet.0);
    put_flit_kind(w, f.kind);
    w.put_u16(f.dst.0);
    w.put_u16(f.seq);
    put_message_class(w, f.class);
    w.put_u8(f.vc);
}

/// Decodes a [`Flit`] of a network with `nodes` routers and `vcs` VCs
/// per port. `route` maps the flit's destination to its look-ahead:
/// the X-Y route at the router holding the flit, or [`Port::Local`] for
/// a flit that has reached its destination.
///
/// # Errors
///
/// Propagates reader errors and bad tags; [`CodecError::Invalid`] on a
/// destination outside the mesh or a VC at or past `vcs` (either would
/// index routing tables or buffers out of range).
pub fn get_flit(
    r: &mut ByteReader<'_>,
    nodes: usize,
    vcs: usize,
    route: impl FnOnce(NodeId) -> Port,
) -> Result<Flit, CodecError> {
    let mut flit = Flit {
        packet: PacketId(r.get_u64()?),
        kind: get_flit_kind(r)?,
        dst: NodeId(r.get_u16()?),
        seq: r.get_u16()?,
        class: get_message_class(r)?,
        lookahead: Port::Local,
        vc: r.get_u8()?,
    };
    check_nodes(&[flit.dst], nodes)?;
    if flit.vc as usize >= vcs {
        return Err(CodecError::Invalid("flit VC out of range"));
    }
    flit.lookahead = route(flit.dst);
    Ok(flit)
}

/// Rejects a node outside a mesh of `nodes` routers.
fn check_nodes(ids: &[NodeId], nodes: usize) -> Result<(), CodecError> {
    if ids.iter().any(|id| id.index() >= nodes) {
        return Err(CodecError::Invalid("node id outside the mesh"));
    }
    Ok(())
}

/// Encodes a [`PacketDescriptor`].
pub fn put_packet_descriptor(w: &mut ByteWriter, d: &PacketDescriptor) {
    w.put_u64(d.id.0);
    w.put_u16(d.src.0);
    w.put_u16(d.dst.0);
    w.put_u32(d.bits);
    put_message_class(w, d.class);
    w.put_u64(d.created_cycle);
}

/// Decodes a [`PacketDescriptor`] of a network with `nodes` routers.
///
/// # Errors
///
/// Propagates reader errors and bad tags; [`CodecError::Invalid`] on a
/// source or destination outside the mesh.
pub fn get_packet_descriptor(r: &mut ByteReader<'_>, nodes: usize) -> Result<PacketDescriptor, CodecError> {
    let desc = PacketDescriptor {
        id: PacketId(r.get_u64()?),
        src: NodeId(r.get_u16()?),
        dst: NodeId(r.get_u16()?),
        bits: r.get_u32()?,
        class: get_message_class(r)?,
        created_cycle: r.get_u64()?,
    };
    check_nodes(&[desc.src, desc.dst], nodes)?;
    Ok(desc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_round_trips_bit_exact() {
        let f = Flit {
            packet: PacketId(0xDEAD_BEEF),
            kind: FlitKind::Tail,
            dst: NodeId(60),
            seq: 3,
            class: MessageClass::Response,
            lookahead: Port::West,
            vc: 2,
        };
        let mut w = ByteWriter::new();
        put_flit(&mut w, &f);
        let bytes = w.into_inner();
        let mut r = ByteReader::new(&bytes);
        // The look-ahead is not in the bytes: the caller's route gives it.
        let route = |dst: NodeId| if dst == NodeId(60) { Port::West } else { Port::Local };
        assert_eq!(get_flit(&mut r, 64, 4, route).unwrap(), f);
        assert!(r.is_empty());
        // The same bytes name a node and a VC outside a smaller network.
        assert_eq!(
            get_flit(&mut ByteReader::new(&bytes), 60, 4, route),
            Err(CodecError::Invalid("node id outside the mesh"))
        );
        assert_eq!(
            get_flit(&mut ByteReader::new(&bytes), 64, 2, route),
            Err(CodecError::Invalid("flit VC out of range"))
        );
    }

    #[test]
    fn enum_tags_cover_all_variants() {
        for p in Port::ALL {
            let mut w = ByteWriter::new();
            put_port(&mut w, p);
            let bytes = w.into_inner();
            assert_eq!(get_port(&mut ByteReader::new(&bytes)).unwrap(), p);
        }
        for c in MessageClass::ALL {
            let mut w = ByteWriter::new();
            put_message_class(&mut w, c);
            let bytes = w.into_inner();
            assert_eq!(get_message_class(&mut ByteReader::new(&bytes)).unwrap(), c);
        }
        for k in [FlitKind::Head, FlitKind::Body, FlitKind::Tail, FlitKind::Single] {
            let mut w = ByteWriter::new();
            put_flit_kind(&mut w, k);
            let bytes = w.into_inner();
            assert_eq!(get_flit_kind(&mut ByteReader::new(&bytes)).unwrap(), k);
        }
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(
            get_port(&mut ByteReader::new(&[5])),
            Err(CodecError::Invalid("port tag"))
        );
        assert_eq!(
            get_flit_kind(&mut ByteReader::new(&[9])),
            Err(CodecError::Invalid("flit kind tag"))
        );
        assert_eq!(
            get_message_class(&mut ByteReader::new(&[4])),
            Err(CodecError::Invalid("message class tag"))
        );
    }
}
