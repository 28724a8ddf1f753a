//! Packet-trace recording and replay.
//!
//! The paper's methodology is trace-driven (Pin-collected application
//! traces fed to a cycle-level backend). This module provides the
//! equivalent plumbing for our synthetic workloads: any generated packet
//! stream can be recorded to a JSON-lines trace and replayed
//! deterministically, which also makes cross-configuration comparisons
//! use *identical* input streams.

use crate::generator::PacketSink;
use catnap_noc::{MessageClass, NodeId, PacketDescriptor, PacketId};
use catnap_util::json::{FromJson, Json, JsonError, ToJson};
use std::io::{BufRead, Write};

/// One trace record (a packet creation event).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Creation cycle.
    pub cycle: u64,
    /// Source node index.
    pub src: u16,
    /// Destination node index.
    pub dst: u16,
    /// Packet size in bits.
    pub bits: u32,
    /// Message class.
    pub class: MessageClass,
}

impl TraceRecord {
    /// Builds a record from a packet descriptor.
    pub fn from_descriptor(d: &PacketDescriptor) -> Self {
        TraceRecord {
            cycle: d.created_cycle,
            src: d.src.0,
            dst: d.dst.0,
            bits: d.bits,
            class: d.class,
        }
    }

    /// Reconstructs a descriptor (packet ids are assigned by the player).
    pub fn to_descriptor(self, id: PacketId) -> PacketDescriptor {
        PacketDescriptor {
            id,
            src: NodeId(self.src),
            dst: NodeId(self.dst),
            bits: self.bits,
            class: self.class,
            created_cycle: self.cycle,
        }
    }
}

/// Stable string form of a message class for the trace format.
fn class_name(class: MessageClass) -> &'static str {
    match class {
        MessageClass::Request => "Request",
        MessageClass::Forward => "Forward",
        MessageClass::Response => "Response",
        MessageClass::Synthetic => "Synthetic",
    }
}

fn class_from_name(name: &str) -> Result<MessageClass, JsonError> {
    MessageClass::ALL
        .into_iter()
        .find(|&c| class_name(c) == name)
        .ok_or_else(|| JsonError {
            msg: format!("unknown message class '{name}'"),
        })
}

impl ToJson for TraceRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycle".to_string(), self.cycle.to_json()),
            ("src".to_string(), self.src.to_json()),
            ("dst".to_string(), self.dst.to_json()),
            ("bits".to_string(), self.bits.to_json()),
            ("class".to_string(), Json::Str(class_name(self.class).to_string())),
        ])
    }
}

impl FromJson for TraceRecord {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let field = |name: &str| {
            j.get(name).ok_or_else(|| JsonError {
                msg: format!("missing field '{name}'"),
            })
        };
        Ok(TraceRecord {
            cycle: u64::from_json(field("cycle")?)?,
            src: u16::from_json(field("src")?)?,
            dst: u16::from_json(field("dst")?)?,
            bits: u32::from_json(field("bits")?)?,
            class: class_from_name(String::from_json(field("class")?)?.as_str())?,
        })
    }
}

/// Serializes records as JSON lines.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_trace<W: Write>(mut w: W, records: &[TraceRecord]) -> std::io::Result<()> {
    for r in records {
        writeln!(w, "{}", r.to_json().to_compact_string())?;
    }
    Ok(())
}

/// Reads a JSON-lines trace. Records must be sorted by cycle for replay.
///
/// # Errors
///
/// Returns any I/O or parse error.
pub fn read_trace<R: BufRead>(r: R) -> std::io::Result<Vec<TraceRecord>> {
    let mut out = Vec::new();
    for line in r.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(&line).map_err(std::io::Error::other)?;
        out.push(TraceRecord::from_json(&value).map_err(std::io::Error::other)?);
    }
    Ok(out)
}

/// Replays a recorded trace into a [`PacketSink`], cycle by cycle.
#[derive(Clone, Debug)]
pub struct TracePlayer {
    records: Vec<TraceRecord>,
    pos: usize,
    next_id: u64,
}

impl TracePlayer {
    /// Creates a player over records sorted by cycle.
    ///
    /// # Panics
    ///
    /// Panics if records are not sorted by cycle.
    pub fn new(records: Vec<TraceRecord>) -> Self {
        assert!(
            records.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "trace records must be sorted by cycle"
        );
        TracePlayer {
            records,
            pos: 0,
            next_id: 0,
        }
    }

    /// Whether all records have been replayed.
    pub fn is_done(&self) -> bool {
        self.pos >= self.records.len()
    }

    /// Submits all packets created at the sink's current cycle.
    pub fn drive<S: PacketSink>(&mut self, sink: &mut S) {
        let cycle = sink.now();
        while self.pos < self.records.len() && self.records[self.pos].cycle <= cycle {
            let rec = self.records[self.pos];
            self.pos += 1;
            let desc = rec.to_descriptor(PacketId(self.next_id));
            self.next_id += 1;
            sink.submit(desc);
        }
    }
}

/// A [`PacketSink`] adapter that records everything passing through it
/// while forwarding to an inner sink.
#[derive(Debug)]
pub struct RecordingSink<'a, S> {
    inner: &'a mut S,
    /// Records captured so far.
    pub records: Vec<TraceRecord>,
}

impl<'a, S: PacketSink> RecordingSink<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut S) -> Self {
        RecordingSink {
            inner,
            records: Vec::new(),
        }
    }
}

impl<S: PacketSink> PacketSink for RecordingSink<'_, S> {
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn submit(&mut self, desc: PacketDescriptor) {
        self.records.push(TraceRecord::from_descriptor(&desc));
        self.inner.submit(desc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CollectSink, SyntheticWorkload};
    use crate::patterns::SyntheticPattern;
    use catnap_noc::MeshDims;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                cycle: 0,
                src: 1,
                dst: 9,
                bits: 512,
                class: MessageClass::Synthetic,
            },
            TraceRecord {
                cycle: 0,
                src: 2,
                dst: 8,
                bits: 72,
                class: MessageClass::Request,
            },
            TraceRecord {
                cycle: 5,
                src: 3,
                dst: 7,
                bits: 584,
                class: MessageClass::Response,
            },
        ]
    }

    #[test]
    fn roundtrip_through_json_lines() {
        let records = sample_records();
        let mut buf = Vec::new();
        write_trace(&mut buf, &records).unwrap();
        let back = read_trace(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn player_replays_at_correct_cycles() {
        let mut player = TracePlayer::new(sample_records());
        let mut sink = CollectSink::default();
        player.drive(&mut sink);
        assert_eq!(sink.packets.len(), 2);
        sink.cycle = 4;
        player.drive(&mut sink);
        assert_eq!(sink.packets.len(), 2);
        sink.cycle = 5;
        player.drive(&mut sink);
        assert_eq!(sink.packets.len(), 3);
        assert!(player.is_done());
        // Ids are unique and ascending.
        assert_eq!(sink.packets[0].id.0, 0);
        assert_eq!(sink.packets[2].id.0, 2);
    }

    #[test]
    #[should_panic]
    fn unsorted_trace_panics() {
        let mut records = sample_records();
        records.swap(0, 2);
        TracePlayer::new(records);
    }

    #[test]
    fn recording_sink_captures_generated_stream() {
        let mut inner = CollectSink::default();
        let mut rec = RecordingSink::new(&mut inner);
        let mut w = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.3, 512, MeshDims::new(4, 4), 21);
        for c in 0..20 {
            rec.inner.cycle = c;
            w.drive(&mut rec);
        }
        let n = rec.records.len();
        assert!(n > 0);
        assert_eq!(n, inner.packets.len());
        // Replaying the recording reproduces the same stream.
        let mut player = TracePlayer::new(inner.packets.iter().map(TraceRecord::from_descriptor).collect());
        let mut replay = CollectSink::default();
        for c in 0..20 {
            replay.cycle = c;
            player.drive(&mut replay);
        }
        assert_eq!(replay.packets.len(), n);
        for (a, b) in replay.packets.iter().zip(inner.packets.iter()) {
            assert_eq!(
                (a.src, a.dst, a.bits, a.created_cycle),
                (b.src, b.dst, b.bits, b.created_cycle)
            );
        }
    }
}
