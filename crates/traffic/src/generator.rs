//! Open-loop synthetic traffic generation.

use crate::patterns::SyntheticPattern;
use crate::schedule::LoadSchedule;
use catnap_noc::{MeshDims, MessageClass, PacketDescriptor, PacketId};
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};
use catnap_util::SimRng;

/// Anything that can accept generated packets: the Multi-NoC network
/// interface layer implements this.
pub trait PacketSink {
    /// Current simulation cycle (new packets are stamped with it).
    fn now(&self) -> u64;
    /// Submits a packet to the source queue of `desc.src`.
    fn submit(&mut self, desc: PacketDescriptor);
}

/// A [`PacketSink`] that just collects packets (for tests and trace
/// recording).
#[derive(Clone, Debug, Default)]
pub struct CollectSink {
    /// Collected packets.
    pub packets: Vec<PacketDescriptor>,
    /// The cycle reported to generators.
    pub cycle: u64,
}

impl PacketSink for CollectSink {
    fn now(&self) -> u64 {
        self.cycle
    }
    fn submit(&mut self, desc: PacketDescriptor) {
        self.packets.push(desc);
    }
}

/// Bernoulli per-node packet injectors following a destination pattern and
/// a (possibly time-varying) offered-load schedule.
///
/// Each node independently generates a packet with probability equal to
/// the scheduled rate each cycle, so `rate` is the offered load in packets
/// per node per cycle. The paper uses 512-bit packets for synthetic
/// workloads (Section 4.1).
#[derive(Clone, Debug)]
pub struct SyntheticWorkload {
    pattern: SyntheticPattern,
    schedule: LoadSchedule,
    packet_bits: u32,
    dims: MeshDims,
    rng: SimRng,
    /// Id of the next packet, which is also the number generated so far.
    next_id: u64,
}

impl SyntheticWorkload {
    /// Creates a workload with a constant offered load.
    pub fn new(pattern: SyntheticPattern, rate: f64, packet_bits: u32, dims: MeshDims, seed: u64) -> Self {
        SyntheticWorkload::with_schedule(pattern, LoadSchedule::constant(rate), packet_bits, dims, seed)
    }

    /// Creates a workload with a time-varying offered load.
    pub fn with_schedule(
        pattern: SyntheticPattern,
        schedule: LoadSchedule,
        packet_bits: u32,
        dims: MeshDims,
        seed: u64,
    ) -> Self {
        assert!(packet_bits > 0, "packet size must be non-zero");
        SyntheticWorkload {
            pattern,
            schedule,
            packet_bits,
            dims,
            rng: SimRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// The destination pattern.
    pub fn pattern(&self) -> SyntheticPattern {
        self.pattern
    }

    /// Packets generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Generates this cycle's packets into `sink` (call once per cycle,
    /// before stepping the network). Each node takes one Bernoulli draw
    /// and, on success, its destination draws, in node order; the
    /// determinism goldens pin that RNG order.
    pub fn drive<S: PacketSink>(&mut self, sink: &mut S) {
        let cycle = sink.now();
        let rate = self.schedule.rate_at(cycle);
        if rate <= 0.0 {
            return;
        }
        for src in self.dims.nodes() {
            if self.rng.gen::<f64>() >= rate {
                continue;
            }
            let Some(dst) = self.pattern.destination(src, self.dims, &mut self.rng) else {
                continue;
            };
            let desc = PacketDescriptor {
                id: PacketId(self.next_id),
                src,
                dst,
                bits: self.packet_bits,
                class: MessageClass::Synthetic,
                created_cycle: cycle,
            };
            self.next_id += 1;
            sink.submit(desc);
        }
    }

    /// Serializes the workload's *position* — RNG stream and id
    /// counter — as an opaque blob for checkpointing (typically stored
    /// inside a `catnap` checkpoint, next to the network state). The
    /// workload *parameters* (pattern, schedule, packet size, mesh) are
    /// part of the job description and are not serialized; see
    /// [`SyntheticWorkload::decode_position`].
    pub fn encode_position(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_u64(self.next_id);
        w.into_inner()
    }

    /// Rebuilds a workload at a position saved by
    /// [`SyntheticWorkload::encode_position`]. The caller supplies the
    /// workload parameters; they may legitimately differ from the saving
    /// run *after* the saved cycle — that is what lets one warm-up
    /// checkpoint serve a whole sweep of measurement schedules agreeing
    /// on the warm prefix.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a truncated blob or one with trailing bytes.
    pub fn decode_position(
        pattern: SyntheticPattern,
        schedule: LoadSchedule,
        packet_bits: u32,
        dims: MeshDims,
        bytes: &[u8],
    ) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let mut state = [0u64; 4];
        for word in state.iter_mut() {
            *word = r.get_u64()?;
        }
        let mut w = SyntheticWorkload::with_schedule(pattern, schedule, packet_bits, dims, 0);
        w.rng = SimRng::from_state(state);
        w.next_id = r.get_u64()?;
        if !r.is_empty() {
            return Err(CodecError::Invalid("trailing bytes in workload position"));
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh8() -> MeshDims {
        MeshDims::new(8, 8)
    }

    #[test]
    fn generation_rate_close_to_offered() {
        let mut w = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.1, 512, mesh8(), 11);
        let mut sink = CollectSink::default();
        let cycles = 5000;
        for c in 0..cycles {
            sink.cycle = c;
            w.drive(&mut sink);
        }
        let rate = sink.packets.len() as f64 / (cycles as f64 * 64.0);
        assert!((rate - 0.1).abs() < 0.01, "measured rate {rate}");
        assert_eq!(w.generated() as usize, sink.packets.len());
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut w = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.2, 512, mesh8(), seed);
            let mut sink = CollectSink::default();
            for c in 0..100 {
                sink.cycle = c;
                w.drive(&mut sink);
            }
            sink.packets
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn packets_carry_creation_cycle() {
        let mut w = SyntheticWorkload::new(SyntheticPattern::BitComplement, 1.0, 512, mesh8(), 3);
        let mut sink = CollectSink {
            cycle: 77,
            ..Default::default()
        };
        w.drive(&mut sink);
        assert!(!sink.packets.is_empty());
        assert!(sink.packets.iter().all(|p| p.created_cycle == 77));
        assert!(sink.packets.iter().all(|p| p.src != p.dst));
    }

    #[test]
    fn schedule_controls_rate_over_time() {
        let sched = LoadSchedule::piecewise(vec![(0, 0.0), (100, 0.5)]);
        let mut w = SyntheticWorkload::with_schedule(SyntheticPattern::UniformRandom, sched, 512, mesh8(), 9);
        let mut sink = CollectSink::default();
        for c in 0..100 {
            sink.cycle = c;
            w.drive(&mut sink);
        }
        assert_eq!(sink.packets.len(), 0, "no packets while rate is zero");
        for c in 100..200 {
            sink.cycle = c;
            w.drive(&mut sink);
        }
        assert!(sink.packets.len() > 2000, "burst should generate ~3200 packets");
    }

    /// Drives `w` over `cycles` into a fresh sink.
    fn drive_range(w: &mut SyntheticWorkload, cycles: std::ops::Range<u64>) -> Vec<PacketDescriptor> {
        let mut sink = CollectSink::default();
        for c in cycles {
            sink.cycle = c;
            w.drive(&mut sink);
        }
        sink.packets
    }

    fn decode(bytes: &[u8]) -> Result<SyntheticWorkload, CodecError> {
        SyntheticWorkload::decode_position(
            SyntheticPattern::UniformRandom,
            LoadSchedule::constant(0.05),
            512,
            mesh8(),
            bytes,
        )
    }

    #[test]
    fn position_round_trip_mid_run_is_bit_identical() {
        let mut w = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.05, 512, mesh8(), 42);
        assert!(!drive_range(&mut w, 0..200).is_empty());
        let mut restored = decode(&w.encode_position()).unwrap();
        assert_eq!(drive_range(&mut restored, 200..600), drive_range(&mut w, 200..600));
        assert_eq!(w.generated(), restored.generated());
    }

    #[test]
    fn position_rejects_truncated_blob() {
        let mut w = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.05, 512, mesh8(), 42);
        drive_range(&mut w, 0..50);
        let blob = w.encode_position();
        for len in 0..blob.len() {
            assert_eq!(
                decode(&blob[..len]).err(),
                Some(CodecError::UnexpectedEof),
                "{len}-byte prefix"
            );
        }
    }

    #[test]
    fn position_rejects_trailing_bytes() {
        let mut w = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.05, 512, mesh8(), 42);
        drive_range(&mut w, 0..50);
        for extra in [&[0u8][..], &[0xff; 9]] {
            let mut blob = w.encode_position();
            blob.extend_from_slice(extra);
            assert_eq!(
                decode(&blob).err(),
                Some(CodecError::Invalid("trailing bytes in workload position"))
            );
        }
    }

    #[test]
    fn ids_unique() {
        let mut w = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.5, 512, mesh8(), 1);
        let mut sink = CollectSink::default();
        for c in 0..50 {
            sink.cycle = c;
            w.drive(&mut sink);
        }
        let mut ids: Vec<u64> = sink.packets.iter().map(|p| p.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), sink.packets.len());
    }
}
