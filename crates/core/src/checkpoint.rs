//! Versioned checkpoint container for [`MultiNoc`] simulations.
//!
//! A checkpoint is a single byte blob:
//!
//! ```text
//! magic "CATNAPCK" | version u32 | config fingerprint u64 | payload | FNV-1a checksum u64
//! ```
//!
//! (see [`catnap_util::codec`] for the container primitives). The
//! payload is the [`MultiNoc`] state followed by a length-prefixed
//! *driver blob* — opaque bytes belonging to whatever drives the
//! simulation (typically a [`catnap_traffic`] workload position; empty
//! for driverless runs). Resuming requires the *same resolved
//! configuration*: the fingerprint over every semantically relevant
//! config field is embedded in the header and checked before any
//! payload byte is parsed.
//!
//! What a checkpoint captures and what it reconstructs is documented in
//! DESIGN.md §13; the determinism suite asserts save→resume is
//! bit-identical to a straight-through run for every golden
//! configuration.

use crate::config::{MultiNocConfig, RegionMode, SelectorKind};
use crate::congestion::CongestionMetric;
use crate::multinoc::MultiNoc;
use catnap_telemetry::{NopSink, Sink, SinkScope};
use catnap_util::codec::{self, ByteReader, ByteWriter, CodecError, Fnv64};

/// Current checkpoint format version. Bump on any layout change — old
/// checkpoints are rejected with
/// [`CodecError::UnsupportedVersion`], never misparsed.
pub const CHECKPOINT_VERSION: u32 = 9;

/// Version of the [`config_fingerprint`] *input schema*: which config
/// fields are hashed, and in what encoding. Bump whenever that set or
/// encoding changes — two builds with different schema versions may
/// assign the same 64-bit key to semantically different configurations,
/// so they must never share a result cache or a worker fleet. The
/// `catnap-serve` `ping` command reports this value and `catnap-hive`
/// refuses workers that disagree with its own.
pub const FINGERPRINT_SCHEMA_VERSION: u32 = 1;

/// Stable fingerprint of a resolved configuration: equal fingerprints
/// guarantee two configs drive bit-identical simulations (every field
/// that influences results is hashed). Used both to guard checkpoint
/// resume and as the basis of result-cache keys.
pub fn config_fingerprint(cfg: &MultiNocConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&cfg.name);
    h.write_u64(cfg.subnets as u64);
    h.write_u32(cfg.subnet_width_bits);
    h.write_u64(cfg.dims.cols as u64);
    h.write_u64(cfg.dims.rows as u64);
    h.write_u64(cfg.vcs as u64);
    h.write_u64(cfg.vc_depth as u64);
    h.write_u32(cfg.gating_cfg.t_wakeup);
    h.write_u32(cfg.gating_cfg.t_breakeven);
    h.write_u32(cfg.gating_cfg.t_idle_detect);
    h.write_str(cfg.gating_policy.name());
    h.write_u32(match cfg.selector {
        SelectorKind::RoundRobin => 0,
        SelectorKind::Random => 1,
        SelectorKind::CatnapPriority => 2,
    });
    match cfg.metric {
        CongestionMetric::Bfm { set, clear } => {
            h.write_u32(0);
            h.write_u64(set as u64);
            h.write_u64(clear as u64);
        }
        CongestionMetric::Bfa { set, clear } => {
            h.write_u32(1);
            h.write_f64(set);
            h.write_f64(clear);
        }
        CongestionMetric::InjectionRate { threshold, window } => {
            h.write_u32(2);
            h.write_f64(threshold);
            h.write_u32(window);
        }
        CongestionMetric::IqOcc { set, clear } => {
            h.write_u32(3);
            h.write_u64(set as u64);
            h.write_u64(clear as u64);
        }
        CongestionMetric::Delay { threshold, window } => {
            h.write_u32(4);
            h.write_f64(threshold);
            h.write_u32(window);
        }
    }
    h.write_u32(u32::from(cfg.use_rcs));
    h.write_u32(cfg.rcs_period);
    h.write_u32(match cfg.region_mode {
        RegionMode::Quadrants => 0,
        RegionMode::Global => 1,
        RegionMode::PerNode => 2,
    });
    h.write_u64(cfg.ni_queue_flits as u64);
    h.write_u32(cfg.spill_wait_cycles);
    h.write_f64(cfg.vdd);
    h.write_f64(cfg.freq_hz);
    h.write_u64(cfg.seed);
    h.finish()
}

impl<S: Sink> MultiNoc<S> {
    /// Serializes the full simulation state into a sealed checkpoint
    /// blob. `driver` is an opaque byte string stored alongside the
    /// network state — callers put their traffic-source position there
    /// (see `SyntheticWorkload::encode_position`) so one blob restarts
    /// the whole simulation; pass `&[]` when there is no driver state.
    ///
    /// Must be called at a cycle edge (after a [`MultiNoc::step`],
    /// before the next cycle's traffic drive). Saving only reads the
    /// simulation, so a run that saves is the run that does not.
    pub fn save_checkpoint(&self, driver: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.save_state(&mut w);
        w.put_bytes(driver);
        codec::seal(CHECKPOINT_VERSION, config_fingerprint(self.config()), &w.into_inner())
    }

    /// Rebuilds a simulation from a checkpoint taken under the same
    /// configuration, attaching fresh telemetry sinks (sink contents are
    /// not checkpointed; the resumed trace covers only the suffix).
    /// Returns the network and the driver blob stored at save time.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the blob is corrupted ([`CodecError::ChecksumMismatch`]),
    /// from a different format version, from a different configuration
    /// ([`CodecError::FingerprintMismatch`]), or internally inconsistent.
    pub fn resume_with_sinks(
        cfg: MultiNocConfig,
        sinks: impl FnMut(SinkScope) -> S,
        bytes: &[u8],
    ) -> Result<(Self, Vec<u8>), CodecError> {
        let fingerprint = config_fingerprint(&cfg);
        let payload = codec::open(bytes, CHECKPOINT_VERSION, fingerprint)?;
        let mut net = MultiNoc::with_sinks(cfg, sinks);
        let mut r = ByteReader::new(payload);
        net.load_state(&mut r)?;
        let driver = r.get_bytes()?.to_vec();
        if !r.is_empty() {
            return Err(CodecError::Invalid("trailing bytes in checkpoint"));
        }
        Ok((net, driver))
    }
}

impl MultiNoc {
    /// [`MultiNoc::resume_with_sinks`] without telemetry (the
    /// [`NopSink`] monomorphization — the common case).
    ///
    /// # Errors
    ///
    /// See [`MultiNoc::resume_with_sinks`].
    pub fn resume_from(cfg: MultiNocConfig, bytes: &[u8]) -> Result<(Self, Vec<u8>), CodecError> {
        MultiNoc::resume_with_sinks(cfg, |_| NopSink, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_covers_material_fields() {
        let base = MultiNocConfig::catnap_4x128().gating(true);
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base.clone()));
        assert_ne!(fp, config_fingerprint(&base.clone().seed(1)));
        assert_ne!(fp, config_fingerprint(&base.clone().rcs_period(7)));
        assert_ne!(fp, config_fingerprint(&base.clone().selector(SelectorKind::RoundRobin)));
        assert_ne!(
            fp,
            config_fingerprint(&MultiNocConfig::catnap_4x128()),
            "gating policy is material"
        );
    }

    #[test]
    fn resume_rejects_wrong_config_corruption_and_version() {
        let cfg = MultiNocConfig::catnap_2x128_64core().gating(true);
        let mut net = MultiNoc::new(cfg.clone());
        for _ in 0..50 {
            net.step();
        }
        let blob = net.save_checkpoint(b"driver-bytes");

        let (resumed, driver) = MultiNoc::resume_from(cfg.clone(), &blob).unwrap();
        assert_eq!(resumed.cycle(), 50);
        assert_eq!(driver, b"driver-bytes");

        // Wrong config: fingerprint mismatch (checksum still valid).
        let other = MultiNocConfig::catnap_2x128_64core().gating(true).seed(99);
        assert!(matches!(
            MultiNoc::resume_from(other, &blob),
            Err(CodecError::FingerprintMismatch { .. })
        ));

        // Any corrupted byte: checksum mismatch.
        let mut bad = blob.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            MultiNoc::resume_from(cfg.clone(), &bad),
            Err(CodecError::ChecksumMismatch)
        ));

        // Future format version with a valid checksum: version error.
        let payload = codec::open(&blob, CHECKPOINT_VERSION, config_fingerprint(&cfg)).unwrap();
        let future = codec::seal(CHECKPOINT_VERSION + 1, config_fingerprint(&cfg), payload);
        assert!(matches!(
            MultiNoc::resume_from(cfg, &future),
            Err(CodecError::UnsupportedVersion { .. })
        ));
    }
}
