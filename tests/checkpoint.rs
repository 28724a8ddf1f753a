//! Checkpoint/resume round-trips for every determinism golden.
//!
//! For each pinned `(selector, gating)` golden from `tests/determinism.rs`
//! the run is split at cycle 750 of 1500: the full simulator state plus
//! the workload position is sealed into a checkpoint blob, a fresh
//! simulator is rebuilt from the blob, and both halves are driven to the
//! end. The resumed run must be **bit-identical** to the straight-through
//! run — same golden fingerprint tuple, same full [`Snapshot`], and (with
//! recording sinks attached) a telemetry trace whose concatenation with
//! the pre-checkpoint prefix reproduces the straight-through trace event
//! for event. Malformed blobs must be rejected, never misparsed.
//!
//! [`Snapshot`]: catnap_repro::catnap::Snapshot

use catnap_repro::catnap::{config_fingerprint, MultiNoc, MultiNocConfig, SelectorKind, CHECKPOINT_VERSION};
use catnap_repro::telemetry::RecordingSink;
use catnap_repro::traffic::{LoadSchedule, SyntheticPattern, SyntheticWorkload};
use catnap_repro::util::codec::{self, CodecError};

/// The six pinned goldens from `tests/determinism.rs`. Kept in sync by
/// hand: if a legitimate change re-pins the determinism goldens, this
/// table must be updated with the same tuples.
const PINNED: [(SelectorKind, bool, (u64, u64, u64)); 6] = [
    (SelectorKind::RoundRobin, true, (7416, 290007, 325)),
    (SelectorKind::RoundRobin, false, (7502, 167583, 0)),
    (SelectorKind::Random, true, (7430, 288557, 331)),
    (SelectorKind::Random, false, (7504, 168413, 0)),
    (SelectorKind::CatnapPriority, true, (7443, 248092, 222)),
    (SelectorKind::CatnapPriority, false, (7447, 225011, 99)),
];

const TOTAL_CYCLES: u64 = 1_500;
const SPLIT_CYCLE: u64 = 750;

fn golden_cfg(selector: SelectorKind, gating: bool) -> MultiNocConfig {
    MultiNocConfig::catnap_4x128().selector(selector).gating(gating).seed(7)
}

fn golden_load<S: catnap_repro::telemetry::Sink>(net: &MultiNoc<S>) -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.08, 512, net.dims(), 7)
}

/// Save → resume at `SPLIT_CYCLE` must reproduce the straight-through
/// run exactly, for every golden: the pinned fingerprint tuple, the
/// complete cumulative `Snapshot` (per-subnet flit counts included), and
/// every subnet's event-scheduler counters.
#[test]
fn resume_is_bit_identical_to_straight_through_for_every_golden() {
    for (selector, gating, want) in PINNED {
        let cfg = golden_cfg(selector, gating);

        // Straight-through run, checkpointing (but not using the blob)
        // at the split so both runs share one code path up to it.
        let mut net = MultiNoc::new(cfg.clone());
        let mut load = golden_load(&net);
        for _ in 0..SPLIT_CYCLE {
            load.drive(&mut net);
            net.step();
        }
        let blob = net.save_checkpoint(&load.encode_position());
        for _ in SPLIT_CYCLE..TOTAL_CYCLES {
            load.drive(&mut net);
            net.step();
        }
        let straight_snap = net.snapshot();
        let straight_sched: Vec<_> = (0..net.num_subnets()).map(|s| net.subnet(s).sched_stats()).collect();
        let straight = (
            net.finish().packets_delivered,
            straight_snap.latency_sum,
            straight_snap.or_switch_events,
        );

        // Resumed run: fresh simulator and workload rebuilt from the blob.
        let (mut resumed, driver) = MultiNoc::resume_from(cfg.clone(), &blob)
            .unwrap_or_else(|e| panic!("resume failed for {selector:?} gating={gating}: {e:?}"));
        assert_eq!(
            resumed.cycle(),
            SPLIT_CYCLE,
            "checkpoint cycle for {selector:?} gating={gating}"
        );
        let mut rload = SyntheticWorkload::decode_position(
            SyntheticPattern::UniformRandom,
            LoadSchedule::constant(0.08),
            512,
            resumed.dims(),
            &driver,
        )
        .expect("workload position decodes");
        for _ in SPLIT_CYCLE..TOTAL_CYCLES {
            rload.drive(&mut resumed);
            resumed.step();
        }
        let resumed_snap = resumed.snapshot();
        assert_eq!(
            resumed_snap, straight_snap,
            "resumed snapshot diverged from straight-through for {selector:?} gating={gating}"
        );
        // The scheduler is rebuilt from live state on resume; it must
        // then do exactly the work the straight-through run did.
        let resumed_sched: Vec<_> = (0..resumed.num_subnets()).map(|s| resumed.subnet(s).sched_stats()).collect();
        assert_eq!(
            resumed_sched, straight_sched,
            "resumed scheduler counters diverged for {selector:?} gating={gating}"
        );
        let got = (
            resumed.finish().packets_delivered,
            resumed_snap.latency_sum,
            resumed_snap.or_switch_events,
        );
        assert_eq!(
            got, straight,
            "resumed fingerprint diverged for {selector:?} gating={gating}"
        );

        if std::env::var_os("CATNAP_PRINT_GOLDENS").is_none() {
            assert_eq!(got, want, "golden fingerprint changed for {selector:?} gating={gating}");
        }
    }
}

/// With recording sinks on both halves, the pre-checkpoint trace plus
/// the resumed trace must equal the straight-through trace event for
/// event — checkpointing may not drop, duplicate, or reorder telemetry.
/// (Sink contents are deliberately not checkpointed: the resumed trace
/// covers only the suffix, which is exactly what this splices back.)
#[test]
fn recorded_trace_prefix_plus_resumed_suffix_equals_straight_through() {
    for (selector, gating, _) in PINNED {
        let cfg = golden_cfg(selector, gating);

        let mut net = MultiNoc::with_sinks(cfg.clone(), |_| RecordingSink::new());
        let mut load = golden_load(&net);
        for _ in 0..TOTAL_CYCLES {
            load.drive(&mut net);
            net.step();
        }
        let full = net.take_trace();
        assert!(
            full.num_events() > 0,
            "straight-through trace is empty for {selector:?} gating={gating}"
        );

        let mut net = MultiNoc::with_sinks(cfg.clone(), |_| RecordingSink::new());
        let mut load = golden_load(&net);
        for _ in 0..SPLIT_CYCLE {
            load.drive(&mut net);
            net.step();
        }
        let blob = net.save_checkpoint(&load.encode_position());
        let prefix = net.take_trace();

        let (mut resumed, driver) =
            MultiNoc::resume_with_sinks(cfg, |_| RecordingSink::new(), &blob).expect("recorded resume");
        let mut rload = SyntheticWorkload::decode_position(
            SyntheticPattern::UniformRandom,
            LoadSchedule::constant(0.08),
            512,
            resumed.dims(),
            &driver,
        )
        .expect("workload position decodes");
        for _ in SPLIT_CYCLE..TOTAL_CYCLES {
            rload.drive(&mut resumed);
            resumed.step();
        }
        let suffix = resumed.take_trace();

        let mut spliced_policy = prefix.policy.clone();
        spliced_policy.extend_from_slice(&suffix.policy);
        assert_eq!(
            spliced_policy, full.policy,
            "policy-layer trace diverged across the checkpoint for {selector:?} gating={gating}"
        );
        assert_eq!(prefix.subnets.len(), full.subnets.len());
        assert_eq!(suffix.subnets.len(), full.subnets.len());
        for (s, whole) in full.subnets.iter().enumerate() {
            let mut spliced = prefix.subnets[s].clone();
            spliced.extend_from_slice(&suffix.subnets[s]);
            assert_eq!(
                &spliced, whole,
                "subnet {s} trace diverged across the checkpoint for {selector:?} gating={gating}"
            );
        }
    }
}

/// Malformed checkpoints are rejected with a typed error before any
/// payload byte reaches the simulator: corruption anywhere in the blob,
/// a future format version, and a config whose fingerprint differs.
#[test]
fn rejects_corrupted_version_mismatched_and_foreign_checkpoints() {
    let cfg = golden_cfg(SelectorKind::CatnapPriority, true);
    let mut net = MultiNoc::new(cfg.clone());
    let mut load = golden_load(&net);
    for _ in 0..100 {
        load.drive(&mut net);
        net.step();
    }
    let blob = net.save_checkpoint(&load.encode_position());

    // Flip one bit at several positions spread across the blob: header,
    // payload, and checksum corruption must all be caught.
    for at in [9, blob.len() / 3, blob.len() / 2, blob.len() - 1] {
        let mut bad = blob.clone();
        bad[at] ^= 0x10;
        assert!(
            matches!(
                MultiNoc::resume_from(cfg.clone(), &bad),
                Err(CodecError::ChecksumMismatch)
            ),
            "corruption at byte {at} went undetected"
        );
    }

    // A truncated blob never passes the checksum either.
    assert!(MultiNoc::resume_from(cfg.clone(), &blob[..blob.len() - 7]).is_err());

    // Same payload re-sealed under a future version: rejected by the
    // version check, not misparsed.
    let fp = config_fingerprint(&cfg);
    let payload = codec::open(&blob, CHECKPOINT_VERSION, fp).expect("blob opens under current version");
    let future = codec::seal(CHECKPOINT_VERSION + 1, fp, payload);
    assert!(matches!(
        MultiNoc::resume_from(cfg.clone(), &future),
        Err(CodecError::UnsupportedVersion { found, expected }) if found == CHECKPOINT_VERSION + 1
            && expected == CHECKPOINT_VERSION
    ));

    // A different configuration (here: different seed) must refuse the
    // blob outright via the embedded fingerprint.
    let foreign = golden_cfg(SelectorKind::CatnapPriority, true).seed(8);
    assert!(matches!(
        MultiNoc::resume_from(foreign, &blob),
        Err(CodecError::FingerprintMismatch { .. })
    ));
}

/// A checkpoint taken while routers are mid wake-up must not lose their
/// scheduled wake completions. Saving materializes every deferred router;
/// a router caught inside its wake-up countdown must still run on the
/// cycle its countdown completes, or a later catch-up would run past the
/// completion. The grid covers loads where the 64-core gated design
/// keeps waking and sleeping its second subnet, so some seeds land the
/// checkpoint inside a countdown.
#[test]
fn checkpoint_during_wake_up_keeps_the_run_bit_identical() {
    const WARMUP: u64 = 2_000;
    const AFTER: u64 = 8_000;
    let cfg_for = |seed| MultiNocConfig::catnap_2x128_64core().gating(true).seed(seed);
    let load_for = |net: &MultiNoc, rate, seed| {
        SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, net.dims(), seed)
    };
    for seed in [1u64, 2, 3, 4, 5, 30] {
        for rate in [0.12, 0.125, 0.13] {
            let mut plain = MultiNoc::new(cfg_for(seed));
            let mut plain_load = load_for(&plain, rate, seed);
            for _ in 0..WARMUP + AFTER {
                plain_load.drive(&mut plain);
                plain.step();
            }

            let mut saved = MultiNoc::new(cfg_for(seed));
            let mut saved_load = load_for(&saved, rate, seed);
            for _ in 0..WARMUP {
                saved_load.drive(&mut saved);
                saved.step();
            }
            let _ = saved.save_checkpoint(&saved_load.encode_position());
            for _ in 0..AFTER {
                saved_load.drive(&mut saved);
                saved.step();
            }
            assert_eq!(
                saved.snapshot(),
                plain.snapshot(),
                "checkpointing changed the run at seed {seed}, rate {rate}"
            );
        }
    }
}
