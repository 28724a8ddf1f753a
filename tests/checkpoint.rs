//! Checkpoint/resume round-trips for every determinism golden.
//!
//! For each pinned `(selector, gating)` golden from `tests/determinism.rs`,
//! for the port-gated (`LocalIdlePort`) gating golden there, and for one
//! golden per other congestion metric and local-only BFM, the run
//! is split at cycle 751 of 1500: the full simulator state plus
//! the workload position is sealed into a checkpoint blob, a fresh
//! simulator is rebuilt from the blob, and both halves are driven to the
//! end. The resumed run must be **bit-identical** to the straight-through
//! run — same golden fingerprint tuple, same full [`Snapshot`], and (with
//! recording sinks attached) a telemetry trace whose concatenation with
//! the pre-checkpoint prefix reproduces the straight-through trace event
//! for event. Malformed blobs must be rejected, never misparsed.
//!
//! [`Snapshot`]: catnap_repro::catnap::Snapshot

use catnap_repro::catnap::{
    config_fingerprint, CongestionMetric, GatingPolicy, MetricKind, MultiNoc, MultiNocConfig, SelectorKind, Snapshot,
    CHECKPOINT_VERSION,
};
use catnap_repro::noc::SchedStats;
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

/// The port-granularity gating golden from `tests/determinism.rs`
/// (`LocalIdlePort`, five gating units per router), kept in sync the
/// same way.
const PORT_GATED: (u64, u64, u64) = (7250, 505537, 1132);

/// The tuples of the other four congestion metrics and of local-only
/// BFM (no RCS), printed at the commit that added them. `step` and
/// `step_reference` share the detectors, so only a pinned tuple notices
/// a change to what a metric decides. Each runs at a load at which its
/// detectors set bits.
const METRIC_GOLDENS: [(&str, f64, (u64, u64, u64)); 5] = [
    ("BFA", 0.30, (28142, 1064361, 604)),
    ("IR", 0.30, (21713, 4848252, 180)),
    ("IQOcc", 0.08, (7450, 239398, 1680)),
    ("Delay", 0.30, (28014, 1341016, 200)),
    ("BFM local-only", 0.08, (7435, 268307, 201)),
];

/// A golden's fingerprint: packets delivered, latency sum and
/// OR-network switch events.
type Fingerprint = (u64, u64, u64);

/// Every golden configuration with a name, its load and its pinned
/// fingerprint: the six selector × gating goldens, the port-gated one
/// and one per congestion metric.
fn golden_cases() -> Vec<(String, MultiNocConfig, f64, Fingerprint)> {
    let mut cases: Vec<_> = PINNED
        .iter()
        .map(|&(selector, gating, want)| {
            (
                format!("{selector:?} gating={gating}"),
                golden_cfg(selector, gating),
                0.08,
                want,
            )
        })
        .collect();
    cases.push((
        "LocalIdlePort".to_string(),
        MultiNocConfig::catnap_4x128()
            .gating_policy(GatingPolicy::LocalIdlePort)
            .seed(7),
        0.08,
        PORT_GATED,
    ));
    for (name, rate, want) in METRIC_GOLDENS {
        let cfg = MultiNocConfig::catnap_4x128();
        let cfg = match name {
            "BFA" => cfg.metric(CongestionMetric::paper_default(MetricKind::Bfa)),
            "IR" => cfg.metric(CongestionMetric::paper_default(MetricKind::InjectionRate)),
            "IQOcc" => cfg.metric(CongestionMetric::paper_default(MetricKind::IqOcc)),
            "Delay" => cfg.metric(CongestionMetric::paper_default(MetricKind::Delay)),
            _ => cfg.local_only(),
        };
        cases.push((name.to_string(), cfg.gating(true).seed(7), rate, want));
    }
    cases
}

const TOTAL_CYCLES: u64 = 1_500;
/// Inside every window: not an OR-network latch edge (751 % 6 = 1), and
/// part-way through the Delay and IR windows (751 % 32 = 15, 751 % 64 =
/// 47), so a resume must carry open windows.
const SPLIT_CYCLE: u64 = 751;

fn golden_cfg(selector: SelectorKind, gating: bool) -> MultiNocConfig {
    MultiNocConfig::catnap_4x128().selector(selector).gating(gating).seed(7)
}

fn golden_load<S: catnap_repro::telemetry::Sink>(net: &MultiNoc<S>, rate: f64) -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, net.dims(), 7)
}

/// Every subnet's event-scheduler counters.
fn sched_stats<S: catnap_repro::telemetry::Sink>(net: &MultiNoc<S>) -> Vec<SchedStats> {
    (0..net.num_subnets()).map(|s| net.subnet(s).sched_stats()).collect()
}

/// The scheduler work counted between two readings of one subnet.
fn work_since(end: SchedStats, start: SchedStats) -> SchedStats {
    SchedStats {
        router_runs: end.router_runs - start.router_runs,
        idle_runs: end.idle_runs - start.idle_runs,
        wakeup_pops: end.wakeup_pops - start.wakeup_pops,
        stale_wakeups: end.stale_wakeups - start.stale_wakeups,
        syncs: end.syncs - start.syncs,
        synced_cycles: end.synced_cycles - start.synced_cycles,
        stalled_runs: end.stalled_runs - start.stalled_runs,
    }
}

/// Save → resume at `SPLIT_CYCLE` must reproduce the straight-through
/// run exactly, for every golden (the port-gated one included): the
/// pinned fingerprint tuple, the complete cumulative `Snapshot`
/// (per-subnet flit counts included), and every subnet's
/// event-scheduler work after the split.
#[test]
fn resume_is_bit_identical_to_straight_through_for_every_golden() {
    for (name, cfg, rate, want) in golden_cases() {
        assert_resume_matches(&name, cfg, rate, want);
    }
}

/// The `fig10_high_load` benchmark configuration: 4NT-128b-PG under
/// uniform random 512-bit packets at 0.30 packets/node/cycle, seed 7.
/// Its subnets saturate, so hundreds of VCs wait on a credit or a VC
/// every cycle, and decode's rebuilt credits, credit masks and packet
/// tables are checked where credits actually run out.
const SATURATED: (u64, u64, u64) = (27841, 1466234, 427);

#[test]
fn resume_is_bit_identical_to_straight_through_at_saturation() {
    let cfg = MultiNocConfig::catnap_4x128().gating(true).seed(7);
    let after_split = assert_resume_matches("fig10_high_load", cfg, 0.30, SATURATED);
    let blocked: u64 = after_split.activity_per_subnet.iter().map(|a| a.head_blocked_cycles).sum();
    let per_cycle = blocked / after_split.cycle;
    assert!(per_cycle >= 200, "not saturated: {per_cycle} blocked VCs per cycle");
}

/// Runs `cfg` under uniform random 512-bit packets at `rate` for
/// `TOTAL_CYCLES`, straight through and resumed from a checkpoint taken
/// at `SPLIT_CYCLE`, and asserts both agree on the fingerprint tuple
/// (which must be `want` unless `CATNAP_PRINT_GOLDENS` is set), the
/// cumulative snapshot and the scheduler's work after the split.
/// Returns the resumed run's snapshot of what happened after the split.
fn assert_resume_matches(name: &str, cfg: MultiNocConfig, rate: f64, want: (u64, u64, u64)) -> Snapshot {
    // Straight-through run, checkpointing (but not using the blob)
    // at the split so both runs share one code path up to it.
    let mut net = MultiNoc::new(cfg.clone());
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, net.dims(), 7);
    for _ in 0..SPLIT_CYCLE {
        load.drive(&mut net);
        net.step();
    }
    let blob = net.save_checkpoint(&load.encode_position());
    let at_split = sched_stats(&net);
    let split_snap = net.snapshot();
    for _ in SPLIT_CYCLE..TOTAL_CYCLES {
        load.drive(&mut net);
        net.step();
    }
    let straight_snap = net.snapshot();
    let straight_sched: Vec<_> = sched_stats(&net)
        .into_iter()
        .zip(at_split)
        .map(|(end, start)| work_since(end, start))
        .collect();
    let straight = (
        net.finish().packets_delivered,
        straight_snap.latency_sum,
        straight_snap.or_switch_events,
    );

    // Resumed run: fresh simulator and workload rebuilt from the blob.
    let (mut resumed, driver) =
        MultiNoc::resume_from(cfg.clone(), &blob).unwrap_or_else(|e| panic!("resume failed for {name}: {e:?}"));
    assert_eq!(resumed.cycle(), SPLIT_CYCLE, "checkpoint cycle for {name}");
    let mut rload = SyntheticWorkload::decode_position(
        SyntheticPattern::UniformRandom,
        LoadSchedule::constant(rate),
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
        "resumed snapshot diverged from straight-through for {name}"
    );
    // The scheduler is rebuilt from live state on resume, and its
    // counters, which checkpoints do not store, start from zero; it
    // must then do exactly the work the straight-through run did
    // after the split.
    let resumed_sched = sched_stats(&resumed);
    assert_eq!(
        resumed_sched, straight_sched,
        "resumed scheduler counters diverged for {name}"
    );
    let got = (
        resumed.finish().packets_delivered,
        resumed_snap.latency_sum,
        resumed_snap.or_switch_events,
    );
    assert_eq!(got, straight, "resumed fingerprint diverged for {name}");

    if std::env::var_os("CATNAP_PRINT_GOLDENS").is_some() {
        println!("{name}: {got:?}");
    } else {
        assert_eq!(got, want, "golden fingerprint changed for {name}");
    }
    resumed_snap.delta(&split_snap)
}

/// With recording sinks on both halves, the pre-checkpoint trace plus
/// the resumed trace must equal the straight-through trace event for
/// event — checkpointing may not drop, duplicate, or reorder telemetry.
/// (Sink contents are deliberately not checkpointed: the resumed trace
/// covers only the suffix, which is exactly what this splices back.)
#[test]
fn recorded_trace_prefix_plus_resumed_suffix_equals_straight_through() {
    for (name, cfg, rate, _) in golden_cases() {
        let mut net = MultiNoc::with_sinks(cfg.clone(), |_| RecordingSink::new());
        let mut load = golden_load(&net, rate);
        for _ in 0..TOTAL_CYCLES {
            load.drive(&mut net);
            net.step();
        }
        let full = net.take_trace();
        assert!(full.num_events() > 0, "straight-through trace is empty for {name}");

        let mut net = MultiNoc::with_sinks(cfg.clone(), |_| RecordingSink::new());
        let mut load = golden_load(&net, rate);
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
            LoadSchedule::constant(rate),
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
            "policy-layer trace diverged across the checkpoint for {name}"
        );
        assert_eq!(prefix.subnets.len(), full.subnets.len());
        assert_eq!(suffix.subnets.len(), full.subnets.len());
        for (s, whole) in full.subnets.iter().enumerate() {
            let mut spliced = prefix.subnets[s].clone();
            spliced.extend_from_slice(&suffix.subnets[s]);
            assert_eq!(
                &spliced, whole,
                "subnet {s} trace diverged across the checkpoint for {name}"
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
    let mut load = golden_load(&net, 0.08);
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

/// Checkpoints of equal state are equal bytes: saving at cycle 400 as
/// well must not change the checkpoint written at cycle 800. (Saving
/// only reads the simulation, and the scheduler's instrumentation
/// counters are not simulation state and are not stored.)
#[test]
fn an_extra_save_leaves_later_checkpoints_byte_identical() {
    let cfg = MultiNocConfig::catnap_4x128().gating(true).seed(7);
    let checkpoint_at_800 = |extra_save: bool| {
        let mut net = MultiNoc::new(cfg.clone());
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.03, 512, net.dims(), 7);
        for cycle in 0..800 {
            if extra_save && cycle == 400 {
                let _ = net.save_checkpoint(&load.encode_position());
            }
            load.drive(&mut net);
            net.step();
        }
        net.save_checkpoint(&load.encode_position())
    };
    let plain = checkpoint_at_800(false);
    let probed = checkpoint_at_800(true);
    let differing = plain.iter().zip(&probed).filter(|(a, b)| a != b).count();
    assert_eq!(plain.len(), probed.len(), "checkpoint lengths differ");
    assert_eq!(
        differing, 0,
        "an extra save changed {differing} bytes of a later checkpoint"
    );
}

/// Hostile payloads fail with a typed error, never with a panic: each
/// trial changes one to three bytes of a mid-run payload (flip a bit,
/// add one, or overwrite with a random byte), re-seals it so the
/// checksum holds, resumes, and steps the resumed network. Debug builds,
/// where the wormhole `debug_assert`s are live, run the first 2,000
/// trials; release builds run 10,000. Under BFM the detectors keep no
/// state beyond the LCS bits; the Delay config adds a windowed metric's
/// counter snapshots, which decode must bound by their routers'
/// counters.
#[test]
fn mutated_checkpoints_fail_typed_or_run_but_never_panic() {
    use catnap_repro::util::SimRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const TRIALS: usize = if cfg!(debug_assertions) { 2_000 } else { 10_000 };
    let bfm = MultiNocConfig::catnap_2x128_64core().gating(true).seed(5);
    let delay = bfm.clone().metric(CongestionMetric::paper_default(MetricKind::Delay));
    for (name, cfg) in [("BFM", bfm), ("Delay", delay)] {
        let mut net = MultiNoc::new(cfg.clone());
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.25, 512, net.dims(), 5);
        for _ in 0..400 {
            load.drive(&mut net);
            net.step();
        }
        let fp = config_fingerprint(&cfg);
        let blob = net.save_checkpoint(&[]);
        let payload = codec::open(&blob, CHECKPOINT_VERSION, fp).expect("fresh blob opens").to_vec();

        let mut rng = SimRng::new(1);
        let (mut typed, mut clean, mut panics) = (0, 0, Vec::new());
        for trial in 0..TRIALS {
            let mut bytes = payload.clone();
            for _ in 0..1 + rng.u64_below(3) {
                let at = rng.u64_below(bytes.len() as u64) as usize;
                bytes[at] = match rng.u64_below(3) {
                    0 => bytes[at] ^ (1 << rng.u64_below(8)),
                    1 => bytes[at].wrapping_add(1),
                    _ => rng.next_u64() as u8,
                };
            }
            let sealed = codec::seal(CHECKPOINT_VERSION, fp, &bytes);
            let outcome = catch_unwind(AssertUnwindSafe(|| match MultiNoc::resume_from(cfg.clone(), &sealed) {
                Err(_) => false,
                Ok((mut resumed, _)) => {
                    for _ in 0..300 {
                        resumed.step();
                    }
                    true
                }
            }));
            match outcome {
                Ok(false) => typed += 1,
                Ok(true) => clean += 1,
                Err(_) => panics.push(trial),
            }
        }
        assert!(
            typed > 0 && clean > 0,
            "{name}: {typed} typed errors, {clean} clean runs"
        );
        assert!(
            panics.is_empty(),
            "{name}: {} of {TRIALS} mutated checkpoints panicked (trials {panics:?}); {typed} typed errors, {clean} clean runs",
            panics.len()
        );
    }
}

/// A checkpoint taken while a router is mid wake-up resumes
/// bit-identically: decode keeps the wake-up's completion cycle, and the
/// resumed scheduler runs the router on it. The 64-core gated design at
/// 0.125 keeps waking and sleeping its second subnet, so the run is
/// stepped to the first cycle edge at which some router is waking,
/// saved there, and both copies run on for 2,000 cycles.
#[test]
fn checkpoint_during_wake_up_keeps_the_run_bit_identical() {
    const RATE: f64 = 0.125;
    const AFTER: u64 = 2_000;
    let cfg = MultiNocConfig::catnap_2x128_64core().gating(true).seed(1);
    let mut net = MultiNoc::new(cfg.clone());
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, RATE, 512, net.dims(), 1);
    while net.power_state_census().2 == 0 {
        assert!(net.cycle() < 10_000, "no router was waking at a cycle edge");
        load.drive(&mut net);
        net.step();
    }
    let blob = net.save_checkpoint(&load.encode_position());
    let (mut resumed, driver) = MultiNoc::resume_from(cfg, &blob).expect("a mid-wake-up checkpoint resumes");
    assert_eq!(resumed.power_state_census(), net.power_state_census());
    let mut resumed_load = SyntheticWorkload::decode_position(
        SyntheticPattern::UniformRandom,
        LoadSchedule::constant(RATE),
        512,
        resumed.dims(),
        &driver,
    )
    .expect("workload position decodes");
    for _ in 0..AFTER {
        load.drive(&mut net);
        net.step();
        resumed_load.drive(&mut resumed);
        resumed.step();
    }
    assert_eq!(
        resumed.snapshot(),
        net.snapshot(),
        "resuming mid wake-up changed the run"
    );
}
