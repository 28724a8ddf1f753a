//! Environment-gated perf smoke tests.
//!
//! Timing assertions do not belong in the default suite (CI machines
//! and debug builds vary wildly), so every test here is a no-op unless
//! `CATNAP_PERF_SMOKE=1` is set. When enabled they check structural
//! speed contracts with wide margins, each after asserting that the
//! fast and slow paths it times produce the same results:
//!
//! * the light-load gated `Network` hot loop stays within 3x of its
//!   pinned floor, with and without recording telemetry;
//! * the busy event-driven `MultiNoc::step` stays at least 1.4x faster
//!   than the `step_reference` oracle;
//! * the result cache and warm-up checkpoints keep their speedups on a
//!   shared-warm-up sweep.
//!
//! The floors were measured in release builds, so run them as
//! `CATNAP_PERF_SMOKE=1 cargo test --release --offline --test perf_smoke
//! -- --nocapture`. Debug builds keep per-step consistency walks that
//! only `step` pays (see `busy_path_eventdriven_beats_full_step`). If a
//! legitimate change shifts throughput, re-measure with that command and
//! update the constants.

use catnap_repro::bench::{run_job_uncached, run_synthetic_cached, CacheOutcome, SimJob};
use catnap_repro::catnap::{MultiNoc, MultiNocConfig, SimCache, Snapshot};
use catnap_repro::noc::power_state::WakeReason;
use catnap_repro::noc::{Network, NetworkConfig, NodeId};
use catnap_repro::telemetry::{NopSink, RecordingSink, Sink};
use catnap_repro::traffic::{LoadSchedule, SyntheticPattern, SyntheticWorkload};
use catnap_repro::util::json::ToJson;
use std::sync::Mutex;
use std::time::Instant;

/// The default test harness runs `#[test]` fns on parallel threads, and
/// two timing measurements sharing the host's cores corrupt each other.
/// Every test in this file holds this lock for its measured section, so
/// the suite serializes itself regardless of `--test-threads`.
static PERF_LOCK: Mutex<()> = Mutex::new(());

fn perf_guard() -> std::sync::MutexGuard<'static, ()> {
    PERF_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether `CATNAP_PERF_SMOKE=1` is set; says so on stderr when not.
fn perf_smoke_enabled() -> bool {
    let enabled = std::env::var("CATNAP_PERF_SMOKE").is_ok_and(|v| v == "1");
    if !enabled {
        eprintln!("perf smoke skipped (set CATNAP_PERF_SMOKE=1 to enable)");
    }
    enabled
}

/// Pinned cycles/sec floors for the scenario below, by compile profile.
/// Debug is what `cargo test` runs; release is what `cargo test
/// --release` runs. The debug floor is far below the release one
/// because debug builds keep the `debug_assert!` cross-checks that
/// re-derive the occupancy and in-flight counters by linear scan every
/// cycle.
const FLOOR_DEBUG_CPS: f64 = 30_000.0;
const FLOOR_RELEASE_CPS: f64 = 1_500_000.0;

/// The light-load gated hot loop: one gated 8x8 subnet driven at the
/// `Network` API the way the policy layer drives it, a single-flit
/// packet every 48 cycles (waking the source on demand), a periodic
/// sleep scan, no RNG.
fn light_gated_cycles_per_sec(warmup: u64, measure: u64) -> f64 {
    light_gated_cycles_per_sec_with(warmup, measure, NopSink)
}

/// Same scenario with an explicit telemetry sink attached, so the no-op
/// and recording builds can be timed against each other in-process.
fn light_gated_cycles_per_sec_with<S: Sink>(warmup: u64, measure: u64, sink: S) -> f64 {
    let mut net = Network::with_sink(NetworkConfig::with_width(128).gating_enabled(true), sink);
    let nodes = net.dims().num_nodes() as u64;
    let mut eject = Vec::new();
    let mut pending: Option<(NodeId, NodeId)> = None;
    let mut n = 0u64;
    let mut drive = |net: &mut Network<S>, cycle: u64| {
        if cycle.is_multiple_of(48) {
            let src = NodeId(((n * 17 + 3) % nodes) as u16);
            let dst = NodeId(((n * 29 + 11) % nodes) as u16);
            n += 1;
            if src != dst {
                pending = Some((src, dst));
            }
        }
        if let Some((src, dst)) = pending {
            if net.can_inject(src) {
                let flit = net.make_single_flit_packet(src, dst, cycle);
                if net.try_inject_flit(src, 0, flit) {
                    pending = None;
                }
            } else {
                net.request_wake(src, WakeReason::NiInjection);
            }
        }
        if cycle.is_multiple_of(16) {
            for node in net.dims().nodes() {
                net.request_sleep(node);
            }
        }
        net.step();
        eject.clear();
        net.drain_ejected_into(&mut eject);
    };
    for c in 0..warmup {
        drive(&mut net, c);
    }
    let start = Instant::now();
    for c in warmup..warmup + measure {
        drive(&mut net, c);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-12);
    assert!(net.stats().packets_ejected > 0, "smoke workload delivered nothing");
    measure as f64 / secs
}

/// Times the busy pair: uniform-random 0.05 packets/node/cycle on the
/// gated 4NT-128b configuration, which holds one subnet near saturation
/// while the other three sleep. Returns cycles/sec of the per-cycle loop
/// through `step` (event scheduler engaged) or through the
/// `step_reference` oracle, and the run's final counters.
fn busy_gated_run(cycles: u64, reference: bool) -> (f64, Snapshot) {
    let cfg = MultiNocConfig::catnap_4x128().gating(true).seed(7);
    let mut net = MultiNoc::new(cfg);
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.05, 512, net.dims(), 7);
    let start = Instant::now();
    for _ in 0..cycles {
        load.drive(&mut net);
        if reference {
            net.step_reference();
        } else {
            net.step();
        }
    }
    let secs = start.elapsed().as_secs_f64().max(1e-12);
    (cycles as f64 / secs, net.snapshot())
}

/// Event-driven over reference-step throughput floor on the busy
/// scenario. Measured ~1.9x on the reference container (single-core
/// release build): the busy regime is Amdahl-bound — the saturated
/// subnet has real router work every cycle that both modes must do, so
/// the scheduler's win there comes from the mask-driven allocator and
/// from eliminating the three gated subnets' scan; only a light load
/// lets it skip almost everything (see the hot-loop floor below).
/// The floor is set with ~25% margin under the measured ratio; a drop
/// below it means the busy-path scheduling or the allocator fast path
/// structurally regressed. Release builds only: in debug builds
/// `Network::check_scheduler` walks every router at the start of each
/// `step`, a cost `step_reference` does not pay, and pulls the ratio
/// under the floor.
const FLOOR_BUSY_EVENTDRIVEN_RATIO: f64 = 1.4;

#[test]
fn busy_path_eventdriven_beats_full_step() {
    if !perf_smoke_enabled() {
        return;
    }
    let _serialize = perf_guard();
    // Untimed pass first so page faults, lazy init and CPU clocks settle.
    let _ = busy_gated_run(2_000, false);
    let cycles = if cfg!(debug_assertions) { 4_000 } else { 20_000 };
    let (full, full_end) = busy_gated_run(cycles, true);
    let (event, event_end) = busy_gated_run(cycles, false);
    assert_eq!(
        event_end, full_end,
        "event-driven busy run diverged from the reference step"
    );
    let ratio = event / full;
    println!(
        "busy-path smoke: event-driven {event:.0} vs reference {full:.0} cycles/sec ({ratio:.2}x, floor {FLOOR_BUSY_EVENTDRIVEN_RATIO}x)"
    );
    assert!(
        ratio >= FLOOR_BUSY_EVENTDRIVEN_RATIO,
        "event-driven busy path ran at {ratio:.2}x of the reference step, below the {FLOOR_BUSY_EVENTDRIVEN_RATIO}x floor"
    );
}

#[test]
fn gated_hot_loop_meets_throughput_floor() {
    if !perf_smoke_enabled() {
        return;
    }
    let _serialize = perf_guard();
    let floor = if cfg!(debug_assertions) {
        FLOOR_DEBUG_CPS
    } else {
        FLOOR_RELEASE_CPS
    };
    // Untimed pass first so page faults, lazy init and CPU clocks settle.
    let _ = light_gated_cycles_per_sec(500, 2_000);
    let cps = light_gated_cycles_per_sec(1_000, 20_000);
    println!(
        "perf smoke: {:.0} cycles/sec (floor {:.0}, fail below {:.0})",
        cps,
        floor,
        floor / 3.0
    );
    assert!(
        cps >= floor / 3.0,
        "gated hot loop ran at {cps:.0} cycles/sec, more than 3x below the pinned floor of {floor:.0}"
    );
}

/// Recording-sink slowdown ceiling. Measured ~1.26x on the reference
/// container with recording sinks on a light-load gated `MultiNoc`; the
/// ceiling sits at roughly double the measurement so machine noise
/// passes but an accidental per-event scan or allocation storm fails.
/// DESIGN.md §10 cites this constant — keep both in sync when
/// re-measuring.
const CEILING_RECORDING_SLOWDOWN: f64 = 2.5;

/// Telemetry overhead contract (DESIGN.md §10): the default `NopSink`
/// build must be free. `Network::new` elaborates to `Network<NopSink>`
/// with `Sink::ENABLED = false`, so every instrumentation guard is
/// compiled out and the floors above — pinned before telemetry existed —
/// apply to the instrumented build unchanged (contract: within 2% of the
/// pre-telemetry baseline; the 3x failure margin absorbs machine noise
/// on top of that). This test asserts both halves in one process:
///
/// 1. the `NopSink` path still meets the pre-telemetry floor, and
/// 2. recording every event stays under `CEILING_RECORDING_SLOWDOWN`
///    relative to the no-op run.
#[test]
fn telemetry_noop_sink_meets_pre_telemetry_floor() {
    if !perf_smoke_enabled() {
        return;
    }
    let _serialize = perf_guard();
    let floor = if cfg!(debug_assertions) {
        FLOOR_DEBUG_CPS
    } else {
        FLOOR_RELEASE_CPS
    };
    let _ = light_gated_cycles_per_sec(500, 2_000);
    let noop = light_gated_cycles_per_sec_with(1_000, 20_000, NopSink);
    let recording = light_gated_cycles_per_sec_with(1_000, 20_000, RecordingSink::new());
    println!(
        "telemetry smoke: noop {:.0} cycles/sec (floor {:.0}), recording {:.0} ({:.2}x)",
        noop,
        floor,
        recording,
        noop / recording
    );
    assert!(
        noop >= floor / 3.0,
        "NopSink build ran at {noop:.0} cycles/sec, more than 3x below the pre-telemetry floor of {floor:.0}"
    );
    assert!(
        recording >= noop / CEILING_RECORDING_SLOWDOWN,
        "recording sink slowed the loop {:.2}x, above the {CEILING_RECORDING_SLOWDOWN}x ceiling \
         (noop {noop:.0} vs recording {recording:.0} cycles/sec)",
        noop / recording
    );
}

/// The sweep the serving caches exist for: 16 points on the gated
/// 4NT-128b configuration that share an expensive 1,500-cycle warm-up
/// at 0.25 packets/node/cycle and differ only in a light 500-cycle
/// measurement window at 0.005 + 0.0025·i.
fn shared_warmup_sweep() -> Vec<SimJob> {
    const WARMUP: u64 = 1_500;
    (0..16)
        .map(|i| SimJob {
            cfg: MultiNocConfig::catnap_4x128().gating(true),
            pattern: SyntheticPattern::UniformRandom,
            schedule: LoadSchedule::piecewise(vec![(0, 0.25), (WARMUP, 0.005 + 0.0025 * f64::from(i))]),
            packet_bits: 512,
            warmup: WARMUP,
            measure: 500,
            seed: 7,
        })
        .collect()
}

/// Speedup floors of the cached passes over the uncached one on
/// [`shared_warmup_sweep`]. The cold pass pays one warm-up and resumes
/// it fifteen times; the warm pass only reads results back. Measured
/// 8.2x and ~21,000x in release on a 2-vCPU host (6.9–7.1x and
/// ~80,000x in debug).
const FLOOR_WARM_RESUME_SPEEDUP: f64 = 5.0;
const FLOOR_CACHE_HIT_SPEEDUP: f64 = 50.0;

#[test]
fn cached_sweep_resume_and_hit_speedups_meet_floors() {
    if !perf_smoke_enabled() {
        return;
    }
    let _serialize = perf_guard();
    let jobs = shared_warmup_sweep();
    let dir = std::env::temp_dir().join(format!("catnap-perf-smoke-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cache = SimCache::new(&dir, 64).expect("create the sweep cache");

    let start = Instant::now();
    let uncached: Vec<_> = jobs.iter().map(run_job_uncached).collect();
    let uncached_s = start.elapsed().as_secs_f64();
    let mut cached_pass = || {
        let start = Instant::now();
        let points: Vec<_> = jobs.iter().map(|job| run_synthetic_cached(&mut cache, job)).collect();
        (points, start.elapsed().as_secs_f64().max(1e-12))
    };
    let (cold, cold_s) = cached_pass();
    let (warm, warm_s) = cached_pass();
    let _ = std::fs::remove_dir_all(&dir);

    // Correctness before speed: the speedups are for the same answers.
    for (pass, points) in [("cold", &cold), ("warm", &warm)] {
        for (i, (reference, (point, _))) in uncached.iter().zip(points).enumerate() {
            assert_eq!(
                point.to_json().to_compact_string(),
                reference.to_json().to_compact_string(),
                "{pass}-cache point {i} diverged from the straight-through run"
            );
        }
    }
    let outcomes = |points: &[(_, CacheOutcome)]| points.iter().map(|&(_, o)| o).collect::<Vec<_>>();
    let mut cold_expected = vec![CacheOutcome::Resume; jobs.len()];
    cold_expected[0] = CacheOutcome::Miss;
    assert_eq!(outcomes(&cold), cold_expected, "cold pass: one miss, then resumes");
    assert_eq!(
        outcomes(&warm),
        vec![CacheOutcome::Hit; jobs.len()],
        "warm pass: all hits"
    );

    let warm_resume = uncached_s / cold_s;
    let cache_hit = uncached_s / warm_s;
    println!(
        "cache smoke: uncached {:.1} ms, cold {:.1} ms ({warm_resume:.2}x, floor {FLOOR_WARM_RESUME_SPEEDUP}x), \
         warm {:.3} ms ({cache_hit:.0}x, floor {FLOOR_CACHE_HIT_SPEEDUP}x)",
        uncached_s * 1e3,
        cold_s * 1e3,
        warm_s * 1e3
    );
    assert!(
        warm_resume >= FLOOR_WARM_RESUME_SPEEDUP,
        "shared warm-up resume ran at {warm_resume:.2}x, below the {FLOOR_WARM_RESUME_SPEEDUP}x floor"
    );
    assert!(
        cache_hit >= FLOOR_CACHE_HIT_SPEEDUP,
        "result-cache hits ran at {cache_hit:.2}x, below the {FLOOR_CACHE_HIT_SPEEDUP}x floor"
    );
}
