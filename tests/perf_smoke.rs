//! Environment-gated throughput smoke test.
//!
//! Timing assertions do not belong in the default suite (CI machines
//! and debug builds vary wildly), so this test is a no-op unless
//! `CATNAP_PERF_SMOKE=1` is set. When enabled it times the light-load
//! gated hot loop — the workload the active-router worklist optimizes —
//! in whatever profile the test was compiled under, and fails only if
//! throughput lands more than 3x below the pinned floor for that
//! profile: a regression of that size means the worklist fast path (or
//! something equally structural) broke, not that the machine was busy.
//!
//! The floors were measured on the reference container (single-core).
//! If a legitimate change shifts throughput, re-measure with
//! `CATNAP_PERF_SMOKE=1 cargo test --test perf_smoke -- --nocapture`
//! and update the constants.

use catnap_repro::catnap::{MultiNoc, MultiNocConfig};
use catnap_repro::noc::power_state::WakeReason;
use catnap_repro::noc::{Network, NetworkConfig, NodeId};
use catnap_repro::telemetry::{NopSink, RecordingSink, Sink};
use catnap_repro::traffic::{SyntheticPattern, SyntheticWorkload};
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

/// Pinned cycles/sec floors for the scenario below, by compile profile.
/// Debug is what `cargo test` runs; release is what `cargo test
/// --release` and the bench harness run. The debug floor is far below
/// the release one because debug builds keep the `debug_assert!`
/// cross-checks that re-derive the occupancy and in-flight counters by
/// linear scan every cycle.
const FLOOR_DEBUG_CPS: f64 = 30_000.0;
const FLOOR_RELEASE_CPS: f64 = 1_500_000.0;

/// Mirror of the bench's `hotloop_light_gated_worklist` scenario: one
/// gated 8x8 subnet, a single-flit packet every 48 cycles, a periodic
/// sleep scan, worklist fast path enabled (the default).
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

/// Times the busy bench pair (`busy_gated_full_step` and
/// `busy_gated_eventdriven` in `bench_out/perf_throughput.json`):
/// uniform-random 0.05 packets/node/cycle on the gated 4NT-128b
/// configuration, which holds one subnet near saturation while the
/// other three sleep. Returns cycles/sec of the per-cycle loop through
/// `step` (event scheduler engaged) or through the `step_reference`
/// oracle.
fn busy_gated_cycles_per_sec(cycles: u64, reference: bool) -> f64 {
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
    cycles as f64 / secs
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
/// structurally regressed.
const FLOOR_BUSY_EVENTDRIVEN_RATIO: f64 = 1.4;

#[test]
fn busy_path_eventdriven_beats_full_step() {
    if std::env::var("CATNAP_PERF_SMOKE").map(|v| v != "1").unwrap_or(true) {
        eprintln!("perf smoke skipped (set CATNAP_PERF_SMOKE=1 to enable)");
        return;
    }
    let _serialize = perf_guard();
    // Untimed pass first so page faults, lazy init and CPU clocks settle.
    let _ = busy_gated_cycles_per_sec(2_000, false);
    let cycles = if cfg!(debug_assertions) { 4_000 } else { 20_000 };
    let full = busy_gated_cycles_per_sec(cycles, true);
    let event = busy_gated_cycles_per_sec(cycles, false);
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
    if std::env::var("CATNAP_PERF_SMOKE").map(|v| v != "1").unwrap_or(true) {
        eprintln!("perf smoke skipped (set CATNAP_PERF_SMOKE=1 to enable)");
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
/// container (`telemetry_recording_slowdown` in
/// `bench_out/perf_throughput.json`); the ceiling sits at roughly
/// double the measurement so machine noise passes but an accidental
/// per-event scan or allocation storm fails. ROADMAP and DESIGN.md §10
/// cite this constant — keep all three in sync when re-measuring.
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
    if std::env::var("CATNAP_PERF_SMOKE").map(|v| v != "1").unwrap_or(true) {
        eprintln!("perf smoke skipped (set CATNAP_PERF_SMOKE=1 to enable)");
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
