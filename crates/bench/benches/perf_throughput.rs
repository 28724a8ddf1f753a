//! Simulator-throughput observability: times the cycle loop on the
//! workloads the optimization work targets and writes
//! `bench_out/perf_throughput.json` so the perf trajectory is tracked
//! alongside the figure series.
//!
//! Two speedups are measured in the same run, each against its own
//! baseline:
//!
//! * **worklist** — the drained-router fast path on a light-load
//!   power-gated subnet, measured at the `Network` hot loop itself,
//!   versus the same simulation with `set_force_full_step(true)` (the
//!   naive walk-everything loop). Results are bit-identical; only
//!   wall-clock differs. This is where "wall-clock per cycle drops with
//!   the fraction of sleeping routers" lives.
//! * **end-to-end** — the same comparison through the whole `MultiNoc`
//!   (NIs, selection, gating policy, detectors, OR networks), which
//!   bounds the hot-loop gain by Amdahl's law.
//!
//! Two busy legs with every subnet carrying traffic (`busy_4subnet`
//! ungated, `busy_gated` power-gated) track the saturated-subnet cost,
//! and a recording-sink leg prices full telemetry against the `NopSink`
//! default.

use catnap::{MultiNoc, MultiNocConfig, SelectorKind};
use catnap_bench::{emit_json, print_banner, Table};
use catnap_noc::power_state::WakeReason;
use catnap_noc::{Network, NetworkConfig, NodeId};
use catnap_telemetry::RecordingSink;
use catnap_traffic::{SyntheticPattern, SyntheticWorkload};
use std::hint::black_box;
use std::time::Instant;

/// One timed simulation segment.
#[derive(Clone, Debug)]
struct Scenario {
    scenario: String,
    cycles: u64,
    wall_ns: u64,
    cycles_per_sec: f64,
    flit_hops_per_sec: f64,
    packets_delivered: u64,
}

catnap_util::impl_to_json_struct!(Scenario {
    scenario,
    cycles,
    wall_ns,
    cycles_per_sec,
    flit_hops_per_sec,
    packets_delivered,
});

/// The whole report written to `bench_out/perf_throughput.json`.
#[derive(Clone, Debug)]
struct PerfThroughput {
    host_parallelism: u64,
    worklist_speedup: f64,
    e2e_light_gated_speedup: f64,
    telemetry_recording_slowdown: f64,
    telemetry_events_recorded: u64,
    scenarios: Vec<Scenario>,
}

catnap_util::impl_to_json_struct!(PerfThroughput {
    host_parallelism,
    worklist_speedup,
    e2e_light_gated_speedup,
    telemetry_recording_slowdown,
    telemetry_events_recorded,
    scenarios,
});

/// Light deterministic traffic on one gated 8x8 subnet, driven at the
/// `Network` API the way the policy layer drives it: a single-flit
/// packet roughly every `gap` cycles (waking the source on demand), a
/// periodic local-idle sleep scan over all nodes (policies evaluate on
/// a window, not every cycle), ejection drained into a reused buffer.
/// No RNG, so the forced-full and fast runs are the same simulation.
fn run_network_timed(scenario: &str, gap: u64, warmup: u64, measure: u64, force_full: bool) -> Scenario {
    let mut net = Network::new(NetworkConfig::with_width(128).gating_enabled(true));
    net.set_force_full_step(force_full);
    let nodes = net.dims().num_nodes() as u64;
    let mut eject = Vec::new();
    let mut pending: Option<(NodeId, NodeId)> = None;
    let mut n = 0u64;
    let mut drive = |net: &mut Network, cycle: u64| {
        if cycle.is_multiple_of(gap) {
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
    let hops0 = net.total_activity().link_flits;
    let pkts0 = net.stats().packets_ejected;
    let start = Instant::now();
    for c in warmup..warmup + measure {
        drive(&mut net, c);
    }
    let wall = start.elapsed();
    black_box(net.cycle());
    let hops = net.total_activity().link_flits - hops0;
    let pkts = net.stats().packets_ejected - pkts0;
    let secs = wall.as_secs_f64().max(1e-12);
    Scenario {
        scenario: scenario.to_string(),
        cycles: measure,
        wall_ns: wall.as_nanos() as u64,
        cycles_per_sec: measure as f64 / secs,
        flit_hops_per_sec: hops as f64 / secs,
        packets_delivered: pkts,
    }
}

/// Runs `measure` cycles of uniform-random traffic after `warmup`
/// untimed cycles and reports the observed throughput.
fn run_timed(
    scenario: &str,
    cfg: MultiNocConfig,
    offered: f64,
    warmup: u64,
    measure: u64,
    force_full: bool,
) -> Scenario {
    let mut net = MultiNoc::new(cfg);
    net.set_force_full_step(force_full);
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, offered, 512, net.dims(), 7);
    for _ in 0..warmup {
        load.drive(&mut net);
        net.step();
    }
    let before = net.snapshot();
    let start = Instant::now();
    for _ in 0..measure {
        load.drive(&mut net);
        net.step();
    }
    let wall = start.elapsed();
    let after = net.snapshot();
    black_box(net.cycle());
    let window = after.delta(&before);
    let hops: u64 = window.activity_per_subnet.iter().map(|a| a.link_flits).sum();
    let secs = wall.as_secs_f64().max(1e-12);
    Scenario {
        scenario: scenario.to_string(),
        cycles: measure,
        wall_ns: wall.as_nanos() as u64,
        cycles_per_sec: measure as f64 / secs,
        flit_hops_per_sec: hops as f64 / secs,
        packets_delivered: window.delivered_packets,
    }
}

/// [`run_timed`] with [`RecordingSink`]s on every subnet and the policy
/// layer: the full-fat telemetry cost (event construction + Vec pushes),
/// to set against the statically-erased `NopSink` default. Returns the
/// scenario and the number of events captured over warmup + measure.
fn run_timed_recording(
    scenario: &str,
    cfg: MultiNocConfig,
    offered: f64,
    warmup: u64,
    measure: u64,
) -> (Scenario, u64) {
    let mut net = MultiNoc::with_sinks(cfg, |_| RecordingSink::new());
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, offered, 512, net.dims(), 7);
    for _ in 0..warmup {
        load.drive(&mut net);
        net.step();
    }
    let before = net.snapshot();
    let start = Instant::now();
    for _ in 0..measure {
        load.drive(&mut net);
        net.step();
    }
    let wall = start.elapsed();
    let after = net.snapshot();
    black_box(net.cycle());
    let window = after.delta(&before);
    let hops: u64 = window.activity_per_subnet.iter().map(|a| a.link_flits).sum();
    let secs = wall.as_secs_f64().max(1e-12);
    let events = net.take_trace().num_events() as u64;
    let s = Scenario {
        scenario: scenario.to_string(),
        cycles: measure,
        wall_ns: wall.as_nanos() as u64,
        cycles_per_sec: measure as f64 / secs,
        flit_hops_per_sec: hops as f64 / secs,
        packets_delivered: window.delivered_packets,
    };
    (s, events)
}

fn main() {
    print_banner(
        "perf_throughput",
        "simulator cycles/sec and speedups vs in-run baselines",
    );

    let host_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64;

    // --- Worklist speedup at the Network hot loop ---
    let hot_full = run_network_timed("hotloop_light_gated_full_step", 48, 2_000, 40_000, true);
    let hot_fast = run_network_timed("hotloop_light_gated_worklist", 48, 2_000, 40_000, false);
    assert_eq!(
        hot_full.packets_delivered, hot_fast.packets_delivered,
        "fast path must be observably identical to the full step"
    );
    let worklist_speedup = hot_fast.cycles_per_sec / hot_full.cycles_per_sec;

    // --- End-to-end: the same fast path through the whole MultiNoc ---
    // At 0.01 packets/node/cycle with RCS gating, subnets 1-3 sleep and
    // most routers of subnet 0 are drained; the remaining per-cycle cost
    // is the policy/NI/detector layer, so this ratio is Amdahl-bounded.
    let gated = || MultiNocConfig::catnap_4x128().gating(true).seed(7);
    let full = run_timed("e2e_light_gated_full_step", gated(), 0.01, 1_000, 20_000, true);
    let fast = run_timed("e2e_light_gated_worklist", gated(), 0.01, 1_000, 20_000, false);
    assert_eq!(
        full.packets_delivered, fast.packets_delivered,
        "fast path must be observably identical to the full step"
    );
    let e2e_light_gated_speedup = fast.cycles_per_sec / full.cycles_per_sec;

    // --- Busy subnets: every subnet carrying traffic ---
    // Round-robin selection at a moderate load keeps every subnet busy,
    // ungated and gated. Best of three per leg, interleaved, so host
    // drift over the ~0.3 s window lands on both legs evenly.
    let busy = || MultiNocConfig::catnap_4x128().selector(SelectorKind::RoundRobin).seed(7);
    let mut busy_4subnet = run_timed("busy_4subnet", busy(), 0.20, 500, 6_000, false);
    let mut busy_gated = run_timed("busy_gated", busy().gating(true), 0.20, 500, 6_000, false);
    for _ in 0..2 {
        let b = run_timed("busy_4subnet", busy(), 0.20, 500, 6_000, false);
        if b.cycles_per_sec > busy_4subnet.cycles_per_sec {
            busy_4subnet = b;
        }
        let g = run_timed("busy_gated", busy().gating(true), 0.20, 500, 6_000, false);
        if g.cycles_per_sec > busy_gated.cycles_per_sec {
            busy_gated = g;
        }
    }

    // --- Telemetry overhead: recording sinks vs the NopSink default ---
    // `MultiNoc::new` elaborates to `MultiNoc<NopSink>`, so the
    // `e2e_light_gated_worklist` scenario above IS the disabled-telemetry
    // baseline (every `if S::ENABLED` guard is compiled out);
    // tests/perf_smoke.rs holds that build to the pre-telemetry floor.
    // This scenario pays the full recording cost instead.
    let (rec, telemetry_events_recorded) =
        run_timed_recording("e2e_light_gated_recording_sink", gated(), 0.01, 1_000, 20_000);
    assert_eq!(
        fast.packets_delivered, rec.packets_delivered,
        "recording sinks must not perturb the simulation"
    );
    let telemetry_recording_slowdown = fast.cycles_per_sec / rec.cycles_per_sec;

    let scenarios = vec![hot_full, hot_fast, full, fast, busy_4subnet, busy_gated, rec];
    let mut table = Table::new(["scenario", "cycles", "Mcycles/s", "Mflit-hops/s"]);
    for s in &scenarios {
        table.row([
            s.scenario.clone(),
            s.cycles.to_string(),
            format!("{:.3}", s.cycles_per_sec / 1e6),
            format!("{:.3}", s.flit_hops_per_sec / 1e6),
        ]);
    }
    table.print();
    println!("\nhost parallelism:         {host_parallelism}");
    println!("worklist speedup:         {worklist_speedup:.2}x (hot loop, target >= 3x)");
    println!("e2e light-gated speedup:  {e2e_light_gated_speedup:.2}x (Amdahl-bounded)");
    println!(
        "telemetry recording cost: {telemetry_recording_slowdown:.2}x slowdown \
         ({telemetry_events_recorded} events; NopSink default pays none of it)"
    );

    let report = PerfThroughput {
        host_parallelism,
        worklist_speedup,
        e2e_light_gated_speedup,
        telemetry_recording_slowdown,
        telemetry_events_recorded,
        scenarios,
    };
    emit_json("perf_throughput", &report);
}
