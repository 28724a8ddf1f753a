//! Differential suite for the event-driven busy-path core.
//!
//! `Network::step` is event/wakeup scheduled: a cycle only touches
//! routers that have work, receive a delivery or a wake request, or
//! whose wake-up completes, and leaves every other router untouched
//! (its gating units keep time as timestamps). The contract is *bit-identity* with the per-cycle oracle
//! `step_reference` — the scan-everything loop, which also runs the
//! independently-implemented reference allocator — so the twins
//! compared here are two genuinely distinct code paths, not one
//! implementation diffed against itself.
//!
//! Four layers of evidence: the six pinned determinism goldens (stats
//! fingerprints, full snapshots, per-packet latency histograms), the
//! recording-telemetry trace and CSV-timeline diffs under congested
//! (LCS and RCS bits flipping), moderate, near-idle and bursty
//! trace-driven traffic, protocol-class packets
//! through the class-restricted VC masks, and a randomized property
//! over topology / subnet count / buffer shape / gating policy /
//! congestion metric under bursty and saturating loads, which reports
//! the first divergent cycle on failure.

use catnap_repro::catnap::{CongestionMetric, GatingPolicy, MetricKind, MultiNoc, MultiNocConfig, SelectorKind};
use catnap_repro::noc::{MeshDims, MessageClass, NodeId, PacketDescriptor, PacketId, SchedStats};
use catnap_repro::telemetry::{diff_csv_timelines, diff_traces, power_timeline_csv, Event, RecordingSink, Sink, Trace};
use catnap_repro::traffic::schedule::LoadSchedule;
use catnap_repro::traffic::trace::{TracePlayer, TraceRecord};
use catnap_repro::traffic::{PacketSink, SyntheticPattern, SyntheticWorkload};
use catnap_repro::util::check::Checker;
use catnap_repro::util::rng::SimRng;
use std::collections::BTreeMap;

/// Per-packet latency histogram (exact cycle resolution): drains the
/// delivered tail flits each cycle so the delivery cycle is known, and
/// buckets `delivery - created`.
type LatencyHistogram = BTreeMap<u64, u64>;

/// One cycle through the production step or through the oracle.
fn step<S: Sink>(net: &mut MultiNoc<S>, reference: bool) {
    if reference {
        net.step_reference();
    } else {
        net.step();
    }
}

/// Runs the golden scenario for `cycles` with the given step and returns
/// everything the comparison needs.
fn golden_run(selector: SelectorKind, gating: bool, cycles: u64, reference: bool) -> (MultiNoc, LatencyHistogram) {
    let cfg = MultiNocConfig::catnap_4x128().selector(selector).gating(gating).seed(7);
    let mut net = MultiNoc::new(cfg);
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.08, 512, net.dims(), 7);
    let mut histogram = LatencyHistogram::new();
    let mut tails = Vec::new();
    for _ in 0..cycles {
        load.drive(&mut net);
        step(&mut net, reference);
        let now = net.cycle();
        net.drain_delivered_into(&mut tails);
        for tail in tails.drain(..) {
            *histogram.entry(now.saturating_sub(tail.created_cycle)).or_insert(0) += 1;
        }
    }
    (net, histogram)
}

/// All six pinned determinism goldens, replayed through the event
/// scheduler against the reference-step twin: stats fingerprints, full
/// snapshots, final reports and per-packet latency histograms must be
/// bit-identical, and the scheduler must actually have engaged.
#[test]
fn goldens_bit_identical_eventdriven_vs_full_step() {
    let pinned = [
        (SelectorKind::RoundRobin, true, (7416, 290007, 325)),
        (SelectorKind::RoundRobin, false, (7502, 167583, 0)),
        (SelectorKind::Random, true, (7430, 288557, 331)),
        (SelectorKind::Random, false, (7504, 168413, 0)),
        (SelectorKind::CatnapPriority, true, (7443, 248092, 222)),
        (SelectorKind::CatnapPriority, false, (7447, 225011, 99)),
    ];
    for (selector, gating, want) in pinned {
        let (mut full, hist_full) = golden_run(selector, gating, 1_500, true);
        let (mut event, hist_event) = golden_run(selector, gating, 1_500, false);

        let scope = format!("{selector:?} gating={gating}");
        assert_eq!(event.snapshot(), full.snapshot(), "snapshots diverged for {scope}");
        assert_eq!(hist_event, hist_full, "latency histograms diverged for {scope}");
        let runs: u64 = (0..event.num_subnets())
            .map(|s| event.subnet(s).sched_stats().router_runs)
            .sum();
        assert!(runs > 0, "event-driven run never engaged the scheduler for {scope}");

        let report = event.finish();
        assert_eq!(report, full.finish(), "final reports diverged for {scope}");
        let snap = event.snapshot();
        let got = (report.packets_delivered, snap.latency_sum, snap.or_switch_events);
        if std::env::var_os("CATNAP_PRINT_GOLDENS").is_some() {
            println!("({selector:?}, {gating}, {got:?}),");
        } else {
            assert_eq!(got, want, "event-driven stepping changed the golden for {scope}");
        }
    }
}

/// Runs `cfg` for `cycles` under the production step and under the
/// oracle, both with recording telemetry on every scope and each fed by
/// its own copy of `traffic`: snapshots, reports, event traces and
/// exported CSV timelines must all be identical. Divergences go through
/// the trace-diff tooling so a failure names the first bad cycle.
/// Returns the oracle's trace.
fn assert_traces_and_timelines_match<D>(
    name: &str,
    cfg: MultiNocConfig,
    cycles: u64,
    traffic: impl Fn(MeshDims) -> D,
) -> Trace
where
    D: FnMut(&mut MultiNoc<RecordingSink>),
{
    let run = |reference: bool| {
        let mut net = MultiNoc::with_sinks(cfg.clone(), |_| RecordingSink::new());
        let mut drive = traffic(net.dims());
        for _ in 0..cycles {
            drive(&mut net);
            step(&mut net, reference);
        }
        let trace = net.take_trace();
        (net.snapshot(), net.finish(), trace)
    };
    let (snap_full, report_full, trace_full) = run(true);
    let (snap_event, report_event, trace_event) = run(false);

    assert!(snap_full.delivered_packets > 0, "{name}: no traffic delivered");
    assert_eq!(snap_event, snap_full, "{name}: snapshots diverged");
    assert_eq!(report_event, report_full, "{name}: final reports diverged");
    let d = diff_traces(&trace_full, &trace_event);
    assert!(d.is_identical(), "{name}: event traces diverged:\n{d}");
    for epoch in [64u64, 512, 4096] {
        let cd = diff_csv_timelines(
            &power_timeline_csv(&trace_full, epoch),
            &power_timeline_csv(&trace_event, epoch),
        );
        assert!(
            cd.is_identical(),
            "{name}: CSV timelines diverged at epoch {epoch}:\n{cd}"
        );
    }
    trace_full
}

/// The event-driven twin must produce byte-identical event traces and
/// CSV timelines under five traffic shapes: the golden load (0.08), at
/// which BFM flips LCS bits and the OR networks flip RCS bits; the Delay
/// metric at a load that flips its bits at window ends; a moderate load
/// that keeps subnet 0 busy; a near-idle load whose long all-drained
/// stretches leave every router untouched for hundreds of cycles; and a
/// bursty hand-built trace whose 2,400-cycle silences leave the whole
/// system drained between bursts. The first two traces must hold LCS and
/// RCS events, so a wrong detector or OR-network skip shows in the diff.
#[test]
fn eventdriven_preserves_traces_and_timelines() {
    let delay = MultiNocConfig::catnap_4x128().metric(CongestionMetric::paper_default(MetricKind::Delay));
    let congested = [("BFM", MultiNocConfig::catnap_4x128(), 0.08), ("Delay", delay, 0.30)];
    for (metric, cfg, rate) in congested {
        let trace = assert_traces_and_timelines_match(
            &format!("{metric} at {rate} load"),
            cfg.gating(true).seed(7),
            1_500,
            |dims| {
                let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, dims, 7);
                move |net: &mut MultiNoc<RecordingSink>| load.drive(net)
            },
        );
        let count = |kind: fn(&Event) -> bool| trace.policy.iter().filter(|&e| kind(e)).count();
        let lcs = count(|e| matches!(e, Event::Lcs { .. }));
        let rcs = count(|e| matches!(e, Event::Rcs { .. }));
        assert!(lcs > 0 && rcs > 0, "{metric}: {lcs} LCS and {rcs} RCS events");
    }
    for (rate, seed, cycles) in [(0.02, 31, 6_000), (0.0005, 23, 20_000)] {
        assert_traces_and_timelines_match(
            &format!("{rate} load"),
            MultiNocConfig::catnap_4x128().gating(true).seed(seed),
            cycles,
            |dims| {
                let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, dims, seed);
                move |net: &mut MultiNoc<RecordingSink>| load.drive(net)
            },
        );
    }

    let mut records = Vec::new();
    for burst in 0..6u64 {
        let start = burst * 2_400;
        for i in 0..5u64 {
            let src = ((11 * i + 3 * burst) % 64) as u16;
            records.push(TraceRecord {
                cycle: start + i,
                src,
                dst: (src + 17) % 64,
                bits: 512,
                class: MessageClass::Synthetic,
            });
        }
    }
    assert_traces_and_timelines_match(
        "bursty trace",
        MultiNocConfig::catnap_4x128().gating(true),
        15_000,
        |_| {
            let mut player = TracePlayer::new(records.clone());
            move |net: &mut MultiNoc<RecordingSink>| player.drive(net)
        },
    );
}

/// The oracle runs no scheduler at all: a run stepped only by
/// `step_reference` must finish with every subnet's scheduler counters
/// at zero — no router runs, no wakeup pops — while producing results
/// identical to the scheduled run, which leaves routers out: fewer
/// router runs than routers times cycles.
#[test]
fn step_reference_bypasses_scheduler_entirely() {
    const CYCLES: u64 = 4_000;
    let cfg = MultiNocConfig::catnap_4x128().gating(true).seed(13);
    let run = |reference: bool| {
        let mut net = MultiNoc::new(cfg.clone());
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.03, 512, net.dims(), 13);
        let mut tails = Vec::new();
        for _ in 0..CYCLES {
            load.drive(&mut net);
            step(&mut net, reference);
            net.drain_delivered_into(&mut tails);
        }
        let sched: Vec<SchedStats> = (0..net.num_subnets()).map(|s| net.subnet(s).sched_stats()).collect();
        (tails, net.snapshot(), net.finish(), sched)
    };
    let (tails_full, snap_full, report_full, sched_full) = run(true);
    let (tails_event, snap_event, report_event, sched_event) = run(false);
    let router_cycles = cfg.dims.num_nodes() as u64 * CYCLES;

    for (s, stats) in sched_full.iter().enumerate() {
        assert_eq!(
            *stats,
            SchedStats::default(),
            "the reference step must leave subnet {s}'s scheduler untouched"
        );
    }
    assert!(
        sched_event.iter().any(|s| s.router_runs > 0 && s.router_runs < router_cycles),
        "scheduled twin must actually leave out and run routers: {sched_event:?}"
    );
    assert_eq!(tails_event, tails_full, "ejection streams diverged");
    assert_eq!(snap_event, snap_full);
    assert_eq!(report_event, report_full);
}

/// A drained router runs only on the cycle its wake-up completes: a wake
/// request that starts nothing schedules nothing, and a started wake-up
/// waits in the waking set instead of running at once. So at router
/// granularity every idle run is a wake-up pop. At port granularity a
/// popped router may have taken a delivery on another port in the same
/// cycle, so it can run with work: idle runs are at most the pops.
#[test]
fn drained_routers_run_only_when_a_wake_up_completes() {
    for (policy, exact) in [(GatingPolicy::CatnapRcs, true), (GatingPolicy::LocalIdlePort, false)] {
        let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().gating_policy(policy).seed(7));
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.08, 512, net.dims(), 7);
        for _ in 0..1_500 {
            load.drive(&mut net);
            net.step();
        }
        let (idle, pops) = (0..net.num_subnets())
            .map(|s| net.subnet(s).sched_stats())
            .fold((0, 0), |(i, p), st| (i + st.idle_runs, p + st.wakeup_pops));
        assert!(pops > 0, "{policy:?}: no wake-up completed");
        if exact {
            assert_eq!(idle, pops, "{policy:?}: idle runs that completed no wake-up");
        } else {
            assert!(idle <= pops, "{policy:?}: {idle} idle runs against {pops} wake-up pops");
        }
    }
}

/// Coherence-protocol traffic: `Request` and `Forward` packets may only
/// use their own VC and `Response` packets only theirs (at two VCs,
/// requests and forwards share VC 0), so the allocators' class masks
/// decide every downstream VC. Only the closed-loop `System` sends these
/// classes in production; here the same shapes — 1-flit 72-bit control
/// packets and 5-flit 584-bit data packets on 128-bit subnets — enter
/// through `PacketSink::submit` at a load that keeps the restricted VCs
/// contended, and the production step must match the oracle.
#[test]
fn protocol_class_traffic_matches_the_oracle() {
    const CYCLES: u64 = 3_000;
    for (vcs, seed) in [(2usize, 41u64), (3, 42), (4, 43)] {
        let run = |reference: bool| {
            let mut cfg = MultiNocConfig::catnap_4x128().gating(true).seed(seed);
            cfg.vcs = vcs;
            let mut net = MultiNoc::new(cfg);
            let nodes = net.dims().num_nodes() as u64;
            let mut rng = SimRng::new(seed);
            let mut next_id = 0u64;
            let mut tails = Vec::new();
            for _ in 0..CYCLES {
                for src in 0..nodes {
                    if !rng.gen_bool(0.06) {
                        continue;
                    }
                    let class = *rng.choose(&[MessageClass::Request, MessageClass::Forward, MessageClass::Response]);
                    let dst = (src + 1 + rng.u64_below(nodes - 1)) % nodes;
                    let desc = PacketDescriptor {
                        id: PacketId(next_id),
                        src: NodeId::new(src as u16),
                        dst: NodeId::new(dst as u16),
                        bits: if class == MessageClass::Response { 584 } else { 72 },
                        class,
                        created_cycle: net.now(),
                    };
                    next_id += 1;
                    net.submit(desc);
                }
                step(&mut net, reference);
                net.drain_delivered_into(&mut tails);
            }
            (tails, net.snapshot(), net.finish())
        };
        let (tails_full, snap_full, report_full) = run(true);
        let (tails_event, snap_event, report_event) = run(false);

        for class in [MessageClass::Request, MessageClass::Forward, MessageClass::Response] {
            assert!(
                tails_full.iter().any(|t| t.tail.class == class),
                "{vcs} VCs: no {class:?} packet delivered"
            );
        }
        assert!(
            tails_full.iter().any(|t| t.tail.seq == 4),
            "{vcs} VCs: responses must be 5-flit packets"
        );
        assert_eq!(tails_event, tails_full, "{vcs} VCs: ejection streams diverged");
        assert_eq!(snap_event, snap_full, "{vcs} VCs: snapshots diverged");
        assert_eq!(report_event, report_full, "{vcs} VCs: final reports diverged");
    }
}

/// Input of the randomized differential property.
#[derive(Debug)]
struct PropInput {
    dims: MeshDims,
    subnets: usize,
    vcs: usize,
    vc_depth: usize,
    selector: SelectorKind,
    policy: GatingPolicy,
    metric: MetricKind,
    /// Peak (burst) offered load; saturating for the narrow widths used.
    on_rate: f64,
    /// Valley offered load (near-idle so the mesh drains and gates).
    off_rate: f64,
    seed: u64,
    /// Wake-up latency: at 1, a wake-up a ping starts on a router still
    /// ahead in phase-2 order completes in the same cycle, so that
    /// router joins the cycle's run set; at 10 (the paper's) it waits in
    /// the waking set.
    t_wakeup: u32,
}

/// Builds the config for one property case.
fn prop_cfg(input: &PropInput) -> MultiNocConfig {
    let mut cfg = MultiNocConfig::bandwidth_equivalent(input.subnets)
        .selector(input.selector)
        .gating_policy(input.policy)
        .metric(CongestionMetric::paper_default(input.metric))
        .seed(input.seed);
    cfg.dims = input.dims;
    cfg.vcs = input.vcs;
    cfg.vc_depth = input.vc_depth;
    cfg.gating_cfg.t_wakeup = input.t_wakeup;
    cfg
}

/// The bursty/saturating load for one property case: saturating bursts
/// alternating with near-idle valleys, so one run exercises hot-set
/// stepping, drain-out, gating, deferral and wake-up.
fn prop_load(input: &PropInput, dims: MeshDims) -> SyntheticWorkload {
    let schedule = LoadSchedule::square_wave(220, 380, input.on_rate, input.off_rate, 4);
    SyntheticWorkload::with_schedule(SyntheticPattern::UniformRandom, schedule, 512, dims, input.seed)
}

/// Re-runs both twins of a failing case cycle by cycle, comparing
/// snapshots after every cycle: the shrink step that turns "something
/// diverged after N cycles" into "the first divergent cycle is C".
fn first_divergent_cycle(input: &PropInput, cycles: u64) -> Option<u64> {
    let mut full = MultiNoc::new(prop_cfg(input));
    let mut event = MultiNoc::new(prop_cfg(input));
    let mut lf = prop_load(input, full.dims());
    let mut le = prop_load(input, event.dims());
    for c in 0..cycles {
        lf.drive(&mut full);
        full.step_reference();
        le.drive(&mut event);
        event.step();
        if event.snapshot() != full.snapshot() {
            return Some(c);
        }
    }
    None
}

/// Property: for arbitrary mesh shape, subnet count, buffer shape,
/// selector, gating policy, congestion metric and wake-up latency, the event-driven core
/// yields the same ejection stream, snapshot and final report as the
/// per-cycle oracle under a bursty, saturating load.
#[test]
fn prop_eventdriven_equals_percycle() {
    const CYCLES: u64 = 2_400;
    Checker::new("prop_eventdriven_equals_percycle").cases(10).run(
        |rng| PropInput {
            dims: *rng.choose(&[MeshDims::new(3, 3), MeshDims::new(4, 4), MeshDims::new(5, 3)]),
            subnets: *rng.choose(&[1usize, 2, 4]),
            vcs: *rng.choose(&[1usize, 2, 4, 8]),
            vc_depth: *rng.choose(&[1usize, 2, 3, 4, 8, 16]),
            selector: *rng.choose(&[
                SelectorKind::RoundRobin,
                SelectorKind::Random,
                SelectorKind::CatnapPriority,
            ]),
            policy: *rng.choose(&[
                GatingPolicy::None,
                GatingPolicy::LocalIdle,
                GatingPolicy::LocalIdlePort,
                GatingPolicy::CatnapRcs,
            ]),
            metric: *rng.choose(&[
                MetricKind::Bfm,
                MetricKind::Bfa,
                MetricKind::InjectionRate,
                MetricKind::IqOcc,
                MetricKind::Delay,
            ]),
            on_rate: 0.15 + rng.gen::<f64>() * 0.35,
            off_rate: rng.gen::<f64>() * 0.002,
            seed: rng.gen_range(0u64..10_000),
            t_wakeup: *rng.choose(&[1, 10]),
        },
        |input| {
            let run = |reference: bool| {
                let mut net = MultiNoc::new(prop_cfg(input));
                let mut load = prop_load(input, net.dims());
                let mut tails = Vec::new();
                for _ in 0..CYCLES {
                    load.drive(&mut net);
                    step(&mut net, reference);
                    net.drain_delivered_into(&mut tails);
                }
                (tails, net.snapshot(), net.finish())
            };
            let (tails_full, snap_full, report_full) = run(true);
            let (tails_event, snap_event, report_event) = run(false);
            if tails_event != tails_full || snap_event != snap_full || report_event != report_full {
                let at = first_divergent_cycle(input, CYCLES)
                    .map(|c| format!("first divergent cycle: {c}"))
                    .unwrap_or_else(|| {
                        "snapshots re-converged; divergence is in the ejection stream or final report".into()
                    });
                return Err(format!(
                    "event-driven twin diverged from per-cycle twin ({at}); \
                     snapshots: {snap_event:?} vs {snap_full:?}"
                ));
            }
            Ok(())
        },
    );
}
