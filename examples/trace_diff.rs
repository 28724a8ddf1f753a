//! Compare two telemetry artifacts and report where they stopped
//! agreeing: the first divergent cycle (or CSV line) plus per-kind
//! event-count deltas. The regression companion of the simulator's
//! bit-identity promise — point it at the timelines of a suspect run and
//! a known-good baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trace_diff -- a.csv b.csv
//! cargo run --release --example trace_diff -- --demo
//! ```
//!
//! With `--demo` it generates the comparison in-process for both gating
//! granularities: `4NT-128b-PG` (Catnap RCS gating, one gating unit per
//! router) and `4NT-128b` under `LocalIdlePort` (five gating units per
//! router, one per input port) at a near-idle load, and `4NT-128b-PG`
//! again and `4NT-128b` under `LocalIdle` (router units) at 0.08, where
//! LCS bits flip, RCS rises, and subnets 1–3 wake and re-gate. Each
//! design runs twice, once stepped through the reference oracle
//! (`MultiNoc::step_reference`), which sweeps every node in the gating
//! and detector phases, and once through the production event-driven
//! `step`, which leaves idle routers untouched across the long
//! all-drained stretches (so the sleep guard reads most idle counts from
//! timestamps of routers that have not run for many cycles) and visits
//! only the gating and detector worklists; the demo diffs the full event
//! traces and the exported CSV timelines (both must come out identical
//! for every design).
//! Exits 0 when identical, 1 on any divergence, 2 on usage errors.

use catnap_repro::catnap::{GatingPolicy, MultiNoc, MultiNocConfig};
use catnap_repro::telemetry::{diff_csv_timelines, diff_traces, power_timeline_csv, RecordingSink};
use catnap_repro::traffic::{SyntheticPattern, SyntheticWorkload};
use std::process::ExitCode;

const DEMO_CYCLES: u64 = 20_000;
const DEMO_EPOCH: u64 = 512;

/// Runs `cfg` at `rate` through the oracle and through `step`, prints
/// the router runs `step` made against the oracle's router-cycles and
/// both diffs, and returns whether both are identical.
fn demo_pair(name: &str, cfg: MultiNocConfig, rate: f64) -> bool {
    println!("== {name}, load {rate} ==");
    let load = |dims| SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, dims, 23);
    let run = |reference: bool| {
        let mut net = MultiNoc::with_sinks(cfg.clone(), |_| RecordingSink::new());
        let mut l = load(net.dims());
        for _ in 0..DEMO_CYCLES {
            l.drive(&mut net);
            if reference {
                net.step_reference();
            } else {
                net.step();
            }
        }
        net
    };
    let mut baseline = run(true);
    let mut event = run(false);
    let ta = baseline.take_trace();
    let tb = event.take_trace();

    let router_cycles = event.dims().num_nodes() as u64 * DEMO_CYCLES;
    for s in 0..event.num_subnets() {
        println!(
            "subnet {s}: {} router runs of {router_cycles} router-cycles",
            event.subnet(s).sched_stats().router_runs
        );
    }

    let trace_diff = diff_traces(&ta, &tb);
    println!("trace diff:    {trace_diff}");
    let csv_diff = diff_csv_timelines(
        &power_timeline_csv(&ta, DEMO_EPOCH),
        &power_timeline_csv(&tb, DEMO_EPOCH),
    );
    println!("timeline diff: {csv_diff}");
    trace_diff.is_identical() && csv_diff.is_identical()
}

fn demo() -> ExitCode {
    let catnap = || MultiNocConfig::catnap_4x128().gating(true);
    let policy = |policy| MultiNocConfig::catnap_4x128().gating_policy(policy);
    let designs = [
        ("4NT-128b-PG, CatnapRcs (router units)", catnap(), 0.0005),
        (
            "4NT-128b, LocalIdlePort (port units)",
            policy(GatingPolicy::LocalIdlePort),
            0.0005,
        ),
        ("4NT-128b-PG, CatnapRcs (router units)", catnap(), 0.08),
        (
            "4NT-128b, LocalIdle (router units)",
            policy(GatingPolicy::LocalIdle),
            0.08,
        ),
    ];
    let mut identical = true;
    for (name, cfg, rate) in designs {
        identical &= demo_pair(name, cfg.seed(23), rate);
    }
    if identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag] if flag == "--demo" => demo(),
        [path_a, path_b] => {
            let read = |p: &str| match std::fs::read_to_string(p) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("trace_diff: cannot read {p}: {e}");
                    None
                }
            };
            let (Some(a), Some(b)) = (read(path_a), read(path_b)) else {
                return ExitCode::from(2);
            };
            let d = diff_csv_timelines(&a, &b);
            println!("{d}");
            if d.is_identical() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: trace_diff <a.csv> <b.csv>  (or --demo)");
            ExitCode::from(2)
        }
    }
}
