//! Figure 6: throughput and latency of Single-NoC vs bandwidth-equivalent
//! Multi-NoC designs (1NT-512b, 2NT-256b, 4NT-128b, 8NT-64b), uniform
//! random traffic, 512-bit packets, round-robin subnet selection, no
//! power gating.
//!
//! Paper result: up to four subnets match the Single-NoC's throughput;
//! eight subnets lose some throughput (8 flits/packet under wormhole
//! switching), and low-load latency rises a few cycles with subnet count
//! (serialization latency).

use catnap::{MultiNocConfig, SelectorKind};
use catnap_bench::{
    emit_csv_timeline, emit_json, emit_trace, latency_sweep, print_banner, run_synthetic, trace_synthetic, Table,
};
use catnap_traffic::SyntheticPattern;

fn cfg(n: usize) -> MultiNocConfig {
    MultiNocConfig::bandwidth_equivalent(n).selector(SelectorKind::RoundRobin)
}

fn main() {
    print_banner(
        "Figure 6",
        "throughput (a) and latency vs load (b) for 1/2/4/8-subnet designs",
    );
    let loads = [0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45];
    let mut all = Vec::new();

    // (a) saturation throughput: accepted at a past-saturation offer.
    let mut ta = Table::new(["config", "flits/packet", "saturation throughput (pkts/node/cy)"]);
    for n in [1usize, 2, 4, 8] {
        let c = cfg(n);
        let fpp = c.flits_per_packet(512);
        let p = run_synthetic(c, SyntheticPattern::UniformRandom, 0.6, 512, 4_000, 8_000, 1);
        ta.row([p.config.clone(), fpp.to_string(), format!("{:.3}", p.accepted)]);
        all.push(p);
    }
    ta.print();

    // (b) latency vs offered load.
    println!();
    let mut tb = Table::new(["offered", "1NT-512b", "2NT-256b", "4NT-128b", "8NT-64b"]);
    let sweeps: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| latency_sweep(&cfg(n), SyntheticPattern::UniformRandom, &loads, 512, 3_000, 6_000, 2))
        .collect();
    for (i, &l) in loads.iter().enumerate() {
        tb.row([
            format!("{l:.2}"),
            format!("{:.1}", sweeps[0][i].latency),
            format!("{:.1}", sweeps[1][i].latency),
            format!("{:.1}", sweeps[2][i].latency),
            format!("{:.1}", sweeps[3][i].latency),
        ]);
    }
    tb.print();
    for s in sweeps {
        all.extend(s);
    }
    println!("\npaper: 4 subnets ~match Single-NoC throughput; 8 subnets lose some;");
    println!("low-load latency grows with flits/packet (serialization)");
    emit_json("fig06", &all);

    // Companion artifact: a short gated 4NT-128b run at low load with
    // recording sinks, exported as a Chrome trace (open in
    // chrome://tracing / Perfetto) and a per-epoch CSV power timeline —
    // see EXPERIMENTS.md "Power-state timeline".
    let traced_cfg = MultiNocConfig::catnap_4x128().gating(true);
    let trace = trace_synthetic(traced_cfg, SyntheticPattern::UniformRandom, 0.05, 512, 3_000, 2);
    emit_trace("fig06_4nt128_gated", &trace);
    emit_csv_timeline("fig06_4nt128_gated", &trace, 150);
}
