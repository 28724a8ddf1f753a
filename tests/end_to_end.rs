//! Cross-crate integration tests: packets submitted through the full
//! Multi-NoC stack (NI → subnet selection → routers → ejection) are all
//! delivered, exactly once, in order per (source, destination, subnet).

use catnap_repro::catnap::{MultiNoc, MultiNocConfig, SelectorKind};
use catnap_repro::traffic::generator::PacketSink;
use catnap_repro::traffic::{SyntheticPattern, SyntheticWorkload};

fn drain(net: &mut MultiNoc, max_cycles: u64) {
    for _ in 0..max_cycles {
        if net.packets_outstanding() == 0 {
            return;
        }
        net.step();
    }
    panic!(
        "network failed to drain: {} packets outstanding",
        net.packets_outstanding()
    );
}

fn run_and_check(cfg: MultiNocConfig, rate: f64, cycles: u64, seed: u64) {
    let mut net = MultiNoc::new(cfg);
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, net.dims(), seed);
    for _ in 0..cycles {
        load.drive(&mut net);
        net.step();
    }
    drain(&mut net, 200_000);
    let report = net.finish();
    assert_eq!(
        report.packets_generated, report.packets_delivered,
        "every generated packet must be delivered"
    );
    assert!(report.packets_generated > 0);
}

#[test]
fn all_packets_delivered_single_noc() {
    run_and_check(MultiNocConfig::single_noc_512b(), 0.1, 3_000, 1);
}

#[test]
fn all_packets_delivered_catnap_multi() {
    run_and_check(MultiNocConfig::catnap_4x128(), 0.1, 3_000, 2);
}

#[test]
fn all_packets_delivered_with_catnap_gating() {
    run_and_check(MultiNocConfig::catnap_4x128().gating(true), 0.05, 3_000, 3);
}

#[test]
fn all_packets_delivered_with_local_idle_gating() {
    run_and_check(MultiNocConfig::single_noc_512b().gating(true), 0.05, 3_000, 4);
}

#[test]
fn all_packets_delivered_round_robin_gated() {
    run_and_check(
        MultiNocConfig::catnap_4x128().selector(SelectorKind::RoundRobin).gating(true),
        0.05,
        3_000,
        5,
    );
}

#[test]
fn all_packets_delivered_at_saturation() {
    run_and_check(MultiNocConfig::catnap_4x128().gating(true), 0.5, 1_500, 6);
}

#[test]
fn all_packets_delivered_8_subnets() {
    run_and_check(MultiNocConfig::bandwidth_equivalent(8), 0.2, 1_500, 7);
}

#[test]
fn delivery_tracking_sees_every_tail() {
    let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().gating(true));
    let mut load = SyntheticWorkload::new(SyntheticPattern::Transpose, 0.08, 512, net.dims(), 8);
    let (mut buf, mut tails) = (Vec::new(), 0u64);
    for cycle in 0..105_000 {
        if cycle < 5_000 {
            load.drive(&mut net);
        } else if net.packets_outstanding() == 0 {
            break;
        }
        net.step();
        net.drain_delivered_into(&mut buf);
        tails += buf.len() as u64;
        buf.clear();
    }
    let report = net.finish();
    assert_eq!(
        report.packets_delivered, report.packets_generated,
        "network failed to drain"
    );
    assert_eq!(tails, report.packets_delivered);
}

#[test]
fn latency_at_zero_load_matches_pipeline_model() {
    // One lone packet crossing the full diagonal: ~3 cycles/hop plus
    // injection/ejection overhead, no queueing.
    let mut net = MultiNoc::new(MultiNocConfig::single_noc_512b());
    let dims = net.dims();
    let desc = catnap_repro::noc::PacketDescriptor {
        id: catnap_repro::noc::PacketId(0),
        src: catnap_repro::noc::NodeId(0),
        dst: catnap_repro::noc::NodeId((dims.num_nodes() - 1) as u16),
        bits: 512,
        class: catnap_repro::noc::MessageClass::Synthetic,
        created_cycle: 0,
    };
    net.submit(desc);
    drain(&mut net, 500);
    let report = net.finish();
    let hops = f64::from(dims.hop_distance(
        catnap_repro::noc::NodeId(0),
        catnap_repro::noc::NodeId((dims.num_nodes() - 1) as u16),
    ));
    let lower = 3.0 * hops;
    assert!(
        report.avg_packet_latency >= lower && report.avg_packet_latency <= lower + 15.0,
        "zero-load latency {} vs pipeline bound {}",
        report.avg_packet_latency,
        lower
    );
}

#[test]
fn heavier_load_never_reduces_delivered_throughput_below_offered_pre_saturation() {
    for &rate in &[0.05, 0.15, 0.25] {
        let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128());
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, net.dims(), 9);
        for _ in 0..6_000 {
            load.drive(&mut net);
            net.step();
        }
        let report = net.finish();
        let accepted = report.accepted_packets_per_node_cycle;
        assert!(
            accepted > rate * 0.9,
            "accepted {accepted} must track offered {rate} below saturation"
        );
    }
}
