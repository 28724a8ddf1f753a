//! Power-gating correctness invariants: gating may slow packets down but
//! must never lose, duplicate, or corrupt them; accounting identities
//! hold; subnet 0 is never gated under the Catnap policy.

use catnap_repro::catnap::{GatingPolicy, MultiNoc, MultiNocConfig};
use catnap_repro::noc::{Granularity, MeshDims, Network, NetworkConfig, NodeId};
use catnap_repro::traffic::{LoadSchedule, SyntheticPattern, SyntheticWorkload};

#[test]
fn subnet_zero_never_sleeps_under_catnap() {
    let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().gating(true));
    assert_eq!(net.config().gating_policy, GatingPolicy::CatnapRcs);
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.02, 512, net.dims(), 1);
    for _ in 0..4_000 {
        load.drive(&mut net);
        net.step();
        for node in net.dims().nodes() {
            assert!(
                !net.subnet(0).power_state(node).is_sleeping(),
                "subnet 0 router {node} must never be asleep"
            );
        }
    }
    // Higher subnets do sleep at this load.
    let (_, sleeping, _) = net.power_state_census();
    assert!(
        sleeping > 100,
        "higher-order subnets should be mostly asleep, got {sleeping}"
    );
}

#[test]
fn gating_disabled_means_everyone_active_forever() {
    let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128());
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.05, 512, net.dims(), 2);
    for _ in 0..2_000 {
        load.drive(&mut net);
        net.step();
    }
    let (active, sleeping, waking) = net.power_state_census();
    assert_eq!(active, 4 * 64);
    assert_eq!((sleeping, waking), (0, 0));
    let report = net.finish();
    assert_eq!(report.csc_fraction, 0.0);
    assert_eq!(report.sleep_transitions, 0);
}

#[test]
fn residency_partitions_time() {
    let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().gating(true));
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.04, 512, net.dims(), 3);
    for _ in 0..3_000 {
        load.drive(&mut net);
        net.step();
    }
    let snap = net.snapshot();
    for (s, g) in snap.gating_per_subnet.iter().enumerate() {
        let total = g.active_cycles + g.sleep_cycles + g.wakeup_cycles;
        assert_eq!(
            total,
            64 * snap.cycle,
            "subnet {s}: residency must partition router-cycles"
        );
        assert!(
            g.compensated_sleep_cycles <= g.sleep_cycles,
            "subnet {s}: CSC cannot exceed raw sleep cycles"
        );
    }
}

#[test]
fn csc_fraction_bounded() {
    let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().gating(true));
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.01, 512, net.dims(), 4);
    for _ in 0..5_000 {
        load.drive(&mut net);
        net.step();
    }
    let report = net.finish();
    assert!(report.csc_fraction > 0.5, "very low load must gate heavily");
    assert!(
        report.csc_fraction <= 0.75 + 1e-9,
        "subnet 0 always on bounds CSC at 75%"
    );
}

#[test]
fn finish_is_stable_with_power_report() {
    // finalize() (via finish) and compensated_at (via power_report) must
    // agree and not double-count open sleep periods.
    let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().gating(true));
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.02, 512, net.dims(), 5);
    for _ in 0..4_000 {
        load.drive(&mut net);
        net.step();
    }
    let power_before = net.power_report(catnap_repro::power::TechParams::catnap_32nm());
    let report = net.finish();
    let power_after = net.power_report(catnap_repro::power::TechParams::catnap_32nm());
    assert!((power_before.csc_fraction - report.csc_fraction).abs() < 0.02);
    assert!((power_after.csc_fraction - report.csc_fraction).abs() < 0.02);
    assert!(report.csc_fraction <= 0.75 + 1e-9);
}

#[test]
fn burst_after_deep_sleep_is_fully_absorbed() {
    // All higher subnets asleep, then a sudden saturation burst: no
    // packets may be lost and throughput must ramp.
    let schedule = LoadSchedule::piecewise(vec![(0, 0.005), (2_000, 0.35), (3_000, 0.005)]);
    let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().gating(true));
    let mut load = SyntheticWorkload::with_schedule(SyntheticPattern::UniformRandom, schedule, 512, net.dims(), 6);
    for _ in 0..3_000 {
        load.drive(&mut net);
        net.step();
    }
    for _ in 0..200_000 {
        if net.packets_outstanding() == 0 {
            break;
        }
        net.step();
    }
    let report = net.finish();
    assert_eq!(report.packets_generated, report.packets_delivered);
    assert!(report.sleep_transitions > 0);
}

#[test]
fn packet_injected_at_sleep_transition_is_still_delivered() {
    // Regression for the stranded-packet edge in the router wake path:
    // a packet whose head flit starts toward a router in the SAME cycle
    // that router enters sleep must still be delivered. Two mechanisms
    // cooperate: the allocator re-issues its one-shot wake ping while a
    // wormhole stays open toward a sleeping neighbour, and a freshly
    // woken router resets its idle counter so an eager gating controller
    // cannot re-gate it before the in-flight flit lands.
    let mut net = Network::new(
        NetworkConfig::paper()
            .dims(MeshDims::new(4, 4))
            .granularity(Granularity::Router),
    );
    // Idle out, then inject a corner-to-corner packet and, in the same
    // pre-step instant, gate every router on (and off) its path.
    for _ in 0..10 {
        net.step();
    }
    let flit = net.make_single_flit_packet(NodeId(0), NodeId(15));
    assert!(net.try_inject_flit(NodeId(0), 0, flit, net.cycle()));
    for node in net.dims().nodes() {
        net.request_sleep(node, 0); // refused where the guard says no
    }
    let (_, sleeping, _) = net.power_state_census();
    assert!(
        sleeping >= 14,
        "nearly all routers should gate at the transition instant, got {sleeping}"
    );
    // Run with a maximally eager controller: every cycle, re-gate any
    // router the guard allows. Without the idle-reset-on-wake fix this
    // re-gates just-woken routers and strands the packet forever.
    let mut ejected = Vec::new();
    for _ in 0..400 {
        net.step();
        ejected.extend(net.drain_ejected());
        for node in net.dims().nodes() {
            net.request_sleep(node, 0);
        }
    }
    assert_eq!(ejected.len(), 1, "packet stranded by sleep transition");
    assert_eq!(ejected[0].tail.dst, NodeId(15));
    assert_eq!(net.total_activity().ejected_flits, net.stats().flits_injected);
}

#[test]
fn wakeup_costs_show_up_in_latency_not_loss() {
    let gated = {
        let mut net = MultiNoc::new(MultiNocConfig::single_noc_512b().gating(true));
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.01, 512, net.dims(), 7);
        for _ in 0..6_000 {
            load.drive(&mut net);
            net.step();
        }
        for _ in 0..100_000 {
            if net.packets_outstanding() == 0 {
                break;
            }
            net.step();
        }
        net.finish()
    };
    let ungated = {
        let mut net = MultiNoc::new(MultiNocConfig::single_noc_512b());
        let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.01, 512, net.dims(), 7);
        for _ in 0..6_000 {
            load.drive(&mut net);
            net.step();
        }
        for _ in 0..100_000 {
            if net.packets_outstanding() == 0 {
                break;
            }
            net.step();
        }
        net.finish()
    };
    assert_eq!(gated.packets_generated, gated.packets_delivered);
    assert_eq!(
        gated.packets_generated, ungated.packets_generated,
        "same seed, same offered traffic"
    );
    assert!(
        gated.avg_packet_latency > ungated.avg_packet_latency + 5.0,
        "Single-NoC gating at low load must cost latency ({} vs {})",
        gated.avg_packet_latency,
        ungated.avg_packet_latency
    );
}

/// Outstanding packets after 2,000 cycles of uniform 0.01 traffic
/// (512-bit packets, workload seed 3) and then at most 5,000 cycles of
/// draining, with gating units that wake at once (`t_wakeup` 0).
fn outstanding_after_drain_at_zero_wakeup(policy: GatingPolicy, t_idle_detect: u32) -> u64 {
    let mut cfg = MultiNocConfig::catnap_4x128().gating_policy(policy).seed(3);
    cfg.gating_cfg.t_wakeup = 0;
    cfg.gating_cfg.t_breakeven = 12;
    cfg.gating_cfg.t_idle_detect = t_idle_detect;
    let mut net = MultiNoc::new(cfg);
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.01, 512, net.dims(), 3);
    for _ in 0..2_000 {
        load.drive(&mut net);
        net.step();
    }
    for _ in 0..5_000 {
        if net.packets_outstanding() == 0 {
            break;
        }
        net.step();
    }
    net.packets_outstanding()
}

/// A unit woken at once must restart its idle count, or the policy
/// re-gates it before the head that pinged it is granted, and the head
/// pings again forever.
#[test]
fn immediate_wake_up_drains_every_packet() {
    for (policy, t_idle_detect) in [
        (GatingPolicy::LocalIdle, 4),
        (GatingPolicy::LocalIdle, 1),
        (GatingPolicy::LocalIdlePort, 4),
        (GatingPolicy::CatnapRcs, 4),
    ] {
        assert_eq!(
            outstanding_after_drain_at_zero_wakeup(policy, t_idle_detect),
            0,
            "{policy:?} at t_idle_detect {t_idle_detect}"
        );
    }
}

/// Port units at `t_idle_detect` 1 still strand packets: an in-step wake
/// can land on a router later in the step order than the upstream that
/// pinged it, whose own tick then counts the wake cycle as idle.
#[test]
#[ignore = "ROADMAP item 9: in-step wake ordering, still open"]
fn immediate_wake_up_drains_every_packet_with_port_units_at_idle_detect_1() {
    assert_eq!(
        outstanding_after_drain_at_zero_wakeup(GatingPolicy::LocalIdlePort, 1),
        0
    );
}
