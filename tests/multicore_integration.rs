//! Integration tests of the closed-loop multicore substrate against the
//! full network stack.

use catnap_repro::catnap::MultiNocConfig;
use catnap_repro::multicore::{System, SystemConfig};
use catnap_repro::traffic::WorkloadMix;

#[test]
fn probabilistic_mode_mixes_rank_by_intensity() {
    let ipc_of = |mix| {
        let mut sys = System::new(SystemConfig::paper(), MultiNocConfig::single_noc_512b(), mix, 3);
        sys.run(4_000);
        sys.report().ipc
    };
    let light = ipc_of(WorkloadMix::Light);
    let heavy = ipc_of(WorkloadMix::Heavy);
    assert!(light > 1.5 * heavy, "Light {light} must far outrun Heavy {heavy}");
}

#[test]
fn gating_helps_multi_but_not_single() {
    let power_of = |cfg: MultiNocConfig| {
        let mut sys = System::new(SystemConfig::paper(), cfg, WorkloadMix::Light, 3);
        sys.run(5_000);
        sys.net.power_report(catnap_repro::power::TechParams::catnap_32nm()).total()
    };
    let single = power_of(MultiNocConfig::single_noc_512b().gating(true));
    let multi = power_of(MultiNocConfig::catnap_4x128().gating(true));
    assert!(
        multi < 0.6 * single,
        "gated Multi-NoC {multi:.1} W must be well below gated Single-NoC {single:.1} W"
    );
}

#[test]
fn miss_latency_includes_memory_for_l2_misses() {
    let mut sys = System::new(
        SystemConfig::paper(),
        MultiNocConfig::single_noc_512b(),
        WorkloadMix::Heavy,
        11,
    );
    sys.run(4_000);
    let rep = sys.report();
    // Heavy's l2_miss_ratio ~0.6: average miss latency must reflect the
    // 80-cycle DRAM plus multiple network traversals.
    assert!(
        rep.avg_miss_latency > 60.0,
        "Heavy avg miss latency {:.1} too small for memory-bound traffic",
        rep.avg_miss_latency
    );
}

#[test]
fn ipc_bounded_by_commit_width() {
    let mut sys = System::new(
        SystemConfig::paper(),
        MultiNocConfig::single_noc_512b(),
        WorkloadMix::Light,
        13,
    );
    sys.run(2_000);
    let rep = sys.report();
    assert!(rep.ipc <= 2.0 * 256.0 + 1e-9);
    assert!(
        rep.ipc > 0.5 * 256.0,
        "Light should run near full speed, got {}",
        rep.ipc
    );
}
