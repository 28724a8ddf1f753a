//! Property-based tests over randomized traffic and configurations,
//! running on the in-tree `catnap_util::check` mini-proptest runner.
//!
//! Each property draws arbitrary inputs from a seeded [`SimRng`]; a
//! failure report prints the exact case seed, and setting
//! `CATNAP_CHECK_SEED=<seed>` replays just that input.

use catnap_repro::catnap::{MultiNoc, MultiNocConfig, SelectorKind};
use catnap_repro::noc::{MessageClass, NodeId, PacketDescriptor, PacketId};
use catnap_repro::traffic::generator::PacketSink;
use catnap_repro::util::check::{shrink_halves, Checker};
use catnap_repro::util::SimRng;

fn arb_selector(rng: &mut SimRng) -> SelectorKind {
    *rng.choose(&[
        SelectorKind::RoundRobin,
        SelectorKind::Random,
        SelectorKind::CatnapPriority,
    ])
}

fn arb_class(rng: &mut SimRng) -> MessageClass {
    *rng.choose(&MessageClass::ALL)
}

/// Arbitrary packet tuple `(src, dst, bits, class, submit_cycle)`.
type ArbPacket = (u16, u16, u32, MessageClass, u64);

fn arb_packets(rng: &mut SimRng) -> Vec<ArbPacket> {
    let n = rng.gen_range(1usize..120);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0u16..64),
                rng.gen_range(0u16..64),
                rng.gen_range(64u32..1024),
                arb_class(rng),
                rng.gen_range(0u64..500),
            )
        })
        .collect()
}

/// Conservation: every submitted packet is delivered exactly once, for
/// arbitrary packet mixes, subnet counts, selectors and gating.
#[test]
fn conservation_under_arbitrary_traffic() {
    #[derive(Debug)]
    struct Input {
        subnets: usize,
        selector: SelectorKind,
        gating: bool,
        seed: u64,
        packets: Vec<ArbPacket>,
    }
    Checker::new("conservation_under_arbitrary_traffic").cases(24).run_shrink(
        |rng| Input {
            subnets: *rng.choose(&[1usize, 2, 4]),
            selector: arb_selector(rng),
            gating: rng.gen_bool(0.5),
            seed: rng.gen_range(0u64..1_000),
            packets: arb_packets(rng),
        },
        |input| {
            let cfg = MultiNocConfig::bandwidth_equivalent(input.subnets)
                .selector(input.selector)
                .seed(input.seed)
                .gating(input.gating);
            let mut net = MultiNoc::new(cfg);
            let mut sorted = input.packets.clone();
            sorted.sort_by_key(|p| p.4);
            let mut submitted = 0u64;
            let mut queue = sorted.into_iter().peekable();
            let mut id = 0u64;
            for cycle in 0..600u64 {
                while let Some(&(s, d, bits, class, at)) = queue.peek() {
                    if at > cycle {
                        break;
                    }
                    queue.next();
                    if s == d {
                        continue;
                    }
                    net.submit(PacketDescriptor {
                        id: PacketId(id),
                        src: NodeId(s),
                        dst: NodeId(d),
                        bits,
                        class,
                        created_cycle: cycle,
                    });
                    id += 1;
                    submitted += 1;
                }
                net.step();
            }
            let mut budget = 100_000;
            while net.packets_outstanding() > 0 && budget > 0 {
                net.step();
                budget -= 1;
            }
            let report = net.finish();
            if report.packets_generated != submitted {
                return Err(format!(
                    "generated {} != submitted {submitted}",
                    report.packets_generated
                ));
            }
            if report.packets_delivered != submitted {
                return Err(format!(
                    "delivered {} != submitted {submitted}",
                    report.packets_delivered
                ));
            }
            Ok(())
        },
        // Shrink toward fewer packets (config fields stay fixed).
        |input| {
            shrink_halves(&input.packets)
                .into_iter()
                .map(|packets| Input {
                    subnets: input.subnets,
                    selector: input.selector,
                    gating: input.gating,
                    seed: input.seed,
                    packets,
                })
                .collect()
        },
    );
}

/// Latency lower bound: no packet can beat the pipeline (3 cycles per
/// hop) plus serialization (one flit per cycle).
#[test]
fn latency_respects_pipeline_lower_bound() {
    Checker::new("latency_respects_pipeline_lower_bound").cases(24).run(
        |rng| {
            let src = rng.gen_range(0u16..64);
            // Draw dst != src directly (proptest used prop_assume).
            let mut dst = rng.gen_range(0u16..64);
            while dst == src {
                dst = rng.gen_range(0u16..64);
            }
            (src, dst, rng.gen_range(64u32..2048), *rng.choose(&[1usize, 4]))
        },
        |&(src, dst, bits, subnets)| {
            let cfg = MultiNocConfig::bandwidth_equivalent(subnets);
            let width = cfg.subnet_width_bits;
            let mut net = MultiNoc::new(cfg);
            net.submit(PacketDescriptor {
                id: PacketId(0),
                src: NodeId(src),
                dst: NodeId(dst),
                bits,
                class: MessageClass::Synthetic,
                created_cycle: 0,
            });
            let mut budget = 5_000;
            while net.packets_outstanding() > 0 && budget > 0 {
                net.step();
                budget -= 1;
            }
            let report = net.finish();
            if report.packets_delivered != 1 {
                return Err(format!("delivered {} != 1", report.packets_delivered));
            }
            let hops = f64::from(net.dims().hop_distance(NodeId(src), NodeId(dst)));
            let flits = f64::from(catnap_repro::noc::Flit::flits_for_bits(bits, width));
            let bound = 3.0 * hops + (flits - 1.0);
            if report.avg_packet_latency < bound {
                return Err(format!(
                    "latency {} under physical bound {bound}",
                    report.avg_packet_latency
                ));
            }
            Ok(())
        },
    );
}

/// CSC never exceeds the share of gateable router-cycles.
#[test]
fn csc_bounded_by_gateable_fraction() {
    use catnap_repro::traffic::{SyntheticPattern, SyntheticWorkload};
    Checker::new("csc_bounded_by_gateable_fraction").cases(24).run(
        |rng| (0.005 + rng.gen::<f64>() * 0.195, rng.gen_range(0u64..100)),
        |&(rate, seed)| {
            let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128().gating(true));
            let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, net.dims(), seed);
            for _ in 0..1_500 {
                load.drive(&mut net);
                net.step();
            }
            let report = net.finish();
            if report.csc_fraction < 0.0 {
                return Err(format!("csc {} negative", report.csc_fraction));
            }
            if report.csc_fraction > 0.75 + 1e-9 {
                return Err(format!("csc {}", report.csc_fraction));
            }
            Ok(())
        },
    );
}

/// Power-model sanity over random design points: power is positive,
/// grows with voltage, and dynamic grows with load.
#[test]
fn power_model_monotonicity() {
    use catnap_repro::power::analytic::DesignPoint;
    use catnap_repro::power::TechParams;
    Checker::new("power_model_monotonicity").cases(64).run(
        |rng| {
            (
                rng.gen_range(6u32..10), // 64..512 bits
                rng.gen::<f64>() * 0.5,
                0.5 + rng.gen::<f64>() * 0.5,
                0.5 + rng.gen::<f64>() * 0.5,
            )
        },
        |&(width_exp, load_a, load_b, vdd)| {
            let tech = TechParams::catnap_32nm();
            let mut d = DesignPoint::single_512b_0v750();
            d.width_bits = 1 << width_exp;
            d.vdd = vdd;
            let (dyn_a, stat_a) = d.power_at_load(tech, load_a);
            let (dyn_b, stat_b) = d.power_at_load(tech, load_b);
            if !(dyn_a.total() >= 0.0 && stat_a.total() > 0.0) {
                return Err("power must be positive".to_string());
            }
            if dyn_b.total() < dyn_a.total() {
                return Err("dynamic must grow with load".to_string());
            }
            if (stat_a.total() - stat_b.total()).abs() >= 1e-9 {
                return Err("static is load-independent".to_string());
            }
            let mut hi = d;
            hi.vdd = (vdd + 0.2).min(1.2);
            let (dyn_hi, _) = hi.power_at_load(tech, load_a);
            if dyn_hi.total() < dyn_a.total() {
                return Err("dynamic must grow with Vdd".to_string());
            }
            Ok(())
        },
    );
}

/// Frequency model: f_max is monotone in voltage and anti-monotone in
/// width; required_vdd inverts f_max.
#[test]
fn delay_model_inverts() {
    use catnap_repro::power::DelayModel;
    Checker::new("delay_model_inverts").cases(64).run(
        |rng| (rng.gen_range(64u32..1024), 0.5 + rng.gen::<f64>() * 2.0),
        |&(width, freq_ghz)| {
            let m = DelayModel::catnap_32nm();
            if let Some(v) = m.required_vdd(width, freq_ghz * 1e9) {
                let f = m.f_max_hz(width, v);
                if f < freq_ghz * 1e9 * 0.999 {
                    return Err(format!("f_max({width}, {v}) = {f}"));
                }
                // A slightly lower voltage must not suffice.
                let f_lo = m.f_max_hz(width, v - 0.01);
                if f_lo >= freq_ghz * 1e9 {
                    return Err(format!("f_max({width}, {}) = {f_lo} still suffices", v - 0.01));
                }
            }
            Ok(())
        },
    );
}

/// Wormhole ordering: at every destination, the tail flit of each
/// packet arrives last and exactly once, and flits are conserved.
#[test]
fn flits_arrive_in_order_per_packet() {
    use catnap_repro::noc::MeshDims;
    use catnap_repro::traffic::{SyntheticPattern, SyntheticWorkload};
    use std::collections::HashMap;
    Checker::new("flits_arrive_in_order_per_packet").cases(16).run(
        |rng| {
            (
                rng.gen_range(0u64..500),
                0.05 + rng.gen::<f64>() * 0.3,
                *rng.choose(&[64u32, 128, 256]),
            )
        },
        |&(seed, rate, width)| {
            let mut cfg = MultiNocConfig::catnap_4x128();
            cfg.subnet_width_bits = width;
            cfg.dims = MeshDims::new(4, 4);
            let mut net = MultiNoc::new(cfg);
            let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, rate, 512, net.dims(), seed);
            let mut done: HashMap<u64, bool> = HashMap::new();
            let mut tails = Vec::new();
            for _ in 0..800 {
                load.drive(&mut net);
                net.step();
                net.drain_delivered_into(&mut tails);
                for delivered in tails.drain(..) {
                    let tail = delivered.tail;
                    let id = tail.packet.0;
                    if done.get(&id).copied().unwrap_or(false) {
                        return Err(format!("duplicate tail for packet {id}"));
                    }
                    done.insert(id, true);
                    let len = catnap_repro::noc::Flit::flits_for_bits(512, width);
                    if !tail.kind.is_tail() || tail.seq + 1 != len {
                        return Err("tail must be the last flit".to_string());
                    }
                }
            }
            // Flit conservation per subnet.
            let snap = net.snapshot();
            let injected: u64 = snap.injected_flits_per_subnet.iter().sum();
            let ejected: u64 = snap.ejected_flits_per_subnet.iter().sum();
            if ejected > injected {
                return Err(format!("ejected {ejected} > injected {injected}"));
            }
            Ok(())
        },
    );
}
