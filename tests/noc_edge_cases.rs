//! Edge-case configurations of the network substrate: rectangular
//! meshes, minimal VC counts, tiny topologies, and protocol-class VC
//! separation end to end.

use catnap_repro::catnap::{MultiNoc, MultiNocConfig};
use catnap_repro::noc::{Flit, MeshDims, MessageClass, Network, NetworkConfig, NodeId, PacketDescriptor, PacketId};
use catnap_repro::traffic::generator::PacketSink;

fn run_all_pairs(cfg: NetworkConfig) {
    let dims = cfg.dims;
    let mut net = Network::new(cfg);
    let mut sent = 0u64;
    // One packet from every node to every other node, staggered.
    for (i, src) in dims.nodes().enumerate() {
        for dst in dims.nodes() {
            if src == dst {
                continue;
            }
            let f = net.make_single_flit_packet(src, dst);
            // Stagger injection to avoid exceeding VC capacity.
            let vc = (i % net.router(src).vcs()).min(net.router(src).vcs() - 1);
            if net.try_inject_flit(src, vc, f, 0) {
                sent += 1;
            }
            net.step();
            net.drain_ejected();
        }
    }
    for _ in 0..2_000 {
        net.step();
        net.drain_ejected();
    }
    assert_eq!(net.stats().packets_ejected, sent, "all injected packets delivered");
    assert!(sent > 0);
}

#[test]
fn rectangular_wide_mesh() {
    run_all_pairs(NetworkConfig::paper().dims(MeshDims::new(8, 2)));
}

#[test]
fn rectangular_tall_mesh() {
    run_all_pairs(NetworkConfig::paper().dims(MeshDims::new(2, 6)));
}

#[test]
fn minimal_two_node_mesh() {
    run_all_pairs(NetworkConfig::paper().dims(MeshDims::new(2, 1)));
}

#[test]
fn single_vc_network_still_delivers() {
    run_all_pairs(NetworkConfig::paper().dims(MeshDims::new(3, 3)).buffers(1, 4));
}

#[test]
fn deep_buffers_shallow_vcs() {
    run_all_pairs(NetworkConfig::paper().dims(MeshDims::new(4, 4)).buffers(2, 16));
}

#[test]
fn protocol_classes_travel_on_disjoint_vcs() {
    // Submit interleaved request/response packets between the same pair
    // and check the flits eject with VCs from the expected disjoint sets.
    let mut net = MultiNoc::new(MultiNocConfig::single_noc_512b());
    for i in 0..20u64 {
        let class = if i % 2 == 0 {
            MessageClass::Request
        } else {
            MessageClass::Response
        };
        net.submit(PacketDescriptor {
            id: PacketId(i),
            src: NodeId(0),
            dst: NodeId(63),
            bits: 72,
            class,
            created_cycle: 0,
        });
    }
    let mut delivered = Vec::new();
    for _ in 0..1_500 {
        net.step();
        net.drain_delivered_into(&mut delivered);
    }
    let tails: Vec<Flit> = delivered.iter().map(|d| d.tail).collect();
    assert_eq!(tails.len(), 20);
    let vcs = 4usize;
    for t in &tails {
        let allowed = t.class.vc_mask(vcs);
        assert!(
            allowed & (1u64 << t.vc) != 0,
            "{:?} flit ejected on VC {} outside its class mask {:#b}",
            t.class,
            t.vc,
            allowed
        );
    }
    let req_vcs: std::collections::HashSet<u8> = tails
        .iter()
        .filter(|t| t.class == MessageClass::Request)
        .map(|t| t.vc)
        .collect();
    let rsp_vcs: std::collections::HashSet<u8> = tails
        .iter()
        .filter(|t| t.class == MessageClass::Response)
        .map(|t| t.vc)
        .collect();
    assert!(req_vcs.is_disjoint(&rsp_vcs), "req {req_vcs:?} vs rsp {rsp_vcs:?}");
}

#[test]
fn sixty_four_bit_subnets_carry_multi_flit_control() {
    // On 64-bit subnets a 72-bit control packet takes 2 flits; wormhole
    // rules still hold.
    let cfg = MultiNocConfig::bandwidth_equivalent(8);
    assert_eq!(cfg.flits_per_packet(72), 2);
    let mut net = MultiNoc::new(cfg);
    for i in 0..50u64 {
        net.submit(PacketDescriptor {
            id: PacketId(i),
            src: NodeId((i % 64) as u16),
            dst: NodeId(((i * 13 + 7) % 64) as u16),
            bits: 72,
            class: MessageClass::Request,
            created_cycle: 0,
        });
    }
    for _ in 0..2_000 {
        net.step();
    }
    let rep = net.finish();
    assert_eq!(rep.packets_delivered, rep.packets_generated);
}

#[test]
fn mesh_3x5_multinoc_with_gating() {
    let mut cfg = MultiNocConfig::catnap_4x128().gating(true);
    cfg.dims = MeshDims::new(3, 5);
    let mut net = MultiNoc::new(cfg);
    for i in 0..100u64 {
        net.submit(PacketDescriptor {
            id: PacketId(i),
            src: NodeId((i % 15) as u16),
            dst: NodeId(((i * 7 + 1) % 15) as u16),
            bits: 512,
            class: MessageClass::Synthetic,
            created_cycle: 0,
        });
    }
    let mut budget = 20_000;
    while net.packets_outstanding() > 0 && budget > 0 {
        net.step();
        budget -= 1;
    }
    let rep = net.finish();
    assert_eq!(rep.packets_delivered, rep.packets_generated);
}
