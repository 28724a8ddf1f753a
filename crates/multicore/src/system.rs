//! The closed-loop system: each core draws its misses' coherence
//! transactions from its benchmark's probabilities, and the transaction
//! engine runs them on the Catnap Multi-NoC.

use crate::config::SystemConfig;
use crate::core_model::{Core, MissRequest};
use crate::protocol::{self, TransactionScript};
use crate::transactions::Transactions;
use catnap::{MultiNoc, MultiNocConfig, RunReport};
use catnap_noc::NodeId;
use catnap_traffic::WorkloadMix;
use catnap_util::SimRng;

/// The simulated many-core system.
pub struct System {
    cfg: SystemConfig,
    /// The network under evaluation (public for power/stat queries).
    pub net: MultiNoc,
    cores: Vec<Core>,
    /// Transactions in flight.
    pub(crate) tx: Transactions,
    rng: SimRng,
    misses_issued: u64,
    misses_completed: u64,
    miss_latency_sum: u64,
    issued_buf: Vec<MissRequest>,
}

impl System {
    /// Builds a system running `mix` on the given network design.
    pub fn new(cfg: SystemConfig, net_cfg: MultiNocConfig, mix: WorkloadMix, seed: u64) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid system config: {e}"));
        let net = MultiNoc::new(net_cfg);
        let tx = Transactions::new(&cfg, &net);
        let num_cores = cfg.num_cores(net.dims());
        let assignment = mix.assign(num_cores);
        let cores = assignment
            .iter()
            .enumerate()
            .map(|(i, b)| Core::new(b, cfg.commit_width, cfg.window, cfg.mshrs, seed ^ (i as u64) << 20))
            .collect();
        System {
            cfg,
            net,
            cores,
            tx,
            rng: SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            misses_issued: 0,
            misses_completed: 0,
            miss_latency_sum: 0,
            issued_buf: Vec::new(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Total instructions committed so far.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    fn random_node(&mut self) -> NodeId {
        NodeId(self.rng.gen_range(0..self.net.dims().num_nodes() as u16))
    }

    fn random_mc_node(&mut self) -> NodeId {
        let mc_nodes = self.tx.mc_nodes();
        mc_nodes[self.rng.gen_range(0..mc_nodes.len())]
    }

    fn build_script(&mut self, core_idx: usize, req: &MissRequest) -> TransactionScript {
        let bench = self.cores[core_idx].benchmark();
        let (share, l2_miss) = (bench.sharing_fraction, bench.l2_miss_ratio);
        let node = self.cfg.node_of_core(core_idx);
        let home = self.random_node();
        let r: f64 = self.rng.gen();
        if req.is_write && r < share {
            let sharer = self.random_node();
            return protocol::write_invalidate(node, home, sharer, &self.cfg);
        }
        if r < l2_miss {
            let mc = self.random_mc_node();
            return protocol::read_memory(node, home, mc, &self.cfg);
        }
        if r < l2_miss + share {
            let owner = self.random_node();
            return protocol::read_forward(node, home, owner, &self.cfg);
        }
        protocol::read_l2_hit(node, home, &self.cfg)
    }

    /// Applies the misses the engine completed since the last drain, at
    /// `now`.
    fn complete_misses(&mut self, now: u64) {
        for (core, miss, issued_cycle) in self.tx.completed.drain(..) {
            self.cores[core].complete(miss);
            self.misses_completed += 1;
            self.miss_latency_sum += now.saturating_sub(issued_cycle);
        }
    }

    /// Advances the whole system by one cycle.
    pub fn step(&mut self) {
        let now = self.net.cycle();

        // Cores issue new misses.
        for ci in 0..self.cores.len() {
            let mut issued = std::mem::take(&mut self.issued_buf);
            issued.clear();
            self.cores[ci].tick(&mut issued);
            for req in &issued {
                self.misses_issued += 1;
                let script = self.build_script(ci, req);
                self.tx.start(&mut self.net, script, Some((ci, req.id, now)), now);
                // Dirty eviction accompanying the fill.
                let bench = self.cores[ci].benchmark();
                if self.rng.gen::<f64>() < bench.write_fraction {
                    let node = self.cfg.node_of_core(ci);
                    let home = self.random_node();
                    if home != node {
                        let script = protocol::writeback(node, home, &self.cfg);
                        self.tx.start(&mut self.net, script, None, now);
                    }
                }
            }
            self.issued_buf = issued;
        }

        self.tx.start_due(&mut self.net, now);
        self.tx.retry_memory();
        // Known defect, kept so pinned results hold: this drops the
        // memory legs the retry refused again, and their transactions
        // never finish. No controller has ticked since their first
        // refusal, so that is every refused leg. Deleting this line is
        // the fix queued in ROADMAP.md's first open item; it re-pins
        // `table3_heavy` and the System closed-loop golden in
        // tests/determinism.rs.
        self.tx.mc_retry.clear();
        self.tx.tick_memory(&mut self.net, now);
        // One drain for every completion at this cycle's `now`: a miss
        // completed by `start` belongs to a core that has already ticked.
        self.complete_misses(now);

        self.net.step();
        let now = self.net.cycle();
        self.tx.deliver(&mut self.net, now);
        self.complete_misses(now);
    }

    /// Runs `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Produces the final report (finalizes network gating accounting).
    pub fn report(&mut self) -> SystemReport {
        let network = self.net.finish();
        let cycles = network.cycles.max(1);
        let insts = self.total_instructions();
        SystemReport {
            cycles: network.cycles,
            total_instructions: insts,
            ipc: insts as f64 / cycles as f64,
            misses_issued: self.misses_issued,
            misses_completed: self.misses_completed,
            avg_miss_latency: if self.misses_completed == 0 {
                0.0
            } else {
                self.miss_latency_sum as f64 / self.misses_completed as f64
            },
            network,
        }
    }
}

/// Result of a closed-loop system run.
#[derive(Clone, Debug)]
pub struct SystemReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed across all cores.
    pub total_instructions: u64,
    /// Aggregate instructions per cycle (sum over cores).
    pub ipc: f64,
    /// L1 misses issued.
    pub misses_issued: u64,
    /// Misses whose critical-path response arrived.
    pub misses_completed: u64,
    /// Mean cycles from miss issue to critical response.
    pub avg_miss_latency: f64,
    /// Network-side report.
    pub network: RunReport,
}

catnap_util::impl_to_json_struct!(SystemReport {
    cycles,
    total_instructions,
    ipc,
    misses_issued,
    misses_completed,
    avg_miss_latency,
    network,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system(mix: WorkloadMix, net_cfg: MultiNocConfig) -> System {
        System::new(SystemConfig::paper(), net_cfg, mix, 42)
    }

    #[test]
    fn light_mix_runs_and_completes_misses() {
        let mut sys = small_system(WorkloadMix::Light, MultiNocConfig::catnap_4x128());
        sys.run(3_000);
        let rep = sys.report();
        assert!(rep.total_instructions > 500_000, "insts {}", rep.total_instructions);
        assert!(rep.misses_completed > 100);
        assert!(rep.avg_miss_latency > 10.0, "miss latency {}", rep.avg_miss_latency);
        // Most issued misses eventually complete (some still in flight).
        assert!(rep.misses_completed as f64 > 0.8 * rep.misses_issued as f64);
    }

    #[test]
    fn heavy_mix_loads_network_more_than_light() {
        let mut light = small_system(WorkloadMix::Light, MultiNocConfig::single_noc_512b());
        light.run(2_000);
        let l = light.report();
        let mut heavy = small_system(WorkloadMix::Heavy, MultiNocConfig::single_noc_512b());
        heavy.run(2_000);
        let h = heavy.report();
        // Heavy demands far more bandwidth per instruction; the closed
        // loop throttles it, so the accepted-traffic gap narrows but must
        // stay clearly above Light's.
        assert!(
            h.network.accepted_flits_per_node_cycle > 1.5 * l.network.accepted_flits_per_node_cycle,
            "heavy {} vs light {}",
            h.network.accepted_flits_per_node_cycle,
            l.network.accepted_flits_per_node_cycle
        );
        assert!(h.ipc < l.ipc, "heavy mix must commit fewer instructions");
    }

    #[test]
    fn heavy_mix_suffers_on_narrow_network() {
        let mut wide = small_system(WorkloadMix::Heavy, MultiNocConfig::single_noc_512b());
        wide.run(3_000);
        let w = wide.report();
        let mut narrow = small_system(WorkloadMix::Heavy, MultiNocConfig::single_noc_128b());
        narrow.run(3_000);
        let n = narrow.report();
        assert!(
            n.ipc < 0.85 * w.ipc,
            "Fig 2: heavy workload must lose clearly on 128b ({} vs {})",
            n.ipc,
            w.ipc
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sys = System::new(
                SystemConfig::paper(),
                MultiNocConfig::catnap_4x128(),
                WorkloadMix::MediumLight,
                seed,
            );
            sys.run(1_000);
            let r = sys.report();
            (r.total_instructions, r.misses_issued, r.network.packets_generated)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
