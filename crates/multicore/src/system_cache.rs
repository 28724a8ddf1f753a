//! Cache-accurate system mode: the alternative to the probabilistic miss
//! model of [`crate::system`].
//!
//! Here every core runs a synthetic *address stream* against a real
//! tagged L1 ([`crate::cache::SetAssocCache`]); misses consult a real
//! per-home-slice MESI [`crate::cache::Directory`] and a real shared-L2
//! slice, and the resulting transaction (2-hop hit, cache-to-cache
//! forward, memory fetch, invalidation) is decided by actual coherence
//! state rather than drawn from per-benchmark probabilities. Miss rates
//! and sharing *emerge* from working-set sizes and the shared-region
//! fraction.
//!
//! Timing simplification (documented in DESIGN.md): directory and L2
//! lookups are performed when the miss is issued rather than when the
//! request message arrives at the home node; message latencies are still
//! paid in full by the transaction legs. This keeps the coherence state
//! machine sequential and race-free while preserving the network-visible
//! behaviour.

use crate::cache::{AccessOutcome, AddressStream, CacheConfig, Directory, DirectoryAction, MesiState, SetAssocCache};
use crate::config::SystemConfig;
use crate::protocol;
use crate::transactions::Transactions;
use catnap::{MultiNoc, MultiNocConfig, RunReport};
use catnap_noc::NodeId;
use catnap_util::SimRng;

/// Per-core parameters of the cache-accurate mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheWorkload {
    /// Fraction of instructions that access memory.
    pub mem_ratio: f64,
    /// Private working-set bytes per core.
    pub working_set: u64,
    /// Shared-region bytes (one region for all cores).
    pub shared_set: u64,
    /// Fraction of accesses hitting the shared region.
    pub shared_fraction: f64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
}

impl CacheWorkload {
    /// A light, cache-resident workload.
    pub fn light() -> Self {
        CacheWorkload {
            mem_ratio: 0.3,
            working_set: 16 * 1024,
            shared_set: 64 * 1024,
            shared_fraction: 0.005,
            write_fraction: 0.3,
        }
    }

    /// A heavy, cache-thrashing workload with real sharing.
    pub fn heavy() -> Self {
        CacheWorkload {
            mem_ratio: 0.35,
            working_set: 1024 * 1024,
            shared_set: 256 * 1024,
            shared_fraction: 0.10,
            write_fraction: 0.35,
        }
    }
}

struct CacheCore {
    stream: AddressStream,
    l1: SetAssocCache,
    workload: CacheWorkload,
    outstanding: Vec<(u64, u64)>, // (miss id, deadline insts)
    next_miss: u64,
    instructions: u64,
}

/// The cache-accurate closed-loop system.
pub struct CacheSystem {
    cfg: SystemConfig,
    /// The network under evaluation.
    pub net: MultiNoc,
    cores: Vec<CacheCore>,
    l2: Vec<SetAssocCache>,
    dirs: Vec<Directory>,
    /// Transactions in flight; a miss carries its id and the address and
    /// state its L1 fill installs on completion.
    tx: Transactions<(u64, u64, MesiState)>,
    rng: SimRng,
    misses_issued: u64,
    misses_completed: u64,
    /// Count of transactions by kind, for validation:
    /// `[l2_hit, forward, memory, invalidate, writeback]`.
    pub tx_kinds: [u64; 5],
}

impl CacheSystem {
    /// Builds a system where every core runs `workload`.
    pub fn new(cfg: SystemConfig, net_cfg: MultiNocConfig, workload: CacheWorkload, seed: u64) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("invalid system config: {e}"));
        let mut net = MultiNoc::new(net_cfg);
        let tx = Transactions::new(&cfg, &mut net);
        let num_cores = cfg.num_cores(net.dims());
        let cores = (0..num_cores)
            .map(|i| CacheCore {
                stream: AddressStream::new(
                    i,
                    workload.working_set,
                    workload.shared_set,
                    workload.shared_fraction,
                    seed,
                ),
                l1: SetAssocCache::new(CacheConfig::l1()),
                workload,
                outstanding: Vec::new(),
                next_miss: 0,
                instructions: 0,
            })
            .collect();
        let nodes = net.dims().num_nodes();
        CacheSystem {
            cfg,
            net,
            cores,
            l2: (0..nodes).map(|_| SetAssocCache::new(CacheConfig::l2_slice())).collect(),
            dirs: (0..nodes).map(|_| Directory::default()).collect(),
            tx,
            rng: SimRng::seed_from_u64(seed | 1),
            misses_issued: 0,
            misses_completed: 0,
            tx_kinds: [0; 5],
        }
    }

    /// Functional cache warmup: replays `accesses_per_core` accesses per
    /// core through the L1s, L2 slices and directories with zero latency
    /// and no network traffic, then clears the cache statistics. This is
    /// the standard trace-driven-simulation practice for skipping the
    /// cold-start transient (every first touch would otherwise be a
    /// memory fetch, and the memory controllers' bandwidth makes warming
    /// through the timing model take hundreds of thousands of cycles).
    pub fn warm(&mut self, accesses_per_core: usize) {
        for ci in 0..self.cores.len() {
            for _ in 0..accesses_per_core {
                let addr = self.cores[ci].stream.next_addr();
                let is_write = self.rng.gen::<f64>() < self.cores[ci].workload.write_fraction;
                let outcome = self.cores[ci].l1.access(addr, is_write);
                if let AccessOutcome::Miss { victim_writeback } = outcome {
                    let block = addr / 64;
                    let home = self.home_of(block);
                    if !matches!(self.l2[home.index()].access(addr, false), AccessOutcome::Hit) {
                        self.l2[home.index()].fill(addr, MesiState::Exclusive);
                    }
                    let action = if is_write {
                        self.dirs[home.index()].get_m(block, ci as u32, true)
                    } else {
                        self.dirs[home.index()].get_s(block, ci as u32, true)
                    };
                    match action {
                        DirectoryAction::ForwardToOwner(owner) => {
                            self.cores[owner as usize].l1.invalidate(addr);
                        }
                        DirectoryAction::Invalidate(sharers) => {
                            for s in sharers {
                                self.cores[s as usize].l1.invalidate(addr);
                            }
                        }
                        DirectoryAction::SendData { .. } => {}
                    }
                    let state = if is_write {
                        MesiState::Modified
                    } else {
                        MesiState::Shared
                    };
                    self.cores[ci].l1.fill(addr, state);
                    if let Some(victim) = victim_writeback {
                        let victim_home = self.home_of(victim / 64);
                        self.dirs[victim_home.index()].put_m(victim / 64, ci as u32);
                    }
                }
            }
        }
        for c in &mut self.cores {
            c.l1.reset_stats();
        }
        for l2 in &mut self.l2 {
            l2.reset_stats();
        }
    }

    /// Home L2 slice of a block (address-interleaved).
    fn home_of(&self, block: u64) -> NodeId {
        let nodes = self.net.dims().num_nodes() as u64;
        NodeId(((block ^ (block >> 17)) % nodes) as u16)
    }

    fn mc_for(&self, block: u64) -> NodeId {
        let mc_nodes = self.tx.mc_nodes();
        mc_nodes[(block % mc_nodes.len() as u64) as usize]
    }

    /// Total instructions committed.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Aggregate L1 miss rate so far.
    pub fn l1_miss_rate(&self) -> f64 {
        let acc: u64 = self.cores.iter().map(|c| c.l1.accesses).sum();
        let miss: u64 = self.cores.iter().map(|c| c.l1.misses).sum();
        if acc == 0 {
            0.0
        } else {
            miss as f64 / acc as f64
        }
    }

    /// Directory invariants hold everywhere (test hook).
    pub fn directories_consistent(&self) -> bool {
        self.dirs.iter().all(Directory::check_invariants)
    }

    /// Applies the misses the last engine call completed: frees the
    /// core's miss slot and fills its L1.
    fn complete_misses(&mut self) {
        for (core, (miss, addr, state)) in self.tx.completed.drain(..) {
            let c = &mut self.cores[core];
            if let Some(pos) = c.outstanding.iter().position(|&(id, _)| id == miss) {
                c.outstanding.swap_remove(pos);
            }
            c.l1.fill(addr, state);
            self.misses_completed += 1;
        }
    }

    /// Issues the coherence transaction for one L1 miss, consulting the
    /// real directory.
    fn issue_miss(&mut self, core_idx: usize, addr: u64, is_write: bool, miss_id: u64, now: u64) {
        self.misses_issued += 1;
        let node = self.cfg.node_of_core(core_idx);
        let block = addr / 64;
        let home = self.home_of(block);
        // L2 slice lookup at the home node.
        let l2_hit = matches!(self.l2[home.index()].access(addr, false), AccessOutcome::Hit);
        if !l2_hit {
            self.l2[home.index()].fill(addr, MesiState::Exclusive);
        }
        let action = if is_write {
            self.dirs[home.index()].get_m(block, core_idx as u32, l2_hit)
        } else {
            self.dirs[home.index()].get_s(block, core_idx as u32, l2_hit)
        };
        let fill_state = if is_write {
            MesiState::Modified
        } else {
            MesiState::Shared
        };
        let (script, kind) = match action {
            DirectoryAction::SendData { from_memory: false } => (protocol::read_l2_hit(node, home, &self.cfg), 0),
            DirectoryAction::SendData { from_memory: true } => {
                let mc = self.mc_for(block);
                (protocol::read_memory(node, home, mc, &self.cfg), 2)
            }
            DirectoryAction::ForwardToOwner(owner_core) => {
                let owner_node = self.cfg.node_of_core(owner_core as usize);
                // The owner's L1 loses exclusivity (read) or the line
                // (write).
                self.cores[owner_core as usize].l1.invalidate(addr);
                if owner_node == node {
                    // Owner shares the node: behave like a local hit.
                    (protocol::read_l2_hit(node, home, &self.cfg), 1)
                } else {
                    (protocol::read_forward(node, home, owner_node, &self.cfg), 1)
                }
            }
            DirectoryAction::Invalidate(sharers) => {
                // Invalidate every sharer's L1; the first sharer is on the
                // critical path, the rest are background pairs.
                for &s in &sharers {
                    self.cores[s as usize].l1.invalidate(addr);
                }
                let first = self.cfg.node_of_core(sharers[0] as usize);
                for &s in sharers.iter().skip(1) {
                    let sn = self.cfg.node_of_core(s as usize);
                    if sn != home {
                        let inv = protocol::write_invalidate(node, home, sn, &self.cfg);
                        self.tx.start(&mut self.net, inv, None, now);
                    }
                }
                if first == node || first == home {
                    (protocol::read_l2_hit(node, home, &self.cfg), 3)
                } else {
                    (protocol::write_invalidate(node, home, first, &self.cfg), 3)
                }
            }
        };
        self.tx_kinds[kind] += 1;
        let miss = Some((core_idx, (miss_id, addr, fill_state)));
        self.tx.start(&mut self.net, script, miss, now);
        // A miss that completes at once fills the L1 before the core's
        // next access.
        self.complete_misses();
    }

    fn issue_writeback(&mut self, core_idx: usize, victim_addr: u64, now: u64) {
        let node = self.cfg.node_of_core(core_idx);
        let block = victim_addr / 64;
        let home = self.home_of(block);
        self.dirs[home.index()].put_m(block, core_idx as u32);
        if home != node {
            self.tx_kinds[4] += 1;
            let script = protocol::writeback(node, home, &self.cfg);
            self.tx.start(&mut self.net, script, None, now);
        }
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        let now = self.net.cycle();

        // Cores: commit instructions against real L1s.
        for ci in 0..self.cores.len() {
            let mut committed = 0;
            let commit_width = self.cfg.commit_width;
            while committed < commit_width {
                // Window/MSHR stalls.
                let c = &self.cores[ci];
                if c.outstanding.len() >= self.cfg.mshrs {
                    break;
                }
                if let Some(&(_, deadline)) = c.outstanding.iter().min_by_key(|&&(_, d)| d) {
                    if c.instructions >= deadline {
                        break;
                    }
                }
                let is_mem = self.rng.gen::<f64>() < self.cores[ci].workload.mem_ratio;
                if is_mem {
                    let addr = self.cores[ci].stream.next_addr();
                    let is_write = self.rng.gen::<f64>() < self.cores[ci].workload.write_fraction;
                    match self.cores[ci].l1.access(addr, is_write) {
                        AccessOutcome::Hit => {}
                        AccessOutcome::Miss { victim_writeback } => {
                            let c = &mut self.cores[ci];
                            let miss_id = c.next_miss;
                            c.next_miss += 1;
                            let deadline = c.instructions + u64::from(self.cfg.window);
                            c.outstanding.push((miss_id, deadline));
                            self.issue_miss(ci, addr, is_write, miss_id, now);
                            if let Some(victim) = victim_writeback {
                                self.issue_writeback(ci, victim, now);
                            }
                        }
                    }
                }
                self.cores[ci].instructions += 1;
                committed += 1;
            }
        }

        self.tx.start_due(&mut self.net, now);
        self.complete_misses();
        self.tx.retry_memory();
        self.tx.tick_memory(&mut self.net, now);
        self.complete_misses();

        self.net.step();
        let now = self.net.cycle();
        self.tx.deliver(&mut self.net, now);
        self.complete_misses();
    }

    /// Runs `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Final report.
    pub fn report(&mut self) -> CacheSystemReport {
        let network = self.net.finish();
        let cycles = network.cycles.max(1);
        let insts = self.total_instructions();
        CacheSystemReport {
            cycles: network.cycles,
            total_instructions: insts,
            ipc: insts as f64 / cycles as f64,
            l1_miss_rate: self.l1_miss_rate(),
            misses_issued: self.misses_issued,
            misses_completed: self.misses_completed,
            tx_kinds: self.tx_kinds,
            network,
        }
    }
}

/// Report of a cache-accurate run.
#[derive(Clone, Debug)]
pub struct CacheSystemReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub total_instructions: u64,
    /// Aggregate IPC.
    pub ipc: f64,
    /// Emergent L1 miss rate.
    pub l1_miss_rate: f64,
    /// Misses issued.
    pub misses_issued: u64,
    /// Misses completed.
    pub misses_completed: u64,
    /// Transactions by kind: `[l2_hit, forward, memory, invalidate,
    /// writeback]`.
    pub tx_kinds: [u64; 5],
    /// Network report.
    pub network: RunReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(workload: CacheWorkload) -> CacheSystem {
        let mut s = CacheSystem::new(
            SystemConfig::paper(),
            MultiNocConfig::catnap_4x128().gating(true),
            workload,
            5,
        );
        s.warm(2_000);
        s
    }

    #[test]
    fn light_workload_mostly_hits() {
        let mut s = sys(CacheWorkload::light());
        s.run(3_000);
        let rep = s.report();
        assert!(
            rep.l1_miss_rate < 0.08,
            "cache-resident WS: miss rate {}",
            rep.l1_miss_rate
        );
        assert!(rep.total_instructions > 500_000);
        assert!(s.directories_consistent());
    }

    #[test]
    fn heavy_workload_misses_and_uses_memory() {
        let mut s = sys(CacheWorkload::heavy());
        s.run(3_000);
        let rep = s.report();
        assert!(rep.l1_miss_rate > 0.05, "thrashing WS: miss rate {}", rep.l1_miss_rate);
        assert!(rep.tx_kinds[2] > 0, "memory fetches must occur: {:?}", rep.tx_kinds);
        assert!(rep.network.packets_generated > 1_000);
        assert!(s.directories_consistent());
    }

    #[test]
    fn sharing_produces_forwards_and_invalidations() {
        let mut w = CacheWorkload::heavy();
        w.shared_fraction = 0.4;
        w.shared_set = 32 * 1024; // hot shared region
        let mut s = sys(w);
        s.run(3_000);
        let rep = s.report();
        assert!(
            rep.tx_kinds[1] + rep.tx_kinds[3] > 50,
            "hot sharing must trigger forwards/invalidations: {:?}",
            rep.tx_kinds
        );
        assert!(s.directories_consistent());
    }

    #[test]
    fn heavier_workload_loads_network_more() {
        let mut light = sys(CacheWorkload::light());
        light.run(2_000);
        let l = light.report();
        let mut heavy = sys(CacheWorkload::heavy());
        heavy.run(2_000);
        let h = heavy.report();
        assert!(
            h.network.accepted_flits_per_node_cycle > 2.0 * l.network.accepted_flits_per_node_cycle,
            "heavy {} vs light {}",
            h.network.accepted_flits_per_node_cycle,
            l.network.accepted_flits_per_node_cycle
        );
    }

    #[test]
    fn deterministic() {
        let fp = |seed| {
            let mut s = CacheSystem::new(
                SystemConfig::paper(),
                MultiNocConfig::catnap_4x128(),
                CacheWorkload::heavy(),
                seed,
            );
            s.warm(500);
            s.run(800);
            let r = s.report();
            (r.total_instructions, r.misses_issued, r.network.packets_generated)
        };
        assert_eq!(fp(9), fp(9));
        assert_ne!(fp(9), fp(10));
    }
}
