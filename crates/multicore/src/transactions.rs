//! The coherence-transaction engine [`crate::System`] drives.
//!
//! The system decides *which* transaction a miss takes; the engine runs
//! it: it injects each leg's packet, waits out fixed service delays,
//! queues memory responses at bandwidth-limited controllers (retrying
//! legs a full controller refused), and walks zero-delay self-legs
//! instantly. When the leg a core waits on is delivered, the engine
//! queues a completion in [`Transactions::completed`]. Every call before
//! the network steps shares one `now`, so the system drains the queue
//! twice a cycle: after [`Transactions::tick_memory`] and after
//! [`Transactions::deliver`].

use crate::config::SystemConfig;
use crate::core_model::MissId;
use crate::memory::{MemToken, MemoryController};
use crate::protocol::TransactionScript;
use catnap::MultiNoc;
use catnap_noc::{Delivery, MessageClass, NodeId, PacketDescriptor, PacketId};
use catnap_traffic::generator::PacketSink;
use std::collections::{BTreeMap, HashMap};

/// A miss a core waits on: (core, miss, issue cycle).
pub(crate) type Miss = (usize, MissId, u64);

struct Tx {
    script: TransactionScript,
    /// The miss waiting on this transaction, taken when the
    /// `completes_at` leg is delivered (`None` for background traffic).
    miss: Option<Miss>,
}

/// Running coherence transactions and the memory controllers they use.
pub(crate) struct Transactions {
    txs: HashMap<u64, Tx>,
    pkt_to_tx: HashMap<PacketId, (u64, usize)>,
    /// Legs waiting out a fixed service delay: cycle -> (tx, leg).
    delayed: BTreeMap<u64, Vec<(u64, usize)>>,
    mc_nodes: Vec<NodeId>,
    mcs: Vec<MemoryController>,
    mc_tokens: HashMap<u64, (u64, usize)>,
    /// Memory legs a full controller refused: (controller, tx, leg).
    pub(crate) mc_retry: Vec<(usize, u64, usize)>,
    next_tx: u64,
    next_packet: u64,
    next_token: u64,
    ready: Vec<MemToken>,
    /// The packets `net` delivered in the cycle being handled (reused).
    delivered: Vec<Delivery>,
    /// Misses completed since the system last drained them.
    pub(crate) completed: Vec<Miss>,
}

impl Transactions {
    /// Builds the memory controllers of `cfg` on `net`'s mesh.
    pub(crate) fn new(cfg: &SystemConfig, net: &MultiNoc) -> Self {
        let mc_nodes = cfg.mc_nodes(net.dims());
        let mcs = mc_nodes
            .iter()
            .map(|_| MemoryController::new(cfg.memory_latency, cfg.mc_requests_per_cycle, cfg.mc_queue_depth))
            .collect();
        Transactions {
            txs: HashMap::new(),
            pkt_to_tx: HashMap::new(),
            delayed: BTreeMap::new(),
            mc_nodes,
            mcs,
            mc_tokens: HashMap::new(),
            mc_retry: Vec::new(),
            next_tx: 0,
            next_packet: 0,
            next_token: 0,
            ready: Vec::new(),
            delivered: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// Memory-controller nodes, in controller order.
    pub(crate) fn mc_nodes(&self) -> &[NodeId] {
        &self.mc_nodes
    }

    /// Starts a transaction at its first leg; `miss` is the miss its
    /// `completes_at` leg completes.
    pub(crate) fn start(&mut self, net: &mut MultiNoc, script: TransactionScript, miss: Option<Miss>, now: u64) {
        let tx_id = self.next_tx;
        self.next_tx += 1;
        self.txs.insert(tx_id, Tx { script, miss });
        self.start_leg(net, tx_id, 0, now);
    }

    /// Starts the delayed legs whose service time has elapsed.
    pub(crate) fn start_due(&mut self, net: &mut MultiNoc, now: u64) {
        while let Some(due) = self.delayed.first_entry().filter(|e| *e.key() <= now) {
            for (tx_id, leg_idx) in due.remove() {
                self.start_leg(net, tx_id, leg_idx, now);
            }
        }
    }

    /// Offers every refused memory leg to its controller again; a leg
    /// refused again stays queued for the next cycle.
    pub(crate) fn retry_memory(&mut self) {
        for (mc_idx, tx_id, leg_idx) in std::mem::take(&mut self.mc_retry) {
            self.enqueue_mc(mc_idx, tx_id, leg_idx);
        }
    }

    /// Advances the memory controllers and starts the legs they release.
    pub(crate) fn tick_memory(&mut self, net: &mut MultiNoc, now: u64) {
        let mut ready = std::mem::take(&mut self.ready);
        for i in 0..self.mcs.len() {
            ready.clear();
            self.mcs[i].tick(now, &mut ready);
            for token in &ready {
                let (tx_id, leg_idx) = self.mc_tokens.remove(&token.0).expect("unknown memory token");
                self.start_leg(net, tx_id, leg_idx, now);
            }
        }
        self.ready = ready;
    }

    /// Advances the transactions whose packets `net` delivered in the
    /// cycle it just stepped.
    pub(crate) fn deliver(&mut self, net: &mut MultiNoc, now: u64) {
        let mut delivered = std::mem::take(&mut self.delivered);
        net.drain_delivered_into(&mut delivered);
        for Delivery { tail, .. } in delivered.drain(..) {
            debug_assert!(tail.class != MessageClass::Synthetic);
            if let Some((tx_id, leg_idx)) = self.pkt_to_tx.remove(&tail.packet) {
                if let Some(next) = self.after_delivery(tx_id, leg_idx, now) {
                    self.start_leg(net, tx_id, next, now);
                }
            }
        }
        self.delivered = delivered;
    }

    /// Starts leg `leg_idx`, chaining through zero-delay self-legs.
    fn start_leg(&mut self, net: &mut MultiNoc, tx_id: u64, mut leg_idx: usize, now: u64) {
        loop {
            let leg = self.txs[&tx_id].script.legs[leg_idx];
            if leg.from != leg.to {
                let pid = PacketId(self.next_packet);
                self.next_packet += 1;
                self.pkt_to_tx.insert(pid, (tx_id, leg_idx));
                net.submit(PacketDescriptor {
                    id: pid,
                    src: leg.from,
                    dst: leg.to,
                    bits: leg.bits,
                    class: leg.class,
                    created_cycle: now,
                });
                return;
            }
            // Self-leg: delivered instantly.
            match self.after_delivery(tx_id, leg_idx, now) {
                Some(next) => leg_idx = next,
                None => return,
            }
        }
    }

    /// Handles delivery of leg `leg_idx`; returns `Some(next_leg)` when the
    /// next leg should start immediately (zero delay, not via a memory
    /// controller).
    fn after_delivery(&mut self, tx_id: u64, leg_idx: usize, now: u64) -> Option<usize> {
        let tx = self.txs.get_mut(&tx_id).expect("delivered leg of a live transaction");
        if leg_idx == tx.script.completes_at {
            if let Some(miss) = tx.miss.take() {
                self.completed.push(miss);
            }
        }
        let next = leg_idx + 1;
        let Some(&leg) = tx.script.legs.get(next) else {
            self.txs.remove(&tx_id);
            return None;
        };
        if leg.via_mc {
            let mc_idx = self
                .mc_nodes
                .iter()
                .position(|&n| n == leg.from)
                .expect("via_mc leg must originate at a memory controller node");
            self.enqueue_mc(mc_idx, tx_id, next);
            return None;
        }
        if leg.delay_before > 0 {
            self.delayed
                .entry(now + u64::from(leg.delay_before))
                .or_default()
                .push((tx_id, next));
            return None;
        }
        Some(next)
    }

    fn enqueue_mc(&mut self, mc_idx: usize, tx_id: u64, leg_idx: usize) {
        let token = MemToken(self.next_token);
        self.next_token += 1;
        if self.mcs[mc_idx].accept(token) {
            self.mc_tokens.insert(token.0, (tx_id, leg_idx));
        } else {
            self.mc_retry.push((mc_idx, tx_id, leg_idx));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
    use crate::System;
    use catnap::MultiNocConfig;
    use catnap_traffic::WorkloadMix;

    /// The engine takes every delivered tail: on the Table-3 Heavy
    /// closed loop, the tails it has drained (each retires its packet's
    /// entry) equal the packets the subnets ejected, at every cycle
    /// edge.
    #[test]
    fn every_ejected_packet_reaches_the_engine() {
        let net_cfg = MultiNocConfig::catnap_4x128().gating(true).seed(7);
        let mut sys = System::new(SystemConfig::paper(), net_cfg, WorkloadMix::Heavy, 7);
        for c in 0..2_000 {
            sys.step();
            let drained = sys.tx.next_packet - sys.tx.pkt_to_tx.len() as u64;
            let ejected: u64 = (0..sys.net.num_subnets())
                .map(|s| sys.net.subnet(s).stats().packets_ejected)
                .sum();
            assert_eq!(drained, ejected, "cycle {c}");
        }
        assert!(sys.net.snapshot().delivered_packets > 10_000);
    }

    /// Six memory fetches start in one cycle against a one-deep
    /// controller: it refuses most of their memory legs, again and
    /// again while it serves one, and every fetch must still complete.
    #[test]
    fn refused_memory_legs_are_retried_until_accepted() {
        let cfg = SystemConfig {
            mc_queue_depth: 1,
            ..SystemConfig::paper()
        };
        let mut net = MultiNoc::new(MultiNocConfig::catnap_4x128());
        let mut txs = Transactions::new(&cfg, &net);
        let mc = txs.mc_nodes()[0];
        for miss in 0..6u64 {
            let script = protocol::read_memory(NodeId(9), NodeId(18), mc, &cfg);
            txs.start(&mut net, script, Some((0, MissId(miss), 0)), 0);
        }
        let mut done = Vec::new();
        let mut most_refused = 0;
        while done.len() < 6 && net.cycle() < 5_000 {
            let now = net.cycle();
            txs.start_due(&mut net, now);
            txs.retry_memory();
            most_refused = most_refused.max(txs.mc_retry.len());
            txs.tick_memory(&mut net, now);
            net.step();
            let now = net.cycle();
            txs.deliver(&mut net, now);
            most_refused = most_refused.max(txs.mc_retry.len());
            done.extend(txs.completed.drain(..).map(|(_, miss, _)| miss.0));
        }
        done.sort_unstable();
        assert_eq!(done, [0, 1, 2, 3, 4, 5], "every refused fetch completes");
        assert!(most_refused > 1, "the controller refused {most_refused} legs at most");
        assert!(txs.txs.is_empty() && txs.mc_retry.is_empty());
    }
}
