//! Set-associative cache and MESI directory simulator.
//!
//! The probabilistic miss model in [`crate::core_model`] is the default
//! driver for the paper's experiments (its rates are directly anchored to
//! Table 3's MPKIs). This module provides the real structures as an
//! alternative access model: tagged LRU caches and a directory with
//! owner/sharer tracking, driven by a synthetic address-stream generator.
//! The integration tests cross-validate the two models.

use catnap_util::SimRng;
use std::collections::HashMap;

/// MESI line state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MesiState {
    /// Modified: dirty, exclusive.
    Modified,
    /// Exclusive: clean, exclusive.
    Exclusive,
    /// Shared: clean, possibly replicated.
    Shared,
}

/// Geometry of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Block size in bytes.
    pub block_bytes: usize,
}

impl CacheConfig {
    /// The paper's L1: 32 KB, 4-way, 64-byte blocks.
    pub fn l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            block_bytes: 64,
        }
    }

    /// One slice of the paper's shared L2: 256 KB, 16-way, 64-byte blocks.
    pub fn l2_slice() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 16,
            block_bytes: 64,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.ways * self.block_bytes)
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    state: MesiState,
    lru: u64,
}

/// Outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Block present (state possibly upgraded on write).
    Hit,
    /// Block absent; `victim` is an evicted dirty block's address, if any.
    Miss {
        /// Dirty victim block address needing writeback.
        victim_writeback: Option<u64>,
    },
}

/// A set-associative, write-back, LRU cache.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    tick: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways or
    /// non-power-of-two block size).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.block_bytes.is_power_of_two() && cfg.num_sets() > 0);
        SetAssocCache {
            cfg,
            sets: vec![Vec::new(); cfg.num_sets()],
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    fn index_of(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.cfg.block_bytes as u64;
        let set = (block % self.sets.len() as u64) as usize;
        let tag = block / self.sets.len() as u64;
        (set, tag)
    }

    /// Accesses `addr`; on a miss the caller must later call
    /// [`SetAssocCache::fill`].
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        self.accesses += 1;
        let (set, tag) = self.index_of(addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            line.lru = self.tick;
            if is_write {
                line.state = MesiState::Modified;
            }
            return AccessOutcome::Hit;
        }
        self.misses += 1;
        AccessOutcome::Miss {
            victim_writeback: self.peek_victim(set),
        }
    }

    fn peek_victim(&self, set: usize) -> Option<u64> {
        if self.sets[set].len() < self.cfg.ways {
            return None;
        }
        let victim = self.sets[set].iter().min_by_key(|l| l.lru).expect("full set");
        (victim.state == MesiState::Modified).then(|| {
            let block = victim.tag * self.sets.len() as u64 + set as u64;
            block * self.cfg.block_bytes as u64
        })
    }

    /// Installs `addr` in the given state, evicting LRU if needed.
    pub fn fill(&mut self, addr: u64, state: MesiState) {
        self.tick += 1;
        let (set, tag) = self.index_of(addr);
        if let Some(line) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            line.state = state;
            line.lru = self.tick;
            return;
        }
        if self.sets[set].len() >= self.cfg.ways {
            let victim = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("full set");
            self.sets[set].swap_remove(victim);
        }
        let lru = self.tick;
        self.sets[set].push(Line { tag, state, lru });
    }

    /// Invalidates `addr` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.index_of(addr);
        if let Some(pos) = self.sets[set].iter().position(|l| l.tag == tag) {
            let line = self.sets[set].swap_remove(pos);
            line.state == MesiState::Modified
        } else {
            false
        }
    }

    /// Clears the access/miss counters (e.g. after functional warmup).
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
        self.misses = 0;
    }

    /// Miss rate so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Directory entry: who caches a block.
#[derive(Clone, Debug, Default)]
pub struct DirEntry {
    /// Exclusive owner (core id), if any.
    pub owner: Option<u32>,
    /// Sharer core ids (disjoint from `owner`).
    pub sharers: Vec<u32>,
}

/// What the home directory must do to satisfy a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirectoryAction {
    /// Data is in the home L2 (or memory); send it directly.
    SendData {
        /// Whether the L2 itself missed (fetch from memory first).
        from_memory: bool,
    },
    /// Forward the request to the exclusive owner for cache-to-cache
    /// transfer.
    ForwardToOwner(u32),
    /// Invalidate these sharers before granting exclusivity.
    Invalidate(Vec<u32>),
}

/// The directory for one home L2 slice.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    entries: HashMap<u64, DirEntry>,
}

impl Directory {
    /// Handles a read (GetS) from `core`. Updates sharer state.
    pub fn get_s(&mut self, block: u64, core: u32, l2_hit: bool) -> DirectoryAction {
        let e = self.entries.entry(block).or_default();
        if let Some(owner) = e.owner.take() {
            // Owner downgrades to sharer; requester becomes sharer too.
            e.sharers.push(owner);
            e.sharers.push(core);
            return DirectoryAction::ForwardToOwner(owner);
        }
        if !e.sharers.contains(&core) {
            e.sharers.push(core);
        }
        DirectoryAction::SendData { from_memory: !l2_hit }
    }

    /// Handles a write (GetM) from `core`. Updates owner state.
    pub fn get_m(&mut self, block: u64, core: u32, l2_hit: bool) -> DirectoryAction {
        let e = self.entries.entry(block).or_default();
        if let Some(owner) = e.owner {
            if owner != core {
                e.owner = Some(core);
                e.sharers.clear();
                return DirectoryAction::ForwardToOwner(owner);
            }
            return DirectoryAction::SendData { from_memory: false };
        }
        let others: Vec<u32> = e.sharers.iter().copied().filter(|&s| s != core).collect();
        e.sharers.clear();
        e.owner = Some(core);
        if others.is_empty() {
            DirectoryAction::SendData { from_memory: !l2_hit }
        } else {
            DirectoryAction::Invalidate(others)
        }
    }

    /// Handles a writeback (PutM) from `core`.
    pub fn put_m(&mut self, block: u64, core: u32) {
        if let Some(e) = self.entries.get_mut(&block) {
            if e.owner == Some(core) {
                e.owner = None;
            }
        }
    }

    /// Current entry for a block.
    pub fn entry(&self, block: u64) -> Option<&DirEntry> {
        self.entries.get(&block)
    }

    /// Invariant check: at most one owner, owner not also a sharer.
    pub fn check_invariants(&self) -> bool {
        self.entries.values().all(|e| e.owner.is_none_or(|o| !e.sharers.contains(&o)))
    }
}

/// Synthetic address-stream generator: a mix of sequential, strided and
/// random accesses within a per-core working set, plus a fraction of
/// accesses to a globally shared region.
#[derive(Clone, Debug)]
pub struct AddressStream {
    rng: SimRng,
    base: u64,
    working_set: u64,
    shared_base: u64,
    shared_set: u64,
    shared_fraction: f64,
    cursor: u64,
}

impl AddressStream {
    /// Creates a stream for one core: `working_set` bytes private, with
    /// `shared_fraction` of accesses landing in a `shared_set`-byte region
    /// common to all cores.
    pub fn new(core: usize, working_set: u64, shared_set: u64, shared_fraction: f64, seed: u64) -> Self {
        AddressStream {
            rng: SimRng::seed_from_u64(seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            base: 0x1_0000_0000 + (core as u64) * 0x100_0000,
            working_set,
            shared_base: 0x8_0000_0000,
            shared_set,
            shared_fraction,
            cursor: 0,
        }
    }

    /// Next access address.
    pub fn next_addr(&mut self) -> u64 {
        if self.rng.gen::<f64>() < self.shared_fraction {
            return self.shared_base + self.rng.gen_range(0..self.shared_set / 64) * 64;
        }
        match self.rng.gen_range(0..3u8) {
            0 => {
                // Sequential walk.
                self.cursor = (self.cursor + 64) % self.working_set;
                self.base + self.cursor
            }
            1 => {
                // Strided.
                self.cursor = (self.cursor + 8 * 64) % self.working_set;
                self.base + self.cursor
            }
            _ => self.base + self.rng.gen_range(0..self.working_set / 64) * 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1().num_sets(), 128);
        assert_eq!(CacheConfig::l2_slice().num_sets(), 256);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(CacheConfig::l1());
        assert!(matches!(c.access(0x1000, false), AccessOutcome::Miss { .. }));
        c.fill(0x1000, MesiState::Exclusive);
        assert_eq!(c.access(0x1000, false), AccessOutcome::Hit);
        assert_eq!(c.access(0x1040, false), AccessOutcome::Miss { victim_writeback: None });
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let cfg = CacheConfig {
            size_bytes: 4 * 64,
            ways: 4,
            block_bytes: 64,
        }; // one set, 4 ways
        let mut c = SetAssocCache::new(cfg);
        for i in 0..4u64 {
            c.fill(i * 64, MesiState::Exclusive);
        }
        // Touch block 0 (write: dirty) so block 1 becomes LRU.
        assert_eq!(c.access(0, true), AccessOutcome::Hit);
        match c.access(4 * 64, false) {
            AccessOutcome::Miss { victim_writeback } => {
                assert_eq!(victim_writeback, None, "LRU victim (block 1) is clean");
            }
            AccessOutcome::Hit => panic!("must miss"),
        }
        c.fill(4 * 64, MesiState::Exclusive); // evicts block 1
        assert!(
            matches!(c.access(64, false), AccessOutcome::Miss { .. }),
            "block 1 evicted"
        );
        // Now make everything dirty and check a dirty victim is reported.
        let mut d = SetAssocCache::new(cfg);
        for i in 0..4u64 {
            d.fill(i * 64, MesiState::Modified);
        }
        match d.access(5 * 64, false) {
            AccessOutcome::Miss { victim_writeback } => assert!(victim_writeback.is_some()),
            AccessOutcome::Hit => panic!("must miss"),
        }
    }

    #[test]
    fn write_upgrades_to_modified_and_invalidate_reports_dirty() {
        let mut c = SetAssocCache::new(CacheConfig::l1());
        c.fill(0x2000, MesiState::Shared);
        c.access(0x2000, true);
        assert!(c.invalidate(0x2000), "written line must be dirty");
        assert!(!c.invalidate(0x2000), "already gone");
    }

    #[test]
    fn miss_rate_reflects_working_set_vs_capacity() {
        // Working set half the cache: near-zero steady-state miss rate.
        let mut small = SetAssocCache::new(CacheConfig::l1());
        let mut stream = AddressStream::new(0, 16 * 1024, 1024, 0.0, 42);
        for _ in 0..60_000 {
            let a = stream.next_addr();
            if matches!(small.access(a, false), AccessOutcome::Miss { .. }) {
                small.fill(a, MesiState::Exclusive);
            }
        }
        // Working set 16x the cache: high miss rate.
        let mut big = SetAssocCache::new(CacheConfig::l1());
        let mut stream2 = AddressStream::new(0, 512 * 1024, 1024, 0.0, 42);
        for _ in 0..60_000 {
            let a = stream2.next_addr();
            if matches!(big.access(a, false), AccessOutcome::Miss { .. }) {
                big.fill(a, MesiState::Exclusive);
            }
        }
        assert!(small.miss_rate() < 0.05, "small WS miss rate {}", small.miss_rate());
        assert!(
            big.miss_rate() > 5.0 * small.miss_rate(),
            "big {} vs small {}",
            big.miss_rate(),
            small.miss_rate()
        );
    }

    #[test]
    fn directory_read_sharing() {
        let mut dir = Directory::default();
        assert_eq!(
            dir.get_s(0x40, 1, true),
            DirectoryAction::SendData { from_memory: false }
        );
        assert_eq!(
            dir.get_s(0x40, 2, true),
            DirectoryAction::SendData { from_memory: false }
        );
        let e = dir.entry(0x40).unwrap();
        assert!(e.sharers.contains(&1) && e.sharers.contains(&2));
        assert!(dir.check_invariants());
    }

    #[test]
    fn directory_write_invalidates_sharers() {
        let mut dir = Directory::default();
        dir.get_s(0x40, 1, true);
        dir.get_s(0x40, 2, true);
        match dir.get_m(0x40, 3, true) {
            DirectoryAction::Invalidate(mut v) => {
                v.sort_unstable();
                assert_eq!(v, vec![1, 2]);
            }
            other => panic!("expected invalidations, got {other:?}"),
        }
        assert_eq!(dir.entry(0x40).unwrap().owner, Some(3));
        assert!(dir.check_invariants());
    }

    #[test]
    fn directory_forwards_to_owner() {
        let mut dir = Directory::default();
        dir.get_m(0x80, 5, true);
        assert_eq!(dir.get_s(0x80, 6, true), DirectoryAction::ForwardToOwner(5));
        let e = dir.entry(0x80).unwrap();
        assert_eq!(e.owner, None, "owner downgraded on read forward");
        assert!(e.sharers.contains(&5) && e.sharers.contains(&6));
        // Write from a third core forwards to... nobody owns now; sharers
        // get invalidated.
        match dir.get_m(0x80, 7, true) {
            DirectoryAction::Invalidate(v) => assert_eq!(v.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(dir.check_invariants());
    }

    #[test]
    fn writeback_clears_owner() {
        let mut dir = Directory::default();
        dir.get_m(0xC0, 9, true);
        dir.put_m(0xC0, 9);
        assert_eq!(dir.entry(0xC0).unwrap().owner, None);
    }

    #[test]
    fn shared_region_attracts_fraction() {
        let mut s = AddressStream::new(3, 1 << 20, 1 << 16, 0.3, 7);
        let shared = (0..10_000).filter(|_| s.next_addr() >= 0x8_0000_0000).count();
        let frac = shared as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.03, "shared fraction {frac}");
    }
}
