//! Interval-style core model.
//!
//! Each core commits up to `commit_width` instructions per cycle. With a
//! per-instruction probability derived from the benchmark's MPKI, an
//! instruction is a long-latency miss: the core allocates an MSHR, issues
//! the miss (the system turns it into a coherence transaction over the
//! network) and keeps committing — modelling out-of-order memory-level
//! parallelism — until either all MSHRs are busy or the oldest
//! outstanding miss exceeds the instruction window (ROB fill), at which
//! point the core stalls until that miss's data returns.
//!
//! Phase behaviour: the benchmark's `burst_fraction` / `burst_boost`
//! parameters alternate the core between memory-intensive bursts and
//! compute phases whose rates average back to the nominal MPKI,
//! reproducing the bursty traffic the paper highlights (Section 2.4).

use catnap_traffic::Benchmark;
use catnap_util::SimRng;

/// Identifier of an outstanding miss (unique per core).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MissId(pub u64);

/// A miss the core wants to issue this cycle.
#[derive(Clone, Copy, Debug)]
pub struct MissRequest {
    /// Per-core miss identifier.
    pub id: MissId,
    /// Whether the miss is a write (may trigger invalidations and a
    /// dirty-block writeback).
    pub is_write: bool,
}

struct Outstanding {
    id: MissId,
    /// The miss blocks retirement once this many instructions have
    /// committed (ROB full).
    deadline_insts: u64,
}

/// One core executing a synthetic benchmark.
pub struct Core {
    bench: &'static Benchmark,
    commit_width: u32,
    window: u64,
    mshrs: usize,
    rng: SimRng,
    /// Misses in issue order, so in order of deadline: the first blocks
    /// retirement first.
    outstanding: Vec<Outstanding>,
    next_miss: u64,
    /// Remaining misses of the current miss cluster.
    cluster_left: u32,
    /// Instructions committed.
    pub instructions: u64,
    /// Cycles the core was fully stalled.
    pub stall_cycles: u64,
    // Phase state.
    in_burst: bool,
    phase_left: u32,
    burst_len: u32,
    calm_len: u32,
    p_burst: f64,
    p_calm: f64,
}

impl Core {
    /// Creates a core running `bench`.
    pub fn new(bench: &'static Benchmark, commit_width: u32, window: u32, mshrs: usize, seed: u64) -> Self {
        // Solve per-phase miss probabilities so the long-run average is
        // mpki/1000: bf·boost·p + (1-bf)·p_calm_scale·p = p_avg.
        let p_avg = bench.mpki / 1000.0;
        let bf = bench.burst_fraction;
        let boost = bench.burst_boost;
        let (p_burst, p_calm) = if bf <= 0.0 || bf >= 1.0 || boost <= 1.0 {
            (p_avg, p_avg)
        } else {
            let pb = (p_avg * boost / (bf * boost + (1.0 - bf))).min(0.9);
            let pc = (p_avg - bf * pb).max(0.0) / (1.0 - bf);
            (pb, pc)
        };
        // Phase lengths: bursts of ~2000 cycles, calm phases sized to give
        // the configured burst fraction.
        let burst_len = 2000u32;
        let calm_len = if bf > 0.0 {
            ((burst_len as f64) * (1.0 - bf) / bf).max(1.0) as u32
        } else {
            u32::MAX
        };
        let mut rng = SimRng::seed_from_u64(seed);
        // Desynchronize phases across cores.
        let phase_left = rng.gen_range(1..=calm_len.max(2));
        Core {
            bench,
            commit_width,
            window: u64::from(window),
            mshrs,
            rng,
            outstanding: Vec::new(),
            next_miss: 0,
            cluster_left: 0,
            instructions: 0,
            stall_cycles: 0,
            in_burst: false,
            phase_left,
            burst_len,
            calm_len,
            p_burst,
            p_calm,
        }
    }

    /// The benchmark this core runs.
    pub fn benchmark(&self) -> &'static Benchmark {
        self.bench
    }

    /// Outstanding misses.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether the core is currently in a memory-intensive burst phase.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// Completes an outstanding miss (response arrived).
    pub fn complete(&mut self, id: MissId) {
        if let Some(pos) = self.outstanding.iter().position(|o| o.id == id) {
            self.outstanding.remove(pos);
        }
    }

    /// Advances one cycle; pushes newly issued misses into `issued`.
    pub fn tick(&mut self, issued: &mut Vec<MissRequest>) {
        // Phase machine.
        self.phase_left = self.phase_left.saturating_sub(1);
        if self.phase_left == 0 {
            self.in_burst = !self.in_burst;
            self.phase_left = if self.in_burst { self.burst_len } else { self.calm_len };
        }
        let p_miss = if self.in_burst { self.p_burst } else { self.p_calm };

        // Stall conditions: ROB head blocked by an old miss, or committing
        // would require an MSHR none is free for.
        let mut committed = 0;
        while committed < self.commit_width {
            if let Some(oldest) = self.outstanding.first() {
                if self.instructions >= oldest.deadline_insts {
                    break; // ROB full behind the oldest miss.
                }
            }
            // Clustered misses: a miss either continues the current
            // cluster (dense follow-up misses, probability 1/3 per
            // instruction) or starts a new cluster with the initiation
            // probability scaled so the long-run rate stays `p_miss`.
            let cluster = self.bench.cluster.max(1.0);
            let is_miss = if self.cluster_left > 0 {
                self.rng.gen::<f64>() < 1.0 / 3.0
            } else {
                self.rng.gen::<f64>() < p_miss / cluster
            };
            if is_miss {
                if self.outstanding.len() >= self.mshrs {
                    break; // No MSHR free.
                }
                if self.cluster_left > 0 {
                    self.cluster_left -= 1;
                } else {
                    // Geometric cluster length with the benchmark's mean:
                    // this miss plus cluster_left follow-ups.
                    let extra = (cluster - 1.0).max(0.0);
                    let p_stop = 1.0 / (extra + 1.0);
                    let mut follow = 0u32;
                    while follow < 64 && self.rng.gen::<f64>() > p_stop {
                        follow += 1;
                    }
                    self.cluster_left = follow;
                }
                let id = MissId(self.next_miss);
                self.next_miss += 1;
                self.outstanding.push(Outstanding {
                    id,
                    deadline_insts: self.instructions + self.window,
                });
                issued.push(MissRequest {
                    id,
                    is_write: self.rng.gen::<f64>() < self.bench.write_fraction,
                });
            }
            self.instructions += 1;
            committed += 1;
        }
        if committed == 0 {
            self.stall_cycles += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catnap_traffic::workload::benchmark;

    fn core(name: &str, seed: u64) -> Core {
        Core::new(benchmark(name).unwrap(), 2, 64, 32, seed)
    }

    /// Runs a core with an "ideal memory" that answers after `latency`.
    fn run_ideal(mut c: Core, cycles: u64, latency: u64) -> (u64, u64) {
        let mut pending: Vec<(u64, MissId)> = Vec::new();
        let mut issued = Vec::new();
        let mut misses = 0u64;
        for cycle in 0..cycles {
            pending.retain(|&(ready, id)| {
                if ready <= cycle {
                    c.complete(id);
                    false
                } else {
                    true
                }
            });
            issued.clear();
            c.tick(&mut issued);
            misses += issued.len() as u64;
            for m in &issued {
                pending.push((cycle + latency, m.id));
            }
        }
        (c.instructions, misses)
    }

    #[test]
    fn miss_rate_matches_mpki() {
        let (insts, misses) = run_ideal(core("gcc", 1), 300_000, 20);
        let mpki = misses as f64 * 1000.0 / insts as f64;
        assert!((mpki - 8.0).abs() < 1.2, "gcc MPKI {mpki:.1}, expected ~8.0");
    }

    #[test]
    fn ipc_decreases_with_memory_latency() {
        let (fast, _) = run_ideal(core("mcf", 2), 100_000, 20);
        let (slow, _) = run_ideal(core("mcf", 2), 100_000, 400);
        assert!(
            (slow as f64) < 0.7 * fast as f64,
            "mcf must be latency-sensitive: {slow} vs {fast}"
        );
    }

    #[test]
    fn compute_bound_app_insensitive_to_latency() {
        // Realistic on-chip latency range (L2 hit ~20 vs congested ~60):
        // a compute-bound core barely notices, a memory-bound one does.
        let (fast, _) = run_ideal(core("sjeng", 3), 100_000, 20);
        let (slow, _) = run_ideal(core("sjeng", 3), 100_000, 60);
        assert!(
            (slow as f64) > 0.85 * fast as f64,
            "sjeng should tolerate latency: {slow} vs {fast}"
        );
        let (mfast, _) = run_ideal(core("mcf", 3), 100_000, 20);
        let (mslow, _) = run_ideal(core("mcf", 3), 100_000, 60);
        let sjeng_loss = 1.0 - slow as f64 / fast as f64;
        let mcf_loss = 1.0 - mslow as f64 / mfast as f64;
        assert!(
            mcf_loss > 2.0 * sjeng_loss,
            "mcf loss {mcf_loss:.2} vs sjeng {sjeng_loss:.2}"
        );
    }

    #[test]
    fn mshr_limit_bounds_outstanding() {
        let mut c = Core::new(benchmark("mcf").unwrap(), 2, 64, 4, 1);
        let mut issued = Vec::new();
        // Never complete anything: outstanding must saturate at 4.
        for _ in 0..10_000 {
            c.tick(&mut issued);
            assert!(c.outstanding() <= 4);
        }
        assert_eq!(c.outstanding(), 4);
        assert!(c.stall_cycles > 5_000, "core must stall once MSHRs and window fill");
    }

    #[test]
    fn window_limits_run_ahead() {
        let mut c = Core::new(benchmark("mcf").unwrap(), 2, 64, 32, 9);
        let mut issued = Vec::new();
        let mut first_miss_at_insts = None;
        for _ in 0..10_000 {
            c.tick(&mut issued);
            if first_miss_at_insts.is_none() && !issued.is_empty() {
                first_miss_at_insts = Some(c.instructions);
            }
        }
        let first = first_miss_at_insts.expect("mcf must miss");
        // Without completions the core cannot run more than `window`
        // instructions past the first miss.
        assert!(c.instructions <= first + 64);
    }

    #[test]
    fn bursty_core_alternates_phases() {
        let mut c = core("tpcw", 4);
        let mut issued = Vec::new();
        let mut saw_burst = false;
        let mut saw_calm = false;
        for _ in 0..20_000 {
            c.tick(&mut issued);
            issued.drain(..).for_each(|m| c.complete(m.id));
            if c.in_burst() {
                saw_burst = true;
            } else {
                saw_calm = true;
            }
        }
        assert!(saw_burst && saw_calm);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, am) = run_ideal(core("deal", 11), 20_000, 30);
        let (b, bm) = run_ideal(core("deal", 11), 20_000, 30);
        assert_eq!((a, am), (b, bm));
    }
}
