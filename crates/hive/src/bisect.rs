//! Cycle-exact divergence bisection over checkpoints.
//!
//! Given two jobs that are *supposed* to agree (same config built two
//! ways, a before/after pair under a refactor, two schedules meant to
//! be equivalent) but whose results differ, the question is always the
//! same: **at which cycle did the two simulations first disagree?**
//! Stepping both side by side and comparing after every cycle answers
//! it in `O(horizon)` state captures; this module answers it in
//! `O(log horizon)` by binary-searching over *state digests*.
//!
//! The digest of a side at cycle `c` is an FNV-1a hash of its
//! checkpoint **payload** — the full serialized [`MultiNoc`] state plus
//! the traffic source's position, with the sealed container's header
//! (which embeds the config fingerprint) and trailing checksum
//! stripped, so two *different* configs can still be compared by state.
//! The payload holds simulation state only, whatever cycles the side
//! was probed at before, and the checkpoint suite guarantees it fully
//! determines future behaviour, so "digests equal at `c`" is exactly
//! the bisection invariant "not yet diverged at `c`".
//!
//! Each probed cycle's checkpoint is retained in a ladder
//! (`BTreeMap<cycle, blob>`), so seeking backwards resumes from the
//! nearest earlier save instead of re-simulating from zero: the total
//! work is `O(horizon)` cycles stepped across the whole search, same
//! as one straight run. Once the first divergent cycle is found, both
//! sides are re-run over a short bracketing window with recording
//! sinks and the event-level [`diff_traces`] report is attached.

use catnap::{config_fingerprint, MultiNoc, MultiNocConfig, CHECKPOINT_VERSION};
use catnap_bench::SimJob;
use catnap_telemetry::{diff_traces, RecordingSink, Trace};
use catnap_traffic::SyntheticWorkload;
use catnap_util::codec::{self, Fnv64};
use std::collections::BTreeMap;

/// Event-level report over the window bracketing the divergence.
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// First cycle of the re-run window (the last cycle at which the
    /// two states still agreed).
    pub from_cycle: u64,
    /// One past the last re-run cycle.
    pub to_cycle: u64,
    /// Cycle stamp of the first differing telemetry event inside the
    /// window, when the event streams caught it.
    pub divergence_cycle: Option<u64>,
    /// Human-readable [`catnap_telemetry::TraceDiff`] rendering.
    pub report: String,
}

/// Outcome of a bisection.
#[derive(Clone, Debug)]
pub struct BisectReport {
    /// First cycle at which the two states differ (`None`: the sides
    /// agree over the whole horizon). Cycle 0 means the configurations
    /// disagree at reset, before any traffic.
    pub first_divergent_cycle: Option<u64>,
    /// State comparisons performed (grows with `log2(horizon)`, not
    /// `horizon`).
    pub probes: u32,
    /// Total cycles actually simulated across both sides.
    pub cycles_stepped: u64,
    /// Event-level detail around the divergence (absent when the sides
    /// never diverged).
    pub window: Option<WindowReport>,
}

/// Digest of a checkpoint's payload: state identity modulo the
/// container header, so checkpoints of different configs compare by
/// simulated state rather than trivially by fingerprint.
///
/// # Panics
///
/// Panics if `blob` is not a valid checkpoint for `cfg` (callers here
/// only digest blobs they just wrote).
fn payload_digest(cfg: &MultiNocConfig, blob: &[u8]) -> u64 {
    let payload =
        codec::open(blob, CHECKPOINT_VERSION, config_fingerprint(cfg)).expect("self-written checkpoint must open");
    let mut h = Fnv64::new();
    h.write(payload);
    h.finish()
}

/// One side of the comparison: a live simulation plus its checkpoint
/// ladder.
struct Side {
    job: SimJob,
    net: MultiNoc,
    load: SyntheticWorkload,
    saves: BTreeMap<u64, Vec<u8>>,
    stepped: u64,
}

impl Side {
    fn new(job: &SimJob) -> Side {
        let net = MultiNoc::new(job.cfg.clone());
        let load =
            SyntheticWorkload::with_schedule(job.pattern, job.schedule.clone(), job.packet_bits, net.dims(), job.seed);
        let blob = net.save_checkpoint(&load.encode_position());
        Side {
            job: job.clone(),
            net,
            load,
            saves: BTreeMap::from([(0, blob)]),
            stepped: 0,
        }
    }

    /// Positions the simulation exactly at `cycle`, resuming from the
    /// nearest retained checkpoint when the target is in the past.
    fn seek(&mut self, cycle: u64) {
        if self.net.cycle() > cycle {
            let (_, blob) = self
                .saves
                .range(..=cycle)
                .next_back()
                .expect("the cycle-0 save brackets every target");
            let (net, driver) = MultiNoc::resume_from(self.job.cfg.clone(), blob).expect("own checkpoint resumes");
            self.load = SyntheticWorkload::decode_position(
                self.job.pattern,
                self.job.schedule.clone(),
                self.job.packet_bits,
                net.dims(),
                &driver,
            )
            .expect("own driver blob decodes");
            self.net = net;
        }
        while self.net.cycle() < cycle {
            self.load.drive(&mut self.net);
            self.net.step();
            self.stepped += 1;
        }
    }

    /// State digest at `cycle`; `retain` keeps the checkpoint on the
    /// ladder for later backward seeks.
    fn digest_at(&mut self, cycle: u64, retain: bool) -> u64 {
        self.seek(cycle);
        let blob = self.net.save_checkpoint(&self.load.encode_position());
        let digest = payload_digest(&self.job.cfg, &blob);
        if retain {
            self.saves.insert(cycle, blob);
        }
        digest
    }

    /// Re-runs `[from, to)` with recording sinks, resuming from the
    /// ladder (a save at `from` must exist — bisection always retained
    /// the bracketing cycle).
    fn trace_window(&mut self, from: u64, to: u64) -> Trace {
        let blob = match self.saves.get(&from) {
            Some(b) => b.clone(),
            None => {
                self.seek(from);
                self.net.save_checkpoint(&self.load.encode_position())
            }
        };
        let (mut net, driver): (MultiNoc<RecordingSink>, Vec<u8>) =
            MultiNoc::resume_with_sinks(self.job.cfg.clone(), |_| RecordingSink::new(), &blob)
                .expect("own checkpoint resumes");
        let mut load = SyntheticWorkload::decode_position(
            self.job.pattern,
            self.job.schedule.clone(),
            self.job.packet_bits,
            net.dims(),
            &driver,
        )
        .expect("own driver blob decodes");
        while net.cycle() < to {
            load.drive(&mut net);
            net.step();
            self.stepped += 1;
        }
        net.take_trace()
    }
}

/// Reference oracle: steps both sides cycle by cycle and compares
/// digests at every edge — `O(horizon)` state captures, no resumes.
/// The bisection is tested against this.
pub fn first_divergence_linear(a: &SimJob, b: &SimJob, horizon: u64) -> Option<u64> {
    let mut sa = Side::new(a);
    let mut sb = Side::new(b);
    (0..=horizon).find(|&c| sa.digest_at(c, false) != sb.digest_at(c, false))
}

/// Binary-searches the first cycle in `[0, horizon]` at which the two
/// jobs' simulation states diverge, then re-runs a `window`-cycle
/// bracket with recording sinks for the event-level story.
///
/// The horizon should cover the full run of interest (warm-up +
/// measurement); if the sides still agree at `horizon` the report says
/// so (`first_divergent_cycle: None`) — their results cannot differ.
pub fn bisect_jobs(a: &SimJob, b: &SimJob, horizon: u64, window: u64) -> BisectReport {
    let mut sa = Side::new(a);
    let mut sb = Side::new(b);
    let mut probes = 0u32;
    let mut agree = |sa: &mut Side, sb: &mut Side, cycle: u64, retain: bool| {
        probes += 1;
        sa.digest_at(cycle, retain) == sb.digest_at(cycle, retain)
    };

    let first = if !agree(&mut sa, &mut sb, 0, true) {
        Some(0) // different at reset: the configurations themselves differ
    } else if agree(&mut sa, &mut sb, horizon, false) {
        None
    } else {
        let (mut lo, mut hi) = (0u64, horizon);
        // Invariant: states agree at lo, differ at hi.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if agree(&mut sa, &mut sb, mid, true) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    };

    let window = first.map(|first| {
        let from = first.saturating_sub(1); // bisection retained this agreeing cycle
        let to = horizon.min(first + window.max(1));
        let ta = sa.trace_window(from, to);
        let tb = sb.trace_window(from, to);
        let diff = diff_traces(&ta, &tb);
        WindowReport {
            from_cycle: from,
            to_cycle: to,
            divergence_cycle: diff.first_divergence.as_ref().map(|d| d.cycle),
            report: diff.to_string(),
        }
    });

    BisectReport {
        first_divergent_cycle: first,
        probes,
        cycles_stepped: sa.stepped + sb.stepped,
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catnap_traffic::{LoadSchedule, SyntheticPattern};

    fn job(schedule: LoadSchedule, seed: u64) -> SimJob {
        SimJob {
            cfg: MultiNocConfig::single_noc_128b().gating(true),
            pattern: SyntheticPattern::UniformRandom,
            schedule,
            packet_bits: 128,
            warmup: 0,
            measure: 1,
            seed,
        }
    }

    #[test]
    fn identical_jobs_never_diverge() {
        let a = job(LoadSchedule::constant(0.05), 7);
        let report = bisect_jobs(&a, &a.clone(), 120, 16);
        assert_eq!(report.first_divergent_cycle, None);
        assert!(report.window.is_none());
        assert!(report.probes >= 2);
    }

    #[test]
    fn different_seeds_diverge_immediately() {
        let a = job(LoadSchedule::constant(0.1), 7);
        let b = job(LoadSchedule::constant(0.1), 8);
        // The RNG state differs from cycle 0 onwards; the linear oracle
        // and the bisection must agree exactly.
        let linear = first_divergence_linear(&a, &b, 64);
        let report = bisect_jobs(&a, &b, 64, 8);
        assert_eq!(report.first_divergent_cycle, linear);
        assert_eq!(report.first_divergent_cycle, Some(0));
    }

    #[test]
    fn symmetric_probing_keeps_equal_sides_equal() {
        // The soundness condition of the search: a digest is a function
        // of the simulated state alone, so two sides of one job agree at
        // every cycle however each was probed before — through different
        // cycle sequences, with and without backward seeks that resume
        // from the ladder.
        let a = job(LoadSchedule::constant(0.08), 7);
        let probe = |probes: &[(u64, bool)]| {
            let mut side = Side::new(&a);
            probes
                .iter()
                .map(|&(cycle, retain)| (cycle, side.digest_at(cycle, retain)))
                .collect::<BTreeMap<_, _>>()
        };
        let zigzag = probe(&[(80, true), (40, true), (60, false), (20, false), (75, false)]);
        let ascending = probe(&[
            (10, true),
            (20, false),
            (35, true),
            (40, false),
            (60, true),
            (75, true),
            (80, false),
        ]);
        let common: Vec<u64> = zigzag.keys().filter(|c| ascending.contains_key(c)).copied().collect();
        assert_eq!(common, [20, 40, 60, 75, 80]);
        for cycle in common {
            assert_eq!(
                zigzag[&cycle], ascending[&cycle],
                "one job's digests differ at cycle {cycle} between probe sequences"
            );
        }
    }
}
