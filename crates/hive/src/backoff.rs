//! Deterministic retry backoff.
//!
//! Retrying a failed worker immediately hammers a host that is probably
//! still struggling; retrying after a fixed delay synchronizes every
//! worker's retries into thundering herds. The standard cure is
//! exponential backoff with jitter — but naive jitter (`rand()`) makes
//! the coordinator's *scheduling* nondeterministic, which ruins the
//! reproducibility story the rest of the workspace is built on.
//!
//! [`Backoff`] therefore draws its jitter from a named
//! [`catnap_util::SimRng`] stream keyed by `(seed, worker index)`: the
//! delay of a worker's n-th retry is a pure function of the hive seed,
//! the worker's index, and n. Replaying a failure schedule under the
//! same [`crate::HiveConfig::seed`] replays the exact same retry
//! timings.

use catnap_util::SimRng;
use std::time::Duration;

/// Per-worker retry delay generator: truncated binary exponential
/// backoff with deterministic "equal jitter" (delay drawn uniformly
/// from `[full/2, full]` where `full = min(base << attempt, cap)`).
#[derive(Debug)]
pub struct Backoff {
    rng: SimRng,
    base_ms: u64,
    cap_ms: u64,
}

impl Backoff {
    /// Creates the delay stream for one worker. Workers with different
    /// indices get decorrelated jitter even under the same seed.
    pub fn new(seed: u64, worker: usize, base: Duration, cap: Duration) -> Self {
        Backoff {
            rng: SimRng::stream(seed, &format!("hive-backoff-{worker}")),
            base_ms: (base.as_millis() as u64).max(1),
            cap_ms: (cap.as_millis() as u64).max(1),
        }
    }

    /// Delay before retry number `attempt` (0-based: the delay after the
    /// first failure is `delay(0)`). Consumes one jitter draw, so the
    /// sequence of returned delays — not just each delay in isolation —
    /// is deterministic.
    pub fn delay(&mut self, attempt: u32) -> Duration {
        let full = self.base_ms.saturating_mul(1u64 << attempt.min(20)).min(self.cap_ms).max(1);
        let half = full / 2;
        Duration::from_millis(half + self.rng.u64_below(full - half + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_worker_same_schedule() {
        let mk = || Backoff::new(7, 3, Duration::from_millis(10), Duration::from_millis(500));
        let mut a = mk();
        let mut b = mk();
        let sa: Vec<Duration> = (0..8).map(|n| a.delay(n)).collect();
        let sb: Vec<Duration> = (0..8).map(|n| b.delay(n)).collect();
        assert_eq!(sa, sb, "backoff schedule must replay exactly");
    }

    #[test]
    fn workers_are_decorrelated() {
        let mut a = Backoff::new(7, 0, Duration::from_millis(10), Duration::from_millis(500));
        let mut b = Backoff::new(7, 1, Duration::from_millis(10), Duration::from_millis(500));
        let sa: Vec<Duration> = (0..16).map(|n| a.delay(n)).collect();
        let sb: Vec<Duration> = (0..16).map(|n| b.delay(n)).collect();
        assert_ne!(sa, sb, "distinct workers must not retry in lockstep");
    }

    #[test]
    fn delays_grow_exponentially_within_bounds() {
        let mut b = Backoff::new(1, 0, Duration::from_millis(8), Duration::from_millis(200));
        for attempt in 0..12 {
            let full = (8u64 << attempt.min(20)).min(200);
            let d = b.delay(attempt).as_millis() as u64;
            assert!(
                d >= full / 2 && d <= full,
                "attempt {attempt}: {d}ms outside [{}, {full}]",
                full / 2
            );
        }
    }
}
