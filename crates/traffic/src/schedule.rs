//! Time-varying offered-load schedules for bursty-traffic experiments.

/// A piecewise-constant offered-load schedule: the injection rate
/// (packets per node per cycle) as a function of the simulation cycle.
///
/// The paper's Figure 12 uses a base load of 0.01 with a burst to 0.30
/// during cycles 1000-1500 and a second burst to 0.10 during cycles
/// 2000-2500; see [`LoadSchedule::fig12_bursts`].
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSchedule {
    /// `(from_cycle, rate)` segments, sorted by cycle; each rate applies
    /// from its cycle until the next segment.
    segments: Vec<(u64, f64)>,
}

impl LoadSchedule {
    /// A constant offered load.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative.
    pub fn constant(rate: f64) -> Self {
        assert!(rate >= 0.0, "offered load must be non-negative");
        LoadSchedule {
            segments: vec![(0, rate)],
        }
    }

    /// Builds a schedule from `(from_cycle, rate)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, not sorted by cycle, does not start at
    /// cycle 0, or contains a negative rate.
    pub fn piecewise(segments: Vec<(u64, f64)>) -> Self {
        assert!(!segments.is_empty(), "schedule needs at least one segment");
        assert_eq!(segments[0].0, 0, "schedule must start at cycle 0");
        for w in segments.windows(2) {
            assert!(w[0].0 < w[1].0, "segments must be strictly increasing in cycle");
        }
        assert!(segments.iter().all(|&(_, r)| r >= 0.0), "rates must be non-negative");
        LoadSchedule { segments }
    }

    /// The paper's Figure-12 bursty schedule: base 0.01, burst to 0.30 at
    /// cycles 1000-1500, second burst to 0.10 at cycles 2000-2500.
    pub fn fig12_bursts() -> Self {
        LoadSchedule::piecewise(vec![(0, 0.01), (1000, 0.30), (1500, 0.01), (2000, 0.10), (2500, 0.01)])
    }

    /// A periodic on/off burst schedule: `on_rate` for the first
    /// `on_cycles` of every period, `off_rate` for the remaining
    /// `off_cycles`, repeating for `periods` periods (then `off_rate`
    /// forever). The square wave alternates saturating bursts with
    /// near-idle valleys — the regime that exercises both halves of the
    /// event scheduler (hot-set stepping and deferral of drained and
    /// waking routers) in one run.
    ///
    /// # Panics
    ///
    /// Panics if a phase length is zero, `periods` is zero, or a rate is
    /// negative.
    pub fn square_wave(on_cycles: u64, off_cycles: u64, on_rate: f64, off_rate: f64, periods: u32) -> Self {
        assert!(on_cycles > 0 && off_cycles > 0, "phase lengths must be non-zero");
        assert!(periods > 0, "need at least one period");
        let mut segments = Vec::with_capacity(2 * periods as usize);
        for p in 0..periods as u64 {
            let start = p * (on_cycles + off_cycles);
            segments.push((start, on_rate));
            segments.push((start + on_cycles, off_rate));
        }
        LoadSchedule::piecewise(segments)
    }

    /// The `(from_cycle, rate)` segments, sorted by cycle (for job
    /// fingerprinting and schedule-prefix comparison).
    pub fn segments(&self) -> &[(u64, f64)] {
        &self.segments
    }

    /// Offered load at a given cycle.
    pub fn rate_at(&self, cycle: u64) -> f64 {
        let mut rate = self.segments[0].1;
        for &(from, r) in &self.segments {
            if cycle >= from {
                rate = r;
            } else {
                break;
            }
        }
        rate
    }

    /// Maximum rate anywhere in the schedule.
    pub fn peak_rate(&self) -> f64 {
        self.segments.iter().map(|&(_, r)| r).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule() {
        let s = LoadSchedule::constant(0.07);
        assert_eq!(s.rate_at(0), 0.07);
        assert_eq!(s.rate_at(1_000_000), 0.07);
        assert_eq!(s.peak_rate(), 0.07);
    }

    #[test]
    fn fig12_shape() {
        let s = LoadSchedule::fig12_bursts();
        assert_eq!(s.rate_at(0), 0.01);
        assert_eq!(s.rate_at(999), 0.01);
        assert_eq!(s.rate_at(1000), 0.30);
        assert_eq!(s.rate_at(1499), 0.30);
        assert_eq!(s.rate_at(1500), 0.01);
        assert_eq!(s.rate_at(2100), 0.10);
        assert_eq!(s.rate_at(3000), 0.01);
        assert_eq!(s.peak_rate(), 0.30);
    }

    #[test]
    fn square_wave_alternates() {
        let s = LoadSchedule::square_wave(100, 300, 0.4, 0.001, 3);
        assert_eq!(s.rate_at(0), 0.4);
        assert_eq!(s.rate_at(99), 0.4);
        assert_eq!(s.rate_at(100), 0.001);
        assert_eq!(s.rate_at(399), 0.001);
        assert_eq!(s.rate_at(400), 0.4);
        assert_eq!(s.rate_at(850), 0.4, "cycle 850 is inside period 2's on-phase (800-900)");
        assert_eq!(s.rate_at(950), 0.001);
        assert_eq!(s.rate_at(10_000), 0.001, "off-rate persists past the last period");
        assert_eq!(s.peak_rate(), 0.4);
    }

    #[test]
    #[should_panic]
    fn square_wave_zero_phase_panics() {
        LoadSchedule::square_wave(0, 10, 0.1, 0.0, 1);
    }

    #[test]
    #[should_panic]
    fn unsorted_segments_panic() {
        LoadSchedule::piecewise(vec![(0, 0.1), (100, 0.2), (50, 0.3)]);
    }

    #[test]
    #[should_panic]
    fn must_start_at_zero() {
        LoadSchedule::piecewise(vec![(10, 0.1)]);
    }

    #[test]
    #[should_panic]
    fn negative_rate_panics() {
        LoadSchedule::constant(-0.1);
    }
}
