//! Per-router power-state machine for runtime power gating.
//!
//! A router is in one of three states (paper Section 3.1):
//!
//! * **Active** — full supply voltage; operates normally.
//! * **Sleep** — power supply cut by the sleep transistor; consumes no
//!   leakage power. Entered in a single cycle.
//! * **Wake-up** — charging local supply back to Vdd for
//!   [`GatingConfig::t_wakeup`](crate::GatingConfig::t_wakeup) cycles; the
//!   router consumes power but cannot transmit flits yet.
//!
//! The machine also keeps the accounting needed for the Compensated Sleep
//! Cycles metric (Hu et al., ISLPED '04): every sleep period is charged
//! `t_breakeven` cycles of leakage-equivalent energy for switching the sleep
//! transistor and recharging decoupling capacitance.

use crate::config::GatingConfig;
use crate::stats::GatingActivity;
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// Power state of a router.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PowerState {
    /// Powered and operational.
    Active,
    /// Power gated; no leakage, cannot hold or forward flits.
    Sleep,
    /// Transitioning from sleep to active: the unit's tick of cycle
    /// `until` makes it active.
    WakeUp {
        /// The cycle the wake-up completes on.
        until: u64,
    },
}

impl PowerState {
    /// Whether the router can process flits this cycle.
    pub fn is_active(self) -> bool {
        self == PowerState::Active
    }

    /// Whether the router is fully gated.
    pub fn is_sleeping(self) -> bool {
        self == PowerState::Sleep
    }
}

/// Telemetry sees power states with the completion cycle erased: a
/// trace records *when* the phase changed, not when a wake-up will end.
/// `catnap-telemetry` sits below this crate in the dependency graph, so
/// the conversion lives here.
impl From<PowerState> for catnap_telemetry::PowerPhase {
    fn from(state: PowerState) -> Self {
        match state {
            PowerState::Active => catnap_telemetry::PowerPhase::Active,
            PowerState::Sleep => catnap_telemetry::PowerPhase::Sleep,
            PowerState::WakeUp { .. } => catnap_telemetry::PowerPhase::Wake,
        }
    }
}

/// Power-state machine plus gating statistics for one gating unit (a
/// router, or one input port at port granularity).
///
/// Time is held as timestamps, so the machine reads exactly at every
/// cycle edge whether or not its unit ran: the open sleep period runs
/// from `sleep_started`, an open wake-up ends on its completion cycle,
/// and a period's residency is added to its total when it closes. A
/// tick changes nothing but a wake-up completing on it. The active
/// residency is not counted: it is the elapsed cycles less the other
/// two ([`PowerStateMachine::activity`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PowerStateMachine {
    state: PowerState,
    t_wakeup: u32,
    t_breakeven: u32,
    /// Cycle edge the current sleep period began (valid while sleeping).
    sleep_started: u64,
    /// Cycles spent asleep in closed sleep periods.
    sleep_cycles: u64,
    /// Cycles spent in completed wake-up transitions.
    wakeup_cycles: u64,
    /// Number of completed or in-progress sleep periods (active→sleep
    /// transitions).
    sleep_transitions: u64,
    /// Sum over closed sleep periods of `max(0, length - t_breakeven)`:
    /// the compensated sleep cycles.
    compensated_sleep_cycles: u64,
}

impl PowerStateMachine {
    /// Creates an active machine with the given gating timing.
    pub fn new(t_wakeup: u32, t_breakeven: u32) -> Self {
        PowerStateMachine {
            state: PowerState::Active,
            t_wakeup,
            t_breakeven,
            sleep_started: 0,
            sleep_cycles: 0,
            wakeup_cycles: 0,
            sleep_transitions: 0,
            compensated_sleep_cycles: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Puts the unit to sleep at cycle edge `edge`. The caller must have
    /// verified the sleep guard (empty buffers, no inbound traffic).
    ///
    /// # Panics
    ///
    /// Panics if the unit is not active.
    pub fn enter_sleep(&mut self, edge: u64) {
        assert_eq!(self.state, PowerState::Active, "can only sleep from the active state");
        self.state = PowerState::Sleep;
        self.sleep_started = edge;
        self.sleep_transitions += 1;
    }

    /// Requests a wake-up landing on cycle edge `edge`: the sleep period
    /// closes there, and the wake-up completes `t_wakeup` ticks later
    /// (at once when that is 0). Its compensated sleep cycles are
    /// charged at the network's clock, `cycle`, which is `edge + 1` for
    /// a request that lands before the unit's tick of the current cycle.
    /// Idempotent: waking an active or already-waking unit is a no-op.
    pub fn request_wake(&mut self, edge: u64, cycle: u64) {
        if self.state == PowerState::Sleep {
            self.compensated_sleep_cycles = self.compensated_at(cycle);
            self.sleep_cycles += edge - self.sleep_started;
            self.state = if self.t_wakeup == 0 {
                PowerState::Active
            } else {
                PowerState::WakeUp {
                    until: edge + u64::from(self.t_wakeup),
                }
            };
        }
    }

    /// The unit's tick of cycle `cycle`: completes a wake-up due on it.
    /// Returns whether one completed.
    pub fn tick(&mut self, cycle: u64) -> bool {
        match self.state {
            PowerState::WakeUp { until } if until == cycle => {
                self.wakeup_cycles += u64::from(self.t_wakeup);
                self.state = PowerState::Active;
                true
            }
            PowerState::WakeUp { until } => {
                debug_assert!(until > cycle, "wake-up completion at {until} missed by tick {cycle}");
                false
            }
            PowerState::Active | PowerState::Sleep => false,
        }
    }

    /// Compensated sleep cycles including the in-progress period (if any)
    /// up to `cycle`.
    pub fn compensated_at(&self, cycle: u64) -> u64 {
        let mut csc = self.compensated_sleep_cycles;
        if self.state == PowerState::Sleep {
            let period = cycle.saturating_sub(self.sleep_started);
            csc += period.saturating_sub(self.t_breakeven as u64);
        }
        csc
    }

    /// Residency of the open sleep or wake-up period at cycle edge
    /// `cycle`, as `(sleep, wake-up)` cycles.
    fn open_residency(&self, cycle: u64) -> (u64, u64) {
        match self.state {
            PowerState::Active => (0, 0),
            PowerState::Sleep => (cycle - self.sleep_started, 0),
            PowerState::WakeUp { until } => (0, u64::from(self.t_wakeup) - (until - cycle)),
        }
    }

    /// Gating residency at cycle edge `cycle`: the closed periods plus
    /// the open one, the active residency as the rest of the elapsed
    /// cycles, and the compensated sleep cycles up to `cycle`.
    pub fn activity(&self, cycle: u64) -> GatingActivity {
        let (open_sleep, open_wakeup) = self.open_residency(cycle);
        let (sleep_cycles, wakeup_cycles) = (self.sleep_cycles + open_sleep, self.wakeup_cycles + open_wakeup);
        GatingActivity {
            active_cycles: cycle - sleep_cycles - wakeup_cycles,
            sleep_cycles,
            wakeup_cycles,
            sleep_transitions: self.sleep_transitions,
            compensated_sleep_cycles: self.compensated_at(cycle),
        }
    }

    /// Closes out an in-progress sleep period at simulation end so the CSC
    /// accounting covers the full run. Idempotent: the open period's
    /// residency is closed and the period restarts at `cycle`, so neither
    /// a second `finalize` nor [`PowerStateMachine::activity`]
    /// double-counts it.
    pub fn finalize(&mut self, cycle: u64) {
        self.compensated_sleep_cycles = self.compensated_at(cycle);
        if self.state == PowerState::Sleep {
            self.sleep_cycles += cycle - self.sleep_started;
            self.sleep_started = cycle;
        }
    }

    /// Why the machine cannot be at cycle edge `cycle`, if it cannot: a
    /// sleep period that begins after it, a wake-up that does not
    /// complete within the `t_wakeup` cycles after it, or residencies
    /// that exceed the elapsed cycles. Checkpoint decode refuses such a
    /// machine ([`crate::Router`]'s decode), and debug builds check
    /// every machine at every edge.
    pub(crate) fn time_error(&self, cycle: u64) -> Option<&'static str> {
        if self.sleep_started > cycle {
            return Some("timestamp after the checkpoint's cycle");
        }
        if let PowerState::WakeUp { until } = self.state {
            if until <= cycle || until - cycle > u64::from(self.t_wakeup) {
                return Some("wake-up completion outside the wake-up latency");
            }
        }
        let (open_sleep, open_wakeup) = self.open_residency(cycle);
        let gated = (self.sleep_cycles.checked_add(self.wakeup_cycles))
            .and_then(|closed| closed.checked_add(open_sleep + open_wakeup));
        if gated.is_none_or(|gated| gated > cycle) {
            return Some("sleep and wake-up residency exceed the elapsed cycles");
        }
        None
    }

    /// Serializes the machine's state (checkpointing): its timestamps as
    /// held and the residencies of closed periods. The timings come from
    /// the configuration and are not written, nor is the active
    /// residency, which the elapsed cycles give.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        match self.state {
            PowerState::Active => w.put_u8(0),
            PowerState::Sleep => w.put_u8(1),
            PowerState::WakeUp { until } => {
                w.put_u8(2);
                w.put_u64(until);
            }
        }
        w.put_u64(self.sleep_started);
        w.put_u64(self.sleep_cycles);
        w.put_u64(self.wakeup_cycles);
        w.put_u64(self.sleep_transitions);
        w.put_u64(self.compensated_sleep_cycles);
    }

    /// Rebuilds a machine serialized by [`PowerStateMachine::encode`]
    /// with the configured timings. The caller checks that it fits the
    /// checkpoint's cycle ([`PowerStateMachine::time_error`]).
    pub(crate) fn decode(r: &mut ByteReader<'_>, gating: &GatingConfig) -> Result<Self, CodecError> {
        let state = match r.get_u8()? {
            0 => PowerState::Active,
            1 => PowerState::Sleep,
            2 => PowerState::WakeUp { until: r.get_u64()? },
            _ => return Err(CodecError::Invalid("power state tag")),
        };
        let mut m = PowerStateMachine::new(gating.t_wakeup, gating.t_breakeven);
        m.state = state;
        m.sleep_started = r.get_u64()?;
        m.sleep_cycles = r.get_u64()?;
        m.wakeup_cycles = r.get_u64()?;
        m.sleep_transitions = r.get_u64()?;
        m.compensated_sleep_cycles = r.get_u64()?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakeup_takes_t_wakeup_cycles() {
        let mut m = PowerStateMachine::new(10, 12);
        m.enter_sleep(0);
        assert!(m.state().is_sleeping());
        m.request_wake(5, 5);
        assert_eq!(m.state(), PowerState::WakeUp { until: 15 });
        for cycle in 6..15 {
            assert!(!m.tick(cycle));
            assert!(!m.state().is_active());
        }
        assert!(m.tick(15));
        assert!(m.state().is_active());
        assert_eq!(m.activity(15).wakeup_cycles, 10);
    }

    #[test]
    fn csc_subtracts_breakeven_per_period() {
        let mut m = PowerStateMachine::new(10, 12);
        // Period of 50 cycles: contributes 38.
        m.enter_sleep(0);
        m.request_wake(50, 50);
        assert_eq!(m.compensated_at(50), 38);
        // Unprofitable period of 5 cycles: contributes 0, not negative.
        assert!(m.tick(60));
        m.enter_sleep(100);
        m.request_wake(105, 105);
        let g = m.activity(105);
        assert_eq!(g.compensated_sleep_cycles, 38);
        assert_eq!(g.sleep_transitions, 2);
    }

    #[test]
    fn wake_is_idempotent() {
        let mut m = PowerStateMachine::new(4, 12);
        m.enter_sleep(0);
        m.request_wake(8, 8);
        let before = m.state();
        m.request_wake(9, 9);
        assert_eq!(m.state(), before, "second wake must not restart the countdown");
    }

    #[test]
    #[should_panic]
    fn cannot_sleep_while_waking() {
        let mut m = PowerStateMachine::new(4, 12);
        m.enter_sleep(0);
        m.request_wake(1, 1);
        m.enter_sleep(2);
    }

    #[test]
    fn residency_counters_partition_time() {
        let mut m = PowerStateMachine::new(3, 12);
        m.enter_sleep(5);
        // Open periods read exactly at every edge, untouched.
        assert_eq!(m.activity(9).sleep_cycles, 4);
        m.request_wake(12, 12);
        assert_eq!(m.activity(13).wakeup_cycles, 1);
        assert!(m.tick(15));
        let g = m.activity(20);
        // The other 10 of the 20 cycles were active.
        assert_eq!((g.active_cycles, g.sleep_cycles, g.wakeup_cycles), (10, 7, 3));
    }

    /// A wake that lands before the unit's tick of the current cycle
    /// closes the sleep residency on the edge before it, but charges the
    /// period's compensated sleep cycles at the current cycle.
    #[test]
    fn a_wake_before_the_tick_charges_csc_at_the_clock() {
        let mut m = PowerStateMachine::new(10, 12);
        m.enter_sleep(0);
        m.request_wake(49, 50);
        let g = m.activity(49);
        assert_eq!((g.sleep_cycles, g.compensated_sleep_cycles), (49, 38));
        assert_eq!(m.state(), PowerState::WakeUp { until: 59 });
    }

    #[test]
    fn finalize_accounts_open_period() {
        let mut m = PowerStateMachine::new(10, 12);
        m.enter_sleep(100);
        m.finalize(200);
        assert_eq!(m.compensated_sleep_cycles, 88);
        m.finalize(200);
        let g = m.activity(200);
        assert_eq!(
            (g.sleep_cycles, g.compensated_sleep_cycles),
            (100, 88),
            "finalize is idempotent"
        );
    }

    #[test]
    fn zero_wakeup_latency_wakes_immediately() {
        let mut m = PowerStateMachine::new(0, 12);
        m.enter_sleep(0);
        m.request_wake(3, 3);
        assert!(m.state().is_active());
    }

    /// A machine fits a cycle edge its run can reach: no sleep begins
    /// after it, a wake-up completes within the `t_wakeup` cycles after
    /// it, and the residencies fit the elapsed cycles. Checkpoint decode
    /// refuses the rest.
    #[test]
    fn time_error_names_timestamps_outside_the_elapsed_cycles() {
        let mut m = PowerStateMachine::new(10, 12);
        m.enter_sleep(20);
        assert_eq!(m.time_error(20), None);
        assert_eq!(m.time_error(19), Some("timestamp after the checkpoint's cycle"));
        m.request_wake(30, 30);
        let outside = Some("wake-up completion outside the wake-up latency");
        assert_eq!(m.time_error(30), None);
        assert_eq!(m.time_error(29), outside);
        assert_eq!(m.time_error(39), None);
        assert_eq!(m.time_error(40), outside);
        assert!(m.tick(40));
        assert_eq!(m.time_error(40), None);
        m.sleep_cycles = 31;
        assert_eq!(
            m.time_error(40),
            Some("sleep and wake-up residency exceed the elapsed cycles")
        );
    }
}
