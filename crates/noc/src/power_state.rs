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
use catnap_util::codec::{ByteReader, ByteWriter, CodecError};

/// Power state of a router.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PowerState {
    /// Powered and operational.
    Active,
    /// Power gated; no leakage, cannot hold or forward flits.
    Sleep,
    /// Transitioning from sleep to active; `remaining` cycles left.
    WakeUp {
        /// Cycles until the router becomes active.
        remaining: u32,
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

/// Telemetry sees power states with the wake-up countdown erased: a
/// trace records *when* the phase changed, not how many charge cycles
/// remain. `catnap-telemetry` sits below this crate in the dependency
/// graph, so the conversion lives here.
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
/// router, or one input port at port granularity). Equality compares
/// every field, which the debug-mode shadow replay uses to check a
/// closed-form fast-forward against cycle-by-cycle ticking. A tick is
/// spent in one state, so the active residency is not counted: it is
/// the elapsed ticks less the other two ([`crate::Router::gating_activity`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PowerStateMachine {
    state: PowerState,
    t_wakeup: u32,
    t_breakeven: u32,
    /// Cycle the current sleep period began (valid while sleeping).
    sleep_started: u64,
    /// Total cycles spent asleep.
    pub sleep_cycles: u64,
    /// Total cycles spent in the wake-up transition.
    pub wakeup_cycles: u64,
    /// Number of completed or in-progress sleep periods (active→sleep
    /// transitions).
    pub sleep_transitions: u64,
    /// Sum over completed sleep periods of `max(0, length - t_breakeven)`:
    /// the compensated sleep cycles.
    pub compensated_sleep_cycles: u64,
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

    /// Puts the router to sleep. The caller must have verified the sleep
    /// guard (empty buffers, no inbound traffic).
    ///
    /// # Panics
    ///
    /// Panics if the router is not active.
    pub fn enter_sleep(&mut self, cycle: u64) {
        assert_eq!(self.state, PowerState::Active, "can only sleep from the active state");
        self.state = PowerState::Sleep;
        self.sleep_started = cycle;
        self.sleep_transitions += 1;
    }

    /// Requests a wake-up. Idempotent: waking an active or already-waking
    /// router is a no-op.
    pub fn request_wake(&mut self, cycle: u64) {
        if self.state == PowerState::Sleep {
            self.compensated_sleep_cycles = self.compensated_at(cycle);
            if self.t_wakeup == 0 {
                self.state = PowerState::Active;
            } else {
                self.state = PowerState::WakeUp {
                    remaining: self.t_wakeup,
                };
            }
        }
    }

    /// Advances the machine by one cycle, accruing state-residency counters
    /// and completing wake-up countdowns.
    pub fn tick(&mut self) {
        match self.state {
            PowerState::Active => {}
            PowerState::Sleep => self.sleep_cycles += 1,
            PowerState::WakeUp { remaining } => {
                self.wakeup_cycles += 1;
                if remaining <= 1 {
                    self.state = PowerState::Active;
                } else {
                    self.state = PowerState::WakeUp {
                        remaining: remaining - 1,
                    };
                }
            }
        }
    }

    /// Advances the machine by `dt` cycles in O(1), equivalent to `dt`
    /// calls of [`PowerStateMachine::tick`] **provided no state
    /// transition falls inside the interval**. Active and Sleep are
    /// stable (nothing external calls `enter_sleep`/`request_wake`
    /// during a deferred stretch by construction); a wake-up countdown
    /// is only stable for `remaining - 1` more ticks, which the
    /// network's scheduler respects by ticking the router on the
    /// completing cycle.
    ///
    /// # Panics
    ///
    /// Panics if `dt` would complete a wake-up countdown (the scheduler
    /// is wrong in that case — the completing tick must be simulated
    /// normally so telemetry sees the Wake→Active edge).
    pub fn fast_forward(&mut self, dt: u64) {
        match self.state {
            PowerState::Active => {}
            PowerState::Sleep => self.sleep_cycles += dt,
            PowerState::WakeUp { remaining } => {
                assert!(
                    dt < remaining as u64,
                    "fast-forward of {dt} across a wake-up completion ({remaining} remaining)"
                );
                self.wakeup_cycles += dt;
                self.state = PowerState::WakeUp {
                    remaining: remaining - dt as u32,
                };
            }
        }
    }

    /// How many further ticks this machine is guaranteed transition-free
    /// on its own: `None` for the stable states, `remaining - 1` for a
    /// wake-up countdown (the completing tick itself must be stepped).
    pub fn stable_ticks(&self) -> Option<u64> {
        match self.state {
            PowerState::Active | PowerState::Sleep => None,
            PowerState::WakeUp { remaining } => Some(remaining.saturating_sub(1) as u64),
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

    /// Closes out an in-progress sleep period at simulation end so the CSC
    /// accounting covers the full run. Idempotent: the open period is
    /// restarted at `cycle` so neither a second `finalize` nor
    /// [`PowerStateMachine::compensated_at`] double-counts it.
    pub fn finalize(&mut self, cycle: u64) {
        self.compensated_sleep_cycles = self.compensated_at(cycle);
        if self.state == PowerState::Sleep {
            self.sleep_started = cycle;
        }
    }

    /// Serializes the machine's state (checkpointing). The timings come
    /// from the configuration and are not written, nor is the active
    /// residency, which the elapsed cycles give.
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        match self.state {
            PowerState::Active => w.put_u8(0),
            PowerState::Sleep => w.put_u8(1),
            PowerState::WakeUp { remaining } => {
                w.put_u8(2);
                w.put_u32(remaining);
            }
        }
        w.put_u64(self.sleep_started);
        w.put_u64(self.sleep_cycles);
        w.put_u64(self.wakeup_cycles);
        w.put_u64(self.sleep_transitions);
        w.put_u64(self.compensated_sleep_cycles);
    }

    /// Rebuilds a machine serialized by [`PowerStateMachine::encode`]
    /// with the configured timings, for a unit that has run `elapsed`
    /// ticks, which its sleep and wake-up residencies must fit in.
    pub(crate) fn decode(r: &mut ByteReader<'_>, gating: &GatingConfig, elapsed: u64) -> Result<Self, CodecError> {
        let state = match r.get_u8()? {
            0 => PowerState::Active,
            1 => PowerState::Sleep,
            2 => {
                let remaining = r.get_u32()?;
                if remaining == 0 {
                    return Err(CodecError::Invalid("zero wake-up countdown"));
                }
                PowerState::WakeUp { remaining }
            }
            _ => return Err(CodecError::Invalid("power state tag")),
        };
        let mut m = PowerStateMachine::new(gating.t_wakeup, gating.t_breakeven);
        m.state = state;
        m.sleep_started = r.get_u64()?;
        m.sleep_cycles = r.get_u64()?;
        m.wakeup_cycles = r.get_u64()?;
        if m.sleep_cycles.checked_add(m.wakeup_cycles).is_none_or(|gated| gated > elapsed) {
            return Err(CodecError::Invalid(
                "sleep and wake-up residency exceed the elapsed cycles",
            ));
        }
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
        m.request_wake(5);
        assert_eq!(m.state(), PowerState::WakeUp { remaining: 10 });
        for _ in 0..9 {
            m.tick();
            assert!(!m.state().is_active());
        }
        m.tick();
        assert!(m.state().is_active());
        assert_eq!(m.wakeup_cycles, 10);
    }

    #[test]
    fn csc_subtracts_breakeven_per_period() {
        let mut m = PowerStateMachine::new(10, 12);
        // Period of 50 cycles: contributes 38.
        m.enter_sleep(0);
        m.request_wake(50);
        assert_eq!(m.compensated_sleep_cycles, 38);
        // Unprofitable period of 5 cycles: contributes 0, not negative.
        for _ in 0..10 {
            m.tick();
        }
        m.enter_sleep(100);
        m.request_wake(105);
        assert_eq!(m.compensated_sleep_cycles, 38);
        assert_eq!(m.sleep_transitions, 2);
    }

    #[test]
    fn wake_is_idempotent() {
        let mut m = PowerStateMachine::new(4, 12);
        m.enter_sleep(0);
        m.request_wake(8);
        let before = m.state();
        m.request_wake(9);
        assert_eq!(m.state(), before, "second wake must not restart the countdown");
    }

    #[test]
    #[should_panic]
    fn cannot_sleep_while_waking() {
        let mut m = PowerStateMachine::new(4, 12);
        m.enter_sleep(0);
        m.request_wake(1);
        m.enter_sleep(2);
    }

    #[test]
    fn residency_counters_partition_time() {
        let mut m = PowerStateMachine::new(3, 12);
        for _ in 0..5 {
            m.tick();
        }
        m.enter_sleep(5);
        for _ in 0..7 {
            m.tick();
        }
        m.request_wake(12);
        for _ in 0..8 {
            m.tick();
        }
        // The other 10 of the 20 ticks were active.
        assert_eq!(m.sleep_cycles, 7);
        assert_eq!(m.wakeup_cycles, 3);
    }

    #[test]
    fn finalize_accounts_open_period() {
        let mut m = PowerStateMachine::new(10, 12);
        m.enter_sleep(100);
        m.finalize(200);
        assert_eq!(m.compensated_sleep_cycles, 88);
    }

    #[test]
    fn fast_forward_matches_ticks_in_every_state() {
        // Active, Sleep, and a partial wake-up countdown.
        for setup in 0..3u8 {
            let mk = || {
                let mut m = PowerStateMachine::new(10, 12);
                if setup >= 1 {
                    m.tick();
                    m.enter_sleep(1);
                }
                if setup == 2 {
                    m.tick();
                    m.request_wake(2);
                }
                m
            };
            let mut ticked = mk();
            let mut skipped = mk();
            let dt = if setup == 2 { 9 } else { 1000 };
            for _ in 0..dt {
                ticked.tick();
            }
            skipped.fast_forward(dt);
            assert_eq!(skipped, ticked, "setup {setup}");
        }
    }

    #[test]
    #[should_panic(expected = "wake-up completion")]
    fn fast_forward_across_wake_completion_panics() {
        let mut m = PowerStateMachine::new(4, 12);
        m.enter_sleep(0);
        m.request_wake(1);
        assert_eq!(m.stable_ticks(), Some(3));
        m.fast_forward(4);
    }

    #[test]
    fn zero_wakeup_latency_wakes_immediately() {
        let mut m = PowerStateMachine::new(0, 12);
        m.enter_sleep(0);
        m.request_wake(3);
        assert!(m.state().is_active());
    }
}
