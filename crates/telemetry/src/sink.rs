//! Event sinks: where instrumentation points send their events.
//!
//! Dispatch is static. The simulator structures are generic over
//! `S: Sink` (defaulting to [`NopSink`]), and every instrumentation point
//! is written as
//!
//! ```ignore
//! if S::ENABLED {
//!     self.sink.record(Event::...);
//! }
//! ```
//!
//! `ENABLED` is an associated `const`, so for the `NopSink`
//! monomorphization the branch — including the argument construction —
//! is dead code the compiler removes entirely. Disabled telemetry is not
//! "cheap"; it is *absent* (the overhead contract in DESIGN.md §10).

use crate::event::Event;

/// A consumer of telemetry events.
///
/// `Send` is a supertrait so a simulator with sinks attached stays
/// `Send` and can move between threads. Implementations must not
/// observe simulation state or feed anything back — determinism goldens are
/// asserted bit-identical with and without a recording sink attached.
pub trait Sink: Send {
    /// Statically known on/off switch; `false` compiles every
    /// instrumentation point out of the monomorphized hot loop.
    const ENABLED: bool = true;

    /// Consumes one event.
    fn record(&mut self, event: Event);

    /// Hands back everything recorded so far, leaving the sink empty.
    /// Sinks that do not retain events return nothing.
    fn drain(&mut self) -> Vec<Event> {
        Vec::new()
    }
}

/// The default sink: keeps nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NopSink;

impl Sink for NopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// Buffers every event in memory, optionally bounded.
///
/// With a bound, events beyond it are counted in
/// [`RecordingSink::dropped`] rather than stored, so a runaway run
/// degrades to a truncated trace instead of unbounded memory growth.
#[derive(Clone, Debug, Default)]
pub struct RecordingSink {
    events: Vec<Event>,
    limit: Option<usize>,
    dropped: u64,
}

impl RecordingSink {
    /// An unbounded recording sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// A recording sink that stores at most `limit` events.
    pub fn with_limit(limit: usize) -> Self {
        RecordingSink {
            events: Vec::new(),
            limit: Some(limit),
            dropped: 0,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was drained).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded because the buffer limit was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Read access to the buffered events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

impl Sink for RecordingSink {
    fn record(&mut self, event: Event) {
        if self.limit.is_some_and(|l| self.events.len() >= l) {
            self.dropped += 1;
        } else {
            self.events.push(event);
        }
    }

    fn drain(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PowerPhase;

    fn ev(cycle: u64) -> Event {
        Event::Power {
            cycle,
            node: 0,
            from: PowerPhase::Active,
            to: PowerPhase::Sleep,
        }
    }

    #[test]
    fn nop_sink_is_statically_disabled() {
        const { assert!(!NopSink::ENABLED) };
        let mut s = NopSink;
        s.record(ev(1));
        assert!(s.drain().is_empty());
    }

    #[test]
    fn recording_sink_buffers_and_drains() {
        let mut s = RecordingSink::new();
        const { assert!(RecordingSink::ENABLED) };
        s.record(ev(1));
        s.record(ev(2));
        assert_eq!(s.len(), 2);
        let evs = s.drain();
        assert_eq!(evs.len(), 2);
        assert!(s.is_empty());
        assert_eq!(evs[1].cycle(), 2);
    }

    #[test]
    fn recording_sink_limit_drops_and_counts() {
        let mut s = RecordingSink::with_limit(2);
        for c in 0..5 {
            s.record(ev(c));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 3);
    }
}
