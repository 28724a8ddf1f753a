//! Zero-dependency cycle-level tracing and metrics for the Catnap
//! simulator.
//!
//! The paper's argument is temporal — routers napping and waking as
//! congestion ebbs (Catnap §3.2, §6) — and end-of-run aggregates cannot
//! show it. This crate provides the observability substrate:
//!
//! * [`event`] — cycle-stamped typed events ([`Event`]) covering router
//!   power transitions, BFM/RCS congestion flips, subnet-selection
//!   decisions and packet inject/eject, collected into a [`Trace`];
//! * [`sink`] — the statically-dispatched [`Sink`] trait. The simulator
//!   is generic over its sink with [`NopSink`] as the default, so a
//!   build without telemetry monomorphizes every instrumentation point
//!   to nothing (see DESIGN.md §10 for the overhead contract);
//! * [`metrics`] — monotonic counters, gauges and HDR-style
//!   log-bucketed histograms ([`Histogram`]) with exact merge, grouped
//!   in a [`Registry`];
//! * [`chrome`] — a Chrome `trace_event` JSON exporter
//!   ([`chrome_trace`]) whose output loads in `chrome://tracing` and
//!   Perfetto;
//! * [`csv`] — a per-epoch CSV timeline exporter
//!   ([`power_timeline_csv`]);
//! * [`diff`] — trace and CSV-timeline comparison ([`diff_traces`],
//!   [`diff_csv_timelines`]): first divergent cycle plus per-kind event
//!   count deltas, used by the event-driven differential suite and the
//!   `trace_diff` example CLI.
//!
//! The crate depends only on `catnap-util` (for its JSON value type) and
//! the standard library, per the hermetic-workspace policy in DESIGN.md
//! §8; `tests/hermetic.rs` enforces this by scanning imports.

#![warn(missing_docs)]

pub mod chrome;
pub mod csv;
pub mod diff;
pub mod event;
pub mod metrics;
pub mod sink;

pub use chrome::chrome_trace;
pub use csv::power_timeline_csv;
pub use diff::{diff_csv_timelines, diff_traces, CsvDiff, TraceDiff};
pub use event::{Event, PowerPhase, SinkScope, Trace, TraceMeta};
pub use metrics::{Histogram, Registry};
pub use sink::{NopSink, RecordingSink, Sink};
