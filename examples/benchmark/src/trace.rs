//! In-memory spans for the traced run (`--trace 1`).
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the libraries is
//! instrumented. Calls made once per simulated cycle (`drive`, `step`)
//! are too many to keep one span each, so they are tallied per name —
//! count, total, and every duration for quantiles — and charged as
//! child time to the span open around them. A span's self time is its
//! duration minus the time of its children, tallies included.

use catnap_util::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    round: u32,
    child_ns: u64,
}

#[derive(Default)]
struct Tally {
    total_ns: u64,
    samples: Vec<u32>,
}

/// Span recorder. One per traced run; spans stay in memory until
/// [`Tracer::write_json`].
pub struct Tracer {
    epoch: Instant,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    tallies: BTreeMap<&'static str, Tally>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
            tallies: BTreeMap::new(),
        }
    }

    /// Tags the spans opened from now on with round `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
            child_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        let duration = end - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += duration;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Books per-cycle calls of `name` that took `durations`.
    pub fn tally(&mut self, name: &'static str, durations: &[Duration]) {
        let t = self.tallies.entry(name).or_default();
        let mut sum = 0;
        for d in durations {
            let ns = d.as_nanos() as u64;
            sum += ns;
            t.samples.push(ns.min(u64::from(u32::MAX)) as u32);
        }
        t.total_ns += sum;
        if let Some(&open) = self.open.last() {
            self.spans[open].child_ns += sum;
        }
    }

    /// Mean nanoseconds per tallied call of `name` (0 if never called).
    pub fn tally_mean_ns(&self, name: &str) -> f64 {
        self.tallies
            .get(name)
            .filter(|t| !t.samples.is_empty())
            .map_or(0.0, |t| t.total_ns as f64 / t.samples.len() as f64)
    }

    /// The `q`-quantile (0..=1, nearest rank) of the tallied durations of
    /// `name`, in nanoseconds (0 if never called).
    pub fn tally_quantile_ns(&self, name: &str, q: f64) -> f64 {
        let Some(t) = self.tallies.get(name).filter(|t| !t.samples.is_empty()) else {
            return 0.0;
        };
        let mut sorted = t.samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        f64::from(sorted[rank - 1])
    }

    /// Durations, in seconds, of every closed span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per name: calls, total ns, self ns — spans and tallies together.
    fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut rows: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += total;
            row.2 += total.saturating_sub(s.child_ns);
        }
        for (name, t) in &self.tallies {
            let row = rows.entry(name).or_default();
            row.0 += t.samples.len() as u64;
            row.1 += t.total_ns;
            row.2 += t.total_ns;
        }
        rows
    }

    /// Prints the per-layer self-time table, largest first.
    pub fn print_table(&self) {
        let rows = self.by_name();
        let all_self: u64 = rows.values().map(|r| r.2).sum::<u64>().max(1);
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
        println!(
            "{:<24} {:>10} {:>12} {:>12} {:>7}",
            "span", "calls", "total ms", "self ms", "self %"
        );
        for (name, (calls, total, own)) in rows {
            println!(
                "{name:<24} {calls:>10} {:>12.3} {:>12.3} {:>6.1}%",
                total as f64 * 1e-6,
                own as f64 * 1e-6,
                own as f64 * 100.0 / all_self as f64
            );
        }
    }

    /// Writes every span and tally summary as JSON to `path`.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("start_ns".to_string(), Json::Int(s.start_ns as i64)),
                    ("end_ns".to_string(), Json::Int(s.end_ns as i64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("round".to_string(), Json::Int(i64::from(s.round))),
                ])
            })
            .collect();
        let tallies = self
            .tallies
            .iter()
            .map(|(name, t)| {
                Json::obj([
                    ("name".to_string(), Json::Str(name.to_string())),
                    ("calls".to_string(), Json::Int(t.samples.len() as i64)),
                    ("total_ns".to_string(), Json::Int(t.total_ns as i64)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("spans".to_string(), Json::Arr(spans)),
            ("tallies".to_string(), Json::Arr(tallies)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_compact_string() + "\n")
    }
}
