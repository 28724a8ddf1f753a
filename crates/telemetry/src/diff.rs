//! Trace comparison: find where two runs stopped agreeing.
//!
//! The event-driven stepper (`catnap::MultiNoc::step`, diffed against
//! its per-cycle oracle `step_reference`), checkpoint resume and the
//! determinism goldens all make the same promise: *bit-identical
//! results*. When that promise breaks, an end-of-run aggregate only
//! says "different"; what debugging needs is the **first divergent
//! cycle** and a summary of what kind of activity went missing or
//! appeared. This module provides that for both
//! representations a run produces: the in-memory [`Trace`]
//! ([`diff_traces`]) and the exported per-epoch CSV timeline
//! ([`diff_csv_timelines`]).

use crate::event::{Event, Trace};
use std::fmt;

/// Location of the first disagreement between two event streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Which stream diverged: `"policy"` or `"subnet N"`.
    pub stream: String,
    /// Index of the first differing event within that stream.
    pub index: usize,
    /// Cycle stamp at the divergence point (the earlier of the two
    /// events' cycles; the present event's cycle if one stream ended).
    pub cycle: u64,
}

/// Outcome of comparing two [`Trace`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDiff {
    /// Earliest divergence across all streams (`None` = identical
    /// streams), picked by cycle stamp.
    pub first_divergence: Option<Divergence>,
    /// Per-kind event-count differences, `b - a`, indexed like
    /// [`Event::kind_index`] and named by [`Event::KIND_NAMES`].
    pub kind_count_deltas: [i64; 6],
    /// Whether the two meta blocks agreed (cycles, shape, policies).
    pub meta_equal: bool,
}

impl TraceDiff {
    /// Whether the traces were identical (streams *and* meta).
    pub fn is_identical(&self) -> bool {
        self.first_divergence.is_none() && self.meta_equal
    }
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_identical() {
            return write!(f, "traces identical");
        }
        if !self.meta_equal {
            writeln!(f, "meta blocks differ")?;
        }
        match &self.first_divergence {
            Some(d) => writeln!(
                f,
                "first divergence: cycle {} ({} stream, event #{})",
                d.cycle, d.stream, d.index
            )?,
            None => writeln!(f, "event streams identical")?,
        }
        for (name, delta) in Event::KIND_NAMES.iter().zip(self.kind_count_deltas) {
            if delta != 0 {
                writeln!(f, "  {name}: {delta:+}")?;
            }
        }
        Ok(())
    }
}

/// Where two event streams first disagree, if anywhere.
fn diverge_at(a: &[Event], b: &[Event]) -> Option<(usize, u64)> {
    let common = a.len().min(b.len());
    for i in 0..common {
        if a[i] != b[i] {
            return Some((i, a[i].cycle().min(b[i].cycle())));
        }
    }
    if a.len() != b.len() {
        let longer = if a.len() > b.len() { a } else { b };
        return Some((common, longer[common].cycle()));
    }
    None
}

/// Compares two traces event-for-event.
///
/// Every stream (policy, then each subnet) is walked in order; the
/// reported divergence is the one with the smallest cycle stamp, so it
/// names the first simulated moment at which the runs disagreed
/// regardless of which stream carried the evidence.
pub fn diff_traces(a: &Trace, b: &Trace) -> TraceDiff {
    let mut first: Option<Divergence> = None;
    let mut consider = |stream: String, hit: Option<(usize, u64)>| {
        if let Some((index, cycle)) = hit {
            if first.as_ref().is_none_or(|d| cycle < d.cycle) {
                first = Some(Divergence { stream, index, cycle });
            }
        }
    };
    consider("policy".to_string(), diverge_at(&a.policy, &b.policy));
    let subnets = a.subnets.len().max(b.subnets.len());
    for s in 0..subnets {
        let sa = a.subnets.get(s).map_or(&[][..], Vec::as_slice);
        let sb = b.subnets.get(s).map_or(&[][..], Vec::as_slice);
        consider(format!("subnet {s}"), diverge_at(sa, sb));
    }
    let ca = a.kind_counts();
    let cb = b.kind_counts();
    let mut kind_count_deltas = [0i64; 6];
    for i in 0..6 {
        kind_count_deltas[i] = cb[i] as i64 - ca[i] as i64;
    }
    TraceDiff {
        first_divergence: first,
        kind_count_deltas,
        meta_equal: a.meta == b.meta,
    }
}

/// Outcome of comparing two exported CSV timelines line-by-line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsvDiff {
    /// First differing line: (1-based line number, line from `a`, line
    /// from `b`); a missing line is reported as `""`.
    pub first_divergent_line: Option<(usize, String, String)>,
    /// Per-column sum differences `b - a` over the numeric count
    /// columns, as `(column name, delta)`; only non-zero deltas are
    /// listed.
    pub column_deltas: Vec<(String, i64)>,
}

impl CsvDiff {
    /// Whether the two timelines were byte-identical line-by-line.
    pub fn is_identical(&self) -> bool {
        self.first_divergent_line.is_none()
    }
}

impl fmt::Display for CsvDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.first_divergent_line {
            None => write!(f, "timelines identical"),
            Some((line, a, b)) => {
                writeln!(f, "first divergence at line {line}:")?;
                writeln!(f, "  a: {a}")?;
                writeln!(f, "  b: {b}")?;
                for (name, delta) in &self.column_deltas {
                    writeln!(f, "  sum({name}): {delta:+}")?;
                }
                Ok(())
            }
        }
    }
}

/// Compares two CSV timelines (as produced by
/// [`power_timeline_csv`](crate::csv::power_timeline_csv), but any CSV
/// with a header row and numeric cells works).
///
/// Reports the first line where the files differ and, per numeric
/// column (skipping the first two key columns, `epoch_start,subnet`),
/// the difference of the column sums — a quick read on *what kind* of
/// activity diverged, not just where.
pub fn diff_csv_timelines(a: &str, b: &str) -> CsvDiff {
    let mut la = a.lines();
    let mut lb = b.lines();
    let mut first = None;
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (la.next(), lb.next()) {
            (None, None) => break,
            (ra, rb) => {
                let ra = ra.unwrap_or("");
                let rb = rb.unwrap_or("");
                if ra != rb {
                    first = Some((line_no, ra.to_string(), rb.to_string()));
                    break;
                }
            }
        }
    }

    let mut column_deltas = Vec::new();
    if first.is_some() {
        let header: Vec<&str> = a.lines().next().unwrap_or("").split(',').collect();
        let sums = |text: &str| -> Vec<i64> {
            let mut sums = vec![0i64; header.len()];
            for line in text.lines().skip(1) {
                for (i, cell) in line.split(',').enumerate().take(header.len()) {
                    if let Ok(v) = cell.parse::<i64>() {
                        sums[i] += v;
                    }
                }
            }
            sums
        };
        let sa = sums(a);
        let sb = sums(b);
        for (i, name) in header.iter().enumerate().skip(2) {
            let delta = sb[i] - sa[i];
            if delta != 0 {
                column_deltas.push((name.to_string(), delta));
            }
        }
    }
    CsvDiff {
        first_divergent_line: first,
        column_deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PowerPhase, TraceMeta};

    fn meta() -> TraceMeta {
        TraceMeta {
            name: "t".into(),
            cols: 2,
            rows: 2,
            subnets: 2,
            cycles: 100,
            selector: "catnap-priority".into(),
            gating: "catnap-rcs".into(),
        }
    }

    fn base_trace() -> Trace {
        Trace {
            meta: meta(),
            policy: vec![
                Event::Select {
                    cycle: 5,
                    node: 0,
                    subnet: 0,
                    congested_mask: 0,
                },
                Event::PacketInject {
                    cycle: 5,
                    id: 1,
                    subnet: 0,
                    src: 0,
                    dst: 3,
                },
                Event::PacketEject {
                    cycle: 40,
                    id: 1,
                    subnet: 0,
                    dst: 3,
                    latency: 35,
                },
            ],
            subnets: vec![
                vec![Event::Power {
                    cycle: 20,
                    node: 1,
                    from: PowerPhase::Active,
                    to: PowerPhase::Sleep,
                }],
                vec![],
            ],
        }
    }

    #[test]
    fn identical_traces_diff_clean() {
        let a = base_trace();
        let d = diff_traces(&a, &a.clone());
        assert!(d.is_identical());
        assert_eq!(d.kind_count_deltas, [0; 6]);
        assert_eq!(format!("{d}"), "traces identical");
    }

    #[test]
    fn earliest_cycle_wins_across_streams() {
        let a = base_trace();
        let mut b = base_trace();
        // Policy diverges at cycle 40, subnet 0 at cycle 20: the report
        // must name the subnet stream.
        b.policy[2] = Event::PacketEject {
            cycle: 40,
            id: 1,
            subnet: 0,
            dst: 3,
            latency: 36,
        };
        b.subnets[0][0] = Event::Power {
            cycle: 20,
            node: 2,
            from: PowerPhase::Active,
            to: PowerPhase::Sleep,
        };
        let d = diff_traces(&a, &b);
        let div = d.first_divergence.expect("must diverge");
        assert_eq!(div.stream, "subnet 0");
        assert_eq!(div.cycle, 20);
        assert_eq!(div.index, 0);
        assert!(d.meta_equal);
    }

    #[test]
    fn missing_events_count_as_divergence_with_deltas() {
        let a = base_trace();
        let mut b = base_trace();
        b.subnets[0].push(Event::Power {
            cycle: 90,
            node: 1,
            from: PowerPhase::Sleep,
            to: PowerPhase::Wake,
        });
        b.policy.pop();
        let d = diff_traces(&a, &b);
        let div = d.first_divergence.clone().expect("must diverge");
        assert_eq!(div.stream, "policy");
        assert_eq!(
            (div.index, div.cycle),
            (2, 40),
            "prefix-end divergence stamps the extra event"
        );
        assert_eq!(d.kind_count_deltas[0], 1, "one extra power event");
        assert_eq!(d.kind_count_deltas[5], -1, "one missing eject");
        let report = format!("{d}");
        assert!(
            report.contains("power: +1") && report.contains("packet_eject: -1"),
            "{report}"
        );
    }

    #[test]
    fn meta_mismatch_reported_even_with_equal_streams() {
        let a = base_trace();
        let mut b = base_trace();
        b.meta.cycles = 200;
        let d = diff_traces(&a, &b);
        assert!(!d.is_identical());
        assert!(d.first_divergence.is_none());
        assert!(!d.meta_equal);
    }

    #[test]
    fn csv_diff_reports_line_and_column_deltas() {
        let a = "epoch_start,subnet,active,ejected\n0,0,4,2\n100,0,4,0\n";
        let b = "epoch_start,subnet,active,ejected\n0,0,4,2\n100,0,3,1\n";
        let d = diff_csv_timelines(a, b);
        let (line, la, lb) = d.first_divergent_line.clone().expect("must diverge");
        assert_eq!(line, 3);
        assert_eq!(la, "100,0,4,0");
        assert_eq!(lb, "100,0,3,1");
        assert_eq!(
            d.column_deltas,
            vec![("active".to_string(), -1), ("ejected".to_string(), 1)]
        );
        assert!(format!("{d}").contains("line 3"));
    }

    #[test]
    fn csv_diff_handles_truncated_files() {
        let a = "h,x\n1,2\n3,4\n";
        let b = "h,x\n1,2\n";
        let d = diff_csv_timelines(a, b);
        assert_eq!(d.first_divergent_line.as_ref().unwrap().0, 3);
        assert_eq!(d.first_divergent_line.unwrap().2, "", "missing line reads as empty");
        assert!(diff_csv_timelines(a, a).is_identical());
    }
}
