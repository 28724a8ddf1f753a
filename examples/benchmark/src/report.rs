//! Metric definitions (read from `BENCHMARK.json`), round summaries,
//! result files, the trajectory log, and `--compare`.

use catnap_util::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Where results and the trajectory log are written, relative to the
/// repository root the benchmark runs from.
pub const OUT_DIR: &str = "bench_out/benchmark";

const SPEC: &str = include_str!("../../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer ones).
    pub bound: f64,
}

/// The benchmark's metric lists.
pub struct Spec {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// Parses the `BENCHMARK.json` compiled into this binary.
    pub fn load() -> Spec {
        let doc = Json::parse(SPEC).expect("BENCHMARK.json must be valid JSON");
        let defs = |key: &str| -> Vec<MetricDef> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json must list '{key}'"))
                .iter()
                .map(|m| MetricDef {
                    name: m.get("name").and_then(Json::as_str).expect("metric name").to_string(),
                    unit: m.get("unit").and_then(Json::as_str).expect("metric unit").to_string(),
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Spec {
            end_to_end: defs("end_to_end"),
            per_layer: defs("per_layer"),
        }
    }
}

/// Median and quartiles of a metric over a run's rounds.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Median and quartiles of `values`; the quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (exclusive method).
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = crate::workloads::median(&v);
        if n < 2 {
            return Summary {
                median,
                q1: median,
                q3: median,
                n,
            };
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
            n,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    fn to_json(self, unit: &str) -> Json {
        Json::obj([
            ("value".to_string(), Json::Num(self.median)),
            ("q1".to_string(), Json::Num(self.q1)),
            ("q3".to_string(), Json::Num(self.q3)),
            ("n".to_string(), Json::Int(self.n as i64)),
            ("unit".to_string(), Json::Str(unit.to_string())),
        ])
    }

    fn from_json(j: &Json) -> Option<Summary> {
        Some(Summary {
            median: j.get("value")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
            n: j.get("n")?.as_u64()? as usize,
        })
    }
}

/// One workload's result record: what `bench_out/benchmark/<workload>.json`
/// holds (as a one-element array) and the trajectory log appends. `fields`
/// (workload, seed, counts, digest) come first, then commit, `nproc` and
/// the metric summaries.
pub fn entry(fields: Vec<(&str, Json)>, metrics: &[(String, String, Summary)]) -> Json {
    let mut record: Vec<(String, Json)> = fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    record.push(("commit".to_string(), Json::Str(commit())));
    record.push(("nproc".to_string(), Json::Int(nproc() as i64)));
    let metrics = metrics.iter().map(|(name, unit, s)| (name.clone(), s.to_json(unit))).collect();
    record.push(("metrics".to_string(), Json::Obj(metrics)));
    Json::Obj(record)
}

/// Writes `entries` as a JSON array to `path`.
pub fn write_entries(path: &Path, entries: &[Json]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, Json::Arr(entries.to_vec()).to_pretty_string() + "\n")
}

/// Appends `entry` as one line of `bench_out/benchmark/trajectory.jsonl`.
pub fn append_trajectory(entry: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(Path::new(OUT_DIR).join("trajectory.jsonl"))?;
    writeln!(log, "{}", entry.to_compact_string())
}

/// The `HEAD` commit, with `-dirty` when tracked files differ from it, or
/// `unknown` when the working directory is not the root of a git
/// checkout (git is kept from searching above it).
fn commit() -> String {
    let here = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40", "--exclude=*"])
        .env("GIT_CEILING_DIRECTORIES", here.parent().unwrap_or(&here))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

type Results = BTreeMap<String, BTreeMap<String, Summary>>;

fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let entries = doc.as_array().ok_or(format!("{path}: expected a JSON array of results"))?;
    let mut out = Results::new();
    for e in entries {
        let workload = e
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: result without 'workload'"))?;
        let metrics = e
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{path}: result without 'metrics'"))?;
        let summaries = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), Summary::from_json(m)?)))
            .collect();
        out.insert(workload.to_string(), summaries);
    }
    Ok(out)
}

/// The verdict on one metric: `unresolved` when either side's spread is
/// wider than the bound, else `worse`/`better` when the change's median
/// moved past the bound, else `within`.
fn verdict(def: &MetricDef, parent: Summary, change: Summary) -> &'static str {
    if parent.spread() > def.bound || change.spread() > def.bound {
        return "unresolved";
    }
    let rel = (change.median - parent.median) / parent.median;
    let worse_by = if def.lower_is_better { rel } else { -rel };
    if worse_by > def.bound {
        "worse"
    } else if worse_by < -def.bound {
        "better"
    } else {
        "within"
    }
}

/// `--compare PARENT CHANGE`: one row per workload and end-to-end
/// metric. Exits 1 when any metric is worse.
pub fn compare(parent_path: &str, change_path: &str) -> i32 {
    let (parent, change) = match (read_results(parent_path), read_results(change_path)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let spec = Spec::load();
    let mut worse = 0;
    println!(
        "{:<18} {:<18} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "bound"
    );
    for (workload, after) in &change {
        let Some(before) = parent.get(workload) else {
            println!("{workload:<18} (not in {parent_path})");
            continue;
        };
        for def in &spec.end_to_end {
            let (Some(&p), Some(&c)) = (before.get(&def.name), after.get(&def.name)) else {
                println!("{workload:<18} {:<18} (missing)", def.name);
                continue;
            };
            let v = verdict(def, p, c);
            worse += usize::from(v == "worse");
            let cell = |s: Summary| format!("{:.4e} [{:.4e}, {:.4e}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<18} {:<18} {:>38} {:>38} {:>+7.1}% {:>5.0}%  {v}",
                def.name,
                cell(p),
                cell(c),
                (c.median - p.median) / p.median * 100.0,
                def.bound * 100.0
            );
        }
    }
    i32::from(worse > 0)
}
