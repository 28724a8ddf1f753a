//! `catnap-hive` — distributed sweep coordinator and divergence
//! bisector.
//!
//! ```text
//! catnap-hive sweep  (--workers HOST:PORT[,…] | --spawn N)
//!                    --config PRESET --loads L1,L2,…
//!                    [--pattern NAME] [--gating BOOL] [--packet-bits N]
//!                    [--warmup N] [--measure N] [--seed N]
//!                    [--cache DIR] [--worker-bin PATH] [--out FILE]
//!                    [--request-timeout-ms N] [--retries N]
//! catnap-hive bisect --job-a JSON --job-b JSON [--cycles N] [--window N]
//! catnap-hive ping   --workers HOST:PORT[,…]
//! ```
//!
//! `sweep` drives one constant-load latency sweep across the fleet —
//! either an existing one (`--workers`) or `--spawn N` local
//! `catnap-serve --tcp` processes that are shut down afterwards — and
//! prints the standard sweep table plus a JSON array of results (to
//! `--out` when given). `bisect` takes two job objects in the protocol's
//! `"job"` format and reports the first cycle at which their simulations
//! diverge. `ping` health-checks a fleet.
//!
//! A worker that crashes, refuses connections or garbles a reply has its
//! job re-queued at once; one that hangs holds its job for
//! `--request-timeout-ms` (default 120000). `--retries` consecutive
//! failures (default 3) retire a worker.

use catnap_bench::{sweep_requests, SweepPoint, Table};
use catnap_hive::{bisect_jobs, ping, run_sweep, Connection, HiveConfig, ProcessFleet};
use catnap_serve::parse_job;
use catnap_traffic::SyntheticPattern;
use catnap_util::json::FromJson;
use catnap_util::Json;
use std::process::exit;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: catnap-hive sweep  (--workers A,B,… | --spawn N) --config PRESET --loads L1,L2,… \
         [--pattern P] [--gating BOOL] [--packet-bits N] [--warmup N] [--measure N] [--seed N] \
         [--cache DIR] [--worker-bin PATH] [--out FILE] [--request-timeout-ms N] [--retries N]\n\
         \x20      catnap-hive bisect --job-a JSON --job-b JSON [--cycles N] [--window N]\n\
         \x20      catnap-hive ping   --workers A,B,…\n\
         A failed job is re-queued at once; a hung worker holds its job for --request-timeout-ms \
         (default 120000). --retries consecutive failures (default 3) retire a worker."
    );
    exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("catnap-hive: {msg}");
    exit(1);
}

struct Args(Vec<String>);

impl Args {
    fn take(&mut self, flag: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == flag)?;
        if at + 1 >= self.0.len() {
            usage();
        }
        self.0.remove(at);
        Some(self.0.remove(at))
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        self.take(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("{flag} got an unparseable value '{v}'")))
        })
    }
}

fn parse_pattern(name: &str) -> SyntheticPattern {
    match name {
        "uniform-random" => SyntheticPattern::UniformRandom,
        "transpose" => SyntheticPattern::Transpose,
        "bit-complement" => SyntheticPattern::BitComplement,
        "tornado" => SyntheticPattern::Tornado,
        "neighbor" => SyntheticPattern::NeighborExchange,
        other => fail(&format!(
            "unknown pattern '{other}' (hotspot sweeps need the library API)"
        )),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mode = args.remove(0);
    let mut args = Args(args);
    match mode.as_str() {
        "sweep" => cmd_sweep(&mut args),
        "bisect" => cmd_bisect(&mut args),
        "ping" => cmd_ping(&mut args),
        "--help" | "-h" => usage(),
        other => fail(&format!("unknown mode '{other}'")),
    }
}

fn hive_config(args: &mut Args) -> HiveConfig {
    let mut cfg = HiveConfig::default();
    if let Some(ms) = args.take_parsed::<u64>("--request-timeout-ms") {
        cfg.request_timeout = Duration::from_millis(ms);
    }
    if let Some(n) = args.take_parsed::<u32>("--retries") {
        cfg.max_attempts = n.max(1);
    }
    cfg
}

fn cmd_sweep(args: &mut Args) {
    let workers = args.take("--workers");
    let spawn: Option<usize> = args.take_parsed("--spawn");
    let config = args.take("--config").unwrap_or_else(|| usage());
    // Loads and packet sizes are held to the bounds `catnap-serve`
    // puts on a job, before any worker is contacted.
    let loads: Vec<f64> = args
        .take("--loads")
        .unwrap_or_else(|| usage())
        .split(',')
        .map(|l| match l.parse::<f64>() {
            Ok(load) if load.is_finite() && load >= 0.0 => load,
            _ => fail(&format!(
                "--loads got a bad load '{l}' (each must be a finite non-negative number)"
            )),
        })
        .collect();
    let pattern = parse_pattern(&args.take("--pattern").unwrap_or_else(|| "uniform-random".to_string()));
    let gating = args.take_parsed::<bool>("--gating").unwrap_or(true);
    let packet_bits = args.take_parsed::<u32>("--packet-bits").unwrap_or(512);
    if !(1..=65_536).contains(&packet_bits) {
        fail(&format!("--packet-bits got {packet_bits} (must be 1..=65536)"));
    }
    let warmup = args.take_parsed::<u64>("--warmup").unwrap_or(500);
    let measure = args.take_parsed::<u64>("--measure").unwrap_or(1500);
    let seed = args.take_parsed::<u64>("--seed").unwrap_or(7);
    let cache = args.take("--cache");
    let worker_bin = args.take("--worker-bin");
    let out = args.take("--out");
    let cfg = hive_config(args);
    args_done(args);

    let requests = sweep_requests(&config, gating, pattern, &loads, packet_bits, warmup, measure, seed);

    let fleet = match (&workers, spawn) {
        (Some(_), Some(_)) | (None, None) => usage(),
        (Some(_), None) => None,
        (None, Some(n)) => {
            let bin = worker_bin
                .map(std::path::PathBuf::from)
                .unwrap_or_else(catnap_hive::default_worker_bin);
            let cache_dir = cache
                .clone()
                .unwrap_or_else(|| std::env::temp_dir().join("catnap-hive-cache").to_string_lossy().into_owned());
            eprintln!(
                "catnap-hive: spawning {n} workers from {} (cache {cache_dir})",
                bin.display()
            );
            Some(
                ProcessFleet::spawn(n, &bin, std::path::Path::new(&cache_dir))
                    .unwrap_or_else(|e| fail(&format!("cannot spawn workers: {e}"))),
            )
        }
    };
    let addrs: Vec<String> = match &fleet {
        Some(f) => f.addrs(),
        None => workers.expect("checked above").split(',').map(str::to_string).collect(),
    };

    let outcome = run_sweep(&addrs, &requests, &cfg);
    if let Some(fleet) = fleet {
        fleet.shutdown(Duration::from_secs(5));
    }
    let outcome = outcome.unwrap_or_else(|e| fail(&e.to_string()));

    let mut table = Table::new([
        "offered",
        "accepted",
        "latency",
        "csc",
        "dynamic_w",
        "static_w",
        "fingerprint",
    ]);
    for (result, fp) in outcome.results.iter().zip(&outcome.fingerprints) {
        let p = SweepPoint::from_json(result).unwrap_or_else(|e| fail(&format!("malformed result: {e:?}")));
        table.row([
            format!("{:.4}", p.offered),
            format!("{:.4}", p.accepted),
            format!("{:.2}", p.latency),
            format!("{:.3}", p.csc),
            format!("{:.4}", p.dynamic_w),
            format!("{:.4}", p.static_w),
            fp.clone(),
        ]);
    }
    table.print();
    let s = &outcome.stats;
    eprintln!(
        "catnap-hive: {} jobs over {} workers ({} dead), {} retries, {} redispatches; per-worker {:?}",
        s.jobs, s.workers, s.dead_workers, s.retries, s.redispatches, s.per_worker
    );
    let json = Json::Arr(outcome.results).to_compact_string();
    match out {
        Some(path) => std::fs::write(&path, json + "\n").unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}"))),
        None => println!("{json}"),
    }
}

fn cmd_bisect(args: &mut Args) {
    let mut job = |flag: &str| {
        let text = args.take(flag).unwrap_or_else(|| usage());
        Json::parse(&text)
            .map_err(|e| format!("{e:?}"))
            .and_then(|j| parse_job(&j))
            .unwrap_or_else(|e| fail(&format!("{flag}: {e}")))
    };
    let a = job("--job-a");
    let b = job("--job-b");
    let horizon = args.take_parsed::<u64>("--cycles").unwrap_or(a.warmup + a.measure);
    let window = args.take_parsed::<u64>("--window").unwrap_or(64);
    args_done(args);

    let report = bisect_jobs(&a, &b, horizon, window);
    match report.first_divergent_cycle {
        None => println!(
            "states identical over [0, {horizon}] ({} probes, {} cycles stepped)",
            report.probes, report.cycles_stepped
        ),
        Some(cycle) => {
            println!(
                "first divergent cycle: {cycle} ({} probes, {} cycles stepped)",
                report.probes, report.cycles_stepped
            );
            if let Some(w) = report.window {
                println!("window [{}, {}) event diff:", w.from_cycle, w.to_cycle);
                print!("{}", w.report);
            }
        }
    }
}

fn cmd_ping(args: &mut Args) {
    let workers = args.take("--workers").unwrap_or_else(|| usage());
    args_done(args);
    let mut all_ok = true;
    for addr in workers.split(',') {
        let outcome =
            Connection::open(addr, Duration::from_secs(2), Duration::from_secs(5)).and_then(|mut conn| ping(&mut conn));
        match outcome {
            Ok(info) => println!(
                "{addr}: ok (version {}, protocol {}, fingerprint schema {})",
                info.version, info.protocol, info.fingerprint_schema
            ),
            Err(e) => {
                all_ok = false;
                println!("{addr}: UNREACHABLE ({e})");
            }
        }
    }
    if !all_ok {
        exit(1);
    }
}

fn args_done(args: &mut Args) {
    if let Some(extra) = args.0.first() {
        fail(&format!("unrecognized argument '{extra}'"));
    }
}
