//! End-to-end tests of the `catnap-hive` distributed sweep coordinator
//! at the workspace level: real multi-worker fleets over loopback TCP,
//! healthy at several sizes, with an injected mid-sweep worker kill and
//! with a hung worker, cross-checked byte-for-byte against the serial
//! sweep path, plus the deterministic retry/backoff schedule and
//! cycle-exact divergence bisection.

use catnap_repro::bench::{latency_sweep, sweep_requests, JobRequest};
use catnap_repro::catnap::MultiNocConfig;
use catnap_repro::hive::{
    bisect_jobs, first_divergence_linear, run_sweep, Backoff, HiveConfig, SweepOutcome, ThreadFleet,
};
use catnap_repro::serve::parse_job;
use catnap_repro::traffic::{LoadSchedule, SyntheticPattern};
use catnap_repro::util::json::ToJson;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("catnap-hive-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A coordinator config for tests: a generous request timeout for debug
/// builds, and the default three strikes per worker.
fn test_cfg() -> HiveConfig {
    HiveConfig {
        request_timeout: Duration::from_secs(60),
        max_attempts: 3,
        ..HiveConfig::default()
    }
}

const LOADS: [f64; 8] = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08];

/// The 8-point sweep every fleet-vs-serial test distributes.
fn sweep_8() -> Vec<JobRequest> {
    sweep_requests(
        "catnap-2x128-64core",
        true,
        SyntheticPattern::UniformRandom,
        &LOADS,
        512,
        150,
        150,
        7,
    )
}

/// The distributed results must be byte-identical to the serial
/// `latency_sweep` of the same points.
fn assert_matches_serial_sweep(outcome: &SweepOutcome) {
    let cfg = MultiNocConfig::catnap_2x128_64core().gating(true);
    let serial = latency_sweep(&cfg, SyntheticPattern::UniformRandom, &LOADS, 512, 150, 150, 7);
    assert_eq!(serial.len(), outcome.results.len());
    for fp in &outcome.fingerprints {
        assert_eq!(fp.len(), 16, "fingerprints are %016x: {fp}");
    }
    for (distributed, point) in outcome.results.iter().zip(&serial) {
        assert_eq!(
            distributed.to_compact_string(),
            point.to_json().to_compact_string(),
            "distributed result diverged from the serial sweep"
        );
    }
}

/// The acceptance test: three workers, one of which dies mid-sweep
/// (after serving its first job it drops the connection without
/// responding and refuses everything afterwards). The coordinator must
/// re-dispatch the lost work and the final result set must be
/// byte-identical to the serial `latency_sweep` of the same points.
#[test]
fn three_worker_sweep_with_mid_sweep_kill_matches_serial_latency_sweep() {
    let root = temp_root("kill");
    let requests = sweep_8();

    // Worker 1 dies when its second job arrives, mid-request.
    let fleet = ThreadFleet::spawn(&root, &[None, Some(1), None]).expect("fleet spawns");
    let outcome = run_sweep(&fleet.addrs(), &requests, &test_cfg()).expect("sweep survives the worker kill");
    fleet.shutdown();

    assert_eq!(outcome.stats.dead_workers, 1, "exactly the faulted worker died");
    assert!(outcome.stats.redispatches >= 1, "the lost job was re-dispatched");
    assert_matches_serial_sweep(&outcome);
    let _ = std::fs::remove_dir_all(&root);
}

/// A worker that hangs: the test's listener is bound but never calls
/// `accept`, so the kernel completes the handshake and the coordinator's
/// `ping` is never answered. The job it holds must return to the queue
/// after `request_timeout` and be served by the healthy worker.
#[test]
fn hung_worker_releases_its_job_after_the_request_timeout() {
    let root = temp_root("hung");
    let requests = sweep_8();
    let fleet = ThreadFleet::spawn(&root, &[None]).expect("fleet spawns");
    let hung = TcpListener::bind("127.0.0.1:0").expect("hung listener binds");
    // The hung address comes first, so its coordinator thread starts
    // first and claims a job while the healthy worker is still busy.
    let addrs = vec![hung.local_addr().unwrap().to_string(), fleet.addrs()[0].clone()];
    let cfg = HiveConfig {
        request_timeout: Duration::from_secs(1),
        ..test_cfg()
    };
    let outcome = run_sweep(&addrs, &requests, &cfg).expect("sweep survives the hung worker");
    fleet.shutdown();
    drop(hung);

    assert!(
        outcome.stats.redispatches >= 1,
        "the hung worker's job was re-dispatched"
    );
    assert_eq!(outcome.stats.per_worker[0], 0, "the hung worker returned nothing");
    assert_matches_serial_sweep(&outcome);
    let _ = std::fs::remove_dir_all(&root);
}

/// The hive's core promise: the result bytes never depend on how many
/// workers served the sweep. Healthy fleets of one and four workers
/// (fresh caches each) both reproduce the serial sweep, and every job is
/// sent exactly once.
#[test]
fn healthy_fleets_of_one_and_four_workers_match_serial_latency_sweep() {
    let requests = sweep_8();
    for workers in [1, 4] {
        let root = temp_root(&format!("healthy-{workers}"));
        let fleet = ThreadFleet::spawn(&root, &vec![None; workers]).expect("fleet spawns");
        let outcome = run_sweep(&fleet.addrs(), &requests, &test_cfg()).expect("sweep completes");
        fleet.shutdown();
        let stats = &outcome.stats;
        assert_eq!(stats.dead_workers, 0, "{workers}-worker fleet stays healthy");
        assert_eq!(
            stats.per_worker.iter().sum::<u64>(),
            requests.len() as u64,
            "one result per job: {:?}",
            stats.per_worker
        );
        assert_eq!(
            (stats.retries, stats.redispatches),
            (0, 0),
            "a healthy fleet never retries"
        );
        assert_matches_serial_sweep(&outcome);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Same fleet shape, same fault schedule, run twice: the coordinator's
/// queue is deterministic, so the outcome — results, fingerprints, job
/// accounting — must repeat exactly.
#[test]
fn faulted_sweep_outcome_is_reproducible() {
    let requests = sweep_requests(
        "single-noc-128b",
        true,
        SyntheticPattern::Transpose,
        &[0.02, 0.04, 0.06],
        128,
        60,
        60,
        11,
    );
    let run = |tag: &str| {
        let root = temp_root(tag);
        let fleet = ThreadFleet::spawn(&root, &[None, Some(0)]).expect("fleet spawns");
        let outcome = run_sweep(&fleet.addrs(), &requests, &test_cfg()).expect("sweep completes");
        fleet.shutdown();
        let _ = std::fs::remove_dir_all(&root);
        outcome
    };
    let first = run("repro-a");
    let second = run("repro-b");
    let bytes = |o: &SweepOutcome| o.results.iter().map(|r| r.to_compact_string()).collect::<Vec<_>>();
    assert_eq!(bytes(&first), bytes(&second));
    assert_eq!(first.fingerprints, second.fingerprints);
    assert_eq!(first.stats.dead_workers, second.stats.dead_workers);
    assert_eq!(first.stats.jobs, second.stats.jobs);
}

/// The retry backoff schedule is a pure function of (seed, worker):
/// pinned here so an accidental RNG-stream rename or formula change
/// cannot silently slip in. Equal-jitter keeps every delay within
/// `[full/2, full]` of the exponential envelope.
#[test]
fn backoff_schedule_is_pinned_by_seed_and_worker() {
    let schedule = |seed: u64, worker: usize| {
        let mut b = Backoff::new(seed, worker, Duration::from_millis(10), Duration::from_millis(500));
        (0..6).map(|attempt| b.delay(attempt).as_millis() as u64).collect::<Vec<_>>()
    };
    // Reproducible: the same (seed, worker) always yields this schedule.
    assert_eq!(schedule(42, 0), schedule(42, 0));
    // Decorrelated: another worker (or seed) walks a different stream.
    assert_ne!(schedule(42, 0), schedule(42, 1));
    assert_ne!(schedule(42, 0), schedule(43, 0));
    // Envelope: attempt n draws from [envelope/2, envelope], envelope =
    // min(10 << n, 500).
    for (attempt, delay) in schedule(42, 0).into_iter().enumerate() {
        let envelope = (10u64 << attempt).min(500);
        assert!(
            delay >= envelope / 2 && delay <= envelope,
            "attempt {attempt}: delay {delay}ms outside [{}, {envelope}]",
            envelope / 2
        );
    }
}

/// Bisection acceptance: two jobs that share a config and seed but whose
/// load schedules split at cycle 160 must diverge at a cycle the linear
/// cycle-by-cycle oracle agrees with exactly — and only after the
/// schedules split.
#[test]
fn bisect_pinpoints_the_exact_first_divergent_cycle() {
    let base = parse_job(
        &catnap_repro::util::Json::parse(
            r#"{"config":"single-noc-128b","pattern":"uniform-random","rate":0.08,"packet_bits":128,"warmup":0,"measure":1,"seed":7}"#,
        )
        .unwrap(),
    )
    .unwrap();
    let mut split = base.clone();
    split.schedule = LoadSchedule::piecewise(vec![(0, 0.08), (160, 0.3)]);

    let horizon = 320;
    let linear = first_divergence_linear(&base, &split, horizon);
    let report = bisect_jobs(&base, &split, horizon, 32);

    assert_eq!(
        report.first_divergent_cycle, linear,
        "bisection must agree with the linear oracle"
    );
    let first = report.first_divergent_cycle.expect("the schedules split inside the horizon");
    assert!(
        (161..=horizon).contains(&first),
        "divergence at {first}, expected after the cycle-160 schedule split"
    );
    assert!(
        u64::from(report.probes) < horizon,
        "binary search must probe far fewer than {horizon} cycles ({} probes)",
        report.probes
    );
    let window = report.window.expect("diverging pair gets a window report");
    assert!(window.from_cycle == first - 1 && window.to_cycle > first);

    // And the degenerate case: a job never diverges from itself.
    let same = bisect_jobs(&base, &base.clone(), 64, 8);
    assert_eq!(same.first_divergent_cycle, None);
    assert!(same.window.is_none());
}
