//! The benchmark's workloads. Each round drives the layers through
//! their public functions with the same call sequence as the library's
//! own runners (`catnap_bench::run_synthetic`, `catnap_bench::run_mix`,
//! `catnap_hive::run_sweep` against `catnap_serve::Server` workers), so
//! its output can be checked byte for byte against them.

use crate::trace::Tracer;
use catnap::{DispatchStats, MultiNoc, MultiNocConfig, SimCache, Snapshot};
use catnap_bench::{job_fingerprint, run_mix, run_synthetic, sweep_requests, JobRequest, MixResult, SweepPoint};
use catnap_hive::{run_sweep, shutdown_workers, Connection, HiveConfig};
use catnap_multicore::{System, SystemConfig};
use catnap_noc::{RouterActivity, SchedStats};
use catnap_power::TechParams;
use catnap_serve::{parse_job, Server};
use catnap_traffic::{SyntheticPattern, SyntheticWorkload, WorkloadMix};
use catnap_util::{Fnv64, Json, ToJson};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-layer values of one round or run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = [
    "fig10_low_load",
    "fig10_high_load",
    "table3_heavy",
    "fig14_hive_cold",
    "fig14_hive_warm",
];

const PACKET_BITS: u32 = 512;
/// Worker threads, connections and coordinator threads of the hive
/// workloads: the bench host's core count.
const HIVE_WORKERS: usize = 2;
const HIVE_CACHE_ENTRIES: usize = 512;
const HIVE_PRESET: &str = "catnap-2x128-64core";

#[derive(Clone, Copy)]
enum Kind {
    /// Open-loop uniform random traffic on 4NT-128b-PG (Fig 10).
    Synthetic { load: f64 },
    /// The Table-3 Heavy mix on the closed-loop 256-core system over
    /// 4NT-128b-PG (the Fig 8 configuration).
    Mix,
    /// A Fig 14 sweep served by a two-worker hive. Cold: a fresh cache
    /// every round, so every job simulates. Warm: a fresh fleet over a
    /// cache primed once per run, so every job is a disk-cache hit.
    Hive { warm: bool },
}

#[derive(Clone, Copy)]
struct Size {
    warmup: u64,
    measure: u64,
}

impl Size {
    fn cycles(self) -> u64 {
        self.warmup + self.measure
    }
}

/// What one round measured and produced.
pub struct Round {
    /// Host time to build the system (or start the fleet).
    pub setup: Duration,
    /// Host time of the measured work.
    pub wall: Duration,
    /// Simulated cycles delivered to the caller.
    pub cycles: u64,
    /// Link flit traversals delivered to the caller.
    pub flit_hops: u64,
    /// Digest of `output`.
    pub digest: u64,
    /// Canonical text of the round's simulated outputs.
    pub output: String,
    /// Operations attempted (simulations, or jobs sent to the hive).
    pub jobs: u64,
    /// Failed operations: hive retries and serve errors.
    pub failed: u64,
    /// Violated workload-shape guards.
    pub errors: Vec<String>,
    /// Per-layer counters of this round.
    pub layers: Layers,
}

/// One workload of one run: its fixed inputs and the reference output
/// every round is checked against.
pub struct Workload {
    name: &'static str,
    kind: Kind,
    size: Size,
    seed: u64,
    smoke: bool,
    scratch: PathBuf,
    requests: Vec<JobRequest>,
    /// The canonical output every round must reproduce.
    pub reference: String,
    reference_flit_hops: u64,
}

impl Workload {
    /// Builds the inputs of workload `name` from `seed` and computes the
    /// reference output; hive workloads keep their caches under
    /// `scratch`, and the warm one primes its cache here.
    pub fn prepare(name: &str, seed: u64, smoke: bool, scratch: &Path) -> Result<Workload, String> {
        let name = *NAMES.iter().find(|n| **n == name).ok_or(format!("unknown workload '{name}'"))?;
        let (kind, warmup, measure) = match name {
            "fig10_low_load" => (Kind::Synthetic { load: 0.03 }, 3_000, 30_000),
            "fig10_high_load" => (Kind::Synthetic { load: 0.30 }, 2_000, 4_000),
            "table3_heavy" => (Kind::Mix, 2_000, 8_000),
            // No warm-up: a served job checkpoints its warmed-up network,
            // and a gated network checkpointed while a router is waking
            // up can trip the wake-up assertion in `Router::fast_forward`
            // a few hundred cycles later (about 1 job in 200 at 2 000
            // warm-up cycles). A checkpoint at cycle 0 cannot.
            "fig14_hive_cold" => (Kind::Hive { warm: false }, 0, 8_000),
            _ => (Kind::Hive { warm: true }, 0, 8_000),
        };
        let size = if smoke {
            Size {
                warmup: warmup.min(100),
                measure: 300,
            }
        } else {
            Size { warmup, measure }
        };
        std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let mut w = Workload {
            name,
            kind,
            size,
            seed,
            smoke,
            scratch: scratch.to_path_buf(),
            requests: Vec::new(),
            reference: String::new(),
            reference_flit_hops: 0,
        };
        match kind {
            Kind::Synthetic { load } => {
                w.reference = run_synthetic(
                    w.net_config(),
                    SyntheticPattern::UniformRandom,
                    load,
                    PACKET_BITS,
                    size.warmup,
                    size.measure,
                    seed,
                )
                .to_json()
                .to_compact_string();
            }
            Kind::Mix => {
                w.reference = run_mix(w.net_config(), WorkloadMix::Heavy, size.warmup, size.measure, seed)
                    .to_json()
                    .to_compact_string();
            }
            Kind::Hive { warm } => {
                // Loads 0.01..=0.16: the low-load half of the Fig 14 curve,
                // where the 64-core Multi-NoC still sleeps.
                let loads: Vec<f64> = (1..=16).map(|i| f64::from(i) / 100.0).collect();
                w.requests = sweep_requests(
                    HIVE_PRESET,
                    true,
                    SyntheticPattern::UniformRandom,
                    &loads,
                    PACKET_BITS,
                    size.warmup,
                    size.measure,
                    seed,
                );
                let mut points = Vec::with_capacity(loads.len());
                for (req, &load) in w.requests.iter().zip(&loads) {
                    let job = parse_job(&req.to_job_json())?;
                    let (sim, _, _) = simulate(job.cfg, load, size, job.seed, &mut None);
                    w.reference_flit_hops += sim.flit_hops;
                    points.push(sim.point.to_json());
                }
                w.reference = Json::Arr(points).to_compact_string();
                if warm {
                    let fleet = Fleet::start(&w.primed_dir())?;
                    run_sweep(&fleet.addrs, &w.requests, &w.hive_config())
                        .map_err(|e| format!("priming sweep: {e}"))?;
                }
            }
        }
        Ok(w)
    }

    fn net_config(&self) -> MultiNocConfig {
        MultiNocConfig::catnap_4x128().gating(true).seed(self.seed)
    }

    fn hive_config(&self) -> HiveConfig {
        HiveConfig {
            request_timeout: Duration::from_secs(60),
            seed: self.seed,
            ..HiveConfig::default()
        }
    }

    fn primed_dir(&self) -> PathBuf {
        self.scratch.join("primed")
    }

    /// Runs round `index`, recording spans into `tr` when given.
    pub fn round(&self, index: u32, mut tr: Option<&mut Tracer>) -> Result<Round, String> {
        if let Some(t) = tr.as_mut() {
            t.set_round(index);
        }
        let tr = &mut tr;
        let root = begin(tr, "round");
        let round = match self.kind {
            Kind::Synthetic { load } => Ok(self.synthetic_round(load, tr)),
            Kind::Mix => Ok(self.mix_round(tr)),
            Kind::Hive { warm } => self.hive_round(warm, index, tr),
        };
        end(tr, root);
        round
    }

    fn synthetic_round(&self, load: f64, tr: &mut Option<&mut Tracer>) -> Round {
        let (sim, setup, wall) = simulate(self.net_config(), load, self.size, self.seed, tr);
        let mut errors = Vec::new();
        if !self.smoke {
            let csc = sim.point.csc;
            if self.name == "fig10_low_load" && csc < 0.5 {
                errors.push(format!("low load must leave most routers asleep: CSC {csc:.3} < 0.5"));
            }
            if self.name == "fig10_high_load" {
                if csc > 0.05 {
                    errors.push(format!("high load must keep every subnet awake: CSC {csc:.3} > 0.05"));
                }
                if sim.injected_per_subnet.contains(&0) {
                    errors.push(format!("a subnet injected no flits: {:?}", sim.injected_per_subnet));
                }
            }
        }
        let output = sim.point.to_json().to_compact_string();
        Round {
            setup,
            wall,
            cycles: self.size.cycles(),
            flit_hops: sim.flit_hops,
            digest: digest(&output),
            output,
            jobs: 1,
            failed: 0,
            errors,
            layers: sim.layers,
        }
    }

    fn mix_round(&self, tr: &mut Option<&mut Tracer>) -> Round {
        let tech = TechParams::catnap_32nm();
        let cfg = self.net_config();
        let config = cfg.name.clone();
        let t = Instant::now();
        let mut sys = span(tr, "multicore.new", || {
            System::new(SystemConfig::paper(), cfg, WorkloadMix::Heavy, self.seed)
        });
        let setup = t.elapsed();
        let t = Instant::now();
        let id = begin(tr, "warmup");
        step_system(&mut sys, self.size.warmup, tr);
        end(tr, id);
        let start = span(tr, "core.snapshot", || sys.net.snapshot());
        let sched_start = sched_totals(&sys.net);
        let id = begin(tr, "measure");
        step_system(&mut sys, self.size.measure, tr);
        end(tr, id);
        let stop = span(tr, "core.snapshot", || sys.net.snapshot());
        let sched_stop = sched_totals(&sys.net);
        let power = span(tr, "power.between", || sys.net.power_between(&start, &stop, tech));
        let system = span(tr, "multicore.report", || sys.report());
        let wall = t.elapsed();

        let mut layers = window_layers(&start, &stop, sched_start, sched_stop);
        layers.extend(dispatch_layers(&sys.net.dispatch_stats()));
        layers.insert("power.total_w", power.total());
        let cycles = system.cycles.max(1) as f64;
        layers.insert(
            "multicore.misses_per_kcycle",
            system.misses_completed as f64 * 1e3 / cycles,
        );
        layers.insert("multicore.avg_miss_latency_cycles", system.avg_miss_latency);
        layers.insert("multicore.ipc", system.ipc);
        layers.insert(
            "multicore.instructions_per_s",
            system.total_instructions as f64 / wall.as_secs_f64(),
        );
        let output = MixResult {
            config,
            mix: WorkloadMix::Heavy.name().to_string(),
            system,
            power,
        }
        .to_json()
        .to_compact_string();
        Round {
            setup,
            wall,
            cycles: self.size.cycles(),
            flit_hops: link_flits(&stop),
            digest: digest(&output),
            output,
            jobs: 1,
            failed: 0,
            errors: Vec::new(),
            layers,
        }
    }

    fn hive_round(&self, warm: bool, index: u32, tr: &mut Option<&mut Tracer>) -> Result<Round, String> {
        let dir = if warm {
            self.primed_dir()
        } else {
            self.scratch.join(format!("round-{index}"))
        };
        // The empty directory is made before the clock starts, so set-up
        // times the fleet alone, as for the warm workload.
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let t = Instant::now();
        let fleet = span(tr, "hive.fleet_up", || Fleet::start(&dir))?;
        let setup = t.elapsed();
        let t = Instant::now();
        let outcome = span(tr, "hive.run_sweep", || {
            run_sweep(&fleet.addrs, &self.requests, &self.hive_config())
        });
        let wall = t.elapsed();
        let served = span(tr, "hive.stats", || fleet.stats());
        span(tr, "hive.fleet_down", || drop(fleet));
        if !warm {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let outcome = outcome.map_err(|e| format!("sweep failed: {e}"))?;
        let served = served?;

        let jobs = self.requests.len() as u64;
        let mut errors = Vec::new();
        if outcome.stats.dead_workers > 0 {
            errors.push(format!("{} hive workers died", outcome.stats.dead_workers));
        }
        // Cold jobs share the cycle-0 warm-up: the first misses, later
        // ones resume its checkpoint, and all of them simulate.
        if !warm && served.misses + served.resumes != jobs {
            errors.push(format!(
                "cold pass: {} of {jobs} jobs simulated",
                served.misses + served.resumes
            ));
        }
        if warm && served.misses + served.resumes > 0 {
            errors.push(format!(
                "warm pass simulated: {} misses, {} resumes",
                served.misses, served.resumes
            ));
        }
        let output = Json::Arr(outcome.results).to_compact_string();
        let mut h = Fnv64::new();
        h.write_str(&output);
        for fp in &outcome.fingerprints {
            h.write_str(fp);
        }
        let s = &outcome.stats;
        let busiest = s.per_worker.iter().copied().max().unwrap_or(0) as f64;
        let layers = Layers::from([
            ("hive.retries", s.retries as f64),
            ("hive.redispatches", s.redispatches as f64),
            ("hive.speculative", s.speculative as f64),
            ("hive.duplicates", s.duplicates as f64),
            ("hive.worker_imbalance", busiest * s.workers as f64 / jobs as f64),
            (
                "serve.result_hit_ratio",
                (served.hits + served.memo) as f64 / jobs as f64,
            ),
        ]);
        Ok(Round {
            setup,
            wall,
            cycles: jobs * self.size.cycles(),
            flit_hops: self.reference_flit_hops,
            digest: h.finish(),
            output,
            jobs,
            failed: s.retries + served.errors,
            errors,
            layers,
        })
    }

    /// Traced runs of the hive workloads: the sweep's job lines replayed
    /// in process through `Server::process_line` (on a cold directory,
    /// then by a new server over the now warm directory, then from that
    /// server's memo), the wire timed by roundtrips to a fresh worker
    /// over the warm directory, and the checkpoint codec and `SimCache`
    /// called directly. Every reply must carry the reference result.
    /// `sweep_s` is the traced rounds' median sweep time. Returns the
    /// layer metrics and one line per disagreement.
    pub fn serve_layers(&self, tr: &mut Tracer, sweep_s: f64) -> Result<(Layers, Vec<String>), String> {
        let Kind::Hive { warm } = self.kind else {
            return Ok((Layers::new(), Vec::new()));
        };
        let lines: Vec<String> = self
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Json::obj([
                    ("id".to_string(), Json::Int(i as i64)),
                    ("job".to_string(), r.to_job_json()),
                ])
                .to_compact_string()
            })
            .collect();
        let expected: Vec<String> = Json::parse(&self.reference)
            .ok()
            .and_then(|j| j.as_array().map(|a| a.iter().map(Json::to_compact_string).collect()))
            .ok_or("reference is not a JSON array")?;
        let mut mismatches = Vec::new();
        let dir = self.scratch.join("replay");
        let _ = std::fs::remove_dir_all(&dir);
        let open = || SimCache::new(&dir, HIVE_CACHE_ENTRIES).map_err(|e| format!("{}: {e}", dir.display()));

        // Server 0 meets the directory cold; server 1 opens it warm.
        let mut servers = [Server::new(open()?), Server::new(open()?)];
        for (i, name, outcomes) in [
            (0, "serve.miss", &["miss", "resume"][..]),
            (1, "serve.hit", &["hit"]),
            (1, "serve.memo", &["memo"]),
        ] {
            for (line, want) in lines.iter().zip(&expected) {
                let reply = tr.span(name, || servers[i].process_line(line));
                check_reply(&reply, outcomes, want, &mut mismatches);
            }
        }
        let fleet = Fleet::start(&dir)?;
        let mut conn = Connection::open(&fleet.addrs[0], Duration::from_secs(2), Duration::from_secs(60))
            .map_err(|e| format!("connect: {e}"))?;
        for (line, want) in lines.iter().zip(&expected) {
            let reply = tr
                .span("hive.roundtrip", || conn.roundtrip(line))
                .map_err(|e| format!("roundtrip: {e}"))?;
            check_reply(&reply, &["hit"], want, &mut mismatches);
        }
        drop(conn);
        drop(fleet);

        // Checkpoint codec on the middle job's network at its last cycle
        // (saved and resumed, never stepped on).
        let job = parse_job(&self.requests[self.requests.len() / 2].to_job_json())?;
        let mut net = MultiNoc::new(job.cfg.clone());
        let mut traffic =
            SyntheticWorkload::with_schedule(job.pattern, job.schedule.clone(), job.packet_bits, net.dims(), job.seed);
        let cycles = job.warmup + job.measure;
        drive_cycles(&mut net, &mut traffic, cycles, &mut None);
        let mut kib = 0.0;
        for _ in 0..5 {
            let blob = tr.span("codec.save_checkpoint", || {
                net.save_checkpoint(&traffic.encode_position())
            });
            kib = blob.len() as f64 / 1024.0;
            match tr.span("codec.resume_from", || MultiNoc::resume_from(job.cfg.clone(), &blob)) {
                Ok((back, _)) if back.cycle() == cycles => {}
                _ => mismatches.push("checkpoint did not resume at its cycle".to_string()),
            }
        }

        // The result cache alone: store and read back every result.
        let dir = self.scratch.join("cache");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = SimCache::new(&dir, HIVE_CACHE_ENTRIES).map_err(|e| format!("{}: {e}", dir.display()))?;
        for (req, text) in self.requests.iter().zip(&expected) {
            let key = job_fingerprint(&parse_job(&req.to_job_json())?);
            let stored = tr.span("cache.put_result", || cache.put_result(key, text));
            let back = tr.span("cache.get_result", || cache.get_result(key));
            if stored.is_err() || back.as_ref() != Some(text) {
                mismatches.push(format!("cache did not return the stored result for key {key:016x}"));
            }
        }

        let p50 = |name: &str| median(&tr.durations_s(name));
        let roundtrips = tr.durations_s("hive.roundtrip");
        // The fleet's waiting time in a sweep: worker time not spent
        // serving the jobs that pass served.
        let served_s: f64 = tr.durations_s(if warm { "serve.hit" } else { "serve.miss" }).iter().sum();
        let layers = Layers::from([
            ("serve.miss_ms_p50", p50("serve.miss") * 1e3),
            ("serve.hit_ms_p50", p50("serve.hit") * 1e3),
            ("serve.memo_ms_p50", p50("serve.memo") * 1e3),
            ("hive.roundtrip_ms_p50", median(&roundtrips) * 1e3),
            (
                "hive.roundtrip_ms_max",
                roundtrips.iter().copied().fold(0.0, f64::max) * 1e3,
            ),
            ("hive.wire_ms_per_job", (median(&roundtrips) - p50("serve.hit")) * 1e3),
            ("hive.worker_idle_s", HIVE_WORKERS as f64 * sweep_s - served_s),
            ("codec.checkpoint_save_ms", p50("codec.save_checkpoint") * 1e3),
            ("codec.checkpoint_resume_ms", p50("codec.resume_from") * 1e3),
            ("codec.checkpoint_kib", kib),
            ("cache.put_result_us", p50("cache.put_result") * 1e6),
            ("cache.get_result_us", p50("cache.get_result") * 1e6),
        ]);
        Ok((layers, mismatches))
    }
}

/// Records a disagreement unless `reply` carries the result `want` and
/// one of the cache outcomes `outcomes`.
fn check_reply(reply: &str, outcomes: &[&str], want: &str, mismatches: &mut Vec<String>) {
    let Ok(j) = Json::parse(reply) else {
        mismatches.push(format!("unparseable reply: {}", reply.trim()));
        return;
    };
    let result = j.get("result").map(Json::to_compact_string);
    let cache = j.get("cache").and_then(Json::as_str);
    if result.as_deref() != Some(want) || !cache.is_some_and(|c| outcomes.contains(&c)) {
        mismatches.push(format!(
            "replay answered {cache:?} {result:?}, expected {outcomes:?} {want}"
        ));
    }
}

/// A synthetic run's outputs and counters.
struct Sim {
    point: SweepPoint,
    flit_hops: u64,
    injected_per_subnet: Vec<u64>,
    layers: Layers,
}

/// `catnap_bench::run_synthetic`, made step by step so spans can wrap
/// each layer. Returns the run with its set-up and run host times.
fn simulate(
    cfg: MultiNocConfig,
    load: f64,
    size: Size,
    seed: u64,
    tr: &mut Option<&mut Tracer>,
) -> (Sim, Duration, Duration) {
    let tech = TechParams::catnap_32nm();
    let config = cfg.name.clone();
    let t = Instant::now();
    let mut net = span(tr, "core.new", || MultiNoc::new(cfg));
    let mut traffic = span(tr, "traffic.new", || {
        SyntheticWorkload::new(SyntheticPattern::UniformRandom, load, PACKET_BITS, net.dims(), seed)
    });
    let setup = t.elapsed();
    let t = Instant::now();
    let id = begin(tr, "warmup");
    drive_cycles(&mut net, &mut traffic, size.warmup, tr);
    end(tr, id);
    let start = span(tr, "core.snapshot", || net.snapshot());
    let sched_start = sched_totals(&net);
    let id = begin(tr, "measure");
    drive_cycles(&mut net, &mut traffic, size.measure, tr);
    end(tr, id);
    let stop = span(tr, "core.snapshot", || net.snapshot());
    let sched_stop = sched_totals(&net);
    let power = span(tr, "power.between", || net.power_between(&start, &stop, tech));
    let wall = t.elapsed();

    let d = stop.delta(&start);
    let nodes = net.dims().num_nodes();
    let point = SweepPoint {
        config,
        offered: load,
        accepted: d.accepted_packets_per_node_cycle(nodes),
        latency: d.avg_latency(),
        csc: d.total_gating().csc_fraction(),
        dynamic_w: power.dynamic.total(),
        static_w: power.static_.total(),
    };
    let mut layers = window_layers(&start, &stop, sched_start, sched_stop);
    layers.extend(dispatch_layers(&net.dispatch_stats()));
    layers.insert("power.total_w", power.total());
    let sim = Sim {
        point,
        flit_hops: link_flits(&stop),
        injected_per_subnet: d.injected_flits_per_subnet,
        layers,
    };
    (sim, setup, wall)
}

fn drive_cycles(net: &mut MultiNoc, traffic: &mut SyntheticWorkload, cycles: u64, tr: &mut Option<&mut Tracer>) {
    let Some(tr) = tr else {
        for _ in 0..cycles {
            traffic.drive(net);
            net.step();
        }
        return;
    };
    // Two clock reads per cycle (each call's end starts the next), and
    // the durations are booked after the loop.
    let (mut drive, mut step) = (Vec::with_capacity(cycles as usize), Vec::with_capacity(cycles as usize));
    let mut t0 = Instant::now();
    for _ in 0..cycles {
        traffic.drive(net);
        let t1 = Instant::now();
        net.step();
        let t2 = Instant::now();
        drive.push(t1 - t0);
        step.push(t2 - t1);
        t0 = t2;
    }
    tr.tally("traffic.drive", &drive);
    tr.tally("core.step", &step);
}

fn step_system(sys: &mut System, cycles: u64, tr: &mut Option<&mut Tracer>) {
    let Some(tr) = tr else {
        sys.run(cycles);
        return;
    };
    let mut step = Vec::with_capacity(cycles as usize);
    let mut t0 = Instant::now();
    for _ in 0..cycles {
        sys.step();
        let t1 = Instant::now();
        step.push(t1 - t0);
        t0 = t1;
    }
    tr.tally("multicore.step", &step);
}

fn span<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

fn begin(tr: &mut Option<&mut Tracer>, name: &'static str) -> Option<usize> {
    tr.as_mut().map(|t| t.begin(name))
}

fn end(tr: &mut Option<&mut Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tr.as_mut(), id) {
        t.end(id);
    }
}

/// FNV-1a digest of a round's canonical output.
fn digest(output: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(output);
    h.finish()
}

/// Median, averaging the middle pair (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn link_flits(s: &Snapshot) -> u64 {
    s.activity_per_subnet.iter().map(|a| a.link_flits).sum()
}

/// Event-scheduler counters summed over subnets.
fn sched_totals(net: &MultiNoc) -> SchedStats {
    (0..net.num_subnets())
        .map(|s| net.subnet(s).sched_stats())
        .fold(SchedStats::default(), |a, b| SchedStats {
            router_runs: a.router_runs + b.router_runs,
            idle_runs: a.idle_runs + b.idle_runs,
            wakeup_pops: a.wakeup_pops + b.wakeup_pops,
            stale_wakeups: a.stale_wakeups + b.stale_wakeups,
            syncs: a.syncs + b.syncs,
            synced_cycles: a.synced_cycles + b.synced_cycles,
            stalled_runs: a.stalled_runs + b.stalled_runs,
        })
}

/// Traffic, gating and network counters over the measured window.
fn window_layers(start: &Snapshot, stop: &Snapshot, s0: SchedStats, s1: SchedStats) -> Layers {
    let d = stop.delta(start);
    let cycles = d.cycle.max(1);
    let act = d
        .activity_per_subnet
        .iter()
        .fold(RouterActivity::default(), |a, b| a.merged(*b));
    let g = d.total_gating();
    let runs = s1.router_runs - s0.router_runs;
    let idle = s1.idle_runs - s0.idle_runs;
    let stalled = s1.stalled_runs - s0.stalled_runs;
    let pops = s1.wakeup_pops - s0.wakeup_pops;
    let stale = s1.stale_wakeups - s0.stale_wakeups;
    Layers::from([
        ("traffic.packets_per_cycle", ratio(d.generated_packets, cycles)),
        ("core.csc_fraction", g.csc_fraction()),
        ("noc.link_flits_per_cycle", ratio(act.link_flits, cycles)),
        ("noc.router_runs_per_cycle", ratio(runs, cycles)),
        ("noc.idle_run_ratio", ratio(idle, runs)),
        ("noc.stalled_run_ratio", ratio(stalled, runs)),
        (
            "noc.useful_run_ratio",
            if runs == 0 {
                0.0
            } else {
                1.0 - ratio(idle + stalled, runs)
            },
        ),
        ("noc.arb_grant_ratio", ratio(act.arb_grants, act.arb_requests)),
        ("noc.wakeup_pops_per_cycle", ratio(pops, cycles)),
        ("noc.stale_wakeup_ratio", ratio(stale, pops + stale)),
        ("noc.head_blocked_per_cycle", ratio(act.head_blocked_cycles, cycles)),
        (
            "noc.sleep_transitions_per_kcycle",
            ratio(g.sleep_transitions * 1000, cycles),
        ),
        (
            "noc.awake_router_fraction",
            ratio(g.active_cycles, g.active_cycles + g.sleep_cycles + g.wakeup_cycles),
        ),
        ("noc.avg_packet_latency_cycles", d.avg_latency()),
    ])
}

/// Parallel-dispatch decisions and pool counters over the whole run.
fn dispatch_layers(s: &DispatchStats) -> Layers {
    let cycles = s.cycles.max(1);
    Layers::from([
        (
            "core.dispatch_parallel_ratio",
            ratio(s.phase_parallel, s.phase_serial + s.phase_parallel),
        ),
        ("core.pool_jobs_per_cycle", ratio(s.pool_jobs_run, cycles)),
        ("core.pool_park_waits_per_cycle", ratio(s.pool_park_waits, cycles)),
        (
            "core.pool_failed_steal_ratio",
            ratio(s.pool_failed_steals, s.pool_steals + s.pool_failed_steals),
        ),
    ])
}

/// Serve counters summed over a fleet.
#[derive(Default)]
struct Served {
    hits: u64,
    memo: u64,
    misses: u64,
    resumes: u64,
    errors: u64,
}

/// In-process `catnap-serve` workers, each `Server::serve_listener` on
/// its own loopback port, all over one cache directory.
struct Fleet {
    addrs: Vec<String>,
    workers: Vec<JoinHandle<std::io::Result<()>>>,
}

impl Fleet {
    fn start(dir: &Path) -> Result<Fleet, String> {
        let io = |e: std::io::Error| format!("starting a hive worker: {e}");
        let mut fleet = Fleet {
            addrs: Vec::with_capacity(HIVE_WORKERS),
            workers: Vec::with_capacity(HIVE_WORKERS),
        };
        for _ in 0..HIVE_WORKERS {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
            fleet.addrs.push(listener.local_addr().map_err(io)?.to_string());
            let mut server = Server::new(SimCache::new(dir, HIVE_CACHE_ENTRIES).map_err(io)?);
            fleet.workers.push(std::thread::spawn(move || server.serve_listener(&listener)));
        }
        Ok(fleet)
    }

    /// The workers' serve counters, summed.
    fn stats(&self) -> Result<Served, String> {
        let mut total = Served::default();
        for addr in &self.addrs {
            let mut conn = Connection::open(addr, Duration::from_secs(2), Duration::from_secs(10))
                .map_err(|e| format!("stats from {addr}: {e}"))?;
            let reply = conn
                .roundtrip(r#"{"id":"stats","cmd":"stats"}"#)
                .map_err(|e| format!("stats from {addr}: {e}"))?;
            let stats = Json::parse(&reply).ok().and_then(|j| j.get("stats").cloned());
            let field = |k: &str| stats.as_ref().and_then(|s| s.get(k)).and_then(Json::as_u64);
            let (Some(hits), Some(memo), Some(misses), Some(resumes), Some(errors)) = (
                field("hits"),
                field("memo"),
                field("misses"),
                field("resumes"),
                field("errors"),
            ) else {
                return Err(format!("malformed stats from {addr}: {}", reply.trim()));
            };
            total.hits += hits;
            total.memo += memo;
            total.misses += misses;
            total.resumes += resumes;
            total.errors += errors;
        }
        Ok(total)
    }
}

impl Drop for Fleet {
    /// Retires the workers over the protocol and joins them; a worker
    /// that did not acknowledge is left to end with the process rather
    /// than joined, which could block forever.
    fn drop(&mut self) {
        let acked = shutdown_workers(&self.addrs, Duration::from_secs(2));
        if acked == self.workers.len() {
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}
