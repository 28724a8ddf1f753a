//! The sweep coordinator: a fleet of `catnap-serve` workers drained
//! through the deterministic [`WorkQueue`].
//!
//! One OS thread per worker address. Each thread claims a job under the
//! shared queue mutex, performs the JSONL round-trip over its own TCP
//! connection, and reports the outcome back under the lock. Transport
//! failures (connect refused, timeout, mid-request disconnect, garbled
//! reply) release the claim — the job re-queues at the front — and cost
//! the worker one strike; [`HiveConfig::max_attempts`] consecutive
//! strikes retire the worker for the rest of the sweep. Between strikes
//! the thread sleeps a deterministic jittered backoff
//! ([`crate::Backoff`]).
//!
//! **Determinism.** Scheduling is timing-dependent — which worker runs
//! which job depends on the failure schedule — but the *result set* is
//! not: every job's response is a pure function of the job (the
//! simulator is bit-deterministic and the cache is fingerprint-keyed),
//! so any schedule that completes yields byte-identical results in job
//! order. Speculative duplicates are checked against that promise: a
//! second completion whose fingerprint or result bytes disagree with
//! the first poisons the whole sweep ([`HiveError::ResultMismatch`])
//! rather than silently picking one.

use crate::backoff::Backoff;
use crate::queue::{Claim, Completion, WorkQueue};
use catnap::FINGERPRINT_SCHEMA_VERSION;
use catnap_bench::JobRequest;
use catnap_util::Json;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for one sweep. The defaults suit a localhost fleet;
/// raise the timeouts for big jobs or a real network.
#[derive(Clone, Debug)]
pub struct HiveConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read/write timeout for one job round-trip (must exceed the
    /// longest expected simulation).
    pub request_timeout: Duration,
    /// Consecutive transport failures before a worker is retired.
    pub max_attempts: u32,
    /// First backoff delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Ceiling on the backoff delay.
    pub backoff_cap: Duration,
    /// Age after which an in-flight claim may be speculatively
    /// re-dispatched to an idle worker.
    pub straggler_after: Duration,
    /// Jitter seed (see [`crate::seed_from_env`]).
    pub seed: u64,
}

impl Default for HiveConfig {
    fn default() -> Self {
        HiveConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(120),
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            straggler_after: Duration::from_secs(10),
            seed: crate::seed_from_env(),
        }
    }
}

/// Why a sweep failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HiveError {
    /// The worker list was empty.
    NoWorkers,
    /// Every worker died before the sweep finished.
    AllWorkersDead {
        /// Jobs that did complete.
        completed: usize,
        /// Total jobs in the sweep.
        total: usize,
    },
    /// Two workers returned different bytes for the same job —
    /// determinism is broken (mixed builds in one fleet, most likely).
    ResultMismatch {
        /// The job whose duplicates disagreed.
        job: usize,
    },
    /// A worker rejected a job with a protocol-level error. Rejections
    /// are deterministic (every worker would refuse the same line), so
    /// the sweep stops instead of retrying.
    Rejected {
        /// The rejected job's index.
        job: usize,
        /// The worker's error message.
        error: String,
    },
}

impl fmt::Display for HiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HiveError::NoWorkers => write!(f, "no workers given"),
            HiveError::AllWorkersDead { completed, total } => {
                write!(f, "all workers died with {completed}/{total} jobs complete")
            }
            HiveError::ResultMismatch { job } => {
                write!(f, "workers disagreed on job {job}: results must be byte-identical")
            }
            HiveError::Rejected { job, error } => write!(f, "job {job} rejected: {error}"),
        }
    }
}

impl std::error::Error for HiveError {}

/// Counters describing how a sweep went.
#[derive(Clone, Debug, Default)]
pub struct HiveStats {
    /// Jobs in the sweep.
    pub jobs: usize,
    /// Workers the sweep started with.
    pub workers: usize,
    /// Workers retired after repeated failures.
    pub dead_workers: usize,
    /// Transport failures across all workers (each costs one retry).
    pub retries: u64,
    /// Jobs returned to the queue after a failed claim.
    pub redispatches: u64,
    /// Extra speculative claims handed out against stragglers.
    pub speculative: u64,
    /// Duplicate completions (all byte-identical, or the sweep errored).
    pub duplicates: u64,
    /// Completions per worker, indexed like the input address list.
    pub per_worker: Vec<u64>,
}

/// A completed sweep: results in job order plus scheduling statistics.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The `result` object of each job, in job order.
    pub results: Vec<Json>,
    /// Each job's fingerprint as reported by the worker (`%016x`).
    pub fingerprints: Vec<String>,
    /// How the sweep was scheduled.
    pub stats: HiveStats,
}

/// One worker connection: a line-oriented request/response channel.
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connects to `addr` (a `host:port` string) within the configured
    /// timeouts.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if no resolved address accepts within
    /// `connect_timeout`.
    pub fn open(addr: &str, connect_timeout: Duration, request_timeout: Duration) -> io::Result<Connection> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, format!("cannot resolve '{addr}'"));
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(request_timeout))?;
                    stream.set_write_timeout(Some(request_timeout))?;
                    stream.set_nodelay(true)?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Connection { stream, reader });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on write failure, read timeout, or a worker that
    /// closed the stream instead of responding.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        writeln!(self.stream, "{line}")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "worker closed the connection",
            ));
        }
        Ok(reply)
    }
}

/// What a worker's `ping` reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PingInfo {
    /// Worker crate version.
    pub version: String,
    /// Wire-protocol version.
    pub protocol: u64,
    /// Fingerprint input-schema version (must match ours).
    pub fingerprint_schema: u64,
}

/// Pings over an open connection.
///
/// # Errors
///
/// [`io::Error`] on transport failure or a malformed pong.
pub fn ping(conn: &mut Connection) -> io::Result<PingInfo> {
    let reply = conn.roundtrip(r#"{"id":"hive-ping","cmd":"ping"}"#)?;
    let malformed = || io::Error::new(io::ErrorKind::InvalidData, format!("malformed pong: {}", reply.trim()));
    let j = Json::parse(&reply).map_err(|_| malformed())?;
    if j.get("pong").and_then(Json::as_bool) != Some(true) {
        return Err(malformed());
    }
    Ok(PingInfo {
        version: j.get("version").and_then(Json::as_str).ok_or_else(malformed)?.to_string(),
        protocol: j.get("protocol").and_then(Json::as_u64).ok_or_else(malformed)?,
        fingerprint_schema: j.get("fingerprint_schema").and_then(Json::as_u64).ok_or_else(malformed)?,
    })
}

/// Sends `{"cmd": "shutdown"}` to each address, ignoring workers that
/// are already gone. Returns how many acknowledged.
pub fn shutdown_workers(addrs: &[String], connect_timeout: Duration) -> usize {
    let mut acked = 0;
    for addr in addrs {
        if let Ok(mut conn) = Connection::open(addr, connect_timeout, connect_timeout.max(Duration::from_secs(2))) {
            if conn.roundtrip(r#"{"id":"hive-bye","cmd":"shutdown"}"#).is_ok() {
                acked += 1;
            }
        }
    }
    acked
}

enum Reply {
    Ok { fingerprint: String, result: String },
    Rejected(String),
    Garbled,
}

fn interpret(line: &str, index: usize) -> Reply {
    let Ok(j) = Json::parse(line) else {
        return Reply::Garbled;
    };
    if j.get("id").and_then(Json::as_u64) != Some(index as u64) {
        return Reply::Garbled; // response to someone else's request
    }
    match j.get("status").and_then(Json::as_str) {
        Some("ok") => match (j.get("fingerprint").and_then(Json::as_str), j.get("result")) {
            (Some(fp), Some(result)) => Reply::Ok {
                fingerprint: fp.to_string(),
                result: result.to_compact_string(),
            },
            _ => Reply::Garbled,
        },
        Some("error") => Reply::Rejected(
            j.get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified worker error")
                .to_string(),
        ),
        _ => Reply::Garbled,
    }
}

struct Shared {
    queue: Mutex<WorkQueue>,
    cv: Condvar,
    fatal: Mutex<Option<HiveError>>,
    start: Instant,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn poison(&self, err: HiveError) {
        let mut fatal = self.fatal.lock().expect("fatal lock");
        if fatal.is_none() {
            *fatal = Some(err);
        }
        self.queue.lock().expect("queue lock").abort();
        self.cv.notify_all();
    }
}

/// Runs `requests` across the workers at `addrs` and returns the
/// results in request order.
///
/// # Errors
///
/// See [`HiveError`]. On error the fleet is left running (callers own
/// worker lifecycle; see [`crate::ProcessFleet`]/[`crate::ThreadFleet`]).
pub fn run_sweep(addrs: &[String], requests: &[JobRequest], cfg: &HiveConfig) -> Result<SweepOutcome, HiveError> {
    if addrs.is_empty() {
        return Err(HiveError::NoWorkers);
    }
    let lines: Vec<String> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Json::Obj(vec![
                ("id".to_string(), Json::Int(i as i64)),
                ("job".to_string(), r.to_job_json()),
            ])
            .to_compact_string()
        })
        .collect();

    let shared = Shared {
        queue: Mutex::new(WorkQueue::new(requests.len())),
        cv: Condvar::new(),
        fatal: Mutex::new(None),
        start: Instant::now(),
    };
    let retries = AtomicU64::new(0);
    let dead = AtomicU64::new(0);
    // Claim cap = fleet size: with every worker idle, each job can be
    // speculated at most once per worker — and never beyond that.
    let max_claims = addrs.len() as u32;

    let mut per_worker = vec![0u64; addrs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(w, addr)| {
                let (shared, lines, retries, dead) = (&shared, &lines, &retries, &dead);
                scope.spawn(move || worker_loop(w, addr, lines, shared, cfg, max_claims, retries, dead))
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            per_worker[w] = handle.join().unwrap_or(0);
        }
    });

    if let Some(err) = shared.fatal.lock().expect("fatal lock").take() {
        return Err(err);
    }
    let queue = shared.queue.into_inner().expect("queue lock");
    let qstats = queue.stats();
    let mut results = Vec::with_capacity(requests.len());
    let mut fingerprints = Vec::with_capacity(requests.len());
    let slots = queue.into_results();
    let completed = slots.iter().filter(|s| s.is_some()).count();
    for slot in slots {
        let Some((fp, text)) = slot else {
            return Err(HiveError::AllWorkersDead {
                completed,
                total: requests.len(),
            });
        };
        results.push(Json::parse(&text).expect("canonical result bytes are valid JSON"));
        fingerprints.push(fp);
    }
    Ok(SweepOutcome {
        results,
        fingerprints,
        stats: HiveStats {
            jobs: requests.len(),
            workers: addrs.len(),
            dead_workers: dead.load(Ordering::Relaxed) as usize,
            retries: retries.load(Ordering::Relaxed),
            redispatches: qstats.redispatches,
            speculative: qstats.speculative,
            duplicates: qstats.duplicates,
            per_worker,
        },
    })
}

/// Opens (if needed) and validates a connection, then performs the
/// round-trip. Every new connection is pinged first, and a worker whose
/// fingerprint schema differs from this build's is refused: the
/// mismatch is returned as a distinguished error so the caller can
/// retire the worker without burning retries.
fn checked_roundtrip(
    conn: &mut Option<Connection>,
    addr: &str,
    line: &str,
    cfg: &HiveConfig,
) -> Result<String, (io::Error, bool)> {
    let transient = |e: io::Error| (e, false);
    if conn.is_none() {
        let mut fresh = Connection::open(addr, cfg.connect_timeout, cfg.request_timeout).map_err(transient)?;
        let info = ping(&mut fresh).map_err(transient)?;
        let ours = u64::from(FINGERPRINT_SCHEMA_VERSION);
        if info.fingerprint_schema != ours {
            let msg = format!(
                "worker {addr} speaks fingerprint schema {} but this build speaks {ours}; \
                 mixed fleets would corrupt shared caches",
                info.fingerprint_schema
            );
            return Err((io::Error::new(io::ErrorKind::InvalidData, msg), true));
        }
        *conn = Some(fresh);
    }
    conn.as_mut()
        .expect("connection just ensured")
        .roundtrip(line)
        .map_err(transient)
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    widx: usize,
    addr: &str,
    lines: &[String],
    shared: &Shared,
    cfg: &HiveConfig,
    max_claims: u32,
    retries: &AtomicU64,
    dead: &AtomicU64,
) -> u64 {
    let mut backoff = Backoff::new(cfg.seed, widx, cfg.backoff_base, cfg.backoff_cap);
    let mut conn: Option<Connection> = None;
    let mut failures = 0u32;
    let mut completed = 0u64;
    let straggler_ms = cfg.straggler_after.as_millis() as u64;

    loop {
        let claim = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                match q.claim(shared.now_ms(), straggler_ms, max_claims) {
                    Claim::Wait => {
                        // Timed wait: straggler aging is time-driven, so a
                        // notify is not guaranteed to arrive.
                        q = shared.cv.wait_timeout(q, Duration::from_millis(20)).expect("queue lock").0;
                    }
                    other => break other,
                }
            }
        };
        let index = match claim {
            Claim::Done => break,
            Claim::Job { index, .. } => index,
            Claim::Wait => unreachable!("wait handled above"),
        };

        match checked_roundtrip(&mut conn, addr, &lines[index], cfg) {
            Ok(reply) => match interpret(&reply, index) {
                Reply::Ok { fingerprint, result } => {
                    failures = 0;
                    let outcome = {
                        let mut q = shared.queue.lock().expect("queue lock");
                        q.complete(index, &fingerprint, &result)
                    };
                    shared.cv.notify_all();
                    match outcome {
                        Completion::Mismatch => {
                            shared.poison(HiveError::ResultMismatch { job: index });
                            break;
                        }
                        Completion::First | Completion::Duplicate => completed += 1,
                    }
                }
                Reply::Rejected(error) => {
                    // Deterministic refusal: every worker would reject the
                    // same line, so retrying elsewhere cannot help.
                    {
                        let mut q = shared.queue.lock().expect("queue lock");
                        q.fail(index);
                    }
                    shared.poison(HiveError::Rejected { job: index, error });
                    break;
                }
                Reply::Garbled => {
                    // Treat like a transport failure: drop the connection
                    // and let the retry ladder decide.
                    conn = None;
                    if transport_failure(shared, cfg, index, &mut failures, &mut backoff, retries) {
                        dead.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            },
            Err((_, permanent)) => {
                conn = None;
                if permanent {
                    // Schema mismatch: retire immediately, releasing the claim.
                    let mut q = shared.queue.lock().expect("queue lock");
                    q.fail(index);
                    drop(q);
                    shared.cv.notify_all();
                    dead.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                if transport_failure(shared, cfg, index, &mut failures, &mut backoff, retries) {
                    dead.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }
    completed
}

/// Books one transport failure: releases the claim, counts the retry,
/// sleeps the backoff. Returns `true` when the worker is out of
/// attempts and must retire.
fn transport_failure(
    shared: &Shared,
    cfg: &HiveConfig,
    index: usize,
    failures: &mut u32,
    backoff: &mut Backoff,
    retries: &AtomicU64,
) -> bool {
    {
        let mut q = shared.queue.lock().expect("queue lock");
        q.fail(index);
    }
    shared.cv.notify_all();
    retries.fetch_add(1, Ordering::Relaxed);
    *failures += 1;
    if *failures >= cfg.max_attempts {
        return true;
    }
    std::thread::sleep(backoff.delay(*failures - 1));
    false
}
