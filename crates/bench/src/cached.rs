//! Memoized simulation runs: fingerprint-keyed result reuse and
//! warm-up-checkpoint sharing.
//!
//! A [`SimJob`] is the full recipe for one synthetic measurement —
//! resolved network configuration, traffic pattern, load schedule,
//! warm-up and measurement horizons, seed. Two fingerprints are derived
//! from it:
//!
//! * [`job_fingerprint`] — over everything; keys the *result* cache.
//!   Re-submitting an identical job is an O(1) disk read.
//! * [`warmup_fingerprint`] — over everything that shapes cycles
//!   `[0, warmup)` only (the schedule is clipped to that prefix; the
//!   measurement horizon and post-warm-up rates are excluded). Keys the
//!   *checkpoint* cache: a sweep of N points that agree on the warm-up
//!   prefix simulates it once and resumes N times.
//!
//! Resumed runs are bit-identical to straight-through runs — asserted
//! by the tests here and by `tests/checkpoint.rs` across the
//! determinism goldens — so memoization is a pure wall-clock
//! optimization, never a semantic one. Any unreadable or stale cache
//! entry silently degrades to a full simulation.

use crate::runs::SweepPoint;
use catnap::{config_fingerprint, MultiNoc, MultiNocConfig, SimCache};
use catnap_power::TechParams;
use catnap_traffic::{LoadSchedule, SyntheticPattern, SyntheticWorkload};
use catnap_util::codec::Fnv64;
use catnap_util::json::{FromJson, ToJson};
use catnap_util::Json;

/// A fully-resolved simulation job: the unit of caching and of
/// `catnap-serve` batch requests.
#[derive(Clone, Debug)]
pub struct SimJob {
    /// Network configuration (fingerprinted via
    /// [`catnap::config_fingerprint`]).
    pub cfg: MultiNocConfig,
    /// Destination pattern.
    pub pattern: SyntheticPattern,
    /// Offered-load schedule over the whole run (warm-up + measurement).
    pub schedule: LoadSchedule,
    /// Packet size in bits.
    pub packet_bits: u32,
    /// Warm-up cycles (excluded from measurement; checkpointed).
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Workload seed.
    pub seed: u64,
}

/// A sweep point addressed by *preset name* — the client-side
/// counterpart of `catnap-serve`'s `parse_job`. Where [`SimJob`] holds a
/// fully-resolved [`MultiNocConfig`], a `JobRequest` holds the wire
/// form: the preset string plus every knob the protocol carries, so a
/// coordinator (`catnap-hive`) can encode it into a request line and any
/// worker rebuilds the identical resolved job. `to_job_json` ∘
/// `parse_job` is fingerprint-preserving (pinned by a `catnap-serve`
/// test).
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Config preset name (`catnap-4x128`, `single-noc-128b`, …).
    pub config: String,
    /// Power gating on/off.
    pub gating: bool,
    /// Destination pattern.
    pub pattern: SyntheticPattern,
    /// Offered-load schedule over warm-up + measurement.
    pub schedule: LoadSchedule,
    /// Packet size in bits.
    pub packet_bits: u32,
    /// Warm-up cycles.
    pub warmup: u64,
    /// Measured cycles.
    pub measure: u64,
    /// Workload seed.
    pub seed: u64,
}

impl JobRequest {
    /// Encodes the request as the protocol's `"job"` object.
    pub fn to_job_json(&self) -> Json {
        let mut fields = vec![
            ("config".to_string(), Json::Str(self.config.clone())),
            ("gating".to_string(), Json::Bool(self.gating)),
            ("pattern".to_string(), Json::Str(self.pattern.name().to_string())),
        ];
        if let SyntheticPattern::HotSpot { hotspot, per_mille } = self.pattern {
            fields.push(("hotspot".to_string(), Json::Int(i64::from(hotspot.0))));
            fields.push(("hotspot_per_mille".to_string(), Json::Int(i64::from(per_mille))));
        }
        let segments = self.schedule.segments();
        if segments.len() == 1 && segments[0].0 == 0 {
            fields.push(("rate".to_string(), Json::Num(segments[0].1)));
        } else {
            let rows = segments
                .iter()
                .map(|&(from, rate)| Json::Arr(vec![Json::Int(from as i64), Json::Num(rate)]))
                .collect();
            fields.push(("schedule".to_string(), Json::Arr(rows)));
        }
        fields.push(("packet_bits".to_string(), Json::Int(i64::from(self.packet_bits))));
        fields.push(("warmup".to_string(), Json::Int(self.warmup as i64)));
        fields.push(("measure".to_string(), Json::Int(self.measure as i64)));
        fields.push(("seed".to_string(), Json::Int(self.seed as i64)));
        Json::Obj(fields)
    }
}

/// The [`JobRequest`]s of a constant-load latency sweep: one request per
/// offered load. The exact counterpart of
/// [`crate::runs::latency_sweep`]'s point list, so a distributed sweep
/// can be checked byte-for-byte against the serial one.
#[allow(clippy::too_many_arguments)]
pub fn sweep_requests(
    preset: &str,
    gating: bool,
    pattern: SyntheticPattern,
    loads: &[f64],
    packet_bits: u32,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> Vec<JobRequest> {
    loads
        .iter()
        .map(|&l| JobRequest {
            config: preset.to_string(),
            gating,
            pattern,
            schedule: LoadSchedule::constant(l),
            packet_bits,
            warmup,
            measure,
            seed,
        })
        .collect()
}

/// How a cached run was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Result served from the result cache; nothing simulated.
    Hit,
    /// Warm-up restored from a shared checkpoint; only the measurement
    /// window simulated.
    Resume,
    /// Full simulation; result and warm-up checkpoint stored for later.
    Miss,
}

impl CacheOutcome {
    /// Stable name for JSON output.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Resume => "resume",
            CacheOutcome::Miss => "miss",
        }
    }
}

fn write_pattern(h: &mut Fnv64, p: SyntheticPattern) {
    h.write_str(p.name());
    if let SyntheticPattern::HotSpot { hotspot, per_mille } = p {
        h.write_u64(u64::from(hotspot.0));
        h.write_u64(u64::from(per_mille));
    }
}

/// Fingerprint of the complete job — the result-cache key.
pub fn job_fingerprint(job: &SimJob) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("catnap-job");
    h.write_u64(config_fingerprint(&job.cfg));
    write_pattern(&mut h, job.pattern);
    h.write_u32(job.packet_bits);
    h.write_u64(job.seed);
    h.write_u64(job.warmup);
    h.write_u64(job.measure);
    for &(from, rate) in job.schedule.segments() {
        h.write_u64(from);
        h.write_f64(rate);
    }
    h.finish()
}

/// Fingerprint of the warm-up prefix — the checkpoint-cache key. Only
/// inputs that shape cycles `[0, warmup)` enter: the schedule is
/// clipped to segments starting before `warmup`, and the measurement
/// horizon is excluded, so sweep points differing only after warm-up
/// share one checkpoint.
pub fn warmup_fingerprint(job: &SimJob) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("catnap-warmup");
    h.write_u64(config_fingerprint(&job.cfg));
    write_pattern(&mut h, job.pattern);
    h.write_u32(job.packet_bits);
    h.write_u64(job.seed);
    h.write_u64(job.warmup);
    for &(from, rate) in job.schedule.segments().iter().filter(|&&(from, _)| from < job.warmup) {
        h.write_u64(from);
        h.write_f64(rate);
    }
    h.finish()
}

/// Runs the measurement window on an already-warmed simulation and
/// reports the standard sweep-point metrics over it.
fn measure_window(net: &mut MultiNoc, load: &mut SyntheticWorkload, job: &SimJob) -> SweepPoint {
    let tech = TechParams::catnap_32nm();
    let start = net.snapshot();
    for _ in 0..job.measure {
        load.drive(net);
        net.step();
    }
    let end = net.snapshot();
    let d = end.delta(&start);
    let power = net.power_between(&start, &end, tech);
    let nodes = net.dims().num_nodes();
    SweepPoint {
        config: job.cfg.name.clone(),
        offered: job.schedule.rate_at(job.warmup),
        accepted: d.accepted_packets_per_node_cycle(nodes),
        latency: d.avg_latency(),
        csc: d.total_gating().csc_fraction(),
        dynamic_w: power.dynamic.total(),
        static_w: power.static_.total(),
    }
}

/// Builds the job's network and traffic and runs its warm-up window.
fn warm_up(job: &SimJob) -> (MultiNoc, SyntheticWorkload) {
    let mut net = MultiNoc::new(job.cfg.clone());
    let mut load =
        SyntheticWorkload::with_schedule(job.pattern, job.schedule.clone(), job.packet_bits, net.dims(), job.seed);
    for _ in 0..job.warmup {
        load.drive(&mut net);
        net.step();
    }
    (net, load)
}

/// Runs a job straight through with no cache involved (the baseline the
/// cached paths are measured against).
pub fn run_job_uncached(job: &SimJob) -> SweepPoint {
    let (mut net, mut load) = warm_up(job);
    measure_window(&mut net, &mut load, job)
}

fn try_resume(cache: &mut SimCache, job: &SimJob, wkey: u64) -> Option<(MultiNoc, SyntheticWorkload)> {
    let blob = cache.get_checkpoint(wkey)?;
    let (net, driver) = MultiNoc::resume_from(job.cfg.clone(), &blob).ok()?;
    if net.cycle() != job.warmup {
        return None;
    }
    let load =
        SyntheticWorkload::decode_position(job.pattern, job.schedule.clone(), job.packet_bits, net.dims(), &driver)
            .ok()?;
    Some((net, load))
}

/// Runs a job through the cache: result hit, warm-up resume, or full
/// simulation (in that order of preference). Misses populate both
/// caches for later submissions.
pub fn run_synthetic_cached(cache: &mut SimCache, job: &SimJob) -> (SweepPoint, CacheOutcome) {
    let key = job_fingerprint(job);
    if let Some(text) = cache.get_result(key) {
        if let Ok(point) = Json::parse(&text).and_then(|j| SweepPoint::from_json(&j)) {
            return (point, CacheOutcome::Hit);
        }
    }
    let wkey = warmup_fingerprint(job);
    let (point, outcome) = if let Some((mut net, mut load)) = try_resume(cache, job, wkey) {
        (measure_window(&mut net, &mut load, job), CacheOutcome::Resume)
    } else {
        let (mut net, mut load) = warm_up(job);
        let blob = net.save_checkpoint(&load.encode_position());
        let _ = cache.put_checkpoint(wkey, &blob);
        (measure_window(&mut net, &mut load, job), CacheOutcome::Miss)
    };
    let _ = cache.put_result(key, &point.to_json().to_compact_string());
    (point, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catnap::CHECKPOINT_VERSION;
    use catnap_util::codec;

    fn temp_cache(tag: &str) -> (SimCache, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("catnap-cached-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (SimCache::new(&dir, 64).unwrap(), dir)
    }

    fn job_at(measure_rate: f64) -> SimJob {
        SimJob {
            cfg: MultiNocConfig::catnap_2x128_64core().gating(true),
            pattern: SyntheticPattern::UniformRandom,
            schedule: LoadSchedule::piecewise(vec![(0, 0.15), (300, measure_rate)]),
            packet_bits: 512,
            warmup: 300,
            measure: 300,
            seed: 7,
        }
    }

    fn canon(p: &SweepPoint) -> String {
        p.to_json().to_compact_string()
    }

    #[test]
    fn cached_paths_are_bit_identical_to_straight_through() {
        let (mut cache, dir) = temp_cache("identical");
        let a = job_at(0.02);
        let b = job_at(0.05); // same warm-up prefix, different measure rate

        let (p_miss, o_miss) = run_synthetic_cached(&mut cache, &a);
        assert_eq!(o_miss, CacheOutcome::Miss);
        assert_eq!(canon(&p_miss), canon(&run_job_uncached(&a)), "miss path == plain run");

        let (p_resume, o_resume) = run_synthetic_cached(&mut cache, &b);
        assert_eq!(o_resume, CacheOutcome::Resume, "shared warm-up must resume");
        assert_eq!(
            canon(&p_resume),
            canon(&run_job_uncached(&b)),
            "resumed run == plain run"
        );

        let (p_hit, o_hit) = run_synthetic_cached(&mut cache, &a);
        assert_eq!(o_hit, CacheOutcome::Hit);
        assert_eq!(canon(&p_hit), canon(&p_miss), "hit replays the stored result");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A warm-up checkpoint in the previous checkpoint format, as a cache
    /// primed by an older build holds it, reads as a miss: the job
    /// simulates in full, matches the uncached run and rewrites the
    /// checkpoint in the current format, so the next job sharing the
    /// warm-up resumes. Every format bump relies on this path.
    #[test]
    fn previous_format_warm_up_checkpoint_is_a_miss_and_is_rewritten() {
        let (mut cache, dir) = temp_cache("previous-format");
        let a = job_at(0.02);
        let b = job_at(0.05); // same warm-up prefix, different measure rate

        let (net, load) = warm_up(&a);
        let blob = net.save_checkpoint(&load.encode_position());
        let fp = config_fingerprint(&a.cfg);
        let payload = codec::open(&blob, CHECKPOINT_VERSION, fp).expect("fresh blob opens");
        let stale = codec::seal(CHECKPOINT_VERSION - 1, fp, payload);
        cache.put_checkpoint(warmup_fingerprint(&a), &stale).unwrap();

        let (point, outcome) = run_synthetic_cached(&mut cache, &a);
        assert_eq!(outcome, CacheOutcome::Miss, "a stale checkpoint must not resume");
        assert_eq!(canon(&point), canon(&run_job_uncached(&a)), "miss path == plain run");
        let (_, outcome) = run_synthetic_cached(&mut cache, &b);
        assert_eq!(outcome, CacheOutcome::Resume, "the miss rewrote the checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_separate_what_they_should() {
        let a = job_at(0.02);
        let b = job_at(0.05);
        assert_ne!(
            job_fingerprint(&a),
            job_fingerprint(&b),
            "different jobs, different result keys"
        );
        assert_eq!(
            warmup_fingerprint(&a),
            warmup_fingerprint(&b),
            "same prefix, same checkpoint key"
        );
        let mut c = a.clone();
        c.seed = 8;
        assert_ne!(
            warmup_fingerprint(&a),
            warmup_fingerprint(&c),
            "seed is part of the prefix"
        );
        let mut d = a.clone();
        d.cfg = d.cfg.seed(99);
        assert_ne!(
            warmup_fingerprint(&a),
            warmup_fingerprint(&d),
            "config is part of the prefix"
        );
    }
}
