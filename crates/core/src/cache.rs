//! Fingerprint-keyed on-disk cache of simulation results and warm-up
//! checkpoints.
//!
//! Both payload kinds are keyed by a 64-bit fingerprint (see
//! [`crate::checkpoint::config_fingerprint`] and the job fingerprints
//! built on top of it by `catnap-bench`): *results* are small JSON
//! documents (`r-{key}.json`), *checkpoints* are sealed binary blobs
//! (`c-{key}.ckpt`, self-validating via magic/version/checksum). The
//! cache is a plain directory — hermetic, no index file, safe to delete
//! at any time — and is bounded: when the entry count exceeds the
//! configured cap, the oldest-written files are evicted first.
//!
//! Corrupt entries are treated as misses, never as errors: a checkpoint
//! that fails its checksum on resume should simply be recomputed.
//!
//! The directory may be shared by any number of processes (several
//! `catnap-serve` workers behind one `catnap-hive` coordinator, say):
//! inserts stage into a per-process uniquely-named temp file and
//! atomically rename it into place, so concurrent writers of the same
//! key each install a complete entry (byte-identical by construction —
//! entries are pure functions of their fingerprint), and readers racing
//! an eviction see a plain miss when an entry vanishes between the
//! directory listing and the read.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Monotone counter distinguishing concurrent temp files written by
/// different [`SimCache`] handles within one process; the process id
/// separates handles across processes.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Hit/miss/eviction counters for one [`SimCache`] handle (process-local;
/// not persisted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result lookups satisfied from disk.
    pub result_hits: u64,
    /// Result lookups that missed.
    pub result_misses: u64,
    /// Checkpoint lookups satisfied from disk.
    pub checkpoint_hits: u64,
    /// Checkpoint lookups that missed.
    pub checkpoint_misses: u64,
    /// Entries removed to stay under the size cap.
    pub evictions: u64,
}

/// A bounded directory-backed cache mapping 64-bit fingerprints to
/// simulation results and warm-up checkpoints.
#[derive(Debug)]
pub struct SimCache {
    dir: PathBuf,
    max_entries: usize,
    stats: CacheStats,
}

impl SimCache {
    /// Opens (creating if needed) a cache rooted at `dir`, holding at most
    /// `max_entries` files across both payload kinds.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the directory cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries` is zero.
    pub fn new(dir: impl Into<PathBuf>, max_entries: usize) -> io::Result<Self> {
        assert!(max_entries > 0, "cache capacity must be non-zero");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SimCache {
            dir,
            max_entries,
            stats: CacheStats::default(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters accumulated by this handle.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn result_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("r-{key:016x}.json"))
    }

    fn checkpoint_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("c-{key:016x}.ckpt"))
    }

    /// Looks up a cached result document.
    pub fn get_result(&mut self, key: u64) -> Option<String> {
        match fs::read_to_string(self.result_path(key)) {
            Ok(s) => {
                self.stats.result_hits += 1;
                Some(s)
            }
            Err(_) => {
                self.stats.result_misses += 1;
                None
            }
        }
    }

    /// Stores a result document, evicting oldest entries past the cap.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the entry cannot be written.
    pub fn put_result(&mut self, key: u64, json: &str) -> io::Result<()> {
        self.put(self.result_path(key), json.as_bytes())
    }

    /// Looks up a cached checkpoint blob.
    pub fn get_checkpoint(&mut self, key: u64) -> Option<Vec<u8>> {
        match fs::read(self.checkpoint_path(key)) {
            Ok(b) => {
                self.stats.checkpoint_hits += 1;
                Some(b)
            }
            Err(_) => {
                self.stats.checkpoint_misses += 1;
                None
            }
        }
    }

    /// Stores a checkpoint blob, evicting oldest entries past the cap.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the entry cannot be written.
    pub fn put_checkpoint(&mut self, key: u64, bytes: &[u8]) -> io::Result<()> {
        self.put(self.checkpoint_path(key), bytes)
    }

    fn put(&mut self, path: PathBuf, bytes: &[u8]) -> io::Result<()> {
        // Write-then-rename so a concurrent reader never sees a torn
        // entry (it sees either no file — a miss — or a complete one).
        // The temp name carries the process id and a process-local
        // counter: several workers sharing one CATNAP_CACHE_DIR can
        // write the same key at once, and each rename then atomically
        // installs one complete, byte-identical entry instead of two
        // writers interleaving into the same temp file.
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, bytes)?;
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        self.evict_to_cap();
        Ok(())
    }

    /// Removes oldest-written entries until the count is within the cap.
    /// Best-effort: I/O failures here only mean the cache stays larger,
    /// and an entry another process already evicted (metadata or remove
    /// failing on a vanished file) is silently skipped.
    fn evict_to_cap(&mut self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(SystemTime, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_str()?;
                let cached = (name.starts_with("r-") && name.ends_with(".json"))
                    || (name.starts_with("c-") && name.ends_with(".ckpt"));
                if !cached {
                    return None;
                }
                let mtime = e.metadata().ok()?.modified().ok()?;
                Some((mtime, path))
            })
            .collect();
        if files.len() <= self.max_entries {
            return;
        }
        files.sort();
        let excess = files.len() - self.max_entries;
        for (_, path) in files.into_iter().take(excess) {
            if fs::remove_file(&path).is_ok() {
                self.stats.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("catnap-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_results_and_checkpoints() {
        let dir = temp_dir("rt");
        let mut cache = SimCache::new(&dir, 16).unwrap();
        assert_eq!(cache.get_result(1), None);
        cache.put_result(1, "{\"x\":1}").unwrap();
        assert_eq!(cache.get_result(1).as_deref(), Some("{\"x\":1}"));
        cache.put_checkpoint(1, b"\x01\x02").unwrap();
        assert_eq!(cache.get_checkpoint(1).as_deref(), Some(&b"\x01\x02"[..]));
        let s = cache.stats();
        assert_eq!((s.result_hits, s.result_misses, s.checkpoint_hits), (1, 1, 1));
        // A second handle over the same directory sees the entries.
        let mut other = SimCache::new(&dir, 16).unwrap();
        assert!(other.get_result(1).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn evicts_oldest_past_cap() {
        let dir = temp_dir("evict");
        let mut cache = SimCache::new(&dir, 3).unwrap();
        for key in 0..5u64 {
            cache.put_result(key, "{}").unwrap();
            // Distinct mtimes so eviction order is deterministic.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.get_result(0).is_none(), "oldest evicted");
        assert!(cache.get_result(4).is_some(), "newest kept");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Many handles hammering one directory — overlapping keys, a cap
    /// small enough to force continuous eviction — must never corrupt an
    /// entry or error out: every read is either a miss or the exact
    /// bytes that key stores. This is the single-host model of several
    /// worker processes sharing one `CATNAP_CACHE_DIR`.
    #[test]
    fn concurrent_handles_share_a_directory_safely() {
        let dir = temp_dir("concurrent");
        fs::create_dir_all(&dir).unwrap();
        let payload = |key: u64| format!("{{\"key\":{key}}}");
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    // Tiny cap: every insert beyond 8 entries races an
                    // eviction in every other thread.
                    let mut cache = SimCache::new(&dir, 8).unwrap();
                    for round in 0..30u64 {
                        let key = (t + round) % 12;
                        cache.put_result(key, &payload(key)).unwrap();
                        cache.put_checkpoint(key, payload(key).as_bytes()).unwrap();
                        for probe in 0..12u64 {
                            if let Some(text) = cache.get_result(probe) {
                                assert_eq!(text, payload(probe), "torn or foreign entry under key {probe}");
                            }
                            if let Some(bytes) = cache.get_checkpoint(probe) {
                                assert_eq!(bytes, payload(probe).into_bytes(), "torn checkpoint under key {probe}");
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no cache thread may panic");
        }
        // No temp litter left behind once all writers are done.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stale temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
