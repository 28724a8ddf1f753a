//! Worker fleets: ways to stand up `catnap-serve` workers for a hive.
//!
//! * [`ThreadFleet`] — in-process workers, each a thread running a
//!   [`catnap_serve::Server`] behind its own ephemeral loopback
//!   listener. Hermetic (no binary needed), used by the tests. Supports
//!   fault injection: a worker can be told to die after serving N jobs,
//!   which exercises the coordinator's re-dispatch path
//!   deterministically.
//! * [`ProcessFleet`] — `catnap-hive sweep --spawn N`: real
//!   `catnap-serve --tcp 127.0.0.1:0` child processes, their ephemeral
//!   ports scraped from the `listening on` stderr line, retired via the
//!   protocol's `shutdown` command (with a kill fallback).

use crate::coordinator::shutdown_workers;
use catnap::SimCache;
use catnap_serve::Server;
use catnap_util::Json;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// In-process worker fleet. Each worker owns a private cache directory
/// under the given root (`worker-0`, `worker-1`, …) so the fleet also
/// models machines that do *not* share a cache.
pub struct ThreadFleet {
    addrs: Vec<String>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadFleet {
    /// Spawns one worker per entry of `faults`. `faults[i] = Some(n)`
    /// makes worker `i` die — stop accepting and close mid-request
    /// without responding — when job number `n` (0-based) arrives;
    /// `None` is a healthy worker.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if a listener or cache directory cannot be set up.
    pub fn spawn(cache_root: &Path, faults: &[Option<usize>]) -> io::Result<ThreadFleet> {
        let mut addrs = Vec::with_capacity(faults.len());
        let mut handles = Vec::with_capacity(faults.len());
        for (i, &fault_at) in faults.iter().enumerate() {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?.to_string());
            let cache = SimCache::new(cache_root.join(format!("worker-{i}")), 512)?;
            handles.push(std::thread::spawn(move || {
                serve_until_fault(&listener, Server::new(cache), fault_at)
            }));
        }
        Ok(ThreadFleet { addrs, handles })
    }

    /// The workers' `host:port` addresses.
    pub fn addrs(&self) -> Vec<String> {
        self.addrs.clone()
    }

    /// Shuts every live worker down over the protocol and joins the
    /// threads (dead workers are already gone; their threads have
    /// returned).
    pub fn shutdown(self) {
        shutdown_workers(&self.addrs, Duration::from_millis(500));
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// One worker's accept loop, with the fault hook: when job number
/// `fault_at` arrives, the worker drops listener and stream without
/// responding — the coordinator sees an unexpected EOF mid-request and
/// connection refusals from then on, exactly like a crashed host.
fn serve_until_fault(listener: &TcpListener, mut server: Server, fault_at: Option<usize>) {
    let mut jobs_seen = 0usize;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // client went away; accept the next
                Ok(_) => {}
            }
            if line.trim().is_empty() {
                continue;
            }
            let is_job = Json::parse(&line).is_ok_and(|j| j.get("job").is_some());
            if is_job {
                if fault_at == Some(jobs_seen) {
                    return; // die without responding
                }
                jobs_seen += 1;
            }
            let response = server.process_line(&line);
            if writeln!(&stream, "{response}").is_err() {
                break;
            }
            if server.shutdown_requested() {
                return;
            }
        }
    }
}

/// A fleet of spawned `catnap-serve` child processes.
pub struct ProcessFleet {
    children: Vec<Child>,
    addrs: Vec<String>,
}

impl ProcessFleet {
    /// Spawns `n` workers from the `catnap-serve` binary at `bin`, all
    /// sharing `cache_dir` (the multi-process case [`SimCache`] is
    /// hardened for). Each worker binds an ephemeral loopback port,
    /// reported on its stderr as `listening on ADDR` and scraped here.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if a child cannot be spawned or exits without
    /// announcing its address.
    pub fn spawn(n: usize, bin: &Path, cache_dir: &Path) -> io::Result<ProcessFleet> {
        let mut fleet = ProcessFleet {
            children: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
        };
        for _ in 0..n {
            let mut child = Command::new(bin)
                .arg("--tcp")
                .arg("127.0.0.1:0")
                .arg("--cache")
                .arg(cache_dir)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()?;
            let stderr = child.stderr.take().expect("stderr was piped");
            let mut reader = BufReader::new(stderr);
            let mut addr = None;
            let mut announce = String::new();
            while reader.read_line(&mut announce)? != 0 {
                if let Some(at) = announce.find("listening on ") {
                    addr = Some(announce[at + "listening on ".len()..].trim().to_string());
                    break;
                }
                announce.clear();
            }
            match addr {
                Some(a) => {
                    // Keep draining stderr so the child never blocks on a
                    // full pipe; forward it for operator visibility.
                    std::thread::spawn(move || {
                        for line in reader.lines().map_while(Result::ok) {
                            eprintln!("[worker] {line}");
                        }
                    });
                    fleet.addrs.push(a);
                    fleet.children.push(child);
                }
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "worker exited before announcing its address",
                    ));
                }
            }
        }
        Ok(fleet)
    }

    /// The workers' `host:port` addresses.
    pub fn addrs(&self) -> Vec<String> {
        self.addrs.clone()
    }

    /// Retires the fleet: `shutdown` over the protocol, then waits up
    /// to `grace` for each child before killing it.
    pub fn shutdown(mut self, grace: Duration) {
        shutdown_workers(&self.addrs, Duration::from_millis(500));
        let deadline = Instant::now() + grace;
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        self.children.clear();
    }
}

impl Drop for ProcessFleet {
    /// Last-resort cleanup if [`ProcessFleet::shutdown`] was never
    /// called: no orphaned simulators.
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Locates the `catnap-serve` binary for `--spawn`: next to the running
/// executable first (`target/<profile>/`, also one level up from test
/// binaries in `deps/`), else trusting `PATH`.
pub fn default_worker_bin() -> PathBuf {
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.parent().into_iter().chain(exe.parent().and_then(Path::parent)) {
            let candidate = dir.join("catnap-serve");
            if candidate.is_file() {
                return candidate;
            }
        }
    }
    PathBuf::from("catnap-serve")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::{ping, Connection as Conn};

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("catnap-hive-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn thread_fleet_answers_pings_and_shuts_down() {
        let root = temp_root("ping");
        let fleet = ThreadFleet::spawn(&root, &[None, None]).unwrap();
        for addr in fleet.addrs() {
            let mut conn = Conn::open(&addr, Duration::from_secs(1), Duration::from_secs(5)).unwrap();
            let info = ping(&mut conn).unwrap();
            assert_eq!(info.fingerprint_schema, u64::from(catnap::FINGERPRINT_SCHEMA_VERSION));
        }
        let addrs = fleet.addrs();
        fleet.shutdown();
        // After shutdown the listeners are gone.
        assert!(Conn::open(&addrs[0], Duration::from_millis(200), Duration::from_secs(1)).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn faulted_worker_dies_mid_request_without_responding() {
        let root = temp_root("fault");
        let fleet = ThreadFleet::spawn(&root, &[Some(0)]).unwrap();
        let addr = &fleet.addrs()[0];
        let mut conn = Conn::open(addr, Duration::from_secs(1), Duration::from_secs(5)).unwrap();
        // Commands still work (the fault counts jobs, not lines)…
        assert!(ping(&mut conn).is_ok());
        // …but the first job kills the worker: EOF instead of a response.
        let job = r#"{"id":0,"job":{"config":"single-noc-128b","rate":0.01,"warmup":5,"measure":5}}"#;
        let err = conn.roundtrip(job).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        for handle in fleet.handles {
            handle.join().unwrap();
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
