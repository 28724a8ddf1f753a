//! `catnap-serve` — batch simulation server.
//!
//! ```text
//! catnap-serve [--cache DIR] [--max-entries N] [--tcp ADDR]
//! ```
//!
//! Default mode reads JSONL job requests from stdin and writes one JSONL
//! response per job to stdout (see the crate docs for the format). With
//! `--tcp ADDR` (e.g. `--tcp 127.0.0.1:7420`) it serves the same
//! protocol over TCP instead, one connection at a time. The cache
//! directory defaults to `$CATNAP_CACHE_DIR`, then `catnap-cache`.
//! A `{"cmd": "shutdown"}` line ends the process cleanly in either mode
//! (this is how a `catnap-hive` coordinator retires spawned workers);
//! `{"cmd": "ping"}` probes liveness and build compatibility.

use catnap::SimCache;
use catnap_serve::Server;
use std::io::{stdin, stdout, BufReader};
use std::net::TcpListener;
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: catnap-serve [--cache DIR] [--max-entries N] [--tcp ADDR]");
    exit(2);
}

fn main() {
    let mut cache_dir: Option<String> = None;
    let mut max_entries = 512usize;
    let mut tcp: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cache" => cache_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--max-entries" => {
                max_entries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--tcp" => tcp = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let dir = cache_dir
        .or_else(|| std::env::var("CATNAP_CACHE_DIR").ok().filter(|d| !d.is_empty()))
        .unwrap_or_else(|| "catnap-cache".to_string());
    let cache = SimCache::new(dir, max_entries).unwrap_or_else(|e| {
        eprintln!("catnap-serve: cannot open cache directory: {e}");
        exit(1);
    });
    eprintln!("catnap-serve: cache at {}", cache.dir().display());
    let mut server = Server::new(cache);

    let result = match tcp {
        Some(addr) => {
            let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
                eprintln!("catnap-serve: cannot bind {addr}: {e}");
                exit(1);
            });
            eprintln!(
                "catnap-serve: listening on {}",
                listener.local_addr().map_or(addr, |a| a.to_string())
            );
            server.serve_listener(&listener)
        }
        None => server.serve_lines(BufReader::new(stdin().lock()), stdout().lock()),
    };
    if let Err(e) = result {
        eprintln!("catnap-serve: {e}");
        exit(1);
    }
    let s = server.stats();
    eprintln!(
        "catnap-serve: {} jobs ({} miss, {} resume, {} hit, {} memo), {} errors",
        s.jobs, s.misses, s.resumes, s.hits, s.memo, s.errors
    );
}
