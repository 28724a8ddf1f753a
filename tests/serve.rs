//! End-to-end tests of the `catnap-serve` batch front-end at the
//! workspace level: the JSONL protocol over an in-memory stream and over
//! a real TCP connection, cross-checked against the uncached simulation
//! path so a cache or protocol bug cannot silently change results.

use catnap_repro::bench::run_job_uncached;
use catnap_repro::catnap::SimCache;
use catnap_repro::serve::{parse_job, Server};
use catnap_repro::util::json::ToJson;
use catnap_repro::util::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

fn temp_cache(tag: &str) -> (SimCache, PathBuf) {
    let dir = std::env::temp_dir().join(format!("catnap-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (SimCache::new(&dir, 64).expect("cache dir"), dir)
}

/// A small, fast job: single-subnet 128-bit mesh, 80-cycle horizon.
fn small_job(id: &str, rate: f64) -> String {
    format!(
        r#"{{"id":"{id}","job":{{"config":"single-noc-128b","pattern":"transpose","rate":{rate},"warmup":40,"measure":40,"seed":11}}}}"#
    )
}

/// The served result must equal the plain uncached simulation of the
/// same job, byte for byte once both are JSON — the serving, caching and
/// fingerprinting layers may accelerate, never alter.
#[test]
fn served_result_matches_uncached_simulation() {
    let (cache, dir) = temp_cache("uncached-xcheck");
    let mut server = Server::new(cache);

    let response = Json::parse(&server.process_line(&small_job("x", 0.03))).unwrap();
    assert_eq!(response.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(response.get("cache").unwrap().as_str(), Some("miss"));

    let request = Json::parse(&small_job("x", 0.03)).unwrap();
    let job = parse_job(request.get("job").unwrap()).unwrap();
    let direct = run_job_uncached(&job).to_json();
    assert_eq!(
        response.get("result").unwrap().to_compact_string(),
        direct.to_compact_string(),
        "served result diverged from the uncached simulation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full JSONL batch over `serve_lines`: every non-empty line answered in
/// order, duplicates deduped, errors contained to their own line.
#[test]
fn jsonl_batch_round_trip() {
    let (cache, dir) = temp_cache("batch");
    let mut server = Server::new(cache);
    let input = format!(
        "{}\n{}\n{}\ngarbage\n{{\"id\":\"s\",\"cmd\":\"stats\"}}\n",
        small_job("a", 0.02),
        small_job("b", 0.05),
        small_job("a-again", 0.02),
    );
    let mut out = Vec::new();
    server.serve_lines(input.as_bytes(), &mut out).unwrap();
    let lines: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 5);
    assert_eq!(lines[0].get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(
        lines[1].get("cache").unwrap().as_str(),
        Some("miss"),
        "different rate is a different job"
    );
    assert_eq!(lines[2].get("cache").unwrap().as_str(), Some("memo"));
    assert_eq!(lines[2].get("result").unwrap(), lines[0].get("result").unwrap());
    assert_eq!(lines[3].get("status").unwrap().as_str(), Some("error"));
    let stats = lines[4].get("stats").unwrap();
    assert_eq!(stats.get("jobs").unwrap().as_u64(), Some(3));
    assert_eq!(stats.get("errors").unwrap().as_u64(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same protocol over a real TCP socket, across *two* connections:
/// the server's memo and disk cache persist between clients, so a
/// reconnecting client's duplicate job is answered from memory.
#[test]
fn tcp_round_trip_and_cross_connection_dedupe() {
    let (cache, dir) = temp_cache("tcp");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    // serve_listener loops on accept forever; the thread is detached and
    // dies with the test process.
    std::thread::spawn(move || {
        let mut server = Server::new(cache);
        let _ = server.serve_listener(&listener);
    });

    let ask = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str| -> Json {
        writeln!(stream, "{line}").expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        Json::parse(&response).expect("response parses")
    };

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let first = ask(&mut stream, &mut reader, &small_job("tcp-1", 0.04));
    assert_eq!(first.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(first.get("cache").unwrap().as_str(), Some("miss"));
    let dup = ask(&mut stream, &mut reader, &small_job("tcp-2", 0.04));
    assert_eq!(dup.get("cache").unwrap().as_str(), Some("memo"));
    assert_eq!(dup.get("result").unwrap(), first.get("result").unwrap());
    drop(reader);
    drop(stream);

    // A second connection still dedupes against the first one's work.
    let mut stream = TcpStream::connect(addr).expect("reconnect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let again = ask(&mut stream, &mut reader, &small_job("tcp-3", 0.04));
    assert_eq!(
        again.get("cache").unwrap().as_str(),
        Some("memo"),
        "memo persists across connections"
    );
    assert_eq!(again.get("result").unwrap(), first.get("result").unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serves `input` through `serve_lines` and parses every response line.
fn serve_bytes(tag: &str, input: &[u8]) -> Vec<Json> {
    let (cache, dir) = temp_cache(tag);
    let mut server = Server::new(cache);
    let mut out = Vec::new();
    server
        .serve_lines(input, &mut out)
        .expect("a hostile line must not end the stream");
    let _ = std::fs::remove_dir_all(&dir);
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .collect()
}

fn assert_error_then_pong(lines: &[Json]) {
    assert_eq!(lines.len(), 2, "one response per line: {lines:?}");
    assert_eq!(lines[0].get("status").unwrap().as_str(), Some("error"));
    assert_eq!(lines[1].get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(lines[1].get("id").unwrap().as_u64(), Some(2));
    assert_eq!(lines[1].get("pong").unwrap().as_bool(), Some(true));
}

/// A request line past the 1 MiB bound is refused, even when it would
/// parse, and the next line is still served.
#[test]
fn over_long_line_is_an_error_and_serving_continues() {
    let padded_ping = format!(r#"{{"id":1,"cmd":"ping","pad":"{}"}}"#, "x".repeat(2 << 20));
    let input = format!("{padded_ping}\n{{\"id\":2,\"cmd\":\"ping\"}}\n");
    let lines = serve_bytes("long-line", input.as_bytes());
    assert_error_then_pong(&lines);
    let error = lines[0].get("error").unwrap().as_str().unwrap();
    assert!(error.contains("longer than"), "{error}");
}

/// A line that is not UTF-8 gets an error response instead of ending
/// the stream.
#[test]
fn non_utf8_line_is_an_error_and_serving_continues() {
    let lines = serve_bytes("non-utf8", b"\xff\xfe\n{\"id\":2,\"cmd\":\"ping\"}\n");
    assert_error_then_pong(&lines);
    let error = lines[0].get("error").unwrap().as_str().unwrap();
    assert!(error.contains("UTF-8"), "{error}");
}
