//! The `catnap-serve` binary's command line: where the result cache
//! lives and how many entries it keeps.

use std::io::Write;
use std::process::{Command, Stdio};

/// Three small sweep points; each stores a result and a warm-up
/// checkpoint, six entries without a cap.
const JOBS: [&str; 3] = [
    r#"{"id": "a", "job": {"config": "catnap-2x128-64core", "rate": 0.01, "warmup": 50, "measure": 50, "seed": 7}}"#,
    r#"{"id": "b", "job": {"config": "catnap-2x128-64core", "rate": 0.02, "warmup": 50, "measure": 50, "seed": 7}}"#,
    r#"{"id": "c", "job": {"config": "catnap-2x128-64core", "rate": 0.03, "warmup": 50, "measure": 50, "seed": 7}}"#,
];

/// `--max-entries` caps the cache wherever its directory comes from,
/// here `$CATNAP_CACHE_DIR`: three jobs under a cap of one leave one
/// entry.
#[test]
fn max_entries_caps_a_cache_named_by_the_environment() {
    let dir = std::env::temp_dir().join(format!("catnap-serve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_catnap-serve"))
        .args(["--max-entries", "1"])
        .env("CATNAP_CACHE_DIR", &dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn catnap-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    for job in JOBS {
        writeln!(stdin, "{job}").expect("write a job");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("catnap-serve exits");
    let entries = std::fs::read_dir(&dir).map(|d| d.count());
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "catnap-serve failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches(r#""status":"ok""#).count(), 3, "{stdout}");
    assert_eq!(entries.expect("the cache directory exists"), 1);
}
