//! The `catnap-hive` binary's command line: flag values no job can run
//! are refused by name before any worker is contacted.

use std::process::Command;

/// `sweep` with `flags` appended to a fleet that does not exist: the
/// port is never dialled, because the values are checked first.
fn sweep(flags: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_catnap-hive"))
        .args(["sweep", "--workers", "127.0.0.1:9", "--config", "catnap-4x128"])
        .args(flags)
        .output()
        .expect("catnap-hive runs")
}

#[test]
fn bad_loads_and_packet_sizes_are_rejected_by_name() {
    for (flags, needle) in [
        (&["--loads", "-0.1"][..], "--loads"),
        (&["--loads", "0.02,nan"], "--loads"),
        (&["--loads", "0.02", "--packet-bits", "0"], "--packet-bits"),
        (&["--loads", "0.02", "--packet-bits", "65537"], "--packet-bits"),
    ] {
        let out = sweep(flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{flags:?} must fail with an error, got: {stderr}"
        );
        assert!(
            stderr.contains(needle),
            "{flags:?}: the error must name {needle}, got: {stderr}"
        );
    }
}
