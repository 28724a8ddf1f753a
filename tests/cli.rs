//! `catnap-sim` accepts only the flags a subcommand reads: an unknown,
//! repeated or malformed flag is an error that names it, never a run
//! that silently uses a default.

use std::process::{Command, Output};

fn catnap_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_catnap-sim"))
        .args(args)
        .output()
        .expect("catnap-sim runs")
}

/// Runs `args`, which must fail with an error naming `needle`.
fn assert_rejected(args: &[&str], needle: &str) {
    let out = catnap_sim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{args:?} must fail, stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains(needle),
        "{args:?}: the error must name {needle}, got: {stderr}"
    );
}

#[test]
fn cache_is_not_a_subcommand() {
    assert_rejected(
        &["cache", "--workload", "heavy", "--cycles", "10"],
        "unknown subcommand",
    );
}

#[test]
fn bad_flags_are_rejected_by_name() {
    assert_rejected(&["mix", "--workload", "heavy", "--cycles", "10"], "--workload");
    assert_rejected(&["synthetic", "--load", "--cycles", "10"], "--load");
    assert_rejected(&["mix", "--gating", "on", "--cycles", "10"], "--gating");
    assert_rejected(&["mix", "--cycles", "10", "--cycles", "20"], "--cycles");
    assert_rejected(&["list", "--config", "4NT-128b"], "--config");
    // Values the simulator cannot run: a negative or non-finite load,
    // and a packet size of no bits or more than 65,536.
    for load in ["-1", "nan", "inf"] {
        assert_rejected(&["synthetic", "--load", load, "--cycles", "10"], "--load");
    }
    for bits in ["0", "65537", "4000000000"] {
        assert_rejected(&["synthetic", "--packet-bits", bits, "--cycles", "10"], "--packet-bits");
    }
}

#[test]
fn valid_invocations_succeed() {
    for args in [
        &["mix", "--mix", "heavy", "--cycles", "20", "--seed", "7"][..],
        &["list"],
    ] {
        let out = catnap_sim(args);
        assert!(
            out.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
    }
}
