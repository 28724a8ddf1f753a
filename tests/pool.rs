//! Integration tests for `par_map`, the one parallel fan-out in the
//! workspace: it must behave like a scoped spawn/join with results in
//! submission order, panic propagation, and an inline single-lane path —
//! and the latency sweep built on it must equal the serial per-point
//! loop byte for byte.

use catnap_repro::bench::{latency_sweep, run_synthetic};
use catnap_repro::catnap::{MultiNocConfig, SelectorKind};
use catnap_repro::traffic::SyntheticPattern;
use catnap_repro::util::par_map;
use catnap_repro::util::ToJson;

#[test]
fn scoped_spawn_join_borrows_caller_state() {
    let inputs: Vec<u64> = (0..100).collect();
    let offset = 3u64;
    let outputs = par_map(&inputs, |&x| x * x + offset);
    // `par_map` returned, so every borrow of `inputs`/`offset` has ended.
    assert_eq!(inputs.len(), 100);
    assert!(outputs.iter().enumerate().all(|(i, &v)| v == (i * i) as u64 + offset));
}

#[test]
fn results_ordered_by_submission_not_completion() {
    let items: Vec<usize> = (0..32).collect();
    for round in 0..20u64 {
        // Earlier items spin longer, so completion order is roughly
        // reversed on a multi-core host; results must still be ordered.
        let got = par_map(&items, |&i| {
            let mut acc = round;
            for k in 0..(32 - i) * 200 {
                acc = acc.wrapping_mul(31).wrapping_add(k as u64);
            }
            std::hint::black_box(acc);
            i
        });
        assert_eq!(got, items);
    }
}

#[test]
fn panic_in_worker_reaches_submitter() {
    let items: Vec<usize> = (0..6).collect();
    let err = std::panic::catch_unwind(|| par_map(&items, |&i| if i == 4 { panic!("boom 4") } else { i }))
        .expect_err("a panicking item must propagate");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| err.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("");
    assert_eq!(msg, "boom 4", "the original payload reaches the caller");
    // Nothing is left behind: the next call works as usual.
    assert_eq!(par_map(&items, |&i| i + 1), vec![1, 2, 3, 4, 5, 6]);
}

#[test]
fn serial_fallback_parallelism_one() {
    // One item means one lane, which runs inline on the caller.
    let current = std::thread::current().id();
    let ids = par_map(&[()], |_| std::thread::current().id());
    assert_eq!(ids, vec![current], "a single lane must run on the caller");
    let empty: Vec<u32> = par_map(&[] as &[u32], |&x| x);
    assert!(empty.is_empty());
}

#[test]
fn latency_sweep_matches_serial_per_point_loop() {
    let cfg = MultiNocConfig::catnap_4x128()
        .selector(SelectorKind::CatnapPriority)
        .gating(true)
        .seed(7);
    let loads = [0.02, 0.05, 0.08];
    let canon = |p: &catnap_repro::bench::SweepPoint| p.to_json().to_compact_string();
    let swept: Vec<String> = latency_sweep(&cfg, SyntheticPattern::UniformRandom, &loads, 512, 300, 600, 7)
        .iter()
        .map(canon)
        .collect();
    let serial: Vec<String> = loads
        .iter()
        .map(|&l| {
            canon(&run_synthetic(
                cfg.clone(),
                SyntheticPattern::UniformRandom,
                l,
                512,
                300,
                600,
                7,
            ))
        })
        .collect();
    assert_eq!(swept, serial, "the parallel sweep diverged from the serial loop");
}
