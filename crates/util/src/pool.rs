//! Order-preserving parallel map on scoped threads, built on `std` only
//! to keep the workspace's hermetic zero-dependency policy.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item and returns the results **in `items`
/// order**, whichever lane finished first.
///
/// Lanes are `available_parallelism().min(items.len())` threads spawned
/// with [`std::thread::scope`], so `f` and `items` may borrow from the
/// caller's stack. Each lane pulls the next index from a shared counter,
/// so one slow item does not strand the items queued behind it. With a
/// single lane (one item, or a one-core host) `f` runs inline on the
/// caller, in order. A panic in `f` is re-raised on the caller with its
/// original payload after every lane has stopped.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = machine.min(items.len());
    if lanes <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..lanes)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                // `scope` joins the remaining lanes before this unwinds.
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed by exactly one lane"))
        .collect()
}
