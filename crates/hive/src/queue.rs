//! The coordinator's work queue.
//!
//! All scheduling state lives here, behind one mutex in the
//! coordinator. Every job is in exactly one place: pending in the
//! queue, held by one worker, or done with its result. The methods are
//! pure state transitions, so the dispatch policy is unit-testable
//! without sockets or threads.
//!
//! * A claimed job is held by its worker alone until that worker
//!   completes or releases it; no other worker is ever handed it.
//! * A released job returns to the *front* of the queue: a transient
//!   worker failure delays one job by one round-trip instead of pushing
//!   it behind the entire backlog.
//! * A job completes once, and that completion is its result.

use std::collections::VecDeque;

/// What [`WorkQueue::claim`] handed the asking worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Claim {
    /// Run the job with this index into the sweep's job list.
    Job(usize),
    /// Nothing is pending, but jobs are still held: wait for a
    /// release, a completion or an abort, then ask again.
    Wait,
    /// Every job is done (or the sweep was aborted); the worker should
    /// exit.
    Done,
}

/// Scheduling state for one sweep. See the module docs for the policy.
#[derive(Debug)]
pub(crate) struct WorkQueue {
    pending: VecDeque<usize>,
    /// `(fingerprint, compact result)` of each done job.
    results: Vec<Option<(String, String)>>,
    outstanding: usize,
    aborted: bool,
    redispatches: u64,
}

impl WorkQueue {
    /// A queue over jobs `0..jobs`, all pending, in index order.
    pub(crate) fn new(jobs: usize) -> Self {
        WorkQueue {
            pending: (0..jobs).collect(),
            results: vec![None; jobs],
            outstanding: jobs,
            aborted: false,
            redispatches: 0,
        }
    }

    /// Jobs returned to the queue by [`WorkQueue::release`] so far.
    pub(crate) fn redispatches(&self) -> u64 {
        self.redispatches
    }

    /// Marks the sweep poisoned: every subsequent [`WorkQueue::claim`]
    /// returns [`Claim::Done`] so workers drain out promptly.
    pub(crate) fn abort(&mut self) {
        self.aborted = true;
    }

    /// Hands the asking worker the job at the front of the queue.
    pub(crate) fn claim(&mut self) -> Claim {
        if self.aborted || self.outstanding == 0 {
            return Claim::Done;
        }
        match self.pending.pop_front() {
            Some(index) => Claim::Job(index),
            None => Claim::Wait,
        }
    }

    /// Takes a held job back from a worker whose request failed; it
    /// goes to the front of the queue.
    pub(crate) fn release(&mut self, index: usize) {
        debug_assert!(self.results[index].is_none(), "job {index} released after it completed");
        self.pending.push_front(index);
        self.redispatches += 1;
    }

    /// Records a held job's result.
    pub(crate) fn complete(&mut self, index: usize, fingerprint: String, result: String) {
        debug_assert!(self.results[index].is_none(), "job {index} completed twice");
        self.results[index] = Some((fingerprint, result));
        self.outstanding -= 1;
    }

    /// The `(fingerprint, result)` pairs in job order; `None` for jobs
    /// that never completed (dead-fleet sweeps).
    pub(crate) fn into_results(self) -> Vec<Option<(String, String)>> {
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_in_index_order_and_requeues_failures_in_front() {
        let mut q = WorkQueue::new(3);
        assert_eq!(q.claim(), Claim::Job(0));
        assert_eq!(q.claim(), Claim::Job(1));
        q.release(0);
        // The released job jumps the remaining backlog.
        assert_eq!(q.claim(), Claim::Job(0));
        assert_eq!(q.claim(), Claim::Job(2));
        assert_eq!(q.redispatches(), 1);
    }

    #[test]
    fn held_job_is_never_claimed_twice() {
        let mut q = WorkQueue::new(1);
        assert_eq!(q.claim(), Claim::Job(0));
        // However long the job is held, another worker only waits.
        assert_eq!(q.claim(), Claim::Wait);
        assert_eq!(q.claim(), Claim::Wait);
        q.release(0);
        assert_eq!(q.claim(), Claim::Job(0));
        assert_eq!(q.claim(), Claim::Wait);
    }

    #[test]
    fn complete_records_the_only_result() {
        let mut q = WorkQueue::new(2);
        assert_eq!(q.claim(), Claim::Job(0));
        assert_eq!(q.claim(), Claim::Job(1));
        q.complete(1, "fp1".to_string(), "{\"x\":1}".to_string());
        assert_eq!(q.claim(), Claim::Wait, "job 0 is still held");
        q.complete(0, "fp0".to_string(), "{\"x\":0}".to_string());
        assert_eq!(q.claim(), Claim::Done);
        assert_eq!(
            q.into_results(),
            vec![
                Some(("fp0".to_string(), "{\"x\":0}".to_string())),
                Some(("fp1".to_string(), "{\"x\":1}".to_string())),
            ]
        );
    }

    #[test]
    fn abort_drains_workers() {
        let mut q = WorkQueue::new(5);
        assert_eq!(q.claim(), Claim::Job(0));
        q.abort();
        assert_eq!(q.claim(), Claim::Done);
        assert!(q.into_results().iter().all(Option::is_none), "abort is not completion");
    }
}
