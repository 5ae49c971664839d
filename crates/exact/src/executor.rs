//! Pluggable shard execution: how one round of search shards gets its
//! worker threads.
//!
//! The solver's sharded rounds are *self-scheduling*: the round job owns
//! an atomic cursor and claims shard positions until none remain, so an
//! executor only has to run the same closure on up to `workers` threads
//! and wait for all of them. That contract is trivially satisfied by
//! scoped threads ([`ScopedExecutor`], the default) and by a reusable
//! work-stealing pool (`mrp-batch` implements [`ShardExecutor`] for its
//! `ThreadPool`), and because the solver reads the shared bound only at
//! round boundaries, the outcome is identical whichever executor — and
//! whichever worker count — runs the rounds.

use std::sync::Arc;

/// Runs one self-scheduling round job on up to `workers` threads.
pub trait ShardExecutor {
    /// Invokes `job` once per worker (up to `workers` concurrent
    /// invocations) and returns only when every invocation has returned.
    /// `job` claims work internally; invoking it more times than there
    /// is work is harmless.
    fn run(&self, workers: usize, job: Arc<dyn Fn() + Send + Sync>);
}

/// The default executor: `workers` scoped threads per round (none at all
/// for a single worker).
#[derive(Debug, Default, Clone, Copy)]
pub struct ScopedExecutor;

impl ShardExecutor for ScopedExecutor {
    fn run(&self, workers: usize, job: Arc<dyn Fn() + Send + Sync>) {
        if workers <= 1 {
            job();
            return;
        }
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let job = Arc::clone(&job);
                scope.spawn(move || job());
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scoped_executor_runs_job_once_per_worker() {
        for workers in [1usize, 2, 8] {
            let calls = Arc::new(AtomicUsize::new(0));
            let c = Arc::clone(&calls);
            ScopedExecutor.run(
                workers,
                Arc::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }),
            );
            assert_eq!(calls.load(Ordering::SeqCst), workers);
        }
    }
}
