//! An in-tree work-stealing thread pool.
//!
//! The workspace builds offline, so no rayon/crossbeam: plain
//! [`std::sync::Mutex`]-guarded deques, one per worker plus a global
//! injector. A worker serves its own deque LIFO (cache-friendly for
//! nested spawns), then drains the injector, then steals FIFO from the
//! back of sibling deques — the classic work-stealing discipline, sized
//! for the pool's actual workload (hundreds of coarse synthesis jobs,
//! not millions of microtasks).
//!
//! Two properties matter more than raw throughput here:
//!
//! * **Nested-wait safety** — a job may itself fan out subjobs and wait
//!   for them ([`ThreadPool::run_indexed`] from inside a worker). A
//!   waiting worker *helps*: it keeps executing queued jobs instead of
//!   blocking, so nested parallelism cannot deadlock the pool.
//! * **Panic isolation** — a panicking job marks its slot as failed
//!   (`None` from [`ThreadPool::run_indexed`]) and the worker survives.
//!
//! Instrumented through `mrp-obs`: each executed job opens a
//! `pool.worker[<id>]` span and the `batch.pool.queue_depth` gauge
//! tracks submitted-but-unfinished jobs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// `(pool identity, worker index)` of the current thread, when it is
    /// a pool worker. Lets `execute` push to the worker's own deque and
    /// lets waits turn into work-helping loops.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> = const { std::cell::Cell::new(None) };
}

struct Shared {
    /// One deque per worker: owner pops the front, thieves pop the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs submitted from outside the pool.
    injector: Mutex<VecDeque<Job>>,
    /// Submitted-but-unfinished jobs.
    pending: AtomicUsize,
    /// Wakes idle workers on submit and `join` waiters on completion.
    signal: Mutex<()>,
    cond: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    /// Next runnable job for `worker`: own deque front, injector, then
    /// steal from siblings (back, round-robin from the right neighbor).
    fn find_job(&self, worker: usize) -> Option<Job> {
        if let Some(job) = self.queues[worker].lock().unwrap().pop_front() {
            return Some(job);
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(job) = self.queues[victim].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        None
    }

    /// Any runnable job, for non-worker helpers (a caller thread stuck in
    /// a wait): injector first, then any deque back.
    fn find_any_job(&self) -> Option<Job> {
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some(job);
        }
        for queue in &self.queues {
            if let Some(job) = queue.lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        None
    }

    fn run_job(&self, worker: Option<usize>, job: Job) {
        let _span = match worker {
            Some(id) => mrp_obs::span_dyn(format!("pool.worker[{id}]")),
            None => mrp_obs::span_dyn("pool.helper".to_string()),
        };
        // The job owns its own panic story (run_indexed wraps payloads);
        // this catch is the backstop that keeps the worker alive and the
        // pending count correct for raw `execute` jobs.
        let _ = catch_unwind(AssertUnwindSafe(job));
        let left = self.pending.fetch_sub(1, Ordering::SeqCst) - 1;
        mrp_obs::gauge_set("batch.pool.queue_depth", left as f64);
        if left == 0 {
            let _guard = self.signal.lock().unwrap();
            self.cond.notify_all();
        }
    }
}

/// A fixed-size work-stealing thread pool. See the module docs.
///
/// # Examples
///
/// ```
/// use mrp_batch::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let squares = pool.run_indexed((0..8).map(|i| move || i * i).collect::<Vec<_>>());
/// assert_eq!(squares[3], Some(9));
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool with `workers` threads (`0` is clamped to 1).
    pub fn new(workers: usize) -> ThreadPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            signal: Mutex::new(()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, id))
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Submits one fire-and-forget job. From a worker thread of this
    /// pool, the job lands on that worker's own deque (LIFO, stealable);
    /// from any other thread it goes through the global injector.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let depth = self.shared.pending.fetch_add(1, Ordering::SeqCst) + 1;
        mrp_obs::gauge_set("batch.pool.queue_depth", depth as f64);
        let job: Job = Box::new(job);
        let own = WORKER
            .with(|w| w.get())
            .filter(|&(pool, _)| pool == self.identity());
        match own {
            Some((_, id)) => self.shared.queues[id].lock().unwrap().push_front(job),
            None => self.shared.injector.lock().unwrap().push_back(job),
        }
        let _guard = self.shared.signal.lock().unwrap();
        self.shared.cond.notify_all();
    }

    /// Runs every closure and returns their results in submission order.
    /// `None` marks a job that panicked. Safe to call from inside a pool
    /// job: the calling worker helps execute queued work while it waits.
    pub fn run_indexed<T, F>(&self, jobs: Vec<F>) -> Vec<Option<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let results: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let left = Arc::new(AtomicUsize::new(n));
        for (i, job) in jobs.into_iter().enumerate() {
            let results = Arc::clone(&results);
            let left = Arc::clone(&left);
            self.execute(move || {
                let out = catch_unwind(AssertUnwindSafe(job));
                if let Ok(value) = out {
                    results.lock().unwrap()[i] = Some(value);
                }
                left.fetch_sub(1, Ordering::SeqCst);
            });
        }
        self.wait_helping(&left);
        // The final job decrements `left` before dropping its Arc clone,
        // so take the results under the lock instead of unwrapping the Arc.
        let mut guard = results.lock().unwrap();
        std::mem::take(&mut *guard)
    }

    /// Blocks until `left` hits zero, executing queued jobs meanwhile so
    /// a worker waiting on subjobs cannot starve the pool.
    fn wait_helping(&self, left: &AtomicUsize) {
        while left.load(Ordering::SeqCst) > 0 {
            if let Some(job) = self.shared.find_any_job() {
                self.shared.run_job(None, job);
            } else {
                let guard = self.shared.signal.lock().unwrap();
                if left.load(Ordering::SeqCst) == 0 {
                    break;
                }
                // Timed wait: a helper that lost a submit/notify race must
                // re-poll the queues rather than sleep forever.
                let _ = self
                    .shared
                    .cond
                    .wait_timeout(guard, Duration::from_millis(1))
                    .unwrap();
            }
        }
    }

    /// Waits until every submitted job (from any caller) has finished.
    pub fn join(&self) {
        while self.shared.pending.load(Ordering::SeqCst) > 0 {
            if let Some(job) = self.shared.find_any_job() {
                self.shared.run_job(None, job);
            } else {
                let guard = self.shared.signal.lock().unwrap();
                if self.shared.pending.load(Ordering::SeqCst) == 0 {
                    break;
                }
                let _ = self
                    .shared
                    .cond
                    .wait_timeout(guard, Duration::from_millis(1))
                    .unwrap();
            }
        }
    }

    fn identity(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.join();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.signal.lock().unwrap();
            self.shared.cond.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    WORKER.with(|w| w.set(Some((Arc::as_ptr(&shared) as usize, id))));
    loop {
        if let Some(job) = shared.find_job(id) {
            shared.run_job(Some(id), job);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let guard = shared.signal.lock().unwrap();
        // Re-check under the lock so a submit between the empty poll and
        // the wait cannot be missed; the timeout bounds any residual race.
        if shared.pending.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::SeqCst) {
            let _ = shared
                .cond
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap();
        }
    }
    WORKER.with(|w| w.set(None));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_jobs_and_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.run_indexed((0..100).map(|i| move || i * 2).collect::<Vec<_>>());
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i * 2));
        }
    }

    #[test]
    fn zero_workers_clamped() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.workers(), 1);
        let out = pool.run_indexed(vec![|| 7]);
        assert_eq!(out, vec![Some(7)]);
    }

    #[test]
    fn panicking_job_is_isolated() {
        let pool = ThreadPool::new(2);
        let out = pool.run_indexed(vec![
            Box::new(|| 1usize) as Box<dyn FnOnce() -> usize + Send>,
            Box::new(|| panic!("boom")),
            Box::new(|| 3usize),
        ]);
        assert_eq!(out, vec![Some(1), None, Some(3)]);
        // The pool still works afterwards.
        let out = pool.run_indexed(vec![|| 42]);
        assert_eq!(out, vec![Some(42)]);
    }

    /// Seeded stress: hammer the pool with a deterministic but irregular
    /// mix of job shapes (quick, compute-heavy, panicking, nested
    /// fan-out) across several pool sizes, and check every surviving
    /// result. A scheduling bug (lost wakeup, double execution, steal
    /// corruption) shows up as a wrong value, a missing value, or a hang.
    #[test]
    fn seeded_stress_under_contention() {
        // xorshift64*: cheap, deterministic, good enough to scramble the
        // job mix — the point is irregularity, not statistical quality.
        fn rng(state: &mut u64) -> u64 {
            *state ^= *state >> 12;
            *state ^= *state << 25;
            *state ^= *state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        for (seed, workers) in [(1u64, 1usize), (7, 2), (42, 4), (1234, 8)] {
            let pool = Arc::new(ThreadPool::new(workers));
            let mut state = seed;
            let mut kinds = Vec::new();
            let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..200)
                .map(|i| {
                    let kind = rng(&mut state) % 4;
                    kinds.push(kind);
                    let inner = Arc::clone(&pool);
                    let job: Box<dyn FnOnce() -> u64 + Send> = match kind {
                        0 => Box::new(move || i as u64),
                        1 => Box::new(move || {
                            // Busy work so thieves have something to steal.
                            (0..500u64).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
                        }),
                        2 => Box::new(|| panic!("stress panic")),
                        _ => Box::new(move || {
                            let sub = inner.run_indexed(
                                (0..5u64).map(|j| move || j + i as u64).collect::<Vec<_>>(),
                            );
                            sub.into_iter().map(Option::unwrap).sum()
                        }),
                    };
                    job
                })
                .collect();

            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let out = pool.run_indexed(jobs);
            std::panic::set_hook(hook);

            assert_eq!(out.len(), 200);
            for (i, (slot, kind)) in out.iter().zip(&kinds).enumerate() {
                let expected = match kind {
                    0 => Some(i as u64),
                    1 => {
                        Some((0..500u64).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b)))
                    }
                    2 => None,
                    _ => Some((0..5u64).map(|j| j + i as u64).sum()),
                };
                assert_eq!(*slot, expected, "seed {seed} workers {workers} job {i}");
            }
            // Everything drained: the pool is reusable afterwards.
            assert_eq!(pool.run_indexed(vec![|| 9u64]), vec![Some(9)]);
        }
    }

    #[test]
    fn nested_fan_out_does_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(2));
        let inner = Arc::clone(&pool);
        let out = pool.run_indexed(
            (0..4)
                .map(|i| {
                    let inner = Arc::clone(&inner);
                    move || {
                        let sub = inner
                            .run_indexed((0..4).map(|j| move || i * 10 + j).collect::<Vec<_>>());
                        sub.into_iter().map(Option::unwrap).sum::<usize>()
                    }
                })
                .collect::<Vec<_>>(),
        );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i * 40 + 6));
        }
    }
}
