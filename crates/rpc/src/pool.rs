//! A process-wide cached thread pool: every runtime thread that outlives
//! its caller's stack frame — accept loops, connection handlers, task
//! threads, tracker clocks, in-process workers — starts here instead of in
//! `std::thread::spawn`.
//!
//! A cluster job on loopback needs ~30 threads at once and, spawning each
//! afresh, started ~34 per job: thread start and exit took 12 % of a
//! SIGPROF profile's samples on 2 vCPUs. The pool keeps finished threads parked and hands them the next
//! job, so the threads are reused *across* jobs — the pool is process-wide
//! for that reason, not owned by a job.
//!
//! **It never queues.** A job goes to an idle thread when there is one and
//! to a fresh OS thread when there is not, so concurrency is never capped:
//! a held RPC call, an accept loop blocked in `accept`, or a job joining
//! another job cannot starve anything behind it. What a job sees is what a
//! spawned thread sees, panics included: [`Task::join`] returns the job's
//! value or its panic payload, and the pool thread goes on serving.
//!
//! **Threads retire.** A pool thread exits after [`RETIRE_AFTER`] jobs and
//! is replaced on demand; see that constant for why.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Jobs a pool thread runs before it exits.
///
/// glibc's allocator keeps freed chunks in per-thread caches that only the
/// thread's exit hands back. A thread that lives forever and serves jobs of
/// every shape pins the high-water mark of each of them: on the
/// `cluster_jobs` benchmark (seed 42, 4 alternating pairs) a pool whose
/// threads never retire read `peak_rss_mb` 15.5–16.1 MiB against
/// 12.0–13.8 with retirement after 16 jobs, at the same throughput; the
/// latter is no higher than spawning a thread per job, and still starts
/// ~2 OS threads per cluster job instead of ~34. It is a measured
/// constant, not a setting.
pub const RETIRE_AFTER: u32 = 16;

type Job = Box<dyn FnOnce() + Send>;

/// Jobs waiting for a thread, and how many parked threads no queued job
/// has claimed yet. Invariant: `idle` = parked threads − `queue.len()`, so
/// every queued job has a thread on its way.
struct State {
    queue: VecDeque<Job>,
    idle: usize,
}

struct Pool {
    state: Mutex<State>,
    work: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State { queue: VecDeque::new(), idle: 0 }),
    work: Condvar::new(),
};
static THREADS_STARTED: AtomicU64 = AtomicU64::new(0);
static JOBS_RUN: AtomicU64 = AtomicU64::new(0);

/// Cumulative counters of the process-wide pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// OS threads the pool has started.
    pub threads_started: u64,
    /// Jobs the pool has finished (panicked ones included).
    pub jobs_run: u64,
}

/// The pool's counters so far, over the whole process.
pub fn stats() -> PoolStats {
    PoolStats {
        threads_started: THREADS_STARTED.load(Ordering::Relaxed),
        jobs_run: JOBS_RUN.load(Ordering::Relaxed),
    }
}

/// The handle of a job started by [`spawn`], as a `JoinHandle` is of a
/// thread. Dropping it detaches the job.
pub struct Task<T> {
    slot: Arc<Slot<T>>,
}

struct Slot<T> {
    result: Mutex<Option<std::thread::Result<T>>>,
    done: Condvar,
}

impl<T> Task<T> {
    /// Wait for the job and return its value, or the payload it panicked
    /// with. Everything the job captured has been dropped by then.
    pub fn join(self) -> std::thread::Result<T> {
        let mut result = lock(&self.slot.result);
        loop {
            if let Some(r) = result.take() {
                return r;
            }
            result = self.slot.done.wait(result).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// True once the job has returned or panicked.
    pub fn is_finished(&self) -> bool {
        lock(&self.slot.result).is_some()
    }
}

/// Run `f` on a pool thread: an idle one if there is one, a new one if not.
pub fn spawn<F, T>(f: F) -> Task<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let slot = Arc::new(Slot { result: Mutex::new(None), done: Condvar::new() });
    let theirs = slot.clone();
    let job: Job = Box::new(move || {
        // `f` and its captures are dropped inside this call, before the
        // result is published, as they are before a thread's join returns.
        let r = catch_unwind(AssertUnwindSafe(f));
        *lock(&theirs.result) = Some(r);
        theirs.done.notify_all();
    });
    let mut s = lock(&POOL.state);
    s.queue.push_back(job);
    if s.idle > 0 {
        s.idle -= 1;
        drop(s);
        POOL.work.notify_one();
    } else {
        drop(s);
        THREADS_STARTED.fetch_add(1, Ordering::Relaxed);
        std::thread::spawn(serve);
    }
    Task { slot }
}

/// A pool thread's life: take a job, run it, park, until the quota is up.
/// It starts counted as parked-for-a-job (the spawn that started it queued
/// one without claiming an idle thread), so it does not bump `idle` first.
fn serve() {
    for served in 1..=RETIRE_AFTER {
        let job = {
            let mut s = lock(&POOL.state);
            loop {
                if let Some(job) = s.queue.pop_front() {
                    break job;
                }
                s = POOL.work.wait(s).unwrap_or_else(|e| e.into_inner());
            }
        };
        // A panicking job is caught inside `job` itself.
        job();
        JOBS_RUN.fetch_add(1, Ordering::Relaxed);
        if served < RETIRE_AFTER {
            lock(&POOL.state).idle += 1;
        }
    }
}

/// The pool's locks guard no invariant a panic could break halfway (jobs
/// run outside them), so a poisoned lock is taken as is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn join_returns_the_value() {
        let task = spawn(|| 6 * 7);
        assert_eq!(task.join().expect("no panic"), 42);
    }

    #[test]
    fn a_panic_is_an_err_and_the_pool_keeps_serving() {
        let task = spawn(|| -> u32 { panic!("job failed on purpose") });
        let payload = task.join().expect_err("the job panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job failed on purpose"));
        for i in 0..2 * RETIRE_AFTER {
            assert_eq!(spawn(move || i + 1).join().expect("served"), i + 1);
        }
    }

    /// K jobs that each wait for all K at one barrier can only finish if
    /// the pool runs all K at once: it grows rather than queueing.
    #[test]
    fn jobs_that_wait_on_each_other_all_finish() {
        const K: usize = 24;
        let barrier = Arc::new(Barrier::new(K));
        let tasks: Vec<_> = (0..K)
            .map(|i| {
                let barrier = barrier.clone();
                spawn(move || {
                    barrier.wait();
                    i
                })
            })
            .collect();
        let sum: usize = tasks.into_iter().map(|t| t.join().expect("finished")).sum();
        assert_eq!(sum, K * (K - 1) / 2);
    }

    /// A thread leaves after its quota: one thread can serve at most
    /// `RETIRE_AFTER` jobs, so a run of sequential jobs three times as long
    /// is spread over at least three threads, and none of them serves more.
    #[test]
    fn a_thread_is_replaced_after_its_quota() {
        let n = 3 * RETIRE_AFTER as usize;
        let mut served: std::collections::HashMap<std::thread::ThreadId, u32> = Default::default();
        for _ in 0..n {
            let id = spawn(|| std::thread::current().id()).join().expect("served");
            *served.entry(id).or_default() += 1;
        }
        assert!(served.len() >= 3, "{} threads served {n} jobs", served.len());
        assert!(served.values().all(|&c| c <= RETIRE_AFTER), "{served:?}");
    }

    #[test]
    fn is_finished_tracks_the_job() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let task = spawn(move || rx.recv().is_ok());
        assert!(!task.is_finished());
        tx.send(()).unwrap();
        while !task.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(task.join().expect("no panic"));
    }
}
