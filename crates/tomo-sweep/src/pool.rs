//! A hand-rolled chunked work-stealing thread pool on `std::thread`.
//!
//! The build environment has no access to crates.io, so instead of `rayon`
//! the sweep engine uses the simplest scheduler that load-balances well for
//! its workload (hundreds of tasks, each milliseconds to seconds): the task
//! list is split into fixed-size chunks, and workers claim the next unclaimed
//! chunk from a shared atomic cursor until the list runs dry. Fast workers
//! therefore "steal" the chunks a slow worker never reached — chunk-level
//! work stealing without per-task locking.
//!
//! Panic containment: each task runs under `catch_unwind`, so a panicking
//! task is recorded as [`TomoError::TaskPanic`] and the pool shuts down
//! cleanly instead of poisoning shared state or aborting the process.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use tomo_core::TomoError;

/// Upper bound on the chunk size: small enough to balance load even when a
/// few tasks dominate the runtime.
const MAX_CHUNK: usize = 16;

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item of `items` on `threads` worker threads and
/// returns the results **in item order**.
///
/// `f` receives the item index and the item; the index is the only identity
/// a task has, so deterministic pipelines must derive all randomness from it
/// (see [`crate::derive_seed`]). The result order is independent of thread
/// count and scheduling.
///
/// Error handling is fail-fast: the first task error (by item index, among
/// the tasks that ran) aborts the sweep — workers stop claiming new chunks
/// and the error is returned. A panic inside `f` is caught and converted to
/// [`TomoError::TaskPanic`] rather than unwinding across the pool. When
/// several tasks fail, the reported error is the failed task with the lowest
/// index that was reached before shutdown.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, TomoError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, TomoError> + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.max(1).min(n);
    // Aim for ~4 chunks per worker so fast workers can steal from slow ones,
    // but never exceed MAX_CHUNK items per claim.
    let chunk = n.div_ceil(threads * 4).clamp(1, MAX_CHUNK);

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let results: Vec<Mutex<Option<Result<R, TomoError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    let worker = || loop {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        for (i, item) in items
            .iter()
            .enumerate()
            .take((start + chunk).min(n))
            .skip(start)
        {
            let outcome = catch_unwind(AssertUnwindSafe(|| f(i, item))).unwrap_or_else(|payload| {
                Err(TomoError::TaskPanic {
                    task: i,
                    message: panic_message(payload.as_ref()),
                })
            });
            if outcome.is_err() {
                abort.store(true, Ordering::Relaxed);
            }
            *results[i].lock().expect("result slot lock") = Some(outcome);
        }
    };

    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads - 1 {
                scope.spawn(worker);
            }
            worker();
        });
    }

    let mut out = Vec::with_capacity(n);
    for slot in &results {
        let outcome = slot.lock().expect("result slot lock").take();
        match outcome {
            Some(Ok(r)) => out.push(r),
            Some(Err(e)) => return Err(e),
            // Only reachable after an abort: chunks beyond the failure were
            // never claimed. The error lives in an earlier slot, so keep
            // scanning backward-compatibly — but an earlier slot must have
            // held it already, making this unreachable in practice.
            None => {
                return Err(TomoError::InvalidConfig(
                    "sweep aborted before all tasks ran".into(),
                ))
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Long-lived worker pool
// ---------------------------------------------------------------------------

/// A job submitted to the [`WorkerPool`].
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// Jobs currently executing on a worker.
    in_flight: usize,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled when a job arrives or the pool shuts down.
    job_ready: Condvar,
    /// Signalled when a job finishes (for [`WorkerPool::wait_idle`]).
    job_done: Condvar,
}

/// A long-lived pool of worker threads consuming a shared job queue.
///
/// [`parallel_map`] covers the sweep engine's finite task lists; the
/// `tomo-serve` daemon instead needs workers that outlive any single batch —
/// every accepted connection becomes one job that runs until the client
/// disconnects. Jobs are `FnOnce` closures; a panicking job is caught at the
/// job boundary (same containment policy as [`parallel_map`]) and logged,
/// leaving the worker alive for the next job.
///
/// Dropping the pool shuts it down: queued-but-unstarted jobs are discarded,
/// running jobs complete, workers are joined.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1), each
    /// named `name` (shown in `/proc/<pid>/task/*/comm`; Linux keeps the
    /// first 15 bytes).
    pub fn new(threads: usize, name: &str) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
                in_flight: 0,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job. Fails once the pool has begun shutting down.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), TomoError> {
        let mut queue = self.shared.queue.lock().expect("pool queue lock");
        if queue.shutdown {
            return Err(TomoError::InvalidConfig(
                "worker pool is shutting down".into(),
            ));
        }
        queue.jobs.push_back(Box::new(job));
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Blocks until every submitted job has finished executing.
    pub fn wait_idle(&self) {
        let mut queue = self.shared.queue.lock().expect("pool queue lock");
        while !queue.jobs.is_empty() || queue.in_flight > 0 {
            queue = self
                .shared
                .job_done
                .wait(queue)
                .expect("pool queue lock poisoned");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            queue.shutdown = true;
            queue.jobs.clear();
        }
        self.shared.job_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    queue.in_flight += 1;
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .job_ready
                    .wait(queue)
                    .expect("pool queue lock poisoned");
            }
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            eprintln!(
                "worker pool: job panicked: {}",
                panic_message(payload.as_ref())
            );
        }
        let mut queue = shared.queue.lock().expect("pool queue lock");
        queue.in_flight -= 1;
        shared.job_done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_at_any_thread_count() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 3, 8, 200] {
            let out = parallel_map(&items, threads, |i, &x| Ok(x * 2 + i as u64)).unwrap();
            let expected: Vec<u64> = (0..100).map(|x| x * 3).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], 4, |_, &x| Ok(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_task_surfaces_as_tomo_error() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 4] {
            let err = parallel_map(&items, threads, |_, &x| {
                if x == 13 {
                    panic!("task {x} exploded");
                }
                Ok(x)
            })
            .unwrap_err();
            match err {
                TomoError::TaskPanic { task, message } => {
                    assert_eq!(task, 13);
                    assert!(message.contains("exploded"), "message: {message}");
                }
                other => panic!("expected TaskPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_failing_task_aborts_the_pool() {
        let items: Vec<usize> = (0..256).collect();
        let err = parallel_map(&items, 4, |_, &x| {
            if x == 7 {
                Err(TomoError::InvalidConfig("bad cell".into()))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert!(matches!(err, TomoError::InvalidConfig(_)));
    }

    #[test]
    fn worker_pool_runs_every_submitted_job() {
        let pool = WorkerPool::new(4, "pool-test");
        assert_eq!(pool.num_threads(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                assert_eq!(std::thread::current().name(), Some("pool-test"));
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn worker_pool_contains_job_panics() {
        let pool = WorkerPool::new(2, "pool-test");
        let counter = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("job exploded")).unwrap();
        for _ in 0..8 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn worker_pool_rejects_jobs_after_drop_begins() {
        // Shutdown discards unstarted jobs and joins workers; a fresh pool
        // still works afterwards (nothing global is poisoned).
        {
            let pool = WorkerPool::new(1, "pool-test");
            pool.submit(|| std::thread::sleep(std::time::Duration::from_millis(5)))
                .unwrap();
        }
        let pool = WorkerPool::new(1, "pool-test");
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        pool.submit(move || flag.store(true, Ordering::Relaxed))
            .unwrap();
        pool.wait_idle();
        assert!(done.load(Ordering::Relaxed));
    }

    #[test]
    fn the_pool_survives_a_panic_and_can_run_again() {
        let items: Vec<usize> = (0..32).collect();
        let _ = parallel_map(&items, 4, |_, &x| {
            if x == 0 {
                panic!("first run panics");
            }
            Ok(x)
        });
        // A fresh call afterwards works normally (nothing was poisoned).
        let out = parallel_map(&items, 4, |_, &x| Ok(x + 1)).unwrap();
        assert_eq!(out[0], 1);
        assert_eq!(out.len(), 32);
    }
}
