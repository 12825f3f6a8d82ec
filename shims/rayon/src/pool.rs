//! The persistent work-stealing thread pool behind [`join_all`].
//!
//! One global pool is lazily initialised on first use (honouring
//! `RAYON_NUM_THREADS`, exactly like real rayon's global pool) and lives for
//! the rest of the process, so every batch runs on long-lived workers
//! instead of spawning and joining OS threads per call.
//!
//! Architecture:
//!
//! * **Per-worker deques.**  Each worker owns a deque of `Batch` handles.
//!   Submitting a batch pushes a handle onto every worker's deque and wakes
//!   the sleepers; a worker pops from the *front* of its own deque and, when
//!   that is empty, steals from the *back* of a sibling's.  A batch handle is
//!   only a participation ticket — the jobs themselves live in the batch's
//!   own queue, so any number of workers can chip away at one batch and a
//!   drained handle is skipped in O(1).
//! * **Shared batch queue.**  A batch is a bag of independent jobs (one per
//!   temporal block, for `gld_core`'s executor), and whichever thread is
//!   free next takes the next job, so skewed per-job costs even out instead
//!   of idling workers.
//! * **Park / unpark.**  A worker that finds every deque empty parks on a
//!   condvar; submissions bump a generation counter under the same lock
//!   before notifying, which makes the lost-wakeup race impossible (the
//!   worker re-checks the generation before sleeping).
//! * **Caller helping.**  [`join_all`] submits its batch, then the caller
//!   drains the batch's remaining jobs itself before blocking.  Two
//!   consequences: a batch completes even if every pool worker is
//!   busy (no starvation deadlock — the submitter can always finish its own
//!   batch), and nested parallelism from inside a worker job is safe for
//!   the same reason.
//!
//! # Safety
//!
//! This module contains the crate's only `unsafe` code: the lifetime erasure
//! that lets borrowing closures run on the persistent workers
//! (`erase_lifetime`), called from one place, [`join_all`].  Soundness rests
//! on one invariant, upheld there: **`join_all` never returns — not even by
//! panic — before every job of its batch has finished running.**  Job panics
//! are caught inside the batch and re-thrown only after the completion
//! wait, so the borrowed environment strictly outlives every use.  This is
//! the same contract real rayon's scopes implement.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A unit of work queued on the pool.  `'static` because the pool workers
/// outlive any caller; borrowing closures are admitted through the lifetime
/// erasure in [`join_all`], which guarantees completion-before-return.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A submitted collection of jobs plus its completion latch.
struct Batch {
    /// Jobs not yet started.  Workers and the submitting thread both pop
    /// from the front.
    jobs: Mutex<VecDeque<Job>>,
    /// Jobs not yet finished (started or not).
    pending: AtomicUsize,
    /// Wakes the submitter when `pending` reaches zero.
    done: Condvar,
    /// Paired with [`Batch::done`]; holds the first captured panic payload.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Batch {
    fn new(jobs: VecDeque<Job>) -> Arc<Self> {
        Arc::new(Batch {
            pending: AtomicUsize::new(jobs.len()),
            jobs: Mutex::new(jobs),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// Pops and runs one job; returns false when the batch queue is empty.
    /// Panics are captured into the batch, never propagated here (a pool
    /// worker must survive arbitrary job panics).
    fn run_one(&self) -> bool {
        let job = self
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front();
        let Some(job) = job else { return false };
        let result = catch_unwind(AssertUnwindSafe(job));
        if let Err(payload) = result {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(payload);
            drop(slot);
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last job out: wake the submitter.  The lock orders this with
            // the submitter's re-check of `pending` under the same mutex.
            let _guard = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            self.done.notify_all();
        }
        true
    }

    /// Blocks until every job has finished, then propagates the first panic.
    fn wait(&self) {
        let mut guard = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        while self.pending.load(Ordering::Acquire) != 0 {
            guard = self.done.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(payload) = guard.take() {
            drop(guard);
            resume_unwind(payload);
        }
    }
}

/// State shared by the workers and submitters.
struct Shared {
    /// One deque of batch handles per worker.
    deques: Vec<Mutex<VecDeque<Arc<Batch>>>>,
    /// Wakeup generation; bumped under [`Shared::sleep_lock`] on submit.
    sleep_lock: Mutex<u64>,
    /// Parked workers wait here.
    wake: Condvar,
}

impl Shared {
    /// Pops a batch for worker `who`: own deque from the front, then steal
    /// from siblings' backs.
    fn find_batch(&self, who: usize) -> Option<Arc<Batch>> {
        if let Some(batch) = self.deques[who]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
        {
            return Some(batch);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (who + offset) % n;
            if let Some(batch) = self.deques[victim]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_back()
            {
                return Some(batch);
            }
        }
        None
    }
}

/// The persistent pool: worker threads plus the shared deques.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: usize,
}

impl ThreadPool {
    fn with_threads(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep_lock: Mutex::new(0),
            wake: Condvar::new(),
        });
        for who in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("gld-rayon-{who}"))
                .spawn(move || worker_loop(&shared, who))
                .expect("failed to spawn pool worker");
        }
        ThreadPool { shared, workers }
    }

    /// Number of worker threads (excluding helping submitters).
    pub fn num_threads(&self) -> usize {
        self.workers
    }

    /// Queues a batch on every worker deque and wakes the sleepers.
    fn submit(&self, batch: &Arc<Batch>) {
        SUBMITTED.with(|n| n.set(n.get() + 1));
        for deque in &self.shared.deques {
            deque
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(Arc::clone(batch));
        }
        let mut generation = self
            .shared
            .sleep_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *generation = generation.wrapping_add(1);
        drop(generation);
        self.shared.wake.notify_all();
    }
}

thread_local! {
    static SUBMITTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Batches the *calling thread* has submitted to the pool so far.  Per
/// thread, so a caller can count what one of its own calls cost — "one
/// batch per container", "a refused container submits nothing" — while
/// other threads keep the pool busy.
pub fn batches_submitted_by_this_thread() -> u64 {
    SUBMITTED.with(|n| n.get())
}

fn worker_loop(shared: &Shared, who: usize) {
    loop {
        if let Some(batch) = shared.find_batch(who) {
            while batch.run_one() {}
            continue;
        }
        // Park: snapshot the generation, re-scan once under no lock, then
        // sleep unless a submission raced in (generation moved).
        let generation = *shared.sleep_lock.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(batch) = shared.find_batch(who) {
            while batch.run_one() {}
            continue;
        }
        let mut guard = shared.sleep_lock.lock().unwrap_or_else(|e| e.into_inner());
        while *guard == generation {
            guard = shared.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Worker-thread count override, read once at pool initialisation — the same
/// env var real rayon's global pool honours.
fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The lazily-initialised global pool.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::with_threads(configured_threads()))
}

/// Number of threads in the global pool (rayon-compatible entry point).
pub fn current_num_threads() -> usize {
    global().num_threads()
}

/// Erases a borrowing job's lifetime so it can sit in the pool's queues.
///
/// # Safety
///
/// The caller must guarantee the job has *finished running* (or been dropped)
/// before `'env` ends.  [`join_all`] upholds this by draining and then
/// waiting on the batch before returning, on both the normal and the panic
/// path.
unsafe fn erase_lifetime<'env>(job: Box<dyn FnOnce() + Send + 'env>) -> Job {
    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job)
}

/// The pool's one entry point, used by `gld-core`'s block executor: runs
/// every closure in `jobs` (potentially borrowing) to completion across
/// the pool as one batch, helping from the calling thread.  A job panic is
/// re-thrown here with its original payload once every job has finished.
pub fn join_all<'env>(jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
    if jobs.is_empty() {
        return;
    }
    // SAFETY: the batch is drained and waited on before this function
    // returns (including the panic path inside `Batch::wait`), so every
    // borrow in `jobs` outlives its use.
    let erased: VecDeque<Job> = jobs
        .into_iter()
        .map(|job| unsafe { erase_lifetime(job) })
        .collect();
    let batch = Batch::new(erased);
    global().submit(&batch);
    while batch.run_one() {}
    batch.wait();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn join_all_runs_every_job_once() {
        let counter = AtomicU64::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|i| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(i + 1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        join_all(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), (1..=64).sum::<u64>());
    }

    /// Boxes each closure as one borrowing `join_all` job.
    fn batch<'env>(
        jobs: impl IntoIterator<Item = impl FnOnce() + Send + 'env>,
    ) -> Vec<Box<dyn FnOnce() + Send + 'env>> {
        jobs.into_iter()
            .map(|job| Box::new(job) as Box<dyn FnOnce() + Send + 'env>)
            .collect()
    }

    #[test]
    fn join_all_jobs_borrow_locals() {
        let data: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        let total_ref = &total;
        join_all(batch(data.chunks(7).map(|chunk| {
            move || {
                total_ref.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
            }
        })));
        assert_eq!(total.load(Ordering::Relaxed), (0..100).sum::<u64>());
    }

    #[test]
    fn nested_join_all_completes() {
        let total = AtomicU64::new(0);
        let total = &total;
        join_all(batch((0..8).map(|_| {
            move || {
                join_all(batch((0..8).map(|_| {
                    move || {
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                })));
            }
        })));
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn join_all_panics_propagate_after_completion() {
        let finished = AtomicU64::new(0);
        let finished_ref = &finished;
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| panic!("boom"))];
        jobs.extend(batch((0..16).map(|_| {
            move || {
                finished_ref.fetch_add(1, Ordering::Relaxed);
            }
        })));
        let payload = catch_unwind(AssertUnwindSafe(|| join_all(jobs)))
            .expect_err("job panic must surface at join_all");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("boom"));
        assert_eq!(
            finished.load(Ordering::Relaxed),
            16,
            "all sibling jobs still ran to completion"
        );
    }

    #[test]
    fn pool_size_is_stable() {
        assert_eq!(current_num_threads(), current_num_threads());
        assert!(current_num_threads() >= 1);
    }
}
