//! Parallel query execution on a persistent worker pool.
//!
//! # Worker-pool lifecycle
//!
//! A [`WorkerPool`] owns `workers` OS threads that live for the pool's
//! whole lifetime — spawned once in [`WorkerPool::new`], joined in
//! `Drop`. Work arrives in *scopes* ([`WorkerPool::scope`]): a batch of
//! borrowing closures that is pushed onto the shared queue and executed
//! by whichever threads are free. Three properties make the pool safe
//! and deadlock-free:
//!
//! * **Scoped borrows without scoped threads** — jobs may borrow from the
//!   caller's stack (`'env`); `scope` erases the lifetime to hand the
//!   jobs to the long-lived workers, and blocks on a completion latch
//!   until every job of the batch has finished, so no borrow is ever
//!   outlived. This is the same contract as `std::thread::scope`, minus
//!   the per-call spawn/join cost.
//! * **Caller participation** — the scoping thread drains the queue
//!   itself while it waits. A nested `scope` (a pool-run candidate
//!   refinement whose inner snapshot fans its pair loop out on the same
//!   pool) therefore always makes progress even when every worker is
//!   busy: the blocked caller executes the inner jobs on its own thread.
//! * **Panic propagation** — a panicking job marks its batch and the
//!   latch still counts down; `scope` re-panics on the calling thread
//!   after the batch completes, and the worker survives to serve the
//!   next batch.
//!
//! Engines own a pool lazily through a [`PoolHandle`]: the handle is
//! cheap to clone (refiners built by an engine share the engine's pool),
//! creates the pool on first use, and transparently replaces it with a
//! larger one when a caller asks for more parallelism than the current
//! pool provides. Because the calling thread always participates, a pool
//! serving `parallelism` lanes needs only `parallelism − 1` workers.
//!
//! Queries reach the pool through [`PoolHandle::fan_each`]: the
//! candidate drivers of [`crate::refiner`] fan their candidates over
//! [`crate::IdcaConfig::candidate_threads`] lanes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// A type-erased, lifetime-erased unit of work (see the safety notes in
/// [`WorkerPool::scope`]).
type Job = Box<dyn FnOnce() + Send>;

/// Queue state shared between the pool owner and its workers.
struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

impl PoolShared {
    /// Pops one job, or `None` immediately (never blocks).
    fn try_pop(&self) -> Option<Job> {
        self.state.lock().expect("pool poisoned").queue.pop_front()
    }
}

/// Completion latch of one `scope` batch.
struct Batch {
    state: Mutex<(usize, bool)>, // (jobs remaining, any job panicked)
    done: Condvar,
}

impl Batch {
    fn new(jobs: usize) -> Self {
        Batch {
            state: Mutex::new((jobs, false)),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panicked: bool) {
        let mut state = self.state.lock().expect("batch poisoned");
        state.0 -= 1;
        state.1 |= panicked;
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until the whole batch has run; `true` if any job panicked.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().expect("batch poisoned");
        while state.0 > 0 {
            state = self.done.wait(state).expect("batch poisoned");
        }
        state.1
    }
}

/// A persistent pool of worker threads executing scoped job batches (see
/// the [module docs](self) for the lifecycle).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` persistent threads (0 is valid: every scope then
    /// runs entirely on the calling thread, which always participates).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads (the pool serves `workers() + 1` lanes,
    /// counting the participating caller).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs a batch of jobs that may borrow from the caller's scope and
    /// blocks until all of them have completed. The calling thread drains
    /// the queue while it waits, so nested scopes cannot deadlock.
    ///
    /// # Panics
    /// Re-panics on the calling thread if any job panicked.
    pub fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        let batch = Arc::new(Batch::new(jobs.len()));
        {
            let mut state = self.shared.state.lock().expect("pool poisoned");
            for job in jobs {
                let batch = Arc::clone(&batch);
                let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(job));
                    batch.complete(result.is_err());
                });
                // SAFETY: `scope` does not return before `batch.wait()`
                // confirms every job of this batch has finished executing
                // (including panicked ones — the latch counts down in all
                // cases), so data borrowed for 'env strictly outlives the
                // erased closure's execution. The fat-pointer layout of
                // `Box<dyn FnOnce + Send>` is lifetime-invariant.
                let wrapped: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(wrapped) };
                state.queue.push_back(wrapped);
            }
        }
        self.shared.work_ready.notify_all();
        // participate: guarantees progress even if all workers are busy
        // (or the pool has zero workers)
        while let Some(job) = self.shared.try_pop() {
            job();
        }
        if batch.wait() {
            panic!("worker pool job panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool poisoned").shutdown = true;
        self.work_ready_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl WorkerPool {
    fn work_ready_all(&self) {
        self.shared.work_ready.notify_all();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.work_ready.wait(state).expect("pool poisoned");
            }
        };
        match job {
            Some(job) => job(), // panics are caught by the batch wrapper
            None => return,
        }
    }
}

/// A cloneable, lazily-initialized reference to a shared [`WorkerPool`].
///
/// Engines own one handle; every refiner they build clones it, so all
/// refiners of an engine share one pool across their whole lifetime
/// (replacing the scoped threads that were re-spawned per snapshot).
#[derive(Clone, Default)]
pub struct PoolHandle {
    inner: Arc<Mutex<Option<Arc<WorkerPool>>>>,
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pool = self.inner.lock().expect("pool handle poisoned");
        f.debug_struct("PoolHandle")
            .field("workers", &pool.as_ref().map(|p| p.workers()))
            .finish()
    }
}

impl PoolHandle {
    /// The pool serving at least `parallelism` concurrent lanes (the
    /// calling thread counts as one). Returns `None` for `parallelism <=
    /// 1` — sequential execution needs no pool. Creates the pool on first
    /// use and replaces it with a larger one if a caller asks for more
    /// lanes than the current pool provides (the old pool's threads wind
    /// down once its last `Arc` drops).
    pub fn get(&self, parallelism: usize) -> Option<Arc<WorkerPool>> {
        if parallelism <= 1 {
            return None;
        }
        let mut slot = self.inner.lock().expect("pool handle poisoned");
        match slot.as_ref() {
            Some(pool) if pool.workers() + 1 >= parallelism => Some(Arc::clone(pool)),
            _ => {
                let pool = Arc::new(WorkerPool::new(parallelism - 1));
                *slot = Some(Arc::clone(&pool));
                Some(pool)
            }
        }
    }

    /// The fan-out primitive of the query, candidate and top-`m` round
    /// drivers: runs `f` once per item of `items`, on up to `lanes`
    /// concurrent lanes of the shared pool, and returns only after every
    /// call has finished.
    ///
    /// `f` gets exclusive `&mut` access to its item, so no
    /// synchronization is needed inside; anything that compares items
    /// (a top-`m` retirement decision) stays on the calling thread.
    /// Because each item's own call sequence is unchanged and per-item
    /// state never crosses items, results are **bit-identical for every
    /// lane count**, including `lanes == 1` (which runs inline, in slice
    /// order, without touching the pool).
    ///
    /// Items are dispatched as `lanes` jobs (not one job per item), each
    /// taking the next unclaimed item whenever it finishes one, so one
    /// slow item does not leave the other lanes idle, and the pool's
    /// queue never holds more than a lane-bounded number of pending
    /// jobs. That bound matters for nesting: a blocked scope's
    /// participation loop executes queued sibling jobs inline on its own
    /// stack, so with per-item jobs a candidate's inner pair scope could
    /// recurse through arbitrarily many sibling candidates — with lane
    /// jobs the inline depth stays O(lanes), independent of the item
    /// count.
    ///
    /// Nested use is safe: `f` may itself open scopes on the same pool
    /// (e.g. a candidate's snapshot fanning its pair loop out via
    /// [`IdcaConfig::snapshot_threads`](crate::IdcaConfig::snapshot_threads));
    /// the scoping thread participates in the queue, so candidate × pair
    /// nesting cannot deadlock.
    ///
    /// # Panics
    /// Re-panics on the calling thread if any `f` call panicked (the
    /// pool itself survives).
    pub fn fan_each<T: Send>(&self, lanes: usize, items: &mut [T], f: impl Fn(&mut T) + Sync) {
        let lanes = lanes.min(items.len()).max(1);
        match self.get(lanes) {
            Some(pool) => {
                let f = &f;
                let queue = Mutex::new(items.iter_mut());
                let queue = &queue;
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..lanes)
                    .map(|_| {
                        Box::new(move || loop {
                            // the guard drops before `f` runs: lanes
                            // never hold the queue while they work
                            let item = queue.lock().expect("fan_each queue poisoned").next();
                            match item {
                                Some(item) => f(item),
                                None => break,
                            }
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                pool.scope(jobs);
            }
            None => {
                for item in items.iter_mut() {
                    f(item);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_all_jobs_and_is_reusable() {
        let pool = WorkerPool::new(3);
        for round in 0..3 {
            let counter = std::sync::atomic::AtomicUsize::new(0);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..32)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope(jobs);
            assert_eq!(
                counter.load(std::sync::atomic::Ordering::Relaxed),
                32,
                "round {round}"
            );
        }
    }

    #[test]
    fn pool_with_zero_workers_runs_on_caller() {
        let pool = WorkerPool::new(0);
        let mut hit = false;
        pool.scope(vec![Box::new(|| {
            hit = true;
        })]);
        assert!(hit);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // more outer jobs than workers, each spawning an inner batch on
        // the same pool: only caller participation makes this terminate
        let pool = WorkerPool::new(2);
        let total = std::sync::atomic::AtomicUsize::new(0);
        let outer: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                let pool = &pool;
                let total = &total;
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                        .map(|_| {
                            Box::new(|| {
                                total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    pool.scope(inner);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(outer);
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 32);
    }

    #[test]
    fn pool_propagates_job_panics_and_survives() {
        let pool = WorkerPool::new(1);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(vec![Box::new(|| panic!("boom"))]);
        }));
        assert!(result.is_err(), "scope must re-panic");
        // the pool stays usable after a panicked batch
        let mut ok = false;
        pool.scope(vec![Box::new(|| {
            ok = true;
        })]);
        assert!(ok);
    }

    #[test]
    fn fan_each_runs_every_item_at_any_lane_count() {
        let handle = PoolHandle::default();
        for lanes in [1usize, 2, 4, 64] {
            let mut items: Vec<usize> = (0..17).collect();
            handle.fan_each(lanes, &mut items, |x| *x += 100);
            assert_eq!(items, (100..117).collect::<Vec<_>>(), "lanes={lanes}");
        }
        // empty slices are a no-op
        handle.fan_each(4, &mut [] as &mut [usize], |_| panic!("no items"));
    }

    #[test]
    fn fan_each_nested_candidate_pair_scopes_complete() {
        // the candidate × pair shape: outer fan over "candidates", each
        // opening an inner scope on the same pool for its "pairs"
        let handle = PoolHandle::default();
        let mut totals = vec![0usize; 8];
        handle.fan_each(4, &mut totals, |t| {
            let mut pairs = vec![1usize; 16];
            handle.fan_each(4, &mut pairs, |p| *p *= 2);
            *t = pairs.iter().sum();
        });
        assert!(totals.iter().all(|&t| t == 32), "{totals:?}");
    }

    #[test]
    fn fan_each_propagates_nested_panics_and_pool_survives() {
        let handle = PoolHandle::default();
        let mut items: Vec<usize> = (0..8).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            handle.fan_each(4, &mut items, |i| {
                // nested inner scope on the same pool; one candidate's
                // inner job panics, the outer round must re-panic
                let mut inner = vec![*i; 4];
                handle.fan_each(4, &mut inner, |j| {
                    if *j == 3 {
                        panic!("inner pair job failed");
                    }
                });
            });
        }));
        assert!(result.is_err(), "nested panic must propagate to the round");
        // the pool stays usable for the next round
        let mut again: Vec<usize> = (0..8).collect();
        handle.fan_each(4, &mut again, |i| *i += 1);
        assert_eq!(again, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn pool_handle_grows_on_demand() {
        let handle = PoolHandle::default();
        assert!(handle.get(1).is_none());
        let small = handle.get(2).expect("pool for 2 lanes");
        assert_eq!(small.workers(), 1);
        // same pool serves an equal-or-smaller request
        let again = handle.get(2).expect("cached pool");
        assert_eq!(again.workers(), 1);
        // a bigger request replaces it
        let big = handle.get(4).expect("grown pool");
        assert_eq!(big.workers(), 3);
        assert_eq!(handle.get(3).expect("still cached").workers(), 3);
    }
}
