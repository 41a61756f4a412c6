//! Offline shim for the `rayon` crate.
//!
//! Implements the data-parallel subset this workspace uses — `par_iter()`
//! / `into_par_iter()` with `map` + `collect`/`for_each` — on top of a
//! **persistent worker pool** with dynamic (atomic-counter) work claiming,
//! so skewed work distributions still balance across cores and parallel
//! calls pay no thread-spawn latency. Results preserve input order exactly
//! like the real crate's indexed parallel iterators.
//!
//! Differences from real rayon, none observable to this workspace:
//!
//! * `map` executes eagerly (at the adaptor call) instead of lazily at
//!   `collect`; every in-tree pipeline is `map` directly followed by a
//!   consumer.
//! * work stealing is at item granularity from a single shared claim
//!   counter per parallel call (real rayon steals per-deque); identical
//!   load-balancing behaviour for the flat fan-outs used here.
//! * nested parallel calls run sequentially on the executing worker (real
//!   rayon would steal; sequential nesting is the deterministic subset).
//!
//! Thread counts honour [`ThreadPoolBuilder::num_threads`] via
//! [`ThreadPool::install`], then `RAYON_NUM_THREADS`, then the machine's
//! parallelism; the last two are read once per process. The global pool grows on demand to the
//! largest parallelism any call requests and its idle workers block on a
//! condition variable (no spinning).

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

thread_local! {
    /// Set while executing claimed items: nested parallel calls degrade to
    /// serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Thread-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of threads parallel calls on this thread will use.
pub fn current_num_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    if let Some(n) = POOL_THREADS.with(|p| p.get()) {
        return n.max(1);
    }
    default_num_threads()
}

/// The default thread count, resolved once per process like real rayon
/// does at pool start: `RAYON_NUM_THREADS`, then the machine's
/// parallelism. Re-reading both on every parallel call was measurable,
/// since `available_parallelism` reads cgroup files each time.
fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type of [`ThreadPoolBuilder::build`] (infallible here).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the number of worker threads (0 = automatic).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool handle. Workers are shared globally and spawned
    /// lazily; the handle only carries the parallelism override.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A pool handle: parallel calls made inside [`ThreadPool::install`] use
/// this pool's thread count (executed on the shared persistent workers).
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count as the parallelism override.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|p| p.replace(self.num_threads));
        let out = f();
        POOL_THREADS.with(|p| p.set(prev));
        out
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads.unwrap_or_else(current_num_threads)
    }
}

/// Lifetime-erased pointer to a parallel call's item runner. Workers only
/// dereference it for item indices below the task's length, and the
/// submitting call does not return before every such item has completed —
/// so the pointee outlives every dereference.
struct TaskFn(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared by reference across the workers)
// and the pointer itself is only a capability to call it; see `TaskFn`.
unsafe impl Send for TaskFn {}
unsafe impl Sync for TaskFn {}

/// One parallel call in flight: a claim counter over `len` items plus
/// completion tracking. Shared between the submitting thread and the pool
/// workers via `Arc`.
struct Task {
    func: TaskFn,
    len: usize,
    /// Next unclaimed item index (may grow past `len`; claims beyond it
    /// are no-ops).
    next: AtomicUsize,
    /// Number of items that finished running (including panicked ones).
    completed: AtomicUsize,
    /// How many additional pool workers may still join this task (the
    /// submitting thread always participates).
    worker_budget: AtomicIsize,
    /// First panic payload raised by an item, rethrown on the submitting
    /// thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion latch.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Task {
    /// Claims and runs items until the claim counter passes the end.
    /// Returns once no unclaimed item remains (other claimed items may
    /// still be running on other threads).
    fn run(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            // SAFETY: `i < len`, so the submitting call is still blocked in
            // `wait_done` and the runner closure is alive (see `TaskFn`).
            let func = unsafe { &*self.func.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(i))) {
                let mut slot = self.panic.lock().expect("panic slot poisoned");
                slot.get_or_insert(payload);
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.len {
                *self.done.lock().expect("done latch poisoned") = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// True while unclaimed items remain.
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.len
    }

    /// Blocks until every item has completed, then rethrows the first item
    /// panic, if any.
    fn wait_done(&self) {
        let mut done = self.done.lock().expect("done latch poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("done latch poisoned");
        }
        drop(done);
        if let Some(payload) = self.panic.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
    }
}

/// The shared injector queue feeding the persistent workers.
struct PoolState {
    queue: Mutex<VecDeque<Arc<Task>>>,
    queue_cv: Condvar,
    /// Workers spawned so far (the pool grows to the largest requested
    /// parallelism, bounded by [`MAX_WORKERS`]).
    spawned: Mutex<usize>,
}

/// Upper bound on pool size — far above any sane `RAYON_NUM_THREADS`.
const MAX_WORKERS: usize = 256;

fn pool() -> &'static PoolState {
    static POOL: OnceLock<PoolState> = OnceLock::new();
    POOL.get_or_init(|| PoolState {
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Grows the pool to at least `target` persistent workers.
fn ensure_workers(target: usize) {
    let state = pool();
    let mut spawned = state.spawned.lock().expect("spawn counter poisoned");
    let target = target.min(MAX_WORKERS);
    while *spawned < target {
        std::thread::Builder::new()
            .name(format!("rayon-shim-{spawned}"))
            .spawn(worker_loop)
            .expect("worker thread spawn");
        *spawned += 1;
    }
}

/// Body of a persistent worker: pop a live task, help drain it, repeat.
/// Tasks with an exhausted claim counter or worker budget are retired from
/// the queue; idle workers block on the queue's condition variable.
fn worker_loop() {
    let state = pool();
    IN_WORKER.with(|w| w.set(true));
    loop {
        let task: Arc<Task> = {
            let mut queue = state.queue.lock().expect("task queue poisoned");
            loop {
                // Retire finished / fully-claimed / fully-staffed tasks.
                while let Some(front) = queue.front() {
                    if front.has_unclaimed() && front.worker_budget.load(Ordering::Relaxed) > 0 {
                        break;
                    }
                    queue.pop_front();
                }
                match queue.front() {
                    Some(front) if front.worker_budget.fetch_sub(1, Ordering::Relaxed) > 0 => {
                        break Arc::clone(front);
                    }
                    Some(_) => continue, // budget raced to zero; re-scan
                    None => {
                        queue = state.queue_cv.wait(queue).expect("task queue poisoned");
                    }
                }
            }
        };
        task.run();
    }
}

/// Runs `f` over each item, in parallel, preserving order of results.
fn run_parallel<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let len = items.len();
    let threads = current_num_threads().min(len);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items are parked in per-index slots (uncontended mutexes) because
    // `T` moves by value into `f`; results land in per-index slots the
    // same way, so ordering is deterministic regardless of which thread
    // claims which index.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let runner = |i: usize| {
        let item = slots[i]
            .lock()
            .expect("work slot poisoned")
            .take()
            .expect("each index is claimed exactly once");
        let r = f(item);
        *results[i].lock().expect("result slot poisoned") = Some(r);
    };
    {
        let func: &(dyn Fn(usize) + Sync) = &runner;
        // SAFETY: pure lifetime erasure. `wait_done` below keeps this call
        // frame — and with it `runner` — alive until every item completed,
        // and items are only run for indices < len (see `TaskFn`).
        let func: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(func) };
        let task = Arc::new(Task {
            func: TaskFn(func as *const (dyn Fn(usize) + Sync)),
            len,
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            worker_budget: AtomicIsize::new(threads as isize - 1),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        ensure_workers(threads - 1);
        {
            let state = pool();
            let mut queue = state.queue.lock().expect("task queue poisoned");
            queue.push_back(Arc::clone(&task));
            drop(queue);
            state.queue_cv.notify_all();
        }
        // The submitting thread participates (marked as a worker so nested
        // parallel calls degrade to serial, exactly as on pool workers),
        // then blocks until stragglers finish.
        let prev = IN_WORKER.with(|w| w.replace(true));
        task.run();
        IN_WORKER.with(|w| w.set(prev));
        task.wait_done();
    }
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("result slot poisoned")
                .expect("every index produced a result")
        })
        .collect()
}

/// An indexed parallel iterator over owned items (eager adaptors).
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item in parallel.
    pub fn map<R: Send>(self, f: impl Fn(T) -> R + Sync) -> ParIter<R> {
        ParIter {
            items: run_parallel(self.items, f),
        }
    }

    /// Applies `f` and keeps the `Some` results (order preserved).
    pub fn filter_map<R: Send>(self, f: impl Fn(T) -> Option<R> + Sync) -> ParIter<R> {
        ParIter {
            items: run_parallel(self.items, f).into_iter().flatten().collect(),
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each(self, f: impl Fn(T) + Sync) {
        run_parallel(self.items, f);
    }

    /// Collects the items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Types convertible into an owned parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// `.par_iter()` over borrowed slices.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Send + 'a;
    /// A parallel iterator over references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `.par_iter_mut()` over mutably borrowed slices.
pub trait IntoParallelRefMutIterator<'a> {
    /// Mutably borrowed item type.
    type Item: Send + 'a;
    /// A parallel iterator over mutable references.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<T: Send> ParIter<T> {
    /// Pairs every item with its index (the real crate's indexed-iterator
    /// `enumerate`; eager like the other adaptors here).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }
}

/// The commonly used traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = (0..100usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let data = vec![1, 2, 3, 4];
        let sum: i32 = data
            .par_iter()
            .map(|&x| x * x)
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert_eq!(sum, 30);
    }

    #[test]
    fn par_iter_mut_mutates_in_place_in_order() {
        let mut data: Vec<usize> = (0..64).collect();
        data.par_iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x += i * 10);
        assert_eq!(data, (0..64).map(|i| i + i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let out: Vec<Vec<usize>> = (0..4usize)
            .into_par_iter()
            .map(|i| {
                (0..3usize)
                    .into_par_iter()
                    .map(move |j| i * 10 + j)
                    .collect()
            })
            .collect();
        assert_eq!(out[2], vec![20, 21, 22]);
    }

    #[test]
    fn pool_install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            assert_eq!(current_num_threads(), 1);
            let out: Vec<usize> = (0..10usize).into_par_iter().map(|i| i).collect();
            assert_eq!(out.len(), 10);
        });
    }

    #[test]
    fn filter_map_drops_nones() {
        let out: Vec<usize> = (0..10usize)
            .into_par_iter()
            .filter_map(|i| (i % 2 == 0).then_some(i))
            .collect();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn workers_persist_across_calls() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            // Force worker spawns, then observe the pool does not grow on
            // subsequent same-width calls.
            let _: Vec<usize> = (0..64usize).into_par_iter().map(|i| i).collect();
            let spawned_after_first = *super::pool().spawned.lock().unwrap();
            for _ in 0..8 {
                let _: Vec<usize> = (0..64usize).into_par_iter().map(|i| i).collect();
            }
            let spawned_after_many = *super::pool().spawned.lock().unwrap();
            assert!(spawned_after_first >= 3);
            assert_eq!(spawned_after_first, spawned_after_many);
        });
    }

    #[test]
    fn skewed_work_completes_and_keeps_order() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let out: Vec<usize> = pool.install(|| {
            (0..32usize)
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        // One heavy item: the claim counter lets the other
                        // threads drain the rest meanwhile.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i
                })
                .collect()
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn item_panic_propagates_to_submitter() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = std::panic::catch_unwind(|| {
            pool.install(|| {
                let _: Vec<usize> = (0..16usize)
                    .into_par_iter()
                    .map(|i| {
                        if i == 7 {
                            panic!("boom");
                        }
                        i
                    })
                    .collect();
            })
        });
        assert!(result.is_err(), "panic must cross the pool boundary");
        // The pool must still be usable afterwards.
        let out: Vec<usize> = pool.install(|| (0..8usize).into_par_iter().map(|i| i).collect());
        assert_eq!(out.len(), 8);
    }
}
