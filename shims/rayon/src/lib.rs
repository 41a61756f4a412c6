//! Offline shim for the `rayon` crate.
//!
//! Implements the data-parallel subset this workspace uses — a thread pool
//! handle ([`ThreadPoolBuilder`], [`ThreadPool::install`]) and flat
//! `par_iter()` / `into_par_iter()` pipelines of `map` then `collect` —
//! on top of `std::thread::scope`. Each parallel call spawns its helper
//! threads, hands out items through one atomic claim counter (so skewed
//! items still balance), and joins them before returning. Results keep
//! input order exactly like the real crate's indexed parallel iterators.
//!
//! Differences from real rayon, none observable to this workspace:
//!
//! * `map` executes eagerly (at the adaptor call) instead of lazily at
//!   `collect`; every in-tree pipeline is `map` directly followed by
//!   `collect`.
//! * there is no persistent pool: a call at width `w` spawns `w − 1`
//!   scoped threads and runs items on the caller too. A width-1 call, or
//!   one over a single item, runs inline on the caller with no spawn.
//! * an item's panic is re-raised on the caller with its original
//!   payload after every claimed item has finished; when several items
//!   panic, the lowest-index payload wins.
//!
//! Thread counts honour [`ThreadPoolBuilder::num_threads`] via
//! [`ThreadPool::install`], then `RAYON_NUM_THREADS`, then the machine's
//! parallelism; the last two are read once per process.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
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

    /// Builds the pool handle. It only carries the width: threads are
    /// spawned per parallel call.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(default_num_threads),
        })
    }
}

/// A pool handle: parallel calls made inside [`ThreadPool::install`] use
/// this pool's width.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's width as the parallelism of every
    /// parallel call it makes on this thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Restores the previous override, also when `f` unwinds.
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|p| p.set(self.0));
            }
        }
        let _restore = Restore(POOL_THREADS.with(|p| p.replace(Some(self.num_threads))));
        f()
    }

    /// The pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Runs `f` over each item, in parallel, preserving the order of results.
fn run_parallel<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let len = items.len();
    let width = POOL_THREADS
        .with(|p| p.get())
        .unwrap_or_else(default_num_threads)
        .min(len);
    if width <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Items sit in per-index slots because `T` moves by value into `f`;
    // whichever thread claims index `i` takes slot `i` and reports
    // `(i, result)`, so the output order never depends on the schedule.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else {
                return done;
            };
            let item = slot
                .lock()
                .expect("work slot poisoned")
                .take()
                .expect("each index is claimed exactly once");
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
    };
    let mut results: Vec<Option<std::thread::Result<R>>> = (0..len).map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..width).map(|_| s.spawn(work)).collect();
        let mut claimed = work();
        for helper in helpers {
            claimed.extend(helper.join().expect("item panics are caught per item"));
        }
        for (i, r) in claimed {
            results[i] = Some(r);
        }
    });
    results
        .into_iter()
        .map(|r| match r.expect("every index produced a result") {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
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

/// The commonly used traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn map_preserves_order() {
        let out: Vec<usize> = pool(4).install(|| {
            (0..100usize)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|i| i * 2)
                .collect()
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let data = [1, 2, 3, 4];
        let sum: i32 = data
            .par_iter()
            .map(|&x| x * x)
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert_eq!(sum, 30);
    }

    #[test]
    fn pool_install_overrides_thread_count() {
        let pool = pool(1);
        assert_eq!(pool.current_num_threads(), 1);
        let out: Vec<usize> = pool.install(|| {
            (0..10usize)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|i| i)
                .collect()
        });
        assert_eq!(out.len(), 10);
        assert!(
            ThreadPoolBuilder::new()
                .build()
                .unwrap()
                .current_num_threads()
                >= 1
        );
    }

    #[test]
    fn width_one_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let ids: Vec<std::thread::ThreadId> = pool(1).install(|| {
            (0..16usize)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect()
        });
        assert_eq!(ids.len(), 16);
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn skewed_work_completes_and_keeps_order() {
        let out: Vec<usize> = pool(4).install(|| {
            (0..32usize)
                .collect::<Vec<_>>()
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
        let pool = pool(2);
        let result = std::panic::catch_unwind(|| {
            pool.install(|| {
                let _: Vec<usize> = (0..16usize)
                    .collect::<Vec<_>>()
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
        let payload = result.expect_err("panic must cross the pool boundary");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"boom"),
            "the caller sees the item's original payload"
        );
        // The pool must still be usable afterwards.
        let out: Vec<usize> = pool.install(|| {
            (0..8usize)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|i| i)
                .collect()
        });
        assert_eq!(out.len(), 8);
    }
}
