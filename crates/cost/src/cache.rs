//! The cross-query cost-lifting cache.
//!
//! Lifting an operator's cost closure onto the optimizer's representation
//! — grid interpolation plus one linear solve per simplex per metric — is
//! pure in the operator's cost *shape* (its numeric inputs), so queries of
//! a batch that share tables recompute identical liftings today.
//! [`LiftedCostCache`] memoizes lifted costs behind `Arc`s keyed on a
//! caller-provided canonical shape key (`mpq_cloud::shape::OpShape` in the
//! optimizer session): the first query lifts, every later query sharing
//! the shape clones an `Arc`.
//!
//! The cache is generic over both key and value so the grid backend
//! (`GridCost`), the general PWL backend (`MultiCostFn`) and the sampled
//! backend share one implementation — whatever `MpqSpace::Cost` is in a
//! session.
//!
//! # Determinism
//!
//! A miss **reserves** its slot while holding the map lock (counting the
//! miss and running the eviction policy right there), then builds the
//! value **outside** the lock in a per-key once-cell: every key is lifted
//! exactly once per residency no matter how many worker threads race on
//! it, and racers that find an in-flight reservation count a hit and wait
//! on the cell instead of re-building. Because a lift is a pure function
//! of its key (the soundness contract of the shape type), cached results
//! are bit-identical to per-query lifting — and for an *unbounded* cache
//! the hit/miss totals are deterministic for every thread count and batch
//! schedule: `misses` always equals the number of distinct shapes seen,
//! `hits` the remaining lookups. Keeping the build outside the map lock
//! means a slow lift only blocks threads that need *that* shape; lookups
//! for other shapes proceed (and may even be issued re-entrantly from
//! inside a builder).
//!
//! # Bounded operation (eviction)
//!
//! A batch run lifts a bounded set of shapes, but a long-lived service
//! would grow the map forever. [`LiftedCostCache::with_capacity`] bounds
//! the cache to a fixed number of entries with a **second-chance (CLOCK)**
//! policy over insertion order: every resident entry carries a reference
//! bit, set on each hit; on insertion into a full cache a clock hand
//! sweeps the slots in insertion order, clearing set bits and evicting the
//! first entry whose bit is already clear. The policy is a pure function
//! of the *access sequence* — no wall-clock time, no hash-iteration order
//! — so a fixed sequence of lookups always caches, hits and evicts
//! identically. Evicting never changes *values*: a re-lifted shape
//! reproduces the evicted value bit for bit (lifts are pure), so bounded
//! and unbounded sessions return identical results and differ only in
//! hit/miss/eviction counters and peak memory.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

use mpq_obs::CacheCounters;

/// Hit/miss/eviction counts of a [`LiftedCostCache`] — a plain-value
/// view of the cache's live [`CacheCounters`] (the one cache-stat shape
/// every cache in the workspace reports through).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to lift (one per distinct shape *residency* — a
    /// shape re-admitted after eviction misses again).
    pub misses: u64,
    /// Entries evicted by the second-chance policy (0 for unbounded
    /// caches).
    pub evictions: u64,
}

impl CacheStats {
    /// Snapshots live counters into a plain value.
    pub fn of(counters: &CacheCounters) -> Self {
        Self {
            hits: counters.hits(),
            misses: counters.misses(),
            evictions: counters.evictions(),
        }
    }
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A per-key once-cell: reserved under the ring lock by the missing
/// thread, filled (or poisoned, if the builder unwinds) after the build
/// completes outside the lock. Racers that find the reservation wait on
/// `ready`.
#[derive(Debug)]
struct LiftCell<V> {
    state: Mutex<CellState<V>>,
    ready: Condvar,
}

#[derive(Debug)]
enum CellState<V> {
    Building,
    Ready(Arc<V>),
    Poisoned,
}

impl<V> LiftCell<V> {
    fn new() -> Self {
        Self {
            state: Mutex::new(CellState::Building),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, value: Arc<V>) {
        *self.state.lock().expect("lift cell poisoned") = CellState::Ready(value);
        self.ready.notify_all();
    }

    fn poison(&self) {
        // Waiters must not hang on a builder that unwound; flip them to a
        // panic of their own instead.
        if let Ok(mut state) = self.state.lock() {
            *state = CellState::Poisoned;
        }
        self.ready.notify_all();
    }

    fn wait(&self) -> Arc<V> {
        let mut state = self.state.lock().expect("lift cell poisoned");
        loop {
            match &*state {
                CellState::Ready(v) => return Arc::clone(v),
                CellState::Poisoned => panic!("lift builder panicked"),
                CellState::Building => {
                    state = self.ready.wait(state).expect("lift cell poisoned");
                }
            }
        }
    }
}

/// Poisons the reserved cell if the builder unwinds, so waiting threads
/// panic instead of blocking forever. Disarmed with `mem::forget` once
/// the value is built.
struct PoisonGuard<'a, V> {
    cell: &'a LiftCell<V>,
}

impl<V> Drop for PoisonGuard<'_, V> {
    fn drop(&mut self) {
        self.cell.poison();
    }
}

/// One resident entry of the CLOCK ring: the key (to unmap on eviction),
/// the shared once-cell, and the second-chance reference bit.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    cell: Arc<LiftCell<V>>,
    referenced: bool,
}

/// The lock-protected state: the key → ring-slot index map, the ring
/// itself (insertion order), and the clock hand.
#[derive(Debug)]
struct Ring<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    hand: usize,
}

/// Memoizes lifted operator costs (`K` = canonical cost shape, `V` = the
/// space's cost representation) behind `Arc`-shared immutable values,
/// optionally bounded by a deterministic second-chance eviction policy
/// (see the module docs).
#[derive(Debug)]
pub struct LiftedCostCache<K, V> {
    ring: Mutex<Ring<K, V>>,
    /// `None` = unbounded (batch mode); `Some(n)` = at most `n` resident
    /// entries (service mode).
    capacity: Option<usize>,
    counters: Arc<CacheCounters>,
}

impl<K, V> Default for LiftedCostCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> LiftedCostCache<K, V> {
    /// An empty, unbounded cache (the batch-run default: a batch lifts a
    /// bounded set of shapes).
    pub fn new() -> Self {
        Self::with_capacity(None)
    }

    /// An empty cache holding at most `capacity` entries (`None` =
    /// unbounded). A capacity of `Some(0)` degenerates to a pass-through:
    /// every lookup misses and nothing is retained.
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        Self {
            ring: Mutex::new(Ring {
                map: HashMap::new(),
                slots: Vec::new(),
                hand: 0,
            }),
            capacity,
            counters: Arc::new(CacheCounters::new()),
        }
    }

    /// The entry bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Current hit/miss/eviction counters, as a plain value.
    pub fn stats(&self) -> CacheStats {
        CacheStats::of(&self.counters)
    }

    /// The live counters, for registration in an observability registry
    /// (the registry scrapes the same atomic cells [`stats`](Self::stats)
    /// reads, so the two can never disagree).
    pub fn counters(&self) -> Arc<CacheCounters> {
        Arc::clone(&self.counters)
    }
}

impl<K: Eq + Hash + Clone, V> LiftedCostCache<K, V> {
    /// The lifted cost for `key`, building it with `lift` on first sight
    /// (or on re-admission after eviction).
    ///
    /// The miss is counted — and the eviction policy runs — while the
    /// reservation is made under the ring lock, so counters and evictions
    /// stay a pure function of the access sequence; `lift` itself runs
    /// **outside** the lock in the reserved once-cell. Racing lookups for
    /// the same key count hits and wait on the cell; lookups for other
    /// keys (including re-entrant ones from inside a builder) proceed
    /// unblocked. If the builder unwinds, the cell is poisoned and every
    /// waiter (and later hit on the residency) panics rather than hangs.
    pub fn get_or_lift(&self, key: &K, lift: impl FnOnce() -> V) -> Arc<V> {
        let cell = {
            let mut ring = self.ring.lock().expect("lift cache poisoned");
            if let Some(&slot) = ring.map.get(key) {
                self.counters.hit();
                ring.slots[slot].referenced = true;
                let cell = Arc::clone(&ring.slots[slot].cell);
                drop(ring);
                return cell.wait();
            }
            self.counters.miss();
            let cell = Arc::new(LiftCell::new());
            match self.capacity {
                Some(0) => {} // pass-through: never resident
                Some(cap) if ring.slots.len() >= cap => {
                    // Second chance: sweep in insertion order from the
                    // hand, clearing reference bits until an unreferenced
                    // victim turns up (bounded: after one full sweep every
                    // bit is clear). Evicting an in-flight cell is safe:
                    // its builder and waiters hold their own `Arc`s.
                    let victim = loop {
                        let i = ring.hand;
                        ring.hand = (ring.hand + 1) % ring.slots.len();
                        if ring.slots[i].referenced {
                            ring.slots[i].referenced = false;
                        } else {
                            break i;
                        }
                    };
                    self.counters.evict();
                    let old = std::mem::replace(
                        &mut ring.slots[victim],
                        Slot {
                            key: key.clone(),
                            cell: Arc::clone(&cell),
                            referenced: false,
                        },
                    );
                    ring.map.remove(&old.key);
                    ring.map.insert(key.clone(), victim);
                }
                _ => {
                    let slot = ring.slots.len();
                    ring.slots.push(Slot {
                        key: key.clone(),
                        cell: Arc::clone(&cell),
                        referenced: false,
                    });
                    ring.map.insert(key.clone(), slot);
                }
            }
            cell
        };
        let guard = PoisonGuard { cell: &cell };
        let value = Arc::new(lift());
        std::mem::forget(guard);
        cell.fill(Arc::clone(&value));
        value
    }

    /// Number of resident shapes.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("lift cache poisoned").map.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifts_once_per_key_and_counts() {
        let cache: LiftedCostCache<u64, Vec<f64>> = LiftedCostCache::new();
        let mut built = 0;
        for _ in 0..3 {
            let v = cache.get_or_lift(&7, || {
                built += 1;
                vec![1.0, 2.0]
            });
            assert_eq!(*v, vec![1.0, 2.0]);
        }
        assert_eq!(built, 1);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.evictions), (1, 2, 0));
        assert_eq!(cache.len(), 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_lift_separately() {
        let cache: LiftedCostCache<u64, u64> = LiftedCostCache::new();
        assert_eq!(*cache.get_or_lift(&1, || 10), 10);
        assert_eq!(*cache.get_or_lift(&2, || 20), 20);
        assert_eq!(*cache.get_or_lift(&1, || 99), 10, "cached value wins");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn shared_values_are_one_allocation() {
        let cache: LiftedCostCache<u64, Vec<f64>> = LiftedCostCache::new();
        let a = cache.get_or_lift(&1, || vec![1.0]);
        let b = cache.get_or_lift(&1, || vec![2.0]);
        assert!(Arc::ptr_eq(&a, &b));
    }

    /// CLOCK evicts in insertion order when no entry was re-referenced.
    #[test]
    fn eviction_follows_insertion_order_without_hits() {
        let cache: LiftedCostCache<u64, u64> = LiftedCostCache::with_capacity(Some(2));
        cache.get_or_lift(&1, || 10);
        cache.get_or_lift(&2, || 20);
        cache.get_or_lift(&3, || 30); // evicts 1 (oldest, unreferenced)
        assert_eq!(cache.len(), 2);
        assert_eq!(*cache.get_or_lift(&2, || 99), 20, "2 still resident");
        assert_eq!(*cache.get_or_lift(&1, || 11), 11, "1 was evicted, re-lifts");
        let stats = cache.stats();
        assert!(
            stats.evictions >= 2,
            "3 admitted + 1 re-admitted over cap 2"
        );
    }

    /// A hit sets the reference bit, granting a second chance: the hand
    /// skips the hit entry and evicts the next unreferenced one.
    #[test]
    fn second_chance_protects_hit_entries() {
        let cache: LiftedCostCache<u64, u64> = LiftedCostCache::with_capacity(Some(2));
        cache.get_or_lift(&1, || 10);
        cache.get_or_lift(&2, || 20);
        cache.get_or_lift(&1, || 99); // hit: reference 1
        cache.get_or_lift(&3, || 30); // hand clears 1's bit, evicts 2
        assert_eq!(*cache.get_or_lift(&1, || 99), 10, "hit entry survived");
        assert_eq!(
            *cache.get_or_lift(&2, || 21),
            21,
            "unreferenced entry evicted"
        );
    }

    /// Replaying the same access sequence produces identical counters —
    /// the policy depends only on the access sequence.
    #[test]
    fn eviction_is_deterministic_per_access_sequence() {
        let run = || {
            let cache: LiftedCostCache<u64, u64> = LiftedCostCache::with_capacity(Some(3));
            for &k in &[5u64, 1, 9, 5, 2, 7, 1, 5, 9, 3, 3, 2] {
                cache.get_or_lift(&k, || k * 10);
            }
            cache.stats()
        };
        assert_eq!(run(), run());
        assert!(run().evictions > 0);
    }

    /// A zero-capacity cache still returns correct values (pass-through).
    #[test]
    fn zero_capacity_passes_through() {
        let cache: LiftedCostCache<u64, u64> = LiftedCostCache::with_capacity(Some(0));
        assert_eq!(*cache.get_or_lift(&1, || 10), 10);
        assert_eq!(*cache.get_or_lift(&1, || 11), 11, "nothing retained");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 2, 0));
        assert!(cache.is_empty());
    }

    /// Values are identical whether or not eviction occurred in between —
    /// the bounded cache can only change counters, never results.
    #[test]
    fn bounded_and_unbounded_agree_on_values() {
        let bounded: LiftedCostCache<u64, u64> = LiftedCostCache::with_capacity(Some(1));
        let unbounded: LiftedCostCache<u64, u64> = LiftedCostCache::new();
        let lift = |k: u64| move || k * k;
        for &k in &[4u64, 9, 4, 2, 9, 4] {
            assert_eq!(
                *bounded.get_or_lift(&k, lift(k)),
                *unbounded.get_or_lift(&k, lift(k))
            );
        }
        assert!(bounded.stats().evictions > 0);
        assert_eq!(unbounded.stats().evictions, 0);
    }

    /// Builds run outside the ring lock: a builder can issue lookups for
    /// *other* keys re-entrantly (under the old build-under-lock scheme
    /// this self-deadlocked).
    #[test]
    fn builds_outside_the_lock_allow_reentrant_lookups() {
        let cache: LiftedCostCache<u64, u64> = LiftedCostCache::new();
        let v = cache.get_or_lift(&1, || *cache.get_or_lift(&2, || 20) + 1);
        assert_eq!(*v, 21);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    /// Racers on an in-flight key wait for the one build instead of
    /// re-building: misses stay "one per residency" and hits "everything
    /// else" at any thread count.
    #[test]
    fn concurrent_missers_share_one_build() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let cache: Arc<LiftedCostCache<u64, u64>> = Arc::new(LiftedCostCache::new());
        let builds = Arc::new(AtomicUsize::new(0));
        let threads = 8;
        let gate = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    *cache.get_or_lift(&42, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the in-flight window so racers actually
                        // find the reservation.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        7
                    })
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, threads as u64 - 1);
    }

    /// Hit/miss totals are deterministic under arbitrary thread
    /// interleavings: misses == distinct keys, hits == the rest.
    #[test]
    fn totals_deterministic_at_any_thread_count() {
        for threads in [1usize, 2, 4] {
            let cache: Arc<LiftedCostCache<u64, u64>> = Arc::new(LiftedCostCache::new());
            let lookups_per_thread = 50;
            let keys = 7u64;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let cache = Arc::clone(&cache);
                    std::thread::spawn(move || {
                        for i in 0..lookups_per_thread {
                            let k = ((t + i) as u64) % keys;
                            assert_eq!(*cache.get_or_lift(&k, || k * 3), k * 3);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let stats = cache.stats();
            assert_eq!(stats.misses, keys);
            assert_eq!(stats.hits, (threads * lookups_per_thread) as u64 - keys);
        }
    }

    /// A builder that unwinds poisons its residency: waiters and later
    /// hits panic instead of hanging on a cell that will never fill.
    #[test]
    fn panicked_build_poisons_the_residency() {
        let cache: Arc<LiftedCostCache<u64, u64>> = Arc::new(LiftedCostCache::new());
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_lift(&1, || panic!("boom"));
        }));
        assert!(first.is_err());
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_lift(&1, || 10);
        }));
        assert!(second.is_err(), "hit on a poisoned residency panics");
        // Other keys are unaffected.
        assert_eq!(*cache.get_or_lift(&2, || 20), 20);
    }
}
