//! [`AnswerCache`]: the one owner of answer sharing for both serving
//! fronts, [`ServiceHandle::submit`] in process and the network shard
//! server (`mpq_net::ShardServerCore::handle_frame`). It owns:
//!
//! * **validation** — a query failing `Query::validate` gets the one
//!   `invalid query: …` refusal and never reaches the map;
//! * **the key** — the cache's own `query_digest` of the query mixed
//!   with the deadline's bits (a front that ignores deadlines passes
//!   none), and each entry keeps its query: a request whose key holds
//!   another query runs unshared, so a collision only costs sharing;
//! * **single-flight** — a key is vacant, in flight with the waiters
//!   queued on its leader, or done with its answer; waiters are queued
//!   under the key's lock and wait outside the cache;
//! * **the panic rule** — a panicked answer is never shared: its key goes
//!   back to vacant and each waiter gets one attempt of its own, so a
//!   transient fault heals on the next request;
//! * **the bound** — at most [`ANSWER_CAPACITY`] keys under
//!   [`LiftedCostCache`]'s second-chance eviction.
//!
//! [`ServiceHandle::submit`]: crate::ServiceHandle::submit

use crate::SubmittedQuery;
use mpq_catalog::fault::query_digest;
use mpq_cost::LiftedCostCache;
use mpq_obs::CacheCounters;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The most keys an [`AnswerCache`] remembers.
pub const ANSWER_CAPACITY: usize = 4096;

/// An answer an [`AnswerCache`] can share.
pub trait Shareable: Clone {
    /// Whether the attempt behind it panicked (such an answer is never
    /// shared).
    fn panicked(&self) -> bool;
}

/// The state of one key: no leader, a leader in flight with its
/// waiters, or the leader's answer — each beside the stored query.
enum KeyState<A, W> {
    Vacant,
    InFlight(SubmittedQuery, Vec<W>),
    Done(SubmittedQuery, Arc<A>),
}

/// What a request found (see [`AnswerCache::lookup`]).
pub enum Lookup<A, W> {
    /// The query failed validation; the refusal message.
    Invalid(String),
    /// The key's answer, shared: a hit clones it outside the key's lock.
    Done(Arc<A>),
    /// The waiter is queued on the key's leader.
    Waiting,
    /// Admission turned the request away.
    Refused,
    /// The request runs: as its key's leader, which must resolve the
    /// lead, or unshared (`None`) when its key holds another query.
    Run(Option<Lead<A, W>>),
}

/// A leader's claim on its key.
#[must_use = "a lead's waiters wait until it is resolved"]
pub struct Lead<A, W> {
    state: Arc<Mutex<KeyState<A, W>>>,
}

/// The waiters of a resolved lead.
pub enum Release<W> {
    /// Give each a clone of the answer.
    Share(Vec<W>),
    /// The answer panicked: give each one attempt of its own.
    Rerun(Vec<W>),
}

impl<A: Shareable, W> Lead<A, W> {
    /// Resolves the key with its leader's answer, which stays for later
    /// requests unless it panicked.
    pub fn resolve(self, answer: &A) -> Release<W> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Only the leader moves its key out of flight.
        let KeyState::InFlight(stored, waiters) = std::mem::replace(&mut *state, KeyState::Vacant)
        else {
            return Release::Share(Vec::new());
        };
        if answer.panicked() {
            return Release::Rerun(waiters);
        }
        *state = KeyState::Done(stored, Arc::new(answer.clone()));
        Release::Share(waiters)
    }
}

/// Single-flight sharing of `A` answers between identical requests,
/// with `W` waiters (see the module docs).
pub struct AnswerCache<A, W> {
    /// Allocated at the first valid lookup.
    keys: OnceLock<LiftedCostCache<u64, Mutex<KeyState<A, W>>>>,
}

impl<A, W> Default for AnswerCache<A, W> {
    fn default() -> Self {
        Self {
            keys: OnceLock::new(),
        }
    }
}

impl<A: Shareable, W> AnswerCache<A, W> {
    /// The key of `submitted`.
    pub fn key(&self, submitted: &SubmittedQuery) -> u64 {
        let mut hasher = DefaultHasher::new();
        query_digest(&submitted.query).hash(&mut hasher);
        submitted.deadline.map(f64::to_bits).hash(&mut hasher);
        hasher.finish()
    }

    fn keys(&self) -> &LiftedCostCache<u64, Mutex<KeyState<A, W>>> {
        self.keys
            .get_or_init(|| LiftedCostCache::with_capacity(Some(ANSWER_CAPACITY)))
    }

    /// Looks `submitted` up under its [`key`](Self::key): a done key
    /// answers, an in-flight key queues `waiter()`, and a request that
    /// runs asks `admit` first, under the key's lock — so a request that
    /// shares takes no admission slot.
    pub fn lookup(
        &self,
        submitted: &SubmittedQuery,
        waiter: impl FnOnce() -> W,
        admit: impl FnOnce() -> bool,
    ) -> Lookup<A, W> {
        self.lookup_at(self.key(submitted), submitted, waiter, admit)
    }

    /// [`lookup`](Self::lookup) under a caller-chosen `key`. The stored
    /// query still guards every share, so a wrong key only costs sharing
    /// (tests plant colliding entries this way).
    pub fn lookup_at(
        &self,
        key: u64,
        submitted: &SubmittedQuery,
        waiter: impl FnOnce() -> W,
        admit: impl FnOnce() -> bool,
    ) -> Lookup<A, W> {
        if let Err(e) = submitted.query.validate() {
            return Lookup::Invalid(format!("invalid query: {e}"));
        }
        let entry = self
            .keys()
            .get_or_lift(&key, || Mutex::new(KeyState::Vacant));
        // A poisoned key lock only means a thread panicked while holding
        // it; the state inside is still consistent.
        let mut state = entry.lock().unwrap_or_else(PoisonError::into_inner);
        let leads = match &mut *state {
            KeyState::Vacant => true,
            KeyState::Done(stored, answer) if stored == submitted => {
                return Lookup::Done(Arc::clone(answer));
            }
            KeyState::InFlight(stored, waiters) if stored == submitted => {
                waiters.push(waiter());
                return Lookup::Waiting;
            }
            _ => false,
        };
        if !admit() {
            return Lookup::Refused;
        }
        if !leads {
            return Lookup::Run(None);
        }
        *state = KeyState::InFlight(submitted.clone(), Vec::new());
        drop(state);
        Lookup::Run(Some(Lead { state: entry }))
    }

    /// The key map's live hit/miss/eviction counters.
    pub fn counters(&self) -> Arc<CacheCounters> {
        self.keys().counters()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use mpq_catalog::generator::{generate, GeneratorConfig};
    use mpq_catalog::graph::Topology;
    use mpq_catalog::Query;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `Err` stands for a panicked attempt.
    type Answer = Result<u32, &'static str>;

    impl Shareable for Answer {
        fn panicked(&self) -> bool {
            self.is_err()
        }
    }

    type Cache = AnswerCache<Answer, u32>;

    fn queries(n: usize) -> Vec<SubmittedQuery> {
        let mut rng = StdRng::seed_from_u64(9);
        let cfg = GeneratorConfig::paper(3, Topology::Chain, 1);
        (0..n)
            .map(|_| SubmittedQuery::new(generate(&cfg, &mut rng)))
            .collect()
    }

    fn lead(lookup: Lookup<Answer, u32>) -> Lead<Answer, u32> {
        match lookup {
            Lookup::Run(Some(lead)) => lead,
            _ => panic!("expected to lead"),
        }
    }

    fn shared(release: Release<u32>) -> Vec<u32> {
        match release {
            Release::Share(waiters) => waiters,
            Release::Rerun(_) => panic!("expected the answer to be shared"),
        }
    }

    fn no_waiter() -> u32 {
        panic!("no waiter expected")
    }

    /// The first request leads, later ones wait on it, and once it
    /// resolves every request is answered from the key without
    /// admission.
    #[test]
    fn lead_wait_and_hit() {
        let cache = Cache::default();
        let q = &queries(1)[0];
        let lead = lead(cache.lookup(q, no_waiter, || true));
        for id in [1, 2] {
            let waiting = cache.lookup(q, || id, || panic!("waiters take no admission"));
            assert!(matches!(waiting, Lookup::Waiting));
        }
        assert_eq!(shared(lead.resolve(&Ok(7))), vec![1, 2]);
        let hit = cache.lookup(q, no_waiter, || panic!("hits take no admission"));
        assert!(matches!(hit, Lookup::Done(a) if *a == Ok(7)));
        let counters = cache.counters();
        assert_eq!((counters.misses(), counters.hits()), (1, 3));
    }

    /// Equal queries with different deadlines are different keys.
    #[test]
    fn deadlines_split_keys() {
        let cache = Cache::default();
        let q = &queries(1)[0];
        let _exact = lead(cache.lookup(q, no_waiter, || true));
        let timed = q.clone().with_deadline(1.0);
        let _timed = lead(cache.lookup(&timed, no_waiter, || true));
        assert_ne!(cache.key(q), cache.key(&timed));
    }

    /// A key holding another query's entry — done or in flight — runs
    /// the request unshared and leaves the entry as it was.
    #[test]
    fn collision_runs_unshared() {
        let cache = Cache::default();
        let qs = queries(2);
        let key = cache.key(&qs[0]);
        let other = lead(cache.lookup_at(key, &qs[1], no_waiter, || true));
        assert!(matches!(
            cache.lookup(&qs[0], no_waiter, || true),
            Lookup::Run(None)
        ));
        assert!(shared(other.resolve(&Ok(1))).is_empty());
        assert!(matches!(
            cache.lookup(&qs[0], no_waiter, || true),
            Lookup::Run(None)
        ));
        let planted = cache.lookup_at(key, &qs[1], no_waiter, || true);
        assert!(
            matches!(planted, Lookup::Done(a) if *a == Ok(1)),
            "the entry stays"
        );
    }

    /// A panicked answer is never shared: the waiters are released to
    /// run alone and the next request leads again.
    #[test]
    fn panic_releases_the_key() {
        let cache = Cache::default();
        let q = &queries(1)[0];
        let first = lead(cache.lookup(q, no_waiter, || true));
        assert!(matches!(cache.lookup(q, || 5, || true), Lookup::Waiting));
        match first.resolve(&Err("boom")) {
            Release::Rerun(waiters) => assert_eq!(waiters, vec![5]),
            Release::Share(_) => panic!("a panic was shared"),
        }
        let again = lead(cache.lookup(q, no_waiter, || true));
        assert!(shared(again.resolve(&Ok(3))).is_empty());
        assert!(matches!(
            cache.lookup(q, no_waiter, || true),
            Lookup::Done(a) if *a == Ok(3)
        ));
    }

    /// Admission runs only for requests that run, and a refused request
    /// leaves its key vacant.
    #[test]
    fn refusal_leaves_the_key_vacant() {
        let cache = Cache::default();
        let q = &queries(1)[0];
        assert!(matches!(
            cache.lookup(q, no_waiter, || false),
            Lookup::Refused
        ));
        let _lead = lead(cache.lookup(q, no_waiter, || true));
    }

    /// An invalid query is refused before the map exists.
    #[test]
    fn invalid_query_is_refused_before_the_map() {
        let cache = Cache::default();
        let mut query: Query = queries(1).remove(0).query;
        query.tables[0].rows = f64::NAN;
        match cache.lookup(&SubmittedQuery::new(query), no_waiter, || true) {
            Lookup::Invalid(message) => assert!(message.starts_with("invalid query: ")),
            _ => panic!("an invalid query was looked up"),
        }
        assert!(cache.keys.get().is_none(), "nothing allocated");
    }

    /// Past [`ANSWER_CAPACITY`] keys the oldest unreferenced key is
    /// evicted; its next request leads again.
    #[test]
    fn eviction_bounds_the_keys() {
        let cache = Cache::default();
        let qs = queries(1);
        for key in 0..=ANSWER_CAPACITY as u64 {
            let lead = lead(cache.lookup_at(key, &qs[0], no_waiter, || true));
            let _ = lead.resolve(&Ok(0));
        }
        assert_eq!(cache.counters().evictions(), 1);
        let _again = lead(cache.lookup_at(0, &qs[0], no_waiter, || true));
    }
}
