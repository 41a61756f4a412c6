//! `mpq-service`: a long-running, concurrent, **fault-tolerant**
//! optimizer service.
//!
//! The paper's value proposition is server-side: optimize once per
//! (query, shape), reuse the result across parameter instantiations and
//! arriving clients. The batch layer (`mpq_core::session`) already shares
//! cost lifts across the queries of one batch; this crate adds the
//! *service front-end* that turns arriving queries into batches:
//!
//! * **Coalescing** — identical requests share one optimization through
//!   the [`AnswerCache`], which the network shard server uses too (its
//!   docs hold the key, collision, panic and bound rules). The first
//!   submit of a (query, deadline) pair *leads* and batches like any
//!   request. A later one is a *copy*: it never joins a batch (it only
//!   passes its submit time to the deadline sweep) and gets the leader's
//!   answer, route and `served_epsilon` — at once if the leader has
//!   resolved, else the moment it does. A leader that timed out or met
//!   shutdown passes that outcome on; one that panicked does not (see
//!   *panic isolation*).
//! * **Batch accumulation** — leaders buffer per shard and dispatch when
//!   either trigger of the [`BatchPolicy`] fires: the buffer reaches
//!   `max_batch` (*size* trigger) or the oldest buffered request has
//!   waited `max_wait` (*deadline* trigger). A worker runs each query of
//!   a batch alone through its shard session, so how queries group into
//!   batches changes nothing they compute or share; waiting longer only
//!   adds latency. Shutdown flushes the rest (*drain* trigger).
//! * **Sharded sessions** — batches dispatch to one of N
//!   [`ShardedSession`] shards, chosen by the stable `OpShape`-derived
//!   affinity (`mpq_core::session::query_affinity`), so queries over the
//!   same tables land on the shard whose subtree cache already holds
//!   their shared subplans (the in-process form of sharding a workload
//!   across machines).
//! * **Completion tickets** — every submission returns a
//!   [`ServiceTicket`]; [`ServiceTicket::wait`] blocks on the request's
//!   own completion channel and **always returns**: the ticket resolves
//!   to a [`QueryOutcome`] (`Ok`, `Panicked`, `TimedOut`, `Rejected`,
//!   `Shutdown`) instead of panicking when the service cannot produce a
//!   solution.
//! * **Panic isolation & quarantine** — a shard worker runs its batch
//!   one query at a time, each query exactly once under its own
//!   `catch_unwind` ([`optimize_isolated`]), and answers it as soon as
//!   that attempt ends. A query that panics is answered
//!   [`QueryOutcome::Panicked`] and counted one restart; its batch-mates
//!   never re-run, and the worker stays alive. One bad query can neither
//!   abort the process nor lose another query's answer, and a query's
//!   outcome does not depend on which batch it rode in. Copies waiting on
//!   a panicked leader are re-run alone at the batch's ε, one attempt
//!   each (its own fault attempt, and a restart if it panics again).
//! * **Admission control** — [`ServiceConfig::max_queue`] bounds the
//!   buffered-but-undispatched request count; beyond it, `submit`
//!   answers the ticket immediately with [`QueryOutcome::Rejected`]
//!   (backpressure the caller can see) instead of queueing unboundedly.
//!   Copies take no queue slot, so a copy is never rejected. The
//!   [`AnswerCache`] also runs `Query::validate`: an invalid query is
//!   answered [`QueryOutcome::Panicked`] (`invalid query: …`, the message
//!   `optimize` would panic with) and counted quarantined before it can
//!   enter a batch.
//! * **Deadline budgets** — a per-query absolute deadline
//!   ([`SubmittedQuery::deadline`], service-clock seconds) is checked
//!   when the query's batch dispatches: already-expired queries are
//!   answered [`QueryOutcome::TimedOut`] without burning optimizer time.
//! * **ε-approximate serving** — [`ServiceConfig::with_approx`]
//!   downgrades deadline-triggered batches to the ε-approximate optimizer
//!   (`OptimizerSession::optimize_at` semantics, per batch): the answers
//!   are `(1+ε)`-covers of the exact frontiers, each response is stamped
//!   [`QueryResponse::served_epsilon`], and [`ServiceStats`] counts
//!   `approx_served` / `approx_batches`. Which batches deadline-trigger
//!   is a pure function of the submission sequence, so virtual-clock
//!   replays reproduce the ε choice.
//! * **Bounded caches** — shard sessions built with a
//!   `SessionConfig::cache_capacity` evict deterministically
//!   (second-chance CLOCK, see `mpq_cost`), so a service that runs
//!   forever holds bounded memory.
//! * **Observability** — [`ServiceStats`], built by the [`StatsStore`]
//!   a network router counts through too, snapshots queue depth, batches
//!   formed, the trigger mix, rejected/timed-out/quarantined counts,
//!   per-shard cache hit/miss and restart counts, and p50/p95 latency
//!   measured under a **caller-supplied clock**. With a [`VirtualClock`]
//!   stepped from a seeded arrival trace, batching decisions — batch
//!   contents, the trigger mix and the `coalesced` count — replay
//!   bit-identically with no wall-clock dependence (`submit` splits
//!   leaders from copies, and a copy's submit time still reaches the
//!   deadline sweep). The one timing-dependent case is a copy of a query
//!   whose leader panicked: whether the worker re-runs it or it leads
//!   anew depends on when it arrives, but its outcome does not. The latency
//!   *percentiles* are approximate there (completion times are read
//!   while the submitter may still be advancing the clock), so treat
//!   them like any other measured-duration metric.
//!
//! # Determinism contract
//!
//! For a fixed set of queries, the service's **per-query plans, counters
//! and frontiers are bit-identical to optimizing the same queries one by
//! one through a plain `OptimizerSession`** — independent of batch
//! grouping, shard count, trigger timing and cache evictions. Batching
//! only regroups independent deterministic optimizations, and a copy
//! gets a clone of its leader's answer, which is the answer the copy
//! itself would have computed; shard spaces are constructed
//! identically; evicted lifts re-lift to bit-identical values (lifts are
//! pure in their shape). Only throughput counters
//! (`lps_solved` snapshots, cache hit/miss/eviction totals) depend on the
//! grouping. The contract extends **under faults**: with a deterministic
//! fault plan (`mpq_catalog::fault::FaultPlan`) poisoning some queries,
//! every *healthy* query's plans/counters/frontiers stay bit-identical
//! to the plain session — quarantine only removes the poison, it never
//! perturbs its batch-mates (the fault hook fires before any optimizer
//! state is touched, and every query gets exactly one attempt, so no
//! healthy query is ever re-run).
//! Enforced by `tests/service_proptest.rs` (fault-free) and
//! `tests/chaos_proptest.rs` (under seeded fault plans) across random
//! traces × policies × shard counts × cache capacities.
//!
//! # Example
//!
//! ```
//! use mpq_core::prelude::*;
//! use mpq_core::session::SessionConfig;
//! use mpq_catalog::generator::{generate_workload, GeneratorConfig, WorkloadConfig};
//! use mpq_catalog::graph::Topology;
//! use mpq_cloud::model::CloudCostModel;
//! use mpq_service::{serve, BatchPolicy, ServiceConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::time::Duration;
//!
//! let cfg = WorkloadConfig::uniform(GeneratorConfig::paper(3, Topology::Chain, 1), 4, 1.0);
//! let workload = generate_workload(&cfg, &mut StdRng::seed_from_u64(1));
//! let model = CloudCostModel::default();
//! let opt = OptimizerConfig::default_for(1);
//! let sessions = ShardedSession::build(2, &model, &SessionConfig::new(opt.clone()), || {
//!     GridSpace::for_unit_box(1, &opt, 2).unwrap()
//! });
//! let config = ServiceConfig::new(BatchPolicy::new(2, Duration::from_millis(5)));
//! let (solutions, stats) = serve(&sessions, config, |handle| {
//!     let tickets: Vec<_> = workload.queries.iter()
//!         .map(|q| handle.submit(q.clone()))
//!         .collect();
//!     tickets.into_iter().map(|t| t.wait().expect_ok()).collect::<Vec<_>>()
//! });
//! assert_eq!(solutions.len(), 4);
//! assert_eq!(stats.completed, 4);
//! assert!(stats.batches >= 1);
//! ```

// A service front-end must not take the process down on a recoverable
// condition; every panic site has to be deliberate. `assert!`/`panic!`
// for contract violations stay allowed — it is the *implicit* panics
// (`unwrap`/`expect` on queue plumbing) this crate bans.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod answer_cache;

pub use answer_cache::{AnswerCache, ANSWER_CAPACITY};
use answer_cache::{Lead, Lookup, Release, Shareable};

use mpq_catalog::Query;
use mpq_cloud::model::ParametricCostModel;
use mpq_core::rrpa::MpqSolution;
use mpq_core::session::{OptimizerSession, ShardedSession};
use mpq_core::space::MpqSpace;
use mpq_core::stats::thread_solved;
use mpq_cost::CacheStats;
use mpq_obs::{Counter, Gauge, Histogram, Obs, SpanGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// When an accumulating batch dispatches to its shard.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many requests buffered (size trigger).
    pub max_batch: usize,
    /// Dispatch once the oldest buffered request has waited this long
    /// under the service clock (deadline trigger) — the latency bound a
    /// leader pays for batching. A copy of a resolved leader never waits;
    /// a copy of a buffered leader waits only for that leader (see the
    /// crate docs on coalescing).
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// A policy with the given size and deadline triggers.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: usize, max_wait: Duration) -> Self {
        assert!(max_batch >= 1, "a batch needs room for at least one query");
        Self {
            max_batch,
            max_wait,
        }
    }
}

/// The service's notion of *now*, in seconds from an arbitrary origin.
/// Monotone non-decreasing by contract. The default is wall-clock
/// ([`ServiceConfig::new`]); tests and trace replays install a
/// [`VirtualClock`] ([`ServiceConfig::with_clock`]) that advances only
/// when told to, making deadline triggers replayable with no wall-clock
/// dependence.
pub type ServiceClock = Arc<dyn Fn() -> f64 + Send + Sync>;

/// A deterministic service clock for tests and trace replays: virtual
/// **microseconds**, advanced explicitly by the driver and read by the
/// service as seconds. Advancing takes a max, so the clock is monotone
/// even if drivers race. One `VirtualClock` pins the unit convention for
/// every replay site (unit tests and proptests).
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    micros: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock to `us` virtual microseconds (no-op if the
    /// clock is already past it).
    pub fn advance_to_micros(&self, us: u64) {
        self.micros.fetch_max(us, Ordering::Relaxed);
    }

    /// Advances the clock to `secs` virtual seconds.
    pub fn advance_to_secs(&self, secs: f64) {
        self.advance_to_micros((secs * 1e6) as u64);
    }

    /// The current virtual time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }

    /// The [`ServiceClock`] view of this clock (pass to
    /// [`ServiceConfig::with_clock`]).
    pub fn clock(&self) -> ServiceClock {
        let micros = Arc::clone(&self.micros);
        Arc::new(move || micros.load(Ordering::Relaxed) as f64 * 1e-6)
    }
}

/// Service configuration: the batch policy, the clock, the admission
/// bound, and the ε of approximate serving.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Batch dispatch triggers.
    pub policy: BatchPolicy,
    /// The service clock (`None` = wall clock anchored at service start).
    pub clock: Option<ServiceClock>,
    /// Admission bound: the maximum number of requests submitted but not
    /// yet dispatched to a shard worker (accumulating buffers plus the
    /// submit channel). `None` = unbounded. At the bound, [`submit`]
    /// answers the ticket immediately with [`QueryOutcome::Rejected`] —
    /// visible backpressure instead of unbounded queueing.
    ///
    /// [`submit`]: ServiceHandle::submit
    pub max_queue: Option<usize>,
    /// The ε deadline-triggered batches run at (`None` = always exact;
    /// see [`ServiceConfig::with_approx`]).
    pub approx: Option<f64>,
    /// Observability: [`Obs::off`] (the default) keeps serving on the
    /// unobserved hot path, with every counter a private cell. A live
    /// handle keeps every counter in its registry under a `service_*`
    /// name (per shard `service_shard{i}_queries`, `_batches` and
    /// `_restarts`) — the cells [`ServiceStats`] reads — registers each
    /// shard session's caches as `service_shard{i}_lift_cache` and
    /// `service_shard{i}_subtree_cache`, and emits
    /// submit/dispatch/batch spans. Two [`serve`] calls sharing one
    /// registry add into the same cells, so the second call's
    /// [`ServiceStats`] includes the first call's traffic, while the
    /// cache names point at the second call's sessions; obs-off calls
    /// start at zero. Never changes results — see the obs-identity tests.
    pub obs: Obs,
}

impl ServiceConfig {
    /// Wall-clock service over the given policy, unbounded admission,
    /// always-exact serving.
    pub fn new(policy: BatchPolicy) -> Self {
        Self {
            policy,
            clock: None,
            max_queue: None,
            approx: None,
            obs: Obs::off(),
        }
    }

    /// Installs a caller-supplied clock (see [`ServiceClock`]).
    pub fn with_clock(mut self, clock: ServiceClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Bounds the submit queue (see [`ServiceConfig::max_queue`]).
    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = Some(max_queue);
        self
    }

    /// The precision/latency dial: a batch whose **deadline** fired (it
    /// already waited `max_wait`) runs through the ε-approximate
    /// optimizer ([`OptimizerSession::optimize_at`]), serving a
    /// `(1+ε)`-cover of each exact frontier now rather than the exact
    /// frontier later. Size- and drain-triggered batches run exact.
    ///
    /// # Panics
    /// Panics if `epsilon` is not finite and positive.
    pub fn with_approx(mut self, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "approximate serving needs a finite positive epsilon"
        );
        self.approx = Some(epsilon);
        self
    }

    /// Attaches an observability handle (see [`ServiceConfig::obs`],
    /// including how two services sharing one registry count).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

/// A query submitted to the service. (A struct, not a bare `Query`, so
/// per-request options — priorities, deadlines — can grow without
/// breaking the submit API.)
#[derive(Debug, Clone, PartialEq)]
pub struct SubmittedQuery {
    /// The query to optimize.
    pub query: Query,
    /// Optional absolute deadline in service-clock seconds. Checked when
    /// the query's batch dispatches: if `now > deadline` at that point,
    /// the query is answered [`QueryOutcome::TimedOut`] without running
    /// the optimizer. `None` = no budget. (The check is at *dispatch*,
    /// not mid-optimization: a query that starts optimizing before its
    /// deadline completes normally.)
    pub deadline: Option<f64>,
}

impl SubmittedQuery {
    /// A submission with no deadline.
    pub fn new(query: Query) -> Self {
        Self {
            query,
            deadline: None,
        }
    }

    /// Sets the absolute service-clock deadline in seconds.
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl From<Query> for SubmittedQuery {
    fn from(query: Query) -> Self {
        Self::new(query)
    }
}

/// Why a batch dispatched. The discriminant is the stable code spans
/// record as `trigger`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchTrigger {
    /// The buffer reached `max_batch`.
    Size = 0,
    /// The oldest buffered request waited `max_wait`.
    Deadline = 1,
    /// Service shutdown flushed the remainder.
    Drain = 2,
}

/// How a request travelled through the service: set on outcomes that
/// reached a shard worker ([`QueryOutcome::Ok`] / [`Panicked`]), absent
/// on requests turned away earlier (`TimedOut`, `Rejected`, `Shutdown`,
/// and queries that failed validation). A copy carries its leader's
/// route.
///
/// [`Panicked`]: QueryOutcome::Panicked
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRoute {
    /// The shard that ran the request's batch.
    pub shard: usize,
    /// Sequence number of the batch it rode in.
    pub batch_seq: u64,
    /// Number of requests in that batch.
    pub batch_size: usize,
    /// Why the batch dispatched.
    pub trigger: BatchTrigger,
}

/// What became of one submitted query. Every ticket resolves to exactly
/// one outcome — the service never answers a ticket twice and never
/// leaves one unanswered (shutdown drains every buffer).
pub enum QueryOutcome<S: MpqSpace> {
    /// The optimization result — bit-identical to a plain
    /// `OptimizerSession` run of the same query (the determinism
    /// contract; see the crate docs).
    Ok(MpqSolution<S>),
    /// The query's one attempt panicked inside the optimizer (see
    /// [`optimize_isolated`]); its batch-mates ran their own attempts and
    /// were answered normally. `message` is the panic payload (or a
    /// placeholder for non-string payloads).
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The query's [`SubmittedQuery::deadline`] had already passed when
    /// its batch dispatched; the optimizer never ran it.
    TimedOut,
    /// Admission control turned the query away: the submit queue was at
    /// [`ServiceConfig::max_queue`].
    Rejected,
    /// The service shut down before answering (or had already shut down
    /// at submit time).
    Shutdown,
}

/// The resolution class of a query's outcome on either client front:
/// the discriminant of a [`QueryOutcome`], or of a network front's wire
/// outcome, for matching and counting without touching the payload. The
/// discriminant is the stable code a router's `route_request` span
/// records as `outcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutcomeKind {
    /// Optimized successfully.
    Ok = 0,
    /// Quarantined after panicking.
    Panicked = 1,
    /// Deadline expired before dispatch.
    TimedOut = 2,
    /// Turned away by admission control.
    Rejected = 3,
    /// Service terminated without an answer.
    Shutdown = 4,
    /// A network front's shard stayed unreachable after every retry
    /// (never in-process).
    Unavailable = 5,
}

impl<S: MpqSpace> Clone for QueryOutcome<S> {
    fn clone(&self) -> Self {
        match self {
            QueryOutcome::Ok(solution) => QueryOutcome::Ok(solution.clone()),
            QueryOutcome::Panicked { message } => QueryOutcome::Panicked {
                message: message.clone(),
            },
            QueryOutcome::TimedOut => QueryOutcome::TimedOut,
            QueryOutcome::Rejected => QueryOutcome::Rejected,
            QueryOutcome::Shutdown => QueryOutcome::Shutdown,
        }
    }
}

impl<S: MpqSpace> QueryOutcome<S> {
    /// The outcome's discriminant.
    pub fn kind(&self) -> OutcomeKind {
        match self {
            QueryOutcome::Ok(_) => OutcomeKind::Ok,
            QueryOutcome::Panicked { .. } => OutcomeKind::Panicked,
            QueryOutcome::TimedOut => OutcomeKind::TimedOut,
            QueryOutcome::Rejected => OutcomeKind::Rejected,
            QueryOutcome::Shutdown => OutcomeKind::Shutdown,
        }
    }

    /// The solution, if the query completed.
    pub fn ok(self) -> Option<MpqSolution<S>> {
        match self {
            QueryOutcome::Ok(solution) => Some(solution),
            _ => None,
        }
    }
}

impl<S: MpqSpace> std::fmt::Debug for QueryOutcome<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryOutcome::Ok(_) => f.write_str("Ok(..)"),
            QueryOutcome::Panicked { message } => f
                .debug_struct("Panicked")
                .field("message", message)
                .finish(),
            QueryOutcome::TimedOut => f.write_str("TimedOut"),
            QueryOutcome::Rejected => f.write_str("Rejected"),
            QueryOutcome::Shutdown => f.write_str("Shutdown"),
        }
    }
}

/// One resolved request: the outcome plus how it travelled through the
/// service.
pub struct QueryResponse<S: MpqSpace> {
    /// What became of the query.
    pub outcome: QueryOutcome<S>,
    /// The batch the query rode in — `Some` only for outcomes that
    /// reached a shard worker (`Ok` / `Panicked`). A copy carries its
    /// leader's route.
    pub route: Option<BatchRoute>,
    /// Submit-to-resolution latency in service-clock seconds.
    /// Meaningful for `Ok`, `Panicked` and `TimedOut` (a copy measures
    /// from its own submit); `0.0` for requests answered inside `submit`
    /// without reading the clock (`Rejected`, `Shutdown`, and queries
    /// that failed validation).
    pub latency: f64,
    /// The ε-approximation factor the request's batch ran at: `Some(ε)`
    /// when [`ServiceConfig::with_approx`] downgraded the
    /// (deadline-triggered) batch, `None` for exact serving or outcomes that never reached a
    /// worker. An `Ok` answer with `Some(ε)` is a `(1+ε)`-cover of the
    /// exact frontier (every exact-frontier plan is ε-dominated by some
    /// served plan), not necessarily the exact frontier itself.
    pub served_epsilon: Option<f64>,
}

/// A response that never reached a shard worker.
fn unrouted<S: MpqSpace>(outcome: QueryOutcome<S>, latency: f64) -> QueryResponse<S> {
    QueryResponse {
        outcome,
        route: None,
        latency,
        served_epsilon: None,
    }
}

impl<S: MpqSpace> Clone for QueryResponse<S> {
    fn clone(&self) -> Self {
        Self {
            outcome: self.outcome.clone(),
            route: self.route,
            latency: self.latency,
            served_epsilon: self.served_epsilon,
        }
    }
}

/// The panic rule of the [`AnswerCache`]: a `Panicked` answer is never
/// shared.
impl<S: MpqSpace> Shareable for QueryResponse<S> {
    fn panicked(&self) -> bool {
        self.kind() == OutcomeKind::Panicked
    }
}

impl<S: MpqSpace> std::fmt::Debug for QueryResponse<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryResponse")
            .field("outcome", &self.outcome)
            .field("route", &self.route)
            .field("latency", &self.latency)
            .field("served_epsilon", &self.served_epsilon)
            .finish()
    }
}

impl<S: MpqSpace> QueryResponse<S> {
    /// The outcome's discriminant.
    pub fn kind(&self) -> OutcomeKind {
        self.outcome.kind()
    }

    /// The solution of an `Ok` outcome.
    ///
    /// # Panics
    /// Panics if the outcome is anything but `Ok` — the convenience for
    /// fault-free callers (benches, examples) that treat any other
    /// outcome as a bug.
    pub fn expect_ok(self) -> MpqSolution<S> {
        match self.outcome {
            QueryOutcome::Ok(solution) => solution,
            other => panic!("query did not complete: outcome {:?}", other.kind()),
        }
    }
}

/// Completion handle of one submission: a per-request channel the
/// service answers exactly once.
pub struct ServiceTicket<S: MpqSpace> {
    rx: mpsc::Receiver<QueryResponse<S>>,
}

impl<S: MpqSpace> ServiceTicket<S> {
    /// Blocks until the request resolves. Never panics: if the service
    /// terminated without answering (it was killed, or the ticket's
    /// response was lost to a send race at teardown), the outcome is
    /// [`QueryOutcome::Shutdown`].
    ///
    /// A ticket outlives the service: responses buffer in the ticket's
    /// channel, so tickets can be waited **after** [`serve`] returns —
    /// shutdown drains every buffer first. That is also the safe pattern
    /// under a [`VirtualClock`] (or any non-advancing clock): waiting
    /// *inside* the `serve` body for a request whose batch has neither
    /// size-triggered nor passed its (frozen-clock) deadline blocks
    /// forever, because the drain flush only runs once the body returns.
    pub fn wait(self) -> QueryResponse<S> {
        self.rx
            .recv()
            .unwrap_or_else(|_| unrouted(QueryOutcome::Shutdown, 0.0))
    }

    /// [`Self::wait`] with a **real-time** budget, so a caller can never
    /// deadlock on a frozen clock: `budget` is wall time (not
    /// service-clock time — a stalled [`VirtualClock`] would make a
    /// virtual budget unreachable, reintroducing the exact hang this
    /// method exists to rule out, the documented `wait()`-inside-body
    /// hang of [`Self::wait`]). On expiry the caller gets
    /// [`QueryOutcome::TimedOut`] with `latency` measured on `clock`
    /// (the service-clock time spent waiting, `0.0` under a frozen
    /// virtual clock). The ticket is consumed; a response the service
    /// produces later is dropped with the channel — the request itself
    /// still runs to completion inside the service and is counted there.
    pub fn wait_timeout(self, clock: &ServiceClock, budget: Duration) -> QueryResponse<S> {
        let waited_from = clock();
        match self.rx.recv_timeout(budget) {
            Ok(response) => response,
            Err(mpsc::RecvTimeoutError::Disconnected) => unrouted(QueryOutcome::Shutdown, 0.0),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                unrouted(QueryOutcome::TimedOut, clock() - waited_from)
            }
        }
    }

    /// Non-blocking poll: `Some` once the response is ready.
    pub fn try_wait(&self) -> Option<QueryResponse<S>> {
        self.rx.try_recv().ok()
    }
}

/// Per-shard service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Requests dispatched to this shard (including quarantined ones).
    pub queries: u64,
    /// Batches dispatched to this shard.
    pub batches: u64,
    /// Panics this shard's worker caught and recovered from: one per
    /// panicked attempt. Each query, and each re-run copy of a panicked
    /// leader, gets exactly one attempt.
    pub restarts: u64,
    /// The shard session's cost-lifting cache counters
    /// (hit/miss/evictions).
    pub cache: CacheStats,
    /// The shard session's shared-subplan cache counters (all-zero when
    /// subtree caching is disabled in the session config).
    pub subtree: CacheStats,
}

/// Snapshot of a client front's counters: [`serve`]'s (see
/// [`ServiceHandle::stats`] and its return value) or a network
/// router's. Both build it through [`StatsStore::snapshot`].
///
/// Conservation: every submission resolves exactly once, so after
/// shutdown `submitted ==
/// completed + rejected + timed_out + quarantined + unavailable`
/// (mid-run, the difference is the in-flight count) —
/// [`Self::conserves`] checks exactly this. ε-served answers are
/// ordinary completions — `approx_served ≤ completed` refines the mix,
/// it never adds a resolution class — and the wire counters (`retries`,
/// `reconnects`, `dropped`) describe *transport effort*, not
/// resolutions, so they sit outside the identity. In-process serving
/// ([`serve`]) has no wire: its snapshots report the three wire
/// counters as zero, and a network front reports its batch-layer
/// fields (`batches`, triggers, queue depth, `coalesced`,
/// `approx_batches`, `lps_solved`, per-shard batches, restarts and
/// cache stats) as zero, since batching happens server-side.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests submitted (including ones later rejected).
    pub submitted: u64,
    /// Requests answered with a solution ([`QueryOutcome::Ok`]).
    pub completed: u64,
    /// Of `completed`, the answers served ε-approximately (their batch
    /// was downgraded; the response carries `served_epsilon: Some(ε)`).
    pub approx_served: u64,
    /// Batches [`ServiceConfig::with_approx`] downgraded to ε.
    pub approx_batches: u64,
    /// Requests turned away by admission control
    /// ([`QueryOutcome::Rejected`]).
    pub rejected: u64,
    /// Requests whose deadline expired before dispatch
    /// ([`QueryOutcome::TimedOut`]).
    pub timed_out: u64,
    /// Requests quarantined after panicking
    /// ([`QueryOutcome::Panicked`]).
    pub quarantined: u64,
    /// Requests no shard answered: a network front's shard was
    /// unreachable (or answered `Shutdown`) after every retry, or the
    /// in-process service shut down before answering
    /// ([`QueryOutcome::Shutdown`], which a live service never gives).
    pub unavailable: u64,
    /// Request attempts beyond the first, across all requests (a network
    /// front's retry loop; `0` in-process and on a fault-free wire).
    pub retries: u64,
    /// Connection re-establishments after a transport error (`0`
    /// in-process and on a fault-free wire).
    pub reconnects: u64,
    /// Frames destroyed in flight, as observed by a deterministic fault
    /// injector (`0` in-process; real networks drop silently, so this
    /// counter is only exact under injection).
    pub dropped: u64,
    /// Requests currently buffered (accumulating, not yet dispatched).
    pub queue_depth: u64,
    /// Largest buffered count observed.
    pub queue_depth_peak: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Batches dispatched by the size trigger.
    pub size_triggered: u64,
    /// Batches dispatched by the deadline trigger.
    pub deadline_triggered: u64,
    /// Batches flushed at shutdown.
    pub drain_triggered: u64,
    /// Copies: requests that got their leader's answer instead of being
    /// batched (see the crate docs on coalescing). Each also counts in
    /// the resolution class of its outcome.
    pub coalesced: u64,
    /// LPs solved across all attempts: the sum of each attempt's
    /// [`mpq_core::stats::thread_solved`] delta, added before the query
    /// is answered. Exact, because an attempt runs start to finish on
    /// its shard worker's thread; includes work burned by panicked
    /// attempts.
    pub lps_solved: u64,
    /// Per-shard counters, indexed by shard.
    pub per_shard: Vec<ShardStats>,
    /// Median submit-to-completion latency in service-clock seconds over
    /// all **successful** completions, read from the front's
    /// `{prefix}latency_seconds` histogram (see [`StatsStore`]), so the
    /// reported value is a bucket representative (≤ 12.5 % relative
    /// error), NaN before the first completion, and memory stays
    /// bounded however long the front runs. Quarantined, timed-out,
    /// rejected and unavailable requests are excluded, so the
    /// percentiles describe healthy-query latency even under faults; and
    /// because bucket counts are order-independent, the percentiles are
    /// deterministic under a virtual clock even when completion stamps
    /// race the clock's driver.
    pub latency_p50: f64,
    /// 95th-percentile latency in service-clock seconds from the same
    /// histogram (NaN before the first completion).
    pub latency_p95: f64,
}

impl ServiceStats {
    /// The conservation identity: after shutdown (or any quiescent
    /// point), every submission has resolved to exactly one of the five
    /// resolution classes. Both the in-process chaos suite and the
    /// network chaos suite assert this on every run — it is the single
    /// accounting invariant shared by all serving fronts.
    pub fn conserves(&self) -> bool {
        self.completed + self.rejected + self.timed_out + self.quarantined + self.unavailable
            == self.submitted
    }
}

/// The one counter store of both client fronts — [`serve`] and a network
/// router — and the one builder of their [`ServiceStats`]. It keeps what
/// every front counts: submissions, per-shard queries, the resolution
/// classes ([`Self::resolve`]) and healthy-answer latencies; each front
/// keeps only what it alone moves next to it.
///
/// Every cell is named `{prefix}…` (`service_` for [`serve`], `router_`
/// for the router): `submitted`, `completed`, `approx_served`,
/// `rejected`, `timed_out`, `quarantined`, `unavailable`,
/// `shard{i}_queries` and the `latency_seconds` histogram. With
/// observability on, each is the handle's registry cell of that name, so
/// a scrape and [`ServiceStats`] read the same atomics at any moment;
/// with it off, every cell is fresh and no name is built.
pub struct StatsStore {
    submitted: Counter,
    completed: Counter,
    approx_served: Counter,
    rejected: Counter,
    timed_out: Counter,
    quarantined: Counter,
    unavailable: Counter,
    shard_queries: Vec<Counter>,
    /// Submit-to-completion latencies of successful completions, as a
    /// lock-free log-bucketed histogram: bounded memory at any request
    /// volume, and percentiles that are a pure function of the *set* of
    /// samples (no ring-overwrite order dependence).
    latencies: Arc<Histogram>,
}

impl StatsStore {
    /// A store for a front over `shards` shards, its cells named under
    /// `prefix` in `obs`'s registry (fresh cells when `obs` is off).
    pub fn new(prefix: &str, shards: usize, obs: &Obs) -> Self {
        let registry = obs.registry();
        let counter = |name: std::fmt::Arguments<'_>| {
            registry.map_or_else(Counter::new, |r| r.counter(&format!("{prefix}{name}")))
        };
        Self {
            submitted: counter(format_args!("submitted")),
            completed: counter(format_args!("completed")),
            approx_served: counter(format_args!("approx_served")),
            rejected: counter(format_args!("rejected")),
            timed_out: counter(format_args!("timed_out")),
            quarantined: counter(format_args!("quarantined")),
            unavailable: counter(format_args!("unavailable")),
            shard_queries: (0..shards)
                .map(|i| counter(format_args!("shard{i}_queries")))
                .collect(),
            latencies: registry.map_or_else(
                || Arc::new(Histogram::new()),
                |r| r.histogram(&format!("{prefix}latency_seconds")),
            ),
        }
    }

    /// Counts one submission.
    pub fn submit(&self) {
        self.submitted.inc();
    }

    /// Counts `n` requests sent to shard `shard`.
    pub fn route(&self, shard: usize, n: u64) {
        self.shard_queries[shard].add(n);
    }

    /// Counts one resolution in its class — the one classification of
    /// both fronts. An `Ok` answer records its `latency` (service-clock
    /// seconds) and, when `approx`, counts as ε-served; `Shutdown` and
    /// `Unavailable` both count as `unavailable`: no shard answered.
    pub fn resolve(&self, kind: OutcomeKind, latency: f64, approx: bool) {
        match kind {
            OutcomeKind::Ok => {
                self.latencies.record_secs(latency);
                self.completed.inc();
                if approx {
                    self.approx_served.inc();
                }
            }
            OutcomeKind::Panicked => self.quarantined.inc(),
            OutcomeKind::TimedOut => self.timed_out.inc(),
            OutcomeKind::Rejected => self.rejected.inc(),
            OutcomeKind::Shutdown | OutcomeKind::Unavailable => self.unavailable.inc(),
        }
    }

    /// The front's [`ServiceStats`]: `front` carries what only the front
    /// knows (the service's batch, queue and approximation counters and
    /// per-shard batches, restarts and cache stats; a router's retries,
    /// reconnects and drops), and the store fills in the rest —
    /// `submitted`, the resolution classes, per-shard `queries` and the
    /// latency percentiles.
    pub fn snapshot(&self, front: ServiceStats) -> ServiceStats {
        let (latency_p50, latency_p95) = if self.latencies.count() == 0 {
            (f64::NAN, f64::NAN)
        } else {
            let quantile = |q| self.latencies.quantile_secs(q);
            (quantile(0.50), quantile(0.95))
        };
        let mut per_shard = front.per_shard;
        per_shard.resize(self.shard_queries.len(), ShardStats::default());
        for (shard, queries) in per_shard.iter_mut().zip(&self.shard_queries) {
            shard.queries = queries.get();
        }
        ServiceStats {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            approx_served: self.approx_served.get(),
            rejected: self.rejected.get(),
            timed_out: self.timed_out.get(),
            quarantined: self.quarantined.get(),
            unavailable: self.unavailable.get(),
            per_shard,
            latency_p50,
            latency_p95,
            ..front
        }
    }
}

/// One shard's batch-layer counters in [`StatsShared`].
struct ShardCells {
    batches: Counter,
    restarts: Counter,
}

/// [`serve`]'s counters: the [`StatsStore`] under `service_*` names,
/// plus the batch-layer cells only the batcher and its workers move,
/// registered the same way.
struct StatsShared {
    store: StatsStore,
    approx_batches: Counter,
    queue_depth: Gauge,
    queue_depth_peak: Gauge,
    /// Admission-control occupancy: requests submitted but not yet
    /// dispatched to a shard (submit channel + accumulating buffers).
    /// A CAS bound, not a metric, so it is no registry cell. Kept
    /// separate from `queue_depth`, which deliberately counts only
    /// *buffered* requests so its peak stays a deterministic function of
    /// the submission sequence under a virtual clock.
    queued: AtomicU64,
    batches: Counter,
    size_triggered: Counter,
    deadline_triggered: Counter,
    drain_triggered: Counter,
    coalesced: Counter,
    lps_solved: Counter,
    shards: Vec<ShardCells>,
}

impl StatsShared {
    fn new(shards: usize, obs: &Obs) -> Self {
        let registry = obs.registry();
        let counter = |name: &str| registry.map_or_else(Counter::new, |r| r.counter(name));
        let gauge = |name: &str| registry.map_or_else(Gauge::new, |r| r.gauge(name));
        let shard_counter = |i: usize, what: &str| {
            registry.map_or_else(Counter::new, |r| {
                r.counter(&format!("service_shard{i}_{what}"))
            })
        };
        Self {
            store: StatsStore::new("service_", shards, obs),
            approx_batches: counter("service_approx_batches"),
            queue_depth: gauge("service_queue_depth"),
            queue_depth_peak: gauge("service_queue_depth_peak"),
            queued: AtomicU64::new(0),
            batches: counter("service_batches"),
            size_triggered: counter("service_size_triggered"),
            deadline_triggered: counter("service_deadline_triggered"),
            drain_triggered: counter("service_drain_triggered"),
            coalesced: counter("service_coalesced"),
            lps_solved: counter("service_lps_solved"),
            shards: (0..shards)
                .map(|i| ShardCells {
                    batches: shard_counter(i, "batches"),
                    restarts: shard_counter(i, "restarts"),
                })
                .collect(),
        }
    }

    /// Counts `response` in its resolution class and sends it — the one
    /// place every ticket is answered. A dropped ticket is fine: the
    /// client walked away from the response.
    fn answer<S: MpqSpace>(
        &self,
        reply: &mpsc::Sender<QueryResponse<S>>,
        response: QueryResponse<S>,
    ) {
        let approx = response.served_epsilon.is_some();
        self.store
            .resolve(response.kind(), response.latency, approx);
        let _ = reply.send(response);
    }

    fn snapshot(&self, caches: Vec<CacheStats>, subtrees: Vec<CacheStats>) -> ServiceStats {
        self.store.snapshot(ServiceStats {
            approx_batches: self.approx_batches.get(),
            queue_depth: self.queue_depth.get(),
            queue_depth_peak: self.queue_depth_peak.get(),
            batches: self.batches.get(),
            size_triggered: self.size_triggered.get(),
            deadline_triggered: self.deadline_triggered.get(),
            drain_triggered: self.drain_triggered.get(),
            coalesced: self.coalesced.get(),
            lps_solved: self.lps_solved.get(),
            per_shard: self
                .shards
                .iter()
                .zip(caches.into_iter().zip(subtrees))
                .map(|(cells, (cache, subtree))| ShardStats {
                    batches: cells.batches.get(),
                    restarts: cells.restarts.get(),
                    cache,
                    subtree,
                    ..ShardStats::default()
                })
                .collect(),
            ..ServiceStats::default()
        })
    }
}

/// One buffered request travelling batcher → shard worker.
struct Pending<S: MpqSpace> {
    submitted: SubmittedQuery,
    submitted_at: f64,
    reply: mpsc::Sender<QueryResponse<S>>,
    /// This request's lead on its [`AnswerCache`] key (`None`: it runs
    /// unshared after a key collision, or its lead is resolved).
    lead: Option<Lead<QueryResponse<S>, Waiter<S>>>,
}

/// A copy waiting on its leader: its submit time and its ticket's
/// channel.
type Waiter<S> = (f64, mpsc::Sender<QueryResponse<S>>);

impl<S: MpqSpace> Pending<S> {
    /// Answers this request and resolves its lead. A shared answer goes
    /// to the copies waiting on it; the copies of a `Panicked` one are
    /// returned for the caller to give one attempt each.
    fn resolve(
        &mut self,
        stats: &StatsShared,
        response: QueryResponse<S>,
        now: f64,
    ) -> Vec<Waiter<S>> {
        let rerun = match self.lead.take().map(|lead| lead.resolve(&response)) {
            Some(Release::Share(copies)) => {
                for (submitted_at, reply) in copies {
                    let mut copy = response.clone();
                    copy.latency = now - submitted_at;
                    stats.answer(&reply, copy);
                }
                Vec::new()
            }
            Some(Release::Rerun(copies)) => copies,
            None => Vec::new(),
        };
        stats.answer(&self.reply, response);
        rerun
    }
}

/// What `submit` sends the batcher.
enum Arrival<S: MpqSpace> {
    /// A leader (or an unshared request) to buffer and batch.
    Request(Pending<S>),
    /// A copy's submit time. The batcher runs the deadline sweep a
    /// request arriving then would run, so under a virtual clock every
    /// clock advance still reaches the batcher through the submission
    /// sequence, and which buffers expire stays a function of it.
    Sweep(f64),
}

/// One dispatched batch.
struct ShardBatch<S: MpqSpace> {
    seq: u64,
    trigger: BatchTrigger,
    /// `Some(ε)` when [`ServiceConfig::with_approx`] downgraded this
    /// (deadline-triggered) batch — decided by the batcher at flush
    /// time, so every query of the batch and every re-run copy runs at
    /// the same ε.
    epsilon: Option<f64>,
    requests: Vec<Pending<S>>,
}

/// Stringifies a caught panic payload (panics carry `&str` or `String`
/// payloads unless raised via `panic_any`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One attempt at one query, on the calling thread — the one quarantine
/// path of both serving fronts ([`serve`]'s shard workers and the
/// network shard server): `optimize_at(ε)` when `epsilon` is set,
/// `optimize` otherwise, then `finish` on the solution, all under one
/// `catch_unwind`. `Err` holds the panic message. Each query gets exactly
/// one attempt, so a panic is attributed to its own query and never
/// re-runs a healthy one; `finish` sits inside the guard so that a
/// caller's post-processing cannot unwind either.
///
/// `AssertUnwindSafe` is justified by the session's design: the fault
/// hook fires *before* any optimizer state is touched, so an injected
/// panic cannot poison session internals; a genuine mid-optimize panic
/// may poison a session-internal lock, in which case later attempts that
/// meet it panic and are quarantined too, rather than taking the process
/// down.
pub fn optimize_isolated<S, M, T>(
    session: &OptimizerSession<'_, S, M>,
    query: &Query,
    epsilon: Option<f64>,
    finish: impl FnOnce(MpqSolution<S>) -> T,
) -> Result<T, String>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized,
{
    catch_unwind(AssertUnwindSafe(|| {
        finish(match epsilon {
            Some(e) => session.optimize_at(query, e),
            None => session.optimize(query),
        })
    }))
    .map_err(panic_message)
}

/// The submit-side handle passed to [`serve`]'s body closure.
pub struct ServiceHandle<'a, S: MpqSpace, M: ParametricCostModel + ?Sized> {
    // `mpsc::Sender` is `Send` but not `Sync`; the mutex makes the handle
    // shareable across client threads (submission rate is far below the
    // lock's throughput).
    tx: Mutex<mpsc::Sender<Arrival<S>>>,
    clock: ServiceClock,
    max_queue: Option<usize>,
    stats: Arc<StatsShared>,
    obs: Obs,
    sessions: &'a ShardedSession<'a, S, M>,
    /// Validation, coalescing and the panic rule (see the crate docs).
    answers: AnswerCache<QueryResponse<S>, Waiter<S>>,
}

impl<S, M> ServiceHandle<'_, S, M>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized,
{
    /// Submits a query; returns the completion ticket. Accepts anything
    /// convertible into a [`SubmittedQuery`] (a bare `Query` works; use
    /// [`SubmittedQuery::with_deadline`] for a latency budget).
    ///
    /// Never panics and never blocks on a full service: a query failing
    /// [`Query::validate`] resolves immediately to
    /// [`QueryOutcome::Panicked`] with the `invalid query: …` message
    /// `optimize` would panic with, counted `quarantined` and never
    /// batched; a copy of a resolved leader resolves immediately to the
    /// leader's answer (see the crate docs on coalescing); if admission
    /// control is at its bound the ticket resolves immediately to
    /// [`QueryOutcome::Rejected`]; if the service has already shut down
    /// it resolves to [`QueryOutcome::Shutdown`].
    pub fn submit(&self, query: impl Into<SubmittedQuery>) -> ServiceTicket<S> {
        let submitted = query.into();
        let (reply_tx, reply_rx) = mpsc::channel();
        let ticket = ServiceTicket { rx: reply_rx };
        let mut span = self.obs.span("submit");
        self.stats.store.submit();
        let submitted_at = (self.clock)();
        // Admission control, asked only for a request that runs: reserve
        // a queue slot or reject. The reservation is released when the
        // request leaves the buffers (dispatch, expiry, or shutdown
        // drain).
        let admit = || match self.max_queue {
            Some(max) => self
                .stats
                .queued
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| {
                    (q < max as u64).then_some(q + 1)
                })
                .is_ok(),
            None => {
                self.stats.queued.fetch_add(1, Ordering::Relaxed);
                true
            }
        };
        let waiter = || (submitted_at, reply_tx.clone());
        let lead = match self.answers.lookup(&submitted, waiter, admit) {
            Lookup::Run(lead) => lead,
            Lookup::Invalid(message) => {
                span.record("invalid", 1);
                let outcome = QueryOutcome::Panicked { message };
                self.stats.answer(&reply_tx, unrouted(outcome, 0.0));
                return ticket;
            }
            Lookup::Refused => {
                span.record("rejected", 1);
                self.stats
                    .answer(&reply_tx, unrouted(QueryOutcome::Rejected, 0.0));
                return ticket;
            }
            Lookup::Done(answer) => {
                // Stamped before the clone: the latency covers the lookup.
                let latency = (self.clock)() - submitted_at;
                let mut response = QueryResponse::clone(&answer);
                response.latency = latency;
                self.stats.answer(&reply_tx, response);
                self.coalesced(&mut span, submitted_at);
                return ticket;
            }
            Lookup::Waiting => {
                self.coalesced(&mut span, submitted_at);
                return ticket;
            }
        };
        let pending = Pending {
            submitted,
            submitted_at,
            reply: reply_tx,
            lead,
        };
        // A poisoned submit lock only means another client thread
        // panicked *while holding it*; the sender inside is still valid.
        let sender = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        if let Err(mpsc::SendError(Arrival::Request(mut pending))) =
            sender.send(Arrival::Request(pending))
        {
            // The batcher is gone — the service is shutting down (or was
            // killed). Answer the ticket instead of panicking the client.
            self.stats.queued.fetch_sub(1, Ordering::Relaxed);
            let response = unrouted(QueryOutcome::Shutdown, 0.0);
            pending.resolve(&self.stats, response, (self.clock)());
        }
        ticket
    }

    /// Counts a copy and sends the batcher its submit time (see
    /// [`Arrival::Sweep`]).
    fn coalesced(&self, span: &mut SpanGuard, submitted_at: f64) {
        span.record("coalesced", 1);
        self.stats.coalesced.inc();
        let sender = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        // A gone batcher has nothing left to sweep.
        let _ = sender.send(Arrival::Sweep(submitted_at));
    }

    /// A live snapshot of the service counters (queue depth, batches,
    /// trigger mix, rejection/quarantine counts, per-shard cache
    /// hit/miss and restarts, latency percentiles).
    pub fn stats(&self) -> ServiceStats {
        self.stats.snapshot(
            self.sessions.cache_stats_per_shard(),
            self.sessions.subtree_stats_per_shard(),
        )
    }
}

/// One shard's accumulating buffer.
struct ShardBuffer<S: MpqSpace> {
    requests: Vec<Pending<S>>,
    /// Service-clock *batching* deadline of the oldest buffered request
    /// (`submitted_at + max_wait`); meaningless while empty. (Distinct
    /// from the per-query [`SubmittedQuery::deadline`] budget.)
    deadline: f64,
}

impl<S: MpqSpace> ShardBuffer<S> {
    /// Empties the buffer for dispatch.
    fn take(&mut self, stats: &StatsShared) -> Vec<Pending<S>> {
        let requests = std::mem::take(&mut self.requests);
        stats.queue_depth.sub(requests.len() as u64);
        requests
    }
}

/// Runs the service for the duration of `body`: spawns the batcher and
/// one worker per shard of `sessions` (scoped threads — the sessions and
/// their model are borrowed, not `'static`), hands `body` the submit
/// handle, and on return drains the buffers, joins every thread and
/// returns `body`'s result together with the final [`ServiceStats`].
///
/// Fault tolerance: each query gets one attempt under its own
/// `catch_unwind` ([`optimize_isolated`]); a panicking query is answered
/// [`QueryOutcome::Panicked`], its batch-mates are answered normally,
/// and the shard worker survives. `serve` itself
/// only propagates a panic raised by `body` or by the service plumbing
/// — never one raised inside a query's optimization.
///
/// Batching, sharding and eviction never change per-query results — see
/// the crate-level determinism contract.
pub fn serve<S, M, R>(
    sessions: &ShardedSession<'_, S, M>,
    config: ServiceConfig,
    body: impl FnOnce(&ServiceHandle<'_, S, M>) -> R,
) -> (R, ServiceStats)
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized,
{
    let shards = sessions.num_shards();
    let policy = config.policy;
    let approx = config.approx;
    assert!(policy.max_batch >= 1, "max_batch must be at least 1");
    let clock: ServiceClock = config.clock.unwrap_or_else(|| {
        let start = Instant::now();
        Arc::new(move || start.elapsed().as_secs_f64())
    });
    let obs = config.obs;
    let stats = Arc::new(StatsShared::new(shards, &obs));
    if let Some(registry) = obs.registry() {
        for i in 0..shards {
            sessions
                .shard(i)
                .register_obs(registry, &format!("service_shard{i}_"));
        }
    }

    let out = std::thread::scope(|scope| {
        let (sub_tx, sub_rx) = mpsc::channel::<Arrival<S>>();
        let mut batch_txs = Vec::with_capacity(shards);
        // Shard workers: one thread per shard, each draining its own
        // batch channel through its own session, one query at a time. A
        // query's whole attempt runs on the worker's thread, so its LP
        // count is exact as a thread-local delta.
        for shard in 0..shards {
            let (batch_tx, batch_rx) = mpsc::channel::<ShardBatch<S>>();
            batch_txs.push(batch_tx);
            let stats = Arc::clone(&stats);
            let clock = Arc::clone(&clock);
            let obs = obs.clone();
            let session = sessions.shard(shard);
            scope.spawn(move || {
                let cells = &stats.shards[shard];
                for batch in batch_rx {
                    let batch_size = batch.requests.len();
                    let mut span = obs.span("shard_batch");
                    span.record("shard", shard as u64);
                    span.record("batch_seq", batch.seq);
                    span.record("batch_size", batch_size as u64);
                    span.record("trigger", batch.trigger as u64);
                    if batch.epsilon.is_some() {
                        span.record("approx", 1);
                    }
                    cells.batches.inc();
                    stats.store.route(shard, batch_size as u64);
                    let lps_before = thread_solved();
                    let restarts_before = cells.restarts.get();
                    // One attempt, its LPs counted before it is answered.
                    let attempt = |query: &Query| {
                        let lps = thread_solved();
                        let result = optimize_isolated(session, query, batch.epsilon, |s| s);
                        stats.lps_solved.add(thread_solved() - lps);
                        match result {
                            Ok(solution) => QueryOutcome::Ok(solution),
                            Err(message) => {
                                cells.restarts.inc();
                                QueryOutcome::Panicked { message }
                            }
                        }
                    };
                    let respond = |outcome, latency| QueryResponse {
                        outcome,
                        route: Some(BatchRoute {
                            shard,
                            batch_seq: batch.seq,
                            batch_size,
                            trigger: batch.trigger,
                        }),
                        latency,
                        served_epsilon: batch.epsilon,
                    };
                    for mut pending in batch.requests {
                        let outcome = attempt(&pending.submitted.query);
                        let now = clock();
                        let response = respond(outcome, now - pending.submitted_at);
                        // Copies of a panicked leader re-run alone, one
                        // attempt each, at the batch's ε.
                        for (submitted_at, reply) in pending.resolve(&stats, response, now) {
                            stats.store.route(shard, 1);
                            let outcome = attempt(&pending.submitted.query);
                            stats.answer(&reply, respond(outcome, clock() - submitted_at));
                        }
                    }
                    span.record("lps_delta", thread_solved() - lps_before);
                    span.record("restarts_delta", cells.restarts.get() - restarts_before);
                }
            });
        }

        // The batcher: accumulates per-shard buffers and dispatches on
        // size, deadline, or drain.
        {
            let stats = Arc::clone(&stats);
            let clock = Arc::clone(&clock);
            let obs = obs.clone();
            scope.spawn(move || {
                let max_wait_secs = policy.max_wait.as_secs_f64();
                let mut buffers: Vec<ShardBuffer<S>> = (0..shards)
                    .map(|_| ShardBuffer {
                        requests: Vec::new(),
                        deadline: 0.0,
                    })
                    .collect();
                let mut seq = 0u64;
                // Sends `requests` to `shard` as one batch.
                let mut dispatch =
                    |shard: usize, trigger: BatchTrigger, requests: Vec<Pending<S>>| {
                        if requests.is_empty() {
                            return;
                        }
                        // Only deadline-triggered batches run at ε.
                        let epsilon = approx.filter(|_| trigger == BatchTrigger::Deadline);
                        let mut span = obs.span("batch_flush");
                        span.record("shard", shard as u64);
                        span.record("trigger", trigger as u64);
                        stats
                            .queued
                            .fetch_sub(requests.len() as u64, Ordering::Relaxed);
                        // Per-query deadline budget, checked at dispatch:
                        // requests already expired are answered TimedOut
                        // without burning optimizer time; the batch forms
                        // from the rest.
                        let now = clock();
                        let (live, expired): (Vec<_>, Vec<_>) = requests
                            .into_iter()
                            .partition(|p| p.submitted.deadline.is_none_or(|d| now <= d));
                        span.record("expired", expired.len() as u64);
                        span.record("dispatched", live.len() as u64);
                        for mut pending in expired {
                            let latency = now - pending.submitted_at;
                            pending.resolve(&stats, unrouted(QueryOutcome::TimedOut, latency), now);
                        }
                        if live.is_empty() {
                            return;
                        }
                        match batch_txs[shard].send(ShardBatch {
                            seq,
                            trigger,
                            epsilon,
                            requests: live,
                        }) {
                            Ok(()) => {
                                seq += 1;
                                stats.batches.inc();
                                if epsilon.is_some() {
                                    stats.approx_batches.inc();
                                }
                                match trigger {
                                    BatchTrigger::Size => stats.size_triggered.inc(),
                                    BatchTrigger::Deadline => stats.deadline_triggered.inc(),
                                    BatchTrigger::Drain => stats.drain_triggered.inc(),
                                }
                            }
                            Err(mpsc::SendError(batch)) => {
                                // The shard worker is gone without being
                                // told to stop — it can only have been
                                // killed from outside (workers catch query
                                // panics). Answer the whole batch as
                                // Shutdown rather than panicking the batcher
                                // and stranding every other ticket.
                                for mut pending in batch.requests {
                                    let latency = now - pending.submitted_at;
                                    let response = unrouted(QueryOutcome::Shutdown, latency);
                                    pending.resolve(&stats, response, now);
                                }
                            }
                        }
                    };
                loop {
                    // Blocking recv while idle; with buffered requests,
                    // sleep only until the earliest buffered deadline
                    // (floored at 1 ms scheduling granularity, capped at
                    // `max_wait`), so wall-clock deadlines overshoot by
                    // at most that floor plus batch processing — even
                    // while other shards keep receiving traffic, every
                    // iteration recomputes the remaining time. Virtual
                    // clocks advance only at submissions, and every
                    // submit that reaches past validation and admission
                    // sends an arrival (a copy sends its submit time), so
                    // the timeout wake re-reads an unchanged `now` — its
                    // sweep only ever fires on an *empty* channel (all
                    // sent arrivals admitted), which makes it equivalent
                    // to the next arrival's sweep: batch contents stay a
                    // pure function of the submission sequence.
                    let earliest = buffers
                        .iter()
                        .filter(|b| !b.requests.is_empty())
                        .map(|b| b.deadline)
                        .fold(f64::INFINITY, f64::min);
                    let received = if earliest.is_finite() {
                        let remaining = Duration::from_secs_f64((earliest - clock()).max(0.0));
                        let timeout = remaining.min(policy.max_wait).max(Duration::from_millis(1));
                        match sub_rx.recv_timeout(timeout) {
                            Ok(p) => Some(p),
                            Err(mpsc::RecvTimeoutError::Timeout) => None,
                            Err(mpsc::RecvTimeoutError::Disconnected) => break,
                        }
                    } else {
                        match sub_rx.recv() {
                            Ok(p) => Some(p),
                            Err(_) => break,
                        }
                    };
                    // Deadline sweep. On an arrival it runs *before*
                    // admitting the new request, keyed on its submit
                    // timestamp: an expired buffer dispatches without the
                    // new request, exactly as if the timeout wake had won
                    // the race — batch contents are a pure function of
                    // the submission sequence. On a timeout wake the
                    // channel was empty for the whole timeout, so no
                    // admitted-but-unswept arrival exists and the sweep
                    // matches what the next arrival would do.
                    let now = match &received {
                        Some(Arrival::Request(p)) => p.submitted_at,
                        Some(Arrival::Sweep(at)) => *at,
                        None => clock(),
                    };
                    for (shard, buffer) in buffers.iter_mut().enumerate() {
                        if !buffer.requests.is_empty() && buffer.deadline <= now {
                            let requests = buffer.take(&stats);
                            dispatch(shard, BatchTrigger::Deadline, requests);
                        }
                    }
                    let Some(Arrival::Request(mut pending)) = received else {
                        continue;
                    };
                    // Routing consults the query's shape; a malformed
                    // query that panics the affinity computation is
                    // quarantined right here, so it cannot take the
                    // batcher down.
                    let shard = match catch_unwind(AssertUnwindSafe(|| {
                        sessions.shard_of(&pending.submitted.query)
                    })) {
                        Ok(shard) => shard,
                        Err(payload) => {
                            stats.queued.fetch_sub(1, Ordering::Relaxed);
                            let now = clock();
                            let message = panic_message(payload);
                            let panicked = |submitted_at: f64| {
                                let outcome = QueryOutcome::Panicked {
                                    message: message.clone(),
                                };
                                unrouted(outcome, now - submitted_at)
                            };
                            // Routing is pure in the query, so its copies
                            // would panic the same way.
                            let leader = panicked(pending.submitted_at);
                            for (submitted_at, reply) in pending.resolve(&stats, leader, now) {
                                stats.answer(&reply, panicked(submitted_at));
                            }
                            continue;
                        }
                    };
                    if buffers[shard].requests.is_empty() {
                        buffers[shard].deadline = pending.submitted_at + max_wait_secs;
                    }
                    buffers[shard].requests.push(pending);
                    let depth = stats.queue_depth.add(1);
                    stats.queue_depth_peak.raise(depth);
                    if buffers[shard].requests.len() >= policy.max_batch {
                        let requests = buffers[shard].take(&stats);
                        dispatch(shard, BatchTrigger::Size, requests);
                    }
                }
                // Shutdown: drain whatever is left, in shard order —
                // every buffered ticket gets an answer before the
                // workers are released.
                for (shard, buffer) in buffers.iter_mut().enumerate() {
                    let requests = buffer.take(&stats);
                    dispatch(shard, BatchTrigger::Drain, requests);
                }
                // `batch_txs` drop here, terminating the shard workers.
            });
        }

        let handle = ServiceHandle {
            tx: Mutex::new(sub_tx),
            clock: Arc::clone(&clock),
            max_queue: config.max_queue,
            stats: Arc::clone(&stats),
            obs: obs.clone(),
            sessions,
            answers: AnswerCache::default(),
        };
        let out = body(&handle);
        // Dropping the handle closes the submit channel: the batcher
        // drains and exits, the workers follow, and the scope joins them.
        drop(handle);
        out
    });
    let final_stats = stats.snapshot(
        sessions.cache_stats_per_shard(),
        sessions.subtree_stats_per_shard(),
    );
    (out, final_stats)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use mpq_catalog::fault::{query_digest, silence_injected_panics, Fault, FaultPlan};
    use mpq_catalog::generator::{generate_workload, GeneratorConfig, WorkloadConfig};
    use mpq_catalog::graph::Topology;
    use mpq_cloud::model::CloudCostModel;
    use mpq_core::grid_space::GridSpace;
    use mpq_core::session::{OptimizerSession, SessionConfig};
    use mpq_core::OptimizerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn workload(n: usize, batch: usize, overlap: f64, seed: u64) -> Vec<Query> {
        let cfg = WorkloadConfig::uniform(
            GeneratorConfig::paper(n, Topology::Chain, 1),
            batch,
            overlap,
        );
        generate_workload(&cfg, &mut StdRng::seed_from_u64(seed)).queries
    }

    /// A workload of digest-distinct queries — fault plans key on the
    /// content digest, so tests poisoning "query i" need distinctness.
    fn distinct_workload(n: usize, batch: usize, seed: u64) -> Vec<Query> {
        let queries = workload(n, batch, 0.0, seed);
        let digests: HashSet<u64> = queries.iter().map(query_digest).collect();
        assert_eq!(digests.len(), queries.len(), "pick a different seed");
        queries
    }

    /// `n` digest-distinct queries on one shard: copies of one query
    /// (overlap 1.0 — identical scan shapes, so one affinity) told apart
    /// by a join selectivity, which no scan shape reads. Tests that need
    /// several requests to reach a shard use these, since plain copies
    /// would coalesce onto one leader.
    fn same_shard_workload(n: usize, seed: u64) -> Vec<Query> {
        let mut queries = workload(3, n, 1.0, seed);
        for (i, q) in queries.iter_mut().enumerate() {
            q.joins[0].selectivity *= 1.0 - i as f64 * 1e-3;
        }
        let model = CloudCostModel::default();
        let affinities: HashSet<u64> = queries
            .iter()
            .map(|q| mpq_core::session::query_affinity(q, &model))
            .collect();
        let digests: HashSet<u64> = queries.iter().map(query_digest).collect();
        assert_eq!((affinities.len(), digests.len()), (1, n));
        queries
    }

    fn sessions<'m>(
        model: &'m CloudCostModel,
        shards: usize,
        capacity: Option<usize>,
    ) -> ShardedSession<'m, GridSpace, CloudCostModel> {
        sessions_with_plan(model, shards, capacity, None)
    }

    fn sessions_with_plan<'m>(
        model: &'m CloudCostModel,
        shards: usize,
        capacity: Option<usize>,
        plan: Option<&Arc<FaultPlan>>,
    ) -> ShardedSession<'m, GridSpace, CloudCostModel> {
        let opt = OptimizerConfig::default_for(1);
        let mut cfg = SessionConfig::new(opt.clone());
        cfg.cache_capacity = capacity;
        if let Some(plan) = plan {
            cfg.fault_hook = Some(plan.hook(|_| {}));
        }
        ShardedSession::build(shards, model, &cfg, move || {
            GridSpace::for_unit_box(1, &opt, 2).unwrap()
        })
    }

    /// Plain one-by-one reference run (the determinism oracle).
    fn reference(queries: &[Query], model: &CloudCostModel) -> Vec<MpqSolution<GridSpace>> {
        let opt = OptimizerConfig::default_for(1);
        queries
            .iter()
            .map(|q| {
                let space = GridSpace::for_unit_box(1, &opt, 2).unwrap();
                let session = OptimizerSession::new(space, model, opt.clone());
                session.optimize(q)
            })
            .collect()
    }

    /// Per-query facts that must match bit for bit between the service
    /// and a plain session: counters and the frontier at probe points.
    type Fingerprint = (
        u64,
        u64,
        usize,
        Vec<Vec<(mpq_core::plan::PlanId, Vec<f64>)>>,
    );

    fn fingerprint(space: &GridSpace, solution: &MpqSolution<GridSpace>) -> Fingerprint {
        (
            solution.stats.plans_created,
            solution.stats.plans_pruned,
            solution.stats.final_plan_count,
            [0.0, 0.5, 1.0]
                .iter()
                .map(|&x| solution.frontier_at(space, &[x]))
                .collect(),
        )
    }

    /// The fingerprint of `query` optimized alone through a plain session.
    fn plain_fingerprint(query: &Query, model: &CloudCostModel) -> Fingerprint {
        let opt = OptimizerConfig::default_for(1);
        let space = GridSpace::for_unit_box(1, &opt, 2).unwrap();
        let session = OptimizerSession::new(space, model, opt.clone());
        fingerprint(session.space(), &session.optimize(query))
    }

    /// Service responses equal plain one-by-one session runs bit for bit.
    #[test]
    fn service_matches_plain_session() {
        let model = CloudCostModel::default();
        let queries = workload(3, 5, 0.5, 11);
        let reference = reference(&queries, &model);
        let shard_sessions = sessions(&model, 2, None);
        let config = ServiceConfig::new(BatchPolicy::new(2, Duration::from_millis(1)));
        let (responses, stats) = serve(&shard_sessions, config, |handle| {
            let tickets: Vec<_> = queries.iter().map(|q| handle.submit(q.clone())).collect();
            tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
        });
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(
            stats.size_triggered + stats.deadline_triggered + stats.drain_triggered,
            stats.batches,
            "every batch carries exactly one trigger"
        );
        for (resp, reference) in responses.into_iter().zip(&reference) {
            assert!(resp.latency >= 0.0);
            let route = resp.route.expect("completed response carries a route");
            assert!(route.shard < 2);
            let solution = resp.expect_ok();
            assert_eq!(solution.stats.plans_created, reference.stats.plans_created);
            assert_eq!(solution.stats.plans_pruned, reference.stats.plans_pruned);
            assert_eq!(solution.plans.len(), reference.plans.len());
        }
    }

    /// With a virtual clock frozen at 0, only the size trigger (and the
    /// final drain) can fire, and batch sizes obey `max_batch`.
    #[test]
    fn size_trigger_bounds_batches() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(7, 3);
        let shard_sessions = sessions(&model, 2, None);
        let config = ServiceConfig::new(BatchPolicy::new(3, Duration::from_secs(3600)))
            .with_clock(VirtualClock::new().clock());
        // The 7th request only flushes at drain, so tickets are waited
        // *after* `serve` (responses buffer in their channels).
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            queries
                .iter()
                .map(|q| handle.submit(q.clone()))
                .collect::<Vec<_>>()
        });
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(stats.deadline_triggered, 0, "frozen clock, huge deadline");
        // One affinity → one shard takes all 7: two size batches of 3
        // and a drained single.
        assert_eq!(stats.size_triggered, 2);
        assert_eq!(stats.drain_triggered, 1);
        assert_eq!(stats.coalesced, 0, "no query repeats");
        for resp in &responses {
            assert_eq!(resp.kind(), OutcomeKind::Ok);
            assert!(resp.route.unwrap().batch_size <= 3);
            assert_eq!(resp.latency, 0.0, "virtual clock never advanced");
        }
        let busy: Vec<&ShardStats> = stats.per_shard.iter().filter(|s| s.queries > 0).collect();
        assert_eq!(busy.len(), 1, "one affinity → one shard");
        assert_eq!(busy[0].queries, 7);
        assert_eq!(busy[0].restarts, 0, "no faults, no restarts");
        assert!(
            busy[0].cache.hits + busy[0].subtree.hits > 0,
            "queries over the same tables share lifts or whole subtrees"
        );
    }

    /// Advancing the virtual clock past the deadline dispatches a partial
    /// batch on the next arrival.
    #[test]
    fn deadline_trigger_fires_on_virtual_clock() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(3, 5);
        let shard_sessions = sessions(&model, 1, None);
        let vclock = VirtualClock::new();
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_micros(50)))
            .with_clock(vclock.clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            let t0 = handle.submit(queries[0].clone());
            // Advance the clock past the 50µs deadline; the next arrival
            // sweeps the expired buffer before joining it.
            vclock.advance_to_micros(100);
            let t1 = handle.submit(queries[1].clone());
            let t2 = handle.submit(queries[2].clone());
            // t0 completes in-flight; t1/t2 flush at drain, so all waits
            // happen after `serve`.
            vec![t0, t1, t2]
        });
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let routes: Vec<BatchRoute> = responses.iter().map(|r| r.route.unwrap()).collect();
        assert_eq!(routes[0].trigger, BatchTrigger::Deadline);
        assert_eq!(routes[0].batch_size, 1);
        assert!((responses[0].latency - 1e-4).abs() < 1e-9);
        assert_eq!(routes[1].trigger, BatchTrigger::Drain);
        assert_eq!(routes[2].trigger, BatchTrigger::Drain);
        assert_eq!(stats.deadline_triggered, 1);
        assert_eq!(stats.drain_triggered, 1);
        assert_eq!(stats.queue_depth, 0, "nothing left buffered");
        assert_eq!(stats.queue_depth_peak, 2);
    }

    /// Tiny cache capacities evict but never change results.
    #[test]
    fn tiny_capacity_identical_results() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(6, 9);
        let run = |capacity: Option<usize>| {
            let shard_sessions = sessions(&model, 2, capacity);
            let config = ServiceConfig::new(BatchPolicy::new(2, Duration::from_millis(1)));
            serve(&shard_sessions, config, |handle| {
                let tickets: Vec<_> = queries.iter().map(|q| handle.submit(q.clone())).collect();
                tickets
                    .into_iter()
                    .map(|t| {
                        let s = t.wait().expect_ok();
                        (s.stats.plans_created, s.plans.len())
                    })
                    .collect::<Vec<_>>()
            })
        };
        let (unbounded, _) = run(None);
        let (bounded, stats) = run(Some(1));
        assert_eq!(unbounded, bounded);
        let evictions: u64 = stats.per_shard.iter().map(|s| s.cache.evictions).sum();
        assert!(evictions > 0, "capacity 1 must evict on 6 shared queries");
    }

    /// Mid-run stats snapshots are coherent and percentiles ordered.
    #[test]
    fn stats_snapshot_mid_run() {
        let model = CloudCostModel::default();
        // Four tables: 2-table queries in a 1-D space solve no LP at all
        // since 1-D exact ties skip the solver.
        let queries = workload(4, 4, 0.0, 7);
        let shard_sessions = sessions(&model, 4, None);
        let config = ServiceConfig::new(BatchPolicy::new(1, Duration::from_millis(1)));
        let ((), stats) = serve(&shard_sessions, config, |handle| {
            let tickets: Vec<_> = queries.iter().map(|q| handle.submit(q.clone())).collect();
            for t in tickets {
                t.wait();
            }
            let mid = handle.stats();
            assert_eq!(mid.completed, 4);
            assert!(mid.latency_p50 <= mid.latency_p95);
            assert!(mid.lps_solved > 0);
        });
        assert_eq!(stats.batches, 4, "max_batch 1 → one batch per query");
        assert_eq!(stats.size_triggered, 4);
        let shard_queries: u64 = stats.per_shard.iter().map(|s| s.queries).sum();
        assert_eq!(shard_queries, 4);
    }

    /// The acceptance-criterion demo: a poison query submitted alongside
    /// healthy ones into one shared (drain-triggered) batch neither
    /// aborts the process nor loses any healthy answer — and the healthy
    /// answers stay bit-identical to a plain session.
    #[test]
    fn poison_query_cannot_kill_healthy_ones() {
        silence_injected_panics();
        let model = CloudCostModel::default();
        let queries = distinct_workload(3, 4, 7);
        let reference = reference(&queries, &model);
        let mut plan = FaultPlan::new();
        plan.mark(&queries[1], Fault::poison());
        let plan = Arc::new(plan);
        let shard_sessions = sessions_with_plan(&model, 1, None, Some(&plan));
        // Frozen clock + huge batch: everything rides one drain batch.
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
            .with_clock(VirtualClock::new().clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            queries
                .iter()
                .map(|q| handle.submit(q.clone()))
                .collect::<Vec<_>>()
        });
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        for (i, (resp, reference)) in responses.into_iter().zip(&reference).enumerate() {
            let route = resp.route.expect("dispatched responses carry a route");
            assert_eq!(route.trigger, BatchTrigger::Drain);
            assert_eq!(route.batch_size, 4, "poison rides the shared batch");
            if i == 1 {
                match resp.outcome {
                    QueryOutcome::Panicked { ref message } => {
                        assert!(
                            message.contains(mpq_catalog::fault::INJECTED_FAULT),
                            "panic payload surfaces to the client: {message}"
                        );
                    }
                    ref other => panic!("poison query got {:?}", other.kind()),
                }
            } else {
                let solution = resp.expect_ok();
                assert_eq!(solution.stats.plans_created, reference.stats.plans_created);
                assert_eq!(solution.stats.plans_pruned, reference.stats.plans_pruned);
                assert_eq!(solution.plans.len(), reference.plans.len());
            }
        }
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.submitted, 4);
        assert_eq!(
            stats.per_shard[0].restarts, 1,
            "the caught panic counts as a restart"
        );
    }

    /// Non-finite table statistics never come back `Ok`: `submit`
    /// validates, so the query resolves `Panicked` with `optimize`'s own
    /// message before it can enter a batch. Its would-be batch-mate runs
    /// alone, with no restart, bit-identical to a plain session.
    #[test]
    fn non_finite_statistics_resolve_panicked() {
        let model = CloudCostModel::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let queries = workload(3, 2, 0.0, 7);
            let healthy = plain_fingerprint(&queries[1], &model);
            let mut rows = queries[0].clone();
            rows.tables[0].rows = bad;
            let mut row_bytes = queries[0].clone();
            row_bytes.tables[1].row_bytes = bad;
            let shard_sessions = sessions(&model, 1, None);
            let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
                .with_clock(VirtualClock::new().clock());
            let (tickets, stats) = serve(&shard_sessions, config, |handle| {
                [rows, queries[1].clone(), row_bytes]
                    .into_iter()
                    .map(|q| handle.submit(q))
                    .collect::<Vec<_>>()
            });
            let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
            for i in [0, 2] {
                match &responses[i].outcome {
                    QueryOutcome::Panicked { message } => assert!(
                        message.starts_with("invalid query: "),
                        "statistic {bad}: unexpected panic {message}"
                    ),
                    other => panic!("statistic {bad}: query {i} got {:?}", other.kind()),
                }
                assert!(responses[i].route.is_none(), "never batched");
            }
            let route = responses[1].route.unwrap();
            assert_eq!(route.batch_size, 1, "the invalid queries left no trace");
            let mate = responses.into_iter().nth(1).unwrap().expect_ok();
            assert_eq!(
                fingerprint(shard_sessions.shard(route.shard).space(), &mate),
                healthy,
                "statistic {bad}: the batch-mate diverged"
            );
            assert_eq!((stats.completed, stats.quarantined), (1, 2));
            assert_eq!(stats.per_shard[0].restarts, 0, "nothing panicked");
            assert_eq!(stats.queue_depth_peak, 1);
        }
    }

    /// Valid statistics whose costs overflow (1e300 rows per table) pass
    /// admission, but the lift's finiteness assertion panics inside
    /// `optimize`: the query resolves `Panicked` and is quarantined, never
    /// `Ok` with NaN costs, and its batch-mate still comes back
    /// bit-identical to a plain session.
    #[test]
    fn overflowing_costs_resolve_panicked() {
        let model = CloudCostModel::default();
        let mut overflowing = mpq_catalog::generator::generate(
            &GeneratorConfig::paper(3, Topology::Chain, 1),
            &mut StdRng::seed_from_u64(1),
        );
        for t in &mut overflowing.tables {
            t.rows = 1e300;
        }
        assert!(overflowing.validate().is_ok(), "admission lets it in");
        let healthy_query = workload(3, 1, 0.0, 7).remove(0);
        let healthy = plain_fingerprint(&healthy_query, &model);
        let shard_sessions = sessions(&model, 1, None);
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
            .with_clock(VirtualClock::new().clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            [overflowing, healthy_query]
                .into_iter()
                .map(|q| handle.submit(q))
                .collect::<Vec<_>>()
        });
        let mut responses = tickets.into_iter().map(|t| t.wait());
        // The lift's own assertion, or a copy of the query meeting the
        // cache cell that panic poisoned.
        match responses.next().unwrap().outcome {
            QueryOutcome::Panicked { message } => assert!(
                message.contains("non-finite cost") || message.contains("lift builder panicked"),
                "unexpected panic {message}"
            ),
            other => panic!("overflowing query got {:?}", other.kind()),
        }
        let mate = responses.next().unwrap();
        let route = mate.route.unwrap();
        assert_eq!(
            fingerprint(shard_sessions.shard(route.shard).space(), &mate.expect_ok()),
            healthy,
            "the batch-mate diverged"
        );
        assert_eq!((stats.completed, stats.quarantined), (1, 1));
    }

    /// A valid query with more parameters than the shard's space passes
    /// admission, but `optimize` refuses it: the query resolves
    /// `Panicked` with both counts named and is quarantined, and its
    /// batch-mate still comes back bit-identical to a plain session.
    #[test]
    fn too_many_parameters_resolve_panicked() {
        let model = CloudCostModel::default();
        let wide = mpq_catalog::generator::generate(
            &GeneratorConfig::paper(3, Topology::Chain, 2),
            &mut StdRng::seed_from_u64(1),
        );
        assert!(wide.validate().is_ok(), "admission lets it in");
        let healthy_query = workload(3, 1, 0.0, 7).remove(0);
        let healthy = plain_fingerprint(&healthy_query, &model);
        let shard_sessions = sessions(&model, 1, None);
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
            .with_clock(VirtualClock::new().clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            [wide, healthy_query]
                .into_iter()
                .map(|q| handle.submit(q))
                .collect::<Vec<_>>()
        });
        let mut responses = tickets.into_iter().map(|t| t.wait());
        match responses.next().unwrap().outcome {
            QueryOutcome::Panicked { message } => assert!(
                message.contains("query has 2 parameters, the space has 1"),
                "unexpected panic {message}"
            ),
            other => panic!("2-parameter query got {:?}", other.kind()),
        }
        let mate = responses.next().unwrap();
        let route = mate.route.unwrap();
        assert_eq!(
            fingerprint(shard_sessions.shard(route.shard).space(), &mate.expect_ok()),
            healthy,
            "the batch-mate diverged"
        );
        assert_eq!((stats.completed, stats.quarantined), (1, 1));
    }

    /// Panics are attributed exactly: with 1 poison (then 2) in a
    /// six-query batch, precisely the marked queries are quarantined, and
    /// every query of the batch ran exactly one attempt.
    #[test]
    fn panic_attribution_is_exact() {
        silence_injected_panics();
        let model = CloudCostModel::default();
        let queries = distinct_workload(4, 6, 13);
        for poisoned in [vec![1usize], vec![1, 4]] {
            let mut plan = FaultPlan::new();
            for (i, q) in queries.iter().enumerate() {
                // A no-op fault still logs the query's attempts.
                let fault = if poisoned.contains(&i) {
                    Fault::poison()
                } else {
                    Fault::default()
                };
                plan.mark(q, fault);
            }
            let plan = Arc::new(plan);
            let shard_sessions = sessions_with_plan(&model, 1, None, Some(&plan));
            let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
                .with_clock(VirtualClock::new().clock());
            let (tickets, stats) = serve(&shard_sessions, config, |handle| {
                queries
                    .iter()
                    .map(|q| handle.submit(q.clone()))
                    .collect::<Vec<_>>()
            });
            let kinds: Vec<OutcomeKind> = tickets.into_iter().map(|t| t.wait().kind()).collect();
            for (i, kind) in kinds.iter().enumerate() {
                let expected = if poisoned.contains(&i) {
                    OutcomeKind::Panicked
                } else {
                    OutcomeKind::Ok
                };
                assert_eq!(*kind, expected, "query {i} with poisons {poisoned:?}");
                assert_eq!(plan.attempts_of(&queries[i]), 1, "query {i} ran once");
            }
            assert_eq!(stats.quarantined, poisoned.len() as u64);
            assert_eq!(stats.per_shard[0].restarts, stats.quarantined);
            assert_eq!(stats.completed, (queries.len() - poisoned.len()) as u64);
        }
    }

    /// A query's outcome does not depend on its batch: a `transient(1)`
    /// query panics on its one attempt whether it is submitted alone or
    /// in a batch of four.
    #[test]
    fn transient_fault_outcome_is_independent_of_batch() {
        silence_injected_panics();
        let model = CloudCostModel::default();
        let queries = distinct_workload(3, 4, 7);
        for batch in [1usize, 4] {
            let mut plan = FaultPlan::new();
            plan.mark(&queries[0], Fault::transient(1));
            let plan = Arc::new(plan);
            let shard_sessions = sessions_with_plan(&model, 1, None, Some(&plan));
            let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
                .with_clock(VirtualClock::new().clock());
            let (tickets, stats) = serve(&shard_sessions, config, |handle| {
                queries[..batch]
                    .iter()
                    .map(|q| handle.submit(q.clone()))
                    .collect::<Vec<_>>()
            });
            let kinds: Vec<OutcomeKind> = tickets.into_iter().map(|t| t.wait().kind()).collect();
            assert_eq!(kinds[0], OutcomeKind::Panicked, "batch of {batch}");
            assert!(kinds[1..].iter().all(|&k| k == OutcomeKind::Ok));
            assert_eq!(plan.attempts_of(&queries[0]), 1, "batch of {batch}");
            assert_eq!((stats.quarantined, stats.per_shard[0].restarts), (1, 1));
        }
    }

    /// A size-triggered batch isolates its poison.
    #[test]
    fn size_triggered_batch_isolates_poison() {
        silence_injected_panics();
        let model = CloudCostModel::default();
        let queries = distinct_workload(3, 4, 7);
        let mut plan = FaultPlan::new();
        plan.mark(&queries[0], Fault::poison());
        let plan = Arc::new(plan);
        let shard_sessions = sessions_with_plan(&model, 1, None, Some(&plan));
        let config = ServiceConfig::new(BatchPolicy::new(2, Duration::from_secs(3600)))
            .with_clock(VirtualClock::new().clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            queries
                .iter()
                .map(|q| handle.submit(q.clone()))
                .collect::<Vec<_>>()
        });
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(responses[0].kind(), OutcomeKind::Panicked);
        assert_eq!(responses[0].route.unwrap().trigger, BatchTrigger::Size);
        for resp in &responses[1..] {
            assert_eq!(resp.kind(), OutcomeKind::Ok);
        }
        assert_eq!(stats.size_triggered, 2);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.completed, 3);
    }

    /// A deadline-triggered batch isolates its poison.
    #[test]
    fn deadline_triggered_batch_isolates_poison() {
        silence_injected_panics();
        let model = CloudCostModel::default();
        let queries = distinct_workload(3, 3, 7);
        let mut plan = FaultPlan::new();
        plan.mark(&queries[0], Fault::poison());
        let plan = Arc::new(plan);
        let shard_sessions = sessions_with_plan(&model, 1, None, Some(&plan));
        let vclock = VirtualClock::new();
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_micros(50)))
            .with_clock(vclock.clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            let t0 = handle.submit(queries[0].clone());
            vclock.advance_to_micros(100);
            let t1 = handle.submit(queries[1].clone());
            let t2 = handle.submit(queries[2].clone());
            vec![t0, t1, t2]
        });
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(responses[0].kind(), OutcomeKind::Panicked);
        assert_eq!(responses[0].route.unwrap().trigger, BatchTrigger::Deadline);
        assert_eq!(responses[1].kind(), OutcomeKind::Ok);
        assert_eq!(responses[1].route.unwrap().trigger, BatchTrigger::Drain);
        assert_eq!(responses[2].kind(), OutcomeKind::Ok);
        assert_eq!(stats.deadline_triggered, 1);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.completed, 2);
    }

    /// Admission control rejects beyond `max_queue` and the rejected
    /// tickets resolve immediately, while admitted ones complete.
    #[test]
    fn admission_control_rejects_when_full() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(5, 3);
        let shard_sessions = sessions(&model, 1, None);
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
            .with_clock(VirtualClock::new().clock())
            .with_max_queue(2);
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            let mut tickets: Vec<_> = queries.iter().map(|q| handle.submit(q.clone())).collect();
            // Rejection is synchronous: the 5th ticket is already
            // resolved inside the body, long before any drain.
            // (`try_wait` consumes the response, so the ticket is
            // dropped here rather than waited again below.)
            let last = tickets.pop().unwrap();
            let kind = last.try_wait().map(|r| r.kind());
            assert_eq!(kind, Some(OutcomeKind::Rejected));
            tickets
        });
        let kinds: Vec<OutcomeKind> = tickets.into_iter().map(|t| t.wait().kind()).collect();
        assert_eq!(
            kinds,
            vec![
                OutcomeKind::Ok,
                OutcomeKind::Ok,
                OutcomeKind::Rejected,
                OutcomeKind::Rejected,
            ]
        );
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.rejected, 3);
        assert_eq!(stats.completed, 2);
        assert_eq!(
            stats.queue_depth_peak, 2,
            "never more than max_queue buffered"
        );
    }

    /// An expired per-query deadline resolves `TimedOut` at dispatch,
    /// without running the optimizer; fresh queries in the same flush
    /// complete normally.
    #[test]
    fn per_query_deadline_times_out_at_dispatch() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(3, 5);
        let shard_sessions = sessions(&model, 1, None);
        let vclock = VirtualClock::new();
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
            .with_clock(vclock.clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            // 50µs budget; the clock then jumps to 100µs before anything
            // dispatches, so q0 is dead on arrival at the drain flush.
            let t0 = handle.submit(SubmittedQuery::new(queries[0].clone()).with_deadline(5e-5));
            vclock.advance_to_micros(100);
            let t1 = handle.submit(queries[1].clone());
            let t2 = handle.submit(queries[2].clone());
            vec![t0, t1, t2]
        });
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(responses[0].kind(), OutcomeKind::TimedOut);
        assert!(responses[0].route.is_none(), "never reached a worker");
        assert!((responses[0].latency - 1e-4).abs() < 1e-9);
        assert_eq!(responses[1].kind(), OutcomeKind::Ok);
        assert_eq!(
            responses[1].route.unwrap().batch_size,
            2,
            "the expired query left the batch before dispatch"
        );
        assert_eq!(responses[2].kind(), OutcomeKind::Ok);
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.completed, 2);
        assert!(stats.lps_solved > 0);
    }

    /// A deadline-triggered batch under `with_approx` is served at ε: the response is stamped, the counters move, and
    /// exact (size/drain) batches stay unstamped.
    #[test]
    fn approx_policy_downgrades_deadline_batches() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(3, 5);
        let shard_sessions = sessions(&model, 1, None);
        let vclock = VirtualClock::new();
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_micros(50)))
            .with_clock(vclock.clock())
            .with_approx(0.1);
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            let t0 = handle.submit(queries[0].clone());
            vclock.advance_to_micros(100);
            let t1 = handle.submit(queries[1].clone());
            let t2 = handle.submit(queries[2].clone());
            vec![t0, t1, t2]
        });
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(responses[0].route.unwrap().trigger, BatchTrigger::Deadline);
        assert_eq!(responses[0].served_epsilon, Some(0.1));
        assert_eq!(responses[0].kind(), OutcomeKind::Ok);
        for resp in &responses[1..] {
            assert_eq!(resp.route.unwrap().trigger, BatchTrigger::Drain);
            assert_eq!(resp.served_epsilon, None, "drain batches run exact");
        }
        assert_eq!(stats.approx_batches, 1);
        assert_eq!(stats.approx_served, 1);
        assert_eq!(stats.completed, 3);
        assert_eq!(
            stats.submitted,
            stats.completed + stats.rejected + stats.timed_out + stats.quarantined,
            "conservation holds with ε-served completions"
        );
        assert!(stats.approx_served <= stats.completed);
    }

    /// Quarantine preserves the batch's ε: healthy batch-mates of a
    /// poison query in a downgraded batch still come back stamped, each
    /// after exactly one attempt.
    #[test]
    fn quarantine_preserves_batch_epsilon() {
        silence_injected_panics();
        let model = CloudCostModel::default();
        let queries = distinct_workload(3, 4, 7);
        let mut plan = FaultPlan::new();
        plan.mark(&queries[0], Fault::poison());
        for q in &queries[1..] {
            plan.mark(q, Fault::default());
        }
        let plan = Arc::new(plan);
        let shard_sessions = sessions_with_plan(&model, 1, None, Some(&plan));
        let vclock = VirtualClock::new();
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_micros(50)))
            .with_clock(vclock.clock())
            .with_approx(0.1);
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            let t0 = handle.submit(queries[0].clone());
            let t1 = handle.submit(queries[1].clone());
            let t2 = handle.submit(queries[2].clone());
            // All three buffered; expire them into one deadline batch
            // via the timeout sweep by advancing past the deadline and
            // letting the drain happen after the body returns? No — a
            // frozen clock never expires buffers. Submit a 4th after
            // advancing so the arrival sweep flushes the batch.
            vclock.advance_to_micros(100);
            let t3 = handle.submit(queries[3].clone());
            vec![t0, t1, t2, t3]
        });
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(responses[0].kind(), OutcomeKind::Panicked);
        assert_eq!(responses[0].route.unwrap().trigger, BatchTrigger::Deadline);
        assert_eq!(
            responses[0].served_epsilon,
            Some(0.1),
            "the poison's batch ran at ε"
        );
        for resp in &responses[1..3] {
            assert_eq!(resp.kind(), OutcomeKind::Ok);
            assert_eq!(
                resp.served_epsilon,
                Some(0.1),
                "batch-mates keep the batch's ε"
            );
        }
        for q in &queries[..3] {
            assert_eq!(plan.attempts_of(q), 1, "one attempt per query");
        }
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.approx_served, 3 - 1);
        assert_eq!(
            stats.submitted,
            stats.completed + stats.rejected + stats.timed_out + stats.quarantined,
            "conservation holds under ε-served quarantine batches"
        );
    }

    /// `wait()` on a ticket whose service died resolves `Shutdown`
    /// instead of panicking.
    #[test]
    fn wait_resolves_shutdown_when_service_died() {
        let (tx, rx) = mpsc::channel::<QueryResponse<GridSpace>>();
        drop(tx);
        let ticket = ServiceTicket { rx };
        let resp = ticket.wait();
        assert_eq!(resp.kind(), OutcomeKind::Shutdown);
        assert!(resp.route.is_none());
    }

    /// `wait_timeout` under a frozen virtual clock expires on the
    /// real-time budget and resolves `TimedOut` — the caller can never
    /// deadlock, which is the whole point of the method.
    #[test]
    fn wait_timeout_cannot_deadlock_on_frozen_clock() {
        let (_tx, rx) = mpsc::channel::<QueryResponse<GridSpace>>();
        let ticket = ServiceTicket { rx };
        let vclock = VirtualClock::new(); // frozen at 0 forever
        let clock = vclock.clock();
        let resp = ticket.wait_timeout(&clock, Duration::from_millis(10));
        assert_eq!(resp.kind(), OutcomeKind::TimedOut);
        assert!(resp.route.is_none());
        assert_eq!(resp.latency, 0.0, "no service-clock time passed");
        // Note `_tx` is still alive: the service "exists" but never
        // answers — recv_timeout (not recv) is what returned.
    }

    /// `wait_timeout` delivers a ready response untouched and resolves
    /// `Shutdown` when the service died, exactly like `wait`.
    #[test]
    fn wait_timeout_delivers_and_maps_shutdown() {
        let clock: ServiceClock = VirtualClock::new().clock();
        let (tx, rx) = mpsc::channel::<QueryResponse<GridSpace>>();
        tx.send(QueryResponse {
            outcome: QueryOutcome::Rejected,
            route: None,
            latency: 1.5,
            served_epsilon: None,
        })
        .unwrap();
        let ticket = ServiceTicket { rx };
        let resp = ticket.wait_timeout(&clock, Duration::from_secs(5));
        assert_eq!(resp.kind(), OutcomeKind::Rejected);
        assert_eq!(resp.latency, 1.5);
        let (tx, rx) = mpsc::channel::<QueryResponse<GridSpace>>();
        drop(tx);
        let ticket = ServiceTicket { rx };
        let resp = ticket.wait_timeout(&clock, Duration::from_secs(5));
        assert_eq!(resp.kind(), OutcomeKind::Shutdown);
    }

    /// In-process snapshots always report the wire counters as zero and
    /// satisfy the conservation identity.
    #[test]
    fn in_process_snapshot_has_no_wire_counters() {
        let model = CloudCostModel::default();
        let queries = workload(3, 3, 0.5, 21);
        let shard_sessions = sessions(&model, 2, None);
        let config = ServiceConfig::new(BatchPolicy::new(2, Duration::from_millis(1)));
        let (_, stats) = serve(&shard_sessions, config, |handle| {
            let tickets: Vec<_> = queries.iter().map(|q| handle.submit(q.clone())).collect();
            tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
        });
        assert!(stats.conserves(), "conservation identity after shutdown");
        assert_eq!(
            (
                stats.unavailable,
                stats.retries,
                stats.reconnects,
                stats.dropped
            ),
            (0, 0, 0, 0),
            "no wire, no wire counters"
        );
    }

    /// The latency histogram that replaced the 64Ki ring: no lock to
    /// poison, NaN before the first completion, and percentiles that are
    /// bucket representatives within the histogram's 12.5 % relative
    /// error of the recorded value.
    #[test]
    fn latency_histogram_replaces_the_ring() {
        let stats = StatsShared::new(1, &Obs::off());
        let empty = stats.snapshot(vec![CacheStats::default()], vec![CacheStats::default()]);
        assert!(
            empty.latency_p50.is_nan(),
            "NaN before the first completion"
        );
        assert!(empty.latency_p95.is_nan());
        stats.store.latencies.record_secs(1.0);
        let snap = stats.snapshot(vec![CacheStats::default()], vec![CacheStats::default()]);
        assert!(
            (snap.latency_p50 - 1.0).abs() <= 0.125,
            "{}",
            snap.latency_p50
        );
        assert!(
            (snap.latency_p95 - 1.0).abs() <= 0.125,
            "{}",
            snap.latency_p95
        );
        assert!(snap.latency_p50 <= snap.latency_p95);
    }

    /// A ticket answered `Shutdown` counts as `unavailable`, so the
    /// conservation identity holds even when the service dies under a
    /// request.
    #[test]
    fn shutdown_answers_count_as_unavailable() {
        let stats = StatsShared::new(1, &Obs::off());
        let (reply, rx) = mpsc::channel::<QueryResponse<GridSpace>>();
        stats.store.submit();
        stats.answer(&reply, unrouted(QueryOutcome::Shutdown, 0.0));
        assert_eq!(rx.recv().unwrap().kind(), OutcomeKind::Shutdown);
        let snap = stats.snapshot(vec![CacheStats::default()], vec![CacheStats::default()]);
        assert_eq!((snap.submitted, snap.unavailable), (1, 1));
        assert!(snap.conserves());
    }

    /// With observability on, the registry is the service's counter
    /// store: each `ServiceStats` field equals its `service_*` registry
    /// cell (per shard too, the shard sessions' cache counters
    /// included), the conservation identity re-derives from
    /// the registry alone, and the latency percentiles come from the
    /// registry's own `service_latency_seconds` histogram.
    #[test]
    fn registry_mirrors_service_stats() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(5, 3);
        let shard_sessions = sessions(&model, 1, None);
        let vclock = VirtualClock::new();
        let vc = vclock.clone();
        let obs = Obs::with_clock(Arc::new(move || vc.now_micros()));
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
            .with_clock(vclock.clock())
            .with_max_queue(2)
            .with_obs(obs.clone());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            queries
                .iter()
                .map(|q| handle.submit(q.clone()))
                .collect::<Vec<_>>()
        });
        for t in tickets {
            t.wait();
        }
        assert!(stats.conserves());
        assert!(stats.rejected > 0 && stats.completed > 0, "{stats:?}");
        let registry = obs.registry().expect("enabled handle");
        // Read through the registry's one walk, so a missing cell fails
        // instead of being created at zero.
        let samples = registry.samples();
        let sample = |name: &str| {
            samples
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("no sample {name}"))
                .1
        };
        let get = |name: &str| sample(name) as u64;
        assert_eq!(get("service_submitted"), stats.submitted);
        assert_eq!(get("service_completed"), stats.completed);
        assert_eq!(get("service_rejected"), stats.rejected);
        assert_eq!(get("service_timed_out"), stats.timed_out);
        assert_eq!(get("service_quarantined"), stats.quarantined);
        assert_eq!(get("service_unavailable"), stats.unavailable);
        assert_eq!(get("service_batches"), stats.batches);
        assert_eq!(get("service_size_triggered"), stats.size_triggered);
        assert_eq!(get("service_deadline_triggered"), stats.deadline_triggered);
        assert_eq!(get("service_drain_triggered"), stats.drain_triggered);
        assert_eq!(get("service_coalesced"), stats.coalesced);
        assert_eq!(get("service_approx_batches"), stats.approx_batches);
        assert_eq!(get("service_approx_served"), stats.approx_served);
        assert_eq!(get("service_lps_solved"), stats.lps_solved);
        for (i, shard) in stats.per_shard.iter().enumerate() {
            assert_eq!(get(&format!("service_shard{i}_queries")), shard.queries);
            assert_eq!(get(&format!("service_shard{i}_batches")), shard.batches);
            assert_eq!(get(&format!("service_shard{i}_restarts")), shard.restarts);
            for (cache, stats) in [("lift", shard.cache), ("subtree", shard.subtree)] {
                let cells = format!("service_shard{i}_{cache}_cache");
                assert_eq!(
                    (
                        get(&format!("{cells}_hits")),
                        get(&format!("{cells}_misses"))
                    ),
                    (stats.hits, stats.misses)
                );
            }
        }
        assert!(
            stats.per_shard[0].cache.misses > 0,
            "the caches saw traffic"
        );
        assert_eq!(get("service_queue_depth_peak"), stats.queue_depth_peak);
        // The conservation identity, re-derived purely from the registry.
        assert_eq!(
            get("service_completed")
                + get("service_rejected")
                + get("service_timed_out")
                + get("service_quarantined")
                + get("service_unavailable"),
            get("service_submitted"),
            "registry counters satisfy the conservation identity"
        );
        assert_eq!(
            get("service_size_triggered")
                + get("service_deadline_triggered")
                + get("service_drain_triggered"),
            get("service_batches"),
            "registry triggers partition the batches"
        );
        // Percentiles in the snapshot ARE the registry histogram's.
        assert_eq!(get("service_latency_seconds_count"), stats.completed);
        assert_eq!(
            sample("service_latency_seconds_p50_ns") * 1e-9,
            stats.latency_p50
        );
        assert_eq!(
            sample("service_latency_seconds_p95_ns") * 1e-9,
            stats.latency_p95
        );
        // And the lifecycle left a span trail: one submit span per
        // submission, at least one flush and one shard batch.
        let spans = obs.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
        assert_eq!(count("submit"), stats.submitted);
        assert!(count("batch_flush") >= 1);
        assert!(count("shard_batch") >= 1);
        // The text exposition prints the same samples.
        let line = format!("service_submitted {}\n", stats.submitted);
        assert!(registry.expose().contains(&line));
    }

    /// The registry's queue-depth gauges are live: a scrape sees the
    /// buffered requests while they wait, with no `ServiceStats`
    /// snapshot taken.
    #[test]
    fn queue_depth_gauge_is_live_in_the_registry() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(3, 3);
        let shard_sessions = sessions(&model, 2, None);
        let vclock = VirtualClock::new();
        let vc = vclock.clone();
        let obs = Obs::with_clock(Arc::new(move || vc.now_micros()));
        let registry = obs.registry().expect("enabled handle");
        let depth = registry.gauge("service_queue_depth");
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(3600)))
            .with_clock(vclock.clock())
            .with_obs(obs.clone());
        let ((tickets, live_depth), stats) = serve(&shard_sessions, config, |handle| {
            let tickets: Vec<_> = queries.iter().map(|q| handle.submit(q.clone())).collect();
            let give_up = Instant::now() + Duration::from_secs(2);
            while depth.get() < 3 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            (tickets, depth.get())
        });
        assert_eq!(live_depth, 3, "three requests sit buffered");
        for t in tickets {
            t.wait().expect_ok();
        }
        assert_eq!(depth.get(), 0, "the drain empties the buffers");
        assert_eq!(registry.gauge("service_queue_depth_peak").get(), 3);
        assert_eq!((stats.queue_depth_peak, stats.drain_triggered), (3, 1));
    }

    /// Coalescing under a frozen clock: a leader and three copies make
    /// one dispatched request. Every answer is bit-identical to a plain
    /// session and carries the leader's route.
    #[test]
    fn copies_coalesce_onto_their_leader() {
        let model = CloudCostModel::default();
        let query = workload(3, 1, 0.0, 5).remove(0);
        let reference = plain_fingerprint(&query, &model);
        let shard_sessions = sessions(&model, 2, None);
        let vclock = VirtualClock::new();
        let vc = vclock.clone();
        let obs = Obs::with_clock(Arc::new(move || vc.now_micros()));
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(1000)))
            .with_clock(vclock.clock())
            .with_obs(obs.clone());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            (0..4)
                .map(|_| handle.submit(query.clone()))
                .collect::<Vec<_>>()
        });
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let leader = responses[0].route.expect("the leader reached a worker");
        assert_eq!(
            (leader.trigger, leader.batch_size),
            (BatchTrigger::Drain, 1)
        );
        for resp in responses {
            assert_eq!(
                resp.route,
                Some(leader),
                "a copy carries its leader's route"
            );
            let space = shard_sessions.shard(leader.shard).space();
            assert_eq!(fingerprint(space, &resp.expect_ok()), reference);
        }
        let dispatched: u64 = stats.per_shard.iter().map(|s| s.queries).sum();
        assert_eq!((dispatched, stats.batches), (1, 1));
        assert_eq!((stats.coalesced, stats.completed), (3, 4));
        assert_eq!(stats.queue_depth_peak, 1, "copies never buffer");
        let registry = obs.registry().expect("enabled handle");
        assert_eq!(registry.counter("service_coalesced").get(), 3);
        let coalesced_spans = obs
            .spans()
            .iter()
            .filter(|s| s.name == "submit" && s.fields.contains(&("coalesced", 1)))
            .count();
        assert_eq!(coalesced_spans, 3);
    }

    /// A copy of a resolved leader is answered inside `submit`.
    #[test]
    fn copy_of_resolved_leader_is_answered_at_submit() {
        let model = CloudCostModel::default();
        let query = workload(3, 1, 0.0, 5).remove(0);
        let reference = plain_fingerprint(&query, &model);
        let shard_sessions = sessions(&model, 1, None);
        let vclock = VirtualClock::new();
        let clock = vclock.clock();
        let config = ServiceConfig::new(BatchPolicy::new(1, Duration::from_secs(1000)))
            .with_clock(vclock.clock());
        let ((), stats) = serve(&shard_sessions, config, |handle| {
            let leader = handle
                .submit(query.clone())
                .wait_timeout(&clock, Duration::from_secs(60));
            let route = leader.route.expect("size-triggered at once");
            let copy = handle
                .submit(query.clone())
                .try_wait()
                .expect("answered before submit returned");
            assert_eq!((copy.route, copy.latency), (Some(route), 0.0));
            let space = shard_sessions.shard(route.shard).space();
            assert_eq!(fingerprint(space, &copy.expect_ok()), reference);
        });
        assert_eq!((stats.batches, stats.coalesced, stats.completed), (1, 1, 2));
    }

    /// A copy's submit time reaches the batcher: under a virtual clock,
    /// a copy arriving past its leader's batching deadline dispatches
    /// that buffer exactly as any other arrival would.
    #[test]
    fn copy_arrival_sweeps_expired_buffers() {
        let model = CloudCostModel::default();
        let query = workload(3, 1, 0.0, 5).remove(0);
        let shard_sessions = sessions(&model, 1, None);
        let vclock = VirtualClock::new();
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_micros(50)))
            .with_clock(vclock.clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            let leader = handle.submit(query.clone());
            vclock.advance_to_micros(100);
            [leader, handle.submit(query.clone())]
        });
        for ticket in tickets {
            let route = ticket.wait().route.unwrap();
            assert_eq!(
                (route.trigger, route.batch_size),
                (BatchTrigger::Deadline, 1)
            );
        }
        assert_eq!((stats.deadline_triggered, stats.drain_triggered), (1, 0));
    }

    /// A key collision never shares: with another query's answer planted
    /// under this query's key, the request runs unshared and gets its
    /// own answer.
    #[test]
    fn colliding_key_runs_unshared() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(2, 5);
        let reference = plain_fingerprint(&queries[0], &model);
        let shard_sessions = sessions(&model, 1, None);
        let vclock = VirtualClock::new();
        let clock = vclock.clock();
        let config = ServiceConfig::new(BatchPolicy::new(1, Duration::from_secs(1000)))
            .with_clock(vclock.clock());
        let ((), stats) = serve(&shard_sessions, config, |handle| {
            let budget = Duration::from_secs(60);
            let other = handle
                .submit(queries[1].clone())
                .wait_timeout(&clock, budget);
            let key = handle.answers.key(&SubmittedQuery::new(queries[0].clone()));
            let planted = SubmittedQuery::new(queries[1].clone());
            let no_waiter = || unreachable!("the key is vacant");
            match handle.answers.lookup_at(key, &planted, no_waiter, || true) {
                Lookup::Run(Some(lead)) => drop(lead.resolve(&other)),
                _ => panic!("the planted query leads its key"),
            }
            let own = handle
                .submit(queries[0].clone())
                .wait_timeout(&clock, budget);
            let space = shard_sessions.shard(0).space();
            assert_eq!(fingerprint(space, &own.expect_ok()), reference);
        });
        assert_eq!((stats.batches, stats.coalesced), (2, 0));
    }

    /// Equal queries with different deadlines do not share. A leader
    /// that expires passes `TimedOut` to its same-deadline copies, both
    /// those waiting on it and those submitted after.
    #[test]
    fn deadlines_split_copies_and_expiry_is_shared() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(2, 5);
        let query = || SubmittedQuery::new(queries[0].clone());
        let shard_sessions = sessions(&model, 1, None);
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(1000)))
            .with_clock(VirtualClock::new().clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            [
                handle.submit(query()),
                handle.submit(query().with_deadline(10.0)),
                handle.submit(query().with_deadline(20.0)),
            ]
        });
        for ticket in tickets {
            let route = ticket.wait().route.expect("every request leads");
            assert_eq!(route.batch_size, 3);
        }
        assert_eq!((stats.coalesced, stats.completed), (0, 3));

        let vclock = VirtualClock::new();
        let clock = vclock.clock();
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_micros(50)))
            .with_clock(vclock.clock());
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            let leader = handle.submit(query().with_deadline(5e-5));
            let waiting = handle.submit(query().with_deadline(5e-5));
            vclock.advance_to_micros(100);
            // This arrival's sweep dispatches the leader's buffer, where
            // the leader expires.
            let other = handle.submit(queries[1].clone());
            let leader = leader.wait_timeout(&clock, Duration::from_secs(60));
            assert_eq!(leader.kind(), OutcomeKind::TimedOut);
            let late = handle.submit(query().with_deadline(5e-5)).try_wait();
            assert_eq!(late.map(|r| r.kind()), Some(OutcomeKind::TimedOut));
            [waiting, other]
        });
        let [waiting, other] = tickets.map(|t| t.wait());
        assert_eq!(waiting.kind(), OutcomeKind::TimedOut);
        assert!(waiting.route.is_none());
        assert_eq!(other.kind(), OutcomeKind::Ok);
        assert_eq!((stats.timed_out, stats.coalesced), (3, 2));
        assert!(stats.conserves());
    }

    /// A poison leader's waiting copies are re-run alone: each is
    /// quarantined with its own restart, and the healthy batch-mate stays
    /// bit-identical. A copy of a `transient(1)` leader gets its own
    /// attempt, which succeeds.
    #[test]
    fn poison_leader_copies_rerun_alone() {
        silence_injected_panics();
        let model = CloudCostModel::default();
        let queries = distinct_workload(3, 3, 7);
        let (poison, healthy, transient) = (&queries[0], &queries[1], &queries[2]);
        let reference = plain_fingerprint(healthy, &model);
        let mut plan = FaultPlan::new();
        plan.mark(poison, Fault::poison());
        plan.mark(transient, Fault::transient(1));
        let plan = Arc::new(plan);
        let shard_sessions = sessions_with_plan(&model, 1, None, Some(&plan));
        let frozen = || {
            ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(1000)))
                .with_clock(VirtualClock::new().clock())
        };
        let (tickets, stats) = serve(&shard_sessions, frozen(), |handle| {
            let mut tickets = vec![handle.submit(healthy.clone())];
            tickets.extend((0..4).map(|_| handle.submit(poison.clone())));
            tickets
        });
        let mut responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let route = responses[1]
            .route
            .expect("the poison leader reached a worker");
        for resp in &responses[1..] {
            assert_eq!(resp.kind(), OutcomeKind::Panicked);
            assert_eq!(resp.route, Some(route));
        }
        let mate = responses.remove(0).expect_ok();
        assert_eq!(
            fingerprint(shard_sessions.shard(0).space(), &mate),
            reference
        );
        assert_eq!((stats.quarantined, stats.coalesced), (4, 3));
        assert_eq!(stats.per_shard[0].restarts, stats.quarantined);

        let (tickets, stats) = serve(&shard_sessions, frozen(), |handle| {
            [
                handle.submit(transient.clone()),
                handle.submit(transient.clone()),
            ]
        });
        let [leader, copy] = tickets.map(|t| t.wait());
        assert_eq!(leader.kind(), OutcomeKind::Panicked, "attempt 1 panics");
        assert_eq!(copy.route, leader.route);
        assert_eq!(
            fingerprint(shard_sessions.shard(0).space(), &copy.expect_ok()),
            plain_fingerprint(transient, &model),
            "the copy's own attempt succeeds"
        );
        assert_eq!((stats.quarantined, stats.completed), (1, 1));
        assert_eq!(stats.per_shard[0].restarts, stats.quarantined);
    }

    /// A copy of an ε-downgraded leader carries its `served_epsilon` and
    /// counts as ε-served.
    #[test]
    fn copy_of_approx_leader_carries_epsilon() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(2, 5);
        let shard_sessions = sessions(&model, 1, None);
        let vclock = VirtualClock::new();
        let clock = vclock.clock();
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_micros(50)))
            .with_clock(vclock.clock())
            .with_approx(0.1);
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            let leader = handle.submit(queries[0].clone());
            let waiting = handle.submit(queries[0].clone());
            vclock.advance_to_micros(100);
            let other = handle.submit(queries[1].clone());
            let leader = leader.wait_timeout(&clock, Duration::from_secs(60));
            assert_eq!(leader.route.unwrap().trigger, BatchTrigger::Deadline);
            assert_eq!(leader.served_epsilon, Some(0.1));
            let late = handle.submit(queries[0].clone()).try_wait().unwrap();
            assert_eq!(
                (late.kind(), late.served_epsilon),
                (OutcomeKind::Ok, Some(0.1))
            );
            [waiting, other]
        });
        let [waiting, other] = tickets.map(|t| t.wait());
        assert_eq!(
            (waiting.kind(), waiting.served_epsilon),
            (OutcomeKind::Ok, Some(0.1))
        );
        assert_eq!(other.served_epsilon, None, "drain batches run exact");
        assert_eq!((stats.approx_batches, stats.approx_served), (1, 3));
        assert_eq!((stats.coalesced, stats.completed), (2, 4));
    }

    /// Copies take no admission-queue slot: at `max_queue` 1 they are
    /// never rejected, while a distinct query is.
    #[test]
    fn copies_are_never_rejected() {
        let model = CloudCostModel::default();
        let queries = same_shard_workload(2, 3);
        let shard_sessions = sessions(&model, 1, None);
        let config = ServiceConfig::new(BatchPolicy::new(100, Duration::from_secs(1000)))
            .with_clock(VirtualClock::new().clock())
            .with_max_queue(1);
        let (tickets, stats) = serve(&shard_sessions, config, |handle| {
            let tickets: Vec<_> = (0..4).map(|_| handle.submit(queries[0].clone())).collect();
            let distinct = handle.submit(queries[1].clone()).try_wait();
            assert_eq!(distinct.map(|r| r.kind()), Some(OutcomeKind::Rejected));
            tickets
        });
        for ticket in tickets {
            assert_eq!(ticket.wait().kind(), OutcomeKind::Ok);
        }
        assert_eq!(
            (stats.rejected, stats.coalesced, stats.completed),
            (1, 3, 4)
        );
        assert!(stats.conserves());
    }
}
