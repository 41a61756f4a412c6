//! The shard server's idempotency cache under concurrency and at its
//! bound: distinct digests optimize at the same time, a racing replay of
//! an in-flight digest waits for that one optimize and replays it, the
//! cache evicts past [`ANSWER_CAPACITY`] without changing answers, a
//! digest the client forged cannot share another query's answer, a
//! panicked answer is never replayed, an invalid query is answered
//! before it reaches the cache, and a valid query whose costs overflow,
//! or that has more parameters than the server's space, is answered
//! `Panicked`, never `Ok`.
//!
//! The concurrency tests meet inside the session's fault hook, which
//! runs at the start of every optimize. The meeting point waits with a
//! timeout, so a server that serializes optimizes fails the test instead
//! of hanging it.

use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mpq_catalog::fault::{query_digest, silence_injected_panics, Fault, FaultPlan};
use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::session::{FaultHook, OptimizerSession, SessionConfig};
use mpq_core::OptimizerConfig;
use mpq_net::server::ShardServerCore;
use mpq_net::wire::{
    decode_message, encode_message, Message, WireOutcome, WireRequest, WireResponse,
};
use mpq_obs::Obs;
use mpq_service::{SubmittedQuery, ANSWER_CAPACITY};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How long a party waits at the meeting point before giving up.
const MEET_TIMEOUT: Duration = Duration::from_secs(10);

fn opt_config() -> OptimizerConfig {
    OptimizerConfig {
        grid_resolution: 4,
        threads: Some(1),
        ..OptimizerConfig::default_for(1)
    }
}

fn session<'m>(
    model: &'m CloudCostModel,
    hook: Option<FaultHook>,
) -> OptimizerSession<'m, GridSpace, CloudCostModel> {
    let opt = opt_config();
    let mut cfg = SessionConfig::new(opt.clone()).without_subtree_cache();
    cfg.cached = false;
    cfg.fault_hook = hook;
    OptimizerSession::with_config(
        GridSpace::for_unit_box(1, &opt, 2).expect("grid space"),
        model,
        cfg,
    )
}

fn core<'a, 'm>(
    session: &'a OptimizerSession<'m, GridSpace, CloudCostModel>,
) -> ShardServerCore<'a, 'm, GridSpace, CloudCostModel> {
    ShardServerCore::new(session, 0, vec![vec![0.0], vec![0.5], vec![1.0]])
}

/// `count` seeded queries over `tables` tables with distinct digests.
fn queries(tables: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GeneratorConfig::paper(tables, Topology::Chain, 1);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let q = generate(&cfg, &mut rng);
        if seen.insert(query_digest(&q)) {
            out.push(q);
        }
    }
    out
}

fn request_frame(request_id: u64, query: &Query) -> Vec<u8> {
    frame_with_digest(request_id, query, query_digest(query))
}

/// A request frame carrying `digest`, whatever the query's own is.
fn frame_with_digest(request_id: u64, query: &Query, digest: u64) -> Vec<u8> {
    encode_message(&Message::Request(WireRequest {
        request_id,
        digest,
        attempt: 0,
        trace_id: request_id,
        submitted: SubmittedQuery::new(query.clone()),
    }))
}

fn response(frame: &[u8]) -> WireResponse {
    match decode_message(frame) {
        Ok(Message::Response(r)) => r,
        other => panic!("expected a response frame, got {other:?}"),
    }
}

/// A meeting point for optimizes in flight: each arrival waits (bounded
/// by [`MEET_TIMEOUT`]) until `parties` optimizes have arrived, and
/// records whether they all did in time.
struct Meeting {
    parties: usize,
    arrived: Mutex<Vec<u64>>,
    all_met: Condvar,
    met: Mutex<Vec<bool>>,
}

impl Meeting {
    fn new(parties: usize) -> Arc<Self> {
        Arc::new(Self {
            parties,
            arrived: Mutex::new(Vec::new()),
            all_met: Condvar::new(),
            met: Mutex::new(Vec::new()),
        })
    }

    /// A fault hook that makes every optimize arrive here.
    fn hook(self: &Arc<Self>) -> FaultHook {
        let meeting = Arc::clone(self);
        Arc::new(move |query: &Query| meeting.arrive(query_digest(query)))
    }

    fn arrive(&self, digest: u64) {
        let mut arrived = self.arrived.lock().expect("meeting lock");
        arrived.push(digest);
        self.all_met.notify_all();
        let (arrived, _) = self
            .all_met
            .wait_timeout_while(arrived, MEET_TIMEOUT, |a| a.len() < self.parties)
            .expect("meeting lock");
        let met = arrived.len() >= self.parties;
        drop(arrived);
        self.met.lock().expect("meeting lock").push(met);
    }

    /// How many optimizes ran for `digest`.
    fn runs_of(&self, digest: u64) -> usize {
        let arrived = self.arrived.lock().expect("meeting lock");
        arrived.iter().filter(|&&d| d == digest).count()
    }

    fn all_met(&self) -> bool {
        let met = self.met.lock().expect("meeting lock");
        !met.is_empty() && met.iter().all(|&m| m)
    }

    /// Blocks until some optimize has arrived (bounded by the timeout).
    fn wait_first(&self) {
        let arrived = self.arrived.lock().expect("meeting lock");
        let _ = self
            .all_met
            .wait_timeout_while(arrived, MEET_TIMEOUT, |a| a.is_empty())
            .expect("meeting lock");
    }
}

/// Two requests for distinct digests, fed to `handle_frame` from two
/// threads, are both inside the optimizer at once: no lock is held
/// across an optimize.
#[test]
fn distinct_digests_optimize_concurrently() {
    let model = CloudCostModel::default();
    let meeting = Meeting::new(2);
    let session = session(&model, Some(meeting.hook()));
    let core = core(&session);
    let qs = queries(3, 2, 7);

    let answers: Vec<WireResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = qs
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let core = &core;
                scope.spawn(move || response(&core.handle_frame(&request_frame(i as u64, q))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("request thread"))
            .collect()
    });

    assert!(
        meeting.all_met(),
        "both optimizes must be in flight at the same time"
    );
    for a in &answers {
        assert!(!a.dedup, "distinct digests are first answers");
    }
    assert_eq!(core.counters().dedup_hits, 0);
}

/// Two racing copies of one digest run the optimizer exactly once, and
/// exactly one answer carries `dedup`; a distinct digest optimizes
/// meanwhile, so the wait is per digest, not global.
#[test]
fn racing_copies_of_one_digest_optimize_once() {
    let model = CloudCostModel::default();
    // The first copy's optimize and the distinct request's must meet: the
    // second copy waits on the first instead of arriving itself.
    let meeting = Meeting::new(2);
    let session = session(&model, Some(meeting.hook()));
    let core = core(&session);
    let qs = queries(3, 2, 11);
    let (dup, other) = (&qs[0], &qs[1]);

    let (copies, distinct) = std::thread::scope(|scope| {
        let core = &core;
        let first = scope.spawn(move || response(&core.handle_frame(&request_frame(1, dup))));
        // The first copy is now inside its optimize; the second copy
        // finds the digest in flight.
        meeting.wait_first();
        let second = scope.spawn(move || response(&core.handle_frame(&request_frame(2, dup))));
        // The replay counts its hit before it waits for the in-flight
        // optimize, which cannot finish before the distinct request
        // arrives: once the hit shows, the second copy is waiting.
        let waiting_since = Instant::now();
        while core.counters().dedup_hits == 0 && waiting_since.elapsed() < MEET_TIMEOUT {
            std::thread::sleep(Duration::from_millis(1));
        }
        let distinct = scope.spawn(move || response(&core.handle_frame(&request_frame(3, other))));
        let copies = [first, second].map(|h| h.join().expect("copy thread"));
        (copies, distinct.join().expect("distinct thread"))
    });

    assert!(
        meeting.all_met(),
        "a distinct digest must optimize while another is in flight"
    );
    assert_eq!(
        meeting.runs_of(query_digest(dup)),
        1,
        "one optimize per digest"
    );
    assert_eq!(meeting.runs_of(query_digest(other)), 1);
    assert_eq!(
        copies.iter().filter(|a| a.dedup).count(),
        1,
        "exactly one copy replays"
    );
    assert_eq!(copies[0].outcome, copies[1].outcome);
    assert_eq!(copies[0].served_epsilon, copies[1].served_epsilon);
    assert!(!distinct.dedup);
    assert_eq!(core.counters().dedup_hits, 1);
}

/// Past [`ANSWER_CAPACITY`] distinct digests the cache evicts: the first
/// digest is optimized again, and its answer frame is byte-identical to
/// the first one (`dedup` is false both times).
#[test]
fn dedup_cache_is_bounded_and_eviction_keeps_answers() {
    let model = CloudCostModel::default();
    let session = session(&model, None);
    let obs = Obs::wall();
    let core = core(&session).with_obs(obs.clone());
    let qs = queries(1, ANSWER_CAPACITY + 1, 5);

    let first = core.handle_frame(&request_frame(0, &qs[0]));
    assert!(!response(&first).dedup);
    for (i, q) in qs.iter().enumerate().skip(1) {
        core.handle_frame(&request_frame(i as u64, q));
    }
    let again = core.handle_frame(&request_frame(0, &qs[0]));
    assert!(
        !response(&again).dedup,
        "the evicted digest optimizes again"
    );
    assert_eq!(again, first, "re-answered bit-identically");

    let dedup = obs.registry().expect("observed").cache("server_dedup");
    assert!(dedup.evictions() > 0);
    assert_eq!(dedup.hits(), 0);
    assert_eq!(dedup.misses(), qs.len() as u64 + 1);
}

/// An invalid query is answered `Panicked` with `invalid query: …`
/// before the dedup cache: `server_panicked` counts it, and no
/// `optimize` span runs (a valid query afterwards shows the span would
/// be there).
#[test]
fn invalid_query_is_answered_without_optimizing() {
    let model = CloudCostModel::default();
    let session = session(&model, None);
    let obs = Obs::wall();
    let core = core(&session).with_obs(obs.clone());
    let valid = queries(2, 1, 3).remove(0);
    let mut invalid = valid.clone();
    invalid.tables[0].rows = f64::NAN;

    let answer = response(&core.handle_frame(&request_frame(1, &invalid)));
    match &answer.outcome {
        WireOutcome::Panicked { message } => assert!(
            message.starts_with("invalid query: "),
            "unexpected message {message}"
        ),
        other => panic!("invalid query answered {other:?}"),
    }
    assert_eq!((answer.dedup, answer.served_epsilon), (false, None));
    let registry = obs.registry().expect("observed");
    assert_eq!(registry.counter("server_panicked").get(), 1);
    assert_eq!(core.counters().panicked, 1);
    assert_eq!(registry.cache("server_dedup").misses(), 0, "never cached");
    let optimize_spans = |obs: &Obs| obs.spans().iter().filter(|s| s.name == "optimize").count();
    assert_eq!(optimize_spans(&obs), 0);

    let answer = response(&core.handle_frame(&request_frame(2, &valid)));
    assert!(matches!(answer.outcome, WireOutcome::Ok(_)));
    assert_eq!(optimize_spans(&obs), 1);
    assert_eq!(core.counters().panicked, 1);
}

/// Valid statistics whose costs overflow (1e300 rows per table) pass
/// admission, but the lift's finiteness assertion panics inside
/// `optimize`; the server answers `Panicked` rather than `Ok` with NaN
/// costs, and keeps serving.
#[test]
fn overflowing_costs_are_answered_panicked() {
    let model = CloudCostModel::default();
    let session = session(&model, None);
    let core = core(&session);
    let valid = queries(3, 1, 1).remove(0);
    let mut overflowing = valid.clone();
    for t in &mut overflowing.tables {
        t.rows = 1e300;
    }
    assert!(overflowing.validate().is_ok(), "admission lets it in");

    let answer = response(&core.handle_frame(&request_frame(1, &overflowing)));
    match &answer.outcome {
        WireOutcome::Panicked { message } => assert!(
            message.contains("non-finite cost"),
            "unexpected message {message}"
        ),
        other => panic!("overflowing query answered {other:?}"),
    }
    assert_eq!(core.counters().panicked, 1);
    let answer = response(&core.handle_frame(&request_frame(2, &valid)));
    assert!(matches!(answer.outcome, WireOutcome::Ok(_)));
}

/// A valid query with more parameters than the server's 1-D space passes
/// admission; `optimize` refuses it, naming both counts, and the server
/// answers `Panicked` and keeps serving.
#[test]
fn too_many_parameters_are_answered_panicked() {
    let model = CloudCostModel::default();
    let session = session(&model, None);
    let core = core(&session);
    let wide = generate(
        &GeneratorConfig::paper(3, Topology::Chain, 2),
        &mut StdRng::seed_from_u64(1),
    );
    assert!(wide.validate().is_ok(), "admission lets it in");

    let answer = response(&core.handle_frame(&request_frame(1, &wide)));
    match &answer.outcome {
        WireOutcome::Panicked { message } => assert!(
            message.contains("query has 2 parameters, the space has 1"),
            "unexpected message {message}"
        ),
        other => panic!("2-parameter query answered {other:?}"),
    }
    assert_eq!(core.counters().panicked, 1);
    let valid = queries(3, 1, 1).remove(0);
    let answer = response(&core.handle_frame(&request_frame(2, &valid)));
    assert!(matches!(answer.outcome, WireOutcome::Ok(_)));
}

/// The cache is keyed on the server's own digest of the query, never on
/// the digest a request carries: two different queries sent under one
/// forged digest each get their own answer, and later honest requests
/// for either replay that query's own answer.
#[test]
fn forged_digest_cannot_share_an_answer() {
    let model = CloudCostModel::default();
    let qs = queries(3, 2, 7);
    let reference: Vec<WireOutcome> = {
        let session = session(&model, None);
        let core = core(&session);
        qs.iter()
            .enumerate()
            .map(|(i, q)| response(&core.handle_frame(&request_frame(i as u64, q))).outcome)
            .collect()
    };
    assert_ne!(
        reference[0], reference[1],
        "the two queries answer differently"
    );

    let session = session(&model, None);
    let core = core(&session);
    let forged = query_digest(&qs[0]);
    for (i, q) in qs.iter().enumerate() {
        let answer = response(&core.handle_frame(&frame_with_digest(i as u64, q, forged)));
        assert_eq!(
            answer.outcome, reference[i],
            "query {i} under a forged digest"
        );
        assert!(!answer.dedup, "query {i} is optimized, not replayed");
    }
    for (i, q) in qs.iter().enumerate() {
        let answer = response(&core.handle_frame(&request_frame(10 + i as u64, q)));
        assert_eq!(answer.outcome, reference[i], "honest replay of query {i}");
        assert!(answer.dedup, "query {i} is replayed from its own entry");
    }
}

/// A panicked answer is never replayed: a `transient(1)` query panics on
/// its first request and is answered `Ok` on an honest replay,
/// bit-identical to a plain optimize and with `dedup` false; a poison
/// query is answered `Panicked` on every replay, one optimize each.
#[test]
fn panicked_answers_are_never_replayed() {
    silence_injected_panics();
    let model = CloudCostModel::default();
    let qs = queries(3, 2, 13);
    let (transient, poison) = (&qs[0], &qs[1]);
    let reference = {
        let session = session(&model, None);
        response(&core(&session).handle_frame(&request_frame(0, transient))).outcome
    };
    assert!(matches!(reference, WireOutcome::Ok(_)));
    let mut plan = FaultPlan::new();
    plan.mark(transient, Fault::transient(1));
    plan.mark(poison, Fault::poison());
    let plan = Arc::new(plan);
    let session = session(&model, Some(plan.hook(|_| {})));
    let core = core(&session);

    let first = response(&core.handle_frame(&request_frame(1, transient)));
    assert!(matches!(first.outcome, WireOutcome::Panicked { .. }));
    let replay = response(&core.handle_frame(&request_frame(2, transient)));
    assert_eq!(
        (replay.outcome, replay.dedup),
        (reference.clone(), false),
        "the replay runs its own attempt"
    );
    let again = response(&core.handle_frame(&request_frame(3, transient)));
    assert_eq!((again.outcome, again.dedup), (reference, true));
    assert_eq!(plan.attempts_of(transient), 2);

    for i in 0..3 {
        let answer = response(&core.handle_frame(&request_frame(10 + i, poison)));
        assert!(
            matches!(answer.outcome, WireOutcome::Panicked { .. }),
            "replay {i} of the poison query"
        );
        assert!(!answer.dedup);
    }
    assert_eq!(plan.attempts_of(poison), 3);
    assert_eq!(core.counters().panicked, 4);
}
