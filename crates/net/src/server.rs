//! The shard server: one `OptimizerSession` behind a frame-in, frame-out
//! request handler, plus a TCP accept loop.
//!
//! The server is deliberately *thin and pure*: [`ShardServerCore`] owns
//! no clock, no retry state and no deadline logic — it maps one request
//! frame to one response frame, always. Every robustness decision that
//! needs time (attempt timeouts, backoff, deadline classification) lives
//! in the router, which owns the submitter's clock; absolute deadlines do
//! not transfer between processes that don't share a clock, so the server
//! ignores [`SubmittedQuery::deadline`](mpq_service::SubmittedQuery)
//! entirely.
//!
//! What the server *does* own is **idempotency**, through the
//! [`AnswerCache`] the in-process service uses too (its docs hold the
//! rule): a retried or duplicated request is answered from the first
//! answer to its query, byte-identical to a first try but for the
//! `dedup` flag, which exists so tests can assert the replay happened.
//! The cache validates at admission, keys on its own digest of the query
//! (never the client's), runs a colliding request unshared, lets a
//! replay racing its leader wait on a channel while distinct queries
//! optimize concurrently, and never replays a panic: a transient fault
//! heals on retry, and a poison query panics on every attempt.
//!
//! A request that panics inside the optimizer is caught by
//! [`optimize_isolated`], the in-process service's own quarantine path,
//! and answered [`WireOutcome::Panicked`]. An undecodable frame is
//! answered [`Message::Error`] — a protocol-level diagnosis the router
//! treats as retryable transport damage. The connection never hangs and
//! never dies of one bad request.
//!
//! The accept loop serves at most [`MAX_CONNECTIONS`] connections at
//! once, one thread each; a further client waits in the listen backlog
//! until a live connection closes.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use mpq_catalog::Query;
use mpq_cloud::model::ParametricCostModel;
use mpq_core::session::OptimizerSession;
use mpq_core::space::MpqSpace;
use mpq_obs::{Counter, Obs};
use mpq_service::answer_cache::{Lookup, Release, Shareable};
use mpq_service::{optimize_isolated, AnswerCache, SubmittedQuery};

use crate::wire::{
    decode_message, encode_message, is_poll_timeout, peek_request, read_frame, write_frame,
    Message, PlanSummary, WireMetricsResponse, WireOutcome, WireProtocolError, WireResponse,
};

/// The most connections [`serve_tcp`] serves at once. Each live connection holds one thread; at the cap the
/// loop stops accepting, so a further client waits in the listen backlog
/// instead of costing a thread, and is accepted when a live connection
/// closes. A router holds one connection per shard, so this bounds
/// threads, not routers' throughput.
pub const MAX_CONNECTIONS: usize = 64;

/// Monotone counters a shard server keeps about its own traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Request frames answered (including replays and panics).
    pub handled: u64,
    /// Of `handled`, the replays: responses sent with `dedup: true`,
    /// answered from another request's optimize. A request whose key
    /// holds another query, or that runs again after a panicked answer,
    /// is answered unshared and not counted (the idempotency cache's own
    /// key hits, which do count it, register as `server_dedup`).
    pub dedup_hits: u64,
    /// Frames that failed to decode and were answered [`Message::Error`].
    pub protocol_errors: u64,
    /// Requests answered [`WireOutcome::Panicked`]: optimizations that
    /// panicked (never shared), plus queries that failed validation
    /// (never optimized).
    pub panicked: u64,
}

/// The cache's panic rule: a `Panicked` answer is never shared.
impl Shareable for WireOutcome {
    fn panicked(&self) -> bool {
        matches!(self, WireOutcome::Panicked { .. })
    }
}

/// The transport-agnostic heart of a shard server: one borrowed
/// [`OptimizerSession`] plus the idempotency cache, exposed as a total
/// `frame in → frame out` function ([`Self::handle_frame`]).
///
/// Keeping the core free of sockets is what lets the deterministic chaos
/// suite drive the *identical* code path in-process (`InProcConn` in
/// [`crate::chaos`]) that the TCP accept loop drives over real
/// streams — the bit-identity invariant is verified against the very
/// handler production traffic hits.
pub struct ShardServerCore<'a, 'm, S: MpqSpace, M: ParametricCostModel + ?Sized> {
    session: &'a OptimizerSession<'m, S, M>,
    shard: u32,
    probes: Vec<Vec<f64>>,
    /// The idempotency cache; a replay racing its leader waits on a
    /// channel. Its counters register as `server_dedup`.
    answers: AnswerCache<WireOutcome, mpsc::Sender<WireOutcome>>,
    obs: Obs,
    handled: Counter,
    replays: Counter,
    protocol_errors: Counter,
    panicked: Counter,
}

impl<'a, 'm, S, M> ShardServerCore<'a, 'm, S, M>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized,
{
    /// A server core for shard `shard`, summarizing answers at `probes`
    /// (the frontier probe points baked into every [`PlanSummary`]).
    pub fn new(session: &'a OptimizerSession<'m, S, M>, shard: u32, probes: Vec<Vec<f64>>) -> Self {
        Self {
            session,
            shard,
            probes,
            answers: AnswerCache::default(),
            obs: Obs::off(),
            handled: Counter::new(),
            replays: Counter::new(),
            protocol_errors: Counter::new(),
            panicked: Counter::new(),
        }
    }

    /// Attaches an observability handle: the traffic counters re-home onto
    /// the handle's registry (`server_handled`, `server_replays`,
    /// `server_protocol_errors`, `server_panicked`), the dedup cache and
    /// the session's caches register there (`server_dedup`, and the
    /// session's under `server_`), every request emits a `server_request`
    /// span stamped with the wire `trace_id`, and [`Message::MetricsRequest`] frames
    /// are answered from the registry. Call before serving — re-homing
    /// does not migrate traffic counts already accumulated.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        if let Some(registry) = obs.registry() {
            self.handled = registry.counter("server_handled");
            self.replays = registry.counter("server_replays");
            self.protocol_errors = registry.counter("server_protocol_errors");
            self.panicked = registry.counter("server_panicked");
            registry.register_cache("server_dedup", self.answers.counters());
            self.session.register_obs(registry, "server_");
        }
        self.obs = obs;
        self
    }

    /// This core's shard index (echoed in every response).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Snapshot of the server-side counters (a thin view over the same
    /// cells the registry exposes when observability is on).
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            handled: self.handled.get(),
            dedup_hits: self.replays.get(),
            protocol_errors: self.protocol_errors.get(),
            panicked: self.panicked.get(),
        }
    }

    /// Maps one request payload to one response payload. Total: every
    /// input — including undecodable garbage — yields exactly one
    /// well-formed answer frame, never a panic, never silence.
    pub fn handle_frame(&self, payload: &[u8]) -> Vec<u8> {
        let request = match decode_message(payload) {
            Ok(Message::Request(req)) => req,
            Ok(Message::MetricsRequest(scrape)) => {
                // A metrics scrape: flatten the registry (empty when this
                // server runs unobserved — the scrape itself still
                // succeeds, so routers need not know who is observed).
                let samples = self.obs.registry().map(|r| r.samples()).unwrap_or_default();
                return encode_message(&Message::MetricsResponse(WireMetricsResponse {
                    request_id: scrape.request_id,
                    shard: self.shard,
                    samples,
                }));
            }
            Ok(_) => {
                self.protocol_errors.inc();
                return encode_message(&Message::Error(WireProtocolError {
                    request_id: 0,
                    message: "expected a request frame".into(),
                }));
            }
            Err(err) => {
                self.protocol_errors.inc();
                // Salvage the request id if the header survived the
                // damage, so the client can match the diagnosis to an
                // in-flight request.
                let request_id = peek_request(payload).map(|(id, _, _)| id).unwrap_or(0);
                return encode_message(&Message::Error(WireProtocolError {
                    request_id,
                    message: err.to_string(),
                }));
            }
        };
        self.handled.inc();
        // Install the handle for the optimize below, so the optimizer's
        // own spans (`optimize`, `dp_level`) nest under this request's —
        // and stamp the span with the *wire* trace id, which is what
        // makes it joinable with the router's span for the same request
        // across the process boundary.
        let _obs_guard = mpq_obs::install(&self.obs);
        let mut span = self.obs.span("server_request");
        span.record("trace", request.trace_id);
        span.record("request", request.request_id);
        span.record("shard", u64::from(self.shard));
        span.record("attempt", u64::from(request.attempt));

        // The server ignores deadlines, so it shares by query alone.
        let submitted = SubmittedQuery::new(request.submitted.query);
        let query = &submitted.query;
        let (waiter, replay) = mpsc::channel();
        let (outcome, dedup) = match self.answers.lookup(&submitted, || waiter, || true) {
            Lookup::Invalid(message) => {
                span.record("invalid", 1);
                self.panicked.inc();
                (WireOutcome::Panicked { message }, false)
            }
            Lookup::Done(outcome) => (WireOutcome::clone(&outcome), true),
            Lookup::Waiting => match replay.recv() {
                Ok(outcome) => (outcome, true),
                // The leader panicked: this request gets its own attempt.
                Err(_) => (self.optimize_once(query), false),
            },
            Lookup::Run(lead) => {
                let outcome = self.optimize_once(query);
                // A panicked answer releases its waiters by dropping
                // their channels: each then runs its own attempt.
                if let Some(Release::Share(waiters)) = lead.map(|lead| lead.resolve(&outcome)) {
                    for waiter in waiters {
                        let _ = waiter.send(outcome.clone());
                    }
                }
                (outcome, false)
            }
            // The server admits every request.
            Lookup::Refused => (WireOutcome::Rejected, false),
        };
        span.record("dedup", u64::from(dedup));
        if dedup {
            self.replays.inc();
        }

        encode_message(&Message::Response(WireResponse {
            request_id: request.request_id,
            digest: request.digest,
            trace_id: request.trace_id,
            shard: self.shard,
            dedup,
            outcome,
            served_epsilon: None,
        }))
    }

    /// Optimizes and summarizes one query through the service's one
    /// quarantine path ([`optimize_isolated`]). Never unwinds: a leader
    /// that unwound would leave its waiters blocked, so the summary is
    /// taken inside the unwind guard too.
    fn optimize_once(&self, query: &Query) -> WireOutcome {
        let summarize = |solution| PlanSummary::of(self.session.space(), &solution, &self.probes);
        match optimize_isolated(self.session, query, None, summarize) {
            Ok(summary) => WireOutcome::Ok(summary),
            Err(message) => {
                self.panicked.inc();
                WireOutcome::Panicked { message }
            }
        }
    }
}

/// How long a connection thread sleeps in `read` before re-checking the
/// shutdown flag. Small enough that shutdown is prompt, large enough
/// that an idle connection costs ~nothing.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// Serves one established stream until the peer closes it or `shutdown`
/// is raised: read a frame (waiting through poll timeouts while
/// `shutdown` is low), answer it, repeat.
fn serve_stream(
    stream: &mut TcpStream,
    core_handle: &dyn Fn(&[u8]) -> Vec<u8>,
    shutdown: &AtomicBool,
) {
    loop {
        match read_frame(stream, || !shutdown.load(Ordering::Relaxed)) {
            Ok(Some(payload)) => {
                if write_frame(stream, &core_handle(&payload)).is_err() {
                    return; // peer gone mid-answer; nothing to salvage
                }
            }
            Ok(None) => return, // clean EOF at a frame boundary
            // Shutdown raised mid-wait, an oversized prefix, or a damaged
            // stream: close; the router self-heals and retries.
            Err(_) => return,
        }
    }
}

/// Runs a TCP accept loop for `core` on `listener` until `shutdown` is
/// raised, answering each connection on its own scoped thread. Blocks
/// the calling thread — spawn it inside your own [`std::thread::scope`]
/// next to the router under test, or give it a dedicated thread.
///
/// The loop polls the non-blocking `accept`; while [`MAX_CONNECTIONS`]
/// connections are live it does not call it. A stream that cannot be
/// configured (no-delay, poll read timeout) is dropped.
pub fn serve_tcp<S, M>(
    listener: TcpListener,
    core: &ShardServerCore<'_, '_, S, M>,
    shutdown: &AtomicBool,
) -> io::Result<()>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized + Sync,
{
    listener.set_nonblocking(true)?;
    let live = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        while !shutdown.load(Ordering::Relaxed) {
            if live.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                std::thread::sleep(POLL_TIMEOUT);
                continue;
            }
            match listener.accept() {
                Ok((mut stream, _addr)) => {
                    live.fetch_add(1, Ordering::Relaxed);
                    let live = &live;
                    scope.spawn(move || {
                        // Answers are one-frame writes on a request/reply
                        // cadence; Nagle only adds latency here.
                        let _ = stream.set_nodelay(true);
                        if stream.set_read_timeout(Some(POLL_TIMEOUT)).is_ok() {
                            serve_stream(&mut stream, &|p| core.handle_frame(p), shutdown);
                        }
                        live.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(err) if is_poll_timeout(&err) => {
                    std::thread::sleep(POLL_TIMEOUT);
                }
                Err(_) => break,
            }
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::wire::WireRequest;
    use mpq_catalog::fault::query_digest;
    use mpq_catalog::generator::{generate, GeneratorConfig};
    use mpq_catalog::graph::Topology;
    use mpq_cloud::model::CloudCostModel;
    use mpq_core::grid_space::GridSpace;
    use mpq_core::session::SessionConfig;
    use mpq_core::OptimizerConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Sends `query` under its honest digest; returns the outcome and the
    /// `dedup` flag.
    fn ask<M: ParametricCostModel + ?Sized>(
        core: &ShardServerCore<'_, '_, GridSpace, M>,
        request_id: u64,
        query: &Query,
    ) -> (WireOutcome, bool) {
        let frame = core.handle_frame(&encode_message(&Message::Request(WireRequest {
            request_id,
            digest: query_digest(query),
            attempt: 0,
            trace_id: request_id,
            submitted: SubmittedQuery::new(query.clone()),
        })));
        match decode_message(&frame) {
            Ok(Message::Response(r)) => (r.outcome, r.dedup),
            other => panic!("expected a response frame, got {other:?}"),
        }
    }

    /// A digest collision never shares: with another query's answer
    /// planted under this query's digest, the request is optimized
    /// unshared, gets its own answer, and leaves the entry as it was.
    #[test]
    fn colliding_digest_runs_unshared() {
        let model = CloudCostModel::default();
        let opt = OptimizerConfig {
            threads: Some(1),
            ..OptimizerConfig::default_for(1)
        };
        let space = GridSpace::for_unit_box(1, &opt, 2).expect("grid space");
        let mut config = SessionConfig::new(opt).without_subtree_cache();
        config.cached = false;
        let session = OptimizerSession::with_config(space, &model, config);
        let probes = vec![vec![0.0], vec![1.0]];
        let mut rng = StdRng::seed_from_u64(3);
        let generator = GeneratorConfig::paper(3, Topology::Chain, 1);
        let (own, other) = (
            generate(&generator, &mut rng),
            generate(&generator, &mut rng),
        );
        let fresh = ShardServerCore::new(&session, 0, probes.clone());
        let (reference, planted) = (ask(&fresh, 0, &own).0, ask(&fresh, 1, &other).0);
        assert_ne!(reference, planted, "the two queries answer differently");

        let core = ShardServerCore::new(&session, 0, probes);
        let key = core.answers.key(&SubmittedQuery::new(own.clone()));
        let no_waiter = || unreachable!("the key is vacant");
        match core
            .answers
            .lookup_at(key, &SubmittedQuery::new(other), no_waiter, || true)
        {
            Lookup::Run(Some(lead)) => drop(lead.resolve(&planted)),
            _ => panic!("the planted query leads its key"),
        }
        assert_eq!(ask(&core, 2, &own), (reference.clone(), false));
        assert_eq!(
            ask(&core, 3, &own),
            (reference, false),
            "the entry stays the other's"
        );
    }
}
