//! The shard server: one `OptimizerSession` behind a frame-in, frame-out
//! request handler, plus TCP and unix-socket accept loops.
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
//! What the server *does* own is **idempotency**: the first answer per
//! query digest is cached, and any replay of that digest — a router
//! retry after a lost response, a duplicated frame — is answered from
//! the cache without re-running the optimizer. Combined with the
//! optimizer's determinism contract, this makes retried and duplicated
//! requests byte-indistinguishable from first tries (modulo the `dedup`
//! flag, which exists precisely so tests can assert the replay happened).
//!
//! The idempotency cache is **single-flight and bounded**, with no global
//! lock: it is the workspace's [`LiftedCostCache`], which reserves a
//! digest's slot under its ring lock and runs the optimize outside it.
//! Requests for distinct digests optimize concurrently; a replay racing
//! an in-flight digest waits for that one optimize and replays it. At
//! most [`DEDUP_CAPACITY`] answers stay resident (second-chance
//! eviction), so a long-lived server's memory does not grow with its
//! traffic.
//!
//! A query failing `Query::validate` is answered
//! [`WireOutcome::Panicked`] (`invalid query: …`) before the dedup cache,
//! without running the optimizer — the same admission rule the
//! in-process service applies. A request that panics inside the
//! optimizer is caught by [`optimize_isolated`], the in-process
//! service's own quarantine path, and answered [`WireOutcome::Panicked`];
//! the panic outcome is cached like any other, so a poison query cannot
//! be re-detonated by retries. An undecodable frame is answered
//! [`Message::Error`] — a protocol-level diagnosis the router treats as
//! retryable transport damage. The connection never hangs and never
//! dies of one bad request.
//!
//! The accept loops serve at most [`MAX_CONNECTIONS`] connections at
//! once, one thread each; a further client waits in the listen backlog
//! until a live connection closes.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use mpq_cloud::model::ParametricCostModel;
use mpq_core::session::{LiftedCostCache, OptimizerSession};
use mpq_core::space::MpqSpace;
use mpq_obs::{Counter, Obs};
use mpq_service::optimize_isolated;

use crate::wire::{
    decode_message, encode_message, peek_request, write_frame, Message, PlanSummary,
    WireMetricsResponse, WireOutcome, WireProtocolError, WireResponse,
};

/// Entry bound of a server's idempotency cache. Retries and duplicates
/// of a request arrive within one router attempt timeout, which at a
/// shard's request rate is far fewer requests than this, so an evicted
/// digest is one no router will replay; and if one ever is, the
/// re-optimized answer is bit-identical (only `dedup` differs).
pub const DEDUP_CAPACITY: usize = 4096;

/// The most connections an accept loop ([`serve_tcp`], [`serve_unix`])
/// serves at once. Each live connection holds one thread; at the cap the
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
    /// Of `handled`, the answers replayed from the idempotency cache.
    pub dedup_hits: u64,
    /// Frames that failed to decode and were answered [`Message::Error`].
    pub protocol_errors: u64,
    /// Requests answered [`WireOutcome::Panicked`]: optimizations that
    /// panicked (cached), plus queries that failed validation (never
    /// optimized).
    pub panicked: u64,
}

/// The transport-agnostic heart of a shard server: one borrowed
/// [`OptimizerSession`] plus the idempotency cache, exposed as a pure
/// `frame in → frame out` function ([`Self::handle_frame`]).
///
/// Keeping the core free of sockets is what lets the deterministic chaos
/// suite drive the *identical* code path in-process (`InProcConn` in
/// [`crate::chaos`]) that the TCP/unix accept loops drive over real
/// streams — the bit-identity invariant is verified against the very
/// handler production traffic hits.
pub struct ShardServerCore<'a, 'm, S: MpqSpace, M: ParametricCostModel + ?Sized> {
    session: &'a OptimizerSession<'m, S, M>,
    shard: u32,
    probes: Vec<Vec<f64>>,
    /// `Some(ε)` serves every request through `optimize_at(ε)` and stamps
    /// the response's `served_epsilon`; `None` serves exact.
    epsilon: Option<f64>,
    /// digest → first answer: single-flight (one optimize per resident
    /// digest, racing replays wait on it) and bounded to
    /// [`DEDUP_CAPACITY`]. Its counters register as `server_dedup`.
    dedup: LiftedCostCache<u64, (WireOutcome, Option<f64>)>,
    obs: Obs,
    handled: Counter,
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
            epsilon: None,
            dedup: LiftedCostCache::with_capacity(Some(DEDUP_CAPACITY)),
            obs: Obs::off(),
            handled: Counter::new(),
            protocol_errors: Counter::new(),
            panicked: Counter::new(),
        }
    }

    /// Attaches an observability handle: the traffic counters re-home onto
    /// the handle's registry (`server_handled`, `server_protocol_errors`,
    /// `server_panicked`), the dedup cache and the session's caches
    /// register there (`server_dedup`, and the session's under
    /// `server_`), every request emits a `server_request` span stamped
    /// with the wire `trace_id`, and [`Message::MetricsRequest`] frames
    /// are answered from the registry. Call before serving — re-homing
    /// does not migrate traffic counts already accumulated.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        if let Some(registry) = obs.registry() {
            self.handled = registry.counter("server_handled");
            self.protocol_errors = registry.counter("server_protocol_errors");
            self.panicked = registry.counter("server_panicked");
            registry.register_cache("server_dedup", self.dedup.counters());
            self.session.register_obs(registry, "server_");
        }
        self.obs = obs;
        self
    }

    /// Serves every request ε-approximately (`optimize_at(ε)`) and
    /// stamps `served_epsilon: Some(ε)` on each answer — the networked
    /// mirror of the service's precision dial. The stamp rides the wire,
    /// so cross-process runs can assert it bit-identically.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
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
            dedup_hits: self.dedup.stats().hits,
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

        // Validation at admission, the rule `ServiceHandle::submit`
        // applies: an invalid query is answered without reaching the
        // optimizer (or the dedup cache) instead of panicking inside it.
        let (outcome, served_epsilon, dedup) = if let Err(e) = request.submitted.query.validate() {
            span.record("invalid", 1);
            self.panicked.inc();
            let message = format!("invalid query: {e}");
            (WireOutcome::Panicked { message }, None, false)
        } else {
            // Idempotency: the first request for a digest optimizes
            // outside the cache lock; a racing replay of the same digest
            // waits for that optimize and replays it. A replay is any
            // call whose closure did not run.
            let mut optimized = false;
            let answer = self.dedup.get_or_lift(&request.digest, || {
                optimized = true;
                self.optimize_once(&request.submitted.query)
            });
            (answer.0.clone(), answer.1, !optimized)
        };
        span.record("dedup", u64::from(dedup));

        encode_message(&Message::Response(WireResponse {
            request_id: request.request_id,
            digest: request.digest,
            trace_id: request.trace_id,
            shard: self.shard,
            dedup,
            outcome,
            served_epsilon,
        }))
    }

    /// Optimizes and summarizes one query through the service's one
    /// quarantine path ([`optimize_isolated`]). Never unwinds: it runs
    /// inside the dedup cache's once-cell, where an unwind would poison
    /// the digest for every later replay, so the summary is taken inside
    /// the unwind guard too.
    fn optimize_once(&self, query: &mpq_catalog::Query) -> (WireOutcome, Option<f64>) {
        let summarize = |solution| PlanSummary::of(self.session.space(), &solution, &self.probes);
        match optimize_isolated(self.session, query, self.epsilon, summarize) {
            Ok(summary) => (WireOutcome::Ok(summary), self.epsilon),
            Err(message) => {
                self.panicked.inc();
                (WireOutcome::Panicked { message }, None)
            }
        }
    }
}

/// How long a connection thread sleeps in `read` before re-checking the
/// shutdown flag. Small enough that shutdown is prompt, large enough
/// that an idle connection costs ~nothing.
const POLL_TIMEOUT: Duration = Duration::from_millis(25);

/// True iff `err` is the polling timeout (both spellings — unix sockets
/// report `WouldBlock`, TCP reports `TimedOut` on some platforms).
fn is_poll_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one frame, treating poll timeouts as wake-ups rather than
/// errors: partial progress (a half-read prefix or payload) is **kept**
/// across timeouts, so a frame whose bytes straddle poll ticks can never
/// misalign the stream. This is load-bearing — a stateless reader that
/// drops partial fill on timeout turns an innocent scheduling gap
/// between the length prefix and the payload into misframing: the next
/// read interprets message-start bytes as a length and the connection
/// dies of `InvalidData`. Returns `Ok(None)` on clean EOF at a frame
/// boundary; errors on shutdown raised mid-wait, oversized prefixes,
/// mid-frame EOF, and real stream failures.
fn read_frame_patient<T: io::Read>(
    stream: &mut T,
    shutdown: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    fn fill<T: io::Read>(
        stream: &mut T,
        buf: &mut [u8],
        shutdown: &AtomicBool,
        eof_ok_at_zero: bool,
    ) -> io::Result<Option<()>> {
        let mut got = 0usize;
        while got < buf.len() {
            match stream.read(&mut buf[got..]) {
                Ok(0) if got == 0 && eof_ok_at_zero => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream closed mid frame",
                    ))
                }
                Ok(n) => got += n,
                Err(err) if is_poll_timeout(&err) => {
                    if shutdown.load(Ordering::Relaxed) {
                        return Err(err);
                    }
                    // Poll tick — keep waiting, keep the bytes we have.
                }
                Err(err) => return Err(err),
            }
        }
        Ok(Some(()))
    }

    let mut len_bytes = [0u8; 4];
    if fill(stream, &mut len_bytes, shutdown, true)?.is_none() {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > crate::wire::MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            crate::wire::WireError::Oversized {
                declared: len,
                cap: crate::wire::MAX_FRAME_LEN,
            },
        ));
    }
    let mut payload = vec![0u8; len];
    fill(stream, &mut payload, shutdown, false)?;
    Ok(Some(payload))
}

/// Serves one established stream until the peer closes it or `shutdown`
/// is raised: read a frame, answer it, repeat.
fn serve_stream<T: io::Read + io::Write>(
    stream: &mut T,
    core_handle: &dyn Fn(&[u8]) -> Vec<u8>,
    shutdown: &AtomicBool,
) {
    loop {
        match read_frame_patient(stream, shutdown) {
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
    accept_loop(
        || listener.accept().map(|(stream, _addr)| stream),
        |stream: &TcpStream| {
            // Answers are one-frame writes on a request/reply cadence;
            // Nagle only adds latency here.
            let _ = stream.set_nodelay(true);
            stream.set_read_timeout(Some(POLL_TIMEOUT))
        },
        core,
        shutdown,
    );
    Ok(())
}

/// [`serve_tcp`] over a unix socket listener.
pub fn serve_unix<S, M>(
    listener: UnixListener,
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
    accept_loop(
        || listener.accept().map(|(stream, _addr)| stream),
        |stream: &UnixStream| stream.set_read_timeout(Some(POLL_TIMEOUT)),
        core,
        shutdown,
    );
    Ok(())
}

/// The accept loop behind [`serve_tcp`] and [`serve_unix`]: polls the
/// non-blocking `accept` until `shutdown` is raised, and serves each
/// connection on its own scoped thread after `configure` prepares it (a
/// stream that cannot be configured is dropped). While
/// [`MAX_CONNECTIONS`] connections are live it does not call `accept`.
fn accept_loop<T, S, M>(
    accept: impl Fn() -> io::Result<T>,
    configure: fn(&T) -> io::Result<()>,
    core: &ShardServerCore<'_, '_, S, M>,
    shutdown: &AtomicBool,
) where
    T: io::Read + io::Write + Send,
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized + Sync,
{
    let live = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        while !shutdown.load(Ordering::Relaxed) {
            if live.load(Ordering::Relaxed) >= MAX_CONNECTIONS {
                std::thread::sleep(POLL_TIMEOUT);
                continue;
            }
            match accept() {
                Ok(mut stream) => {
                    live.fetch_add(1, Ordering::Relaxed);
                    let live = &live;
                    scope.spawn(move || {
                        if configure(&stream).is_ok() {
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
}
