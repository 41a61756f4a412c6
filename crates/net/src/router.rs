//! The retrying affinity router: the client half of the shard fabric.
//!
//! The router owns every robustness decision that needs a clock:
//! per-attempt timeouts, deadline-aware retry with seeded exponential
//! backoff and deterministic jitter, capped reconnection, and the final
//! classification of a query that could not be served —
//! [`WireOutcome::TimedOut`] when its deadline has passed,
//! [`WireOutcome::Unavailable`] when retries ran out first. A submitted
//! query therefore resolves to **exactly one** outcome, always: the
//! router never hangs (every wait is bounded by an attempt timeout) and
//! never silently drops a query.
//!
//! Routing is by *content affinity*, not connection order:
//! `shard = affinity(query) % shards`, the same
//! [`mpq_core::session::query_affinity`] digest the in-process
//! `ShardedSession` routes by — so a networked deployment and an
//! in-process one send every query to the same shard index, which is one
//! of the two pillars of the bit-identity invariant (the other is server
//! idempotency: retries replay, they never re-optimize a healthy answer).
//!
//! Time is abstracted behind [`NetTime`] so the chaos proptest can run
//! the *identical* retry/backoff/deadline logic under the service's
//! deterministic [`VirtualClock`] — sleeps
//! advance virtual time instead of burning wall time, and a fixed
//! (trace, fault plan, seed) replays the exact same attempt schedule
//! forever.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mpq_catalog::fault::query_digest;
use mpq_catalog::Query;
use mpq_cloud::shape::fnv1a_bytes;
use mpq_service::{ServiceClock, ServiceStats, ShardStats, SubmittedQuery, VirtualClock};

use mpq_obs::{Histogram, Obs};

use crate::wire::{
    decode_message, encode_message, write_frame, Message, WireError, WireMetricsRequest,
    WireOutcome, WireRequest,
};

/// A transport-layer failure, as the router sees it. Unlike
/// [`WireError`] (a *decode* diagnosis), every variant here is
/// retryable: the router's loop treats them all as "this attempt is
/// lost, decide whether another is worth it".
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// The attempt's timeout expired with no answer.
    Timeout,
    /// The connection is closed and could not be (re)established.
    Closed(String),
    /// The stream failed mid-exchange.
    Io(String),
    /// The answer arrived but would not decode.
    Wire(WireError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Timeout => write!(f, "attempt timed out"),
            NetError::Closed(why) => write!(f, "connection closed: {why}"),
            NetError::Io(why) => write!(f, "stream error: {why}"),
            NetError::Wire(err) => write!(f, "wire error: {err}"),
        }
    }
}

impl std::error::Error for NetError {}

/// One shard's connection, as the router drives it: a synchronous
/// request/response exchange with a bounded wait.
///
/// The synchronous shape is deliberate — it is what makes the chaos
/// suite deterministic. An in-process implementation answers inline with
/// zero threads and zero real waiting; the socket implementation maps
/// the timeout onto `SO_RCVTIMEO`. Implementations self-heal: a failed
/// call may tear the transport down, and the *next* call re-establishes
/// it (counted in [`Self::reconnects`]).
pub trait ShardConn {
    /// Sends one request frame and waits at most `timeout_secs` for the
    /// answer frame.
    fn call(&mut self, frame: &[u8], timeout_secs: f64) -> Result<Vec<u8>, NetError>;

    /// Connection re-establishments performed after the first successful
    /// dial (transport effort, surfaced as `ServiceStats::reconnects`).
    fn reconnects(&self) -> u64 {
        0
    }

    /// Frames destroyed in flight — non-zero only for fault-injecting
    /// wrappers, which alone can observe a drop exactly.
    fn dropped(&self) -> u64 {
        0
    }
}

/// A dialable byte stream ([`TcpStream`], [`UnixStream`]): the bound
/// [`StreamConn`] needs to run its exchange with a bounded read.
pub trait NetStream: Read + Write {
    /// Bounds every subsequent read by `timeout`.
    fn set_read_timeout_secs(&self, timeout: Duration) -> std::io::Result<()>;
}

impl NetStream for TcpStream {
    fn set_read_timeout_secs(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }
}

impl NetStream for UnixStream {
    fn set_read_timeout_secs(&self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }
}

/// [`ShardConn`] over a real byte stream, with lazy dialing and
/// self-healing: any failed exchange (timeout included) tears the stream
/// down, and the next call re-dials. Tearing down on *timeout* is what
/// keeps the protocol in lockstep — a late answer to an abandoned
/// attempt dies with its connection instead of surfacing as the answer
/// to the next request.
pub struct StreamConn<T: NetStream> {
    stream: Option<T>,
    dial: Box<dyn FnMut() -> std::io::Result<T> + Send>,
    /// True once any dial has succeeded (so `reconnects` counts
    /// *re*-establishment, not the first connect).
    dialed: bool,
    reconnects: u64,
}

impl<T: NetStream> StreamConn<T> {
    /// A connection that dials with `dial` on first use and after every
    /// failure.
    pub fn new(dial: impl FnMut() -> std::io::Result<T> + Send + 'static) -> Self {
        Self {
            stream: None,
            dial: Box::new(dial),
            dialed: false,
            reconnects: 0,
        }
    }

    fn ensure_stream(&mut self) -> Result<&mut T, NetError> {
        if self.stream.is_none() {
            let stream = (self.dial)().map_err(|e| NetError::Closed(e.to_string()))?;
            if self.dialed {
                self.reconnects += 1;
            }
            self.dialed = true;
            self.stream = Some(stream);
        }
        // The branch above just filled it; `ok_or` keeps this panic-free.
        self.stream
            .as_mut()
            .ok_or(NetError::Closed("stream vanished".into()))
    }
}

impl StreamConn<TcpStream> {
    /// A TCP connection to `addr`, dialed with `connect_timeout` (a dead
    /// address costs a bounded wait, never a hang).
    pub fn tcp(addr: SocketAddr, connect_timeout: Duration) -> Self {
        Self::new(move || {
            let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
            // Requests are single-frame writes on a request/reply cadence;
            // Nagle only delays them.
            stream.set_nodelay(true)?;
            Ok(stream)
        })
    }
}

impl StreamConn<UnixStream> {
    /// A unix-socket connection to `path`.
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        Self::new(move || UnixStream::connect(&path))
    }
}

impl<T: NetStream> ShardConn for StreamConn<T> {
    fn call(&mut self, frame: &[u8], timeout_secs: f64) -> Result<Vec<u8>, NetError> {
        let timeout = Duration::from_secs_f64(timeout_secs.max(1e-3));
        let result = (|| {
            let stream = self.ensure_stream()?;
            stream
                .set_read_timeout_secs(timeout)
                .map_err(|e| NetError::Io(e.to_string()))?;
            write_frame(stream, frame).map_err(|e| NetError::Io(e.to_string()))?;
            // A read timeout ends the attempt: never keep waiting.
            match crate::wire::read_frame(stream, || false) {
                Ok(Some(payload)) => Ok(payload),
                Ok(None) => Err(NetError::Closed("peer closed the stream".into())),
                Err(e) if crate::wire::is_poll_timeout(&e) => Err(NetError::Timeout),
                Err(e) => Err(NetError::Io(e.to_string())),
            }
        })();
        if result.is_err() {
            // Self-heal: the next call re-dials. See the type docs for
            // why timeouts tear down too.
            self.stream = None;
        }
        result
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }
}

/// When and how hard to retry. All quantities are service-clock seconds;
/// backoff is exponential with a deterministic, digest-seeded jitter —
/// two routers built with the same seed retry the same query on the same
/// schedule, which is what makes chaos runs replayable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per query (first try included). ≥ 1.
    pub max_attempts: u32,
    /// Bound on each attempt's wait for an answer.
    pub attempt_timeout: f64,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: f64,
    /// Cap on any single backoff.
    pub max_backoff: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by
    /// `1 - jitter · u` with `u ∈ [0, 1)` drawn deterministically from
    /// (seed, digest, attempt).
    pub jitter: f64,
    /// Seed for the jitter draws.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            attempt_timeout: 0.2,
            base_backoff: 0.025,
            max_backoff: 0.4,
            jitter: 0.5,
            seed: 0x9e37_79b9,
        }
    }
}

impl RetryPolicy {
    /// The backoff before attempt `attempt` (1-based retry index) of the
    /// query with `digest`. Pure function of `(self, digest, attempt)`.
    pub fn backoff(&self, digest: u64, attempt: u32) -> f64 {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = (self.base_backoff * (1u64 << exp) as f64).min(self.max_backoff);
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&digest.to_le_bytes());
        bytes[16..].copy_from_slice(&attempt.to_le_bytes());
        let u = (fnv1a_bytes(&bytes) >> 11) as f64 / (1u64 << 53) as f64;
        raw * (1.0 - self.jitter.clamp(0.0, 1.0) * u)
    }
}

/// The router's notion of time: a [`ServiceClock`] to read and a way to
/// sleep against it. [`Self::wall`] burns real time;
/// [`Self::virtual_time`] advances a [`VirtualClock`], so retry schedules
/// replay deterministically and a chaos run over thousands of faulted
/// attempts finishes in milliseconds.
#[derive(Clone)]
pub struct NetTime {
    clock: ServiceClock,
    sleep: Arc<dyn Fn(f64) + Send + Sync>,
}

impl NetTime {
    /// Real time: a monotonic clock and [`std::thread::sleep`].
    pub fn wall() -> Self {
        let epoch = std::time::Instant::now();
        Self {
            clock: Arc::new(move || epoch.elapsed().as_secs_f64()),
            sleep: Arc::new(|secs| {
                if secs > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(secs));
                }
            }),
        }
    }

    /// Deterministic time over `vclock`: sleeping advances the clock
    /// instead of waiting.
    pub fn virtual_time(vclock: &VirtualClock) -> Self {
        let clock = vclock.clock();
        let read = vclock.clock();
        let sleeper = VirtualClock::clone(vclock);
        Self {
            clock,
            sleep: Arc::new(move |secs| {
                if secs > 0.0 {
                    sleeper.advance_to_secs(read() + secs);
                }
            }),
        }
    }

    /// Now, in service-clock seconds.
    pub fn now(&self) -> f64 {
        (self.clock)()
    }

    /// Sleeps `secs` (real or virtual per construction).
    pub fn sleep(&self, secs: f64) {
        (self.sleep)(secs)
    }
}

/// One resolved submission, as the router reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct NetResponse {
    /// What became of the query. Always present — degraded outcomes
    /// ([`WireOutcome::TimedOut`], [`WireOutcome::Unavailable`]) are
    /// synthesized by the router when the wire failed it.
    pub outcome: WireOutcome,
    /// The shard the query routed to (by affinity, even if unreachable).
    pub shard: usize,
    /// Attempts made (1 = first try sufficed).
    pub attempts: u32,
    /// True iff the winning answer was a server-side cache replay.
    pub dedup: bool,
    /// ε stamp, when the shard served approximately.
    pub served_epsilon: Option<f64>,
    /// Submit-to-resolution latency in service-clock seconds.
    pub latency: f64,
}

/// A stable numeric code for each outcome variant, recorded on the
/// router's `route_request` span (span fields are `u64`).
fn outcome_code(outcome: &WireOutcome) -> u64 {
    match outcome {
        WireOutcome::Ok(_) => 0,
        WireOutcome::Panicked { .. } => 1,
        WireOutcome::TimedOut => 2,
        WireOutcome::Rejected => 3,
        WireOutcome::Shutdown => 4,
        WireOutcome::Unavailable => 5,
    }
}

#[derive(Debug, Default)]
struct RouterCounters {
    submitted: u64,
    completed: u64,
    approx_served: u64,
    rejected: u64,
    timed_out: u64,
    quarantined: u64,
    unavailable: u64,
    retries: u64,
    per_shard_queries: Vec<u64>,
    /// Latencies of `Ok` answers: bounded memory however long the
    /// router lives.
    latencies: Histogram,
}

/// The client front of the shard fabric: affinity-routes each submission
/// to its shard's connection and drives the retry loop to exactly one
/// outcome. See the module docs for the invariants.
pub struct ShardRouter<'a, C: ShardConn> {
    conns: Vec<C>,
    affinity: Box<dyn Fn(&Query) -> u64 + Send + 'a>,
    policy: RetryPolicy,
    time: NetTime,
    next_request_id: u64,
    next_trace_id: u64,
    counters: RouterCounters,
    obs: Obs,
}

impl<'a, C: ShardConn> ShardRouter<'a, C> {
    /// A router over one connection per shard. `affinity` must compute
    /// [`mpq_core::session::query_affinity`] under the *same cost model*
    /// the servers optimize with — shard routing is part of the
    /// bit-identity contract, so client and server must agree on it.
    ///
    /// # Panics
    /// Panics if `conns` is empty.
    pub fn new(
        conns: Vec<C>,
        affinity: impl Fn(&Query) -> u64 + Send + 'a,
        policy: RetryPolicy,
        time: NetTime,
    ) -> Self {
        assert!(!conns.is_empty(), "a router needs at least one shard");
        let shards = conns.len();
        Self {
            conns,
            affinity: Box::new(affinity),
            policy,
            time,
            next_request_id: 1,
            next_trace_id: 1,
            counters: RouterCounters {
                per_shard_queries: vec![0; shards],
                ..RouterCounters::default()
            },
            obs: Obs::off(),
        }
    }

    /// Attaches an observability handle: every submission opens a
    /// `route_request` span stamped with the trace id it sent on the
    /// wire, so router spans join server spans across the process
    /// boundary. With [`Obs::off`] (the default) nothing is recorded.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The shard `query` routes to.
    pub fn shard_of(&self, query: &Query) -> usize {
        ((self.affinity)(query) % self.conns.len() as u64) as usize
    }

    /// Submits one query and drives it to exactly one outcome. Never
    /// hangs: every wait is bounded by the policy's attempt timeout, and
    /// the worst case is `max_attempts` timeouts plus their backoffs.
    pub fn submit(&mut self, submitted: SubmittedQuery) -> NetResponse {
        let digest = query_digest(&submitted.query);
        let shard = self.shard_of(&submitted.query);
        // The trace id is per *query*, not per attempt: every retry of
        // this submission carries the same id, so the server-side spans
        // of all attempts join this router span under one trace.
        let trace_id = self.next_trace_id;
        self.next_trace_id += 1;
        let mut span = self.obs.span("route_request");
        span.record("trace", trace_id);
        span.record("shard", shard as u64);
        self.counters.submitted += 1;
        self.counters.per_shard_queries[shard] += 1;
        let start = self.time.now();
        let deadline = submitted.deadline;
        let frame_of = |request_id: u64, attempt: u32| {
            encode_message(&Message::Request(WireRequest {
                request_id,
                digest,
                attempt,
                trace_id,
                submitted: submitted.clone(),
            }))
        };

        let mut attempts = 0u32;
        let response = loop {
            if attempts >= self.policy.max_attempts {
                // Out of attempts. A deadline that has meanwhile expired
                // makes this a timeout; otherwise the shard is
                // unavailable.
                let outcome = if deadline.is_some_and(|d| self.time.now() > d) {
                    WireOutcome::TimedOut
                } else {
                    WireOutcome::Unavailable
                };
                break self.resolve(shard, start, attempts, false, None, outcome);
            }
            // Deadline first: a query whose budget has expired is
            // classified, not retried — graceful degradation is an
            // answer, not an absence.
            if deadline.is_some_and(|d| self.time.now() > d) {
                break self.resolve(
                    shard,
                    start,
                    attempts.max(1),
                    false,
                    None,
                    WireOutcome::TimedOut,
                );
            }
            if attempts > 0 {
                self.counters.retries += 1;
                self.time.sleep(self.policy.backoff(digest, attempts));
            }
            let request_id = self.next_request_id;
            self.next_request_id += 1;
            let frame = frame_of(request_id, attempts);
            attempts += 1;
            match self.conns[shard].call(&frame, self.policy.attempt_timeout) {
                Ok(payload) => match decode_message(&payload) {
                    Ok(Message::Response(resp))
                        if resp.request_id == request_id && resp.digest == digest =>
                    {
                        break self.resolve(
                            shard,
                            start,
                            attempts,
                            resp.dedup,
                            resp.served_epsilon,
                            resp.outcome,
                        );
                    }
                    // A stale answer, a protocol-error report, or a
                    // frame too damaged to decode: this attempt is lost,
                    // but the server's idempotency cache makes the retry
                    // safe (only a panicked query runs again).
                    Ok(_) | Err(_) => continue,
                },
                Err(_) => continue, // timeout / closed / io — retry
            }
        };
        span.record("attempts", u64::from(response.attempts));
        span.record("outcome", outcome_code(&response.outcome));
        if response.dedup {
            span.record("dedup", 1);
        }
        response
    }

    /// Scrapes shard `shard`'s metrics registry over the wire: one
    /// [`Message::MetricsRequest`] exchange, answered from the server's
    /// registry as `(name, value)` samples (empty when the server runs
    /// with observability off). Uses the policy's attempt timeout but
    /// never retries — a scrape is a diagnostic read, not a query.
    pub fn scrape(&mut self, shard: usize) -> Result<Vec<(String, f64)>, NetError> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let frame = encode_message(&Message::MetricsRequest(WireMetricsRequest { request_id }));
        let payload = self.conns[shard].call(&frame, self.policy.attempt_timeout)?;
        match decode_message(&payload) {
            Ok(Message::MetricsResponse(resp)) if resp.request_id == request_id => Ok(resp.samples),
            Ok(_) => Err(NetError::Io(
                "scrape answered with a non-metrics frame".into(),
            )),
            Err(err) => Err(NetError::Wire(err)),
        }
    }

    fn resolve(
        &mut self,
        shard: usize,
        start: f64,
        attempts: u32,
        dedup: bool,
        served_epsilon: Option<f64>,
        outcome: WireOutcome,
    ) -> NetResponse {
        let latency = self.time.now() - start;
        match &outcome {
            WireOutcome::Ok(_) => {
                self.counters.completed += 1;
                if served_epsilon.is_some() {
                    self.counters.approx_served += 1;
                }
                self.counters.latencies.record_secs(latency);
            }
            WireOutcome::Panicked { .. } => self.counters.quarantined += 1,
            WireOutcome::TimedOut => self.counters.timed_out += 1,
            WireOutcome::Rejected => self.counters.rejected += 1,
            // A shard that answers `Shutdown` is as unavailable to this
            // query as one that never answered.
            WireOutcome::Shutdown | WireOutcome::Unavailable => self.counters.unavailable += 1,
        }
        NetResponse {
            outcome,
            shard,
            attempts,
            dedup,
            served_epsilon,
            latency,
        }
    }

    /// Borrow of shard `i`'s connection (for counter inspection).
    pub fn conn(&self, i: usize) -> &C {
        &self.conns[i]
    }

    /// Snapshot of the router's counters as a [`ServiceStats`] — the
    /// same accounting type the in-process service reports, so the
    /// conservation identity and the wire counters are asserted through
    /// one code path in both chaos suites. Batch-layer fields
    /// (`batches`, triggers, `lps_solved`, cache stats) are zero: the
    /// router is a per-query front; batching happens server-side.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        let (latency_p50, latency_p95) = ServiceStats::latency_percentiles(&c.latencies);
        ServiceStats {
            submitted: c.submitted,
            completed: c.completed,
            approx_served: c.approx_served,
            approx_batches: 0,
            rejected: c.rejected,
            timed_out: c.timed_out,
            quarantined: c.quarantined,
            unavailable: c.unavailable,
            retries: c.retries,
            reconnects: self.conns.iter().map(|c| c.reconnects()).sum(),
            dropped: self.conns.iter().map(|c| c.dropped()).sum(),
            queue_depth: 0,
            queue_depth_peak: 0,
            batches: 0,
            size_triggered: 0,
            deadline_triggered: 0,
            drain_triggered: 0,
            coalesced: 0,
            lps_solved: 0,
            per_shard: c
                .per_shard_queries
                .iter()
                .map(|&queries| ShardStats {
                    queries,
                    ..ShardStats::default()
                })
                .collect(),
            latency_p50,
            latency_p95,
        }
    }
}
