//! The versioned, length-prefixed binary wire format.
//!
//! Hand-rolled — the workspace's serde shim has no derive support, and a
//! wire format whose every byte is written out longhand is also one whose
//! failure modes can be tested longhand. Three principles govern the
//! codec:
//!
//! 1. **Versioned and self-identifying.** Every message starts with a
//!    magic word, a format version, and a message tag; a peer speaking a
//!    different version gets a typed [`WireError::UnsupportedVersion`],
//!    never a misparse.
//! 2. **Checksummed.** The header carries an FNV-1a digest of the body
//!    ([`mpq_cloud::shape::fnv1a_bytes`] — the same pinned digest family
//!    that keys shard affinity and fault plans), so a flipped bit is a
//!    typed [`WireError::Corrupt`], not silently wrong floats.
//! 3. **Bounded.** Every declared length is capped *before* any
//!    allocation ([`MAX_FRAME_LEN`], `Reader::seq_len`): a hostile or
//!    damaged length prefix can neither over-allocate nor panic. Decoding
//!    never panics on any input — the codec proptest fuzzes truncations,
//!    bit flips and oversized prefixes against exactly this contract.
//!
//! Numbers are little-endian; `f64`s travel as raw IEEE-754 bit patterns
//! (`to_bits`/`from_bits`), which is what makes the bit-identity
//! invariant of the shard fabric *checkable across processes*: a frontier
//! cost that survives the wire is the same 64 bits that left the
//! optimizer.

use mpq_catalog::{JoinEdge, Predicate, Query, Selectivity, Table};
use mpq_cloud::shape::fnv1a_bytes;
use mpq_service::SubmittedQuery;

/// Magic word opening every message: `"MQ"` little-endian.
pub const WIRE_MAGIC: u16 = 0x514d;

/// Wire format version. Bump on any layout change; decoders reject other
/// versions with [`WireError::UnsupportedVersion`].
///
/// v2 added the observability fields: `trace_id` on requests (after
/// `attempt`, so [`peek_request`]'s offsets are version-stable) and
/// responses, plus the [`Message::MetricsRequest`] /
/// [`Message::MetricsResponse`] scrape kinds. A v1 peer is refused with
/// the typed error — negotiation by rejection, never a misparse.
pub const WIRE_VERSION: u8 = 2;

/// Hard cap on one frame's payload (header + body). Large enough for any
/// plan summary the optimizer produces, small enough that a corrupted
/// length prefix cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Cap on one encoded string (table names).
pub const MAX_STR_LEN: usize = 1 << 12;

/// Cap on one encoded sequence's element count (tables, predicates,
/// frontier entries, …).
pub const MAX_SEQ_LEN: usize = 1 << 16;

/// Typed decode failure. Every variant is a *diagnosis*, not a panic:
/// the server answers a bad request frame with a
/// [`Message::Error`] carrying the rendered error, and the router
/// treats a bad response frame as retryable damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the declared content did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The first two bytes are not [`WIRE_MAGIC`].
    BadMagic(u16),
    /// The peer speaks a different format version.
    UnsupportedVersion(u8),
    /// An unknown message or enum tag.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A declared length exceeds its cap (or the remaining buffer).
    Oversized {
        /// The declared length.
        declared: usize,
        /// The cap it violated.
        cap: usize,
    },
    /// The body checksum does not match the header's digest.
    Corrupt {
        /// Digest the header declared.
        declared: u64,
        /// Digest of the received body.
        actual: u64,
    },
    /// Bytes remained after the message's declared content.
    TrailingBytes(usize),
    /// Content decoded but violates an invariant (bad UTF-8, …).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, have {have}"
                )
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (speaking {WIRE_VERSION})")
            }
            WireError::BadTag { context, tag } => write!(f, "bad {context} tag {tag}"),
            WireError::Oversized { declared, cap } => {
                write!(f, "declared length {declared} exceeds cap {cap}")
            }
            WireError::Corrupt { declared, actual } => write!(
                f,
                "body checksum mismatch: declared {declared:#018x}, actual {actual:#018x}"
            ),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::Invalid(what) => write!(f, "invalid content: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------

/// Little-endian byte sink for encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= MAX_STR_LEN, "string exceeds wire cap");
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn seq_len(&mut self, n: usize) {
        debug_assert!(n <= MAX_SEQ_LEN, "sequence exceeds wire cap");
        self.u32(n as u32);
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

/// Bounds-checked little-endian reader for decoding. Every accessor
/// returns [`WireError::Truncated`] instead of slicing past the end, and
/// every length is validated against its cap *and* the remaining bytes
/// before any allocation happens.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_STR_LEN || n > self.remaining() {
            return Err(WireError::Oversized {
                declared: n,
                cap: MAX_STR_LEN.min(self.remaining()),
            });
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| WireError::Invalid("utf-8 string"))
    }

    /// Reads a sequence length, rejecting anything over [`MAX_SEQ_LEN`]
    /// or over the remaining byte count (every element costs ≥ 1 byte,
    /// so a valid length can never exceed what's left — this is the
    /// no-over-allocation guard).
    fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_SEQ_LEN || n > self.remaining() {
            return Err(WireError::Oversized {
                declared: n,
                cap: MAX_SEQ_LEN.min(self.remaining()),
            });
        }
        Ok(n)
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            tag => Err(WireError::BadTag {
                context: "option",
                tag,
            }),
        }
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }
}

// ---------------------------------------------------------------------
// Domain encodings
// ---------------------------------------------------------------------

fn encode_query(w: &mut Writer, q: &Query) {
    w.seq_len(q.tables.len());
    for t in &q.tables {
        w.str(&t.name);
        w.f64(t.rows);
        w.f64(t.row_bytes);
    }
    w.seq_len(q.predicates.len());
    for p in &q.predicates {
        w.u32(p.table as u32);
        match p.selectivity {
            Selectivity::Fixed(s) => {
                w.u8(0);
                w.f64(s);
            }
            Selectivity::Param(i) => {
                w.u8(1);
                w.u32(i as u32);
            }
        }
    }
    w.seq_len(q.joins.len());
    for j in &q.joins {
        w.u32(j.t1 as u32);
        w.u32(j.t2 as u32);
        w.f64(j.selectivity);
    }
    w.u32(q.num_params as u32);
}

fn decode_query(r: &mut Reader) -> Result<Query, WireError> {
    let n_tables = r.seq_len()?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        tables.push(Table {
            name: r.str()?,
            rows: r.f64()?,
            row_bytes: r.f64()?,
        });
    }
    let n_preds = r.seq_len()?;
    let mut predicates = Vec::with_capacity(n_preds);
    for _ in 0..n_preds {
        let table = r.u32()? as usize;
        let selectivity = match r.u8()? {
            0 => Selectivity::Fixed(r.f64()?),
            1 => Selectivity::Param(r.u32()? as usize),
            tag => {
                return Err(WireError::BadTag {
                    context: "selectivity",
                    tag,
                })
            }
        };
        predicates.push(Predicate { table, selectivity });
    }
    let n_joins = r.seq_len()?;
    let mut joins = Vec::with_capacity(n_joins);
    for _ in 0..n_joins {
        joins.push(JoinEdge {
            t1: r.u32()? as usize,
            t2: r.u32()? as usize,
            selectivity: r.f64()?,
        });
    }
    let num_params = r.u32()? as usize;
    Ok(Query {
        tables,
        predicates,
        joins,
        num_params,
    })
}

fn encode_submitted(w: &mut Writer, s: &SubmittedQuery) {
    encode_query(w, &s.query);
    w.opt_f64(s.deadline);
}

fn decode_submitted(r: &mut Reader) -> Result<SubmittedQuery, WireError> {
    let query = decode_query(r)?;
    let deadline = r.opt_f64()?;
    Ok(SubmittedQuery { query, deadline })
}

// ---------------------------------------------------------------------
// Plan summary
// ---------------------------------------------------------------------

/// The wire form of a solved query: the determinism-relevant facts of an
/// `MpqSolution`, reduced to plain words and IEEE bit patterns so
/// bit-identity is checkable *across processes*. A full `MpqSolution`
/// carries space-typed cost functions and a plan arena — meaningful only
/// inside the process that owns the space — so the fabric ships the
/// facts the service contract quantifies over instead: the Figure-12
/// counters and the Pareto frontier (plan id + cost vector) at each of
/// the server's probe points.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// Plans generated, including partial and pruned plans.
    pub plans_created: u64,
    /// Plans discarded because their relevance region emptied.
    pub plans_pruned: u64,
    /// Linear programs solved by this query alone.
    pub lps_solved_query: u64,
    /// Plans in the final Pareto plan set.
    pub final_plan_count: u64,
    /// Per server probe point: the Pareto frontier as (plan id, cost
    /// vector) pairs, exactly as `MpqSolution::frontier_at` returns it.
    pub frontiers: Vec<Vec<(u64, Vec<f64>)>>,
}

impl PlanSummary {
    /// Summarizes a solution at `probes` (the server's fixed probe
    /// points).
    pub fn of<S: mpq_core::space::MpqSpace>(
        space: &S,
        solution: &mpq_core::rrpa::MpqSolution<S>,
        probes: &[Vec<f64>],
    ) -> Self {
        Self {
            plans_created: solution.stats.plans_created,
            plans_pruned: solution.stats.plans_pruned,
            lps_solved_query: solution.stats.lps_solved_query,
            final_plan_count: solution.stats.final_plan_count as u64,
            frontiers: probes
                .iter()
                .map(|x| {
                    solution
                        .frontier_at(space, x)
                        .into_iter()
                        .map(|(id, costs)| (u64::from(id.0), costs))
                        .collect()
                })
                .collect(),
        }
    }
}

fn encode_summary(w: &mut Writer, s: &PlanSummary) {
    w.u64(s.plans_created);
    w.u64(s.plans_pruned);
    w.u64(s.lps_solved_query);
    w.u64(s.final_plan_count);
    w.seq_len(s.frontiers.len());
    for frontier in &s.frontiers {
        w.seq_len(frontier.len());
        for (id, costs) in frontier {
            w.u64(*id);
            w.seq_len(costs.len());
            for &c in costs {
                w.f64(c);
            }
        }
    }
}

fn decode_summary(r: &mut Reader) -> Result<PlanSummary, WireError> {
    let plans_created = r.u64()?;
    let plans_pruned = r.u64()?;
    let lps_solved_query = r.u64()?;
    let final_plan_count = r.u64()?;
    let n_probes = r.seq_len()?;
    let mut frontiers = Vec::with_capacity(n_probes);
    for _ in 0..n_probes {
        let n_plans = r.seq_len()?;
        let mut frontier = Vec::with_capacity(n_plans);
        for _ in 0..n_plans {
            let id = r.u64()?;
            let n_costs = r.seq_len()?;
            let mut costs = Vec::with_capacity(n_costs);
            for _ in 0..n_costs {
                costs.push(r.f64()?);
            }
            frontier.push((id, costs));
        }
        frontiers.push(frontier);
    }
    Ok(PlanSummary {
        plans_created,
        plans_pruned,
        lps_solved_query,
        final_plan_count,
        frontiers,
    })
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// The wire form of a resolved request's outcome — the cross-process
/// mirror of `mpq_service::QueryOutcome`, with [`Unavailable`] added for
/// the router's graceful-degradation path.
///
/// [`Unavailable`]: WireOutcome::Unavailable
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// Optimized successfully; the summary carries the bit-exact facts.
    Ok(PlanSummary),
    /// Quarantined after panicking inside the optimizer.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The request's deadline expired before it could be served.
    TimedOut,
    /// Turned away by admission control.
    Rejected,
    /// The shard is shutting down.
    Shutdown,
    /// The shard was unreachable after every retry (router-generated;
    /// a server never sends this about itself).
    Unavailable,
}

impl WireOutcome {
    /// Short name for logs and counters.
    pub fn name(&self) -> &'static str {
        match self {
            WireOutcome::Ok(_) => "ok",
            WireOutcome::Panicked { .. } => "panicked",
            WireOutcome::TimedOut => "timed_out",
            WireOutcome::Rejected => "rejected",
            WireOutcome::Shutdown => "shutdown",
            WireOutcome::Unavailable => "unavailable",
        }
    }

    /// The summary of an `Ok` outcome.
    pub fn ok(&self) -> Option<&PlanSummary> {
        match self {
            WireOutcome::Ok(s) => Some(s),
            _ => None,
        }
    }
}

/// One request frame: a submitted query plus the identities the
/// robustness machinery keys on.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// Connection-local request id; the matching response echoes it, so
    /// a late duplicate answer is recognizably stale.
    pub request_id: u64,
    /// The query's content digest (`mpq_catalog::fault::query_digest`),
    /// echoed in the response so the router can match it. The server
    /// does not trust it: its idempotency cache is keyed on its own
    /// digest of `submitted.query`.
    pub digest: u64,
    /// 0-based attempt number (0 = first send, >0 = retry). Servers
    /// ignore it; the deterministic fault injector keys on it.
    pub attempt: u32,
    /// The router-assigned trace id, **stable across retries** (unlike
    /// `request_id`, which is per-attempt): the server stamps its spans
    /// with it, so a request's server-side spans join the router's by
    /// this one key however many attempts the wire cost it.
    pub trace_id: u64,
    /// The query and its optional deadline (in the *submitter's* service
    /// clock — routers enforce deadlines, servers don't parse clocks
    /// they don't share).
    pub submitted: SubmittedQuery,
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResponse {
    /// Echo of the request id this answers.
    pub request_id: u64,
    /// Echo of the request's content digest.
    pub digest: u64,
    /// Echo of the request's trace id (see [`WireRequest::trace_id`]).
    pub trace_id: u64,
    /// The shard that answered.
    pub shard: u32,
    /// True iff the answer was replayed from the server's idempotency
    /// cache (the optimizer did not run again; a panic is never replayed).
    pub dedup: bool,
    /// What became of the query.
    pub outcome: WireOutcome,
    /// ε stamp when the answer was served approximately (a shard
    /// server serves exact and sends `None`).
    pub served_epsilon: Option<f64>,
}

/// A protocol-level error report: the server could not decode a request
/// frame (so it may not even know the request id — `0` when unknown).
/// Routers treat it as retryable transport damage.
#[derive(Debug, Clone, PartialEq)]
pub struct WireProtocolError {
    /// The request id, if the header survived; `0` otherwise.
    pub request_id: u64,
    /// Rendered [`WireError`].
    pub message: String,
}

/// A metrics scrape request: ask a shard server for its registry.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetricsRequest {
    /// Connection-local request id (shares the ordinary id space, so a
    /// scrape's answer is matchable like any other response).
    pub request_id: u64,
}

/// A metrics scrape answer: the server's registry flattened to
/// Prometheus-style `(name, value)` samples
/// (`mpq_obs::Registry::samples`) — mergeable by name on the router
/// side, and empty when the server runs unobserved.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetricsResponse {
    /// Echo of the scrape's request id.
    pub request_id: u64,
    /// The shard that answered.
    pub shard: u32,
    /// `(name, value)` samples in registry (name) order.
    pub samples: Vec<(String, f64)>,
}

/// Every message the fabric speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: optimize this.
    Request(WireRequest),
    /// Server → client: here is what became of it.
    Response(WireResponse),
    /// Server → client: your frame was undecodable.
    Error(WireProtocolError),
    /// Client → server: send me your metrics registry.
    MetricsRequest(WireMetricsRequest),
    /// Server → client: the registry, flattened to samples.
    MetricsResponse(WireMetricsResponse),
}

const MSG_REQUEST: u8 = 1;
const MSG_RESPONSE: u8 = 2;
const MSG_ERROR: u8 = 3;
const MSG_METRICS_REQUEST: u8 = 4;
const MSG_METRICS_RESPONSE: u8 = 5;

/// Header bytes before the body: magic (2) + version (1) + tag (1) +
/// checksum (8).
const HEADER_LEN: usize = 12;

/// Encodes a message into a self-contained payload (header + checksummed
/// body). Pair with [`write_frame`] to put it on a stream.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut body = Writer::new();
    let tag = match msg {
        Message::Request(req) => {
            body.u64(req.request_id);
            body.u64(req.digest);
            body.u32(req.attempt);
            body.u64(req.trace_id);
            encode_submitted(&mut body, &req.submitted);
            MSG_REQUEST
        }
        Message::Response(resp) => {
            body.u64(resp.request_id);
            body.u64(resp.digest);
            body.u64(resp.trace_id);
            body.u32(resp.shard);
            body.bool(resp.dedup);
            match &resp.outcome {
                WireOutcome::Ok(summary) => {
                    body.u8(0);
                    encode_summary(&mut body, summary);
                }
                WireOutcome::Panicked { message } => {
                    body.u8(1);
                    body.str(message);
                }
                WireOutcome::TimedOut => body.u8(2),
                WireOutcome::Rejected => body.u8(3),
                WireOutcome::Shutdown => body.u8(4),
                WireOutcome::Unavailable => body.u8(5),
            }
            body.opt_f64(resp.served_epsilon);
            MSG_RESPONSE
        }
        Message::Error(err) => {
            body.u64(err.request_id);
            body.str(&err.message);
            MSG_ERROR
        }
        Message::MetricsRequest(req) => {
            body.u64(req.request_id);
            MSG_METRICS_REQUEST
        }
        Message::MetricsResponse(resp) => {
            body.u64(resp.request_id);
            body.u32(resp.shard);
            body.seq_len(resp.samples.len());
            for (name, value) in &resp.samples {
                body.str(name);
                body.f64(*value);
            }
            MSG_METRICS_RESPONSE
        }
    };
    let body = body.into_bytes();
    let mut w = Writer::new();
    w.u16(WIRE_MAGIC);
    w.u8(WIRE_VERSION);
    w.u8(tag);
    w.u64(fnv1a_bytes(&body));
    let mut payload = w.into_bytes();
    payload.extend_from_slice(&body);
    payload
}

/// Decodes a payload produced by [`encode_message`]. Total: never
/// panics, never allocates more than the payload's own length, and
/// rejects trailing bytes (a frame is exactly one message).
pub fn decode_message(payload: &[u8]) -> Result<Message, WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversized {
            declared: payload.len(),
            cap: MAX_FRAME_LEN,
        });
    }
    let mut r = Reader::new(payload);
    let magic = r.u16()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let tag = r.u8()?;
    let declared = r.u64()?;
    let body = &payload[HEADER_LEN..];
    let actual = fnv1a_bytes(body);
    if declared != actual {
        return Err(WireError::Corrupt { declared, actual });
    }
    let msg = match tag {
        MSG_REQUEST => {
            let request_id = r.u64()?;
            let digest = r.u64()?;
            let attempt = r.u32()?;
            let trace_id = r.u64()?;
            let submitted = decode_submitted(&mut r)?;
            Message::Request(WireRequest {
                request_id,
                digest,
                attempt,
                trace_id,
                submitted,
            })
        }
        MSG_RESPONSE => {
            let request_id = r.u64()?;
            let digest = r.u64()?;
            let trace_id = r.u64()?;
            let shard = r.u32()?;
            let dedup = r.bool()?;
            let outcome = match r.u8()? {
                0 => WireOutcome::Ok(decode_summary(&mut r)?),
                1 => WireOutcome::Panicked { message: r.str()? },
                2 => WireOutcome::TimedOut,
                3 => WireOutcome::Rejected,
                4 => WireOutcome::Shutdown,
                5 => WireOutcome::Unavailable,
                tag => {
                    return Err(WireError::BadTag {
                        context: "outcome",
                        tag,
                    })
                }
            };
            let served_epsilon = r.opt_f64()?;
            Message::Response(WireResponse {
                request_id,
                digest,
                trace_id,
                shard,
                dedup,
                outcome,
                served_epsilon,
            })
        }
        MSG_ERROR => {
            let request_id = r.u64()?;
            let message = r.str()?;
            Message::Error(WireProtocolError {
                request_id,
                message,
            })
        }
        MSG_METRICS_REQUEST => {
            let request_id = r.u64()?;
            Message::MetricsRequest(WireMetricsRequest { request_id })
        }
        MSG_METRICS_RESPONSE => {
            let request_id = r.u64()?;
            let shard = r.u32()?;
            let n = r.seq_len()?;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.str()?;
                let value = r.f64()?;
                samples.push((name, value));
            }
            Message::MetricsResponse(WireMetricsResponse {
                request_id,
                shard,
                samples,
            })
        }
        tag => {
            return Err(WireError::BadTag {
                context: "message",
                tag,
            })
        }
    };
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

/// Reads just `(request_id, digest, attempt)` from a request payload —
/// what the fault injector keys on — without decoding the query body.
pub fn peek_request(payload: &[u8]) -> Result<(u64, u64, u32), WireError> {
    let mut r = Reader::new(payload);
    let magic = r.u16()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let tag = r.u8()?;
    if tag != MSG_REQUEST {
        return Err(WireError::BadTag {
            context: "message",
            tag,
        });
    }
    let _checksum = r.u64()?;
    Ok((r.u64()?, r.u64()?, r.u32()?))
}

/// Cuts `n` bytes off a payload's body and restamps the checksum, so the
/// damage presents as a *truncation* (not a corruption) to the receiving
/// decoder. This is the deterministic fault injector's truncate fault;
/// it lives here because only the codec knows where the checksum sits.
pub fn truncate_body(payload: &[u8], n: usize) -> Vec<u8> {
    let keep = payload
        .len()
        .saturating_sub(n)
        .max(HEADER_LEN.min(payload.len()));
    let mut out = payload[..keep].to_vec();
    if out.len() >= HEADER_LEN {
        let checksum = fnv1a_bytes(&out[HEADER_LEN..]);
        out[4..12].copy_from_slice(&checksum.to_le_bytes());
    }
    out
}

/// Flips one body byte (position derived from `salt`), leaving the
/// declared checksum stale — the receiving decoder must report
/// [`WireError::Corrupt`]. The fault injector's corrupt fault.
pub fn corrupt_body(payload: &[u8], salt: u64) -> Vec<u8> {
    let mut out = payload.to_vec();
    if out.len() > HEADER_LEN {
        let body_len = out.len() - HEADER_LEN;
        let pos = HEADER_LEN + (salt as usize) % body_len;
        out[pos] ^= 0x55;
    }
    out
}

// ---------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame (`u32` LE length, then the payload).
///
/// Prefix and payload go out in a **single** write: two small writes
/// back-to-back trip Nagle's algorithm against delayed ACKs (the second
/// write stalls ~40 ms waiting for the first's ACK), which both wrecks
/// latency and lets a polling reader's timeout fire between prefix and
/// payload.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "frame exceeds wire cap");
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// True iff `err` is a read timeout (both spellings: unix sockets report
/// `WouldBlock`, TCP reports `TimedOut` on some platforms).
pub(crate) fn is_poll_timeout(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads one length-prefixed frame. The declared length is capped at
/// [`MAX_FRAME_LEN`] *before* the buffer is allocated. `Ok(None)` means
/// the peer closed the stream cleanly at a frame boundary; EOF anywhere
/// else is `UnexpectedEof`.
///
/// A read timeout asks `keep_waiting`. On `false` the timeout error is
/// returned: a client bounding its wait for an answer passes `|| false`.
/// On `true` the read goes on with the bytes read so far **kept**, so a
/// frame whose bytes straddle timeouts can never misalign the stream: a
/// polling server passes "not shut down". Dropping the partial fill
/// instead would turn a scheduling gap between the length prefix and the
/// payload into misframing, with message bytes read as a length.
pub fn read_frame(
    r: &mut impl std::io::Read,
    keep_waiting: impl Fn() -> bool,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    if !fill(r, &mut len_bytes, &keep_waiting)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::Oversized {
                declared: len,
                cap: MAX_FRAME_LEN,
            },
        ));
    }
    let mut payload = vec![0u8; len];
    if !fill(r, &mut payload, &keep_waiting)? {
        return Err(eof_mid_frame());
    }
    Ok(Some(payload))
}

/// Fills `buf` from `r`; `Ok(false)` iff the stream ended before the
/// first byte. Timeouts are handled as [`read_frame`] documents.
fn fill(
    r: &mut impl std::io::Read,
    buf: &mut [u8],
    keep_waiting: &impl Fn() -> bool,
) -> std::io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(eof_mid_frame()),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_poll_timeout(&e) && keep_waiting() => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn eof_mid_frame() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "stream closed mid frame")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn sample_query() -> Query {
        Query {
            tables: vec![
                Table {
                    name: "T0".into(),
                    rows: 1000.0,
                    row_bytes: 64.0,
                },
                Table {
                    name: "T1".into(),
                    rows: 250.5,
                    row_bytes: 128.0,
                },
            ],
            predicates: vec![
                Predicate {
                    table: 0,
                    selectivity: Selectivity::Param(0),
                },
                Predicate {
                    table: 1,
                    selectivity: Selectivity::Fixed(0.25),
                },
            ],
            joins: vec![JoinEdge {
                t1: 0,
                t2: 1,
                selectivity: 1e-3,
            }],
            num_params: 1,
        }
    }

    fn sample_request() -> Message {
        Message::Request(WireRequest {
            request_id: 7,
            digest: 0xdead_beef,
            attempt: 2,
            trace_id: 0x7ace,
            submitted: SubmittedQuery {
                query: sample_query(),
                deadline: Some(1.25),
            },
        })
    }

    fn sample_response() -> Message {
        Message::Response(WireResponse {
            request_id: 7,
            digest: 0xdead_beef,
            trace_id: 0x7ace,
            shard: 3,
            dedup: true,
            outcome: WireOutcome::Ok(PlanSummary {
                plans_created: 100,
                plans_pruned: 40,
                lps_solved_query: 17,
                final_plan_count: 3,
                frontiers: vec![
                    vec![(0, vec![1.5, 2.5]), (4, vec![2.0, 1.0])],
                    vec![(1, vec![f64::MIN_POSITIVE, -0.0])],
                ],
            }),
            served_epsilon: Some(0.1),
        })
    }

    #[test]
    fn round_trips_every_message() {
        let messages = [
            sample_request(),
            sample_response(),
            Message::Response(WireResponse {
                request_id: 1,
                digest: 2,
                trace_id: 3,
                shard: 0,
                dedup: false,
                outcome: WireOutcome::Panicked {
                    message: "injected fault".into(),
                },
                served_epsilon: None,
            }),
            Message::Response(WireResponse {
                request_id: 1,
                digest: 2,
                trace_id: 3,
                shard: 0,
                dedup: false,
                outcome: WireOutcome::Shutdown,
                served_epsilon: None,
            }),
            Message::Error(WireProtocolError {
                request_id: 0,
                message: "truncated frame".into(),
            }),
            Message::MetricsRequest(WireMetricsRequest { request_id: 41 }),
            Message::MetricsResponse(WireMetricsResponse {
                request_id: 41,
                shard: 2,
                samples: vec![
                    ("optimize_runs".into(), 3.0),
                    ("server_handled".into(), 17.5),
                ],
            }),
        ];
        for msg in &messages {
            let bytes = encode_message(msg);
            let back = decode_message(&bytes).expect("round trip");
            assert_eq!(&back, msg);
        }
    }

    #[test]
    fn floats_survive_bit_exactly() {
        let specials = [0.0, -0.0, 1.0 / 3.0, f64::MAX, f64::MIN_POSITIVE];
        let msg = Message::Response(WireResponse {
            request_id: 9,
            digest: 9,
            trace_id: 9,
            shard: 0,
            dedup: false,
            outcome: WireOutcome::Ok(PlanSummary {
                plans_created: 0,
                plans_pruned: 0,
                lps_solved_query: 0,
                final_plan_count: 1,
                frontiers: vec![vec![(0, specials.to_vec())]],
            }),
            served_epsilon: None,
        });
        let Message::Response(back) = decode_message(&encode_message(&msg)).unwrap() else {
            panic!("wrong message kind");
        };
        let WireOutcome::Ok(summary) = back.outcome else {
            panic!("wrong outcome");
        };
        for (sent, got) in specials.iter().zip(&summary.frontiers[0][0].1) {
            assert_eq!(sent.to_bits(), got.to_bits(), "bit-exact float transport");
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_tag() {
        let mut bytes = encode_message(&sample_request());
        bytes[0] ^= 0xff;
        assert!(matches!(
            decode_message(&bytes),
            Err(WireError::BadMagic(_))
        ));
        let mut bytes = encode_message(&sample_request());
        bytes[2] = WIRE_VERSION + 1;
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::UnsupportedVersion(WIRE_VERSION + 1))
        );
        let mut bytes = encode_message(&sample_request());
        bytes[3] = 99;
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::BadTag {
                context: "message",
                tag: 99
            })
        );
    }

    /// The v2 observability fields survive the wire bit-exactly, and a
    /// v1 peer is refused with the typed version error — the layout
    /// changed under it, so rejection (not misparse) is the contract.
    #[test]
    fn v2_trace_ids_round_trip_and_v1_is_refused() {
        let bytes = encode_message(&sample_request());
        let Message::Request(req) = decode_message(&bytes).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(req.trace_id, 0x7ace);
        let bytes = encode_message(&sample_response());
        let Message::Response(resp) = decode_message(&bytes).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(resp.trace_id, 0x7ace);
        // Version skew: a frame stamped v1 (the pre-trace-id layout)
        // must be refused, whatever its body holds.
        let mut stale = encode_message(&sample_request());
        stale[2] = 1;
        assert_eq!(
            decode_message(&stale),
            Err(WireError::UnsupportedVersion(1))
        );
        assert_eq!(peek_request(&stale), Err(WireError::UnsupportedVersion(1)));
        // And the metrics kinds are v2-only tags 4 and 5.
        let scrape = encode_message(&Message::MetricsRequest(WireMetricsRequest {
            request_id: 1,
        }));
        assert_eq!(scrape[3], 4);
        let answer = encode_message(&Message::MetricsResponse(WireMetricsResponse {
            request_id: 1,
            shard: 0,
            samples: Vec::new(),
        }));
        assert_eq!(answer[3], 5);
    }

    #[test]
    fn checksum_catches_body_damage() {
        let bytes = encode_message(&sample_response());
        let corrupted = corrupt_body(&bytes, 13);
        assert!(matches!(
            decode_message(&corrupted),
            Err(WireError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = encode_message(&sample_request());
        for keep in 0..bytes.len() {
            let err = decode_message(&bytes[..keep]).expect_err("prefix cannot decode");
            // Any typed error is fine; panics or successes are not.
            let _ = err.to_string();
        }
        let truncated = truncate_body(&bytes, 5);
        assert!(matches!(
            decode_message(&truncated),
            Err(WireError::Truncated { .. } | WireError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_lengths_never_allocate() {
        // A tiny buffer declaring a huge sequence must be rejected by
        // the cap check before any `Vec::with_capacity`.
        let mut w = Writer::new();
        w.u16(WIRE_MAGIC);
        w.u8(WIRE_VERSION);
        w.u8(2); // response
        let mut body = Writer::new();
        body.u64(1); // request id
        body.u64(2); // digest
        body.u64(3); // trace id
        body.u32(0); // shard
        body.u8(0); // dedup
        body.u8(0); // outcome: Ok
        body.u64(0);
        body.u64(0);
        body.u64(0);
        body.u64(0);
        body.u32(u32::MAX); // frontier count: absurd
        let body = body.into_bytes();
        w.u64(fnv1a_bytes(&body));
        let mut payload = w.into_bytes();
        payload.extend_from_slice(&body);
        assert!(matches!(
            decode_message(&payload),
            Err(WireError::Oversized { .. })
        ));
        // And an oversized *frame* is refused before allocation too.
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut cursor, || false).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_message(&sample_response());
        // Extend the body and restamp the checksum so only the trailing
        // check can catch it.
        bytes.push(0);
        let checksum = fnv1a_bytes(&bytes[HEADER_LEN..]);
        bytes[4..12].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(decode_message(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn peek_reads_identities_without_decoding() {
        let bytes = encode_message(&sample_request());
        assert_eq!(peek_request(&bytes).unwrap(), (7, 0xdead_beef, 2));
        let bytes = encode_message(&sample_response());
        assert!(peek_request(&bytes).is_err(), "responses don't peek");
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let payload = encode_message(&sample_request());
        let mut stream = Vec::new();
        write_frame(&mut stream, &payload).unwrap();
        write_frame(&mut stream, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(
            read_frame(&mut cursor, || false).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(
            read_frame(&mut cursor, || false).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(
            read_frame(&mut cursor, || false).unwrap(),
            None,
            "clean EOF"
        );
    }

    /// A stream that hands out one byte per read and times out before
    /// each one.
    struct Stutter {
        bytes: Vec<u8>,
        at: usize,
        timed_out: bool,
    }

    impl std::io::Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.timed_out, true) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.timed_out = false;
            let Some(&b) = self.bytes.get(self.at) else {
                return Ok(0);
            };
            buf[0] = b;
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn timeouts_keep_partial_frames_only_while_asked_to_wait() {
        let payload = encode_message(&sample_request());
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload).unwrap();
        let stutter = || Stutter {
            bytes: bytes.clone(),
            at: 0,
            timed_out: false,
        };
        // Waiting through every timeout reassembles the frame intact.
        let mut patient = stutter();
        assert_eq!(
            read_frame(&mut patient, || true).unwrap().as_deref(),
            Some(&payload[..])
        );
        assert_eq!(read_frame(&mut patient, || true).unwrap(), None);
        // Not waiting hands the first timeout back.
        let err = read_frame(&mut stutter(), || false).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }
}
