//! Deterministic fault injection for service chaos testing.
//!
//! A resilient service core is only trustworthy if its failure paths are
//! *tested*, and failure paths are only testable if faults are
//! **reproducible**. This module provides the seeded, wall-clock-free
//! fault source that the `mpq-service` chaos tests use — the fault
//! analogue of [`generate_trace`](crate::generator::generate_trace):
//!
//! * a [`FaultPlan`] marks specific queries (by their exact content
//!   digest, [`query_digest`]) with a [`Fault`]: panic on the first N
//!   optimization attempts (`u32::MAX` = a *poison* query that panics on
//!   every attempt) and/or a virtual delay in microseconds;
//! * [`FaultPlan::generate`] draws a plan from a seeded RNG over an
//!   arrival trace, so a fault scenario replays bit-identically from
//!   `(trace seed, fault seed)` — no wall clock, no global state;
//! * [`FaultPlan::hook`] packages the plan as the optimizer session's
//!   fault hook (`mpq_core::session::SessionConfig::fault_hook`): called
//!   once per optimization *attempt*, it records the attempt, reports
//!   virtual delays to a caller-supplied sink (tests advance a
//!   `VirtualClock` there) and panics with a recognizable
//!   [`INJECTED_FAULT`] message when the plan says so.
//!
//! Queries are identified by content digest, so identical queries (an
//! overlap-1.0 workload) share their fault fate — marking one copy marks
//! them all. Chaos tests classify submissions with
//! [`FaultPlan::is_poisoned`] against the same plan, which keeps the
//! poison set a pure function of the seeds at any shard count or batch
//! grouping.

use crate::generator::ArrivalTrace;
use crate::Query;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Marker embedded in every injected panic message, so test panic hooks
/// (see [`silence_injected_panics`]) can tell deliberate faults from real
/// bugs.
pub const INJECTED_FAULT: &str = "injected fault";

/// A stable content digest of a query: FNV-1a over the exact `Debug`
/// rendering of its tables, predicates and joins. Bit-identical queries —
/// and only those — collide (float formatting is exact for round-trip
/// purposes), which is precisely the identity a fault plan needs: a
/// poison query stays poisoned however batches regroup it.
pub fn query_digest(query: &Query) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{query:?}").bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One query's fault: how many leading optimization attempts panic, and
/// how much virtual time each attempt burns before deciding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fault {
    /// Number of leading attempts that panic. `0` = never panics,
    /// `u32::MAX` = every attempt panics (a **poison** query — the case
    /// quarantine isolation must handle).
    pub panic_attempts: u32,
    /// Virtual microseconds of delay injected per attempt (reported to
    /// the hook's delay sink *before* any panic).
    pub delay_us: u64,
}

impl Fault {
    /// A poison fault: panics on every attempt.
    pub fn poison() -> Self {
        Self {
            panic_attempts: u32::MAX,
            delay_us: 0,
        }
    }

    /// A transient fault: panics on the first `attempts` attempts, then
    /// succeeds.
    pub fn transient(attempts: u32) -> Self {
        Self {
            panic_attempts: attempts,
            delay_us: 0,
        }
    }

    /// A pure slowdown of `us` virtual microseconds per attempt.
    pub fn delay(us: u64) -> Self {
        Self {
            panic_attempts: 0,
            delay_us: us,
        }
    }
}

/// Random fault-plan shape for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability that a trace query is marked poison (panics on every
    /// attempt).
    pub poison_rate: f64,
    /// Probability that a (non-poison) trace query is marked with a
    /// virtual delay.
    pub delay_rate: f64,
    /// The virtual delay, in microseconds, applied to delay-marked
    /// queries.
    pub delay_us: u64,
}

impl FaultConfig {
    /// Poison-only faults at the given rate.
    pub fn poison_only(poison_rate: f64) -> Self {
        Self {
            poison_rate,
            delay_rate: 0.0,
            delay_us: 0,
        }
    }
}

/// What the hook must do for one recorded attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAction {
    /// Virtual microseconds to burn (report to the delay sink).
    pub delay_us: u64,
    /// Whether this attempt must panic.
    pub panic: bool,
}

/// A deterministic fault plan over a set of queries, plus the mutable
/// attempt log ([`FaultPlan::on_attempt`] counts attempts per digest, so
/// panic-on-Nth-attempt faults are expressible). Shared across shard
/// sessions behind an `Arc`; the attempt log recovers from a poisoned
/// lock (an injected panic can never unwind *through* `on_attempt`, but
/// defensiveness is the point of this module).
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: HashMap<u64, Fault>,
    attempts: Mutex<HashMap<u64, u32>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws a plan over `trace` from a seeded RNG: each query is marked
    /// poison with probability `cfg.poison_rate`, else delayed with
    /// probability `cfg.delay_rate`. One random draw happens per trace
    /// entry whatever the marks, so plans with different rates over the
    /// same RNG stream stay aligned. Digest collisions (identical
    /// queries) merge marks: poison wins over delay.
    pub fn generate(trace: &ArrivalTrace, cfg: &FaultConfig, rng: &mut impl Rng) -> Self {
        let mut plan = Self::new();
        for query in &trace.queries {
            let (u, v): (f64, f64) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            if u < cfg.poison_rate {
                plan.mark(query, Fault::poison());
            } else if v < cfg.delay_rate && !plan.is_poisoned(query) {
                plan.mark(query, Fault::delay(cfg.delay_us));
            }
        }
        plan
    }

    /// Marks `query` with `fault` (keyed by content digest — identical
    /// queries share the mark). A poison mark is never downgraded.
    pub fn mark(&mut self, query: &Query, fault: Fault) {
        let slot = self.faults.entry(query_digest(query)).or_default();
        if slot.panic_attempts != u32::MAX {
            *slot = fault;
        }
    }

    /// True iff `query` is marked to panic on **every** attempt.
    pub fn is_poisoned(&self, query: &Query) -> bool {
        self.faults
            .get(&query_digest(query))
            .is_some_and(|f| f.panic_attempts == u32::MAX)
    }

    /// The fault marked for `query`, if any.
    pub fn fault_of(&self, query: &Query) -> Option<Fault> {
        self.faults.get(&query_digest(query)).copied()
    }

    /// Number of marked digests.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True iff the plan marks nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Attempts recorded so far for `query`.
    pub fn attempts_of(&self, query: &Query) -> u32 {
        self.attempts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&query_digest(query))
            .copied()
            .unwrap_or(0)
    }

    /// Records one optimization attempt of `query` and returns the action
    /// the caller must take. Unmarked queries always proceed (and are not
    /// logged, so the attempt map stays bounded by the plan size).
    pub fn on_attempt(&self, query: &Query) -> FaultAction {
        let digest = query_digest(query);
        let Some(fault) = self.faults.get(&digest) else {
            return FaultAction {
                delay_us: 0,
                panic: false,
            };
        };
        let mut attempts = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
        let n = attempts.entry(digest).or_insert(0);
        *n = n.saturating_add(1);
        FaultAction {
            delay_us: fault.delay_us,
            panic: *n <= fault.panic_attempts,
        }
    }

    /// Packages the plan as an optimizer-session fault hook: per attempt,
    /// report the fault's virtual delay to `on_delay` (tests advance a
    /// virtual clock there), then panic if the plan says so. The panic
    /// message carries [`INJECTED_FAULT`] plus the query digest — and
    /// deliberately **not** the attempt number, so panic payloads stay
    /// identical however batches regroup retries.
    pub fn hook(
        self: &Arc<Self>,
        on_delay: impl Fn(u64) + Send + Sync + 'static,
    ) -> Arc<dyn Fn(&Query) + Send + Sync> {
        let plan = Arc::clone(self);
        Arc::new(move |query| {
            let action = plan.on_attempt(query);
            if action.delay_us > 0 {
                on_delay(action.delay_us);
            }
            assert!(
                !action.panic,
                "{INJECTED_FAULT} [digest {:#018x}]",
                query_digest(query)
            );
        })
    }
}

/// What a network fault does to a request frame in flight. The wire
/// analogue of [`Fault`]: where an optimizer fault panics *inside* the
/// session, a network fault damages the *transport* between router and
/// shard server, so the retry/reconnect/idempotency machinery is what
/// gets exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The request frame vanishes: the client waits out its attempt
    /// timeout and retries.
    Drop,
    /// The request frame is delivered twice: the server must answer the
    /// replay from its idempotency cache (only a panic runs again).
    Duplicate,
    /// Delivery is delayed by [`NetFault::delay_us`] virtual
    /// microseconds; a delay at or past the attempt timeout behaves like
    /// a drop.
    Delay,
    /// The frame's body is cut short (framing intact): the receiver's
    /// decoder must return a typed truncation error, never panic.
    Truncate,
    /// A body byte is flipped: the receiver's checksum must catch it.
    Corrupt,
}

impl NetFaultKind {
    /// All kinds, in cumulative-rate order (the order
    /// [`NetFaultPlan::generate`] consumes [`NetFaultConfig`] rates in).
    pub const ALL: [NetFaultKind; 5] = [
        NetFaultKind::Drop,
        NetFaultKind::Duplicate,
        NetFaultKind::Delay,
        NetFaultKind::Truncate,
        NetFaultKind::Corrupt,
    ];

    /// CLI / JSON name of the kind.
    pub fn name(&self) -> &'static str {
        match self {
            NetFaultKind::Drop => "drop",
            NetFaultKind::Duplicate => "duplicate",
            NetFaultKind::Delay => "delay",
            NetFaultKind::Truncate => "truncate",
            NetFaultKind::Corrupt => "corrupt",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One query's network fault: which damage is applied to the first
/// [`attempts`](Self::attempts) request attempts. Later attempts pass
/// clean, so a transient fault is always recoverable by retry;
/// `attempts == u32::MAX` makes the shard effectively unreachable for
/// this query (the `Unavailable` degradation path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFault {
    /// What happens to a faulted attempt.
    pub kind: NetFaultKind,
    /// Number of leading request attempts the fault covers.
    pub attempts: u32,
    /// Virtual microseconds of delay ([`NetFaultKind::Delay`] only).
    pub delay_us: u64,
}

impl NetFault {
    /// A transient fault covering the first `attempts` attempts.
    pub fn transient(kind: NetFaultKind, attempts: u32) -> Self {
        Self {
            kind,
            attempts,
            delay_us: 0,
        }
    }

    /// A permanent fault: every attempt is damaged (`Unavailable` path).
    pub fn outage(kind: NetFaultKind) -> Self {
        Self::transient(kind, u32::MAX)
    }

    /// A transient delay of `us` virtual microseconds per attempt.
    pub fn delay(us: u64, attempts: u32) -> Self {
        Self {
            kind: NetFaultKind::Delay,
            attempts,
            delay_us: us,
        }
    }
}

/// Random network-fault shape for [`NetFaultPlan::generate`]: one
/// marking probability per kind (cumulative, so the sum must stay ≤ 1).
#[derive(Debug, Clone, Copy)]
pub struct NetFaultConfig {
    /// Probability a trace query's requests are dropped.
    pub drop_rate: f64,
    /// Probability a trace query's requests are duplicated.
    pub duplicate_rate: f64,
    /// Probability a trace query's requests are delayed.
    pub delay_rate: f64,
    /// Probability a trace query's requests are truncated.
    pub truncate_rate: f64,
    /// Probability a trace query's requests are corrupted.
    pub corrupt_rate: f64,
    /// Leading attempts each mark covers (faults are transient: retries
    /// past this count succeed).
    pub fault_attempts: u32,
    /// The virtual delay, in microseconds, of delay marks.
    pub delay_us: u64,
}

impl NetFaultConfig {
    /// A single-kind plan shape at `rate` with 1-attempt transient
    /// faults (the acceptance matrix of the network chaos tests).
    pub fn only(kind: NetFaultKind, rate: f64) -> Self {
        let mut cfg = Self {
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            fault_attempts: 1,
            delay_us: 40,
        };
        match kind {
            NetFaultKind::Drop => cfg.drop_rate = rate,
            NetFaultKind::Duplicate => cfg.duplicate_rate = rate,
            NetFaultKind::Delay => cfg.delay_rate = rate,
            NetFaultKind::Truncate => cfg.truncate_rate = rate,
            NetFaultKind::Corrupt => cfg.corrupt_rate = rate,
        }
        cfg
    }

    /// `rate` split evenly over all five kinds.
    pub fn mixed(rate: f64) -> Self {
        let each = rate / 5.0;
        Self {
            drop_rate: each,
            duplicate_rate: each,
            delay_rate: each,
            truncate_rate: each,
            corrupt_rate: each,
            fault_attempts: 1,
            delay_us: 40,
        }
    }
}

/// A deterministic network fault plan over a set of queries, keyed — like
/// [`FaultPlan`] — by content digest ([`query_digest`]), so identical
/// queries share their fault fate however requests are routed or
/// replayed. Unlike `FaultPlan` it keeps **no** mutable attempt log: the
/// router stamps an explicit attempt number into every request frame, so
/// fault decisions are a pure function of `(digest, attempt)` and replay
/// bit-identically at any shard count, connection order, or retry
/// schedule.
#[derive(Debug, Default)]
pub struct NetFaultPlan {
    faults: HashMap<u64, NetFault>,
}

impl NetFaultPlan {
    /// An empty plan (damages nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws a plan over `trace` from a seeded RNG: one uniform draw per
    /// trace entry walks the cumulative kind rates, so plans with
    /// different rates over the same RNG stream stay aligned (the same
    /// alignment trick as [`FaultPlan::generate`]). Digest collisions
    /// (identical queries) keep the first mark.
    pub fn generate(trace: &ArrivalTrace, cfg: &NetFaultConfig, rng: &mut impl Rng) -> Self {
        let mut plan = Self::new();
        let rates = [
            cfg.drop_rate,
            cfg.duplicate_rate,
            cfg.delay_rate,
            cfg.truncate_rate,
            cfg.corrupt_rate,
        ];
        for query in &trace.queries {
            let u: f64 = rng.gen_range(0.0..1.0);
            let mut acc = 0.0;
            for (kind, rate) in NetFaultKind::ALL.into_iter().zip(rates) {
                acc += rate;
                if u < acc {
                    let fault = if kind == NetFaultKind::Delay {
                        NetFault::delay(cfg.delay_us, cfg.fault_attempts)
                    } else {
                        NetFault::transient(kind, cfg.fault_attempts)
                    };
                    plan.mark(query, fault);
                    break;
                }
            }
        }
        plan
    }

    /// Marks `query` with `fault` (keyed by content digest). The first
    /// mark for a digest wins; later marks are ignored, so a plan is
    /// independent of how many copies of a query the trace holds.
    pub fn mark(&mut self, query: &Query, fault: NetFault) {
        self.faults.entry(query_digest(query)).or_insert(fault);
    }

    /// The fault marked for `query`, if any.
    pub fn fault_of(&self, query: &Query) -> Option<NetFault> {
        self.faults.get(&query_digest(query)).copied()
    }

    /// The damage to apply to request `attempt` (0-based) of the query
    /// with content digest `digest`: `Some` while the attempt is within
    /// the fault's coverage, `None` once retries have outlasted it.
    pub fn action(&self, digest: u64, attempt: u32) -> Option<NetFault> {
        self.faults
            .get(&digest)
            .copied()
            .filter(|f| attempt < f.attempts)
    }

    /// True iff `query` is marked unreachable (`attempts == u32::MAX`).
    pub fn is_outage(&self, query: &Query) -> bool {
        self.faults
            .get(&query_digest(query))
            .is_some_and(|f| f.attempts == u32::MAX)
    }

    /// Number of marked digests.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True iff the plan marks nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Installs a process-wide panic hook that swallows [`INJECTED_FAULT`]
/// panics and forwards everything else to the previous hook. Idempotent;
/// chaos tests call it so hundreds of deliberate panics don't bury real
/// failures in backtrace noise. Real panics keep printing.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains(INJECTED_FAULT));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_trace, GeneratorConfig, TraceConfig, WorkloadConfig};
    use crate::graph::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace(overlap: f64, len: usize, seed: u64) -> ArrivalTrace {
        let cfg = TraceConfig {
            workload: WorkloadConfig::uniform(
                GeneratorConfig::paper(3, Topology::Chain, 1),
                len,
                overlap,
            ),
            mean_gap: 0.0,
        };
        generate_trace(&cfg, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn digest_is_content_identity() {
        let t = trace(1.0, 3, 7);
        assert_eq!(query_digest(&t.queries[0]), query_digest(&t.queries[1]));
        let other = trace(0.0, 2, 8);
        assert_ne!(query_digest(&t.queries[0]), query_digest(&other.queries[1]));
    }

    #[test]
    fn generate_is_seed_deterministic() {
        let t = trace(0.0, 12, 3);
        let cfg = FaultConfig {
            poison_rate: 0.3,
            delay_rate: 0.2,
            delay_us: 50,
        };
        let a = FaultPlan::generate(&t, &cfg, &mut StdRng::seed_from_u64(9));
        let b = FaultPlan::generate(&t, &cfg, &mut StdRng::seed_from_u64(9));
        for q in &t.queries {
            assert_eq!(a.fault_of(q), b.fault_of(q), "same seed, same plan");
        }
        let c = FaultPlan::generate(&t, &cfg, &mut StdRng::seed_from_u64(10));
        let differs = t.queries.iter().any(|q| a.fault_of(q) != c.fault_of(q));
        assert!(differs, "a fresh seed draws a fresh plan");
    }

    #[test]
    fn poison_panics_on_every_attempt_transient_recovers() {
        let t = trace(0.0, 4, 1);
        let mut plan = FaultPlan::new();
        plan.mark(&t.queries[0], Fault::poison());
        plan.mark(&t.queries[1], Fault::transient(2));
        for _ in 0..5 {
            assert!(plan.on_attempt(&t.queries[0]).panic, "poison always panics");
        }
        assert!(plan.on_attempt(&t.queries[1]).panic, "attempt 1 panics");
        assert!(plan.on_attempt(&t.queries[1]).panic, "attempt 2 panics");
        assert!(!plan.on_attempt(&t.queries[1]).panic, "attempt 3 succeeds");
        assert!(!plan.on_attempt(&t.queries[2]).panic, "unmarked proceeds");
        assert_eq!(plan.attempts_of(&t.queries[0]), 5);
        assert_eq!(plan.attempts_of(&t.queries[2]), 0, "unmarked not logged");
    }

    #[test]
    fn hook_reports_delay_then_panics() {
        use std::sync::atomic::{AtomicU64, Ordering};
        silence_injected_panics();
        let t = trace(0.0, 2, 5);
        let mut plan = FaultPlan::new();
        plan.mark(
            &t.queries[0],
            Fault {
                panic_attempts: 1,
                delay_us: 30,
            },
        );
        plan.mark(&t.queries[1], Fault::delay(40));
        let plan = Arc::new(plan);
        let delayed = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&delayed);
        let hook = plan.hook(move |us| {
            sink.fetch_add(us, Ordering::Relaxed);
        });
        let q0 = t.queries[0].clone();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(&q0)));
        assert!(panicked.is_err(), "first attempt of a marked query panics");
        assert_eq!(delayed.load(Ordering::Relaxed), 30, "delay reported first");
        hook(&t.queries[0]);
        hook(&t.queries[1]);
        assert_eq!(delayed.load(Ordering::Relaxed), 30 + 30 + 40);
    }

    #[test]
    fn overlapping_copies_share_their_fate() {
        let t = trace(1.0, 4, 2);
        let mut plan = FaultPlan::new();
        plan.mark(&t.queries[2], Fault::poison());
        for q in &t.queries {
            assert!(plan.is_poisoned(q), "identical queries share one digest");
        }
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn net_generate_is_seed_deterministic_and_rate_sensitive() {
        let t = trace(0.0, 16, 4);
        let cfg = NetFaultConfig::mixed(0.5);
        let a = NetFaultPlan::generate(&t, &cfg, &mut StdRng::seed_from_u64(11));
        let b = NetFaultPlan::generate(&t, &cfg, &mut StdRng::seed_from_u64(11));
        for q in &t.queries {
            assert_eq!(a.fault_of(q), b.fault_of(q), "same seed, same plan");
        }
        assert!(!a.is_empty(), "rate 0.5 over 16 queries must mark");
        let none = NetFaultPlan::generate(
            &t,
            &NetFaultConfig::only(NetFaultKind::Drop, 0.0),
            &mut StdRng::seed_from_u64(11),
        );
        assert!(none.is_empty(), "rate 0 marks nothing");
    }

    #[test]
    fn net_action_covers_leading_attempts_only() {
        let t = trace(0.0, 3, 6);
        let mut plan = NetFaultPlan::new();
        plan.mark(&t.queries[0], NetFault::transient(NetFaultKind::Drop, 2));
        plan.mark(&t.queries[1], NetFault::outage(NetFaultKind::Corrupt));
        let d0 = query_digest(&t.queries[0]);
        let d1 = query_digest(&t.queries[1]);
        let d2 = query_digest(&t.queries[2]);
        assert_eq!(plan.action(d0, 0).map(|f| f.kind), Some(NetFaultKind::Drop));
        assert_eq!(plan.action(d0, 1).map(|f| f.kind), Some(NetFaultKind::Drop));
        assert_eq!(plan.action(d0, 2), None, "attempt 2 outlasts the fault");
        assert!(plan.action(d1, u32::MAX - 1).is_some(), "outage never ends");
        assert!(plan.is_outage(&t.queries[1]));
        assert!(!plan.is_outage(&t.queries[0]));
        assert_eq!(plan.action(d2, 0), None, "unmarked passes clean");
    }

    #[test]
    fn net_marks_share_digests_and_first_mark_wins() {
        let t = trace(1.0, 3, 9);
        let mut plan = NetFaultPlan::new();
        plan.mark(&t.queries[0], NetFault::transient(NetFaultKind::Delay, 1));
        plan.mark(&t.queries[1], NetFault::transient(NetFaultKind::Drop, 3));
        assert_eq!(plan.len(), 1, "identical queries share one digest");
        assert_eq!(
            plan.fault_of(&t.queries[2]).map(|f| f.kind),
            Some(NetFaultKind::Delay),
            "the first mark wins"
        );
    }

    #[test]
    fn net_kind_names_round_trip() {
        for kind in NetFaultKind::ALL {
            assert_eq!(NetFaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(NetFaultKind::parse("gamma-ray"), None);
    }
}
