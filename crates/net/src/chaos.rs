//! Deterministic network fault injection.
//!
//! Chaos here is a *plan*, not a coin flip at delivery time: a
//! [`NetFaultPlan`] pre-computed from
//! `(trace, config, seed)` marks query digests with faults, and
//! [`ChaosConn`] consults `plan.action(digest, attempt)` — a pure
//! function — for every request frame it carries. Two runs over the same
//! trace, plan and virtual clock therefore damage exactly the same
//! attempts in exactly the same way, which is what lets the chaos
//! proptest assert *bit-identity* of healthy answers rather than mere
//! plausibility.
//!
//! [`ChaosConn`] wraps any [`ShardConn`], so the same fault repertoire
//! drives the threadless in-process transport ([`InProcConn`]) in the
//! proptests as it would drive a real socket. The five
//! faults map onto the codec's failure surface:
//!
//! | fault | what the wire sees | what must happen |
//! |-------|--------------------|------------------|
//! | `Drop` | nothing, ever | attempt times out, router retries |
//! | `Duplicate` | the request twice | server answers replay from cache (`dedup`); only a panicked answer re-runs |
//! | `Delay` | the request, late | late-but-in-time delivers; past-timeout behaves as dropped |
//! | `Truncate` | a short frame, checksum restamped | typed `Truncated` decode error → `Message::Error` → retry |
//! | `Corrupt` | a flipped body byte | typed `Corrupt` decode error → `Message::Error` → retry |

use std::sync::Arc;

use mpq_catalog::fault::{NetFaultKind, NetFaultPlan};
use mpq_cloud::model::ParametricCostModel;
use mpq_core::space::MpqSpace;

use crate::router::{NetError, NetTime, ShardConn};
use crate::server::ShardServerCore;
use crate::wire::{corrupt_body, peek_request, truncate_body};

/// A [`ShardConn`] that answers inline from a borrowed
/// [`ShardServerCore`] — no socket, no thread, no wait. The exchange is
/// synchronous and total, so a router driving it under a virtual clock
/// is fully deterministic; it exercises the identical codec and handler
/// path the socket transports use (frames are really encoded, really
/// decoded).
pub struct InProcConn<'c, 'a, 'm, S: MpqSpace, M: ParametricCostModel + ?Sized> {
    core: &'c ShardServerCore<'a, 'm, S, M>,
}

impl<'c, 'a, 'm, S, M> InProcConn<'c, 'a, 'm, S, M>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized,
{
    /// A connection answering from `core`.
    pub fn new(core: &'c ShardServerCore<'a, 'm, S, M>) -> Self {
        Self { core }
    }
}

impl<'c, 'a, 'm, S, M> ShardConn for InProcConn<'c, 'a, 'm, S, M>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    M: ParametricCostModel + ?Sized,
{
    fn call(&mut self, frame: &[u8], _timeout_secs: f64) -> Result<Vec<u8>, NetError> {
        Ok(self.core.handle_frame(frame))
    }
}

/// Counters of the damage a [`ChaosConn`] has inflicted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Request frames destroyed ([`NetFaultKind::Drop`]).
    pub dropped: u64,
    /// Request frames delivered twice ([`NetFaultKind::Duplicate`]).
    pub duplicated: u64,
    /// Request frames delayed ([`NetFaultKind::Delay`]).
    pub delayed: u64,
    /// Request frames cut short ([`NetFaultKind::Truncate`]).
    pub truncated: u64,
    /// Request frames bit-flipped ([`NetFaultKind::Corrupt`]).
    pub corrupted: u64,
}

impl ChaosCounters {
    /// Total faulted attempts.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.truncated + self.corrupted
    }
}

/// A fault-injecting [`ShardConn`] wrapper: consults the plan for every
/// request frame and damages the marked attempts deterministically.
/// Non-request frames and unmarked attempts pass through untouched.
pub struct ChaosConn<C: ShardConn> {
    inner: C,
    plan: Arc<NetFaultPlan>,
    time: NetTime,
    counters: ChaosCounters,
}

impl<C: ShardConn> ChaosConn<C> {
    /// Wraps `inner`, damaging per `plan` and sleeping on `time` (so
    /// dropped attempts consume their timeout on the virtual clock, just
    /// as a real lost frame consumes wall time).
    pub fn new(inner: C, plan: Arc<NetFaultPlan>, time: NetTime) -> Self {
        Self {
            inner,
            plan,
            time,
            counters: ChaosCounters::default(),
        }
    }

    /// The damage inflicted so far.
    pub fn counters(&self) -> ChaosCounters {
        self.counters
    }

    /// The wrapped connection.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: ShardConn> ShardConn for ChaosConn<C> {
    fn call(&mut self, frame: &[u8], timeout_secs: f64) -> Result<Vec<u8>, NetError> {
        // Only request frames carry the (digest, attempt) identity the
        // plan keys on; anything else passes through.
        let Ok((_request_id, digest, attempt)) = peek_request(frame) else {
            return self.inner.call(frame, timeout_secs);
        };
        let Some(fault) = self.plan.action(digest, attempt) else {
            return self.inner.call(frame, timeout_secs);
        };
        match fault.kind {
            NetFaultKind::Drop => {
                self.counters.dropped += 1;
                // The frame is gone; the caller waits out its attempt.
                self.time.sleep(timeout_secs);
                Err(NetError::Timeout)
            }
            NetFaultKind::Duplicate => {
                self.counters.duplicated += 1;
                // Deliver twice; surface the *second* exchange, so the
                // answer the router sees is the server's cache replay —
                // the strongest probe of idempotency.
                let _first = self.inner.call(frame, timeout_secs);
                self.inner.call(frame, timeout_secs)
            }
            NetFaultKind::Delay => {
                self.counters.delayed += 1;
                let delay_secs = fault.delay_us as f64 * 1e-6;
                if delay_secs >= timeout_secs {
                    // Slower than the caller will wait: indistinguishable
                    // from a drop on this attempt.
                    self.time.sleep(timeout_secs);
                    Err(NetError::Timeout)
                } else {
                    self.time.sleep(delay_secs);
                    self.inner.call(frame, timeout_secs - delay_secs)
                }
            }
            NetFaultKind::Truncate => {
                self.counters.truncated += 1;
                // Cut mid-body with a restamped checksum: the server's
                // decoder must diagnose `Truncated` and answer a typed
                // protocol error.
                self.inner.call(&truncate_body(frame, 9), timeout_secs)
            }
            NetFaultKind::Corrupt => {
                self.counters.corrupted += 1;
                // One flipped body byte under a stale checksum: the
                // decoder must diagnose `Corrupt`. Salting with the
                // identity keeps the flip position deterministic yet
                // varied across queries and attempts.
                self.inner.call(
                    &corrupt_body(frame, digest ^ u64::from(attempt)),
                    timeout_secs,
                )
            }
        }
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }

    fn dropped(&self) -> u64 {
        self.counters.dropped
    }
}
