//! `mpq-net`: the networked shard fabric for the MPQ optimizer service.
//!
//! `mpq-service` serves one process; this crate stretches the same
//! contract across processes. A deployment is a set of **shard servers**
//! — each fronting one `OptimizerSession` over TCP or a unix socket —
//! and a **router** on the client side that affinity-hashes every query
//! to its shard, speaks a hand-rolled versioned binary wire format, and
//! drives each submission through deadline-aware retries to exactly one
//! outcome.
//!
//! The crate's north star is the repo-wide determinism contract,
//! extended over an unreliable wire:
//!
//! > For a fixed trace and fault plan, the healthy answers (plans,
//! > counters, probe frontiers, ε stamps) of a sharded networked
//! > deployment are **bit-identical** to a single in-process session —
//! > at any shard count, any process count, and any deterministic fault
//! > pattern.
//!
//! Three design decisions carry that invariant:
//!
//! 1. **Affinity routing** ([`router::ShardRouter`]): the router places
//!    queries with the same `query_affinity` digest the in-process
//!    `ShardedSession` uses, so the network changes *where* a query
//!    runs, never *what* it computes.
//! 2. **Idempotent servers** ([`server::ShardServerCore`]): the first
//!    answer per query is kept in the service's `AnswerCache`, keyed on
//!    the cache's own `query_digest` of it; retries and duplicated
//!    frames replay it byte-for-byte instead of re-optimizing. Replays
//!    are flagged (`dedup`) so tests can prove they happened. A panicked
//!    answer is never replayed: a retry runs its own attempt.
//! 3. **Bit-exact transport** ([`wire`]): `f64`s travel as raw IEEE-754
//!    bits under an FNV-1a body checksum, so an answer either arrives
//!    exactly as computed or fails decoding with a typed error — there
//!    is no "slightly wrong" on this wire.
//!
//! Robustness is tested, not assumed: [`chaos`] wraps any connection in
//! a deterministic fault injector (drop / duplicate / delay / truncate /
//! corrupt, keyed on query digests like the service's `FaultPlan`), and
//! the network chaos proptest replays traces under a virtual clock,
//! asserting bit-identity of every healthy answer, the service's
//! conservation identity over [`mpq_service::ServiceStats`], and that
//! degraded outcomes are *typed* ([`wire::WireOutcome::Unavailable`]) —
//! never a hang.
//!
//! ## Loopback example
//!
//! See `examples/loopback.rs` (and the README's "Networked sharding"
//! section) for a complete two-shard TCP deployment on `127.0.0.1`.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod chaos;
pub mod router;
pub mod server;
pub mod wire;

pub use chaos::{ChaosConn, ChaosCounters, InProcConn};
pub use router::{NetError, NetResponse, NetTime, RetryPolicy, ShardConn, ShardRouter, StreamConn};
pub use server::{serve_tcp, serve_unix, ServerCounters, ShardServerCore, MAX_CONNECTIONS};
pub use wire::{
    decode_message, encode_message, read_frame, write_frame, Message, PlanSummary, WireError,
    WireOutcome, WireRequest, WireResponse, MAX_FRAME_LEN, WIRE_VERSION,
};
