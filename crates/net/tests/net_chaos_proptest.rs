//! Network chaos: the shard fabric under deterministic fault injection.
//!
//! The acceptance matrix of the networked determinism contract: shard
//! counts {1, 2, 4} × fault rates {0, 0.1, 0.3} × every fault kind
//! (drop / duplicate / delay / truncate / corrupt), replayed under the
//! service's virtual clock. For every run:
//!
//! - every submitted query resolves to **exactly one** outcome;
//! - with transient faults (each digest faulted on its first attempt
//!   only), every query recovers to a healthy answer whose
//!   [`PlanSummary`] — counters, probe frontiers, ε stamps — is
//!   **bit-identical** to a plain in-process optimization of the same
//!   query;
//! - the [`ServiceStats`] conservation identity holds
//!   (`submitted == completed + rejected + timed_out + quarantined +
//!   unavailable`);
//! - at fault rate 0 the wire is clean: zero retries, zero reconnects,
//!   zero drops.
//!
//! Separate deterministic tests cover graceful degradation: a digest
//! marked as a full outage resolves [`WireOutcome::Unavailable`] (typed,
//! never a hang), and an expired deadline resolves
//! [`WireOutcome::TimedOut`] without burning the remaining retries.

use std::sync::Arc;

use mpq_catalog::fault::{query_digest, NetFault, NetFaultConfig, NetFaultKind, NetFaultPlan};
use mpq_catalog::generator::{generate_trace, GeneratorConfig, TraceConfig, WorkloadConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::rrpa::optimize;
use mpq_core::session::{query_affinity, SessionConfig, ShardedSession};
use mpq_core::OptimizerConfig;
use mpq_net::chaos::{ChaosConn, InProcConn};
use mpq_net::router::{NetTime, RetryPolicy, ShardRouter};
use mpq_net::server::ShardServerCore;
use mpq_net::wire::{PlanSummary, WireOutcome};
use mpq_service::{SubmittedQuery, VirtualClock};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Frontier probe points — the same grid the service proptests pin.
fn probes() -> Vec<Vec<f64>> {
    [0.0, 0.15, 0.5, 0.85, 1.0]
        .iter()
        .map(|&v| vec![v])
        .collect()
}

/// One-parameter optimizer config, single worker thread: the reference
/// and the servers share it, so summaries are comparable bit for bit.
fn opt_config() -> OptimizerConfig {
    OptimizerConfig {
        grid_resolution: 4,
        threads: Some(1),
        ..OptimizerConfig::default_for(1)
    }
}

/// Uncached server sessions: the net suite isolates the *transport*
/// layer, so each query must optimize exactly as the fresh-space
/// reference does (session-cache bit-identity has its own suite in
/// `mpq-service`).
fn server_session_config(opt: &OptimizerConfig) -> SessionConfig {
    let mut cfg = SessionConfig::new(opt.clone()).without_subtree_cache();
    cfg.cached = false;
    cfg
}

/// Replays one trace through the faulted fabric at shard counts
/// {1, 2, 4} and checks the networked determinism contract. Returns the
/// number of digests the fault plan marked, and per shard count the
/// transport effort: retries, reconnects, drops, injected faults and
/// dedup replays.
fn check_faulted_fabric(
    num_tables: usize,
    topology: Topology,
    trace_len: usize,
    overlap: f64,
    kind: NetFaultKind,
    rate: f64,
    seed: u64,
) -> Result<(usize, Vec<[u64; 5]>), TestCaseError> {
    let trace_cfg = TraceConfig {
        workload: WorkloadConfig::uniform(
            GeneratorConfig::paper(num_tables, topology, 1),
            trace_len,
            overlap,
        ),
        mean_gap: 25e-6,
    };
    let trace = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(seed));
    let model = CloudCostModel::default();
    let opt = opt_config();

    // In-process reference: every query on a fresh space.
    let reference: Vec<PlanSummary> = trace
        .queries
        .iter()
        .map(|q| {
            let space = GridSpace::for_unit_box(1, &opt, 2).expect("grid space");
            let sol = optimize(q, &model, &space, &opt);
            PlanSummary::of(&space, &sol, &probes())
        })
        .collect();

    // Transient faults: each marked digest is damaged on attempt 0
    // only, so the default 4-attempt policy always recovers.
    let plan = Arc::new(NetFaultPlan::generate(
        &trace,
        &NetFaultConfig::only(kind, rate),
        &mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
    ));
    if rate == 0.0 {
        prop_assert!(plan.is_empty(), "rate 0 must mark nothing");
    }

    let mut effort = Vec::new();
    for shards in [1usize, 2, 4] {
        let session_cfg = server_session_config(&opt);
        let sessions = ShardedSession::build(shards, &model, &session_cfg, || {
            GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
        });
        let cores: Vec<_> = (0..shards)
            .map(|i| ShardServerCore::new(sessions.shard(i), i as u32, probes()))
            .collect();
        let vclock = VirtualClock::new();
        let time = NetTime::virtual_time(&vclock);
        let conns: Vec<_> = cores
            .iter()
            .map(|core| ChaosConn::new(InProcConn::new(core), Arc::clone(&plan), time.clone()))
            .collect();
        let mut router = ShardRouter::new(
            conns,
            |q| query_affinity(q, &model),
            RetryPolicy {
                seed,
                ..RetryPolicy::default()
            },
            time.clone(),
        );

        let responses: Vec<_> = trace
            .queries
            .iter()
            .zip(&trace.arrivals)
            .map(|(q, &at)| {
                vclock.advance_to_secs(at);
                router.submit(SubmittedQuery {
                    query: q.clone(),
                    deadline: None,
                })
            })
            .collect();

        // Exactly one outcome per submission, and with transient
        // faults every one of them is healthy.
        prop_assert_eq!(responses.len(), trace.len(), "one outcome per query");
        let stats = router.stats();
        prop_assert_eq!(stats.submitted, trace.len() as u64);
        prop_assert_eq!(
            stats.completed,
            trace.len() as u64,
            "transient faults recover"
        );
        prop_assert!(stats.conserves(), "conservation identity");

        for (i, (resp, query)) in responses.iter().zip(&trace.queries).enumerate() {
            prop_assert_eq!(resp.shard, sessions.shard_of(query), "affinity agreement");
            let summary = resp.outcome.ok().expect("healthy answer");
            prop_assert_eq!(
                summary,
                &reference[i],
                "networked answer diverged from in-process (query {}, {} shards, {:?} @ {})",
                i,
                shards,
                kind,
                rate
            );
            prop_assert_eq!(
                resp.served_epsilon,
                None,
                "exact serving carries no ε stamp"
            );
        }

        // Wire-effort accounting per fault kind.
        let chaos_total: u64 = (0..shards).map(|i| router.conn(i).counters().total()).sum();
        if rate == 0.0 {
            prop_assert_eq!(
                (stats.retries, stats.reconnects, stats.dropped, chaos_total),
                (0, 0, 0, 0),
                "a clean wire shows zero transport effort"
            );
        } else if !plan.is_empty() {
            prop_assert!(chaos_total > 0, "marked plans must damage something");
            match kind {
                // Each dropped/garbled first attempt forces ≥ 1 retry.
                NetFaultKind::Drop => {
                    prop_assert!(stats.dropped >= plan.len() as u64);
                    prop_assert!(stats.retries >= plan.len() as u64);
                }
                NetFaultKind::Truncate | NetFaultKind::Corrupt => {
                    prop_assert!(stats.retries >= plan.len() as u64);
                    prop_assert_eq!(stats.dropped, 0);
                }
                // Duplicates answer from the idempotency cache on the
                // duplicated exchange; short delays deliver in time.
                NetFaultKind::Duplicate | NetFaultKind::Delay => {
                    prop_assert_eq!(stats.retries, 0);
                    prop_assert_eq!(stats.dropped, 0);
                }
            }
        }
        let dedup_hits: u64 = cores.iter().map(|c| c.counters().dedup_hits).sum();
        if kind == NetFaultKind::Duplicate && !plan.is_empty() {
            prop_assert!(dedup_hits > 0, "duplicated frames must replay from cache");
        }
        effort.push([
            stats.retries,
            stats.reconnects,
            stats.dropped,
            chaos_total,
            dedup_hits,
        ]);
        // Idempotency hard bound: the optimizer ran at most once per
        // distinct digest, no matter how many frames flew. Every request
        // that is not a replay runs its own optimize (the trace injects
        // no optimizer faults), so `handled - dedup_hits` counts them.
        for (i, core) in cores.iter().enumerate() {
            let distinct: std::collections::HashSet<u64> = trace
                .queries
                .iter()
                .filter(|q| sessions.shard_of(q) == i)
                .map(query_digest)
                .collect();
            let c = core.counters();
            prop_assert!(
                c.handled - c.dedup_hits <= distinct.len() as u64,
                "shard {} re-optimized a replayed digest",
                i
            );
        }
    }
    Ok((plan.len(), effort))
}

proptest! {
    // Each case replays one trace through 3 shard counts; fault kind and
    // rate are case parameters, so the matrix fills across cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn faulted_fabric_is_bit_identical_to_in_process(
        num_tables in 2usize..=3,
        star in 0usize..=1,
        trace_len in 3usize..=6,
        overlap_idx in 0usize..=2,
        kind_idx in 0usize..=4,
        rate_idx in 0usize..=2,
        seed in 0u64..1000,
    ) {
        let overlap = [0.0, 0.5, 1.0][overlap_idx];
        let kind = NetFaultKind::ALL[kind_idx];
        let rate = [0.0, 0.1, 0.3][rate_idx];
        let topology = if star == 1 { Topology::Star } else { Topology::Chain };
        check_faulted_fabric(num_tables, topology, trace_len, overlap, kind, rate, seed)?;
    }
}

/// Every fault kind at rate 0.3 on one fixed trace, so each kind's
/// effort accounting runs whichever kinds the random cases above draw:
/// drops cost retries and are counted, garbled frames cost retries,
/// duplicates replay from the idempotency cache. A second run repeats
/// the transport effort exactly.
#[test]
fn every_fault_kind_costs_its_own_effort() {
    for kind in NetFaultKind::ALL {
        let run = || {
            check_faulted_fabric(3, Topology::Chain, 6, 0.5, kind, 0.3, 1)
                .unwrap_or_else(|e| panic!("{kind:?}: {e:?}"))
        };
        let (marked, effort) = run();
        assert!(marked > 0, "{kind:?}: rate 0.3 must mark a digest");
        assert_eq!(run().1, effort, "{kind:?}: the effort replays exactly");
    }
}

/// A shard in full outage resolves every affected query as a typed
/// `Unavailable` — bounded attempts, bounded (virtual) time, no hang —
/// while unaffected queries on the same wire stay healthy and
/// bit-identical.
#[test]
fn outage_degrades_to_typed_unavailable() {
    let trace_cfg = TraceConfig {
        workload: WorkloadConfig::uniform(GeneratorConfig::paper(3, Topology::Chain, 1), 4, 0.0),
        mean_gap: 0.0,
    };
    let trace = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(7));
    let model = CloudCostModel::default();
    let opt = opt_config();

    let mut plan = NetFaultPlan::new();
    plan.mark(&trace.queries[1], NetFault::outage(NetFaultKind::Drop));
    let plan = Arc::new(plan);

    let session_cfg = server_session_config(&opt);
    let sessions = ShardedSession::build(2, &model, &session_cfg, || {
        GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
    });
    let cores: Vec<_> = (0..2)
        .map(|i| ShardServerCore::new(sessions.shard(i), i as u32, probes()))
        .collect();
    let vclock = VirtualClock::new();
    let time = NetTime::virtual_time(&vclock);
    let conns: Vec<_> = cores
        .iter()
        .map(|core| ChaosConn::new(InProcConn::new(core), Arc::clone(&plan), time.clone()))
        .collect();
    let policy = RetryPolicy::default();
    let mut router = ShardRouter::new(conns, |q| query_affinity(q, &model), policy, time.clone());

    let started = time.now();
    let responses: Vec<_> = trace
        .queries
        .iter()
        .map(|q| {
            router.submit(SubmittedQuery {
                query: q.clone(),
                deadline: None,
            })
        })
        .collect();

    for (i, resp) in responses.iter().enumerate() {
        if i == 1 {
            assert_eq!(
                resp.outcome,
                WireOutcome::Unavailable,
                "outage resolves typed, not hung"
            );
            assert_eq!(resp.attempts, policy.max_attempts, "every retry was spent");
        } else {
            assert!(
                resp.outcome.ok().is_some(),
                "bystander query {i} stays healthy"
            );
        }
    }
    let stats = router.stats();
    assert_eq!(stats.unavailable, 1);
    assert_eq!(stats.completed, 3);
    assert!(stats.conserves(), "conservation holds under outage");
    // The whole ordeal consumed bounded virtual time: at most
    // max_attempts timeouts plus their (capped) backoffs.
    let worst = policy.max_attempts as f64 * (policy.attempt_timeout + policy.max_backoff);
    assert!(
        time.now() - started <= worst + 1e-9,
        "outage wait is bounded: {} > {}",
        time.now() - started,
        worst
    );
}

/// An already-expired deadline resolves `TimedOut` before any attempt is
/// sent; a deadline that expires mid-retries resolves `TimedOut` without
/// exhausting the attempt budget.
#[test]
fn expired_deadlines_time_out_without_burning_retries() {
    let trace_cfg = TraceConfig {
        workload: WorkloadConfig::uniform(GeneratorConfig::paper(2, Topology::Chain, 1), 2, 0.0),
        mean_gap: 0.0,
    };
    let trace = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(11));
    let model = CloudCostModel::default();
    let opt = opt_config();

    // Query 0's digest is in permanent outage; query 1 rides clean.
    let mut plan = NetFaultPlan::new();
    plan.mark(&trace.queries[0], NetFault::outage(NetFaultKind::Drop));
    let plan = Arc::new(plan);

    let session_cfg = server_session_config(&opt);
    let sessions = ShardedSession::build(1, &model, &session_cfg, || {
        GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
    });
    let core = ShardServerCore::new(sessions.shard(0), 0, probes());
    let vclock = VirtualClock::new();
    vclock.advance_to_secs(10.0);
    let time = NetTime::virtual_time(&vclock);
    let conn = ChaosConn::new(InProcConn::new(&core), Arc::clone(&plan), time.clone());
    let mut router = ShardRouter::new(
        vec![conn],
        |q| query_affinity(q, &model),
        RetryPolicy::default(),
        time.clone(),
    );

    // Deadline already in the past: classified before any frame is sent.
    let resp = router.submit(SubmittedQuery {
        query: trace.queries[1].clone(),
        deadline: Some(5.0),
    });
    assert_eq!(resp.outcome, WireOutcome::TimedOut);
    assert_eq!(core.counters().handled, 0, "no frame reached the shard");

    // Outage + deadline one attempt-timeout away: the first drop burns
    // past the deadline, the loop classifies TimedOut instead of
    // spending all retries toward Unavailable.
    let resp = router.submit(SubmittedQuery {
        query: trace.queries[0].clone(),
        deadline: Some(time.now() + RetryPolicy::default().attempt_timeout / 2.0),
    });
    assert_eq!(resp.outcome, WireOutcome::TimedOut);
    assert!(resp.attempts < RetryPolicy::default().max_attempts);

    let stats = router.stats();
    assert_eq!(stats.timed_out, 2);
    assert!(stats.conserves());
}
