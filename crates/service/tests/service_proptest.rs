//! Property-based determinism tests for the optimizer service.
//!
//! The service contract (crate docs of `mpq_service`): for a fixed trace,
//! per-query plans, counters and frontiers are **bit-identical** to
//! optimizing the same queries one by one through a plain session —
//! independent of the batch policy (size/deadline triggers), the shard
//! count, the cost-lifting cache capacity (unbounded or tiny, i.e.
//! evicting constantly), and the shared-subplan cache capacity
//! (disabled, unbounded, evicting, or pass-through). Random traces ×
//! policies × shard counts {1, 2, 4} × capacities {∞, 1, 0} for both
//! caches are exercised here; a tiny capacity must also *terminate*
//! (eviction cannot livelock a batch) with the identical plans.

use mpq_catalog::fault::query_digest;
use mpq_catalog::generator::{
    generate_trace, ArrivalTrace, GeneratorConfig, TraceConfig, WorkloadConfig,
};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::rrpa::{optimize, MpqSolution};
use mpq_core::session::{OptimizerSession, SessionConfig, ShardedSession};
use mpq_core::space::MpqSpace;
use mpq_core::OptimizerConfig;
use mpq_service::{serve, BatchPolicy, ServiceConfig, ServiceStats, VirtualClock};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Duration;

/// Deterministic probe points for frontier comparison.
fn probes() -> Vec<Vec<f64>> {
    [0.0, 0.15, 0.5, 0.85, 1.0]
        .iter()
        .map(|&v| vec![v])
        .collect()
}

/// Per-query facts that must match bit for bit between the service and
/// the sequential reference.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    plans_created: u64,
    plans_pruned: u64,
    final_plans: usize,
    frontiers: Vec<Vec<(mpq_core::plan::PlanId, Vec<f64>)>>,
}

fn fingerprint<S: MpqSpace>(space: &S, sol: &MpqSolution<S>) -> Fingerprint {
    Fingerprint {
        plans_created: sol.stats.plans_created,
        plans_pruned: sol.stats.plans_pruned,
        final_plans: sol.stats.final_plan_count,
        frontiers: probes().iter().map(|x| sol.frontier_at(space, x)).collect(),
    }
}

proptest! {
    // Each case runs one sequential reference plus 3 shard counts × the
    // capacity set through the full service stack; sizes stay small so
    // the suite remains seconds, not minutes.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn service_equals_one_by_one_session(
        num_tables in 2usize..=3,
        star in 0usize..=1,
        trace_len in 3usize..=6,
        overlap_idx in 0usize..=2,
        max_batch in 1usize..=4,
        max_wait_us in prop_oneof![Just(0u64), Just(40), Just(1_000_000)],
        mean_gap_us in prop_oneof![Just(0u64), Just(25), Just(100)],
        seed in 0u64..1000,
    ) {
        let overlap = [0.0, 0.5, 1.0][overlap_idx];
        let topology = if star == 1 { Topology::Star } else { Topology::Chain };
        let trace_cfg = TraceConfig {
            workload: WorkloadConfig::uniform(
                GeneratorConfig::paper(num_tables, topology, 1),
                trace_len,
                overlap,
            ),
            mean_gap: mean_gap_us as f64 * 1e-6,
        };
        let trace = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(seed));
        // A fully overlapping trace is copies of one query.
        let distinct: HashSet<u64> = trace.queries.iter().map(query_digest).collect();
        let copies = (trace.len() - distinct.len()) as u64;
        if overlap == 1.0 {
            prop_assert_eq!(copies, trace.len() as u64 - 1, "full overlap is all copies");
        }
        let model = CloudCostModel::default();
        let opt = OptimizerConfig {
            grid_resolution: 4,
            threads: Some(1),
            ..OptimizerConfig::default_for(1)
        };

        // Sequential reference: every query alone on a fresh space.
        let reference: Vec<Fingerprint> = trace
            .queries
            .iter()
            .map(|q| {
                let space = GridSpace::for_unit_box(1, &opt, 2).expect("grid space");
                let sol = optimize(q, &model, &space, &opt);
                fingerprint(&space, &sol)
            })
            .collect();

        // The capacity grid pairs the cost-lifting cache with the
        // shared-subplan cache: the lift capacities run with subtree
        // caching explicitly off (isolating the lift layer), and the
        // subtree capacities {∞, small, 0} run on an unbounded lift
        // cache. `None` = that cache disabled.
        let capacity_grid: [(Option<usize>, Option<Option<usize>>); 6] = [
            (None, None),
            (Some(1), None),
            (Some(0), None),
            (None, Some(None)),
            (None, Some(Some(1))),
            (None, Some(Some(0))),
        ];
        for shards in [1usize, 2, 4] {
            for (capacity, subtree) in capacity_grid {
                let mut session_cfg = SessionConfig::new(opt.clone()).without_subtree_cache();
                session_cfg.cache_capacity = capacity;
                if let Some(subtree_capacity) = subtree {
                    session_cfg = session_cfg.with_subtree_cache(subtree_capacity);
                }
                let sessions = ShardedSession::build(shards, &model, &session_cfg, || {
                    GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
                });
                // Virtual clock stepped to each arrival: the batching
                // decisions replay the trace deterministically, and a
                // huge `max_wait` cannot stall the run (tickets are
                // waited after `serve`, when everything has drained).
                let vclock = VirtualClock::new();
                let config = ServiceConfig::new(BatchPolicy::new(
                    max_batch,
                    Duration::from_micros(max_wait_us),
                ))
                .with_clock(vclock.clock());
                let (tickets, stats) = serve(&sessions, config, |handle| {
                    trace
                        .queries
                        .iter()
                        .zip(&trace.arrivals)
                        .map(|(q, &at)| {
                            vclock.advance_to_secs(at);
                            handle.submit(q.clone())
                        })
                        .collect::<Vec<_>>()
                });
                prop_assert_eq!(stats.completed, trace.len() as u64, "all answered");
                prop_assert!(stats.conserves(), "conservation identity after shutdown");
                prop_assert_eq!(
                    (
                        stats.unavailable,
                        stats.retries,
                        stats.reconnects,
                        stats.dropped
                    ),
                    (0u64, 0u64, 0u64, 0u64),
                    "in-process serving has no wire counters"
                );
                prop_assert_eq!(
                    stats.batches,
                    stats.size_triggered + stats.deadline_triggered + stats.drain_triggered
                );
                // Each copy of an earlier query gets its leader's answer
                // instead of a run of its own.
                prop_assert_eq!(stats.coalesced, copies, "copies coalesce");
                let evictions: u64 =
                    stats.per_shard.iter().map(|s| s.cache.evictions).sum();
                if capacity == Some(1) && overlap == 0.0 && trace_len > 2 {
                    // Independent queries produce many distinct shapes: a
                    // one-entry cache must evict (and still terminate
                    // with identical plans, asserted below).
                    prop_assert!(evictions > 0, "capacity 1 under distinct shapes");
                }
                let subtree_hits: u64 =
                    stats.per_shard.iter().map(|s| s.subtree.hits).sum();
                if subtree.is_none() {
                    // Subtree caching off: the stats block stays all-zero.
                    prop_assert_eq!(subtree_hits, 0, "subtree cache disabled");
                }
                for (i, ticket) in tickets.into_iter().enumerate() {
                    let resp = ticket.wait();
                    let route = resp.route.expect("completed response carries a route");
                    prop_assert!(route.shard < shards);
                    let solution = resp.outcome.ok().expect("fault-free run completes");
                    let got = fingerprint(sessions.shard(route.shard).space(), &solution);
                    prop_assert_eq!(
                        &got,
                        &reference[i],
                        "service diverged from one-by-one (query {}, {} shards, capacity {:?}, subtree {:?})",
                        i,
                        shards,
                        capacity,
                        subtree
                    );
                }
            }
        }
    }
}

/// Summed `(plans_created, final_plans, lps_solved_query)` of `queries`,
/// each optimized alone through a plain session on a fresh space.
fn one_by_one(queries: &[Query], opt: &OptimizerConfig, model: &CloudCostModel) -> [u64; 3] {
    queries.iter().fold([0; 3], |[plans, finals, lps], q| {
        let space = GridSpace::for_unit_box(1, opt, 2).expect("grid space");
        let session = OptimizerSession::new(space, model, opt.clone());
        let stats = session.optimize(q).stats;
        [
            plans + stats.plans_created,
            finals + stats.final_plan_count as u64,
            lps + stats.lps_solved_query,
        ]
    })
}

/// The service's own counters against one-by-one sessions on a fixed
/// trace: ten 4-table 1-parameter chains over the same tables, at 1 and
/// 2 shards. The summed plans and the solved LPs equal the one-by-one
/// runs, every query solves LPs (so the LP equalities cannot hold at
/// 0 = 0), and the batching counters replay exactly. Digest-distinct
/// queries batch by size, share lifts, and with the subtree cache on
/// replay whole subtrees with unchanged plans. Plain copies coalesce
/// onto their leader, and then cost only the distinct queries' LPs.
#[test]
fn service_counters_equal_one_by_one_sessions() {
    let model = CloudCostModel::default();
    let opt = OptimizerConfig {
        threads: Some(1),
        ..OptimizerConfig::default_for(1)
    };
    let trace_cfg = TraceConfig {
        workload: WorkloadConfig::uniform(GeneratorConfig::paper(4, Topology::Chain, 1), 10, 1.0),
        mean_gap: 100e-6,
    };
    let copies = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(0));
    // Query i's first join selectivity scaled by 1 − i·10⁻³: a new digest
    // but no new scan shape, so the queries still share every lift.
    let mut distinct = copies.clone();
    for (i, q) in distinct.queries.iter_mut().enumerate() {
        q.joins[0].selectivity *= 1.0 - i as f64 * 1e-3;
    }
    // Summed (plans, final plans, per-query LPs) and the stats of one run.
    let run = |trace: &ArrivalTrace, shards: usize, subtree_capacity: Option<usize>| {
        let session_cfg = SessionConfig::new(opt.clone()).with_subtree_cache(subtree_capacity);
        let sessions = ShardedSession::build(shards, &model, &session_cfg, || {
            GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
        });
        let vclock = VirtualClock::new();
        let config = ServiceConfig::new(BatchPolicy::new(3, Duration::from_micros(120)))
            .with_clock(vclock.clock());
        let (tickets, stats) = serve(&sessions, config, |handle| {
            trace
                .queries
                .iter()
                .zip(&trace.arrivals)
                .map(|(q, &at)| {
                    vclock.advance_to_secs(at);
                    handle.submit(q.clone())
                })
                .collect::<Vec<_>>()
        });
        let solutions: Vec<_> = tickets.into_iter().map(|t| t.wait().expect_ok()).collect();
        let plans = solutions.iter().map(|s| s.stats.plans_created).sum::<u64>();
        let finals = solutions
            .iter()
            .map(|s| s.stats.final_plan_count as u64)
            .sum::<u64>();
        let lps: Vec<u64> = solutions.iter().map(|s| s.stats.lps_solved_query).collect();
        ((plans, finals, lps), stats)
    };
    let lift_hits =
        |stats: &ServiceStats| stats.per_shard.iter().map(|s| s.cache.hits).sum::<u64>();
    let subtree_hits =
        |stats: &ServiceStats| stats.per_shard.iter().map(|s| s.subtree.hits).sum::<u64>();
    let counters = |stats: &ServiceStats| {
        [
            stats.batches,
            stats.size_triggered,
            stats.deadline_triggered,
            stats.drain_triggered,
            stats.coalesced,
            stats.lps_solved,
            lift_hits(stats),
            stats.per_shard.iter().map(|s| s.cache.misses).sum(),
            subtree_hits(stats),
        ]
    };

    let [ref_plans, ref_finals, ref_lps] = one_by_one(&distinct.queries, &opt, &model);
    let leaders: HashSet<u64> = copies.queries.iter().map(query_digest).collect();
    assert_eq!(leaders.len(), 1, "full overlap is all copies");
    let [leader_plans, leader_finals, leader_lps] = one_by_one(&copies.queries[..1], &opt, &model);
    assert!(leader_lps > 0, "the leader must solve LPs");
    for shards in [1usize, 2] {
        // Digest-distinct queries with the subtree cache passed through:
        // every query reaches the lift cache and the LP solver.
        let ((plans, finals, lps), stats) = run(&distinct, shards, Some(0));
        assert_eq!(
            stats.batches,
            stats.size_triggered + stats.deadline_triggered + stats.drain_triggered,
            "triggers partition the batches"
        );
        assert!(stats.batches > 1, "the trace forms several batches");
        assert!(stats.size_triggered > 0, "max_batch 3 over 10 arrivals");
        assert_eq!(stats.coalesced, 0, "distinct queries never coalesce");
        assert!(lift_hits(&stats) > 0, "shared tables hit the lift cache");
        assert!(
            lps.iter().all(|&l| l > 0),
            "every query must solve LPs ({shards} shards): {lps:?}"
        );
        assert_eq!(
            (plans, finals),
            (ref_plans, ref_finals),
            "service plans diverged from one-by-one sessions ({shards} shards)"
        );
        assert_eq!(
            stats.lps_solved, ref_lps,
            "service LPs diverged from one-by-one ({shards} shards)"
        );
        let (_, replay) = run(&distinct, shards, Some(0));
        assert_eq!(
            counters(&replay),
            counters(&stats),
            "a virtual-clock replay repeats every counter ({shards} shards)"
        );

        // The same trace with an unbounded subtree cache: memoization is
        // pure, and the shared tables make it hit.
        let ((sub_plans, sub_finals, _), sub) = run(&distinct, shards, None);
        assert!(subtree_hits(&sub) > 0, "shared tables replay subtrees");
        assert_eq!((sub_plans, sub_finals), (plans, finals));

        // Copies of one query: each gets its leader's answer, so the plans
        // equal one-by-one runs of every request while the LPs are those
        // of the one distinct query.
        let ((copy_plans, copy_finals, _), copy_stats) = run(&copies, shards, Some(0));
        let n = copies.len() as u64;
        assert_eq!(copy_stats.coalesced, n - 1, "every copy coalesces");
        assert_eq!(
            (copy_plans, copy_finals),
            (n * leader_plans, n * leader_finals)
        );
        assert_eq!(
            copy_stats.lps_solved, leader_lps,
            "copies cost only their leader's LPs ({shards} shards)"
        );
    }
}
