//! Property-based fault-injection ("chaos") tests for the optimizer
//! service.
//!
//! The robustness contract (crate docs of `mpq_service`): under a
//! seeded, deterministic fault plan that makes some queries panic inside
//! the optimizer,
//!
//! 1. every submitted query resolves to **exactly one** [`QueryOutcome`]
//!    — poisoned queries to `Panicked`, healthy ones to `Ok`;
//! 2. the service neither hangs nor loses a worker: `serve` drains and
//!    returns, and every buffered ticket is answered;
//! 3. every *healthy* query's plans/counters/frontiers stay
//!    **bit-identical** to a plain one-by-one session — the PR-5
//!    determinism bar, now under fire — at any shard count;
//! 4. the counters conserve: `submitted == completed + rejected +
//!    timed_out + quarantined` (with `rejected == timed_out == 0` here —
//!    no admission control or deadlines in these cases), and each
//!    quarantined poison costs exactly one worker restart: every query
//!    gets one attempt, and no healthy batch-mate is ever re-run.
//!
//! Half the cases additionally run with `ServiceConfig::with_approx(0.1)`:
//! ε-served completions still count toward the conservation identity
//! (`approx_served ≤ completed`), quarantine still catches every poison,
//! and a healthy response stamped `served_epsilon` must carry that ε —
//! every attempt of a
//! downgraded batch runs at the batch ε — with a frontier no larger
//! than the exact reference and every exact cost vector (1+ε)-dominated.
//!
//! Faults here are always-poison (`FaultConfig::poison_only`), whose
//! outcome never depends on how many attempts ran before; transient
//! semantics are covered by unit tests, while this suite holds the
//! grouping-independent invariants across
//! random traces × policies × shard counts {1, 2, 4}.
//!
//! [`QueryOutcome`]: mpq_service::QueryOutcome

use mpq_catalog::fault::{silence_injected_panics, FaultConfig, FaultPlan};
use mpq_catalog::generator::{generate_trace, GeneratorConfig, TraceConfig, WorkloadConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::rrpa::{optimize, MpqSolution};
use mpq_core::session::{SessionConfig, ShardedSession};
use mpq_core::space::MpqSpace;
use mpq_core::OptimizerConfig;
use mpq_service::{serve, BatchPolicy, OutcomeKind, ServiceConfig, VirtualClock};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
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

/// Cover check: every exact-frontier cost vector is (1+ε)-dominated by
/// some approximate plan at the same probe point (tolerance absorbs LP
/// round-off).
fn covers(exact: &[(mpq_core::plan::PlanId, Vec<f64>)], approx: &[Vec<f64>], eps: f64) -> bool {
    exact.iter().all(|(_, target)| {
        approx.iter().any(|candidate| {
            candidate
                .iter()
                .zip(target)
                .all(|(c, t)| *c <= (1.0 + eps) * *t + 1e-9 + 1e-9 * t.abs())
        })
    })
}

proptest! {
    // Each case runs one sequential reference plus 3 shard counts under
    // a seeded fault plan; sizes stay small so the hundreds of injected
    // panics (caught and quarantined) keep the suite in seconds.
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn healthy_queries_survive_poison_batchmates(
        num_tables in 2usize..=3,
        star in 0usize..=1,
        trace_len in 4usize..=8,
        overlap_idx in 0usize..=2,
        poison_rate_idx in 0usize..=1,
        max_batch in 1usize..=4,
        max_wait_us in prop_oneof![Just(0u64), Just(40), Just(1_000_000)],
        mean_gap_us in prop_oneof![Just(0u64), Just(25), Just(100)],
        approx in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1000,
    ) {
        silence_injected_panics();
        let overlap = [0.0, 0.5, 1.0][overlap_idx];
        let poison_rate = [0.25, 0.6][poison_rate_idx];
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
        // The fault plan draws from its own seeded stream, decoupled
        // from the trace's.
        let plan = Arc::new(FaultPlan::generate(
            &trace,
            &FaultConfig::poison_only(poison_rate),
            &mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
        ));
        let poisoned: Vec<bool> =
            trace.queries.iter().map(|q| plan.is_poisoned(q)).collect();
        let n_poisoned = poisoned.iter().filter(|&&p| p).count();
        let model = CloudCostModel::default();
        let opt = OptimizerConfig {
            grid_resolution: 4,
            threads: Some(1),
            ..OptimizerConfig::default_for(1)
        };

        // Sequential fault-free reference: every query alone on a fresh
        // space (what each healthy query must reproduce bit for bit).
        let reference: Vec<Fingerprint> = trace
            .queries
            .iter()
            .map(|q| {
                let space = GridSpace::for_unit_box(1, &opt, 2).expect("grid space");
                let sol = optimize(q, &model, &space, &opt);
                fingerprint(&space, &sol)
            })
            .collect();

        for shards in [1usize, 2, 4] {
            let mut session_cfg = SessionConfig::new(opt.clone());
            session_cfg.fault_hook = Some(plan.hook(|_| {}));
            let sessions = ShardedSession::build(shards, &model, &session_cfg, || {
                GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
            });
            let vclock = VirtualClock::new();
            let epsilon = approx.then_some(0.1);
            let mut config = ServiceConfig::new(BatchPolicy::new(
                max_batch,
                Duration::from_micros(max_wait_us),
            ))
            .with_clock(vclock.clock());
            if let Some(eps) = epsilon {
                config = config.with_approx(eps);
            }
            // `serve` returning at all is invariant 2: the drain flush
            // only runs after every worker survived its batches, and
            // the scope join would propagate any uncaught worker panic.
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
            prop_assert_eq!(stats.submitted, trace.len() as u64);
            prop_assert!(
                stats.conserves(),
                "conservation: every query resolves exactly once"
            );
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
            prop_assert_eq!(stats.quarantined, n_poisoned as u64);
            prop_assert_eq!(stats.rejected, 0u64);
            prop_assert_eq!(stats.timed_out, 0u64);
            prop_assert_eq!(stats.queue_depth, 0u64, "nothing left buffered");
            prop_assert!(
                stats.approx_served <= stats.completed,
                "ε-served responses are a subset of completions"
            );
            if epsilon.is_none() {
                prop_assert_eq!(
                    (stats.approx_served, stats.approx_batches),
                    (0u64, 0u64),
                    "no approximation policy, no ε-served responses"
                );
            }
            let restarts: u64 = stats.per_shard.iter().map(|s| s.restarts).sum();
            prop_assert_eq!(
                restarts,
                stats.quarantined,
                "each quarantined query costs exactly its one panicked attempt"
            );
            if n_poisoned == 0 {
                prop_assert_eq!(restarts, 0u64, "no faults, no restarts");
            }
            let mut eps_served = 0u64;
            for (i, ticket) in tickets.into_iter().enumerate() {
                // `wait` resolves exactly once per ticket (invariant 1);
                // a hang here would trip proptest's timeout.
                let resp = ticket.wait();
                if poisoned[i] {
                    prop_assert_eq!(
                        resp.kind(),
                        OutcomeKind::Panicked,
                        "poisoned query {} must be quarantined",
                        i
                    );
                    continue;
                }
                let route = resp.route.expect("healthy responses carry a route");
                prop_assert!(route.shard < shards);
                let served_epsilon = resp.served_epsilon;
                let solution = resp.outcome.ok().expect("healthy query completes");
                let space = sessions.shard(route.shard).space();
                if let Some(e) = served_epsilon {
                    // A deadline-downgraded batch: every attempt in it,
                    // its poisoned members' included, runs at the batch ε.
                    eps_served += 1;
                    prop_assert_eq!(
                        Some(e),
                        epsilon,
                        "ε-served response must carry the policy's ε"
                    );
                    prop_assert!(
                        solution.stats.final_plan_count <= reference[i].final_plans,
                        "ε-discards grew the frontier of healthy query {}",
                        i
                    );
                    for (pi, x) in probes().iter().enumerate() {
                        let approx_costs: Vec<Vec<f64>> = solution
                            .frontier_at(space, x)
                            .into_iter()
                            .map(|(_, c)| c)
                            .collect();
                        prop_assert!(
                            covers(&reference[i].frontiers[pi], &approx_costs, e),
                            "ε={} cover violated for healthy query {} at {:?}",
                            e,
                            i,
                            x
                        );
                    }
                    continue;
                }
                let got = fingerprint(space, &solution);
                prop_assert_eq!(
                    &got,
                    &reference[i],
                    "healthy query {} diverged from one-by-one under faults \
                     ({} shards, rate {}, overlap {})",
                    i,
                    shards,
                    poison_rate,
                    overlap
                );
            }
            prop_assert_eq!(
                eps_served,
                stats.approx_served,
                "stamped ε-served responses must match the service counter"
            );
        }
    }
}

/// A fixed chaos trace replays exactly: eight digest-distinct 4-table
/// chains, about 40% of them poisoned, over 2 shards. The seeded plan
/// poisons some queries and leaves others healthy, and two runs agree on
/// every outcome, on quarantines, worker restarts and batches, on the
/// healthy answers' counters and on LPs, which are actually solved.
#[test]
fn chaos_trace_replays_exactly() {
    silence_injected_panics();
    let trace_cfg = TraceConfig {
        workload: WorkloadConfig::uniform(GeneratorConfig::paper(4, Topology::Chain, 1), 8, 0.0),
        mean_gap: 50e-6,
    };
    let trace = generate_trace(&trace_cfg, &mut StdRng::seed_from_u64(5));
    let plan = Arc::new(FaultPlan::generate(
        &trace,
        &FaultConfig::poison_only(0.4),
        &mut StdRng::seed_from_u64(5 ^ 0x9e37_79b9_7f4a_7c15),
    ));
    let model = CloudCostModel::default();
    let opt = OptimizerConfig {
        threads: Some(1),
        ..OptimizerConfig::default_for(1)
    };
    let run = || {
        let mut session_cfg = SessionConfig::new(opt.clone());
        session_cfg.fault_hook = Some(plan.hook(|_| {}));
        let sessions = ShardedSession::build(2, &model, &session_cfg, || {
            GridSpace::for_unit_box(1, &opt, 2).expect("grid space")
        });
        let vclock = VirtualClock::new();
        let config = ServiceConfig::new(BatchPolicy::new(2, Duration::from_micros(100)))
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
        let outcomes: Vec<_> = tickets
            .into_iter()
            .map(|t| {
                let resp = t.wait();
                let kind = resp.kind();
                let counters = resp
                    .outcome
                    .ok()
                    .map(|s| (s.stats.plans_created, s.stats.final_plan_count));
                (kind, counters)
            })
            .collect();
        let restarts: u64 = stats.per_shard.iter().map(|s| s.restarts).sum();
        let counters = [
            stats.completed,
            stats.quarantined,
            restarts,
            stats.batches,
            stats.lps_solved,
        ];
        (outcomes, counters)
    };
    let (outcomes, counters) = run();
    let [completed, quarantined, restarts, _, lps] = counters;
    assert!(quarantined > 0, "rate 0.4 over 8 queries must poison");
    assert!(completed > 0, "healthy queries must survive");
    assert_eq!(restarts, quarantined, "one restart per quarantined query");
    assert!(lps > 0, "healthy queries must solve LPs");
    assert_eq!(run(), (outcomes, counters), "the chaos run replays exactly");
}
