//! Property-based determinism tests for batched multi-query optimization.
//!
//! An `OptimizerSession` batch run shares a space and its caches across
//! queries that run concurrently, one query per thread, but must be
//! **bit-identical** to optimizing every query one by one: per-query
//! `plans_created` / `plans_pruned` / `final_plans` counters, retained
//! plan ids and exact frontier cost vectors — for every random workload
//! (topology, overlap ratio, batch size, seed), every batch width, and
//! both PWL space backends. Without the subtree cache, each query's own
//! LP count matches too, even while its batchmates solve LPs on the same
//! space from other threads.

use mpq_catalog::generator::{generate_workload, GeneratorConfig, WorkloadConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::pwl_space::PwlSpace;
use mpq_core::rrpa::{optimize, MpqSolution};
use mpq_core::session::{OptimizerSession, SessionConfig};
use mpq_core::space::MpqSpace;
use mpq_core::OptimizerConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic probe points for frontier comparison.
fn probes(dim: usize) -> Vec<Vec<f64>> {
    [0.0, 0.15, 0.5, 0.85, 1.0]
        .iter()
        .map(|&v| vec![v; dim])
        .collect()
}

/// Per-query facts that must match bit for bit between a batched and a
/// sequential run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    plans_created: u64,
    plans_pruned: u64,
    final_plans: usize,
    /// Exact frontier (plan ids and cost vectors) at every probe point.
    frontiers: Vec<Vec<(mpq_core::plan::PlanId, Vec<f64>)>>,
}

fn fingerprint<S: MpqSpace>(space: &S, sol: &MpqSolution<S>) -> Fingerprint {
    Fingerprint {
        plans_created: sol.stats.plans_created,
        plans_pruned: sol.stats.plans_pruned,
        final_plans: sol.stats.final_plan_count,
        frontiers: probes(space.dim())
            .iter()
            .map(|x| sol.frontier_at(space, x))
            .collect(),
    }
}

/// Sequential reference: every query optimized alone, no cache, fresh
/// space per query. Returns each query's fingerprint and LP count.
fn sequential_reference<S, F>(
    queries: &[Query],
    config: &OptimizerConfig,
    make: F,
) -> (Vec<Fingerprint>, Vec<u64>)
where
    S: MpqSpace,
    F: Fn() -> S,
{
    let model = CloudCostModel::default();
    queries
        .iter()
        .map(|q| {
            let space = make();
            let sol = optimize(q, &model, &space, config);
            (fingerprint(&space, &sol), sol.stats.lps_solved_query)
        })
        .unzip()
}

/// Batched runs at several batch widths, each compared against the
/// reference.
fn assert_batched_matches<S, F>(
    queries: &[Query],
    config: &OptimizerConfig,
    make: F,
    (reference, reference_lps): &(Vec<Fingerprint>, Vec<u64>),
    label: &str,
) -> Result<(), TestCaseError>
where
    S: MpqSpace + Sync,
    S::Cost: Send + Sync,
    S::Region: Send + Sync,
    F: Fn() -> S,
{
    let model = CloudCostModel::default();
    for threads in [1usize, 2, 4] {
        let mut cfg = config.clone();
        cfg.threads = Some(threads);
        // Lift cache only: with no subtree replay every query solves its
        // own LPs, so its count must equal the fresh-space count, and the
        // batch's counts must add up to the shared space's delta.
        let session = OptimizerSession::with_config(
            make(),
            &model,
            SessionConfig::new(cfg).without_subtree_cache(),
        );
        let solutions = session.optimize_batch(queries);
        prop_assert_eq!(solutions.len(), queries.len());
        for (i, sol) in solutions.iter().enumerate() {
            let got = fingerprint(session.space(), sol);
            prop_assert_eq!(
                &got,
                &reference[i],
                "{} backend diverged from sequential (query {}, width {})",
                label,
                i,
                threads
            );
            prop_assert_eq!(
                sol.stats.lps_solved_query,
                reference_lps[i],
                "{} backend: query {} LP count at width {}",
                label,
                i,
                threads
            );
        }
        // The deterministic cache contract: every distinct shape misses
        // exactly once, regardless of the batch width.
        let stats = session.cache_stats();
        prop_assert_eq!(
            stats.misses,
            session.cached_shapes() as u64,
            "cache misses must equal distinct shapes"
        );

        // Shared-subplan memoization is *pure*: at every capacity —
        // unbounded, small enough to evict, and the pass-through zero —
        // the per-query counters and probed frontiers stay bit-identical
        // to the sequential reference.
        for capacity in [None, Some(2), Some(0)] {
            let cfg = SessionConfig::new({
                let mut c = config.clone();
                c.threads = Some(threads);
                c
            })
            .with_subtree_cache(capacity);
            let session = OptimizerSession::with_config(make(), &model, cfg);
            let solutions = session.optimize_batch(queries);
            prop_assert_eq!(solutions.len(), queries.len());
            for (i, sol) in solutions.iter().enumerate() {
                let got = fingerprint(session.space(), sol);
                prop_assert_eq!(
                    &got,
                    &reference[i],
                    "{} backend diverged under subtree cache {:?} (query {}, width {})",
                    label,
                    capacity,
                    i,
                    threads
                );
            }
            let subtree = session.subtree_cache_stats();
            match capacity {
                // Unbounded: the once-cell residency makes miss totals
                // deterministic at any batch width.
                None => prop_assert_eq!(
                    subtree.misses,
                    session.cached_subtrees() as u64,
                    "subtree misses must equal distinct subtree keys"
                ),
                // Zero capacity passes every lookup through.
                Some(0) => {
                    prop_assert_eq!(subtree.hits, 0);
                    prop_assert_eq!(session.cached_subtrees(), 0);
                }
                // Bounded: eviction totals depend on interleaving; only
                // the bit-purity above is contractual.
                Some(_) => {}
            }
        }
    }
    Ok(())
}

proptest! {
    // Each case runs 3 sequential + 3×3 batched optimizations per
    // backend; sizes stay small so the exact pwl backend remains cheap.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn batched_equals_sequential_everywhere(
        num_tables in 2usize..=4,
        topo in 0usize..=2,
        params in 1usize..=2,
        batch in 2usize..=3,
        overlap_idx in 0usize..=2,
        seed in 0u64..1000,
    ) {
        let overlap = [0.0, 0.5, 1.0][overlap_idx];
        let params = params.min(num_tables);
        let gen_cfg = GeneratorConfig::paper(num_tables, Topology::Chain, params);
        let wcfg = match topo {
            0 => WorkloadConfig::uniform(gen_cfg, batch, overlap),
            1 => WorkloadConfig::uniform(
                GeneratorConfig { topology: Topology::Star, ..gen_cfg },
                batch,
                overlap,
            ),
            _ => WorkloadConfig::mixed(gen_cfg, batch, overlap),
        };
        let workload = generate_workload(&wcfg, &mut StdRng::seed_from_u64(seed));
        // The session space must cover every query's parameters.
        prop_assert_eq!(workload.max_params(), params);
        let config = OptimizerConfig {
            grid_resolution: 4,
            ..OptimizerConfig::default_for(params)
        };

        // Grid backend: every case.
        let make_grid = || GridSpace::for_unit_box(params, &config, 2).expect("grid space");
        let reference = sequential_reference(&workload.queries, &config, make_grid);
        assert_batched_matches(&workload.queries, &config, make_grid, &reference, "grid")?;

        // Exact pwl backend: the 1-parameter cases (its piece algebra is
        // the costly one; the backend itself is 1-param-sized, matching
        // the benchmark matrix).
        if params == 1 && num_tables <= 3 {
            let make_pwl = || PwlSpace::for_unit_box(params, &config, 2).expect("pwl space");
            let reference = sequential_reference(&workload.queries, &config, make_pwl);
            assert_batched_matches(&workload.queries, &config, make_pwl, &reference, "pwl")?;
        }
    }
}

/// A fixed overlapping batch: three copies of one 2-parameter query
/// (chain-3/2, seed 0, the default grid). The cached and uncached batches
/// both match one-by-one runs on every counter, per-query LPs included,
/// and every query solves LPs, so the LP equalities cannot
/// hold at 0 = 0. The copies must actually share: the lift cache hits,
/// and an unbounded subtree cache replays whole subtrees without evicting
/// and without changing any answer.
#[test]
fn overlapping_batch_shares_work_with_one_by_one_counters() {
    let wcfg = WorkloadConfig::uniform(GeneratorConfig::paper(3, Topology::Chain, 2), 3, 1.0);
    let queries = generate_workload(&wcfg, &mut StdRng::seed_from_u64(0)).queries;
    let config = OptimizerConfig::default_for(2);
    let model = CloudCostModel::default();
    let make = || GridSpace::for_unit_box(2, &config, 2).expect("grid space");
    let (reference, reference_lps) = sequential_reference(&queries, &config, make);
    assert!(
        reference_lps.iter().all(|&lps| lps > 0),
        "every query must solve LPs: {reference_lps:?}"
    );
    for cached in [true, false] {
        let session_cfg = SessionConfig {
            cached,
            ..SessionConfig::new(config.clone())
        }
        .without_subtree_cache();
        let session = OptimizerSession::with_config(make(), &model, session_cfg);
        let solutions = session.optimize_batch(&queries);
        for (i, sol) in solutions.iter().enumerate() {
            assert_eq!(
                fingerprint(session.space(), sol),
                reference[i],
                "query {i} (cached: {cached})"
            );
            assert_eq!(
                sol.stats.lps_solved_query, reference_lps[i],
                "query {i} LPs (cached: {cached})"
            );
        }
        let stats = session.cache_stats();
        assert_eq!(stats.hits > 0, cached, "only the cached batch hits lifts");
    }

    let session = OptimizerSession::with_config(
        make(),
        &model,
        SessionConfig::new(config.clone()).with_subtree_cache(None),
    );
    let solutions = session.optimize_batch(&queries);
    for (i, sol) in solutions.iter().enumerate() {
        assert_eq!(fingerprint(session.space(), sol), reference[i], "query {i}");
    }
    let subtree = session.subtree_cache_stats();
    assert!(subtree.hits > 0, "copies must replay whole subtrees");
    assert_eq!(subtree.evictions, 0, "an unbounded cache never evicts");
}
