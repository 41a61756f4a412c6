//! Observability gating: obs-off is the hot path, obs-on only watches.
//!
//! Three pins:
//!
//! - **Bit-identity**: optimizing the same query with no handle
//!   installed, with [`Obs::off`] installed, and with a live handle
//!   installed yields identical plan counters and LP counts — spans and
//!   registry mirrors only *read* the optimizer's counters, never
//!   perturb them.
//! - **Replayability**: under a deterministic clock, two identical runs
//!   produce byte-identical span trees and registry snapshots (the
//!   single-process half of the replay contract; the networked half
//!   lives in `mpq-net`'s replay proptest).
//! - **Additivity**: spaces sharing one registry add into its LP
//!   counters instead of overwriting each other.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpq_catalog::generator::{generate, GeneratorConfig};
use mpq_catalog::graph::Topology;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::rrpa::optimize;
use mpq_core::OptimizerConfig;
use mpq_lp::FastPathSite;
use mpq_obs::Obs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic clock: each read advances 100 µs.
fn ticking() -> Obs {
    let t = AtomicU64::new(0);
    Obs::with_clock(Arc::new(move || t.fetch_add(100, Ordering::Relaxed)))
}

fn counters_of(
    query: &mpq_catalog::Query,
    config: &OptimizerConfig,
    obs: Option<&Obs>,
) -> (u64, u64, u64, usize) {
    let _guard = obs.map(mpq_obs::install);
    let model = CloudCostModel::default();
    let space = GridSpace::for_unit_box(query.num_params, config, 2).expect("grid space");
    let sol = optimize(query, &model, &space, config);
    (
        sol.stats.plans_created,
        sol.stats.plans_pruned,
        sol.stats.lps_solved_query,
        sol.stats.final_plan_count,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Plan and LP counters are bit-identical with obs off, obs
    /// explicitly off, and obs on.
    #[test]
    fn obs_on_off_is_bit_identical(
        num_tables in 2usize..=4,
        star in 0usize..=1,
        seed in 0u64..1000,
    ) {
        let topology = if star == 1 { Topology::Star } else { Topology::Chain };
        let query = generate(
            &GeneratorConfig::paper(num_tables, topology, 1),
            &mut StdRng::seed_from_u64(seed),
        );
        let config = OptimizerConfig {
            grid_resolution: 4,
            ..OptimizerConfig::default_for(1)
        };
        let bare = counters_of(&query, &config, None);
        let off = counters_of(&query, &config, Some(&Obs::off()));
        let on_handle = ticking();
        let on = counters_of(&query, &config, Some(&on_handle));
        prop_assert_eq!(bare, off, "installing Obs::off changes nothing");
        prop_assert_eq!(bare, on, "a live handle only watches");
        // And the live handle actually watched: one optimize span per
        // run, one dp_level span per DP level, counters mirrored.
        let spans = on_handle.spans();
        prop_assert_eq!(spans.iter().filter(|s| s.name == "optimize").count(), 1);
        prop_assert_eq!(
            spans.iter().filter(|s| s.name == "dp_level").count(),
            num_tables,
            "one dp_level span per cardinality 1..=n"
        );
        let registry = on_handle.registry().expect("enabled handle");
        prop_assert_eq!(registry.counter("optimize_runs").get(), 1);
        prop_assert_eq!(registry.counter("optimize_plans_created").get(), bare.0);
        prop_assert_eq!(registry.counter("optimize_lps_solved").get(), bare.2);
        // Per-level plan and LP deltas sum to the run totals.
        let level_sum = |field: &str| -> u64 {
            spans
                .iter()
                .filter(|s| s.name == "dp_level")
                .flat_map(|s| &s.fields)
                .filter(|(k, _)| *k == field)
                .map(|(_, v)| v)
                .sum()
        };
        prop_assert_eq!(level_sum("plans_delta"), bare.0, "level deltas sum to the total");
        prop_assert_eq!(level_sum("lps_delta"), bare.2, "level LP deltas sum to the total");
    }
}

/// Under a deterministic clock, the whole observability output is a pure
/// function of the trace: two replays render byte-identical span trees
/// and registry snapshots.
#[test]
fn replayed_run_renders_byte_identical_observability() {
    let run = || {
        let query = generate(
            &GeneratorConfig::paper(3, Topology::Chain, 1),
            &mut StdRng::seed_from_u64(7),
        );
        let config = OptimizerConfig {
            grid_resolution: 4,
            ..OptimizerConfig::default_for(1)
        };
        let obs = ticking();
        let _guard = mpq_obs::install(&obs);
        let model = CloudCostModel::default();
        let space = GridSpace::for_unit_box(1, &config, 2).expect("grid space");
        let _ = optimize(&query, &model, &space, &config);
        let registry = obs.registry().expect("enabled handle");
        (
            obs.span_tree(),
            registry.snapshot_jsonl(),
            registry.expose(),
        )
    };
    let (tree_a, jsonl_a, text_a) = run();
    let (tree_b, jsonl_b, text_b) = run();
    assert!(!tree_a.is_empty() && !jsonl_a.is_empty());
    assert_eq!(tree_a, tree_b, "span tree replays byte-identically");
    assert_eq!(jsonl_a, jsonl_b, "snapshot replays byte-identically");
    assert_eq!(text_a, text_b, "exposition replays byte-identically");
    // The LP count and its fast-path attribution made it into the
    // registry.
    assert!(jsonl_a.contains("\"name\":\"optimize_lps_solved\""));
    assert!(jsonl_a.contains("\"name\":\"lp_fastpath_coverage_fast\""));
}

/// Spaces sharing one registry add up: two `GridSpace`s, one query each,
/// under one installed handle. Every `lp_fastpath_*` counter equals the
/// sum of the two spaces' breakdowns, and `optimize_lps_solved` the sum
/// of the two runs' LP counts.
#[test]
fn spaces_sharing_a_registry_add_up() {
    let config = OptimizerConfig::default_for(1);
    let model = CloudCostModel::default();
    let obs = ticking();
    let _guard = mpq_obs::install(&obs);
    let mut fast = [0u64; FastPathSite::ALL.len()];
    let mut lp = [0u64; FastPathSite::ALL.len()];
    let mut lps = 0;
    for seed in [1, 2] {
        let query = generate(
            &GeneratorConfig::paper(4, Topology::Chain, 1),
            &mut StdRng::seed_from_u64(seed),
        );
        let space = GridSpace::for_unit_box(1, &config, 2).expect("grid space");
        let solution = optimize(&query, &model, &space, &config);
        let breakdown = space.lp_ctx().fastpath_breakdown();
        assert!(
            breakdown.total_fast() + breakdown.lp.iter().sum::<u64>() > 0,
            "seed {seed}"
        );
        for i in 0..FastPathSite::ALL.len() {
            fast[i] += breakdown.fast[i];
            lp[i] += breakdown.lp[i];
        }
        lps += solution.stats.lps_solved_query;
    }
    let registry = obs.registry().expect("enabled handle");
    for site in FastPathSite::ALL {
        let i = site as usize;
        let counter = |kind: &str| {
            let name = format!("lp_fastpath_{}_{kind}", site.name());
            registry.counter(&name).get()
        };
        assert_eq!(counter("fast"), fast[i], "{site:?} fast");
        assert_eq!(counter("lp"), lp[i], "{site:?} lp");
    }
    assert_eq!(registry.counter("optimize_lps_solved").get(), lps);
}
