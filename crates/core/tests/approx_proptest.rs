//! Property-based tests for the ε-approximate frontier mode.
//!
//! The approximation contract (`OptimizerConfig::epsilon`): at ε = 0 the
//! banded pruning path is **bit-identical** to the exact optimizer —
//! same counters, same plan ids, same frontier cost vectors — on every
//! backend, batch width and shard count. At ε > 0 the optimizer may
//! collapse near-duplicate plans, but must keep a **(1+ε)-cover**: at
//! every probe point, every cost vector on the exact Pareto frontier is
//! (1+ε)-dominated by some plan of the approximate solution. The
//! approximate frontier is also never larger than the exact one (the
//! banded predicate only removes more).

use mpq_catalog::generator::{generate, generate_workload, GeneratorConfig, WorkloadConfig};
use mpq_catalog::graph::Topology;
use mpq_catalog::Query;
use mpq_cloud::model::CloudCostModel;
use mpq_core::grid_space::GridSpace;
use mpq_core::pwl_space::PwlSpace;
use mpq_core::rrpa::{optimize, MpqSolution};
use mpq_core::sampled::SampledSpace;
use mpq_core::session::{SessionConfig, ShardedSession};
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

/// Per-query facts pinned bit for bit at ε = 0.
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
        frontiers: probes(space.dim())
            .iter()
            .map(|x| sol.frontier_at(space, x))
            .collect(),
    }
}

/// Cover check: every exact-frontier cost vector is (1+ε)-dominated by
/// some approximate plan at the same probe point. A small relative
/// tolerance absorbs LP round-off on the evaluated costs.
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

/// Runs the exact and ε-approximate optimizers on every query of the
/// workload over one backend, asserting the ε = 0 identity, the cover
/// property at each swept ε, and monotone frontier sizes.
fn assert_epsilon_contract<S, F>(
    queries: &[Query],
    config: &OptimizerConfig,
    make: F,
    label: &str,
) -> Result<(), TestCaseError>
where
    S: MpqSpace,
    F: Fn() -> S,
{
    let model = CloudCostModel::default();
    for q in queries {
        let space = make();
        let exact = optimize(q, &model, &space, config);
        let exact_fp = fingerprint(&space, &exact);

        // (a) ε = 0 through the banded entry point is bit-identical.
        let zero_cfg = OptimizerConfig {
            epsilon: 0.0,
            ..config.clone()
        };
        let zero = optimize(q, &model, &space, &zero_cfg);
        prop_assert_eq!(
            &fingerprint(&space, &zero),
            &exact_fp,
            "{} backend: ε=0 must be bit-identical to exact",
            label
        );
        prop_assert_eq!(
            zero.stats.lps_solved_query,
            exact.stats.lps_solved_query,
            "{} backend: ε=0 must solve the exact run's LPs",
            label
        );

        for eps in [1e-3, 1e-2, 1e-1] {
            let approx_cfg = OptimizerConfig {
                epsilon: eps,
                ..config.clone()
            };
            let approx = optimize(q, &model, &space, &approx_cfg);
            // (c) banded pruning only removes more plans.
            prop_assert!(
                approx.stats.final_plan_count <= exact.stats.final_plan_count,
                "{} backend: approx kept {} plans, exact {} (ε={})",
                label,
                approx.stats.final_plan_count,
                exact.stats.final_plan_count,
                eps
            );
            // (b) the cover guarantee at every probe point.
            for x in probes(space.dim()) {
                let exact_front = exact.frontier_at(&space, &x);
                let approx_costs: Vec<Vec<f64>> = approx
                    .frontier_at(&space, &x)
                    .into_iter()
                    .map(|(_, c)| c)
                    .collect();
                prop_assert!(
                    covers(&exact_front, &approx_costs, eps),
                    "{} backend: ε={} cover violated at {:?}\nexact {:?}\napprox {:?}",
                    label,
                    eps,
                    x,
                    exact_front,
                    approx_costs
                );
            }
        }
    }
    Ok(())
}

proptest! {
    // Each case sweeps 3 ε values × 3 backends plus the sharded/threaded
    // grid below; sizes stay small so the pwl piece algebra stays cheap.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn epsilon_cover_holds_everywhere(
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
        prop_assert_eq!(workload.max_params(), params);
        let config = OptimizerConfig {
            grid_resolution: 4,
            ..OptimizerConfig::default_for(params)
        };

        // Grid backend: every case.
        let make_grid = || GridSpace::for_unit_box(params, &config, 2).expect("grid space");
        assert_epsilon_contract(&workload.queries, &config, make_grid, "grid")?;

        // Sampled backend (generic RRPA on a finite lattice): every case.
        let make_sampled = || {
            SampledSpace::lattice(&vec![0.0; params], &vec![1.0; params], 4, 2)
        };
        assert_epsilon_contract(&workload.queries, &config, make_sampled, "sampled")?;

        // Exact pwl backend: the 1-parameter cases, matching the scope of
        // the batch proptest.
        if params == 1 && num_tables <= 3 {
            let make_pwl = || PwlSpace::for_unit_box(params, &config, 2).expect("pwl space");
            assert_epsilon_contract(&workload.queries, &config, make_pwl, "pwl")?;
        }

        // Sharded sessions at ε: batch width × shards {1, 2, 4}. The ε = 0
        // batch must be bit-identical to the exact per-query reference;
        // ε > 0 batches must satisfy the cover and never grow frontiers.
        let model = CloudCostModel::default();
        let reference: Vec<Fingerprint> = workload
            .queries
            .iter()
            .map(|q| {
                let space = make_grid();
                let sol = optimize(q, &model, &space, &config);
                fingerprint(&space, &sol)
            })
            .collect();
        for (threads, shards) in [(1usize, 1usize), (2, 2), (4, 4)] {
            let cfg = OptimizerConfig { threads: Some(threads), ..config.clone() };
            let session_cfg = SessionConfig::new(cfg.clone());
            let sessions = ShardedSession::build(shards, &model, &session_cfg, || {
                GridSpace::for_unit_box(params, &cfg, 2).expect("grid space")
            });
            let zero = sessions.optimize_batch_at(&workload.queries, 0.0);
            for (i, sol) in zero.iter().enumerate() {
                let shard = sessions.shard_of(&workload.queries[i]);
                prop_assert_eq!(
                    &fingerprint(sessions.shard(shard).space(), sol),
                    &reference[i],
                    "sharded ε=0 diverged (query {}, width {}, {} shards)",
                    i, threads, shards
                );
            }
            for eps in [1e-2, 1e-1] {
                let approx = sessions.optimize_batch_at(&workload.queries, eps);
                for (i, sol) in approx.iter().enumerate() {
                    let shard = sessions.shard_of(&workload.queries[i]);
                    let space = sessions.shard(shard).space();
                    prop_assert!(
                        sol.stats.final_plan_count <= reference[i].final_plans,
                        "sharded approx grew the plan set (query {}, ε={})", i, eps
                    );
                    for (pi, x) in probes(space.dim()).iter().enumerate() {
                        let approx_costs: Vec<Vec<f64>> = sol
                            .frontier_at(space, x)
                            .into_iter()
                            .map(|(_, c)| c)
                            .collect();
                        prop_assert!(
                            covers(&reference[i].frontiers[pi], &approx_costs, eps),
                            "sharded ε={} cover violated (query {}, probe {:?})",
                            eps, i, x
                        );
                    }
                }
            }
        }
    }
}

/// On small 2-parameter queries (chain-3/2, seeds 0 and 1, the default
/// grid), ε = 0.1 never grows the frontier and, in the median over the
/// seeds, solves no more LPs than the exact run. The exact runs solve
/// LPs, so the comparison is not 0 against 0.
#[test]
fn epsilon_solves_no_more_lps_than_exact() {
    let config = OptimizerConfig::default_for(2);
    assert_eq!(config.epsilon, 0.0, "exact optimization is the default");
    let model = CloudCostModel::default();
    let run = |seed: u64, epsilon: f64| {
        let query = generate(
            &GeneratorConfig::paper(3, Topology::Chain, 2),
            &mut StdRng::seed_from_u64(seed),
        );
        let space = GridSpace::for_unit_box(2, &config, 2).expect("grid space");
        let cfg = OptimizerConfig {
            epsilon,
            ..config.clone()
        };
        optimize(&query, &model, &space, &cfg).stats
    };
    let (mut exact_lps, mut approx_lps) = (0, 0);
    for seed in 0..2 {
        let (exact, approx) = (run(seed, 0.0), run(seed, 0.1));
        assert!(exact.lps_solved_query > 0, "seed {seed} must solve LPs");
        assert!(
            approx.final_plan_count <= exact.final_plan_count,
            "ε-discards can only shrink the frontier (seed {seed})"
        );
        exact_lps += exact.lps_solved_query;
        approx_lps += approx.lps_solved_query;
    }
    // The median of two seeds is their mean.
    assert!(
        approx_lps <= exact_lps,
        "ε = 0.1 must not solve more LPs than the exact run ({approx_lps} vs {exact_lps})"
    );
}

/// FNV-1a over the frontiers at the fixed probes: per probe its length,
/// then each plan id and the bits of each cost.
fn frontier_digest(frontiers: &[Vec<(mpq_core::plan::PlanId, Vec<f64>)>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for frontier in frontiers {
        mix(frontier.len() as u64);
        for (id, costs) in frontier {
            mix(u64::from(id.0));
            for c in costs {
                mix(c.to_bits());
            }
        }
    }
    h
}

/// `(plans_created, plans_pruned, final plans, lps_solved_query,
/// frontier digest)` of one ε > 0 run.
type Pin = (u64, u64, usize, u64, u64);

fn pin_of<S: MpqSpace>(space: &S, sol: &MpqSolution<S>) -> Pin {
    let fp = fingerprint(space, sol);
    (
        fp.plans_created,
        fp.plans_pruned,
        fp.final_plans,
        sol.stats.lps_solved_query,
        frontier_digest(&fp.frontiers),
    )
}

/// The ε > 0 answers, pinned bit for bit: grid and sampled chain-4/2 and
/// star-4/2 at seeds 0–1, plus a 2-table, 2-parameter query on the
/// general pwl backend, each at ε ∈ {0.01, 0.1}. The cover proptest
/// above checks only the (1+ε) cover and frontier sizes; this pins the
/// counters, the LP count and the frontiers themselves, so a refactor of
/// the banded predicates cannot move an approximate answer unseen.
#[test]
fn epsilon_answers_are_pinned() {
    #[rustfmt::skip]
    const PINS: &[(&str, &str, u64, f64, Pin)] = &[
        ("grid", "chain", 0, 0.01, (298, 220, 30, 4346, 16135524970028124520)),
        ("grid", "chain", 0, 0.1, (274, 204, 27, 3414, 3846451500733818624)),
        ("grid", "chain", 1, 0.01, (222, 166, 29, 3107, 11938439756100898725)),
        ("grid", "chain", 1, 0.1, (214, 164, 24, 2255, 12682678415933722580)),
        ("grid", "star", 0, 0.01, (334, 207, 74, 9348, 5212796951219174783)),
        ("grid", "star", 0, 0.1, (310, 206, 56, 6271, 4547468756370397307)),
        ("grid", "star", 1, 0.01, (390, 298, 26, 7573, 17530212615246607077)),
        ("grid", "star", 1, 0.1, (382, 294, 24, 6760, 9080374454742232255)),
        ("sampled", "chain", 0, 0.01, (226, 183, 9, 0, 14544436439347657447)),
        ("sampled", "chain", 0, 0.1, (218, 178, 8, 0, 16555838934950937988)),
        ("sampled", "chain", 1, 0.01, (190, 152, 15, 0, 15594135900580845524)),
        ("sampled", "chain", 1, 0.1, (190, 151, 16, 0, 10911009251170391010)),
        ("sampled", "star", 0, 0.01, (226, 170, 24, 0, 8968444148154293680)),
        ("sampled", "star", 0, 0.1, (226, 174, 20, 0, 127553075024077624)),
        ("sampled", "star", 1, 0.01, (310, 248, 13, 0, 1461763939219636943)),
        ("sampled", "star", 1, 0.1, (310, 248, 13, 0, 16930815165366487817)),
        ("pwl", "chain", 0, 0.01, (20, 9, 7, 7791, 7615074744099151248)),
        ("pwl", "chain", 0, 0.1, (20, 9, 7, 7791, 7615074744099151248)),
    ];
    let model = CloudCostModel::default();
    let run = |backend: &str, topology: &str, seed: u64, epsilon: f64| -> Pin {
        let (tables, topo) = match (backend, topology) {
            ("pwl", _) => (2, Topology::Chain),
            (_, "star") => (4, Topology::Star),
            _ => (4, Topology::Chain),
        };
        let query = generate(
            &GeneratorConfig::paper(tables, topo, 2),
            &mut StdRng::seed_from_u64(seed),
        );
        let config = OptimizerConfig {
            threads: Some(1),
            epsilon,
            ..OptimizerConfig::default_for(2)
        };
        match backend {
            "grid" => {
                let space = GridSpace::for_unit_box(2, &config, 2).expect("grid space");
                pin_of(&space, &optimize(&query, &model, &space, &config))
            }
            "sampled" => {
                let space = SampledSpace::lattice(&[0.0, 0.0], &[1.0, 1.0], 4, 2);
                pin_of(&space, &optimize(&query, &model, &space, &config))
            }
            _ => {
                let space = PwlSpace::for_unit_box(2, &config, 2).expect("pwl space");
                pin_of(&space, &optimize(&query, &model, &space, &config))
            }
        }
    };
    let actual: Vec<(&str, &str, u64, f64, Pin)> = PINS
        .iter()
        .map(|&(backend, topology, seed, epsilon, _)| {
            let pin = run(backend, topology, seed, epsilon);
            (backend, topology, seed, epsilon, pin)
        })
        .collect();
    let rendered: Vec<String> = actual.iter().map(|row| format!("{row:?},")).collect();
    assert_eq!(
        actual.as_slice(),
        PINS,
        "ε > 0 answers moved; the current rows are:\n{}",
        rendered.join("\n")
    );
}
