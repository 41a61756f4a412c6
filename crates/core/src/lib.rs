//! Multi-Objective Parametric Query Optimization — the core algorithms of
//! Trummer & Koch, VLDB 2014.
//!
//! # The MPQ problem
//!
//! Classical query optimization assigns each plan one scalar cost.
//! **Multi-objective** optimization (MQ) compares plans by cost *vectors*
//! (time, fees, precision, …); **parametric** optimization (PQ) models cost
//! as a *function* of parameters unknown until run time (selectivities,
//! buffer sizes). MPQ unifies both: the cost of a plan is a vector-valued
//! function `c(p) : X → Rᵐ`, and the optimizer must return a **Pareto plan
//! set** (PPS) — for every possible plan `p` and every parameter vector
//! `x`, the set contains a plan that dominates `p` at `x`.
//!
//! # The algorithms
//!
//! [`rrpa::optimize`] implements the **Relevance Region Pruning Algorithm**
//! (Algorithm 1 of the paper): dynamic programming over table sets of
//! increasing cardinality, where every partial plan carries a *relevance
//! region* (RR) — the part of the parameter space where no known
//! alternative dominates it. Comparisons shrink RRs; plans whose RR empties
//! are discarded. The paper proves (Theorem 3) that this retains a complete
//! PPS; this crate's `validate` module re-checks completeness empirically
//! against baselines.
//!
//! The algorithm is generic over an [`space::MpqSpace`] — the
//! representation of costs and regions:
//!
//! * [`grid_space::GridSpace`] — **PWL-RRPA** with every cost function
//!   aligned on one shared simplicial grid; relevance regions are tracked
//!   per simplex. The default for experiments.
//! * [`pwl_space::PwlSpace`] — PWL-RRPA with general piece decompositions
//!   and globally tracked cutouts, following Algorithms 2 and 3 verbatim
//!   (`IsEmpty` as a coverage check of the cutout union).
//! * [`sampled::SampledSpace`] — the *generic* RRPA of Section 5 for
//!   arbitrary (e.g. non-linear) cost functions, exact on a finite sample
//!   of the parameter space.
//!
//! # Workloads
//!
//! [`session::OptimizerSession`] optimizes *batches* of queries through
//! shared state — one parameter grid, a cross-query cost-lifting cache
//! keyed on canonical operator cost shapes, and a batch fan-out that runs
//! one query per thread and returns results in submission order. Batched
//! results are bit-identical to one-by-one optimization.
//!
//! # Baselines
//!
//! [`baselines::mq`] is a fixed-parameter multi-objective DP (the
//! run-time-optimization comparator), [`baselines::pq`] a single-metric
//! parametric optimizer, and [`baselines::exhaustive`] a full plan
//! enumerator used as ground truth on small queries.
//!
//! # Quick start
//!
//! ```
//! use mpq_core::prelude::*;
//! use mpq_catalog::generator::{generate, GeneratorConfig};
//! use mpq_catalog::graph::Topology;
//! use mpq_cloud::model::CloudCostModel;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let cfg = GeneratorConfig::paper(3, Topology::Chain, 1);
//! let query = generate(&cfg, &mut StdRng::seed_from_u64(1));
//! let model = CloudCostModel::default();
//! let config = OptimizerConfig::default_for(query.num_params);
//! let space = GridSpace::for_unit_box(query.num_params, &config, model.num_metrics()).unwrap();
//! let solution = optimize(&query, &model, &space, &config);
//! assert!(!solution.plans.is_empty());
//! ```

pub mod baselines;
pub mod grid_space;
pub mod pareto;
pub mod plan;
pub mod pwl_space;
pub mod rrpa;
pub mod sampled;
pub mod session;
pub mod space;
pub mod stats;
pub mod validate;

/// Commonly used items.
pub mod prelude {
    pub use crate::grid_space::GridSpace;
    pub use crate::plan::{PlanArena, PlanId, PlanNode};
    pub use crate::pwl_space::PwlSpace;
    pub use crate::rrpa::{optimize, MpqSolution, ParetoPlan};
    pub use crate::sampled::SampledSpace;
    pub use crate::session::{OptimizerSession, SessionConfig, ShardedSession};
    pub use crate::space::MpqSpace;
    pub use crate::stats::OptStats;
    pub use crate::OptimizerConfig;
    pub use mpq_cloud::model::ParametricCostModel;
}

/// Tuning knobs of the optimizer, including the three §6.2 refinements the
/// paper reports as "significant performance improvements" (each can be
/// disabled for the ablation benchmarks).
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Cells per axis of the shared parameter grid (PWL approximation
    /// resolution).
    pub grid_resolution: usize,
    /// §6.2 refinement 3: keep a list of relevance points per region and
    /// skip emptiness checks while any point survives.
    pub relevance_points: bool,
    /// §6.2 refinement 2: drop cutouts covered by another cutout.
    pub redundant_cutout_removal: bool,
    /// §6.2 refinement 1: remove redundant linear constraints from cutout
    /// polytopes.
    pub redundant_constraint_removal: bool,
    /// §6.3-style fast path: discard a plan without geometry when a
    /// competitor dominates it at every grid vertex (exact for grid costs).
    pub pvi_fastpath: bool,
    /// Postpone Cartesian products (only join table sets connected by a
    /// join predicate), as in the paper's experiments and Postgres.
    pub postpone_cartesian: bool,
    /// Width of a [`session::OptimizerSession`]'s batch fan-out: how many
    /// of a batch's queries run at once, one query per thread. `Some(1)`
    /// runs a batch on the caller, `None` uses the rayon default
    /// (`RAYON_NUM_THREADS` or the machine's parallelism). One query
    /// always runs on one thread ([`rrpa::optimize`] ignores this field),
    /// and results are identical for every value.
    pub threads: Option<usize>,
    /// Approximation factor of the ε-approximate frontier mode: during
    /// pruning a **new** plan is discarded outright when some retained
    /// plan `(1+ε)`-band dominates it everywhere, collapsing
    /// near-duplicate plans early (arXiv 1404.0046's coarsened
    /// dominance, applied inside the DP at `(1+ε)^(1/n)` per level).
    /// Region subtraction stays exact, so every exact-frontier plan stays
    /// (1+ε)-dominated by some kept plan — the cover guarantee. `0.0`
    /// (the default) runs the same dominance tests at band 1.0, which is
    /// exact dominance bit for bit: multiplying by `1.0` is exact in
    /// IEEE-754.
    pub epsilon: f64,
}

impl OptimizerConfig {
    /// Defaults tuned per parameter count: finer grids are affordable in
    /// low dimension (`resolution^dim · dim!` simplices).
    pub fn default_for(num_params: usize) -> Self {
        let grid_resolution = match num_params {
            0 | 1 => 8,
            2 => 4,
            3 => 2,
            _ => 2,
        };
        Self {
            grid_resolution,
            relevance_points: true,
            redundant_cutout_removal: true,
            redundant_constraint_removal: true,
            pvi_fastpath: true,
            postpone_cartesian: true,
            threads: None,
            epsilon: 0.0,
        }
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self::default_for(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_scale_with_dimension() {
        assert!(
            OptimizerConfig::default_for(1).grid_resolution
                > OptimizerConfig::default_for(3).grid_resolution
        );
        let c = OptimizerConfig::default();
        assert!(c.relevance_points && c.pvi_fastpath && c.postpone_cartesian);
    }
}
