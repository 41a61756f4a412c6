//! PWL-RRPA on a shared simplicial grid — the default optimizer space.
//!
//! All cost functions of a run are linear on the simplices of one shared
//! [`ParamGrid`] (Theorem 1 of the paper: the parameter space can be
//! partitioned into linear regions for any set of cost functions — here the
//! partition is fixed up front). Consequences:
//!
//! * cost accumulation is per-simplex weight addition ([`GridCost::add`]);
//! * within a simplex, the region where one plan dominates another is the
//!   simplex intersected with at most one halfspace per metric
//!   (Theorem 2), so every relevance-region **cutout is local to one
//!   simplex** and the relevance region factorises into independent
//!   per-simplex regions;
//! * a relevance region is empty iff it is empty within every simplex.
//!
//! The cutout bookkeeping itself — inline halfspace lists sharing the
//! simplex polytope, relevance points stored as probe indices, exact
//! vertex fast paths for the §6.2 refinements with LP fallback only in the
//! ambiguous band, margin-certified interior witnesses that keep emptiness
//! checks free — lives in the shared
//! [`mpq_geometry::region::RegionEngine`]; this space contributes one
//! [`RegionBase`] per simplex (its polytope, vertices, and
//! vertices-plus-centroid probe set) and the loop over simplices.
//!
//! The space is `Sync`: the LP context and the engine's emptiness counters
//! are atomic, so one `GridSpace` can serve every query of a session batch
//! running on several threads at once.
//!
//! # Faces
//!
//! A query with fewer parameters than the space runs in a **face**
//! ([`MpqSpace::face`]): a `GridSpace` over the first `d` axes of the box,
//! built on first use and kept for the space's lifetime, one per lower
//! dimension. A 1-parameter query in a 2-D space then decides 1-D
//! questions on `resolution` intervals instead of on `2·resolution²`
//! triangles. A face keeps the parent's **resolution** (not
//! [`OptimizerConfig::default_for`]'s for `d`): its breakpoints are the
//! parent's grid lines, so every lifted cost interpolates the same vertex
//! values and the run keeps the parent's plan counters. Faces share the
//! parent's LP context and engine switches, so `lp_ctx()`,
//! [`GridSpace::emptiness_counters`] and [`MpqSpace::publish_obs`] count
//! their work too.

use crate::space::MpqSpace;
use crate::OptimizerConfig;
use mpq_cost::{DominanceHalfspaces, GridCost};
use mpq_geometry::grid::{GridError, ParamGrid};
use mpq_geometry::{CutoutRegion, RegionBase, RegionEngine};
use mpq_lp::LpCtx;
use std::sync::{Arc, OnceLock};

/// A relevance region factorised over grid simplices.
#[derive(Debug, Clone)]
pub struct GridRegion {
    per_simplex: Vec<CutoutRegion>,
}

/// The grid-aligned PWL-RRPA space.
pub struct GridSpace {
    grid: Arc<ParamGrid>,
    ctx: Arc<LpCtx>,
    engine: RegionEngine,
    /// One base region per simplex, in simplex-id order.
    bases: Vec<RegionBase>,
    num_metrics: usize,
    /// `faces[d - 1]` is the face over the first `d` axes, for every
    /// `d < dim`, built on first use (see the module docs).
    faces: Vec<OnceLock<GridSpace>>,
}

impl GridSpace {
    /// Builds a space over an existing grid.
    pub fn new(grid: Arc<ParamGrid>, num_metrics: usize, config: &OptimizerConfig) -> Self {
        let engine = RegionEngine::new(
            config.relevance_points,
            config.redundant_cutout_removal,
            config.redundant_constraint_removal,
        );
        Self::with_parts(grid, num_metrics, engine, Arc::new(LpCtx::new()))
    }

    fn with_parts(
        grid: Arc<ParamGrid>,
        num_metrics: usize,
        engine: RegionEngine,
        ctx: Arc<LpCtx>,
    ) -> Self {
        let bases = grid
            .simplices()
            .iter()
            .map(|s| {
                // Probes are the simplex vertices plus the centroid — PWL
                // functions interpolated on the grid are exact at the
                // vertices, and the centroid is interior. The base shares
                // the grid's interned simplex polytope.
                let mut probes = s.vertices.clone();
                probes.push(s.centroid.clone());
                RegionBase::new(
                    Arc::clone(grid.simplex_poly(s.id)),
                    s.vertices.clone(),
                    probes,
                    s.centroid.clone(),
                )
            })
            .collect();
        let faces = (1..grid.dim()).map(|_| OnceLock::new()).collect();
        Self {
            grid,
            ctx,
            engine,
            bases,
            num_metrics,
            faces,
        }
    }

    /// Builds a space over the unit box `[0, 1]^max(num_params, 1)` with
    /// the configured grid resolution (selectivity parameters live in
    /// `[0, 1]`; queries without parameters get one dummy dimension).
    /// Queries with fewer parameters run in its faces, at the same
    /// resolution (see the module docs).
    pub fn for_unit_box(
        num_params: usize,
        config: &OptimizerConfig,
        num_metrics: usize,
    ) -> Result<Self, GridError> {
        let dim = num_params.max(1);
        let grid = ParamGrid::new(&vec![0.0; dim], &vec![1.0; dim], config.grid_resolution)?;
        Ok(Self::new(Arc::new(grid), num_metrics, config))
    }

    /// The shared grid.
    pub fn grid(&self) -> &Arc<ParamGrid> {
        &self.grid
    }

    /// The LP context (counts solved LPs).
    pub fn lp_ctx(&self) -> &Arc<LpCtx> {
        &self.ctx
    }

    /// Emptiness checks executed / skipped via relevance points, in this
    /// space and every face built so far.
    pub fn emptiness_counters(&self) -> (u64, u64) {
        self.faces
            .iter()
            .filter_map(OnceLock::get)
            .map(GridSpace::emptiness_counters)
            .fold(self.engine.emptiness_counters(), |(c, s), (fc, fs)| {
                (c + fc, s + fs)
            })
    }
}

impl MpqSpace for GridSpace {
    type Cost = GridCost;
    type Region = GridRegion;

    fn num_metrics(&self) -> usize {
        self.num_metrics
    }

    fn dim(&self) -> usize {
        self.grid.dim()
    }

    /// The face over the first `max(params, 1)` axes, at this grid's
    /// resolution, sharing its LP context and engine switches.
    fn face(&self, params: usize) -> &Self {
        let d = params.max(1);
        if d >= self.dim() {
            return self;
        }
        self.faces[d - 1].get_or_init(|| {
            let grid = ParamGrid::new(
                &self.grid.lo()[..d],
                &self.grid.hi()[..d],
                self.grid.resolution(),
            )
            .expect("a face of a valid box is a valid box");
            Self::with_parts(
                Arc::new(grid),
                self.num_metrics,
                self.engine.with_same_switches(),
                Arc::clone(&self.ctx),
            )
        })
    }

    fn lift(&self, f: &(dyn Fn(&[f64]) -> Vec<f64> + '_)) -> GridCost {
        GridCost::from_closure(Arc::clone(&self.grid), self.num_metrics, f)
    }

    fn add(&self, a: &GridCost, b: &GridCost) -> GridCost {
        a.add(b)
    }

    fn add3(&self, a: &GridCost, b: &GridCost, c: &GridCost) -> GridCost {
        a.sum3(b, c)
    }

    fn eval(&self, cost: &GridCost, x: &[f64]) -> Vec<f64> {
        cost.eval(x)
    }

    fn full_region(&self) -> GridRegion {
        GridRegion {
            per_simplex: vec![CutoutRegion::Full; self.grid.num_simplices()],
        }
    }

    /// Cutouts are local to one simplex (Theorem 2), so the dominance
    /// region is classified and applied simplex by simplex.
    fn subtract_dominated(
        &self,
        region: &mut GridRegion,
        own: &GridCost,
        competitor: &GridCost,
        strict: bool,
    ) -> bool {
        let mut changed = false;
        for (s, state) in region.per_simplex.iter_mut().enumerate() {
            if state.is_marked_empty() {
                continue;
            }
            match competitor.dominance_halfspaces(own, s, strict) {
                DominanceHalfspaces::Empty => {}
                DominanceHalfspaces::Full => {
                    state.mark_empty();
                    changed = true;
                }
                DominanceHalfspaces::Split(halfspaces) => {
                    self.engine
                        .add_cutout(&self.ctx, &self.bases[s], state, halfspaces, false);
                    changed = true;
                }
            }
        }
        changed
    }

    fn region_is_empty(&self, region: &mut GridRegion) -> bool {
        for s in 0..region.per_simplex.len() {
            if !self
                .engine
                .region_is_empty(&self.ctx, &self.bases[s], &mut region.per_simplex[s])
            {
                return false;
            }
        }
        true
    }

    fn dominates_everywhere(&self, dominator: &GridCost, dominated: &GridCost, band: f64) -> bool {
        // Exact: `dominator − band · dominated` is linear on each simplex,
        // so its sign is decided at the vertices.
        dominator.dominates_everywhere(dominated, band)
    }

    fn region_contains(&self, region: &GridRegion, x: &[f64]) -> bool {
        // Points on shared simplex faces belong to several simplices;
        // membership holds if ANY containing simplex grants it. Cutouts use
        // open (strict) containment so that dominance-boundary points —
        // where the competitor merely ties — stay members.
        let check = |s: usize| region.per_simplex[s].contains(x);
        let located = self.grid.locate(x);
        if check(located) {
            return true;
        }
        (0..self.grid.num_simplices())
            .any(|s| s != located && self.grid.simplex(s).polytope.contains_point(x) && check(s))
    }

    fn publish_obs(&self, registry: &mpq_obs::Registry) {
        self.ctx.publish_to(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_1d() -> GridSpace {
        let config = OptimizerConfig {
            grid_resolution: 4,
            ..OptimizerConfig::default_for(1)
        };
        GridSpace::for_unit_box(1, &config, 2).unwrap()
    }

    /// Figure 7 of the paper: plan 1 (single-node) has time 4σ and fees σ;
    /// plan 2 (parallel) has time σ + 0.75 and fees 2σ + 1. Plan 1 is
    /// better on both metrics for σ < 0.25; plan 2 is faster for σ > 0.25
    /// but always pricier.
    #[test]
    fn figure7_relevance_region_is_quarter_to_one() {
        let space = space_1d();
        let plan1 = space.lift(&|x: &[f64]| vec![4.0 * x[0], x[0]]);
        let plan2 = space.lift(&|x: &[f64]| vec![x[0] + 0.75, 2.0 * x[0] + 1.0]);
        let mut rr2 = space.full_region();
        // Prune plan 2 with plan 1.
        let changed = space.subtract_dominated(&mut rr2, &plan2, &plan1, false);
        assert!(changed);
        assert!(!space.region_is_empty(&mut rr2));
        // Relevance region of plan 2 is [0.25, 1].
        assert!(!space.region_contains(&rr2, &[0.1]));
        assert!(!space.region_contains(&rr2, &[0.2]));
        assert!(space.region_contains(&rr2, &[0.3]));
        assert!(space.region_contains(&rr2, &[0.9]));
        // Plan 1 is never dominated by plan 2 (cheaper fees everywhere).
        let mut rr1 = space.full_region();
        space.subtract_dominated(&mut rr1, &plan1, &plan2, false);
        assert!(space.region_contains(&rr1, &[0.1]));
        assert!(space.region_contains(&rr1, &[0.9]));
    }

    #[test]
    fn equal_costs_empty_the_new_plans_region() {
        let space = space_1d();
        let a = space.lift(&|x: &[f64]| vec![x[0], 1.0]);
        let b = space.lift(&|x: &[f64]| vec![x[0], 1.0]);
        let mut rr = space.full_region();
        space.subtract_dominated(&mut rr, &b, &a, false);
        assert!(
            space.region_is_empty(&mut rr),
            "equal-cost plan must be pruned"
        );
        assert!(space.dominates_everywhere(&a, &b, 1.0));
        assert!(space.dominates_everywhere(&b, &a, 1.0));
    }

    #[test]
    fn strict_subtraction_keeps_identical_costs() {
        // StD semantics: a retained plan is not reduced by an identical
        // newcomer, so one representative of the tie class survives.
        let space = space_1d();
        let a = space.lift(&|x: &[f64]| vec![x[0], 1.0]);
        let b = space.lift(&|x: &[f64]| vec![x[0], 1.0]);
        let mut rr = space.full_region();
        let changed = space.subtract_dominated(&mut rr, &a, &b, true);
        assert!(!changed);
        assert!(!space.region_is_empty(&mut rr));
        assert!(space.region_contains(&rr, &[0.5]));
    }

    #[test]
    fn incomparable_plans_keep_full_regions() {
        let space = space_1d();
        let fast_pricey = space.lift(&|_x: &[f64]| vec![1.0, 10.0]);
        let slow_cheap = space.lift(&|_x: &[f64]| vec![10.0, 1.0]);
        let mut rr = space.full_region();
        let changed = space.subtract_dominated(&mut rr, &fast_pricey, &slow_cheap, false);
        assert!(!changed, "no dominance anywhere");
        assert!(!space.region_is_empty(&mut rr));
        assert!(space.region_contains(&rr, &[0.5]));
    }

    #[test]
    fn two_competitors_can_cover_jointly() {
        // Plan A wins on [0, 0.5], plan B wins on [0.5, 1]; the new plan N
        // is strictly worse than A on the left and worse than B on the
        // right → its RR empties only after BOTH comparisons.
        let space = space_1d();
        let a = space.lift(&|x: &[f64]| vec![x[0], x[0]]);
        let b = space.lift(&|x: &[f64]| vec![1.0 - x[0], 1.0 - x[0]]);
        let n = space.lift(&|_x: &[f64]| vec![0.8, 0.8]);
        let mut rr = space.full_region();
        space.subtract_dominated(&mut rr, &n, &a, false);
        assert!(!space.region_is_empty(&mut rr), "A alone leaves (0.8, 1]");
        space.subtract_dominated(&mut rr, &n, &b, false);
        assert!(space.region_is_empty(&mut rr), "A and B jointly cover X");
    }

    #[test]
    fn tie_boundary_points_stay_relevant() {
        // Two plans crossing at σ = 0.5 with equal cost vectors there: the
        // crossing point must remain in the retained plan's region (open
        // cutout membership), so a relevant dominator exists at the tie.
        let space = space_1d();
        let a = space.lift(&|x: &[f64]| vec![x[0], x[0]]);
        let b = space.lift(&|x: &[f64]| vec![1.0 - x[0], 1.0 - x[0]]);
        let mut rr_a = space.full_region();
        space.subtract_dominated(&mut rr_a, &a, &b, true);
        let mut rr_b = space.full_region();
        space.subtract_dominated(&mut rr_b, &b, &a, false);
        // At the exact crossing, at least one region keeps the point.
        assert!(
            space.region_contains(&rr_a, &[0.5]) || space.region_contains(&rr_b, &[0.5]),
            "tie point lost from both relevance regions"
        );
    }

    #[test]
    fn verified_nonempty_cache_resets_on_new_cutout() {
        let space = space_1d();
        let own = space.lift(&|_x: &[f64]| vec![1.0, 1.0]);
        // Competitor dominating the left half only.
        let left = space.lift(&|x: &[f64]| vec![2.0 * x[0], 2.0 * x[0]]);
        let mut rr = space.full_region();
        space.subtract_dominated(&mut rr, &own, &left, false);
        assert!(!space.region_is_empty(&mut rr));
        let (checks_before, _) = space.emptiness_counters();
        // Repeating the emptiness check must not re-run coverage.
        assert!(!space.region_is_empty(&mut rr));
        let (checks_after, _) = space.emptiness_counters();
        assert_eq!(checks_before, checks_after, "verdict should be cached");
        // A competitor dominating the right half finishes the job.
        let right = space.lift(&|x: &[f64]| vec![2.0 - 2.0 * x[0], 2.0 - 2.0 * x[0]]);
        space.subtract_dominated(&mut rr, &own, &right, false);
        assert!(space.region_is_empty(&mut rr));
    }

    #[test]
    fn relevance_points_skip_checks() {
        let space = space_1d();
        let bad = space.lift(&|x: &[f64]| vec![x[0] + 0.5, 1.0 + x[0]]);
        let partial = space.lift(&|x: &[f64]| vec![0.5, 2.0 - 2.0 * x[0]]);
        let good = space.lift(&|x: &[f64]| vec![x[0], 1.0]);
        let mut rr = space.full_region();
        space.subtract_dominated(&mut rr, &bad, &partial, false);
        let _ = space.region_is_empty(&mut rr);
        let _ = space.subtract_dominated(&mut rr, &bad, &good, false);
        let (_checks, skipped) = space.emptiness_counters();
        assert!(skipped > 0 || space.region_is_empty(&mut rr));
    }

    #[test]
    fn dummy_dimension_for_zero_params() {
        let config = OptimizerConfig::default_for(0);
        let space = GridSpace::for_unit_box(0, &config, 2).unwrap();
        assert_eq!(space.dim(), 1);
        let c = space.lift(&|_x: &[f64]| vec![1.0, 2.0]);
        assert_eq!(space.eval(&c, &[0.5]), vec![1.0, 2.0]);
    }

    #[test]
    fn two_dim_dominance_cutouts() {
        let config = OptimizerConfig::default_for(2);
        let space = GridSpace::for_unit_box(2, &config, 2).unwrap();
        // own is worse than comp exactly where x0 + x1 >= 1 (time) — fees tie.
        let own = space.lift(&|x: &[f64]| vec![x[0] + x[1], 1.0]);
        let comp = space.lift(&|_x: &[f64]| vec![1.0, 1.0]);
        let mut rr = space.full_region();
        space.subtract_dominated(&mut rr, &own, &comp, false);
        assert!(!space.region_is_empty(&mut rr));
        assert!(space.region_contains(&rr, &[0.1, 0.1]));
        assert!(!space.region_contains(&rr, &[0.9, 0.9]));
    }

    #[test]
    fn add3_matches_nested_adds() {
        let space = space_1d();
        let a = space.lift(&|x: &[f64]| vec![x[0], 1.0]);
        let b = space.lift(&|x: &[f64]| vec![2.0 * x[0], 2.0]);
        let c = space.lift(&|x: &[f64]| vec![3.0 - x[0], 0.5]);
        let fused = space.add3(&a, &b, &c);
        let nested = space.add(&space.add(&a, &b), &c);
        for x in [[0.0], [0.33], [1.0]] {
            assert_eq!(space.eval(&fused, &x), space.eval(&nested, &x));
        }
    }
}
