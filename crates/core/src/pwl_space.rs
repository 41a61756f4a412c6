//! PWL-RRPA with general piece decompositions — Algorithms 2 and 3
//! verbatim.
//!
//! Costs are [`MultiCostFn`]s whose pieces may partition the parameter
//! space differently per plan; accumulation intersects piece regions
//! (Algorithm 3, `AccumulateCost`), dominance regions come from
//! `Dom` (Algorithm 3), and relevance regions are **globally** tracked as
//! the complement of a cutout list (Figure 8). `IsEmpty` follows
//! Algorithm 2: the region is empty iff the cutout union covers the
//! parameter space — decided by the shared
//! [`mpq_geometry::region::RegionEngine`]'s piecewise coverage check.
//! The paper first tests the cutout union for convexity
//! (Bemporad–Fukuda–Torrisi) and then for containing X; both give the
//! same verdict because dominance cutouts are contained in the parameter
//! space, so the union covers X iff it *equals* X, which is convex.
//!
//! This space is the faithful rendition of the paper's §6 pseudo-code. It
//! is asymptotically slower than [`crate::grid_space::GridSpace`] (piece
//! counts multiply under accumulation and cutouts are global), but it
//! shares the engine's witness points, relevance-point indices, and exact
//! fast paths — and a **probe set cached at construction** (grid vertices
//! plus simplex centroids) backs both `StD` equality testing and the
//! initial relevance points — so the paper's 1-parameter chain and star
//! workloads run end-to-end, giving real grid-vs-exact differential
//! coverage at scale.

use crate::space::MpqSpace;
use crate::OptimizerConfig;
use mpq_cost::{approx, MultiCostFn};
use mpq_geometry::grid::{GridError, ParamGrid};
use mpq_geometry::{Cutout, CutoutRegion, HalfspaceList, Polytope, RegionBase, RegionEngine};
use mpq_lp::LpCtx;
use std::sync::Arc;

/// A relevance region as the complement of a set of convex cutouts
/// (Theorem 4 of the paper), tracked by the shared region engine over the
/// whole parameter box.
#[derive(Debug, Clone)]
pub struct PwlRegion {
    state: CutoutRegion,
}

impl PwlRegion {
    /// The cutouts subtracted so far (halfspaces relative to the parameter
    /// box).
    pub fn cutouts(&self) -> &[Cutout] {
        self.state.cutouts()
    }
}

/// The general PWL-RRPA space (Algorithms 2 and 3).
pub struct PwlSpace {
    grid: Arc<ParamGrid>,
    ctx: Arc<LpCtx>,
    engine: RegionEngine,
    /// The parameter box with its corners and the cached probe set (grid
    /// vertices + simplex centroids), shared by every region.
    base: RegionBase,
    num_metrics: usize,
}

impl PwlSpace {
    /// Builds a space over an existing grid (the grid provides the lifting
    /// triangulation and the probe set; cutouts are global).
    pub fn new(grid: Arc<ParamGrid>, num_metrics: usize, config: &OptimizerConfig) -> Self {
        // Probe set, computed once: PWL functions lifted on the grid are
        // exact at the vertices, and the centroids probe every simplex's
        // interior. Backs `probably_identical` and the initial relevance
        // points of every region.
        let mut probes = grid.vertex_points();
        probes.extend(grid.simplices().iter().map(|s| s.centroid.clone()));
        let corners = mpq_geometry::grid::lattice(grid.lo(), grid.hi(), 2);
        let center: Vec<f64> = grid
            .lo()
            .iter()
            .zip(grid.hi())
            .map(|(l, h)| (l + h) / 2.0)
            .collect();
        let base = RegionBase::new(Arc::new(grid.box_polytope()), corners, probes, center);
        Self {
            grid,
            ctx: Arc::new(LpCtx::new()),
            engine: RegionEngine::new(
                config.relevance_points,
                config.redundant_cutout_removal,
                config.redundant_constraint_removal,
            ),
            base,
            num_metrics,
        }
    }

    /// Space over the unit box `[0, 1]^max(num_params, 1)`.
    pub fn for_unit_box(
        num_params: usize,
        config: &OptimizerConfig,
        num_metrics: usize,
    ) -> Result<Self, GridError> {
        let dim = num_params.max(1);
        let grid = ParamGrid::new(&vec![0.0; dim], &vec![1.0; dim], config.grid_resolution)?;
        Ok(Self::new(Arc::new(grid), num_metrics, config))
    }

    /// The LP context (counts solved LPs).
    pub fn lp_ctx(&self) -> &Arc<LpCtx> {
        &self.ctx
    }

    /// Emptiness checks executed / skipped via relevance points.
    pub fn emptiness_counters(&self) -> (u64, u64) {
        self.engine.emptiness_counters()
    }

    /// Probe-set equality test backing strict (`StD`) subtraction, over
    /// the probe set cached at construction.
    fn probably_identical(&self, a: &MultiCostFn, b: &MultiCostFn) -> bool {
        self.base
            .probes()
            .iter()
            .all(|p| match (a.eval(p), b.eval(p)) {
                (Some(va), Some(vb)) => va
                    .iter()
                    .zip(&vb)
                    .all(|(x, y)| (x - y).abs() <= 1e-9 + 1e-12 * x.abs().max(y.abs())),
                _ => false,
            })
    }

    /// Adds each dominance polytope to `state` as a cutout (Figure 10),
    /// with the §6.2 refinements applied by the shared engine, until the
    /// region is marked empty.
    fn add_cutouts(&self, state: &mut CutoutRegion, dom: Vec<Polytope>) {
        for poly in dom {
            if state.is_marked_empty() {
                break;
            }
            let halfspaces: HalfspaceList = poly.halfspaces().iter().cloned().collect();
            if halfspaces.is_empty() {
                // An unconstrained dominance polytope covers the whole
                // parameter space.
                state.mark_empty();
                break;
            }
            // Algorithm 3 already verified the polytope has interior, so
            // the engine skips its emptiness precheck.
            self.engine
                .add_cutout(&self.ctx, &self.base, state, halfspaces, true);
        }
    }
}

impl MpqSpace for PwlSpace {
    type Cost = MultiCostFn;
    type Region = PwlRegion;

    fn num_metrics(&self) -> usize {
        self.num_metrics
    }

    fn dim(&self) -> usize {
        self.grid.dim()
    }

    fn lift(&self, f: &(dyn Fn(&[f64]) -> Vec<f64> + '_)) -> MultiCostFn {
        approx::multi_from_closure(&self.grid, self.num_metrics, f)
    }

    fn add(&self, a: &MultiCostFn, b: &MultiCostFn) -> MultiCostFn {
        a.add(b, &self.ctx)
    }

    fn eval(&self, cost: &MultiCostFn, x: &[f64]) -> Vec<f64> {
        cost.eval(x)
            .expect("evaluation point must lie inside the parameter space")
    }

    fn full_region(&self) -> PwlRegion {
        PwlRegion {
            state: CutoutRegion::Full,
        }
    }

    /// `SubtractPolys` of Algorithm 2: dominance polytopes are added as
    /// cutouts (Figure 10), with the §6.2 refinements applied by the
    /// shared engine.
    fn subtract_dominated(
        &self,
        region: &mut PwlRegion,
        own: &MultiCostFn,
        competitor: &MultiCostFn,
        strict: bool,
    ) -> bool {
        if region.state.is_marked_empty() {
            return false;
        }
        // StD semantics for retained plans: if the two functions agree on
        // the probe set (grid vertices and simplex centroids), treat them
        // as identical and keep the retained plan's region untouched.
        // Conservative (may keep a few extra plans) but sound.
        if strict && self.probably_identical(own, competitor) {
            return false;
        }
        let dom = competitor.dominance_regions(own, &self.ctx);
        if dom.is_empty() {
            return false;
        }
        self.add_cutouts(&mut region.state, dom);
        true
    }

    /// Answers `false` at every band, which is always sound: exact runs
    /// leave whole-space dominance to region subtraction, and at band
    /// `1 + ε` skipping the whole-plan discard keeps the exact frontier,
    /// itself a valid `(1+ε)`-cover. A banded coverage check per retained
    /// plan would cost LPs for that discard: on the pinned pwl chain-2/2
    /// query it raised LPs by half and discarded nothing.
    fn dominates_everywhere(&self, _: &MultiCostFn, _: &MultiCostFn, _band: f64) -> bool {
        false
    }

    /// `IsEmpty` of Algorithm 2: the region is empty iff the union of its
    /// cutouts covers the parameter space (see the module docs for why the
    /// engine's coverage check gives the paper's verdict). Relevance points, margin-certified witnesses and
    /// cached verdicts keep repeat checks free.
    fn region_is_empty(&self, region: &mut PwlRegion) -> bool {
        self.engine
            .region_is_empty(&self.ctx, &self.base, &mut region.state)
    }

    fn region_contains(&self, region: &PwlRegion, x: &[f64]) -> bool {
        // Cutouts are open for membership: dominance-boundary points (ties)
        // remain members.
        region.state.contains(x)
    }

    fn publish_obs(&self, registry: &mpq_obs::Registry) {
        self.ctx.publish_to(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_1d() -> PwlSpace {
        let config = OptimizerConfig {
            grid_resolution: 4,
            ..OptimizerConfig::default_for(1)
        };
        PwlSpace::for_unit_box(1, &config, 2).unwrap()
    }

    #[test]
    fn figure7_pruning_on_general_representation() {
        let space = space_1d();
        let plan1 = space.lift(&|x: &[f64]| vec![4.0 * x[0], x[0]]);
        let plan2 = space.lift(&|x: &[f64]| vec![x[0] + 0.75, 2.0 * x[0] + 1.0]);
        let mut rr2 = space.full_region();
        assert!(space.subtract_dominated(&mut rr2, &plan2, &plan1, false));
        assert!(!space.region_is_empty(&mut rr2));
        assert!(!space.region_contains(&rr2, &[0.1]));
        assert!(space.region_contains(&rr2, &[0.5]));
    }

    #[test]
    fn emptiness_via_joint_coverage() {
        let space = space_1d();
        // Two competitors covering [0, 0.6] and [0.5, 1] respectively.
        let own = space.lift(&|_x: &[f64]| vec![1.0, 1.0]);
        let left = space.lift(&|x: &[f64]| {
            // Dominates own exactly on x ≤ 0.6.
            let v = if x[0] <= 0.6 { 0.5 } else { 2.0 };
            vec![v, v]
        });
        let right = space.lift(&|x: &[f64]| {
            let v = if x[0] >= 0.5 { 0.5 } else { 2.0 };
            vec![v, v]
        });
        // NOTE: the closures are step functions; lifting interpolates them
        // on the grid, so the exact switch point moves to a grid cell
        // boundary — which is fine for this test: jointly the two still
        // cover the whole interval.
        let mut rr = space.full_region();
        space.subtract_dominated(&mut rr, &own, &left, false);
        assert!(!space.region_is_empty(&mut rr));
        space.subtract_dominated(&mut rr, &own, &right, false);
        assert!(space.region_is_empty(&mut rr), "cutouts jointly cover X");
    }

    #[test]
    fn equal_costs_prune_new_plan() {
        let space = space_1d();
        let a = space.lift(&|x: &[f64]| vec![x[0] + 1.0, 2.0]);
        let b = space.lift(&|x: &[f64]| vec![x[0] + 1.0, 2.0]);
        let mut rr = space.full_region();
        space.subtract_dominated(&mut rr, &b, &a, false);
        assert!(space.region_is_empty(&mut rr));
    }

    #[test]
    fn strict_subtraction_keeps_identical_costs() {
        let space = space_1d();
        let a = space.lift(&|x: &[f64]| vec![x[0] + 1.0, 2.0]);
        let b = space.lift(&|x: &[f64]| vec![x[0] + 1.0, 2.0]);
        let mut rr = space.full_region();
        assert!(!space.subtract_dominated(&mut rr, &a, &b, true));
        assert!(!space.region_is_empty(&mut rr));
        assert!(space.region_contains(&rr, &[0.5]));
    }

    #[test]
    fn add_matches_pointwise_sum() {
        let space = space_1d();
        let a = space.lift(&|x: &[f64]| vec![x[0], 1.0]);
        let b = space.lift(&|x: &[f64]| vec![2.0 * x[0], 3.0]);
        let s = space.add(&a, &b);
        for x in [0.0, 0.25, 0.6, 1.0] {
            let v = space.eval(&s, &[x]);
            assert!((v[0] - 3.0 * x).abs() < 1e-9);
            assert!((v[1] - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn repeated_emptiness_checks_are_cached() {
        let space = space_1d();
        let own = space.lift(&|_x: &[f64]| vec![1.0, 1.0]);
        let left = space.lift(&|x: &[f64]| vec![2.0 * x[0], 2.0 * x[0]]);
        let mut rr = space.full_region();
        space.subtract_dominated(&mut rr, &own, &left, false);
        assert!(!space.region_is_empty(&mut rr));
        let (checks_before, _) = space.emptiness_counters();
        assert!(!space.region_is_empty(&mut rr));
        let (checks_after, skipped) = space.emptiness_counters();
        assert_eq!(checks_before, checks_after, "verdict should be cached");
        assert!(skipped > 0);
    }
}
