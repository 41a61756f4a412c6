//! Vector-valued (multi-objective) PWL cost functions and the dominance
//! region computation of Algorithm 3.

use crate::{CostVec, PwlFn};
use mpq_geometry::{Halfspace, HalfspaceKind, Polytope};
use mpq_lp::{FastPathSite, LpCtx};
use smallvec::SmallVec;

/// A multi-objective PWL cost function: one [`PwlFn`] per cost metric
/// (the `comps` relationship of Figure 9 in the paper).
#[derive(Debug, Clone)]
pub struct MultiCostFn {
    metrics: Vec<PwlFn>,
}

impl MultiCostFn {
    /// Builds a cost function from per-metric components.
    ///
    /// # Panics
    /// Panics if `metrics` is empty or the components disagree on dimension.
    pub fn new(metrics: Vec<PwlFn>) -> Self {
        assert!(!metrics.is_empty(), "at least one cost metric is required");
        let dim = metrics[0].dim();
        assert!(metrics.iter().all(|m| m.dim() == dim));
        Self { metrics }
    }

    /// Number of cost metrics.
    pub fn num_metrics(&self) -> usize {
        self.metrics.len()
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.metrics[0].dim()
    }

    /// Evaluates all metrics at `x`; `None` outside some component's domain.
    pub fn eval(&self, x: &[f64]) -> Option<CostVec> {
        self.metrics.iter().map(|m| m.eval(x)).collect()
    }

    /// Metric-wise sum (cost accumulation for sequential execution).
    pub fn add(&self, other: &MultiCostFn, ctx: &LpCtx) -> MultiCostFn {
        debug_assert_eq!(self.num_metrics(), other.num_metrics());
        MultiCostFn {
            metrics: self
                .metrics
                .iter()
                .zip(&other.metrics)
                .map(|(a, b)| a.add(b, ctx))
                .collect(),
        }
    }

    /// The dominance region `Dom(self, other)`: a set of convex polytopes
    /// covering exactly the points where `self ≤ other` according to
    /// **every** metric (Algorithm 3, function `Dom`).
    ///
    /// Per metric, each pair of linear pieces contributes the polytope
    /// `reg₁ ∩ reg₂ ∩ {(w₁ − w₂) · x ≤ b₂ − b₁}`; the per-metric
    /// polytope sets are then intersected combinatorially (line 56 of
    /// Algorithm 3). Empty-interior members are dropped throughout.
    ///
    /// Emptiness pruning is borrow-based (constraints are staged into the
    /// LP directly, nothing is materialised for pairs that die) and takes
    /// the exact one-dimensional fast path
    /// ([`Polytope::intersection_is_empty`]) first, so grid-aligned piece
    /// decompositions — where almost every cross pair is empty — prune
    /// without solving LPs.
    pub fn dominance_regions(&self, other: &MultiCostFn, ctx: &LpCtx) -> Vec<Polytope> {
        debug_assert_eq!(self.num_metrics(), other.num_metrics());
        let dim = self.dim();
        let mut per_metric: Vec<Vec<Polytope>> = Vec::with_capacity(self.num_metrics());
        for (mine, theirs) in self.metrics.iter().zip(&other.metrics) {
            let mut polys = Vec::new();
            for p1 in mine.pieces() {
                for p2 in theirs.pieces() {
                    if p1
                        .region
                        .intersection_is_empty(ctx, &p2.region, FastPathSite::PieceAlgebra)
                    {
                        continue;
                    }
                    // The difference `f₁ − f₂`, in one pass and on the
                    // stack.
                    let dw: SmallVec<[f64; 8]> =
                        p1.f.w.iter().zip(&p2.f.w).map(|(a, b)| a - b).collect();
                    let db = p1.f.b - p2.f.b;
                    match Halfspace::new(&dw[..], -db) {
                        HalfspaceKind::AlwaysTrue => {
                            polys.push(p1.region.intersect_dedup(&p2.region))
                        }
                        HalfspaceKind::AlwaysFalse => {}
                        HalfspaceKind::Proper(h) => {
                            let r = p1.region.intersect_dedup(&p2.region);
                            if !r.is_empty_with_fastpath(
                                ctx,
                                std::slice::from_ref(&h),
                                FastPathSite::PieceAlgebra,
                            ) {
                                polys.push(r.with(h));
                            }
                        }
                    }
                }
            }
            if polys.is_empty() {
                // Some metric is never at-most-equal: no dominance anywhere.
                return Vec::new();
            }
            per_metric.push(polys);
        }
        // Combinatorial intersection across metrics (Algorithm 3, line 56).
        let mut acc: Vec<Polytope> = vec![Polytope::full(dim)];
        for polys in &per_metric {
            let mut next = Vec::with_capacity(acc.len() * polys.len());
            for a in &acc {
                for p in polys {
                    if !a.intersection_is_empty(ctx, p, FastPathSite::PieceAlgebra) {
                        next.push(a.intersect_dedup(p));
                    }
                }
            }
            if next.is_empty() {
                return Vec::new();
            }
            acc = next;
        }
        acc.into_iter().map(|p| p.remove_redundant(ctx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearFn, LinearPiece};

    fn interval(lo: f64, hi: f64) -> Polytope {
        Polytope::from_box(&[lo], &[hi])
    }

    fn lin(region: Polytope, w: Vec<f64>, b: f64) -> PwlFn {
        PwlFn::from_linear(region, LinearFn::new(w, b))
    }

    /// Example 2 of the paper: c(p1) = (2, 3), c(p2) = (0.5 + σ, 2) on
    /// σ ∈ [0, 1].
    fn example2() -> (MultiCostFn, MultiCostFn) {
        let x = interval(0.0, 1.0);
        let p1 = MultiCostFn::new(vec![
            lin(x.clone(), vec![0.0], 2.0),
            lin(x.clone(), vec![0.0], 3.0),
        ]);
        let p2 = MultiCostFn::new(vec![lin(x.clone(), vec![1.0], 0.5), lin(x, vec![0.0], 2.0)]);
        (p1, p2)
    }

    #[test]
    fn example2_dominance_matches_paper() {
        let ctx = LpCtx::new();
        let (p1, p2) = example2();
        // p2 dominates p1 exactly where 0.5 + σ ≤ 2 (always) and 2 ≤ 3
        // (always): the entire parameter space... no — dominance requires
        // *both* metrics at most equal: time 0.5+σ ≤ 2 ⇔ σ ≤ 1.5, true on
        // [0,1]; fees 2 ≤ 3 always. So Dom(p2, p1) = [0, 1].
        let dom = p2.dominance_regions(&p1, &ctx);
        assert!(mpq_geometry::difference_is_empty(
            &ctx,
            &interval(0.0, 1.0),
            &dom
        ));
        // p1 dominates p2 where 2 ≤ 0.5 + σ ⇔ σ ≥ 1.5: nowhere on [0,1],
        // and 3 ≤ 2 never holds, so Dom(p1, p2) is empty.
        let dom_rev = p1.dominance_regions(&p2, &ctx);
        assert!(dom_rev.is_empty());
    }

    #[test]
    fn dominance_region_halfline() {
        let ctx = LpCtx::new();
        let x = interval(0.0, 1.0);
        // time: a = σ vs b = 0.25 → a better for σ ≤ 0.25;
        // fees: a = 1 vs b = 2 → a always better.
        let a = MultiCostFn::new(vec![
            lin(x.clone(), vec![1.0], 0.0),
            lin(x.clone(), vec![0.0], 1.0),
        ]);
        let b = MultiCostFn::new(vec![
            lin(x.clone(), vec![0.0], 0.25),
            lin(x, vec![0.0], 2.0),
        ]);
        let dom = a.dominance_regions(&b, &ctx);
        assert_eq!(dom.len(), 1);
        // The region is [0, 0.25]: membership probes on both sides of
        // each end.
        for (x, inside) in [
            (-0.01, false),
            (0.0, true),
            (0.1, true),
            (0.25, true),
            (0.26, false),
        ] {
            assert_eq!(dom[0].contains_point(&[x]), inside, "at {x}");
        }
        // Pointwise agreement.
        let dominates_at =
            |x: f64| crate::dominates(&a.eval(&[x]).unwrap(), &b.eval(&[x]).unwrap(), 1e-9);
        assert!(dominates_at(0.1));
        assert!(!dominates_at(0.5));
    }

    #[test]
    fn dominance_with_pwl_pieces() {
        let ctx = LpCtx::new();
        // f: pieces σ on [0, .5], 1 − σ on [.5, 1] (tent); g: constant 0.4.
        let f = MultiCostFn::new(vec![PwlFn::new(
            1,
            vec![
                LinearPiece {
                    region: std::sync::Arc::new(interval(0.0, 0.5)),
                    f: LinearFn::new(vec![1.0], 0.0),
                },
                LinearPiece {
                    region: std::sync::Arc::new(interval(0.5, 1.0)),
                    f: LinearFn::new(vec![-1.0], 1.0),
                },
            ],
        )]);
        let g = MultiCostFn::new(vec![lin(interval(0.0, 1.0), vec![0.0], 0.4)]);
        // f ≤ g on [0, 0.4] ∪ [0.6, 1].
        let dom = f.dominance_regions(&g, &ctx);
        let expect_left = interval(0.0, 0.4);
        let expect_right = interval(0.6, 1.0);
        assert!(mpq_geometry::difference_is_empty(&ctx, &expect_left, &dom));
        assert!(mpq_geometry::difference_is_empty(&ctx, &expect_right, &dom));
        // And nothing in the middle.
        for p in &dom {
            assert!(!p.contains_point(&[0.5]));
        }
    }

    #[test]
    fn add_accumulates_metric_wise() {
        let ctx = LpCtx::new();
        let x = interval(0.0, 1.0);
        let a = MultiCostFn::new(vec![
            lin(x.clone(), vec![1.0], 0.0),
            lin(x.clone(), vec![0.0], 1.0),
        ]);
        let b = MultiCostFn::new(vec![lin(x.clone(), vec![0.0], 2.0), lin(x, vec![2.0], 0.0)]);
        let s = a.add(&b, &ctx);
        let v = s.eval(&[0.5]).unwrap();
        assert!((v[0] - 2.5).abs() < 1e-9);
        assert!((v[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_dim_dominance_region_is_box_corner() {
        // Figure 5 of the paper: plan 1 has cost (x1, x2), plan 2 has cost
        // (1, 1): plan 1 dominates exactly on [0,1]².
        let ctx = LpCtx::new();
        let square = Polytope::from_box(&[0.0, 0.0], &[2.0, 2.0]);
        let p1 = MultiCostFn::new(vec![
            lin(square.clone(), vec![1.0, 0.0], 0.0),
            lin(square.clone(), vec![0.0, 1.0], 0.0),
        ]);
        let p2 = MultiCostFn::new(vec![
            lin(square.clone(), vec![0.0, 0.0], 1.0),
            lin(square, vec![0.0, 0.0], 1.0),
        ]);
        let dom = p1.dominance_regions(&p2, &ctx);
        let unit = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(mpq_geometry::difference_is_empty(&ctx, &unit, &dom));
        for p in &dom {
            assert!(mpq_geometry::difference_is_empty(
                &ctx,
                p,
                std::slice::from_ref(&unit)
            ));
        }
    }
}
