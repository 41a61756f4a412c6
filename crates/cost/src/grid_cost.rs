//! Grid-aligned multi-objective cost functions.
//!
//! [`GridCost`] is the cost representation used by the optimizer's default
//! PWL space. Every cost function of a run is linear on the *same* shared
//! simplices (one [`mpq_geometry::grid::ParamGrid`]), which realises
//! Theorem 1 of the paper — the parameter space is partitioned into linear
//! regions for the whole plan set — with three payoffs:
//!
//! * **accumulation is LP-free**: adding two functions adds their weight
//!   vectors per simplex (Figure 11 degenerates to aligned regions);
//! * **piece counts never grow**: the sum of two `GridCost`s has exactly
//!   one linear piece per simplex;
//! * **dominance geometry is local**: within a simplex, the region where
//!   one plan dominates another is the simplex intersected with one
//!   halfspace per metric (Theorem 2), and because a linear function on a
//!   simplex attains its extrema at the vertices, many dominance questions
//!   are answered exactly by comparing vertex values — no LP at all.
//!
//! # Storage
//!
//! All pieces of all metrics live in **one flat `f64` buffer** laid out as
//! `[metric][simplex][w₀ … w_{d−1}, b]`. Cost accumulation — executed once
//! or twice per candidate plan of the RRPA dynamic program — is a single
//! fused loop over that buffer and performs exactly one allocation (the
//! result buffer); no per-piece or per-metric vectors exist. Dominance
//! classification materialises per-simplex differences in a stack-allocated
//! [`SmallVec`], so the candidate-pruning hot path does not allocate until
//! an actual split halfspace must be produced.

use crate::{approx, CostVec, LinearFn};
use mpq_geometry::grid::ParamGrid;
use mpq_geometry::{Halfspace, HalfspaceKind};
use mpq_lp::dense::dot;
use smallvec::SmallVec;
use std::sync::Arc;

/// Comparison tolerance for cost values: absolute floor plus a relative
/// component, since costs range from fractions of a second to days.
#[inline]
pub fn cost_le(a: f64, b: f64) -> bool {
    a <= b + 1e-9 + 1e-12 * a.abs().max(b.abs())
}

/// How one plan's metric compares to `band` times another's within one
/// simplex ([`GridCost::classify_metric`]).
#[derive(Debug, Clone)]
pub enum MetricOnSimplex {
    /// `self ≤ band · other` on the whole simplex (all vertex
    /// differences ≤ 0).
    AlwaysLe,
    /// `self > band · other` on the whole simplex (all vertex differences
    /// > 0): the dominance region is empty for this metric.
    NeverLe,
    /// The comparison flips across the hyperplane carried here
    /// (`{x : self(x) ≤ band · other(x)}` within the simplex).
    Split(Halfspace),
}

/// Inline halfspace list for per-simplex dominance constraints — the
/// shared region engine's cutout representation ([`mpq_geometry::region`]),
/// re-exported so dominance classification hands its halfspaces to the
/// engine without conversion.
pub use mpq_geometry::HalfspaceList;

/// Result of intersecting dominance constraints over all metrics within a
/// simplex: the dominance region is the simplex intersected with the
/// carried halfspaces. Storing only the halfspaces lets relevance regions
/// share the simplex polytope across all cutouts of a simplex, which makes
/// redundancy tests O(#metrics) LPs instead of O(#simplex constraints).
#[derive(Debug, Clone)]
pub enum DominanceHalfspaces {
    /// Dominates on the entire simplex.
    Full,
    /// Dominates nowhere on the simplex.
    Empty,
    /// Dominates on `simplex ∩ halfspaces` (one halfspace per split
    /// metric; may have empty interior when several metrics split).
    Split(HalfspaceList),
}

/// A multi-objective cost function linear on each simplex of a shared grid.
#[derive(Debug, Clone)]
pub struct GridCost {
    grid: Arc<ParamGrid>,
    num_metrics: usize,
    /// Flat piece table `[metric][simplex][w₀ … w_{d−1}, b]`.
    data: Vec<f64>,
}

impl GridCost {
    /// Entries per piece: the weight vector plus the base cost.
    #[inline]
    fn stride(&self) -> usize {
        self.grid.dim() + 1
    }

    /// Offset of piece `(metric, simplex)` in the flat table.
    #[inline]
    fn offset(&self, metric: usize, simplex: usize) -> usize {
        (metric * self.grid.num_simplices() + simplex) * self.stride()
    }

    /// The `[w₀ … w_{d−1}, b]` slice of one piece.
    #[inline]
    fn piece_slice(&self, metric: usize, simplex: usize) -> &[f64] {
        let o = self.offset(metric, simplex);
        &self.data[o..o + self.stride()]
    }

    /// Builds a cost function from per-metric, per-simplex linear pieces.
    ///
    /// # Panics
    /// Panics if the shape does not match the grid or no metric is given.
    pub fn new(grid: Arc<ParamGrid>, metrics: Vec<Vec<LinearFn>>) -> Self {
        assert!(!metrics.is_empty(), "at least one cost metric is required");
        assert!(metrics.iter().all(|m| m.len() == grid.num_simplices()));
        let dim = grid.dim();
        let mut data = Vec::with_capacity(metrics.len() * grid.num_simplices() * (dim + 1));
        for per_simplex in &metrics {
            for f in per_simplex {
                debug_assert_eq!(f.dim(), dim);
                data.extend_from_slice(&f.w);
                data.push(f.b);
            }
        }
        Self {
            grid,
            num_metrics: metrics.len(),
            data,
        }
    }

    /// Approximates the vector-valued closure `f` on the grid (exact at
    /// grid vertices; see [`crate::approx`]). The closure is evaluated
    /// once per distinct vertex for all metrics.
    pub fn from_closure(
        grid: Arc<ParamGrid>,
        num_metrics: usize,
        f: impl Fn(&[f64]) -> CostVec,
    ) -> Self {
        let metrics = approx::approximate_vector(&grid, num_metrics, f);
        Self::new(grid, metrics)
    }

    /// Number of metrics.
    pub fn num_metrics(&self) -> usize {
        self.num_metrics
    }

    /// The linear function of `metric` on `simplex` (materialised from the
    /// flat piece table; intended for display and interop, not hot paths).
    pub fn piece(&self, metric: usize, simplex: usize) -> LinearFn {
        let s = self.piece_slice(metric, simplex);
        let (w, b) = s.split_at(self.grid.dim());
        LinearFn::new(w.to_vec(), b[0])
    }

    /// Evaluates piece `(metric, simplex)` at `x`.
    #[inline]
    fn eval_piece(&self, metric: usize, simplex: usize, x: &[f64]) -> f64 {
        let s = self.piece_slice(metric, simplex);
        let (w, b) = s.split_at(self.grid.dim());
        b[0] + dot(w, x)
    }

    /// Evaluates all metrics at `x` (clamped into the grid box).
    pub fn eval(&self, x: &[f64]) -> CostVec {
        let s = self.grid.locate(x);
        (0..self.num_metrics)
            .map(|m| self.eval_piece(m, s, x))
            .collect()
    }

    fn assert_compatible(&self, other: &GridCost) {
        assert!(
            Arc::ptr_eq(&self.grid, &other.grid),
            "GridCost operands must share one ParamGrid"
        );
        assert_eq!(self.num_metrics, other.num_metrics);
    }

    /// Metric-wise, simplex-wise sum — the LP-free accumulation step.
    /// One fused pass over the flat piece tables; a single allocation.
    ///
    /// # Panics
    /// Panics if the operands use different grids or metric counts.
    pub fn add(&self, other: &GridCost) -> GridCost {
        self.assert_compatible(other);
        GridCost {
            grid: Arc::clone(&self.grid),
            num_metrics: self.num_metrics,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Fused three-way sum `(self + other) + third`: one pass, one
    /// allocation — the per-candidate accumulation of RRPA (left sub-plan
    /// + right sub-plan + join operator) without the intermediate sum.
    ///
    /// Floating-point association order matches `self.add(other).add(third)`.
    pub fn sum3(&self, other: &GridCost, third: &GridCost) -> GridCost {
        self.assert_compatible(other);
        self.assert_compatible(third);
        GridCost {
            grid: Arc::clone(&self.grid),
            num_metrics: self.num_metrics,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .zip(&third.data)
                .map(|((a, b), c)| (a + b) + c)
                .collect(),
        }
    }

    /// Classifies where `self ≤ band · other` holds for metric `metric` on
    /// one simplex, by comparing vertex values (exact — the difference
    /// `self − band · other` is linear on the simplex, so it attains its
    /// extrema at vertices). `band = 1` is exact dominance, `band = 1 + ε`
    /// its (1+ε) relaxation; multiplying by `1.0` is exact in IEEE-754,
    /// so band 1 yields the unscaled difference bit for bit.
    pub fn classify_metric(
        &self,
        other: &GridCost,
        metric: usize,
        simplex: usize,
        band: f64,
    ) -> MetricOnSimplex {
        let dim = self.grid.dim();
        let mine = self.piece_slice(metric, simplex);
        let theirs = other.piece_slice(metric, simplex);
        // The difference piece `d = mine − band · theirs`, evaluated
        // term-fused — identical float association to materialising `dw`
        // and dotting.
        let db = mine[dim] - band * theirs[dim];
        let d_eval = |v: &[f64]| {
            db + mine[..dim]
                .iter()
                .zip(&theirs[..dim])
                .zip(v)
                .map(|((a, b), x)| (a - band * b) * x)
                .sum::<f64>()
        };
        let verts = &self.grid.simplex(simplex).vertices;
        let mut any_le = false;
        let mut any_gt = false;
        for v in verts {
            if cost_le(d_eval(v), 0.0) {
                any_le = true;
            } else {
                any_gt = true;
            }
        }
        match (any_le, any_gt) {
            (true, false) => MetricOnSimplex::AlwaysLe,
            (false, _) => MetricOnSimplex::NeverLe,
            (true, true) => {
                // d(x) ≤ 0  ⇔  dw · x ≤ −db. The weight difference is only
                // materialised for this (rare) split case.
                let dw: SmallVec<[f64; 8]> = mine[..dim]
                    .iter()
                    .zip(&theirs[..dim])
                    .map(|(a, b)| a - band * b)
                    .collect();
                match Halfspace::new(&dw[..], -db) {
                    HalfspaceKind::Proper(h) => MetricOnSimplex::Split(h),
                    // Degenerate cases are covered by the vertex test above.
                    HalfspaceKind::AlwaysTrue => MetricOnSimplex::AlwaysLe,
                    HalfspaceKind::AlwaysFalse => MetricOnSimplex::NeverLe,
                }
            }
        }
    }

    /// True iff `self` and `other` are (numerically) the same function on
    /// the simplex — equal per metric at every vertex, hence everywhere on
    /// the simplex by linearity.
    pub fn identical_on_simplex(&self, other: &GridCost, simplex: usize) -> bool {
        let verts = &self.grid.simplex(simplex).vertices;
        (0..self.num_metrics).all(|m| {
            verts.iter().all(|v| {
                let (a, b) = (
                    self.eval_piece(m, simplex, v),
                    other.eval_piece(m, simplex, v),
                );
                cost_le(a, b) && cost_le(b, a)
            })
        })
    }

    /// The halfspaces confining the region within one simplex where `self`
    /// dominates `other` (at-most-equal on **every** metric).
    ///
    /// With `strict`, simplices on which the two functions are identical
    /// report [`DominanceHalfspaces::Empty`]: strict dominance `StD`
    /// excludes equal-cost points (paper Section 2), and RRPA reduces
    /// *retained* plans' regions strictly so that one representative of
    /// every tie class stays relevant.
    pub fn dominance_halfspaces(
        &self,
        other: &GridCost,
        simplex: usize,
        strict: bool,
    ) -> DominanceHalfspaces {
        if strict && self.identical_on_simplex(other, simplex) {
            return DominanceHalfspaces::Empty;
        }
        let mut halfspaces = HalfspaceList::new();
        for m in 0..self.num_metrics {
            match self.classify_metric(other, m, simplex, 1.0) {
                MetricOnSimplex::NeverLe => return DominanceHalfspaces::Empty,
                MetricOnSimplex::AlwaysLe => {}
                MetricOnSimplex::Split(h) => halfspaces.push(h),
            }
        }
        if halfspaces.is_empty() {
            DominanceHalfspaces::Full
        } else {
            DominanceHalfspaces::Split(halfspaces)
        }
    }

    /// True iff `self ≤ band · other` over the entire parameter space —
    /// per metric at every simplex vertex. Exact and LP-free; `band = 1`
    /// is exact dominance (see [`GridCost::classify_metric`]).
    pub fn dominates_everywhere(&self, other: &GridCost, band: f64) -> bool {
        (0..self.num_metrics).all(|m| {
            (0..self.grid.num_simplices()).all(|s| {
                matches!(
                    self.classify_metric(other, m, s, band),
                    MetricOnSimplex::AlwaysLe
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid1d(res: usize) -> Arc<ParamGrid> {
        Arc::new(ParamGrid::new(&[0.0], &[1.0], res).unwrap())
    }

    #[test]
    fn closure_roundtrip_and_add() {
        let grid = grid1d(4);
        let a = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![x[0], 1.0]);
        let b = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![1.0 - x[0], 2.0]);
        let s = a.add(&b);
        let v = s.eval(&[0.3]);
        assert!((v[0] - 1.0).abs() < 1e-9);
        assert!((v[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sum3_matches_chained_adds() {
        let grid = grid1d(3);
        let a = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![x[0], 1.0]);
        let b = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![2.0 * x[0], 0.5]);
        let c = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![1.0 - x[0], 3.0]);
        let fused = a.sum3(&b, &c);
        let chained = a.add(&b).add(&c);
        assert_eq!(fused.data, chained.data, "identical association order");
    }

    #[test]
    fn dominates_everywhere_vertex_exactness() {
        let grid = grid1d(4);
        let cheap = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![x[0], 1.0]);
        let pricey = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![x[0] + 0.5, 1.0]);
        assert!(cheap.dominates_everywhere(&pricey, 1.0));
        assert!(!pricey.dominates_everywhere(&cheap, 1.0));
        // Equal functions dominate each other (non-strictly).
        assert!(cheap.dominates_everywhere(&cheap.clone(), 1.0));
    }

    #[test]
    fn classify_metric_detects_split() {
        let grid = grid1d(1); // single simplex [0, 1]
        let a = GridCost::from_closure(Arc::clone(&grid), 1, |x| vec![x[0]]);
        let b = GridCost::from_closure(Arc::clone(&grid), 1, |_| vec![0.25]);
        match a.classify_metric(&b, 0, 0, 1.0) {
            MetricOnSimplex::Split(h) => {
                // a ≤ b exactly on [0, 0.25].
                assert!(h.contains(&[0.1]));
                assert!(!h.contains(&[0.5]));
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn dominance_halfspaces_cases() {
        let grid = grid1d(1);
        // time: a = σ vs b = 0.25; fees: a = 1 vs b = 2.
        let a = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![x[0], 1.0]);
        let b = GridCost::from_closure(Arc::clone(&grid), 2, |_| vec![0.25, 2.0]);
        match a.dominance_halfspaces(&b, 0, false) {
            DominanceHalfspaces::Split(hs) => {
                let p = grid.simplex(0).polytope.clone();
                let region = hs.into_iter().fold(p, |r, h| r.with(h));
                assert!(region.contains_point(&[0.2]));
                assert!(!region.contains_point(&[0.3]));
            }
            other => panic!("expected split, got {other:?}"),
        }
        // Reverse direction: b never beats a on fees → empty.
        assert!(matches!(
            b.dominance_halfspaces(&a, 0, false),
            DominanceHalfspaces::Empty
        ));
        // A strictly better plan dominates fully.
        let best = GridCost::from_closure(Arc::clone(&grid), 2, |_| vec![0.0, 0.0]);
        assert!(matches!(
            best.dominance_halfspaces(&a, 0, false),
            DominanceHalfspaces::Full
        ));
    }

    #[test]
    fn banded_dominance_collapses_near_duplicates() {
        let grid = grid1d(4);
        let a = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![x[0] + 1.0, 1.0]);
        // b sits within 5% above a everywhere: a band-dominates it at
        // ε = 0.1 but not exactly and not at ε = 0.01.
        let b = GridCost::from_closure(Arc::clone(&grid), 2, |x| vec![(x[0] + 1.0) * 1.05, 1.05]);
        assert!(!b.dominates_everywhere(&a, 1.0));
        assert!(b.dominates_everywhere(&a, 1.1));
        assert!(!b.dominates_everywhere(&a, 1.01));
        // The band widens the split: where f = σ meets g = 0.25, the
        // boundary of f ≤ band · g moves right.
        let grid1 = grid1d(1);
        let f = GridCost::from_closure(Arc::clone(&grid1), 1, |x| vec![x[0]]);
        let g = GridCost::from_closure(Arc::clone(&grid1), 1, |_| vec![0.25]);
        match f.classify_metric(&g, 0, 0, 1.2) {
            MetricOnSimplex::Split(h) => {
                // f ≤ 1.2·g exactly on [0, 0.3].
                assert!(h.contains(&[0.29]));
                assert!(!h.contains(&[0.31]));
            }
            other => panic!("expected split, got {other:?}"),
        }
    }

    #[test]
    fn piece_roundtrips_through_flat_storage() {
        let grid = grid1d(2);
        let f = GridCost::new(
            Arc::clone(&grid),
            vec![vec![
                LinearFn::new(vec![1.5], 0.5),
                LinearFn::new(vec![-2.0], 3.0),
            ]],
        );
        assert_eq!(f.piece(0, 0), LinearFn::new(vec![1.5], 0.5));
        assert_eq!(f.piece(0, 1), LinearFn::new(vec![-2.0], 3.0));
    }

    #[test]
    #[should_panic(expected = "share one ParamGrid")]
    fn adding_across_grids_panics() {
        let a = GridCost::from_closure(grid1d(2), 1, |_| vec![0.0]);
        let b = GridCost::from_closure(grid1d(2), 1, |_| vec![0.0]);
        let _ = a.add(&b);
    }
}
