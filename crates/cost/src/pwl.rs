//! General piecewise-linear functions over polytope pieces.

use crate::LinearFn;
use mpq_geometry::Polytope;
use mpq_lp::{FastPathSite, LpCtx};
use std::sync::Arc;

/// One linear piece: a linear function together with the convex polytope on
/// which it applies (the `reg`/`w`/`b` triple of Figure 9 in the paper).
///
/// The region sits behind an `Arc`: pieces lifted on a shared grid all
/// point at the grid's interned simplex polytopes, and the piece algebra
/// keeps that sharing alive — intersecting two pieces whose regions are
/// the *same* `Arc` (the dominant case for aligned decompositions) just
/// bumps the reference count instead of cloning constraint lists.
#[derive(Debug, Clone)]
pub struct LinearPiece {
    /// The convex region on which `f` applies.
    pub region: Arc<Polytope>,
    /// The linear function on that region.
    pub f: LinearFn,
}

/// The intersection of two piece regions, preserving `Arc` sharing:
/// identical `Arc`s short-circuit to a reference-count bump (content-wise
/// exactly what [`Polytope::intersect_dedup`] would return, since every
/// constraint of the other operand is a duplicate).
fn shared_intersect(a: &Arc<Polytope>, b: &Arc<Polytope>) -> Arc<Polytope> {
    if Arc::ptr_eq(a, b) {
        Arc::clone(a)
    } else {
        Arc::new(a.intersect_dedup(b))
    }
}

/// A piecewise-linear function: linear on convex polytopes whose interiors
/// partition its domain.
///
/// Pieces may describe discontinuous functions (the paper explicitly allows
/// discontinuities between linear regions); evaluation on a shared boundary
/// picks the first containing piece.
#[derive(Debug, Clone)]
pub struct PwlFn {
    dim: usize,
    pieces: Vec<LinearPiece>,
}

impl PwlFn {
    /// A function made of explicit pieces.
    pub fn new(dim: usize, pieces: Vec<LinearPiece>) -> Self {
        debug_assert!(pieces
            .iter()
            .all(|p| p.region.dim() == dim && p.f.dim() == dim));
        Self { dim, pieces }
    }

    /// A single-piece (linear) function on `region`.
    pub fn from_linear(region: Polytope, f: LinearFn) -> Self {
        let dim = region.dim();
        Self::new(
            dim,
            vec![LinearPiece {
                region: Arc::new(region),
                f,
            }],
        )
    }

    /// Number of parameters.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The linear pieces.
    pub fn pieces(&self) -> &[LinearPiece] {
        &self.pieces
    }

    /// Evaluates at `x`: the value of the first piece whose region contains
    /// `x`, or `None` outside the domain.
    pub fn eval(&self, x: &[f64]) -> Option<f64> {
        self.pieces
            .iter()
            .find(|p| p.region.contains_point(x))
            .map(|p| p.f.eval(x))
    }

    /// Pointwise sum (the `AccumulateCost` pattern of Algorithm 3): the
    /// parameter space is re-partitioned into pairwise intersections of the
    /// operand regions; weight vectors and base costs add on each non-empty
    /// intersection (Figure 11 of the paper).
    pub fn add(&self, other: &PwlFn, ctx: &LpCtx) -> PwlFn {
        debug_assert_eq!(self.dim, other.dim);
        let mut pieces = Vec::with_capacity(self.pieces.len().max(other.pieces.len()));
        for p1 in &self.pieces {
            for p2 in &other.pieces {
                // Borrow-based emptiness (with the exact 1-D fast path)
                // before materialising: aligned decompositions kill almost
                // every cross pair here, without LPs or clones — and
                // interned (`Arc`-identical) regions intersect for free.
                if !p1
                    .region
                    .intersection_is_empty(ctx, &p2.region, FastPathSite::PieceAlgebra)
                {
                    pieces.push(LinearPiece {
                        region: shared_intersect(&p1.region, &p2.region),
                        f: p1.f.add(&p2.f),
                    });
                }
            }
        }
        PwlFn {
            dim: self.dim,
            pieces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(lo: f64, hi: f64) -> Polytope {
        Polytope::from_box(&[lo], &[hi])
    }

    /// A 1-D PWL function with pieces on consecutive intervals.
    fn step_fn(breaks: &[f64], fns: &[LinearFn]) -> PwlFn {
        assert_eq!(breaks.len(), fns.len() + 1);
        let pieces = fns
            .iter()
            .enumerate()
            .map(|(i, f)| LinearPiece {
                region: Arc::new(interval(breaks[i], breaks[i + 1])),
                f: f.clone(),
            })
            .collect();
        PwlFn::new(1, pieces)
    }

    #[test]
    fn eval_picks_containing_piece() {
        let f = step_fn(
            &[0.0, 0.5, 1.0],
            &[LinearFn::new(vec![1.0], 0.0), LinearFn::new(vec![0.0], 2.0)],
        );
        assert_eq!(f.eval(&[0.25]), Some(0.25));
        assert_eq!(f.eval(&[0.75]), Some(2.0));
        assert_eq!(f.eval(&[2.0]), None);
    }

    #[test]
    fn add_intersects_pieces() {
        let ctx = LpCtx::new();
        let f = step_fn(
            &[0.0, 0.5, 1.0],
            &[LinearFn::new(vec![1.0], 0.0), LinearFn::new(vec![1.0], 1.0)],
        );
        let g = PwlFn::from_linear(interval(0.0, 1.0), LinearFn::new(vec![2.0], 0.5));
        let s = f.add(&g, &ctx);
        for x in [0.1, 0.3, 0.6, 0.9] {
            let expect = f.eval(&[x]).unwrap() + g.eval(&[x]).unwrap();
            assert!((s.eval(&[x]).unwrap() - expect).abs() < 1e-9, "at {x}");
        }
    }

    #[test]
    fn two_dimensional_add() {
        let ctx = LpCtx::new();
        let square = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        let f = PwlFn::from_linear(square.clone(), LinearFn::new(vec![1.0, 2.0], 0.0));
        let g = PwlFn::from_linear(square, LinearFn::new(vec![-1.0, 1.0], 3.0));
        let s = f.add(&g, &ctx);
        assert!((s.eval(&[0.5, 0.5]).unwrap() - (1.5 + 3.0)).abs() < 1e-9);
    }
}
