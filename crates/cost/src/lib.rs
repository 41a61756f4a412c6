//! Multi-objective piecewise-linear cost functions for MPQ.
//!
//! In the MPQ model (Trummer & Koch, VLDB 2014, Section 2) the cost of a
//! query plan is a vector-valued function `c(p) : X → Rᵐ` mapping parameter
//! vectors (e.g. predicate selectivities) to one value per cost metric
//! (e.g. execution time and monetary fees). The PWL-MPQ restriction assumes
//! each component is **piecewise linear**: linear on convex polytopes that
//! partition the parameter space (Figure 9 of the paper).
//!
//! This crate implements the cost-function side of PWL-RRPA:
//!
//! * [`LinearFn`] — a single linear piece `b + w · x`;
//! * [`PwlFn`] — a general piecewise-linear function over arbitrary
//!   polytope pieces, with addition (Figure 11 and the `AccumulateCost`
//!   function of Algorithm 3);
//! * [`MultiCostFn`] — one [`PwlFn`] per metric, with the dominance-region
//!   computation `Dom` of Algorithm 3;
//! * [`GridCost`] — the grid-aligned representation used by the optimizer:
//!   every function in a run is linear on the *same* simplices of a shared
//!   [`mpq_geometry::grid::ParamGrid`], so accumulation is per-simplex
//!   weight addition and all dominance geometry stays local to a simplex;
//! * [`approx`] — interpolation of arbitrary cost closures onto a grid
//!   (exact at grid vertices, exact everywhere for affine closures).

pub mod approx;
pub mod cache;
mod grid_cost;
mod linear;
mod multi;
mod pwl;

pub use cache::{CacheStats, LiftedCostCache};
pub use grid_cost::{DominanceHalfspaces, GridCost, HalfspaceList, MetricOnSimplex};
pub use linear::LinearFn;
pub use multi::MultiCostFn;
pub use pwl::{LinearPiece, PwlFn};

/// Evaluated cost vector, one entry per metric. Lower is better for every
/// metric (qualities like result precision are modelled as losses, see
/// Section 2 of the paper).
pub type CostVec = Vec<f64>;

/// True iff `a` dominates `b`: `a ≤ b` in every component (within `tol`).
pub fn dominates(a: &[f64], b: &[f64], tol: f64) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| *x <= *y + tol)
}

/// True iff `a` strictly dominates `b`: `a` dominates `b` and is strictly
/// smaller in at least one component.
pub fn strictly_dominates(a: &[f64], b: &[f64], tol: f64) -> bool {
    dominates(a, b, tol) && a.iter().zip(b).any(|(x, y)| *x < *y - tol)
}

/// True iff `a` **(1+ε)-band dominates** `b`: `a ≤ band · b` in every
/// component (within `tol`), where `band = 1 + ε ≥ 1`. With `band == 1.0`
/// this is exactly [`dominates`] (the multiplication by `1.0` is an IEEE
/// identity), so the exact path is the ε = 0 special case bit for bit.
/// Metric-generic: costs are non-negative by the MPQ model (Section 2 of
/// the paper — qualities are modelled as losses), which is what makes the
/// multiplicative band a *relaxation* of exact dominance.
pub fn dominates_banded(a: &[f64], b: &[f64], band: f64, tol: f64) -> bool {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(band >= 1.0, "dominance band must be ≥ 1");
    a.iter().zip(b).all(|(x, y)| *x <= band * *y + tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_on_vectors() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0], 1e-9));
        assert!(!dominates(&[1.0, 4.0], &[1.0, 3.0], 1e-9));
        assert!(strictly_dominates(&[1.0, 2.0], &[1.0, 3.0], 1e-9));
        assert!(!strictly_dominates(&[1.0, 3.0], &[1.0, 3.0], 1e-9));
        // Equal vectors dominate each other non-strictly.
        assert!(dominates(&[2.0], &[2.0], 1e-9));
    }

    #[test]
    fn banded_dominance_relaxes_exact() {
        // 1.05 does not dominate 1.0 exactly, but does within a 10% band.
        assert!(!dominates(&[1.05], &[1.0], 1e-9));
        assert!(dominates_banded(&[1.05], &[1.0], 1.1, 1e-9));
        assert!(!dominates_banded(&[1.2], &[1.0], 1.1, 1e-9));
        // band == 1.0 is exact dominance on every input.
        for (a, b) in [([1.0, 2.0], [1.0, 3.0]), ([1.0, 4.0], [1.0, 3.0])] {
            assert_eq!(dominates_banded(&a, &b, 1.0, 1e-9), dominates(&a, &b, 1e-9));
        }
    }
}
