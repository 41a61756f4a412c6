//! Convex-polytope geometry for multi-objective parametric query
//! optimization.
//!
//! The PWL-RRPA algorithm (Trummer & Koch, VLDB 2014, Section 6) manipulates
//! three kinds of geometric objects, all of which are convex polytopes in the
//! parameter space:
//!
//! * the **parameter space** itself (a box, e.g. selectivities in `[0,1]ⁿ`),
//! * the **regions of linear pieces** of piecewise-linear cost functions
//!   (Figure 9 of the paper),
//! * the **cutouts** of relevance regions (Figure 8): a relevance region is
//!   the complement of a finite union of convex polytopes (Theorem 4).
//!
//! This crate implements the polytope operations the algorithm needs:
//! emptiness with interior semantics, constraint-redundancy elimination
//! (the paper's first refinement), the coverage check behind `IsEmpty`
//! (Algorithm 2: [`difference_is_empty`], run incrementally per region by
//! the shared [`region::RegionEngine`]), and the [`grid::ParamGrid`]
//! simplicial decomposition on which the optimizer aligns all cost
//! functions.
//!
//! All numerically non-trivial predicates reduce to linear programs solved
//! through a shared [`mpq_lp::LpCtx`], so the experiment harness can report
//! the number of solved LPs exactly as Figure 12 of the paper does.
//!
//! # Emptiness semantics
//!
//! Dominance in MPQ is defined with non-strict inequalities, so dominance
//! regions and cutouts are closed polytopes and adjacent cutouts share
//! measure-zero boundary slivers. A region is treated as *empty* when it has
//! no interior (no ball of radius > [`INTERIOR_TOL`] fits inside). This is
//! sound for Pareto-plan-set completeness: on the boundary of a dominance
//! region the dominating plan has *equal* cost, so the plan kept for the
//! adjacent full-dimensional region dominates there too.

mod difference;
pub mod grid;
mod polytope;
pub mod region;

pub use difference::{difference_is_empty, CoveragePiece, WITNESS_MARGIN};
pub use region::{
    Cutout, CutoutRegion, HalfspaceList, ProbeSet, RegionBase, RegionEngine, FASTPATH_MARGIN,
};

use mpq_lp::EPS;
use smallvec::SmallVec;

/// Geometric tolerance for predicates on normalised halfspaces.
pub const TOL: f64 = 1e-7;

/// Conditioning threshold for vertices the 2-D fast paths solve for: a
/// crossing of two unit-normal boundary lines (or an active triple of the
/// Chebyshev enumeration) whose determinant is below this in magnitude
/// loses up to ~1e-16/det of accuracy, so a verdict that depends on it
/// keeps the wide [`FASTPATH_MARGIN`] or is left to the LP. Base vertices
/// and interpolations along base edges involve no such solve.
pub(crate) const WELL_CONDITIONED_MIN_DET: f64 = 1e-2;

/// Decision margin of the 1-D and 2-D fast paths when every candidate
/// point is exact to round-off (base vertices, base-edge interpolations,
/// well-conditioned crossings): a verdict that clears it equals the
/// exact-arithmetic verdict on the same f64 inputs. It is far below
/// [`TOL`], so the exact ties shared sub-plans produce (distance `TOL`
/// from their decision boundary) are answered without an LP.
pub(crate) const VERDICT_MARGIN: f64 = 3e-8;

/// Empty-side margin of the exact emptiness fast paths: an inscribed
/// radius at most `INTERIOR_TOL - EMPTY_MARGIN` is "empty". The interval,
/// slab and triple arithmetic behind it is exact to round-off, so
/// zero-width slivers (radius 0, the dominant case) answer without an LP.
pub(crate) const EMPTY_MARGIN: f64 = 1e-9;

/// Minimum interior (Chebyshev) radius for a polytope to count as
/// non-empty; see the crate-level discussion of emptiness semantics.
pub const INTERIOR_TOL: f64 = 1e-7;

/// Inline storage for halfspace normals: parameter dimensions are at most
/// [`grid::MAX_DIM`], so cloning a halfspace never allocates (higher
/// dimensions spill to the heap transparently).
type NormalVec = SmallVec<[f64; 8]>;

/// A closed halfspace `a · x ≤ b` with `‖a‖₂ = 1`.
///
/// Construction normalises the defining inequality so that a single absolute
/// tolerance ([`TOL`]) is meaningful across all predicates. Inequalities with
/// a (numerically) zero normal are degenerate: they are either trivially true
/// (`0 ≤ b`, `b ≥ 0`) or trivially false, and [`Halfspace::new`] reports
/// which.
#[derive(Debug, Clone, PartialEq)]
pub struct Halfspace {
    a: NormalVec,
    b: f64,
}

/// Outcome of constructing a halfspace from raw coefficients.
#[derive(Debug, Clone)]
pub enum HalfspaceKind {
    /// A proper halfspace with a non-zero normal.
    Proper(Halfspace),
    /// The inequality holds everywhere (`0·x ≤ b` with `b ≥ 0`).
    AlwaysTrue,
    /// The inequality holds nowhere (`0·x ≤ b` with `b < 0`).
    AlwaysFalse,
}

impl Halfspace {
    /// Builds `a · x ≤ b`, normalising `‖a‖₂` to one.
    #[allow(clippy::new_ret_no_self)] // construction may degenerate, so the
                                      // kind enum is the honest return type
    pub fn new(a: impl AsRef<[f64]>, b: f64) -> HalfspaceKind {
        let a = a.as_ref();
        let norm = a.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm <= EPS {
            return if b >= -TOL {
                HalfspaceKind::AlwaysTrue
            } else {
                HalfspaceKind::AlwaysFalse
            };
        }
        HalfspaceKind::Proper(Halfspace {
            a: a.iter().map(|v| v / norm).collect(),
            b: b / norm,
        })
    }

    /// Builds a halfspace that is known to have a non-zero normal.
    ///
    /// # Panics
    /// Panics if the normal is numerically zero.
    pub fn proper(a: Vec<f64>, b: f64) -> Halfspace {
        match Self::new(a, b) {
            HalfspaceKind::Proper(h) => h,
            _ => panic!("halfspace normal must be non-zero"),
        }
    }

    /// The unit normal vector `a`.
    pub fn normal(&self) -> &[f64] {
        &self.a
    }

    /// The offset `b` (with the normalised normal).
    pub fn offset(&self) -> f64 {
        self.b
    }

    /// Number of coordinates.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// `b − a · x`; non-negative iff `x` lies in the halfspace.
    pub fn slack(&self, x: &[f64]) -> f64 {
        self.b - mpq_lp::dense::dot(&self.a, x)
    }

    /// True iff `x` satisfies the inequality up to [`TOL`].
    pub fn contains(&self, x: &[f64]) -> bool {
        self.slack(x) >= -TOL
    }

    /// The complementary closed halfspace `a · x ≥ b`.
    pub fn complement(&self) -> Halfspace {
        Halfspace {
            a: self.a.iter().map(|v| -v).collect(),
            b: -self.b,
        }
    }

    /// True iff `other` has (numerically) the same normal and an offset at
    /// least as large, i.e. `self ⊆ other` by direct comparison.
    pub fn implies(&self, other: &Halfspace) -> bool {
        self.b <= other.b + TOL
            && self
                .a
                .iter()
                .zip(&other.a)
                .all(|(x, y)| (x - y).abs() <= TOL)
    }
}

/// A convex polytope in H-representation: the intersection of finitely many
/// closed halfspaces (Figure 3 of the paper).
///
/// A polytope with no constraints is the whole space; an infeasible
/// constraint set is the empty set. Emptiness, containment and redundancy
/// are LP-backed predicates that take an [`mpq_lp::LpCtx`].
#[derive(Debug, Clone)]
pub struct Polytope {
    dim: usize,
    halfspaces: Vec<Halfspace>,
    /// Set when a constructor proved the polytope empty symbolically (e.g. a
    /// degenerate always-false inequality was added).
    trivially_empty: bool,
}

impl Polytope {
    /// The full space `Rⁿ` (no constraints).
    pub fn full(dim: usize) -> Self {
        Self {
            dim,
            halfspaces: Vec::new(),
            trivially_empty: false,
        }
    }

    /// The axis-aligned box `lo ≤ x ≤ hi`.
    ///
    /// # Panics
    /// Panics if `lo` and `hi` have different lengths or `lo > hi` in some
    /// coordinate.
    pub fn from_box(lo: &[f64], hi: &[f64]) -> Self {
        assert_eq!(lo.len(), hi.len(), "box bounds must have equal arity");
        let dim = lo.len();
        let mut p = Self::full(dim);
        for j in 0..dim {
            assert!(lo[j] <= hi[j], "box must satisfy lo <= hi");
            let mut up = vec![0.0; dim];
            up[j] = 1.0;
            p.push(Halfspace::proper(up, hi[j]));
            let mut down = vec![0.0; dim];
            down[j] = -1.0;
            p.push(Halfspace::proper(down, -lo[j]));
        }
        p
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The defining halfspaces (empty for the full space).
    pub fn halfspaces(&self) -> &[Halfspace] {
        &self.halfspaces
    }

    /// True if a constructor proved emptiness without any LP.
    pub fn is_trivially_empty(&self) -> bool {
        self.trivially_empty
    }

    /// Adds a halfspace (normalised) to the constraint set.
    pub fn push(&mut self, h: Halfspace) {
        debug_assert_eq!(h.dim(), self.dim);
        self.halfspaces.push(h);
    }

    /// Adds the inequality `a · x ≤ b`, resolving degenerate rows.
    pub fn add_inequality(&mut self, a: Vec<f64>, b: f64) {
        match Halfspace::new(a, b) {
            HalfspaceKind::Proper(h) => self.push(h),
            HalfspaceKind::AlwaysTrue => {}
            HalfspaceKind::AlwaysFalse => self.trivially_empty = true,
        }
    }

    /// Returns `self` with one extra halfspace.
    pub fn with(&self, h: Halfspace) -> Self {
        let mut out = self.clone();
        out.push(h);
        out
    }

    /// True iff `x` satisfies every constraint up to [`TOL`].
    pub fn contains_point(&self, x: &[f64]) -> bool {
        !self.trivially_empty && self.halfspaces.iter().all(|h| h.contains(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halfspace_is_normalised() {
        let h = Halfspace::proper(vec![3.0, 4.0], 10.0);
        let norm: f64 = h.normal().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        assert!((h.offset() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_halfspaces_resolve() {
        assert!(matches!(
            Halfspace::new(vec![0.0, 0.0], 1.0),
            HalfspaceKind::AlwaysTrue
        ));
        assert!(matches!(
            Halfspace::new(vec![0.0, 0.0], -1.0),
            HalfspaceKind::AlwaysFalse
        ));
    }

    #[test]
    fn complement_flips() {
        let h = Halfspace::proper(vec![1.0], 2.0);
        let c = h.complement();
        assert!(h.contains(&[1.0]) && !h.contains(&[3.0]));
        assert!(!c.contains(&[1.0]) && c.contains(&[3.0]));
        // Both contain the boundary.
        assert!(h.contains(&[2.0]) && c.contains(&[2.0]));
    }

    #[test]
    fn box_membership() {
        let p = Polytope::from_box(&[0.0, 0.0], &[1.0, 2.0]);
        assert!(p.contains_point(&[0.5, 1.5]));
        assert!(p.contains_point(&[0.0, 0.0]));
        assert!(!p.contains_point(&[1.5, 0.5]));
        assert!(!p.contains_point(&[0.5, -0.1]));
        assert_eq!(p.halfspaces().len(), 4);
    }

    #[test]
    fn trivially_empty_from_degenerate_row() {
        let mut p = Polytope::full(2);
        p.add_inequality(vec![0.0, 0.0], -1.0);
        assert!(p.is_trivially_empty());
        assert!(!p.contains_point(&[0.0, 0.0]));
    }

    #[test]
    fn implies_detects_parallel_weaker_constraint() {
        let tight = Halfspace::proper(vec![1.0, 0.0], 1.0);
        let loose = Halfspace::proper(vec![2.0, 0.0], 4.0); // normalises to x ≤ 2
        assert!(tight.implies(&loose));
        assert!(!loose.implies(&tight));
    }
}
