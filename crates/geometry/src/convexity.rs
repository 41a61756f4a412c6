//! Convexity recognition for unions of polytopes.
//!
//! `IsEmpty` in Algorithm 2 of the MPQ paper decides whether the union of a
//! relevance region's cutouts covers the whole parameter space. Following
//! the paper, the union is first tested for convexity with the algorithm of
//! Bemporad, Fukuda and Torrisi (*Convexity recognition of the union of
//! polyhedra*, Computational Geometry 2001); only when the union is convex
//! is the resulting polytope compared against the parameter space with a
//! standard polytope-containment check.
//!
//! The BFT construction: the **envelope** of polytopes `P₁ … P_k` keeps
//! exactly those defining halfspaces of any `Pᵢ` that are valid for every
//! other `Pⱼ`. Every `Pᵢ` lies inside the envelope, hence so does the
//! union, and the envelope is convex. The union is convex **iff**
//! `envelope ∖ ⋃ᵢ Pᵢ` is empty — in which case the envelope *is* the union.
//!
//! The optimizer's `IsEmpty` no longer calls this module directly: both
//! PWL backends route emptiness through the shared
//! [`crate::region::RegionEngine`], whose coverage check (the worklist
//! behind [`crate::difference_is_empty`]) gives the same verdict because
//! relevance-region cutouts are contained in the parameter space — their
//! union covers the space iff it *equals* it, in which case it is convex
//! and the BFT envelope is the space itself. The procedure stays exported
//! for general unions (and is property-tested against point sampling).

use crate::{difference_is_empty, Polytope, TOL};
use mpq_lp::{LpCtx, LpOutcome};

/// Computes the BFT envelope of a set of polytopes: the intersection of all
/// defining halfspaces (of any input) that are valid for every input.
///
/// Returns `None` when `polys` is empty. Inputs that are trivially empty
/// are ignored; if all inputs are empty, returns an empty polytope.
pub fn envelope(ctx: &LpCtx, polys: &[Polytope]) -> Option<Polytope> {
    let live: Vec<&Polytope> = polys.iter().filter(|p| !p.is_trivially_empty()).collect();
    let dim = polys.first()?.dim();
    if live.is_empty() {
        return Some(Polytope::empty(dim));
    }
    let mut env = Polytope::full(dim);
    for (i, poly) in live.iter().enumerate() {
        'constraint: for h in poly.halfspaces() {
            for (j, other) in live.iter().enumerate() {
                if i == j {
                    continue;
                }
                let valid = match other.max_linear(ctx, h.normal()) {
                    LpOutcome::Optimal(sol) => sol.value <= h.offset() + TOL,
                    LpOutcome::Unbounded => false,
                    LpOutcome::Infeasible => true,
                };
                if !valid {
                    continue 'constraint;
                }
            }
            env.push(h.clone());
        }
    }
    Some(env)
}

/// If the union of `polys` is convex, returns the polytope equal to that
/// union; otherwise returns `None` (Bemporad–Fukuda–Torrisi).
pub fn union_convex_polytope(ctx: &LpCtx, polys: &[Polytope]) -> Option<Polytope> {
    let env = envelope(ctx, polys)?;
    if difference_is_empty(ctx, &env, polys) {
        Some(env)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> LpCtx {
        LpCtx::new()
    }

    #[test]
    fn envelope_of_single_polytope_is_itself() {
        let ctx = ctx();
        let p = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        let env = envelope(&ctx, std::slice::from_ref(&p)).unwrap();
        assert!(env.contains_polytope(&ctx, &p));
        assert!(p.contains_polytope(&ctx, &env));
    }

    #[test]
    fn adjacent_boxes_form_convex_union() {
        let ctx = ctx();
        let a = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        let b = Polytope::from_box(&[1.0, 0.0], &[2.0, 1.0]);
        let union = union_convex_polytope(&ctx, &[a, b]).expect("union is a 2x1 box");
        let expected = Polytope::from_box(&[0.0, 0.0], &[2.0, 1.0]);
        assert!(union.contains_polytope(&ctx, &expected));
        assert!(expected.contains_polytope(&ctx, &union));
    }

    #[test]
    fn overlapping_boxes_form_convex_union() {
        let ctx = ctx();
        let a = Polytope::from_box(&[0.0], &[0.7]);
        let b = Polytope::from_box(&[0.3], &[1.0]);
        let union = union_convex_polytope(&ctx, &[a, b]).expect("interval union");
        let expected = Polytope::from_box(&[0.0], &[1.0]);
        assert!(union.contains_polytope(&ctx, &expected));
        assert!(expected.contains_polytope(&ctx, &union));
    }

    #[test]
    fn l_shape_is_not_convex() {
        let ctx = ctx();
        // An L: bottom row plus left column of a 2x2 square.
        let bottom = Polytope::from_box(&[0.0, 0.0], &[2.0, 1.0]);
        let left = Polytope::from_box(&[0.0, 0.0], &[1.0, 2.0]);
        assert!(union_convex_polytope(&ctx, &[bottom, left]).is_none());
    }

    #[test]
    fn disjoint_boxes_are_not_convex() {
        let ctx = ctx();
        let a = Polytope::from_box(&[0.0], &[1.0]);
        let b = Polytope::from_box(&[2.0], &[3.0]);
        assert!(union_convex_polytope(&ctx, &[a, b]).is_none());
    }

    #[test]
    fn triangles_reassemble_into_square() {
        let ctx = ctx();
        let square = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        let lower = square
            .clone()
            .with(crate::Halfspace::proper(vec![-1.0, 1.0], 0.0));
        let upper = square
            .clone()
            .with(crate::Halfspace::proper(vec![1.0, -1.0], 0.0));
        let union = union_convex_polytope(&ctx, &[lower, upper]).expect("square");
        assert!(union.contains_polytope(&ctx, &square));
        assert!(square.contains_polytope(&ctx, &union));
    }

    #[test]
    fn empty_inputs() {
        let ctx = ctx();
        assert!(envelope(&ctx, &[]).is_none());
        let empty_only = [Polytope::empty(1)];
        let env = envelope(&ctx, &empty_only).unwrap();
        assert!(env.is_trivially_empty());
    }
}
