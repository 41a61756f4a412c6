//! Property-based tests: the symbolic cost-function algebra must agree with
//! pointwise evaluation everywhere.

use mpq_cost::{approx, GridCost, LinearFn, MultiCostFn, PwlFn};
use mpq_geometry::grid::{lattice, ParamGrid};
use mpq_geometry::Polytope;
use mpq_lp::LpCtx;
use proptest::prelude::*;
use std::sync::Arc;

fn small_coeff() -> impl Strategy<Value = f64> {
    (-20i32..=20).prop_map(|v| v as f64 / 4.0)
}

fn linear_fn(dim: usize) -> impl Strategy<Value = LinearFn> {
    (prop::collection::vec(small_coeff(), dim), small_coeff())
        .prop_map(|(w, b)| LinearFn::new(w, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pwl_add_matches_pointwise(f1 in linear_fn(2), f2 in linear_fn(2), g in linear_fn(2)) {
        let ctx = LpCtx::new();
        let square = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        // A two-piece function split along x0 = 0.5 plus a one-piece one.
        let left = square.clone().with(mpq_geometry::Halfspace::proper(vec![1.0, 0.0], 0.5));
        let right = square.clone().with(mpq_geometry::Halfspace::proper(vec![-1.0, 0.0], -0.5));
        let f = PwlFn::new(2, vec![
            mpq_cost::LinearPiece { region: left.into(), f: f1.clone() },
            mpq_cost::LinearPiece { region: right.into(), f: f2.clone() },
        ]);
        let gf = PwlFn::from_linear(square, g.clone());
        let sum = f.add(&gf, &ctx);
        for p in lattice(&[0.01, 0.01], &[0.99, 0.99], 6) {
            let expect = f.eval(&p).unwrap() + g.eval(&p);
            let got = sum.eval(&p).unwrap();
            prop_assert!((got - expect).abs() < 1e-7, "at {:?}: {} vs {}", p, got, expect);
        }
    }

    #[test]
    fn dominance_regions_match_pointwise(
        a_time in linear_fn(1), a_fees in linear_fn(1),
        b_time in linear_fn(1), b_fees in linear_fn(1),
    ) {
        let ctx = LpCtx::new();
        let x = Polytope::from_box(&[0.0], &[1.0]);
        let a = MultiCostFn::new(vec![
            PwlFn::from_linear(x.clone(), a_time.clone()),
            PwlFn::from_linear(x.clone(), a_fees.clone()),
        ]);
        let b = MultiCostFn::new(vec![
            PwlFn::from_linear(x.clone(), b_time.clone()),
            PwlFn::from_linear(x, b_fees.clone()),
        ]);
        let dom = a.dominance_regions(&b, &ctx);
        // Strictly-interior sample points avoid boundary ambiguity.
        for p in lattice(&[0.017], &[0.989], 31) {
            let should = a_time.eval(&p) <= b_time.eval(&p) + 1e-9
                && a_fees.eval(&p) <= b_fees.eval(&p) + 1e-9;
            let in_region = dom.iter().any(|r| r.contains_point(&p));
            // The symbolic region may disagree only within tolerance of a
            // metric boundary; re-check with a slack margin before failing.
            if should != in_region {
                let margin = (a_time.eval(&p) - b_time.eval(&p))
                    .abs()
                    .min((a_fees.eval(&p) - b_fees.eval(&p)).abs());
                prop_assert!(
                    margin < 1e-5,
                    "mismatch at {:?} far from any boundary (margin {})", p, margin
                );
            }
        }
    }

    #[test]
    fn grid_cost_agrees_with_general_representation(
        res in 1usize..4,
        w0 in small_coeff(), w1 in small_coeff(), b in small_coeff(),
    ) {
        let grid = Arc::new(ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], res).unwrap());
        let closure = move |x: &[f64]| vec![w0 * x[0] + w1 * x[1] + b, x[0] * x[1]];
        let gc = GridCost::from_closure(Arc::clone(&grid), 2, closure);
        let mc = approx::multi_from_closure(&grid, 2, move |x| {
            vec![w0 * x[0] + w1 * x[1] + b, x[0] * x[1]]
        });
        for p in lattice(&[0.0, 0.0], &[1.0, 1.0], 4) {
            let gv = gc.eval(&p);
            let mv = mc.eval(&p).unwrap();
            prop_assert!((gv[0] - mv[0]).abs() < 1e-7 && (gv[1] - mv[1]).abs() < 1e-7);
        }
    }

    #[test]
    fn grid_dominates_everywhere_is_sound(
        fa in linear_fn(2), fb in linear_fn(2),
    ) {
        let grid = Arc::new(ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], 2).unwrap());
        let a = GridCost::from_closure(Arc::clone(&grid), 1, |x| vec![fa.eval(x)]);
        let b = GridCost::from_closure(Arc::clone(&grid), 1, |x| vec![fb.eval(x)]);
        if a.dominates_everywhere(&b, 1.0) {
            for p in lattice(&[0.0, 0.0], &[1.0, 1.0], 6) {
                prop_assert!(fa.eval(&p) <= fb.eval(&p) + 1e-6,
                    "claimed dominance violated at {:?}", p);
            }
        }
    }
}
