//! Property-based tests for the geometry layer.
//!
//! The predicates under test (coverage, redundancy removal, grid location)
//! are validated against Monte-Carlo point sampling, which is an
//! independent oracle: any point found inside a region proves it non-empty,
//! and any point inside the target but outside every covering polytope
//! disproves coverage.

use mpq_geometry::{difference_is_empty, grid::lattice, Polytope};
use mpq_lp::LpCtx;
use proptest::prelude::*;

/// A random sub-box of the unit square, at least `min_side` wide per axis.
fn sub_box(min_side: f64) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let coord = 0u32..=10;
    prop::collection::vec((coord.clone(), coord), 2).prop_map(move |pairs| {
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for (a, b) in pairs {
            let (a, b) = (a.min(b) as f64 / 10.0, a.max(b) as f64 / 10.0);
            lo.push(a);
            hi.push((b).max(a + min_side));
        }
        (lo, hi)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coverage_agrees_with_point_sampling(
        boxes in prop::collection::vec(sub_box(0.1), 1..5),
    ) {
        let ctx = LpCtx::new();
        let target = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
        let polys: Vec<Polytope> = boxes
            .iter()
            .map(|(lo, hi)| Polytope::from_box(lo, hi))
            .collect();
        let covered = difference_is_empty(&ctx, &target, &polys);
        // Sample strictly interior points: if coverage holds, every sample
        // must be inside some polytope.
        let samples = lattice(&[0.013, 0.017], &[0.983, 0.987], 12);
        let all_inside = samples
            .iter()
            .all(|p| polys.iter().any(|poly| poly.contains_point(p)));
        if covered {
            prop_assert!(all_inside, "claimed covered but found an uncovered sample");
        }
        // The converse (all samples inside => covered) is not exact, so it
        // is not asserted; the dense lattice direction above is the sound one.
    }

    #[test]
    fn remove_redundant_preserves_membership(
        (lo, hi) in sub_box(0.2),
        cuts in prop::collection::vec((0u32..=10, 0u32..=10, 0u32..=20), 0..5),
    ) {
        let ctx = LpCtx::new();
        let mut p = Polytope::from_box(&lo, &hi);
        for (a0, a1, b) in cuts {
            p.add_inequality(
                vec![a0 as f64 / 5.0 - 1.0, a1 as f64 / 5.0 - 1.0],
                b as f64 / 10.0,
            );
        }
        let r = p.remove_redundant(&ctx);
        prop_assert!(r.halfspaces().len() <= p.halfspaces().len());
        for point in lattice(&[0.0, 0.0], &[1.0, 1.0], 7) {
            prop_assert_eq!(
                p.contains_point(&point),
                r.contains_point(&point),
                "membership changed at {:?}", point
            );
        }
    }

    #[test]
    fn grid_locate_total_and_consistent(
        res in 1usize..5,
        px in 0u32..=100,
        py in 0u32..=100,
    ) {
        let g = mpq_geometry::grid::ParamGrid::new(&[0.0, 0.0], &[1.0, 1.0], res).unwrap();
        let p = vec![px as f64 / 100.0, py as f64 / 100.0];
        let id = g.locate(&p);
        prop_assert!(id < g.num_simplices());
        prop_assert!(g.simplex(id).polytope.contains_point(&p));
    }
}
