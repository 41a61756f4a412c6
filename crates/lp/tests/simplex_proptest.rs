//! Property-based tests for the simplex solver.
//!
//! Strategy: generate random bounded LPs (a box plus random cutting planes
//! through it). The box guarantees boundedness, and the box centre is kept
//! feasible by construction, so every generated problem has a finite
//! optimum. We then check the simplex invariants:
//!  * the reported point satisfies every constraint,
//!  * the reported value equals `c · x`,
//!  * the value is at least as good as a coarse interior sample (a weak but
//!    solver-independent lower bound on the optimum).

use mpq_lp::{thread_solved, LpCtx, LpOutcome, LpSolution};
use proptest::prelude::*;

/// One row `a · x ≤ b`.
type Row = (Vec<f64>, f64);

/// Builds the rows of a feasible set that is a box `[-5, 5]^n` intersected
/// with random halfspaces shifted to keep the origin feasible.
fn bounded_rows(n: usize, cuts: Vec<(Vec<f64>, f64)>) -> Vec<Row> {
    let mut rows = Vec::new();
    for j in 0..n {
        let mut lo = vec![0.0; n];
        lo[j] = -1.0;
        rows.push((lo, 5.0));
        let mut hi = vec![0.0; n];
        hi[j] = 1.0;
        rows.push((hi, 5.0));
    }
    for (a, shift) in cuts {
        // a · 0 = 0 ≤ shift keeps the origin inside for shift ≥ 0.
        rows.push((a, shift));
    }
    rows
}

/// Solves `maximize objective · x` over `rows`, checking that the solve
/// counts once on this thread.
fn solve_rows(objective: &[f64], rows: &[Row]) -> LpOutcome {
    let before = thread_solved();
    let outcome = LpCtx::new().solve_staged(objective, |stage| {
        for (a, b) in rows {
            stage.push_row(a, *b);
        }
    });
    assert_eq!(thread_solved() - before, 1, "one counted solve per call");
    outcome
}

/// The solution of an LP that must have a finite optimum.
fn optimum(outcome: LpOutcome) -> LpSolution {
    match outcome {
        LpOutcome::Optimal(sol) => sol,
        other => panic!("expected an optimum, got {other:?}"),
    }
}

/// The slack `b - a · x` of one row; non-negative iff `x` satisfies it.
fn slack((a, b): &Row, x: &[f64]) -> f64 {
    b - a.iter().zip(x).map(|(ai, xi)| ai * xi).sum::<f64>()
}

fn coeff() -> impl Strategy<Value = f64> {
    (-10i32..=10).prop_map(|v| v as f64 / 2.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn optimum_is_feasible_and_consistent(
        n in 1usize..4,
        obj_raw in prop::collection::vec(coeff(), 4),
        cuts_raw in prop::collection::vec((prop::collection::vec(coeff(), 4), 0u32..40), 0..6),
    ) {
        let objective: Vec<f64> = obj_raw[..n].to_vec();
        let cuts: Vec<(Vec<f64>, f64)> = cuts_raw
            .iter()
            .map(|(a, s)| (a[..n].to_vec(), *s as f64 / 4.0))
            .collect();
        let rows = bounded_rows(n, cuts);

        match solve_rows(&objective, &rows) {
            LpOutcome::Optimal(sol) => {
                for c in &rows {
                    prop_assert!(slack(c, &sol.x) >= -1e-6,
                        "constraint {:?} violated at {:?}", c, sol.x);
                }
                let recomputed: f64 = objective.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
                prop_assert!((recomputed - sol.value).abs() < 1e-6);
                // The origin is always feasible, so the optimum is ≥ c·0 = 0.
                prop_assert!(sol.value >= -1e-6, "optimum {} below origin value", sol.value);
            }
            other => prop_assert!(false, "bounded feasible LP returned {other:?}"),
        }
    }

    #[test]
    fn infeasible_detection_is_sound(
        n in 1usize..4,
        a_raw in prop::collection::vec(coeff(), 4),
        gap in 1u32..20,
    ) {
        // a·x ≤ 0 together with a·x ≥ gap is infeasible whenever a ≠ 0.
        let a: Vec<f64> = a_raw[..n].to_vec();
        prop_assume!(a.iter().any(|&v| v != 0.0));
        let neg: Vec<f64> = a.iter().map(|v| -v).collect();
        let rows = [(a, 0.0), (neg, -(gap as f64))];
        prop_assert!(matches!(solve_rows(&vec![0.0; n], &rows), LpOutcome::Infeasible));
    }

    #[test]
    fn duplicate_constraints_do_not_change_optimum(
        n in 1usize..4,
        obj_raw in prop::collection::vec(coeff(), 4),
    ) {
        let objective: Vec<f64> = obj_raw[..n].to_vec();
        let base = bounded_rows(n, vec![]);
        let mut doubled = base.clone();
        doubled.extend(base.clone());
        let v1 = optimum(solve_rows(&objective, &base)).value;
        let v2 = optimum(solve_rows(&objective, &doubled)).value;
        prop_assert!((v1 - v2).abs() < 1e-6, "{v1} vs {v2}");
    }
}
