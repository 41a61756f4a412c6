//! The paper's Section 4 counterexample cost functions (Figures 4–6),
//! shared by the `table1` and `figures` binaries, and Table 1's
//! single-metric checks S1–S3 on random linear cost functions.

use mpq_cost::{LinearFn, LinearPiece, MultiCostFn, PwlFn};
use mpq_geometry::Polytope;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn interval(lo: f64, hi: f64) -> Polytope {
    Polytope::from_box(&[lo], &[hi])
}

fn linear(region: Polytope, w: f64, b: f64) -> PwlFn {
    PwlFn::from_linear(region, LinearFn::new(vec![w], b))
}

/// A 1-D PWL function assembled from `(lo, hi, w, b)` pieces.
pub fn pwl(pieces: &[(f64, f64, f64, f64)]) -> PwlFn {
    PwlFn::new(
        1,
        pieces
            .iter()
            .map(|&(lo, hi, w, b)| LinearPiece {
                region: std::sync::Arc::new(interval(lo, hi)),
                f: LinearFn::new(vec![w], b),
            })
            .collect(),
    )
}

/// Figure 4 (M1 / M3a): plan 2 is Pareto-optimal on `[0,1)` and `[2,3]`
/// but not between; parameter domain `[0, 3]`.
pub fn figure4_plans() -> Vec<(&'static str, MultiCostFn)> {
    let x = interval(0.0, 3.0);
    vec![
        (
            "Plan 1",
            MultiCostFn::new(vec![
                pwl(&[(0.0, 2.0, -1.0, 2.0), (2.0, 3.0, 0.0, 0.0)]),
                linear(x.clone(), 0.0, 0.25),
            ]),
        ),
        (
            "Plan 2",
            MultiCostFn::new(vec![
                linear(x, 0.0, 1.0),
                pwl(&[
                    (0.0, 1.0, 0.0, 0.5),
                    (1.0, 2.0, 0.0, 2.0),
                    (2.0, 3.0, 0.0, 0.1),
                ]),
            ]),
        ),
    ]
}

/// Figure 5 (M2): plan 1 costs `(x1, x2)`, plan 2 costs `(1, 1)` on
/// `[0,2]²`; plan 2's Pareto region is the non-convex complement of the
/// unit square.
pub fn figure5_plans() -> Vec<(&'static str, MultiCostFn)> {
    let square = Polytope::from_box(&[0.0, 0.0], &[2.0, 2.0]);
    vec![
        (
            "Plan 1",
            MultiCostFn::new(vec![
                PwlFn::from_linear(square.clone(), LinearFn::new(vec![1.0, 0.0], 0.0)),
                PwlFn::from_linear(square.clone(), LinearFn::new(vec![0.0, 1.0], 0.0)),
            ]),
        ),
        (
            "Plan 2",
            MultiCostFn::new(vec![
                PwlFn::from_linear(square.clone(), LinearFn::new(vec![0.0, 0.0], 1.0)),
                PwlFn::from_linear(square, LinearFn::new(vec![0.0, 0.0], 1.0)),
            ]),
        ),
    ]
}

/// Figure 6 (M3b): plan 3 is Pareto-optimal strictly inside `(0.5, 1.5)`
/// but at neither end; parameter domain `[0, 2]`.
pub fn figure6_plans() -> Vec<(&'static str, MultiCostFn)> {
    let x = interval(0.0, 2.0);
    vec![
        (
            "Plan 1",
            MultiCostFn::new(vec![
                linear(x.clone(), -1.0, 2.0),
                linear(x.clone(), 1.0, 0.0),
            ]),
        ),
        (
            "Plan 2",
            MultiCostFn::new(vec![
                linear(x.clone(), 1.0, 0.0),
                linear(x.clone(), -1.0, 2.0),
            ]),
        ),
        (
            "Plan 3",
            MultiCostFn::new(vec![
                pwl(&[(0.0, 1.0, -0.4, 0.7), (1.0, 2.0, 0.4, -0.1)]),
                linear(x, 0.0, 2.0),
            ]),
        ),
    ]
}

/// Names of the Pareto-optimal plans at `x` (strict-domination filter).
pub fn pareto_at(plans: &[(&'static str, MultiCostFn)], x: &[f64]) -> Vec<&'static str> {
    let costs: Vec<Vec<f64>> = plans
        .iter()
        .map(|(_, f)| f.eval(x).expect("inside domain"))
        .collect();
    plans
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            !costs
                .iter()
                .any(|other| mpq_cost::strictly_dominates(other, &costs[*i], 1e-9))
        })
        .map(|(_, (name, _))| *name)
        .collect()
}

/// Index of the optimal (minimal) function at `x`; ties broken by index.
pub fn argmin_at(fns: &[LinearFn], x: f64) -> usize {
    let mut best = 0;
    for (i, f) in fns.iter().enumerate() {
        if f.eval(&[x]) < fns[best].eval(&[x]) - 1e-12 {
            best = i;
        }
    }
    best
}

/// True iff `f` is optimal at `x` (within tolerance).
pub fn optimal_at(fns: &[LinearFn], f: usize, x: f64) -> bool {
    let v = fns[f].eval(&[x]);
    fns.iter().all(|g| v <= g.eval(&[x]) + 1e-9)
}

/// `k` random single-metric linear cost functions of one parameter.
pub fn random_linear_set(rng: &mut StdRng, k: usize) -> Vec<LinearFn> {
    (0..k)
        .map(|_| LinearFn::new(vec![rng.gen_range(-2.0..2.0)], rng.gen_range(0.0..4.0)))
        .collect()
}

/// S1: if one plan is optimal at two points it is optimal between them.
/// S3 is the same statement for the (two) vertices of a 1-D polytope.
pub fn check_s1_s3(instances: usize) -> bool {
    let mut rng = StdRng::seed_from_u64(2014);
    for _ in 0..instances {
        let fns = random_linear_set(&mut rng, 6);
        let (a, b) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let p = argmin_at(&fns, a);
        if optimal_at(&fns, p, b) {
            for t in 1..10 {
                let mid = a + (b - a) * t as f64 / 10.0;
                if !optimal_at(&fns, p, mid) {
                    return false;
                }
            }
        }
    }
    true
}

/// S2: the region where one plan is optimal is connected (an interval).
pub fn check_s2(instances: usize) -> bool {
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..instances {
        let fns = random_linear_set(&mut rng, 6);
        for p in 0..fns.len() {
            // Scan a fine grid; the optimality indicator must have at most
            // one maximal run of `true`.
            let mut runs = 0;
            let mut prev = false;
            for step in 0..=400 {
                let x = step as f64 / 400.0;
                let now = optimal_at(&fns, p, x);
                if now && !prev {
                    runs += 1;
                }
                prev = now;
            }
            if runs > 1 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_table_matches_paper() {
        let plans = figure4_plans();
        assert_eq!(pareto_at(&plans, &[0.5]), vec!["Plan 1", "Plan 2"]);
        assert_eq!(pareto_at(&plans, &[1.5]), vec!["Plan 1"]);
        assert_eq!(pareto_at(&plans, &[2.5]), vec!["Plan 1", "Plan 2"]);
    }

    #[test]
    fn figure6_table_matches_paper() {
        let plans = figure6_plans();
        assert_eq!(pareto_at(&plans, &[0.25]), vec!["Plan 1", "Plan 2"]);
        assert_eq!(
            pareto_at(&plans, &[1.0]),
            vec!["Plan 1", "Plan 2", "Plan 3"]
        );
        assert_eq!(pareto_at(&plans, &[0.75]).len(), 3);
        assert_eq!(pareto_at(&plans, &[1.75]), vec!["Plan 1", "Plan 2"]);
    }

    #[test]
    fn figure5_pareto_region_nonconvex() {
        let plans = figure5_plans();
        // Plan 2 Pareto outside the unit square, dominated inside.
        assert_eq!(pareto_at(&plans, &[1.5, 0.1]).len(), 2);
        assert_eq!(pareto_at(&plans, &[0.4, 0.4]), vec!["Plan 1"]);
    }

    /// Table 1's single-metric principles hold on seeded random linear
    /// instances (fewer than the `table1` binary checks).
    #[test]
    fn single_metric_principles_hold() {
        assert!(check_s1_s3(200), "S1/S3 violated");
        assert!(check_s2(50), "S2 violated");
    }
}
