//! The paper's problem analysis (Section 4, Table 1, Figures 4–6),
//! executed on the real cost-function machinery.
//!
//! The paper proves that the "guiding principles" of single-metric
//! parametric optimization (S1–S3) fail with multiple metrics (M1–M3) via
//! three counterexamples. This example rebuilds each counterexample with
//! explicit PWL cost functions and *computes* the Pareto-plan tables the
//! figures show — demonstrating why parameter-space-decomposition PQ
//! algorithms cannot be lifted to MPQ, and why RRPA exists.
//!
//! Run with: `cargo run --release --example counterexamples`

use mpq::cost::{LinearFn, LinearPiece, MultiCostFn, PwlFn};
use mpq::geometry::Polytope;

fn interval(lo: f64, hi: f64) -> Polytope {
    Polytope::from_box(&[lo], &[hi])
}

fn linear(region: Polytope, w: f64, b: f64) -> PwlFn {
    PwlFn::from_linear(region, LinearFn::new(vec![w], b))
}

/// A 1-D PWL function assembled from `(lo, hi, w, b)` pieces.
fn pwl(pieces: &[(f64, f64, f64, f64)]) -> PwlFn {
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

/// Names of the Pareto-optimal plans at `x` (strict-domination filter, the
/// paper's Pareto-region definition).
fn pareto_at(plans: &[(&str, &MultiCostFn)], x: &[f64]) -> Vec<String> {
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
                .any(|other| mpq::cost::strictly_dominates(other, &costs[*i], 1e-9))
        })
        .map(|(_, (name, _))| (*name).to_string())
        .collect()
}

fn show_table(plans: &[(&str, &MultiCostFn)], ranges: &[(f64, f64)]) {
    println!(
        "  {:<16} Pareto plans (computed at range midpoint)",
        "range"
    );
    for &(lo, hi) in ranges {
        let mid = [(lo + hi) / 2.0];
        println!(
            "  [{lo:>4.2}, {hi:>4.2}]    {}",
            pareto_at(plans, &mid).join(", ")
        );
    }
}

/// Figure 4 — statements M1 and M3a: a plan Pareto-optimal at two points
/// need not be Pareto-optimal on the segment between them.
fn figure4() {
    // Plan 1: metric 1 falls 2→0 over [0,2] then stays 0; metric 2 = 0.25.
    // Plan 2: metric 1 = 1; metric 2 jumps 0.5 / 2.0 / 0.1 per range
    //         (PWL functions may be discontinuous — paper Section 2).
    let x = interval(0.0, 3.0);
    let plan1 = MultiCostFn::new(vec![
        pwl(&[(0.0, 2.0, -1.0, 2.0), (2.0, 3.0, 0.0, 0.0)]),
        linear(x.clone(), 0.0, 0.25),
    ]);
    let plan2 = MultiCostFn::new(vec![
        linear(x, 0.0, 1.0),
        pwl(&[
            (0.0, 1.0, 0.0, 0.5),
            (1.0, 2.0, 0.0, 2.0),
            (2.0, 3.0, 0.0, 0.1),
        ]),
    ]);
    println!("== Figure 4 / statements M1 and M3a ==");
    show_table(
        &[("Plan 1", &plan1), ("Plan 2", &plan2)],
        &[(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)],
    );
    assert_eq!(pareto_at(&[("1", &plan1), ("2", &plan2)], &[0.5]).len(), 2);
    assert_eq!(
        pareto_at(&[("1", &plan1), ("2", &plan2)], &[1.5]),
        vec!["1"]
    );
    assert_eq!(pareto_at(&[("1", &plan1), ("2", &plan2)], &[2.5]).len(), 2);
    println!(
        "  -> Plan 2 is Pareto-optimal on the outer ranges but NOT between\n\
         \u{20}    them: Pareto-optimality at two points does not extend to the\n\
         \u{20}    connecting segment (S1 fails; M1 and M3a hold).\n"
    );
}

/// Figure 5 — statement M2: Pareto regions need not be convex.
fn figure5() {
    // Plan 1 costs (x1, x2); plan 2 costs (1, 1) on [0,2]².
    let square = Polytope::from_box(&[0.0, 0.0], &[2.0, 2.0]);
    let plan1 = MultiCostFn::new(vec![
        PwlFn::from_linear(square.clone(), LinearFn::new(vec![1.0, 0.0], 0.0)),
        PwlFn::from_linear(square.clone(), LinearFn::new(vec![0.0, 1.0], 0.0)),
    ]);
    let plan2 = MultiCostFn::new(vec![
        PwlFn::from_linear(square.clone(), LinearFn::new(vec![0.0, 0.0], 1.0)),
        PwlFn::from_linear(square, LinearFn::new(vec![0.0, 0.0], 1.0)),
    ]);
    let ctx = mpq::lp::LpCtx::new();
    let dom = plan1.dominance_regions(&plan2, 1.0, &ctx);
    let unit = Polytope::from_box(&[0.0, 0.0], &[1.0, 1.0]);
    println!("== Figure 5 / statement M2 ==");
    println!(
        "  Dom(plan 1, plan 2) computed symbolically; equals [0,1]^2: {}",
        mpq::geometry::union_covers(&ctx, &dom, &unit)
            && dom.iter().all(|r| unit.contains_polytope(&ctx, r))
    );
    // Convexity probe of plan 2's Pareto region (the complement of the
    // unit square within [0,2]²): two member points whose midpoint is not
    // a member.
    let member = |p: &[f64]| !dom.iter().any(|r| r.strictly_contains_point(p));
    let (a, b, mid) = ([1.5, 0.1], [0.1, 1.5], [0.8, 0.8]);
    println!(
        "  {a:?} in Pareto region: {}; {b:?} in Pareto region: {}; their\n\
         \u{20}   midpoint {mid:?} in Pareto region: {}",
        member(&a),
        member(&b),
        member(&mid)
    );
    assert!(member(&a) && member(&b) && !member(&mid));
    println!("  -> the Pareto region of plan 2 is NOT convex (S2 fails; M2 holds).\n");
}

/// Figure 6 — statement M3b: a plan can be Pareto-optimal strictly inside
/// a polytope while being Pareto-optimal at none of its vertices.
fn figure6() {
    let x = interval(0.0, 2.0);
    // Plan 1: (2−σ, σ); plan 2: (σ, 2−σ);
    // plan 3: metric 1 dips to 0.3 at σ = 1 (tent 0.3 + 0.4·|σ−1|),
    //         metric 2 is a high constant 2.0.
    let plan1 = MultiCostFn::new(vec![
        linear(x.clone(), -1.0, 2.0),
        linear(x.clone(), 1.0, 0.0),
    ]);
    let plan2 = MultiCostFn::new(vec![
        linear(x.clone(), 1.0, 0.0),
        linear(x.clone(), -1.0, 2.0),
    ]);
    let plan3 = MultiCostFn::new(vec![
        pwl(&[(0.0, 1.0, -0.4, 0.7), (1.0, 2.0, 0.4, -0.1)]),
        linear(x, 0.0, 2.0),
    ]);
    println!("== Figure 6 / statement M3b ==");
    let plans = [("Plan 1", &plan1), ("Plan 2", &plan2), ("Plan 3", &plan3)];
    show_table(&plans, &[(0.0, 0.5), (0.5, 1.5), (1.5, 2.0)]);
    assert_eq!(pareto_at(&plans, &[0.25]).len(), 2);
    assert_eq!(pareto_at(&plans, &[1.0]).len(), 3);
    assert_eq!(pareto_at(&plans, &[1.75]).len(), 2);
    println!(
        "  -> Plan 3 is Pareto-optimal strictly inside (0.5, 1.5) but at\n\
         \u{20}    neither end: even if all vertices of a polytope agree on their\n\
         \u{20}    Pareto set, new Pareto plans can appear inside (M3b). This\n\
         \u{20}    breaks the termination test of vertex-recursive PQ algorithms\n\
         \u{20}    (Hulgeri & Sudarshan's recursive decomposition), so MPQ needs\n\
         \u{20}    a different algorithm — relevance-region pruning.\n"
    );
}

fn main() {
    println!("Trummer & Koch, VLDB 2014 — Section 4 counterexamples, executed.\n");
    figure4();
    figure5();
    figure6();
    println!(
        "Summary (Table 1): S1–S3 hold for one metric; their multi-metric\n\
         analogues M1–M3 fail, motivating relevance-region pruning (RRPA)."
    );
}
