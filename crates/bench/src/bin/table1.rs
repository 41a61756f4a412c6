//! Executable verification of **Table 1** of the paper: the single-metric
//! guiding principles S1–S3 hold, and their multi-metric analogues M1–M3
//! fail.
//!
//! S1–S3 are checked on randomly generated single-metric linear cost
//! functions (many instances); M1–M3 are demonstrated with the paper's
//! Figures 4–6 counterexamples, evaluated on the real cost-function
//! machinery.
//!
//! Usage: cargo run --release -p mpq-bench --bin table1

use mpq_bench::counterexamples::{
    check_s1_s3, check_s2, figure4_plans, figure5_plans, figure6_plans, pareto_at,
};

fn main() {
    println!("# Table 1 verification\n");

    println!("## Single cost metric (statements proven by Ganguly [13])");
    let s1 = check_s1_s3(2000);
    println!(
        "S1/S3: optimal at two points => optimal between them (2000 random\n\
         \u{20}      linear instances): {}",
        if s1 { "HOLDS" } else { "VIOLATED" }
    );
    let s2 = check_s2(500);
    println!(
        "S2:    per-plan optimality regions are connected intervals (500\n\
         \u{20}      random instances x 6 plans): {}",
        if s2 { "HOLDS" } else { "VIOLATED" }
    );
    assert!(s1 && s2, "single-metric principles must hold");

    println!("\n## Multiple cost metrics (counterexamples of Section 4)");

    // M1 / M3a — Figure 4.
    let f4 = figure4_plans();
    let outer_l = pareto_at(&f4, &[0.5]);
    let middle = pareto_at(&f4, &[1.5]);
    let outer_r = pareto_at(&f4, &[2.5]);
    println!(
        "M1/M3a: Pareto plans at sigma = 0.5 / 1.5 / 2.5: {:?} / {:?} / {:?}",
        outer_l, middle, outer_r
    );
    assert!(
        outer_l.contains(&"Plan 2") && outer_r.contains(&"Plan 2") && !middle.contains(&"Plan 2")
    );
    println!(
        "        -> Plan 2 Pareto-optimal at two points but not in between: \
         M1 and M3a CONFIRMED"
    );

    // M2 — Figure 5: non-convex Pareto region.
    let f5 = figure5_plans();
    let member = |x: &[f64]| pareto_at(&f5, x).contains(&"Plan 2");
    let (a, b, mid) = ([1.5, 0.1], [0.1, 1.5], [0.8, 0.8]);
    println!(
        "M2:     Plan 2 Pareto at {a:?}: {}, at {b:?}: {}, at their midpoint {mid:?}: {}",
        member(&a),
        member(&b),
        member(&mid)
    );
    assert!(member(&a) && member(&b) && !member(&mid));
    println!("        -> Pareto region not convex: M2 CONFIRMED");

    // M3b — Figure 6.
    let f6 = figure6_plans();
    let ends = (pareto_at(&f6, &[0.25]), pareto_at(&f6, &[1.75]));
    let inside = pareto_at(&f6, &[1.0]);
    println!(
        "M3b:    Pareto plans at 0.25 / 1.0 / 1.75: {:?} / {:?} / {:?}",
        ends.0, inside, ends.1
    );
    assert!(
        !ends.0.contains(&"Plan 3") && !ends.1.contains(&"Plan 3") && inside.contains(&"Plan 3")
    );
    println!(
        "        -> Plan 3 Pareto-optimal inside a region but at none of its\n\
         \u{20}          vertices: M3b CONFIRMED"
    );

    println!(
        "\nAll Table 1 statements verified: parameter-space decomposition\n\
         algorithms (non-intrusive PQ) cannot be generalised to MPQ."
    );
}
