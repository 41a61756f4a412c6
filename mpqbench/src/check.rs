//! Answer checks. An answer is compared through its `PlanSummary` at
//! fixed probe points: the plan counters and the Pareto frontier at each
//! probe, bit for bit. The LP count is left out, because the caches
//! legitimately skip LPs, and an optimization that removes LPs must not
//! read as a wrong answer.

use mpq_net::wire::PlanSummary;

/// Probe points of a `dim`-parameter space: the corners and centre of the
/// unit box along its diagonal, plus an off-diagonal point in 2-D.
pub fn probes(dim: usize) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = [0.0, 0.15, 0.5, 0.85, 1.0]
        .iter()
        .map(|&v| vec![v; dim])
        .collect();
    if dim == 2 {
        out.push(vec![0.25, 0.75]);
    }
    out
}

/// A 64-bit FNV-1a digest of everything an answer is checked on.
pub fn digest(s: &PlanSummary) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    word(s.plans_created);
    word(s.plans_pruned);
    word(s.final_plan_count);
    for frontier in &s.frontiers {
        word(frontier.len() as u64);
        for (id, costs) in frontier {
            word(*id);
            for c in costs {
                word(c.to_bits());
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_lps_but_not_frontier_bits() {
        let a = PlanSummary {
            plans_created: 10,
            plans_pruned: 4,
            lps_solved_query: 99,
            final_plan_count: 2,
            frontiers: vec![vec![(1, vec![1.0, 2.0]), (3, vec![2.0, 1.0])]],
        };
        let fewer_lps = PlanSummary {
            lps_solved_query: 7,
            ..a.clone()
        };
        assert_eq!(digest(&a), digest(&fewer_lps));
        let mut nudged = a.clone();
        nudged.frontiers[0][0].1[0] = f64::from_bits(1.0f64.to_bits() + 1);
        assert_ne!(digest(&a), digest(&nudged));
        assert_eq!(probes(1).len(), 5);
        assert_eq!(probes(2).len(), 6);
    }
}
