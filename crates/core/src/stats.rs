//! Optimizer run statistics — the three metrics of Figure 12.

use std::time::Duration;

/// Statistics of one optimization run.
///
/// Figure 12 of the paper reports, per query: optimization time, the
/// number of **created** plans ("including partial plans and plans that
/// were pruned during optimization"), and the number of solved linear
/// programs. Emptiness-check counts are kept by the space, not per run:
/// see [`GridSpace::emptiness_counters`] and
/// [`PwlSpace::emptiness_counters`].
///
/// [`GridSpace::emptiness_counters`]: crate::grid_space::GridSpace::emptiness_counters
/// [`PwlSpace::emptiness_counters`]: crate::pwl_space::PwlSpace::emptiness_counters
#[derive(Debug, Clone, Default)]
pub struct OptStats {
    /// Plans generated, including partial and pruned plans.
    pub plans_created: u64,
    /// Plans discarded because their relevance region emptied.
    pub plans_pruned: u64,
    /// Linear programs solved by this run alone (emptiness, dominance,
    /// redundancy checks). A run executes on one thread, so this is the
    /// difference of two readings of that thread's solve counter
    /// ([`mpq_lp::thread_solved`]): exact even when the queries of a
    /// session batch share one space's LP context on several threads.
    /// On a fresh space it equals the space's own counter.
    pub lps_solved_query: u64,
    /// Wall-clock optimization time.
    pub elapsed: Duration,
    /// Plans in the final Pareto plan set of the full query.
    pub final_plan_count: usize,
    /// Largest Pareto set kept for any table set during the run.
    pub max_plans_per_set: usize,
}

impl OptStats {
    /// One-line summary for logs and harness output.
    pub fn summary(&self) -> String {
        format!(
            "time={:.1}ms plans={} pruned={} lps={} final={} max/set={}",
            self.elapsed.as_secs_f64() * 1e3,
            self.plans_created,
            self.plans_pruned,
            self.lps_solved_query,
            self.final_plan_count,
            self.max_plans_per_set
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_fields() {
        let s = OptStats {
            plans_created: 10,
            plans_pruned: 4,
            lps_solved_query: 99,
            elapsed: Duration::from_millis(12),
            final_plan_count: 3,
            max_plans_per_set: 5,
        };
        let line = s.summary();
        assert!(line.contains("plans=10") && line.contains("lps=99") && line.contains("final=3"));
    }
}
