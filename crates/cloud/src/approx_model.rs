//! Approximate-query-processing cost model (Scenario 2 of the paper).
//!
//! In approximate query processing, execution time can be traded against
//! **result precision** (paper §1, Scenario 2, citing BlinkDB): scanning
//! only a sample of a table is faster but degrades the answer. Precision is
//! a quality (higher is better), so per Section 2 it is modelled as
//! **precision loss** — a cost metric where lower is better.
//!
//! Operators:
//! * an **exact scan** (full cost, zero loss) and **sampled scans** at a
//!   set of sampling rates `r` (time scales with `r`; loss grows with
//!   `1 − r`);
//! * the same single-node/parallel hash joins as the Cloud model on the
//!   time metric; joins add no loss of their own but propagate it.
//!
//! Loss accumulates additively over operators, satisfying the Principle of
//! Optimality the completeness proof requires.
//!
//! Simplification: join alternatives are priced per operand *table set*
//! (the DP interface), so join inputs are costed at full cardinality even
//! below a sampled scan — a conservative upper bound on time. Sampling
//! therefore trades scan time and precision; making joins benefit from
//! sampled inputs would require cardinality to become part of per-plan
//! state, which the MPQ plan model (and the paper) does not track.

use crate::model::{
    exact_scans, hash_joins, JoinAlternative, ParametricCostModel, ScanAlternative, ShapeTags,
};
use crate::ops::ScanOp;
use crate::scan::table_scan_cost;
use crate::shape::{tag, OpShape};
use crate::ClusterConfig;
use mpq_catalog::{Query, TableSet};

/// Metric index of precision loss in the approximate model.
pub const METRIC_LOSS: usize = 1;

/// Shape tags of this model's exact operators and joins (distinct from
/// the Cloud model's).
const TAGS: ShapeTags = ShapeTags {
    table_scan: tag::APPROX_BASE,
    index_seek: tag::APPROX_BASE + 1,
    single_node_hash: tag::APPROX_BASE + 3,
    parallel_hash: tag::APPROX_BASE + 4,
};
/// Shape tag of the sampled scans.
const T_SAMPLED: u64 = tag::APPROX_BASE + 2;

/// Cost model trading execution time against result-precision loss.
#[derive(Debug, Clone)]
pub struct ApproxCostModel {
    /// Cluster profile used for the time metric.
    pub cluster: ClusterConfig,
    /// Available sampling rates (fractions of a table scanned), each
    /// yielding one sampled-scan alternative. Must lie in `(0, 1)`.
    pub sampling_rates: Vec<f64>,
    /// Loss incurred by sampling a table at rate `r` is
    /// `loss_scale · (1 − r)`.
    pub loss_scale: f64,
}

impl Default for ApproxCostModel {
    fn default() -> Self {
        Self {
            cluster: ClusterConfig::default(),
            sampling_rates: vec![0.01, 0.1, 0.5],
            loss_scale: 1.0,
        }
    }
}

fn with_loss(mut time_fees: Vec<f64>, loss: f64) -> Vec<f64> {
    // Reuse the time component of the Cloud formulas; replace fees by loss.
    time_fees[METRIC_LOSS] = loss;
    time_fees
}

/// The wrap of the exact operators and the joins: they lose nothing.
fn no_loss(time_fees: Vec<f64>) -> Vec<f64> {
    with_loss(time_fees, 0.0)
}

impl ParametricCostModel for ApproxCostModel {
    fn num_metrics(&self) -> usize {
        2
    }

    fn metric_names(&self) -> Vec<&'static str> {
        vec!["time (s)", "precision loss"]
    }

    fn scan_alternatives(&self, query: &Query, table: usize) -> Vec<ScanAlternative> {
        let rows = query.tables[table].rows;
        let row_bytes = query.tables[table].row_bytes;
        // The exact scan and index seek: zero loss.
        let mut out = exact_scans(&self.cluster, query, table, &TAGS, no_loss);
        // Sampled scans: cheaper, lossy. Modelled as table scans over the
        // sampled fraction.
        for &rate in &self.sampling_rates {
            debug_assert!((0.0..1.0).contains(&rate) && rate > 0.0);
            let cost = with_loss(
                table_scan_cost(&self.cluster, rows * rate, row_bytes),
                self.loss_scale * (1.0 - rate),
            );
            out.push(ScanAlternative {
                op: ScanOp::SampledScan {
                    permille: (rate * 1000.0).round() as u32,
                },
                cost: Box::new(move |_x| cost.clone()),
                shape: Some(
                    OpShape::new(T_SAMPLED)
                        .scalar(rows)
                        .scalar(row_bytes)
                        .scalar(rate),
                ),
            });
        }
        out
    }

    fn join_alternatives(
        &self,
        query: &Query,
        left: TableSet,
        right: TableSet,
    ) -> Vec<JoinAlternative> {
        hash_joins(&self.cluster, query, left, right, &TAGS, no_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::METRIC_TIME;
    use mpq_catalog::{Predicate, Selectivity, Table};

    fn query() -> Query {
        Query {
            tables: vec![Table {
                name: "A".into(),
                rows: 100_000.0,
                row_bytes: 100.0,
            }],
            predicates: vec![Predicate {
                table: 0,
                selectivity: Selectivity::Param(0),
            }],
            joins: vec![],
            num_params: 1,
        }
    }

    #[test]
    fn sampled_scans_trade_time_for_loss() {
        let m = ApproxCostModel::default();
        let q = query();
        let alts = m.scan_alternatives(&q, 0);
        // Exact scan + index seek + 3 sampled scans.
        assert_eq!(alts.len(), 5);
        let costs: Vec<Vec<f64>> = alts.iter().map(|a| (a.cost)(&[0.5])).collect();
        let exact = &costs[0];
        assert_eq!(exact[METRIC_LOSS], 0.0);
        // Every sampled scan is faster than exact but lossy.
        for c in &costs[2..] {
            assert!(c[METRIC_TIME] < exact[METRIC_TIME]);
            assert!(c[METRIC_LOSS] > 0.0);
        }
        // Lower sampling rate → faster and lossier (Pareto frontier).
        assert!(costs[2][METRIC_TIME] < costs[4][METRIC_TIME]);
        assert!(costs[2][METRIC_LOSS] > costs[4][METRIC_LOSS]);
    }

    #[test]
    fn joins_add_no_loss() {
        let m = ApproxCostModel::default();
        let mut q = query();
        q.tables.push(Table {
            name: "B".into(),
            rows: 10_000.0,
            row_bytes: 100.0,
        });
        q.joins.push(mpq_catalog::JoinEdge {
            t1: 0,
            t2: 1,
            selectivity: 1e-4,
        });
        let alts = m.join_alternatives(&q, TableSet::singleton(0), TableSet::singleton(1));
        for a in alts {
            let c = (a.cost)(&[0.5]);
            assert_eq!(c[METRIC_LOSS], 0.0);
            assert!(c[METRIC_TIME] > 0.0);
        }
    }
}
