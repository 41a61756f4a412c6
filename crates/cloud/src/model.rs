//! The cost-model interface consumed by the optimizer, and the Cloud
//! implementation.
//!
//! A [`ParametricCostModel`] enumerates the physical alternatives for scans
//! and joins and prices each alternative with a **closure over the
//! parameter vector** `x`. The optimizer lifts these closures onto its
//! piecewise-linear representation (grid interpolation), so models are free
//! to use arbitrary non-linear formulas.
//!
//! Costs are *incremental* per Algorithm 1's `AccumulateCost`: a join
//! alternative prices only the final join operation; the optimizer adds the
//! accumulated costs of the two sub-plans.

use crate::join::{parallel_hash_join_cost, single_node_hash_join_cost, JoinStats};
use crate::ops::{JoinOp, ScanOp};
use crate::scan::{index_seek_cost, table_scan_cost};
use crate::shape::{tag, OpShape};
use crate::{ClusterConfig, NUM_METRICS};
use mpq_catalog::{Query, Selectivity, TableSet};
use std::convert::identity;

/// A cost closure: parameter vector ↦ one value per metric.
pub type CostClosure = Box<dyn Fn(&[f64]) -> Vec<f64> + Send + Sync>;

/// One physical alternative for scanning a base table.
pub struct ScanAlternative {
    /// Operator descriptor (used in plan display).
    pub op: ScanOp,
    /// Full cost of the scan as a function of the parameters.
    pub cost: CostClosure,
    /// Canonical identity of the cost shape, if the closure's output is
    /// fully determined by it (see [`crate::shape`]); keys the cross-query
    /// cost-lifting cache. `None` opts out of caching.
    pub shape: Option<OpShape>,
}

/// One physical alternative for the final join of two table sets.
pub struct JoinAlternative {
    /// Operator descriptor (used in plan display).
    pub op: JoinOp,
    /// Incremental cost of the join operation itself as a function of the
    /// parameters (sub-plan costs are accumulated by the optimizer).
    pub cost: CostClosure,
    /// Canonical identity of the cost shape (see
    /// [`ScanAlternative::shape`]).
    pub shape: Option<OpShape>,
}

/// Interface between cost models and the optimizer.
///
/// Implementations must be deterministic: the optimizer may call the
/// closures many times (once per grid vertex).
pub trait ParametricCostModel: Send + Sync {
    /// Number of cost metrics (must match every closure's output arity).
    fn num_metrics(&self) -> usize;

    /// Human-readable metric names, e.g. `["time", "fees"]`.
    fn metric_names(&self) -> Vec<&'static str>;

    /// Physical alternatives for scanning `table` of `query`.
    fn scan_alternatives(&self, query: &Query, table: usize) -> Vec<ScanAlternative>;

    /// Physical alternatives for joining `left` (build side) with `right`
    /// (probe side). Alternatives may differ between orientations — the
    /// optimizer enumerates both.
    fn join_alternatives(
        &self,
        query: &Query,
        left: TableSet,
        right: TableSet,
    ) -> Vec<JoinAlternative>;

    /// Canonical identity of the **whole optimization subproblem** over
    /// `tables` of `query` — the key of the shared-subplan cache
    /// (`mpq_core::rrpa`).
    ///
    /// # Soundness contract
    ///
    /// A model may return `Some` **only if** the shape words determine —
    /// given the model instance — every input the per-subtree dynamic
    /// program reads: all scan alternatives of the member tables, all
    /// join alternatives of every split of every subset, all internal
    /// cardinality/row-width statistics (in their *storage order*, since
    /// floating-point folds are order-sensitive), and the join-graph
    /// connectivity used for Cartesian-product postponement. Member
    /// tables are identified by their **rank** within `tables`
    /// ([`TableSet::rank_of`]) so structurally identical subtrees over
    /// different base-table indices share a key; parameter indices stay
    /// **global**, because cached cost functions live in the session's
    /// shared parameter space. Models that cannot key a subtree exactly
    /// return `None` (the default) and simply opt out of subplan sharing.
    fn subtree_shape(&self, _query: &Query, _tables: TableSet) -> Option<OpShape> {
        None
    }
}

/// The shape tags of the four alternatives [`exact_scans`] and
/// [`hash_joins`] build, so two models never share a shape.
pub(crate) struct ShapeTags {
    pub(crate) table_scan: u64,
    pub(crate) index_seek: u64,
    pub(crate) single_node_hash: u64,
    pub(crate) parallel_hash: u64,
}

const CLOUD_TAGS: ShapeTags = ShapeTags {
    table_scan: tag::TABLE_SCAN,
    index_seek: tag::INDEX_SEEK,
    single_node_hash: tag::SINGLE_NODE_HASH,
    parallel_hash: tag::PARALLEL_HASH,
};

/// The exact scans of `table`: a full table scan and, when the table
/// has a predicate, an index seek, each cost passed through `wrap` (the
/// Cloud model's is the identity, which compiles away).
pub(crate) fn exact_scans<W>(
    cluster: &ClusterConfig,
    query: &Query,
    table: usize,
    tags: &ShapeTags,
    wrap: W,
) -> Vec<ScanAlternative>
where
    W: Fn(Vec<f64>) -> Vec<f64> + Copy + Send + Sync + 'static,
{
    let rows = query.tables[table].rows;
    let row_bytes = query.tables[table].row_bytes;
    let mut out = Vec::with_capacity(2);
    // Full scan: reads everything, selectivity-independent.
    let scan_cost = wrap(table_scan_cost(cluster, rows, row_bytes));
    out.push(ScanAlternative {
        op: ScanOp::TableScan,
        cost: Box::new(move |_x| scan_cost.clone()),
        shape: Some(OpShape::new(tags.table_scan).scalar(rows).scalar(row_bytes)),
    });
    // Index seek: only available when the table has a predicate to
    // drive the index (paper: indices exist per predicate column).
    if query.predicates_on(table).next().is_some() {
        let matching = query.base_card(table);
        let cluster = cluster.clone();
        out.push(ScanAlternative {
            op: ScanOp::IndexSeek,
            cost: Box::new(move |x| wrap(index_seek_cost(&cluster, matching.eval(x)))),
            shape: Some(OpShape::new(tags.index_seek).card(&matching)),
        });
    }
    out
}

/// The single-node and parallel hash joins of `left` (build side) with
/// `right` (probe side), each cost passed through `wrap` as in
/// [`exact_scans`].
pub(crate) fn hash_joins<W>(
    cluster: &ClusterConfig,
    query: &Query,
    left: TableSet,
    right: TableSet,
    tags: &ShapeTags,
    wrap: W,
) -> Vec<JoinAlternative>
where
    W: Fn(Vec<f64>) -> Vec<f64> + Copy + Send + Sync + 'static,
{
    let build = query.join_card(left);
    let probe = query.join_card(right);
    let output = query.join_card(left.union(right));
    let build_row_bytes = query.row_bytes(left);
    let probe_row_bytes = query.row_bytes(right);
    let stats_at = move |x: &[f64]| JoinStats {
        build_rows: build.eval(x),
        build_row_bytes,
        probe_rows: probe.eval(x),
        probe_row_bytes,
        out_rows: output.eval(x),
    };
    let c1 = cluster.clone();
    let c2 = cluster.clone();
    // Both join closures are pure in the operand/output cardinality
    // monomials and the two row widths.
    let join_shape = |t: u64| {
        Some(
            OpShape::new(t)
                .card(&build)
                .card(&probe)
                .card(&output)
                .scalar(build_row_bytes)
                .scalar(probe_row_bytes),
        )
    };
    vec![
        JoinAlternative {
            op: JoinOp::SingleNodeHash,
            cost: Box::new(move |x| wrap(single_node_hash_join_cost(&c1, &stats_at(x)))),
            shape: join_shape(tags.single_node_hash),
        },
        JoinAlternative {
            op: JoinOp::ParallelHash,
            cost: Box::new(move |x| wrap(parallel_hash_join_cost(&c2, &stats_at(x)))),
            shape: join_shape(tags.parallel_hash),
        },
    ]
}

/// The paper's Cloud scenario: execution time and monetary fees
/// ([`crate::METRIC_TIME`], [`crate::METRIC_FEES`]).
#[derive(Debug, Clone, Default)]
pub struct CloudCostModel {
    /// Cluster hardware/pricing profile.
    pub cluster: ClusterConfig,
}

impl CloudCostModel {
    /// A model over the given cluster profile.
    pub fn new(cluster: ClusterConfig) -> Self {
        Self { cluster }
    }
}

impl ParametricCostModel for CloudCostModel {
    fn num_metrics(&self) -> usize {
        NUM_METRICS
    }

    fn metric_names(&self) -> Vec<&'static str> {
        vec!["time (s)", "fees (USD)"]
    }

    fn scan_alternatives(&self, query: &Query, table: usize) -> Vec<ScanAlternative> {
        exact_scans(&self.cluster, query, table, &CLOUD_TAGS, identity)
    }

    fn join_alternatives(
        &self,
        query: &Query,
        left: TableSet,
        right: TableSet,
    ) -> Vec<JoinAlternative> {
        hash_joins(&self.cluster, query, left, right, &CLOUD_TAGS, identity)
    }

    /// Every Cloud cost input is catalog statistics: per-table
    /// cardinalities and row widths, predicate selectivities (fixed bits
    /// or global parameter index) and join-edge selectivities. Folding
    /// them — members by rank, predicates and edges in storage order —
    /// therefore determines every scan/join alternative and every
    /// cardinality monomial the subtree DP can form, which is exactly the
    /// soundness contract. The cluster profile is fixed per model
    /// instance, like for operator shapes.
    fn subtree_shape(&self, query: &Query, tables: TableSet) -> Option<OpShape> {
        let rank = |t: usize| tables.rank_of(t).expect("subtree member") as u64;
        let mut shape = OpShape::new(tag::SUBTREE_BASE)
            .word(tables.len() as u64)
            .word(query.num_params as u64);
        for t in tables.iter() {
            shape = shape
                .scalar(query.tables[t].rows)
                .scalar(query.tables[t].row_bytes);
        }
        // Section lengths are folded in so adjacent variable-length
        // sections can never alias across different subtree structures.
        let preds = query.predicates.iter().filter(|p| tables.contains(p.table));
        shape = shape.word(preds.clone().count() as u64);
        for p in preds {
            shape = shape.word(rank(p.table));
            shape = match p.selectivity {
                Selectivity::Fixed(s) => shape.word(0).scalar(s),
                Selectivity::Param(i) => shape.word(1).word(i as u64),
            };
        }
        let joins = query
            .joins
            .iter()
            .filter(|j| tables.contains(j.t1) && tables.contains(j.t2));
        shape = shape.word(joins.clone().count() as u64);
        for j in joins {
            shape = shape
                .word(rank(j.t1))
                .word(rank(j.t2))
                .scalar(j.selectivity);
        }
        Some(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{METRIC_FEES, METRIC_TIME};
    use mpq_catalog::{JoinEdge, Predicate, Selectivity, Table};

    fn query() -> Query {
        Query {
            tables: vec![
                Table {
                    name: "A".into(),
                    rows: 50_000.0,
                    row_bytes: 100.0,
                },
                Table {
                    name: "B".into(),
                    rows: 80_000.0,
                    row_bytes: 100.0,
                },
            ],
            predicates: vec![Predicate {
                table: 0,
                selectivity: Selectivity::Param(0),
            }],
            joins: vec![JoinEdge {
                t1: 0,
                t2: 1,
                selectivity: 1e-4,
            }],
            num_params: 1,
        }
    }

    #[test]
    fn scan_alternatives_depend_on_predicates() {
        let m = CloudCostModel::default();
        let q = query();
        let with_pred = m.scan_alternatives(&q, 0);
        assert_eq!(with_pred.len(), 2, "scan + index seek");
        let without_pred = m.scan_alternatives(&q, 1);
        assert_eq!(without_pred.len(), 1, "scan only");
    }

    #[test]
    fn index_seek_tracks_parameter() {
        let m = CloudCostModel::default();
        let q = query();
        let alts = m.scan_alternatives(&q, 0);
        let seek = alts
            .iter()
            .find(|a| a.op == ScanOp::IndexSeek)
            .expect("index seek available");
        let lo = (seek.cost)(&[0.01]);
        let hi = (seek.cost)(&[0.9]);
        assert!(lo[METRIC_TIME] < hi[METRIC_TIME]);
        let scan = alts
            .iter()
            .find(|a| a.op == ScanOp::TableScan)
            .expect("table scan available");
        let scan_cost = (scan.cost)(&[0.5]);
        assert!(lo[METRIC_TIME] < scan_cost[METRIC_TIME]);
        assert!(hi[METRIC_TIME] > scan_cost[METRIC_TIME]);
    }

    #[test]
    fn join_alternatives_trade_time_for_fees() {
        let m = CloudCostModel::default();
        let q = query();
        let alts = m.join_alternatives(&q, TableSet::singleton(0), TableSet::singleton(1));
        assert_eq!(alts.len(), 2);
        let x = [1.0];
        let single = alts
            .iter()
            .find(|a| a.op == JoinOp::SingleNodeHash)
            .map(|a| (a.cost)(&x))
            .unwrap();
        let parallel = alts
            .iter()
            .find(|a| a.op == JoinOp::ParallelHash)
            .map(|a| (a.cost)(&x))
            .unwrap();
        assert!(parallel[METRIC_FEES] > single[METRIC_FEES]);
    }

    /// Structurally identical subtrees key identically even when they sit
    /// on different global table indices — the rank-relabeling at the
    /// heart of cross-query subplan sharing.
    #[test]
    fn subtree_shape_is_embedding_invariant() {
        let m = CloudCostModel::default();
        let table = |rows: f64| Table {
            name: "T".into(),
            rows,
            row_bytes: 100.0,
        };
        // q1: the subtree lives on tables {0, 1}.
        let q1 = Query {
            tables: vec![table(50_000.0), table(80_000.0)],
            predicates: vec![Predicate {
                table: 0,
                selectivity: Selectivity::Param(0),
            }],
            joins: vec![JoinEdge {
                t1: 0,
                t2: 1,
                selectivity: 1e-4,
            }],
            num_params: 1,
        };
        // q2: the same subtree embedded on tables {1, 2} of a wider query.
        let q2 = Query {
            tables: vec![table(999.0), table(50_000.0), table(80_000.0)],
            predicates: vec![Predicate {
                table: 1,
                selectivity: Selectivity::Param(0),
            }],
            joins: vec![JoinEdge {
                t1: 1,
                t2: 2,
                selectivity: 1e-4,
            }],
            num_params: 1,
        };
        let s1 = m.subtree_shape(&q1, TableSet(0b011)).unwrap();
        let s2 = m.subtree_shape(&q2, TableSet(0b110)).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.stable_hash(), s2.stable_hash());
    }

    #[test]
    fn subtree_shape_distinguishes_content() {
        let m = CloudCostModel::default();
        let q = query();
        let all = TableSet(0b11);
        let base = m.subtree_shape(&q, all).unwrap();
        // Different join selectivity → different key.
        let mut q2 = q.clone();
        q2.joins[0].selectivity = 2e-4;
        assert_ne!(m.subtree_shape(&q2, all).unwrap(), base);
        // Different global parameter index → different key (cached costs
        // live in the session's global parameter space).
        let mut q3 = q.clone();
        q3.predicates[0].selectivity = Selectivity::Param(1);
        q3.num_params = 2;
        assert_ne!(m.subtree_shape(&q3, all).unwrap(), base);
        // Dropping the predicate changes the key.
        let mut q4 = q.clone();
        q4.predicates.clear();
        q4.num_params = 0;
        assert_ne!(m.subtree_shape(&q4, all).unwrap(), base);
        // A single-table subtree ignores content outside the set.
        let t0 = TableSet(0b01);
        assert_eq!(
            m.subtree_shape(&q, t0).unwrap(),
            m.subtree_shape(&q2, t0).unwrap(),
            "join selectivity outside the subtree must not leak in"
        );
    }

    #[test]
    fn metric_arity_matches() {
        let m = CloudCostModel::default();
        assert_eq!(m.num_metrics(), 2);
        assert_eq!(m.metric_names().len(), 2);
        let q = query();
        for a in m.scan_alternatives(&q, 0) {
            assert_eq!((a.cost)(&[0.5]).len(), 2);
        }
    }
}
