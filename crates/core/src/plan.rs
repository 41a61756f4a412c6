//! Query plan representation.
//!
//! Plans are bushy operator trees built with the paper's `Combine`
//! function: leaves scan base tables, inner nodes join two sub-plans with a
//! physical join operator. Nodes live in a push-only [`PlanArena`] and
//! reference each other by [`PlanId`], so sub-plans are shared between the
//! many plans of the dynamic program without reference counting.

use mpq_catalog::{Query, TableSet};
use mpq_cloud::ops::{JoinOp, ScanOp};

/// Index of a plan node within its [`PlanArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId(pub u32);

/// One operator node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanNode {
    /// Scan of a base table with the chosen access path.
    Scan {
        /// Table index within the query.
        table: usize,
        /// Access path.
        op: ScanOp,
    },
    /// Join of two sub-plans (`Combine(p1, p2, o)` in the paper); `left` is
    /// the build side for hash joins.
    Join {
        /// Physical join operator.
        op: JoinOp,
        /// Build-side sub-plan.
        left: PlanId,
        /// Probe-side sub-plan.
        right: PlanId,
    },
}

/// Arena of plan nodes for one optimization run.
#[derive(Debug, Default, Clone)]
pub struct PlanArena {
    nodes: Vec<PlanNode>,
}

impl PlanArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn push(&mut self, node: PlanNode) -> PlanId {
        let id = PlanId(u32::try_from(self.nodes.len()).expect("fewer than 2^32 plan nodes"));
        self.nodes.push(node);
        id
    }

    /// The node with the given id.
    pub fn node(&self, id: PlanId) -> PlanNode {
        self.nodes[id.0 as usize]
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff no node was created.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The set of tables a plan joins.
    pub fn tables(&self, id: PlanId) -> TableSet {
        match self.node(id) {
            PlanNode::Scan { table, .. } => TableSet::singleton(table),
            PlanNode::Join { left, right, .. } => self.tables(left).union(self.tables(right)),
        }
    }

    /// Number of operator nodes in the plan rooted at `id`.
    pub fn plan_size(&self, id: PlanId) -> usize {
        match self.node(id) {
            PlanNode::Scan { .. } => 1,
            PlanNode::Join { left, right, .. } => 1 + self.plan_size(left) + self.plan_size(right),
        }
    }

    /// Renders a plan as a single-line expression, e.g.
    /// `HashJoin[1-node](IndexSeek(T0), TableScan(T1))`.
    pub fn display(&self, id: PlanId, query: &Query) -> String {
        match self.node(id) {
            PlanNode::Scan { table, op } => {
                format!("{op}({})", query.tables[table].name)
            }
            PlanNode::Join { op, left, right } => {
                format!(
                    "{op}({}, {})",
                    self.display(left, query),
                    self.display(right, query)
                )
            }
        }
    }

    /// Renders a plan as an indented tree (one operator per line).
    pub fn display_tree(&self, id: PlanId, query: &Query) -> String {
        let mut out = String::new();
        self.display_tree_rec(id, query, 0, &mut out);
        out
    }

    fn display_tree_rec(&self, id: PlanId, query: &Query, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self.node(id) {
            PlanNode::Scan { table, op } => {
                out.push_str(&format!("{op} {}\n", query.tables[table].name));
            }
            PlanNode::Join { op, left, right } => {
                out.push_str(&format!("{op}\n"));
                self.display_tree_rec(left, query, depth + 1, out);
                self.display_tree_rec(right, query, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_catalog::Table;

    fn query3() -> Query {
        Query {
            tables: (0..3)
                .map(|i| Table {
                    name: format!("T{i}"),
                    rows: 1000.0,
                    row_bytes: 100.0,
                })
                .collect(),
            predicates: vec![],
            joins: vec![],
            num_params: 0,
        }
    }

    #[test]
    fn arena_builds_and_describes_plans() {
        let q = query3();
        let mut arena = PlanArena::new();
        let s0 = arena.push(PlanNode::Scan {
            table: 0,
            op: ScanOp::IndexSeek,
        });
        let s1 = arena.push(PlanNode::Scan {
            table: 1,
            op: ScanOp::TableScan,
        });
        let j = arena.push(PlanNode::Join {
            op: JoinOp::SingleNodeHash,
            left: s0,
            right: s1,
        });
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.tables(j), TableSet(0b011));
        assert_eq!(arena.plan_size(j), 3);
        assert_eq!(
            arena.display(j, &q),
            "HashJoin[1-node](IndexSeek(T0), TableScan(T1))"
        );
        let tree = arena.display_tree(j, &q);
        assert!(tree.contains("HashJoin[1-node]\n  IndexSeek T0\n  TableScan T1"));
    }

    #[test]
    fn bushy_trees_compose() {
        let mut arena = PlanArena::new();
        let s: Vec<PlanId> = (0..4)
            .map(|t| {
                arena.push(PlanNode::Scan {
                    table: t,
                    op: ScanOp::TableScan,
                })
            })
            .collect();
        let l = arena.push(PlanNode::Join {
            op: JoinOp::SingleNodeHash,
            left: s[0],
            right: s[1],
        });
        let r = arena.push(PlanNode::Join {
            op: JoinOp::ParallelHash,
            left: s[2],
            right: s[3],
        });
        let top = arena.push(PlanNode::Join {
            op: JoinOp::SingleNodeHash,
            left: l,
            right: r,
        });
        assert_eq!(arena.tables(top), TableSet(0b1111));
        assert_eq!(arena.plan_size(top), 7);
    }
}
