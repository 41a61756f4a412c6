//! Catalog, query and workload model for MPQ.
//!
//! The MPQ paper (Trummer & Koch, VLDB 2014) represents a query as a set of
//! tables to be joined (Section 2) and evaluates the optimizer on randomly
//! generated chain and star queries following Steinbrunn et al.'s
//! generation method (Section 7). This crate provides that substrate:
//!
//! * [`Table`], [`Predicate`], [`JoinEdge`], [`Query`] — the schema and
//!   query model. Predicate selectivities are either fixed constants or
//!   **parameters** whose value is unknown at optimization time (the `x`
//!   vector of the paper);
//! * [`TableSet`] — a bitset over a query's tables, the DP key of RRPA;
//! * [`card`] — parametric cardinality estimation: the output cardinality
//!   of joining a table set is a monomial `factor · Π_{i∈mask} x_i`
//!   ([`card::CardExpr`]), which is exactly why cost functions with two or
//!   more parameters are non-linear and need PWL approximation;
//! * [`graph`] — join-graph topologies (chain, star, cycle, clique) and
//!   connectivity tests used to postpone Cartesian products;
//! * [`generator`] — the Steinbrunn-style random query generator of the
//!   paper's experimental setup;
//! * [`fault`] — seeded, wall-clock-free fault plans (poison / transient
//!   panics, virtual delays) for deterministic chaos testing of the
//!   service layer, the fault analogue of
//!   [`generator::generate_trace`].

pub mod card;
pub mod fault;
pub mod generator;
pub mod graph;

use serde::{Deserialize, Serialize};

/// A base table with its statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Human-readable name (e.g. `"T3"`).
    pub name: String,
    /// Estimated row count.
    pub rows: f64,
    /// Width of one row in bytes.
    pub row_bytes: f64,
}

/// Selectivity of a predicate: either known at optimization time or a
/// parameter resolved at run time (Section 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Selectivity {
    /// A constant selectivity in `[0, 1]`.
    Fixed(f64),
    /// The value of parameter `i` (the i-th coordinate of the parameter
    /// vector `x`).
    Param(usize),
}

/// A single-table filter predicate (the paper's equality predicates whose
/// selectivities are parameters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Index of the table this predicate filters.
    pub table: usize,
    /// Its selectivity.
    pub selectivity: Selectivity,
}

/// An equality join predicate between two tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinEdge {
    /// First table index.
    pub t1: usize,
    /// Second table index.
    pub t2: usize,
    /// Join selectivity (fraction of the Cartesian product retained).
    pub selectivity: f64,
}

/// A select-project-join query: the set of tables to join, filter
/// predicates, and the join graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Base tables (indices are [`TableSet`] bit positions).
    pub tables: Vec<Table>,
    /// Filter predicates.
    pub predicates: Vec<Predicate>,
    /// Join edges.
    pub joins: Vec<JoinEdge>,
    /// Number of parameters referenced by [`Selectivity::Param`].
    pub num_params: usize,
}

impl Query {
    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// The set of all tables.
    pub fn all_tables(&self) -> TableSet {
        TableSet::all(self.num_tables())
    }

    /// Checks internal consistency (indices in range, parameters dense,
    /// selectivities in `[0, 1]`). Returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_tables();
        if n == 0 {
            return Err("query has no tables".into());
        }
        if n > TableSet::MAX_TABLES {
            return Err(format!("more than {} tables", TableSet::MAX_TABLES));
        }
        let mut seen_params = vec![false; self.num_params];
        for p in &self.predicates {
            if p.table >= n {
                return Err(format!("predicate references table {}", p.table));
            }
            match p.selectivity {
                Selectivity::Fixed(s) => {
                    if !(0.0..=1.0).contains(&s) {
                        return Err(format!("fixed selectivity {s} outside [0, 1]"));
                    }
                }
                Selectivity::Param(i) => {
                    if i >= self.num_params {
                        return Err(format!("parameter index {i} out of range"));
                    }
                    seen_params[i] = true;
                }
            }
        }
        if let Some(i) = seen_params.iter().position(|s| !s) {
            return Err(format!("parameter {i} is never referenced"));
        }
        for e in &self.joins {
            if e.t1 >= n || e.t2 >= n || e.t1 == e.t2 {
                return Err(format!("bad join edge {} - {}", e.t1, e.t2));
            }
            if !(0.0..=1.0).contains(&e.selectivity) {
                return Err(format!("join selectivity {} outside [0, 1]", e.selectivity));
            }
        }
        // Written positively so NaN fails too (`NaN <= 0.0` is false).
        let valid_stat = |v: f64| v.is_finite() && v > 0.0;
        for t in &self.tables {
            if !valid_stat(t.rows) || !valid_stat(t.row_bytes) {
                return Err(format!(
                    "table {} has non-finite or non-positive statistics",
                    t.name
                ));
            }
        }
        Ok(())
    }

    /// Predicates on a given table.
    pub fn predicates_on(&self, table: usize) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(move |p| p.table == table)
    }
}

/// A batch of queries optimized together through one optimizer session
/// (shared parameter space, cost-lifting cache and worker pool). Produced
/// by [`generator::generate_workload`] with a controllable table-overlap
/// ratio.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    /// The queries, in submission order.
    pub queries: Vec<Query>,
}

impl Workload {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True iff the workload holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The largest parameter count over the queries (the dimension the
    /// session's shared parameter space must cover).
    pub fn max_params(&self) -> usize {
        self.queries.iter().map(|q| q.num_params).max().unwrap_or(0)
    }
}

/// A set of tables, packed into a `u64` bitmask. Bit `i` set means table
/// `i` is a member. This is the dynamic-programming key of RRPA
/// (Algorithm 1 iterates over table sets of increasing cardinality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TableSet(pub u64);

impl TableSet {
    /// Maximum number of tables representable.
    pub const MAX_TABLES: usize = 64;

    /// The empty set.
    pub const EMPTY: TableSet = TableSet(0);

    /// The singleton `{table}`.
    pub fn singleton(table: usize) -> Self {
        debug_assert!(table < Self::MAX_TABLES);
        TableSet(1 << table)
    }

    /// The full set `{0, …, n−1}`.
    pub fn all(n: usize) -> Self {
        debug_assert!(n <= Self::MAX_TABLES);
        if n == 64 {
            TableSet(u64::MAX)
        } else {
            TableSet((1u64 << n) - 1)
        }
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True iff no members.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True iff `table` is a member.
    pub fn contains(self, table: usize) -> bool {
        self.0 & (1 << table) != 0
    }

    /// Set union.
    pub fn union(self, other: TableSet) -> TableSet {
        TableSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: TableSet) -> TableSet {
        TableSet(self.0 & other.0)
    }

    /// Set difference `self ∖ other`.
    pub fn minus(self, other: TableSet) -> TableSet {
        TableSet(self.0 & !other.0)
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset_of(self, other: TableSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over member indices in increasing order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// The rank of `table` among the set's members in ascending order
    /// (`None` if `table` is not a member). Ranks are the **local** table
    /// indices of a subtree: relabeling a set's members by rank is
    /// monotone, so subset enumeration orders are preserved — the
    /// embedding-invariance that shared-subplan caching relies on.
    pub fn rank_of(self, table: usize) -> Option<usize> {
        if !self.contains(table) {
            return None;
        }
        Some((self.0 & ((1u64 << table) - 1)).count_ones() as usize)
    }

    /// The member with ascending rank `rank` (`None` if `rank ≥ len`).
    /// Inverse of [`Self::rank_of`].
    pub fn member_at(self, rank: usize) -> Option<usize> {
        self.iter().nth(rank)
    }

    /// Re-labels the members of `self` (⊆ `parent`) by their rank within
    /// `parent`: the subtree-local image of a global table set.
    ///
    /// # Panics
    /// Debug-panics if `self ⊄ parent`.
    pub fn localize_within(self, parent: TableSet) -> TableSet {
        debug_assert!(self.is_subset_of(parent));
        self.iter().fold(TableSet::EMPTY, |acc, t| {
            acc.union(TableSet(1 << parent.rank_of(t).expect("member of parent")))
        })
    }

    /// Interprets the members of `self` as ranks within `parent` and maps
    /// them back to `parent`'s global table indices. Inverse of
    /// [`Self::localize_within`].
    ///
    /// # Panics
    /// Debug-panics if any rank is out of range for `parent`.
    pub fn delocalize_within(self, parent: TableSet) -> TableSet {
        self.iter().fold(TableSet::EMPTY, |acc, rank| {
            acc.union(TableSet::singleton(
                parent.member_at(rank).expect("rank within parent"),
            ))
        })
    }

    /// Iterates over all **proper, non-empty** subsets of `self`.
    ///
    /// Every split of `self` into `(s, self ∖ s)` appears; both orders are
    /// produced, which is what RRPA needs for asymmetric join operators
    /// (build vs. probe side).
    pub fn proper_subsets(self) -> impl Iterator<Item = TableSet> {
        let full = self.0;
        let mut current = full;
        let mut done = full == 0;
        std::iter::from_fn(move || {
            while !done {
                current = (current - 1) & full;
                if current == 0 {
                    done = true;
                    return None;
                }
                if current != full {
                    return Some(TableSet(current));
                }
            }
            None
        })
    }

    /// Iterates over all subsets of the full `n`-table set with exactly
    /// `k` members, in increasing numeric order.
    pub fn subsets_of_size(n: usize, k: usize) -> impl Iterator<Item = TableSet> {
        // Gosper's hack.
        debug_assert!(k >= 1 && k <= n && n < 64);
        let limit = 1u64 << n;
        let mut v = (1u64 << k) - 1;
        let mut exhausted = false;
        std::iter::from_fn(move || {
            if exhausted || v >= limit {
                return None;
            }
            let out = TableSet(v);
            let c = v & v.wrapping_neg();
            let r = v + c;
            if c == 0 || r >= limit {
                exhausted = true;
            } else {
                v = (((r ^ v) >> 2) / c) | r;
            }
            Some(out)
        })
    }
}

impl std::fmt::Display for TableSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tableset_basics() {
        let s = TableSet::singleton(0).union(TableSet::singleton(3));
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(3) && !s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(s.to_string(), "{0,3}");
        assert!(TableSet::singleton(0).is_subset_of(s));
        assert_eq!(s.minus(TableSet::singleton(0)), TableSet::singleton(3));
    }

    #[test]
    fn proper_subsets_enumerate_all_splits() {
        let s = TableSet::all(3);
        let subs: Vec<TableSet> = s.proper_subsets().collect();
        assert_eq!(subs.len(), 6); // 2^3 − 2 (skip empty and full)
        for sub in &subs {
            assert!(!sub.is_empty() && *sub != s && sub.is_subset_of(s));
        }
        // Non-contiguous base set.
        let s = TableSet(0b1010);
        let subs: Vec<TableSet> = s.proper_subsets().collect();
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn subsets_of_size_counts() {
        let count = |n: usize, k: usize| TableSet::subsets_of_size(n, k).count();
        assert_eq!(count(5, 1), 5);
        assert_eq!(count(5, 2), 10);
        assert_eq!(count(5, 5), 1);
        for s in TableSet::subsets_of_size(6, 3) {
            assert_eq!(s.len(), 3);
            assert!(s.is_subset_of(TableSet::all(6)));
        }
    }

    #[test]
    fn rank_and_member_are_inverse() {
        let s = TableSet(0b101100); // {2, 3, 5}
        assert_eq!(s.rank_of(2), Some(0));
        assert_eq!(s.rank_of(3), Some(1));
        assert_eq!(s.rank_of(5), Some(2));
        assert_eq!(s.rank_of(4), None);
        for (rank, t) in s.iter().enumerate() {
            assert_eq!(s.rank_of(t), Some(rank));
            assert_eq!(s.member_at(rank), Some(t));
        }
        assert_eq!(s.member_at(3), None);
    }

    #[test]
    fn localize_delocalize_roundtrip() {
        let parent = TableSet(0b101100); // {2, 3, 5}
        let sub = TableSet(0b100100); // {2, 5}
        let local = sub.localize_within(parent);
        assert_eq!(local, TableSet(0b101), "ranks 0 and 2");
        assert_eq!(local.delocalize_within(parent), sub);
        // Every subset round-trips.
        for sub in parent.proper_subsets() {
            assert_eq!(sub.localize_within(parent).delocalize_within(parent), sub);
        }
        assert_eq!(
            parent.localize_within(parent),
            TableSet::all(3),
            "a set is locally contiguous"
        );
    }

    #[test]
    fn validate_catches_errors() {
        let mut q = Query {
            tables: vec![Table {
                name: "T0".into(),
                rows: 100.0,
                row_bytes: 100.0,
            }],
            predicates: vec![],
            joins: vec![],
            num_params: 0,
        };
        assert!(q.validate().is_ok());
        q.predicates.push(Predicate {
            table: 5,
            selectivity: Selectivity::Fixed(0.5),
        });
        assert!(q.validate().is_err());
        q.predicates[0].table = 0;
        q.predicates[0].selectivity = Selectivity::Param(0);
        assert!(q.validate().is_err(), "param out of declared range");
        q.num_params = 1;
        assert!(q.validate().is_ok());
        q.num_params = 2;
        assert!(q.validate().is_err(), "unused parameter");
        q.num_params = 1;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            q.tables[0].rows = bad;
            assert!(q.validate().is_err(), "rows = {bad} must be rejected");
            q.tables[0].rows = 100.0;
            q.tables[0].row_bytes = bad;
            assert!(q.validate().is_err(), "row_bytes = {bad} must be rejected");
            q.tables[0].row_bytes = 100.0;
        }
        assert!(q.validate().is_ok());
    }
}
