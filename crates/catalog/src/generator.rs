//! Random query generation following Steinbrunn et al.
//!
//! Section 7 of the MPQ paper: "We evaluate the performance of PWL-RRPA on
//! randomly generated queries, using the generation method proposed by
//! Steinbrunn \[29\] … to choose table cardinalities and join predicates; we
//! assume that unique values occupy up to 10% of a table column."
//!
//! Concretely:
//!
//! * table cardinalities are log-uniform in `[min_rows, max_rows]`
//!   (default `[100, 100 000]`);
//! * every join column's distinct-value count is uniform in
//!   `[1, 0.1 · |T|]`, and an equality join between columns with `d₁` and
//!   `d₂` distinct values has selectivity `1 / max(d₁, d₂)`;
//! * `num_params` distinct tables carry an equality predicate whose
//!   selectivity is a **parameter** (the paper: "one parameter is required
//!   for each table with a predicate");
//! * the join graph shape is a [`Topology`] (the paper evaluates chain and
//!   star).
//!
//! All randomness flows through the caller-provided RNG, so experiments are
//! reproducible from a seed.
//!
//! # Workloads
//!
//! [`generate_workload`] emits a *batch* of queries with a controllable
//! **table-overlap ratio**: each non-base query redraws every table with
//! probability `1 − overlap` and otherwise reuses the base query's table
//! statistics (and, where both endpoints are shared, its join
//! selectivities and predicate placement). At `overlap = 1` the batch is
//! `num_queries` copies of the base query — every operator cost shape
//! repeats — and at `overlap = 0` the queries are independent. This is the
//! scenario axis exercised by batched multi-query optimization with a
//! shared cost-lifting cache.

use crate::graph::Topology;
use crate::{JoinEdge, Predicate, Query, Selectivity, Table, Workload};
use rand::Rng;

/// Configuration for the random query generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of tables to join.
    pub num_tables: usize,
    /// Join graph shape.
    pub topology: Topology,
    /// Number of parameterised predicates (each on a distinct table).
    pub num_params: usize,
    /// Smallest table cardinality.
    pub min_rows: f64,
    /// Largest table cardinality.
    pub max_rows: f64,
    /// Smallest row width in bytes.
    pub min_row_bytes: f64,
    /// Largest row width in bytes.
    pub max_row_bytes: f64,
    /// Fraction of a column that distinct values occupy at most (the
    /// paper's 10%).
    pub max_distinct_fraction: f64,
}

impl GeneratorConfig {
    /// The paper's experimental setup for a given size, shape and number of
    /// parameters.
    pub fn paper(num_tables: usize, topology: Topology, num_params: usize) -> Self {
        Self {
            num_tables,
            topology,
            num_params,
            min_rows: 100.0,
            max_rows: 100_000.0,
            min_row_bytes: 50.0,
            max_row_bytes: 200.0,
            max_distinct_fraction: 0.1,
        }
    }
}

/// Draws table `i`'s statistics (log-uniform cardinality, uniform row
/// width) — shared by the single-query and workload generators so their
/// statistics models can never diverge.
fn draw_table(cfg: &GeneratorConfig, rng: &mut impl Rng, i: usize) -> Table {
    let log_rows = rng.gen_range(cfg.min_rows.ln()..=cfg.max_rows.ln());
    Table {
        name: format!("T{i}"),
        rows: log_rows.exp().round(),
        row_bytes: rng.gen_range(cfg.min_row_bytes..=cfg.max_row_bytes).round(),
    }
}

/// Draws a join column's distinct-value count (uniform in
/// `[1, max_distinct_fraction · rows]`).
fn draw_distinct(cfg: &GeneratorConfig, rng: &mut impl Rng, rows: f64) -> f64 {
    let max_d = (rows * cfg.max_distinct_fraction).max(1.0);
    rng.gen_range(1.0..=max_d).round().max(1.0)
}

/// Generates one random query.
///
/// # Panics
/// Panics if `num_params > num_tables` (each parameterised predicate needs
/// its own table) or `num_tables` is zero.
pub fn generate(cfg: &GeneratorConfig, rng: &mut impl Rng) -> Query {
    assert!(cfg.num_tables >= 1, "a query needs at least one table");
    assert!(
        cfg.num_params <= cfg.num_tables,
        "each parameterised predicate needs a distinct table"
    );
    let tables: Vec<Table> = (0..cfg.num_tables)
        .map(|i| draw_table(cfg, rng, i))
        .collect();

    // Choose the parameterised tables: a random subset of distinct indices.
    let mut param_tables: Vec<usize> = (0..cfg.num_tables).collect();
    for i in 0..cfg.num_params {
        let j = rng.gen_range(i..cfg.num_tables);
        param_tables.swap(i, j);
    }
    let predicates = (0..cfg.num_params)
        .map(|p| Predicate {
            table: param_tables[p],
            selectivity: Selectivity::Param(p),
        })
        .collect();

    // Join selectivities from distinct-value counts (equality joins).
    let joins = cfg
        .topology
        .edge_pairs(cfg.num_tables)
        .into_iter()
        .map(|(t1, t2)| {
            let d1 = draw_distinct(cfg, rng, tables[t1].rows);
            let d2 = draw_distinct(cfg, rng, tables[t2].rows);
            JoinEdge {
                t1,
                t2,
                selectivity: 1.0 / d1.max(d2),
            }
        })
        .collect();

    let query = Query {
        tables,
        predicates,
        joins,
        num_params: cfg.num_params,
    };
    debug_assert_eq!(query.validate(), Ok(()));
    query
}

/// Configuration for the batch (workload) generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Shape of each query (tables, parameters, statistics ranges). The
    /// topology is overridden per query when [`topologies`] is non-empty.
    ///
    /// [`topologies`]: WorkloadConfig::topologies
    pub query: GeneratorConfig,
    /// Number of queries in the batch.
    pub num_queries: usize,
    /// Probability that a non-base query reuses a base table (statistics
    /// and, transitively, join selectivities and predicate placement) —
    /// `0.0` = independent queries, `1.0` = identical queries.
    pub overlap: f64,
    /// Topology cycle for mixed workloads (query `j` uses
    /// `topologies[j % len]`); empty = every query uses `query.topology`.
    pub topologies: Vec<Topology>,
}

impl WorkloadConfig {
    /// A homogeneous workload of `num_queries` queries shaped like `query`
    /// with the given table-overlap ratio.
    pub fn uniform(query: GeneratorConfig, num_queries: usize, overlap: f64) -> Self {
        Self {
            query,
            num_queries,
            overlap,
            topologies: Vec::new(),
        }
    }

    /// A workload alternating between chain and star queries.
    pub fn mixed(query: GeneratorConfig, num_queries: usize, overlap: f64) -> Self {
        Self {
            query,
            num_queries,
            overlap,
            topologies: vec![Topology::Chain, Topology::Star],
        }
    }

    fn topology(&self, j: usize) -> Topology {
        if self.topologies.is_empty() {
            self.query.topology
        } else {
            self.topologies[j % self.topologies.len()]
        }
    }
}

/// Generates a workload: a base query plus `num_queries − 1` variants that
/// share each base table with probability `overlap` (see the module docs).
///
/// # Panics
/// Panics if `num_queries` is zero or `overlap` lies outside `[0, 1]`
/// (and propagates [`generate`]'s panics on a bad per-query shape).
pub fn generate_workload(cfg: &WorkloadConfig, rng: &mut impl Rng) -> Workload {
    assert!(cfg.num_queries >= 1, "a workload needs at least one query");
    assert!(
        (0.0..=1.0).contains(&cfg.overlap),
        "overlap must lie in [0, 1]"
    );
    let n = cfg.query.num_tables;
    let base_cfg = GeneratorConfig {
        topology: cfg.topology(0),
        ..cfg.query.clone()
    };
    let base = generate(&base_cfg, rng);
    let mut queries = Vec::with_capacity(cfg.num_queries);
    queries.push(base.clone());

    for j in 1..cfg.num_queries {
        let topology = cfg.topology(j);
        let shared: Vec<bool> = (0..n)
            .map(|_| rng.gen_range(0.0..1.0) < cfg.overlap)
            .collect();
        // Tables: copy shared statistics, redraw the rest.
        let tables: Vec<Table> = (0..n)
            .map(|i| {
                if shared[i] {
                    base.tables[i].clone()
                } else {
                    draw_table(&cfg.query, rng, i)
                }
            })
            .collect();
        // Predicates: a parameter stays on its base table while that table
        // is shared (so the scan cost shape repeats); otherwise it moves
        // to a random still-free table.
        let mut taken = vec![false; n];
        let mut placement: Vec<Option<usize>> = vec![None; cfg.query.num_params];
        for p in &base.predicates {
            if let Selectivity::Param(i) = p.selectivity {
                if shared[p.table] {
                    placement[i] = Some(p.table);
                    taken[p.table] = true;
                }
            }
        }
        for slot in placement.iter_mut() {
            if slot.is_none() {
                let free: Vec<usize> = (0..n).filter(|&t| !taken[t]).collect();
                let t = free[rng.gen_range(0..free.len())];
                *slot = Some(t);
                taken[t] = true;
            }
        }
        let predicates: Vec<Predicate> = placement
            .iter()
            .enumerate()
            .map(|(i, t)| Predicate {
                table: t.expect("every parameter was placed"),
                selectivity: Selectivity::Param(i),
            })
            .collect();
        // Joins: edges between two shared tables reuse the base
        // selectivity when the base has the same edge (always true for a
        // homogeneous topology); everything else is derived fresh.
        let joins: Vec<JoinEdge> = topology
            .edge_pairs(n)
            .into_iter()
            .map(|(t1, t2)| {
                let reused = (shared[t1] && shared[t2])
                    .then(|| {
                        base.joins
                            .iter()
                            .find(|e| (e.t1 == t1 && e.t2 == t2) || (e.t1 == t2 && e.t2 == t1))
                    })
                    .flatten();
                let selectivity = match reused {
                    Some(e) => e.selectivity,
                    None => {
                        let d1 = draw_distinct(&cfg.query, rng, tables[t1].rows);
                        let d2 = draw_distinct(&cfg.query, rng, tables[t2].rows);
                        1.0 / d1.max(d2)
                    }
                };
                JoinEdge {
                    t1,
                    t2,
                    selectivity,
                }
            })
            .collect();
        let query = Query {
            tables,
            predicates,
            joins,
            num_params: cfg.query.num_params,
        };
        debug_assert_eq!(query.validate(), Ok(()));
        queries.push(query);
    }
    Workload { queries }
}

/// Configuration for the arrival-trace generator: a workload shape plus
/// an open-loop arrival process.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// The queries of the trace (shape, count, table-overlap ratio).
    pub workload: WorkloadConfig,
    /// Mean inter-arrival gap in **virtual seconds** (the exponential
    /// distribution's mean — a Poisson process with rate `1 / mean_gap`).
    pub mean_gap: f64,
}

/// An open-loop arrival trace: `queries[i]` arrives at virtual time
/// `arrivals[i]` (non-decreasing, seconds). Arrival times are *virtual* —
/// drawn from the seeded RNG, never from a wall clock — so a trace replays
/// bit-identically: drive a service with a virtual clock stepped to each
/// arrival time and the batching decisions repeat exactly.
#[derive(Debug, Clone)]
pub struct ArrivalTrace {
    /// The queries, in arrival order.
    pub queries: Vec<Query>,
    /// Virtual arrival time of each query (non-decreasing).
    pub arrivals: Vec<f64>,
}

impl ArrivalTrace {
    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True iff the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Generates an arrival trace: a workload (with the table-overlap knob of
/// [`generate_workload`]) whose queries are **interleaved** — shuffled
/// into a random arrival order, so overlapping queries spread across the
/// trace instead of arriving as a block — and stamped with Poisson-ish
/// arrival times (independent exponential gaps of mean
/// [`TraceConfig::mean_gap`]). Entirely seeded: no wall-clock enters the
/// trace.
///
/// # Panics
/// Propagates [`generate_workload`]'s panics, and panics if `mean_gap` is
/// negative or non-finite.
pub fn generate_trace(cfg: &TraceConfig, rng: &mut impl Rng) -> ArrivalTrace {
    assert!(
        cfg.mean_gap.is_finite() && cfg.mean_gap >= 0.0,
        "mean_gap must be a non-negative finite virtual duration"
    );
    let workload = generate_workload(&cfg.workload, rng);
    let mut queries = workload.queries;
    // Fisher–Yates interleave (the workload generator emits base +
    // variants in cluster order).
    for i in (1..queries.len()).rev() {
        let j = rng.gen_range(0..=i);
        queries.swap(i, j);
    }
    let mut t = 0.0;
    let arrivals = queries
        .iter()
        .map(|_| {
            // Inverse-CDF exponential gap; `1 - u` keeps ln's argument in
            // (0, 1].
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -cfg.mean_gap * (1.0 - u).ln();
            t
        })
        .collect();
    ArrivalTrace { queries, arrivals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_queries_validate() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in 1..=10 {
            for topo in [
                Topology::Chain,
                Topology::Star,
                Topology::Cycle,
                Topology::Clique,
            ] {
                let cfg = GeneratorConfig::paper(n, topo, n.min(2));
                let q = generate(&cfg, &mut rng);
                assert_eq!(q.validate(), Ok(()), "{topo} with {n} tables");
                assert_eq!(q.num_tables(), n);
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = GeneratorConfig::paper(6, Topology::Chain, 2);
        let q1 = generate(&cfg, &mut StdRng::seed_from_u64(42));
        let q2 = generate(&cfg, &mut StdRng::seed_from_u64(42));
        assert_eq!(format!("{q1:?}"), format!("{q2:?}"));
        let q3 = generate(&cfg, &mut StdRng::seed_from_u64(43));
        assert_ne!(format!("{q1:?}"), format!("{q3:?}"));
    }

    #[test]
    fn statistics_within_ranges() {
        let cfg = GeneratorConfig::paper(8, Topology::Star, 2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let q = generate(&cfg, &mut rng);
            for t in &q.tables {
                assert!(t.rows >= cfg.min_rows && t.rows <= cfg.max_rows);
                assert!(t.row_bytes >= cfg.min_row_bytes && t.row_bytes <= cfg.max_row_bytes);
            }
            for e in &q.joins {
                assert!(e.selectivity > 0.0 && e.selectivity <= 1.0);
            }
        }
    }

    #[test]
    fn parameterised_tables_are_distinct() {
        let cfg = GeneratorConfig::paper(5, Topology::Chain, 3);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let q = generate(&cfg, &mut rng);
            let tables: Vec<usize> = q.predicates.iter().map(|p| p.table).collect();
            let mut dedup = tables.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), tables.len(), "duplicate predicate table");
        }
    }

    #[test]
    fn traces_are_seeded_sorted_and_interleaved() {
        let cfg = TraceConfig {
            workload: WorkloadConfig::uniform(
                GeneratorConfig::paper(3, Topology::Chain, 1),
                16,
                0.5,
            ),
            mean_gap: 0.01,
        };
        let t1 = generate_trace(&cfg, &mut StdRng::seed_from_u64(7));
        let t2 = generate_trace(&cfg, &mut StdRng::seed_from_u64(7));
        assert_eq!(t1.len(), 16);
        assert_eq!(format!("{:?}", t1.queries), format!("{:?}", t2.queries));
        assert_eq!(t1.arrivals, t2.arrivals, "traces replay bit-identically");
        assert!(
            t1.arrivals.windows(2).all(|w| w[0] <= w[1]),
            "non-decreasing"
        );
        assert!(t1.arrivals.iter().all(|&a| a.is_finite() && a >= 0.0));
        let t3 = generate_trace(&cfg, &mut StdRng::seed_from_u64(8));
        assert_ne!(t1.arrivals, t3.arrivals, "seed changes the process");
        // Gaps average near the configured mean (loose statistical check).
        let mean = t1.arrivals.last().unwrap() / t1.len() as f64;
        assert!(mean > 0.001 && mean < 0.1, "mean gap {mean} out of band");
    }

    #[test]
    fn zero_gap_trace_arrives_at_once() {
        let cfg = TraceConfig {
            workload: WorkloadConfig::uniform(
                GeneratorConfig::paper(2, Topology::Chain, 1),
                4,
                1.0,
            ),
            mean_gap: 0.0,
        };
        let t = generate_trace(&cfg, &mut StdRng::seed_from_u64(1));
        assert!(t.arrivals.iter().all(|&a| a == 0.0));
        assert!(!t.is_empty());
    }

    #[test]
    fn generated_query_is_connected() {
        let mut rng = StdRng::seed_from_u64(11);
        for topo in [Topology::Chain, Topology::Star] {
            let cfg = GeneratorConfig::paper(7, topo, 1);
            let q = generate(&cfg, &mut rng);
            assert!(q.is_connected(TableSet::all(7)));
        }
    }
}
