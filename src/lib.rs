//! # mpq — Multi-Objective Parametric Query Optimization
//!
//! A from-scratch Rust implementation of *Multi-Objective Parametric Query
//! Optimization* (Immanuel Trummer and Christoph Koch, VLDB 2014),
//! including every substrate the algorithms need: an LP solver, convex
//! polytope geometry, piecewise-linear cost-function algebra, a
//! catalog/workload model, the paper's Cloud cost model, baselines, and a
//! benchmark harness that regenerates the paper's tables and figures.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`lp`] | `mpq-lp` | dense two-phase simplex, LP counters |
//! | [`geometry`] | `mpq-geometry` | polytopes, region engine, parameter grids |
//! | [`cost`] | `mpq-cost` | linear/PWL/multi-objective cost functions, dominance |
//! | [`catalog`] | `mpq-catalog` | tables, queries, join graphs, workload generator |
//! | [`cloud`] | `mpq-cloud` | cost models: time × fees and time × precision-loss |
//! | [`core`] | `mpq-core` | RRPA, PWL-RRPA, spaces, baselines, validation |
//! | [`service`] | `mpq-service` | optimizer service: batch accumulation, sharded sessions, tickets |
//! | [`net`] | `mpq-net` | networked shard fabric: versioned wire format, shard servers, retrying router |
//! | [`obs`] | `mpq-obs` | deterministic observability: metrics registry, log-bucketed histograms, spans |
//!
//! ## Quick start
//!
//! ```
//! use mpq::prelude::*;
//! use mpq::catalog::generator::{generate, GeneratorConfig};
//! use mpq::catalog::graph::Topology;
//! use mpq::cloud::model::CloudCostModel;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A random 4-table chain query with one selectivity parameter.
//! let cfg = GeneratorConfig::paper(4, Topology::Chain, 1);
//! let query = generate(&cfg, &mut StdRng::seed_from_u64(42));
//!
//! // Optimize once, before run time: all Pareto-optimal plans for every
//! // possible selectivity.
//! let model = CloudCostModel::default();
//! let config = OptimizerConfig::default_for(query.num_params);
//! let space = GridSpace::for_unit_box(query.num_params, &config, 2).unwrap();
//! let solution = optimize(&query, &model, &space, &config);
//!
//! // At run time: the user's predicate arrives (selectivity 0.4); show the
//! // time/fees trade-offs and pick the fastest plan within a fee budget.
//! let frontier = solution.frontier_at(&space, &[0.4]);
//! assert!(!frontier.is_empty());
//! let plan = solution.select_plan(&space, &[0.4], 0, &[None, Some(1.0)]);
//! assert!(plan.is_some());
//! ```

pub use mpq_catalog as catalog;
pub use mpq_cloud as cloud;
pub use mpq_core as core;
pub use mpq_cost as cost;
pub use mpq_geometry as geometry;
pub use mpq_lp as lp;
pub use mpq_net as net;
pub use mpq_obs as obs;
pub use mpq_service as service;

/// The commonly used API surface (re-export of [`mpq_core::prelude`]).
pub mod prelude {
    pub use mpq_core::prelude::*;
}
