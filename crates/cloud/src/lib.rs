//! Execution cost models for MPQ, including the paper's Cloud scenario.
//!
//! Section 7 of the MPQ paper (Trummer & Koch, VLDB 2014) evaluates
//! PWL-RRPA in a Cloud setting with **two cost metrics** — execution time
//! and monetary fees — and two join implementations:
//!
//! * a **single-node hash join** (no network traffic; all input data is
//!   assumed to reside on one node), and
//! * a **parallel hash join** that shuffles both inputs across the network:
//!   faster for large inputs thanks to parallel processing, but with
//!   strictly more *total* work, hence always higher fees.
//!
//! Base-table access chooses between a **full table scan** (cost
//! independent of predicate selectivity) and an **index seek** (cost
//! proportional to matching rows — preferable at low selectivity). Since
//! selectivities are parameters, both alternatives must often be retained,
//! which is what makes the benchmark challenging (paper §7).
//!
//! The paper estimates costs with "standard formulas" and prices them with
//! Amazon EC2's pricing system on general-purpose medium instances; no
//! query is ever executed. This crate reproduces that estimation structure
//! with an EC2-m1.medium-like [`ClusterConfig`] profile in place of the
//! paper's EC2 price list.
//!
//! The [`model::ParametricCostModel`] trait is the interface the optimizer
//! consumes: a model lists scan and join alternatives and returns each
//! alternative's cost as a **closure over the parameter vector**, which the
//! optimizer lifts onto its PWL representation. Two implementations ship:
//! [`model::CloudCostModel`] (time × fees, Scenario 1) and
//! [`approx_model::ApproxCostModel`] (time × result-precision loss,
//! Scenario 2 / approximate query processing).

pub mod approx_model;
pub mod join;
pub mod model;
pub mod ops;
pub mod scan;
pub mod shape;

use serde::{Deserialize, Serialize};

/// Metric index of execution time (seconds).
pub const METRIC_TIME: usize = 0;
/// Metric index of monetary fees (US dollars) in the Cloud model.
pub const METRIC_FEES: usize = 1;
/// Number of metrics in the Cloud model.
pub const NUM_METRICS: usize = 2;

/// Hardware and pricing profile of the simulated cluster.
///
/// Defaults follow an EC2 general-purpose medium (m1.medium-like) instance
/// as referenced by the paper: 3.75 GB of memory, on-demand pricing, a
/// gigabit-class network, and commodity sequential/random I/O rates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Memory available to a join's build side per node, in bytes.
    pub node_memory_bytes: f64,
    /// On-demand price per node-hour in USD.
    pub price_per_node_hour: f64,
    /// Sequential scan bandwidth in bytes/second.
    pub scan_bytes_per_sec: f64,
    /// Cost of fetching one matching row through an index (seconds/row).
    pub index_seek_sec_per_row: f64,
    /// CPU cost of handling one tuple (seconds/tuple).
    pub cpu_tuple_sec: f64,
    /// CPU cost of inserting one tuple into a hash table (seconds/tuple).
    pub hash_build_sec: f64,
    /// CPU cost of probing one tuple against a hash table (seconds/tuple).
    pub hash_probe_sec: f64,
    /// Network bandwidth per node for shuffles, in bytes/second.
    pub network_bytes_per_sec: f64,
    /// Number of nodes used by the parallel hash join.
    pub parallel_nodes: usize,
    /// Wall-clock start-up/coordination cost per participating node
    /// (seconds) for parallel operators.
    pub startup_sec_per_node: f64,
    /// I/O penalty multiplier for Grace-hash-join spill passes when the
    /// build side exceeds memory.
    pub spill_penalty: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            node_memory_bytes: 3.75e9,
            price_per_node_hour: 0.087,
            scan_bytes_per_sec: 1.0e8,      // 100 MB/s sequential
            index_seek_sec_per_row: 4.0e-6, // amortised random access
            cpu_tuple_sec: 2.0e-7,
            hash_build_sec: 1.0e-6,
            hash_probe_sec: 5.0e-7,
            network_bytes_per_sec: 1.25e8, // 1 Gbit/s
            parallel_nodes: 8,
            startup_sec_per_node: 0.02,
            spill_penalty: 2.0,
        }
    }
}

impl ClusterConfig {
    /// Price of one machine-second in USD.
    pub fn price_per_node_sec(&self) -> f64 {
        self.price_per_node_hour / 3600.0
    }

    /// Converts machine-seconds of total work into fees.
    pub fn fees(&self, machine_seconds: f64) -> f64 {
        machine_seconds * self.price_per_node_sec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_sane() {
        let c = ClusterConfig::default();
        assert!(c.node_memory_bytes > 1e9);
        assert!(c.price_per_node_sec() > 0.0 && c.price_per_node_sec() < 1e-3);
        assert!((c.fees(3600.0) - 0.087).abs() < 1e-12);
    }
}
