//! Shared harness code for regenerating the MPQ paper's experiments.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper:
//!
//! * `fig12` — the main evaluation: optimization time, created plans and
//!   solved LPs over table count, for chain and star queries with one and
//!   two parameters (medians of 25 random queries);
//! * `table1` — executable verification of statements S1–S3 and M1–M3;
//! * `figures` — the illustrative figures (1, 4–7, 10, 11) plus the §6.3
//!   bound and the §1.1 PQ-vs-MPQ comparison;
//! * `ablation` — the §6.2 refinements toggled individually, and a grid
//!   resolution sweep.
//!
//! This library crate holds the pieces those binaries share: single-run
//! execution, seed sweeps with medians (one query at a time), the
//! paper's counterexample cost functions and Table 1's single-metric
//! checks.

pub mod counterexamples;
pub mod harness;

pub use harness::{fig12_row, median, run_once, Fig12Row, RunRecord};
