//! # pi-planner — PatchIndex-aware query optimization
//!
//! Logical plans ([`Plan`]), the PatchIndex rewrites of the paper's
//! Section 3.3 (distinct/sort subtree cloning, Figure 2) enumerated over
//! an [`IndexCatalog`] of *all* indexes on the table, zero-branch pruning
//! (Section 6.3) applied both plan-level and **per partition** at
//! lowering, a per-tuple [`cost`] model gating every rewrite with
//! per-partition statistics (Section 3.5), and lowering to `pi-exec`
//! operator trees with partition-parallel combines.
//!
//! The [`QueryEngine`] facade ties it together for an
//! `IndexedTable`: catalog snapshot → flush-if-exactness-required (the
//! NUC-disjointness rule of deferred maintenance) → optimize → execute.
//!
//! The TPC-H join plans of Figure 10 are hand-lowered in `pi-tpch`, using
//! the same building blocks.

#![warn(missing_docs)]

pub mod cost;
mod engine;
pub mod fingerprint;
mod logical;
mod optimizer;
pub mod physical;
#[cfg(test)]
mod testutil;

pub use engine::QueryEngine;
pub use fingerprint::{canonical_bytes, fingerprint_hash, QueryMode};
pub use logical::Plan;
pub use optimizer::{optimize, optimize_with_stats, rewrite, zero_branch_prune, OptimizeStats};
pub use patchindex::{IndexCatalog, IndexStats, PartitionStats};
pub use physical::{
    execute, execute_count, execute_traced, lower, prune_for_partition, ExecOpts, ExecTrace,
    Pruning, TouchLog, NO_INDEXES,
};
