//! # btt-bench — the reproduction harness
//!
//! Shared infrastructure for the two binaries — `repro` (one generator per
//! paper figure/table, see DESIGN.md §4) and `btt` (structured scenario
//! sweeps, see [`campaign`]) — and the criterion benchmarks.
//!
//! The criterion benchmarks time kernels that no end-to-end workload
//! isolates: fairness-solver churn shapes, Louvain, NMI, layout, and dense
//! versus pruned clustering. Campaign speed is measured by one system, the
//! separate `btt-benchmark` package under `benchmark/`.

#![warn(missing_docs)]

pub mod campaign;
pub mod ctx;
pub mod experiments;
pub mod serve;
pub mod stress;

pub use ctx::ReproCtx;
