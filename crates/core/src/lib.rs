//! # btt-core — the paper's tomography method, end to end
//!
//! This crate is the reproduction's centerpiece: the two-phase network
//! tomography method of Dichev, Reid & Lastovetsky (SC 2012).
//!
//! 1. **Measure** ([`btt_swarm`]): a handful of synchronized, instrumented
//!    BitTorrent broadcasts over the hosts; each peer counts received
//!    fragments per source. Aggregation over iterations yields the Eq. (2)
//!    edge metric.
//! 2. **Analyze** ([`btt_cluster`]): Louvain modularity clustering over the
//!    weighted measurement graph recovers the logical bandwidth clusters;
//!    the overlapping NMI against ground truth quantifies accuracy.
//!
//! The paper's Grid'5000 datasets are prepackaged in [`dataset`] (B, B-T,
//! G-T, B-G-T, B-G-T-L plus the 2×2 warm-up), with physical-topology-derived
//! ground truths per §IV-A. Beyond the paper, [`scenarios`] parses textual
//! specs for parameterized synthetic topologies (fat-tree / star-of-stars /
//! heterogeneous WAN), and [`serialize`] gives reports dependency-free
//! JSON/CSV output with round-trip-tested readers — the foundation of the
//! `btt` campaign CLI in `btt-bench`.
//!
//! ```no_run
//! use btt_core::prelude::*;
//!
//! // Reproduce the paper's single-site Bordeaux experiment (Fig. 8/13-B):
//! // 36 broadcasts of a 239 MB file over 64 nodes, Louvain clustering.
//! let report = TomographySession::new(Dataset::B).run();
//! println!("{}", convergence_table(&report));
//! assert!(report.last().onmi > 0.99, "B converges to the ground truth");
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod collectives;
pub mod dataset;
pub mod diagnosis;
pub mod pipeline;
pub mod report;
pub mod scenarios;
pub mod serialize;
pub mod session;

/// Commonly used items, including re-exports of the phase crates' preludes.
pub mod prelude {
    pub use crate::backend::{Backend, ClusteringAlgorithm};
    pub use crate::collectives::{
        cluster_aware_broadcast, flat_binomial_broadcast, CollectiveResult,
    };
    pub use crate::dataset::{ip_labels, logical_clusters, Dataset, Scenario};
    pub use crate::diagnosis::{bottleneck_candidates, diagnosed_bottlenecks, BottleneckCandidate};
    pub use crate::pipeline::{
        analyze, auto_metric_graph, convergence_series, convergence_series_timed,
        degenerate_partition, metric_graph, sparse_metric_graph, ConvergencePoint, InferenceTiming,
        PipelineError, ReliabilityReport, TomographyReport, DEFAULT_PRUNE, SPARSE_NODE_THRESHOLD,
    };
    pub use crate::report::{cluster_listing, convergence_table, summary_line};
    pub use crate::scenarios::ScenarioSpec;
    pub use crate::serialize::{convergence_csv, ReportRecord};
    pub use crate::session::{
        LiveSession, PartitionSnapshot, SessionError, SessionPhase, TomographySession,
    };
    pub use btt_cluster::prelude::*;
    pub use btt_swarm::prelude::*;
}
