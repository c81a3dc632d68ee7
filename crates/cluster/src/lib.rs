//! # btt-cluster — community detection and clustering comparison
//!
//! Phase 2 of the paper's tomography method (§III): cluster the weighted
//! measurement graph and score the result against ground truth.
//!
//! * [`additive`] — Ni & Tatikonda-style additive-metrics tomography
//!   (recursive grouping over the log-throughput path metric), the second
//!   inference backend;
//! * [`graph`] — compact weighted undirected graphs ([`graph::WeightedGraph`]);
//! * [`modularity`] — the Newman–Girvan objective, Eq. (3) of the paper;
//! * [`louvain`] — the paper's clustering algorithm (Blondel et al. 2008),
//!   with the full dendrogram and best-modularity cut;
//! * [`infomap`] — map-equation optimizer, the paper's §III-D negative
//!   comparison;
//! * [`labelprop`] — label propagation, an extra ablation baseline;
//! * [`nmi`] / [`onmi`] — partition NMI and the LFK overlapping NMI the
//!   paper reports (\[30\]);
//! * [`generators`] — synthetic community graphs for tests and benches.
//!
//! ```
//! use btt_cluster::prelude::*;
//!
//! // A weighted graph with two obvious clusters.
//! let (g, truth) = planted_partition(2, 8, 10.0, 0.5, 7);
//! let dendrogram = louvain(&g, 42);
//! let found = dendrogram.best();
//! assert_eq!(found.num_clusters(), 2);
//! assert!((nmi(found, &truth) - 1.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod additive;
pub mod generators;
pub mod graph;
pub mod graph_ops;
pub mod hierarchy;
pub mod infomap;
pub mod labelprop;
pub mod louvain;
pub mod modularity;
pub mod nmi;
pub mod onmi;
pub mod partition;

/// Commonly used items.
pub mod prelude {
    pub use crate::additive::{additive_hierarchy, additive_partition, AdditiveDendrogram};
    pub use crate::generators::{planted_partition, random_graph, ring_of_cliques};
    pub use crate::graph::WeightedGraph;
    pub use crate::graph_ops::{prune_edges, PruneConfig};
    pub use crate::hierarchy::{recursive_louvain, HierNode, Hierarchy, HierarchyConfig};
    pub use crate::infomap::{codelength, infomap, InfomapResult};
    pub use crate::labelprop::label_propagation;
    pub use crate::louvain::{louvain, louvain_into, Dendrogram, LouvainScratch};
    pub use crate::modularity::{modularity, significance, Significance};
    pub use crate::nmi::nmi;
    pub use crate::onmi::{onmi, onmi_partitions, Cover};
    pub use crate::partition::Partition;
}
