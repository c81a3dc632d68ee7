//! # bittorrent-tomography
//!
//! A full reproduction of **"Efficient and reliable network tomography in
//! heterogeneous networks using BitTorrent broadcasts and clustering
//! algorithms"** (Dichev, Reid & Lastovetsky, SC 2012) as a Rust workspace.
//!
//! The paper's method recovers the *logical bandwidth clusters* of a
//! heterogeneous network — including bottlenecks that only appear under
//! intense collective communication — from nothing but a handful of
//! instrumented BitTorrent broadcasts:
//!
//! 1. **Measure**: run synchronized BitTorrent broadcasts; every peer counts
//!    the 16 KiB fragments received from each other peer. Averaged over a
//!    few iterations this yields a bandwidth-correlated edge metric
//!    (paper Eqs. 1–2) at a cost of ~one broadcast per iteration — versus
//!    O(N²)/O(N³) for traditional saturation probing.
//! 2. **Analyze**: Louvain modularity clustering of the weighted
//!    measurement graph; nodes separated by bottlenecks land in different
//!    clusters. Accuracy is scored with overlapping NMI against ground
//!    truth.
//!
//! ## Crates
//!
//! | crate | role |
//! |---|---|
//! | [`netsim`] | flow-level network simulator + Grid'5000 topologies (the testbed substitute) |
//! | [`swarm`] | instrumented BitTorrent engine + the fragment-count metric |
//! | [`cluster`] | Louvain / Infomap / label propagation, modularity, NMI, oNMI |
//! | [`layout`] | Kamada–Kawai layout, DOT/SVG export |
//! | [`baselines`] | NetPIPE, O(N²) pairwise and O(N³) interference probing |
//! | [`core`] | the end-to-end pipeline, paper datasets, reports |
//!
//! ## Quickstart
//!
//! ```
//! use bittorrent_tomography::prelude::*;
//!
//! // The paper's 2x2 warm-up experiment, shrunk for a fast doctest.
//! let report = TomographySession::new(Dataset::Small2x2)
//!     .pieces(128)
//!     .iterations(4)
//!     .seed(7)
//!     .run();
//! assert_eq!(report.final_partition.num_clusters(), 1);
//! ```
//!
//! See `examples/` for realistic scenarios and `DESIGN.md` for the full
//! system inventory and experiment index.

#![warn(missing_docs)]

pub use btt_baselines as baselines;
pub use btt_cluster as cluster;
pub use btt_core as core;
pub use btt_layout as layout;
pub use btt_netsim as netsim;
pub use btt_swarm as swarm;

/// One-stop import: the `btt-core` prelude plus layout and baseline entry
/// points.
pub mod prelude {
    pub use btt_baselines::prelude::*;
    pub use btt_core::prelude::*;
    pub use btt_layout::prelude::*;
    pub use btt_netsim::prelude::*;
}
