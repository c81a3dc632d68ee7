//! # btt-swarm — instrumented BitTorrent broadcasts
//!
//! Phase 1 of the paper's tomography method (Dichev, Reid & Lastovetsky,
//! SC 2012): run synchronized BitTorrent broadcasts over the hosts of a
//! network, counting the 16 KiB fragments each peer receives from each other
//! peer, and aggregate the counts into the bandwidth-correlated edge metric
//! of Eqs. (1)–(2).
//!
//! The protocol engine ([`swarm`]) reproduces the mechanisms of the original
//! Python client the paper instrumented: tracker-limited random peer sets
//! (≤ 35), tit-for-tat choking with 4 parallel uploads (3 reciprocal + 1
//! optimistic, rotated every 30 s), rarest-first piece selection with
//! random-first bootstrap and endgame duplication. It runs over the fluid
//! network engine of [`btt_netsim`].
//!
//! ```
//! use btt_netsim::prelude::*;
//! use btt_swarm::prelude::*;
//! use std::sync::Arc;
//!
//! // Four hosts on one switch.
//! let mut b = TopologyBuilder::new();
//! let hosts: Vec<NodeId> = (0..4).map(|i| b.add_host(format!("h{i}"))).collect();
//! let sw = b.add_switch("sw");
//! for &h in &hosts { b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0))); }
//! let routes = Arc::new(RouteTable::new(Arc::new(b.build().unwrap())));
//!
//! // Three broadcast iterations of a small file, host 0 seeding.
//! let cfg = SwarmConfig::small(64);
//! let campaign = run_campaign(&routes, &hosts, &cfg, 3, RootPolicy::Fixed(0), 42);
//! assert_eq!(campaign.metric.iterations(), 3);
//! // Every leecher downloaded the whole file in every run.
//! for run in &campaign.runs {
//!     assert!(run.finished);
//! }
//! ```

#![warn(missing_docs)]

pub mod bitfield;
pub mod broadcast;
pub mod config;
pub mod metrics;
pub mod rate;
pub mod selection;
pub mod swarm;
pub mod tracker;

/// Commonly used items.
pub mod prelude {
    pub use crate::bitfield::Bitfield;
    pub use crate::broadcast::{
        resolve_threads, run_broadcast, run_campaign, run_campaign_with_reliability,
        stream_campaign_with_reliability, BroadcastResult, Campaign, RootPolicy, RunObservation,
    };
    pub use crate::config::{SelectionPolicy, SwarmConfig};
    pub use crate::metrics::{FragmentMatrix, MetricAccumulator, WindowedMetric};
    pub use crate::swarm::Swarm;
    pub use crate::tracker::PeerGraph;
}
