//! # btt-layout — graph layout and figure export
//!
//! Reproduces the paper's visualization pipeline (§III-C, Figs. 8–12): an
//! energy-minimizing spring layout over the measured network, with edge
//! lengths inversely proportional to the fragment-count metric, node shapes
//! encoding ground-truth clusters, and only the top half of edges (by
//! weight) drawn.
//!
//! * [`distances`] — inverse-weight shortest-path distance matrices;
//! * [`kamada_kawai`] — the Kamada–Kawai algorithm used by Graphviz `neato`;
//! * [`render`] — the paper's edge-filter and shape rules;
//! * [`dot`] / [`svg`] — Graphviz-compatible DOT and standalone SVG export.
//!
//! ```
//! use btt_cluster::prelude::*;
//! use btt_layout::prelude::*;
//!
//! let (g, truth) = planted_partition(2, 6, 8.0, 0.5, 3);
//! let d = inverse_weight_distances(&g);
//! let pos = kamada_kawai(&d, 42, KamadaKawaiConfig::default());
//! let labels: Vec<String> = (0..12).map(|i| format!("node-{i}")).collect();
//! let fig = render(&g, &pos, &labels, &truth, RenderOptions::default());
//! let dot = to_dot(&fig, "example");
//! assert!(dot.contains("graph example {"));
//! ```

#![warn(missing_docs)]

pub mod distances;
pub mod dot;
pub mod geometry;
pub mod kamada_kawai;
pub mod render;
pub mod svg;

/// Commonly used items.
pub mod prelude {
    pub use crate::distances::{inverse_weight_distances, DistanceMatrix};
    pub use crate::dot::to_dot;
    pub use crate::geometry::Point2;
    pub use crate::kamada_kawai::{kamada_kawai, stress, KamadaKawaiConfig};
    pub use crate::render::{render, RenderOptions, Rendered, RenderedNode, Shape};
    pub use crate::svg::to_svg;
}
