//! Hierarchical (multi-level) clustering — the paper's future-work
//! extension (§III-D, §V).
//!
//! The paper's single-level cut cannot represent nested structure: in the
//! Bordeaux+Toulouse experiment the ground truth is *hierarchical* (sites,
//! then clusters within Bordeaux) and the flat clustering tops out at
//! NMI ≈ 0.7. "A future hierarchical version of our clustering step should
//! be able to identify individual clusters within sites, at many levels."
//!
//! This module implements that version: recursive Louvain. Cluster the
//! graph, then re-cluster each found cluster's induced subgraph, accepting
//! a sub-split only when its within-subgraph modularity is substantial;
//! recurse until no split beats a chance-level null.

use crate::graph::WeightedGraph;
use crate::graph_ops::induced_subgraph;
use crate::louvain::{louvain_into, LouvainScratch};
use crate::modularity::modularity;
use crate::partition::Partition;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// A node of the cluster tree.
#[derive(Debug, Clone)]
pub struct HierNode {
    /// Original graph nodes in this cluster.
    pub members: Vec<u32>,
    /// Sub-clusters (empty for leaves).
    pub children: Vec<HierNode>,
    /// Modularity of the accepted split of *this* node's subgraph
    /// (0.0 for leaves).
    pub split_modularity: f64,
}

impl HierNode {
    fn leaf(members: Vec<u32>) -> Self {
        HierNode { members, children: Vec::new(), split_modularity: 0.0 }
    }

    /// True when this node has no sub-structure.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a HierNode>) {
        if self.is_leaf() {
            out.push(self);
        } else {
            for c in &self.children {
                c.collect_leaves(out);
            }
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.iter().map(HierNode::depth).max().unwrap_or(0)
    }
}

/// A hierarchical clustering of a graph.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    n: usize,
    /// Top-level clusters.
    pub top: Vec<HierNode>,
}

impl Hierarchy {
    /// The number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Depth of the tree (1 = flat clustering).
    pub fn depth(&self) -> usize {
        self.top.iter().map(HierNode::depth).max().unwrap_or(0)
    }

    /// The coarsest partition (top-level clusters) — what the paper's flat
    /// method reports.
    pub fn top_partition(&self) -> Partition {
        let mut assign = vec![0u32; self.n];
        for (c, node) in self.top.iter().enumerate() {
            for &v in collect_members(node).iter() {
                assign[v as usize] = c as u32;
            }
        }
        Partition::from_assignments(&assign)
    }

    /// The finest partition (tree leaves) — the fully-resolved nested
    /// structure.
    pub fn leaf_partition(&self) -> Partition {
        let mut leaves = Vec::new();
        for t in &self.top {
            t.collect_leaves(&mut leaves);
        }
        let mut assign = vec![0u32; self.n];
        for (c, leaf) in leaves.iter().enumerate() {
            for &v in &leaf.members {
                assign[v as usize] = c as u32;
            }
        }
        Partition::from_assignments(&assign)
    }
}

fn collect_members(node: &HierNode) -> &Vec<u32> {
    &node.members
}

/// Configuration for [`recursive_louvain`].
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// Minimum within-subgraph modularity for a sub-split to be accepted.
    /// Random weight fluctuations on a homogeneous cluster give near-zero
    /// modularity; genuine nested bottlenecks give substantially more.
    pub min_split_modularity: f64,
    /// Do not attempt to split clusters smaller than this.
    pub min_cluster_size: usize,
    /// Maximum recursion depth (safety).
    pub max_depth: usize,
    /// Required modularity margin over the null model (weights
    /// shuffled, edges rewired degree-preservingly). A static threshold alone cannot gate
    /// sub-splits: on dense *measurement* subgraphs (noisy all-pairs
    /// weights) Louvain carves structureless noise into splits of
    /// Q ≈ 0.3–0.5, so any fixed cutoff that admits genuine nested
    /// bottlenecks admits noise too. The significance test re-runs Louvain
    /// on a null version of the same subgraph and accepts the real split
    /// only when it beats that null by this margin — noise splits score
    /// ≈ the null and are rejected, genuine nested structure clears it
    /// comfortably.
    pub null_margin: f64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            min_split_modularity: 0.08,
            min_cluster_size: 4,
            max_depth: 8,
            null_margin: 0.05,
        }
    }
}

/// Best modularity Louvain finds on a null version of `sub`: edge weights
/// shuffled (destroying weight–topology alignment) and edges rewired by
/// degree-preserving double swaps (destroying topological communities,
/// Maslov–Sneppen style) — "how well does a subgraph like this split by
/// chance". On complete measurement graphs every swap is a no-op and the
/// weight shuffle alone is the permutation test; on sparse graphs the
/// rewiring keeps clique structure from surviving into the null.
fn null_modularity(sub: &WeightedGraph, seed: u64, scratch: &mut LouvainScratch) -> f64 {
    let key = |a: u32, b: u32| (a.min(b), a.max(b));
    let mut edges = sub.edges();
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut weights: Vec<f64> = edges.iter().map(|e| e.2).collect();
    weights.shuffle(&mut rng);
    for (e, w) in edges.iter_mut().zip(weights) {
        e.2 = w;
    }
    let m = edges.len();
    if m >= 2 {
        let mut present: std::collections::HashSet<(u32, u32)> =
            edges.iter().map(|&(a, b, _)| key(a, b)).collect();
        for _ in 0..4 * m {
            let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..m));
            if i == j {
                continue;
            }
            let ((a, b, _), (c, d, _)) = (edges[i], edges[j]);
            let (e1, e2) = (key(a, d), key(c, b));
            if a == d || c == b || e1 == e2 || present.contains(&e1) || present.contains(&e2) {
                continue;
            }
            present.remove(&key(a, b));
            present.remove(&key(c, d));
            present.insert(e1);
            present.insert(e2);
            edges[i] = (e1.0, e1.1, edges[i].2);
            edges[j] = (e2.0, e2.1, edges[j].2);
        }
    }
    let null = WeightedGraph::from_edges(sub.num_nodes(), &edges);
    let d = louvain_into(&null, seed, scratch);
    modularity(&null, d.best())
}

/// Recursive Louvain: flat clustering, then re-cluster each cluster's
/// induced subgraph while splits remain substantial.
///
/// All Louvain invocations — the top-level run and every subgraph run the
/// recursion spawns — share one [`LouvainScratch`], so working memory is
/// allocated once per hierarchy rather than once per tree node.
pub fn recursive_louvain(g: &WeightedGraph, seed: u64, cfg: HierarchyConfig) -> Hierarchy {
    let n = g.num_nodes();
    let mut scratch = LouvainScratch::default();
    let top_partition = louvain_into(g, seed, &mut scratch).best().clone();
    let top = top_partition
        .clusters()
        .into_iter()
        .enumerate()
        .map(|(i, members)| split_node(g, members, seed ^ (i as u64 + 1), cfg, 1, &mut scratch))
        .collect();
    Hierarchy { n, top }
}

fn split_node(
    g: &WeightedGraph,
    members: Vec<u32>,
    seed: u64,
    cfg: HierarchyConfig,
    depth: usize,
    scratch: &mut LouvainScratch,
) -> HierNode {
    if members.len() < cfg.min_cluster_size || depth >= cfg.max_depth {
        return HierNode::leaf(members);
    }
    let sub = induced_subgraph(g, &members);
    let d = louvain_into(&sub, seed, scratch);
    let p = d.best();
    if p.num_clusters() <= 1 {
        return HierNode::leaf(members);
    }
    let q = modularity(&sub, p);
    if q < cfg.min_split_modularity {
        return HierNode::leaf(members);
    }
    if q < null_modularity(&sub, seed, scratch) + cfg.null_margin {
        return HierNode::leaf(members);
    }
    let children = p
        .clusters()
        .into_iter()
        .enumerate()
        .map(|(i, sub_members)| {
            let original: Vec<u32> = sub_members.iter().map(|&si| members[si as usize]).collect();
            split_node(g, original, seed ^ ((i as u64 + 7) << 8), cfg, depth + 1, scratch)
        })
        .collect();
    HierNode { members, children, split_modularity: q }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::louvain::louvain;
    use crate::nmi::nmi;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// Two super-groups of two sub-groups each: weights 20 within sub-group,
    /// 5 within super-group, 0.5 across.
    fn nested(sub_size: usize, seed: u64) -> (WeightedGraph, Partition, Partition) {
        let n = 4 * sub_size;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                let (sa, sb) = (a as usize / sub_size, b as usize / sub_size);
                let w = if sa == sb {
                    20.0
                } else if sa / 2 == sb / 2 {
                    5.0
                } else {
                    0.5
                };
                edges.push((a, b, w * rng.gen_range(0.9..1.1)));
            }
        }
        let fine: Vec<u32> = (0..n).map(|v| (v / sub_size) as u32).collect();
        let coarse: Vec<u32> = (0..n).map(|v| (v / (2 * sub_size)) as u32).collect();
        (
            WeightedGraph::from_edges(n, &edges),
            Partition::from_assignments(&coarse),
            Partition::from_assignments(&fine),
        )
    }

    #[test]
    fn resolves_nested_structure_to_the_fine_level() {
        let (g, coarse, fine) = nested(8, 3);
        let h = recursive_louvain(&g, 5, HierarchyConfig::default());
        let leaves = h.leaf_partition();
        assert!(nmi(&leaves, &fine) > 0.99, "leaves = sub-groups, got {:?}", leaves.sizes());
        // The top partition is a valid coarsening: either the super-groups
        // or (if flat Louvain resolved everything at once) the fine groups.
        let top = h.top_partition();
        assert!(
            nmi(&top, &coarse) > 0.99 || nmi(&top, &fine) > 0.99,
            "top must match a true level, got {:?}",
            top.sizes()
        );
    }

    /// The decisive case for hierarchy: the modularity *resolution limit*
    /// (Fortunato & Barthélemy 2007; the paper cites Good et al. on the
    /// bumpy modularity landscape). On a ring of many small cliques, flat
    /// modularity maximization merges adjacent cliques; the recursive pass
    /// recovers every individual clique.
    #[test]
    fn beats_flat_clustering_at_the_resolution_limit() {
        let (g, truth) = crate::generators::ring_of_cliques(30, 5);
        let flat = louvain(&g, 3).best().clone();
        assert!(
            flat.num_clusters() < 30,
            "expected the resolution limit to merge cliques, got {}",
            flat.num_clusters()
        );
        let h = recursive_louvain(&g, 3, HierarchyConfig::default());
        let leaves = h.leaf_partition();
        assert_eq!(leaves.num_clusters(), 30, "hierarchy must resolve every clique");
        assert!((nmi(&leaves, &truth) - 1.0).abs() < 1e-9);
        assert!(h.depth() >= 2);
    }

    #[test]
    fn flat_structure_stays_flat() {
        let (g, truth) = crate::generators::planted_partition(3, 10, 10.0, 0.5, 9);
        let h = recursive_louvain(&g, 2, HierarchyConfig::default());
        assert_eq!(h.depth(), 1, "homogeneous clusters must not split");
        assert!(nmi(&h.leaf_partition(), &truth) > 0.99);
        assert!(h.top.iter().all(|t| t.is_leaf()));
    }

    #[test]
    fn partitions_cover_every_node_exactly_once() {
        let (g, _, _) = nested(6, 1);
        let h = recursive_louvain(&g, 7, HierarchyConfig::default());
        for p in [h.top_partition(), h.leaf_partition()] {
            assert_eq!(p.len(), g.num_nodes());
            let total: usize = p.sizes().iter().sum();
            assert_eq!(total, g.num_nodes());
        }
        // Leaves refine the top partition.
        let top = h.top_partition();
        let leaves = h.leaf_partition();
        for a in 0..g.num_nodes() {
            for b in 0..g.num_nodes() {
                if leaves.cluster_of(a) == leaves.cluster_of(b) {
                    assert_eq!(top.cluster_of(a), top.cluster_of(b), "leaves must refine top");
                }
            }
        }
    }

    #[test]
    fn min_cluster_size_prevents_micro_splits() {
        let (g, _, _) = nested(3, 2); // sub-groups of 3 < min size 4... top splits only
        let cfg = HierarchyConfig { min_cluster_size: 8, ..HierarchyConfig::default() };
        let h = recursive_louvain(&g, 1, cfg);
        for t in &h.top {
            if t.members.len() < 8 {
                assert!(t.is_leaf());
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, _, _) = nested(5, 4);
        let a = recursive_louvain(&g, 11, HierarchyConfig::default());
        let b = recursive_louvain(&g, 11, HierarchyConfig::default());
        assert_eq!(a.leaf_partition().assignments(), b.leaf_partition().assignments());
    }
}
