//! Additive-metrics tomography (Ni & Tatikonda, "Network Tomography Based
//! on Additive Metrics"): an inference family independent of modularity
//! clustering.
//!
//! The per-pair BitTorrent throughput metric `w(u, v)` is read as an
//! additive path metric in the log domain: `d(u, v) = log(w_max / w(u, v))`
//! grows roughly linearly with the number of bottleneck tiers a path
//! crosses, so hosts behind a shared bottleneck sit at a small mutual
//! distance while pairs separated by `k` tiers are `k` log-steps apart.
//! The hierarchy is estimated by *recursive grouping*: repeatedly merge
//! the pair of clusters with the smallest mean metric distance (i.e. the
//! largest mean throughput), exactly the agglomeration step of the
//! neighbor-joining family restricted to the observed (possibly
//! sparsified) measurement graph. Pairs pruned from the graph are treated
//! as infinitely distant — they contribute zero weight to a linkage mean.
//!
//! The partition is the hierarchy cut at the largest *log-domain* gap
//! between successive merge levels: under an additive metric, crossing a
//! bottleneck tier multiplies the throughput by the oversubscription
//! factor, so the inter-tier boundary shows up as the largest jump in
//! `log(score)` along the agglomeration trace.
//!
//! Everything here is deterministic by construction — the only tie-break
//! is on cluster ids — so unlike Louvain no seed is consumed.

use crate::graph::WeightedGraph;
use crate::partition::Partition;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// One recursive-grouping step: cluster `from` was absorbed into `into` at
/// mean metric weight `score`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// Root id of the surviving cluster.
    pub into: u32,
    /// Root id of the absorbed cluster.
    pub from: u32,
    /// Mean metric weight between the two clusters at merge time (the
    /// linkage score; higher = closer under the additive metric).
    pub score: f64,
}

/// The estimated hierarchy: the full agglomeration trace plus the chosen
/// cut level.
#[derive(Debug, Clone)]
pub struct AdditiveDendrogram {
    n: usize,
    merges: Vec<Merge>,
    cut: usize,
}

/// A candidate cluster pair in the lazy merge heap. Ordered by score
/// (max-heap), ties broken toward the smaller id pair so the agglomeration
/// order — and therefore the output — is deterministic.
#[derive(Debug, Clone, Copy)]
struct Cand {
    score: f64,
    a: u32,
    b: u32,
    gen_a: u32,
    gen_b: u32,
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Cand {}
impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.a.cmp(&self.a))
            .then_with(|| other.b.cmp(&self.b))
    }
}

impl AdditiveDendrogram {
    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The full agglomeration trace, in merge order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// The partition after applying the first `k` merges.
    pub fn partition_at(&self, k: usize) -> Partition {
        assert!(k <= self.merges.len());
        let mut parent: Vec<u32> = (0..self.n as u32).collect();
        fn find(parent: &mut [u32], v: u32) -> u32 {
            let mut root = v;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = v;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for merge in &self.merges[..k] {
            let into = find(&mut parent, merge.into);
            let from = find(&mut parent, merge.from);
            parent[from as usize] = into;
        }
        let assign: Vec<u32> = (0..self.n as u32).map(|v| find(&mut parent, v)).collect();
        Partition::from_assignments(&assign)
    }

    /// The partition at the chosen cut: the largest log-domain gap between
    /// successive merge scores (the inferred bottleneck-tier boundary).
    pub fn best(&self) -> Partition {
        self.partition_at(self.cut)
    }
}

/// Picks the cut level: apply merges up to (and including) the step after
/// which `log(score)` drops the most. The trivial "apply everything" cut is
/// never chosen — a tomography answer of one cluster carries no structure —
/// so candidates stop one merge short of the full trace.
fn largest_gap_cut(merges: &[Merge]) -> usize {
    if merges.len() < 2 {
        return merges.len();
    }
    let mut cut = merges.len() - 1;
    let mut best_gap = f64::NEG_INFINITY;
    for k in 1..merges.len() {
        let gap = merges[k - 1].score.ln() - merges[k].score.ln();
        if gap > best_gap {
            best_gap = gap;
            cut = k;
        }
    }
    cut
}

/// Estimates the additive-metrics hierarchy of `g` by recursive grouping
/// (average linkage over the observed metric graph) and chooses the
/// largest-gap cut.
///
/// Runs in `O(E log E)` amortized: a lazy max-heap of cluster-pair linkage
/// scores with generation stamps, absorbing the lower-degree cluster's
/// adjacency into the higher-degree one at each merge.
pub fn additive_hierarchy(g: &WeightedGraph) -> AdditiveDendrogram {
    let n = g.num_nodes();
    // Per-cluster adjacency: total observed metric weight to each neighbor
    // cluster. BTreeMap keeps merge-time accumulation order id-sorted, so
    // floating-point sums are reproducible.
    let mut adj: Vec<BTreeMap<u32, f64>> =
        (0..n).map(|v| g.neighbors(v).filter(|&(u, _)| u as usize != v).collect()).collect();
    let mut size = vec![1u64; n];
    let mut generation = vec![0u32; n];
    let mut active = vec![true; n];
    let mut heap = BinaryHeap::new();
    for (v, nbrs) in adj.iter().enumerate() {
        for (&u, &w) in nbrs {
            if (v as u32) < u {
                heap.push(Cand { score: w, a: v as u32, b: u, gen_a: 0, gen_b: 0 });
            }
        }
    }

    let mut merges = Vec::new();
    while let Some(cand) = heap.pop() {
        let (a, b) = (cand.a as usize, cand.b as usize);
        if !active[a] || !active[b] || cand.gen_a != generation[a] || cand.gen_b != generation[b] {
            continue; // stale: one endpoint merged since this was pushed
        }
        // Absorb the cluster with the smaller adjacency into the other.
        let (into, from) = if adj[a].len() >= adj[b].len() { (a, b) } else { (b, a) };
        merges.push(Merge { into: into as u32, from: from as u32, score: cand.score });
        active[from] = false;
        generation[into] += 1;
        size[into] += size[from];
        let absorbed = std::mem::take(&mut adj[from]);
        adj[into].remove(&(from as u32));
        for (&nbr, &w) in &absorbed {
            if nbr as usize == into {
                continue;
            }
            *adj[into].entry(nbr).or_insert(0.0) += w;
            let nbr_adj = &mut adj[nbr as usize];
            let moved = nbr_adj.remove(&(from as u32)).unwrap_or(0.0);
            *nbr_adj.entry(into as u32).or_insert(0.0) += moved;
        }
        // Fresh linkage candidates for the merged cluster.
        for (&nbr, &w) in &adj[into] {
            let score = w / (size[into] * size[nbr as usize]) as f64;
            let (x, y) = if (into as u32) < nbr { (into as u32, nbr) } else { (nbr, into as u32) };
            heap.push(Cand {
                score,
                a: x,
                b: y,
                gen_a: generation[x as usize],
                gen_b: generation[y as usize],
            });
        }
    }

    let cut = largest_gap_cut(&merges);
    AdditiveDendrogram { n, merges, cut }
}

/// The additive-metrics partition of `g`: [`additive_hierarchy`] cut at the
/// largest log-domain gap. Deterministic; consumes no seed.
pub fn additive_partition(g: &WeightedGraph) -> Partition {
    additive_hierarchy(g).best()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{planted_partition, ring_of_cliques};
    use crate::nmi::nmi;

    #[test]
    fn recovers_a_planted_partition() {
        let (g, truth) = planted_partition(4, 8, 10.0, 0.5, 7);
        let found = additive_partition(&g);
        assert_eq!(found.num_clusters(), 4);
        assert!((nmi(&found, &truth) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recovers_cliques_past_the_resolution_limit() {
        // 24 cliques of 5 in a ring: flat modularity merges neighbouring
        // cliques (the resolution limit), but the metric contrast between
        // intra-clique and ring edges is a clean log-domain gap.
        let (g, truth) = ring_of_cliques(24, 5);
        let found = additive_partition(&g);
        assert_eq!(found.num_clusters(), 24);
        assert!((nmi(&found, &truth) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn is_deterministic_and_seedless() {
        let (g, _) = planted_partition(3, 16, 8.0, 1.0, 99);
        let first = additive_partition(&g);
        for _ in 0..3 {
            assert_eq!(additive_partition(&g), first);
        }
    }

    #[test]
    fn disconnected_components_stay_separate() {
        // Two components, no cross edges: the trace never joins them.
        let edges = [(0, 1, 4.0), (1, 2, 4.0), (3, 4, 4.0)];
        let g = WeightedGraph::from_edges(5, &edges);
        let found = additive_partition(&g);
        assert!(found.num_clusters() >= 2);
        assert_eq!(found.cluster_of(0), found.cluster_of(1));
        assert_eq!(found.cluster_of(3), found.cluster_of(4));
        assert_ne!(found.cluster_of(0), found.cluster_of(3));
    }

    #[test]
    fn tiny_graphs_do_not_collapse_to_one_cluster() {
        let g = WeightedGraph::from_edges(2, &[(0, 1, 1.0)]);
        let dendro = additive_hierarchy(&g);
        // A single merge is the whole trace; the cut applies it (two nodes
        // behind one link genuinely are one cluster).
        assert_eq!(dendro.merges().len(), 1);
        let empty = WeightedGraph::from_edges(0, &[]);
        assert_eq!(additive_partition(&empty).len(), 0);
    }

    #[test]
    fn hierarchy_exposes_every_cut_level() {
        let (g, _) = planted_partition(2, 4, 10.0, 0.5, 3);
        let dendro = additive_hierarchy(&g);
        assert_eq!(dendro.partition_at(0).num_clusters(), 8);
        let full = dendro.partition_at(dendro.merges().len());
        assert_eq!(full.num_clusters(), 1);
        // The chosen cut is one of those levels, short of the full merge.
        let best = dendro.best();
        let k = (0..dendro.merges().len()).find(|&k| dendro.partition_at(k) == best);
        assert!(k.is_some(), "best() is a level below the full merge");
    }
}
