//! The Louvain method (Blondel, Guillaume, Lambiotte & Lefebvre 2008) —
//! the paper's phase-2 algorithm (§III-B).
//!
//! Alternates two steps until modularity stops improving:
//!
//! 1. **Local moving** — visit nodes in random order; move each to the
//!    neighboring community with the highest modularity gain (if positive).
//!    Repeated until a full pass makes no move.
//! 2. **Aggregation** — collapse each community into one super-node
//!    (intra-community weight becomes a self-loop) and recurse.
//!
//! The per-level partitions of the *original* nodes form a dendrogram; per
//! §III-D the tomography pipeline takes the cut with the highest modularity
//! (for Louvain this is the deepest level, as Q is non-decreasing across
//! levels — asserted in tests).

use crate::graph::WeightedGraph;
use crate::modularity::{modularity, move_gain};
use crate::partition::Partition;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// The hierarchy produced by [`louvain`].
#[derive(Debug, Clone)]
pub struct Dendrogram {
    /// Partition of the original nodes at each level (coarser == later).
    pub levels: Vec<Partition>,
    /// Modularity of each level's partition on the original graph.
    pub modularities: Vec<f64>,
}

impl Dendrogram {
    /// The cut with the highest modularity (§III-D: "we take the cut of the
    /// dendrogram at the point that yields the highest modularity value").
    ///
    /// Robust to non-finite modularities: a NaN level (a degenerate
    /// measurement graph scored by older code paths) never wins and never
    /// panics; if *no* level is finite, the first level is returned.
    pub fn best(&self) -> &Partition {
        assert!(!self.levels.is_empty(), "dendrogram has at least one level");
        let mut best = 0usize;
        let mut best_q = f64::NEG_INFINITY;
        for (i, &q) in self.modularities.iter().enumerate() {
            if q.is_finite() && q > best_q {
                best_q = q;
                best = i;
            }
        }
        &self.levels[best]
    }

    /// Modularity of the best cut.
    pub fn best_modularity(&self) -> f64 {
        self.modularities.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Minimum modularity-gain proxy for a move to count as an improvement.
const MIN_GAIN: f64 = 1e-9;

/// Cap on local-moving passes per level (safety; rarely reached).
const MAX_PASSES: usize = 100;

/// Runs Louvain. `seed` drives the node visit order and tie-breaking;
/// identical seeds reproduce identical dendrograms.
pub fn louvain(g: &WeightedGraph, seed: u64) -> Dendrogram {
    louvain_into(g, seed, &mut LouvainScratch::default())
}

/// Reusable working memory for [`louvain_into`].
///
/// One local-moving pass needs a per-community weight table, a touched
/// list, and a visit-order buffer; allocating them once and reusing them
/// across dendrogram levels — and across *calls*, e.g. the per-prefix
/// clustering of a convergence series or the per-subgraph runs of
/// `recursive_louvain` — keeps the hot loop allocation-free.
#[derive(Debug, Default)]
pub struct LouvainScratch {
    /// Edge weight from the node under consideration to each community.
    /// Invariant between uses: all zeros (restored via `touched`).
    w_to: Vec<f64>,
    /// Communities touched while scanning the current node's neighbors.
    touched: Vec<u32>,
    /// Node visit order for the current level.
    order: Vec<u32>,
}

/// Runs Louvain reusing `scratch` for all per-level working memory.
/// Identical output to [`louvain`] for any scratch state.
pub fn louvain_into(g: &WeightedGraph, seed: u64, scratch: &mut LouvainScratch) -> Dendrogram {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let n = g.num_nodes();
    if n == 0 || g.total_weight() <= 0.0 {
        // Degenerate graph (no nodes, or all-zero weights → no edges):
        // there is no modularity signal. Return the singleton partition at
        // modularity 0.0 instead of risking a 0/0 = NaN downstream.
        return Dendrogram { levels: vec![Partition::singletons(n)], modularities: vec![0.0] };
    }

    let mut levels: Vec<Partition> = Vec::new();
    let mut modularities: Vec<f64> = Vec::new();

    // `flat` maps original nodes to current-level communities.
    let mut flat = Partition::singletons(n);
    let mut current = g.clone();

    loop {
        let (local, moved) = local_moving(&current, &mut rng, scratch);
        if !moved && !levels.is_empty() {
            break;
        }
        flat = flat.project(&local);
        levels.push(flat.clone());
        modularities.push(modularity(g, &flat));
        if local.num_clusters() == current.num_nodes() {
            // No aggregation possible: converged.
            break;
        }
        current = crate::graph_ops::aggregate(&current, &local);
    }

    Dendrogram { levels, modularities }
}

/// One level of local moving over the CSR graph. Returns the found
/// partition (dense ids on the current graph's nodes) and whether any node
/// moved.
fn local_moving(
    g: &WeightedGraph,
    rng: &mut ChaCha12Rng,
    scratch: &mut LouvainScratch,
) -> (Partition, bool) {
    let n = g.num_nodes();
    let m = g.total_weight();
    let mut comm: Vec<u32> = (0..n as u32).collect();
    let mut tot: Vec<f64> = (0..n).map(|v| g.strength(v)).collect();

    if m <= 0.0 {
        return (Partition::from_assignments(&comm), false);
    }

    // Per-community scratch, reused across levels and calls; `w_to` is
    // all-zero between uses (restored through `touched` after every node).
    if scratch.w_to.len() < n {
        scratch.w_to.resize(n, 0.0);
    }
    let w_to = &mut scratch.w_to;
    let touched = &mut scratch.touched;
    touched.clear();

    let order = &mut scratch.order;
    order.clear();
    order.extend(0..n as u32);
    order.shuffle(rng);

    let mut any_moved = false;
    for _pass in 0..MAX_PASSES {
        let mut moves = 0usize;
        for &vu in order.iter() {
            let v = vu as usize;
            let cv = comm[v] as usize;
            let k_v = g.strength(v);

            // Gather edge weight towards each neighboring community.
            touched.clear();
            for (t, w) in g.neighbors(v) {
                let ct = comm[t as usize];
                if w_to[ct as usize] == 0.0 {
                    touched.push(ct);
                }
                w_to[ct as usize] += w;
            }

            // Remove v from its community.
            tot[cv] -= k_v;
            let base = move_gain(k_v, w_to[cv], tot[cv], m);

            let mut best_c = cv;
            let mut best_gain = base;
            for &ct in touched.iter() {
                let c = ct as usize;
                if c == cv {
                    continue;
                }
                let gain = move_gain(k_v, w_to[c], tot[c], m);
                if gain > best_gain + MIN_GAIN {
                    best_gain = gain;
                    best_c = c;
                }
            }

            tot[best_c] += k_v;
            if best_c != cv {
                comm[v] = best_c as u32;
                moves += 1;
            }

            for &ct in touched.iter() {
                w_to[ct as usize] = 0.0;
            }
        }
        if moves == 0 {
            break;
        }
        any_moved = true;
    }

    (Partition::from_assignments(&comm), any_moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{planted_partition, ring_of_cliques};
    use crate::nmi::nmi;

    #[test]
    fn two_triangles_found_exactly() {
        let g = WeightedGraph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (3, 5, 1.0),
                (2, 3, 1.0),
            ],
        );
        let d = louvain(&g, 1);
        let best = d.best();
        assert_eq!(best.num_clusters(), 2);
        let truth = Partition::from_assignments(&[0, 0, 0, 1, 1, 1]);
        assert!(best.same_clustering(&truth), "got {:?}", best.assignments());
        assert!((d.best_modularity() - 5.0 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn ring_of_cliques_recovered() {
        let (g, truth) = ring_of_cliques(8, 6);
        let d = louvain(&g, 7);
        let p = d.best();
        assert_eq!(p.num_clusters(), 8);
        assert!((nmi(p, &truth) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn planted_partition_recovered_at_high_contrast() {
        let (g, truth) = planted_partition(4, 16, 8.0, 0.5, 99);
        let d = louvain(&g, 3);
        let p = d.best();
        assert!(nmi(p, &truth) > 0.95, "NMI {}", nmi(p, &truth));
    }

    #[test]
    fn modularity_non_decreasing_across_levels() {
        let (g, _) = planted_partition(3, 20, 6.0, 1.0, 5);
        let d = louvain(&g, 11);
        for w in d.modularities.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "levels regressed: {:?}", d.modularities);
        }
        // Best is the last level for Louvain.
        assert!((d.best_modularity() - *d.modularities.last().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let (g, _) = planted_partition(3, 12, 5.0, 1.0, 8);
        let a = louvain(&g, 42);
        let b = louvain(&g, 42);
        assert_eq!(a.best().assignments(), b.best().assignments());
    }

    #[test]
    fn repeated_seeds_agree_on_clear_structure() {
        // §III-D: "repeated iterations of the optimization algorithm find
        // results that are consistent" — on clear structure every seed finds
        // the same clustering.
        let (g, truth) = planted_partition(3, 16, 8.0, 0.25, 17);
        for seed in 0..8 {
            let p = louvain(&g, seed);
            assert!(nmi(p.best(), &truth) > 0.99, "seed {seed}");
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let d = louvain(&g, 0);
        assert_eq!(d.best().num_clusters(), 2);
    }

    #[test]
    fn empty_and_single_node() {
        let g0 = WeightedGraph::from_edges(0, &[]);
        assert_eq!(louvain(&g0, 0).best().len(), 0);
        let g1 = WeightedGraph::from_edges(1, &[]);
        let d = louvain(&g1, 0);
        assert_eq!(d.best().len(), 1);
        assert_eq!(d.best().num_clusters(), 1);
    }

    #[test]
    fn degenerate_all_zero_graph_yields_singletons_not_panic() {
        // Regression: a measurement graph whose weights are all zero (e.g.
        // a campaign where no fragments crossed any pair) reduces to an
        // edgeless graph; `best()` used to die on NaN modularity via
        // `partial_cmp(...).expect("finite modularity")`. It must return
        // the singleton partition at modularity 0.0.
        let g = WeightedGraph::from_edges(5, &[(0, 1, 0.0), (2, 3, 0.0)]);
        assert_eq!(g.num_edges(), 0);
        let d = louvain(&g, 9);
        let p = d.best();
        assert_eq!(p.len(), 5);
        assert_eq!(p.num_clusters(), 5, "singleton partition");
        assert_eq!(d.best_modularity(), 0.0);
        // And a hand-built dendrogram carrying NaN never panics nor lets
        // the NaN level win.
        let nan_d = Dendrogram {
            levels: vec![Partition::singletons(3), Partition::trivial(3)],
            modularities: vec![f64::NAN, 0.25],
        };
        assert_eq!(nan_d.best().num_clusters(), 1, "finite level wins");
        let all_nan =
            Dendrogram { levels: vec![Partition::singletons(3)], modularities: vec![f64::NAN] };
        assert_eq!(all_nan.best().num_clusters(), 3, "falls back to level 0");
    }

    #[test]
    fn scratch_reuse_is_output_invariant() {
        // The same scratch driven through graphs of different sizes must
        // not change any result vs a fresh scratch per call.
        let mut scratch = LouvainScratch::default();
        let (g1, _) = planted_partition(3, 12, 6.0, 1.0, 4);
        let (g2, _) = planted_partition(2, 30, 8.0, 0.5, 5);
        for g in [&g2, &g1, &g2] {
            for seed in 0..4 {
                let reused = louvain_into(g, seed, &mut scratch);
                let fresh = louvain(g, seed);
                assert_eq!(reused.best().assignments(), fresh.best().assignments(), "seed {seed}");
                assert_eq!(reused.modularities, fresh.modularities);
            }
        }
    }

    #[test]
    fn weight_contrast_splits_a_clique() {
        // Complete graph on 6 nodes, but edges within {0,1,2} and {3,4,5}
        // are 10x heavier: weighted Louvain must split it; unweighted sees
        // a single clique.
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                let same = (a < 3) == (b < 3);
                edges.push((a, b, if same { 10.0 } else { 1.0 }));
            }
        }
        let g = WeightedGraph::from_edges(6, &edges);
        let d = louvain(&g, 2);
        let truth = Partition::from_assignments(&[0, 0, 0, 1, 1, 1]);
        assert!(d.best().same_clustering(&truth));
    }
}
