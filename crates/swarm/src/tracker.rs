//! The tracker: hands every joining client a bounded random peer set.
//!
//! The paper (§II-C) highlights two tracker-driven sources of measurement
//! randomness: clients choose initial peers randomly, and the peer set is
//! capped at 35. For swarms larger than 36 nodes a single broadcast therefore
//! observes only a *subset* of all possible edges — which is why the metric
//! must be aggregated over iterations. Re-randomizing the peer graph every
//! iteration (fresh tracker state per broadcast) is what makes aggregation
//! cover the whole graph.
//!
//! A build does work linear in the number of clients for a fixed cap.
//! Each client draws candidates from a *virtual* Fisher–Yates list: slot `x`
//! of client `i`'s list `[0, n) \ {i}` holds `x` below `i` and `x + 1` from
//! `i` on, unless an earlier draw displaced it, and only displaced slots are
//! stored. Adjacency is tested against the client's own neighbour list, which
//! holds fewer than the cap while the client draws. Nothing is allocated per
//! client pair.

use btt_netsim::util::FxHashMap;
use rand::seq::SliceRandom;
use rand::Rng;

/// An undirected peer graph: `neighbors[i]` lists the peers client `i` is
/// connected to. Symmetric, self-loop-free, degree ≤ the tracker cap.
#[derive(Debug, Clone)]
pub struct PeerGraph {
    neighbors: Vec<Vec<u32>>,
}

impl PeerGraph {
    /// Builds a random peer graph for `n` clients with per-client degree cap
    /// `max_peers`, using the supplied RNG.
    ///
    /// Mimics tracker behaviour: clients in random order repeatedly request
    /// peers and connect to random targets that still have connection slots.
    /// If the greedy pass leaves the graph disconnected (possible only for
    /// tiny caps), bridging edges are added, slightly exceeding the cap —
    /// real clients also accept above-cap inbound connections rather than
    /// partition the swarm.
    ///
    /// Each client draws its candidates without replacement by a lazy
    /// Fisher–Yates over the other `n − 1` clients, one `gen_range(0..m)`
    /// per attempt until its cap fills or the list runs out. The list is
    /// virtual: only the slots earlier draws displaced are kept, in a map
    /// cleared and reused for each client, so a build costs
    /// O(n + draws · max_peers) time and O(n · max_peers) memory.
    pub fn random(n: usize, max_peers: usize, rng: &mut impl Rng) -> Self {
        assert!(n >= 2, "a swarm needs at least two clients");
        let cap = max_peers.max(1);
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];

        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut displaced: FxHashMap<u32, u32> = FxHashMap::default();
        for &i in &order {
            let iu = i as usize;
            if neighbors[iu].len() >= cap {
                continue;
            }
            // Slot x of client i's candidate list [0, n) \ {i}.
            displaced.clear();
            let slot = |displaced: &FxHashMap<u32, u32>, x: u32| {
                displaced.get(&x).copied().unwrap_or(if x < i { x } else { x + 1 })
            };
            let mut m = n - 1;
            while m > 0 && neighbors[iu].len() < cap {
                let t = rng.gen_range(0..m) as u32;
                let j = slot(&displaced, t);
                m -= 1;
                if t != m as u32 {
                    displaced.insert(t, slot(&displaced, m as u32));
                }
                let ju = j as usize;
                if neighbors[ju].len() >= cap || neighbors[iu].contains(&j) {
                    continue;
                }
                neighbors[iu].push(j);
                neighbors[ju].push(i);
            }
        }

        let mut g = PeerGraph { neighbors };
        g.bridge_components(rng);
        g
    }

    /// Connects disconnected components with random bridging edges.
    fn bridge_components(&mut self, rng: &mut impl Rng) {
        let n = self.neighbors.len();
        loop {
            let comp = self.components();
            let ncomp = *comp.iter().max().unwrap() + 1;
            if ncomp <= 1 {
                return;
            }
            // Bridge component 0 to some node of another component. The two
            // lie in different components, so they are never adjacent yet.
            let a_nodes: Vec<u32> = (0..n as u32).filter(|&i| comp[i as usize] == 0).collect();
            let b_nodes: Vec<u32> = (0..n as u32).filter(|&i| comp[i as usize] != 0).collect();
            let a = *a_nodes.choose(rng).expect("component 0 nonempty");
            let b = *b_nodes.choose(rng).expect("other components nonempty");
            self.neighbors[a as usize].push(b);
            self.neighbors[b as usize].push(a);
        }
    }

    fn components(&self) -> Vec<usize> {
        let n = self.neighbors.len();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = next;
            while let Some(u) = stack.pop() {
                for &v in &self.neighbors[u] {
                    if comp[v as usize] == usize::MAX {
                        comp[v as usize] = next;
                        stack.push(v as usize);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True if the graph has no clients.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Neighbors of client `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.neighbors[i]
    }

    /// True if the peer graph is connected (it always should be).
    pub fn is_connected(&self) -> bool {
        self.components().iter().all(|&c| c == 0)
    }

    /// Total number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.iter().map(|v| v.len()).sum::<usize>() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    /// The dense build, kept as the oracle the linear build must match draw
    /// for draw: an n × n adjacency, and a full (n − 1)-entry candidate list
    /// per client.
    fn dense_reference(n: usize, max_peers: usize, rng: &mut impl Rng) -> Vec<Vec<u32>> {
        let cap = max_peers.max(1);
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut adj = vec![false; n * n];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut targets: Vec<u32> = Vec::with_capacity(n - 1);
        for &i in &order {
            let iu = i as usize;
            if neighbors[iu].len() >= cap {
                continue;
            }
            targets.clear();
            targets.extend((0..n as u32).filter(|&j| j != i));
            let mut m = targets.len();
            while m > 0 && neighbors[iu].len() < cap {
                let t = rng.gen_range(0..m);
                let j = targets[t];
                m -= 1;
                targets[t] = targets[m];
                let ju = j as usize;
                if neighbors[ju].len() >= cap || adj[iu * n + ju] {
                    continue;
                }
                adj[iu * n + ju] = true;
                adj[ju * n + iu] = true;
                neighbors[iu].push(j);
                neighbors[ju].push(i);
            }
        }
        let mut g = PeerGraph { neighbors };
        loop {
            let comp = g.components();
            if comp.iter().all(|&c| c == 0) {
                return g.neighbors;
            }
            let a_nodes: Vec<u32> = (0..n as u32).filter(|&i| comp[i as usize] == 0).collect();
            let b_nodes: Vec<u32> = (0..n as u32).filter(|&i| comp[i as usize] != 0).collect();
            let a = *a_nodes.choose(rng).expect("component 0 nonempty");
            let b = *b_nodes.choose(rng).expect("other components nonempty");
            let (au, bu) = (a as usize, b as usize);
            if !adj[au * n + bu] {
                adj[au * n + bu] = true;
                adj[bu * n + au] = true;
                g.neighbors[au].push(b);
                g.neighbors[bu].push(a);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The linear build reproduces the dense reference exactly: the
        /// same neighbour lists in the same order, and the same next RNG
        /// draw, so it consumed the generator identically. Every third case
        /// uses a cap of 1–3, which leaves the greedy pass disconnected and
        /// exercises the bridging loop.
        #[test]
        fn linear_build_matches_dense_reference(
            n in 2usize..1101,
            tiny in 0u8..3,
            small_cap in 1usize..4,
            large_cap in 1usize..201,
            seed in any::<u64>(),
        ) {
            let cap = if tiny == 0 { small_cap } else { large_cap };
            let (mut fast_rng, mut dense_rng) = (rng(seed), rng(seed));
            let fast = PeerGraph::random(n, cap, &mut fast_rng);
            let dense = dense_reference(n, cap, &mut dense_rng);
            for (i, want) in dense.iter().enumerate() {
                prop_assert_eq!(fast.neighbors(i), &want[..], "client {} (n {}, cap {})", i, n, cap);
            }
            prop_assert_eq!(fast_rng.next_u64(), dense_rng.next_u64(), "next draw");
        }
    }

    /// At the spec cap of 65,536 hosts the default tracker builds a simple,
    /// symmetric, connected overlay within the cap. The dense build needed
    /// a 4.3 GB adjacency here.
    #[test]
    fn builds_the_largest_scenario_within_the_cap() {
        let n = 65_536;
        let g = PeerGraph::random(n, 35, &mut rng(2012));
        assert_eq!(g.len(), n);
        let mut directed: Vec<(u32, u32)> = Vec::new();
        for i in 0..n {
            let nbrs = g.neighbors(i);
            assert!(!nbrs.is_empty() && nbrs.len() <= 35, "client {i}: degree {}", nbrs.len());
            directed.extend(nbrs.iter().map(|&j| (i as u32, j)));
        }
        assert!(directed.iter().all(|&(i, j)| i != j), "self-loop");
        let mut forward = directed.clone();
        forward.sort_unstable();
        assert!(forward.windows(2).all(|w| w[0] != w[1]), "duplicate edge");
        let mut reverse: Vec<(u32, u32)> = directed.iter().map(|&(i, j)| (j, i)).collect();
        reverse.sort_unstable();
        assert_eq!(forward, reverse, "asymmetric edge");
        assert!(g.is_connected());
    }

    #[test]
    fn small_swarm_is_complete() {
        // 4 clients with cap 35: everyone connects to everyone.
        let g = PeerGraph::random(4, 35, &mut rng(1));
        for i in 0..4 {
            assert_eq!(g.neighbors(i).len(), 3);
        }
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn degree_cap_respected_in_normal_regime() {
        let g = PeerGraph::random(128, 35, &mut rng(2));
        for i in 0..128 {
            assert!(g.neighbors(i).len() <= 36, "degree {}", g.neighbors(i).len());
            assert!(!g.neighbors(i).is_empty(), "no isolated client");
        }
        assert!(g.is_connected());
    }

    #[test]
    fn symmetric_and_simple() {
        let g = PeerGraph::random(64, 35, &mut rng(3));
        for i in 0..64usize {
            let mut seen = std::collections::HashSet::new();
            for &j in g.neighbors(i) {
                assert_ne!(j as usize, i, "self-loop");
                assert!(seen.insert(j), "duplicate edge");
                assert!(g.neighbors(j as usize).contains(&(i as u32)), "asymmetric edge");
            }
        }
    }

    #[test]
    fn connected_even_with_tiny_cap() {
        for seed in 0..20 {
            let g = PeerGraph::random(50, 2, &mut rng(seed));
            assert!(g.is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let a = PeerGraph::random(64, 35, &mut rng(10));
        let b = PeerGraph::random(64, 35, &mut rng(11));
        let edges = |g: &PeerGraph| {
            let mut e: Vec<(u32, u32)> = (0..64u32)
                .flat_map(|i| g.neighbors(i as usize).iter().map(move |&j| (i.min(j), i.max(j))))
                .collect();
            e.sort_unstable();
            e.dedup();
            e
        };
        assert_ne!(edges(&a), edges(&b));
    }

    #[test]
    fn same_seed_reproduces_graph() {
        let a = PeerGraph::random(64, 35, &mut rng(7));
        let b = PeerGraph::random(64, 35, &mut rng(7));
        for i in 0..64 {
            assert_eq!(a.neighbors(i), b.neighbors(i));
        }
    }

    /// §II-C: with more than 36 nodes, one broadcast cannot observe all edges.
    #[test]
    fn large_swarm_observes_subset_of_edges() {
        let n = 64;
        let g = PeerGraph::random(n, 35, &mut rng(4));
        let all_pairs = n * (n - 1) / 2;
        assert!(g.num_edges() < all_pairs, "{} of {}", g.num_edges(), all_pairs);
    }
}
