//! The O(N³) interference-probing baseline (in the spirit of Bobelin &
//! Muntean, the paper's ref. \[12\], and of the Fig. 2 procedure).
//!
//! Protocol per the paper's description of traditional bandwidth tomography:
//! saturate a pair until capacity, introduce a second concurrently
//! communicating pair, and re-examine the first pair's bandwidth — a drop
//! means the two pairs share a link. Testing every pair against a Θ(N)
//! sample of disjoint partner pairs gives the Θ(N³) probe count the paper
//! cites, and *does* expose bottlenecks that only bind under concurrent
//! load — at a measurement price the `repro cost` experiment quantifies.

use crate::cost::MeasurementCost;
use btt_cluster::graph::WeightedGraph;
use btt_cluster::louvain::louvain;
use btt_cluster::partition::Partition;
use btt_netsim::engine::SimNet;
use btt_netsim::routing::RouteTable;
use btt_netsim::topology::NodeId;
use btt_netsim::units::Bandwidth;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

/// Result of the interference measurement phase.
#[derive(Debug, Clone)]
pub struct InterferenceResult {
    /// Isolated bandwidth per pair (Mb/s), symmetric.
    pub baseline_mbps: Vec<Vec<f64>>,
    /// Worst-case bandwidth retention of pair (i, j) under concurrent load:
    /// the *minimum* across partner tests, per Fig. 2's criterion ("if the
    /// bandwidth decreases, they share a link"). 1.0 = never interfered,
    /// 0.5 = halved by some partner pair.
    pub retention: Vec<Vec<f64>>,
    /// Measurement bill.
    pub cost: MeasurementCost,
}

impl InterferenceResult {
    /// Effective under-load bandwidth: isolated bandwidth × retention.
    /// This is the load-aware analogue of the pairwise matrix, and the
    /// weights handed to clustering.
    pub fn effective_mbps(&self, a: usize, b: usize) -> f64 {
        self.baseline_mbps[a][b] * self.retention[a][b]
    }

    /// Clusters the effective-bandwidth matrix with Louvain.
    pub fn cluster(&self, seed: u64) -> Partition {
        let n = self.baseline_mbps.len();
        let mut edges = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in (a + 1)..n {
                let w = self.effective_mbps(a, b);
                if w > 0.0 {
                    edges.push((a as u32, b as u32, w));
                }
            }
        }
        louvain(&WeightedGraph::from_edges(n, &edges), seed).best().clone()
    }
}

/// Runs the full interference campaign: every unordered pair is measured in
/// isolation, then re-measured while each of `partners_per_pair` disjoint
/// partner pairs saturates concurrently.
///
/// Probe count ≈ N²/2 + (N²/2)·partners; with `partners_per_pair ≈ N` this
/// is the Θ(N³) regime of ref. \[12\].
pub fn interference_probing(
    routes: &Arc<RouteTable>,
    hosts: &[NodeId],
    probe_secs: f64,
    partners_per_pair: usize,
    seed: u64,
) -> InterferenceResult {
    assert!(probe_secs > 0.0);
    let n = hosts.len();
    assert!(n >= 4, "interference tests need at least two disjoint pairs");
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut net = SimNet::with_routes(routes.clone());
    let mut cost = MeasurementCost::default();

    // Phase 1: isolated baselines (the Fig. 2 step 1).
    let mut baseline = vec![vec![0.0; n]; n];
    for a in 0..n {
        for b in (a + 1)..n {
            let f = net.start_flow(hosts[a], hosts[b], None, 0);
            net.advance(probe_secs);
            let got = net.take_delivered(f);
            net.stop_flow(f);
            let mbps = Bandwidth::from_bytes_per_sec(got / probe_secs).mbps();
            baseline[a][b] = mbps;
            baseline[b][a] = mbps;
            cost.add(MeasurementCost { sim_seconds: probe_secs, bytes_moved: got, probes: 1 });
        }
    }

    // Phase 2: concurrent re-examination (the Fig. 2 step 2).
    let mut retention_min = vec![vec![1.0f64; n]; n];
    let all: Vec<usize> = (0..n).collect();
    for a in 0..n {
        for b in (a + 1)..n {
            // Disjoint partner pairs, sampled deterministically.
            let mut others: Vec<usize> =
                all.iter().copied().filter(|&x| x != a && x != b).collect();
            others.shuffle(&mut rng);
            let partners: Vec<(usize, usize)> =
                others.chunks_exact(2).take(partners_per_pair).map(|c| (c[0], c[1])).collect();
            for (c, d) in partners {
                // "Intense communication" between each pair is bidirectional
                // (Fig. 2): otherwise a partner crossing a full-duplex link
                // in the opposite direction would never contend.
                let f1 = net.start_flow(hosts[a], hosts[b], None, 0);
                let f1r = net.start_flow(hosts[b], hosts[a], None, 0);
                let f2 = net.start_flow(hosts[c], hosts[d], None, 0);
                let f2r = net.start_flow(hosts[d], hosts[c], None, 0);
                net.advance(probe_secs);
                let got1 = net.take_delivered(f1);
                let got2 =
                    net.take_delivered(f2) + net.take_delivered(f1r) + net.take_delivered(f2r);
                net.stop_flow(f1);
                net.stop_flow(f1r);
                net.stop_flow(f2);
                net.stop_flow(f2r);
                let with_load = Bandwidth::from_bytes_per_sec(got1 / probe_secs).mbps();
                let r =
                    if baseline[a][b] > 0.0 { (with_load / baseline[a][b]).min(1.0) } else { 0.0 };
                retention_min[a][b] = retention_min[a][b].min(r);
                cost.add(MeasurementCost {
                    sim_seconds: probe_secs,
                    bytes_moved: got1 + got2,
                    probes: 1,
                });
            }
        }
    }

    let mut retention = vec![vec![1.0; n]; n];
    for a in 0..n {
        for b in (a + 1)..n {
            retention[a][b] = retention_min[a][b];
            retention[b][a] = retention_min[a][b];
        }
    }

    InterferenceResult { baseline_mbps: baseline, retention, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btt_netsim::grid5000::Grid5000;

    fn bordeaux(routes_hosts: (usize, usize)) -> (Arc<RouteTable>, Vec<NodeId>) {
        let g = Grid5000::builder().bordeaux(routes_hosts.0, 0, routes_hosts.1).build();
        (Arc::new(RouteTable::new(g.topology.clone())), g.all_hosts())
    }

    /// The signature capability: interference probing DOES detect the
    /// Bordeaux trunk that pairwise probing misses. Trunk-crossing pairs
    /// retain roughly half their bandwidth when a second trunk-crossing
    /// pair loads the link; local pairs retain everything.
    #[test]
    fn detects_collective_load_bottleneck() {
        let (routes, hosts) = bordeaux((6, 6));
        let r = interference_probing(&routes, &hosts, 0.5, 6, 42);
        // Host indices 0..6 = bordeplage, 6..12 = bordereau.
        let cross_retention = r.retention[0][6];
        let local_retention = r.retention[0][1];
        assert!(local_retention > 0.95, "local pairs should rarely interfere: {local_retention}");
        assert!(cross_retention < 0.6, "trunk pairs must show interference: {cross_retention}");
        // And the clustering recovers the ground truth split.
        let p = r.cluster(7);
        assert_eq!(p.num_clusters(), 2);
        let side0 = p.cluster_of(0);
        for v in 0..6 {
            assert_eq!(p.cluster_of(v), side0);
        }
        for v in 6..12 {
            assert_ne!(p.cluster_of(v), side0);
        }
    }

    /// Probe count is in the Θ(N³) regime: pairs × partners.
    #[test]
    fn cost_scales_cubically() {
        let (routes, hosts) = bordeaux((4, 4));
        let n = hosts.len();
        let partners = 3;
        let r = interference_probing(&routes, &hosts, 0.25, partners, 1);
        let pairs = n * (n - 1) / 2;
        assert_eq!(r.cost.probes, pairs + pairs * partners);
        assert!((r.cost.sim_seconds - r.cost.probes as f64 * 0.25).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let (routes, hosts) = bordeaux((4, 4));
        let a = interference_probing(&routes, &hosts, 0.25, 2, 5);
        let b = interference_probing(&routes, &hosts, 0.25, 2, 5);
        assert_eq!(a.retention, b.retention);
        assert_eq!(a.baseline_mbps, b.baseline_mbps);
    }

    #[test]
    fn effective_bandwidth_combines_baseline_and_retention() {
        let (routes, hosts) = bordeaux((4, 4));
        let r = interference_probing(&routes, &hosts, 0.25, 2, 9);
        for a in 0..hosts.len() {
            for b in 0..hosts.len() {
                if a != b {
                    let eff = r.effective_mbps(a, b);
                    assert!(eff <= r.baseline_mbps[a][b] + 1e-9);
                    assert!(eff >= 0.0);
                }
            }
        }
    }
}
