//! The O(N²) pairwise probing baseline (in the spirit of Legrand, Mazoit &
//! Quinson's application-level network mapper, the paper's ref. \[13\]).
//!
//! Sequentially saturates every unordered host pair for a fixed probe
//! duration and records the achieved bandwidth. Two things follow, both of
//! which the paper points out:
//!
//! * the measurement bill grows as N² probe-seconds — already ~1 h for 20
//!   nodes at the probe durations those tools used;
//! * *isolated* pair probes cannot see bottlenecks that only bind under
//!   concurrent load (the Bordeaux Dell↔Cisco trunk measures a full
//!   890 Mb/s pair-by-pair), so clustering the resulting bandwidth matrix
//!   misses exactly the structure the tomography method is after.

use crate::cost::MeasurementCost;
use btt_cluster::graph::WeightedGraph;
use btt_cluster::louvain::louvain;
use btt_cluster::partition::Partition;
use btt_netsim::engine::SimNet;
use btt_netsim::routing::RouteTable;
use btt_netsim::topology::NodeId;
use btt_netsim::units::Bandwidth;
use std::sync::Arc;

/// Result of the pairwise measurement phase.
#[derive(Debug, Clone)]
pub struct PairwiseResult {
    /// `bw[i][j]`: bandwidth (Mb/s) measured between hosts `i` and `j`.
    pub bandwidth_mbps: Vec<Vec<f64>>,
    /// Measurement bill.
    pub cost: MeasurementCost,
}

impl PairwiseResult {
    /// Clusters the bandwidth matrix with Louvain (same phase 2 as the
    /// tomography method, isolating the measurement-phase comparison).
    pub fn cluster(&self, seed: u64) -> Partition {
        let n = self.bandwidth_mbps.len();
        let mut edges = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in (a + 1)..n {
                let w = self.bandwidth_mbps[a][b];
                if w > 0.0 {
                    edges.push((a as u32, b as u32, w));
                }
            }
        }
        louvain(&WeightedGraph::from_edges(n, &edges), seed).best().clone()
    }
}

/// Saturates each unordered pair, one at a time, for `probe_secs` each.
pub fn pairwise_probing(
    routes: &Arc<RouteTable>,
    hosts: &[NodeId],
    probe_secs: f64,
) -> PairwiseResult {
    assert!(probe_secs > 0.0);
    let n = hosts.len();
    let mut bw = vec![vec![0.0; n]; n];
    let mut cost = MeasurementCost::default();
    let mut net = SimNet::with_routes(routes.clone());
    for a in 0..n {
        for b in (a + 1)..n {
            let f = net.start_flow(hosts[a], hosts[b], None, 0);
            net.advance(probe_secs);
            let got = net.take_delivered(f);
            net.stop_flow(f);
            let mbps = Bandwidth::from_bytes_per_sec(got / probe_secs).mbps();
            bw[a][b] = mbps;
            bw[b][a] = mbps;
            cost.add(MeasurementCost { sim_seconds: probe_secs, bytes_moved: got, probes: 1 });
        }
    }
    PairwiseResult { bandwidth_mbps: bw, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btt_netsim::grid5000::Grid5000;

    #[test]
    fn cost_scales_quadratically() {
        let g = Grid5000::builder().bordeaux(4, 0, 4).build();
        let routes = Arc::new(RouteTable::new(g.topology.clone()));
        let hosts = g.all_hosts();
        let r = pairwise_probing(&routes, &hosts, 0.5);
        let pairs = 8 * 7 / 2;
        assert_eq!(r.cost.probes, pairs);
        assert!((r.cost.sim_seconds - pairs as f64 * 0.5).abs() < 1e-9);
    }

    /// The paper's point (§I): the Bordeaux trunk is invisible to isolated
    /// pair probes, so pairwise tomography reports ONE cluster where the
    /// ground truth has two.
    #[test]
    fn blind_to_collective_load_bottleneck() {
        let g = Grid5000::builder().bordeaux(6, 0, 6).build();
        let routes = Arc::new(RouteTable::new(g.topology.clone()));
        let hosts = g.all_hosts();
        let r = pairwise_probing(&routes, &hosts, 0.5);
        // Every pair measures the full local rate.
        for a in 0..hosts.len() {
            for b in 0..hosts.len() {
                if a != b {
                    assert!((r.bandwidth_mbps[a][b] - 890.0).abs() < 10.0);
                }
            }
        }
        let p = r.cluster(1);
        assert_eq!(p.num_clusters(), 1, "uniform matrix must give one cluster");
    }

    /// Inter-site: pairwise probing measures the WAN per-flow cap correctly
    /// (787 vs 890 Mb/s — the paper's own NetPIPE numbers), but that ~12 %
    /// contrast is far too weak for modularity to recover the site split.
    /// The structure only becomes visible under *collective* load — the
    /// paper's core argument (§I).
    #[test]
    fn wan_point_to_point_contrast_too_weak_to_cluster() {
        let g = Grid5000::builder().flat_site("grenoble", 4).flat_site("toulouse", 4).build();
        let routes = Arc::new(RouteTable::new(g.topology.clone()));
        let hosts = g.all_hosts();
        let r = pairwise_probing(&routes, &hosts, 0.5);
        assert!((r.bandwidth_mbps[0][1] - 890.0).abs() < 10.0, "local");
        assert!((r.bandwidth_mbps[0][4] - 787.0).abs() < 10.0, "wan capped");
        let p = r.cluster(3);
        assert_eq!(p.num_clusters(), 1, "890 vs 787 cannot drive a modularity split");
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let g = Grid5000::builder().bordeaux(3, 0, 2).build();
        let routes = Arc::new(RouteTable::new(g.topology.clone()));
        let hosts = g.all_hosts();
        let r = pairwise_probing(&routes, &hosts, 0.25);
        for a in 0..5 {
            assert_eq!(r.bandwidth_mbps[a][a], 0.0);
            for b in 0..5 {
                assert_eq!(r.bandwidth_mbps[a][b], r.bandwidth_mbps[b][a]);
            }
        }
    }
}
