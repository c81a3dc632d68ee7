//! Topology-aware collective operations — the paper's motivating
//! application (§I: "every collective operation can profit through topology
//! awareness", §V future work: integrate the tomography output into
//! communication libraries).
//!
//! Two store-and-forward broadcast schedules over the fluid network:
//!
//! * [`flat_binomial_broadcast`] — the topology-agnostic baseline: a
//!   binomial tree over an arbitrary rank order, oblivious to bottlenecks;
//! * [`cluster_aware_broadcast`] — uses a logical clustering (e.g. the
//!   tomography result): the message crosses inter-cluster links once per
//!   remote cluster (root → cluster leader), then spreads inside each
//!   high-bandwidth cluster with a local binomial tree.
//!
//! Both run on [`SimNet`] and return the simulated completion time, so the
//! speedup of topology awareness is measured under the same contention
//! model as the tomography itself.

use btt_cluster::partition::Partition;
use btt_netsim::engine::SimNet;
use btt_netsim::routing::RouteTable;
use btt_netsim::topology::NodeId;
use btt_netsim::units::Bytes;
use std::sync::Arc;

/// Outcome of a collective run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveResult {
    /// Simulated completion time (all ranks hold the message).
    pub makespan: f64,
    /// Number of store-and-forward rounds executed.
    pub rounds: usize,
    /// Number of message transfers that crossed cluster boundaries.
    pub inter_cluster_transfers: usize,
}

/// A topology-agnostic binomial broadcast: in each round, every holder
/// forwards the full message to the next non-holder in `order`. `order[0]`
/// is the root.
///
/// With ranks ordered arbitrarily (as an MPI communicator would be on a
/// grid), many transfers cross bottleneck links concurrently — the failure
/// mode topology awareness removes.
pub fn flat_binomial_broadcast(
    routes: &Arc<RouteTable>,
    order: &[NodeId],
    message: Bytes,
    clusters: &Partition,
) -> CollectiveResult {
    assert!(!order.is_empty());
    let index_of = index_map(order, clusters);
    let mut net = SimNet::with_routes(routes.clone());
    let mut holders: Vec<NodeId> = vec![order[0]];
    let mut pending: std::collections::VecDeque<NodeId> = order[1..].iter().copied().collect();
    let mut rounds = 0;
    let mut crossings = 0;
    while !pending.is_empty() {
        let mut receivers = Vec::new();
        for &s in &holders {
            let Some(r) = pending.pop_front() else { break };
            if index_of(s) != index_of(r) {
                crossings += 1;
            }
            net.start_flow(s, r, Some(message), 0);
            receivers.push(r);
        }
        net.run_bounded_to_completion(86_400.0);
        holders.extend(receivers);
        rounds += 1;
    }
    CollectiveResult { makespan: net.time(), rounds, inter_cluster_transfers: crossings }
}

/// A cluster-aware hierarchical broadcast: the root first sends to one
/// leader per remote cluster (one inter-cluster crossing each, in
/// parallel); every cluster then runs a local binomial tree concurrently.
///
/// `members[i]` must be the topology node of rank `i` and `clusters` its
/// logical clustering (typically the tomography output).
pub fn cluster_aware_broadcast(
    routes: &Arc<RouteTable>,
    members: &[NodeId],
    clusters: &Partition,
    root_rank: usize,
    message: Bytes,
) -> CollectiveResult {
    assert_eq!(members.len(), clusters.len(), "one cluster id per rank");
    assert!(root_rank < members.len());
    let mut net = SimNet::with_routes(routes.clone());
    let root_cluster = clusters.cluster_of(root_rank);
    let groups = clusters.clusters();

    // Phase A: root -> one leader per remote cluster (parallel transfers;
    // exactly one crossing per remote cluster).
    let mut leaders: Vec<(usize, u32)> = Vec::new(); // (rank, cluster)
    for (c, group) in groups.iter().enumerate() {
        if group.is_empty() || c as u32 == root_cluster {
            continue;
        }
        let leader = group[0] as usize;
        net.start_flow(members[root_rank], members[leader], Some(message), 0);
        leaders.push((leader, c as u32));
    }
    let crossings = leaders.len();
    net.run_bounded_to_completion(86_400.0);
    let phase_a_rounds = usize::from(!leaders.is_empty());

    // Phase B: local binomial trees inside every cluster, all concurrent.
    // Each cluster's holder set starts with its root/leader.
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
    let mut pending: Vec<std::collections::VecDeque<usize>> =
        vec![std::collections::VecDeque::new(); groups.len()];
    for (c, group) in groups.iter().enumerate() {
        let lead = if c as u32 == root_cluster {
            root_rank
        } else {
            match leaders.iter().find(|&&(_, lc)| lc == c as u32) {
                Some(&(l, _)) => l,
                None => continue, // empty cluster
            }
        };
        holders[c].push(lead);
        for &m in group {
            if m as usize != lead {
                pending[c].push_back(m as usize);
            }
        }
    }
    let mut rounds = phase_a_rounds;
    while pending.iter().any(|p| !p.is_empty()) {
        let mut receivers: Vec<(usize, usize)> = Vec::new();
        for c in 0..groups.len() {
            let hs = holders[c].clone();
            for s in hs {
                let Some(r) = pending[c].pop_front() else { break };
                net.start_flow(members[s], members[r], Some(message), 0);
                receivers.push((c, r));
            }
        }
        net.run_bounded_to_completion(86_400.0);
        for (c, r) in receivers {
            holders[c].push(r);
        }
        rounds += 1;
    }
    CollectiveResult { makespan: net.time(), rounds, inter_cluster_transfers: crossings }
}

fn index_map<'a>(order: &'a [NodeId], clusters: &'a Partition) -> impl Fn(NodeId) -> u32 + 'a {
    move |node: NodeId| {
        let rank = order.iter().position(|&n| n == node).expect("node in order");
        clusters.cluster_of(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btt_netsim::grid5000::Grid5000;

    fn setup() -> (Arc<RouteTable>, Vec<NodeId>, Partition) {
        let grid = Grid5000::builder().bordeaux(8, 0, 8).build();
        let routes = Arc::new(RouteTable::new(grid.topology.clone()));
        let hosts = grid.all_hosts();
        let clusters =
            Partition::from_assignments(&(0..16).map(|i| u32::from(i >= 8)).collect::<Vec<_>>());
        (routes, hosts, clusters)
    }

    #[test]
    fn aware_schedule_beats_worst_case_flat() {
        let (routes, hosts, clusters) = setup();
        let message = 256e6; // 256 MB

        // Worst-case-ish flat order: all of cluster 0, then all of cluster 1
        // — the final round pushes 8 concurrent transfers over the trunk.
        let flat = flat_binomial_broadcast(&routes, &hosts, message, &clusters);
        let aware = cluster_aware_broadcast(&routes, &hosts, &clusters, 0, message);

        assert!(aware.inter_cluster_transfers == 1, "one trunk crossing");
        assert!(flat.inter_cluster_transfers >= 8, "flat order floods the trunk");
        assert!(
            aware.makespan < 0.6 * flat.makespan,
            "aware {} vs flat {}",
            aware.makespan,
            flat.makespan
        );
    }

    #[test]
    fn everyone_receives_in_log_rounds() {
        let (routes, hosts, clusters) = setup();
        let aware = cluster_aware_broadcast(&routes, &hosts, &clusters, 0, 1e6);
        // Phase A (1) + local binomial over 8 nodes (3 rounds).
        assert_eq!(aware.rounds, 4);
        let flat = flat_binomial_broadcast(&routes, &hosts, 1e6, &clusters);
        assert_eq!(flat.rounds, 4, "binomial over 16 = 4 rounds");
    }

    #[test]
    fn single_cluster_degenerates_to_binomial() {
        let (routes, hosts, _) = setup();
        let one = Partition::trivial(16);
        let aware = cluster_aware_broadcast(&routes, &hosts, &one, 0, 1e6);
        assert_eq!(aware.inter_cluster_transfers, 0);
        assert_eq!(aware.rounds, 4);
    }

    #[test]
    fn root_in_any_cluster_works() {
        let (routes, hosts, clusters) = setup();
        let a = cluster_aware_broadcast(&routes, &hosts, &clusters, 12, 64e6);
        assert!(a.makespan > 0.0);
        assert_eq!(a.inter_cluster_transfers, 1);
    }

    #[test]
    fn two_node_broadcast() {
        let (routes, hosts, _) = setup();
        let two = Partition::from_assignments(&[0, 1]);
        let r = cluster_aware_broadcast(&routes, &hosts[..2], &two, 0, 1e6);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.inter_cluster_transfers, 1);
    }
}
