//! Shortest-path routing between hosts.
//!
//! Routes are computed once per topology with BFS over hop count, with
//! deterministic tie-breaking (first-discovered parent wins, neighbors visited
//! in adjacency insertion order). A route is read back as the sequence of
//! directed [`ChannelId`]s a flow occupies, which is exactly what the max-min
//! solver needs.

use crate::topology::{ChannelId, NodeId, Topology};
use std::sync::Arc;

/// Parent entry of a BFS root and of nodes it cannot reach.
const NO_PARENT: u32 = u32::MAX;

/// All-pairs routes over a topology.
///
/// Paths are stored from every node (not just hosts) so baselines can probe
/// arbitrary endpoints. The table is one flat array of BFS parent channels,
/// 4 B per node pair: about 76 MB for the 4,369 nodes of a 4096-host
/// fat-tree.
#[derive(Debug, Clone)]
pub struct RouteTable {
    topo: Arc<Topology>,
    /// `parents[src * n + node]` = index of the directed channel parent→node
    /// on the BFS tree rooted at `src`, or [`NO_PARENT`]. The channel's tail
    /// is the parent, so a route is walked with one table load and one link
    /// lookup per hop.
    parents: Vec<u32>,
}

impl RouteTable {
    /// Computes routes for `topo` by BFS from every node.
    pub fn new(topo: Arc<Topology>) -> Self {
        let n = topo.num_nodes();
        let mut parents = vec![NO_PARENT; n * n];
        let mut queue = Vec::with_capacity(n);
        for (s, row) in parents.chunks_exact_mut(n.max(1)).enumerate() {
            bfs(&topo, NodeId(s as u32), row, &mut queue);
        }
        RouteTable { topo, parents }
    }

    /// The topology these routes were computed for.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Hop count of the route from `src` to `dst`.
    ///
    /// # Panics
    /// When `dst` is unreachable from `src`, like [`route`](Self::route).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.walk(src, dst).count() as u32
    }

    /// Sum of one-way link latencies along the route.
    pub fn latency(&self, src: NodeId, dst: NodeId) -> f64 {
        self.route(src, dst).iter().map(|ch| self.topo.link(ch.link()).latency).sum()
    }

    /// The directed channels a flow from `src` to `dst` occupies, in path
    /// order. Empty when `src == dst`.
    ///
    /// Channels are oriented in the direction of travel, so the same physical
    /// link used by `a→b` and `b→a` flows contributes different channels —
    /// full-duplex links do not couple the two directions.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<ChannelId> {
        let mut out = Vec::new();
        self.route_into(src, dst, &mut out);
        out
    }

    /// [`route`](Self::route) into a caller-provided buffer (cleared first),
    /// so per-flow-start lookups on the hot path reuse one allocation.
    pub fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<ChannelId>) {
        out.clear();
        out.extend(self.walk(src, dst));
        out.reverse();
    }

    /// The route's channels from `dst` back to `src`, following the BFS
    /// tree rooted at `src`. Panics on reaching a node without a parent.
    fn walk(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = ChannelId> + '_ {
        let n = self.topo.num_nodes();
        let row = &self.parents[src.idx() * n..][..n];
        let mut cur = dst;
        std::iter::from_fn(move || {
            if cur == src {
                return None;
            }
            // The flow travels parent -> cur over the stored channel.
            let ch = row[cur.idx()];
            if ch == NO_PARENT {
                panic!("no route from {src} to {dst} (disconnected topology?)");
            }
            let ch = ChannelId(ch);
            cur = self.topo.channel_tail(ch);
            Some(ch)
        })
    }

    /// Tightest per-flow cap along the route, if any link imposes one.
    pub fn route_flow_cap(&self, route: &[ChannelId]) -> Option<f64> {
        route
            .iter()
            .filter_map(|ch| self.topo.link(ch.link()).per_flow_cap)
            .map(|bw| bw.bytes_per_sec())
            .fold(None, |acc, c| Some(acc.map_or(c, |a: f64| a.min(c))))
    }
}

/// Fills `parents` (one row of the table, all [`NO_PARENT`] on entry) with
/// the BFS tree rooted at `src`. A node is visited once it has a parent, so
/// the row doubles as the visited set; `queue` is scratch reused across
/// sources.
fn bfs(topo: &Topology, src: NodeId, parents: &mut [u32], queue: &mut Vec<NodeId>) {
    queue.clear();
    queue.push(src);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        for &(v, link) in topo.neighbors(u) {
            if v != src && parents[v.idx()] == NO_PARENT {
                let ch = topo.channel_from(link, u).expect("neighbors share their link");
                parents[v.idx()] = ch.0;
                queue.push(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkSpec, TopologyBuilder};
    use crate::units::Bandwidth;

    fn line() -> (Arc<Topology>, Vec<NodeId>) {
        // h0 - sw0 - sw1 - h1   plus   h2 - sw0
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0", "s", "c");
        let h1 = b.add_host("h1", "s", "c");
        let h2 = b.add_host("h2", "s", "c");
        let sw0 = b.add_switch("sw0", "s");
        let sw1 = b.add_switch("sw1", "s");
        let bw = LinkSpec::lan(Bandwidth::from_mbps(1000.0));
        b.link(h0, sw0, bw);
        b.link(sw0, sw1, bw);
        b.link(sw1, h1, bw);
        b.link(h2, sw0, bw);
        let t = Arc::new(b.build().unwrap());
        (t, vec![h0, h1, h2])
    }

    #[test]
    fn route_lengths() {
        let (t, hs) = line();
        let rt = RouteTable::new(t);
        assert_eq!(rt.route(hs[0], hs[1]).len(), 3);
        assert_eq!(rt.route(hs[0], hs[2]).len(), 2);
        assert_eq!(rt.route(hs[0], hs[0]).len(), 0);
        assert_eq!(rt.hops(hs[0], hs[1]), 3);
    }

    #[test]
    fn route_is_contiguous_and_oriented() {
        let (t, hs) = line();
        let rt = RouteTable::new(t.clone());
        let route = rt.route(hs[0], hs[1]);
        assert_eq!(t.channel_tail(route[0]), hs[0]);
        assert_eq!(t.channel_head(*route.last().unwrap()), hs[1]);
        for w in route.windows(2) {
            assert_eq!(t.channel_head(w[0]), t.channel_tail(w[1]));
        }
    }

    #[test]
    fn reverse_route_uses_opposite_channels() {
        let (t, hs) = line();
        let rt = RouteTable::new(t);
        let fwd = rt.route(hs[0], hs[1]);
        let rev = rt.route(hs[1], hs[0]);
        assert_eq!(fwd.len(), rev.len());
        // Same links in opposite order, opposite channel of each.
        for (f, r) in fwd.iter().zip(rev.iter().rev()) {
            assert_eq!(f.link(), r.link());
            assert_ne!(f, r);
        }
    }

    #[test]
    fn latency_sums_links() {
        let (t, hs) = line();
        let rt = RouteTable::new(t);
        let lat = rt.latency(hs[0], hs[1]);
        assert!((lat - 3.0 * 50e-6).abs() < 1e-12);
    }

    #[test]
    fn flow_cap_is_min_over_route() {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0", "s", "c");
        let h1 = b.add_host("h1", "s", "c");
        let r = b.add_router("r", None);
        b.link(h0, r, LinkSpec::wan(Bandwidth::from_gbps(10.0), 1e-3, Bandwidth::from_mbps(787.0)));
        b.link(r, h1, LinkSpec::wan(Bandwidth::from_gbps(10.0), 1e-3, Bandwidth::from_mbps(500.0)));
        let t = Arc::new(b.build().unwrap());
        let rt = RouteTable::new(t);
        let route = rt.route(h0, h1);
        let cap = rt.route_flow_cap(&route).unwrap();
        assert!((cap - Bandwidth::from_mbps(500.0).bytes_per_sec()).abs() < 1e-6);
        // A LAN route has no cap.
        let (t2, hs) = {
            let mut b = TopologyBuilder::new();
            let a = b.add_host("a", "s", "c");
            let c = b.add_host("c", "s", "c");
            b.link(a, c, LinkSpec::lan(Bandwidth::from_mbps(100.0)));
            (Arc::new(b.build().unwrap()), vec![a, c])
        };
        let rt2 = RouteTable::new(t2);
        assert_eq!(rt2.route_flow_cap(&rt2.route(hs[0], hs[1])), None);
    }

    #[test]
    fn bfs_prefers_fewer_hops_deterministically() {
        // Diamond: h0 - a - h1 and h0 - b - c - h1; must pick the 2-hop path.
        let mut bld = TopologyBuilder::new();
        let h0 = bld.add_host("h0", "s", "c");
        let h1 = bld.add_host("h1", "s", "c");
        let a = bld.add_switch("a", "s");
        let b = bld.add_switch("b", "s");
        let c = bld.add_switch("c", "s");
        let bw = LinkSpec::lan(Bandwidth::from_mbps(100.0));
        bld.link(h0, b, bw);
        bld.link(b, c, bw);
        bld.link(c, h1, bw);
        bld.link(h0, a, bw);
        bld.link(a, h1, bw);
        let t = Arc::new(bld.build().unwrap());
        let rt = RouteTable::new(t);
        assert_eq!(rt.route(h0, h1).len(), 2);
        // Deterministic: same table computed twice gives identical routes.
        let rt2 = RouteTable::new(rt.topology().clone());
        assert_eq!(rt.route(h0, h1), rt2.route(h0, h1));
    }
}
