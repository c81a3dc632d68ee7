//! Shortest-path routing between hosts.
//!
//! Routes are computed once per topology with BFS over hop count, with
//! deterministic tie-breaking (first-discovered parent wins, neighbors visited
//! in adjacency insertion order). A route is read back as the sequence of
//! directed [`ChannelId`]s a flow occupies, which is exactly what the max-min
//! solver needs.
//!
//! BFS runs over the *core* only. A *leaf* is a node with exactly one link
//! whose neighbour, its *attachment*, has more than one. A leaf relays no
//! traffic: on any BFS tree it is discovered last along its one link and
//! discovers nothing, so dropping leaves from the queue leaves every core
//! node's discovery order and parent channel unchanged. A leaf's route is
//! its access channel plus its attachment's core route, and a route to a
//! leaf is its attachment's core route plus the downlink.

use crate::topology::{ChannelId, NodeId, Topology};
use std::sync::Arc;

/// Parent entry of a BFS root and of nodes it cannot reach.
const NO_PARENT: u32 = u32::MAX;

/// How a node reaches the core.
#[derive(Debug, Clone, Copy)]
enum Place {
    /// A core node, with its index into the core table.
    Core(u32),
    /// A leaf, with its access channel (leaf → attachment).
    Leaf(ChannelId),
}

/// All-pairs routes over a topology.
///
/// Paths are available from every node (not just hosts) so baselines can
/// probe arbitrary endpoints. Storage is one flat array of BFS parent
/// channels over core node pairs, 4 B × core², plus one attachment entry per
/// node. A 4096-host fat-tree has 273 core nodes among its 4,369, so its
/// table is about 0.3 MB.
#[derive(Debug, Clone)]
pub struct RouteTable {
    topo: Arc<Topology>,
    /// Per node: its core index, or a leaf's access channel.
    place: Vec<Place>,
    /// Number of core nodes.
    cores: usize,
    /// `parents[s * cores + i]` = index of the directed channel parent→node
    /// on the BFS tree rooted at core node `s`, for core node `i`, or
    /// [`NO_PARENT`]. The channel's tail is the parent, so a route is walked
    /// with one table load and one link lookup per hop.
    parents: Vec<u32>,
}

impl RouteTable {
    /// Computes routes for `topo` by BFS from every core node.
    pub fn new(topo: Arc<Topology>) -> Self {
        let mut core = Vec::new();
        let place: Vec<Place> = (0..topo.num_nodes() as u32)
            .map(|v| {
                let v = NodeId(v);
                match *topo.neighbors(v) {
                    [(attachment, link)] if topo.neighbors(attachment).len() > 1 => {
                        Place::Leaf(topo.channel_from(link, v).expect("neighbors share their link"))
                    }
                    _ => {
                        core.push(v);
                        Place::Core(core.len() as u32 - 1)
                    }
                }
            })
            .collect();
        let cores = core.len();
        let mut parents = vec![NO_PARENT; cores * cores];
        let mut queue = Vec::with_capacity(cores);
        for (&src, row) in core.iter().zip(parents.chunks_exact_mut(cores.max(1))) {
            bfs(&topo, &place, src, row, &mut queue);
        }
        RouteTable { topo, place, cores, parents }
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

    /// The core node `v` routes through, and a leaf's access channel.
    fn entry(&self, v: NodeId) -> (NodeId, Option<ChannelId>) {
        match self.place[v.idx()] {
            Place::Core(_) => (v, None),
            Place::Leaf(up) => (self.topo.channel_head(up), Some(up)),
        }
    }

    /// Index of core node `v` into the core table.
    fn core_index(&self, v: NodeId) -> usize {
        match self.place[v.idx()] {
            Place::Core(i) => i as usize,
            Place::Leaf(_) => unreachable!("leaves relay no traffic"),
        }
    }

    /// The route's channels from `dst` back to `src`: the downlink into a
    /// leaf `dst`, the core route back along the BFS tree rooted at `src`'s
    /// core node, then a leaf `src`'s access channel. Panics on reaching a
    /// core node without a parent.
    fn walk(&self, src: NodeId, dst: NodeId) -> impl Iterator<Item = ChannelId> + '_ {
        let (s, up) = self.entry(src);
        let (d, down) = self.entry(dst);
        let (up, down) =
            if src == dst { (None, None) } else { (up, down.map(ChannelId::opposite)) };
        let row = &self.parents[self.core_index(s) * self.cores..][..self.cores];
        let mut cur = d;
        let core = std::iter::from_fn(move || {
            if cur == s {
                return None;
            }
            // The flow travels parent -> cur over the stored channel.
            let ch = row[self.core_index(cur)];
            if ch == NO_PARENT {
                panic!("no route from {src} to {dst} (disconnected topology?)");
            }
            let ch = ChannelId(ch);
            cur = self.topo.channel_tail(ch);
            Some(ch)
        });
        down.into_iter().chain(core).chain(up)
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

/// Fills `parents` (one row of the core table, all [`NO_PARENT`] on entry)
/// with the BFS tree rooted at core node `src`, skipping leaves. A node is
/// visited once it has a parent, so the row doubles as the visited set;
/// `queue` is scratch reused across sources.
fn bfs(
    topo: &Topology,
    place: &[Place],
    src: NodeId,
    parents: &mut [u32],
    queue: &mut Vec<NodeId>,
) {
    queue.clear();
    queue.push(src);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        for &(v, link) in topo.neighbors(u) {
            let Place::Core(i) = place[v.idx()] else { continue };
            if v != src && parents[i as usize] == NO_PARENT {
                let ch = topo.channel_from(link, u).expect("neighbors share their link");
                parents[i as usize] = ch.0;
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
