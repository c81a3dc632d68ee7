//! Network topology model: hosts, switches, routers, and full-duplex links.
//!
//! A [`Topology`] is an undirected multigraph. Every link is full-duplex: each
//! direction is an independent capacity resource, identified by a
//! [`ChannelId`]. The max-min fairness solver and the engine work exclusively
//! on channels; links exist for construction and reporting.

use crate::units::Bandwidth;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node (host, switch, or router) in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an undirected link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link index as a `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// The directed channel from the link's `a` endpoint towards `b`.
    #[inline]
    pub fn forward(self) -> ChannelId {
        ChannelId(self.0 * 2)
    }

    /// The directed channel from the link's `b` endpoint towards `a`.
    #[inline]
    pub fn reverse(self) -> ChannelId {
        ChannelId(self.0 * 2 + 1)
    }
}

/// One direction of a full-duplex link: the unit of capacity in the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The channel index as a `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// The undirected link this channel belongs to.
    #[inline]
    pub fn link(self) -> LinkId {
        LinkId(self.0 / 2)
    }

    /// The same link's channel in the other direction.
    #[inline]
    pub fn opposite(self) -> ChannelId {
        ChannelId(self.0 ^ 1)
    }
}

/// What a node is. Only hosts terminate flows; switches and routers forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A compute node that can source/sink traffic.
    Host,
    /// An intra-site Ethernet switch.
    Switch,
    /// A site border router (attachment point to the WAN).
    Router,
}

/// A network node: a name and a kind. Which site and physical cluster a
/// host belongs to is recorded once, in
/// [`Grid5000::sites`](crate::grid5000::Grid5000::sites).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Unique human-readable name, e.g. `"bordeaux/bordeplage-07"`.
    pub name: String,
    /// Host, switch, or router.
    pub kind: NodeKind,
}

/// A full-duplex link between two nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// First endpoint (direction `forward` flows a → b).
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Capacity of **each** direction (full duplex).
    pub capacity: Bandwidth,
    /// Optional cap applied to every individual flow crossing this link,
    /// regardless of contention. Used to model latency-limited TCP windows on
    /// WAN paths (see DESIGN.md §2, "TCP effects").
    pub per_flow_cap: Option<Bandwidth>,
    /// One-way propagation latency in seconds.
    pub latency: f64,
}

/// Construction-time description of a link's properties.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Capacity of each direction.
    pub capacity: Bandwidth,
    /// Optional per-flow cap (see [`Link::per_flow_cap`]).
    pub per_flow_cap: Option<Bandwidth>,
    /// One-way latency in seconds.
    pub latency: f64,
}

impl LinkSpec {
    /// A LAN-like link: given capacity, 50 µs latency, no per-flow cap.
    pub fn lan(capacity: Bandwidth) -> Self {
        LinkSpec { capacity, per_flow_cap: None, latency: 50e-6 }
    }

    /// A WAN-like link: given capacity, latency, and per-flow cap.
    pub fn wan(capacity: Bandwidth, latency: f64, per_flow_cap: Bandwidth) -> Self {
        LinkSpec { capacity, per_flow_cap: Some(per_flow_cap), latency }
    }
}

/// An immutable network topology, produced by [`TopologyBuilder`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[node] = (neighbor, link) pairs in insertion order.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
    hosts: Vec<NodeId>,
}

impl Topology {
    /// Number of nodes (hosts + switches + routers).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of directed channels (2 × links).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.links.len() * 2
    }

    /// The node record for `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// The link record for `id`.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// All nodes, indexable by [`NodeId::idx`].
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, indexable by [`LinkId::idx`].
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Host nodes only, in insertion order — the endpoints visible to
    /// application-level tomography.
    #[inline]
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Neighbors of `id` with the connecting links, in insertion order.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[id.idx()]
    }

    /// Capacity of each directed channel, indexed by [`ChannelId::idx`].
    pub fn channel_capacities(&self) -> Vec<f64> {
        let mut caps = Vec::with_capacity(self.num_channels());
        for link in &self.links {
            caps.push(link.capacity.bytes_per_sec());
            caps.push(link.capacity.bytes_per_sec());
        }
        caps
    }

    /// The node a channel transmits *towards*.
    pub fn channel_head(&self, ch: ChannelId) -> NodeId {
        let link = self.link(ch.link());
        if ch.idx().is_multiple_of(2) {
            link.b
        } else {
            link.a
        }
    }

    /// The node a channel transmits *from*.
    pub fn channel_tail(&self, ch: ChannelId) -> NodeId {
        let link = self.link(ch.link());
        if ch.idx().is_multiple_of(2) {
            link.a
        } else {
            link.b
        }
    }

    /// The channel crossing `link` from `from`, if `from` is an endpoint.
    pub fn channel_from(&self, link_id: LinkId, from: NodeId) -> Option<ChannelId> {
        let link = self.link(link_id);
        if link.a == from {
            Some(link_id.forward())
        } else if link.b == from {
            Some(link_id.reverse())
        } else {
            None
        }
    }

    /// Finds a node by exact name. O(n); intended for tests and setup code.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(|i| NodeId(i as u32))
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(next, _) in self.neighbors(n) {
                if !seen[next.idx()] {
                    seen[next.idx()] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.nodes.len()
    }
}

/// Errors raised while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two nodes were registered with the same name.
    DuplicateName(String),
    /// A link's endpoints are the same node.
    SelfLoop(String),
    /// The finished topology is not connected.
    Disconnected,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateName(n) => write!(f, "duplicate node name: {n}"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop on node: {n}"),
            TopologyError::Disconnected => write!(f, "topology is not connected"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Incremental builder for [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    names: crate::util::FxHashSet<String>,
    error: Option<TopologyError>,
}

impl TopologyBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_node(&mut self, name: String, kind: NodeKind) -> NodeId {
        if !self.names.insert(name.clone()) {
            self.error.get_or_insert(TopologyError::DuplicateName(name.clone()));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { name, kind });
        id
    }

    /// Adds a host that can source and sink traffic. Its site and physical
    /// cluster are the caller's to record (the grid builders list them in
    /// [`Grid5000::sites`](crate::grid5000::Grid5000::sites)).
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeKind::Host)
    }

    /// Adds a switch.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeKind::Switch)
    }

    /// Adds a router (site border or WAN core).
    pub fn add_router(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeKind::Router)
    }

    /// Connects two nodes with a full-duplex link.
    pub fn link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        if a == b {
            let name = self.nodes[a.idx()].name.clone();
            self.error.get_or_insert(TopologyError::SelfLoop(name));
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            capacity: spec.capacity,
            per_flow_cap: spec.per_flow_cap,
            latency: spec.latency,
        });
        id
    }

    /// Finalizes and validates the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut adjacency = vec![Vec::new(); self.nodes.len()];
        for (i, link) in self.links.iter().enumerate() {
            let id = LinkId(i as u32);
            adjacency[link.a.idx()].push((link.b, id));
            adjacency[link.b.idx()].push((link.a, id));
        }
        let hosts = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == NodeKind::Host)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let topo = Topology { nodes: self.nodes, links: self.links, adjacency, hosts };
        if !topo.is_connected() {
            return Err(TopologyError::Disconnected);
        }
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        let mut b = TopologyBuilder::new();
        let h1 = b.add_host("h1");
        let h2 = b.add_host("h2");
        let sw = b.add_switch("sw");
        b.link(h1, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
        b.link(h2, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
        b.build().unwrap()
    }

    #[test]
    #[should_panic(expected = "no route from n0 to n1")]
    fn routes_across_components_panic() {
        use crate::routing::RouteTable;
        use std::sync::Arc;
        // `build` rejects disconnected topologies, so assemble them directly.
        // First `tiny()` without the h2-sw link: no node there is a leaf.
        let t = tiny();
        let (h1, h2, sw) = (NodeId(0), NodeId(1), NodeId(2));
        let adjacency = vec![vec![(sw, LinkId(0))], Vec::new(), vec![(h1, LinkId(0))]];
        let split = Topology {
            nodes: t.nodes.clone(),
            links: vec![t.links[0].clone()],
            adjacency,
            hosts: t.hosts.clone(),
        };
        let rt = RouteTable::new(Arc::new(split));
        assert_eq!(rt.route(h1, sw).len(), 1);
        let err = std::panic::catch_unwind(|| rt.route(h1, h2)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.starts_with("no route from n0 to n1"), "{msg}");

        // Then two stars h1 - sw - h3 and h2 - sw2 - h4: h1 and h2 are
        // leaves, and the panic names them, not their attachments.
        let mut b = TopologyBuilder::new();
        let h1 = b.add_host("h1");
        let h2 = b.add_host("h2");
        let sw = b.add_switch("sw");
        let sw2 = b.add_switch("sw2");
        let h3 = b.add_host("h3");
        let h4 = b.add_host("h4");
        let bw = LinkSpec::lan(Bandwidth::from_mbps(890.0));
        b.link(h1, sw, bw);
        b.link(h3, sw, bw);
        b.link(h2, sw2, bw);
        b.link(h4, sw2, bw);
        let adjacency = vec![
            vec![(sw, LinkId(0))],
            vec![(sw2, LinkId(2))],
            vec![(h1, LinkId(0)), (h3, LinkId(1))],
            vec![(h2, LinkId(2)), (h4, LinkId(3))],
            vec![(sw, LinkId(1))],
            vec![(sw2, LinkId(3))],
        ];
        let hosts = vec![h1, h2, h3, h4];
        let split = Topology { nodes: b.nodes, links: b.links, adjacency, hosts };
        let rt = RouteTable::new(Arc::new(split));
        assert_eq!(rt.route(h1, h3).len(), 2);
        rt.route(h1, h2);
    }

    #[test]
    fn builds_and_counts() {
        let t = tiny();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 2);
        assert_eq!(t.num_channels(), 4);
        assert_eq!(t.hosts().len(), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn channel_endpoints() {
        let t = tiny();
        let l = LinkId(0);
        assert_eq!(t.channel_tail(l.forward()), t.link(l).a);
        assert_eq!(t.channel_head(l.forward()), t.link(l).b);
        assert_eq!(t.channel_tail(l.reverse()), t.link(l).b);
        assert_eq!(t.channel_head(l.reverse()), t.link(l).a);
        assert_eq!(l.forward().link(), l);
        assert_eq!(l.reverse().link(), l);
        assert_ne!(l.forward(), l.reverse());
    }

    #[test]
    fn channel_from_picks_direction() {
        let t = tiny();
        let l = LinkId(0);
        let a = t.link(l).a;
        let b = t.link(l).b;
        assert_eq!(t.channel_from(l, a), Some(l.forward()));
        assert_eq!(t.channel_from(l, b), Some(l.reverse()));
        assert_eq!(
            t.channel_from(l, NodeId(2)).is_some(),
            t.link(l).a == NodeId(2) || t.link(l).b == NodeId(2)
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = TopologyBuilder::new();
        let h1 = b.add_host("x");
        let h2 = b.add_host("x");
        b.link(h1, h2, LinkSpec::lan(Bandwidth::from_mbps(1.0)));
        assert_eq!(b.build().unwrap_err(), TopologyError::DuplicateName("x".into()));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new();
        let h1 = b.add_host("x");
        b.link(h1, h1, LinkSpec::lan(Bandwidth::from_mbps(1.0)));
        assert!(matches!(b.build().unwrap_err(), TopologyError::SelfLoop(_)));
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = TopologyBuilder::new();
        b.add_host("x");
        b.add_host("y");
        assert_eq!(b.build().unwrap_err(), TopologyError::Disconnected);
    }

    #[test]
    fn site_and_cluster_lookup() {
        let mut b = TopologyBuilder::new();
        let h1 = b.add_host("a1");
        let h2 = b.add_host("a2");
        let h3 = b.add_host("b1");
        let sw = b.add_switch("sw");
        for h in [h1, h2, h3] {
            b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
        }
        let t = b.build().unwrap();
        assert_eq!(t.find_node("a2"), Some(h2));
        assert_eq!(t.find_node("b1"), Some(h3));
        assert_eq!(t.find_node("nope"), None);
    }

    #[test]
    fn capacities_are_per_channel() {
        let t = tiny();
        let caps = t.channel_capacities();
        assert_eq!(caps.len(), 4);
        for c in caps {
            assert!((c - Bandwidth::from_mbps(890.0).bytes_per_sec()).abs() < 1e-6);
        }
    }
}
