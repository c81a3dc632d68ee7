//! Parameterized synthetic topology generators for scenario sweeps.
//!
//! The paper's experiments all run on Grid'5000 snapshots ([`crate::grid5000`]),
//! but the related cluster-experimentation literature (Rao et al.; Wang &
//! Kangasharju) shows that BitTorrent measurement conclusions are highly
//! sensitive to the topology/latency regime. These generators produce
//! *families* of networks with tunable bottleneck severity so campaigns can
//! sweep far beyond the five paper datasets:
//!
//! * [`FatTree`] — a two-tier datacenter tree (racks → pod aggregation →
//!   core) with independent edge and core oversubscription ratios;
//! * [`StarOfStars`] — a hub site with its own hosts plus `arms` satellite
//!   stars behind tunable uplinks (the classic campus/branch-office shape);
//! * [`HeteroWan`] — several sites with heterogeneous access speeds joined
//!   through a WAN core, each site↔core segment scaled by a bottleneck
//!   ratio and carrying a per-flow cap (window-limited TCP).
//!
//! All generators reuse the [`Grid5000`] container (topology + site/cluster
//! host groups) so everything downstream — routing, swarms, ground-truth
//! derivation — works unchanged. Construction is deterministic: no RNG is
//! involved, and node ids depend only on the parameters.

use crate::grid5000::Grid5000;
use crate::topology::{LinkSpec, NodeId, TopologyBuilder};
use crate::units::Bandwidth;
use std::sync::Arc;

/// Default host access-link goodput for synthetic networks (Mb/s), tied to
/// the paper's measured 1 GbE calibration so synthetic and Grid'5000
/// scenarios are directly comparable.
pub const SYNTH_ACCESS_MBPS: f64 = crate::grid5000::INTRA_GOODPUT_MBPS;

/// A two-tier fat-tree: `pods` pods, each holding `racks_per_pod` racks of
/// `hosts_per_rack` hosts.
///
/// Each rack has an edge switch; edge switches connect to a per-pod
/// aggregation switch, and aggregation switches connect to a single core
/// switch. The two uplink tiers are provisioned relative to the aggregate
/// demand below them:
///
/// * rack uplink capacity = `hosts_per_rack × access / edge_oversubscription`
/// * pod uplink capacity  = `racks_per_pod × hosts_per_rack × access /
///   core_oversubscription`
///
/// An oversubscription of 1.0 means the tier is non-blocking (no tomographic
/// signal); larger values make the tier a bottleneck under collective load —
/// the regime the paper's method targets.
///
/// ```
/// use btt_netsim::synthetic::FatTree;
/// let g = FatTree { pods: 2, racks_per_pod: 2, hosts_per_rack: 3,
///                   edge_oversubscription: 4.0, core_oversubscription: 2.0 }.build();
/// assert_eq!(g.all_hosts().len(), 12);
/// assert_eq!(g.sites.len(), 2); // one site per pod
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FatTree {
    /// Number of pods (aggregation domains).
    pub pods: usize,
    /// Racks per pod.
    pub racks_per_pod: usize,
    /// Hosts per rack.
    pub hosts_per_rack: usize,
    /// Rack-uplink oversubscription (≥ 1.0 is conventional; 1.0 = non-blocking).
    pub edge_oversubscription: f64,
    /// Pod-uplink oversubscription.
    pub core_oversubscription: f64,
}

impl FatTree {
    /// Builds the network. Panics on degenerate parameters (zero counts or
    /// non-positive ratios), which are programming errors in sweep setup.
    pub fn build(&self) -> Grid5000 {
        assert!(self.pods > 0 && self.racks_per_pod > 0 && self.hosts_per_rack > 0);
        assert!(self.edge_oversubscription > 0.0 && self.core_oversubscription > 0.0);
        let access = LinkSpec::lan(Bandwidth::from_mbps(SYNTH_ACCESS_MBPS));
        let rack_up = Bandwidth::from_mbps(
            self.hosts_per_rack as f64 * SYNTH_ACCESS_MBPS / self.edge_oversubscription,
        );
        let pod_up = Bandwidth::from_mbps(
            (self.racks_per_pod * self.hosts_per_rack) as f64 * SYNTH_ACCESS_MBPS
                / self.core_oversubscription,
        );

        let mut b = TopologyBuilder::new();
        let core = b.add_switch("core/switch");
        let mut sites = Vec::with_capacity(self.pods);
        for p in 0..self.pods {
            let site = format!("pod-{p}");
            let agg = b.add_switch(format!("{site}/agg"));
            b.link(agg, core, LinkSpec::lan(pod_up));
            let mut clusters = Vec::with_capacity(self.racks_per_pod);
            for r in 0..self.racks_per_pod {
                let rack = format!("rack-{r}");
                let edge = b.add_switch(format!("{site}/{rack}/edge"));
                b.link(edge, agg, LinkSpec::lan(rack_up));
                let hosts: Vec<NodeId> = (0..self.hosts_per_rack)
                    .map(|h| {
                        let id = b.add_host(format!("{site}/{rack}/host-{h:02}"));
                        b.link(id, edge, access);
                        id
                    })
                    .collect();
                clusters.push((rack, hosts));
            }
            sites.push(crate::grid5000::SiteHosts { site, clusters });
        }
        let topology = Arc::new(b.build().expect("fat-tree builder produces valid topologies"));
        Grid5000 { topology, sites }
    }
}

/// A hub-and-spoke "star of stars": one hub site with `hub_hosts` hosts plus
/// `arms` satellite stars of `hosts_per_arm` hosts each.
///
/// Every arm's uplink to the hub carries
/// `hosts_per_arm × access × uplink_ratio`, so `uplink_ratio < 1.0` makes the
/// uplink a bottleneck once more than `hosts_per_arm × uplink_ratio` flows
/// cross it concurrently — a tunable dial from "invisible" to "severe".
///
/// ```
/// use btt_netsim::synthetic::StarOfStars;
/// let g = StarOfStars { arms: 3, hosts_per_arm: 4, hub_hosts: 2, uplink_ratio: 0.25 }.build();
/// assert_eq!(g.all_hosts().len(), 14);
/// assert_eq!(g.sites.len(), 4); // hub + 3 arms
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarOfStars {
    /// Number of satellite stars.
    pub arms: usize,
    /// Hosts per satellite star.
    pub hosts_per_arm: usize,
    /// Hosts attached directly to the hub switch (0 for a pure relay hub
    /// is not allowed — the hub must host at least one peer).
    pub hub_hosts: usize,
    /// Arm-uplink capacity as a fraction of the arm's aggregate access
    /// demand (1.0 = non-blocking).
    pub uplink_ratio: f64,
}

impl StarOfStars {
    /// Builds the network. Panics on degenerate parameters.
    pub fn build(&self) -> Grid5000 {
        assert!(self.arms > 0 && self.hosts_per_arm > 0 && self.hub_hosts > 0);
        assert!(self.uplink_ratio > 0.0);
        let access = LinkSpec::lan(Bandwidth::from_mbps(SYNTH_ACCESS_MBPS));
        let uplink =
            Bandwidth::from_mbps(self.hosts_per_arm as f64 * SYNTH_ACCESS_MBPS * self.uplink_ratio);

        let mut b = TopologyBuilder::new();
        let hub_sw = b.add_switch("hub/switch");
        let hub_hosts: Vec<NodeId> = (0..self.hub_hosts)
            .map(|h| {
                let id = b.add_host(format!("hub/host-{h:02}"));
                b.link(id, hub_sw, access);
                id
            })
            .collect();
        let mut sites = vec![crate::grid5000::SiteHosts {
            site: "hub".into(),
            clusters: vec![("main".into(), hub_hosts)],
        }];
        for a in 0..self.arms {
            let site = format!("arm-{a}");
            let sw = b.add_switch(format!("{site}/switch"));
            b.link(sw, hub_sw, LinkSpec::lan(uplink));
            let hosts: Vec<NodeId> = (0..self.hosts_per_arm)
                .map(|h| {
                    let id = b.add_host(format!("{site}/host-{h:02}"));
                    b.link(id, sw, access);
                    id
                })
                .collect();
            sites.push(crate::grid5000::SiteHosts { site, clusters: vec![("main".into(), hosts)] });
        }
        let topology = Arc::new(b.build().expect("star builder produces valid topologies"));
        Grid5000 { topology, sites }
    }
}

/// One site of a [`HeteroWan`].
#[derive(Debug, Clone, PartialEq)]
pub struct WanSite {
    /// Site name (must be unique within the WAN).
    pub name: String,
    /// Number of hosts.
    pub hosts: usize,
    /// Host access-link goodput (Mb/s).
    pub access_mbps: f64,
    /// Effective capacity of this site's WAN segment (Mb/s). Values below
    /// `hosts × access_mbps` make the segment a bottleneck under load.
    pub wan_mbps: f64,
}

/// A heterogeneous multi-site WAN: flat sites with per-site access speeds,
/// joined through a single WAN core router.
///
/// Each site↔core segment carries the site's `wan_mbps` effective capacity
/// plus a per-flow cap (`per_flow_cap_mbps`) modelling window-limited TCP —
/// the same structure as the Renater model in [`crate::grid5000`], but fully
/// parameterized.
///
/// ```
/// use btt_netsim::synthetic::HeteroWan;
/// let g = HeteroWan::uniform(3, 4, 0.5).build();
/// assert_eq!(g.all_hosts().len(), 12);
/// assert_eq!(g.sites.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroWan {
    /// The participating sites.
    pub sites: Vec<WanSite>,
    /// One-way latency of each site↔core segment (seconds).
    pub wan_latency: f64,
    /// Per-flow cap on WAN segments (Mb/s).
    pub per_flow_cap_mbps: f64,
}

impl HeteroWan {
    /// A uniform WAN: `sites` identical sites of `hosts` hosts at the
    /// default access speed, each WAN segment provisioned at
    /// `bottleneck_ratio` of the site's aggregate demand. Latency and
    /// per-flow cap take the Grid'5000-calibrated defaults.
    pub fn uniform(sites: usize, hosts: usize, bottleneck_ratio: f64) -> Self {
        Self::uniform_with_access(sites, hosts, bottleneck_ratio, SYNTH_ACCESS_MBPS)
    }

    /// Like [`HeteroWan::uniform`] with an explicit host access speed (Mb/s).
    ///
    /// Low access speeds model consumer-edge peers (the classic BitTorrent
    /// deployment regime): broadcasts take far longer in simulated time while
    /// moving the same number of fragments, which is exactly the workload
    /// where event-driven advancement beats fixed-step simulation. The WAN
    /// per-flow cap never binds below a host's own access rate, so it is
    /// clamped to `access_mbps` when access is the slower of the two.
    pub fn uniform_with_access(
        sites: usize,
        hosts: usize,
        bottleneck_ratio: f64,
        access_mbps: f64,
    ) -> Self {
        assert!(sites > 0 && hosts > 0 && bottleneck_ratio > 0.0 && access_mbps > 0.0);
        HeteroWan {
            sites: (0..sites)
                .map(|s| WanSite {
                    name: format!("site-{s}"),
                    hosts,
                    access_mbps,
                    wan_mbps: hosts as f64 * access_mbps * bottleneck_ratio,
                })
                .collect(),
            wan_latency: crate::grid5000::WAN_SEGMENT_LATENCY,
            per_flow_cap_mbps: crate::grid5000::WAN_FLOW_CAP_MBPS.min(access_mbps),
        }
    }

    /// Builds the network. Panics on degenerate parameters (no sites, empty
    /// site, non-positive bandwidths).
    pub fn build(&self) -> Grid5000 {
        assert!(!self.sites.is_empty(), "at least one site required");
        let mut b = TopologyBuilder::new();
        let core = b.add_router("wan/core");
        let mut sites = Vec::with_capacity(self.sites.len());
        for spec in &self.sites {
            assert!(spec.hosts > 0, "site {} needs at least one host", spec.name);
            assert!(spec.access_mbps > 0.0 && spec.wan_mbps > 0.0);
            let access = LinkSpec::lan(Bandwidth::from_mbps(spec.access_mbps));
            let sw = b.add_switch(format!("{}/switch", spec.name));
            let hosts: Vec<NodeId> = (0..spec.hosts)
                .map(|h| {
                    let id = b.add_host(format!("{}/host-{h:02}", spec.name));
                    b.link(id, sw, access);
                    id
                })
                .collect();
            let r = b.add_router(format!("{}/router", spec.name));
            // Site switch ↔ router is local and non-blocking.
            b.link(sw, r, LinkSpec::lan(Bandwidth::from_mbps(10.0 * spec.access_mbps)));
            b.link(
                r,
                core,
                LinkSpec::wan(
                    Bandwidth::from_mbps(spec.wan_mbps),
                    self.wan_latency,
                    Bandwidth::from_mbps(self.per_flow_cap_mbps),
                ),
            );
            sites.push(crate::grid5000::SiteHosts {
                site: spec.name.clone(),
                clusters: vec![("main".into(), hosts)],
            });
        }
        let topology = Arc::new(b.build().expect("wan builder produces valid topologies"));
        Grid5000 { topology, sites }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimNet;

    #[test]
    fn fat_tree_shape_and_connectivity() {
        let g = FatTree {
            pods: 3,
            racks_per_pod: 2,
            hosts_per_rack: 4,
            edge_oversubscription: 4.0,
            core_oversubscription: 2.0,
        }
        .build();
        assert_eq!(g.all_hosts().len(), 24);
        assert_eq!(g.sites.len(), 3);
        for s in &g.sites {
            assert_eq!(s.clusters.len(), 2);
        }
        assert!(g.topology.is_connected());
    }

    #[test]
    fn fat_tree_rack_uplink_binds_under_load() {
        // 4 hosts per rack, 4x oversubscribed: rack uplink = 1 host's access.
        let g = FatTree {
            pods: 1,
            racks_per_pod: 2,
            hosts_per_rack: 4,
            edge_oversubscription: 4.0,
            core_oversubscription: 1.0,
        }
        .build();
        let rack0 = &g.sites[0].clusters[0].1;
        let rack1 = &g.sites[0].clusters[1].1;
        let mut net = SimNet::new(g.topology.clone());
        let flows: Vec<_> = (0..4).map(|i| net.start_flow(rack0[i], rack1[i], None, 0)).collect();
        net.advance(1.0);
        let total: f64 = flows.iter().map(|&f| net.take_delivered(f)).sum();
        let uplink = Bandwidth::from_mbps(SYNTH_ACCESS_MBPS).bytes_per_sec();
        assert!(
            (total - uplink).abs() / uplink < 0.02,
            "cross-rack aggregate {total} should saturate the rack uplink {uplink}"
        );
    }

    #[test]
    fn star_uplink_ratio_scales_bottleneck() {
        let g = StarOfStars { arms: 2, hosts_per_arm: 4, hub_hosts: 1, uplink_ratio: 0.25 }.build();
        let arm0 = &g.sites[1].clusters[0].1;
        let arm1 = &g.sites[2].clusters[0].1;
        let mut net = SimNet::new(g.topology.clone());
        let flows: Vec<_> = (0..4).map(|i| net.start_flow(arm0[i], arm1[i], None, 0)).collect();
        net.advance(1.0);
        let total: f64 = flows.iter().map(|&f| net.take_delivered(f)).sum();
        // Uplink = 4 × 890 × 0.25 = one access link's worth.
        let expect = Bandwidth::from_mbps(SYNTH_ACCESS_MBPS).bytes_per_sec();
        assert!((total - expect).abs() / expect < 0.02, "aggregate {total}");
    }

    #[test]
    fn hetero_wan_respects_per_site_speeds() {
        let wan = HeteroWan {
            sites: vec![
                WanSite { name: "fast".into(), hosts: 2, access_mbps: 890.0, wan_mbps: 890.0 },
                WanSite { name: "slow".into(), hosts: 2, access_mbps: 100.0, wan_mbps: 50.0 },
            ],
            wan_latency: 2.5e-3,
            per_flow_cap_mbps: 787.0,
        };
        let g = wan.build();
        assert_eq!(g.all_hosts().len(), 4);
        assert!(g.topology.is_connected());
        let fast = &g.sites[0].clusters[0].1;
        let slow = &g.sites[1].clusters[0].1;
        // A single cross-WAN flow into the slow site is limited by its 50 Mb/s
        // segment.
        let mut net = SimNet::new(g.topology.clone());
        let f = net.start_flow(fast[0], slow[0], None, 0);
        net.advance(1.0);
        let got = net.take_delivered(f);
        let expect = Bandwidth::from_mbps(50.0).bytes_per_sec();
        assert!((got - expect).abs() / expect < 0.05, "wan-limited flow {got}");
    }

    #[test]
    fn uniform_wan_builder_matches_ratio() {
        let wan = HeteroWan::uniform(3, 8, 0.5);
        assert_eq!(wan.sites.len(), 3);
        for s in &wan.sites {
            assert_eq!(s.hosts, 8);
            assert!((s.wan_mbps - 8.0 * SYNTH_ACCESS_MBPS * 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = FatTree {
            pods: 2,
            racks_per_pod: 2,
            hosts_per_rack: 2,
            edge_oversubscription: 2.0,
            core_oversubscription: 2.0,
        };
        let (x, y) = (a.build(), a.build());
        assert_eq!(x.all_hosts(), y.all_hosts());
        assert_eq!(x.topology.num_links(), y.topology.num_links());
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_wan_panics() {
        let _ = HeteroWan { sites: vec![], wan_latency: 1e-3, per_flow_cap_mbps: 100.0 }.build();
    }
}
