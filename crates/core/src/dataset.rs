//! The paper's experimental datasets (§IV) as ready-to-run scenarios.
//!
//! | id    | sites (nodes)                                   | ground truth | iters |
//! |-------|--------------------------------------------------|--------------|-------|
//! | B     | Bordeaux (32 bordeplage + 5 borderline + 27 bordereau) | 2 logical clusters | 36 |
//! | BT    | Bordeaux (16+16 across the trunk) + Toulouse (32) | 3 clusters (hierarchical) | 30 |
//! | GT    | Grenoble (32) + Toulouse (32)                    | 2 clusters   | 30 |
//! | BGT   | Bordeaux (5 borderline + 27 bordereau) + Grenoble (32) + Toulouse (32) | 3 clusters | 30 |
//! | BGTL  | Bordeaux (16) + Grenoble (16) + Toulouse (16) + Lyon (16) | 4 clusters | 30 |
//! | 2x2   | Bordeaux (2 bordeplage + 2 borderline)           | 1 cluster    | 30 |
//!
//! Ground truths follow §IV-A: within Bordeaux, Bordereau and Borderline
//! share a fast link and form **one** logical cluster, while Bordeplage sits
//! behind the Dell↔Cisco 1 GbE bottleneck and forms another. Sites are
//! otherwise flat, one logical cluster each. The 2×2 case is special: at
//! that scale the trunk is not a bottleneck, so the true clustering is a
//! single cluster (§IV-B1).

use btt_cluster::partition::Partition;
use btt_netsim::grid5000::Grid5000;
use btt_netsim::perturb::ReliabilityCfg;
use btt_netsim::routing::RouteTable;
use btt_netsim::topology::NodeId;
use std::sync::Arc;

/// The paper's named experiment datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Single-site Bordeaux, 64 nodes (§IV-B2, Fig. 8).
    B,
    /// Bordeaux + Toulouse, 64 nodes with a 3-way ground truth (§IV-C, Fig. 9).
    BT,
    /// Grenoble + Toulouse, 64 nodes (§IV-C, Fig. 10).
    GT,
    /// Bordeaux + Grenoble + Toulouse, 96 nodes (§IV-D, Fig. 11).
    BGT,
    /// Bordeaux + Grenoble + Toulouse + Lyon, 64 nodes (§IV-D, Fig. 12).
    BGTL,
    /// The 2×2-node warm-up (§IV-B1): bottleneck invisible at tiny scale.
    Small2x2,
}

impl Dataset {
    /// All five figure-bearing datasets, in paper order.
    pub const PAPER_SETS: [Dataset; 5] =
        [Dataset::B, Dataset::BT, Dataset::GT, Dataset::BGT, Dataset::BGTL];

    /// The identifier used in the paper's Fig. 13 legend.
    pub fn id(self) -> &'static str {
        match self {
            Dataset::B => "B",
            Dataset::BT => "B-T",
            Dataset::GT => "G-T",
            Dataset::BGT => "B-G-T",
            Dataset::BGTL => "B-G-T-L",
            Dataset::Small2x2 => "2x2",
        }
    }

    /// Number of measurement iterations the paper ran for this dataset.
    pub fn paper_iterations(self) -> u32 {
        match self {
            Dataset::B => 36,
            _ => 30,
        }
    }

    /// Builds the scenario: topology, participating hosts, labels, ground
    /// truth.
    pub fn build(self) -> Scenario {
        match self {
            Dataset::B => {
                let grid = Grid5000::builder().bordeaux(32, 5, 27).build();
                Scenario::new(self, grid)
            }
            Dataset::BT => {
                // Fig. 9's label mix: Bordeaux contributes mostly Bordeplage
                // nodes plus a small Dell-side handful — the third ground-
                // truth cluster is small, which is what makes the (non-
                // hierarchical) clustering merge it into Bordeaux (§IV-C).
                let grid = Grid5000::builder().bordeaux(24, 4, 4).flat_site("toulouse", 32).build();
                Scenario::new(self, grid)
            }
            Dataset::GT => {
                let grid =
                    Grid5000::builder().flat_site("grenoble", 32).flat_site("toulouse", 32).build();
                Scenario::new(self, grid)
            }
            Dataset::BGT => {
                // §IV-D: Bordeaux nodes only from the well-connected
                // Borderline + Bordereau clusters.
                let grid = Grid5000::builder()
                    .bordeaux(0, 5, 27)
                    .flat_site("grenoble", 32)
                    .flat_site("toulouse", 32)
                    .build();
                Scenario::new(self, grid)
            }
            Dataset::BGTL => {
                let grid = Grid5000::builder()
                    .bordeaux(0, 0, 16)
                    .flat_site("grenoble", 16)
                    .flat_site("toulouse", 16)
                    .flat_site("lyon", 16)
                    .build();
                Scenario::new(self, grid)
            }
            Dataset::Small2x2 => {
                let grid = Grid5000::builder().bordeaux(2, 2, 0).build();
                let mut s = Scenario::new(self, grid);
                // §IV-B1: at 2×2 scale the trunk is not a bottleneck; the
                // correct clustering is a single logical cluster.
                s.ground_truth = Partition::trivial(s.hosts.len());
                s
            }
        }
    }
}

/// A fully-prepared experiment: topology, hosts, labels, routes, and the
/// ground-truth logical clustering.
///
/// Scenarios come from two sources: the paper's [`Dataset`]s (via
/// [`Dataset::build`]) and the parameterized synthetic generators (via
/// [`crate::scenarios::ScenarioSpec`]).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable identifier — the paper's Fig. 13 legend name for datasets
    /// (e.g. `"B-G-T"`), or the canonical spec string for synthetic
    /// scenarios (e.g. `"fat-tree:2x2x4:4:1"`). Used in reports and
    /// (sanitized) campaign output file names.
    pub id: String,
    /// Default number of measurement iterations for sessions over this
    /// scenario (the paper's per-dataset counts, or a sweep-friendly
    /// default for synthetic scenarios).
    pub default_iterations: u32,
    /// The underlying simulated grid.
    pub grid: Grid5000,
    /// Participating hosts; index in this vector = swarm peer index.
    pub hosts: Vec<NodeId>,
    /// Display labels (paper-style private IPv4 addresses).
    pub labels: Vec<String>,
    /// Ground-truth logical clusters over `hosts` indices.
    pub ground_truth: Partition,
    /// Precomputed routes, shared across iterations.
    pub routes: Arc<RouteTable>,
    /// Reliability perturbations applied during measurement (all-zero — the
    /// static, failure-free behaviour — unless the scenario spec carries
    /// `+churn=` / `+xtraffic=` / `+degrade=` suffixes).
    pub reliability: ReliabilityCfg,
}

impl Scenario {
    fn new(dataset: Dataset, grid: Grid5000) -> Self {
        Scenario::custom(dataset.id(), grid, dataset.paper_iterations())
    }

    /// Builds a scenario over an arbitrary [`Grid5000`]-shaped network.
    ///
    /// The ground truth defaults to [`logical_clusters`] (one cluster per
    /// site, with the Bordeaux special case); callers with finer-grained
    /// structure — e.g. per-rack fat-tree truths — overwrite
    /// [`Scenario::ground_truth`] after construction.
    pub fn custom(id: impl Into<String>, grid: Grid5000, default_iterations: u32) -> Self {
        let hosts = grid.all_hosts();
        let ground_truth = logical_clusters(&grid);
        let labels = ip_labels(&grid);
        let routes = Arc::new(RouteTable::new(grid.topology.clone()));
        Scenario {
            id: id.into(),
            default_iterations,
            grid,
            hosts,
            labels,
            ground_truth,
            routes,
            reliability: ReliabilityCfg::default(),
        }
    }

    /// Number of participating hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }
}

/// Walks `grid.sites` once, in [`Grid5000::all_hosts`] order, and calls
/// `visit(group, logical, rank)` for each host.
///
/// * `group` — each (site, physical cluster) that has hosts takes the next
///   index, so an empty cluster gets none;
/// * `logical` — the §IV-A rule, applied once per cluster: Bordeplage
///   alone, Bordereau ∪ Borderline as one cluster, every other site one
///   cluster; indices count up in order of first appearance;
/// * `rank` — the host's 1-based position within its group.
fn walk_host_groups(grid: &Grid5000, mut visit: impl FnMut(u32, u32, u32)) {
    let next = |count: &mut u32| {
        *count += 1;
        *count - 1
    };
    let (mut groups, mut logicals) = (0, 0);
    for site in &grid.sites {
        // The logical index of the site's shared cluster, once it has one.
        let mut shared = None;
        for (cluster, hosts) in site.clusters.iter().filter(|(_, hs)| !hs.is_empty()) {
            let logical = if site.site == "bordeaux" && cluster == "bordeplage" {
                next(&mut logicals)
            } else {
                *shared.get_or_insert_with(|| next(&mut logicals))
            };
            for rank in 1..=hosts.len() as u32 {
                visit(groups, logical, rank);
            }
            groups += 1;
        }
    }
}

/// Number of hosts across the grid's site lists.
fn num_hosts(grid: &Grid5000) -> usize {
    grid.sites.iter().flat_map(|s| &s.clusters).map(|(_, hs)| hs.len()).sum()
}

/// Derives the paper's ground-truth logical clustering over
/// [`Grid5000::all_hosts`] from the grid's site lists (§IV-A): one cluster
/// per site, except Bordeaux splits into Bordeplage vs. the Dell-side
/// clusters (Bordereau ∪ Borderline).
pub fn logical_clusters(grid: &Grid5000) -> Partition {
    let mut ids = Vec::with_capacity(num_hosts(grid));
    walk_host_groups(grid, |_, logical, _| ids.push(logical));
    Partition::from_assignments(&ids)
}

/// Paper-style IP labels over [`Grid5000::all_hosts`]: each (site, physical
/// cluster) with hosts gets a subnet, and its hosts get consecutive final
/// octets from 1 (the figures label nodes with 172.16.x.y).
pub fn ip_labels(grid: &Grid5000) -> Vec<String> {
    let mut labels = Vec::with_capacity(num_hosts(grid));
    walk_host_groups(grid, |group, _, rank| labels.push(format!("172.16.{group}.{rank}")));
    labels
}

/// Ground truth with one cluster per (site, physical cluster) pair over
/// [`Grid5000::all_hosts`] — the rack granularity for fat-trees.
pub(crate) fn per_cluster_truth(grid: &Grid5000) -> Partition {
    let mut ids = Vec::with_capacity(num_hosts(grid));
    walk_host_groups(grid, |group, _, _| ids.push(group));
    Partition::from_assignments(&ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_b_matches_paper_counts() {
        let s = Dataset::B.build();
        assert_eq!(s.num_hosts(), 64);
        assert_eq!(s.ground_truth.num_clusters(), 2);
        let sizes = {
            let mut v = s.ground_truth.sizes();
            v.sort_unstable();
            v
        };
        assert_eq!(sizes, vec![32, 32], "32 bordeplage vs 5+27 dell-side");
        assert_eq!(Dataset::B.paper_iterations(), 36);
    }

    #[test]
    fn dataset_bt_has_three_way_ground_truth() {
        let s = Dataset::BT.build();
        assert_eq!(s.num_hosts(), 64);
        assert_eq!(s.ground_truth.num_clusters(), 3, "paper §IV-C: 3 partitions");
        let mut sizes = s.ground_truth.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![8, 24, 32], "bordeplage majority + small dell-side handful");
    }

    #[test]
    fn dataset_gt_is_two_flat_sites() {
        let s = Dataset::GT.build();
        assert_eq!(s.num_hosts(), 64);
        assert_eq!(s.ground_truth.num_clusters(), 2);
        assert_eq!(s.ground_truth.sizes(), vec![32, 32]);
    }

    #[test]
    fn dataset_bgt_uses_only_dell_side_bordeaux() {
        let s = Dataset::BGT.build();
        assert_eq!(s.num_hosts(), 96);
        assert_eq!(s.ground_truth.num_clusters(), 3);
        // No bordeplage nodes at all.
        let bordeaux = &s.grid.sites[0];
        assert_eq!(bordeaux.clusters[0].0, "bordeplage");
        assert!(bordeaux.clusters[0].1.is_empty());
    }

    #[test]
    fn dataset_bgtl_is_four_by_sixteen() {
        let s = Dataset::BGTL.build();
        assert_eq!(s.num_hosts(), 64);
        assert_eq!(s.ground_truth.num_clusters(), 4);
        assert_eq!(s.ground_truth.sizes(), vec![16, 16, 16, 16]);
    }

    #[test]
    fn small2x2_truth_is_single_cluster() {
        let s = Dataset::Small2x2.build();
        assert_eq!(s.num_hosts(), 4);
        assert_eq!(s.ground_truth.num_clusters(), 1);
    }

    #[test]
    fn labels_are_unique_ips() {
        for d in Dataset::PAPER_SETS {
            let s = d.build();
            let set: std::collections::HashSet<&String> = s.labels.iter().collect();
            assert_eq!(set.len(), s.labels.len(), "{}: duplicate labels", d.id());
            for l in &s.labels {
                assert!(l.starts_with("172.16."), "{l}");
            }
        }
        // The first and last label of each (site, physical cluster) group:
        // B is bordeplage, bordereau, borderline; B-G-T's empty Bordeplage
        // takes no subnet.
        let b = [(0, "0.1"), (31, "0.32"), (32, "1.1"), (58, "1.27"), (59, "2.1"), (63, "2.5")];
        let bgt = [
            (0, "0.1"),
            (26, "0.27"),
            (27, "1.1"),
            (31, "1.5"),
            (32, "2.1"),
            (63, "2.32"),
            (64, "3.1"),
            (95, "3.32"),
        ];
        for (d, pins) in [(Dataset::B, &b[..]), (Dataset::BGT, &bgt[..])] {
            let s = d.build();
            for &(i, label) in pins {
                assert_eq!(s.labels[i], format!("172.16.{label}"), "{} host {i}", d.id());
            }
        }
    }

    #[test]
    fn ids_match_fig13_legend() {
        let ids: Vec<&str> = Dataset::PAPER_SETS.iter().map(|d| d.id()).collect();
        assert_eq!(ids, vec!["B", "B-T", "G-T", "B-G-T", "B-G-T-L"]);
    }
}
