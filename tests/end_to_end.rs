//! Cross-crate integration tests: the full two-phase pipeline on every paper
//! dataset, asserting the Fig. 13 shapes at reduced file size.
//!
//! (The `repro` harness runs the same experiments at full paper scale;
//! these tests keep CI-fast sizes while pinning the qualitative claims.)

use bittorrent_tomography::prelude::*;

fn run(dataset: Dataset, iterations: u32) -> TomographyReport {
    TomographySession::new(dataset).pieces(2_500).iterations(iterations).seed(2012).run()
}

/// Dataset B (single-site Bordeaux): the trunk bottleneck splits the site
/// into exactly the two logical clusters, within a few iterations.
#[test]
fn dataset_b_recovers_the_bordeaux_split() {
    let report = run(Dataset::B, 8);
    assert_eq!(report.final_partition.num_clusters(), 2);
    assert!((report.last().onmi - 1.0).abs() < 1e-9, "oNMI {}", report.last().onmi);
    let k = report.converged_at(0.999).expect("must converge");
    assert!(k <= 4, "paper: 2 iterations; got {k}");
}

/// Dataset G-T (two flat sites): perfect site separation, fast.
#[test]
fn dataset_gt_separates_sites() {
    let report = run(Dataset::GT, 8);
    assert_eq!(report.final_partition.num_clusters(), 2);
    assert!((report.last().onmi - 1.0).abs() < 1e-9);
    assert!(report.converged_at(0.999).expect("converges") <= 4);
}

/// Dataset B-G-T (three sites, 96 nodes): three clusters.
#[test]
fn dataset_bgt_finds_three_sites() {
    let report = run(Dataset::BGT, 8);
    assert_eq!(report.final_partition.num_clusters(), 3);
    assert!((report.last().onmi - 1.0).abs() < 1e-9);
}

/// Dataset B-G-T-L (four sites): four clusters; the paper's slowest
/// configuration to converge.
#[test]
fn dataset_bgtl_finds_four_sites() {
    let report = run(Dataset::BGTL, 12);
    assert_eq!(report.final_partition.num_clusters(), 4);
    assert!((report.last().onmi - 1.0).abs() < 1e-9);
}

/// Dataset B-T: the hierarchical case. The site split must be recovered;
/// whether the small Dell-side handful separates as a third cluster is the
/// knife-edge the paper discusses (§IV-C, NMI ≈ 0.7 there). We assert the
/// robust part: Bordeaux and Toulouse never mix, and oNMI is high.
#[test]
fn dataset_bt_separates_bordeaux_from_toulouse() {
    let report = run(Dataset::BT, 10);
    let p = &report.final_partition;
    // No found cluster may contain both a Bordeaux and a Toulouse node.
    let scenario = Dataset::BT.build();
    let site_of = |v: u32| {
        let h = scenario.hosts[v as usize];
        let site = scenario.grid.sites.iter().find(|s| s.all().contains(&h)).unwrap();
        site.site.as_str()
    };
    for members in p.clusters() {
        let sites: std::collections::HashSet<&str> = members.iter().map(|&v| site_of(v)).collect();
        assert_eq!(sites.len(), 1, "cluster mixes sites: {sites:?}");
    }
    assert!(report.last().onmi > 0.6, "oNMI {}", report.last().onmi);
}

/// The 2×2 warm-up (§IV-B1): at this scale the trunk is not a bottleneck
/// and the correct answer is a single cluster.
#[test]
fn two_by_two_is_one_cluster() {
    let report =
        TomographySession::new(Dataset::Small2x2).pieces(2_500).iterations(8).seed(2012).run();
    assert_eq!(report.final_partition.num_clusters(), 1);
    assert!((report.last().onmi - 1.0).abs() < 1e-9);
}

/// Convergence ordering across datasets: more clusters converge no faster
/// (the paper's observation that B-G-T-L is the slowest).
#[test]
fn convergence_never_regresses_once_stable() {
    for d in [Dataset::B, Dataset::GT] {
        let report = run(d, 8);
        let k = report.converged_at(0.999).expect("converges");
        for p in report.convergence.iter().filter(|p| p.iterations >= k) {
            assert!(p.onmi >= 0.999, "{}: dipped after convergence at {k}", d.id());
        }
    }
}
