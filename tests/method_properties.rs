//! Cross-crate integration tests for the paper's *method-level* properties:
//! efficiency vs the baselines, metric characteristics, determinism.

use bittorrent_tomography::prelude::*;
use std::sync::Arc;

/// §I/§V: on the same substrate, the BitTorrent measurement needs orders of
/// magnitude less testbed time than O(N³) interference probing, while both
/// recover the bottleneck clusters — and O(N²) pairwise probing is blind to
/// them no matter the time spent.
#[test]
fn tomography_beats_probing_on_cost_and_pairwise_on_capability() {
    let grid = Grid5000::builder().bordeaux(6, 0, 6).build();
    let routes = Arc::new(RouteTable::new(grid.topology.clone()));
    let hosts = grid.all_hosts();
    let truth = logical_clusters(&grid);

    // BitTorrent tomography: 4 iterations of a 2 000-fragment file.
    let cfg = SwarmConfig::small(2_000);
    let campaign = run_campaign(&routes, &hosts, &cfg, 4, RootPolicy::Fixed(0), 1);
    let bt_partition = louvain(&metric_graph(&campaign.metric), 2).best().clone();
    let bt_time = campaign.total_measurement_time();
    assert!(
        (onmi_partitions(&bt_partition, &truth) - 1.0).abs() < 1e-9,
        "tomography recovers truth"
    );

    // Pairwise O(N²): longer measurement, still blind.
    let pw = pairwise_probing(&routes, &hosts, 5.0);
    let pw_partition = pw.cluster(3);
    assert_eq!(pw_partition.num_clusters(), 1, "pairwise sees a uniform network");

    // Interference O(N³): recovers the truth but at a large bill.
    let itf = interference_probing(&routes, &hosts, 5.0, hosts.len(), 4);
    let itf_partition = itf.cluster(5);
    assert!((onmi_partitions(&itf_partition, &truth) - 1.0).abs() < 1e-9);
    assert!(
        itf.cost.sim_seconds > 20.0 * bt_time,
        "interference probing ({} s) must cost far more testbed time than tomography ({} s)",
        itf.cost.sim_seconds,
        bt_time
    );
}

/// §II-C: the single-run metric is noisy (zero-heavy, occasionally large)
/// while NetPIPE on the same pair is tight — the Fig. 5 contrast.
#[test]
fn metric_noise_vs_netpipe_stability() {
    let grid = Grid5000::builder().bordeaux(24, 0, 24).build();
    let routes = Arc::new(RouteTable::new(grid.topology.clone()));
    let hosts = grid.all_hosts();

    let cfg = SwarmConfig::small(1_000);
    let campaign = run_campaign(&routes, &hosts, &cfg, 10, RootPolicy::Fixed(0), 33);
    let samples: Vec<u64> = campaign.runs.iter().map(|r| r.fragments.edge(3, 7)).collect();
    let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
    let var =
        samples.iter().map(|&s| (s as f64 - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    let cv_metric = var.sqrt() / mean.max(1e-9);

    let np = netpipe(&routes, hosts[3], hosts[7], 10, 0.5);
    let cv_np = np.stddev_mbps() / np.mean_mbps();
    assert!(
        cv_metric > 20.0 * cv_np.max(1e-6),
        "metric CV {cv_metric:.3} must dwarf NetPIPE CV {cv_np:.6}"
    );
}

/// Determinism across the whole stack: identical seeds give bitwise
/// identical reports, different seeds differ.
#[test]
fn full_pipeline_is_deterministic_in_the_seed() {
    let mk =
        |seed| TomographySession::new(Dataset::Small2x2).pieces(500).iterations(3).seed(seed).run();
    let a = mk(11);
    let b = mk(11);
    assert_eq!(a.convergence, b.convergence);
    assert_eq!(a.final_partition, b.final_partition);
    for (x, y) in a.campaign.runs.iter().zip(&b.campaign.runs) {
        assert_eq!(x.fragments, y.fragments);
    }
    let c = mk(12);
    assert_ne!(
        a.campaign.runs[0].fragments, c.campaign.runs[0].fragments,
        "different seeds must differ"
    );
}

/// The paper's conservation property at integration level: every leecher of
/// every broadcast receives the whole file exactly once (endgame off).
#[test]
fn fragment_conservation_through_the_pipeline() {
    let grid = Grid5000::builder().flat_site("grenoble", 6).flat_site("toulouse", 6).build();
    let routes = Arc::new(RouteTable::new(grid.topology.clone()));
    let hosts = grid.all_hosts();
    let cfg = SwarmConfig { num_pieces: 800, endgame_pieces: 0, ..SwarmConfig::default() };
    let campaign = run_campaign(&routes, &hosts, &cfg, 3, RootPolicy::RoundRobin, 9);
    for (k, run) in campaign.runs.iter().enumerate() {
        assert!(run.finished);
        for d in 0..hosts.len() {
            let expect = if d == k { 0 } else { 800 };
            assert_eq!(run.fragments.received_by(d), expect, "run {k}, peer {d}");
        }
    }
}

/// Layout + clustering agree: the KK layout puts found clusters in separate
/// regions (the paper's Fig. 8 observation that layout foreshadows
/// clusterability).
#[test]
fn layout_separates_what_louvain_finds() {
    let grid = Grid5000::builder().bordeaux(8, 0, 8).build();
    let routes = Arc::new(RouteTable::new(grid.topology.clone()));
    let hosts = grid.all_hosts();
    let cfg = SwarmConfig::small(1_500);
    let campaign = run_campaign(&routes, &hosts, &cfg, 6, RootPolicy::Fixed(0), 21);
    let g = metric_graph(&campaign.metric);
    let found = louvain(&g, 3).best().clone();
    assert_eq!(found.num_clusters(), 2);

    let d = inverse_weight_distances(&g);
    let pos = kamada_kawai(&d, 5, KamadaKawaiConfig::default());
    let (mut intra, mut ni, mut inter, mut nx) = (0.0, 0usize, 0.0, 0usize);
    for a in 0..pos.len() {
        for b in (a + 1)..pos.len() {
            let dist = pos[a].dist(pos[b]);
            if found.cluster_of(a) == found.cluster_of(b) {
                intra += dist;
                ni += 1;
            } else {
                inter += dist;
                nx += 1;
            }
        }
    }
    assert!(inter / nx as f64 > 1.5 * (intra / ni as f64), "layout should separate the clusters");
}
