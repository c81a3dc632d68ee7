//! End-to-end checks that the fragment-count metric actually carries the
//! bandwidth signal the paper's method depends on (§II-C, Fig. 4).

use btt_netsim::grid5000::Grid5000;
use btt_netsim::prelude::*;
use btt_swarm::prelude::*;
use std::sync::Arc;

/// Aggregated over a few iterations, intra-cluster edges must carry clearly
/// more fragments than edges crossing the Bordeaux 1 GbE trunk under
/// collective load (the Fig. 4 "local ≫ remote" shape).
#[test]
fn local_edges_dominate_across_bottleneck() {
    // 12 + 12 hosts: bordeplage behind Cisco, bordereau behind Dell,
    // separated by the single 1 GbE trunk.
    let g = Grid5000::builder().bordeaux(12, 0, 12).build();
    let hosts = g.all_hosts();
    let routes = Arc::new(RouteTable::new(g.topology.clone()));
    let cfg = SwarmConfig { num_pieces: 1500, ..SwarmConfig::default() };
    let campaign = run_campaign(&routes, &hosts, &cfg, 6, RootPolicy::Fixed(0), 2024);

    for run in &campaign.runs {
        assert!(run.finished, "broadcast did not finish");
    }

    // Host indices 0..12 are bordeplage, 12..24 bordereau.
    let side = |i: usize| usize::from(i >= 12);
    let mut local = 0.0;
    let mut local_edges = 0u32;
    let mut remote = 0.0;
    let mut remote_edges = 0u32;
    for a in 0..hosts.len() {
        for b in (a + 1)..hosts.len() {
            let w = campaign.metric.w(a, b);
            if side(a) == side(b) {
                local += w;
                local_edges += 1;
            } else {
                remote += w;
                remote_edges += 1;
            }
        }
    }
    let local_mean = local / local_edges as f64;
    let remote_mean = remote / remote_edges as f64;
    assert!(
        local_mean > 2.0 * remote_mean,
        "expected local mean ≫ remote mean, got {local_mean:.1} vs {remote_mean:.1}"
    );
}

/// §II-B: broadcast completion time is roughly constant in the number of
/// nodes (BitTorrent pipelines; more peers add capacity as fast as demand).
#[test]
fn makespan_roughly_constant_in_node_count() {
    let mut makespans = Vec::new();
    for n in [8usize, 16, 32] {
        let mut b = TopologyBuilder::new();
        let hosts: Vec<NodeId> = (0..n).map(|i| b.add_host(format!("h{i}"))).collect();
        let sw = b.add_switch("sw");
        for &h in &hosts {
            b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
        }
        let routes = Arc::new(RouteTable::new(Arc::new(b.build().unwrap())));
        let cfg = SwarmConfig { num_pieces: 3000, ..SwarmConfig::default() };
        let out = run_broadcast(&routes, &hosts, 0, &cfg, 7);
        assert!(out.finished);
        makespans.push(out.makespan);
    }
    let min = makespans.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = makespans.iter().cloned().fold(0.0f64, f64::max);
    assert!(max / min < 2.5, "makespan should be near-constant in N: {makespans:?}");
}

/// Single-run edge metric is highly variable (paper Fig. 5): across runs, a
/// fixed edge is often zero and occasionally large.
#[test]
fn single_run_edge_metric_is_noisy() {
    let mut b = TopologyBuilder::new();
    let hosts: Vec<NodeId> = (0..48).map(|i| b.add_host(format!("h{i}"))).collect();
    let sw = b.add_switch("sw");
    for &h in &hosts {
        b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
    }
    let routes = Arc::new(RouteTable::new(Arc::new(b.build().unwrap())));
    let cfg = SwarmConfig { num_pieces: 800, ..SwarmConfig::default() };
    let campaign = run_campaign(&routes, &hosts, &cfg, 12, RootPolicy::Fixed(0), 31);

    // Fixed edge (5, 9): count zero runs and the spread.
    let samples: Vec<u64> = campaign.runs.iter().map(|r| r.fragments.edge(5, 9)).collect();
    let zeros = samples.iter().filter(|&&s| s == 0).count();
    let max = *samples.iter().max().unwrap();
    assert!(zeros >= 2, "expected several zero runs (tracker subsets), got {samples:?}");
    assert!(max > 0, "edge should be active in at least one run, got {samples:?}");
}

/// Paper-scale smoke run (ignored by default; used to gauge wall-clock cost).
/// Run with: cargo test -p btt-swarm --release --test signal -- --ignored paper_scale
#[test]
#[ignore = "paper-scale timing probe"]
fn paper_scale_broadcast_timing() {
    let g = Grid5000::builder().bordeaux(32, 5, 27).build();
    let hosts = g.all_hosts();
    let routes = Arc::new(RouteTable::new(g.topology.clone()));
    let cfg = SwarmConfig::paper();
    let wall = std::time::Instant::now();
    let out = run_broadcast(&routes, &hosts, 0, &cfg, 1);
    println!(
        "64 nodes, 15259 pieces: finished={} makespan={:.2}s sim, wall={:.2?}",
        out.finished,
        out.makespan,
        wall.elapsed()
    );
    assert!(out.finished);
}
