//! Quickstart: tomography on a custom two-cluster network.
//!
//! Builds a small heterogeneous network with a hidden bottleneck, runs a few
//! instrumented BitTorrent broadcasts, clusters the measurements, and prints
//! what was found.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bittorrent_tomography::prelude::*;
use std::sync::Arc;

fn main() {
    // ── 1. A network: two 8-host Ethernet clusters joined by one 1 GbE
    //       trunk. Point-to-point, every path measures the same; the trunk
    //       only binds when many pairs talk at once.
    let mut b = TopologyBuilder::new();
    let mbps = Bandwidth::from_mbps(890.0);
    let left_sw = b.add_switch("left-sw");
    let right_sw = b.add_switch("right-sw");
    b.link(left_sw, right_sw, LinkSpec::lan(mbps)); // the hidden bottleneck
    let mut hosts = Vec::new();
    for i in 0..8 {
        let h = b.add_host(format!("left-{i}"));
        b.link(h, left_sw, LinkSpec::lan(mbps));
        hosts.push(h);
    }
    for i in 0..8 {
        let h = b.add_host(format!("right-{i}"));
        b.link(h, right_sw, LinkSpec::lan(mbps));
        hosts.push(h);
    }
    let topology = Arc::new(b.build().expect("valid topology"));
    let routes = Arc::new(RouteTable::new(topology));

    // ── 2. Phase 1: six instrumented broadcasts of a 32 MB file.
    let cfg = SwarmConfig::small(2_000);
    let campaign = run_campaign(&routes, &hosts, &cfg, 6, RootPolicy::Fixed(0), 42);
    println!(
        "measured {} broadcasts, {:.1} s simulated testbed time total",
        campaign.runs.len(),
        campaign.total_measurement_time()
    );

    // ── 3. Phase 2: Louvain on the aggregated fragment-count graph.
    let graph = metric_graph(&campaign.metric);
    let clusters = louvain(&graph, 1).best().clone();
    println!("found {} logical clusters:", clusters.num_clusters());
    for (c, members) in clusters.clusters().iter().enumerate() {
        let names: Vec<String> = members
            .iter()
            .map(|&v| routes.topology().node(hosts[v as usize]).name.clone())
            .collect();
        println!("  cluster {c}: {}", names.join(", "));
    }

    // The trunk separates left from right.
    let truth =
        Partition::from_assignments(&(0..16).map(|i| u32::from(i >= 8)).collect::<Vec<_>>());
    println!("agreement with ground truth: oNMI = {:.3}", onmi_partitions(&clusters, &truth));
}
