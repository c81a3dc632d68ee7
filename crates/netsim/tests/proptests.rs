//! Property-based tests for the simulator's core invariants.

use btt_netsim::engine::CompletionKind;
use btt_netsim::fairness::{max_min_rates, FlowInput, IncrementalMaxMin};
use btt_netsim::prelude::*;
use btt_netsim::routing::RouteTable;
use proptest::prelude::*;
use proptest::test_runner::run_cases;
use std::sync::Arc;

/// Route invariants on the 1000+-host synthetic topologies the scaling work
/// standardizes on: contiguous oriented paths with the expected hop
/// structure, for a deterministic sample of host pairs.
#[test]
fn routing_holds_on_large_synthetic_topologies() {
    // fat-tree 8x8x16 = 1024 hosts; routes are 2 (intra-rack), 4
    // (intra-pod), or 6 (cross-pod) channels long.
    let ft = FatTree {
        pods: 8,
        racks_per_pod: 8,
        hosts_per_rack: 16,
        edge_oversubscription: 4.0,
        core_oversubscription: 2.0,
    }
    .build();
    let hosts = ft.all_hosts();
    assert_eq!(hosts.len(), 1024);
    let rt = RouteTable::new(ft.topology.clone());
    let mut x = 0x5EEDu64;
    let mut next = || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for _ in 0..500 {
        let a = hosts[next() % hosts.len()];
        let b = hosts[next() % hosts.len()];
        let route = rt.route(a, b);
        if a == b {
            assert!(route.is_empty());
            continue;
        }
        assert!(
            matches!(route.len(), 2 | 4 | 6),
            "fat-tree route length {} for {a}->{b}",
            route.len()
        );
        assert_eq!(ft.topology.channel_tail(route[0]), a);
        assert_eq!(ft.topology.channel_head(*route.last().unwrap()), b);
        for w in route.windows(2) {
            assert_eq!(ft.topology.channel_head(w[0]), ft.topology.channel_tail(w[1]));
        }
        assert_eq!(rt.hops(a, b) as usize, route.len());
    }

    // wan 16x64 = 1024 hosts behind per-site WAN segments; cross-site
    // routes carry the WAN per-flow cap, intra-site routes do not.
    let wan = HeteroWan::uniform_with_access(16, 64, 0.5, 20.0).build();
    let hosts = wan.all_hosts();
    assert_eq!(hosts.len(), 1024);
    let rt = RouteTable::new(wan.topology.clone());
    let same_site = rt.route(hosts[0], hosts[1]);
    assert_eq!(same_site.len(), 2);
    assert_eq!(rt.route_flow_cap(&same_site), None, "intra-site is uncapped");
    let cross = rt.route(hosts[0], hosts[64]);
    assert_eq!(cross.len(), 6, "host-sw-router-core-router-sw-host");
    let cap = rt.route_flow_cap(&cross).expect("WAN segments impose a per-flow cap");
    assert!((cap - Bandwidth::from_mbps(20.0).bytes_per_sec()).abs() < 1e-6);
}

/// Builds a random two-tier topology: `clusters` stars joined by a backbone
/// switch, with the given per-tier capacities (Mb/s).
fn two_tier(clusters: usize, hosts_per: usize, access_mbps: f64, trunk_mbps: f64) -> Arc<Topology> {
    let mut b = TopologyBuilder::new();
    let backbone = b.add_switch("backbone", "s");
    for c in 0..clusters {
        let sw = b.add_switch(format!("sw{c}"), "s");
        b.link(sw, backbone, LinkSpec::lan(Bandwidth::from_mbps(trunk_mbps)));
        for h in 0..hosts_per {
            let host = b.add_host(format!("h{c}-{h}"), "s", format!("c{c}"));
            b.link(host, sw, LinkSpec::lan(Bandwidth::from_mbps(access_mbps)));
        }
    }
    Arc::new(b.build().unwrap())
}

/// A shape the route table special-cases, grafted onto a random topology.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The random topology as generated.
    Plain,
    /// Plus a host with two links.
    TwoLinkHost,
    /// Plus a switch with one link.
    OneLinkSwitch,
    /// Plus a second link parallel to a spanning-tree link.
    ParallelLinks,
    /// Only two nodes and one link: both ends have one link, so neither is
    /// a leaf.
    TwoNodes,
}

const SHAPES: [Shape; 5] =
    [Shape::Plain, Shape::TwoLinkHost, Shape::OneLinkSwitch, Shape::ParallelLinks, Shape::TwoNodes];

/// A random connected topology: `nodes` nodes (hosts and switches), a
/// random spanning tree, then `extra` random links — parallel links and
/// cycles included, so BFS tie-breaking is exercised — then `shape`.
fn random_topology(nodes: usize, extra: usize, seed: u64, shape: Shape) -> Arc<Topology> {
    let mut x = seed;
    let mut next = move || {
        x = btt_netsim::util::splitmix64(x);
        x as usize
    };
    let (nodes, extra) = match shape {
        Shape::TwoNodes => (2, 0),
        _ => (nodes, extra),
    };
    let mut b = TopologyBuilder::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| {
            if next() % 3 == 0 {
                b.add_switch(format!("n{i}"), "s")
            } else {
                b.add_host(format!("n{i}"), "s", "c")
            }
        })
        .collect();
    let bw = LinkSpec::lan(Bandwidth::from_mbps(890.0));
    let tree: Vec<(NodeId, NodeId)> = (1..nodes).map(|i| (ids[i], ids[next() % i])).collect();
    for &(a, c) in &tree {
        b.link(a, c, bw);
    }
    for _ in 0..extra {
        let a = next() % nodes;
        let c = next() % nodes;
        if a != c {
            b.link(ids[a], ids[c], bw);
        }
    }
    match shape {
        Shape::Plain | Shape::TwoNodes => {}
        Shape::TwoLinkHost => {
            let h = b.add_host("two-link", "s", "c");
            b.link(h, ids[next() % nodes], bw);
            b.link(h, ids[next() % nodes], bw);
        }
        Shape::OneLinkSwitch => {
            let sw = b.add_switch("one-link", "s");
            b.link(sw, ids[next() % nodes], bw);
        }
        Shape::ParallelLinks => {
            let (a, c) = tree[next() % tree.len()];
            b.link(a, c, bw);
        }
    }
    Arc::new(b.build().unwrap())
}

/// Reference routes from `src` to every node: a plain BFS over hop count,
/// first-discovered parent wins, neighbors in adjacency order.
fn bfs_oracle(topo: &Topology, src: NodeId) -> Vec<Vec<ChannelId>> {
    let n = topo.num_nodes();
    let mut parent: Vec<Option<(NodeId, ChannelId)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::from([src]);
    seen[src.idx()] = true;
    while let Some(u) = queue.pop_front() {
        for &(v, link) in topo.neighbors(u) {
            if !seen[v.idx()] {
                seen[v.idx()] = true;
                parent[v.idx()] = Some((u, topo.channel_from(link, u).unwrap()));
                queue.push_back(v);
            }
        }
    }
    (0..n)
        .map(|d| {
            let mut route = Vec::new();
            let mut cur = NodeId(d as u32);
            while let Some((p, ch)) = parent[cur.idx()] {
                route.push(ch);
                cur = p;
            }
            route.reverse();
            route
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core route table returns exactly the per-source BFS oracle's
    /// route and hop count for every ordered node pair, on every shape.
    #[test]
    fn route_table_matches_bfs_oracle(
        nodes in 2usize..40,
        extra in 0usize..60,
        seed in any::<u64>(),
    ) {
        for shape in SHAPES {
            let topo = random_topology(nodes, extra, seed, shape);
            let rt = RouteTable::new(topo.clone());
            let mut buf = Vec::new();
            for s in 0..topo.num_nodes() {
                let src = NodeId(s as u32);
                let oracle = bfs_oracle(&topo, src);
                for (d, want) in oracle.iter().enumerate() {
                    let dst = NodeId(d as u32);
                    prop_assert_eq!(&rt.route(src, dst), want, "{:?}: route {} -> {}", shape, src, dst);
                    prop_assert_eq!(rt.hops(src, dst) as usize, want.len());
                    rt.route_into(src, dst, &mut buf);
                    prop_assert_eq!(&buf, want);
                }
            }
        }
    }

    /// Max-min rates never overload a channel and every flow is bottlenecked
    /// at a saturated channel or its cap (work conservation).
    #[test]
    fn maxmin_feasible_and_work_conserving(
        clusters in 2usize..4,
        hosts_per in 2usize..5,
        access in 100f64..1000.0,
        trunk in 100f64..2000.0,
        pair_seed in any::<u64>(),
        npairs in 1usize..24,
        cap_mbps in proptest::option::of(50f64..500.0),
    ) {
        let topo = two_tier(clusters, hosts_per, access, trunk);
        let rt = RouteTable::new(topo.clone());
        let hosts = topo.hosts().to_vec();

        // Deterministic pseudo-random pair choice from the seed.
        let mut x = pair_seed | 1;
        let mut next = || { x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407); (x >> 33) as usize };
        let routes: Vec<Vec<ChannelId>> = (0..npairs).map(|_| {
            let a = hosts[next() % hosts.len()];
            let mut bi = next() % (hosts.len() - 1);
            if bi >= a.idx() { bi += 1; }
            rt.route(a, hosts[bi % hosts.len()])
        }).filter(|r| !r.is_empty()).collect();
        prop_assume!(!routes.is_empty());

        let cap = cap_mbps.map(|m| Bandwidth::from_mbps(m).bytes_per_sec());
        let flows: Vec<FlowInput<'_>> = routes.iter().map(|r| FlowInput { route: r, cap }).collect();
        let caps = topo.channel_capacities();
        let rates = max_min_rates(&caps, &flows);

        prop_assert_eq!(rates.len(), flows.len());
        let mut used = vec![0.0f64; caps.len()];
        for (f, &rate) in flows.iter().zip(&rates) {
            prop_assert!(rate.is_finite() && rate >= 0.0);
            if let Some(c) = cap { prop_assert!(rate <= c * (1.0 + 1e-6)); }
            for ch in f.route { used[ch.idx()] += rate; }
        }
        for (c, &u) in used.iter().enumerate() {
            prop_assert!(u <= caps[c] * (1.0 + 1e-6), "channel {} overloaded: {} > {}", c, u, caps[c]);
        }
        for (f, &rate) in flows.iter().zip(&rates) {
            let capped = cap.is_some_and(|c| rate >= c * (1.0 - 1e-6));
            let bottlenecked = f.route.iter().any(|ch| used[ch.idx()] >= caps[ch.idx()] * (1.0 - 1e-6));
            prop_assert!(capped || bottlenecked, "flow has slack everywhere at rate {}", rate);
        }
    }

    /// Routes are contiguous, oriented, loop-free paths.
    #[test]
    fn routes_are_simple_paths(
        clusters in 2usize..5,
        hosts_per in 1usize..5,
    ) {
        let topo = two_tier(clusters, hosts_per, 890.0, 890.0);
        let rt = RouteTable::new(topo.clone());
        let hosts = topo.hosts();
        for &a in hosts {
            for &b in hosts {
                let route = rt.route(a, b);
                if a == b {
                    prop_assert!(route.is_empty());
                    continue;
                }
                prop_assert_eq!(topo.channel_tail(route[0]), a);
                prop_assert_eq!(topo.channel_head(*route.last().unwrap()), b);
                for w in route.windows(2) {
                    prop_assert_eq!(topo.channel_head(w[0]), topo.channel_tail(w[1]));
                }
                // Loop-free: no node visited twice.
                let mut seen = std::collections::HashSet::new();
                seen.insert(a);
                for ch in &route {
                    prop_assert!(seen.insert(topo.channel_head(*ch)), "route revisits a node");
                }
            }
        }
    }

    /// Conservation in the engine: delivered bytes equal rate × time within
    /// fluid-model tolerance, regardless of step pattern.
    #[test]
    fn engine_delivery_matches_rate_independent_of_steps(
        steps in proptest::collection::vec(0.001f64..0.7, 1..30),
        mbps in 50f64..900.0,
    ) {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0", "s", "c");
        let h1 = b.add_host("h1", "s", "c");
        b.link(h0, h1, LinkSpec { capacity: Bandwidth::from_mbps(mbps), per_flow_cap: None, latency: 0.0 });
        let topo = Arc::new(b.build().unwrap());
        let mut net = SimNet::new(topo);
        let s = net.start_flow(h0, h1, None, 0);
        let mut total = 0.0;
        let mut time = 0.0;
        for dt in &steps {
            net.advance(*dt);
            total += net.take_delivered(s);
            time += dt;
        }
        let expect = Bandwidth::from_mbps(mbps).bytes_per_sec() * time;
        prop_assert!((total - expect).abs() / expect < 1e-6, "{} vs {}", total, expect);
    }

    /// The incremental solver agrees with the one-shot reference through an
    /// arbitrary interleaving of inserts, removes, and resolves.
    #[test]
    fn incremental_solver_matches_reference_under_churn(
        clusters in 2usize..4,
        hosts_per in 2usize..5,
        trunk in 100f64..1500.0,
        ops in proptest::collection::vec((any::<u16>(), any::<bool>()), 4..40),
        cap_mbps in proptest::option::of(50f64..400.0),
    ) {
        let topo = two_tier(clusters, hosts_per, 890.0, trunk);
        let rt = RouteTable::new(topo.clone());
        let hosts = topo.hosts().to_vec();
        let caps = topo.channel_capacities();
        let cap = cap_mbps.map(|m| Bandwidth::from_mbps(m).bytes_per_sec());

        let mut solver = IncrementalMaxMin::new(caps.clone());
        let mut live: Vec<(u64, Vec<ChannelId>)> = Vec::new();
        let mut next_id = 0u64;
        for (pick, remove) in ops {
            if remove && !live.is_empty() {
                let (id, _) = live.remove(pick as usize % live.len());
                solver.remove(id);
            } else {
                let a = hosts[pick as usize % hosts.len()];
                let b = hosts[(pick as usize / 7 + 1) % hosts.len()];
                if a == b {
                    continue;
                }
                let route = rt.route(a, b);
                solver.insert(next_id, &route, cap);
                live.push((next_id, route));
                next_id += 1;
            }
            // Resolve after every op half the time, exercising both
            // immediate and batched dirty sets.
            if pick % 2 == 0 {
                solver.resolve();
            }
        }
        solver.resolve();

        let inputs: Vec<FlowInput<'_>> =
            live.iter().map(|(_, r)| FlowInput { route: r, cap }).collect();
        let expect = max_min_rates(&caps, &inputs);
        for ((id, _), want) in live.iter().zip(expect) {
            let got = solver.rate(*id);
            let tol = 1e-6 * want.max(1.0);
            prop_assert!((got - want).abs() < tol, "flow {}: {} vs {}", id, got, want);
        }
    }

    /// The component-parallel water-fill is *bit-identical* to the serial
    /// path — not merely within tolerance — under random insert/remove
    /// churn with mixed per-flow caps and interleaved resolves. Components
    /// are filled in per-component arenas and merged in component-id order,
    /// so the float operations (and hence every rounding decision) are the
    /// same in both modes; this is the determinism argument that lets
    /// `BTT_PARALLEL_SOLVER` flip mid-campaign without forking goldens.
    #[test]
    fn parallel_solver_is_bit_identical_to_serial(
        clusters in 2usize..4,
        hosts_per in 2usize..5,
        trunk in 100f64..1500.0,
        ops in proptest::collection::vec((any::<u16>(), any::<bool>()), 4..40),
        cap_mbps in proptest::option::of(50f64..400.0),
    ) {
        let topo = two_tier(clusters, hosts_per, 890.0, trunk);
        let rt = RouteTable::new(topo.clone());
        let hosts = topo.hosts().to_vec();
        let caps = topo.channel_capacities();
        let cap = cap_mbps.map(|m| Bandwidth::from_mbps(m).bytes_per_sec());

        let mut serial = IncrementalMaxMin::new(caps.clone());
        serial.set_parallel(Some(false));
        let mut parallel = IncrementalMaxMin::new(caps);
        parallel.set_parallel(Some(true));

        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        for (pick, remove) in ops {
            if remove && !live.is_empty() {
                let id = live.remove(pick as usize % live.len());
                serial.remove(id);
                parallel.remove(id);
            } else {
                let a = hosts[pick as usize % hosts.len()];
                let b = hosts[(pick as usize / 7 + 1) % hosts.len()];
                if a == b {
                    continue;
                }
                let route = rt.route(a, b);
                serial.insert(next_id, &route, cap);
                parallel.insert(next_id, &route, cap);
                live.push(next_id);
                next_id += 1;
            }
            // Resolve half the time so dirty sets of both shapes (one
            // component, many components) hit the parallel dispatch.
            if pick % 2 == 0 {
                serial.resolve();
                parallel.resolve();
                for &id in &live {
                    prop_assert_eq!(
                        serial.rate(id).to_bits(),
                        parallel.rate(id).to_bits(),
                        "flow {} diverged after mid-churn resolve: {} vs {}",
                        id, serial.rate(id), parallel.rate(id)
                    );
                }
            }
        }
        serial.resolve();
        parallel.resolve();
        for &id in &live {
            prop_assert_eq!(
                serial.rate(id).to_bits(),
                parallel.rate(id).to_bits(),
                "flow {} diverged at the final resolve: {} vs {}",
                id, serial.rate(id), parallel.rate(id)
            );
        }
    }

    /// Engine determinism under mid-broadcast flow teardown: a random
    /// script that advances to random event times and force-stops random
    /// flows there (individually and via whole-host failure, the crash
    /// path) produces a bit-identical event log, flow stats, and channel
    /// accounting when replayed — the invariant the reliability layer's
    /// host-churn perturbations rest on.
    #[test]
    fn mid_broadcast_teardown_is_bitwise_deterministic(
        clusters in 2usize..4,
        hosts_per in 2usize..4,
        trunk in 100f64..900.0,
        nflows in 3usize..10,
        script in proptest::collection::vec((any::<u16>(), 0.0005f64..0.4), 3..24),
        seed in any::<u64>(),
    ) {
        let topo = two_tier(clusters, hosts_per, 890.0, trunk);
        let hosts = topo.hosts().to_vec();
        let run = || {
            let mut x = seed | 1;
            let mut next = || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as usize
            };
            let mut net = SimNet::new(topo.clone());
            let mut live: Vec<FlowId> = Vec::new();
            for i in 0..nflows {
                let ai = next() % hosts.len();
                let bi = if i % 5 == 4 {
                    ai // occasional loopback: infinite-rate edge case
                } else {
                    let mut bi = next() % (hosts.len() - 1);
                    if bi >= ai { bi += 1; }
                    bi
                };
                // Mix of bounded flows and open streams, some with marks.
                let bytes = if i % 2 == 0 { Some((1 + next() % 4_000) as f64 * 1024.0) } else { None };
                let f = net.start_flow(hosts[ai], hosts[bi], bytes, i as u64);
                if i % 3 == 0 { net.set_delivery_mark(f, (1 + next() % 512) as f64 * 1024.0); }
                live.push(f);
            }
            let mut log: Vec<u64> = Vec::new();
            for (pick, dt) in &script {
                // Advance to the next event (random event times), then tear
                // something down right at that instant.
                for c in net.advance_to_next_event(*dt) {
                    log.push(c.at.to_bits());
                    log.push(c.tag);
                    live.retain(|&f| net.flow_endpoints(f).is_some());
                }
                if live.is_empty() { continue; }
                if *pick % 5 == 0 {
                    // Whole-host failure: stop every flow touching a host.
                    let h = hosts[(*pick as usize / 5) % hosts.len()];
                    for (f, tag, stats) in net.fail_host(h) {
                        log.push(tag);
                        log.push(stats.delivered.to_bits());
                        let _ = f;
                    }
                    live.retain(|&f| net.flow_endpoints(f).is_some());
                } else {
                    let idx = *pick as usize % live.len();
                    let f = live.swap_remove(idx);
                    if let Some(stats) = net.stop_flow(f) {
                        log.push(stats.delivered.to_bits());
                        log.push(stats.ended_at.to_bits());
                    }
                }
            }
            let chan: Vec<u64> = net.channel_bytes().iter().map(|b| b.to_bits()).collect();
            (log, chan, net.active_flows(), net.time().to_bits())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b, "same-seed teardown script must replay bit-identically");
    }

    /// Bounded flows complete exactly once and at a time consistent with
    /// their byte count and available bandwidth.
    #[test]
    fn bounded_flows_complete_once(
        nflows in 1usize..8,
        kb in 1f64..5_000.0,
    ) {
        let topo = two_tier(2, 4, 890.0, 890.0);
        let hosts = topo.hosts().to_vec();
        let mut net = SimNet::new(topo);
        for i in 0..nflows {
            let a = hosts[i % hosts.len()];
            let b = hosts[(i + 3) % hosts.len()];
            if a != b {
                net.start_flow(a, b, Some(kb * 1024.0), i as u64);
            }
        }
        let started = net.active_flows();
        let done = net.run_bounded_to_completion(3_600.0);
        prop_assert_eq!(done.len(), started);
        let mut tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        prop_assert_eq!(tags.len(), started, "each flow completes exactly once");
        prop_assert_eq!(net.active_flows(), 0);
    }
}

/// One churn script replayed against a fresh engine. Each op runs at an
/// absolute instant (the running sum of its gap). The coarse replay reaches
/// it with one `advance_until`. The fine replay reaches it through short
/// slices that alternate `advance_to_next_event_until` and
/// `advance_until`, so it enters the engine far more often and compacts the
/// calendar at other instants. Returns the event and stop log, the final
/// channel bytes and clock, and the number of stale entries compaction
/// dropped.
fn replay_churn(
    topo: &Arc<Topology>,
    quantum: f64,
    nflows: usize,
    script: &[(u16, f64)],
    seed: u64,
    fine: bool,
) -> (Vec<u64>, Vec<u64>, u64, u64) {
    let hosts = topo.hosts().to_vec();
    let mut x = seed | 1;
    let mut next = move || {
        x = btt_netsim::util::splitmix64(x);
        x as usize
    };
    let mut net = SimNet::new(topo.clone());
    net.set_rate_refresh(quantum);
    let mut live: Vec<FlowId> = Vec::new();
    let mut tag = 0u64;
    // Streams and bounded flows between distinct hosts, most with a mark up
    // to 256 MiB ahead: far-off marks keep re-keyed entries queued long
    // after they go stale.
    let mut start = |net: &mut SimNet, live: &mut Vec<FlowId>, r: usize| {
        let a = r % hosts.len();
        let b = (a + 1 + (r / 7) % (hosts.len() - 1)) % hosts.len();
        let bytes = r.is_multiple_of(3).then(|| (1 + (r / 3) % 4_000) as f64 * 1024.0);
        let f = net.start_flow(hosts[a], hosts[b], bytes, tag);
        tag += 1;
        if !r.is_multiple_of(4) {
            net.set_delivery_mark(f, (1 + (r / 11) % 4_096) as f64 * 65_536.0);
        }
        live.push(f);
    };
    for _ in 0..nflows {
        start(&mut net, &mut live, next());
    }
    let mut log: Vec<u64> = Vec::new();
    let mut fired = Vec::new();
    let mut at = 0.0;
    for &(pick, gap) in script {
        at += gap;
        if fine {
            let mut k = 0u32;
            while net.time() < at {
                k += 1;
                let d = (net.time() + gap / 3.0).min(at);
                if k % 2 == 1 {
                    net.advance_to_next_event_until_into(d, &mut fired);
                } else {
                    net.advance_until_into(d, &mut fired);
                }
            }
        } else {
            net.advance_until_into(at, &mut fired);
        }
        for c in fired.drain(..) {
            log.extend([c.at.to_bits(), c.tag, (c.kind == CompletionKind::Mark) as u64]);
        }
        live.retain(|&f| net.flow_endpoints(f).is_some());
        let r = next();
        match pick % 6 {
            0 | 1 => start(&mut net, &mut live, r),
            2 if !live.is_empty() => {
                net.set_delivery_mark(live[r % live.len()], (1 + r % 4_096) as f64 * 65_536.0);
            }
            3 if !live.is_empty() => {
                let stats = net.stop_flow(live.swap_remove(r % live.len())).unwrap();
                log.extend([stats.delivered.to_bits(), stats.ended_at.to_bits()]);
            }
            4 => {
                for (_, t, stats) in net.fail_host(hosts[r % hosts.len()]) {
                    log.extend([t, stats.delivered.to_bits()]);
                }
            }
            // Re-arm every live mark at once: a burst of stale entries.
            _ => {
                for (i, &f) in live.iter().enumerate() {
                    net.set_delivery_mark(f, (1 + (r + i) % 4_096) as f64 * 65_536.0);
                }
            }
        }
    }
    let dropped = net.prof().stale_dropped;
    for f in live {
        if let Some(stats) = net.stop_flow(f) {
            log.extend([stats.delivered.to_bits(), stats.started_at.to_bits()]);
        }
    }
    let chan = net.channel_bytes().iter().map(|b| b.to_bits()).collect();
    (log, chan, net.time().to_bits(), dropped)
}

/// Multi-flow churn (marks, bounded flows, stops, host failures), under
/// exact and batched re-solves, lands bit-identical events, flow stats and
/// channel bytes however callers slice time — even though the two slicings
/// compact the calendar at different instants. A single flow never builds
/// a calendar big enough to compact, so this is the slicing test that
/// reaches compaction; the run asserts that some cases did.
#[test]
fn churn_is_bitwise_invariant_to_advance_slicing_through_compaction() {
    let compacted = std::cell::Cell::new(0u32);
    let strategy = (
        2usize..4,
        100f64..900.0,
        0u8..2,
        4usize..16,
        proptest::collection::vec((any::<u16>(), 0.0005f64..0.2), 20..120),
        any::<u64>(),
    );
    let name = "churn_is_bitwise_invariant_to_advance_slicing_through_compaction";
    run_cases(&ProptestConfig::with_cases(48), name, |rng| {
        let (clusters, trunk, batched, nflows, script, seed) = strategy.sample(rng);
        let topo = two_tier(clusters, 3, 890.0, trunk);
        let quantum = if batched == 1 { 0.05 } else { 0.0 };
        let (log, chan, time, coarse_dropped) =
            replay_churn(&topo, quantum, nflows, &script, seed, false);
        let (fine_log, fine_chan, fine_time, fine_dropped) =
            replay_churn(&topo, quantum, nflows, &script, seed, true);
        prop_assert_eq!(log, fine_log, "event and stop log");
        prop_assert_eq!(chan, fine_chan, "channel bytes");
        prop_assert_eq!(time, fine_time, "clock");
        if coarse_dropped + fine_dropped > 0 {
            compacted.set(compacted.get() + 1);
        }
        Ok(())
    });
    assert!(compacted.get() > 0, "no generated case compacted the calendar");
}
