//! Property tests for protocol invariants that must hold at every step of a
//! running swarm — slot limits, mirror consistency, monotone progress.

use btt_netsim::prelude::*;
use btt_swarm::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn star(n: usize) -> (Arc<RouteTable>, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let hosts: Vec<NodeId> = (0..n).map(|i| b.add_host(format!("h{i}"))).collect();
    let sw = b.add_switch("sw");
    for &h in &hosts {
        b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
    }
    (Arc::new(RouteTable::new(Arc::new(b.build().unwrap()))), hosts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Progress is monotone and bounded: at every step, each peer's fragment
    /// count only grows, never exceeds the file size, and the broadcast
    /// completes within the simulated-time safety bound.
    #[test]
    fn fragment_progress_is_monotone(
        n in 3usize..8,
        pieces in 32u32..160,
        seed in any::<u64>(),
    ) {
        let (routes, hosts) = star(n);
        let cfg = SwarmConfig { num_pieces: pieces, endgame_pieces: 0, ..SwarmConfig::default() };
        let mut swarm = Swarm::new(routes, &hosts, 0, cfg, seed);
        let mut last: Vec<u64> = vec![0; n];
        let mut guard = 0;
        while !swarm.is_complete() {
            swarm.step();
            let frags = swarm.fragments();
            for (d, prev) in last.iter_mut().enumerate() {
                let now = frags.received_by(d);
                prop_assert!(now >= *prev, "peer {} regressed: {} -> {}", d, *prev, now);
                prop_assert!(now <= pieces as u64, "peer {} overshot: {}", d, now);
                *prev = now;
            }
            guard += 1;
            prop_assert!(guard < 200_000, "swarm failed to terminate");
        }
        for (d, &got) in last.iter().enumerate() {
            let expect = if d == 0 { 0 } else { pieces as u64 };
            prop_assert_eq!(got, expect, "final count for peer {}", d);
        }
    }

    /// Makespans are invariant to how often we poll: stepping manually gives
    /// the same result as `run`.
    #[test]
    fn manual_stepping_equals_run(
        n in 3usize..6,
        seed in any::<u64>(),
    ) {
        let (routes, hosts) = star(n);
        let cfg = SwarmConfig { num_pieces: 64, ..SwarmConfig::default() };
        let run_out = Swarm::new(routes.clone(), &hosts, 0, cfg.clone(), seed).run();

        let mut manual = Swarm::new(routes, &hosts, 0, cfg, seed);
        let mut guard = 0;
        while !manual.is_complete() && guard < 100_000 {
            manual.step();
            guard += 1;
        }
        prop_assert!(manual.is_complete());
        prop_assert_eq!(manual.fragments(), run_out.fragments);
    }

    /// Peer-graph randomization across iterations covers the full edge set:
    /// with enough iterations, every pair exchanges fragments eventually
    /// (this is the paper's argument for why aggregation completes the
    /// picture despite the 35-peer cap).
    #[test]
    fn aggregation_widens_edge_coverage(seed in any::<u64>()) {
        let n = 10usize;
        let pairs = n * (n - 1) / 2;
        let (routes, hosts) = star(n);
        // 16 iterations: broadcasts at this size finish in well under an
        // optimistic-rotation interval, so cross-pair exploration comes
        // almost entirely from per-iteration tracker/choke randomness.
        let cfg = SwarmConfig { num_pieces: 96, ..SwarmConfig::default() };
        let campaign = run_campaign(&routes, &hosts, &cfg, 16, RootPolicy::RoundRobin, seed);
        // Pairs with a nonzero Eq. (2) weight after each iteration prefix.
        let mut acc = MetricAccumulator::new(n);
        let coverage: Vec<usize> = campaign
            .runs
            .iter()
            .map(|run| {
                acc.push_run_partial(&run.fragments, &run.participated());
                (0..n)
                    .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                    .filter(|&(a, b)| acc.w(a, b) > 0.0)
                    .count()
            })
            .collect();
        let observed = |k: usize| coverage[k - 1];
        // Coverage is monotone in the iteration count...
        let mut prev = 0;
        for k in 1..=16 {
            let now = observed(k);
            prop_assert!(now >= prev, "coverage regressed at iteration {}", k);
            prev = now;
        }
        // ...a single run observes a strict subset (4 upload slots of 9
        // neighbors cannot touch every pair)...
        prop_assert!(observed(1) < pairs);
        // ...and sixteen aggregated runs cover the overwhelming majority —
        // the paper's §II-C argument for iteration.
        prop_assert!(
            observed(16) >= pairs - 4,
            "only {} of {} edges observed after 16 runs",
            observed(16),
            pairs
        );
        prop_assert!(observed(16) > observed(1));
    }
}
