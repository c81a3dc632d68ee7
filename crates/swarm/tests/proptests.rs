//! Property-based tests for swarm invariants.

use btt_netsim::prelude::*;
use btt_swarm::prelude::*;
use btt_swarm::swarm::RunOutcome;
use proptest::prelude::*;
use std::sync::Arc;

fn star(n: usize, mbps: f64) -> (Arc<RouteTable>, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let hosts: Vec<NodeId> = (0..n).map(|i| b.add_host(format!("h{i}"), "s", "c")).collect();
    let sw = b.add_switch("sw", "s");
    for &h in &hosts {
        b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(mbps)));
    }
    let topo = Arc::new(b.build().unwrap());
    (Arc::new(RouteTable::new(topo)), hosts)
}

/// The dense Eq. (2) reference: per-pair sums and observation counts over
/// the full strict upper triangle, folded exactly as the definition reads.
struct DenseMetric {
    n: usize,
    iterations: u32,
    sums: Vec<f64>,
    obs: Vec<u32>,
}

impl DenseMetric {
    fn new(n: usize) -> Self {
        DenseMetric { n, iterations: 0, sums: vec![0.0; n * n], obs: vec![0; n * n] }
    }

    fn push(&mut self, m: &FragmentMatrix, participated: &[bool]) {
        let up = |i: usize| participated.is_empty() || participated[i];
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                if up(a) && up(b) {
                    self.obs[a * self.n + b] += 1;
                    let e = m.edge(a, b);
                    if e > 0 {
                        self.sums[a * self.n + b] += e as f64;
                    }
                }
            }
        }
        self.iterations += 1;
    }

    fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |a| ((a + 1)..self.n).map(move |b| (a, b)))
    }

    fn w(&self, a: usize, b: usize) -> f64 {
        let i = a * self.n + b;
        if self.obs[i] == 0 {
            0.0
        } else {
            self.sums[i] / f64::from(self.obs[i])
        }
    }

    fn edges(&self) -> Vec<(u32, u32, f64)> {
        self.pairs()
            .filter(|&(a, b)| self.sums[a * self.n + b] > 0.0)
            .map(|(a, b)| (a as u32, b as u32, self.w(a, b)))
            .collect()
    }

    fn pairs_unobserved(&self) -> usize {
        if self.iterations == 0 {
            return 0;
        }
        self.pairs().filter(|&(a, b)| self.obs[a * self.n + b] == 0).count()
    }

    fn pair_coverage(&self) -> f64 {
        let pairs = self.pairs().count();
        if self.iterations == 0 || pairs == 0 {
            return 1.0;
        }
        let total: u64 = self.pairs().map(|(a, b)| u64::from(self.obs[a * self.n + b])).sum();
        total as f64 / (pairs as f64 * self.iterations as f64)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sparse accumulator is bit-identical to the dense reference after
    /// every push: edge list and `w` compared by `to_bits`, observation
    /// counts, unobserved pairs and coverage. Masks are all-full (`mode`
    /// 0), all-partial (1) or mixed (2); up to 70 runs cross the 64-run
    /// word boundary of the participation signatures.
    #[test]
    fn sparse_accumulator_matches_dense_reference(
        n in 2usize..41,
        runs in 1usize..71,
        mode in 0u8..3,
        density in 0.02f64..0.3,
        seed in any::<u64>(),
    ) {
        let mut x = seed;
        let mut next = move || {
            x = btt_netsim::util::splitmix64(x);
            x
        };
        let mut acc = MetricAccumulator::new(n);
        let mut dense = DenseMetric::new(n);
        for r in 0..runs {
            let mut m = FragmentMatrix::new(n);
            for src in 0..n {
                for dst in 0..n {
                    let roll = next();
                    if src != dst && (roll % 1000) as f64 / 1000.0 < density {
                        for _ in 0..(1 + roll % 7) {
                            m.record(src, dst);
                        }
                    }
                }
            }
            let partial = match mode {
                0 => false,
                1 => true,
                _ => next() % 2 == 0,
            };
            let mask: Vec<bool> = if partial {
                let mut mask: Vec<bool> = (0..n).map(|_| next() % 4 != 0).collect();
                mask[r % n] = false;
                mask
            } else if next() % 2 == 0 {
                Vec::new()
            } else {
                vec![true; n]
            };
            acc.push_run_partial(&m, &mask);
            dense.push(&m, &mask);

            let got: Vec<(u32, u32, u64)> =
                acc.edges().into_iter().map(|(a, b, w)| (a, b, w.to_bits())).collect();
            let want: Vec<(u32, u32, u64)> =
                dense.edges().into_iter().map(|(a, b, w)| (a, b, w.to_bits())).collect();
            prop_assert_eq!(got, want, "edges after run {}", r);
            prop_assert_eq!(acc.num_nonzero_edges(), dense.edges().len());
            for (a, b) in dense.pairs() {
                prop_assert_eq!(acc.w(a, b).to_bits(), dense.w(a, b).to_bits(), "w({}, {})", a, b);
                prop_assert_eq!(acc.w(b, a).to_bits(), dense.w(a, b).to_bits());
                prop_assert_eq!(acc.observations(a, b), dense.obs[a * n + b]);
            }
            prop_assert_eq!(acc.pairs_unobserved(), dense.pairs_unobserved());
            prop_assert_eq!(acc.pair_coverage().to_bits(), dense.pair_coverage().to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The paper's conservation property: in every broadcast, every leecher
    /// receives exactly `num_pieces` fragments (with endgame duplication
    /// disabled), and the root receives none.
    #[test]
    fn every_leecher_receives_exactly_the_file(
        n in 3usize..9,
        pieces in 16u32..200,
        seed in any::<u64>(),
        root_frac in 0.0f64..1.0,
    ) {
        let (routes, hosts) = star(n, 890.0);
        let root = ((root_frac * n as f64) as usize).min(n - 1);
        let cfg = SwarmConfig { num_pieces: pieces, endgame_pieces: 0, ..SwarmConfig::default() };
        let out = run_broadcast(&routes, &hosts, root, &cfg, seed);
        prop_assert!(out.finished, "swarm must complete");
        for d in 0..n {
            if d == root {
                prop_assert_eq!(out.fragments.received_by(d), 0);
            } else {
                prop_assert_eq!(out.fragments.received_by(d), pieces as u64, "leecher {}", d);
            }
        }
        prop_assert_eq!(out.fragments.total(), (n as u64 - 1) * pieces as u64);
    }

    /// With endgame enabled, every leecher still gets the file; duplicates
    /// only ever add fragments, bounded by the endgame window per peer.
    #[test]
    fn endgame_never_loses_fragments(
        n in 3usize..7,
        seed in any::<u64>(),
    ) {
        let pieces = 96u32;
        let (routes, hosts) = star(n, 890.0);
        let cfg = SwarmConfig { num_pieces: pieces, endgame_pieces: 12, ..SwarmConfig::default() };
        let out = run_broadcast(&routes, &hosts, 0, &cfg, seed);
        prop_assert!(out.finished);
        for d in 1..n {
            let got = out.fragments.received_by(d);
            prop_assert!(got >= pieces as u64, "leecher {} received {}", d, got);
        }
    }

    /// Completion times respect a physical lower bound: the file must cross
    /// the root's uplink at least once.
    #[test]
    fn makespan_respects_capacity_lower_bound(
        n in 3usize..8,
        pieces in 64u32..512,
        seed in any::<u64>(),
    ) {
        let mbps = 890.0;
        let (routes, hosts) = star(n, mbps);
        let cfg = SwarmConfig { num_pieces: pieces, endgame_pieces: 0, ..SwarmConfig::default() };
        let out = run_broadcast(&routes, &hosts, 0, &cfg, seed);
        prop_assert!(out.finished);
        let file_bytes = pieces as f64 * cfg.piece_bytes;
        let uplink = Bandwidth::from_mbps(mbps).bytes_per_sec();
        let lower = file_bytes / uplink;
        prop_assert!(out.makespan >= lower * 0.99,
            "makespan {} below physical bound {}", out.makespan, lower);
        // Completion times are sorted ≤ makespan and positive.
        for (i, t) in out.completion.iter().enumerate() {
            let t = t.expect("finished run has all completions");
            if i == 0 { prop_assert_eq!(t, 0.0); } else {
                prop_assert!(t > 0.0 && t <= out.makespan + 1e-9);
            }
        }
    }

    /// The streaming accumulator is prefix-equivalent to from-scratch
    /// re-aggregation: pushing runs one at a time matches re-folding the
    /// first `k` runs into a fresh accumulator — same floats, same sparse
    /// edge list — at every prefix, on randomly shaped fragment matrices.
    /// This is the invariant `convergence_series` relies on to aggregate
    /// each run exactly once.
    #[test]
    fn streaming_accumulator_matches_every_prefix(
        n in 2usize..16,
        runs in 1usize..7,
        seed in any::<u64>(),
        density in 0.05f64..0.9,
    ) {
        // Random campaign: seed-derived sparse fragment matrices.
        let mut mix = seed;
        let mut next = move || {
            mix = btt_netsim::util::splitmix64(mix);
            mix
        };
        let outcomes: Vec<RunOutcome> = (0..runs)
            .map(|_| {
                let mut m = FragmentMatrix::new(n);
                for src in 0..n {
                    for dst in 0..n {
                        if src != dst {
                            let r = next();
                            if (r % 1000) as f64 / 1000.0 < density {
                                for _ in 0..(1 + r % 5) {
                                    m.record(src, dst);
                                }
                            }
                        }
                    }
                }
                RunOutcome {
                    fragments: m,
                    completion: vec![Some(0.0); n],
                    makespan: 1.0,
                    finished: true,
                    sim_steps: 1,
                    disrupted: vec![false; n],
                    departed: vec![false; n],
                    prof: Default::default(),
                }
            })
            .collect();
        let campaign = Campaign {
            runs: outcomes,
            metric: MetricAccumulator::new(n),
        };

        let mut streaming = MetricAccumulator::new(n);
        for (i, run) in campaign.runs.iter().enumerate() {
            streaming.push_run(&run.fragments);
            let mut scratch = MetricAccumulator::new(n);
            for prefix_run in &campaign.runs[..=i] {
                scratch.push_run_partial(&prefix_run.fragments, &prefix_run.participated());
            }
            prop_assert_eq!(&streaming, &scratch, "prefix {}", i + 1);
            prop_assert_eq!(streaming.edges(), scratch.edges());
            // And both match the dense definition of Eq. (2).
            for a in 0..n {
                for b in (a + 1)..n {
                    let manual: f64 = campaign.runs[..=i]
                        .iter()
                        .map(|r| r.fragments.edge(a, b) as f64)
                        .sum::<f64>()
                        / (i + 1) as f64;
                    prop_assert!((streaming.w(a, b) - manual).abs() < 1e-12);
                }
            }
        }
    }

    /// Campaign determinism under arbitrary seeds (rayon-parallel execution
    /// must not leak scheduling nondeterminism into results).
    #[test]
    fn campaigns_reproduce_bitwise(seed in any::<u64>()) {
        let (routes, hosts) = star(5, 500.0);
        let cfg = SwarmConfig { num_pieces: 48, ..SwarmConfig::default() };
        let a = run_campaign(&routes, &hosts, &cfg, 3, RootPolicy::RoundRobin, seed);
        let b = run_campaign(&routes, &hosts, &cfg, 3, RootPolicy::RoundRobin, seed);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            prop_assert_eq!(&x.fragments, &y.fragments);
            prop_assert_eq!(&x.completion, &y.completion);
        }
    }
}

proptest! {
    // Campaigns with churn simulate every iteration to a perturbed horizon,
    // so keep the case count low; the thread/reliability space is still
    // covered because every case draws all knobs independently.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The parallel campaign fold is bit-identical to the serial schedule
    /// for ANY worker count and ANY reliability mix: the pool's reorder
    /// buffer hands observations to the fold in iteration order, so the
    /// accumulated metric — including the churn-era coverage diagnostics —
    /// cannot depend on how iterations were sharded across threads.
    #[test]
    fn parallel_fold_matches_serial_under_reliability(
        n in 6usize..12,
        pieces in 24u32..64,
        iterations in 2u32..5,
        threads in 0usize..5,
        seed in any::<u64>(),
        churn in 0.0f64..0.4,
        xtraffic in 0.0f64..0.3,
        degrade in 0.0f64..0.3,
    ) {
        let (routes, hosts) = star(n, 500.0);
        let cfg = SwarmConfig { num_pieces: pieces, ..SwarmConfig::default() };
        let rel = ReliabilityCfg { churn, xtraffic, degrade };
        let run = |threads: usize| {
            run_campaign_with_reliability(
                &routes, &hosts, &cfg, iterations, RootPolicy::RoundRobin, seed, &rel, threads,
            )
        };
        let serial = run(1);
        let pooled = run(threads);
        prop_assert_eq!(&pooled.metric, &serial.metric, "metric fold moved (threads {})", threads);
        prop_assert_eq!(
            pooled.metric.pairs_unobserved(),
            serial.metric.pairs_unobserved(),
            "unobserved-pair count moved"
        );
        prop_assert_eq!(pooled.metric.pair_coverage(), serial.metric.pair_coverage());
        prop_assert_eq!(pooled.runs.len(), serial.runs.len());
        for (p, s) in pooled.runs.iter().zip(&serial.runs) {
            prop_assert_eq!(&p.fragments, &s.fragments);
            prop_assert_eq!(&p.completion, &s.completion);
            prop_assert_eq!(p.finished, s.finished);
        }
    }
}
