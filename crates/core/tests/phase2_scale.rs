//! Phase-2-at-scale invariants: the `analyze()` boundary, and pruned-graph
//! clustering agreeing with dense clustering on the paper's Grid'5000
//! scenarios. (The incremental series' bit-identity to the serial
//! from-scratch oracle is pinned beside that oracle, in
//! `btt_core::pipeline`'s unit tests.)

use btt_core::pipeline::{
    analyze, metric_graph, sparse_metric_graph, PipelineError, DEFAULT_PRUNE,
};
use btt_core::prelude::*;
use proptest::prelude::*;

fn measured(dataset: Dataset, iterations: u32, pieces: u32, seed: u64) -> TomographySession {
    TomographySession::new(dataset).iterations(iterations).pieces(pieces).seed(seed)
}

/// The analyze() boundary surfaces empty campaigns as a typed error, and a
/// normal session round-trips through it untouched.
#[test]
fn analyze_boundary_rejects_empty_campaigns() {
    let scenario = ScenarioSpec::parse("2x2").unwrap().build();
    let empty = Campaign { runs: Vec::new(), metric: MetricAccumulator::new(4) };
    assert_eq!(
        analyze(&scenario, empty, Backend::default(), 7).unwrap_err(),
        PipelineError::EmptyCampaign
    );
    let session = measured(Dataset::Small2x2, 2, 48, 7);
    let report = analyze(session.scenario(), session.measure(), Backend::default(), 7)
        .expect("non-empty campaign analyzes");
    assert_eq!(report.convergence.len(), 2);
    assert_eq!(report.last().iterations, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Pruned-graph clustering agrees with dense clustering on the
    /// Grid'5000 scenarios: the top-k/ε sparsification keeps the bandwidth
    /// signal Louvain needs (oNMI between the two partitions ≥ 0.99), at
    /// both the default pruning and a harsher setting.
    ///
    /// The campaign must be reasonably measured (paper-scale fragments and
    /// a few iterations): on a starved campaign *both* graphs sit in a
    /// noisy modularity landscape and the comparison measures Louvain's
    /// local-optimum jitter, not pruning fidelity.
    #[test]
    fn pruned_clustering_matches_dense_on_grid5000(seed in 0u64..1000) {
        let session = measured(Dataset::GT, 6, 512, seed);
        let campaign = session.measure();
        let dense_g = metric_graph(&campaign.metric);
        let dense_p = Backend::default().infer(&dense_g, seed);
        for prune in [
            DEFAULT_PRUNE,
            PruneConfig { top_k: 12, relative: 0.3, epsilon: 1e-3 },
        ] {
            let pruned_g = sparse_metric_graph(&campaign.metric, prune);
            prop_assert!(pruned_g.num_edges() <= dense_g.num_edges());
            let pruned_p = Backend::default().infer(&pruned_g, seed);
            let agreement = onmi_partitions(&pruned_p, &dense_p);
            prop_assert!(
                agreement >= 0.99,
                "top_k={} eps={}: oNMI {} (dense {} vs pruned {} clusters)",
                prune.top_k,
                prune.epsilon,
                agreement,
                dense_p.num_clusters(),
                pruned_p.num_clusters()
            );
        }
    }
}
