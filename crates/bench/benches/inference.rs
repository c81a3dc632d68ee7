//! Criterion: phase-2 inference — dense vs pruned clustering on
//! measurement-like graphs.

use btt_core::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_pruned_clustering(c: &mut Criterion) {
    // One mid-size campaign (3 sites × 8 hosts WAN, 12 iterations), small
    // enough for quick bench runs.
    let scenario = ScenarioSpec::parse("wan:3x8:0.25").expect("spec parses").build();
    let campaign = TomographySession::over(scenario).pieces(96).iterations(12).seed(2012).measure();
    let mut group = c.benchmark_group("inference/metric-graph");
    group.bench_function("dense", |b| {
        b.iter(|| {
            let g = metric_graph(&campaign.metric);
            louvain(&g, 3).best().num_clusters()
        })
    });
    group.bench_function("pruned-top16", |b| {
        b.iter(|| {
            let g = sparse_metric_graph(&campaign.metric, DEFAULT_PRUNE);
            louvain(&g, 3).best().num_clusters()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_pruned_clustering);
criterion_main!(benches);
