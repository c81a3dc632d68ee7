//! Criterion: figure layout cost (Kamada–Kawai vs Fruchterman–Reingold) at
//! the paper's figure sizes (64 and 96 nodes).

use btt_cluster::prelude::*;
use btt_layout::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_kk(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout/kamada-kawai");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    for n_per in [16usize, 24] {
        let (g, _) = planted_partition(4, n_per, 8.0, 0.5, 3);
        let d = inverse_weight_distances(&g);
        group.bench_with_input(BenchmarkId::from_parameter(4 * n_per), &n_per, |b, _| {
            b.iter(|| kamada_kawai(&d, 1, KamadaKawaiConfig::default()));
        });
    }
    group.finish();
}

fn bench_fr(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout/fruchterman-reingold");
    group.sample_size(10).measurement_time(Duration::from_secs(8));
    for n_per in [16usize, 24] {
        let (g, _) = planted_partition(4, n_per, 8.0, 0.5, 3);
        group.bench_with_input(BenchmarkId::from_parameter(4 * n_per), &n_per, |b, _| {
            b.iter(|| fruchterman_reingold(&g, 1));
        });
    }
    group.finish();
}

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout/apsp-distances");
    let (g, _) = planted_partition(4, 24, 8.0, 0.5, 3);
    group.bench_function("96", |b| {
        b.iter(|| inverse_weight_distances(&g));
    });
    group.finish();
}

criterion_group!(benches, bench_kk, bench_fr, bench_distances);
criterion_main!(benches);
