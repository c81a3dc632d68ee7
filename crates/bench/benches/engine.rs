//! Criterion: the event-driven engine at scale — broadcasts on the standard
//! scale presets, plus the two drive modes side by side. Together with the
//! committed `BENCH_engine.json` (which records the pre-refactor baselines),
//! these pin the engine's speedup.

use btt_core::scenarios::ScenarioSpec;
use btt_netsim::routing::RouteTable;
use btt_swarm::broadcast::run_broadcast;
use btt_swarm::config::{DriveMode, SwarmConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::Duration;

fn setup(spec: &str) -> (Arc<RouteTable>, Vec<btt_netsim::topology::NodeId>) {
    let scenario = ScenarioSpec::parse(spec).expect("preset parses").build();
    (scenario.routes, scenario.hosts)
}

fn bench_scale_presets(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/broadcast");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for (spec, pieces, refresh) in
        [("fat-tree-512", 256u32, None), ("edge-512", 128, None), ("edge-1k", 128, Some(0.25))]
    {
        let (routes, hosts) = setup(spec);
        let cfg =
            SwarmConfig { num_pieces: pieces, rate_refresh: refresh, ..SwarmConfig::default() };
        group.bench_with_input(BenchmarkId::from_parameter(spec), &spec, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                run_broadcast(&routes, &hosts, 0, &cfg, seed)
            });
        });
    }
    group.finish();
}

fn bench_drive_modes(c: &mut Criterion) {
    // Event-driven vs fixed-step pacing on the same broadcast: results are
    // bit-identical (see swarm tests); the wall-clock gap is the price of
    // pacing the engine through every 50 ms slice.
    let mut group = c.benchmark_group("engine/drive-mode");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    let (routes, hosts) = setup("edge-512");
    for (name, drive) in
        [("event-driven", DriveMode::EventDriven), ("fixed-step", DriveMode::FixedStep)]
    {
        let cfg = SwarmConfig { num_pieces: 128, drive, ..SwarmConfig::default() };
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                run_broadcast(&routes, &hosts, 0, &cfg, seed)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scale_presets, bench_drive_modes);
criterion_main!(benches);
