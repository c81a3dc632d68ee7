//! The event-driven engine reproduces the step-driven engine byte for byte.
//!
//! Protocol actions are keyed to exact event instants and the fluid engine's
//! state is invariant to how time is sliced, so pacing a run in fixed steps
//! ([`DriveMode::FixedStep`]) and jumping completion-to-completion
//! ([`DriveMode::EventDriven`]) must land *identical* reports — fragments,
//! completion times, makespans, convergence series, all of it, down to the
//! serialized bytes. This is the refactor's central safety property: the
//! fast path cannot drift from the reference pacing.

use bittorrent_tomography::core::scenarios::ScenarioSpec;
use bittorrent_tomography::core::serialize::ReportRecord;
use bittorrent_tomography::prelude::*;
use bittorrent_tomography::swarm::config::{DriveMode, SwarmConfig};

fn record(dataset: Dataset, drive: DriveMode, seed: u64) -> String {
    let cfg = SwarmConfig { num_pieces: 600, drive, ..SwarmConfig::default() };
    let report = TomographySession::new(dataset).swarm_config(cfg).iterations(3).seed(seed).run();
    ReportRecord::new(&report, 600).to_json().render_pretty()
}

fn record_spec(spec: &str, pieces: u32, iterations: u32, drive: DriveMode, seed: u64) -> String {
    let cfg = SwarmConfig { num_pieces: pieces, drive, ..SwarmConfig::default() };
    let report = TomographySession::over(ScenarioSpec::parse(spec).expect("spec parses").build())
        .swarm_config(cfg)
        .iterations(iterations)
        .seed(seed)
        .run();
    ReportRecord::new(&report, pieces).to_json().render_pretty()
}

/// Byte-for-byte equal serialized reports on the paper's Grid'5000
/// scenarios, across drive modes.
#[test]
fn drive_modes_produce_identical_reports_on_grid5000_scenarios() {
    for dataset in [Dataset::Small2x2, Dataset::GT] {
        let event = record(dataset, DriveMode::EventDriven, 2012);
        let stepped = record(dataset, DriveMode::FixedStep, 2012);
        assert_eq!(
            event,
            stepped,
            "{}: event-driven and fixed-step reports must be byte-identical",
            dataset.id()
        );
    }
}

/// The equivalence holds across seeds, not just one lucky draw (the B
/// dataset exercises the Bordeaux trunk bottleneck).
#[test]
fn drive_modes_agree_across_seeds() {
    for seed in [1u64, 7, 99] {
        let event = record(Dataset::B, DriveMode::EventDriven, seed);
        let stepped = record(Dataset::B, DriveMode::FixedStep, seed);
        assert_eq!(event, stepped, "seed {seed}");
    }
}

/// The equivalence survives the reliability layer: on the churned 512-host
/// WAN preset, host crashes, recoveries, and cross-traffic all apply at
/// exact absolute instants, so both pacings produce byte-identical reports
/// — including the reliability block.
#[test]
fn drive_modes_agree_on_churned_preset() {
    let event = record_spec("wan-512-churn", 96, 2, DriveMode::EventDriven, 2012);
    let stepped = record_spec("wan-512-churn", 96, 2, DriveMode::FixedStep, 2012);
    assert_eq!(event, stepped, "wan-512-churn: perturbed reports must be byte-identical");
    assert!(event.contains("\"reliability\""));
}

/// All three perturbation kinds at small scale, across seeds: the cheap
/// exhaustive variant of the churned-preset pin.
#[test]
fn drive_modes_agree_under_all_perturbation_kinds() {
    let spec = "star:3x4:0.1:4+churn=0.25+xtraffic=0.3+degrade=0.25";
    for seed in [2u64, 31] {
        let event = record_spec(spec, 128, 3, DriveMode::EventDriven, seed);
        let stepped = record_spec(spec, 128, 3, DriveMode::FixedStep, seed);
        assert_eq!(event, stepped, "seed {seed}");
    }
}

/// Single-broadcast smokes at the suite's largest scales: 4096-host
/// fat-tree and 8192-host WAN, one iteration each, both pacings. The
/// flattened hot path (dense have/interest mirrors, coalesced delivery
/// marks, component-local re-solves) earns its keep at exactly these
/// sizes, so this is where a pacing-dependent shortcut would surface; a
/// shallow piece count keeps both points inside the CI smoke budget.
#[test]
fn drive_modes_agree_at_bench_scale() {
    for (spec, pieces) in [("fat-tree-4k", 16u32), ("wan-8k", 16)] {
        let event = record_spec(spec, pieces, 1, DriveMode::EventDriven, 2012);
        let stepped = record_spec(spec, pieces, 1, DriveMode::FixedStep, 2012);
        assert_eq!(event, stepped, "{spec}: bench-scale reports must be byte-identical");
    }
}
