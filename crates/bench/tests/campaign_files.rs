//! Integration test for the campaign subsystem's headline guarantee:
//! same-spec, same-seed sweeps produce **byte-identical** artifacts, no
//! matter the thread scheduling — the property that makes campaign outputs
//! diffable across PRs.

use btt_bench::campaign::{check_outputs, run_sweep, write_outputs, SweepSpec};
use btt_core::backend::Backend;
use btt_core::scenarios::ScenarioSpec;
use btt_core::serialize::{json, ReportRecord};
use std::fs;
use std::path::PathBuf;

fn spec() -> SweepSpec {
    SweepSpec {
        scenarios: ScenarioSpec::parse_list("2x2,wan:2x3:0.25,star:2x3:0.2:3").unwrap(),
        backends: vec![Backend::Louvain, Backend::LabelPropagation],
        seeds: vec![2012],
        iterations: Some(3),
        pieces: 96,
        threads: 0,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("btt-campaign-{tag}-{}", std::process::id()))
}

#[test]
fn same_seed_campaigns_are_byte_identical() {
    let (dir_a, dir_b) = (tmp_dir("a"), tmp_dir("b"));
    let spec = spec();
    let runs = spec.expand();

    let records_a = run_sweep(&spec);
    let paths_a = write_outputs(&dir_a, &runs, &records_a).unwrap();
    let records_b = run_sweep(&spec);
    let paths_b = write_outputs(&dir_b, &runs, &records_b).unwrap();

    assert_eq!(records_a, records_b, "in-memory records must match");
    assert_eq!(paths_a.len(), paths_b.len());
    assert_eq!(paths_a.len(), runs.len() * 2 + 1, "json + csv per run, one summary");
    for (a, b) in paths_a.iter().zip(&paths_b) {
        assert_eq!(a.file_name(), b.file_name());
        let (bytes_a, bytes_b) = (fs::read(a).unwrap(), fs::read(b).unwrap());
        assert_eq!(bytes_a, bytes_b, "{} differs between same-seed sweeps", a.display());
    }

    // Both directories validate, and the JSON artifacts parse back to the
    // exact in-memory records.
    let summary = check_outputs(&dir_a).unwrap();
    assert_eq!((summary.jsons, summary.csvs), (runs.len(), runs.len() + 1));
    for (path, record) in paths_a.iter().step_by(2).zip(&records_a) {
        let text = fs::read_to_string(path).unwrap();
        let back = ReportRecord::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, record, "{}", path.display());
    }

    fs::remove_dir_all(&dir_a).ok();
    fs::remove_dir_all(&dir_b).ok();
}

/// The acceptance sweep for the reliability layer: three churn rates on the
/// 512-host WAN preset. Every run's artifacts carry the reliability fields
/// (hosts lost, pairs unobserved), losses grow with the churn rate, and
/// `btt check`'s validator accepts the directory.
#[test]
fn churn_rate_sweep_on_wan_512_emits_reliability_fields() {
    let dir = tmp_dir("churn");
    let spec = SweepSpec {
        scenarios: ScenarioSpec::parse_list(
            "wan-512,wan-512+churn=0.02,wan-512+churn=0.08,wan-512+churn=0.15",
        )
        .unwrap(),
        backends: vec![Backend::Louvain],
        seeds: vec![2012],
        iterations: Some(2),
        pieces: 48,
        threads: 0,
    };
    let runs = spec.expand();
    let records = run_sweep(&spec);
    assert_eq!(records.len(), 4);

    // Losses are zero without churn and grow (weakly) with the churn rate;
    // coverage moves the opposite way.
    let lost: Vec<u64> = records.iter().map(|r| r.reliability.hosts_lost).collect();
    assert_eq!(lost[0], 0, "static preset loses nobody");
    assert!(lost[1] > 0, "churn=0.02 on 512 hosts must lose someone");
    assert!(lost[1] <= lost[2] && lost[2] <= lost[3], "losses grow with churn: {lost:?}");
    assert_eq!(records[0].reliability.pair_coverage, 1.0);
    for r in &records[1..] {
        assert!(r.reliability.pair_coverage < 1.0, "{}", r.scenario_id);
        assert!(r.reliability.hosts_lost > 0);
        assert_eq!(r.run_hosts_lost.len(), 2, "one entry per iteration");
        assert!(r.run_hosts_lost.iter().any(|&k| k > 0));
        assert!(
            r.reliability.confidence_weighted_onmi <= r.reliability.onmi_observed + 1e-12,
            "confidence can only discount"
        );
    }

    // The written artifacts carry the fields and validate via `btt check`'s
    // own entry point.
    let paths = write_outputs(&dir, &runs, &records).unwrap();
    let summary = check_outputs(&dir).unwrap();
    assert_eq!((summary.jsons, summary.csvs), (4, 5));
    for (path, record) in paths.iter().step_by(2).zip(&records) {
        let text = fs::read_to_string(path).unwrap();
        assert!(text.contains("\"reliability\""), "{}", path.display());
        assert!(text.contains("\"hosts_lost\""), "{}", path.display());
        assert!(text.contains("\"pairs_unobserved\""), "{}", path.display());
        let back = ReportRecord::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(&back, record, "{}", path.display());
    }
    // summary.csv carries the reliability columns with matching values.
    let summary = fs::read_to_string(dir.join("summary.csv")).unwrap();
    let rows = btt_core::serialize::csv::parse(&summary).unwrap();
    let lost_col = rows[0].iter().position(|c| c == "hosts_lost").unwrap();
    let unobs_col = rows[0].iter().position(|c| c == "pairs_unobserved").unwrap();
    for (row, r) in rows[1..].iter().zip(&records) {
        assert_eq!(row[lost_col], r.reliability.hosts_lost.to_string());
        assert_eq!(row[unobs_col], r.reliability.pairs_unobserved.to_string());
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn different_seeds_perturb_the_artifacts() {
    // Tripwire against the seed being ignored: a contended scenario must
    // yield different measurements for different seeds.
    let mut spec_a = spec();
    spec_a.scenarios = ScenarioSpec::parse_list("star:2x3:0.2:3").unwrap();
    spec_a.backends = vec![Backend::Louvain];
    let mut spec_b = spec_a.clone();
    spec_a.seeds = vec![1];
    spec_b.seeds = vec![2];
    let a = run_sweep(&spec_a);
    let b = run_sweep(&spec_b);
    assert_ne!(
        a[0].to_json().render(),
        b[0].to_json().render(),
        "distinct seeds should change the measured series"
    );
}
