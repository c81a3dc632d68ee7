//! The committed fingerprint table: one FNV-1a 64 hash per report of a fixed
//! sweep matrix, and one per scenario's labels and ground truth.
//!
//! The matrix runs every backend in [`Backend::ALL`] at seed 2012 with
//! `btt sweep --quick`'s shape (3 iterations × 128 pieces) over the six
//! paper datasets, one spec per synthetic family (the fat-tree's truth is
//! per rack) and one WAN spec carrying all three perturbation kinds. The
//! three large presets are built only, for their labels and truths.
//!
//! Each row of `tests/golden/fingerprints.tsv` is `scenario`, `row` (a
//! backend name, `labels` or `truth`) and the hash, tab-separated. The test
//! recomputes the table and names every row that moved. Regenerate it (only
//! on a change meant to move rows; say which and why) with
//! `BTT_REGEN_GOLDEN=1 cargo test -p btt-bench --test fingerprints`.

use btt_bench::campaign::{run_sweep, SweepSpec};
use btt_core::backend::Backend;
use btt_core::scenarios::ScenarioSpec;

/// Scenarios swept under every backend.
const SWEPT: &str = "B,B-T,G-T,B-G-T,B-G-T-L,2x2,fat-tree:2x2x4:4:2,star:3x4:0.1:4,wan:3x4:0.5,\
                     wan:3x8:0.5+churn=0.2+xtraffic=0.2+degrade=0.2";

/// Scenarios built only: labels and truth rows, no campaign.
const BUILT: &str = "fat-tree-4k,star-1k,wan-1k";

/// FNV-1a, 64-bit: the same function the benchmark fingerprints reports
/// with.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn row(scenario: &str, name: &str, bytes: &str) -> String {
    format!("{scenario}\t{name}\t{:016x}\n", fnv1a64(bytes.as_bytes()))
}

/// The whole table, in sweep order: each swept scenario's backend rows,
/// then the labels and truth rows of every scenario.
fn table() -> String {
    let swept = ScenarioSpec::parse_list(SWEPT).expect("swept specs parse");
    let spec = SweepSpec {
        scenarios: swept.clone(),
        backends: Backend::ALL.to_vec(),
        seeds: vec![2012],
        iterations: Some(3),
        pieces: 128,
        threads: 1,
    };
    let mut out = String::new();
    for (run, record) in spec.expand().iter().zip(run_sweep(&spec)) {
        out += &row(&run.scenario.id(), run.backend.name(), &record.to_json().render());
    }
    let built = ScenarioSpec::parse_list(BUILT).expect("built specs parse");
    for scenario in swept.iter().chain(&built) {
        let s = scenario.build();
        let truth: Vec<String> =
            s.ground_truth.assignments().iter().map(|c| c.to_string()).collect();
        out += &row(&s.id, "labels", &s.labels.join("\n"));
        out += &row(&s.id, "truth", &truth.join(","));
    }
    out
}

/// Splits a table into (`scenario\trow`, hash) pairs.
fn rows(table: &str) -> Vec<(&str, &str)> {
    table.lines().filter_map(|l| l.rsplit_once('\t')).collect()
}

#[test]
fn fingerprint_table_is_unchanged() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fingerprints.tsv");
    let actual = table();
    assert_eq!(rows(&actual).len(), 10 * Backend::ALL.len() + 2 * 13, "matrix shape");
    if std::env::var_os("BTT_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &actual).expect("write fingerprint table");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path}: {e} (regen with BTT_REGEN_GOLDEN=1)"));
    let (want, got) = (rows(&expected), rows(&actual));
    let mut moved: Vec<String> = got
        .iter()
        .filter(|row| !want.contains(row))
        .map(|(key, hash)| match want.iter().find(|(k, _)| k == key) {
            Some((_, old)) => format!("{key}: {old} -> {hash}"),
            None => format!("{key}: new row"),
        })
        .collect();
    moved.extend(
        want.iter()
            .filter(|(key, _)| !got.iter().any(|(k, _)| k == key))
            .map(|(key, _)| format!("{key}: row gone")),
    );
    assert!(moved.is_empty(), "{} fingerprint row(s) moved:\n{}", moved.len(), moved.join("\n"));
    assert_eq!(actual, expected, "rows match but the table's order or layout changed");
}
