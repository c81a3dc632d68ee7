//! Backend-refactor equivalence goldens: every `btt-report-v3` artifact,
//! re-run through [`btt_core::backend::Backend`]'s dispatch, is
//! byte-identical (modulo the v4 schema bump) to the pre-refactor path.
//!
//! The files under `tests/golden/backend/` were generated by the
//! *pre-refactor* tree (a hardwired clustering-algorithm dispatch) on
//! wan-512 and wan-512-churn; that tree wrote the same bytes in both
//! [`DriveMode`]s, so there is one file per scenario. Each test re-runs the
//! identical session through the pluggable-backend path in one drive mode
//! and compares the rendering to that file after normalizing exactly the
//! two intentional v4 changes: the schema string and the added `diagnosis`
//! block. Any other byte of drift — a different partition, a reordered
//! field, a float formatting change, a drive-mode divergence — fails.
//!
//! Regenerate (only on an intentional format change) with
//! `BTT_REGEN_GOLDEN=1 cargo test -p btt-core --test backend_golden`; the
//! event-driven tests rewrite the files in the normalized (v3-shaped) form,
//! and the fixed-step tests still only compare, so re-run without the
//! variable to check them against the new files.

use btt_core::scenarios::ScenarioSpec;
use btt_core::serialize::ReportRecord;
use btt_core::session::TomographySession;
use btt_swarm::config::{DriveMode, SwarmConfig};

/// Renders the session's report and strips the two intentional v4
/// differences: the schema tag and the `diagnosis` block (a flat object
/// spanning the lines from `"diagnosis": {` to the next `},` at top-level
/// indent).
fn normalized_report(preset: &str, mode: DriveMode) -> String {
    let scenario = ScenarioSpec::parse(preset).expect("preset parses").build();
    let mut cfg = SwarmConfig::paper();
    cfg.drive = mode;
    cfg.num_pieces = 32;
    let report = TomographySession::over(scenario).swarm_config(cfg).iterations(2).seed(2012).run();
    let v4 = ReportRecord::new(&report, 32).to_json().render_pretty();
    let mut out = String::with_capacity(v4.len());
    let mut in_diagnosis = false;
    for line in v4.lines() {
        if in_diagnosis {
            if line == "  }," {
                in_diagnosis = false;
            }
            continue;
        }
        if line == "  \"diagnosis\": {" {
            in_diagnosis = true;
            continue;
        }
        if line == "  \"schema\": \"btt-report-v4\"," {
            out.push_str("  \"schema\": \"btt-report-v3\",\n");
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    assert!(!in_diagnosis, "diagnosis block never closed");
    out
}

fn check(preset: &str, mode: DriveMode) {
    let path = format!("{}/tests/golden/backend/{preset}.json", env!("CARGO_MANIFEST_DIR"));
    let actual = normalized_report(preset, mode);
    if mode == DriveMode::EventDriven && std::env::var_os("BTT_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (regen with BTT_REGEN_GOLDEN=1)"));
    assert_eq!(actual, expected, "{preset} ({mode:?}) drifted from the pre-refactor path");
}

#[test]
fn wan_512_event_driven_matches_pre_refactor_bytes() {
    check("wan-512", DriveMode::EventDriven);
}

#[test]
fn wan_512_fixed_step_matches_pre_refactor_bytes() {
    check("wan-512", DriveMode::FixedStep);
}

#[test]
fn wan_512_churn_event_driven_matches_pre_refactor_bytes() {
    check("wan-512-churn", DriveMode::EventDriven);
}

#[test]
fn wan_512_churn_fixed_step_matches_pre_refactor_bytes() {
    check("wan-512-churn", DriveMode::FixedStep);
}
