//! Smoke tests: every repro experiment runs end-to-end at tiny scale
//! without panicking and produces its artifacts. Guards the figure
//! generators themselves (the integration tests elsewhere cover the
//! science; this covers the harness).

use btt_bench::experiments::{run, ALL_EXPERIMENTS};
use btt_bench::ReproCtx;

fn tiny_ctx(tag: &str) -> (ReproCtx, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("btt-repro-smoke-{tag}-{}", std::process::id()));
    let mut ctx = ReproCtx::new(&dir, 7);
    ctx.pieces = Some(400);
    ctx.iterations = Some(3);
    (ctx, dir)
}

/// The cheap experiments all run and emit files.
#[test]
fn figure_experiments_run_at_tiny_scale() {
    let (mut ctx, dir) = tiny_ctx("figs");
    for id in ["fig4", "fig5", "fig8", "fig13", "small2x2"] {
        assert!(run(&mut ctx, id), "unknown experiment {id}");
    }
    for artifact in [
        "fig4_local_vs_remote.csv",
        "fig5_single_run_distribution.csv",
        "fig8_B.dot",
        "fig8_B.svg",
        "fig13_nmi_vs_iterations.csv",
    ] {
        assert!(dir.join(artifact).exists(), "missing {artifact}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Scaling and ablation experiments run at tiny scale.
#[test]
fn scaling_and_ablations_run_at_tiny_scale() {
    let (mut ctx, dir) = tiny_ctx("abl");
    for id in [
        "scaling-size",
        "ablation-infomap",
        "ablation-load",
        "ablation-hierarchy",
        "ablation-dynamic",
    ] {
        assert!(run(&mut ctx, id), "unknown experiment {id}");
    }
    assert!(dir.join("ablation_hierarchy.csv").exists());
    assert!(dir.join("ablation_dynamic.csv").exists());
    let load = std::fs::read_to_string(dir.join("ablation_load.csv")).expect("load artifact");
    let variants: Vec<_> =
        load.lines().skip(1).map(|row| row.split(',').next().unwrap_or_default()).collect();
    assert_eq!(variants, ["quiet", "loaded"], "ablation_load.csv rows:\n{load}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown ids are rejected, and the published list is consistent.
#[test]
fn experiment_registry_is_consistent() {
    let (mut ctx, dir) = tiny_ctx("reg");
    assert!(!run(&mut ctx, "fig99"));
    assert!(!run(&mut ctx, ""));
    // Every listed experiment is at least dispatchable (ids are known).
    assert!(ALL_EXPERIMENTS.len() >= 16);
    let unique: std::collections::HashSet<_> = ALL_EXPERIMENTS.iter().collect();
    assert_eq!(unique.len(), ALL_EXPERIMENTS.len(), "duplicate experiment ids");
    std::fs::remove_dir_all(&dir).ok();
}

/// DOT artifacts are well-formed enough for Graphviz: balanced braces, node
/// statements, pinned positions.
#[test]
fn dot_artifacts_are_wellformed() {
    let (mut ctx, dir) = tiny_ctx("dot");
    assert!(run(&mut ctx, "fig10"));
    let dot = std::fs::read_to_string(dir.join("fig10_GT.dot")).expect("artifact exists");
    assert!(dot.starts_with("graph "));
    assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    assert!(dot.contains("pos=\""));
    assert!(dot.contains(" -- "));
    std::fs::remove_dir_all(&dir).ok();
}
