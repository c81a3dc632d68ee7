//! One generator per paper figure/table (DESIGN.md §4's experiment index).

pub mod ablations;
pub mod cost;
pub mod figures;
pub mod scaling;

use crate::ReproCtx;

/// All experiment ids accepted by the `repro` binary, in execution order for
/// `all`.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "small2x2",
    "scaling-nodes",
    "scaling-size",
    "cost",
    "ablation-infomap",
    "ablation-selection",
    "ablation-root",
    "ablation-load",
    "ablation-hierarchy",
    "ablation-dynamic",
];

/// Runs one experiment by id. Returns `false` for unknown ids.
pub fn run(ctx: &mut ReproCtx, id: &str) -> bool {
    println!("\n=== {id} ===");
    match id {
        "fig4" => figures::fig4(ctx),
        "fig5" => figures::fig5(ctx),
        "fig8" => figures::layout_figure(ctx, btt_core::dataset::Dataset::B, "fig8"),
        "fig9" => figures::layout_figure(ctx, btt_core::dataset::Dataset::BT, "fig9"),
        "fig10" => figures::layout_figure(ctx, btt_core::dataset::Dataset::GT, "fig10"),
        "fig11" => figures::layout_figure(ctx, btt_core::dataset::Dataset::BGT, "fig11"),
        "fig12" => figures::layout_figure(ctx, btt_core::dataset::Dataset::BGTL, "fig12"),
        "fig13" => figures::fig13(ctx),
        "small2x2" => figures::small2x2(ctx),
        "scaling-nodes" => scaling::scaling_nodes(ctx),
        "scaling-size" => scaling::scaling_size(ctx),
        "cost" => cost::cost_comparison(ctx),
        "ablation-infomap" => ablations::ablation_infomap(ctx),
        "ablation-selection" => ablations::ablation_selection(ctx),
        "ablation-root" => ablations::ablation_root(ctx),
        "ablation-load" => ablations::ablation_load(ctx),
        "ablation-hierarchy" => ablations::ablation_hierarchy(ctx),
        "ablation-dynamic" => ablations::ablation_dynamic(ctx),
        _ => return false,
    }
    true
}
