//! Ablations over the design choices DESIGN.md calls out: clustering
//! algorithm (§III-D), piece-selection policy, root rotation (§II-C), and
//! robustness under background load (§I).

use crate::ctx::text_table;
use crate::ReproCtx;
use btt_core::dataset::Dataset;
use btt_core::prelude::*;
use btt_netsim::grid5000::Grid5000;
use btt_netsim::perturb::{Perturbation, PerturbationSchedule, TimedPerturbation};
use btt_netsim::routing::RouteTable;
use btt_netsim::topology::NodeId;
use btt_netsim::util::{seed_for_iteration, splitmix64};
use btt_swarm::swarm::Swarm;
use std::sync::Arc;

/// §III-D: Louvain vs Infomap (vs label propagation) on identical
/// measurements. The paper found Infomap "does not perform as well as
/// modularity based clustering for this particular problem".
pub fn ablation_infomap(ctx: &mut ReproCtx) {
    let backends = [Backend::Louvain, Backend::Infomap, Backend::LabelPropagation];
    let mut rows = vec![vec![
        "dataset".into(),
        "algorithm".into(),
        "clusters".into(),
        "oNMI".into(),
        "NMI".into(),
    ]];
    let mut csv = Vec::new();
    for d in Dataset::PAPER_SETS {
        // Measurements are shared: only phase 2 differs.
        let (graph, truth) = {
            let report = ctx.report(d);
            (metric_graph(&report.campaign.metric), report.ground_truth.clone())
        };
        for backend in backends {
            let p = backend.infer(&graph, ctx.seed);
            let o = onmi_partitions(&p, &truth);
            let s = nmi(&p, &truth);
            rows.push(vec![
                d.id().into(),
                backend.name().into(),
                p.num_clusters().to_string(),
                format!("{o:.3}"),
                format!("{s:.3}"),
            ]);
            csv.push(format!("{},{},{},{o:.4},{s:.4}", d.id(), backend.name(), p.num_clusters()));
        }
    }
    println!("{}", text_table(&rows));
    println!("shape target: louvain matches or beats infomap on every dataset (§III-D).");
    ctx.write_csv("ablation_infomap.csv", "dataset,algorithm,clusters,onmi,nmi", &csv);
}

/// DESIGN.md §2: the sampled-rarest-first approximation vs pure-random and
/// exact rarest-first. The tomographic signal should be insensitive.
pub fn ablation_selection(ctx: &mut ReproCtx) {
    let policies: [(&str, SelectionPolicy); 3] = [
        ("sampled-rarest(16)", SelectionPolicy::SampledRarest { sample: 16 }),
        ("random", SelectionPolicy::Random),
        ("exact-rarest", SelectionPolicy::ExactRarest),
    ];
    let scenario = Dataset::B.build();
    let iters = ctx.effective_iterations(Dataset::B).min(12);
    let mut rows = vec![vec![
        "policy".into(),
        "converged@".into(),
        "final oNMI".into(),
        "mean makespan (s)".into(),
    ]];
    let mut csv = Vec::new();
    for (name, policy) in policies {
        let cfg = SwarmConfig {
            num_pieces: ctx.effective_pieces(),
            selection: policy,
            ..SwarmConfig::default()
        };
        let campaign = run_campaign(
            &scenario.routes,
            &scenario.hosts,
            &cfg,
            iters,
            RootPolicy::Fixed(0),
            ctx.seed,
        );
        let series =
            convergence_series(&campaign, &scenario.ground_truth, Backend::Louvain, ctx.seed);
        let conv = converged_at(&series, 0.999);
        let final_onmi = series.last().map_or(0.0, |p| p.onmi);
        let mean_makespan =
            campaign.runs.iter().map(|r| r.makespan).sum::<f64>() / campaign.runs.len() as f64;
        rows.push(vec![
            name.into(),
            conv.map_or("never".into(), |k| k.to_string()),
            format!("{final_onmi:.3}"),
            format!("{mean_makespan:.2}"),
        ]);
        csv.push(format!(
            "{name},{},{final_onmi:.4},{mean_makespan:.3}",
            conv.map_or(-1i64, |k| k as i64)
        ));
    }
    println!("{}", text_table(&rows));
    println!("shape target: all policies converge to oNMI 1.0 on dataset B.");
    ctx.write_csv("ablation_selection.csv", "policy,converged_at,final_onmi,mean_makespan", &csv);
}

/// §II-C: rotating the broadcast root vs keeping it fixed. The paper notes
/// rotation as the fix for broadcast asymmetry; accuracy should be at least
/// as good.
pub fn ablation_root(ctx: &mut ReproCtx) {
    let policies: [(&str, RootPolicy); 3] = [
        ("fixed(0)", RootPolicy::Fixed(0)),
        ("round-robin", RootPolicy::RoundRobin),
        ("random", RootPolicy::Random),
    ];
    let scenario = Dataset::BGTL.build();
    let iters = ctx.effective_iterations(Dataset::BGTL).min(15);
    let cfg = SwarmConfig { num_pieces: ctx.effective_pieces(), ..SwarmConfig::default() };
    let mut rows = vec![vec!["root policy".into(), "converged@".into(), "final oNMI".into()]];
    let mut csv = Vec::new();
    for (name, policy) in policies {
        let campaign =
            run_campaign(&scenario.routes, &scenario.hosts, &cfg, iters, policy, ctx.seed);
        let series =
            convergence_series(&campaign, &scenario.ground_truth, Backend::Louvain, ctx.seed);
        let conv = converged_at(&series, 0.999);
        let final_onmi = series.last().map_or(0.0, |p| p.onmi);
        rows.push(vec![
            name.into(),
            conv.map_or("never".into(), |k| k.to_string()),
            format!("{final_onmi:.3}"),
        ]);
        csv.push(format!("{name},{},{final_onmi:.4}", conv.map_or(-1i64, |k| k as i64)));
    }
    println!("{}", text_table(&rows));
    println!("shape target: root rotation converges at least as reliably as a fixed root.");
    ctx.write_csv("ablation_root.csv", "policy,converged_at,final_onmi", &csv);
}

/// §I: the method targets *highly utilized* networks. Re-run the two-site
/// experiment while bulk streams run between random pairs of bystander
/// hosts outside the swarm; cluster recovery should survive.
pub fn ablation_load(ctx: &mut ReproCtx) {
    // 40 hosts per site: 32 measured, 8 bystanders generating load.
    let grid = Grid5000::builder().flat_site("grenoble", 40).flat_site("toulouse", 40).build();
    let routes = Arc::new(RouteTable::new(grid.topology.clone()));
    let g_hosts = &grid.sites[0].clusters[0].1;
    let t_hosts = &grid.sites[1].clusters[0].1;
    let hosts: Vec<_> = g_hosts[..32].iter().chain(t_hosts[..32].iter()).copied().collect();
    let bystanders: Vec<_> = g_hosts[32..].iter().chain(t_hosts[32..].iter()).copied().collect();
    let truth =
        Partition::from_assignments(&(0..64).map(|i| u32::from(i >= 32)).collect::<Vec<_>>());

    let cfg = SwarmConfig { num_pieces: ctx.effective_pieces(), ..SwarmConfig::default() };
    let iters = ctx.effective_iterations(Dataset::GT).min(10);

    let run_variant = |label: &str, loaded: bool| {
        let mut runs = Vec::new();
        for k in 0..iters {
            let seed = seed_for_iteration(ctx.seed, k as u64);
            let schedule = if loaded {
                bystander_load(&bystanders, seed_for_iteration(ctx.seed ^ 0xB6, k as u64))
            } else {
                PerturbationSchedule::default()
            };
            runs.push(
                Swarm::new(routes.clone(), &hosts, 0, cfg.clone(), seed)
                    .with_perturbations(schedule)
                    .run(),
            );
        }
        let mut metric = MetricAccumulator::new(hosts.len());
        for r in &runs {
            metric.push_run(&r.fragments);
        }
        let campaign = Campaign { runs, metric };
        let series = convergence_series(&campaign, &truth, Backend::Louvain, ctx.seed);
        let conv = converged_at(&series, 0.999);
        let final_onmi = series.last().map_or(0.0, |p| p.onmi);
        let mean_makespan =
            campaign.runs.iter().map(|r| r.makespan).sum::<f64>() / campaign.runs.len() as f64;
        println!(
            "{label:12} converged@{:<6} final oNMI {final_onmi:.3}  mean makespan {mean_makespan:.2} s",
            conv.map_or("never".into(), |k| k.to_string()),
        );
        (conv, final_onmi, mean_makespan)
    };

    let quiet = run_variant("quiet", false);
    let loaded = run_variant("loaded", true);
    let verdict = |held: bool| if held { "held" } else { "missed" };
    println!(
        "shape target: clustering survives load (final oNMI {:.3} -> {:.3}): {}",
        quiet.1,
        loaded.1,
        verdict(quiet.1 >= 0.999 && loaded.1 >= 0.999)
    );
    println!(
        "shape target: broadcasts slow down under load (makespan {:.2} -> {:.2} s): {}",
        quiet.2,
        loaded.2,
        verdict(loaded.2 > quiet.2)
    );
    ctx.write_csv(
        "ablation_load.csv",
        "variant,converged_at,final_onmi,mean_makespan",
        &[
            format!("quiet,{},{:.4},{:.3}", quiet.0.map_or(-1, |k| k as i64), quiet.1, quiet.2),
            format!("loaded,{},{:.4},{:.3}", loaded.0.map_or(-1, |k| k as i64), loaded.1, loaded.2),
        ],
    );
}

/// Bystander pairs streaming in `ablation_load`'s loaded variant.
const LOAD_PAIRS: u32 = 8;

/// [`LOAD_PAIRS`] always-on bulk streams between distinct bystanders, each
/// starting at t = 0 and never stopping; pairs are drawn from `seed`.
fn bystander_load(bystanders: &[NodeId], seed: u64) -> PerturbationSchedule {
    let n = bystanders.len() as u64;
    let mut state = seed;
    let mut draw = |m: u64| {
        state = splitmix64(state);
        (state % m) as usize
    };
    let events = (0..LOAD_PAIRS)
        .map(|key| {
            let a = draw(n);
            let b = draw(n - 1);
            let b = if b >= a { b + 1 } else { b };
            let (src, dst) = (bystanders[a], bystanders[b]);
            TimedPerturbation { at: 0.0, what: Perturbation::XTrafficStart { src, dst, key } }
        })
        .collect();
    PerturbationSchedule::new(events)
}

/// §V future work: hierarchical clustering. On the calibrated datasets the
/// flat cut already resolves the structure, so the check here is two-sided:
/// the recursive version must neither lose clusters nor invent spurious
/// sub-splits from measurement noise. (Its genuine win — the modularity
/// resolution limit — is pinned by unit tests in `btt-cluster::hierarchy`.)
pub fn ablation_hierarchy(ctx: &mut ReproCtx) {
    let mut rows = vec![vec![
        "dataset".into(),
        "flat clusters".into(),
        "flat oNMI".into(),
        "hier leaves".into(),
        "hier oNMI".into(),
        "depth".into(),
    ]];
    let mut csv = Vec::new();
    for d in Dataset::PAPER_SETS {
        let (graph, truth) = {
            let report = ctx.report(d);
            (metric_graph(&report.campaign.metric), report.ground_truth.clone())
        };
        let flat = Backend::default().infer(&graph, ctx.seed);
        let hier = recursive_louvain(&graph, ctx.seed, HierarchyConfig::default());
        let leaves = hier.leaf_partition();
        let fo = onmi_partitions(&flat, &truth);
        let ho = onmi_partitions(&leaves, &truth);
        rows.push(vec![
            d.id().into(),
            flat.num_clusters().to_string(),
            format!("{fo:.3}"),
            leaves.num_clusters().to_string(),
            format!("{ho:.3}"),
            hier.depth().to_string(),
        ]);
        csv.push(format!(
            "{},{},{fo:.4},{},{ho:.4},{}",
            d.id(),
            flat.num_clusters(),
            leaves.num_clusters(),
            hier.depth()
        ));
    }
    println!("{}", text_table(&rows));
    println!(
        "shape target: hierarchical never loses accuracy; no spurious splits on \
         homogeneous clusters."
    );
    ctx.write_csv(
        "ablation_hierarchy.csv",
        "dataset,flat_clusters,flat_onmi,leaf_clusters,leaf_onmi,depth",
        &csv,
    );
}

/// §V: "particularly suitable for overlay networks, or networks of virtual
/// machines, which may have a dynamically altering underlying topology."
/// The topology changes mid-campaign; a sliding-window metric tracks the
/// change while the cumulative Eq. (2) average stays polluted by stale
/// measurements.
pub fn ablation_dynamic(ctx: &mut ReproCtx) {
    // Phase 1: a flat 32-node site (ground truth: one cluster).
    // Phase 2: the same 32 hosts split by a 1 GbE trunk (two clusters).
    let flat_grid = Grid5000::builder().flat_site("site", 32).build();
    let flat_routes = Arc::new(RouteTable::new(flat_grid.topology.clone()));
    let flat_hosts = flat_grid.all_hosts();
    let split_grid = Grid5000::builder().bordeaux(16, 0, 16).build();
    let split_routes = Arc::new(RouteTable::new(split_grid.topology.clone()));
    let split_hosts = split_grid.all_hosts();
    let truth_after =
        Partition::from_assignments(&(0..32).map(|i| u32::from(i >= 16)).collect::<Vec<_>>());

    let per_phase = 8u32;
    let window = 5usize;
    let cfg =
        SwarmConfig { num_pieces: ctx.effective_pieces().min(6_000), ..SwarmConfig::default() };

    let mut cumulative = MetricAccumulator::new(32);
    let mut windowed = WindowedMetric::new(32, window);
    let mut rows =
        vec![vec!["iter".into(), "phase".into(), "cumulative oNMI".into(), "windowed oNMI".into()]];
    let mut csv = Vec::new();
    let mut cum_final = 0.0;
    let mut win_final = 0.0;
    for k in 0..(2 * per_phase) {
        let after_change = k >= per_phase;
        let seed = seed_for_iteration(ctx.seed, k as u64);
        let out = if after_change {
            run_broadcast(&split_routes, &split_hosts, 0, &cfg, seed)
        } else {
            run_broadcast(&flat_routes, &flat_hosts, 0, &cfg, seed)
        };
        cumulative.push_run(&out.fragments);
        windowed.push(&out.fragments);

        // Score both views against the *current* truth after the change.
        if after_change {
            let score = |acc: &MetricAccumulator| {
                let p = Backend::default().infer(&metric_graph(acc), ctx.seed ^ k as u64);
                onmi_partitions(&p, &truth_after)
            };
            cum_final = score(&cumulative);
            win_final = score(&windowed.snapshot());
            rows.push(vec![
                (k + 1).to_string(),
                "post-change".into(),
                format!("{cum_final:.3}"),
                format!("{win_final:.3}"),
            ]);
            csv.push(format!("{},post,{cum_final:.4},{win_final:.4}", k + 1));
        }
    }
    println!("{}", text_table(&rows));
    println!(
        "shape target: the windowed metric reaches oNMI 1.0 on the new topology faster than \
         the cumulative average (final: windowed {win_final:.3} vs cumulative {cum_final:.3})."
    );
    ctx.write_csv("ablation_dynamic.csv", "iter,phase,cumulative_onmi,windowed_onmi", &csv);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ablation tables report `converged_at` at 0.999: the first
    /// iteration count from which oNMI stays at or above it.
    #[test]
    fn converged_at_stability() {
        let mk = |onmis: &[f64]| -> Vec<ConvergencePoint> {
            onmis
                .iter()
                .enumerate()
                .map(|(i, &v)| ConvergencePoint {
                    iterations: i as u32 + 1,
                    onmi: v,
                    nmi: v,
                    clusters: 2,
                    modularity: 0.1,
                })
                .collect()
        };
        assert_eq!(converged_at(&mk(&[0.2, 1.0, 1.0]), 0.999), Some(2));
        assert_eq!(converged_at(&mk(&[1.0, 0.2, 1.0]), 0.999), Some(3));
        assert_eq!(converged_at(&mk(&[0.5]), 0.999), None);
    }
}
