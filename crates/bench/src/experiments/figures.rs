//! Reproductions of the paper's data-bearing figures (Figs. 4, 5, 8–13) and
//! the §IV-B1 2×2 warm-up.

use crate::ctx::{bar, text_table};
use crate::ReproCtx;
use btt_baselines::netpipe::netpipe;
use btt_core::dataset::Dataset;
use btt_core::prelude::*;
use btt_layout::prelude::*;

/// Fig. 4: averaged per-edge fragment counts for one fixed node, local
/// cluster peers on the left, remote peers on the right.
pub fn fig4(ctx: &mut ReproCtx) {
    let scenario = Dataset::B.build();
    let truth = scenario.ground_truth.clone();
    let report = ctx.report(Dataset::B);
    let metric = &report.campaign.metric;
    let n = metric.len();

    // The paper fixes a random node; we fix a bordeplage node for
    // determinism. Its "local cluster" is its ground-truth cluster.
    let fixed = 5usize;
    let my_cluster = truth.cluster_of(fixed);

    let mut local: Vec<(usize, f64)> = Vec::new();
    let mut remote: Vec<(usize, f64)> = Vec::new();
    for other in 0..n {
        if other == fixed {
            continue;
        }
        let w = metric.w(fixed, other);
        if truth.cluster_of(other) == my_cluster {
            local.push((other, w));
        } else {
            remote.push((other, w));
        }
    }
    local.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    remote.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    let max = local.iter().chain(&remote).map(|e| e.1).fold(0.0, f64::max);
    println!(
        "fixed node {} ({}), {} iterations",
        fixed,
        scenario.labels[fixed],
        metric.iterations()
    );
    println!("-- edges to LOCAL cluster peers --");
    for &(o, w) in &local {
        println!("  {:>14} {:>8.1} {}", scenario.labels[o], w, bar(w, max, 40));
    }
    println!("-- edges to REMOTE peers --");
    for &(o, w) in &remote {
        println!("  {:>14} {:>8.1} {}", scenario.labels[o], w, bar(w, max, 40));
    }
    let local_total: f64 = local.iter().map(|e| e.1).sum();
    let remote_total: f64 = remote.iter().map(|e| e.1).sum();
    println!(
        "totals: {:.0} fragments/iter exchanged with local peers, {:.0} with remote \
         (paper: 22533 vs 6337 over 36 iters; shape target local >> remote)",
        local_total, remote_total
    );

    let rows: Vec<String> = local
        .iter()
        .map(|&(o, w)| format!("{},local,{w:.2}", scenario.labels[o]))
        .chain(remote.iter().map(|&(o, w)| format!("{},remote,{w:.2}", scenario.labels[o])))
        .collect();
    ctx.write_csv("fig4_local_vs_remote.csv", "peer,side,avg_fragments", &rows);
}

/// Fig. 5: distribution of the single-run metric `w(e)` for one fixed
/// intra-cluster edge, contrasted with NetPIPE's tight distribution.
pub fn fig5(ctx: &mut ReproCtx) {
    let scenario = Dataset::B.build();
    let report = ctx.report(Dataset::B);
    // Fixed edge between two nodes of the same physical cluster.
    let (a, b) = (1usize, 2usize);
    let samples: Vec<u64> = report.campaign.runs.iter().map(|r| r.fragments.edge(a, b)).collect();

    let zeros = samples.iter().filter(|&&s| s == 0).count();
    let max = samples.iter().copied().max().unwrap_or(0);
    println!(
        "edge ({}, {}): {} runs, {} with zero exchange, max {} fragments \
         (paper: 23/36 zero, max 6304)",
        scenario.labels[a],
        scenario.labels[b],
        samples.len(),
        zeros,
        max
    );

    // Histogram with paper-like binning.
    let bin = 250u64;
    let nbins = (max / bin + 1).max(1);
    let mut hist = vec![0usize; nbins as usize];
    for &s in &samples {
        hist[(s / bin) as usize] += 1;
    }
    let hmax = *hist.iter().max().unwrap_or(&1) as f64;
    for (i, &c) in hist.iter().enumerate() {
        if c > 0 || i == 0 {
            println!(
                "  [{:>6}-{:>6}) {:>3} {}",
                i as u64 * bin,
                (i as u64 + 1) * bin,
                c,
                bar(c as f64, hmax, 40)
            );
        }
    }

    // NetPIPE contrast on the same pair (paper: dense around 890 Mb/s).
    let np = netpipe(&scenario.routes, scenario.hosts[a], scenario.hosts[b], 12, 1.0);
    println!(
        "NetPIPE on the same pair: mean {:.1} Mb/s, stddev {:.3} Mb/s over {} reps \
         (paper: dense around 890 Mb/s)",
        np.mean_mbps(),
        np.stddev_mbps(),
        np.samples_mbps.len()
    );

    let rows: Vec<String> = samples.iter().enumerate().map(|(i, s)| format!("{i},{s}")).collect();
    ctx.write_csv("fig5_single_run_distribution.csv", "run,fragments", &rows);
    let rows: Vec<String> =
        np.samples_mbps.iter().enumerate().map(|(i, s)| format!("{i},{s:.3}")).collect();
    ctx.write_csv("fig5_netpipe_samples.csv", "rep,mbps", &rows);
}

/// Figs. 8–12: Kamada–Kawai layout of the measurement graph with
/// ground-truth shapes and the top-50 % edge filter; DOT + SVG artefacts.
pub fn layout_figure(ctx: &mut ReproCtx, dataset: Dataset, fig: &str) {
    let scenario = dataset.build();
    let (g, listing) = {
        let report = ctx.report(dataset);
        (metric_graph(&report.campaign.metric), cluster_listing(report, &scenario.labels))
    };
    let d = inverse_weight_distances(&g);
    let pos = kamada_kawai(&d, ctx.seed, KamadaKawaiConfig::default());
    let rendered =
        render(&g, &pos, &scenario.labels, &scenario.ground_truth, RenderOptions::default());

    let dot = to_dot(&rendered, &format!("{fig}_{}", dataset.id()));
    ctx.write_artifact(&format!("{fig}_{}.dot", dataset.id().replace('-', "")), &dot);
    let svg = to_svg(&rendered, &format!("{} — dataset {}", fig, dataset.id()));
    ctx.write_artifact(&format!("{fig}_{}.svg", dataset.id().replace('-', "")), &svg);

    // Spatial-separation diagnostic: mean layout distance within vs across
    // ground-truth clusters (the visual effect the paper describes).
    let truth = &scenario.ground_truth;
    let (mut intra, mut ni, mut inter, mut nx) = (0.0f64, 0usize, 0.0f64, 0usize);
    for x in 0..pos.len() {
        for y in (x + 1)..pos.len() {
            let dist = pos[x].dist(pos[y]);
            if truth.cluster_of(x) == truth.cluster_of(y) {
                intra += dist;
                ni += 1;
            } else {
                inter += dist;
                nx += 1;
            }
        }
    }
    let ratio = (inter / nx.max(1) as f64) / (intra / ni.max(1) as f64).max(1e-9);
    println!(
        "dataset {}: {} nodes, ground-truth clusters {}, layout inter/intra distance ratio {:.2} \
         (>1 means clusters are visually separated)",
        dataset.id(),
        pos.len(),
        truth.num_clusters(),
        ratio
    );
    println!("{listing}");
}

/// Fig. 13: oNMI against ground truth vs measurement iterations, all five
/// datasets.
pub fn fig13(ctx: &mut ReproCtx) {
    let datasets = Dataset::PAPER_SETS;
    let mut series: Vec<(Dataset, Vec<ConvergencePoint>)> = Vec::new();
    for d in datasets {
        let report = ctx.report(d);
        series.push((d, report.convergence.clone()));
    }

    let max_iters = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut header = vec!["iters".to_string()];
    header.extend(datasets.iter().map(|d| d.id().to_string()));
    rows.push(header);
    for k in 0..max_iters {
        let mut row = vec![(k + 1).to_string()];
        for (_, s) in &series {
            row.push(s.get(k).map_or(String::from("-"), |p| format!("{:.3}", p.onmi)));
        }
        rows.push(row);
    }
    println!("{}", text_table(&rows));

    for (d, s) in &series {
        let conv = converged_at(s, 0.999);
        println!(
            "{:8} converged@{}  final oNMI {:.3}  (paper: B/G-T/B-G-T ~2 iters to 1.0, \
             B-G-T-L ~15 iters, B-T plateaus at ~0.7)",
            d.id(),
            conv.map_or("never".into(), |k| k.to_string()),
            s.last().map_or(0.0, |p| p.onmi),
        );
    }

    let csv_rows: Vec<String> = (0..max_iters)
        .map(|k| {
            let mut cells = vec![(k + 1).to_string()];
            for (_, s) in &series {
                cells.push(s.get(k).map_or(String::new(), |p| format!("{:.4}", p.onmi)));
            }
            cells.join(",")
        })
        .collect();
    let header = format!("iters,{}", datasets.iter().map(|d| d.id()).collect::<Vec<_>>().join(","));
    ctx.write_csv("fig13_nmi_vs_iterations.csv", &header, &csv_rows);
}

/// §IV-B1: the 2×2 experiment — similar metrics on all links, one cluster.
pub fn small2x2(ctx: &mut ReproCtx) {
    let mut session = TomographySession::new(Dataset::Small2x2).seed(ctx.seed);
    if let Some(p) = ctx.pieces {
        session = session.pieces(p);
    }
    session = session.iterations(ctx.effective_iterations(Dataset::Small2x2).min(30));
    let report = session.run();
    let scenario = session.scenario();

    let metric = &report.campaign.metric;
    println!("aggregated w(e) over {} iterations:", metric.iterations());
    let mut ws = Vec::new();
    for a in 0..4 {
        for b in (a + 1)..4 {
            let w = metric.w(a, b);
            ws.push(w);
            println!("  {} -- {}: {:.1}", scenario.labels[a], scenario.labels[b], w);
        }
    }
    let max = ws.iter().cloned().fold(0.0f64, f64::max);
    let min = ws.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "metric spread max/min = {:.2} (paper: 'very similar metrics for all links')",
        max / min.max(1e-9)
    );
    println!(
        "clusters found: {} (paper: a single logical cluster)",
        report.final_partition.num_clusters()
    );
    println!("{}", convergence_table(&report));
}
