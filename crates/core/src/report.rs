//! Plain-text rendering of tomography results, in the shape the paper
//! reports them (Fig. 13 series, cluster membership listings).

use crate::pipeline::TomographyReport;
use std::fmt::Write;

/// Renders the Fig.-13-style convergence table: oNMI (and cluster count)
/// per iteration count.
pub fn convergence_table(report: &TomographyReport) -> String {
    let mut out = String::new();
    writeln!(out, "dataset {}: NMI vs measurement iterations", report.scenario_id).unwrap();
    writeln!(
        out,
        "{:>5}  {:>8}  {:>8}  {:>8}  {:>10}",
        "iters", "oNMI", "NMI", "clusters", "modularity"
    )
    .unwrap();
    for p in &report.convergence {
        writeln!(
            out,
            "{:>5}  {:>8.4}  {:>8.4}  {:>8}  {:>10.4}",
            p.iterations, p.onmi, p.nmi, p.clusters, p.modularity
        )
        .unwrap();
    }
    match report.converged_at(0.999) {
        Some(k) => writeln!(out, "converged to oNMI ≥ 0.999 at iteration {k}").unwrap(),
        None => writeln!(out, "did not converge to oNMI ≥ 0.999 (final {:.4})", report.last().onmi)
            .unwrap(),
    }
    out
}

/// Lists found clusters with member labels, flagging ground-truth
/// disagreements.
pub fn cluster_listing(report: &TomographyReport, labels: &[String]) -> String {
    let mut out = String::new();
    let p = &report.final_partition;
    writeln!(
        out,
        "found {} clusters (ground truth: {}):",
        p.num_clusters(),
        report.ground_truth.num_clusters()
    )
    .unwrap();
    for (c, members) in p.clusters().iter().enumerate() {
        let names: Vec<&str> = members.iter().map(|&v| labels[v as usize].as_str()).collect();
        writeln!(out, "  cluster {c} ({} nodes): {}", members.len(), names.join(", ")).unwrap();
    }
    out
}

/// One summary line per dataset for campaign-level overviews. Churned
/// campaigns append their reliability block (losses, coverage,
/// confidence-weighted accuracy).
pub fn summary_line(report: &TomographyReport) -> String {
    let mut line = format!(
        "{:8} hosts={:<3} iters={:<3} clusters={}/{} oNMI={:.3} converged@{} meas={:.1}s-sim",
        report.scenario_id,
        report.ground_truth.len(),
        report.convergence.len(),
        report.final_partition.num_clusters(),
        report.ground_truth.num_clusters(),
        report.last().onmi,
        report.converged_at(0.999).map_or_else(|| "never".to_string(), |k| k.to_string()),
        report.measurement_time(),
    );
    let rel = &report.reliability;
    if rel.hosts_lost > 0 || rel.pairs_unobserved > 0 {
        line.push_str(&format!(
            " lost={} unobs-pairs={} coverage={:.2} cw-oNMI={:.3}",
            rel.hosts_lost, rel.pairs_unobserved, rel.pair_coverage, rel.confidence_weighted_onmi
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::session::TomographySession;

    fn tiny_report() -> TomographyReport {
        TomographySession::new(Dataset::Small2x2).iterations(2).pieces(48).seed(3).run()
    }

    #[test]
    fn convergence_table_shape() {
        let r = tiny_report();
        let t = convergence_table(&r);
        assert!(t.contains("dataset 2x2"));
        assert!(t.lines().count() >= 4, "{t}");
        assert!(t.contains("iters"));
    }

    #[test]
    fn cluster_listing_mentions_all_hosts() {
        let r = tiny_report();
        let labels: Vec<String> = (0..4).map(|i| format!("ip-{i}")).collect();
        let l = cluster_listing(&r, &labels);
        for i in 0..4 {
            assert!(l.contains(&format!("ip-{i}")), "{l}");
        }
    }

    #[test]
    fn summary_line_is_one_line() {
        let r = tiny_report();
        let s = summary_line(&r);
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("2x2"));
    }
}
