//! Bottleneck diagnosis: map logical clusters back to physical links.
//!
//! The tomography method outputs a *logical* clustering; §V of the paper
//! notes it "correctly identified communication bottleneck links … by
//! placing the nodes communicating across the bottleneck link in different
//! logical clusters". This module makes the link identification explicit:
//! given the topology and a clustering of its hosts, rank the physical
//! links by how many inter-cluster host pairs route across them. The links
//! every inter-cluster path shares are the bottleneck candidates — on the
//! paper's Bordeaux site this names exactly the Dell↔Cisco trunk.

use btt_cluster::graph::WeightedGraph;
use btt_cluster::partition::Partition;
use btt_netsim::routing::RouteTable;
use btt_netsim::topology::{LinkId, NodeId};

/// One candidate bottleneck link.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckCandidate {
    /// The physical link.
    pub link: LinkId,
    /// Human-readable endpoints, `"a <-> b"`.
    pub endpoints: String,
    /// Fraction of inter-cluster host pairs whose route crosses this link
    /// (1.0 = every inter-cluster path shares it).
    pub coverage: f64,
    /// Number of inter-cluster pairs crossing it.
    pub pairs: usize,
}

/// Ranks physical links by inter-cluster route coverage.
///
/// `hosts[i]` is the topology node of clustering index `i`. Links crossed
/// by *intra*-cluster routes as well are still listed (a site uplink can
/// legitimately carry both); the caller reads `coverage` to judge. Links
/// never crossed by inter-cluster routes are omitted. Sorted by coverage,
/// then by pair count, descending.
pub fn bottleneck_candidates(
    routes: &RouteTable,
    hosts: &[NodeId],
    clusters: &Partition,
) -> Vec<BottleneckCandidate> {
    assert_eq!(hosts.len(), clusters.len(), "one cluster id per host");
    let topo = routes.topology();
    let mut crossing = vec![0usize; topo.num_links()];
    let mut inter_pairs = 0usize;

    for a in 0..hosts.len() {
        for b in (a + 1)..hosts.len() {
            if clusters.cluster_of(a) == clusters.cluster_of(b) {
                continue;
            }
            inter_pairs += 1;
            // Which links does the a->b route use? (Full-duplex: direction
            // does not matter for identification.)
            let mut seen = Vec::new();
            for ch in routes.route(hosts[a], hosts[b]) {
                let l = ch.link();
                if !seen.contains(&l) {
                    seen.push(l);
                    crossing[l.idx()] += 1;
                }
            }
        }
    }
    if inter_pairs == 0 {
        return Vec::new();
    }

    let mut out: Vec<BottleneckCandidate> = crossing
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| {
            let link = LinkId(i as u32);
            let l = topo.link(link);
            BottleneckCandidate {
                link,
                endpoints: format!("{} <-> {}", topo.node(l.a).name, topo.node(l.b).name),
                coverage: c as f64 / inter_pairs as f64,
                pairs: c,
            }
        })
        .collect();
    out.sort_by(|x, y| {
        y.coverage
            .partial_cmp(&x.coverage)
            .expect("finite coverage")
            .then(y.pairs.cmp(&x.pairs))
            .then(x.link.cmp(&y.link))
    });
    out
}

/// The links shared by **every** inter-cluster path — the diagnosed
/// bottlenecks, excluding plain host access links (first/last hop of any
/// path, which trivially reach full coverage for 2-cluster cuts of a
/// single host).
pub fn diagnosed_bottlenecks(
    routes: &RouteTable,
    hosts: &[NodeId],
    clusters: &Partition,
) -> Vec<BottleneckCandidate> {
    let topo = routes.topology();
    bottleneck_candidates(routes, hosts, clusters)
        .into_iter()
        .filter(|c| c.coverage >= 1.0 - 1e-9)
        .filter(|c| {
            let l = topo.link(c.link);
            // Drop host access links: one endpoint is a host.
            !matches!(topo.node(l.a).kind, btt_netsim::topology::NodeKind::Host)
                && !matches!(topo.node(l.b).kind, btt_netsim::topology::NodeKind::Host)
        })
        .collect()
}

/// Per-report inference diagnostics: *why* a backend did or did not
/// recover structure. Serialized in every `btt-report-v4` record, so the
/// oNMI-0 story is readable from artifacts alone.
///
/// Two independent signals:
///
/// * **Metric separation** — measured. Mean Eq. (2) weight over
///   intra-ground-truth host pairs vs. inter ones, on the *same snapshot
///   graph the backend clustered* (pruned pairs count as zero, exactly
///   what the backend saw). A ratio near 1 means the measurement itself
///   carries no cluster contrast — no phase-2 method can recover the
///   ground truth from it; a large ratio alongside oNMI 0 points at a
///   phase-2 failure instead.
/// * **Capacity symmetry** — structural. Approximates each host pair's
///   contended throughput share as `min` over its route's links of
///   `capacity / crossing-pair count`, then compares intra- vs
///   inter-cluster means. When the two agree within 10 % the topology's
///   capacities are *symmetric* with respect to the ground truth: even a
///   perfect measurement would show no contrast, so oNMI 0 is an
///   identifiability limit of the scenario, not an inference bug.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceDiagnosis {
    /// Mean metric weight over intra-ground-truth-cluster pairs (pruned or
    /// unobserved pairs count as zero weight).
    pub separation_intra_mean: f64,
    /// Mean metric weight over inter-cluster pairs.
    pub separation_inter_mean: f64,
    /// `separation_intra_mean / separation_inter_mean`; `None` when no
    /// inter-cluster weight was observed at all (perfectly separated or a
    /// single-cluster ground truth).
    pub separation_ratio: Option<f64>,
    /// Mean contended per-pair bottleneck share (bytes/s) over
    /// intra-cluster pairs.
    pub capacity_intra_mean: f64,
    /// Mean contended per-pair bottleneck share (bytes/s) over
    /// inter-cluster pairs.
    pub capacity_inter_mean: f64,
    /// True when the intra/inter capacity shares agree within 10 % — the
    /// "symmetric capacities ⇒ no contrast ⇒ unrecoverable" verdict.
    pub capacity_symmetric: bool,
}

impl InferenceDiagnosis {
    /// A neutral all-zero block (used where no topology is available,
    /// e.g. hand-constructed records in tests).
    pub fn zero() -> InferenceDiagnosis {
        InferenceDiagnosis {
            separation_intra_mean: 0.0,
            separation_inter_mean: 0.0,
            separation_ratio: None,
            capacity_intra_mean: 0.0,
            capacity_inter_mean: 0.0,
            capacity_symmetric: false,
        }
    }
}

/// Mean metric weight over intra- vs inter-ground-truth pairs of the
/// snapshot graph `g`. Denominators are *all* pairs of each kind, so edges
/// pruned by sparsification count as zero — matching what the inference
/// backend actually saw. Returns `(intra_mean, inter_mean, ratio)`.
pub fn metric_separation(g: &WeightedGraph, truth: &Partition) -> (f64, f64, Option<f64>) {
    assert_eq!(g.num_nodes(), truth.len(), "one ground-truth id per graph node");
    let sizes = truth.sizes();
    let n: u64 = truth.len() as u64;
    let intra_pairs: u64 = sizes.iter().map(|&s| (s as u64) * (s as u64 - 1) / 2).sum();
    let total_pairs = n * n.saturating_sub(1) / 2;
    let inter_pairs = total_pairs - intra_pairs;
    let mut intra_sum = 0.0;
    let mut inter_sum = 0.0;
    for (a, b, w) in g.edges() {
        if a == b {
            continue;
        }
        if truth.cluster_of(a as usize) == truth.cluster_of(b as usize) {
            intra_sum += w;
        } else {
            inter_sum += w;
        }
    }
    let intra_mean = if intra_pairs > 0 { intra_sum / intra_pairs as f64 } else { 0.0 };
    let inter_mean = if inter_pairs > 0 { inter_sum / inter_pairs as f64 } else { 0.0 };
    let ratio = if inter_mean > 0.0 { Some(intra_mean / inter_mean) } else { None };
    (intra_mean, inter_mean, ratio)
}

/// Pair-index stride sampling cap for [`capacity_symmetry`]: all-pairs
/// route walks are quadratic, so scenarios beyond ~16 k pairs are sampled
/// on a deterministic stride (the intra/inter *ratio* is what matters).
const CAPACITY_SAMPLE_PAIRS: u64 = 16_384;

/// Detects capacity symmetry: whether the topology's *contended* per-pair
/// bottleneck shares distinguish intra- from inter-cluster pairs at all.
///
/// Each sampled pair's share is `min` over its route's links of
/// `link capacity / (number of sampled pair routes crossing the link)` —
/// a static approximation of the throughput a saturating broadcast grants
/// the pair. Returns `(intra_mean, inter_mean, symmetric)`; `symmetric`
/// is true when the means agree within 10 %.
///
/// The samples are pair indices 0, stride, 2·stride, … below n(n − 1)/2,
/// where index k numbers the pairs (a, b), a < b, row by row. One forward
/// walk over the rows unranks each sampled index to its pair, so the cost
/// is O(n + samples · route length), not a visit to every pair.
pub fn capacity_symmetry(
    routes: &RouteTable,
    hosts: &[NodeId],
    truth: &Partition,
) -> (f64, f64, bool) {
    assert_eq!(hosts.len(), truth.len(), "one cluster id per host");
    let topo = routes.topology();
    let n = hosts.len();
    let total_pairs = (n as u64) * (n as u64).saturating_sub(1) / 2;
    let stride = (total_pairs / CAPACITY_SAMPLE_PAIRS).max(1);

    // Pass 1: per-link crossing counts over the sampled pairs. Row a holds
    // the n − 1 − a pairs whose indices start at `row_start`.
    let mut crossing = vec![0u64; topo.num_links()];
    let mut sampled: Vec<(usize, usize)> = Vec::new();
    let (mut a, mut row_start) = (0usize, 0u64);
    for idx in (0..total_pairs).step_by(stride as usize) {
        while idx >= row_start + (n - 1 - a) as u64 {
            row_start += (n - 1 - a) as u64;
            a += 1;
        }
        let b = a + 1 + (idx - row_start) as usize;
        sampled.push((a, b));
        let mut seen = Vec::new();
        for ch in routes.route(hosts[a], hosts[b]) {
            let l = ch.link();
            if !seen.contains(&l) {
                seen.push(l);
                crossing[l.idx()] += 1;
            }
        }
    }

    // Pass 2: per-pair contended share = min over route links of
    // capacity / crossing count.
    let (mut intra_sum, mut inter_sum) = (0.0f64, 0.0f64);
    let (mut intra_n, mut inter_n) = (0u64, 0u64);
    for &(a, b) in &sampled {
        let mut share = f64::INFINITY;
        for ch in routes.route(hosts[a], hosts[b]) {
            let l = ch.link();
            let cap = topo.link(l).capacity.bytes_per_sec();
            share = share.min(cap / crossing[l.idx()].max(1) as f64);
        }
        if !share.is_finite() {
            continue; // zero-hop route (a host paired with itself never occurs)
        }
        if truth.cluster_of(a) == truth.cluster_of(b) {
            intra_sum += share;
            intra_n += 1;
        } else {
            inter_sum += share;
            inter_n += 1;
        }
    }
    let intra_mean = if intra_n > 0 { intra_sum / intra_n as f64 } else { 0.0 };
    let inter_mean = if inter_n > 0 { inter_sum / inter_n as f64 } else { 0.0 };
    let symmetric = intra_n > 0
        && inter_n > 0
        && inter_mean > 0.0
        && (0.9..=1.1).contains(&(intra_mean / inter_mean));
    (intra_mean, inter_mean, symmetric)
}

/// Computes the full [`InferenceDiagnosis`] block for one report: metric
/// separation on the final snapshot graph plus capacity symmetry on the
/// scenario topology, both against the ground truth.
pub fn inference_diagnosis(
    g: &WeightedGraph,
    truth: &Partition,
    routes: &RouteTable,
    hosts: &[NodeId],
) -> InferenceDiagnosis {
    let (separation_intra_mean, separation_inter_mean, separation_ratio) =
        metric_separation(g, truth);
    let (capacity_intra_mean, capacity_inter_mean, capacity_symmetric) =
        capacity_symmetry(routes, hosts, truth);
    InferenceDiagnosis {
        separation_intra_mean,
        separation_inter_mean,
        separation_ratio,
        capacity_intra_mean,
        capacity_inter_mean,
        capacity_symmetric,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    /// On the paper's Bordeaux site with the ground-truth clustering, the
    /// diagnosis names exactly the Dell↔Cisco trunk.
    #[test]
    fn names_the_dell_cisco_trunk() {
        let scenario = Dataset::B.build();
        let found =
            diagnosed_bottlenecks(&scenario.routes, &scenario.hosts, &scenario.ground_truth);
        assert_eq!(found.len(), 1, "exactly one inter-switch bottleneck: {found:?}");
        assert!(
            found[0].endpoints.contains("dell") && found[0].endpoints.contains("cisco"),
            "expected the trunk, got {}",
            found[0].endpoints
        );
        assert!((found[0].coverage - 1.0).abs() < 1e-12);
    }

    /// Multi-site: the full-coverage set is empty for >2 clusters joined in
    /// a star (no single link carries ALL inter-cluster paths), but the
    /// per-site Renater segments top the candidate ranking.
    #[test]
    fn multi_site_candidates_rank_wan_segments_high() {
        let scenario = Dataset::GT.build();
        let cands =
            bottleneck_candidates(&scenario.routes, &scenario.hosts, &scenario.ground_truth);
        assert!(!cands.is_empty());
        // Both Renater segments carry every inter-site pair: coverage 1.0.
        let top: Vec<&BottleneckCandidate> =
            cands.iter().filter(|c| c.coverage >= 1.0 - 1e-9).collect();
        assert!(
            top.iter().any(|c| c.endpoints.contains("renater/core")),
            "Renater segments must be full-coverage: {top:?}"
        );
    }

    /// One cluster ⇒ nothing to diagnose.
    #[test]
    fn single_cluster_yields_nothing() {
        let scenario = Dataset::Small2x2.build();
        let found =
            bottleneck_candidates(&scenario.routes, &scenario.hosts, &scenario.ground_truth);
        assert!(found.is_empty());
    }

    /// Hand-built graph: intra weight 4.0 on each of two 2-node clusters,
    /// one inter edge of 1.0 across the four inter pairs.
    #[test]
    fn metric_separation_counts_unobserved_pairs_as_zero() {
        let truth = Partition::from_assignments(&[0, 0, 1, 1]);
        let g = WeightedGraph::from_edges(4, &[(0, 1, 4.0), (2, 3, 4.0), (0, 2, 1.0)]);
        let (intra, inter, ratio) = metric_separation(&g, &truth);
        assert!((intra - 4.0).abs() < 1e-12);
        assert!((inter - 0.25).abs() < 1e-12, "1.0 over 4 inter pairs");
        assert!((ratio.unwrap() - 16.0).abs() < 1e-9);
        // No inter edges at all: ratio is None, not infinity.
        let sep = WeightedGraph::from_edges(4, &[(0, 1, 4.0), (2, 3, 4.0)]);
        let (_, inter, ratio) = metric_separation(&sep, &truth);
        assert_eq!(inter, 0.0);
        assert_eq!(ratio, None);
    }

    /// Real topologies: the Bordeaux site's trunk-separated clusters are
    /// asymmetric (intra share ≫ inter share); collapsing the ground truth
    /// to one-cluster-per-everything makes symmetry undecidable (no inter
    /// pairs ⇒ not symmetric).
    #[test]
    fn capacity_symmetry_contrasts_clustered_topologies() {
        let scenario = Dataset::B.build();
        let (intra, inter, symmetric) =
            capacity_symmetry(&scenario.routes, &scenario.hosts, &scenario.ground_truth);
        assert!(intra > inter, "trunk must throttle inter pairs: {intra} vs {inter}");
        assert!(!symmetric);
        let one = Partition::from_assignments(&vec![0u32; scenario.hosts.len()]);
        let (_, _, symmetric) = capacity_symmetry(&scenario.routes, &scenario.hosts, &one);
        assert!(!symmetric, "no inter pairs means no symmetry verdict");
    }

    /// The combined block wires both diagnostics together and matches its
    /// components.
    #[test]
    fn inference_diagnosis_combines_components() {
        let scenario = Dataset::B.build();
        let truth = scenario.ground_truth.clone();
        let n = scenario.hosts.len();
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                let same = truth.cluster_of(a as usize) == truth.cluster_of(b as usize);
                edges.push((a, b, if same { 2.0 } else { 0.5 }));
            }
        }
        let g = WeightedGraph::from_edges(n, &edges);
        let d = inference_diagnosis(&g, &truth, &scenario.routes, &scenario.hosts);
        let (intra, inter, ratio) = metric_separation(&g, &truth);
        assert_eq!((d.separation_intra_mean, d.separation_inter_mean), (intra, inter));
        assert_eq!(d.separation_ratio, ratio);
        assert!((d.separation_ratio.unwrap() - 4.0).abs() < 1e-9);
        assert!(!d.capacity_symmetric);
        assert_eq!(InferenceDiagnosis::zero().separation_ratio, None);
    }

    /// The all-pairs double loop, kept as the oracle of the unranked
    /// samples: every pair index is visited and each multiple of the stride
    /// is routed.
    fn capacity_symmetry_reference(
        routes: &RouteTable,
        hosts: &[NodeId],
        truth: &Partition,
    ) -> (f64, f64, bool) {
        let topo = routes.topology();
        let n = hosts.len();
        let total_pairs = (n as u64) * (n as u64).saturating_sub(1) / 2;
        let stride = (total_pairs / CAPACITY_SAMPLE_PAIRS).max(1);
        let mut crossing = vec![0u64; topo.num_links()];
        let mut sampled: Vec<(usize, usize)> = Vec::new();
        let mut idx = 0u64;
        for a in 0..n {
            for b in (a + 1)..n {
                if idx.is_multiple_of(stride) {
                    sampled.push((a, b));
                    let mut seen = Vec::new();
                    for ch in routes.route(hosts[a], hosts[b]) {
                        let l = ch.link();
                        if !seen.contains(&l) {
                            seen.push(l);
                            crossing[l.idx()] += 1;
                        }
                    }
                }
                idx += 1;
            }
        }
        let (mut intra_sum, mut inter_sum) = (0.0f64, 0.0f64);
        let (mut intra_n, mut inter_n) = (0u64, 0u64);
        for &(a, b) in &sampled {
            let mut share = f64::INFINITY;
            for ch in routes.route(hosts[a], hosts[b]) {
                let l = ch.link();
                let cap = topo.link(l).capacity.bytes_per_sec();
                share = share.min(cap / crossing[l.idx()].max(1) as f64);
            }
            if !share.is_finite() {
                continue;
            }
            if truth.cluster_of(a) == truth.cluster_of(b) {
                intra_sum += share;
                intra_n += 1;
            } else {
                inter_sum += share;
                inter_n += 1;
            }
        }
        let intra_mean = if intra_n > 0 { intra_sum / intra_n as f64 } else { 0.0 };
        let inter_mean = if inter_n > 0 { inter_sum / inter_n as f64 } else { 0.0 };
        let symmetric = intra_n > 0
            && inter_n > 0
            && inter_mean > 0.0
            && (0.9..=1.1).contains(&(intra_mean / inter_mean));
        (intra_mean, inter_mean, symmetric)
    }

    /// Unranking the sampled pair indices picks the same pairs in the same
    /// order as the all-pairs loop, so both means are bit-identical. Covered:
    /// scenarios under 16,384 pairs (stride 1, every pair), and scenarios
    /// whose stride does not divide n(n − 1)/2, so the last row's tail is
    /// sampled off a row boundary.
    #[test]
    fn unranked_samples_match_the_all_pairs_loop() {
        let specs =
            ["B", "2x2", "star:3x4:0.1:4", "fat-tree:2x2x4:8:1", "wan:2x151:0.5", "wan:12x64:0.5"];
        let mut strided = 0;
        for spec in specs {
            let scenario = crate::scenarios::ScenarioSpec::parse(spec).unwrap().build();
            let n = scenario.hosts.len() as u64;
            let total_pairs = n * (n - 1) / 2;
            let stride = (total_pairs / CAPACITY_SAMPLE_PAIRS).max(1);
            assert!(
                stride == 1 || !total_pairs.is_multiple_of(stride),
                "{spec}: stride {stride} divides"
            );
            strided += usize::from(stride > 1);
            // The ground truth, and five interleaved clusters so that both
            // means are nonzero.
            let five =
                Partition::from_assignments(&(0..n as u32).map(|i| i % 5).collect::<Vec<_>>());
            for truth in [&scenario.ground_truth, &five] {
                let got = capacity_symmetry(&scenario.routes, &scenario.hosts, truth);
                let want = capacity_symmetry_reference(&scenario.routes, &scenario.hosts, truth);
                assert_eq!(
                    (got.0.to_bits(), got.1.to_bits(), got.2),
                    (want.0.to_bits(), want.1.to_bits(), want.2),
                    "{spec}"
                );
            }
        }
        assert_eq!(strided, 2, "two scenarios sample on a stride");
    }

    /// Coverage fractions are sane and sorted.
    #[test]
    fn candidates_sorted_and_bounded() {
        let scenario = Dataset::BGTL.build();
        let cands =
            bottleneck_candidates(&scenario.routes, &scenario.hosts, &scenario.ground_truth);
        for w in cands.windows(2) {
            assert!(w[0].coverage >= w[1].coverage - 1e-12);
        }
        for c in &cands {
            assert!(c.coverage > 0.0 && c.coverage <= 1.0 + 1e-12);
            assert!(c.pairs > 0);
        }
    }
}
