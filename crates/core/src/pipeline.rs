//! The two-phase tomography pipeline: measure → aggregate → cluster →
//! compare against ground truth, tracking convergence per iteration count
//! (the data behind the paper's Fig. 13).
//!
//! # Phase 2 at scale
//!
//! [`convergence_series`] is incremental and parallel: one streaming pass
//! folds each broadcast run into the metric exactly once (O(total edges)
//! aggregation instead of the O(n²)-aggregations-per-series of re-scoring
//! every prefix from scratch), snapshotting an immutable measurement graph
//! per prefix; the per-prefix clustering + scoring then fans out over
//! rayon. Per-prefix seeds are derived exactly as the historical serial
//! path derived them, and the rayon shim preserves input order, so reports
//! are byte-identical per seed — pinned by a golden equivalence test
//! against a serial from-scratch oracle kept in this module's tests.
//!
//! Phase 2 has one path. [`analyze`] and
//! [`LiveSession::finalize`](crate::session::LiveSession::finalize) end in
//! the same report assembler, which completes the series by scoring only
//! the prefixes a live session's cadence left empty, and every prefix —
//! batch or live — is scored by the same per-prefix scorer.
//!
//! At [`SPARSE_NODE_THRESHOLD`] hosts and beyond, measurement graphs are
//! sparsified ([`btt_cluster::graph_ops::prune_edges`]) before clustering:
//! the paper's Louvain is near-linear only on sparse graphs, while the raw
//! Eq. (2) metric at 1k+ hosts is near-complete. Below the threshold
//! (every Grid'5000 dataset) graphs are built dense, keeping historical
//! outputs bit-for-bit.

use crate::backend::Backend;
use crate::dataset::Scenario;
use crate::diagnosis::{inference_diagnosis, InferenceDiagnosis};
use btt_cluster::graph::WeightedGraph;
use btt_cluster::graph_ops::{prune_edges, PruneConfig};
use btt_cluster::louvain::LouvainScratch;
use btt_cluster::modularity::modularity;
use btt_cluster::nmi::nmi;
use btt_cluster::onmi::onmi_partitions;
use btt_cluster::partition::Partition;
use btt_netsim::util::splitmix64;
use btt_swarm::broadcast::{BroadcastResult, Campaign};
use btt_swarm::metrics::MetricAccumulator;
use rayon::prelude::*;
use std::time::Instant;

/// True when a partition carries no usable cluster structure: every host in
/// one cluster, or every host its own singleton (on a non-trivial host set).
/// Such partitions score `onmi == 0.0` against any real ground truth, which
/// is indistinguishable in the score alone from "inference ran fine and
/// found genuinely different structure" — this flag is the diagnostic that
/// separates the two (surfaced in `summary.csv` and `btt check`).
pub fn degenerate_partition(p: &Partition) -> bool {
    p.len() > 1 && (p.num_clusters() <= 1 || p.num_clusters() == p.len())
}

/// Host count at which the pipeline switches from dense to pruned
/// measurement graphs. Every Grid'5000 dataset sits below it, so the
/// paper-reproduction outputs are bit-for-bit unaffected by sparsification.
pub const SPARSE_NODE_THRESHOLD: usize = 512;

/// The default sparsification for at-scale measurement graphs: keep each
/// host's 16 strongest edges (union over endpoints) plus every edge within
/// 4× of either endpoint's strongest connection, and drop edges below
/// 0.1 % of the heaviest — aggressive enough that Louvain sees O(n) edges,
/// adaptive enough that a large cluster's diffuse internal cohesion
/// survives (pinned by the pruned-vs-dense oNMI test; on the 1024-host WAN
/// preset this cuts edges ~6× while *beating* dense clustering accuracy).
pub const DEFAULT_PRUNE: PruneConfig = PruneConfig { top_k: 16, relative: 0.25, epsilon: 1e-3 };

/// Builds the weighted measurement graph from an aggregated metric
/// (dense: every nonzero Eq. (2) edge).
pub fn metric_graph(acc: &MetricAccumulator) -> WeightedGraph {
    WeightedGraph::from_edges(acc.len(), &acc.edges())
}

/// Builds a pruned measurement graph: the metric's edges sparsified per
/// `prune` before graph construction.
pub fn sparse_metric_graph(acc: &MetricAccumulator, prune: PruneConfig) -> WeightedGraph {
    let edges = prune_edges(acc.len(), &acc.edges(), prune);
    WeightedGraph::from_sorted_edges(acc.len(), &edges)
}

/// The pipeline's policy graph: dense below [`SPARSE_NODE_THRESHOLD`]
/// hosts (bit-identical to the historical path), pruned with
/// [`DEFAULT_PRUNE`] at and above it. Public because the streaming session
/// layer must build its snapshot graphs through the *same* policy to keep
/// its reports byte-identical to the batch pipeline's.
pub fn auto_metric_graph(acc: &MetricAccumulator) -> WeightedGraph {
    if acc.len() >= SPARSE_NODE_THRESHOLD {
        sparse_metric_graph(acc, DEFAULT_PRUNE)
    } else {
        WeightedGraph::from_sorted_edges(acc.len(), &acc.edges())
    }
}

/// Clustering quality after a given number of measurement iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergencePoint {
    /// Number of broadcast iterations aggregated.
    pub iterations: u32,
    /// Overlapping NMI (LFK) against ground truth — the paper's measure.
    pub onmi: f64,
    /// Standard partition NMI against ground truth.
    pub nmi: f64,
    /// Clusters found.
    pub clusters: usize,
    /// Modularity of the found partition on the measurement graph.
    pub modularity: f64,
}

/// How a campaign fared under failures: the per-report *reliability block*.
///
/// All-zero/identity for a churn-free campaign. `onmi_observed` restricts
/// scoring to hosts with at least one clean (undisrupted) run — the hosts
/// whose cluster assignment rests on real measurements — and
/// `confidence_weighted_onmi` discounts that score by the mean per-pair
/// observation coverage, so a report that looks accurate only because most
/// of the graph went unmeasured cannot claim full marks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityReport {
    /// Total host-loss events across all runs (hosts still down at their
    /// run's end; a host lost in two runs counts twice).
    pub hosts_lost: u64,
    /// Runs in which at least one host was disrupted.
    pub runs_disrupted: u32,
    /// Unordered pairs with zero full observations across the campaign —
    /// the measurement graph's blind spots.
    pub pairs_unobserved: u64,
    /// Mean per-pair observation fraction (1.0 = every pair observed in
    /// every run).
    pub pair_coverage: f64,
    /// oNMI of the final partition vs ground truth, restricted to hosts
    /// fully observed in at least one run.
    pub onmi_observed: f64,
    /// `pair_coverage × onmi_observed`.
    pub confidence_weighted_onmi: f64,
}

impl ReliabilityReport {
    /// Computes the block from a finished campaign and its final clustering.
    pub fn from_campaign(
        campaign: &Campaign,
        final_partition: &Partition,
        ground_truth: &Partition,
    ) -> ReliabilityReport {
        ReliabilityReport::compute(
            final_partition,
            ground_truth,
            &campaign.observed_hosts(),
            &campaign.metric,
            campaign.hosts_lost(),
            campaign.runs.iter().filter(|r| r.disrupted.iter().any(|&d| d)).count() as u32,
        )
    }

    /// Computes the block from incrementally-maintained session state — the
    /// observed-host mask, the live metric accumulator, and running loss
    /// counters — without needing a materialized [`Campaign`]. This is what
    /// lets a streaming session attach confidence fields to every partition
    /// snapshot mid-campaign; [`ReliabilityReport::from_campaign`] is this
    /// function over a finished campaign's totals.
    pub fn compute(
        final_partition: &Partition,
        ground_truth: &Partition,
        observed: &[bool],
        metric: &MetricAccumulator,
        hosts_lost: u64,
        runs_disrupted: u32,
    ) -> ReliabilityReport {
        let onmi_observed = if observed.iter().all(|&o| o) {
            onmi_partitions(final_partition, ground_truth)
        } else {
            // Score only the hosts whose assignment rests on at least one
            // clean measurement, via the induced sub-partitions.
            let sub = |p: &Partition| {
                let raw: Vec<u32> = p
                    .assignments()
                    .iter()
                    .zip(observed)
                    .filter(|&(_, &o)| o)
                    .map(|(&c, _)| c)
                    .collect();
                Partition::from_assignments(&raw)
            };
            let (f, g) = (sub(final_partition), sub(ground_truth));
            if f.is_empty() {
                0.0
            } else {
                onmi_partitions(&f, &g)
            }
        };
        let pair_coverage = metric.pair_coverage();
        ReliabilityReport {
            hosts_lost,
            runs_disrupted,
            pairs_unobserved: metric.pairs_unobserved() as u64,
            pair_coverage,
            onmi_observed,
            confidence_weighted_onmi: pair_coverage * onmi_observed,
        }
    }
}

/// Full output of a tomography run on one scenario.
#[derive(Debug, Clone)]
pub struct TomographyReport {
    /// Scenario id (the paper legend name for datasets, or the canonical
    /// parameter string for synthetic scenarios).
    pub scenario_id: String,
    /// The inference backend that produced
    /// [`TomographyReport::final_partition`].
    pub backend: Backend,
    /// The master seed the run derived all randomness from.
    pub seed: u64,
    /// The raw measurement campaign.
    pub campaign: Campaign,
    /// Quality after each iteration count `1..=n` (Fig. 13 series).
    pub convergence: Vec<ConvergencePoint>,
    /// Clustering of the fully-aggregated metric.
    pub final_partition: Partition,
    /// Ground truth used for scoring.
    pub ground_truth: Partition,
    /// True when [`TomographyReport::final_partition`] is structurally
    /// degenerate (all-one-cluster or all-singletons) — inference found
    /// *nothing*, as opposed to finding structure that merely disagrees
    /// with ground truth. See [`degenerate_partition`].
    pub degenerate_partition: bool,
    /// How the campaign fared under failures (identity values when static).
    pub reliability: ReliabilityReport,
    /// Why inference did or did not recover structure: metric separation
    /// on the final snapshot graph plus topology capacity symmetry (see
    /// [`InferenceDiagnosis`]).
    pub diagnosis: InferenceDiagnosis,
}

impl TomographyReport {
    /// The last convergence point (full aggregation).
    ///
    /// Infallible by construction: [`analyze`] rejects zero-iteration
    /// campaigns with [`PipelineError::EmptyCampaign`], so every report
    /// carries at least one point.
    pub fn last(&self) -> &ConvergencePoint {
        self.convergence.last().expect("at least one iteration")
    }

    /// First iteration count whose oNMI reaches `threshold` and stays there
    /// for the remainder of the series; `None` if never.
    ///
    /// This is how the paper reads Fig. 13 ("after only 2 iterations, the
    /// clustering is completely in accordance with the ground truth, and
    /// remains so").
    pub fn converged_at(&self, threshold: f64) -> Option<u32> {
        let mut candidate = None;
        for p in &self.convergence {
            if p.onmi >= threshold {
                candidate.get_or_insert(p.iterations);
            } else {
                candidate = None;
            }
        }
        candidate
    }

    /// Total simulated measurement time (sum of broadcast makespans).
    pub fn measurement_time(&self) -> f64 {
        self.campaign.total_measurement_time()
    }
}

/// Wall-clock breakdown of one [`convergence_series_timed`] call, in
/// milliseconds — what the benchmark reports as `pipeline.aggregate_ms`
/// and `pipeline.cluster_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceTiming {
    /// Streaming metric aggregation + per-prefix snapshot graph building.
    pub aggregate_ms: f64,
    /// Clustering and scoring every prefix (the parallel phase).
    pub cluster_ms: f64,
}

/// Scores a campaign against ground truth after every iteration prefix.
///
/// Incremental and parallel: see the module docs ("Phase 2 at scale").
/// Byte-identical per seed to re-folding and clustering every prefix from
/// scratch below [`SPARSE_NODE_THRESHOLD`] hosts.
pub fn convergence_series(
    campaign: &Campaign,
    ground_truth: &Partition,
    backend: impl Into<Backend>,
    seed: u64,
) -> Vec<ConvergencePoint> {
    convergence_series_timed(campaign, ground_truth, backend, seed).0
}

/// Snapshot graphs held in memory at once during a convergence series:
/// the streaming pass materializes at most this many prefixes before the
/// parallel scoring pass drains them, bounding peak memory at
/// `PREFIX_CHUNK` graphs instead of one graph per iteration.
const PREFIX_CHUNK: usize = 32;

/// [`convergence_series`] plus the aggregation/clustering wall-time split.
pub fn convergence_series_timed(
    campaign: &Campaign,
    ground_truth: &Partition,
    backend: impl Into<Backend>,
    seed: u64,
) -> (Vec<ConvergencePoint>, InferenceTiming) {
    let empty = vec![None; campaign.runs.len()];
    complete_series(&campaign.runs, empty, backend.into(), seed, ground_truth)
}

/// Scores prefix `k`: infers `g` — the [`auto_metric_graph`] snapshot
/// after `k` runs — with the prefix's derived seed and measures the
/// partition against `truth`. The one place a convergence point is made,
/// whether a batch series or a live session asks.
pub(crate) fn score_prefix(
    g: &WeightedGraph,
    k: u32,
    backend: Backend,
    seed: u64,
    truth: &Partition,
    scratch: &mut LouvainScratch,
) -> (ConvergencePoint, Partition) {
    let p = backend.infer_into(g, splitmix64(seed ^ u64::from(k)), scratch);
    let point = ConvergencePoint {
        iterations: k,
        onmi: onmi_partitions(&p, truth),
        nmi: nmi(&p, truth),
        clusters: p.num_clusters(),
        modularity: modularity(g, &p),
    };
    (point, p)
}

/// Completes a convergence series over `runs`: slot `i` of `known` holds
/// prefix `i + 1` when it is already scored, and every empty slot is filled
/// here. Runs are folded in order up to the last empty slot, `PREFIX_CHUNK`
/// at a time: a streaming pass snapshots the graph of each empty prefix in
/// the window, then a parallel pass scores the snapshots. Seeds depend on
/// the prefix alone and the rayon shim returns results in input order, so
/// neither chunking, thread count nor which slots were known moves a bit.
/// With no empty slot the runs are not folded at all.
fn complete_series(
    runs: &[BroadcastResult],
    mut known: Vec<Option<ConvergencePoint>>,
    backend: Backend,
    seed: u64,
    truth: &Partition,
) -> (Vec<ConvergencePoint>, InferenceTiming) {
    let mut timing = InferenceTiming { aggregate_ms: 0.0, cluster_ms: 0.0 };
    if let Some(last) = known.iter().rposition(Option::is_none) {
        let mut acc = MetricAccumulator::new(runs[0].fragments.len());
        for (chunk_idx, chunk) in runs[..=last].chunks(PREFIX_CHUNK).enumerate() {
            let base = chunk_idx * PREFIX_CHUNK;
            let t0 = Instant::now();
            let mut snapshots: Vec<(usize, WeightedGraph)> = Vec::new();
            for (i, run) in chunk.iter().enumerate() {
                acc.push_run_partial(&run.fragments, &run.participated());
                if known[base + i].is_none() {
                    snapshots.push((base + i, auto_metric_graph(&acc)));
                }
            }
            timing.aggregate_ms += t0.elapsed().as_secs_f64() * 1e3;

            let t1 = Instant::now();
            let scored: Vec<(usize, ConvergencePoint)> = snapshots
                .into_par_iter()
                .map(|(i, g)| {
                    let mut scratch = LouvainScratch::default();
                    (i, score_prefix(&g, i as u32 + 1, backend, seed, truth, &mut scratch).0)
                })
                .collect();
            for (i, point) in scored {
                known[i] = Some(point);
            }
            timing.cluster_ms += t1.elapsed().as_secs_f64() * 1e3;
        }
    }
    let points = known.into_iter().map(|p| p.expect("every prefix is scored")).collect();
    (points, timing)
}

/// A phase-2 failure surfaced at the pipeline boundary instead of as a
/// panic deep inside reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineError {
    /// The campaign holds zero broadcast iterations: there is nothing to
    /// aggregate, no convergence point to report, and
    /// [`TomographyReport::last`] would have no element.
    EmptyCampaign,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::EmptyCampaign => {
                write!(f, "campaign has zero broadcast iterations; nothing to analyze")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Runs phase 2 on a finished campaign for `scenario`, producing the
/// report. A campaign with zero iterations is a typed error here — the
/// pipeline boundary — rather than an `expect` failure when the report is
/// later read.
pub fn analyze(
    scenario: &Scenario,
    campaign: Campaign,
    backend: impl Into<Backend>,
    seed: u64,
) -> Result<TomographyReport, PipelineError> {
    let empty = vec![None; campaign.runs.len()];
    assemble_report(scenario, campaign, empty, backend.into(), seed)
}

/// Phase 2's one exit, shared by [`analyze`] and
/// [`LiveSession::finalize`](crate::session::LiveSession::finalize): fills
/// the empty prefixes of `known` (one slot per run of `campaign`, whose
/// metric already folds every run), then clusters the final graph with the
/// master seed's final-partition derivation and attaches reliability,
/// degeneracy and diagnosis. Batch and streamed reports agree because
/// both are made here.
pub(crate) fn assemble_report(
    scenario: &Scenario,
    campaign: Campaign,
    known: Vec<Option<ConvergencePoint>>,
    backend: Backend,
    seed: u64,
) -> Result<TomographyReport, PipelineError> {
    if campaign.runs.is_empty() {
        return Err(PipelineError::EmptyCampaign);
    }
    let truth = &scenario.ground_truth;
    let (convergence, _) = complete_series(&campaign.runs, known, backend, seed, truth);
    let g = auto_metric_graph(&campaign.metric);
    let final_partition = backend.infer(&g, splitmix64(seed ^ 0xFFFF_FFFF));
    let reliability = ReliabilityReport::from_campaign(&campaign, &final_partition, truth);
    let diagnosis = inference_diagnosis(&g, truth, &scenario.routes, &scenario.hosts);
    Ok(TomographyReport {
        scenario_id: scenario.id.clone(),
        backend,
        seed,
        campaign,
        convergence,
        degenerate_partition: degenerate_partition(&final_partition),
        final_partition,
        ground_truth: truth.clone(),
        reliability,
        diagnosis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ClusteringAlgorithm;
    use btt_swarm::metrics::FragmentMatrix;

    /// The serial reference oracle for the convergence series: re-folds
    /// every prefix from scratch into a dense graph and clusters the
    /// prefixes one by one — O(n²) aggregations per series, sharing no
    /// code with the incremental parallel path it checks.
    fn serial_series(
        campaign: &Campaign,
        truth: &Partition,
        backend: Backend,
        seed: u64,
    ) -> Vec<ConvergencePoint> {
        let n = campaign.runs[0].fragments.len();
        (1..=campaign.runs.len())
            .map(|k| {
                let mut acc = MetricAccumulator::new(n);
                for run in &campaign.runs[..k] {
                    acc.push_run_partial(&run.fragments, &run.participated());
                }
                let g = metric_graph(&acc);
                let p = backend.infer(&g, splitmix64(seed ^ k as u64));
                ConvergencePoint {
                    iterations: k as u32,
                    onmi: onmi_partitions(&p, truth),
                    nmi: nmi(&p, truth),
                    clusters: p.num_clusters(),
                    modularity: modularity(&g, &p),
                }
            })
            .collect()
    }

    fn fake_campaign(n: usize, runs: usize, strong_pairs: &[(usize, usize)]) -> Campaign {
        let mut all = Vec::new();
        for r in 0..runs {
            let mut m = FragmentMatrix::new(n);
            for &(a, b) in strong_pairs {
                for _ in 0..(10 + r) {
                    m.record(a, b);
                }
            }
            // Weak background edge.
            m.record(0, n - 1);
            all.push(btt_swarm::swarm::RunOutcome {
                fragments: m,
                completion: vec![Some(0.0); n],
                makespan: 1.0,
                finished: true,
                sim_steps: 10,
                disrupted: vec![false; n],
                departed: vec![false; n],
                prof: Default::default(),
            });
        }
        let mut metric = MetricAccumulator::new(n);
        for r in &all {
            metric.push_run(&r.fragments);
        }
        Campaign { runs: all, metric }
    }

    #[test]
    fn convergence_series_has_one_point_per_prefix() {
        let c = fake_campaign(6, 5, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let truth = Partition::from_assignments(&[0, 0, 0, 1, 1, 1]);
        let series = convergence_series(&c, &truth, Backend::default(), 7);
        assert_eq!(series.len(), 5);
        for (i, p) in series.iter().enumerate() {
            assert_eq!(p.iterations as usize, i + 1);
            assert!((0.0..=1.0).contains(&p.onmi));
            assert!((0.0..=1.0).contains(&p.nmi));
        }
        // Strong 2-block structure: full aggregation should recover it.
        let last = series.last().unwrap();
        assert_eq!(last.clusters, 2);
        assert!((last.onmi - 1.0).abs() < 1e-9, "onmi {}", last.onmi);
    }

    #[test]
    fn converged_at_requires_stability() {
        let mk = |onmis: &[f64]| TomographyReport {
            scenario_id: "t".into(),
            backend: Backend::default(),
            seed: 0,
            campaign: fake_campaign(4, 1, &[(0, 1)]),
            convergence: onmis
                .iter()
                .enumerate()
                .map(|(i, &v)| ConvergencePoint {
                    iterations: i as u32 + 1,
                    onmi: v,
                    nmi: v,
                    clusters: 2,
                    modularity: 0.3,
                })
                .collect(),
            final_partition: Partition::trivial(4),
            ground_truth: Partition::trivial(4),
            degenerate_partition: true,
            reliability: ReliabilityReport {
                hosts_lost: 0,
                runs_disrupted: 0,
                pairs_unobserved: 0,
                pair_coverage: 1.0,
                onmi_observed: 1.0,
                confidence_weighted_onmi: 1.0,
            },
            diagnosis: InferenceDiagnosis::zero(),
        };
        // Dips below threshold reset the convergence point.
        let r = mk(&[0.5, 1.0, 0.6, 1.0, 1.0]);
        assert_eq!(r.converged_at(0.99), Some(4));
        let r2 = mk(&[1.0, 1.0, 1.0]);
        assert_eq!(r2.converged_at(0.99), Some(1));
        let r3 = mk(&[0.5, 0.6, 0.7]);
        assert_eq!(r3.converged_at(0.99), None);
        assert_eq!(r3.last().iterations, 3);
    }

    #[test]
    fn algorithms_all_run() {
        let c = fake_campaign(6, 3, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let g = metric_graph(&c.metric);
        for backend in Backend::ALL {
            let p = backend.infer(&g, 1);
            assert_eq!(p.len(), 6, "{}", backend.name());
        }
    }

    #[test]
    fn streaming_series_matches_serial_reference() {
        // The incremental parallel path must reproduce the from-scratch
        // serial path exactly — same floats, same partitions — for every
        // backend (below the sparsification threshold).
        let c = fake_campaign(8, 6, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
        let truth = Partition::from_assignments(&[0, 0, 0, 0, 1, 1, 1, 1]);
        for backend in Backend::ALL {
            let fast = convergence_series(&c, &truth, backend, 13);
            let slow = serial_series(&c, &truth, backend, 13);
            assert_eq!(fast, slow, "{}", backend.name());
        }
    }

    #[test]
    fn streaming_series_matches_serial_across_chunk_boundaries() {
        // 70 prefixes span three PREFIX_CHUNK windows; chunked draining
        // must not perturb a single float.
        let c = fake_campaign(6, 70, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let truth = Partition::from_assignments(&[0, 0, 0, 1, 1, 1]);
        let fast = convergence_series(&c, &truth, Backend::default(), 5);
        let slow = serial_series(&c, &truth, Backend::default(), 5);
        assert_eq!(fast.len(), 70);
        assert_eq!(fast, slow);
    }

    /// Golden equivalence on real measurements: the streaming + parallel
    /// series equals the serial from-scratch oracle exactly — every float
    /// of every convergence point — on Grid'5000 scenarios (which all sit
    /// below the sparsification threshold, so this also pins that reports
    /// stay byte-identical per seed across the refactor).
    #[test]
    fn streaming_series_is_bit_identical_to_serial_on_grid5000() {
        use crate::dataset::Dataset;
        use crate::session::TomographySession;
        for (dataset, iterations) in [(Dataset::Small2x2, 4), (Dataset::GT, 5)] {
            let session =
                TomographySession::new(dataset).iterations(iterations).pieces(192).seed(2012);
            assert!(session.scenario().num_hosts() < SPARSE_NODE_THRESHOLD);
            let campaign = session.measure();
            let truth = &session.scenario().ground_truth;
            for algorithm in [ClusteringAlgorithm::Louvain, ClusteringAlgorithm::LabelPropagation] {
                let fast = convergence_series(&campaign, truth, algorithm, 2012);
                let slow = serial_series(&campaign, truth, algorithm.into(), 2012);
                assert_eq!(fast, slow, "{} / {}", dataset.id(), algorithm.name());
                assert_eq!(fast.len(), iterations as usize);
            }
        }
    }

    #[test]
    fn timed_series_reports_both_phases() {
        let c = fake_campaign(6, 4, &[(0, 1), (3, 4)]);
        let truth = Partition::from_assignments(&[0, 0, 0, 1, 1, 1]);
        let (points, timing) = convergence_series_timed(&c, &truth, Backend::default(), 3);
        assert_eq!(points.len(), 4);
        assert!(timing.aggregate_ms >= 0.0 && timing.cluster_ms >= 0.0);
    }

    #[test]
    fn reliability_block_identity_on_static_campaigns() {
        let scenario = crate::scenarios::ScenarioSpec::parse("2x2").unwrap().build();
        let report = crate::session::TomographySession::over(scenario)
            .iterations(2)
            .pieces(48)
            .seed(3)
            .run();
        let r = &report.reliability;
        assert_eq!(r.hosts_lost, 0);
        assert_eq!(r.runs_disrupted, 0);
        assert_eq!(r.pairs_unobserved, 0);
        assert_eq!(r.pair_coverage, 1.0);
        // With every host observed, the block's score IS the plain oNMI of
        // the final partition, and full coverage leaves it undiscounted.
        let full = onmi_partitions(&report.final_partition, &report.ground_truth);
        assert!((r.onmi_observed - full).abs() < 1e-12, "{} vs {full}", r.onmi_observed);
        assert_eq!(r.confidence_weighted_onmi, r.onmi_observed);
    }

    #[test]
    fn reliability_block_reflects_partial_campaigns() {
        // Hand-build a campaign where host 3 is disrupted in every run.
        let n = 4;
        let mut c = fake_campaign(n, 3, &[(0, 1), (2, 3)]);
        for run in &mut c.runs {
            run.disrupted[3] = true;
            run.departed[3] = true;
        }
        // Re-aggregate honouring participation.
        let mut metric = MetricAccumulator::new(n);
        for r in &c.runs {
            metric.push_run_partial(&r.fragments, &r.participated());
        }
        c.metric = metric;
        let truth = Partition::from_assignments(&[0, 0, 1, 1]);
        let fp = Partition::from_assignments(&[0, 0, 1, 1]);
        let rel = ReliabilityReport::from_campaign(&c, &fp, &truth);
        assert_eq!(rel.hosts_lost, 3, "lost once per run");
        assert_eq!(rel.runs_disrupted, 3);
        // Pairs involving host 3 were never observed: (0,3), (1,3), (2,3).
        assert_eq!(rel.pairs_unobserved, 3);
        assert!((rel.pair_coverage - 0.5).abs() < 1e-12, "3 of 6 pairs observed");
        // Scoring restricted to the observed hosts {0, 1, 2}: identical
        // induced partitions score 1.0, and confidence discounts it.
        assert!((rel.onmi_observed - 1.0).abs() < 1e-9);
        assert!((rel.confidence_weighted_onmi - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_campaign_is_a_typed_error() {
        let scenario = crate::scenarios::ScenarioSpec::parse("2x2").unwrap().build();
        let empty = Campaign { runs: Vec::new(), metric: MetricAccumulator::new(4) };
        let err = analyze(&scenario, empty, Backend::default(), 1).unwrap_err();
        assert_eq!(err, PipelineError::EmptyCampaign);
        assert!(err.to_string().contains("zero broadcast iterations"));
    }

    #[test]
    fn degenerate_partitions_are_flagged() {
        // All-one-cluster and all-singletons are degenerate; real structure
        // and the single-host edge case are not.
        assert!(degenerate_partition(&Partition::trivial(4)));
        assert!(degenerate_partition(&Partition::singletons(4)));
        assert!(!degenerate_partition(&Partition::from_assignments(&[0, 0, 1, 1])));
        assert!(!degenerate_partition(&Partition::trivial(1)));
        assert!(!degenerate_partition(&Partition::trivial(0)));
        // A real run on a scenario with clear structure is not degenerate,
        // and analyze() records the flag from the final partition.
        let scenario = crate::scenarios::ScenarioSpec::parse("2x2").unwrap().build();
        let report = crate::session::TomographySession::over(scenario)
            .iterations(2)
            .pieces(48)
            .seed(3)
            .run();
        assert_eq!(report.degenerate_partition, degenerate_partition(&report.final_partition));
    }

    #[test]
    fn sparse_graph_prunes_but_keeps_structure() {
        // Above-threshold behavior in miniature: prune an accumulator's
        // graph explicitly and check the strong edges survive.
        let c = fake_campaign(6, 3, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let dense = metric_graph(&c.metric);
        let pruned =
            sparse_metric_graph(&c.metric, PruneConfig { top_k: 2, relative: 0.0, epsilon: 0.0 });
        assert!(pruned.num_edges() <= dense.num_edges());
        assert!(pruned.edge_weight(0, 1) > 0.0);
        assert!(pruned.edge_weight(4, 5) > 0.0);
    }

    #[test]
    fn metric_graph_matches_accumulator() {
        let c = fake_campaign(4, 2, &[(0, 1)]);
        let g = metric_graph(&c.metric);
        assert_eq!(g.num_nodes(), 4);
        assert!((g.edge_weight(0, 1) - c.metric.w(0, 1)).abs() < 1e-12);
    }
}
