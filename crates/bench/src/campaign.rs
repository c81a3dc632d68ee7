//! Scenario-sweep campaigns: the engine behind the `btt` CLI.
//!
//! A campaign is the cross product (scenario × backend × seed) of a
//! [`SweepSpec`], run in parallel via rayon and written out as structured
//! artifacts:
//!
//! * `<out>/<scenario>__<backend>__s<seed>.json` — one
//!   [`ReportRecord`] per run (schema
//!   [`btt_core::serialize::REPORT_SCHEMA`]);
//! * `<out>/summary.csv` — one row per run, in deterministic
//!   (scenario, backend, seed) order.
//!
//! Determinism: every run derives all randomness from its own seed, the
//! rayon shim preserves input order, and all floats are rendered with the
//! round-trip formatter — so a same-spec re-run produces byte-identical
//! files regardless of thread count. That property is what makes campaign
//! outputs diffable across PRs (the ROADMAP's perf/accuracy trajectory).

use btt_core::prelude::*;
use btt_core::scenarios::ScenarioSpec;
use btt_core::serialize::{convergence_csv, csv, json};
use rayon::prelude::*;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A `--backends` list that failed to parse. Typed so
/// the CLI can exit with a message naming the exact offending entry rather
/// than a generic "bad list".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendParseError {
    /// An entry no backend answers to.
    Unknown(String),
    /// The same backend appears twice (after case folding and shorthand
    /// resolution — `louvain,CLUSTERING` is a duplicate).
    Duplicate(String),
    /// The list has no entries at all.
    Empty,
}

impl std::fmt::Display for BackendParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendParseError::Unknown(name) => {
                write!(f, "unknown backend {name:?}; valid backends: {}", Backend::name_list())
            }
            BackendParseError::Duplicate(name) => {
                write!(f, "duplicate backend {name:?} in list")
            }
            BackendParseError::Empty => write!(f, "backend list is empty"),
        }
    }
}

impl std::error::Error for BackendParseError {}

/// Parses a comma-separated backend list (case-insensitive, shorthands
/// allowed), rejecting empty lists and duplicates by name.
pub fn parse_backend_list(list: &str) -> Result<Vec<Backend>, BackendParseError> {
    let mut backends: Vec<Backend> = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let backend =
            Backend::from_name(name).ok_or_else(|| BackendParseError::Unknown(name.to_string()))?;
        if backends.contains(&backend) {
            return Err(BackendParseError::Duplicate(name.to_string()));
        }
        backends.push(backend);
    }
    if backends.is_empty() {
        return Err(BackendParseError::Empty);
    }
    Ok(backends)
}

/// What to sweep: every combination of scenario, backend, and seed runs
/// once.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Scenarios to run.
    pub scenarios: Vec<ScenarioSpec>,
    /// Phase-2 inference backends to run on each scenario's measurements.
    pub backends: Vec<Backend>,
    /// Master seeds (one full campaign per seed).
    pub seeds: Vec<u64>,
    /// Measurement iterations per run; `None` = each scenario's default.
    pub iterations: Option<u32>,
    /// File size in 16 KiB fragments.
    pub pieces: u32,
    /// Measurement worker threads per campaign (`0` = auto, `1` = serial).
    /// Purely a wall-clock knob: reports are byte-identical for every value.
    pub threads: usize,
}

impl SweepSpec {
    /// The CLI's default sweep: three small scenarios (one paper dataset,
    /// one star, one WAN) × Louvain + label propagation × one seed, sized to
    /// finish in seconds.
    pub fn default_smoke() -> SweepSpec {
        SweepSpec {
            scenarios: ScenarioSpec::parse_list("2x2,star:3x6:0.1:6,wan:3x4:0.2")
                .expect("default scenarios parse"),
            backends: vec![
                ClusteringAlgorithm::Louvain.into(),
                ClusteringAlgorithm::LabelPropagation.into(),
            ],
            seeds: vec![2012],
            iterations: Some(10),
            pieces: 512,
            threads: 0,
        }
    }

    /// Upper bound on the number of runs (the raw cross-product size;
    /// [`SweepSpec::expand`] may collapse duplicate coordinates).
    pub fn num_runs(&self) -> usize {
        self.scenarios.len() * self.backends.len() * self.seeds.len()
    }

    /// The cross product, in deterministic (scenario, backend, seed)
    /// order. Duplicate coordinates — repeated seeds/backends, or two
    /// spellings of the same scenario (e.g. `star:3x8` and its canonical
    /// id `star:3x8:0.25:4`) — collapse to one run, since they would name
    /// the same output files.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut runs: Vec<RunSpec> = Vec::with_capacity(self.num_runs());
        for scenario in &self.scenarios {
            for &backend in &self.backends {
                for &seed in &self.seeds {
                    let candidate = RunSpec {
                        scenario: scenario.clone(),
                        backend,
                        seed,
                        iterations: self.iterations,
                        pieces: self.pieces,
                        threads: self.threads,
                    };
                    if !runs.iter().any(|r| r.file_stem() == candidate.file_stem()) {
                        runs.push(candidate);
                    }
                }
            }
        }
        runs
    }
}

/// One fully-specified run of a sweep.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The scenario to measure.
    pub scenario: ScenarioSpec,
    /// The inference backend for phase 2.
    pub backend: Backend,
    /// Master seed.
    pub seed: u64,
    /// Iteration override (`None` = scenario default).
    pub iterations: Option<u32>,
    /// File size in fragments.
    pub pieces: u32,
    /// Measurement worker threads (`0` = auto, `1` = serial).
    pub threads: usize,
}

impl RunSpec {
    /// The session this run configures (phase-2 backend excluded — it is
    /// passed explicitly at analysis time so campaigns can be shared).
    fn session(&self) -> TomographySession {
        let mut session = TomographySession::over(self.scenario.build())
            .pieces(self.pieces)
            .seed(self.seed)
            .threads(self.threads);
        if let Some(n) = self.iterations {
            session = session.iterations(n);
        }
        session
    }

    /// Executes measurement + analysis and projects the record.
    pub fn run(&self) -> ReportRecord {
        let session = self.session();
        ReportRecord::new(&session.analyze_with(session.measure(), self.backend), self.pieces)
    }

    /// The per-run artifact stem, e.g. `star-3x4-0.1-4__louvain__s2012`
    /// (scenario ids are sanitized for the filesystem: `:` becomes `-`).
    pub fn file_stem(&self) -> String {
        format!("{}__{}__s{}", sanitize(&self.scenario.id()), self.backend.name(), self.seed)
    }
}

/// Makes a scenario id filesystem-friendly (`:`, `+`, `=` → `-`).
fn sanitize(id: &str) -> String {
    id.replace([':', '+', '='], "-")
}

/// True for file names this module itself writes — the only files
/// [`write_outputs`] is allowed to delete when refreshing a directory.
fn is_campaign_artifact(name: &str) -> bool {
    name == "summary.csv"
        || ((name.ends_with(".json") || name.ends_with(".convergence.csv"))
            && name.contains("__s")
            && name.contains("__"))
}

/// Runs every combination of the spec in parallel. Results come back in
/// [`SweepSpec::expand`] order regardless of scheduling.
///
/// The broadcast simulation (the dominant cost) depends only on
/// (scenario, seed, iterations, pieces), not on the phase-2 backend, so
/// each such group is measured **once** and then analyzed per backend —
/// sweeping all five backends costs one simulation, not five.
pub fn run_sweep(spec: &SweepSpec) -> Vec<ReportRecord> {
    let runs = spec.expand();
    // Unique (scenario, seed) groups, in first-appearance order.
    let mut groups: Vec<(&RunSpec, Vec<usize>)> = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|(g, _)| g.seed == run.seed && g.scenario.id() == run.scenario.id())
        {
            Some((_, members)) => members.push(i),
            None => groups.push((run, vec![i])),
        }
    }
    // Phase 1 (simulation) in parallel, one campaign per group; phase 2
    // (inference, comparatively cheap) per member run. Records are written
    // back by expand-order index, so output order is deterministic.
    let mut records: Vec<Option<ReportRecord>> = vec![None; runs.len()];
    let analyzed: Vec<Vec<(usize, ReportRecord)>> = groups
        .into_par_iter()
        .map(|(leader, members)| {
            let session = leader.session();
            // `analyze_with` hands ownership of the campaign to the report,
            // so k backends need k-1 clones of the measurement data; the
            // last member takes the original by move.
            let mut campaign = Some(session.measure());
            let last = members.len() - 1;
            members
                .into_iter()
                .enumerate()
                .map(|(j, i)| {
                    let c = if j == last {
                        campaign.take().expect("campaign moved only once")
                    } else {
                        campaign.as_ref().expect("campaign still owned").clone()
                    };
                    let report = session.analyze_with(c, runs[i].backend);
                    (i, ReportRecord::new(&report, runs[i].pieces))
                })
                .collect()
        })
        .collect();
    for (i, record) in analyzed.into_iter().flatten() {
        records[i] = Some(record);
    }
    records.into_iter().map(|r| r.expect("every run analyzed")).collect()
}

/// Header of `summary.csv`, in column order. The four reliability columns
/// (`hosts_lost` onward) carry the failure-tolerance trajectory: zero
/// losses / full coverage on static campaigns, and the accuracy-vs-failure
/// data a churn sweep plots. `degenerate_partition` separates "inference
/// collapsed (one cluster / all singletons)" from "scored low against real
/// structure" — the two are indistinguishable in `final_onmi` alone.
pub const SUMMARY_COLUMNS: [&str; 18] = [
    "scenario",
    "algorithm",
    "seed",
    "hosts",
    "iterations",
    "pieces",
    "clusters_found",
    "clusters_truth",
    "final_onmi",
    "final_nmi",
    "final_modularity",
    "converged_at",
    "measurement_time_s",
    "hosts_lost",
    "pairs_unobserved",
    "pair_coverage",
    "confidence_weighted_onmi",
    "degenerate_partition",
];

/// Renders the campaign-level summary CSV, one row per record, in input
/// order. `converged_at` is empty when the run never converged.
pub fn summary_csv(records: &[ReportRecord]) -> String {
    let mut t = csv::Table::new(&SUMMARY_COLUMNS);
    for r in records {
        let last_nmi = r.convergence.last().map_or(0.0, |p| p.nmi);
        let last_q = r.convergence.last().map_or(0.0, |p| p.modularity);
        t.row(&[
            r.scenario_id.clone(),
            r.algorithm.clone(),
            r.seed.to_string(),
            r.hosts.to_string(),
            r.convergence.len().to_string(),
            r.pieces.to_string(),
            r.final_partition.num_clusters().to_string(),
            r.ground_truth.num_clusters().to_string(),
            json::fmt_f64(r.final_onmi()),
            json::fmt_f64(last_nmi),
            json::fmt_f64(last_q),
            r.converged_at.map_or(String::new(), |k| k.to_string()),
            json::fmt_f64(r.measurement_time()),
            r.reliability.hosts_lost.to_string(),
            r.reliability.pairs_unobserved.to_string(),
            json::fmt_f64(r.reliability.pair_coverage),
            json::fmt_f64(r.reliability.confidence_weighted_onmi),
            r.degenerate_partition.to_string(),
        ]);
    }
    t.finish()
}

/// Writes all campaign artifacts under `out`: one pretty-printed JSON per
/// run, a convergence CSV per run, and `summary.csv`. Returns the paths
/// written, `summary.csv` last.
///
/// Pre-existing **campaign artifacts** in `out` (files matching this
/// module's own naming patterns: `*__*__s*.json`, `*.convergence.csv`,
/// `summary.csv`) are removed first, so the directory always reflects
/// exactly this campaign — re-sweeping a smaller spec into the same
/// `--out` cannot leave stale records behind to confuse `btt check` or
/// cross-campaign diffs. Files the campaign writer never produces are left
/// alone, so pointing `--out` at a directory with unrelated data is safe.
pub fn write_outputs(
    out: &Path,
    runs: &[RunSpec],
    records: &[ReportRecord],
) -> io::Result<Vec<PathBuf>> {
    assert_eq!(runs.len(), records.len());
    fs::create_dir_all(out)?;
    for entry in fs::read_dir(out)? {
        let path = entry?.path();
        let is_ours = path.file_name().and_then(|n| n.to_str()).is_some_and(is_campaign_artifact);
        if is_ours {
            fs::remove_file(&path)?;
        }
    }
    let mut paths = Vec::with_capacity(records.len() * 2 + 1);
    for (run, record) in runs.iter().zip(records) {
        let stem = run.file_stem();
        let json_path = out.join(format!("{stem}.json"));
        fs::write(&json_path, record.to_json().render_pretty())?;
        paths.push(json_path);
        let csv_path = out.join(format!("{stem}.convergence.csv"));
        fs::write(&csv_path, convergence_csv(record))?;
        paths.push(csv_path);
    }
    let summary = out.join("summary.csv");
    fs::write(&summary, summary_csv(records))?;
    paths.push(summary);
    Ok(paths)
}

/// A `btt check` validation failure: every variant names the offending file
/// (or directory), so CI logs point straight at the artifact to inspect.
/// Typed — the CLI maps any variant to a nonzero exit code — instead of the
/// panicking unwraps early validation drafts used.
#[derive(Debug)]
pub enum CheckError {
    /// A file or directory could not be read.
    Io {
        /// The unreadable path.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A campaign artifact failed to parse or validate.
    Invalid {
        /// The offending artifact.
        path: PathBuf,
        /// What was wrong with it.
        message: String,
    },
    /// The directory holds no campaign artifacts at all.
    NoArtifacts {
        /// The directory checked.
        dir: PathBuf,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CheckError::Invalid { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            CheckError::NoArtifacts { dir } => {
                write!(f, "{}: no .json or .csv artifacts found", dir.display())
            }
        }
    }
}

impl std::error::Error for CheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl CheckError {
    /// The offending file (or directory) the error names.
    pub fn path(&self) -> &Path {
        match self {
            CheckError::Io { path, .. } => path,
            CheckError::Invalid { path, .. } => path,
            CheckError::NoArtifacts { dir } => dir,
        }
    }
}

/// A report that finished with `final_onmi == 0.0`, annotated with what
/// the other reports in its directory scored on the same measurement
/// campaign (same scenario, seed, pieces and iteration count): which
/// backends also found nothing, which recovered structure, and how much
/// intra/inter metric contrast the measurement held. Nonzero backends ⇒ a
/// clustering-side limit; all-zero with a separation ratio near 1 ⇒ the
/// measurements carry no contrast.
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroOnmiWarning {
    /// The report file that scored zero.
    pub path: PathBuf,
    /// The report's scenario id.
    pub scenario: String,
    /// The report's master seed.
    pub seed: u64,
    /// Backends that scored oNMI 0.0 on the campaign, this report's own
    /// included, in file-name order.
    pub zero_backends: Vec<String>,
    /// Backends that recovered nonzero structure on the campaign.
    pub nonzero_backends: Vec<String>,
    /// The report's `diagnosis.separation_ratio` (`None` when `null`).
    pub separation_ratio: Option<f64>,
}

impl std::fmt::Display for ZeroOnmiWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} seed {} finished with final_onmi == 0.0 -- ",
            self.path.display(),
            self.scenario,
            self.seed
        )?;
        if self.nonzero_backends.is_empty() {
            write!(f, "all backends agree (oNMI 0: {})", self.zero_backends.join(", "))?;
        } else {
            write!(
                f,
                "backends disagree (oNMI 0: {}; nonzero: {})",
                self.zero_backends.join(", "),
                self.nonzero_backends.join(", ")
            )?;
        }
        match self.separation_ratio {
            Some(r) => write!(f, "; separation ratio {}", json::fmt_f64(r)),
            None => write!(f, "; separation ratio n/a"),
        }
    }
}

/// One [`ZeroOnmiWarning`] per report in `reports` with
/// `final_onmi == 0.0`, in input order.
fn zero_onmi_warnings(reports: &[(PathBuf, ReportRecord)]) -> Vec<ZeroOnmiWarning> {
    let scored_zero = |r: &ReportRecord| r.final_onmi() == 0.0;
    reports
        .iter()
        .filter(|(_, r)| scored_zero(r))
        .map(|(path, r)| {
            let (mut zero_backends, mut nonzero_backends) = (Vec::new(), Vec::new());
            let same_campaign = reports.iter().map(|(_, o)| o).filter(|o| {
                o.scenario_id == r.scenario_id
                    && o.seed == r.seed
                    && o.pieces == r.pieces
                    && o.convergence.len() == r.convergence.len()
            });
            for other in same_campaign {
                let list =
                    if scored_zero(other) { &mut zero_backends } else { &mut nonzero_backends };
                if !list.contains(&other.algorithm) {
                    list.push(other.algorithm.clone());
                }
            }
            ZeroOnmiWarning {
                path: path.clone(),
                scenario: r.scenario_id.clone(),
                seed: r.seed,
                zero_backends,
                nonzero_backends,
                separation_ratio: r.diagnosis.separation_ratio,
            }
        })
        .collect()
}

/// What `btt check` found in a valid artifact directory: artifact counts
/// plus diagnostics that are worth a warning but not a failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSummary {
    /// Valid report JSON documents.
    pub jsons: usize,
    /// Valid CSV artifacts.
    pub csvs: usize,
    /// Report files whose final partition is structurally degenerate
    /// (all-one-cluster / all-singletons) — valid artifacts, but the run
    /// found no structure at all; `btt check` surfaces each as a warning.
    pub degenerate: Vec<PathBuf>,
    /// Reports that finished with `final_onmi == 0.0`, annotated with
    /// per-backend agreement and the separation ratio; surfaced as
    /// warnings like `degenerate`.
    pub zero_onmi: Vec<ZeroOnmiWarning>,
}

/// Validates every campaign artifact in `dir`: `.json` files must parse as
/// [`btt_core::serialize::REPORT_SCHEMA`] records, `.csv` files must parse
/// with consistent column counts. Only files matching the campaign naming
/// patterns are examined — unrelated files sharing the extensions are
/// ignored, consistent with [`write_outputs`] preserving them. Returns the
/// [`CheckSummary`] (counts + degenerate and zero-oNMI diagnostics) or the
/// first failure, which always names the offending file.
pub fn check_outputs(dir: &Path) -> Result<CheckSummary, CheckError> {
    let read = |path: &Path| {
        fs::read_to_string(path)
            .map_err(|source| CheckError::Io { path: path.to_path_buf(), source })
    };
    let invalid =
        |path: &Path, message: String| CheckError::Invalid { path: path.to_path_buf(), message };
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|source| CheckError::Io { path: dir.to_path_buf(), source })?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(is_campaign_artifact))
        .collect();
    entries.sort();
    let mut csvs = 0usize;
    let mut reports = Vec::new();
    for path in entries {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => {
                let text = read(&path)?;
                let value = json::parse(&text).map_err(|e| invalid(&path, e.to_string()))?;
                let record =
                    ReportRecord::from_json(&value).map_err(|e| invalid(&path, e.to_string()))?;
                reports.push((path, record));
            }
            Some("csv") => {
                let text = read(&path)?;
                let rows = csv::parse(&text).map_err(|e| invalid(&path, e))?;
                let width = rows.first().map_or(0, Vec::len);
                if width == 0 {
                    return Err(invalid(&path, "empty CSV".to_string()));
                }
                if let Some(bad) = rows.iter().find(|r| r.len() != width) {
                    return Err(invalid(&path, format!("ragged row {bad:?}")));
                }
                csvs += 1;
            }
            _ => {}
        }
    }
    if reports.is_empty() && csvs == 0 {
        return Err(CheckError::NoArtifacts { dir: dir.to_path_buf() });
    }
    Ok(CheckSummary {
        jsons: reports.len(),
        csvs,
        degenerate: reports
            .iter()
            .filter(|(_, r)| r.degenerate_partition)
            .map(|(path, _)| path.clone())
            .collect(),
        zero_onmi: zero_onmi_warnings(&reports),
    })
}

/// Renders the paper-style fixed-width summary table for stdout.
pub fn summary_table(records: &[ReportRecord]) -> String {
    let mut rows = vec![vec![
        "scenario".to_string(),
        "algorithm".to_string(),
        "seed".to_string(),
        "hosts".to_string(),
        "clusters".to_string(),
        "oNMI".to_string(),
        "converged@".to_string(),
        "meas(s)".to_string(),
    ]];
    for r in records {
        rows.push(vec![
            r.scenario_id.clone(),
            r.algorithm.clone(),
            r.seed.to_string(),
            r.hosts.to_string(),
            format!("{}/{}", r.final_partition.num_clusters(), r.ground_truth.num_clusters()),
            format!("{:.3}", r.final_onmi()),
            r.converged_at.map_or_else(|| "never".to_string(), |k| k.to_string()),
            format!("{:.1}", r.measurement_time()),
        ]);
    }
    crate::ctx::text_table(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            scenarios: ScenarioSpec::parse_list("2x2,wan:2x2:0.25").unwrap(),
            backends: vec![
                ClusteringAlgorithm::Louvain.into(),
                ClusteringAlgorithm::LabelPropagation.into(),
            ],
            seeds: vec![7],
            iterations: Some(2),
            pieces: 48,
            threads: 0,
        }
    }

    #[test]
    fn expand_order_is_deterministic() {
        let spec = tiny_spec();
        assert_eq!(spec.num_runs(), 4);
        let runs = spec.expand();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].scenario.id(), "2x2");
        assert_eq!(runs[0].backend, Backend::Clustering(ClusteringAlgorithm::Louvain));
        assert_eq!(runs[1].backend, Backend::Clustering(ClusteringAlgorithm::LabelPropagation));
        assert_eq!(runs[2].scenario.id(), "wan:2x2:0.25");
    }

    #[test]
    fn expand_collapses_aliased_coordinates() {
        let mut spec = tiny_spec();
        // "star:3x8" and its canonical id are the same scenario; duplicate
        // seeds collide too. Neither may produce colliding output files.
        spec.scenarios = ScenarioSpec::parse_list("star:3x8,star:3x8:0.25:4").unwrap();
        spec.seeds = vec![7, 7];
        let runs = spec.expand();
        assert_eq!(runs.len(), spec.backends.len(), "aliases and repeats collapse");
        let stems: std::collections::HashSet<String> =
            runs.iter().map(RunSpec::file_stem).collect();
        assert_eq!(stems.len(), runs.len());
    }

    #[test]
    fn sweep_produces_one_record_per_run() {
        let spec = tiny_spec();
        let records = run_sweep(&spec);
        assert_eq!(records.len(), 4);
        for (run, rec) in spec.expand().iter().zip(&records) {
            assert_eq!(rec.scenario_id, run.scenario.id());
            assert_eq!(rec.algorithm, run.backend.name());
            assert_eq!(rec.seed, 7);
            assert_eq!(rec.convergence.len(), 2);
        }
    }

    #[test]
    fn backend_lists_parse_and_reject_duplicates() {
        let parsed = parse_backend_list("Clustering, ADD").unwrap();
        assert_eq!(
            parsed,
            vec![Backend::Clustering(ClusteringAlgorithm::Louvain), Backend::Additive]
        );
        // Duplicates are rejected by resolved backend, not by spelling: the
        // error names the entry as the user wrote it.
        let err = parse_backend_list("louvain,additive,CLUSTERING").unwrap_err();
        assert_eq!(err, BackendParseError::Duplicate("CLUSTERING".to_string()));
        assert!(err.to_string().contains("duplicate backend \"CLUSTERING\""), "{err}");
        let err = parse_backend_list("louvain,warp-drive").unwrap_err();
        assert_eq!(err, BackendParseError::Unknown("warp-drive".to_string()));
        assert!(err.to_string().contains("valid backends"), "{err}");
        assert_eq!(parse_backend_list(" , ").unwrap_err(), BackendParseError::Empty);
    }

    #[test]
    fn summary_csv_is_well_formed() {
        let records = run_sweep(&tiny_spec());
        let text = summary_csv(&records);
        let rows = csv::parse(&text).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], SUMMARY_COLUMNS.to_vec());
        for row in &rows[1..] {
            assert_eq!(row.len(), SUMMARY_COLUMNS.len());
        }
    }

    #[test]
    fn file_stems_are_filesystem_safe() {
        let mut spec = tiny_spec();
        spec.scenarios =
            ScenarioSpec::parse_list("2x2,wan:2x2:0.25,wan:2x2:0.25+churn=0.5+xtraffic=0.25")
                .unwrap();
        for run in spec.expand() {
            let stem = run.file_stem();
            assert!(stem.chars().all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)), "{stem}");
        }
    }

    #[test]
    fn check_errors_name_the_offending_file() {
        let dir = std::env::temp_dir().join(format!("btt-checkerr-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // Empty directory: typed NoArtifacts naming the directory.
        let err = check_outputs(&dir).unwrap_err();
        assert!(matches!(err, CheckError::NoArtifacts { .. }));
        assert_eq!(err.path(), dir.as_path());
        // A corrupt campaign JSON: typed Invalid naming the file.
        let bad = dir.join("wan-2x2__louvain__s1.json");
        fs::write(&bad, "{not json").unwrap();
        let err = check_outputs(&dir).unwrap_err();
        assert!(matches!(err, CheckError::Invalid { .. }), "{err:?}");
        assert_eq!(err.path(), bad.as_path());
        assert!(err.to_string().contains("wan-2x2__louvain__s1.json"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_csv_carries_reliability_columns() {
        let spec = SweepSpec {
            scenarios: ScenarioSpec::parse_list("wan:2x4:0.25+churn=0.4").unwrap(),
            backends: vec![ClusteringAlgorithm::Louvain.into()],
            seeds: vec![2012],
            iterations: Some(3),
            pieces: 64,
            threads: 0,
        };
        let records = run_sweep(&spec);
        assert_eq!(records.len(), 1);
        let rel = &records[0].reliability;
        assert!(rel.hosts_lost > 0, "churn 0.4 on 8 hosts must lose someone");
        assert!(rel.pair_coverage < 1.0);
        let rows = csv::parse(&summary_csv(&records)).unwrap();
        assert_eq!(rows[0], SUMMARY_COLUMNS.to_vec());
        let hosts_lost_col = rows[0].iter().position(|c| c == "hosts_lost").unwrap();
        assert_eq!(rows[1][hosts_lost_col], rel.hosts_lost.to_string());
        let cov_col = rows[0].iter().position(|c| c == "pair_coverage").unwrap();
        assert!(rows[1][cov_col].parse::<f64>().unwrap() < 1.0);
    }

    #[test]
    fn write_outputs_clears_stale_artifacts() {
        let dir = std::env::temp_dir().join(format!("btt-stale-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // Leftovers from a previous, larger campaign: must be removed.
        fs::write(dir.join("wan-9x9-0.5__infomap__s42.json"), "{}").unwrap();
        fs::write(dir.join("wan-9x9-0.5__infomap__s42.convergence.csv"), "a\n").unwrap();
        // Foreign files that merely share the extensions: must survive.
        fs::write(dir.join("notes.json"), "{}").unwrap();
        fs::write(dir.join("data.csv"), "a,b\n").unwrap();
        let spec = SweepSpec {
            scenarios: ScenarioSpec::parse_list("2x2").unwrap(),
            backends: vec![ClusteringAlgorithm::Louvain.into()],
            seeds: vec![1],
            iterations: Some(1),
            pieces: 48,
            threads: 0,
        };
        write_outputs(&dir, &spec.expand(), &run_sweep(&spec)).unwrap();
        assert!(!dir.join("wan-9x9-0.5__infomap__s42.json").exists(), "stale record removed");
        assert!(
            !dir.join("wan-9x9-0.5__infomap__s42.convergence.csv").exists(),
            "stale csv removed"
        );
        assert!(dir.join("notes.json").exists(), "foreign JSON is kept");
        assert!(dir.join("data.csv").exists(), "foreign CSV is kept");
        assert!(dir.join("summary.csv").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_flags_finished_runs_with_zero_onmi() {
        // Real records from a tiny sweep, with the final oNMI forced. Every
        // report scoring 0.0 warns, naming the backends in the directory
        // that scored zero or nonzero on the same campaign.
        let spec = SweepSpec {
            scenarios: ScenarioSpec::parse_list("wan:2x2:0.25").unwrap(),
            backends: vec![
                ClusteringAlgorithm::Louvain.into(),
                ClusteringAlgorithm::LabelPropagation.into(),
                Backend::Additive,
            ],
            seeds: vec![7, 8],
            iterations: Some(2),
            pieces: 48,
            threads: 0,
        };
        let records = run_sweep(&spec);
        let record = |backend: &str, seed: u64, onmi: f64| {
            let mut r = records
                .iter()
                .find(|r| r.algorithm == backend && r.seed == seed)
                .expect("swept coordinate")
                .clone();
            r.convergence.last_mut().expect("two iterations").onmi = onmi;
            r
        };
        let dir = std::env::temp_dir().join(format!("btt-zero-onmi-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, r: &ReportRecord| {
            fs::write(dir.join(name), r.to_json().render_pretty()).unwrap();
            dir.join(name)
        };
        let lp7 = record("label-propagation", 7, 0.0);
        let louvain7 = record("louvain", 7, 0.0);
        let mut louvain8 = record("louvain", 8, 0.0);
        louvain8.diagnosis.separation_ratio = None;
        let warning =
            |path: PathBuf, r: &ReportRecord, zero: &[&str], nonzero: &[&str]| ZeroOnmiWarning {
                path,
                scenario: "wan:2x2:0.25".to_string(),
                seed: r.seed,
                zero_backends: zero.iter().map(|s| s.to_string()).collect(),
                nonzero_backends: nonzero.iter().map(|s| s.to_string()).collect(),
                separation_ratio: r.diagnosis.separation_ratio,
            };
        // Seed 7: two backends at zero agree. Seed 8: zero next to a
        // nonzero additive report disagrees, and is not grouped with seed
        // 7; the nonzero report itself raises no warning.
        let lp7_path = write("wan-2x2-0.25__label-propagation__s7.json", &lp7);
        let louvain7_path = write("wan-2x2-0.25__louvain__s7.json", &louvain7);
        let louvain8_path = write("wan-2x2-0.25__louvain__s8.json", &louvain8);
        write("wan-2x2-0.25__additive__s8.json", &record("additive", 8, 0.5));
        let agree = ["label-propagation", "louvain"];
        let mut expected = vec![
            warning(lp7_path, &lp7, &agree, &[]),
            warning(louvain7_path, &louvain7, &agree, &[]),
            warning(louvain8_path.clone(), &louvain8, &["louvain"], &["additive"]),
        ];
        assert_eq!(check_outputs(&dir).unwrap().zero_onmi, expected);
        let line = expected[0].to_string();
        assert!(
            line.contains("wan:2x2:0.25 seed 7") && line.contains("all backends agree"),
            "{line}"
        );
        let ratio = lp7.diagnosis.separation_ratio.expect("two sites have inter-site weight");
        assert!(line.contains(&format!("separation ratio {}", json::fmt_f64(ratio))), "{line}");
        let line = expected[2].to_string();
        assert!(line.contains("disagree") && line.contains("nonzero: additive"), "{line}");
        assert!(line.ends_with("separation ratio n/a"), "{line}");
        assert!(line.starts_with(&louvain8_path.display().to_string()), "{line}");
        // Served jobs' files join the group their records name, whatever
        // their file names (which sort first). A repeated job names its
        // backend once; a job on another piece count is another campaign.
        let additive7 = record("additive", 7, 0.0);
        let job3 = write("job3__wan-2x2-0.25__additive__s7.json", &additive7);
        let job4 = write("job4__wan-2x2-0.25__louvain__s7.json", &louvain7);
        let mut other_campaign = record("label-propagation", 7, 0.5);
        other_campaign.pieces = 96;
        write("job5__wan-2x2-0.25__label-propagation__s7.json", &other_campaign);
        let agree = ["additive", "louvain", "label-propagation"];
        for w in &mut expected[..2] {
            w.zero_backends = agree.iter().map(|s| s.to_string()).collect();
        }
        expected.insert(0, warning(job4, &louvain7, &agree, &[]));
        expected.insert(0, warning(job3, &additive7, &agree, &[]));
        assert_eq!(check_outputs(&dir).unwrap().zero_onmi, expected);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_outputs_accepts_what_write_outputs_writes() {
        let dir = std::env::temp_dir().join(format!("btt-campaign-test-{}", std::process::id()));
        let spec = SweepSpec {
            scenarios: ScenarioSpec::parse_list("2x2").unwrap(),
            backends: vec![ClusteringAlgorithm::Louvain.into()],
            seeds: vec![3],
            iterations: Some(2),
            pieces: 48,
            threads: 0,
        };
        let runs = spec.expand();
        let records = run_sweep(&spec);
        let paths = write_outputs(&dir, &runs, &records).unwrap();
        assert_eq!(paths.len(), 3, "json + convergence csv + summary");
        let summary = check_outputs(&dir).unwrap();
        assert_eq!((summary.jsons, summary.csvs), (1, 2));
        // The degenerate warnings agree exactly with the records' own flag
        // (this tiny 2-iteration run may or may not find structure — what
        // matters is that check reports whatever the artifact says).
        let flagged: Vec<_> = records.iter().filter(|r| r.degenerate_partition).collect();
        assert_eq!(summary.degenerate.len(), flagged.len());
        for path in &summary.degenerate {
            assert!(path.extension().is_some_and(|e| e == "json"), "{}", path.display());
        }
        // Foreign files write_outputs preserves must not fail the check.
        fs::write(dir.join("notes.json"), "not even json").unwrap();
        assert_eq!(check_outputs(&dir).unwrap(), summary, "foreign files are ignored");
        // Corrupt a campaign artifact: check must now fail.
        fs::write(&paths[0], "{not json").unwrap();
        assert!(check_outputs(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
