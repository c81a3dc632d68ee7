//! Scenario-sweep campaigns: the engine behind the `btt` CLI.
//!
//! A campaign is the cross product (scenario × backend × seed) of a
//! [`SweepSpec`], run in parallel via rayon and written out as structured
//! artifacts:
//!
//! * `<out>/<scenario>__<backend>__s<seed>.json` — one
//!   [`ReportRecord`] per run (schema `btt-report-v1`);
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

/// One scenario×size point of the standardized engine benchmark suite.
#[derive(Debug, Clone)]
pub struct EngineBenchPoint {
    /// Scenario spec string (preset names allowed).
    pub scenario: &'static str,
    /// File size in 16 KiB fragments.
    pub pieces: u32,
    /// Fairness re-solve quantum override for the run (`None` = default).
    pub rate_refresh: Option<f64>,
    /// Wall-clock of the same broadcast on the pre-refactor fixed-step
    /// engine (milliseconds), measured once at the event-engine PR on its
    /// reference machine. `None` where no baseline was recorded. Absolute
    /// values are machine-dependent; the recorded speedups are the
    /// comparable quantity.
    pub baseline_pre_refactor_ms: Option<f64>,
}

/// The standardized engine benchmark: per point, one warm-up broadcast then
/// the fastest of [`ENGINE_BENCH_REPS`] timed repetitions, all at seed 2012
/// with default protocol constants. The slow consumer-edge
/// points are where the event calendar beats fixed stepping hardest (the
/// old engine paid per 50 ms step *and* polled idle pairs every step); the
/// fat-tree points pin that datacenter-speed swarms stay at parity.
///
/// `edge-2k` runs with a 0.5 s re-solve quantum: at a ~40 s makespan that
/// staleness is around 1 %, and it is the documented fidelity/speed dial
/// for 1000+ host simulations.
pub const ENGINE_BENCH_SUITE: &[EngineBenchPoint] = &[
    EngineBenchPoint {
        scenario: "fat-tree-512",
        pieces: 512,
        rate_refresh: None,
        baseline_pre_refactor_ms: Some(379.1),
    },
    EngineBenchPoint {
        scenario: "fat-tree-1k",
        pieces: 256,
        rate_refresh: None,
        baseline_pre_refactor_ms: Some(428.0),
    },
    EngineBenchPoint {
        scenario: "wan-512",
        pieces: 512,
        rate_refresh: None,
        baseline_pre_refactor_ms: Some(376.8),
    },
    EngineBenchPoint {
        scenario: "edge-512",
        pieces: 256,
        rate_refresh: None,
        baseline_pre_refactor_ms: Some(413.4),
    },
    EngineBenchPoint {
        scenario: "edge-1k",
        pieces: 256,
        rate_refresh: None,
        baseline_pre_refactor_ms: Some(1540.0),
    },
    EngineBenchPoint {
        scenario: "edge-2k",
        pieces: 64,
        rate_refresh: Some(0.5),
        baseline_pre_refactor_ms: Some(6600.0),
    },
];

/// Master seed shared by every engine-bench broadcast.
pub const ENGINE_BENCH_SEED: u64 = 2012;

/// Timed repetitions per engine-bench point. Broadcasts are
/// seed-deterministic — every rep produces identical fragments, events,
/// and prof counters — so reps differ only in wall clock, and the minimum
/// is the standard noise-floor statistic on a shared machine. A separate
/// untimed warm-up rep absorbs one-off process costs (page-faulting fresh
/// allocations, filling the per-thread scratch pools) that say nothing
/// about the engine.
pub const ENGINE_BENCH_REPS: usize = 5;

/// Builds and times one engine-bench broadcast (the single shared
/// implementation behind `BENCH_engine.json`, the `scale` experiment, and
/// any future consumer — so every surface measures the same configuration).
/// Returns `(outcome, wall_ms, hosts)`.
pub fn run_bench_broadcast(
    point: &EngineBenchPoint,
    pieces: u32,
) -> (btt_swarm::swarm::RunOutcome, f64, usize) {
    use btt_swarm::broadcast::run_broadcast;
    use std::time::Instant;

    let spec = ScenarioSpec::parse(point.scenario).expect("suite scenarios parse");
    let scenario = spec.build();
    let cfg = SwarmConfig {
        num_pieces: pieces,
        rate_refresh: point.rate_refresh,
        ..SwarmConfig::default()
    };
    let wall = Instant::now();
    let out = run_broadcast(&scenario.routes, &scenario.hosts, 0, &cfg, ENGINE_BENCH_SEED);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    (out, wall_ms, scenario.hosts.len())
}

/// Runs one point of the engine benchmark, returning the record as a JSON
/// object (timings in milliseconds).
fn run_engine_bench_point(point: &EngineBenchPoint) -> json::Json {
    let spec = ScenarioSpec::parse(point.scenario).expect("suite scenarios parse");
    let _warmup = run_bench_broadcast(point, point.pieces);
    let (mut out, mut wall_ms, mut hosts) = run_bench_broadcast(point, point.pieces);
    for _ in 1..ENGINE_BENCH_REPS {
        let (o, w, h) = run_bench_broadcast(point, point.pieces);
        if w < wall_ms {
            (out, wall_ms, hosts) = (o, w, h);
        }
    }

    let (baseline, speedup) = match point.baseline_pre_refactor_ms {
        Some(b) => (json::Json::Float(b), json::Json::Float(b / wall_ms)),
        None => (json::Json::Null, json::Json::Null),
    };
    let pr = out.prof;
    let e = pr.engine;
    // Phase wall times partition the drive loop: `advance_ms` is engine
    // event advancement (with the fairness share split out as `solver_ms`),
    // the rest is protocol work at the swarm layer. Counters give the
    // denominators that make the timings comparable across machines.
    let phases = json::Json::obj(vec![
        ("advance_ms", json::Json::Float(e.advance_ms())),
        ("solver_ms", json::Json::Float(e.solver_ms())),
        ("service_ms", json::Json::Float(pr.service_ns as f64 / 1e6)),
        ("haves_ms", json::Json::Float(pr.haves_ns as f64 / 1e6)),
        ("rechoke_ms", json::Json::Float(pr.rechoke_ns as f64 / 1e6)),
        (
            "counters",
            json::Json::obj(vec![
                ("events_popped", json::Json::UInt(e.events_popped)),
                ("stale_events", json::Json::UInt(e.stale_events)),
                ("marks_fired", json::Json::UInt(e.marks_fired)),
                ("flows_finished", json::Json::UInt(e.flows_finished)),
                ("undershoot_rekeys", json::Json::UInt(e.undershoot_rekeys)),
                ("refreshes", json::Json::UInt(e.refreshes)),
                ("flows_started", json::Json::UInt(e.flows_started)),
                ("solver_resolves", json::Json::UInt(e.solver.resolves)),
                ("solver_components", json::Json::UInt(e.solver.components)),
                ("solver_comp_flows", json::Json::UInt(e.solver.comp_flows)),
                ("solver_comp_chans", json::Json::UInt(e.solver.comp_chans)),
                ("solver_waterfill_rounds", json::Json::UInt(e.solver.waterfill_rounds)),
                ("solver_parallel_resolves", json::Json::UInt(e.solver.parallel_resolves)),
                ("rechoke_passes", json::Json::UInt(pr.rechoke_passes)),
                ("service_calls", json::Json::UInt(pr.service_calls)),
                ("piece_picks", json::Json::UInt(pr.piece_picks)),
                ("have_announcements", json::Json::UInt(pr.have_announcements)),
            ]),
        ),
    ]);
    json::Json::obj(vec![
        ("scenario", json::Json::Str(point.scenario.to_string())),
        ("scenario_id", json::Json::Str(spec.id())),
        ("hosts", json::Json::UInt(hosts as u64)),
        ("pieces", json::Json::UInt(point.pieces as u64)),
        ("seed", json::Json::UInt(ENGINE_BENCH_SEED)),
        (
            "rate_refresh_s",
            match point.rate_refresh {
                Some(q) => json::Json::Float(q),
                None => json::Json::Null,
            },
        ),
        ("wall_ms", json::Json::Float(wall_ms)),
        ("makespan_sim_s", json::Json::Float(out.makespan)),
        ("fragments", json::Json::UInt(out.fragments.total())),
        ("events", json::Json::UInt(out.sim_steps as u64)),
        ("finished", json::Json::Bool(out.finished)),
        ("baseline_pre_refactor_ms", baseline),
        ("speedup_vs_pre_refactor", speedup),
        ("phases", phases),
    ])
}

/// True when `scenario` passes a `--bench-points` filter (`None` or empty
/// = every point).
fn bench_point_selected(scenario: &str, filter: Option<&[String]>) -> bool {
    match filter {
        None | Some([]) => true,
        Some(names) => names.iter().any(|n| n.eq_ignore_ascii_case(scenario)),
    }
}

/// Runs the engine benchmark suite — optionally restricted to the named
/// points (`--bench-points`) — and renders the `BENCH_engine.json`
/// document (schema `btt-engine-bench-v2`).
///
/// Wall-clock numbers are machine-dependent; the file exists so every PR
/// from the event-engine refactor onward leaves a machine-readable point on
/// the perf trajectory, and so the recorded pre-refactor baselines keep the
/// refactor's speedup auditable. v2 adds the per-run `phases` breakdown
/// (always-on `netsim::prof` attribution), so the artifact records *where*
/// each run's time went, not just how much.
pub fn engine_bench_json(filter: Option<&[String]>) -> json::Json {
    json::Json::obj(vec![
        ("schema", json::Json::Str("btt-engine-bench-v2".to_string())),
        ("seed", json::Json::UInt(ENGINE_BENCH_SEED)),
        (
            "note",
            json::Json::Str(
                "per point: one warm-up broadcast, then fastest of 5 timed repetitions \
                 (seed-deterministic, so reps differ only in wall clock); default \
                 protocol constants; baselines measured once on the pre-refactor \
                 fixed-step engine"
                    .to_string(),
            ),
        ),
        (
            "runs",
            json::Json::Array(
                ENGINE_BENCH_SUITE
                    .iter()
                    .filter(|p| bench_point_selected(p.scenario, filter))
                    .map(run_engine_bench_point)
                    .collect(),
            ),
        ),
    ])
}

/// Name of the engine benchmark artifact.
pub const BENCH_FILE: &str = "BENCH_engine.json";

/// Number of [`ENGINE_BENCH_SUITE`] points passing `filter`.
pub fn engine_bench_selected(filter: Option<&[String]>) -> usize {
    ENGINE_BENCH_SUITE.iter().filter(|p| bench_point_selected(p.scenario, filter)).count()
}

/// Runs the (optionally filtered) engine benchmark and writes
/// `BENCH_engine.json` under `out`. Returns `None` — writing nothing —
/// when the filter selects no suite points: an artifact with an empty
/// `runs` array would be rejected by `btt check`.
pub fn write_engine_bench(out: &Path, filter: Option<&[String]>) -> io::Result<Option<PathBuf>> {
    if engine_bench_selected(filter) == 0 {
        return Ok(None);
    }
    fs::create_dir_all(out)?;
    let path = out.join(BENCH_FILE);
    fs::write(&path, engine_bench_json(filter).render_pretty())?;
    Ok(Some(path))
}

/// One point of the standardized phase-2 (inference) benchmark: a full
/// measurement campaign on a scale preset, then the streaming + parallel
/// convergence series over every iteration prefix.
#[derive(Debug, Clone)]
pub struct InferenceBenchPoint {
    /// Scenario spec string (preset names allowed).
    pub scenario: &'static str,
    /// File size in 16 KiB fragments.
    pub pieces: u32,
    /// Broadcast iterations — and therefore convergence-series prefixes.
    pub iterations: u32,
    /// Wall-clock of the same convergence series on the pre-refactor
    /// serial path (O(n²) re-aggregation and a dense Louvain per prefix),
    /// in milliseconds, measured once at the streaming-inference PR on its
    /// reference machine. Absolute values are machine-dependent; the
    /// recorded speedups are the comparable quantity.
    pub baseline_serial_ms: Option<f64>,
    /// Worker threads for the phase-1 measurement campaign
    /// (`TomographySession::threads`). The campaign pool's in-order reorder
    /// buffer makes the fold byte-identical to the serial schedule, so this
    /// changes wall-clock only, never results.
    pub measure_threads: usize,
    /// Wall-clock of the same measurement campaign on the pre-parallel
    /// serial engine, in milliseconds, measured once at the parallel-
    /// measurement PR on its reference machine. Same caveat as
    /// `baseline_serial_ms`: absolute values are machine-dependent, the
    /// recorded speedups are the comparable quantity.
    pub measure_serial_ms: Option<f64>,
}

/// The standardized inference benchmark: the paper's Fig.-13 convergence
/// study at 1000+ hosts. `fat-tree-1k` at 100 iterations is the headline
/// point (the acceptance gate for the streaming refactor); `wan-1k` and
/// `edge-2k` pin the other scale presets at shallower series,
/// `edge-2k-wide` pins the recovery control where both backend families
/// return nonzero accuracy, and `fat-tree-4k` is a deliberately shallow
/// 4096-host point proving the parallel measurement path completes at 4x
/// the headline scale -- all sized so the suite stays inside the CI smoke
/// budget.
pub const INFERENCE_BENCH_SUITE: &[InferenceBenchPoint] = &[
    InferenceBenchPoint {
        scenario: "fat-tree-1k",
        pieces: 128,
        iterations: 100,
        baseline_serial_ms: Some(28156.0),
        measure_threads: 4,
        measure_serial_ms: Some(34006.0),
    },
    InferenceBenchPoint {
        scenario: "wan-1k",
        pieces: 128,
        iterations: 50,
        baseline_serial_ms: Some(7699.0),
        measure_threads: 4,
        measure_serial_ms: None,
    },
    InferenceBenchPoint {
        scenario: "edge-2k",
        pieces: 64,
        iterations: 10,
        baseline_serial_ms: Some(1783.0),
        measure_threads: 4,
        measure_serial_ms: None,
    },
    // edge-2k's recovery control (same 2048 hosts and 2 Mb/s access tier,
    // 16 sites of 128): both backend families come back nonzero here,
    // pinning the edge-2k zero on cluster-size identifiability.
    InferenceBenchPoint {
        scenario: "edge-2k-wide",
        pieces: 128,
        iterations: 8,
        baseline_serial_ms: None,
        measure_threads: 4,
        measure_serial_ms: None,
    },
    InferenceBenchPoint {
        scenario: "fat-tree-4k",
        pieces: 32,
        iterations: 5,
        baseline_serial_ms: None,
        measure_threads: 4,
        measure_serial_ms: None,
    },
];

/// Master seed shared by every inference-bench campaign.
pub const INFERENCE_BENCH_SEED: u64 = 2012;

/// Name of the inference benchmark artifact.
pub const INFERENCE_BENCH_FILE: &str = "BENCH_inference.json";

/// The backends compared head-to-head in every inference-bench record's
/// `backends` block: the headline clustering backend and the additive-
/// metrics backend. Their agreement (or disagreement) on a zero-oNMI
/// scenario is the first diagnostic `btt check` reports.
pub const INFERENCE_BENCH_BACKENDS: [Backend; 2] =
    [Backend::Clustering(ClusteringAlgorithm::Louvain), Backend::Additive];

/// Runs one inference-bench point: measure the campaign, time the
/// streaming aggregation and parallel clustering separately, then run every
/// [`INFERENCE_BENCH_BACKENDS`] entry over the final snapshot graph for the
/// per-backend accuracy/cost block. Returns the record as a JSON object
/// (timings in milliseconds).
pub fn run_inference_bench_point(point: &InferenceBenchPoint) -> json::Json {
    use btt_cluster::onmi::onmi_partitions;
    use btt_core::diagnosis::metric_separation;
    use btt_core::pipeline::{auto_metric_graph, convergence_series_timed, SPARSE_NODE_THRESHOLD};
    use btt_netsim::util::splitmix64;
    use std::time::Instant;

    let spec = ScenarioSpec::parse(point.scenario).expect("suite scenarios parse");
    let session = TomographySession::over(spec.build())
        .pieces(point.pieces)
        .iterations(point.iterations)
        .seed(INFERENCE_BENCH_SEED)
        .threads(point.measure_threads);
    let hosts = session.scenario().num_hosts();

    let wall = Instant::now();
    let campaign = session.measure();
    let measure_ms = wall.elapsed().as_secs_f64() * 1e3;

    let (points, timing) = convergence_series_timed(
        &campaign,
        &session.scenario().ground_truth,
        ClusteringAlgorithm::Louvain,
        INFERENCE_BENCH_SEED,
    );
    let last = points.last().expect("at least one iteration");

    // Per-backend accuracy/cost block: every backend infers from the same
    // final snapshot graph with the pipeline's final-partition seed, so each
    // entry is exactly the partition a full session with that backend would
    // report. The separation ratio (mean intra-truth / inter-truth pair
    // weight) is a property of the graph, shared by all backends.
    let truth = &session.scenario().ground_truth;
    let g = auto_metric_graph(&campaign.metric);
    let (_, _, separation_ratio) = metric_separation(&g, truth);
    let backends: Vec<json::Json> = INFERENCE_BENCH_BACKENDS
        .iter()
        .map(|b| {
            let wall = Instant::now();
            let p = b.infer(&g, splitmix64(INFERENCE_BENCH_SEED ^ 0xFFFF_FFFF));
            let infer_ms = wall.elapsed().as_secs_f64() * 1e3;
            json::Json::obj(vec![
                ("backend", json::Json::Str(b.name().to_string())),
                ("final_onmi", json::Json::Float(onmi_partitions(&p, truth))),
                ("final_clusters", json::Json::UInt(p.num_clusters() as u64)),
                ("infer_ms", json::Json::Float(infer_ms)),
            ])
        })
        .collect();

    let (baseline, speedup) = match point.baseline_serial_ms {
        Some(b) => (json::Json::Float(b), json::Json::Float(b / timing.total_ms())),
        None => (json::Json::Null, json::Json::Null),
    };
    // A typed `null` where no serial baseline (or no separation ratio) was
    // recorded. These fields used to mix types in one array — `"n/a"`
    // strings next to floats — which broke numeric consumers; `btt check`
    // now rejects that old encoding.
    let measure_speedup = match point.measure_serial_ms {
        Some(b) => json::Json::Float(b / measure_ms),
        None => json::Json::Null,
    };
    json::Json::obj(vec![
        ("scenario", json::Json::Str(point.scenario.to_string())),
        ("scenario_id", json::Json::Str(spec.id())),
        ("hosts", json::Json::UInt(hosts as u64)),
        ("pieces", json::Json::UInt(point.pieces as u64)),
        ("iterations", json::Json::UInt(point.iterations as u64)),
        ("seed", json::Json::UInt(INFERENCE_BENCH_SEED)),
        ("measure_wall_ms", json::Json::Float(measure_ms)),
        ("measure_threads", json::Json::UInt(point.measure_threads as u64)),
        ("measure_speedup", measure_speedup),
        ("aggregate_ms", json::Json::Float(timing.aggregate_ms)),
        ("cluster_ms", json::Json::Float(timing.cluster_ms)),
        ("inference_wall_ms", json::Json::Float(timing.total_ms())),
        ("metric_nnz_edges", json::Json::UInt(campaign.metric.num_nonzero_edges() as u64)),
        ("pruned", json::Json::Bool(hosts >= SPARSE_NODE_THRESHOLD)),
        ("final_onmi", json::Json::Float(last.onmi)),
        ("final_clusters", json::Json::UInt(last.clusters as u64)),
        ("separation_ratio", separation_ratio.map_or(json::Json::Null, json::Json::Float)),
        ("backends", json::Json::Array(backends)),
        // `measure()` returning means every iteration ran to completion;
        // `btt check` uses this to tell "campaign finished but inference
        // found nothing" (a warning) from a merely truncated artifact.
        ("finished", json::Json::Bool(true)),
        ("baseline_serial_ms", baseline),
        ("speedup_vs_serial", speedup),
    ])
}

/// Schema marker of `BENCH_inference.json`. v2 (backend-refactor PR) added
/// the per-backend accuracy/cost `backends` block and `separation_ratio`
/// per run. `measure_speedup` and `separation_ratio` are each a float or a
/// typed `null` — the short-lived mixed encoding (`"n/a"` strings next to
/// floats) is rejected by `btt check`.
pub const INFERENCE_BENCH_SCHEMA: &str = "btt-inference-bench-v2";

/// Renders the `BENCH_inference.json` document (schema
/// [`INFERENCE_BENCH_SCHEMA`]) for the suite points passing `filter`.
pub fn inference_bench_json(filter: Option<&[String]>) -> json::Json {
    json::Json::obj(vec![
        ("schema", json::Json::Str(INFERENCE_BENCH_SCHEMA.to_string())),
        ("seed", json::Json::UInt(INFERENCE_BENCH_SEED)),
        (
            "note",
            json::Json::Str(
                "full measurement campaign (measure_threads workers, fold \
                 byte-identical to serial) + convergence series per point; \
                 phase-2 timings split into streaming aggregation and parallel \
                 clustering; per-backend block infers from the final snapshot \
                 graph; baseline_serial_ms / measure_serial_ms measured \
                 once on the pre-refactor serial inference / pre-parallel \
                 measurement paths"
                    .to_string(),
            ),
        ),
        (
            "runs",
            json::Json::Array(
                INFERENCE_BENCH_SUITE
                    .iter()
                    .filter(|p| bench_point_selected(p.scenario, filter))
                    .map(run_inference_bench_point)
                    .collect(),
            ),
        ),
    ])
}

/// Number of [`INFERENCE_BENCH_SUITE`] points passing `filter`.
pub fn inference_bench_selected(filter: Option<&[String]>) -> usize {
    INFERENCE_BENCH_SUITE.iter().filter(|p| bench_point_selected(p.scenario, filter)).count()
}

/// Runs the (optionally filtered) inference benchmark and writes
/// `BENCH_inference.json` under `out`. Returns `None` — writing nothing —
/// when the filter selects no suite points: an artifact with an empty
/// `runs` array would be rejected by `btt check`.
pub fn write_inference_bench(out: &Path, filter: Option<&[String]>) -> io::Result<Option<PathBuf>> {
    if inference_bench_selected(filter) == 0 {
        return Ok(None);
    }
    fs::create_dir_all(out)?;
    let path = out.join(INFERENCE_BENCH_FILE);
    fs::write(&path, inference_bench_json(filter).render_pretty())?;
    Ok(Some(path))
}

/// One promoted `zero_onmi` warning: a finished inference-bench run whose
/// headline clustering path scored `final_onmi == 0.0`, annotated with the
/// per-backend diagnostics the v2 records carry — which backends also found
/// nothing, which recovered structure, and how much intra/inter metric
/// contrast the snapshot graph held. The oNMI-0 story is readable from the
/// artifact alone: nonzero backends ⇒ a clustering-side limit; all-zero
/// with a separation ratio near 1 ⇒ the measurements carry no contrast.
#[derive(Debug, Clone, PartialEq)]
pub struct ZeroOnmiWarning {
    /// The run's scenario name.
    pub scenario: String,
    /// Backends that also scored oNMI 0.0 on the final snapshot graph.
    pub zero_backends: Vec<String>,
    /// Backends that recovered nonzero structure.
    pub nonzero_backends: Vec<String>,
    /// The run's `separation_ratio` (`None` when recorded as `null`).
    pub separation_ratio: Option<f64>,
}

impl std::fmt::Display for ZeroOnmiWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: ", self.scenario)?;
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

/// What [`check_inference_bench`] found in a structurally valid document:
/// the run count, plus one [`ZeroOnmiWarning`] per run whose campaign
/// `finished` yet scored `final_onmi == 0.0`. Such a record parses fine —
/// but a completed campaign whose inference recovered *no* structure needs
/// explaining, so `btt check` surfaces each with its per-backend
/// diagnostics rather than silently passing.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceBenchCheck {
    /// Number of runs in the document.
    pub runs: usize,
    /// Warnings for finished runs with `final_onmi == 0.0`. Runs without a
    /// `finished` flag or with `finished: false` are never flagged: an
    /// unfinished campaign scoring zero is expected.
    pub zero_onmi: Vec<ZeroOnmiWarning>,
}

/// Validates a `BENCH_inference.json` document: schema marker, a non-empty
/// `runs` array carrying the trajectory keys, a `measure_speedup` that is a
/// positive number or a typed `null`, a `separation_ratio` that is a number
/// or a typed `null` (the old mixed `"n/a"`-string encoding is rejected for
/// both), and a non-empty per-backend block per run. Returns the
/// [`InferenceBenchCheck`] diagnostics on success.
pub fn check_inference_bench(text: &str) -> Result<InferenceBenchCheck, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc.get("schema").and_then(json::Json::as_str);
    if schema != Some(INFERENCE_BENCH_SCHEMA) {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let runs = doc.get("runs").and_then(json::Json::as_array).ok_or("missing runs array")?;
    if runs.is_empty() {
        return Err("empty runs array".into());
    }
    let mut zero_onmi = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        for key in [
            "scenario",
            "hosts",
            "iterations",
            "seed",
            "measure_threads",
            "aggregate_ms",
            "cluster_ms",
            "inference_wall_ms",
            "final_onmi",
            "measure_speedup",
            "separation_ratio",
            "backends",
        ] {
            if run.get(key).is_none() {
                return Err(format!("run {i} missing key {key:?}"));
            }
        }
        // A missing baseline is a typed `null`; the old mixed encoding
        // (`"n/a"` strings next to floats in one array) and nonsense
        // numbers are corrupt artifacts, not passes.
        match run.get("measure_speedup") {
            Some(json::Json::Float(s)) if s.is_finite() && *s > 0.0 => {}
            Some(json::Json::Null) => {}
            other => {
                return Err(format!(
                    "run {i} measure_speedup must be a positive number or null \
                     (the old \"n/a\" string encoding is invalid), got {:?}",
                    other.map(|v| v.render())
                ));
            }
        }
        match run.get("separation_ratio") {
            Some(json::Json::Float(_) | json::Json::Null) => {}
            other => {
                return Err(format!(
                    "run {i} separation_ratio must be a number or null \
                     (the old \"n/a\" string encoding is invalid), got {:?}",
                    other.map(|v| v.render())
                ));
            }
        }
        let backends = run
            .get("backends")
            .and_then(json::Json::as_array)
            .ok_or("backends must be an array")?;
        if backends.is_empty() {
            return Err(format!("run {i} has an empty backends array"));
        }
        let mut zero_backends = Vec::new();
        let mut nonzero_backends = Vec::new();
        for (j, entry) in backends.iter().enumerate() {
            for key in ["backend", "final_onmi", "final_clusters", "infer_ms"] {
                if entry.get(key).is_none() {
                    return Err(format!("run {i} backend {j} missing key {key:?}"));
                }
            }
            let name = entry.get("backend").and_then(json::Json::as_str).unwrap_or("?").to_string();
            match entry.get("final_onmi").and_then(json::Json::as_f64) {
                Some(0.0) => zero_backends.push(name),
                _ => nonzero_backends.push(name),
            }
        }
        let finished = run.get("finished").and_then(json::Json::as_bool) == Some(true);
        let onmi = run.get("final_onmi").and_then(json::Json::as_f64);
        if finished && onmi == Some(0.0) {
            let scenario = run.get("scenario").and_then(json::Json::as_str).unwrap_or("?");
            zero_onmi.push(ZeroOnmiWarning {
                scenario: scenario.to_string(),
                zero_backends,
                nonzero_backends,
                separation_ratio: run.get("separation_ratio").and_then(json::Json::as_f64),
            });
        }
    }
    Ok(InferenceBenchCheck { runs: runs.len(), zero_onmi })
}

/// Validates a `BENCH_engine.json` document: schema marker (v2) plus a
/// non-empty `runs` array whose entries carry the trajectory keys and the
/// per-run `phases` attribution block (phase wall times + hot-path
/// counters) that v2 introduced.
pub fn check_engine_bench(text: &str) -> Result<usize, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc.get("schema").and_then(json::Json::as_str);
    if schema != Some("btt-engine-bench-v2") {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let runs = doc.get("runs").and_then(json::Json::as_array).ok_or("missing runs array")?;
    if runs.is_empty() {
        return Err("empty runs array".into());
    }
    for (i, run) in runs.iter().enumerate() {
        for key in ["scenario", "hosts", "pieces", "seed", "wall_ms", "makespan_sim_s"] {
            if run.get(key).is_none() {
                return Err(format!("run {i} missing key {key:?}"));
            }
        }
        let phases = run.get("phases").ok_or_else(|| format!("run {i} missing key \"phases\""))?;
        for key in ["advance_ms", "solver_ms", "service_ms", "haves_ms", "rechoke_ms"] {
            match phases.get(key).and_then(json::Json::as_f64) {
                Some(v) if v >= 0.0 => {}
                _ => {
                    return Err(format!("run {i} phases.{key} must be a non-negative number"));
                }
            }
        }
        let counters =
            phases.get("counters").ok_or_else(|| format!("run {i} phases missing \"counters\""))?;
        for key in ["events_popped", "marks_fired", "solver_resolves", "piece_picks"] {
            if counters.get(key).is_none() {
                return Err(format!("run {i} phases.counters missing key {key:?}"));
            }
        }
    }
    Ok(runs.len())
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

/// What `btt check` found in a valid artifact directory: artifact counts
/// plus diagnostics that are worth a warning but not a failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckSummary {
    /// Valid report/bench JSON documents.
    pub jsons: usize,
    /// Valid CSV artifacts.
    pub csvs: usize,
    /// Report files whose final partition is structurally degenerate
    /// (all-one-cluster / all-singletons) — valid artifacts, but the run
    /// found no structure at all; `btt check` surfaces each as a warning.
    pub degenerate: Vec<PathBuf>,
    /// Inference-bench runs that finished with `final_onmi == 0.0`,
    /// annotated with per-backend agreement and the separation ratio (see
    /// [`InferenceBenchCheck::zero_onmi`]); surfaced as warnings like
    /// `degenerate`.
    pub zero_onmi: Vec<ZeroOnmiWarning>,
}

/// Validates every campaign artifact in `dir`: `.json` files must parse as
/// [`btt_core::serialize::REPORT_SCHEMA`] records, `.csv` files must parse
/// with consistent column counts. Only files matching the campaign naming
/// patterns are examined — unrelated files sharing the extensions are
/// ignored, consistent with [`write_outputs`] preserving them. Returns the
/// [`CheckSummary`] (counts + degenerate-report diagnostics) or the first
/// failure, which always names the offending file.
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
    let (mut jsons, mut csvs) = (0usize, 0usize);
    let mut degenerate = Vec::new();
    for path in entries {
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => {
                let text = read(&path)?;
                let value = json::parse(&text).map_err(|e| invalid(&path, e.to_string()))?;
                let record =
                    ReportRecord::from_json(&value).map_err(|e| invalid(&path, e.to_string()))?;
                if record.degenerate_partition {
                    degenerate.push(path.clone());
                }
                jsons += 1;
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
    // The engine and inference benchmarks ride along when present (written
    // by `btt sweep --bench`): validate their schemas and trajectory keys
    // too.
    let bench_path = dir.join(BENCH_FILE);
    if bench_path.exists() {
        let text = read(&bench_path)?;
        check_engine_bench(&text).map_err(|e| invalid(&bench_path, e))?;
        jsons += 1;
    }
    let inference_path = dir.join(INFERENCE_BENCH_FILE);
    let mut zero_onmi = Vec::new();
    if inference_path.exists() {
        let text = read(&inference_path)?;
        let chk = check_inference_bench(&text).map_err(|e| invalid(&inference_path, e))?;
        zero_onmi = chk.zero_onmi;
        jsons += 1;
    }
    if jsons == 0 && csvs == 0 {
        return Err(CheckError::NoArtifacts { dir: dir.to_path_buf() });
    }
    Ok(CheckSummary { jsons, csvs, degenerate, zero_onmi })
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
    fn inference_bench_point_runs_and_validates() {
        // A miniature point exercises the exact code path the scale suite
        // uses, in milliseconds instead of minutes.
        let point = InferenceBenchPoint {
            scenario: "star:3x6:0.1:6",
            pieces: 48,
            iterations: 3,
            baseline_serial_ms: Some(100.0),
            measure_threads: 2,
            measure_serial_ms: Some(100.0),
        };
        let record = run_inference_bench_point(&point);
        assert_eq!(record.get("hosts").and_then(json::Json::as_u64), Some(24));
        assert_eq!(record.get("iterations").and_then(json::Json::as_u64), Some(3));
        assert_eq!(record.get("pruned"), Some(&json::Json::Bool(false)));
        assert!(record.get("aggregate_ms").is_some());
        assert!(record.get("speedup_vs_serial").is_some());
        assert_eq!(record.get("measure_threads").and_then(json::Json::as_u64), Some(2));
        assert!(record.get("measure_speedup").and_then(json::Json::as_f64).is_some());
        assert_eq!(record.get("finished"), Some(&json::Json::Bool(true)));
        // The per-backend block carries one entry per suite backend, each
        // with its accuracy/cost columns.
        let backends = record.get("backends").and_then(json::Json::as_array).unwrap();
        assert_eq!(backends.len(), INFERENCE_BENCH_BACKENDS.len());
        for (entry, b) in backends.iter().zip(INFERENCE_BENCH_BACKENDS) {
            assert_eq!(entry.get("backend").and_then(json::Json::as_str), Some(b.name()));
            assert!(entry.get("final_onmi").and_then(json::Json::as_f64).is_some());
            assert!(entry.get("infer_ms").and_then(json::Json::as_f64).is_some());
        }
        let zero = record.get("final_onmi").and_then(json::Json::as_f64) == Some(0.0);
        let doc = json::Json::obj(vec![
            ("schema", json::Json::Str(INFERENCE_BENCH_SCHEMA.into())),
            ("seed", json::Json::UInt(INFERENCE_BENCH_SEED)),
            ("runs", json::Json::Array(vec![record])),
        ]);
        let chk = check_inference_bench(&doc.render_pretty()).unwrap();
        assert_eq!(chk.runs, 1);
        // The warning list agrees with whatever the record actually scored.
        assert_eq!(!chk.zero_onmi.is_empty(), zero);
        // Schema and key failures are reported.
        assert!(check_inference_bench("{}").is_err());
        let wrong = json::Json::obj(vec![
            ("schema", json::Json::Str(INFERENCE_BENCH_SCHEMA.into())),
            ("runs", json::Json::Array(vec![json::Json::obj(vec![])])),
        ]);
        assert!(check_inference_bench(&wrong.render_pretty()).unwrap_err().contains("missing key"));
    }

    #[test]
    fn check_flags_finished_runs_with_zero_onmi() {
        // Synthetic artifact: structurally valid runs. Only the one that
        // *finished* with final_onmi == 0.0 may be flagged — a zero score
        // on an unfinished campaign is expected — and the warning must
        // carry the per-backend agreement plus the separation ratio.
        let run = |scenario: &str, onmi: f64, finished: Option<bool>| {
            let backend_entry = |name: &str, b_onmi: f64| {
                json::Json::obj(vec![
                    ("backend", json::Json::Str(name.into())),
                    ("final_onmi", json::Json::Float(b_onmi)),
                    ("final_clusters", json::Json::UInt(4)),
                    ("infer_ms", json::Json::Float(1.0)),
                ])
            };
            let mut fields = vec![
                ("scenario", json::Json::Str(scenario.into())),
                ("hosts", json::Json::UInt(16)),
                ("iterations", json::Json::UInt(2)),
                ("seed", json::Json::UInt(INFERENCE_BENCH_SEED)),
                ("measure_threads", json::Json::UInt(4)),
                ("aggregate_ms", json::Json::Float(1.0)),
                ("cluster_ms", json::Json::Float(1.0)),
                ("inference_wall_ms", json::Json::Float(2.0)),
                ("final_onmi", json::Json::Float(onmi)),
                ("measure_speedup", json::Json::Null),
                ("separation_ratio", json::Json::Float(1.25)),
                (
                    "backends",
                    json::Json::Array(vec![
                        backend_entry("louvain", onmi),
                        backend_entry("additive", 0.61),
                    ]),
                ),
            ];
            if let Some(f) = finished {
                fields.push(("finished", json::Json::Bool(f)));
            }
            json::Json::obj(fields)
        };
        let doc = json::Json::obj(vec![
            ("schema", json::Json::Str(INFERENCE_BENCH_SCHEMA.into())),
            ("seed", json::Json::UInt(INFERENCE_BENCH_SEED)),
            (
                "runs",
                json::Json::Array(vec![
                    run("broken", 0.0, Some(true)),
                    run("aborted", 0.0, Some(false)),
                    run("legacy", 0.0, None),
                    run("healthy", 0.83, Some(true)),
                ]),
            ),
        ]);
        let chk = check_inference_bench(&doc.render_pretty()).unwrap();
        assert_eq!(chk.runs, 4);
        let expected = ZeroOnmiWarning {
            scenario: "broken".to_string(),
            zero_backends: vec!["louvain".to_string()],
            nonzero_backends: vec!["additive".to_string()],
            separation_ratio: Some(1.25),
        };
        assert_eq!(chk.zero_onmi, vec![expected.clone()]);
        let line = expected.to_string();
        assert!(line.contains("disagree") && line.contains("additive"), "{line}");
        assert!(line.contains("separation ratio 1.25"), "{line}");
        // End to end: dropped in a directory, check_outputs carries the
        // warning through to its summary.
        let dir = std::env::temp_dir().join(format!("btt-zero-onmi-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(INFERENCE_BENCH_FILE), doc.render_pretty()).unwrap();
        let summary = check_outputs(&dir).unwrap();
        assert_eq!(summary.zero_onmi, vec![expected]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_rejects_mixed_measure_speedup_encoding() {
        // `measure_speedup` is a positive float or a typed null. The old
        // mixed encoding — `"n/a"` strings next to floats in one array —
        // is a validation error, not a silently-accepted pass.
        let doc = |speedup| inference_bench_doc(speedup, json::Json::Null);
        assert!(check_inference_bench(&doc(json::Json::Null)).is_ok());
        assert!(check_inference_bench(&doc(json::Json::Float(3.25))).is_ok());
        for bad in
            [json::Json::Str("n/a".into()), json::Json::Float(-1.0), json::Json::Str("fast".into())]
        {
            let err = check_inference_bench(&doc(bad)).unwrap_err();
            assert!(err.contains("measure_speedup"), "{err}");
        }
    }

    #[test]
    fn check_rejects_string_separation_ratio() {
        // `separation_ratio` is a float or a typed null, like
        // `measure_speedup`; the old `"n/a"` string is rejected.
        let doc = |ratio| inference_bench_doc(json::Json::Null, ratio);
        assert!(check_inference_bench(&doc(json::Json::Null)).is_ok());
        assert!(check_inference_bench(&doc(json::Json::Float(1.25))).is_ok());
        for bad in [json::Json::Str("n/a".into()), json::Json::Bool(true)] {
            let err = check_inference_bench(&doc(bad)).unwrap_err();
            assert!(err.contains("separation_ratio"), "{err}");
        }
    }

    /// A minimal structurally-valid v2 document with one run carrying the
    /// given `measure_speedup` and `separation_ratio`.
    fn inference_bench_doc(speedup: json::Json, separation_ratio: json::Json) -> String {
        let run = json::Json::obj(vec![
            ("scenario", json::Json::Str("synthetic".into())),
            ("hosts", json::Json::UInt(16)),
            ("iterations", json::Json::UInt(2)),
            ("seed", json::Json::UInt(INFERENCE_BENCH_SEED)),
            ("measure_threads", json::Json::UInt(4)),
            ("aggregate_ms", json::Json::Float(1.0)),
            ("cluster_ms", json::Json::Float(1.0)),
            ("inference_wall_ms", json::Json::Float(2.0)),
            ("final_onmi", json::Json::Float(0.9)),
            ("measure_speedup", speedup),
            ("separation_ratio", separation_ratio),
            (
                "backends",
                json::Json::Array(vec![json::Json::obj(vec![
                    ("backend", json::Json::Str("louvain".into())),
                    ("final_onmi", json::Json::Float(0.9)),
                    ("final_clusters", json::Json::UInt(4)),
                    ("infer_ms", json::Json::Float(1.0)),
                ])]),
            ),
        ]);
        json::Json::obj(vec![
            ("schema", json::Json::Str(INFERENCE_BENCH_SCHEMA.into())),
            ("seed", json::Json::UInt(INFERENCE_BENCH_SEED)),
            ("runs", json::Json::Array(vec![run])),
        ])
        .render_pretty()
    }

    #[test]
    fn bench_point_filter_semantics() {
        assert!(bench_point_selected("fat-tree-1k", None));
        assert!(bench_point_selected("fat-tree-1k", Some(&[])));
        let names = vec!["FAT-TREE-1K".to_string(), "wan-1k".to_string()];
        assert!(bench_point_selected("fat-tree-1k", Some(&names)), "case-insensitive");
        assert!(!bench_point_selected("edge-2k", Some(&names)));
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
