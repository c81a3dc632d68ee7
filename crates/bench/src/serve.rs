//! `btt serve` — tomography as a long-running service.
//!
//! A daemon loop accepting campaign jobs over a newline-delimited-JSON TCP
//! socket (schema [`SERVE_SCHEMA`]). Each submitted job runs as its own
//! worker thread driving a streaming [`LiveSession`]: broadcasts complete
//! one at a time, observations fold into the live metric, and the session
//! re-clusters on its cadence — so a `snapshot` request answered mid-job
//! returns the freshest scored partition with the reliability confidence
//! fields, not a stale batch result. Completed jobs write the standard
//! campaign artifacts (report JSON + convergence CSV, and `summary.csv` at
//! shutdown), so `btt check` validates a serve output directory exactly
//! like a sweep's.
//!
//! # Wire protocol (`btt-serve-v1`)
//!
//! One JSON object per line, one response line per request:
//!
//! | request `kind` | fields                  | response                      |
//! |----------------|-------------------------|-------------------------------|
//! | `ping`         | —                       | `{"ok":true,"kind":"pong"}`   |
//! | `submit`       | `job` (see [`JobSpec`]) | `job_id` + canonical scenario |
//! | `status`       | `job_id`                | state + received/expected     |
//! | `snapshot`     | `job_id`                | latest partition snapshot     |
//! | `report`       | `job_id`                | the finished report record    |
//! | `list`         | —                       | all jobs, id order            |
//! | `shutdown`     | —                       | ack, then the daemon drains   |
//!
//! Every request must carry `"schema": "btt-serve-v1"`. Malformed requests
//! get typed errors naming the offending field (`{"ok":false,"error":
//! {"kind":...,"field":...,"message":...}}`) — see [`ServeError`] — and
//! never take the daemon down.

use crate::campaign::summary_csv;
use btt_core::backend::Backend;
use btt_core::scenarios::ScenarioSpec;
use btt_core::serialize::{convergence_csv, json::Json, partition_to_json, ReportRecord};
use btt_core::session::{PartitionSnapshot, SessionPhase, TomographySession};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Version tag every `btt serve` request and response carries.
pub const SERVE_SCHEMA: &str = "btt-serve-v1";

/// A malformed or unanswerable request, rejected at the protocol boundary.
///
/// Mirrors the `CheckError` style: typed variants that name the offending
/// field (or job), mapped onto the wire as `{"ok":false,"error":{...}}` —
/// never an `unwrap` or a bare string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request envelope is malformed: `field` is missing or carries the
    /// wrong type/value.
    MalformedRequest {
        /// The offending envelope field (e.g. `schema`, `kind`, `job_id`).
        field: String,
        /// What was wrong with it.
        message: String,
    },
    /// The request `kind` is none of the protocol's verbs.
    UnknownRequestKind {
        /// The unrecognized kind.
        kind: String,
    },
    /// A `submit` request's job spec is malformed: `field` is missing,
    /// mistyped, out of range, or not a spec field at all.
    MalformedJobSpec {
        /// The offending `job` field (e.g. `scenario`, `iterations`).
        field: String,
        /// What was wrong with it.
        message: String,
    },
    /// The named job does not exist.
    UnknownJob {
        /// The job id the request named.
        job_id: u64,
    },
    /// A `report` request arrived before the job finished.
    ReportNotReady {
        /// The job id the request named.
        job_id: u64,
        /// The job's current state name.
        state: String,
    },
    /// A `submit` arrived after `shutdown`.
    ShuttingDown,
}

impl ServeError {
    /// Stable machine-readable error kind for the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::MalformedRequest { .. } => "malformed_request",
            ServeError::UnknownRequestKind { .. } => "unknown_request_kind",
            ServeError::MalformedJobSpec { .. } => "malformed_job_spec",
            ServeError::UnknownJob { .. } => "unknown_job",
            ServeError::ReportNotReady { .. } => "report_not_ready",
            ServeError::ShuttingDown => "shutting_down",
        }
    }

    /// The wire form: `{"schema":...,"ok":false,"error":{...}}`.
    pub fn to_response(&self) -> Json {
        let mut fields = vec![("kind", Json::Str(self.kind().to_string()))];
        match self {
            ServeError::MalformedRequest { field, .. }
            | ServeError::MalformedJobSpec { field, .. } => {
                fields.push(("field", Json::Str(field.clone())));
            }
            ServeError::UnknownRequestKind { kind } => {
                fields.push(("request_kind", Json::Str(kind.clone())));
            }
            ServeError::UnknownJob { job_id } | ServeError::ReportNotReady { job_id, .. } => {
                fields.push(("job_id", Json::UInt(*job_id)));
            }
            ServeError::ShuttingDown => {}
        }
        fields.push(("message", Json::Str(self.to_string())));
        Json::obj(vec![
            ("schema", Json::Str(SERVE_SCHEMA.to_string())),
            ("ok", Json::Bool(false)),
            ("error", Json::obj(fields)),
        ])
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::MalformedRequest { field, message } => {
                write!(f, "malformed request field {field:?}: {message}")
            }
            ServeError::UnknownRequestKind { kind } => {
                write!(
                    f,
                    "unknown request kind {kind:?} (expected ping, submit, status, snapshot, \
                     report, list, or shutdown)"
                )
            }
            ServeError::MalformedJobSpec { field, message } => {
                write!(f, "malformed job spec field {field:?}: {message}")
            }
            ServeError::UnknownJob { job_id } => write!(f, "no such job {job_id}"),
            ServeError::ReportNotReady { job_id, state } => {
                write!(f, "job {job_id} has no report yet (state: {state})")
            }
            ServeError::ShuttingDown => write!(f, "daemon is shutting down; submit rejected"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A fully-validated campaign job, as parsed from a `submit` request's
/// `job` object. Field names on the wire match the struct fields
/// (`scenario` is the spec string, e.g. `"wan-512+churn=0.05"`).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The scenario to measure (required).
    pub scenario: ScenarioSpec,
    /// Phase-2 inference backend (optional, default `louvain`; the wire
    /// accepts the key as `backend` or, for pre-backend clients,
    /// `algorithm`).
    pub backend: Backend,
    /// Master seed (optional, default 2012).
    pub seed: u64,
    /// Broadcast iterations (optional, default: the scenario's own count).
    pub iterations: Option<u32>,
    /// File size in 16 KiB fragments (optional, default 256).
    pub pieces: u32,
    /// Streaming re-cluster cadence (optional, default 1 — every run).
    pub recluster_every: u32,
    /// Measurement worker threads (optional, default 0 = auto, 1 = serial).
    /// A wall-clock knob only: the report is byte-identical for every value.
    pub threads: usize,
}

impl JobSpec {
    /// Parses and validates a `job` object, naming the offending field on
    /// any failure. Unknown fields are errors too — a typo'd option must
    /// not silently fall back to a default.
    pub fn from_json(v: &Json) -> Result<JobSpec, ServeError> {
        let bad = |field: &str, message: String| ServeError::MalformedJobSpec {
            field: field.to_string(),
            message,
        };
        let Json::Object(fields) = v else {
            return Err(bad("job", "expected an object".to_string()));
        };
        for (key, _) in fields {
            if !matches!(
                key.as_str(),
                "scenario"
                    | "backend"
                    | "algorithm"
                    | "seed"
                    | "iterations"
                    | "pieces"
                    | "recluster_every"
                    | "threads"
            ) {
                return Err(bad(key, "not a job spec field".to_string()));
            }
        }
        let scenario_str = v
            .get("scenario")
            .ok_or_else(|| bad("scenario", "missing (required)".to_string()))?
            .as_str()
            .ok_or_else(|| bad("scenario", "expected a spec string".to_string()))?;
        let scenario = ScenarioSpec::parse(scenario_str).map_err(|e| bad("scenario", e))?;
        // `backend` is the field's name; `algorithm` is honored as an alias
        // for pre-backend clients. Naming both is ambiguous, so it errors.
        if v.get("backend").is_some() && v.get("algorithm").is_some() {
            return Err(bad("backend", "give either backend or algorithm, not both".to_string()));
        }
        let backend_key = if v.get("algorithm").is_some() { "algorithm" } else { "backend" };
        let backend = match v.get(backend_key) {
            None => Backend::default(),
            Some(a) => {
                let name =
                    a.as_str().ok_or_else(|| bad(backend_key, "expected a string".to_string()))?;
                Backend::from_name(name).ok_or_else(|| {
                    bad(
                        backend_key,
                        format!(
                            "unknown backend {name:?}; valid backends: {}",
                            Backend::name_list()
                        ),
                    )
                })?
            }
        };
        let u32_field = |key: &str, min: u32| -> Result<Option<u32>, ServeError> {
            match v.get(key) {
                None => Ok(None),
                Some(j) => j
                    .as_u64()
                    .and_then(|u| u32::try_from(u).ok())
                    .filter(|&u| u >= min)
                    .map(Some)
                    .ok_or_else(|| bad(key, format!("expected an integer >= {min}"))),
            }
        };
        let seed = match v.get("seed") {
            None => 2012,
            Some(j) => {
                j.as_u64().ok_or_else(|| bad("seed", "expected an unsigned integer".to_string()))?
            }
        };
        let threads = match v.get("threads") {
            None => 0,
            Some(j) => j
                .as_u64()
                .and_then(|u| usize::try_from(u).ok())
                .ok_or_else(|| bad("threads", "expected an unsigned integer".to_string()))?,
        };
        Ok(JobSpec {
            scenario,
            backend,
            seed,
            iterations: u32_field("iterations", 1)?,
            pieces: u32_field("pieces", 1)?.unwrap_or(256),
            recluster_every: u32_field("recluster_every", 1)?.unwrap_or(1),
            threads,
        })
    }

    /// The session this job configures.
    fn session(&self) -> TomographySession {
        let mut session = TomographySession::over(self.scenario.build())
            .pieces(self.pieces)
            .seed(self.seed)
            .backend(self.backend)
            .recluster_every(self.recluster_every)
            .threads(self.threads);
        if let Some(n) = self.iterations {
            session = session.iterations(n);
        }
        session
    }

    /// The per-job artifact stem (campaign naming plus a job prefix, so two
    /// jobs with identical coordinates cannot collide).
    fn file_stem(&self, job_id: u64) -> String {
        let sanitized = self.scenario.id().replace([':', '+', '='], "-");
        format!("job{job_id}__{sanitized}__{}__s{}", self.backend.name(), self.seed)
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Measuring,
    Complete,
    Failed(String),
}

impl JobStatus {
    fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Measuring => "measuring",
            JobStatus::Complete => "complete",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// Mutable per-job state, shared between the job's worker thread (writer)
/// and connection threads (readers). Snapshots are *copies* published by
/// the worker after each observation, so readers never contend with a
/// running simulation.
#[derive(Debug)]
struct JobState {
    status: JobStatus,
    received: u32,
    expected: u32,
    snapshot: Option<PartitionSnapshot>,
    record: Option<ReportRecord>,
}

#[derive(Debug)]
struct Job {
    id: u64,
    spec: JobSpec,
    scenario_id: String,
    state: Mutex<JobState>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

/// Daemon-wide shared state.
#[derive(Debug)]
struct Shared {
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_id: Mutex<u64>,
    shutting_down: AtomicBool,
    out: Option<PathBuf>,
}

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port — the handle reports
    /// the actual one).
    pub addr: String,
    /// Artifact directory; `None` disables artifact writing.
    pub out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { addr: "127.0.0.1:7411".to_string(), out: None }
    }
}

/// Final tally returned by [`ServerHandle::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs ever submitted.
    pub submitted: usize,
    /// Jobs that finished with a report.
    pub completed: usize,
    /// Jobs that failed.
    pub failed: usize,
}

/// A running daemon. Dropping the handle does **not** stop the daemon; call
/// [`ServerHandle::wait`] (blocks until a `shutdown` request) or
/// [`ServerHandle::shutdown`] first.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    accept_thread: JoinHandle<()>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates shutdown programmatically, exactly as a `shutdown` request
    /// would.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared, self.addr);
    }

    /// Blocks until the daemon shuts down, drains every in-flight job,
    /// writes `summary.csv` (when an artifact directory is configured),
    /// and returns the final tally.
    pub fn wait(self) -> io::Result<ServeStats> {
        self.accept_thread.join().expect("accept thread never panics");
        let jobs: Vec<Arc<Job>> = {
            let table = self.shared.jobs.lock().expect("jobs lock");
            table.values().cloned().collect()
        };
        for job in &jobs {
            if let Some(worker) = job.worker.lock().expect("worker lock").take() {
                worker.join().expect("job workers never panic");
            }
        }
        let mut completed = 0usize;
        let mut failed = 0usize;
        let mut records = Vec::new();
        for job in &jobs {
            let state = job.state.lock().expect("state lock");
            match &state.status {
                JobStatus::Complete => {
                    completed += 1;
                    if let Some(record) = &state.record {
                        records.push(record.clone());
                    }
                }
                JobStatus::Failed(_) => failed += 1,
                _ => {}
            }
        }
        if let Some(out) = &self.shared.out {
            if !records.is_empty() {
                std::fs::create_dir_all(out)?;
                std::fs::write(out.join("summary.csv"), summary_csv(&records))?;
            }
        }
        Ok(ServeStats { submitted: jobs.len(), completed, failed })
    }
}

/// Sets the shutdown flag and pokes the accept loop awake with a throwaway
/// connection so it observes the flag.
fn begin_shutdown(shared: &Shared, addr: SocketAddr) {
    if !shared.shutting_down.swap(true, Ordering::SeqCst) {
        drop(TcpStream::connect(addr));
    }
}

/// Starts the daemon: binds the socket and spawns the accept loop. Returns
/// immediately; drive the daemon to completion with [`ServerHandle::wait`].
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    if let Some(out) = &config.out {
        std::fs::create_dir_all(out)?;
    }
    let shared = Arc::new(Shared {
        jobs: Mutex::new(BTreeMap::new()),
        next_id: Mutex::new(1),
        shutting_down: AtomicBool::new(false),
        out: config.out,
    });
    let accept_shared = shared.clone();
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn_shared = accept_shared.clone();
            std::thread::spawn(move || handle_connection(conn_shared, addr, stream));
        }
    });
    Ok(ServerHandle { addr, accept_thread, shared })
}

/// One connection: read request lines, answer each with one response line.
/// I/O errors (client gone) end the connection; malformed requests get
/// typed error responses and the connection lives on.
fn handle_connection(shared: Arc<Shared>, addr: SocketAddr, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = io::BufWriter::new(write_half);
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_request(&shared, addr, &line);
        let mut text = response.render();
        text.push('\n');
        if writer.write_all(text.as_bytes()).and_then(|()| writer.flush()).is_err() {
            break;
        }
    }
}

/// An `{"ok":true}` response envelope with `kind` plus extra fields.
fn ok_response(kind: &str, extra: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("schema", Json::Str(SERVE_SCHEMA.to_string())),
        ("ok", Json::Bool(true)),
        ("kind", Json::Str(kind.to_string())),
    ];
    fields.extend(extra);
    Json::obj(fields)
}

/// Parses and dispatches one request line. Pure apart from job spawning:
/// always returns exactly one response document.
fn handle_request(shared: &Arc<Shared>, addr: SocketAddr, line: &str) -> Json {
    match dispatch(shared, addr, line) {
        Ok(response) => response,
        Err(e) => e.to_response(),
    }
}

fn dispatch(shared: &Arc<Shared>, addr: SocketAddr, line: &str) -> Result<Json, ServeError> {
    let bad = |field: &str, message: String| ServeError::MalformedRequest {
        field: field.to_string(),
        message,
    };
    let request = btt_core::serialize::json::parse(line)
        .map_err(|e| bad("request", format!("not a JSON document: {e}")))?;
    let schema = request
        .get("schema")
        .ok_or_else(|| bad("schema", "missing (required on every request)".to_string()))?
        .as_str()
        .ok_or_else(|| bad("schema", "expected a string".to_string()))?;
    if schema != SERVE_SCHEMA {
        return Err(bad(
            "schema",
            format!("unsupported schema {schema:?} (want {SERVE_SCHEMA:?})"),
        ));
    }
    let kind = request
        .get("kind")
        .ok_or_else(|| bad("kind", "missing (required on every request)".to_string()))?
        .as_str()
        .ok_or_else(|| bad("kind", "expected a string".to_string()))?;
    let job_id_field = || -> Result<u64, ServeError> {
        request
            .get("job_id")
            .ok_or_else(|| bad("job_id", "missing (required for this kind)".to_string()))?
            .as_u64()
            .ok_or_else(|| bad("job_id", "expected an unsigned integer".to_string()))
    };
    match kind {
        "ping" => Ok(ok_response("pong", vec![])),
        "submit" => {
            let job = request
                .get("job")
                .ok_or_else(|| bad("job", "missing (required for submit)".to_string()))?;
            submit(shared, JobSpec::from_json(job)?)
        }
        "status" => status(shared, job_id_field()?),
        "snapshot" => snapshot(shared, job_id_field()?),
        "report" => report(shared, job_id_field()?),
        "list" => Ok(list(shared)),
        "shutdown" => {
            let submitted = shared.jobs.lock().expect("jobs lock").len();
            begin_shutdown(shared, addr);
            Ok(ok_response("shutdown", vec![("jobs_submitted", Json::UInt(submitted as u64))]))
        }
        other => Err(ServeError::UnknownRequestKind { kind: other.to_string() }),
    }
}

fn get_job(shared: &Shared, job_id: u64) -> Result<Arc<Job>, ServeError> {
    shared
        .jobs
        .lock()
        .expect("jobs lock")
        .get(&job_id)
        .cloned()
        .ok_or(ServeError::UnknownJob { job_id })
}

/// Registers the job and spawns its worker thread.
fn submit(shared: &Arc<Shared>, spec: JobSpec) -> Result<Json, ServeError> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Err(ServeError::ShuttingDown);
    }
    let id = {
        let mut next = shared.next_id.lock().expect("id lock");
        let id = *next;
        *next += 1;
        id
    };
    let scenario_id = spec.scenario.id();
    let job = Arc::new(Job {
        id,
        spec: spec.clone(),
        scenario_id: scenario_id.clone(),
        state: Mutex::new(JobState {
            status: JobStatus::Queued,
            received: 0,
            expected: 0,
            snapshot: None,
            record: None,
        }),
        worker: Mutex::new(None),
    });
    shared.jobs.lock().expect("jobs lock").insert(id, job.clone());
    let worker_shared = shared.clone();
    let worker_job = job.clone();
    let worker = std::thread::spawn(move || run_job(worker_shared, worker_job));
    *job.worker.lock().expect("worker lock") = Some(worker);
    Ok(ok_response(
        "submitted",
        vec![("job_id", Json::UInt(id)), ("scenario", Json::Str(scenario_id))],
    ))
}

/// The worker: stream one broadcast at a time into a live session,
/// publishing (received, snapshot) after every observation, then finalize
/// and write artifacts.
fn run_job(shared: Arc<Shared>, job: Arc<Job>) {
    let session = job.spec.session();
    let mut live = session.live();
    let expected = match live.phase() {
        SessionPhase::Measuring { expected, .. } => expected,
        SessionPhase::Complete { iterations } => iterations,
    };
    {
        let mut state = job.state.lock().expect("state lock");
        state.status = JobStatus::Measuring;
        state.expected = expected;
    }
    session.stream_into(1, &mut |obs| {
        // The session owns the heavy state; only the published copy is
        // behind the lock, so snapshot requests never wait on a broadcast.
        if live.observe(obs).is_err() {
            return; // stream violated its own ordering contract; keep going
        }
        let mut state = job.state.lock().expect("state lock");
        state.received += 1;
        state.snapshot = live.current_best().cloned();
    });
    match live.finalize() {
        Ok(report) => {
            let record = ReportRecord::new(&report, job.spec.pieces);
            let write_result = write_job_artifacts(&shared, &job, &record);
            let mut state = job.state.lock().expect("state lock");
            match write_result {
                Ok(()) => {
                    state.record = Some(record);
                    state.status = JobStatus::Complete;
                }
                Err(e) => state.status = JobStatus::Failed(format!("writing artifacts: {e}")),
            }
        }
        Err(e) => {
            let mut state = job.state.lock().expect("state lock");
            state.status = JobStatus::Failed(e.to_string());
        }
    }
}

/// Writes the per-job report JSON + convergence CSV (campaign formats).
fn write_job_artifacts(shared: &Shared, job: &Job, record: &ReportRecord) -> io::Result<()> {
    let Some(out) = &shared.out else { return Ok(()) };
    let stem = job.spec.file_stem(job.id);
    std::fs::write(out.join(format!("{stem}.json")), record.to_json().render_pretty())?;
    std::fs::write(out.join(format!("{stem}.convergence.csv")), convergence_csv(record))?;
    Ok(())
}

/// Shared job summary fields (status/list responses).
fn job_fields(job: &Job, state: &JobState) -> Vec<(&'static str, Json)> {
    vec![
        ("job_id", Json::UInt(job.id)),
        ("scenario", Json::Str(job.scenario_id.clone())),
        ("backend", Json::Str(job.spec.backend.name().to_string())),
        ("seed", Json::UInt(job.spec.seed)),
        ("state", Json::Str(state.status.name().to_string())),
        ("received", Json::UInt(state.received as u64)),
        ("expected", Json::UInt(state.expected as u64)),
    ]
}

fn status(shared: &Shared, job_id: u64) -> Result<Json, ServeError> {
    let job = get_job(shared, job_id)?;
    let state = job.state.lock().expect("state lock");
    let mut fields = job_fields(&job, &state);
    if let JobStatus::Failed(reason) = &state.status {
        fields.push(("failure", Json::Str(reason.clone())));
    }
    fields.push((
        "snapshot_iterations",
        state.snapshot.as_ref().map_or(Json::Null, |s| Json::UInt(s.point.iterations as u64)),
    ));
    Ok(ok_response("status", fields))
}

fn snapshot(shared: &Shared, job_id: u64) -> Result<Json, ServeError> {
    let job = get_job(shared, job_id)?;
    let state = job.state.lock().expect("state lock");
    let Some(snap) = &state.snapshot else {
        return Ok(ok_response(
            "snapshot",
            vec![("job_id", Json::UInt(job_id)), ("available", Json::Bool(false))],
        ));
    };
    Ok(ok_response(
        "snapshot",
        vec![
            ("job_id", Json::UInt(job_id)),
            ("available", Json::Bool(true)),
            ("iterations", Json::UInt(snap.point.iterations as u64)),
            ("onmi", Json::Float(snap.point.onmi)),
            ("nmi", Json::Float(snap.point.nmi)),
            ("clusters", Json::UInt(snap.point.clusters as u64)),
            ("modularity", Json::Float(snap.point.modularity)),
            ("degenerate", Json::Bool(snap.degenerate)),
            ("hosts_lost", Json::UInt(snap.reliability.hosts_lost)),
            ("pairs_unobserved", Json::UInt(snap.reliability.pairs_unobserved)),
            ("pair_coverage", Json::Float(snap.reliability.pair_coverage)),
            ("onmi_observed", Json::Float(snap.reliability.onmi_observed)),
            ("confidence_weighted_onmi", Json::Float(snap.reliability.confidence_weighted_onmi)),
            ("partition", partition_to_json(&snap.partition)),
        ],
    ))
}

fn report(shared: &Shared, job_id: u64) -> Result<Json, ServeError> {
    let job = get_job(shared, job_id)?;
    let state = job.state.lock().expect("state lock");
    match &state.record {
        Some(record) => Ok(ok_response(
            "report",
            vec![("job_id", Json::UInt(job_id)), ("report", record.to_json())],
        )),
        None => Err(ServeError::ReportNotReady { job_id, state: state.status.name().to_string() }),
    }
}

fn list(shared: &Shared) -> Json {
    let jobs: Vec<Arc<Job>> = shared.jobs.lock().expect("jobs lock").values().cloned().collect();
    let rows = jobs
        .iter()
        .map(|job| {
            let state = job.state.lock().expect("state lock");
            Json::obj(job_fields(job, &state))
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str(SERVE_SCHEMA.to_string())),
        ("ok", Json::Bool(true)),
        ("kind", Json::Str("list".to_string())),
        ("jobs", Json::Array(rows)),
    ])
}

/// A blocking NDJSON client for the daemon — one connection, one
/// request/response pair per call. Used by `btt stress` and the smoke
/// tests; handy for any tooling speaking `btt-serve-v1` from Rust.
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connects to a running daemon.
    pub fn connect(addr: &SocketAddr) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient { reader, writer: stream })
    }

    /// Sends one request document and reads the one-line response.
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        let mut text = request.render();
        text.push('\n');
        self.writer.write_all(text.as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed connection"));
        }
        btt_core::serialize::json::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// A request envelope with the schema tag pre-filled.
    pub fn envelope(kind: &str, extra: Vec<(&str, Json)>) -> Json {
        let mut fields = vec![
            ("schema", Json::Str(SERVE_SCHEMA.to_string())),
            ("kind", Json::Str(kind.to_string())),
        ];
        fields.extend(extra);
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start() -> ServerHandle {
        serve(ServeConfig { addr: "127.0.0.1:0".to_string(), out: None }).expect("bind")
    }

    fn small_job() -> Json {
        Json::obj(vec![
            ("scenario", Json::Str("star:2x3:0.2:3".to_string())),
            ("iterations", Json::UInt(2)),
            ("pieces", Json::UInt(48)),
        ])
    }

    #[test]
    fn protocol_round_trip_submit_status_report() {
        let server = start();
        let mut client = ServeClient::connect(&server.addr()).unwrap();
        let pong = client.request(&ServeClient::envelope("ping", vec![])).unwrap();
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

        let sub =
            client.request(&ServeClient::envelope("submit", vec![("job", small_job())])).unwrap();
        assert_eq!(sub.get("ok").and_then(Json::as_bool), Some(true), "{sub:?}");
        let job_id = sub.get("job_id").and_then(Json::as_u64).unwrap();

        // Poll to completion (a 6-host 48-piece job takes well under a
        // second; the loop bound only guards against a hung daemon).
        let mut state = String::new();
        for _ in 0..2000 {
            let status = client
                .request(&ServeClient::envelope("status", vec![("job_id", Json::UInt(job_id))]))
                .unwrap();
            state = status.get("state").and_then(Json::as_str).unwrap().to_string();
            if state == "complete" || state == "failed" {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(state, "complete");

        let report = client
            .request(&ServeClient::envelope("report", vec![("job_id", Json::UInt(job_id))]))
            .unwrap();
        let record = ReportRecord::from_json(report.get("report").unwrap()).unwrap();
        assert_eq!(record.convergence.len(), 2);
        // The daemon's record equals the batch pipeline's for the same spec.
        let batch = crate::campaign::RunSpec {
            scenario: ScenarioSpec::parse("star:2x3:0.2:3").unwrap(),
            backend: Backend::default(),
            seed: 2012,
            iterations: Some(2),
            pieces: 48,
            threads: 0,
        }
        .run();
        assert_eq!(record, batch, "served report is byte-identical to the batch path");

        let down = client.request(&ServeClient::envelope("shutdown", vec![])).unwrap();
        assert_eq!(down.get("ok").and_then(Json::as_bool), Some(true));
        let stats = server.wait().unwrap();
        assert_eq!(stats, ServeStats { submitted: 1, completed: 1, failed: 0 });
    }

    #[test]
    fn typed_errors_name_the_offending_field() {
        let server = start();
        let mut client = ServeClient::connect(&server.addr()).unwrap();

        // Not JSON at all (raw bytes, bypassing the typed client).
        {
            let mut raw = TcpStream::connect(server.addr()).unwrap();
            raw.write_all(b"{definitely not json\n").unwrap();
            let mut line = String::new();
            BufReader::new(raw.try_clone().unwrap()).read_line(&mut line).unwrap();
            let resp = btt_core::serialize::json::parse(&line).unwrap();
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(
                resp.get("error").and_then(|e| e.get("field")).and_then(Json::as_str),
                Some("request")
            );
        }
        // A JSON document that is not an object has no "schema" field.
        let resp = client.request(&Json::Str("nonsense".to_string())).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            resp.get("error").and_then(|e| e.get("field")).and_then(Json::as_str),
            Some("schema")
        );

        // Wrong schema tag.
        let mut req = ServeClient::envelope("ping", vec![]);
        if let Json::Object(fields) = &mut req {
            fields[0].1 = Json::Str("btt-serve-v999".to_string());
        }
        let resp = client.request(&req).unwrap();
        assert_eq!(
            resp.get("error").and_then(|e| e.get("field")).and_then(Json::as_str),
            Some("schema")
        );

        // Unknown verb.
        let resp = client.request(&ServeClient::envelope("frobnicate", vec![])).unwrap();
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("unknown_request_kind"));
        assert_eq!(err.get("request_kind").and_then(Json::as_str), Some("frobnicate"));

        // Job spec errors name the exact field.
        let cases: Vec<(Json, &str)> = vec![
            (Json::obj(vec![]), "scenario"),
            (Json::obj(vec![("scenario", Json::Str("not-a-spec".to_string()))]), "scenario"),
            (
                Json::obj(vec![
                    ("scenario", Json::Str("2x2".to_string())),
                    ("algorithm", Json::Str("quantum".to_string())),
                ]),
                "algorithm",
            ),
            (
                Json::obj(vec![
                    ("scenario", Json::Str("2x2".to_string())),
                    ("iterations", Json::UInt(0)),
                ]),
                "iterations",
            ),
            (
                Json::obj(vec![
                    ("scenario", Json::Str("2x2".to_string())),
                    ("peices", Json::UInt(64)),
                ]),
                "peices",
            ),
        ];
        for (job, field) in cases {
            let resp =
                client.request(&ServeClient::envelope("submit", vec![("job", job)])).unwrap();
            let err = resp.get("error").expect("submit must fail");
            assert_eq!(err.get("kind").and_then(Json::as_str), Some("malformed_job_spec"));
            assert_eq!(err.get("field").and_then(Json::as_str), Some(field), "{resp:?}");
        }

        // A spec too large to build is refused naming the limit, and the
        // daemon keeps answering.
        let huge = Json::obj(vec![("scenario", Json::Str("wan:100000x100000".to_string()))]);
        let resp = client.request(&ServeClient::envelope("submit", vec![("job", huge)])).unwrap();
        let err = resp.get("error").expect("submit must fail");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("malformed_job_spec"));
        assert_eq!(err.get("field").and_then(Json::as_str), Some("scenario"));
        let message = err.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("MAX_SCENARIO_HOSTS = 65536"), "{message}");
        let pong = client.request(&ServeClient::envelope("ping", vec![])).unwrap();
        assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

        // Unknown job / report-before-complete.
        let resp = client
            .request(&ServeClient::envelope("status", vec![("job_id", Json::UInt(404))]))
            .unwrap();
        assert_eq!(
            resp.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("unknown_job")
        );

        server.shutdown();
        let stats = server.wait().unwrap();
        assert_eq!(stats.submitted, 0);
    }

    #[test]
    fn truncated_request_gets_a_typed_error_and_the_connection_survives() {
        let server = start();
        // A request cut off mid-document (client died mid-write, proxy
        // flushed a partial line): typed parse error, not a dropped
        // connection — the same socket must still serve the next request.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let full = ServeClient::envelope("ping", vec![]).render();
        let truncated = &full[..full.len() / 2];
        raw.write_all(truncated.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = btt_core::serialize::json::parse(&line).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("malformed_request"));
        assert_eq!(err.get("field").and_then(Json::as_str), Some("request"));

        // Same connection, next line: the daemon kept serving.
        let mut ping = ServeClient::envelope("ping", vec![]).render();
        ping.push('\n');
        raw.write_all(ping.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let pong = btt_core::serialize::json::parse(&line).unwrap();
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

        server.shutdown();
        assert_eq!(server.wait().unwrap().submitted, 0);
    }

    #[test]
    fn unknown_job_spec_field_is_rejected_even_when_the_rest_is_valid() {
        let server = start();
        let mut client = ServeClient::connect(&server.addr()).unwrap();
        // An otherwise-complete spec with one unknown knob: rejected, the
        // error names the knob, and nothing was enqueued.
        let mut job = small_job();
        if let Json::Object(fields) = &mut job {
            fields.push(("turbo_mode".to_string(), Json::Bool(true)));
        }
        let resp = client.request(&ServeClient::envelope("submit", vec![("job", job)])).unwrap();
        let err = resp.get("error").expect("submit must fail");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("malformed_job_spec"));
        assert_eq!(err.get("field").and_then(Json::as_str), Some("turbo_mode"));
        let list = client.request(&ServeClient::envelope("list", vec![])).unwrap();
        assert_eq!(list.get("jobs").and_then(Json::as_array).map(<[Json]>::len), Some(0));

        server.shutdown();
        assert_eq!(server.wait().unwrap().submitted, 0);
    }

    #[test]
    fn snapshot_of_an_unknown_job_is_a_typed_error() {
        let server = start();
        let mut client = ServeClient::connect(&server.addr()).unwrap();
        let resp = client
            .request(&ServeClient::envelope("snapshot", vec![("job_id", Json::UInt(9000))]))
            .unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("unknown_job"));
        assert_eq!(err.get("job_id").and_then(Json::as_u64), Some(9000));
        // Typed on the Rust side too, not just the wire.
        assert_eq!(ServeError::UnknownJob { job_id: 9000 }.kind(), "unknown_job");
        // A missing job_id is an envelope error, not an unknown job.
        let resp = client.request(&ServeClient::envelope("snapshot", vec![])).unwrap();
        let err = resp.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("malformed_request"));
        assert_eq!(err.get("field").and_then(Json::as_str), Some("job_id"));

        server.shutdown();
        assert_eq!(server.wait().unwrap().submitted, 0);
    }

    #[test]
    fn shutdown_racing_an_in_flight_job_drains_it_and_rejects_new_submits() {
        let server = start();
        let mut client = ServeClient::connect(&server.addr()).unwrap();
        // A job slow enough (many pieces, several iterations) that the
        // shutdown request lands while it is still measuring.
        let slow = Json::obj(vec![
            ("scenario", Json::Str("star:2x4:0.2:4".to_string())),
            ("iterations", Json::UInt(4)),
            ("pieces", Json::UInt(256)),
        ]);
        let sub = client.request(&ServeClient::envelope("submit", vec![("job", slow)])).unwrap();
        assert_eq!(sub.get("ok").and_then(Json::as_bool), Some(true), "{sub:?}");

        let down = client.request(&ServeClient::envelope("shutdown", vec![])).unwrap();
        assert_eq!(down.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(down.get("jobs_submitted").and_then(Json::as_u64), Some(1));

        // Post-shutdown submits are refused with the typed kind...
        let resp =
            client.request(&ServeClient::envelope("submit", vec![("job", small_job())])).unwrap();
        assert_eq!(
            resp.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("shutting_down")
        );
        // ...but the in-flight job is drained to completion, not dropped.
        let stats = server.wait().unwrap();
        assert_eq!(stats, ServeStats { submitted: 1, completed: 1, failed: 0 });
    }
}
