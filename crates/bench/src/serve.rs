//! `btt serve` — tomography as a long-running service.
//!
//! A daemon loop accepting campaign jobs over a newline-delimited-JSON TCP
//! socket (schema [`SERVE_SCHEMA`]). Each submitted job runs as its own
//! worker thread driving a streaming
//! [`LiveSession`](btt_core::session::LiveSession): broadcasts complete
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

use crate::campaign::{sanitize, summary_csv, write_run_artifacts};
use btt_core::backend::Backend;
use btt_core::scenarios::ScenarioSpec;
use btt_core::serialize::{json::Json, partition_to_json, ReportRecord};
use btt_core::session::{PartitionSnapshot, SessionPhase, TomographySession};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Version tag every `btt serve` request and response carries.
pub const SERVE_SCHEMA: &str = "btt-serve-v1";

/// Most broadcast iterations one job may request. A session allocates its
/// per-iteration state up front, so an unbounded count could exhaust
/// memory before the first broadcast; this is about 100× the largest count
/// any in-repo caller uses.
pub const MAX_JOB_ITERATIONS: u32 = 10_000;

/// Most file fragments one job may request. A broadcast allocates hosts ×
/// pieces availability counters up front, so an unbounded count could
/// exhaust memory before the first transfer; this is about 4× the paper's
/// 15,259-piece file, the largest count any in-repo caller uses.
pub const MAX_JOB_PIECES: u32 = 65_536;

/// Most hosts × pieces one job may request. Each caps its own factor, but a
/// broadcast allocates about 1.4 B per host-piece up front (a 1 B
/// availability counter, a HAVE bit and two bitfield bits), so both at
/// their caps would ask for 5.5 GiB. At this cap a broadcast allocates
/// about 352 MiB; every scale preset fits at the paper's 15,259-piece
/// file (`wan-8k` needs 125 M).
pub const MAX_JOB_HOST_PIECES: u64 = 1 << 28;

/// Longest request line the daemon reads, in bytes, its newline excluded.
/// Job specs are well under 1 KiB; without a bound, a client that never
/// sends a newline would grow one buffer until the daemon aborts on
/// allocation. A longer line gets a typed `malformed_request` error naming
/// `request`, and its connection is closed.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

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
    /// Phase-2 inference backend (optional, default `louvain`).
    pub backend: Backend,
    /// Master seed (optional, default 2012).
    pub seed: u64,
    /// Broadcast iterations (optional, default: the scenario's own count;
    /// at most [`MAX_JOB_ITERATIONS`]).
    pub iterations: Option<u32>,
    /// File size in 16 KiB fragments (optional, default 256; at most
    /// [`MAX_JOB_PIECES`], and at most [`MAX_JOB_HOST_PIECES`] over the
    /// scenario's host count).
    pub pieces: u32,
    /// Streaming re-cluster cadence (optional, default 1 — every run).
    pub recluster_every: u32,
    /// Measurement worker threads (optional, default 0). Has no effect
    /// today: a served job streams one broadcast at a time, and a
    /// one-broadcast chunk runs serially whatever the thread count. The
    /// report is byte-identical for every value.
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
        let backend = match v.get("backend") {
            None => Backend::default(),
            Some(a) => {
                let name =
                    a.as_str().ok_or_else(|| bad("backend", "expected a string".to_string()))?;
                Backend::from_name(name).ok_or_else(|| {
                    bad(
                        "backend",
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
        let iterations = u32_field("iterations", 1)?;
        if iterations.is_some_and(|n| n > MAX_JOB_ITERATIONS) {
            return Err(bad(
                "iterations",
                format!("at most MAX_JOB_ITERATIONS = {MAX_JOB_ITERATIONS} broadcasts per job"),
            ));
        }
        let pieces = u32_field("pieces", 1)?.unwrap_or(256);
        if pieces > MAX_JOB_PIECES {
            return Err(bad(
                "pieces",
                format!("at most MAX_JOB_PIECES = {MAX_JOB_PIECES} fragments per job"),
            ));
        }
        let hosts = scenario.num_hosts();
        if (hosts as u64).saturating_mul(u64::from(pieces)) > MAX_JOB_HOST_PIECES {
            return Err(bad(
                "pieces",
                format!(
                    "{pieces} fragments over {hosts} hosts exceed \
                     MAX_JOB_HOST_PIECES = {MAX_JOB_HOST_PIECES} host-pieces per job"
                ),
            ));
        }
        Ok(JobSpec {
            scenario,
            backend,
            seed,
            iterations,
            pieces,
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
        let scenario = sanitize(&self.scenario.id());
        format!("job{job_id}__{scenario}__{}__s{}", self.backend.name(), self.seed)
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

impl Job {
    /// Locks the job's state. Every update under the lock is a few plain
    /// field writes, each leaving a readable state, so a lock poisoned by a
    /// panicking worker is recovered rather than passed on to the
    /// connection threads that read it.
    fn state(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
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
            let worker = job.worker.lock().expect("worker lock").take();
            if let Some(Err(payload)) = worker.map(JoinHandle::join) {
                job.state().status = JobStatus::Failed(panic_failure(payload.as_ref()));
            }
        }
        let mut completed = 0usize;
        let mut failed = 0usize;
        let mut records = Vec::new();
        for job in &jobs {
            let state = job.state();
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
/// An I/O error (client gone) ends the connection. A malformed request,
/// whether not UTF-8, not JSON or carrying a bad field, gets a typed error
/// response and the connection lives on, except a line over
/// [`MAX_REQUEST_BYTES`]: reading stopped inside it, so its error response
/// is the connection's last.
fn handle_connection(shared: Arc<Shared>, addr: SocketAddr, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        let limit = MAX_REQUEST_BYTES + 1;
        let Ok(n) = reader.by_ref().take(limit as u64).read_until(b'\n', &mut bytes) else {
            break;
        };
        if n == 0 {
            break;
        }
        let over_long = n == limit && bytes.last() != Some(&b'\n');
        let response = if over_long {
            ServeError::MalformedRequest {
                field: "request".to_string(),
                message: format!(
                    "request line longer than MAX_REQUEST_BYTES = {MAX_REQUEST_BYTES} bytes"
                ),
            }
            .to_response()
        } else {
            let Some(response) = answer_line(&shared, addr, &bytes) else { continue };
            response
        };
        let mut text = response.render();
        text.push('\n');
        if writer.write_all(text.as_bytes()).and_then(|()| writer.flush()).is_err() || over_long {
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

/// Decodes and answers one request line, its `\n` or `\r\n` terminator
/// optional: `None` for a blank line, which gets no response, and otherwise
/// exactly one response document. Pure apart from job spawning. A line that
/// is not UTF-8 gets a typed `malformed_request` naming `request` and the
/// offset of its first invalid byte.
fn answer_line(shared: &Arc<Shared>, addr: SocketAddr, bytes: &[u8]) -> Option<Json> {
    let line = match std::str::from_utf8(bytes) {
        Ok(line) => line.strip_suffix('\n').map_or(line, |l| l.strip_suffix('\r').unwrap_or(l)),
        Err(e) => {
            let error = ServeError::MalformedRequest {
                field: "request".to_string(),
                message: format!("not UTF-8: invalid byte at offset {}", e.valid_up_to()),
            };
            return Some(error.to_response());
        }
    };
    if line.trim().is_empty() {
        return None;
    }
    Some(dispatch(shared, addr, line).unwrap_or_else(|e| e.to_response()))
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

/// The worker thread's body. A panic anywhere in the job marks it failed
/// with the panic message instead of ending the thread, so `status` stops
/// reading `measuring` and the daemon drains at `shutdown`.
fn run_job(shared: Arc<Shared>, job: Arc<Job>) {
    if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| measure_job(&shared, &job)))
    {
        job.state().status = JobStatus::Failed(panic_failure(payload.as_ref()));
    }
}

/// The failure reason recorded for a job whose worker panicked.
fn panic_failure(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("job worker panicked: {message}")
}

/// Streams one broadcast at a time into a live session, publishing
/// (received, snapshot) after every observation, then finalizes and writes
/// artifacts.
fn measure_job(shared: &Shared, job: &Job) {
    let session = job.spec.session();
    let mut live = session.live();
    let expected = match live.phase() {
        SessionPhase::Measuring { expected, .. } => expected,
        SessionPhase::Complete { iterations } => iterations,
    };
    {
        let mut state = job.state();
        state.status = JobStatus::Measuring;
        state.expected = expected;
    }
    session.stream_into(1, &mut |obs| {
        // The session owns the heavy state; only the published copy is
        // behind the lock, so snapshot requests never wait on a broadcast.
        if live.observe(obs).is_err() {
            return; // stream violated its own ordering contract; keep going
        }
        let mut state = job.state();
        state.received += 1;
        state.snapshot = live.current_best().cloned();
    });
    match live.finalize() {
        Ok(report) => {
            let record = ReportRecord::new(&report, job.spec.pieces);
            let written = shared.out.as_ref().map_or(Ok(()), |out| {
                write_run_artifacts(out, &job.spec.file_stem(job.id), &record).map(drop)
            });
            let mut state = job.state();
            match written {
                Ok(()) => {
                    state.record = Some(record);
                    state.status = JobStatus::Complete;
                }
                Err(e) => state.status = JobStatus::Failed(format!("writing artifacts: {e}")),
            }
        }
        Err(e) => job.state().status = JobStatus::Failed(e.to_string()),
    }
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
    let state = job.state();
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
    let state = job.state();
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
    let state = job.state();
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
            let state = job.state();
            Json::obj(job_fields(job, &state))
        })
        .collect();
    ok_response("list", vec![("jobs", Json::Array(rows))])
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

    /// Polls `status` until the job leaves `queued`/`measuring` (a small
    /// job takes well under a second; the loop bound only guards against a
    /// hung daemon).
    fn final_status(client: &mut ServeClient, job_id: u64) -> Json {
        for _ in 0..2000 {
            let status = client
                .request(&ServeClient::envelope("status", vec![("job_id", Json::UInt(job_id))]))
                .unwrap();
            let state = status.get("state").and_then(Json::as_str).unwrap();
            if state == "complete" || state == "failed" {
                return status;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("job {job_id} never finished");
    }

    #[test]
    fn protocol_round_trip_submit_status_report() {
        let server = start();
        let mut client = ServeClient::connect(&server.addr()).unwrap();
        let pong = client.request(&ServeClient::envelope("ping", vec![])).unwrap();
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

        // The benchmark's serve workload sends `threads`: it is accepted,
        // and the report below shows it moves nothing.
        let mut job = small_job();
        if let Json::Object(fields) = &mut job {
            fields.push(("threads".to_string(), Json::UInt(1)));
        }
        let sub = client.request(&ServeClient::envelope("submit", vec![("job", job)])).unwrap();
        assert_eq!(sub.get("ok").and_then(Json::as_bool), Some(true), "{sub:?}");
        let job_id = sub.get("job_id").and_then(Json::as_u64).unwrap();

        let status = final_status(&mut client, job_id);
        assert_eq!(status.get("state").and_then(Json::as_str), Some("complete"));

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
                    ("backend", Json::Str("quantum".to_string())),
                ]),
                "backend",
            ),
            // The pre-backend `algorithm` key is gone, not an alias.
            (
                Json::obj(vec![
                    ("scenario", Json::Str("2x2".to_string())),
                    ("algorithm", Json::Str("louvain".to_string())),
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
            if field == "algorithm" {
                let message = err.get("message").and_then(Json::as_str).unwrap();
                assert!(message.contains("not a job spec field"), "{message}");
            }
        }

        // Iteration and piece counts too large to allocate are refused
        // naming the limit, and the daemon keeps answering.
        for (field, limit) in
            [("iterations", "MAX_JOB_ITERATIONS = 10000"), ("pieces", "MAX_JOB_PIECES = 65536")]
        {
            let huge = Json::obj(vec![
                ("scenario", Json::Str("2x2".to_string())),
                (field, Json::UInt(4_000_000_000)),
            ]);
            let resp =
                client.request(&ServeClient::envelope("submit", vec![("job", huge)])).unwrap();
            let err = resp.get("error").expect("submit must fail");
            assert_eq!(err.get("kind").and_then(Json::as_str), Some("malformed_job_spec"));
            assert_eq!(err.get("field").and_then(Json::as_str), Some(field));
            let message = err.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(limit), "{message}");
            let pong = client.request(&ServeClient::envelope("ping", vec![])).unwrap();
            assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));
        }

        // Specs too large to build, or that parse but cannot run (one
        // host, a capacity that overflows), are refused naming the limit,
        // and the daemon keeps answering.
        for (spec, limit) in [
            ("wan:100000x100000", "MAX_SCENARIO_HOSTS = 65536"),
            ("wan:1x1", "MIN_SCENARIO_HOSTS = 2"),
            ("wan:2x2:0.5:1e308", "SCENARIO_ACCESS_MBPS_RANGE"),
        ] {
            let job = Json::obj(vec![("scenario", Json::Str(spec.to_string()))]);
            let resp =
                client.request(&ServeClient::envelope("submit", vec![("job", job)])).unwrap();
            let err = resp.get("error").expect("submit must fail");
            assert_eq!(err.get("kind").and_then(Json::as_str), Some("malformed_job_spec"));
            assert_eq!(err.get("field").and_then(Json::as_str), Some("scenario"));
            let message = err.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(limit), "{spec}: {message}");
            let pong = client.request(&ServeClient::envelope("ping", vec![])).unwrap();
            assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));
        }

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
    fn over_long_request_line_gets_a_typed_error_and_the_daemon_keeps_serving() {
        let server = start();
        // A request of exactly MAX_REQUEST_BYTES before its newline is read.
        let mut client = ServeClient::connect(&server.addr()).unwrap();
        let mut longest = ServeClient::envelope("ping", vec![]).render();
        longest.push_str(&" ".repeat(MAX_REQUEST_BYTES - longest.len()));
        longest.push('\n');
        client.writer.write_all(longest.as_bytes()).unwrap();
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        let pong = btt_core::serialize::json::parse(&line).unwrap();
        assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

        // One byte more and no newline: the daemon stops reading there,
        // answers with a typed error and closes the connection. The read
        // timeout turns a daemon still waiting for a newline into a failure.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
        raw.write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1]).unwrap();
        let mut reader = BufReader::new(raw);
        line.clear();
        reader.read_line(&mut line).unwrap();
        let resp = btt_core::serialize::json::parse(&line).unwrap();
        let err = resp.get("error").expect("an over-long line is an error");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("malformed_request"));
        assert_eq!(err.get("field").and_then(Json::as_str), Some("request"));
        let message = err.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("MAX_REQUEST_BYTES = 1048576"), "{message}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");

        // A new connection is still served.
        let mut client = ServeClient::connect(&server.addr()).unwrap();
        let pong = client.request(&ServeClient::envelope("ping", vec![])).unwrap();
        assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

        server.shutdown();
        assert_eq!(server.wait().unwrap().submitted, 0);
    }

    #[test]
    fn host_piece_product_is_capped_at_parse() {
        let job = |scenario: &str, pieces: u64| {
            JobSpec::from_json(&Json::obj(vec![
                ("scenario", Json::Str(scenario.to_string())),
                ("pieces", Json::UInt(pieces)),
            ]))
        };
        // 65,536 hosts × 65,536 pieces: each factor at its own cap, 2^32
        // together.
        match job("wan:256x256", 65_536) {
            Err(ServeError::MalformedJobSpec { field, message }) => {
                assert_eq!(field, "pieces");
                assert!(message.contains("65536 hosts"), "{message}");
                assert!(message.contains("MAX_JOB_HOST_PIECES = 268435456"), "{message}");
            }
            other => panic!("over-cap job accepted: {other:?}"),
        }
        // The largest preset at the paper's file size fits.
        let spec = job("wan-8k", 15_259).expect("wan-8k at 15,259 pieces fits");
        assert_eq!((spec.scenario.num_hosts(), spec.pieces), (8_192, 15_259));
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
    fn a_panicking_job_fails_alone_and_the_daemon_drains() {
        let out = std::env::temp_dir().join(format!("btt-serve-panic-{}", std::process::id()));
        let server =
            serve(ServeConfig { addr: "127.0.0.1:0".to_string(), out: Some(out.clone()) }).unwrap();
        let mut client = ServeClient::connect(&server.addr()).unwrap();

        // `from_json` refuses zero pieces, so build the spec directly: the
        // broadcast's config check panics inside the worker.
        let mut spec = JobSpec::from_json(&small_job()).unwrap();
        spec.pieces = 0;
        let sub = submit(&server.shared, spec).unwrap();
        let bad = sub.get("job_id").and_then(Json::as_u64).unwrap();
        let status = final_status(&mut client, bad);
        assert_eq!(status.get("state").and_then(Json::as_str), Some("failed"));
        let failure = status.get("failure").and_then(Json::as_str).unwrap();
        assert!(failure.contains("need at least one piece"), "{failure}");
        // A thread that panics holding the job's state lock poisons it;
        // `status` still answers from the recovered state.
        let job = get_job(&server.shared, bad).unwrap();
        let poisoner = std::thread::spawn(move || {
            let _held = job.state.lock().unwrap();
            panic!("poisoning the job state lock");
        });
        assert!(poisoner.join().is_err());
        let status = final_status(&mut client, bad);
        assert_eq!(status.get("state").and_then(Json::as_str), Some("failed"));

        let pong = client.request(&ServeClient::envelope("ping", vec![])).unwrap();
        assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));
        let sub =
            client.request(&ServeClient::envelope("submit", vec![("job", small_job())])).unwrap();
        let good = sub.get("job_id").and_then(Json::as_u64).unwrap();
        let status = final_status(&mut client, good);
        assert_eq!(status.get("state").and_then(Json::as_str), Some("complete"));

        server.shutdown();
        let stats = server.wait().unwrap();
        assert_eq!(stats, ServeStats { submitted: 2, completed: 1, failed: 1 });
        let summary = std::fs::read_to_string(out.join("summary.csv")).unwrap();
        std::fs::remove_dir_all(&out).unwrap();
        let rows: Vec<&str> = summary.lines().skip(1).collect();
        assert_eq!(rows.len(), 1, "{summary}");
        assert!(rows[0].starts_with("star:2x3:0.2:3,louvain,2012,"), "{summary}");
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

    #[test]
    fn non_utf8_request_line_gets_a_typed_error_and_the_connection_survives() {
        let server = start();
        let mut client = ServeClient::connect(&server.addr()).unwrap();
        let ping = ServeClient::envelope("ping", vec![]);
        let pong = client.request(&ping).unwrap();
        assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));

        // The same request with one 0xFF byte before its newline. The whole
        // line was read, so the stream is still in step: the line gets a
        // typed error naming where its bad byte sits, and the connection
        // stays open. The read timeout turns a daemon that never answers
        // into a failure.
        client.writer.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
        let text = ping.render();
        let mut line = text.clone().into_bytes();
        line.extend_from_slice(b"\xFF\n");
        client.writer.write_all(&line).unwrap();
        let mut reply = String::new();
        client.reader.read_line(&mut reply).unwrap();
        let resp = btt_core::serialize::json::parse(&reply).unwrap();
        let err = resp.get("error").expect("a line that is not UTF-8 is an error");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("malformed_request"));
        assert_eq!(err.get("field").and_then(Json::as_str), Some("request"));
        let message = err.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains(&format!("offset {}", text.len())), "{message}");

        let pong = client.request(&ping).unwrap();
        assert_eq!(pong.get("kind").and_then(Json::as_str), Some("pong"));
        server.shutdown();
        assert_eq!(server.wait().unwrap().submitted, 0);
    }

    /// The request decoders under arbitrary input: each yields a value or
    /// a typed error, never a panic.
    mod fuzz {
        use super::*;
        use btt_core::serialize::json;
        use btt_netsim::util::splitmix64;
        use proptest::prelude::*;

        /// Input byte strings of up to 2 KiB: a valid input drawn from
        /// `valid`, then up to eight edits, each inserting one of the
        /// `|`-separated `tokens` or a run of arbitrary bytes, overwriting a
        /// byte, deleting a few, or truncating. Unedited cases keep the
        /// accepting paths covered; edited ones reach the error paths past
        /// the first byte.
        fn edited(
            valid: impl Strategy<Value = String>,
            tokens: &'static str,
        ) -> impl Strategy<Value = Vec<u8>> {
            let tokens: Vec<&str> = tokens.split('|').collect();
            let edit = (0..5u8, any::<u64>(), 0..tokens.len(), any::<u64>());
            (valid, proptest::collection::vec(edit, 0..=8)).prop_map(move |(text, edits)| {
                let mut bytes = text.into_bytes();
                for (kind, at, token, noise) in edits {
                    let at = (at % (bytes.len() as u64 + 1)) as usize;
                    match kind {
                        0 => drop(bytes.splice(at..at, tokens[token].bytes())),
                        1 => {
                            let run = (0..noise % 257).map(|i| splitmix64(noise ^ i) as u8);
                            drop(bytes.splice(at..at, run));
                        }
                        2 if at < bytes.len() => bytes[at] = noise as u8,
                        3 => drop(bytes.drain(at..(at + 1 + noise as usize % 16).min(bytes.len()))),
                        _ => bytes.truncate(at),
                    }
                }
                bytes.truncate(2048);
                bytes
            })
        }

        const JSON_TOKENS: &str = "{|}|[|]|,|:| |\t|\"|\\|\\u|d83d|\\ude00|\"k\"|0|-|.|e|+|1e999|\
            18446744073709551616|-9223372036854775809|null|true|fals|é|\u{1F600}|\u{0}";

        const SCENARIO_TOKENS: &str = "wan|star|fat-tree|:|x|+|=|churn|xtraffic|degrade|0|1|2|\
            16|65536|4294967296|18446744073709551616|0.5|1e308|1e-300|-|.|NaN|inf| |wan-512-churn|\
            fat-tree-1k|G-T|2x2|é";

        const WIRE_TOKENS: &str = "{|}|[|]|,|:|\"|\"schema\"|\"btt-serve-v1\"|\"kind\"|\"ping\"|\
            \"list\"|\"status\"|\"snapshot\"|\"report\"|\"submit\"|\"shutdown\"|\"job_id\"|\"job\"|\
            0|-1|1e999|null| |\r|\n|\u{0}|é";

        /// Valid spec strings of every family, preset and suffix form.
        const SCENARIOS: [&str; 16] = [
            "2x2",
            "b-g-t-l",
            "wan-512",
            "wan-512-churn",
            "fat-tree-1k",
            "edge-2k",
            "wan:2x3:0.25",
            "wan:2x2:0.5:20",
            "star:2x3:0.2:3",
            "star:3x4",
            "fat-tree:2x2x3:4:1",
            "fattree:2x2x2",
            "wan:16x32:0.5+churn=0.05+xtraffic=0.2",
            "G-T+churn=0.1",
            "wan-512+degrade=0.3",
            "wan:2x2+churn=0",
        ];

        /// The seven job spec fields, then keys no spec has.
        const JOB_KEYS: [&str; 10] = [
            "scenario",
            "backend",
            "seed",
            "iterations",
            "pieces",
            "recluster_every",
            "threads",
            "algorithm",
            "Scenario",
            "",
        ];

        /// Spec strings a job's `scenario` may meet: half run, half cannot.
        const JOB_SCENARIOS: [&str; 8] = [
            "2x2",
            "wan:2x3:0.25",
            "star:2x3:0.2:3+churn=0.1",
            "wan-512-churn",
            "wan:1x1",
            "wan:100000x100000",
            "wan:2x2:0.5:1e308",
            "not-a-spec",
        ];

        const BACKENDS: [&str; 6] = ["louvain", "IM", "add", "clustering", "quantum", ""];

        /// The edges of every integer field's range.
        const UINTS: [u64; 11] = [
            0,
            1,
            2,
            64,
            MAX_JOB_ITERATIONS as u64,
            MAX_JOB_ITERATIONS as u64 + 1,
            MAX_JOB_PIECES as u64,
            MAX_JOB_PIECES as u64 + 1,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX,
        ];

        fn pick<T: Copy>(items: &[T], seed: u64) -> T {
            items[(seed % items.len() as u64) as usize]
        }

        /// Any JSON value, grown from `seed`: every number variant (NaN and
        /// the infinities among the floats), spec strings, and arrays and
        /// objects nested up to `depth` levels.
        fn json_value(seed: u64, depth: u32) -> Json {
            let next = splitmix64(seed);
            match seed % if depth == 0 { 7 } else { 9 } {
                0 => Json::Null,
                1 => Json::Bool(next & 1 == 1),
                2 => Json::UInt(next >> (next % 64)),
                3 => Json::Int(i64::MIN >> (next % 64)),
                4 => Json::Float(f64::from_bits(next)),
                5 => Json::UInt(pick(&UINTS, next)),
                6 => Json::Str(pick(&JOB_SCENARIOS, next).to_string()),
                7 => Json::Array((0..next % 4).map(|i| json_value(next ^ i, depth - 1)).collect()),
                _ => Json::Object(
                    (0..next % 4)
                        .map(|i| {
                            (
                                pick(&JOB_KEYS, next >> i).to_string(),
                                json_value(next ^ i, depth - 1),
                            )
                        })
                        .collect(),
                ),
            }
        }

        /// A `job` object: each spec field present half the time (the
        /// required `scenario` seven times in eight), each junk key one time
        /// in eight. A present field's value is random JSON one time in
        /// four, otherwise one of its own spellings or range edges.
        fn job_object(seeds: &[u64]) -> Json {
            let fields = JOB_KEYS.iter().zip(seeds).filter_map(|(&key, &seed)| {
                let present = match key {
                    "scenario" => seed % 8 < 7,
                    _ if JOB_KEYS[..7].contains(&key) => seed % 8 < 4,
                    _ => seed % 8 == 0,
                };
                let value = match (key, seed >> 3) {
                    (_, s) if s % 4 == 0 => json_value(s >> 2, 1),
                    ("scenario", s) => Json::Str(pick(&JOB_SCENARIOS, s >> 2).to_string()),
                    ("backend", s) => Json::Str(pick(&BACKENDS, s >> 2).to_string()),
                    (_, s) => Json::UInt(pick(&UINTS, s >> 2)),
                };
                present.then(|| (key.to_string(), value))
            });
            Json::Object(fields.collect())
        }

        /// A well-formed request line of any verb but `shutdown`, with its
        /// newline. Its `submit` carries a job with three faults, so no few
        /// edits make it one that runs.
        fn request_line(seed: u64) -> String {
            let job_id = ("job_id", json_value(seed >> 3, 1));
            let job = Json::obj(vec![
                ("scenario", Json::Str("wan:1x1".to_string())),
                ("pieces", Json::UInt(0)),
                ("turbo_mode", Json::Bool(true)),
            ]);
            let (kind, fields) = match seed % 7 {
                0 => ("ping", vec![]),
                1 => ("list", vec![]),
                2 => ("status", vec![job_id]),
                3 => ("snapshot", vec![job_id]),
                4 => ("report", vec![job_id]),
                5 => ("submit", vec![("job", job)]),
                _ => ("frobnicate", vec![]),
            };
            format!("{}\n", ServeClient::envelope(kind, fields).render())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any text parses or fails at an offset inside it.
            #[test]
            fn json_parse_answers_any_text(
                bytes in edited(any::<u64>().prop_map(|s| json_value(s, 3).render()), JSON_TOKENS),
            ) {
                let text = String::from_utf8_lossy(&bytes);
                if let Err(e) = json::parse(&text) {
                    prop_assert!(e.at <= text.len(), "error at {} past {} bytes", e.at, text.len());
                }
            }

            /// Any text is a spec whose id parses back to it, or an error.
            #[test]
            fn scenario_parse_answers_any_text(
                bytes in edited(
                    (0..SCENARIOS.len()).prop_map(|i| SCENARIOS[i].to_string()),
                    SCENARIO_TOKENS,
                ),
            ) {
                let text = String::from_utf8_lossy(&bytes);
                if let Ok(spec) = ScenarioSpec::parse(&text) {
                    prop_assert_eq!(ScenarioSpec::parse(&spec.id()), Ok(spec));
                }
            }

            /// Any job object is a spec inside the job limits, or a typed
            /// error naming one of its keys or the missing `scenario`.
            #[test]
            fn job_spec_decoder_keeps_limits_or_names_a_field(
                seeds in proptest::collection::vec(any::<u64>(), JOB_KEYS.len()),
            ) {
                let job = job_object(&seeds);
                match JobSpec::from_json(&job) {
                    Ok(spec) => {
                        let iterations = 1..=MAX_JOB_ITERATIONS;
                        prop_assert!(spec.iterations.is_none_or(|n| iterations.contains(&n)));
                        prop_assert!((1..=MAX_JOB_PIECES).contains(&spec.pieces));
                        let hosts = spec.scenario.num_hosts() as u64;
                        let host_pieces = hosts.saturating_mul(u64::from(spec.pieces));
                        prop_assert!(host_pieces <= MAX_JOB_HOST_PIECES);
                        prop_assert!(spec.recluster_every >= 1);
                    }
                    Err(ServeError::MalformedJobSpec { field, .. }) => {
                        prop_assert!(
                            field == "scenario" || job.get(&field).is_some(),
                            "{field:?} is not a key of {}", job.render()
                        );
                    }
                    Err(other) => prop_assert!(false, "{other:?} for {}", job.render()),
                }
            }

            /// Any request line gets one response, none if it is blank, and
            /// starts no job.
            #[test]
            fn line_decoder_answers_any_bytes(
                bytes in edited(any::<u64>().prop_map(request_line), WIRE_TOKENS),
            ) {
                let server = start();
                match answer_line(&server.shared, server.addr(), &bytes) {
                    None => prop_assert!(
                        std::str::from_utf8(&bytes).is_ok_and(|l| l.trim().is_empty()),
                        "no response to {bytes:?}"
                    ),
                    Some(resp) => {
                        let schema = resp.get("schema").and_then(Json::as_str);
                        prop_assert_eq!(schema, Some(SERVE_SCHEMA));
                        let ok = resp.get("ok").and_then(Json::as_bool);
                        let error = resp.get("error").and_then(|e| e.get("kind"));
                        prop_assert!(ok == Some(true) || error.is_some(), "{}", resp.render());
                    }
                }
                let list = list(&server.shared);
                let jobs = list.get("jobs").and_then(Json::as_array);
                prop_assert_eq!(jobs.map(<[Json]>::len), Some(0));
                server.shutdown();
                prop_assert_eq!(server.wait().unwrap().submitted, 0);
            }
        }
    }
}
