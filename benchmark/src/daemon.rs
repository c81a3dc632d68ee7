//! The serve workload: closed-loop clients against an in-process `btt
//! serve` daemon bound to `127.0.0.1:0`.
//!
//! Each client submits one job, polls `status` and `snapshot` until the
//! job completes, fetches its `report`, and only then submits the next, so
//! a slow daemon receives less load. The untraced run yields the
//! end-to-end numbers; the traced run logs every request as a span under
//! its job and then profiles the job's coordinates layer by layer with
//! local replays, since the daemon's own work runs on threads the
//! benchmark cannot wrap.

use crate::campaign::{guarded, profile, Coordinates};
use crate::stats::{median, nearest_rank, peak_rss_mib, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{campaign_seed, check_record, render, setup, workers, Outcome, Workload};
use btt_bench::serve::{serve, ServeClient, ServeConfig};
use btt_core::serialize::json::Json;
use btt_core::session::TomographySession;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A job that has not completed after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// Jobs whose coordinates the traced run replays locally, layer by layer.
const PROFILED_JOBS: u64 = 3;

/// One request (or poll wait) of a job, kept only in traced runs.
#[derive(Debug)]
struct Request {
    kind: &'static str,
    start: Instant,
    end: Instant,
    bytes: usize,
}

/// What a client saw of one job.
#[derive(Debug)]
struct JobLog {
    index: u64,
    submitted: Instant,
    first_snapshot: Option<Instant>,
    completed: Option<Instant>,
    done: Instant,
    polls: u32,
    snapshots: u32,
    mid_job_snapshots: u32,
    requests: Vec<Request>,
    /// The served report, rendered, or why the job failed.
    report: Result<String, String>,
}

impl JobLog {
    fn new(index: u64, report: Result<String, String>) -> JobLog {
        let now = Instant::now();
        JobLog {
            index,
            submitted: now,
            first_snapshot: None,
            completed: None,
            done: now,
            polls: 0,
            snapshots: 0,
            mid_job_snapshots: 0,
            requests: Vec::new(),
            report,
        }
    }
}

/// How clients issue jobs.
struct LoadGen<'a> {
    addr: SocketAddr,
    c: &'a Coordinates,
    scenario: &'a str,
    poll: Duration,
    distinct: u64,
    trace: bool,
}

impl LoadGen<'_> {
    fn job_spec(&self, index: u64) -> Json {
        Json::obj(vec![
            ("scenario", Json::Str(self.scenario.to_string())),
            ("seed", Json::UInt(campaign_seed(self.c.seed, index))),
            ("iterations", Json::UInt(u64::from(self.c.iterations))),
            ("pieces", Json::UInt(u64::from(self.c.pieces))),
            ("recluster_every", Json::UInt(1)),
            ("threads", Json::UInt(self.c.threads as u64)),
        ])
    }

    /// One request and its round trip, logged when tracing.
    fn call(
        &self,
        client: &mut ServeClient,
        log: &mut JobLog,
        kind: &'static str,
        request: Json,
    ) -> Result<Json, String> {
        let start = Instant::now();
        let response =
            client.request(&request).map_err(|e| format!("job {}: {kind}: {e}", log.index))?;
        if self.trace {
            let bytes = response.render().len();
            log.requests.push(Request { kind, start, end: Instant::now(), bytes });
        }
        Ok(response)
    }

    /// Submits job `index`, polls it to completion, and fetches its report.
    fn run_job(&self, client: &mut ServeClient, index: u64) -> JobLog {
        let mut log = JobLog::new(index, Err(String::new()));
        log.report = self.drive(client, &mut log);
        log.done = Instant::now();
        log
    }

    fn drive(&self, client: &mut ServeClient, log: &mut JobLog) -> Result<String, String> {
        let index = log.index;
        let submit = ServeClient::envelope("submit", vec![("job", self.job_spec(index))]);
        let response = self.call(client, log, "serve.submit", submit)?;
        let job_id = response
            .get("job_id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("job {index}: submit rejected: {}", response.render()))?;
        let id = || vec![("job_id", Json::UInt(job_id))];
        loop {
            let status =
                self.call(client, log, "serve.status", ServeClient::envelope("status", id()))?;
            let snapshot =
                self.call(client, log, "serve.snapshot", ServeClient::envelope("snapshot", id()))?;
            log.polls += 1;
            let state = status.get("state").and_then(Json::as_str).unwrap_or("?");
            if snapshot.get("available").and_then(Json::as_bool) == Some(true) {
                log.snapshots += 1;
                log.mid_job_snapshots += u32::from(state == "measuring");
                log.first_snapshot.get_or_insert_with(Instant::now);
            }
            match state {
                "complete" => break,
                "queued" | "measuring" => {}
                other => return Err(format!("job {index}: state {other}: {}", status.render())),
            }
            if log.submitted.elapsed() > JOB_TIMEOUT {
                return Err(format!("job {index}: not complete after {JOB_TIMEOUT:?}"));
            }
            let start = Instant::now();
            std::thread::sleep(self.poll);
            if self.trace {
                log.requests.push(Request {
                    kind: "serve.poll_wait",
                    start,
                    end: Instant::now(),
                    bytes: 0,
                });
            }
        }
        log.completed = Some(Instant::now());
        let report =
            self.call(client, log, "serve.report", ServeClient::envelope("report", id()))?;
        report.get("report").map(Json::render).ok_or_else(|| format!("job {index}: no report"))
    }

    /// One closed-loop client: jobs back to back, taking the next job from
    /// `next`, until `deadline` passes or the jobs reach `limit`; a failed
    /// job ends the client. Job `k` runs the inputs of index `k % distinct`.
    fn client(&self, next: &AtomicU64, limit: u64, deadline: Instant) -> Vec<JobLog> {
        let mut client = match ServeClient::connect(&self.addr) {
            Ok(client) => client,
            Err(e) => return vec![JobLog::new(u64::MAX, Err(format!("connect: {e}")))],
        };
        let mut logs = Vec::new();
        while Instant::now() < deadline {
            let job = next.fetch_add(1, Ordering::SeqCst);
            if job >= limit {
                break;
            }
            let log = self.run_job(&mut client, job % self.distinct);
            let failed = log.report.is_err();
            logs.push(log);
            if failed {
                break;
            }
        }
        logs
    }

    /// `clients` concurrent closed-loop clients over jobs `0..limit`, until
    /// `deadline`.
    fn clients(&self, clients: usize, limit: u64, deadline: Instant) -> Vec<JobLog> {
        let next = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..clients).map(|_| scope.spawn(|| self.client(&next, limit, deadline))).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client threads do not panic"))
                .collect()
        })
    }
}

/// The job's report replayed locally through `live()`, rendered.
fn local_replay(c: &Coordinates, index: u64) -> Result<String, String> {
    guarded(&format!("local replay of job {index}"), || {
        let session = c.at(index);
        let mut live = session.live();
        let mut rejected = None;
        session.stream_into(1, &mut |obs| {
            if let Err(e) = live.observe(obs) {
                rejected.get_or_insert(e);
            }
        });
        if let Some(e) = rejected {
            return Err(format!("local replay of job {index}: {e}"));
        }
        let report = live.finalize().map_err(|e| format!("local replay of job {index}: {e}"))?;
        Ok(render(&report, c.pieces))
    })
}

/// Runs the serve workload.
pub fn run(
    w: &Workload,
    poll: Duration,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::default();
    let clients = workers();
    let (build_s, scenario) = setup(w.scenario);
    let artifacts = out_dir.join(format!("serve-{}", std::process::id()));
    let t = Instant::now();
    let server = match serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        out: Some(artifacts.clone()),
    }) {
        Ok(server) => server,
        Err(e) => {
            out.attempt(Err(format!("daemon bind: {e}")));
            return out;
        }
    };
    let bind_s = t.elapsed().as_secs_f64();
    let c = Coordinates {
        session: TomographySession::over(scenario)
            .pieces(w.pieces)
            .iterations(w.iterations)
            .recluster_every(1)
            .threads(1),
        pieces: w.pieces,
        iterations: w.iterations,
        threads: 1,
        seed,
    };
    let hosts = c.session.scenario().num_hosts();
    let load = LoadGen {
        addr: server.addr(),
        c: &c,
        scenario: w.scenario,
        poll,
        distinct: w.distinct,
        trace,
    };

    // Checks a served report and records its fingerprint.
    let accept = |out: &mut Outcome, log: &JobLog| -> Result<(), String> {
        let text = log.report.as_deref().map_err(Clone::clone)?;
        let (_, fp) = check_record(text, c.iterations, hosts)
            .map_err(|e| format!("job {}: {e}", log.index))?;
        out.fingerprints.push((log.index, fp));
        Ok(())
    };

    // Warm-up: one job per client, concurrently, so the memory high-water
    // mark covers the daemon at full load. Job 0 is byte-compared with a
    // local live() replay of its coordinates. Measured jobs start at 0 again.
    let warm = load.clients(clients, clients as u64, Instant::now() + JOB_TIMEOUT);
    let peak_rss_mb = peak_rss_mib().unwrap_or(f64::NAN);
    for log in &warm {
        let result = accept(&mut out, log);
        out.attempt(result);
    }
    let replay = local_replay(&c, 0).and_then(|local| {
        match warm.iter().find(|l| l.index == 0).map(|l| &l.report) {
            Some(Ok(served)) if *served == local => Ok(()),
            Some(Ok(_)) => {
                Err("job 0: served report differs from the local live() replay".to_string())
            }
            _ => Err("job 0: no served report to compare".to_string()),
        }
    });
    out.attempt(replay);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs = load.clients(clients, u64::MAX, deadline);
    server.shutdown();
    match server.wait() {
        Ok(stats) if stats.failed > 0 => out.fail(format!("daemon: {} jobs failed", stats.failed)),
        Ok(_) => {}
        Err(e) => out.fail(format!("daemon drain: {e}")),
    }
    // The daemon's artifacts only prove it wrote them; nothing reads them.
    let _ = std::fs::remove_dir_all(&artifacts);

    let mut latency = Vec::new();
    let mut first = Vec::new();
    let mut last_done = start;
    for log in &logs {
        let result = accept(&mut out, log).map(|_| {
            let completed = log.completed.expect("completed jobs have a completion time");
            latency.push((completed - log.submitted).as_secs_f64());
            first.push((log.first_snapshot.unwrap_or(completed) - log.submitted).as_secs_f64());
            last_done = last_done.max(completed);
        });
        out.attempt(result);
    }
    let jobs = latency.len();
    let window_s = (last_done - start).as_secs_f64();
    out.notes.push(format!(
        "jobs: {jobs} completed by {clients} closed-loop clients in {window_s:.3} s ({:.3} jobs/s)",
        jobs as f64 / window_s
    ));
    if let Some(p) = tail_percentile(jobs) {
        out.notes.push(format!(
            "job latency p{p}: {:.3} ms (n={jobs})",
            nearest_rank(&latency, p) * 1e3
        ));
    }

    if trace {
        let serve_json = serve_layer(&logs, &mut tracer, &mut out);
        profile(&c, w.distinct, |done| done < PROFILED_JOBS, &mut tracer, &mut out);
        out.set("scenarios.build_ms", build_s * 1e3);
        out.trace = vec![("serve", serve_json), ("spans", tracer.to_json())];
    } else {
        out.set("setup_s", build_s + bind_s);
        out.set("campaign_s", median(&latency));
        out.set("first_answer_s", median(&first));
        out.set("broadcasts_per_s", (jobs as f64) * f64::from(c.iterations) / window_s);
        out.set("peak_rss_mb", peak_rss_mb);
    }
    out
}

/// Records every job and request as spans and summarizes the daemon's
/// request path (reported in the trace and as notes: the batch workloads
/// never reach this layer).
fn serve_layer(logs: &[JobLog], tracer: &mut Tracer, out: &mut Outcome) -> Json {
    let rtt = |kind: &str| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| &l.requests)
            .filter(|r| r.kind == kind)
            .map(|r| (r.end - r.start).as_secs_f64() * 1e3)
            .collect()
    };
    let (submit, status, snapshot) =
        (rtt("serve.submit"), rtt("serve.status"), rtt("serve.snapshot"));
    let snapshot_bytes: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.requests)
        .filter(|r| r.kind == "serve.snapshot")
        .map(|r| r.bytes as f64)
        .collect();
    let served: u32 = logs.iter().map(|l| l.snapshots).sum();
    let mid: u32 = logs.iter().map(|l| l.mid_job_snapshots).sum();
    let polls: Vec<f64> = logs.iter().map(|l| f64::from(l.polls)).collect();
    let tail =
        |v: &[f64]| tail_percentile(v.len()).map_or((0.0, f64::NAN), |p| (p, nearest_rank(v, p)));
    let (status_p, status_tail) = tail(&status);
    let (snapshot_p, snapshot_tail) = tail(&snapshot);
    let fields = vec![
        ("serve.submit_rtt_p50_ms", median(&submit)),
        ("serve.status_rtt_tail_ms", status_tail),
        ("serve.status_rtt_tail_percentile", status_p),
        ("serve.snapshot_rtt_tail_ms", snapshot_tail),
        ("serve.snapshot_rtt_tail_percentile", snapshot_p),
        ("serve.snapshot_bytes", median(&snapshot_bytes)),
        ("serve.mid_job_snapshot_share", f64::from(mid) / f64::from(served.max(1))),
        ("serve.polls_per_job", median(&polls)),
    ];
    for (name, value) in &fields {
        out.notes.push(format!("{name} = {value}"));
    }
    for log in logs {
        let job = tracer.record("job", log.index, None, log.submitted, log.done);
        for r in &log.requests {
            tracer.record(r.kind, log.index, Some(job), r.start, r.end);
        }
    }
    Json::obj(fields.into_iter().map(|(k, v)| (k, Json::Float(v))).collect())
}
