//! `btt stress` — load generator for a running `btt serve` daemon.
//!
//! Hammers the daemon with N concurrent campaign jobs over C client
//! connections (each connection owns the jobs `i % concurrency == c`,
//! submitted and polled concurrently), and reports latency/throughput:
//! request round-trip percentiles, submit→complete job latency
//! percentiles, jobs per second, and how many partition snapshots were
//! served *mid-job* — the number that proves the daemon answers while it
//! is still measuring, not just after.

use crate::serve::ServeClient;
use btt_core::serialize::json::Json;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Configuration for one stress run.
#[derive(Debug, Clone)]
pub struct StressSpec {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Total jobs to submit.
    pub jobs: u32,
    /// Concurrent client connections (jobs are dealt round-robin).
    pub concurrency: u32,
    /// Scenario spec string submitted with every job (e.g. `wan-512`).
    pub scenario: String,
    /// Phase-2 inference backend name.
    pub backend: String,
    /// Base seed; job `i` uses `seed + i` so no two jobs are identical.
    pub seed: u64,
    /// Iteration override (`None` = scenario default).
    pub iterations: Option<u32>,
    /// File size in fragments.
    pub pieces: u32,
    /// Streaming re-cluster cadence.
    pub recluster_every: u32,
    /// Delay between status/snapshot polls per in-flight job.
    pub poll: Duration,
    /// Send a `shutdown` request after all jobs complete.
    pub shutdown: bool,
}

impl Default for StressSpec {
    fn default() -> Self {
        StressSpec {
            addr: "127.0.0.1:7411".parse().expect("literal address parses"),
            jobs: 8,
            concurrency: 4,
            scenario: "star:2x4:0.2:4".to_string(),
            backend: "louvain".to_string(),
            seed: 2012,
            iterations: Some(3),
            pieces: 64,
            recluster_every: 1,
            poll: Duration::from_millis(10),
            shutdown: false,
        }
    }
}

/// Latency percentiles over a set of samples, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst sample.
    pub max: f64,
}

impl Percentiles {
    /// Computes percentiles from raw samples (nearest-rank). Empty input
    /// yields all zeros.
    pub fn of(samples: &[Duration]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles { p50: 0.0, p95: 0.0, p99: 0.0, max: 0.0 };
        }
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(|a, b| a.total_cmp(b));
        let rank = |p: f64| {
            let idx = ((p / 100.0) * ms.len() as f64).ceil() as usize;
            ms[idx.clamp(1, ms.len()) - 1]
        };
        Percentiles { p50: rank(50.0), p95: rank(95.0), p99: rank(99.0), max: ms[ms.len() - 1] }
    }
}

/// Everything a stress run measured.
#[derive(Debug, Clone)]
pub struct StressReport {
    /// Jobs submitted.
    pub submitted: u32,
    /// Jobs that reached `complete`.
    pub completed: u32,
    /// Jobs that reached `failed` (daemon-side failure, not a protocol
    /// error).
    pub failed: u32,
    /// Total requests sent (submits + polls + snapshots).
    pub requests: u64,
    /// Request round-trip latency percentiles.
    pub request_rtt: Percentiles,
    /// Submit→complete latency percentiles per job.
    pub job_latency: Percentiles,
    /// Snapshot responses that carried a partition.
    pub snapshots_served: u64,
    /// Snapshots served while the job was still `measuring` — the
    /// mid-campaign answers only a streaming daemon can give.
    pub mid_job_snapshots: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
}

impl StressReport {
    /// Completed jobs per second of wall-clock.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            f64::from(self.completed) / secs
        } else {
            0.0
        }
    }

    /// Human-readable summary for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let p = |name: &str, p: &Percentiles| {
            format!(
                "  {name}: p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  max {:.2} ms\n",
                p.p50, p.p95, p.p99, p.max
            )
        };
        out.push_str(&format!(
            "stress: {}/{} jobs completed ({} failed) in {:.2} s ({:.2} jobs/s)\n",
            self.completed,
            self.submitted,
            self.failed,
            self.elapsed.as_secs_f64(),
            self.throughput()
        ));
        out.push_str(&format!(
            "  requests: {} total, {} snapshots served ({} mid-job)\n",
            self.requests, self.snapshots_served, self.mid_job_snapshots
        ));
        out.push_str(&p("request rtt", &self.request_rtt));
        out.push_str(&p("job latency", &self.job_latency));
        out
    }
}

/// Per-thread tallies merged into the final report.
#[derive(Debug, Default)]
struct ThreadTally {
    completed: u32,
    failed: u32,
    rtts: Vec<Duration>,
    job_latencies: Vec<Duration>,
    snapshots_served: u64,
    mid_job_snapshots: u64,
}

/// One job's client-side lifecycle on a stress thread.
#[derive(Debug)]
struct InFlight {
    job_id: u64,
    submitted_at: Instant,
}

/// Runs the stress workload against an already-running daemon. Errors are
/// I/O-level only (daemon unreachable / connection lost); protocol-level
/// job failures are counted in the report instead.
pub fn run_stress(spec: &StressSpec) -> std::io::Result<StressReport> {
    let started = Instant::now();
    let concurrency = spec.concurrency.clamp(1, spec.jobs.max(1));
    let tallies: Vec<std::io::Result<ThreadTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|thread_id| {
                let spec = &*spec;
                scope.spawn(move || stress_thread(spec, thread_id, concurrency))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stress threads never panic")).collect()
    });
    let mut merged = ThreadTally::default();
    for tally in tallies {
        let tally = tally?;
        merged.completed += tally.completed;
        merged.failed += tally.failed;
        merged.rtts.extend(tally.rtts);
        merged.job_latencies.extend(tally.job_latencies);
        merged.snapshots_served += tally.snapshots_served;
        merged.mid_job_snapshots += tally.mid_job_snapshots;
    }
    if spec.shutdown {
        let mut client = ServeClient::connect(&spec.addr)?;
        client.request(&ServeClient::envelope("shutdown", vec![]))?;
    }
    Ok(StressReport {
        submitted: spec.jobs,
        completed: merged.completed,
        failed: merged.failed,
        requests: merged.rtts.len() as u64,
        request_rtt: Percentiles::of(&merged.rtts),
        job_latency: Percentiles::of(&merged.job_latencies),
        snapshots_served: merged.snapshots_served,
        mid_job_snapshots: merged.mid_job_snapshots,
        elapsed: started.elapsed(),
    })
}

/// One client connection: submits its share of the jobs up front, then
/// polls them all (status + snapshot per round) until each completes.
fn stress_thread(
    spec: &StressSpec,
    thread_id: u32,
    concurrency: u32,
) -> std::io::Result<ThreadTally> {
    let mut client = ServeClient::connect(&spec.addr)?;
    let mut tally = ThreadTally::default();
    let timed = |client: &mut ServeClient, req: &Json, tally: &mut ThreadTally| {
        let t = Instant::now();
        let resp = client.request(req);
        tally.rtts.push(t.elapsed());
        resp
    };

    // Submit this thread's share back-to-back so jobs overlap server-side.
    let mut in_flight = Vec::new();
    for i in (thread_id..spec.jobs).step_by(concurrency as usize) {
        let mut job = vec![
            ("scenario", Json::Str(spec.scenario.clone())),
            ("backend", Json::Str(spec.backend.clone())),
            ("seed", Json::UInt(spec.seed + u64::from(i))),
            ("pieces", Json::UInt(u64::from(spec.pieces))),
            ("recluster_every", Json::UInt(u64::from(spec.recluster_every))),
        ];
        if let Some(n) = spec.iterations {
            job.push(("iterations", Json::UInt(u64::from(n))));
        }
        let req = ServeClient::envelope("submit", vec![("job", Json::obj(job))]);
        let resp = timed(&mut client, &req, &mut tally)?;
        match resp.get("job_id").and_then(Json::as_u64) {
            Some(job_id) => in_flight.push(InFlight { job_id, submitted_at: Instant::now() }),
            None => tally.failed += 1, // daemon rejected the submit
        }
    }

    // Poll until everything lands, interleaving snapshot requests so the
    // daemon proves it can answer mid-measurement.
    while !in_flight.is_empty() {
        let mut still = Vec::with_capacity(in_flight.len());
        for job in in_flight {
            let id = ("job_id", Json::UInt(job.job_id));
            let status =
                timed(&mut client, &ServeClient::envelope("status", vec![id.clone()]), &mut tally)?;
            let state = status.get("state").and_then(Json::as_str).unwrap_or("?").to_string();
            let snap =
                timed(&mut client, &ServeClient::envelope("snapshot", vec![id]), &mut tally)?;
            if snap.get("available").and_then(Json::as_bool) == Some(true) {
                tally.snapshots_served += 1;
                if state == "measuring" {
                    tally.mid_job_snapshots += 1;
                }
            }
            match state.as_str() {
                "complete" => {
                    tally.completed += 1;
                    tally.job_latencies.push(job.submitted_at.elapsed());
                }
                "failed" => tally.failed += 1,
                _ => still.push(job),
            }
        }
        in_flight = still;
        if !in_flight.is_empty() {
            std::thread::sleep(spec.poll);
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let p = Percentiles::of(&samples);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
        assert_eq!(p.max, 100.0);
        let one = Percentiles::of(&[Duration::from_millis(7)]);
        assert_eq!((one.p50, one.max), (7.0, 7.0));
        assert_eq!(Percentiles::of(&[]).max, 0.0);
    }

    #[test]
    fn report_renders_all_sections() {
        let report = StressReport {
            submitted: 4,
            completed: 3,
            failed: 1,
            requests: 42,
            request_rtt: Percentiles { p50: 1.0, p95: 2.0, p99: 3.0, max: 4.0 },
            job_latency: Percentiles { p50: 10.0, p95: 20.0, p99: 30.0, max: 40.0 },
            snapshots_served: 9,
            mid_job_snapshots: 5,
            elapsed: Duration::from_secs(2),
        };
        let text = report.render();
        assert!(text.contains("3/4 jobs completed (1 failed)"));
        assert!(text.contains("9 snapshots served (5 mid-job)"));
        assert!(text.contains("request rtt"));
        assert!(text.contains("job latency"));
        assert!((report.throughput() - 1.5).abs() < 1e-12);
    }
}
