//! Smoke test for the tomography daemon under concurrent load: `btt
//! stress`'s engine drives an in-process `btt serve` daemon with
//! overlapping submissions while snapshot requests land mid-job, then the
//! daemon shuts down cleanly and its artifact directory passes `btt
//! check`'s validator — no deadlocks, no corrupted state, and the served
//! reports are byte-identical to the offline batch pipeline.

use btt_bench::campaign::{check_outputs, RunSpec};
use btt_bench::serve::{serve, ServeClient, ServeConfig};
use btt_bench::stress::{run_stress, StressSpec};
use btt_core::backend::Backend;
use btt_core::scenarios::ScenarioSpec;
use btt_core::serialize::json::Json;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("btt-serve-{tag}-{}", std::process::id()))
}

/// The full stack under load: overlapping jobs on several connections,
/// mid-job snapshots, clean drain, validated artifacts, and batch-equal
/// reports.
#[test]
fn stress_drives_the_daemon_without_deadlock_or_corruption() {
    let out = tmp_dir("stress");
    fs::remove_dir_all(&out).ok();
    let server =
        serve(ServeConfig { addr: "127.0.0.1:0".to_string(), out: Some(out.clone()) }).unwrap();

    // Slow-ish jobs (many pieces) so polls genuinely overlap measurement,
    // more jobs than connections so submissions overlap server-side.
    let spec = StressSpec {
        addr: server.addr(),
        jobs: 6,
        concurrency: 3,
        scenario: "star:2x4:0.2:4".to_string(),
        backend: "louvain".to_string(),
        seed: 2012,
        iterations: Some(4),
        pieces: 256,
        recluster_every: 1,
        poll: Duration::from_millis(1),
        shutdown: true,
    };
    let report = run_stress(&spec).unwrap();
    assert_eq!(report.completed, 6, "all jobs complete: {report:?}");
    assert_eq!(report.failed, 0);
    assert!(report.requests >= 12, "6 submits + polling rounds");
    assert!(report.snapshots_served > 0, "snapshots answered under load");
    assert!(report.job_latency.max > 0.0);
    assert!(report.throughput() > 0.0);

    // --shutdown drained the daemon; wait() returns the matching tally.
    let stats = server.wait().unwrap();
    assert_eq!((stats.submitted, stats.completed, stats.failed), (6, 6, 0));

    // The artifact directory passes the campaign validator: one JSON + one
    // convergence CSV per job, plus summary.csv.
    let summary = check_outputs(&out).unwrap();
    assert_eq!((summary.jsons, summary.csvs), (6, 7));

    // Every served job's report is byte-identical to the offline batch
    // pipeline for the same coordinates. Job ids are assigned in submission
    // order, which races across the stress connections — so each file's
    // seed comes from its own `__s<seed>` name, not from its job id.
    let paths: Vec<PathBuf> = fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    assert_eq!(paths.len(), 6);
    let mut seeds_seen: Vec<u64> = Vec::new();
    for path in &paths {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let seed: u64 =
            stem.rsplit("__s").next().unwrap().parse().expect("artifact name carries the seed");
        seeds_seen.push(seed);
        let offline = RunSpec {
            scenario: ScenarioSpec::parse("star:2x4:0.2:4").unwrap(),
            backend: Backend::default(),
            seed,
            iterations: Some(4),
            pieces: 256,
            threads: 0,
        }
        .run();
        let served = fs::read_to_string(path).unwrap();
        assert_eq!(
            served,
            offline.to_json().render_pretty(),
            "{}: served report must be byte-identical to the batch pipeline",
            path.display()
        );
    }
    // All six distinct seeds landed exactly once (base 2012 + job index).
    seeds_seen.sort_unstable();
    assert_eq!(seeds_seen, (2012..2018).collect::<Vec<u64>>());
    fs::remove_dir_all(&out).ok();
}

/// A snapshot requested in the middle of a long job answers from the live
/// session — partial iterations, a real partition — while the job is still
/// `measuring`, and the final report still matches the batch path.
#[test]
fn mid_job_snapshots_answer_while_measuring() {
    let server = serve(ServeConfig { addr: "127.0.0.1:0".to_string(), out: None }).unwrap();
    let mut client = ServeClient::connect(&server.addr()).unwrap();

    // A deliberately long job: 1024 fragments, 12 iterations.
    let job = Json::obj(vec![
        ("scenario", Json::Str("star:2x4:0.2:4".to_string())),
        ("iterations", Json::UInt(12)),
        ("pieces", Json::UInt(1024)),
    ]);
    let sub = client.request(&ServeClient::envelope("submit", vec![("job", job)])).unwrap();
    let job_id = sub.get("job_id").and_then(Json::as_u64).expect("submit succeeds");
    let id = ("job_id", Json::UInt(job_id));

    // Poll until at least one snapshot exists while the job is measuring.
    let mut saw_mid_job = false;
    let mut last_iterations = 0;
    for _ in 0..5000 {
        let status = client.request(&ServeClient::envelope("status", vec![id.clone()])).unwrap();
        let state = status.get("state").and_then(Json::as_str).unwrap();
        let snap = client.request(&ServeClient::envelope("snapshot", vec![id.clone()])).unwrap();
        if snap.get("available").and_then(Json::as_bool) == Some(true) {
            let iterations = snap.get("iterations").and_then(Json::as_u64).unwrap();
            assert!(iterations >= last_iterations, "snapshots only move forward");
            last_iterations = iterations;
            let partition = snap.get("partition").and_then(Json::as_array).unwrap();
            assert_eq!(partition.len(), 12, "star:2x4 + 4 hub hosts = 12 assignments");
            assert!(snap.get("pair_coverage").and_then(Json::as_f64).is_some());
            if state == "measuring" && iterations < 12 {
                saw_mid_job = true;
            }
        }
        if state == "complete" {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(saw_mid_job, "a snapshot must answer mid-measurement (partial iterations)");
    assert_eq!(last_iterations, 12, "the final snapshot covers the whole campaign");

    // Requesting the report before submitting garbage kinds never wedged
    // the connection; the finished report round-trips.
    let report = client.request(&ServeClient::envelope("report", vec![id])).unwrap();
    assert_eq!(report.get("ok").and_then(Json::as_bool), Some(true));

    server.shutdown();
    let stats = server.wait().unwrap();
    assert_eq!((stats.completed, stats.failed), (1, 0));
}
