//! The four workloads, what one run of them produces, and the
//! output-correctness gate shared by all of them.

use crate::campaign::{profile, untraced, Coordinates};
use crate::stats::{fnv1a64, median, peak_rss_mib};
use crate::trace::Tracer;
use btt_core::dataset::Scenario;
use btt_core::pipeline::TomographyReport;
use btt_core::scenarios::ScenarioSpec;
use btt_core::serialize::json::{self, Json};
use btt_core::serialize::ReportRecord;
use btt_core::session::TomographySession;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Seed the reference fingerprints in `reference.json` were recorded at.
pub const DEFAULT_SEED: u64 = 2012;

/// Scenario builds whose median is a run's set-up time.
const SETUP_BUILDS: usize = 7;

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Back-to-back batch campaigns (`measure` + `analyze_with`) on one
    /// process, broadcasts sharded over [`workers`] threads.
    Batch,
    /// Closed-loop clients driving an in-process `btt serve` daemon, one
    /// per worker, each with one job in flight.
    Serve {
        /// Delay between one client's status/snapshot poll rounds.
        poll: Duration,
    },
}

/// One benchmark workload: a campaign configuration and how it is loaded.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Scenario spec string (preset names allowed).
    pub scenario: &'static str,
    /// File size in 16 KiB fragments.
    pub pieces: u32,
    /// Broadcast iterations per campaign or job.
    pub iterations: u32,
    /// Distinct campaign (or job) inputs: a run cycles through indices
    /// `0..distinct`, so every index it reaches has a reference
    /// fingerprint however fast the program gets.
    pub distinct: u64,
    /// How campaigns are issued.
    pub load: Load,
}

/// The workloads. Each loads one layer; the README gives the reasons.
pub const WORKLOADS: [Workload; 4] = [
    // Per-fragment protocol path: service + HAVE fan-out dominate, and
    // the clustering is accurate enough that oNMI carries information.
    Workload {
        name: "protocol-wan1k",
        scenario: "wan-1k",
        pieces: 128,
        iterations: 40,
        distinct: 8,
        load: Load::Batch,
    },
    // The configuration `btt sweep` runs (no `rate_refresh` quantum):
    // the fairness solver dominates every broadcast.
    Workload {
        name: "solver-edge2k",
        scenario: "edge-2k",
        pieces: 64,
        iterations: 1,
        distinct: 6,
        load: Load::Batch,
    },
    // Set-up (routing), memory (the dense accumulator) and metric fold.
    Workload {
        name: "scale-fattree4k",
        scenario: "fat-tree-4k",
        pieces: 32,
        iterations: 5,
        distinct: 10,
        load: Load::Batch,
    },
    // The daemon: churned partial folds and per-observation reclustering
    // next to snapshot reads of the same job state.
    Workload {
        name: "serve-churn512",
        scenario: "wan-512-churn",
        pieces: 32,
        iterations: 8,
        distinct: 64,
        load: Load::Serve { poll: Duration::from_millis(5) },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Master seed of campaign (or job) `index` in a run seeded with `seed`.
pub fn campaign_seed(seed: u64, index: u64) -> u64 {
    btt_netsim::util::seed_for_iteration(seed, index)
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Measurement workers of a batch campaign, and clients of the serve
/// workload: one per CPU but one. The CPU left over takes the rest of the
/// machine's work, which would otherwise stall one worker and, through it,
/// the whole campaign. On a shared 2-vCPU VM this cut the quartile spread
/// of `campaign_s` over ten seeds from 12.5 % to 8.1 % (`protocol-wan1k`)
/// and from 28.5 % to 10.2 % (`solver-edge2k`).
pub fn workers() -> usize {
    cpus().saturating_sub(1).max(1)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: campaigns, jobs, and correctness replays.
    pub attempted: u64,
    /// Operations that failed: a panic, a failed or rejected job, an
    /// invalid report, or a fingerprint mismatch.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// `(campaign or job index, FNV-1a 64 of its rendered report)`, in
    /// completion order.
    pub fingerprints: Vec<(u64, u64)>,
    /// Extra human-readable result lines.
    pub notes: Vec<String>,
    /// Sections of the trace document (traced runs only).
    pub trace: Vec<(&'static str, Json)>,
}

impl Outcome {
    /// Counts one attempted operation, failed when `result` is an error.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Runs one workload for `seconds` of measurement after its set-up and one
/// untimed warm-up campaign. Untraced runs set the end-to-end metrics,
/// traced runs the per-layer ones.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    let mut out = match w.load {
        Load::Batch => batch(w, seed, seconds, trace),
        Load::Serve { poll } => crate::daemon::run(w, poll, seed, seconds, trace, out_dir),
    };
    gate_fingerprints(w.name, seed, &mut out);
    out
}

/// Back-to-back campaigns of one configuration, cycling through campaign
/// indices `0..w.distinct`; campaign `i` is seeded with
/// `campaign_seed(seed, i)`.
fn batch(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, scenario) = setup(w.scenario);
    let threads = workers();
    let c = Coordinates {
        session: TomographySession::over(scenario)
            .pieces(w.pieces)
            .iterations(w.iterations)
            .threads(threads),
        pieces: w.pieces,
        iterations: w.iterations,
        threads,
        seed,
    };
    // Warm-up: campaign 0, untimed. The measured campaigns start at 0
    // again, so its fingerprint must repeat. Peak memory is read here,
    // after a fixed amount of work: later campaigns only add allocator
    // fragmentation, by however many campaigns the time box fits.
    let result = untraced(&c, 0).map(|u| out.fingerprints.push((0, u.fingerprint)));
    out.attempt(result);
    let peak_rss_mb = peak_rss_mib().unwrap_or(f64::NAN);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    if trace {
        let mut tracer = Tracer::default();
        profile(&c, w.distinct, |_| Instant::now() < deadline, &mut tracer, &mut out);
        out.set("scenarios.build_ms", setup_s * 1e3);
        out.trace = vec![("spans", tracer.to_json())];
        return out;
    }
    let (mut campaign_s, mut measure_s, mut onmi) = (Vec::new(), Vec::new(), Vec::new());
    for index in (0..w.distinct).cycle() {
        let result = untraced(&c, index).map(|u| {
            campaign_s.push(u.campaign_s);
            measure_s.push(u.measure_s);
            onmi.push(u.onmi);
            out.fingerprints.push((index, u.fingerprint));
        });
        out.attempt(result);
        if Instant::now() >= deadline {
            break;
        }
    }
    out.set("setup_s", setup_s);
    out.set("campaign_s", median(&campaign_s));
    // A batch campaign answers once, at its end.
    out.set("first_answer_s", median(&campaign_s));
    out.set("broadcasts_per_s", f64::from(w.iterations) / median(&measure_s));
    out.set("peak_rss_mb", peak_rss_mb);
    out.notes.push(format!(
        "campaigns: {} of {} broadcasts on {threads} worker threads; median final oNMI {:.4}",
        campaign_s.len(),
        w.iterations,
        median(&onmi)
    ));
    out
}

/// Builds the workload's scenario [`SETUP_BUILDS`] times back to back at
/// the start of the run; returns the median build time, seconds, and the
/// last scenario built. Builds placed between campaigns instead read up to
/// 2x apart, depending on what the campaign before left in the allocator.
pub fn setup(spec: &str) -> (f64, Scenario) {
    let spec = ScenarioSpec::parse(spec).expect("workload scenarios parse");
    let mut secs = Vec::with_capacity(SETUP_BUILDS);
    let mut scenario = None;
    for _ in 0..SETUP_BUILDS {
        drop(scenario.take());
        let t = Instant::now();
        let built = spec.build();
        secs.push(t.elapsed().as_secs_f64());
        scenario = Some(built);
    }
    (median(&secs), scenario.expect("SETUP_BUILDS is positive"))
}

/// The rendered report record whose hash is the campaign's fingerprint.
pub fn render(report: &TomographyReport, pieces: u32) -> String {
    ReportRecord::new(report, pieces).to_json().render()
}

/// Checks a rendered report record: it parses back into the same record,
/// covers every iteration and host, and scores within [0, 1]. Returns the
/// final oNMI and the fingerprint.
pub fn check_record(text: &str, iterations: u32, hosts: usize) -> Result<(f64, u64), String> {
    let doc = json::parse(text).map_err(|e| format!("report does not parse: {e}"))?;
    let record = ReportRecord::from_json(&doc).map_err(|e| format!("report is invalid: {e}"))?;
    if record.to_json().render() != text {
        return Err("report does not round-trip byte for byte".to_string());
    }
    if record.convergence.len() != iterations as usize
        || record.run_makespans.len() != iterations as usize
    {
        return Err(format!(
            "report covers {} of {iterations} iterations",
            record.convergence.len()
        ));
    }
    if record.hosts != hosts || record.final_partition.len() != hosts {
        return Err(format!("report covers {} of {hosts} hosts", record.hosts));
    }
    let onmi = record.final_onmi();
    if !(0.0..=1.0).contains(&onmi) {
        return Err(format!("final oNMI {onmi} outside [0, 1]"));
    }
    Ok((onmi, fnv1a64(text.as_bytes())))
}

/// Reference fingerprints for `workload` at [`DEFAULT_SEED`], by campaign or
/// job index.
fn reference(workload: &str) -> Vec<u64> {
    let doc = json::parse(include_str!("../reference.json")).expect("reference.json parses");
    assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(DEFAULT_SEED));
    doc.get("fingerprints")
        .and_then(|f| f.get(workload))
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|h| {
            h.as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .expect("reference fingerprints are hex strings")
        })
        .collect()
}

/// Compares a run's fingerprints with the reference (default seed only;
/// an index the reference does not list fails too) and, at every seed,
/// requires one index to hash the same every time it ran. Each mismatch is
/// a failure.
fn gate_fingerprints(workload: &str, seed: u64, out: &mut Outcome) {
    let reference = (seed == DEFAULT_SEED).then(|| reference(workload));
    let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
    let mut failures = Vec::new();
    for &(index, fp) in &out.fingerprints {
        match reference.as_ref().map(|r| r.get(index as usize)) {
            Some(Some(&want)) if fp != want => failures
                .push(format!("campaign {index}: fingerprint {fp:016x}, reference {want:016x}")),
            Some(None) => failures.push(format!("campaign {index}: no reference fingerprint")),
            _ => {}
        }
        if *seen.entry(index).or_insert(fp) != fp {
            failures.push(format!("campaign {index}: fingerprint differs between two runs of it"));
        }
    }
    for f in failures {
        out.fail(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_found() {
        let names: std::collections::BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), WORKLOADS.len());
        for w in &WORKLOADS {
            assert_eq!(find(w.name).unwrap().scenario, w.scenario);
            ScenarioSpec::parse(w.scenario).unwrap();
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn reference_covers_every_index_a_run_reaches() {
        for w in &WORKLOADS {
            assert_eq!(reference(w.name).len() as u64, w.distinct, "{}", w.name);
        }
    }

    #[test]
    fn gate_flags_reference_and_repeat_mismatches() {
        let good = reference("protocol-wan1k")[0];
        let mut out = Outcome { fingerprints: vec![(0, good), (0, good)], ..Outcome::default() };
        gate_fingerprints("protocol-wan1k", DEFAULT_SEED, &mut out);
        assert_eq!(out.failed, 0);

        let mut out = Outcome { fingerprints: vec![(0, good ^ 1)], ..Outcome::default() };
        gate_fingerprints("protocol-wan1k", DEFAULT_SEED, &mut out);
        assert_eq!(out.failed, 1, "reference mismatch at the default seed");

        let mut out = Outcome { fingerprints: vec![(999, good)], ..Outcome::default() };
        gate_fingerprints("protocol-wan1k", DEFAULT_SEED, &mut out);
        assert_eq!(out.failed, 1, "an index the reference does not list");

        let mut out = Outcome { fingerprints: vec![(0, 5), (1, 6), (0, 7)], ..Outcome::default() };
        gate_fingerprints("protocol-wan1k", 99, &mut out);
        assert_eq!(out.failed, 1, "other seeds check repeats only");
    }
}
