//! `btt-benchmark` — the repository's benchmark.
//!
//! ```text
//! btt-benchmark run [--workload W]... [--seed N] [--trace [0|1]] [--out FILE] [W...]
//! btt-benchmark compare PARENT CHANGE
//! ```
//!
//! `run` measures each named workload (all four by default) for
//! `BENCHMARK.json`'s `run_seconds` after its set-up and one untimed
//! warm-up, checks every report it produced, and prints one line per
//! metric followed by a final JSON result line. Several workloads run one
//! after another, each in a child process of its own, so peak memory and
//! allocator state never carry over. See README.md for the workloads, the
//! metrics, and how to read them.

mod campaign;
mod compare;
mod daemon;
mod stats;
mod trace;
mod workloads;

use btt_core::serialize::json::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "\
usage: btt-benchmark run [OPTIONS] [WORKLOAD...]
       btt-benchmark compare PARENT CHANGE

run options:
  --workload <W>     a workload to run (repeatable; default: all four):
                     protocol-wan1k, solver-edge2k, scale-fattree4k,
                     serve-churn512
  --seed <N>         input seed (default: 2012, the reference seed)
  --seconds <S>      accepted only when equal to run_seconds in
                     BENCHMARK.json, which fixes the measurement time
  --trace [0|1]      1 (or bare): traced run, per-layer metrics and
                     out/trace-<workload>.json; 0: untraced (default)
  --out <FILE>       append one JSON record per run (input to compare)

compare prints, per workload and metric, both sides' medians and
quartiles, the change's win rate over paired runs, the bound from
BENCHMARK.json, and a verdict: better, same, worse, or unresolved.
A workload with a failed run, or a pair that differs in seed, length,
tracing or any report, is FAILED instead.";

/// The benchmark's definition: metric names, units and bounds, and the
/// measurement time of one run.
const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// `run_seconds` from `BENCHMARK.json`: how long every run measures.
fn run_seconds() -> u64 {
    btt_core::serialize::json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(Json::as_u64))
        .expect("BENCHMARK.json holds an integer run_seconds")
}

/// End-to-end metrics: `(name, unit)`. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("first_answer_s", "s"),
    ("broadcasts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("scenarios.build_ms", "ms"),
    ("broadcast.wall_ms", "ms"),
    ("broadcast.busy_ms", "ms"),
    ("broadcast.parallel_efficiency", "ratio"),
    ("broadcast.thread_speedup", "ratio"),
    ("engine.advance_ms", "ms"),
    ("engine.events_popped", "count"),
    ("engine.stale_share", "ratio"),
    ("fairness.solver_ms", "ms"),
    ("fairness.resolves", "count"),
    ("fairness.comp_flows", "count"),
    ("fairness.waterfill_rounds", "count"),
    ("swarm.service_ms", "ms"),
    ("swarm.service_calls", "count"),
    ("swarm.haves_ms", "ms"),
    ("swarm.have_announcements", "count"),
    ("swarm.rechoke_ms", "ms"),
    ("swarm.piece_picks", "count"),
    ("swarm.useful_pick_share", "ratio"),
    ("metrics.fold_ms", "ms"),
    ("metrics.accumulator_bytes", "bytes"),
    ("metrics.nnz_edges", "count"),
    ("pipeline.aggregate_ms", "ms"),
    ("pipeline.cluster_ms", "ms"),
    ("pipeline.graph_ms", "ms"),
    ("pipeline.graph_edges", "count"),
    ("backend.infer_ms", "ms"),
    ("backend.final_onmi", "ratio"),
    ("diagnosis.ms", "ms"),
    ("serialize.ms", "ms"),
    ("serialize.bytes", "bytes"),
    ("session.observe_ms", "ms"),
    ("session.finalize_ms", "ms"),
    ("measure.unattributed_ms", "ms"),
    ("analyze.unattributed_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|run| run.execute()),
        Some("compare") => compare::command(&args[1..], BENCHMARK_JSON),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => Err(format!("expected a command\n\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("btt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// A parsed `run` command.
#[derive(Debug)]
struct Run {
    workloads: Vec<&'static Workload>,
    seed: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<Run, String> {
    let mut run = Run { workloads: Vec::new(), seed: DEFAULT_SEED, trace: false, out: None };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                run.workloads
                    .push(workloads::find(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                run.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants an unsigned integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                if v.parse::<f64>().ok() != Some(run_seconds() as f64) {
                    return Err(format!(
                        "--seconds {v} differs from BENCHMARK.json's run_seconds {}",
                        run_seconds()
                    ));
                }
            }
            "--out" => run.out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                run.trace = it.next_if(|v| *v == "0" || *v == "1").is_none_or(|v| v == "1");
            }
            name if !name.starts_with('-') => {
                run.workloads
                    .push(workloads::find(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    if run.workloads.is_empty() {
        run.workloads = WORKLOADS.iter().collect();
    }
    Ok(run)
}

/// Where runs write traces and the daemon's temporary artifacts.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit being measured, read from the repository's own `.git`
/// (loose or packed ref), or `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |name: &str| std::fs::read_to_string(git.join(name)).unwrap_or_default();
    let head = read("HEAD");
    let commit = match head.trim().strip_prefix("ref: ") {
        None => head.trim().to_string(),
        Some(name) => match read(name).trim() {
            "" => read("packed-refs")
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
                .unwrap_or_default(),
            loose => loose.to_string(),
        },
    };
    if commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()) {
        commit
    } else {
        "unknown".to_string()
    }
}

impl Run {
    /// Runs the workloads; `Ok(true)` when every output checked out.
    fn execute(&self) -> Result<bool, String> {
        if let [w] = self.workloads[..] {
            return self.execute_one(w);
        }
        let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        let mut correct = true;
        for w in &self.workloads {
            let mut child = Command::new(&exe);
            child.args(["run", "--workload", w.name, "--seed", &self.seed.to_string()]);
            child.args(["--trace", if self.trace { "1" } else { "0" }]);
            if let Some(out) = &self.out {
                child.arg("--out").arg(out);
            }
            let status = child.status().map_err(|e| format!("running {}: {e}", w.name))?;
            correct &= status.success();
        }
        Ok(correct)
    }

    fn execute_one(&self, w: &Workload) -> Result<bool, String> {
        let cpus = workloads::cpus();
        let (commit, rustc) = (git_commit(), env!("BTT_BENCHMARK_RUSTC"));
        let (seconds, mode) = (run_seconds(), if self.trace { "traced" } else { "untraced" });
        println!("# btt-benchmark {}: seed {}, {seconds} s, {mode}", w.name, self.seed);
        println!("# available_parallelism {cpus}, commit {commit}, {rustc}");
        std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating {:?}: {e}", out_dir()))?;

        let mut outcome = workloads::run(w, self.seed, seconds as f64, self.trace, &out_dir());
        let table: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        for &(name, _) in table.iter().filter(|(name, _)| *name != "ok_share") {
            if !outcome.metrics.get(name).is_some_and(|v| v.is_finite()) {
                outcome.fail(format!("metric {name} was not measured"));
            }
        }
        if !self.trace {
            let ok = outcome.attempted.saturating_sub(outcome.failed);
            outcome.set("ok_share", ok as f64 / outcome.attempted.max(1) as f64);
        }
        let correct = outcome.failed == 0;

        for line in &outcome.notes {
            println!("note {line}");
        }
        let mut fingerprints = outcome.fingerprints.clone();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        for (index, fp) in &fingerprints {
            println!("fingerprint {index} {fp:016x}");
        }
        for failure in &outcome.failures {
            println!("FAILED {failure}");
        }
        let metrics = |with_units: bool| {
            let fields = table.iter().map(|&(name, unit)| {
                let value = Json::Float(outcome.metrics.get(name).copied().unwrap_or(f64::NAN));
                let v = if with_units {
                    Json::obj(vec![("value", value), ("unit", Json::Str(unit.to_string()))])
                } else {
                    value
                };
                (name, v)
            });
            Json::obj(fields.collect())
        };
        for &(name, unit) in table {
            println!(
                "metric {name} = {} {unit}",
                outcome.metrics.get(name).copied().unwrap_or(f64::NAN)
            );
        }

        let header = vec![
            ("workload", Json::Str(w.name.to_string())),
            ("seed", Json::UInt(self.seed)),
            ("seconds", Json::UInt(seconds)),
            ("trace", Json::Bool(self.trace)),
            ("available_parallelism", Json::UInt(cpus as u64)),
            ("commit", Json::Str(commit)),
            ("rustc", Json::Str(rustc.to_string())),
        ];
        if self.trace {
            let mut doc = header.clone();
            doc.push(("per_layer", metrics(false)));
            doc.extend(std::mem::take(&mut outcome.trace));
            let path = out_dir().join(format!("trace-{}.json", w.name));
            std::fs::write(&path, Json::obj(doc).render())
                .map_err(|e| format!("writing {path:?}: {e}"))?;
            println!("# trace written to {}", path.display());
        }
        let summary = vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::UInt(outcome.attempted)),
            ("failed", Json::UInt(outcome.failed)),
        ];
        if let Some(path) = &self.out {
            let mut record = header;
            record.extend(summary.iter().cloned());
            record.push(("metrics", metrics(false)));
            record.push((
                "fingerprints",
                Json::Array(
                    fingerprints
                        .iter()
                        .map(|(i, fp)| {
                            Json::Array(vec![Json::UInt(*i), Json::Str(format!("{fp:016x}"))])
                        })
                        .collect(),
                ),
            ));
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("opening {path:?}: {e}"))?;
            writeln!(file, "{}", Json::obj(record).render())
                .map_err(|e| format!("writing {path:?}: {e}"))?;
        }
        let mut result = summary;
        result.push(("metrics", metrics(true)));
        println!("{}", Json::obj(result).render());
        Ok(correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_arguments_parse() {
        let seconds = run_seconds();
        let line = format!("--workload solver-edge2k --seed 7 --seconds {seconds} --trace 0");
        let run = parse_run(&args(&line)).unwrap();
        assert_eq!(run.workloads.len(), 1);
        assert_eq!(run.workloads[0].name, "solver-edge2k");
        assert_eq!((run.seed, run.trace), (7, false));
        assert!(parse_run(&args("--trace 1 serve-churn512")).unwrap().trace);
        assert!(parse_run(&args("--trace serve-churn512")).unwrap().trace);
        assert_eq!(parse_run(&args("")).unwrap().workloads.len(), 4);
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args(&format!("--seconds {}", seconds + 1))).is_err());
        assert!(parse_run(&args("--bogus")).is_err());
    }

    /// The metric tables here and the metric lists in `BENCHMARK.json` name
    /// the same metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = btt_core::serialize::json::parse(BENCHMARK_JSON).unwrap();
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap(),
                        m.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
    }
}
