//! `btt` — the campaign CLI: sweep scenarios, emit structured artifacts.
//!
//! ```text
//! btt sweep [OPTIONS]        run a (scenario × backend × seed) campaign
//! btt serve [OPTIONS]        run the tomography daemon (btt-serve-v1 socket)
//! btt stress [OPTIONS]       hammer a daemon with concurrent campaigns
//! btt list                   show scenario syntax and backend names
//! btt check <DIR>            validate campaign artifacts (JSON/CSV parse)
//! ```
//!
//! Every subcommand answers `--help`/`-h` with its own usage; run
//! `btt list` for the scenario grammar (including the `+churn=` /
//! `+xtraffic=` / `+degrade=` reliability suffixes). The sibling `repro`
//! binary reproduces the paper's figure-level experiments.
//!
//! Exit status is non-zero on bad arguments or (for `check`) invalid
//! artifacts, so CI can smoke-run the binary directly.

use btt_bench::campaign::{
    check_outputs, parse_backend_list, run_sweep, summary_table, write_outputs, SweepSpec,
};
use btt_bench::serve::{serve as start_daemon, ServeConfig};
use btt_bench::stress::{run_stress, StressSpec};
use btt_core::backend::Backend;
use btt_core::scenarios::ScenarioSpec;
use std::path::PathBuf;
use std::process::ExitCode;

const TOP_USAGE: &str = "\
usage: btt <COMMAND> [OPTIONS]

commands:
  sweep    run a (scenario x backend x seed) campaign and write artifacts
  serve    run the tomography daemon (newline-delimited JSON over TCP)
  stress   load-test a running daemon with concurrent campaign jobs
  list     show scenario spec syntax, scale presets, and backend names
  check    validate campaign artifacts in a directory

run `btt <COMMAND> --help` for per-command options.

The sibling `repro` binary reproduces the paper's figure-level experiments
(`repro --help` for its options).";

const SWEEP_USAGE: &str = "\
usage: btt sweep [OPTIONS]

Runs every (scenario, backend, seed) combination and writes one JSON
record plus one convergence CSV per run, and a campaign summary.csv.
Campaign timings come from the btt-benchmark package (benchmark/README.md).

options:
  --scenarios <S,S,...>    scenario specs (default: 2x2,star:3x6:0.1:6,wan:3x4:0.2)
                           `btt list` shows the grammar, incl. reliability
                           suffixes like wan-512+churn=0.05
  --backends <B,B,...>     phase-2 inference backends (default:
                           louvain,label-propagation); `btt list` names them
  --seeds <N,N,...>        master seeds (default: 2012)
  --iterations <N>         broadcast iterations per run (default: 10)
  --paper-iterations       use each scenario's default iteration count
  --pieces <N>             file size in 16 KiB fragments (default: 512)
  --threads <N>            measurement worker threads per campaign
                           (default: 0 = auto, 1 = serial; reports are
                           byte-identical for every value)
  --quick                  shrink to 3 iterations x 128 fragments
  --out <DIR>              artifact directory (default: out/campaign)
  -h, --help               show this help";

const SERVE_USAGE: &str = "\
usage: btt serve [OPTIONS]

Runs the tomography daemon: accepts campaign jobs over a newline-delimited
JSON TCP socket (schema btt-serve-v1) and streams each one — broadcasts
feed the live session as they complete, so `snapshot` requests return the
freshest scored partition mid-campaign. Request kinds: ping, submit,
status, snapshot, report, list, shutdown. A `shutdown` request drains the
in-flight jobs, writes summary.csv, and exits; completed jobs write the
standard campaign artifacts, so `btt check <DIR>` validates the output.

options:
  --addr <HOST:PORT>       bind address (default: 127.0.0.1:7411; port 0
                           picks a free port and prints it)
  --out <DIR>              artifact directory (default: out/serve)
  --no-artifacts           serve from memory only, write nothing
  -h, --help               show this help";

const STRESS_USAGE: &str = "\
usage: btt stress [OPTIONS]

Hammers a running `btt serve` daemon with N concurrent campaign jobs over
C connections, polling status and partition snapshots until every job
lands, then prints request-latency and job-latency percentiles,
throughput, and how many snapshots were served mid-measurement.

options:
  --addr <HOST:PORT>       daemon address (default: 127.0.0.1:7411)
  --jobs <N>               total jobs to submit (default: 8)
  --concurrency <N>        concurrent client connections (default: 4)
  --scenario <SPEC>        scenario per job (default: star:2x4:0.2:4)
  --backend <B>            inference backend (default: louvain)
  --seed <N>               base seed; job i uses seed+i (default: 2012)
  --iterations <N>         broadcast iterations per job (default: 3)
  --pieces <N>             file size in 16 KiB fragments (default: 64)
  --recluster-every <N>    streaming re-cluster cadence (default: 1)
  --poll-ms <N>            delay between poll rounds (default: 10)
  --shutdown               send a shutdown request once all jobs land
  -h, --help               show this help";

const LIST_USAGE: &str = "\
usage: btt list

Prints the scenario spec grammar (paper datasets, synthetic families,
scale presets, reliability suffixes) and the inference backend names.

options:
  -h, --help               show this help";

const CHECK_USAGE: &str = "\
usage: btt check <DIR>

Validates every campaign artifact in DIR: report JSONs must parse against
the current schema and CSVs must be rectangular. Exits non-zero on the
first invalid artifact, naming the offending file. Warns, without failing,
on each report whose final partition is degenerate and on each report that
finished with oNMI 0.0; the latter names the report's scenario, seed and
separation ratio, and which backends in DIR scored zero or nonzero on the
same campaign.

options:
  -h, --help               show this help";

fn top_usage() -> ExitCode {
    eprintln!("{TOP_USAGE}");
    ExitCode::from(2)
}

/// `--help` goes to stdout with a zero exit; errors go to stderr with 2.
fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sweep") => sweep(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("stress") => stress_cmd(&args[1..]),
        Some("list") => list(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{TOP_USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("btt: unknown command {other:?}\n");
            top_usage()
        }
        None => top_usage(),
    }
}

fn list(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{LIST_USAGE}");
        return ExitCode::SUCCESS;
    }
    if !args.is_empty() {
        eprintln!("btt list: unexpected argument {:?} (try `btt list --help`)\n", args[0]);
        eprintln!("{LIST_USAGE}");
        return ExitCode::from(2);
    }
    println!("scenario specs (comma-separate for --scenarios):");
    println!("  paper datasets: B  B-T  G-T  B-G-T  B-G-T-L  2x2");
    println!("  fat-tree:<pods>x<racks>x<hosts>[:<edge_oversub>[:<core_oversub>]]");
    println!("      e.g. fat-tree:2x2x4:8:1  (rack uplinks 8x oversubscribed)");
    println!("  star:<arms>x<hosts>[:<uplink_ratio>[:<hub_hosts>]]");
    println!("      e.g. star:3x4:0.1:4     (arm uplinks at 10% of demand)");
    println!("  wan:<sites>x<hosts>[:<bottleneck_ratio>[:<access_mbps>]]");
    println!("      e.g. wan:3x8:0.5        (WAN segments at 50% of site demand)");
    println!("      e.g. wan:16x64:0.5:20   (1024 consumer-edge hosts at 20 Mb/s)");
    println!();
    println!("reliability suffixes (append to any spec or preset; fractions in [0,1]):");
    println!("  +churn=<f>     fraction of hosts crashing per broadcast (half recover)");
    println!("  +xtraffic=<f>  competing bulk-stream pairs as a fraction of hosts");
    println!("  +degrade=<f>   fraction of access links degraded mid-broadcast");
    println!("      e.g. wan:16x64:0.5:20+churn=0.05+xtraffic=0.2");
    println!();
    println!("scale presets (shorthands for the standard large scenarios):");
    for (name, spec) in btt_core::scenarios::SCALE_PRESETS {
        println!("  {name:18} = {spec}");
    }
    println!();
    println!("backends (comma-separate for --backends; shorthands in parens):");
    println!("  {}", Backend::name_list().replace(", ", "\n  "));
    ExitCode::SUCCESS
}

fn check(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{CHECK_USAGE}");
        return ExitCode::SUCCESS;
    }
    let [dir] = args else {
        eprintln!("btt check: expected exactly one directory argument\n");
        eprintln!("{CHECK_USAGE}");
        return ExitCode::from(2);
    };
    match check_outputs(&PathBuf::from(dir)) {
        Ok(summary) => {
            for path in &summary.degenerate {
                eprintln!(
                    "warning: {}: degenerate final partition (inference found no structure)",
                    path.display()
                );
            }
            for warning in &summary.zero_onmi {
                eprintln!("warning: {warning}");
            }
            println!(
                "ok: {} JSON record(s) and {} CSV file(s) parse cleanly",
                summary.jsons, summary.csvs
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a sweep-flag error plus a pointer at the help text, exiting 2.
fn sweep_err(message: String) -> ExitCode {
    eprintln!("btt sweep: {message} (try `btt sweep --help`)");
    ExitCode::from(2)
}

/// Prints a serve-flag error plus a pointer at the help text, exiting 2.
fn serve_err(message: String) -> ExitCode {
    eprintln!("btt serve: {message} (try `btt serve --help`)");
    ExitCode::from(2)
}

fn serve_cmd(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{SERVE_USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut config = ServeConfig { addr: "127.0.0.1:7411".to_string(), out: None };
    let mut out = Some(PathBuf::from("out/serve"));
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned()
        };
        match flag {
            "--addr" => {
                let Some(v) = value() else {
                    return serve_err("--addr needs a value".into());
                };
                config.addr = v;
            }
            "--out" => {
                let Some(v) = value() else {
                    return serve_err("--out needs a value".into());
                };
                out = Some(PathBuf::from(v));
            }
            "--no-artifacts" => out = None,
            other => return serve_err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    config.out = out;
    let out_text = config
        .out
        .as_ref()
        .map_or("none (--no-artifacts)".to_string(), |d| d.display().to_string());
    let handle = match start_daemon(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("btt serve: binding the socket failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "btt serve: listening on {} (schema {})",
        handle.addr(),
        btt_bench::serve::SERVE_SCHEMA
    );
    println!("btt serve: artifacts: {out_text}");
    println!("btt serve: send {{\"schema\":\"btt-serve-v1\",\"kind\":\"shutdown\"}} to stop");
    match handle.wait() {
        Ok(stats) => {
            println!(
                "btt serve: drained: {} job(s) submitted, {} completed, {} failed",
                stats.submitted, stats.completed, stats.failed
            );
            if stats.failed > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("btt serve: writing summary failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a stress-flag error plus a pointer at the help text, exiting 2.
fn stress_err(message: String) -> ExitCode {
    eprintln!("btt stress: {message} (try `btt stress --help`)");
    ExitCode::from(2)
}

fn stress_cmd(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{STRESS_USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut spec = StressSpec::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned()
        };
        match flag {
            "--addr" => {
                let Some(addr) = value().and_then(|v| v.parse().ok()) else {
                    return stress_err("--addr wants HOST:PORT".into());
                };
                spec.addr = addr;
            }
            "--jobs" => {
                let Some(n) = value().and_then(|v| v.parse::<u32>().ok()).filter(|&n| n > 0) else {
                    return stress_err("--jobs wants a positive integer".into());
                };
                spec.jobs = n;
            }
            "--concurrency" => {
                let Some(n) = value().and_then(|v| v.parse::<u32>().ok()).filter(|&n| n > 0) else {
                    return stress_err("--concurrency wants a positive integer".into());
                };
                spec.concurrency = n;
            }
            "--scenario" => {
                let Some(v) = value() else {
                    return stress_err("--scenario needs a value".into());
                };
                if let Err(e) = ScenarioSpec::parse(&v) {
                    return stress_err(e);
                }
                spec.scenario = v;
            }
            "--backend" => {
                let Some(v) = value() else {
                    return stress_err(format!("{flag} needs a value"));
                };
                if Backend::from_name(&v).is_none() {
                    return stress_err(format!(
                        "unknown backend {v:?}; valid backends: {}",
                        Backend::name_list()
                    ));
                }
                spec.backend = v;
            }
            "--seed" => {
                let Some(n) = value().and_then(|v| v.parse::<u64>().ok()) else {
                    return stress_err("--seed wants an unsigned integer".into());
                };
                spec.seed = n;
            }
            "--iterations" => {
                let Some(n) = value().and_then(|v| v.parse::<u32>().ok()).filter(|&n| n > 0) else {
                    return stress_err("--iterations wants a positive integer".into());
                };
                spec.iterations = Some(n);
            }
            "--pieces" => {
                let Some(n) = value().and_then(|v| v.parse::<u32>().ok()).filter(|&n| n > 0) else {
                    return stress_err("--pieces wants a positive integer".into());
                };
                spec.pieces = n;
            }
            "--recluster-every" => {
                let Some(n) = value().and_then(|v| v.parse::<u32>().ok()).filter(|&n| n > 0) else {
                    return stress_err("--recluster-every wants a positive integer".into());
                };
                spec.recluster_every = n;
            }
            "--poll-ms" => {
                let Some(n) = value().and_then(|v| v.parse::<u64>().ok()) else {
                    return stress_err("--poll-ms wants an integer".into());
                };
                spec.poll = std::time::Duration::from_millis(n);
            }
            "--shutdown" => spec.shutdown = true,
            other => return stress_err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    println!(
        "btt stress: {} job(s) x {} over {} connection(s) against {}",
        spec.jobs, spec.scenario, spec.concurrency, spec.addr
    );
    match run_stress(&spec) {
        Ok(report) => {
            print!("{}", report.render());
            if report.failed > 0 || report.completed < report.submitted {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("btt stress: {e} (is the daemon running at {}?)", spec.addr);
            ExitCode::FAILURE
        }
    }
}

fn sweep(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{SWEEP_USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut spec = SweepSpec::default_smoke();
    let mut out = PathBuf::from("out/campaign");
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned()
        };
        match flag {
            "--scenarios" => {
                let Some(v) = value() else {
                    return sweep_err("--scenarios needs a value".into());
                };
                match ScenarioSpec::parse_list(&v) {
                    Ok(s) if !s.is_empty() => spec.scenarios = s,
                    Ok(_) => return sweep_err("--scenarios list is empty".into()),
                    Err(e) => return sweep_err(e),
                }
            }
            "--backends" => {
                let Some(v) = value() else {
                    return sweep_err(format!("{flag} needs a value"));
                };
                match parse_backend_list(&v) {
                    Ok(backends) => spec.backends = backends,
                    Err(e) => return sweep_err(e.to_string()),
                }
            }
            "--seeds" => {
                let Some(v) = value() else {
                    return sweep_err("--seeds needs a value".into());
                };
                let seeds: Result<Vec<u64>, _> = v
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse())
                    .collect();
                match seeds {
                    Ok(s) if !s.is_empty() => spec.seeds = s,
                    _ => return sweep_err(format!("--seeds wants integers, got {v:?}")),
                }
            }
            "--iterations" => {
                let Some(n) = value().and_then(|v| v.parse::<u32>().ok()).filter(|&n| n > 0) else {
                    return sweep_err("--iterations wants a positive integer".into());
                };
                spec.iterations = Some(n);
            }
            "--paper-iterations" => spec.iterations = None,
            "--pieces" => {
                let Some(n) = value().and_then(|v| v.parse::<u32>().ok()).filter(|&n| n > 0) else {
                    return sweep_err("--pieces wants a positive integer".into());
                };
                spec.pieces = n;
            }
            "--threads" => {
                let Some(n) = value().and_then(|v| v.parse::<usize>().ok()) else {
                    return sweep_err("--threads wants an unsigned integer".into());
                };
                spec.threads = n;
            }
            "--quick" => {
                spec.iterations = Some(3);
                spec.pieces = 128;
            }
            "--out" => {
                let Some(v) = value() else {
                    return sweep_err("--out needs a value".into());
                };
                out = PathBuf::from(v);
            }
            other => return sweep_err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    let runs = spec.expand();
    println!(
        "btt sweep: {} scenario(s) x {} backend(s) x {} seed(s) = {} run(s), pieces={}, iterations={}",
        spec.scenarios.len(),
        spec.backends.len(),
        spec.seeds.len(),
        runs.len(),
        spec.pieces,
        spec.iterations.map_or("per-scenario".to_string(), |n| n.to_string()),
    );
    let wall = std::time::Instant::now();
    let records = run_sweep(&spec);
    println!("measured + inferred in {:.1?}\n", wall.elapsed());

    print!("{}", summary_table(&records));
    for record in &records {
        if record.final_onmi() < 0.999 {
            println!(
                "note: {} with {} ended at oNMI {:.3} (structure not fully recovered)",
                record.scenario_id,
                record.algorithm,
                record.final_onmi()
            );
        }
        let rel = &record.reliability;
        if rel.hosts_lost > 0 || rel.pairs_unobserved > 0 {
            println!(
                "note: {} with {} ran churned: {} host(s) lost, {} pair(s) unobserved, \
                 coverage {:.2}, confidence-weighted oNMI {:.3}",
                record.scenario_id,
                record.algorithm,
                rel.hosts_lost,
                rel.pairs_unobserved,
                rel.pair_coverage,
                rel.confidence_weighted_onmi
            );
        }
    }

    match write_outputs(&out, &runs, &records) {
        Ok(paths) => {
            println!("\nwrote {} artifact(s) to {}/", paths.len(), out.display());
            println!("  summary: {}", paths.last().expect("summary path").display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("btt: writing artifacts failed: {e}");
            ExitCode::FAILURE
        }
    }
}
