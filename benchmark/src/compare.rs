//! `btt-benchmark compare PARENT CHANGE`: judges a change against its
//! parent from two files of `run --out` records.
//!
//! Runs pair up in file order per workload (parent run `i` with change run
//! `i`), so record them alternating which side runs first, with the same
//! seed on both sides of a pair. A workload is *failed*, and gets no
//! verdicts, when any of its runs failed its correctness check, when the
//! two runs of a pair differ in seed, length or tracing, or when they
//! rendered a different report for a campaign both ran.
//!
//! Otherwise a change is *better* on a metric when it wins at least nine
//! tenths of at least ten pairs and the medians differ by more than the
//! parent's own quartile spread; *worse* when its median is worse than the
//! parent's by more than the metric's bound; *unresolved* when there are
//! too few pairs, or the run-to-run spread is wider than the bound and not
//! every change run beats every parent run; *same* otherwise. Metrics
//! without a bound (per-layer) are worse by the mirror image of the better
//! rule.

use crate::stats::{median, quartiles};
use btt_core::serialize::json::{self, Json};
use std::collections::BTreeMap;

/// Fewest pairs a verdict other than unresolved rests on.
const MIN_PAIRS: usize = 10;

/// The judgement on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Judges `change` against `parent` (paired by index). `lower_is_better`
/// gives the metric's direction, `bound` its allowed relative worsening.
/// Returns the verdict and the change's wins out of the pairs.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> (Verdict, usize, usize) {
    let pairs = parent.len().min(change.len());
    // Positive when the change reads better than the parent.
    let gain = |p: f64, c: f64| if lower_is_better { p - c } else { c - p };
    let wins = (0..pairs).filter(|&i| gain(parent[i], change[i]) > 0.0).count();
    let losses = (0..pairs).filter(|&i| gain(parent[i], change[i]) < 0.0).count();
    if pairs < MIN_PAIRS {
        return (Verdict::Unresolved, wins, pairs);
    }
    let (p1, pm, p3) = quartiles(parent);
    let (c1, cm, c3) = quartiles(change);
    let delta = gain(pm, cm);
    if wins * 10 >= pairs * 9 && delta > p3 - p1 {
        return (Verdict::Better, wins, pairs);
    }
    let verdict = match bound {
        Some(bound) => {
            let spread = (p3 - p1).max(c3 - c1) / pm.abs();
            let all_better = parent.iter().all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
            if spread > bound {
                if all_better {
                    Verdict::Better
                } else {
                    Verdict::Unresolved
                }
            } else if -delta > bound * pm.abs() {
                Verdict::Worse
            } else {
                Verdict::Same
            }
        }
        None if losses * 10 >= pairs * 9 && -delta > p3 - p1 => Verdict::Worse,
        None => Verdict::Same,
    };
    (verdict, wins, pairs)
}

/// How one metric is judged, from `BENCHMARK.json`.
struct Rule {
    lower_is_better: bool,
    bound: Option<f64>,
    unit: String,
}

fn rules(bench: &Json) -> Result<Vec<(String, Rule)>, String> {
    let mut rules = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).and_then(Json::as_array).ok_or(format!("no {key} list"))? {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).ok_or(format!("{key} entry without {k}"));
            rules.push((
                field("name")?.to_string(),
                Rule {
                    lower_is_better: field("better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                    unit: field("unit")?.to_string(),
                },
            ));
        }
    }
    Ok(rules)
}

/// One `run --out` record: a single run of one workload.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    correct: bool,
    metrics: BTreeMap<String, f64>,
    /// Report fingerprint by campaign or job index.
    fingerprints: BTreeMap<u64, String>,
}

impl Record {
    fn from_json(record: &Json) -> Result<Record, String> {
        let field = |k: &str| record.get(k).ok_or(format!("no {k}"));
        let Json::Object(metrics) = field("metrics")? else {
            return Err("metrics is not an object".to_string());
        };
        let mut fingerprints = BTreeMap::new();
        for pair in field("fingerprints")?.as_array().ok_or("fingerprints is not an array")? {
            match pair.as_array() {
                Some([index, fp]) => {
                    let index = index.as_u64().ok_or("fingerprint index is not an integer")?;
                    let fp = fp.as_str().ok_or("fingerprint is not a string")?;
                    fingerprints.insert(index, fp.to_string());
                }
                _ => return Err("fingerprints entry is not an [index, hash] pair".to_string()),
            }
        }
        Ok(Record {
            workload: field("workload")?.as_str().ok_or("workload is not a string")?.to_string(),
            seed: field("seed")?.as_u64().ok_or("seed is not an integer")?,
            seconds: field("seconds")?.as_f64().ok_or("seconds is not a number")?,
            trace: field("trace")?.as_bool().ok_or("trace is not a bool")?,
            correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
            metrics: metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            fingerprints,
        })
    }
}

/// Records per workload, in file order.
type Runs = BTreeMap<String, Vec<Record>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|doc| Record::from_json(&doc))
            .map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        runs.entry(record.workload.clone()).or_default().push(record);
    }
    Ok(runs)
}

/// Why one workload's runs cannot be judged: failed runs, and pairs whose
/// runs had different settings or rendered different reports.
fn problems(parent: &[Record], change: &[Record]) -> Vec<String> {
    let mut problems = Vec::new();
    for (side, runs) in [("parent", parent), ("change", change)] {
        for (i, r) in runs.iter().enumerate().filter(|(_, r)| !r.correct) {
            problems.push(format!("{side} run {i} (seed {}) failed its checks", r.seed));
        }
    }
    for (i, (p, c)) in parent.iter().zip(change).enumerate() {
        if (p.seed, p.seconds, p.trace) != (c.seed, c.seconds, c.trace) {
            problems.push(format!(
                "pair {i}: parent ran seed {} for {} s (trace {}), change seed {} for {} s (trace {})",
                p.seed, p.seconds, p.trace, c.seed, c.seconds, c.trace
            ));
            continue;
        }
        for (index, fp) in &p.fingerprints {
            if let Some(other) = c.fingerprints.get(index).filter(|other| *other != fp) {
                problems.push(format!(
                    "pair {i} (seed {}): campaign {index} report {fp} at the parent, {other} at the change",
                    p.seed
                ));
            }
        }
    }
    problems
}

/// The `compare` command against the bounds in `bench` (the text of
/// `BENCHMARK.json`); `Ok(false)` when any workload failed or any metric is
/// worse.
pub fn command(args: &[String], bench: &str) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("compare wants PARENT and CHANGE record files".to_string());
    };
    let rules = rules(&json::parse(bench).map_err(|e| format!("BENCHMARK.json: {e}"))?)?;
    let (parent, change) = (read_runs(parent)?, read_runs(change)?);

    let mut ok = true;
    println!("workload  metric  parent median [q1, q3]  change median [q1, q3]  wins/pairs  bound  verdict");
    for (workload, parent_runs) in &parent {
        let Some(change_runs) = change.get(workload) else { continue };
        let problems = problems(parent_runs, change_runs);
        if !problems.is_empty() {
            ok = false;
            for p in problems {
                println!("{workload}  FAILED  {p}");
            }
            continue;
        }
        let values = |runs: &[Record], name: &str| -> Option<Vec<f64>> {
            runs.iter().map(|r| r.metrics.get(name).copied()).collect()
        };
        for (name, rule) in &rules {
            let (Some(p), Some(c)) = (values(parent_runs, name), values(change_runs, name)) else {
                continue;
            };
            let (v, wins, pairs) = verdict(&p, &c, rule.lower_is_better, rule.bound);
            ok &= v != Verdict::Worse;
            let (p1, _, p3) = quartiles(&p);
            let (c1, _, c3) = quartiles(&c);
            println!(
                "{workload}  {name}  {:.6} [{p1:.6}, {p3:.6}] {unit}  {:.6} [{c1:.6}, {c3:.6}] {unit}  {wins}/{pairs}  {}  {}",
                median(&p),
                median(&c),
                rule.bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                format!("{v:?}").to_lowercase(),
                unit = rule.unit,
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn clear_gain_is_better() {
        // Lower is better; every change run beats its pair by far more
        // than the parent's spread.
        let (v, wins, pairs) = verdict(&runs(100.0, 0.1), &runs(80.0, 0.1), true, Some(0.1));
        assert_eq!((v, wins, pairs), (Verdict::Better, 10, 10));
        // Higher is better: the same numbers read the other way are worse.
        assert_eq!(
            verdict(&runs(100.0, 0.1), &runs(80.0, 0.1), false, Some(0.1)).0,
            Verdict::Worse
        );
    }

    #[test]
    fn small_shift_within_bound_is_same() {
        let (v, ..) = verdict(&runs(100.0, 0.1), &runs(101.0, 0.1), true, Some(0.1));
        assert_eq!(v, Verdict::Same);
    }

    #[test]
    fn shift_past_bound_is_worse() {
        let (v, wins, _) = verdict(&runs(100.0, 0.1), &runs(115.0, 0.1), true, Some(0.1));
        assert_eq!((v, wins), (Verdict::Worse, 0));
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        // Quartile spread ~45 % of the median against a 10 % bound.
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 70.0 } else { 130.0 }).collect();
        let (v, ..) =
            verdict(&noisy, &noisy.iter().map(|x| x + 1.0).collect::<Vec<_>>(), true, Some(0.1));
        assert_eq!(v, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let (v, ..) =
            verdict(&noisy, &noisy.iter().map(|_| 60.0).collect::<Vec<_>>(), true, Some(0.1));
        assert_eq!(v, Verdict::Better);
    }

    #[test]
    fn too_few_pairs_is_unresolved() {
        let (v, wins, pairs) = verdict(&[100.0; 9], &[50.0; 9], true, Some(0.1));
        assert_eq!((v, wins, pairs), (Verdict::Unresolved, 9, 9));
    }

    #[test]
    fn unbounded_metrics_use_the_pair_rule_both_ways() {
        assert_eq!(verdict(&runs(10.0, 0.01), &runs(12.0, 0.01), true, None).0, Verdict::Worse);
        assert_eq!(verdict(&runs(10.0, 0.01), &runs(8.0, 0.01), true, None).0, Verdict::Better);
        assert_eq!(verdict(&runs(10.0, 0.01), &runs(10.0, 0.01), true, None).0, Verdict::Same);
    }

    /// A record line as `run --out` writes it.
    fn line(seed: u64, seconds: u64, correct: bool, fingerprints: &[(u64, &str)]) -> String {
        let fps: Vec<String> = fingerprints.iter().map(|(i, h)| format!("[{i},\"{h}\"]")).collect();
        format!(
            "{{\"workload\":\"w\",\"seed\":{seed},\"seconds\":{seconds}.0,\"trace\":false,\
             \"correct\":{correct},\"failed\":{},\"metrics\":{{\"campaign_s\":1.5}},\
             \"fingerprints\":[{}]}}",
            u64::from(!correct),
            fps.join(",")
        )
    }

    fn record(text: &str) -> Record {
        Record::from_json(&json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn records_read_back() {
        let r = record(&line(7, 20, true, &[(0, "00ff"), (1, "0a0b")]));
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds, r.trace, r.correct),
            ("w", 7, 20.0, false, true)
        );
        assert_eq!(r.metrics["campaign_s"], 1.5);
        assert_eq!(r.fingerprints[&1], "0a0b");
        assert!(Record::from_json(&json::parse("{\"workload\":\"w\"}").unwrap()).is_err());
    }

    #[test]
    fn matching_pairs_have_no_problems() {
        let p = [record(&line(7, 20, true, &[(0, "aa"), (1, "bb")]))];
        let c = [record(&line(7, 20, true, &[(1, "bb"), (2, "cc")]))];
        assert!(problems(&p, &c).is_empty());
    }

    #[test]
    fn a_failed_run_fails_the_workload() {
        let good = record(&line(7, 20, true, &[]));
        let bad = record(&line(7, 20, false, &[]));
        assert_eq!(problems(std::slice::from_ref(&good), std::slice::from_ref(&bad)).len(), 1);
        assert_eq!(problems(&[bad], &[good]).len(), 1);
    }

    #[test]
    fn differing_reports_fail_the_workload() {
        let p = [record(&line(7, 20, true, &[(0, "aa"), (1, "bb")]))];
        let c = [record(&line(7, 20, true, &[(0, "aa"), (1, "bc")]))];
        let found = problems(&p, &c);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("campaign 1"), "{found:?}");
    }

    #[test]
    fn differing_settings_fail_the_workload() {
        let base = record(&line(7, 20, true, &[]));
        let other_seed = record(&line(8, 20, true, &[]));
        let other_length = record(&line(7, 10, true, &[]));
        let mut traced = base.clone();
        traced.trace = true;
        for other in [other_seed, other_length, traced] {
            assert_eq!(problems(std::slice::from_ref(&base), &[other]).len(), 1);
        }
    }
}
