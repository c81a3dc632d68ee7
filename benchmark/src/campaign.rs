//! One campaign, timed two ways.
//!
//! *Untraced*: `measure` then `analyze_with`, exactly as `btt sweep` runs
//! it — the end-to-end numbers come only from here. *Traced*: the same
//! work issued as its public parts, in `analyze()`'s order, with a span
//! around each: the observation stream `measure` folds (`stream_into` plus
//! `push_run_partial`), then series, final graph, infer, reliability and
//! diagnosis, then serialization. Both must render the same report byte
//! for byte, which is checked on every traced campaign.

use crate::stats::{fnv1a64, median};
use crate::trace::Tracer;
use crate::workloads::{campaign_seed, check_record, cpus, render, Outcome};
use btt_core::backend::Backend;
use btt_core::diagnosis::inference_diagnosis;
use btt_core::pipeline::{
    auto_metric_graph, convergence_series_timed, degenerate_partition, ReliabilityReport,
    TomographyReport,
};
use btt_core::session::TomographySession;
use btt_netsim::prof::EngineProf;
use btt_netsim::util::splitmix64;
use btt_swarm::broadcast::{Campaign, RunObservation};
use btt_swarm::metrics::MetricAccumulator;
use btt_swarm::swarm::SwarmProf;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Bytes the metric accumulator holds per host pair: an `f64` sum and a
/// `u32` observation count.
const ACCUMULATOR_BYTES_PER_PAIR: f64 = 12.0;

/// A campaign configuration without its seed, and the pieces its reports
/// are projected with.
#[derive(Debug, Clone)]
pub struct Coordinates {
    /// The session, seed still unset.
    pub session: TomographySession,
    /// File size in fragments (the report record carries it).
    pub pieces: u32,
    /// Broadcast iterations per campaign.
    pub iterations: u32,
    /// Measurement worker threads the session uses.
    pub threads: usize,
    /// Base seed of the run; campaign `i` uses `campaign_seed(seed, i)`.
    pub seed: u64,
}

impl Coordinates {
    /// The session of campaign `index`.
    pub fn at(&self, index: u64) -> TomographySession {
        self.session.clone().seed(campaign_seed(self.seed, index))
    }

    fn hosts(&self) -> usize {
        self.session.scenario().num_hosts()
    }
}

/// An untraced campaign's timings and result.
#[derive(Debug, Clone, Copy)]
pub struct Untraced {
    /// `measure` wall time, seconds.
    pub measure_s: f64,
    /// `measure` plus `analyze_with` wall time, seconds.
    pub campaign_s: f64,
    /// Final oNMI against ground truth.
    pub onmi: f64,
    /// Report fingerprint.
    pub fingerprint: u64,
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err(format!("{what}: panicked")))
}

/// Runs campaign `index` untraced and checks its report.
pub fn untraced(c: &Coordinates, index: u64) -> Result<Untraced, String> {
    guarded(&format!("campaign {index}"), || {
        let session = c.at(index);
        let t0 = Instant::now();
        let campaign = session.measure();
        let t1 = Instant::now();
        let report = session.analyze_with(campaign, Backend::default());
        let t2 = Instant::now();
        if !report.campaign.runs.iter().all(|r| r.finished) {
            return Err(format!("campaign {index}: a broadcast did not finish"));
        }
        let (onmi, fingerprint) = check_record(&render(&report, c.pieces), c.iterations, c.hosts())
            .map_err(|e| format!("campaign {index}: {e}"))?;
        Ok(Untraced {
            measure_s: (t1 - t0).as_secs_f64(),
            campaign_s: (t2 - t0).as_secs_f64(),
            onmi,
            fingerprint,
        })
    })
}

/// Per-layer values of one traced campaign, by metric name.
pub type LayerSample = BTreeMap<&'static str, f64>;

/// Runs campaign `index` as traced spans and returns its per-layer values
/// and fingerprint. With `replay`, the campaign's observations are also
/// replayed through `live()`, whose finalized report must match.
pub fn traced(
    c: &Coordinates,
    index: u64,
    replay: bool,
    tracer: &mut Tracer,
) -> Result<(LayerSample, u64), String> {
    guarded(&format!("traced campaign {index}"), || {
        let session = c.at(index);
        let seed = campaign_seed(c.seed, index);
        let scenario = session.scenario();
        let truth = &scenario.ground_truth;
        let backend = Backend::default();

        let root = tracer.open("campaign", index, None);
        let measure = tracer.open("measure", index, Some(root));
        let mut acc = MetricAccumulator::new(scenario.num_hosts());
        let mut runs = Vec::with_capacity(c.iterations as usize);
        let mut meta = Vec::with_capacity(c.iterations as usize);
        let mut last = Instant::now();
        session.stream_into(0, &mut |obs| {
            let enter = Instant::now();
            tracer.record("broadcast", index, Some(measure), last, enter);
            acc.push_run_partial(&obs.outcome.fragments, &obs.outcome.participated());
            meta.push((obs.root, obs.seed));
            runs.push(obs.outcome);
            last = Instant::now();
            tracer.record("metrics.fold", index, Some(measure), enter, last);
        });
        tracer.close(measure);
        let campaign = Campaign { runs, metric: acc };

        let analyze = tracer.open("analyze", index, Some(root));
        let (convergence, timing) = tracer.time("pipeline.series", index, Some(analyze), || {
            convergence_series_timed(&campaign, truth, backend, seed)
        });
        let g = tracer
            .time("pipeline.graph", index, Some(analyze), || auto_metric_graph(&campaign.metric));
        let final_partition = tracer.time("backend.infer", index, Some(analyze), || {
            backend.infer(&g, splitmix64(seed ^ 0xFFFF_FFFF))
        });
        let (reliability, diagnosis) = tracer.time("diagnosis", index, Some(analyze), || {
            (
                ReliabilityReport::from_campaign(&campaign, &final_partition, truth),
                inference_diagnosis(&g, truth, &scenario.routes, &scenario.hosts),
            )
        });
        let report = TomographyReport {
            scenario_id: scenario.id.clone(),
            backend,
            seed,
            campaign,
            convergence,
            degenerate_partition: degenerate_partition(&final_partition),
            final_partition,
            ground_truth: truth.clone(),
            reliability,
            diagnosis,
        };
        tracer.close(analyze);
        tracer.close(root);
        let t = Instant::now();
        let text = render(&report, c.pieces);
        let serialize = tracer.record("serialize", index, None, t, Instant::now());
        let (onmi, fingerprint) = check_record(&text, c.iterations, c.hosts())
            .map_err(|e| format!("traced campaign {index}: {e}"))?;

        let mut s = LayerSample::new();
        let measure_ms = tracer.ms(measure);
        let runs = &report.campaign.runs;
        let sum = |f: fn(&SwarmProf) -> u64| runs.iter().map(|r| f(&r.prof)).sum::<u64>();
        let mut e = EngineProf::default();
        for run in runs {
            e.merge(&run.prof.engine);
        }
        let fragments: u64 = runs.iter().map(|r| r.fragments.total()).sum();
        let picks = sum(|p| p.piece_picks);
        let ms = |ns: u64| ns as f64 / 1e6;
        let busy_ms =
            ms(e.advance_ns + sum(|p| p.service_ns) + sum(|p| p.haves_ns) + sum(|p| p.rechoke_ns));
        let n = scenario.num_hosts() as f64;
        s.insert("campaign_ms", measure_ms + tracer.ms(analyze));
        s.insert("broadcast.wall_ms", measure_ms);
        s.insert("broadcast.busy_ms", busy_ms);
        s.insert("broadcast.parallel_efficiency", busy_ms / (measure_ms * c.threads as f64));
        s.insert("engine.advance_ms", ms(e.advance_ns - e.solver_ns));
        s.insert("engine.events_popped", e.events_popped as f64);
        s.insert("engine.stale_share", e.stale_events as f64 / e.events_popped.max(1) as f64);
        s.insert("fairness.solver_ms", ms(e.solver_ns));
        s.insert("fairness.resolves", e.solver.resolves as f64);
        s.insert("fairness.comp_flows", e.solver.comp_flows as f64);
        s.insert("fairness.waterfill_rounds", e.solver.waterfill_rounds as f64);
        s.insert("swarm.service_ms", ms(sum(|p| p.service_ns)));
        s.insert("swarm.service_calls", sum(|p| p.service_calls) as f64);
        s.insert("swarm.haves_ms", ms(sum(|p| p.haves_ns)));
        s.insert("swarm.have_announcements", sum(|p| p.have_announcements) as f64);
        s.insert("swarm.rechoke_ms", ms(sum(|p| p.rechoke_ns)));
        s.insert("swarm.piece_picks", picks as f64);
        s.insert("swarm.useful_pick_share", fragments as f64 / picks.max(1) as f64);
        s.insert("metrics.fold_ms", tracer.child_ms(measure, "metrics.fold"));
        s.insert("metrics.accumulator_bytes", ACCUMULATOR_BYTES_PER_PAIR * n * (n - 1.0) / 2.0);
        s.insert("metrics.nnz_edges", report.campaign.metric.num_nonzero_edges() as f64);
        s.insert("pipeline.aggregate_ms", timing.aggregate_ms);
        s.insert("pipeline.cluster_ms", timing.cluster_ms);
        s.insert("pipeline.graph_ms", tracer.child_ms(analyze, "pipeline.graph"));
        s.insert("pipeline.graph_edges", g.num_edges() as f64);
        s.insert("backend.infer_ms", tracer.child_ms(analyze, "backend.infer"));
        s.insert("backend.final_onmi", onmi);
        s.insert("diagnosis.ms", tracer.child_ms(analyze, "diagnosis"));
        s.insert("serialize.ms", tracer.ms(serialize));
        s.insert("serialize.bytes", text.len() as f64);
        s.insert("measure.unattributed_ms", tracer.unattributed_ms(measure));
        s.insert("analyze.unattributed_ms", tracer.unattributed_ms(analyze));

        if replay {
            let (observe_ms, finalize_ms) = replay_live(
                &session,
                report.campaign.runs,
                &meta,
                c.pieces,
                fingerprint,
                index,
                tracer,
            )?;
            s.insert("session.observe_ms", observe_ms);
            s.insert("session.finalize_ms", finalize_ms);
        }
        Ok((s, fingerprint))
    })
}

/// Replays a campaign's observations through `live()` — `observe` each in
/// iteration order, then `finalize` — and requires the finalized report to
/// match the batch fingerprint. Returns the total observe and the finalize
/// milliseconds.
fn replay_live(
    session: &TomographySession,
    runs: Vec<btt_swarm::broadcast::BroadcastResult>,
    meta: &[(usize, u64)],
    pieces: u32,
    fingerprint: u64,
    index: u64,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let root = tracer.open("session", index, None);
    let mut live = session.live();
    for (k, (outcome, &(root_host, seed))) in runs.into_iter().zip(meta).enumerate() {
        let obs = RunObservation { iteration: k as u32, root: root_host, seed, outcome };
        tracer
            .time("session.observe", index, Some(root), || live.observe(obs))
            .map_err(|e| format!("session replay {index}: {e}"))?;
    }
    let report = tracer
        .time("session.finalize", index, Some(root), || live.finalize())
        .map_err(|e| format!("session replay {index}: {e}"))?;
    tracer.close(root);
    if fnv1a64(render(&report, pieces).as_bytes()) != fingerprint {
        return Err(format!("session replay {index}: live() report differs from batch"));
    }
    Ok((tracer.child_ms(root, "session.observe"), tracer.child_ms(root, "session.finalize")))
}

/// `measure` wall time of campaign 0 with `threads` workers, seconds.
fn measure_s(c: &Coordinates, threads: usize) -> Result<f64, String> {
    guarded(&format!("{threads}-thread reference"), || {
        let session = c.at(0).threads(threads);
        let t = Instant::now();
        let campaign = session.measure();
        let secs = t.elapsed().as_secs_f64();
        drop(campaign);
        Ok(secs)
    })
}

/// The per-layer part of a traced run: campaign 0 measured with one worker
/// and with one per CPU, for the thread speed-up, then pairs of untraced
/// and traced runs of the same campaign, cycling through indices
/// `0..distinct`, while `more(pairs_done)` holds (at least one pair). Sets
/// every per-layer metric except `scenarios.build_ms`.
pub fn profile(
    c: &Coordinates,
    distinct: u64,
    mut more: impl FnMut(u64) -> bool,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let speedup = measure_s(c, 1).and_then(|serial| Ok(serial / measure_s(c, cpus())?));
    let mut samples: Vec<LayerSample> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut done = 0u64;
    loop {
        let index = done % distinct;
        let result = untraced(c, index).map(|u| {
            untraced_ms.push(u.campaign_s * 1e3);
            out.fingerprints.push((index, u.fingerprint));
        });
        out.attempt(result);
        let result = traced(c, index, done == 0, tracer).map(|(sample, fp)| {
            out.fingerprints.push((index, fp));
            samples.push(sample);
        });
        out.attempt(result);
        done += 1;
        if !more(done) {
            break;
        }
    }
    let result = speedup.map(|speedup| out.set("broadcast.thread_speedup", speedup));
    out.attempt(result);

    let names: BTreeSet<&'static str> = samples.iter().flat_map(|s| s.keys().copied()).collect();
    for name in names {
        let values: Vec<f64> = samples.iter().filter_map(|s| s.get(name).copied()).collect();
        out.set(name, median(&values));
    }
    if let Some(traced_ms) = out.metrics.remove("campaign_ms") {
        out.set("trace.overhead_share", traced_ms / median(&untraced_ms) - 1.0);
    }
    out.notes.push(format!("traced campaigns: {}, each with an untraced twin", samples.len()));
}
