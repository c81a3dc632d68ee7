//! Deterministic reliability perturbations: host churn, link degradation,
//! and seeded cross-traffic.
//!
//! The paper promises *reliable* tomography, but a static simulation never
//! tests that promise: hosts crash, links degrade, and other tenants compete
//! for capacity in any real deployment. This module expresses all three as a
//! [`PerturbationSchedule`] — a list of **absolute-simulated-time** events
//! generated deterministically from a seed. Because every event carries an
//! exact clock instant (never "the k-th step"), a driver that stops the
//! engine precisely at each instant applies the same perturbations at the
//! same times regardless of how it slices time between them — which is what
//! keeps event-driven and fixed-step swarm runs byte-identical under churn
//! (pinned by `tests/engine_equivalence.rs`).
//!
//! The schedule composes with the engine's closed-form accrual and the
//! incremental max-min solver: a downed host force-completes its flows via
//! [`SimNet::fail_host`](crate::engine::SimNet::fail_host) (marking only the
//! dirty component), and a degraded link re-rates exactly the flows crossing
//! it via
//! [`SimNet::set_link_capacity_factor`](crate::engine::SimNet::set_link_capacity_factor).

use crate::topology::{LinkId, NodeId, Topology};
use crate::units::SimTime;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// One reliability event. All variants are applied at an absolute simulated
/// instant carried by the surrounding [`TimedPerturbation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// The host's process crashes: every flow it terminates is
    /// force-completed and protocol drivers mark the peer dead.
    HostDown {
        /// The crashing host.
        host: NodeId,
    },
    /// The host's process restarts (state intact, like a client restart).
    HostUp {
        /// The recovering host.
        host: NodeId,
    },
    /// Both directions of `link` drop to `factor` × their built capacity.
    LinkDegrade {
        /// The degraded link.
        link: LinkId,
        /// New capacity as a fraction of the built capacity (0 ≤ f ≤ 1).
        factor: f64,
    },
    /// The link returns to its built capacity.
    LinkRestore {
        /// The restored link.
        link: LinkId,
    },
    /// A competing bulk stream starts between two hosts.
    XTrafficStart {
        /// Stream source.
        src: NodeId,
        /// Stream destination.
        dst: NodeId,
        /// Schedule-unique key matching the corresponding stop event.
        key: u32,
    },
    /// The competing stream identified by `key` stops.
    XTrafficStop {
        /// Key from the matching [`Perturbation::XTrafficStart`].
        key: u32,
    },
}

/// A perturbation pinned to an absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedPerturbation {
    /// Simulated instant the event takes effect.
    pub at: SimTime,
    /// What happens.
    pub what: Perturbation,
}

/// An immutable, time-sorted list of perturbations. Drivers walk it with a
/// cursor: bound each engine advance by [`PerturbationSchedule::next_at`],
/// then apply every event due at the boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerturbationSchedule {
    events: Vec<TimedPerturbation>,
}

impl PerturbationSchedule {
    /// Builds a schedule, sorting events by time (stable: equal-time events
    /// keep their construction order, which generators exploit to guarantee
    /// e.g. a start precedes its stop).
    pub fn new(mut events: Vec<TimedPerturbation>) -> Self {
        assert!(
            events.iter().all(|e| e.at.is_finite() && e.at >= 0.0),
            "perturbation times must be finite and non-negative"
        );
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        PerturbationSchedule { events }
    }

    /// True when the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events, sorted by time.
    pub fn events(&self) -> &[TimedPerturbation] {
        &self.events
    }

    /// The event at `cursor`, if any.
    pub fn get(&self, cursor: usize) -> Option<&TimedPerturbation> {
        self.events.get(cursor)
    }

    /// Time of the next event at or after `cursor`, if any.
    pub fn next_at(&self, cursor: usize) -> Option<SimTime> {
        self.events.get(cursor).map(|e| e.at)
    }

    /// True when some event at or after `cursor` revives `host`.
    pub fn has_pending_host_up(&self, cursor: usize, host: NodeId) -> bool {
        self.events[cursor.min(self.events.len())..]
            .iter()
            .any(|e| matches!(e.what, Perturbation::HostUp { host: h } if h == host))
    }
}

/// Declarative reliability intensity — the values the scenario grammar's
/// `+churn=` / `+xtraffic=` / `+degrade=` suffixes carry. All three are
/// fractions in `[0, 1]`; zero disables the mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReliabilityCfg {
    /// Fraction of (non-root) hosts that crash during a broadcast. Half of
    /// the crashed hosts (rounded down, seed-chosen) later recover.
    pub churn: f64,
    /// Cross-traffic intensity: competing bulk-stream *pairs* are
    /// `ceil(xtraffic × hosts / 2)` (e.g. `0.2` on 512 hosts runs 52
    /// on/off pairs).
    pub xtraffic: f64,
    /// Fraction of hosts whose access link degrades (to a seed-drawn
    /// 10–50 % of its capacity) partway through the broadcast.
    pub degrade: f64,
}

impl ReliabilityCfg {
    /// True when every mechanism is disabled (the static, pre-reliability
    /// behaviour — schedules are empty and runs are bit-identical to the
    /// historical engine).
    pub fn is_off(&self) -> bool {
        self.churn == 0.0 && self.xtraffic == 0.0 && self.degrade == 0.0
    }

    /// Panics on out-of-range intensities (setup-time programming errors).
    pub fn validate(&self) {
        for (name, v) in
            [("churn", self.churn), ("xtraffic", self.xtraffic), ("degrade", self.degrade)]
        {
            assert!(
                (0.0..=1.0).contains(&v) && v.is_finite(),
                "{name} must be a fraction in [0, 1], got {v}"
            );
        }
    }
}

/// A floor estimate of a broadcast's makespan: the time the
/// slowest-connected host needs to pull the whole file at its full access
/// rate. The real makespan is never below this (and typically 1.5–3×
/// above), so perturbations timed inside `(0, horizon)` are guaranteed to
/// land mid-broadcast.
pub fn horizon_estimate(topo: &Topology, hosts: &[NodeId], file_bytes: f64) -> SimTime {
    let min_access = hosts
        .iter()
        .filter_map(|&h| {
            topo.neighbors(h)
                .iter()
                .map(|&(_, l)| topo.link(l).capacity.bytes_per_sec())
                .fold(None, |acc: Option<f64>, c| Some(acc.map_or(c, |a| a.min(c))))
        })
        .fold(f64::INFINITY, f64::min);
    if min_access.is_finite() && min_access > 0.0 {
        (file_bytes / min_access).max(1e-3)
    } else {
        1.0
    }
}

/// Salt decorrelating schedule randomness from protocol seeds.
pub const PERTURB_SALT: u64 = 0x0063_6875_726e_2121;

/// Generates the deterministic schedule for one broadcast.
///
/// * **Churn** — `round(churn × (n−1))` distinct non-`root` hosts crash at
///   times drawn in `(0.15, 0.75) × horizon`; every second crashed host
///   recovers after a further `(0.10, 0.25) × horizon`.
/// * **Degradation** — `round(degrade × n)` distinct hosts have their first
///   access link degraded to 10–50 % of capacity at a time in
///   `(0.10, 0.50) × horizon`; degradations persist to the end of the run.
/// * **Cross-traffic** — `ceil(xtraffic × n / 2)` host pairs alternate
///   exponential ON/OFF bulk streams (mean phase `0.3 × horizon`) over
///   `(0, 2 × horizon)`.
///
/// Everything derives from `seed` alone (given the topology and host list),
/// so the same seed reproduces the same failures bit-for-bit.
pub fn generate_schedule(
    topo: &Topology,
    hosts: &[NodeId],
    root: usize,
    cfg: &ReliabilityCfg,
    horizon: SimTime,
    seed: u64,
) -> PerturbationSchedule {
    cfg.validate();
    assert!(horizon.is_finite() && horizon > 0.0, "horizon must be positive");
    if cfg.is_off() || hosts.len() < 2 {
        return PerturbationSchedule::default();
    }
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ PERTURB_SALT);
    let mut events: Vec<TimedPerturbation> = Vec::new();
    let n = hosts.len();

    // Churn: crash a seed-chosen subset of non-root hosts.
    let n_down = (cfg.churn * (n - 1) as f64).round() as usize;
    if n_down > 0 {
        let mut candidates: Vec<usize> = (0..n).filter(|&i| i != root).collect();
        candidates.shuffle(&mut rng);
        for (k, &i) in candidates.iter().take(n_down).enumerate() {
            let down_at = rng.gen_range(0.15..0.75) * horizon;
            events.push(TimedPerturbation {
                at: down_at,
                what: Perturbation::HostDown { host: hosts[i] },
            });
            // Every second crashed host recovers (client restart).
            let recovers = k % 2 == 1;
            let up_at = down_at + rng.gen_range(0.10..0.25) * horizon;
            if recovers {
                events.push(TimedPerturbation {
                    at: up_at,
                    what: Perturbation::HostUp { host: hosts[i] },
                });
            }
        }
    }

    // Degradation: persistent mid-run capacity loss on access links.
    let n_deg = (cfg.degrade * n as f64).round() as usize;
    if n_deg > 0 {
        let mut candidates: Vec<usize> = (0..n).collect();
        candidates.shuffle(&mut rng);
        for &i in candidates.iter().take(n_deg) {
            let Some(&(_, link)) = topo.neighbors(hosts[i]).first() else { continue };
            let at = rng.gen_range(0.10..0.50) * horizon;
            let factor = rng.gen_range(0.10..0.50);
            events.push(TimedPerturbation { at, what: Perturbation::LinkDegrade { link, factor } });
        }
    }

    // Cross-traffic: exponential ON/OFF bulk-stream pairs.
    let n_pairs = (cfg.xtraffic * n as f64 / 2.0).ceil() as usize;
    let mut key = 0u32;
    for _ in 0..n_pairs {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        let mean = 0.3 * horizon;
        let mut t = exponential(&mut rng, mean); // initial OFF: staggered start
        while t < 2.0 * horizon {
            let on = exponential(&mut rng, mean);
            events.push(TimedPerturbation {
                at: t,
                what: Perturbation::XTrafficStart { src: hosts[a], dst: hosts[b], key },
            });
            events.push(TimedPerturbation { at: t + on, what: Perturbation::XTrafficStop { key } });
            key += 1;
            t += on + exponential(&mut rng, mean);
        }
    }

    PerturbationSchedule::new(events)
}

fn exponential(rng: &mut ChaCha12Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkSpec, TopologyBuilder};
    use crate::units::Bandwidth;

    fn star(n: usize) -> (Topology, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hosts: Vec<NodeId> = (0..n).map(|i| b.add_host(format!("h{i}"))).collect();
        let sw = b.add_switch("sw");
        for &h in &hosts {
            b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(800.0)));
        }
        (b.build().unwrap(), hosts)
    }

    #[test]
    fn schedules_sort_by_time() {
        let s = PerturbationSchedule::new(vec![
            TimedPerturbation { at: 2.0, what: Perturbation::XTrafficStop { key: 0 } },
            TimedPerturbation { at: 1.0, what: Perturbation::HostDown { host: NodeId(3) } },
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.next_at(0), Some(1.0));
        assert_eq!(s.next_at(1), Some(2.0));
        assert_eq!(s.next_at(2), None);
        assert!(PerturbationSchedule::default().is_empty());
    }

    #[test]
    fn generator_is_deterministic_and_respects_the_root() {
        let (t, hosts) = star(16);
        let cfg = ReliabilityCfg { churn: 0.3, xtraffic: 0.25, degrade: 0.2 };
        let a = generate_schedule(&t, &hosts, 0, &cfg, 10.0, 42);
        let b = generate_schedule(&t, &hosts, 0, &cfg, 10.0, 42);
        assert_eq!(a, b, "same seed, same schedule");
        let c = generate_schedule(&t, &hosts, 0, &cfg, 10.0, 43);
        assert_ne!(a, c, "different seeds differ");
        // The root never goes down.
        for e in a.events() {
            if let Perturbation::HostDown { host } = e.what {
                assert_ne!(host, hosts[0], "root crashed");
            }
        }
        // Churn produced both downs and (some) recoveries.
        let downs =
            a.events().iter().filter(|e| matches!(e.what, Perturbation::HostDown { .. })).count();
        let ups =
            a.events().iter().filter(|e| matches!(e.what, Perturbation::HostUp { .. })).count();
        assert_eq!(downs, (0.3f64 * 15.0).round() as usize);
        assert_eq!(ups, downs / 2);
        assert!(a.events().iter().any(|e| matches!(e.what, Perturbation::LinkDegrade { .. })));
        assert!(a.events().iter().any(|e| matches!(e.what, Perturbation::XTrafficStart { .. })));
    }

    #[test]
    fn off_config_yields_empty_schedule() {
        let (t, hosts) = star(4);
        let s = generate_schedule(&t, &hosts, 0, &ReliabilityCfg::default(), 5.0, 1);
        assert!(s.is_empty());
        assert!(ReliabilityCfg::default().is_off());
    }

    #[test]
    fn every_xtraffic_start_has_a_later_stop() {
        let (t, hosts) = star(12);
        let cfg = ReliabilityCfg { xtraffic: 0.5, ..ReliabilityCfg::default() };
        let s = generate_schedule(&t, &hosts, 0, &cfg, 8.0, 7);
        let mut starts: std::collections::HashMap<u32, SimTime> = Default::default();
        for e in s.events() {
            match e.what {
                Perturbation::XTrafficStart { key, src, dst } => {
                    assert_ne!(src, dst);
                    assert!(starts.insert(key, e.at).is_none(), "duplicate key {key}");
                }
                Perturbation::XTrafficStop { key } => {
                    let start = starts.remove(&key).expect("stop before start");
                    assert!(e.at >= start);
                }
                _ => {}
            }
        }
        assert!(starts.is_empty(), "unmatched starts: {starts:?}");
    }

    #[test]
    fn pending_host_up_lookup() {
        let h = NodeId(5);
        let s = PerturbationSchedule::new(vec![
            TimedPerturbation { at: 1.0, what: Perturbation::HostDown { host: h } },
            TimedPerturbation { at: 2.0, what: Perturbation::HostUp { host: h } },
        ]);
        assert!(s.has_pending_host_up(0, h));
        assert!(s.has_pending_host_up(1, h));
        assert!(!s.has_pending_host_up(2, h));
        assert!(!s.has_pending_host_up(0, NodeId(9)));
    }

    #[test]
    fn horizon_estimate_is_file_over_slowest_access() {
        let (t, hosts) = star(4);
        let rate = Bandwidth::from_mbps(800.0).bytes_per_sec();
        let h = horizon_estimate(&t, &hosts, rate * 3.0);
        assert!((h - 3.0).abs() < 1e-9, "{h}");
    }
}
