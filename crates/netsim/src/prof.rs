//! Always-on, near-zero-cost attribution counters for the simulation hot
//! path.
//!
//! Every engine ([`crate::engine::SimNet`]) and solver
//! ([`crate::fairness::IncrementalMaxMin`]) instance tallies what it does —
//! calendar events popped, fairness components re-solved, water-fill
//! freezes — into plain `u64` fields, and accumulates wall time for the two
//! phases worth timing (event advancement and fairness re-solves) with one
//! `Instant` pair per call. The counters cost an increment each; the timers
//! run at re-solve/advance granularity (thousands per broadcast, not
//! per-fragment), so the whole layer stays well under 1 % of a run.
//!
//! Drivers read a snapshot via [`crate::engine::SimNet::prof`] and thread it
//! into their own phase breakdown (the swarm layer adds protocol-side
//! counters; a traced `btt-benchmark` run reports the merged picture as
//! its `engine.*`, `fairness.*` and `swarm.*` per-layer metrics).
//!
//! Profiling state is *observational only*: it never feeds back into
//! simulation decisions, so two runs differing only in how often the
//! counters are read stay bit-identical.
//!
//! The calendar counters ([`EngineProf::events_popped`],
//! [`EngineProf::stale_events`], [`EngineProf::stale_dropped`]) are a
//! function of the seed *and* of how callers slice time into advance calls:
//! the engine compacts its calendar at advance entry, so a different slicing
//! drops stale entries at different instants and pops a different number of
//! them. Simulation state does not depend on the slicing.

/// Counters and timers accumulated by the fairness solver.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverProf {
    /// Re-solves that had dirty channels to process (no-op resolves on a
    /// clean solver are not counted).
    pub resolves: u64,
    /// Connected components water-filled across all resolves.
    pub components: u64,
    /// Flow slots water-filled across all resolves (a flow re-solved by ten
    /// resolves counts ten times).
    pub comp_flows: u64,
    /// Channels visited across all re-solved components.
    pub comp_chans: u64,
    /// Water-fill rounds: freeze events (a channel saturating or a flow
    /// capping) processed by the filling loop.
    pub waterfill_rounds: u64,
    /// Resolves that dispatched components to the parallel water-fill path.
    pub parallel_resolves: u64,
}

impl SolverProf {
    /// Field-wise sum (campaign aggregation over per-run solvers).
    pub fn merge(&mut self, other: &SolverProf) {
        self.resolves += other.resolves;
        self.components += other.components;
        self.comp_flows += other.comp_flows;
        self.comp_chans += other.comp_chans;
        self.waterfill_rounds += other.waterfill_rounds;
        self.parallel_resolves += other.parallel_resolves;
    }
}

/// Counters and timers accumulated by the event engine, including the
/// solver's share ([`EngineProf::solver`]).
///
/// Every calendar entry pushed is eventually popped live, popped stale
/// ([`EngineProf::stale_events`]), dropped by compaction
/// ([`EngineProf::stale_dropped`]), or still queued.
///
/// `Debug` is implemented by hand to omit the two wall-clock timers:
/// seeded-determinism checks compare whole reports by their `Debug`
/// rendering, and timers are measurement, not simulation output — the
/// counters are a pure function of the seed and the caller's advance
/// slicing, the nanoseconds are not.
#[derive(Default, Clone, Copy, PartialEq)]
pub struct EngineProf {
    /// Calendar entries popped (valid and stale alike).
    pub events_popped: u64,
    /// Popped entries discarded as stale (superseded generation).
    pub stale_events: u64,
    /// Stale entries removed by calendar compaction without being popped.
    pub stale_dropped: u64,
    /// Delivery-mark completions fired.
    pub marks_fired: u64,
    /// Bounded-flow completions fired.
    pub flows_finished: u64,
    /// Undershoot-guard re-keys (events that fired a hair early and were
    /// pushed back to their corrected instant).
    pub undershoot_rekeys: u64,
    /// Scheduled rate-refresh events processed (batched-churn re-solves).
    pub refreshes: u64,
    /// Flows started over the engine's lifetime.
    pub flows_started: u64,
    /// Wall time inside fairness re-solves, nanoseconds.
    pub solver_ns: u64,
    /// Wall time inside event advancement, nanoseconds. Each public advance
    /// entry is timed once around its whole body: pending-mark flush,
    /// re-solves, calendar compaction, stale discards and the event loop.
    /// Includes `solver_ns`: re-solves run from the event loop.
    pub advance_ns: u64,
    /// The solver's own counters.
    pub solver: SolverProf,
}

impl EngineProf {
    /// Field-wise sum (campaign aggregation over per-run engines).
    pub fn merge(&mut self, other: &EngineProf) {
        self.events_popped += other.events_popped;
        self.stale_events += other.stale_events;
        self.stale_dropped += other.stale_dropped;
        self.marks_fired += other.marks_fired;
        self.flows_finished += other.flows_finished;
        self.undershoot_rekeys += other.undershoot_rekeys;
        self.refreshes += other.refreshes;
        self.flows_started += other.flows_started;
        self.solver_ns += other.solver_ns;
        self.advance_ns += other.advance_ns;
        self.solver.merge(&other.solver);
    }

    /// Wall time inside fairness re-solves, milliseconds.
    pub fn solver_ms(&self) -> f64 {
        self.solver_ns as f64 / 1e6
    }

    /// Wall time inside event advancement, milliseconds.
    pub fn advance_ms(&self) -> f64 {
        self.advance_ns as f64 / 1e6
    }
}

impl core::fmt::Debug for EngineProf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Deterministic counters only — `solver_ns`/`advance_ns` are
        // wall-clock and would break byte-compare determinism tests.
        f.debug_struct("EngineProf")
            .field("events_popped", &self.events_popped)
            .field("stale_events", &self.stale_events)
            .field("stale_dropped", &self.stale_dropped)
            .field("marks_fired", &self.marks_fired)
            .field("flows_finished", &self.flows_finished)
            .field("undershoot_rekeys", &self.undershoot_rekeys)
            .field("refreshes", &self.refreshes)
            .field("flows_started", &self.flows_started)
            .field("solver", &self.solver)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fieldwise() {
        let mut a = EngineProf {
            events_popped: 1,
            stale_dropped: 4,
            solver_ns: 10,
            solver: SolverProf { resolves: 2, ..Default::default() },
            ..Default::default()
        };
        let b = EngineProf {
            events_popped: 2,
            stale_dropped: 3,
            solver_ns: 5,
            solver: SolverProf { resolves: 3, ..Default::default() },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.events_popped, 3);
        assert_eq!(a.stale_dropped, 7);
        assert_eq!(a.solver_ns, 15);
        assert_eq!(a.solver.resolves, 5);
        assert!((a.solver_ms() - 15e-6).abs() < 1e-12);
    }
}
