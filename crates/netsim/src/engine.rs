//! The event-driven simulation engine: flows over a routed topology with
//! incremental max-min fair rate sharing, advanced by an event calendar.
//!
//! Two kinds of flow coexist:
//!
//! * **bounded flows** carry a fixed number of bytes and complete (baseline
//!   probes, individual transfers);
//! * **streams** are open-ended and deliver bytes for as long as they exist
//!   (BitTorrent transfers between an unchoked pair). Clients drain delivered
//!   bytes with [`SimNet::take_delivered`] and may schedule a **delivery
//!   mark** ([`SimNet::set_delivery_mark`]) to be notified the instant a
//!   stream has delivered a given number of further bytes — the hook the
//!   swarm layer uses to advance straight to the next fragment completion.
//!
//! ## How time moves
//!
//! Between changes to the flow set, every rate is constant, so each flow's
//! delivered bytes are a **closed-form linear function of time**: the engine
//! stores `(accrued, accrue_from, rate)` per flow and never moves bytes
//! step-by-step. Bounded-flow completions and delivery marks are kept in a
//! priority queue keyed by their delivered-bytes horizon converted to a
//! completion time; [`SimNet::advance`] jumps the clock from event to event.
//! A crucial consequence: the simulation state at any instant is independent
//! of how callers slice time into `advance` calls — advancing by `10.0` or
//! by a thousand unequal sub-steps lands bit-identical state.
//!
//! ## How rates change
//!
//! Flow churn (start/stop/completion) marks the touched channels dirty in an
//! [`IncrementalMaxMin`] solver; before the clock next moves, the solver
//! re-solves just the dirty connected component and the engine re-keys the
//! calendar entries of flows whose rate actually changed. Channel byte
//! accounting is kept exact the same way: per-channel aggregate rates are
//! re-summed from the solver after every component re-solve and accrued in
//! closed form.

use crate::fairness::IncrementalMaxMin;
use crate::routing::RouteTable;
use crate::topology::{ChannelId, NodeId, Topology};
use crate::units::{Bytes, SimTime};
use crate::util::FxHashMap;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Handle to a flow inside a [`SimNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

/// What kind of event a [`Completion`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionKind {
    /// A bounded flow delivered its full byte budget and was removed.
    Finished,
    /// A stream crossed the delivery mark set via
    /// [`SimNet::set_delivery_mark`]; the flow keeps running and the mark is
    /// cleared.
    Mark,
}

/// Notification that a bounded flow finished, or a stream hit its mark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The flow the event belongs to.
    pub id: FlowId,
    /// Caller-supplied tag from [`SimNet::start_flow`].
    pub tag: u64,
    /// Simulated time of the event.
    pub at: SimTime,
    /// Bounded completion or delivery mark.
    pub kind: CompletionKind,
}

/// Summary returned when a flow is stopped or completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowStats {
    /// Total bytes delivered over the flow's lifetime.
    pub delivered: Bytes,
    /// Time the flow was started.
    pub started_at: SimTime,
    /// Time the flow ended.
    pub ended_at: SimTime,
}

#[derive(Debug)]
struct ActiveFlow {
    src: NodeId,
    dst: NodeId,
    /// Current max-min rate (bytes/sec); mirrors the solver's value.
    rate: f64,
    /// Time linear accrual (re)started: flow start + route latency at first,
    /// bumped to "now" whenever the rate changes.
    accrue_from: SimTime,
    /// Bytes delivered up to `accrue_from`.
    accrued: Bytes,
    /// Bytes already drained via [`SimNet::take_delivered`].
    drained: Bytes,
    /// Total byte budget for bounded flows; `None` for streams.
    budget: Option<Bytes>,
    /// Absolute delivered-bytes threshold of the pending mark, if any.
    mark: Option<Bytes>,
    /// Calendar generation: entries carrying an older generation are stale.
    gen: u64,
    /// Whether a live calendar entry exists for this flow. Lets small rate
    /// changes keep their slightly-stale entry (see the undershoot guard in
    /// `SimNet::run_until`) instead of re-keying the heap on every re-solve.
    scheduled: bool,
    /// The rate the live calendar entry was keyed under: the material-change
    /// test compares against this (not the previous re-solve's rate), so
    /// many successive sub-threshold changes cannot accumulate unbounded
    /// event-time error.
    keyed_rate: f64,
    /// Whether the flow sits in `Core::pending_marks` with a re-armed mark
    /// awaiting its single coalesced calendar push (see
    /// [`SimNet::set_delivery_mark`]).
    mark_queued: bool,
    started_at: SimTime,
    tag: u64,
}

impl ActiveFlow {
    /// Bytes delivered by simulated time `t` (closed form, no mutation).
    fn delivered_at(&self, t: SimTime) -> Bytes {
        // Strictly-before: at `t == accrue_from` the linear form below
        // yields the same `accrued` for finite rates, while infinite-rate
        // bounded flows (zero-latency loopback) must already report their
        // full budget — their `eta` is exactly `accrue_from`, and reporting
        // zero there would spin the undershoot guard forever.
        if t < self.accrue_from {
            return self.accrued;
        }
        if self.rate.is_infinite() {
            // Infinitely fast path (loopback): bounded flows deliver their
            // whole budget the moment latency elapses; streams deliver what
            // has been accrued (nothing moves without a finite rate).
            return self.budget.unwrap_or(self.accrued);
        }
        let d = self.accrued + self.rate * (t - self.accrue_from);
        match self.budget {
            Some(b) => d.min(b),
            None => d,
        }
    }

    /// The next delivered-bytes horizon that should fire an event.
    fn horizon(&self) -> Option<(Bytes, CompletionKind)> {
        match (self.budget, self.mark) {
            (Some(b), Some(m)) if m < b => Some((m, CompletionKind::Mark)),
            (Some(b), _) => Some((b, CompletionKind::Finished)),
            (None, Some(m)) => Some((m, CompletionKind::Mark)),
            (None, None) => None,
        }
    }

    /// Event time for the current horizon under the current rate.
    fn eta(&self, now: SimTime) -> Option<SimTime> {
        let (h, _) = self.horizon()?;
        if self.rate.is_infinite() {
            // Bounded flows deliver their whole budget once latency elapses;
            // streams deliver nothing at infinite rate (`delivered_at`), so
            // an unmet mark on one can never fire — scheduling it would
            // livelock the undershoot guard.
            return if self.budget.is_some() || h <= self.accrued {
                Some(self.accrue_from.max(now))
            } else {
                None
            };
        }
        if self.rate <= 0.0 {
            return if h <= self.accrued { Some(self.accrue_from.max(now)) } else { None };
        }
        let t = self.accrue_from + (h - self.accrued) / self.rate;
        Some(t.max(now))
    }
}

/// Calendar entry: totally ordered by (time, flow id, generation) so heap
/// behaviour is fully deterministic, including ties.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    at: SimTime,
    id: u64,
    gen: u64,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at
            .total_cmp(&self.at)
            .then_with(|| other.id.cmp(&self.id))
            .then_with(|| other.gen.cmp(&self.gen))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Exact per-channel byte accounting: aggregate rate accrued in closed form.
#[derive(Debug, Clone, Copy)]
struct ChannelAccrual {
    rate: f64,
    accrued: f64,
    from: SimTime,
}

/// The mutable core, behind a `RefCell` so read-style accessors like
/// [`SimNet::flow_rate`] can lazily apply pending churn without `&mut self`.
#[derive(Debug)]
struct Core {
    flows: FxHashMap<u64, ActiveFlow>,
    solver: IncrementalMaxMin,
    calendar: BinaryHeap<Event>,
    channels: Vec<ChannelAccrual>,
    /// Rate-refresh quantum: 0.0 re-solves at every churn instant (fully
    /// exact); > 0.0 batches churn into one re-solve per scheduled refresh
    /// event, bounding rate staleness by the quantum (the fidelity/speed
    /// dial large swarms use — the legacy step engine behaved like
    /// `quantum = step`).
    refresh_quantum: f64,
    /// Whether a refresh calendar event is currently scheduled.
    refresh_scheduled: bool,
    /// Generation of the live refresh event (stale-entry detection).
    refresh_gen: u64,
    // Persistent scratch to carry solver results across the borrow boundary.
    changed_scratch: Vec<(u64, f64)>,
    chans_scratch: Vec<u32>,
    /// Flows whose re-armed delivery mark has not been pushed to the
    /// calendar yet. Service batches re-arm the same flow's mark once per
    /// completed fragment; deferring the push until the next resolve or
    /// advance collapses the whole batch into one calendar entry — the
    /// superseded generations were unreachable anyway (popped as stale).
    pending_marks: Vec<u64>,
    /// Attribution counters (see [`crate::prof`]); observational only.
    prof: crate::prof::EngineProf,
}

/// Calendar id reserved for rate-refresh events (never a flow id).
const REFRESH_ID: u64 = u64::MAX;

/// Constant term of the calendar bound: an advance step sweeps the calendar
/// of stale entries once it holds more than `2 × live flows` plus this many
/// (see [`Core::compact_calendar`]).
const CALENDAR_SLACK: usize = 64;

impl Core {
    /// Whether calendar entry `e` can still fire: it carries its flow's
    /// current generation, or it is the scheduled refresh. A stale entry
    /// stays stale — generations only grow and flow ids are never reused —
    /// so dropping one early changes nothing but the pop counters.
    fn is_live(&self, e: &Event) -> bool {
        if e.id == REFRESH_ID {
            self.refresh_scheduled && e.gen == self.refresh_gen
        } else {
            self.flows.get(&e.id).is_some_and(|f| f.gen == e.gen)
        }
    }

    /// Drops every stale entry in one O(H) pass once the calendar holds
    /// more than `2 × live flows + CALENDAR_SLACK` entries. Each flow has at
    /// most one live entry, plus one refresh entry, so a pass removes at
    /// least half the heap and its cost amortizes to O(1) per push; popping
    /// the same entries one by one costs O(log H) each. Live entries keep
    /// their total order, so every event fires at the same instant in the
    /// same order.
    fn compact_calendar(&mut self) {
        if self.calendar.len() <= 2 * self.flows.len() + CALENDAR_SLACK {
            return;
        }
        let mut calendar = std::mem::take(&mut self.calendar);
        let before = calendar.len();
        calendar.retain(|e| self.is_live(e));
        self.prof.stale_dropped += (before - calendar.len()) as u64;
        self.calendar = calendar;
    }

    /// Immediate-resolve hook for the fully exact mode (`quantum == 0`);
    /// with a positive quantum, scheduled refresh events drive `resolve`.
    fn maybe_resolve(&mut self, now: SimTime) {
        if self.refresh_quantum == 0.0 {
            self.resolve(now);
        }
    }

    /// Schedules the pending-churn refresh event when batching is on.
    fn schedule_refresh(&mut self, now: SimTime) {
        if self.refresh_quantum > 0.0 && !self.refresh_scheduled && self.solver.is_dirty() {
            self.refresh_gen += 1;
            self.refresh_scheduled = true;
            self.calendar.push(Event {
                at: now + self.refresh_quantum,
                id: REFRESH_ID,
                gen: self.refresh_gen,
            });
        }
    }

    /// Removes a departing flow's rate from its channels' accruals — the
    /// mirror of the provisional-rate attach in `start_flow_capped` — so
    /// channel byte accounting never accrues phantom bytes for dead flows
    /// while a refresh is pending.
    fn detach_channel_rate(&mut self, id: u64, rate: f64, now: SimTime) {
        if rate <= 0.0 || !rate.is_finite() {
            return;
        }
        let Some(route) = self.solver.route(id) else { return };
        for ch in route {
            let chan = &mut self.channels[ch.idx()];
            if now > chan.from {
                chan.accrued += chan.rate * (now - chan.from);
                chan.from = now;
            }
            chan.rate = (chan.rate - rate).max(0.0);
        }
    }

    /// Pushes the single surviving calendar entry for every flow whose mark
    /// was re-armed since the last flush. Runs before rates can change (top
    /// of [`Core::resolve`]) and before events are observed (entry to the
    /// advance family), so each entry carries exactly the `(eta, gen)` an
    /// immediate push at [`SimNet::set_delivery_mark`] time would have:
    /// rates only mutate inside `resolve`, and the clock only moves inside
    /// `advance`, both of which flush first.
    fn flush_pending_marks(&mut self, now: SimTime) {
        while let Some(id) = self.pending_marks.pop() {
            // Flows stopped (or finished) after queueing simply vanish; ids
            // are never reused, so a map miss is always a dead flow.
            let Some(f) = self.flows.get_mut(&id) else { continue };
            f.mark_queued = false;
            if let Some(at) = f.eta(now) {
                f.scheduled = true;
                f.keyed_rate = f.rate;
                self.calendar.push(Event { at, id, gen: f.gen });
            } else {
                // Rate currently zero: the next re-solve re-keys
                // unscheduled flows whose rate changes.
                f.scheduled = false;
            }
        }
    }

    /// Applies pending churn at time `now`: re-solves the dirty component,
    /// materializes changed flows and touched channels, and re-keys calendar
    /// entries. Must run before the clock moves past `now`.
    fn resolve(&mut self, now: SimTime) {
        if self.solver.is_dirty() {
            self.flush_pending_marks(now);
            let t0 = std::time::Instant::now();
            {
                let (changed, chans) = self.solver.resolve();
                self.changed_scratch.clear();
                self.changed_scratch.extend(changed.iter().copied());
                self.chans_scratch.clear();
                self.chans_scratch.extend_from_slice(chans);
            }
            let changed = std::mem::take(&mut self.changed_scratch);
            let chans = std::mem::take(&mut self.chans_scratch);
            for &(id, new_rate) in &changed {
                let f = self.flows.get_mut(&id).expect("changed flows are live");
                if now > f.accrue_from {
                    f.accrued = f.delivered_at(now);
                    f.accrue_from = now;
                }
                f.rate = new_rate;
                // Re-key the calendar only on material changes: a slightly
                // stale entry fires marginally off its true instant — early
                // fires are caught by the undershoot guard, late fires just
                // deliver a hair past the horizon — which is far cheaper
                // than re-pushing every flow of the component at every
                // re-solve (stale heap entries are the real cost at scale).
                let keyed = f.keyed_rate;
                let material =
                    (f.rate - keyed).abs() > 0.01 * keyed.abs().max(f.rate.abs()).max(1.0);
                if f.horizon().is_some() && (material || !f.scheduled) {
                    f.gen += 1;
                    if let Some(at) = f.eta(now) {
                        f.scheduled = true;
                        f.keyed_rate = f.rate;
                        self.calendar.push(Event { at, id, gen: f.gen });
                    } else {
                        f.scheduled = false;
                    }
                }
            }
            for &c in &chans {
                let ch = &mut self.channels[c as usize];
                if now > ch.from {
                    ch.accrued += ch.rate * (now - ch.from);
                    ch.from = now;
                }
            }
            for &c in &chans {
                // Exact re-sum from the solver: no incremental FP drift.
                self.channels[c as usize].rate = self.solver.channel_rate_sum(c as usize);
            }
            self.changed_scratch = changed;
            self.chans_scratch = chans;
            self.prof.solver_ns += t0.elapsed().as_nanos() as u64;
        }
    }
}

/// A simulated network: topology + routes + active flows + virtual clock.
#[derive(Debug)]
pub struct SimNet {
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    core: RefCell<Core>,
    next_id: u64,
    time: SimTime,
    nflows: usize,
    nbounded: usize,
    /// Reusable route buffer for flow starts (one per transfer on the swarm
    /// hot path; the table walk is short but the per-call `Vec` was not free).
    route_scratch: Vec<ChannelId>,
    /// Per-channel one-way latency, flat by [`ChannelId::idx`]: the route
    /// delay sum reads a cache-resident array instead of dereferencing each
    /// hop's `Link`.
    chan_latency: Vec<f64>,
}

impl SimNet {
    /// Builds a network over `topo`, computing all-pairs routes.
    pub fn new(topo: Arc<Topology>) -> Self {
        Self::with_routes(Arc::new(RouteTable::new(topo)))
    }

    /// Builds a network over the route table's topology, reusing the table
    /// (cheap for repeated broadcast iterations over the same topology).
    pub fn with_routes(routes: Arc<RouteTable>) -> Self {
        let topo = routes.topology().clone();
        let channels = topo.num_channels();
        let mut chan_latency = vec![0.0; channels];
        for l in 0..topo.num_links() {
            let link_id = crate::topology::LinkId(l as u32);
            let lat = topo.link(link_id).latency;
            chan_latency[link_id.forward().idx()] = lat;
            chan_latency[link_id.reverse().idx()] = lat;
        }
        SimNet {
            core: RefCell::new(Core {
                flows: FxHashMap::default(),
                solver: IncrementalMaxMin::new(topo.channel_capacities()),
                calendar: BinaryHeap::new(),
                channels: vec![ChannelAccrual { rate: 0.0, accrued: 0.0, from: 0.0 }; channels],
                refresh_quantum: 0.0,
                refresh_scheduled: false,
                refresh_gen: 0,
                changed_scratch: Vec::new(),
                chans_scratch: Vec::new(),
                pending_marks: Vec::new(),
                prof: crate::prof::EngineProf::default(),
            }),
            topo,
            routes,
            next_id: 0,
            time: 0.0,
            nflows: 0,
            nbounded: 0,
            route_scratch: Vec::new(),
            chan_latency,
        }
    }

    /// The simulated clock, in seconds.
    #[inline]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The topology being simulated.
    #[inline]
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The route table in use.
    #[inline]
    pub fn routes(&self) -> &Arc<RouteTable> {
        &self.routes
    }

    /// Number of currently active flows (bounded + streams).
    #[inline]
    pub fn active_flows(&self) -> usize {
        self.nflows
    }

    /// Snapshot of the engine's attribution counters (see [`crate::prof`]),
    /// with the fairness solver's counters folded in.
    pub fn prof(&self) -> crate::prof::EngineProf {
        let core = self.core.borrow();
        let mut p = core.prof;
        p.solver = core.solver.prof();
        p
    }

    /// Starts a flow from `src` to `dst`.
    ///
    /// `bytes = Some(n)` makes a bounded flow that completes after `n` bytes
    /// (reported by [`advance`](Self::advance)); `None` makes an open stream.
    /// `tag` is returned in completions so callers can map flows back to
    /// protocol state without a lookup table.
    pub fn start_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<Bytes>,
        tag: u64,
    ) -> FlowId {
        self.start_flow_capped(src, dst, bytes, None, tag)
    }

    /// Like [`start_flow`](Self::start_flow) with an additional caller-side
    /// rate cap (bytes/sec), combined with any per-link caps on the route.
    pub fn start_flow_capped(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: Option<Bytes>,
        extra_cap: Option<f64>,
        tag: u64,
    ) -> FlowId {
        let mut route = std::mem::take(&mut self.route_scratch);
        self.routes.route_into(src, dst, &mut route);
        let link_cap = self.routes.route_flow_cap(&route);
        let cap = match (link_cap, extra_cap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let delay: SimTime = route.iter().map(|ch| self.chan_latency[ch.idx()]).sum();
        let id = self.next_id;
        self.next_id += 1;
        let core = self.core.get_mut();
        core.solver.insert(id, &route, cap);
        // Provisional rate until the next fairness re-solve: the unused
        // slack along the route (so aggregate channel rates can never
        // exceed capacity), capped. Exact fair rates arrive with the
        // refresh; meanwhile events keyed off this guess self-correct
        // through the undershoot guard, so a stream unchoked onto idle
        // links moves bytes immediately instead of idling at rate zero for
        // up to a refresh quantum.
        let rate = if route.is_empty() {
            core.solver.rate(id)
        } else if core.refresh_quantum == 0.0 {
            0.0 // the exact re-solve runs before time moves anyway
        } else {
            let mut guess = cap.unwrap_or(f64::INFINITY);
            for ch in &route {
                let c = ch.idx();
                // The solver's capacity, not the topology's: degraded links
                // must not be overloaded by the provisional rate.
                let slack = core.solver.capacity(c) - core.channels[c].rate;
                guess = guess.min(slack);
            }
            guess.max(0.0)
        };
        let mut flow = ActiveFlow {
            src,
            dst,
            rate,
            accrue_from: self.time + delay,
            accrued: 0.0,
            drained: 0.0,
            budget: bytes,
            mark: None,
            gen: 0,
            scheduled: false,
            keyed_rate: rate,
            mark_queued: false,
            started_at: self.time,
            tag,
        };
        // Account the provisional rate on the route's channels so channel
        // byte accrual stays consistent with flow accrual until the refresh
        // re-sums exactly.
        if rate > 0.0 && rate.is_finite() {
            for ch in &route {
                let chan = &mut core.channels[ch.idx()];
                if self.time > chan.from {
                    chan.accrued += chan.rate * (self.time - chan.from);
                    chan.from = self.time;
                }
                chan.rate += rate;
            }
        }
        if let Some(at) = flow.eta(self.time) {
            flow.scheduled = true;
            flow.keyed_rate = flow.rate;
            core.calendar.push(Event { at, id, gen: flow.gen });
        }
        core.flows.insert(id, flow);
        core.schedule_refresh(self.time);
        core.prof.flows_started += 1;
        self.nflows += 1;
        if bytes.is_some() {
            self.nbounded += 1;
        }
        self.route_scratch = route;
        FlowId(id)
    }

    /// Sets the rate-refresh quantum: `0.0` (the default) re-solves fairness
    /// at every churn instant — exact fluid semantics; a positive value
    /// batches all churn into one incremental re-solve per scheduled refresh
    /// event, bounding rate staleness by the quantum. Large swarms set this
    /// to their protocol step (the legacy fixed-step engine had exactly that
    /// staleness); probes and baselines keep it at zero.
    pub fn set_rate_refresh(&mut self, quantum: SimTime) {
        assert!(quantum >= 0.0 && quantum.is_finite(), "refresh quantum must be finite and >= 0");
        self.core.get_mut().refresh_quantum = quantum;
    }

    /// Stops a flow (bounded or stream) and returns its lifetime stats.
    /// Returns `None` if the flow already completed or was never started.
    pub fn stop_flow(&mut self, id: FlowId) -> Option<FlowStats> {
        let time = self.time;
        let core = self.core.get_mut();
        let flow = core.flows.remove(&id.0)?;
        core.detach_channel_rate(id.0, flow.rate, time);
        core.solver.remove(id.0);
        core.schedule_refresh(time);
        self.nflows -= 1;
        if flow.budget.is_some() {
            self.nbounded -= 1;
        }
        Some(FlowStats {
            delivered: flow.delivered_at(time),
            started_at: flow.started_at,
            ended_at: time,
        })
    }

    /// Force-completes every flow that `host` terminates (as source or
    /// destination) — the engine half of a host crash. Flows are stopped in
    /// ascending flow-id order (deterministic), each marking only its own
    /// channels dirty exactly as [`stop_flow`](Self::stop_flow) does, and
    /// their lifetime stats are returned together with the caller-supplied
    /// tags so protocol drivers can map them back to transfers.
    pub fn fail_host(&mut self, host: NodeId) -> Vec<(FlowId, u64, FlowStats)> {
        let mut doomed: Vec<(u64, u64)> = self
            .core
            .get_mut()
            .flows
            .iter()
            .filter(|(_, f)| f.src == host || f.dst == host)
            .map(|(&id, f)| (id, f.tag))
            .collect();
        doomed.sort_unstable();
        doomed
            .into_iter()
            .map(|(id, tag)| {
                let stats = self.stop_flow(FlowId(id)).expect("flow listed as live");
                (FlowId(id), tag, stats)
            })
            .collect()
    }

    /// Sets both directions of `link` to `factor` × the built capacity —
    /// the engine half of a link degradation (`factor < 1.0`) or restoration
    /// (`factor == 1.0`). The fairness solver marks the two channels dirty,
    /// so exactly the flows in their component are re-rated at the next
    /// resolve; channel byte accounting stays exact through the same
    /// re-solve path as any other churn.
    pub fn set_link_capacity_factor(&mut self, link: crate::topology::LinkId, factor: f64) {
        assert!(factor >= 0.0 && factor.is_finite(), "capacity factor must be finite and >= 0");
        let base = self.topo.link(link).capacity.bytes_per_sec();
        let time = self.time;
        let core = self.core.get_mut();
        for ch in [link.forward(), link.reverse()] {
            core.solver.set_capacity(ch.idx(), base * factor);
        }
        core.schedule_refresh(time);
    }

    /// Drains and returns bytes delivered on `id` since the last drain.
    /// Returns 0.0 for unknown/finished flows.
    pub fn take_delivered(&mut self, id: FlowId) -> Bytes {
        let time = self.time;
        match self.core.get_mut().flows.get_mut(&id.0) {
            Some(f) => {
                let d = f.delivered_at(time) - f.drained;
                f.drained += d;
                d
            }
            None => 0.0,
        }
    }

    /// Schedules a [`CompletionKind::Mark`] event for when `id` has
    /// delivered `bytes_ahead` more bytes than it has *right now*. Replaces
    /// any previous mark on the flow. No-op for unknown flows.
    ///
    /// This is the delivered-bytes horizon the swarm layer keys its piece
    /// completions on: one mark per active transfer, re-armed after every
    /// fragment.
    pub fn set_delivery_mark(&mut self, id: FlowId, bytes_ahead: Bytes) {
        let time = self.time;
        let core = self.core.get_mut();
        let Some(f) = core.flows.get_mut(&id.0) else { return };
        f.mark = Some(f.delivered_at(time) + bytes_ahead);
        f.gen += 1;
        f.scheduled = false;
        // Coalesced push: a service batch re-arms this mark once per
        // fragment it completes, and only the last arming can ever fire
        // (older generations pop as stale). Queue the flow once and let
        // `flush_pending_marks` push the survivor — one calendar entry per
        // (flow, batch) instead of one per fragment.
        if !f.mark_queued {
            f.mark_queued = true;
            core.pending_marks.push(id.0);
        }
    }

    /// Current max-min rate of `id` in bytes/sec (0.0 if unknown). In exact
    /// mode (zero refresh quantum) pending churn is applied first — hence
    /// usable through `&self`; with a positive quantum the value may be
    /// stale by up to the quantum, consistently with byte delivery.
    pub fn flow_rate(&self, id: FlowId) -> f64 {
        let mut core = self.core.borrow_mut();
        core.maybe_resolve(self.time);
        core.flows.get(&id.0).map_or(0.0, |f| f.rate)
    }

    /// Source and destination of a flow, if it is still active.
    pub fn flow_endpoints(&self, id: FlowId) -> Option<(NodeId, NodeId)> {
        self.core.borrow().flows.get(&id.0).map(|f| (f.src, f.dst))
    }

    /// Cumulative bytes carried by each channel up to the current time.
    pub fn channel_bytes(&self) -> Vec<f64> {
        let time = self.time;
        self.core
            .borrow()
            .channels
            .iter()
            .map(|ch| ch.accrued + if time > ch.from { ch.rate * (time - ch.from) } else { 0.0 })
            .collect()
    }

    /// Advances simulated time by `dt`, jumping from event to event:
    /// bounded-flow completions and delivery marks are returned in event
    /// order, rates are re-solved incrementally at each event, and the state
    /// reached is independent of how callers slice `dt`.
    pub fn advance(&mut self, dt: SimTime) -> Vec<Completion> {
        assert!(dt >= 0.0 && dt.is_finite(), "advance requires a finite non-negative dt");
        let mut out = Vec::new();
        self.advance_until_into(self.time + dt, &mut out);
        out
    }

    /// Like [`advance`](Self::advance) but to an **absolute** clock value,
    /// appending the events into a caller-owned buffer (not cleared), so
    /// completion-driven drivers reuse one allocation across the millions
    /// of advances in a measurement campaign. After the call
    /// `time() == deadline` exactly (unless the clock is already past it,
    /// which is a no-op). Drivers that must land on shared boundary instants
    /// (e.g. protocol timers) use this so the boundary's clock value does
    /// not depend on how the approach was sliced.
    pub fn advance_until_into(&mut self, deadline: SimTime, out: &mut Vec<Completion>) {
        assert!(deadline.is_finite(), "advance_until_into requires a finite deadline");
        let t0 = std::time::Instant::now();
        self.run_until(deadline, out);
        self.core.get_mut().prof.advance_ns += t0.elapsed().as_nanos() as u64;
    }

    /// The untimed body of [`advance_until_into`](Self::advance_until_into).
    /// Each public `_into` entry times its whole body once, and
    /// [`advance_to_next_event_until_into`](Self::advance_to_next_event_until_into)
    /// ends here, so no advance time is counted twice.
    fn run_until(&mut self, deadline: SimTime, out: &mut Vec<Completion>) {
        self.core.get_mut().flush_pending_marks(self.time);
        loop {
            let core = self.core.get_mut();
            core.maybe_resolve(self.time);
            // Exact mode re-keys at every event, so the bound is kept here
            // and not only at entry.
            core.compact_calendar();
            // Pop the earliest still-valid event inside the window.
            let event = loop {
                match core.calendar.peek() {
                    Some(e) if e.at <= deadline => {
                        let e = *e;
                        core.calendar.pop();
                        core.prof.events_popped += 1;
                        if core.is_live(&e) {
                            break Some(e);
                        }
                        core.prof.stale_events += 1;
                    }
                    _ => break None,
                }
            };
            let Some(e) = event else { break };
            if e.at > self.time {
                self.time = e.at;
            }
            if e.id == REFRESH_ID {
                // Scheduled rate refresh: apply batched churn at this
                // instant, then continue with the (possibly re-keyed)
                // calendar.
                core.refresh_scheduled = false;
                core.prof.refreshes += 1;
                core.resolve(self.time);
                continue;
            }
            let f = core.flows.get_mut(&e.id).expect("validated above");
            f.scheduled = false;
            // Undershoot guard: an entry keyed under a slightly-stale rate
            // may fire a hair before the horizon is actually delivered;
            // re-key it to the corrected instant instead of processing. The
            // tolerance scales with the horizon so fp round-off on
            // many-gigabyte accruals cannot re-key an event to `now`
            // forever; anything inside the tolerance is snapped to the
            // horizon below, so a fired mark always means "horizon
            // delivered".
            if let Some((h, _)) = f.horizon() {
                if f.delivered_at(self.time) + 1e-6 + h.abs() * 1e-12 < h {
                    f.gen += 1;
                    core.prof.undershoot_rekeys += 1;
                    if let Some(at) = f.eta(self.time) {
                        f.scheduled = true;
                        f.keyed_rate = f.rate;
                        let ev = Event { at, id: e.id, gen: f.gen };
                        core.calendar.push(ev);
                    }
                    continue;
                }
                // Snap: materialize exactly at the horizon.
                f.accrued = f.delivered_at(self.time).max(h);
                f.accrue_from = self.time;
            }
            match f.horizon() {
                Some((h, CompletionKind::Finished)) => {
                    f.accrued = h; // exact: the full budget was delivered
                    f.accrue_from = self.time;
                    core.prof.flows_finished += 1;
                    out.push(Completion {
                        id: FlowId(e.id),
                        tag: f.tag,
                        at: self.time,
                        kind: CompletionKind::Finished,
                    });
                    let rate = core.flows.remove(&e.id).expect("completing flow exists").rate;
                    core.detach_channel_rate(e.id, rate, self.time);
                    core.solver.remove(e.id);
                    core.schedule_refresh(self.time);
                    self.nflows -= 1;
                    self.nbounded -= 1;
                }
                Some((_, CompletionKind::Mark)) => {
                    f.mark = None;
                    let tag = f.tag;
                    core.prof.marks_fired += 1;
                    // Re-key in case a bounded budget remains behind the mark.
                    f.gen += 1;
                    if let Some(at) = f.eta(self.time) {
                        f.scheduled = true;
                        f.keyed_rate = f.rate;
                        core.calendar.push(Event { at, id: e.id, gen: f.gen });
                    }
                    out.push(Completion {
                        id: FlowId(e.id),
                        tag,
                        at: self.time,
                        kind: CompletionKind::Mark,
                    });
                }
                None => unreachable!("calendar entries always carry a horizon"),
            }
        }
        if deadline > self.time {
            self.time = deadline;
        }
    }

    /// Advances to the next event (bounded completion or delivery mark) or
    /// by `max_dt`, whichever comes first, returning the events fired at
    /// that instant. This is the completion-driven entry point the swarm
    /// layer uses instead of fixed stepping.
    pub fn advance_to_next_event(&mut self, max_dt: SimTime) -> Vec<Completion> {
        assert!(max_dt >= 0.0, "advance_to_next_event requires a non-negative horizon");
        let mut out = Vec::new();
        self.advance_to_next_event_until_into(self.time + max_dt, &mut out);
        out
    }

    /// Like [`advance_to_next_event`](Self::advance_to_next_event) with an
    /// **absolute** deadline, appending into a caller-owned buffer (not
    /// cleared); see [`advance_until_into`](Self::advance_until_into) for
    /// why absolute boundaries matter to deterministic drivers.
    pub fn advance_to_next_event_until_into(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<Completion>,
    ) {
        let t0 = std::time::Instant::now();
        let eta = {
            let core = self.core.get_mut();
            core.flush_pending_marks(self.time);
            core.maybe_resolve(self.time);
            core.compact_calendar();
            // Discard stale entries, then read the earliest live horizon.
            loop {
                match core.calendar.peek() {
                    Some(e) if core.is_live(e) => break Some(e.at),
                    Some(_) => {
                        core.calendar.pop();
                        core.prof.events_popped += 1;
                        core.prof.stale_events += 1;
                    }
                    None => break None,
                }
            }
        };
        let target = match eta {
            Some(at) if at <= deadline => at,
            _ => deadline,
        };
        // No scheduled events and an unbounded horizon: nothing to do.
        if target.is_finite() {
            self.run_until(target, out);
        }
        self.core.get_mut().prof.advance_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Runs until all bounded flows complete or `max_time` of simulated time
    /// elapses. Streams keep flowing but do not block completion; the clock
    /// stops at the last bounded completion (not at the deadline).
    pub fn run_bounded_to_completion(&mut self, max_time: SimTime) -> Vec<Completion> {
        let deadline = self.time + max_time;
        let mut all = Vec::new();
        while self.nbounded > 0 && self.time < deadline {
            let before = self.time;
            let got = self.advance_to_next_event(deadline - self.time);
            let progressed = self.time > before || !got.is_empty();
            all.extend(got);
            if !progressed {
                break; // zero-rate bounded flows: nothing will ever finish
            }
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{LinkSpec, TopologyBuilder};
    use crate::units::Bandwidth;

    fn pair(mbps: f64) -> (Arc<Topology>, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let sw = b.add_switch("sw");
        b.link(h0, sw, LinkSpec::lan(Bandwidth::from_mbps(mbps)));
        b.link(h1, sw, LinkSpec::lan(Bandwidth::from_mbps(mbps)));
        (Arc::new(b.build().unwrap()), h0, h1)
    }

    #[test]
    fn bounded_flow_completes_at_fluid_time() {
        let (t, h0, h1) = pair(800.0);
        let mut net = SimNet::new(t);
        let rate = Bandwidth::from_mbps(800.0).bytes_per_sec();
        let bytes = rate * 2.0; // exactly 2 seconds of transfer
        net.start_flow(h0, h1, Some(bytes), 7);
        let done = net.advance(10.0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert_eq!(done[0].kind, CompletionKind::Finished);
        let lat = 2.0 * 50e-6;
        assert!((done[0].at - (2.0 + lat)).abs() < 1e-6, "completed at {}", done[0].at);
    }

    #[test]
    fn completion_is_independent_of_step_size() {
        let (t, h0, h1) = pair(800.0);
        let rate = Bandwidth::from_mbps(800.0).bytes_per_sec();
        let bytes = rate * 1.5;

        let mut coarse = SimNet::new(t.clone());
        coarse.start_flow(h0, h1, Some(bytes), 0);
        let c = coarse.advance(10.0);

        let mut fine = SimNet::new(t);
        fine.start_flow(h0, h1, Some(bytes), 0);
        let mut f = Vec::new();
        for _ in 0..1000 {
            f.extend(fine.advance(0.01));
        }
        assert_eq!(c.len(), 1);
        assert_eq!(f.len(), 1);
        // Event times are closed-form: bit-identical however time is sliced.
        assert_eq!(c[0].at.to_bits(), f[0].at.to_bits());
    }

    #[test]
    fn stream_delivers_at_fair_rate() {
        let (t, h0, h1) = pair(400.0);
        let mut net = SimNet::new(t);
        let s = net.start_flow(h0, h1, None, 0);
        net.advance(2.0);
        let got = net.take_delivered(s);
        let expect = Bandwidth::from_mbps(400.0).bytes_per_sec() * 2.0;
        assert!((got - expect).abs() / expect < 1e-3, "{got} vs {expect}");
        // Drained: second take is zero until more time passes.
        assert_eq!(net.take_delivered(s), 0.0);
        net.advance(0.5);
        assert!(net.take_delivered(s) > 0.0);
    }

    #[test]
    fn completion_of_one_flow_speeds_up_the_other() {
        // Two flows out of h0 share 800; first carries few bytes. After it
        // completes the second should run at full rate.
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let h2 = b.add_host("h2");
        let sw = b.add_switch("sw");
        for h in [h0, h1, h2] {
            b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(800.0)));
        }
        let t = Arc::new(b.build().unwrap());
        let mut net = SimNet::new(t);
        let full = Bandwidth::from_mbps(800.0).bytes_per_sec();
        // Flow A: exactly 1s at half rate.
        net.start_flow(h0, h1, Some(full / 2.0), 1);
        let s = net.start_flow(h0, h2, None, 2);
        // First second: both at half rate; A completes ~t=1.
        let done = net.advance(1.0 + 1e-3);
        assert_eq!(done.len(), 1);
        net.take_delivered(s);
        // Next second: B alone at full rate.
        net.advance(1.0);
        let got = net.take_delivered(s);
        assert!((got - full).abs() / full < 1e-2, "{got} vs {full}");
    }

    #[test]
    fn stop_flow_returns_stats() {
        let (t, h0, h1) = pair(100.0);
        let mut net = SimNet::new(t);
        let s = net.start_flow(h0, h1, None, 0);
        net.advance(3.0);
        let stats = net.stop_flow(s).unwrap();
        assert!(stats.delivered > 0.0);
        assert_eq!(stats.started_at, 0.0);
        assert!((stats.ended_at - 3.0).abs() < 1e-9);
        assert!(net.stop_flow(s).is_none());
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn run_bounded_to_completion_drains_bounded_only() {
        let (t, h0, h1) = pair(800.0);
        let mut net = SimNet::new(t);
        let rate = Bandwidth::from_mbps(800.0).bytes_per_sec();
        net.start_flow(h0, h1, Some(rate * 0.5), 1);
        net.start_flow(h1, h0, None, 2);
        let done = net.run_bounded_to_completion(60.0);
        assert_eq!(done.len(), 1);
        assert_eq!(net.active_flows(), 1, "stream still active");
        // The clock stops at the completion, not the deadline.
        assert!(net.time() < 1.0, "time ran to {}", net.time());
    }

    #[test]
    fn channel_bytes_accumulate() {
        let (t, h0, h1) = pair(100.0);
        let mut net = SimNet::new(t);
        net.start_flow(h0, h1, None, 0);
        net.advance(1.0);
        let total: f64 = net.channel_bytes().iter().sum();
        // Route crosses 2 links => bytes counted twice.
        let expect = 2.0 * Bandwidth::from_mbps(100.0).bytes_per_sec();
        assert!((total - expect).abs() / expect < 1e-2);
    }

    #[test]
    fn same_seed_same_everything() {
        // Determinism check at the engine level: identical call sequences
        // produce identical states.
        let (t, h0, h1) = pair(250.0);
        let run = |t: &Arc<Topology>| {
            let mut net = SimNet::new(t.clone());
            let a = net.start_flow(h0, h1, Some(1e6), 1);
            let b = net.start_flow(h1, h0, None, 2);
            let mut log = Vec::new();
            for _ in 0..10 {
                let c = net.advance(0.05);
                log.push((c.len(), net.take_delivered(a), net.take_delivered(b), net.time()));
            }
            log
        };
        assert_eq!(run(&t), run(&t));
    }

    #[test]
    fn zero_byte_flow_completes_after_latency_only() {
        let (t, h0, h1) = pair(100.0);
        let mut net = SimNet::new(t);
        net.start_flow(h0, h1, Some(0.0), 9);
        let done = net.advance(1.0);
        assert_eq!(done.len(), 1);
        assert!(done[0].at <= 2.0 * 50e-6 + 1e-9);
    }

    #[test]
    fn delivery_marks_fire_at_exact_horizons() {
        let (t, h0, h1) = pair(800.0);
        let mut net = SimNet::new(t);
        let rate = Bandwidth::from_mbps(800.0).bytes_per_sec();
        let s = net.start_flow(h0, h1, None, 42);
        net.set_delivery_mark(s, rate); // one second of bytes
        let got = net.advance_to_next_event(10.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, CompletionKind::Mark);
        assert_eq!(got[0].tag, 42);
        let lat = 2.0 * 50e-6;
        assert!((got[0].at - (1.0 + lat)).abs() < 1e-9, "at {}", got[0].at);
        // The drained bytes at the mark equal the horizon.
        let d = net.take_delivered(s);
        assert!((d - rate).abs() < 1e-3, "{d}");
        // Re-arm: the stream keeps running and fires again.
        net.set_delivery_mark(s, rate / 2.0);
        let again = net.advance_to_next_event(10.0);
        assert_eq!(again.len(), 1);
        assert!((again[0].at - (1.5 + lat)).abs() < 1e-9);
    }

    #[test]
    fn advance_to_next_event_respects_the_horizon_cap() {
        let (t, h0, h1) = pair(800.0);
        let mut net = SimNet::new(t);
        let s = net.start_flow(h0, h1, None, 0);
        net.set_delivery_mark(s, 1e12); // far future
        let got = net.advance_to_next_event(0.25);
        assert!(got.is_empty());
        assert!((net.time() - 0.25).abs() < 1e-12, "clock capped at max_dt");
    }

    #[test]
    fn flow_rate_reads_through_shared_reference() {
        let (t, h0, h1) = pair(400.0);
        let mut net = SimNet::new(t);
        let a = net.start_flow(h0, h1, None, 0);
        // Rates are resolved lazily: a &self read right after churn must
        // already see the fair allocation.
        let full = Bandwidth::from_mbps(400.0).bytes_per_sec();
        assert!((net.flow_rate(a) - full).abs() < 1.0);
        let b = net.start_flow(h0, h1, None, 1);
        assert!((net.flow_rate(a) - full / 2.0).abs() < 1.0, "shared after churn");
        assert!((net.flow_rate(b) - full / 2.0).abs() < 1.0);
        assert_eq!(net.flow_rate(FlowId(999)), 0.0);
    }

    #[test]
    fn bounded_loopback_flow_completes_without_livelock() {
        // A bounded flow on an empty route (zero-latency loopback) runs at
        // infinite rate and must complete the instant it starts — even with
        // a delivery mark armed past its budget. (Regression: at
        // `t == accrue_from` the closed form reported zero delivered bytes
        // while `eta` promised completion *at* that instant, so the
        // undershoot guard re-keyed the event at `now` forever.)
        let (t, h0, _) = pair(100.0);
        let mut net = SimNet::new(t);
        let f = net.start_flow(h0, h0, Some(4096.0), 5);
        net.set_delivery_mark(f, 1e9); // mark beyond the budget: ignored
        let done = net.advance(1.0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, CompletionKind::Finished);
        assert_eq!(done[0].tag, 5);
        assert_eq!(done[0].at, 0.0, "zero-latency loopback completes immediately");
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn mark_on_infinite_rate_stream_does_not_livelock() {
        // A loopback stream (empty route) runs at infinite rate but
        // delivers nothing; a mark on it can never fire and must not spin
        // the event loop. (Regression: the undershoot guard used to re-key
        // such marks at `now` forever.)
        let (t, h0, _) = pair(100.0);
        let mut net = SimNet::new(t);
        let s = net.start_flow(h0, h0, None, 3);
        net.set_delivery_mark(s, 1000.0);
        let got = net.advance(1.0);
        assert!(got.is_empty(), "unreachable mark must not fire");
        assert!((net.time() - 1.0).abs() < 1e-12);
        // A zero-byte-ahead mark is already met and fires immediately.
        net.set_delivery_mark(s, 0.0);
        let got = net.advance(0.1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, CompletionKind::Mark);
    }

    #[test]
    fn channel_accounting_stops_when_flows_stop_under_refresh_batching() {
        // With a positive refresh quantum, a stopped flow's rate must leave
        // its channels immediately — not at the next refresh — or
        // channel_bytes() accrues phantom bytes for a dead flow.
        let (t, h0, h1) = pair(100.0);
        let mut net = SimNet::new(t);
        net.set_rate_refresh(0.5);
        let s = net.start_flow(h0, h1, None, 0);
        net.advance(1.0);
        let f = net.stop_flow(s).unwrap();
        let at_stop: f64 = net.channel_bytes().iter().sum();
        net.advance(0.4); // stays inside the pending refresh window
        let later: f64 = net.channel_bytes().iter().sum();
        assert!((later - at_stop).abs() < 1e-6, "phantom accrual after stop: {at_stop} -> {later}");
        // Sanity: the flow really moved bytes before stopping (2 channels;
        // channel accrual also covers the ~100 µs startup latency window,
        // hence the loose tolerance).
        assert!((at_stop - 2.0 * f.delivered).abs() / at_stop < 1e-3);
    }

    #[test]
    fn fail_host_stops_exactly_its_flows() {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let h2 = b.add_host("h2");
        let sw = b.add_switch("sw");
        for h in [h0, h1, h2] {
            b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(800.0)));
        }
        let t = Arc::new(b.build().unwrap());
        let mut net = SimNet::new(t);
        let a = net.start_flow(h0, h1, None, 10); // h1 terminates
        let bz = net.start_flow(h1, h2, None, 11); // h1 sources
        let c = net.start_flow(h0, h2, None, 12); // untouched
        net.advance(1.0);
        let failed = net.fail_host(h1);
        assert_eq!(failed.len(), 2);
        // Ascending flow-id order, with tags and positive lifetime stats.
        assert_eq!(failed[0].0, a);
        assert_eq!(failed[0].1, 10);
        assert_eq!(failed[1].0, bz);
        assert_eq!(failed[1].1, 11);
        assert!(failed.iter().all(|(_, _, s)| s.delivered > 0.0));
        assert_eq!(net.active_flows(), 1);
        // The survivor speeds up to full rate after the failure.
        net.advance(0.1);
        net.take_delivered(c);
        net.advance(1.0);
        let got = net.take_delivered(c);
        let full = Bandwidth::from_mbps(800.0).bytes_per_sec();
        assert!((got - full).abs() / full < 1e-2, "{got} vs {full}");
        // Idempotent: nothing left to fail.
        assert!(net.fail_host(h1).is_empty());
    }

    #[test]
    fn link_degradation_rerates_flows_and_restores() {
        let (t, h0, h1) = pair(800.0);
        let mut net = SimNet::new(t.clone());
        let s = net.start_flow(h0, h1, None, 0);
        net.advance(1.0);
        net.take_delivered(s);
        // Degrade h0's access link to a quarter capacity.
        let link = t.neighbors(h0)[0].1;
        net.set_link_capacity_factor(link, 0.25);
        net.advance(1.0);
        let degraded = net.take_delivered(s);
        let quarter = Bandwidth::from_mbps(200.0).bytes_per_sec();
        assert!((degraded - quarter).abs() / quarter < 1e-2, "{degraded} vs {quarter}");
        // Restore: back to full rate, and a new flow's provisional slack
        // guess respects the *current* (restored) capacity.
        net.set_link_capacity_factor(link, 1.0);
        net.advance(1.0);
        let restored = net.take_delivered(s);
        let full = Bandwidth::from_mbps(800.0).bytes_per_sec();
        assert!((restored - full).abs() / full < 1e-2, "{restored} vs {full}");
    }

    #[test]
    fn degraded_link_bounds_provisional_rates_under_batching() {
        // With refresh batching, a flow started onto a degraded link must
        // take the degraded slack as its provisional rate — never the built
        // capacity (which would overload the channel until the refresh).
        let (t, h0, h1) = pair(800.0);
        let mut net = SimNet::new(t.clone());
        net.set_rate_refresh(0.5);
        let link = t.neighbors(h0)[0].1;
        net.set_link_capacity_factor(link, 0.1);
        let s = net.start_flow(h0, h1, None, 0);
        net.advance(0.25); // inside the refresh window: provisional rate only
        let got = net.take_delivered(s);
        let bound = Bandwidth::from_mbps(80.0).bytes_per_sec() * 0.25;
        assert!(got <= bound * (1.0 + 1e-6), "{got} exceeds degraded bound {bound}");
    }

    #[test]
    fn calendar_stays_within_a_constant_factor_of_live_flows() {
        // Forty marked streams share one 100 Mb/s bottleneck under a
        // positive refresh quantum. The flow count alternates between 40
        // and 39, so every refresh moves every rate by more than the
        // material-change threshold and re-keys every far-off mark, leaving
        // the old entries stale. Without compaction they pile up.
        let mut b = TopologyBuilder::new();
        let sink = b.add_host("sink");
        let sw = b.add_switch("sw");
        b.link(sink, sw, LinkSpec::lan(Bandwidth::from_mbps(100.0)));
        let srcs: Vec<NodeId> = (0..48)
            .map(|i| {
                let h = b.add_host(format!("h{i}"));
                b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(1000.0)));
                h
            })
            .collect();
        let mut net = SimNet::new(Arc::new(b.build().unwrap()));
        net.set_rate_refresh(0.05);
        let mut live = std::collections::VecDeque::new();
        let mut started = 0u64;
        let mut start = |net: &mut SimNet| {
            let f = net.start_flow(srcs[started as usize % srcs.len()], sink, None, started);
            net.set_delivery_mark(f, 1e9);
            started += 1;
            f
        };
        for _ in 0..40 {
            live.push_back(start(&mut net));
        }
        let bounded = |net: &SimNet, round: usize| {
            let core = net.core.borrow();
            let bound = 2 * core.flows.len() + CALENDAR_SLACK;
            assert!(
                core.calendar.len() <= bound,
                "round {round}: {} calendar entries for {} flows",
                core.calendar.len(),
                core.flows.len()
            );
        };
        let mut out = Vec::new();
        for round in 0..400 {
            if round % 2 == 0 {
                net.stop_flow(live.pop_front().unwrap()).unwrap();
            } else {
                live.push_back(start(&mut net));
            }
            match round % 3 {
                0 => out.extend(net.advance(0.05)),
                1 => out.extend(net.advance_to_next_event(0.05)),
                _ => net.advance_until_into(net.time() + 0.05, &mut out),
            }
            bounded(&net, round);
        }
        assert!(out.is_empty(), "no mark is due within the run");
        let prof = net.prof();
        assert!(prof.stale_dropped > 0, "compaction never ran: {prof:?}");
    }

    #[test]
    fn state_is_bitwise_invariant_to_advance_slicing() {
        // The core event-engine property: delivered bytes and event times do
        // not depend on how callers slice time, to the last bit.
        let (t, h0, h1) = pair(773.0);
        let run = |slices: &[f64]| {
            let mut net = SimNet::new(t.clone());
            let s = net.start_flow(h0, h1, None, 0);
            net.set_delivery_mark(s, 5e6);
            let mut events = Vec::new();
            for &dt in slices {
                events.extend(net.advance(dt));
            }
            let d = net.take_delivered(s);
            (
                events,
                d.to_bits(),
                net.channel_bytes().iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
            )
        };
        let coarse = run(&[2.0]);
        let fine = run(&[0.3, 0.45, 0.05, 0.7, 0.2, 0.3]);
        assert_eq!(coarse.0.len(), 1);
        assert_eq!(coarse.0, fine.0, "same events at bit-identical times");
        assert_eq!(coarse.1, fine.1, "bit-identical delivered bytes");
        assert_eq!(coarse.2, fine.2, "bit-identical channel accounting");
    }
}
