//! Max-min fair bandwidth allocation by progressive filling.
//!
//! Given a set of flows, each occupying a sequence of directed channels and
//! optionally subject to a per-flow rate cap, this solver computes the unique
//! max-min fair rate vector: all unconstrained flows' rates are raised
//! uniformly ("water filling") until a channel saturates or a flow hits its
//! cap, the affected flows freeze, and filling continues with the rest.
//!
//! This is the same fluid model class SimGrid uses for TCP bulk transfers,
//! which is the substrate the paper's own related work (\[12\], \[13\]) evaluated
//! on — see DESIGN.md §2.
//!
//! Two entry points share the algorithm:
//!
//! * [`max_min_rates`] — the one-shot reference solver over a full flow set;
//! * [`IncrementalMaxMin`] — a persistent solver for the event-driven engine:
//!   flows are inserted and removed over time, touched channels are tracked
//!   in a dirty set, and [`IncrementalMaxMin::resolve`] re-solves **only the
//!   connected component** of the channel↔flow sharing graph reachable from
//!   the dirty channels. Max-min rates decompose exactly across components
//!   (a flow's rate depends only on channels it can reach transitively
//!   through shared channels), so untouched components keep their rates and
//!   the result is the same fair allocation the one-shot solver produces.

/// A flow presented to the solver.
#[derive(Debug, Clone)]
pub struct FlowInput<'a> {
    /// Directed channels the flow occupies (from [`RouteTable::route`]).
    ///
    /// [`RouteTable::route`]: crate::routing::RouteTable::route
    pub route: &'a [crate::topology::ChannelId],
    /// Optional cap on this flow's rate in bytes/sec (e.g. a WAN window cap).
    pub cap: Option<f64>,
}

/// Relative tolerance for saturation decisions.
const EPS: f64 = 1e-9;

/// Computes max-min fair rates (bytes/sec) for `flows` over channels with the
/// given capacities (bytes/sec, indexed by [`ChannelId::idx`]).
///
/// Returns one rate per flow, in input order. Flows with an empty route (e.g.
/// loopback transfers between co-located processes) are treated as infinitely
/// fast *unless* capped, in which case they get their cap; callers decide how
/// to interpret `f64::INFINITY`.
///
/// [`ChannelId::idx`]: crate::topology::ChannelId::idx
pub fn max_min_rates(capacities: &[f64], flows: &[FlowInput<'_>]) -> Vec<f64> {
    let nf = flows.len();
    let mut rates = vec![0.0; nf];
    if nf == 0 {
        return rates;
    }

    // Per-channel: residual capacity and number of unfrozen flows crossing it.
    let mut residual = capacities.to_vec();
    let mut load = vec![0u32; capacities.len()];
    let mut frozen = vec![false; nf];
    let mut active = 0usize;
    for (i, f) in flows.iter().enumerate() {
        if f.route.is_empty() {
            // Loopback: rate is the cap or unbounded; frozen immediately.
            rates[i] = f.cap.unwrap_or(f64::INFINITY);
            frozen[i] = true;
        } else {
            active += 1;
            for ch in f.route {
                load[ch.idx()] += 1;
            }
        }
    }

    // Progressive filling: find the smallest uniform increment that saturates
    // a channel or caps a flow, apply it, freeze, repeat.
    while active > 0 {
        let mut delta = f64::INFINITY;
        for (c, &r) in residual.iter().enumerate() {
            if load[c] > 0 {
                delta = delta.min(r / load[c] as f64);
            }
        }
        for (i, f) in flows.iter().enumerate() {
            if !frozen[i] {
                if let Some(cap) = f.cap {
                    delta = delta.min(cap - rates[i]);
                }
            }
        }
        debug_assert!(delta.is_finite(), "active flows must cross some channel or have a cap");
        let delta = delta.max(0.0);

        // Raise all active flows by delta and charge their channels.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            rates[i] += delta;
            for ch in f.route {
                let c = ch.idx();
                residual[c] -= delta;
                if residual[c] < 0.0 {
                    residual[c] = 0.0;
                }
            }
        }

        // Freeze flows on saturated channels or at their cap.
        let mut newly_frozen = 0usize;
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            let capped = f.cap.is_some_and(|cap| rates[i] + EPS * cap.max(1.0) >= cap);
            let saturated = f.route.iter().any(|ch| {
                let c = ch.idx();
                residual[c] <= EPS * capacities[c].max(1.0)
            });
            if capped || saturated {
                frozen[i] = true;
                newly_frozen += 1;
                for ch in f.route {
                    load[ch.idx()] -= 1;
                }
            }
        }
        active -= newly_frozen;
        // delta == 0 can occur when a flow joins already-saturated channels;
        // the freeze above is then guaranteed to make progress.
        debug_assert!(newly_frozen > 0 || active == 0, "progressive filling must progress");
        if newly_frozen == 0 {
            break;
        }
    }
    rates
}

use crate::topology::ChannelId;

/// One flow tracked by the incremental solver.
#[derive(Debug)]
struct SolvedFlow {
    /// Caller's flow id (u64::MAX marks a free slab slot).
    id: u64,
    route: Vec<ChannelId>,
    /// `pos[i]` = this slot's index within `members[route[i]]`, maintained
    /// under swap-removal so unregistering a flow is O(route²) instead of
    /// an O(channel load) scan per hop — core fat-tree channels carry
    /// hundreds of concurrent flows, and every fragment completion removes
    /// one.
    pos: Vec<u32>,
    cap: Option<f64>,
    rate: f64,
    /// Component-BFS visitation stamp (compared against the solver epoch).
    stamp: u32,
    /// Index into the current component's flow list (valid per resolve).
    local: u32,
}

const FREE_SLOT: u64 = u64::MAX;

/// Min-heap key for the water-filling loop: a channel's saturation level.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShareKey {
    key: f64,
    /// Local channel index (deterministic tie-break).
    lc: u32,
}

impl Eq for ShareKey {}

impl Ord for ShareKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the lowest level first.
        other.key.total_cmp(&self.key).then_with(|| other.lc.cmp(&self.lc))
    }
}

impl PartialOrd for ShareKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A persistent max-min solver with dirty-set tracking.
///
/// The engine registers every active flow; each insert/remove marks the
/// flow's channels dirty. [`IncrementalMaxMin::resolve`] then re-runs
/// water-filling over the dirty connected components only, reporting which
/// flows changed rate and which channels were touched — everything else
/// keeps its previous (still exact) allocation.
///
/// Flows live in a slab indexed by dense slot ids (channel membership lists
/// hold slots, not hashed ids), so the hot component walk and the filling
/// loop never touch a hash map.
///
/// Determinism: component flows are solved in ascending flow-id order and
/// channel saturations break ties by channel index, so a given sequence of
/// inserts/removes produces bit-identical rates no matter how the work is
/// sliced into `resolve` calls.
#[derive(Debug)]
pub struct IncrementalMaxMin {
    caps: Vec<f64>,
    /// members[channel] = slab slots of flows crossing it, insertion order.
    members: Vec<Vec<u32>>,
    slots: Vec<SolvedFlow>,
    free: Vec<u32>,
    index: crate::util::FxHashMap<u64, u32>,
    dirty: Vec<u32>,
    dirty_mask: Vec<bool>,
    epoch: u32,
    /// Per-channel visitation stamp and local index for component solves.
    chan_stamp: Vec<u32>,
    chan_local: Vec<u32>,
    /// Channels of every component re-solved by the current resolve, in
    /// discovery order (the touched-channel list it returns).
    comp_chans: Vec<u32>,
    /// Slab slots of the component being solved, ascending flow id.
    comp_slots: Vec<u32>,
    changed: Vec<(u64, f64)>,
    fill: FillScratch,
    prof: crate::prof::SolverProf,
}

/// Water-fill scratch for one component, reused by every component of
/// every resolve; [`solve_component`] resets it on entry.
#[derive(Debug, Default)]
struct FillScratch {
    residual: Vec<f64>,
    load: Vec<u32>,
    rates: Vec<f64>,
    frozen: Vec<bool>,
    chan_heap: std::collections::BinaryHeap<ShareKey>,
    cap_heap: std::collections::BinaryHeap<ShareKey>,
}

impl IncrementalMaxMin {
    /// A solver over channels with the given capacities (bytes/sec, indexed
    /// by [`ChannelId::idx`]).
    pub fn new(capacities: Vec<f64>) -> Self {
        let n = capacities.len();
        IncrementalMaxMin {
            caps: capacities,
            members: vec![Vec::new(); n],
            slots: Vec::new(),
            free: Vec::new(),
            index: crate::util::FxHashMap::default(),
            dirty: Vec::new(),
            dirty_mask: vec![false; n],
            epoch: 0,
            chan_stamp: vec![0; n],
            chan_local: vec![0; n],
            comp_chans: Vec::new(),
            comp_slots: Vec::new(),
            changed: Vec::new(),
            fill: FillScratch::default(),
            prof: crate::prof::SolverProf::default(),
        }
    }

    /// Snapshot of this solver's attribution counters.
    #[inline]
    pub fn prof(&self) -> crate::prof::SolverProf {
        self.prof
    }

    /// Current rate of `id` (0.0 for unknown flows). Only meaningful after
    /// [`IncrementalMaxMin::resolve`] has been called for the latest churn.
    #[inline]
    pub fn rate(&self, id: u64) -> f64 {
        self.index.get(&id).map_or(0.0, |&s| self.slots[s as usize].rate)
    }

    /// The current capacity of channel `c` (bytes/sec) — the built capacity
    /// unless changed by [`IncrementalMaxMin::set_capacity`].
    #[inline]
    pub fn capacity(&self, c: usize) -> f64 {
        self.caps[c]
    }

    /// Changes channel `c`'s capacity (reliability perturbations: link
    /// degradation and restoration), marking it dirty so the next resolve
    /// re-rates exactly the flows in its component.
    pub fn set_capacity(&mut self, c: usize, cap: f64) {
        assert!(cap >= 0.0 && cap.is_finite(), "capacity must be finite and non-negative");
        if self.caps[c] != cap {
            self.caps[c] = cap;
            self.mark_dirty(c);
        }
    }

    /// Sum of the current rates of all flows crossing channel `c`.
    #[inline]
    pub fn channel_rate_sum(&self, c: usize) -> f64 {
        self.members[c].iter().map(|&s| self.slots[s as usize].rate).sum()
    }

    /// True when churn since the last resolve left rates stale.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    fn mark_dirty(&mut self, c: usize) {
        if !self.dirty_mask[c] {
            self.dirty_mask[c] = true;
            self.dirty.push(c as u32);
        }
    }

    /// Registers a flow. Loopback flows (empty route) get their cap (or
    /// `+inf`) immediately and never participate in components. Panics if
    /// `id` is already registered.
    pub fn insert(&mut self, id: u64, route: &[ChannelId], cap: Option<f64>) {
        assert_ne!(id, FREE_SLOT, "reserved flow id");
        let rate = if route.is_empty() { cap.unwrap_or(f64::INFINITY) } else { 0.0 };
        // Reuse a freed slab slot's route/pos buffers when available so
        // steady-state flow churn allocates nothing.
        let slot = match self.free.pop() {
            Some(s) => {
                let f = &mut self.slots[s as usize];
                f.id = id;
                f.route.clear();
                f.route.extend_from_slice(route);
                f.pos.clear();
                f.cap = cap;
                f.rate = rate;
                s
            }
            None => {
                self.slots.push(SolvedFlow {
                    id,
                    route: route.to_vec(),
                    pos: Vec::new(),
                    cap,
                    rate,
                    stamp: 0,
                    local: 0,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let prev = self.index.insert(id, slot);
        assert!(prev.is_none(), "flow {id} registered twice");
        for ch in route {
            let c = ch.idx();
            self.slots[slot as usize].pos.push(self.members[c].len() as u32);
            self.members[c].push(slot);
            self.mark_dirty(c);
        }
    }

    /// Unregisters a flow, marking its channels dirty. No-op for unknown ids.
    pub fn remove(&mut self, id: u64) {
        let Some(slot) = self.index.remove(&id) else { return };
        let route = std::mem::take(&mut self.slots[slot as usize].route);
        let pos = std::mem::take(&mut self.slots[slot as usize].pos);
        for (ch, &p) in route.iter().zip(&pos) {
            let c = ch.idx();
            let p = p as usize;
            debug_assert_eq!(self.members[c][p], slot, "stale member position");
            self.members[c].swap_remove(p);
            // The member swapped into `p` (if any) records its new index.
            if let Some(&moved) = self.members[c].get(p) {
                let m = &mut self.slots[moved as usize];
                let j = m
                    .route
                    .iter()
                    .position(|mc| mc.idx() == c)
                    .expect("member lists mirror flow routes");
                m.pos[j] = p as u32;
            }
            self.mark_dirty(c);
        }
        // Hand the buffers back to the slot so the next insert reuses them.
        let f = &mut self.slots[slot as usize];
        f.route = route;
        f.route.clear();
        f.pos = pos;
        f.pos.clear();
        f.id = FREE_SLOT;
        self.free.push(slot);
    }

    /// The route of a registered flow.
    #[inline]
    pub fn route(&self, id: u64) -> Option<&[ChannelId]> {
        self.index.get(&id).map(|&s| &*self.slots[s as usize].route)
    }

    /// Re-solves the dirty component(s) and reports `(changed_flows,
    /// touched_channels)`: flows whose rate changed (with their **new**
    /// rate) and every channel in the re-solved components (whose aggregate
    /// rate may have changed). Returns empty slices when nothing was dirty.
    ///
    /// Components are discovered one at a time (BFS over the channel↔flow
    /// sharing graph from each unstamped dirty seed), and each is
    /// water-filled on the calling thread as soon as it is found, over one
    /// reused set of scratch buffers. Both lists are grouped by component
    /// in discovery order.
    pub fn resolve(&mut self) -> (&[(u64, f64)], &[u32]) {
        self.changed.clear();
        self.comp_chans.clear();
        if self.dirty.is_empty() {
            return (&self.changed, &self.comp_chans);
        }
        self.prof.resolves += 1;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: invalidate all stamps once.
            self.chan_stamp.iter_mut().for_each(|s| *s = u32::MAX);
            for f in self.slots.iter_mut() {
                f.stamp = u32::MAX;
            }
            self.epoch = 1;
        }
        for di in 0..self.dirty.len() {
            let seed = self.dirty[di] as usize;
            self.dirty_mask[seed] = false;
            if self.chan_stamp[seed] == self.epoch {
                continue;
            }
            // --- Component discovery: BFS from the seed. Every flow of
            // every reached channel joins, and with it every channel of its
            // route, so component channels carry component flows only.
            // `chan_local` / `SolvedFlow::local` are assigned
            // *component-local* indices (discovery order) into the scratch.
            let chan_start = self.comp_chans.len();
            self.comp_slots.clear();
            self.chan_stamp[seed] = self.epoch;
            self.chan_local[seed] = 0;
            self.comp_chans.push(seed as u32);
            let mut head = chan_start;
            while head < self.comp_chans.len() {
                let c = self.comp_chans[head] as usize;
                head += 1;
                for mi in 0..self.members[c].len() {
                    let slot = self.members[c][mi];
                    let f = &mut self.slots[slot as usize];
                    if f.stamp == self.epoch {
                        continue;
                    }
                    f.stamp = self.epoch;
                    self.comp_slots.push(slot);
                    let route = std::mem::take(&mut f.route);
                    for ch in route.iter() {
                        let rc = ch.idx();
                        if self.chan_stamp[rc] != self.epoch {
                            self.chan_stamp[rc] = self.epoch;
                            self.chan_local[rc] = (self.comp_chans.len() - chan_start) as u32;
                            self.comp_chans.push(rc as u32);
                        }
                    }
                    self.slots[slot as usize].route = route;
                }
            }
            // Canonical solve order: ascending flow id (== creation order),
            // so the arithmetic is independent of dirty-set construction
            // order.
            let slots_ref = &self.slots;
            self.comp_slots.sort_unstable_by_key(|&s| slots_ref[s as usize].id);
            for (i, &slot) in self.comp_slots.iter().enumerate() {
                self.slots[slot as usize].local = i as u32;
            }
            self.prof.components += 1;
            self.prof.comp_flows += self.comp_slots.len() as u64;
            self.prof.comp_chans += (self.comp_chans.len() - chan_start) as u64;

            // --- Water-fill it and report its changed flows.
            self.prof.waterfill_rounds += solve_component(
                &self.caps,
                &self.members,
                &self.slots,
                &self.chan_local,
                &self.comp_chans[chan_start..],
                &self.comp_slots,
                &mut self.fill,
            );
            for (&slot, &rate) in self.comp_slots.iter().zip(&self.fill.rates) {
                let f = &mut self.slots[slot as usize];
                if f.rate != rate {
                    f.rate = rate;
                    self.changed.push((f.id, rate));
                }
            }
        }
        self.dirty.clear();
        (&self.changed, &self.comp_chans)
    }
}

/// Water-fills one connected component: each flow freezes exactly once — at
/// the saturation level of its tightest channel or at its own cap. Channel
/// saturation levels only grow as flows freeze (a frozen flow leaves at
/// least its share of slack behind), so a lazily-revalidated min-heap of
/// levels visits each channel a bounded number of times; total cost is
/// O((flows × route + chans) × log) instead of rounds × component scans.
///
/// All indices are component-local: `chans[lc]` is the global channel id
/// at local index `lc` (and `chan_local` inverts that for the component's
/// channels), `SolvedFlow::local` indexes `fill.rates`/`fill.frozen`. The
/// rates land in `fill.rates`, in `flows` order. Returns the number of
/// freeze rounds processed (profiling).
fn solve_component(
    caps: &[f64],
    members: &[Vec<u32>],
    slots: &[SolvedFlow],
    chan_local: &[u32],
    chans: &[u32],
    flows: &[u32],
    fill: &mut FillScratch,
) -> u64 {
    let FillScratch { residual, load, rates, frozen, chan_heap, cap_heap } = fill;
    let nc = chans.len();
    residual.clear();
    residual.extend(chans.iter().map(|&c| caps[c as usize]));
    load.clear();
    load.resize(nc, 0);
    rates.clear();
    rates.resize(flows.len(), 0.0);
    frozen.clear();
    frozen.resize(flows.len(), false);
    for &slot in flows {
        for ch in slots[slot as usize].route.iter() {
            load[chan_local[ch.idx()] as usize] += 1;
        }
    }
    chan_heap.clear();
    for lc in 0..nc {
        if load[lc] > 0 {
            chan_heap.push(ShareKey { key: residual[lc] / load[lc] as f64, lc: lc as u32 });
        }
    }
    // Capped flows, lowest cap first (same ShareKey ordering, lc = flow).
    cap_heap.clear();
    for (i, &slot) in flows.iter().enumerate() {
        if let Some(cap) = slots[slot as usize].cap {
            cap_heap.push(ShareKey { key: cap, lc: i as u32 });
        }
    }
    let mut rounds = 0u64;
    let mut remaining = flows.len();
    while remaining > 0 {
        rounds += 1;
        // Earliest channel saturation, with lazy key revalidation.
        let chan_next = loop {
            match chan_heap.peek() {
                Some(&ShareKey { key, lc }) => {
                    let lcu = lc as usize;
                    if load[lcu] == 0 {
                        chan_heap.pop();
                        continue;
                    }
                    let true_key = residual[lcu] / load[lcu] as f64;
                    if true_key > key {
                        chan_heap.pop();
                        chan_heap.push(ShareKey { key: true_key, lc });
                        continue;
                    }
                    break Some(ShareKey { key: true_key, lc });
                }
                None => break None,
            }
        };
        // Earliest cap among still-active capped flows.
        let cap_next = loop {
            match cap_heap.peek() {
                Some(&k) if frozen[k.lc as usize] => {
                    cap_heap.pop();
                    continue;
                }
                other => break other.copied(),
            }
        };
        let cap_first = match (&chan_next, &cap_next) {
            (Some(c), Some(f)) => f.key <= c.key,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => {
                debug_assert!(false, "active flows must cross a channel or be capped");
                break;
            }
        };
        if cap_first {
            let k = cap_next.expect("checked above");
            cap_heap.pop();
            let i = k.lc as usize;
            frozen[i] = true;
            remaining -= 1;
            rates[i] = k.key;
            let f = &slots[flows[i] as usize];
            for ch in f.route.iter() {
                let lc = chan_local[ch.idx()] as usize;
                residual[lc] = (residual[lc] - k.key).max(0.0);
                load[lc] -= 1;
            }
        } else {
            let ShareKey { key: level, lc } = chan_next.expect("checked above");
            chan_heap.pop();
            // Freeze every active flow crossing the saturated channel.
            let c_global = chans[lc as usize] as usize;
            for &slot in members[c_global].iter() {
                let i = slots[slot as usize].local as usize;
                if frozen[i] {
                    continue;
                }
                frozen[i] = true;
                remaining -= 1;
                rates[i] = level;
                let f = &slots[slot as usize];
                for ch in f.route.iter() {
                    let l2 = chan_local[ch.idx()] as usize;
                    residual[l2] = (residual[l2] - level).max(0.0);
                    load[l2] -= 1;
                }
            }
            debug_assert_eq!(load[lc as usize], 0, "saturated channel fully frozen");
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RouteTable;
    use crate::topology::{ChannelId, LinkSpec, NodeId, Topology, TopologyBuilder};
    use crate::units::Bandwidth;
    use std::sync::Arc;

    fn star(n: usize, mbps: f64) -> (Arc<Topology>, Vec<NodeId>, RouteTable) {
        let mut b = TopologyBuilder::new();
        let hosts: Vec<NodeId> = (0..n).map(|i| b.add_host(format!("h{i}"))).collect();
        let sw = b.add_switch("sw");
        for &h in &hosts {
            b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(mbps)));
        }
        let t = Arc::new(b.build().unwrap());
        let rt = RouteTable::new(t.clone());
        (t, hosts, rt)
    }

    #[test]
    fn single_flow_gets_link_rate() {
        let (t, hs, rt) = star(2, 800.0);
        let route = rt.route(hs[0], hs[1]);
        let rates =
            max_min_rates(&t.channel_capacities(), &[FlowInput { route: &route, cap: None }]);
        assert!((rates[0] - Bandwidth::from_mbps(800.0).bytes_per_sec()).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_a_bottleneck_equally() {
        // Both flows leave h0: they share h0's uplink.
        let (t, hs, rt) = star(3, 800.0);
        let r1 = rt.route(hs[0], hs[1]);
        let r2 = rt.route(hs[0], hs[2]);
        let rates = max_min_rates(
            &t.channel_capacities(),
            &[FlowInput { route: &r1, cap: None }, FlowInput { route: &r2, cap: None }],
        );
        let half = Bandwidth::from_mbps(400.0).bytes_per_sec();
        assert!((rates[0] - half).abs() < 1.0);
        assert!((rates[1] - half).abs() < 1.0);
    }

    #[test]
    fn full_duplex_directions_are_independent() {
        let (t, hs, rt) = star(2, 800.0);
        let fwd = rt.route(hs[0], hs[1]);
        let rev = rt.route(hs[1], hs[0]);
        let rates = max_min_rates(
            &t.channel_capacities(),
            &[FlowInput { route: &fwd, cap: None }, FlowInput { route: &rev, cap: None }],
        );
        let full = Bandwidth::from_mbps(800.0).bytes_per_sec();
        assert!((rates[0] - full).abs() < 1.0, "opposite directions must not contend");
        assert!((rates[1] - full).abs() < 1.0);
    }

    #[test]
    fn per_flow_cap_binds_before_link() {
        let (t, hs, rt) = star(2, 800.0);
        let route = rt.route(hs[0], hs[1]);
        let cap = Bandwidth::from_mbps(100.0).bytes_per_sec();
        let rates =
            max_min_rates(&t.channel_capacities(), &[FlowInput { route: &route, cap: Some(cap) }]);
        assert!((rates[0] - cap).abs() < 1.0);
    }

    #[test]
    fn capped_flow_releases_bandwidth_to_others() {
        // Two flows into h1's downlink; one capped at 100, the other takes the rest.
        let (t, hs, rt) = star(3, 900.0);
        let r1 = rt.route(hs[0], hs[1]);
        let r2 = rt.route(hs[2], hs[1]);
        let cap = Bandwidth::from_mbps(100.0).bytes_per_sec();
        let rates = max_min_rates(
            &t.channel_capacities(),
            &[FlowInput { route: &r1, cap: Some(cap) }, FlowInput { route: &r2, cap: None }],
        );
        assert!((rates[0] - cap).abs() < 1.0);
        assert!((rates[1] - Bandwidth::from_mbps(800.0).bytes_per_sec()).abs() < 1.0);
    }

    #[test]
    fn unequal_bottlenecks_give_max_min_not_equal_split() {
        // h0 -> h1 shares a 300 Mb/s middle link with h2 -> h3, while h4 -> h5
        // sits on its own 900 link. Build explicitly:
        //   h0, h2 - swA - (300) - swB - h1, h3
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let h2 = b.add_host("h2");
        let h3 = b.add_host("h3");
        let swa = b.add_switch("swa");
        let swb = b.add_switch("swb");
        let fast = LinkSpec::lan(Bandwidth::from_mbps(900.0));
        b.link(h0, swa, fast);
        b.link(h2, swa, fast);
        b.link(h1, swb, fast);
        b.link(h3, swb, fast);
        b.link(swa, swb, LinkSpec::lan(Bandwidth::from_mbps(300.0)));
        let t = Arc::new(b.build().unwrap());
        let rt = RouteTable::new(t.clone());
        let r1 = rt.route(h0, h1);
        let r2 = rt.route(h2, h3);
        let rates = max_min_rates(
            &t.channel_capacities(),
            &[FlowInput { route: &r1, cap: None }, FlowInput { route: &r2, cap: None }],
        );
        let share = Bandwidth::from_mbps(150.0).bytes_per_sec();
        assert!((rates[0] - share).abs() < 1.0);
        assert!((rates[1] - share).abs() < 1.0);
    }

    #[test]
    fn loopback_flows() {
        let rates = max_min_rates(
            &[],
            &[FlowInput { route: &[], cap: None }, FlowInput { route: &[], cap: Some(5.0) }],
        );
        assert!(rates[0].is_infinite());
        assert_eq!(rates[1], 5.0);
    }

    #[test]
    fn empty_input() {
        assert!(max_min_rates(&[1.0, 2.0], &[]).is_empty());
    }

    /// Reference comparison helper: the incremental solver's rates for the
    /// given live flow set must match the one-shot solver's.
    fn assert_matches_reference(
        solver: &IncrementalMaxMin,
        caps: &[f64],
        live: &[(u64, Vec<ChannelId>, Option<f64>)],
    ) {
        let inputs: Vec<FlowInput<'_>> =
            live.iter().map(|(_, r, c)| FlowInput { route: r, cap: *c }).collect();
        let expect = max_min_rates(caps, &inputs);
        for ((id, _, _), want) in live.iter().zip(expect) {
            let got = solver.rate(*id);
            if want.is_infinite() {
                assert!(got.is_infinite(), "flow {id}");
            } else {
                let tol = 1e-6 * want.max(1.0);
                assert!((got - want).abs() < tol, "flow {id}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn incremental_matches_reference_through_churn() {
        let (t, hs, rt) = star(6, 700.0);
        let caps = t.channel_capacities();
        let mut solver = IncrementalMaxMin::new(caps.clone());
        let mut live: Vec<(u64, Vec<ChannelId>, Option<f64>)> = Vec::new();
        let cap = Bandwidth::from_mbps(150.0).bytes_per_sec();
        let mut next_id = 0u64;
        let mut add = |solver: &mut IncrementalMaxMin,
                       live: &mut Vec<(u64, Vec<ChannelId>, Option<f64>)>,
                       a: usize,
                       b: usize,
                       c: Option<f64>| {
            let route = rt.route(hs[a], hs[b]);
            solver.insert(next_id, &route, c);
            live.push((next_id, route, c));
            next_id += 1;
        };
        add(&mut solver, &mut live, 0, 1, None);
        add(&mut solver, &mut live, 0, 2, None);
        solver.resolve();
        assert_matches_reference(&solver, &caps, &live);
        add(&mut solver, &mut live, 3, 1, Some(cap));
        add(&mut solver, &mut live, 4, 5, None);
        solver.resolve();
        assert_matches_reference(&solver, &caps, &live);
        // Remove the first flow: its bandwidth must be redistributed.
        let (id, _, _) = live.remove(0);
        solver.remove(id);
        solver.resolve();
        assert_matches_reference(&solver, &caps, &live);
        // Idempotent when clean.
        let (changed, chans) = solver.resolve();
        assert!(changed.is_empty() && chans.is_empty());
    }

    #[test]
    fn incremental_leaves_untouched_components_alone() {
        // Two disjoint pairs: churn on one pair must not report the other.
        let (t, hs, rt) = star(5, 500.0);
        let caps = t.channel_capacities();
        let mut solver = IncrementalMaxMin::new(caps);
        let r01 = rt.route(hs[0], hs[1]);
        let r23 = rt.route(hs[2], hs[3]);
        solver.insert(1, &r01, None);
        solver.insert(2, &r23, None);
        solver.resolve();
        let full = Bandwidth::from_mbps(500.0).bytes_per_sec();
        assert!((solver.rate(1) - full).abs() < 1.0);
        // New flow contends with flow 1 only (shares h0's uplink).
        let r04 = rt.route(hs[0], hs[4]);
        solver.insert(3, &r04, None);
        let (changed, chans) = solver.resolve();
        let ids: Vec<u64> = changed.iter().map(|&(id, _)| id).collect();
        assert!(ids.contains(&1), "sharing flow re-rated");
        assert!(!ids.contains(&2), "disjoint flow untouched");
        for &c in chans {
            assert!(
                !r23.iter().any(|ch| ch.idx() == c as usize),
                "disjoint channels must not be touched"
            );
        }
        assert!((solver.rate(1) - full / 2.0).abs() < 1.0);
        assert!((solver.rate(2) - full).abs() < 1.0);
    }

    #[test]
    fn incremental_loopback_and_unknown_flows() {
        let mut solver = IncrementalMaxMin::new(vec![]);
        solver.insert(7, &[], None);
        solver.insert(8, &[], Some(5.0));
        assert!(solver.rate(7).is_infinite());
        assert_eq!(solver.rate(8), 5.0);
        assert_eq!(solver.rate(99), 0.0);
        assert!(!solver.is_dirty(), "loopback flows don't dirty channels");
        solver.remove(99); // unknown: no-op
        solver.remove(7);
        assert_eq!(solver.rate(7), 0.0);
    }

    #[test]
    fn no_channel_overload_on_dense_load() {
        // 8 hosts all-to-all on a 500 Mb/s star: verify feasibility.
        let (t, hs, rt) = star(8, 500.0);
        let routes: Vec<Vec<ChannelId>> = hs
            .iter()
            .flat_map(|&a| hs.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| rt.route(a, b))
            .collect();
        let flows: Vec<FlowInput<'_>> =
            routes.iter().map(|r| FlowInput { route: r, cap: None }).collect();
        let caps = t.channel_capacities();
        let rates = max_min_rates(&caps, &flows);
        let mut used = vec![0.0; caps.len()];
        for (f, rate) in flows.iter().zip(&rates) {
            for ch in f.route {
                used[ch.idx()] += rate;
            }
        }
        for (c, &u) in used.iter().enumerate() {
            assert!(u <= caps[c] * (1.0 + 1e-6), "channel {c} overloaded: {u} > {}", caps[c]);
        }
        // Work conservation: every flow is bottlenecked somewhere.
        for (f, rate) in flows.iter().zip(&rates) {
            let bottlenecked =
                f.route.iter().any(|ch| used[ch.idx()] >= caps[ch.idx()] * (1.0 - 1e-6));
            assert!(bottlenecked, "flow at {rate} B/s has slack everywhere");
        }
    }
}
