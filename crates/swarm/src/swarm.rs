//! The instrumented BitTorrent swarm engine.
//!
//! One [`Swarm`] simulates a single *synchronized broadcast* (paper §II-A):
//! a root seed holds the file, every other client starts empty at t = 0, and
//! the run ends when all clients hold all fragments. The protocol mechanisms
//! the paper identifies as the sources of measurement randomness are all
//! modelled:
//!
//! * random initial peer sets capped at 35 ([`crate::tracker`]);
//! * at most 4 parallel uploads: 3 reciprocal tit-for-tat slots plus an
//!   optimistic slot rotated every 30 s (the choker below);
//! * rarest-first piece selection with a random-first bootstrap and endgame
//!   duplication ([`crate::selection`]);
//! * broadcast asymmetry: peers closer to the root naturally receive more
//!   fragments from it.
//!
//! Transfers between an unchoked/interested pair run as open streams on the
//! fluid network engine; every completed 16 KiB fragment increments the
//! per-(source, destination) counter that phase 2 of the tomography method
//! consumes — exactly the hash-table-of-counters instrumentation described in
//! §II-A of the paper.
//!
//! ## Completion-driven advancement
//!
//! The swarm is an event-driven client of [`SimNet`]: every active transfer
//! keeps one **delivery mark** armed at its current fragment boundary, so
//! the engine's calendar knows the exact fluid time of the next fragment
//! completion anywhere in the swarm. A run jumps from completion to
//! completion; the 10 s rechoke (and 30 s optimistic rotation) fire as
//! scheduled timers between them. Idle pairs are never polled — a pair with
//! nothing fetchable goes dormant and is retried only when something that
//! could unblock it happens (a HAVE arrives, a choke slot opens, an
//! in-flight reservation is released, or endgame begins), plus a sweep at
//! every rechoke boundary as a safety net.
//!
//! Because the engine's state is invariant to how time is sliced and all
//! protocol actions are keyed to event instants, a fixed-step paced run
//! ([`crate::config::DriveMode::FixedStep`]) produces **bit-identical**
//! results — that equivalence is pinned by `tests/engine_equivalence.rs`.

use crate::bitfield::Bitfield;
use crate::config::{
    DriveMode, SwarmConfig, IDLE_GRACE, MAX_PEERS, OPTIMISTIC_INTERVAL, RANDOM_FIRST_PIECES,
    RATE_WINDOW, RECHOKE_INTERVAL, REGULAR_SLOTS, STEP, UPLOAD_SLOTS,
};
use crate::metrics::FragmentMatrix;
use crate::rate::RateEstimator;
use crate::selection::{pick_piece, PickContext};
use crate::tracker::PeerGraph;
use btt_netsim::engine::{CompletionKind, FlowId, SimNet};
use btt_netsim::perturb::{Perturbation, PerturbationSchedule};
use btt_netsim::routing::RouteTable;
use btt_netsim::topology::NodeId;
use btt_netsim::units::FRAGMENT_BYTES;
use btt_netsim::util::FxHashMap;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

/// An active download stream from one neighbor.
#[derive(Debug)]
struct Transfer {
    flow: FlowId,
    /// Piece currently being fetched on this stream; `None` while the
    /// stream idles in its grace window (uploader momentarily out of fresh
    /// pieces — delivered bytes accumulate as read-ahead in `got`).
    piece: Option<u32>,
    /// Bytes accumulated towards the current piece (may exceed one piece
    /// while idling: read-ahead that completes future pieces instantly).
    got: f64,
}

/// Per-neighbor protocol state, one per edge direction.
#[derive(Debug)]
struct Nbr {
    /// Swarm index of the neighbor.
    peer: u32,
    /// Our position inside the neighbor's `nbrs` list (mirror index).
    pos_at_peer: u32,
    /// We want pieces this neighbor has.
    im_interested: bool,
    /// The neighbor wants pieces we have (mirror of their `im_interested`).
    they_interested: bool,
    /// We are currently unchoking this neighbor.
    am_unchoking: bool,
    /// Bytes/sec we receive *from* this neighbor (tit-for-tat ranking).
    rate_from: RateEstimator,
    /// Bytes/sec we send *to* this neighbor (seed ranking).
    rate_to: RateEstimator,
    /// Last fluid rate observed while a transfer from this neighbor ran,
    /// and when it was observed. A transfer that is *supply-limited* (the
    /// uploader runs out of fresh pieces the instant they appear) moves few
    /// bytes per window, yet the link under it may be fast — which is
    /// exactly what tit-for-tat rewards on real clients, where each burst
    /// runs at wire speed. The choker ranks by this measured capacity when
    /// fresh, falling back to the byte-rate estimate.
    link_rate_from: (f64, f64),
    /// Mirror observation for the upload direction (seed ranking).
    link_rate_to: (f64, f64),
    /// Our active download from this neighbor, if any.
    transfer: Option<Transfer>,
    /// Fragments received from this neighbor — the paper's §II-A counter,
    /// tallied here (on state the transfer loop already touches) instead of
    /// scattering into an n × n matrix per fragment; materialized into the
    /// run's [`FragmentMatrix`] at the end.
    frags: u64,
}

/// One simulated BitTorrent client.
#[derive(Debug)]
struct Peer {
    host: NodeId,
    have: Bitfield,
    /// Pieces currently being fetched from someone (duplicate suppression).
    inflight: Bitfield,
    nbrs: Vec<Nbr>,
    /// Time the download finished; the root starts complete at 0.0.
    completed_at: Option<f64>,
    /// Positions (into `nbrs`) currently holding optimistic unchokes.
    optimistic: Vec<u32>,
    /// False while the host is crashed (reliability perturbations).
    alive: bool,
    /// True once the host has crashed at least once this run — its
    /// measurements are truncated and phase 2 must not average them in.
    ever_down: bool,
}

impl Peer {
    fn remaining(&self) -> u32 {
        self.have.len() - self.have.count()
    }
}

/// Grabs mutable references to two distinct slice elements.
fn two_mut<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = v.split_at_mut(j);
        (&mut a[i], &mut b[0])
    } else {
        let (a, b) = v.split_at_mut(i);
        (&mut b[0], &mut a[j])
    }
}

/// Packs a (downloader, neighbor-position) pair into a flow tag so mark
/// events map straight back to the transfer without a lookup table.
#[inline]
fn pair_tag(d: usize, j: usize) -> u64 {
    ((d as u64) << 32) | j as u64
}

#[inline]
fn untag(tag: u64) -> (usize, usize) {
    ((tag >> 32) as usize, (tag & 0xFFFF_FFFF) as usize)
}

/// A running broadcast simulation.
///
/// Most users should go through [`crate::broadcast::run_broadcast`]; the
/// `Swarm` type is public for callers that want to drive steps manually or
/// inspect state mid-run.
#[derive(Debug)]
pub struct Swarm {
    cfg: SwarmConfig,
    net: SimNet,
    rng: ChaCha12Rng,
    peers: Vec<Peer>,
    /// Per-piece availability among each peer's neighbors, flattened to one
    /// `n × num_pieces` array (`avail[p * num_pieces + piece]`). HAVE
    /// propagation touches ~[`MAX_PEERS`] random peers' counters per fragment;
    /// keeping them in one compact array (128 KB at 1000 hosts × 128
    /// pieces) instead of a per-peer heap `Vec` turns that scatter into
    /// cache hits.
    avail: Vec<u8>,
    /// Compact per-peer status (`ST_DOWN` / `ST_COMPLETE` bits), mirroring
    /// `Peer::alive` / `Peer::completed_at`. HAVE propagation consults one
    /// cache-resident byte to skip neighbors that can't use the
    /// announcement — crashed hosts miss it, completed hosts never pick
    /// again (their availability view is dead state, recomputed from
    /// scratch on revival) — without touching the neighbor's `Peer` at all.
    status: Vec<u8>,
    /// (owner, piece) HAVE announcements queued within the current event.
    have_queue: Vec<(u32, u32)>,
    /// Peers whose dormant pairs should be retried (candidate sets grew).
    retry_queue: Vec<u32>,
    /// Live leechers that have not finished downloading yet.
    incomplete: usize,
    /// Currently-crashed incomplete leechers with a scheduled revival — the
    /// run must wait for them (they are *surviving* hosts, §"reliability").
    down_incomplete: usize,
    root: usize,
    /// Protocol events processed (fragment completions + rechoke rounds +
    /// applied perturbations).
    events: usize,
    next_rechoke: f64,
    rechoke_round: u64,
    /// Reliability perturbations for this run (empty = static behaviour).
    schedule: PerturbationSchedule,
    /// Next unapplied schedule entry.
    sched_cursor: usize,
    /// Swarm index of each participating host (perturbations name hosts by
    /// topology node id).
    host_index: FxHashMap<NodeId, u32>,
    /// Live cross-traffic streams by schedule key.
    xflows: FxHashMap<u32, FlowId>,
    /// Choker scratch: scored candidates `(score, tie, j)`, reused across
    /// [`Swarm::rechoke_peer`] calls to keep the per-round allocations off
    /// the hot path.
    scratch_cands: Vec<(f64, u64, u32)>,
    /// Choker scratch: `(j, unchoke)` state flips to apply, reused likewise.
    scratch_decisions: Vec<(u32, bool)>,
    /// Reusable buffer for engine completions fired within a slice.
    fired_scratch: Vec<btt_netsim::engine::Completion>,
    /// HAVE-propagation scratch: the announcing owner's neighbor ids packed
    /// as `(peer, pos_at_peer)`. Service batching queues runs of
    /// announcements from one owner, so hoisting the pairs out of the ~2
    /// cache lines each [`Nbr`] occupies turns the per-piece neighbor walk
    /// into a scan of one dense array.
    scratch_nbrs: Vec<(u32, u32)>,
    /// Flat mirror of every peer's `have` bitfield words
    /// (`have_words[p * words_per_peer + w]`), kept in sync at the two
    /// sites that mutate piece state (root init, fragment completion).
    /// HAVE propagation tests ~[`MAX_PEERS`] random neighbors' bits per
    /// announcement; one row here is a single cache line at 512 pieces,
    /// where `peers[u].have.get(..)` chases two scattered pointers.
    have_words: Vec<u64>,
    /// Row stride of [`Self::have_words`] (`⌈num_pieces / 64⌉`).
    words_per_peer: usize,
    /// Protocol-side attribution counters (engine counters are merged in at
    /// snapshot time — see [`Swarm::prof`]); observational only.
    prof: SwarmProf,
}

/// Attribution counters for one swarm run: the engine's own counters
/// ([`btt_netsim::prof::EngineProf`]) plus the protocol phases layered on
/// top. The three `_ns` timers partition protocol wall time outside the
/// engine: transfer servicing at delivery marks, HAVE propagation (with the
/// dormant-pair retries it cascades into), and choker rounds. Together with
/// `engine.advance_ns` they account for nearly the whole drive loop.
///
/// `Debug` omits the timers, like [`btt_netsim::prof::EngineProf`]'s does:
/// seeded-determinism tests compare reports by their `Debug` rendering, and
/// only the counters are a pure function of the seed.
#[derive(Default, Clone, Copy, PartialEq)]
pub struct SwarmProf {
    /// The engine's counters (events, marks, solver phases).
    pub engine: btt_netsim::prof::EngineProf,
    /// Choker evaluations ([`RECHOKE_INTERVAL`] rounds plus
    /// event-triggered re-chokes).
    pub rechoke_passes: u64,
    /// Transfer-servicing calls (delivery marks, rechoke boundaries, wakes).
    pub service_calls: u64,
    /// Piece-selection invocations across all transfers.
    pub piece_picks: u64,
    /// HAVE announcements propagated to neighbors.
    pub have_announcements: u64,
    /// Wall time servicing fired delivery marks, nanoseconds.
    pub service_ns: u64,
    /// Wall time propagating HAVEs + running dormant retries, nanoseconds.
    pub haves_ns: u64,
    /// Wall time in choker rounds (scoring, slot flips, restarts), ns.
    pub rechoke_ns: u64,
}

impl std::fmt::Debug for SwarmProf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwarmProf")
            .field("engine", &self.engine)
            .field("rechoke_passes", &self.rechoke_passes)
            .field("service_calls", &self.service_calls)
            .field("piece_picks", &self.piece_picks)
            .field("have_announcements", &self.have_announcements)
            .finish_non_exhaustive()
    }
}

/// Reusable broadcast-lifetime buffers, recycled across the iterations a
/// campaign worker runs. A campaign constructs one [`Swarm`] per iteration;
/// without recycling, every iteration re-allocates (and re-faults) the two
/// large flat mirrors (`avail`, `have_words` — hundreds of KB at 1000+
/// hosts) plus the four hot-loop scratch vectors. The pool is
/// `thread_local`, which makes it per-worker by construction under the
/// campaign thread pool — no cross-thread handoff, no locks, and a serial
/// campaign degenerates to one pool. Purely an allocation-discipline
/// optimization: buffers are cleared and re-zeroed on reuse, so results are
/// identical with or without recycling.
#[derive(Default)]
struct SwarmScratch {
    avail: Vec<u8>,
    have_words: Vec<u64>,
    fired: Vec<btt_netsim::engine::Completion>,
    nbrs: Vec<(u32, u32)>,
    cands: Vec<(f64, u64, u32)>,
    decisions: Vec<(u32, bool)>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<SwarmScratch> =
        std::cell::RefCell::new(SwarmScratch::default());
}

/// Flow tag marking scheduled cross-traffic streams (never a transfer tag).
const XTRAFFIC_TAG: u64 = u64::MAX;

/// `Swarm::status` bit: the host is crashed.
const ST_DOWN: u8 = 1;
/// `Swarm::status` bit: the peer completed its download.
const ST_COMPLETE: u8 = 2;

/// A peer whose live neighbor count falls below this floor after a crash
/// re-announces to the tracker for replacement peers (the tracker has
/// dropped departed peers by then).
const REANNOUNCE_FLOOR: usize = 2;

impl Swarm {
    /// Builds a broadcast swarm over `hosts` (topology node ids of the
    /// participating compute nodes), with `hosts[root]` as the initial seed.
    ///
    /// `seed` drives all protocol randomness: tracker peer sets, choke
    /// tie-breaking, piece selection. Same seed ⇒ identical run.
    pub fn new(
        routes: Arc<RouteTable>,
        hosts: &[NodeId],
        root: usize,
        cfg: SwarmConfig,
        seed: u64,
    ) -> Self {
        cfg.validate();
        let n = hosts.len();
        assert!(n >= 2, "a broadcast needs a seed and at least one leecher");
        assert!(root < n, "root index out of range");

        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let graph = PeerGraph::random(n, MAX_PEERS, &mut rng);

        // Mirror positions: pos_of[u][i] = index of i in u's neighbor list.
        let pos_of: Vec<FxHashMap<u32, u32>> = (0..n)
            .map(|u| {
                graph.neighbors(u).iter().enumerate().map(|(pos, &p)| (p, pos as u32)).collect()
            })
            .collect();

        let pieces = cfg.num_pieces;
        // This worker's recycled buffers (returned in `into_outcome`).
        let mut sc = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        // Initial availability: the root's full bitfield announcement, seen
        // by its neighbors.
        let mut avail = std::mem::take(&mut sc.avail);
        avail.clear();
        avail.resize(n * pieces as usize, 0);
        for (i, pos) in pos_of.iter().enumerate() {
            if i != root && pos.contains_key(&(root as u32)) {
                avail[i * pieces as usize..(i + 1) * pieces as usize].fill(1);
            }
        }
        let mut peers: Vec<Peer> = (0..n)
            .map(|i| {
                let is_root = i == root;
                Peer {
                    host: hosts[i],
                    have: if is_root { Bitfield::full(pieces) } else { Bitfield::empty(pieces) },
                    inflight: Bitfield::empty(pieces),
                    nbrs: graph
                        .neighbors(i)
                        .iter()
                        .map(|&p| Nbr {
                            peer: p,
                            pos_at_peer: pos_of[p as usize][&(i as u32)],
                            im_interested: !is_root && p as usize == root,
                            they_interested: false,
                            am_unchoking: false,
                            rate_from: RateEstimator::new(RATE_WINDOW),
                            rate_to: RateEstimator::new(RATE_WINDOW),
                            link_rate_from: (0.0, f64::NEG_INFINITY),
                            link_rate_to: (0.0, f64::NEG_INFINITY),
                            transfer: None,
                            frags: 0,
                        })
                        .collect(),
                    completed_at: is_root.then_some(0.0),
                    optimistic: Vec::new(),
                    alive: true,
                    ever_down: false,
                }
            })
            .collect();

        // Mirror initial interest: every root neighbor is interested in it.
        for j in 0..peers[root].nbrs.len() {
            peers[root].nbrs[j].they_interested = true;
        }

        let mut net = SimNet::with_routes(routes);
        // Batch fairness re-solves on the protocol step — the same
        // rate-staleness bound the legacy fixed-step engine had. This keeps
        // per-fragment cost flat at 1000+ hosts.
        net.set_rate_refresh(STEP);
        let host_index: FxHashMap<NodeId, u32> =
            hosts.iter().enumerate().map(|(i, &h)| (h, i as u32)).collect();
        let mut status = vec![0u8; n];
        status[root] = ST_COMPLETE;
        let words_per_peer = peers[root].have.num_words();
        let mut have_words = std::mem::take(&mut sc.have_words);
        have_words.clear();
        have_words.resize(n * words_per_peer, 0);
        have_words[root * words_per_peer..(root + 1) * words_per_peer]
            .copy_from_slice(peers[root].have.words());
        sc.fired.clear();
        sc.nbrs.clear();
        sc.cands.clear();
        sc.decisions.clear();
        Swarm {
            cfg,
            net,
            rng,
            peers,
            avail,
            status,
            have_queue: Vec::new(),
            retry_queue: Vec::new(),
            incomplete: n - 1,
            down_incomplete: 0,
            root,
            events: 0,
            next_rechoke: 0.0,
            rechoke_round: 0,
            schedule: PerturbationSchedule::default(),
            sched_cursor: 0,
            host_index,
            xflows: FxHashMap::default(),
            scratch_cands: sc.cands,
            scratch_decisions: sc.decisions,
            fired_scratch: sc.fired,
            scratch_nbrs: sc.nbrs,
            have_words,
            words_per_peer,
            prof: SwarmProf::default(),
        }
    }

    /// Snapshot of this run's attribution counters, engine included.
    pub fn prof(&self) -> SwarmProf {
        let mut p = self.prof;
        p.engine = self.net.prof();
        p
    }

    /// Attaches a reliability perturbation schedule (host churn, link
    /// degradation, cross-traffic) to this run; it is the only way competing
    /// load enters a broadcast, and a cross-traffic stream may run between
    /// hosts outside the swarm. Events apply at their exact simulated
    /// instants in both drive modes, so perturbed runs stay byte-identical
    /// across [`DriveMode`]s.
    pub fn with_perturbations(mut self, schedule: PerturbationSchedule) -> Self {
        self.schedule = schedule;
        self.sched_cursor = 0;
        self
    }

    /// Swarm index of the root seed.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of leechers still downloading.
    pub fn incomplete(&self) -> usize {
        self.incomplete
    }

    /// The simulated clock.
    pub fn time(&self) -> f64 {
        self.net.time()
    }

    /// The fragment counters accumulated so far, materialized from the
    /// per-neighbor `frags` tallies.
    pub fn fragments(&self) -> FragmentMatrix {
        let n = self.peers.len();
        let mut entries: Vec<(u64, u64)> = Vec::new();
        for (d, peer) in self.peers.iter().enumerate() {
            for nb in &peer.nbrs {
                if nb.frags > 0 {
                    entries.push(((nb.peer as usize * n + d) as u64, nb.frags));
                }
            }
        }
        FragmentMatrix::from_entries(n, entries)
    }

    /// True when every leecher holds the whole file.
    pub fn is_complete(&self) -> bool {
        self.incomplete == 0
    }

    /// Runs protocol timers and advances by at most [`STEP`] seconds,
    /// processing any fragment completions inside it. Returns the new sim
    /// time. (Manual drivers get fixed-step pacing; `run` jumps
    /// completion-to-completion unless [`SwarmConfig::drive`] says
    /// [`DriveMode::FixedStep`].)
    pub fn step(&mut self) -> f64 {
        self.slice(STEP)
    }

    /// One slice of the drive loop: apply due perturbations, run due timers,
    /// then advance to the next fragment completion — but never past the
    /// next rechoke boundary, the next scheduled perturbation, nor further
    /// than `max_dt` (which may be infinite for pure event-driven pacing).
    fn slice(&mut self, max_dt: f64) -> f64 {
        self.apply_due_perturbations();
        if self.net.time() + 1e-9 >= self.next_rechoke {
            self.on_rechoke();
        }
        let mut deadline = if max_dt.is_finite() {
            self.next_rechoke.min(self.net.time() + max_dt)
        } else {
            self.next_rechoke
        };
        // Stop exactly at the next perturbation instant: both drive modes
        // land on the same absolute boundary, which is what keeps perturbed
        // runs byte-identical across pacings.
        if let Some(at) = self.schedule.next_at(self.sched_cursor) {
            deadline = deadline.min(at.max(self.net.time()));
        }
        let mut fired = std::mem::take(&mut self.fired_scratch);
        fired.clear();
        self.net.advance_to_next_event_until_into(deadline, &mut fired);
        let any = !fired.is_empty();
        let t0 = std::time::Instant::now();
        for c in &fired {
            if c.kind == CompletionKind::Mark {
                let (d, j) = untag(c.tag);
                self.service_pair(d, j, true);
                self.events += 1;
            }
        }
        self.fired_scratch = fired;
        if any {
            let t1 = std::time::Instant::now();
            self.prof.service_ns += (t1 - t0).as_nanos() as u64;
            self.flush_haves();
            self.process_retries();
            self.prof.haves_ns += t1.elapsed().as_nanos() as u64;
        }
        self.net.time()
    }

    /// Applies every schedule entry due at the current instant. Runs at the
    /// top of each slice; the slice deadline never moves past an unapplied
    /// entry, so events apply at their exact simulated time in both drive
    /// modes and in schedule order (deterministic, including the RNG draws
    /// the triggered rechokes consume).
    fn apply_due_perturbations(&mut self) {
        let mut applied = false;
        while let Some(ev) = self.schedule.get(self.sched_cursor) {
            if ev.at > self.net.time() + 1e-9 {
                break;
            }
            let what = ev.what;
            self.sched_cursor += 1;
            self.events += 1;
            applied = true;
            match what {
                Perturbation::HostDown { host } => {
                    if let Some(&d) = self.host_index.get(&host) {
                        self.host_down(d as usize);
                    }
                }
                Perturbation::HostUp { host } => {
                    if let Some(&d) = self.host_index.get(&host) {
                        self.host_up(d as usize);
                    }
                }
                Perturbation::LinkDegrade { link, factor } => {
                    self.net.set_link_capacity_factor(link, factor);
                }
                Perturbation::LinkRestore { link } => {
                    self.net.set_link_capacity_factor(link, 1.0);
                }
                Perturbation::XTrafficStart { src, dst, key } => {
                    // Competing bulk stream: contends in the fluid solver
                    // with every transfer sharing its links. Skipped when an
                    // endpoint is currently crashed.
                    let src_up =
                        self.host_index.get(&src).is_none_or(|&i| self.peers[i as usize].alive);
                    let dst_up =
                        self.host_index.get(&dst).is_none_or(|&i| self.peers[i as usize].alive);
                    if src_up && dst_up {
                        let f = self.net.start_flow(src, dst, None, XTRAFFIC_TAG);
                        self.xflows.insert(key, f);
                    }
                }
                Perturbation::XTrafficStop { key } => {
                    if let Some(f) = self.xflows.remove(&key) {
                        // May already be gone if an endpoint crashed.
                        self.net.stop_flow(f);
                    }
                }
            }
        }
        if applied {
            self.flush_haves();
            self.process_retries();
        }
    }

    /// A host crashes: force-complete its flows in the engine, abort every
    /// transfer it participates in (re-queuing the aborted pieces), sever
    /// interest, evict its choke slots everywhere, remove its pieces from
    /// neighbors' availability counts, and re-announce thin survivors to the
    /// tracker.
    fn host_down(&mut self, d: usize) {
        if !self.peers[d].alive {
            return;
        }
        let host = self.peers[d].host;
        // Engine half: every flow the host terminates force-completes now,
        // re-rating only the dirty fairness components.
        self.net.fail_host(host);
        self.peers[d].alive = false;
        self.peers[d].ever_down = true;
        self.status[d] |= ST_DOWN;
        // Sentinel: an all-ones mirror row makes HAVE propagation skip the
        // crashed host with the same bit test that skips neighbors already
        // holding the piece (no per-visit status load). The real words are
        // restored from `have` on revival.
        self.have_words[d * self.words_per_peer..(d + 1) * self.words_per_peer].fill(!0);
        // The host's own downloads abort; reservations release.
        for j in 0..self.peers[d].nbrs.len() {
            if let Some(t) = self.peers[d].nbrs[j].transfer.take() {
                if let Some(p) = t.piece {
                    self.peers[d].inflight.clear(p);
                }
            }
        }
        self.peers[d].optimistic.clear();
        let pieces = self.peers[d].have.len();
        let mut rechoke: Vec<usize> = Vec::new();
        let mut thin: Vec<usize> = Vec::new();
        for j in 0..self.peers[d].nbrs.len() {
            let (u, pos) = {
                let nb = &self.peers[d].nbrs[j];
                (nb.peer as usize, nb.pos_at_peer as usize)
            };
            // The neighbor's download *from* the dead host aborts; its piece
            // re-enters the rarest-first queue via the released reservation.
            if let Some(t) = self.peers[u].nbrs[pos].transfer.take() {
                if let Some(p) = t.piece {
                    self.peers[u].inflight.clear(p);
                }
                self.retry_queue.push(u as u32);
            }
            // Sever interest in both directions (mirrors stay in sync).
            self.peers[u].nbrs[pos].im_interested = false;
            self.peers[d].nbrs[j].they_interested = false;
            if self.peers[d].nbrs[j].im_interested {
                self.peers[d].nbrs[j].im_interested = false;
                if self.peers[u].nbrs[pos].they_interested {
                    self.peers[u].nbrs[pos].they_interested = false;
                    if self.peers[u].nbrs[pos].am_unchoking {
                        rechoke.push(u); // the uploader lost a customer
                    }
                }
            }
            // Choker eviction on both sides.
            self.peers[u].nbrs[pos].am_unchoking = false;
            self.peers[u].optimistic.retain(|&x| x as usize != pos);
            self.peers[d].nbrs[j].am_unchoking = false;
            if self.peers[u].alive {
                // The dead host's pieces leave the neighbor's rarity view.
                let row = u * pieces as usize;
                for p in 0..pieces {
                    if self.peers[d].have.get(p) {
                        let slot = &mut self.avail[row + p as usize];
                        *slot = slot.saturating_sub(1);
                    }
                }
                let live = self.peers[u]
                    .nbrs
                    .iter()
                    .filter(|nb| self.peers[nb.peer as usize].alive)
                    .count();
                if live < REANNOUNCE_FLOOR {
                    thin.push(u);
                }
            }
        }
        // Liveness accounting: an incomplete leecher leaves the active set;
        // if the schedule revives it later the run must still wait for it.
        if self.peers[d].completed_at.is_none() {
            self.incomplete -= 1;
            if self.schedule.has_pending_host_up(self.sched_cursor, host) {
                self.down_incomplete += 1;
            }
        }
        // Tracker re-announce: survivors left with too few live peers get
        // replacements (the tracker drops departed peers on re-announce).
        for u in thin {
            self.reannounce(u);
        }
        rechoke.sort_unstable();
        rechoke.dedup();
        for p in rechoke {
            if self.peers[p].alive {
                self.rechoke_peer(p, false);
            }
        }
    }

    /// A crashed host restarts with its piece state intact (client
    /// restart): availability is recomputed from live neighbors, bitfields
    /// re-exchange, interest re-derives, and spare-slot uploaders
    /// re-evaluate so the peer resumes without waiting a full rechoke
    /// interval.
    fn host_up(&mut self, d: usize) {
        if self.peers[d].alive {
            return;
        }
        self.peers[d].alive = true;
        self.status[d] &= !ST_DOWN;
        let wpp = self.words_per_peer;
        self.have_words[d * wpp..(d + 1) * wpp].copy_from_slice(self.peers[d].have.words());
        let pieces = self.peers[d].have.len();
        self.avail[d * pieces as usize..(d + 1) * pieces as usize].fill(0);
        let d_complete = self.peers[d].completed_at.is_some();
        let mut rechoke: Vec<usize> = Vec::new();
        for j in 0..self.peers[d].nbrs.len() {
            let (u, pos) = {
                let nb = &self.peers[d].nbrs[j];
                (nb.peer as usize, nb.pos_at_peer as usize)
            };
            if !self.peers[u].alive {
                continue;
            }
            // Bitfield exchange, both directions.
            let (drow, urow) = (d * pieces as usize, u * pieces as usize);
            for p in 0..pieces {
                if self.peers[u].have.get(p) {
                    let slot = &mut self.avail[drow + p as usize];
                    *slot = slot.saturating_add(1);
                }
                if self.peers[d].have.get(p) {
                    let slot = &mut self.avail[urow + p as usize];
                    *slot = slot.saturating_add(1);
                }
            }
            // Interest re-derivation (mirrored), as on a real reconnect.
            let d_wants = !d_complete && {
                let (dp, up) = two_mut(&mut self.peers, d, u);
                dp.have.is_interested_in(&up.have)
            };
            self.peers[d].nbrs[j].im_interested = d_wants;
            self.peers[u].nbrs[pos].they_interested = d_wants;
            let u_wants = self.peers[u].completed_at.is_none() && {
                let (dp, up) = two_mut(&mut self.peers, d, u);
                up.have.is_interested_in(&dp.have)
            };
            self.peers[u].nbrs[pos].im_interested = u_wants;
            self.peers[d].nbrs[j].they_interested = u_wants;
            if d_wants && self.unchoked_count(u) < UPLOAD_SLOTS {
                rechoke.push(u);
            }
        }
        if self.peers[d].completed_at.is_none() {
            self.incomplete += 1;
            self.down_incomplete = self.down_incomplete.saturating_sub(1);
        }
        for u in rechoke {
            self.rechoke_peer(u, false);
        }
        // The revived host fills its own slots if anyone wants from it.
        self.rechoke_peer(d, false);
        self.retry_queue.push(d as u32);
    }

    /// Tracker re-announce for a peer whose live neighbor count fell below
    /// [`REANNOUNCE_FLOOR`]: the tracker (which drops departed peers) hands
    /// back random live replacements, connected with a fresh bitfield
    /// exchange — the mechanism that keeps crash-thinned swarms connected.
    fn reannounce(&mut self, u: usize) {
        let connected: Vec<u32> = self.peers[u].nbrs.iter().map(|nb| nb.peer).collect();
        let live: usize = connected.iter().filter(|&&p| self.peers[p as usize].alive).count();
        if live >= REANNOUNCE_FLOOR {
            return;
        }
        let mut candidates: Vec<u32> = (0..self.peers.len() as u32)
            .filter(|&v| v as usize != u && self.peers[v as usize].alive && !connected.contains(&v))
            .collect();
        candidates.shuffle(&mut self.rng);
        for v in candidates.into_iter().take(REANNOUNCE_FLOOR - live) {
            self.connect_peers(u, v as usize);
        }
    }

    /// Opens a fresh connection between two live peers mid-run: mirror
    /// [`Nbr`] entries on both sides, bitfield exchange, interest
    /// derivation, and a retry nudge so transfers can start.
    fn connect_peers(&mut self, u: usize, v: usize) {
        debug_assert_ne!(u, v);
        let pos_u = self.peers[u].nbrs.len() as u32; // v's mirror index at u
        let pos_v = self.peers[v].nbrs.len() as u32; // u's mirror index at v
        let pieces = self.peers[u].have.len();
        let (u_wants, v_wants) = {
            let (up, vp) = two_mut(&mut self.peers, u, v);
            (
                up.completed_at.is_none() && up.have.is_interested_in(&vp.have),
                vp.completed_at.is_none() && vp.have.is_interested_in(&up.have),
            )
        };
        let mk_nbr = |peer: u32, pos_at_peer: u32, im: bool, they: bool| Nbr {
            peer,
            pos_at_peer,
            im_interested: im,
            they_interested: they,
            am_unchoking: false,
            rate_from: RateEstimator::new(RATE_WINDOW),
            rate_to: RateEstimator::new(RATE_WINDOW),
            link_rate_from: (0.0, f64::NEG_INFINITY),
            link_rate_to: (0.0, f64::NEG_INFINITY),
            transfer: None,
            frags: 0,
        };
        self.peers[u].nbrs.push(mk_nbr(v as u32, pos_v, u_wants, v_wants));
        self.peers[v].nbrs.push(mk_nbr(u as u32, pos_u, v_wants, u_wants));
        let (urow, vrow) = (u * pieces as usize, v * pieces as usize);
        for p in 0..pieces {
            if self.peers[v].have.get(p) {
                let slot = &mut self.avail[urow + p as usize];
                *slot = slot.saturating_add(1);
            }
            if self.peers[u].have.get(p) {
                let slot = &mut self.avail[vrow + p as usize];
                *slot = slot.saturating_add(1);
            }
        }
        if u_wants && self.unchoked_count(v) < UPLOAD_SLOTS {
            self.rechoke_peer(v, false);
        }
        if v_wants && self.unchoked_count(u) < UPLOAD_SLOTS {
            self.rechoke_peer(u, false);
        }
        self.retry_queue.push(u as u32);
        self.retry_queue.push(v as u32);
    }

    /// The rechoke timer: drain every active transfer so tit-for-tat scores
    /// are current, propagate announcements, run the choking algorithm, and
    /// sweep dormant pairs as a retry safety net.
    fn on_rechoke(&mut self) {
        let t0 = std::time::Instant::now();
        self.service_all();
        self.flush_haves();
        let rounds_per_optimistic =
            (OPTIMISTIC_INTERVAL / RECHOKE_INTERVAL).round().max(1.0) as u64;
        let rotate = self.rechoke_round.is_multiple_of(rounds_per_optimistic);
        self.rechoke_all(rotate);
        self.rechoke_round += 1;
        self.next_rechoke += RECHOKE_INTERVAL;
        self.events += 1;
        self.flush_haves();
        self.retry_all_dormant();
        self.process_retries();
        self.prof.rechoke_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Drains every active transfer (used at rechoke boundaries, where every
    /// pair's score must reflect bytes up to the boundary).
    fn service_all(&mut self) {
        for d in 0..self.peers.len() {
            if self.peers[d].completed_at.is_some() || !self.peers[d].alive {
                continue;
            }
            for j in 0..self.peers[d].nbrs.len() {
                if self.peers[d].completed_at.is_some() {
                    break; // completed mid-loop via an earlier pair
                }
                if self.peers[d].nbrs[j].transfer.is_some() {
                    self.service_pair(d, j, false);
                }
            }
        }
    }

    /// Retries every dormant pair (interested + unchoked + no transfer).
    fn retry_all_dormant(&mut self) {
        for d in 0..self.peers.len() {
            self.retry_queue.push(d as u32);
        }
    }

    /// Runs queued dormant-pair retries, deduplicated, in peer order.
    fn process_retries(&mut self) {
        while !self.retry_queue.is_empty() {
            let mut queue = std::mem::take(&mut self.retry_queue);
            queue.sort_unstable();
            queue.dedup();
            for d in queue {
                let d = d as usize;
                if self.peers[d].completed_at.is_some() || !self.peers[d].alive {
                    continue;
                }
                for j in 0..self.peers[d].nbrs.len() {
                    enum Kind {
                        Dormant,
                        Idling,
                        Busy,
                    }
                    let kind = {
                        let nb = &self.peers[d].nbrs[j];
                        if !nb.im_interested {
                            Kind::Busy
                        } else {
                            match &nb.transfer {
                                None => Kind::Dormant,
                                Some(t) if t.piece.is_none() => Kind::Idling,
                                Some(_) => Kind::Busy,
                            }
                        }
                    };
                    match kind {
                        Kind::Dormant => self.try_start_transfer(d, j),
                        Kind::Idling => self.service_pair(d, j, false),
                        Kind::Busy => {}
                    }
                }
            }
            // Retries can cascade (a started transfer halts another pair via
            // a rechoke): loop until the queue drains.
            self.flush_haves();
        }
    }

    /// Drains one active transfer, completing fragments, re-picking, and
    /// managing the idle-grace state machine. `on_mark` is true when called
    /// because the stream's delivery mark fired — the only context allowed
    /// to expire an idle grace window and tear the stream down.
    fn service_pair(&mut self, d: usize, j: usize, on_mark: bool) {
        self.prof.service_calls += 1;
        let now = self.net.time();
        let (flow, u, pos) = {
            let nb = &self.peers[d].nbrs[j];
            match &nb.transfer {
                Some(t) => (t.flow, nb.peer as usize, nb.pos_at_peer as usize),
                None => return,
            }
        };
        let bytes = self.net.take_delivered(flow);
        if bytes > 0.0 {
            let fluid = self.net.flow_rate(flow);
            self.peers[d].nbrs[j].rate_from.add(bytes, now);
            self.peers[d].nbrs[j].link_rate_from = (fluid, now);
            self.peers[u].nbrs[pos].rate_to.add(bytes, now);
            self.peers[u].nbrs[pos].link_rate_to = (fluid, now);
            self.peers[d].nbrs[j].transfer.as_mut().expect("transfer present").got += bytes;
        }
        let entered_idle =
            self.peers[d].nbrs[j].transfer.as_ref().expect("transfer present").piece.is_none();
        let mut completed_any = false;

        loop {
            let current = self.peers[d].nbrs[j].transfer.as_ref().expect("transfer present").piece;
            if let Some(piece) = current {
                // Active piece: complete it if the bytes are in.
                {
                    let t = self.peers[d].nbrs[j].transfer.as_mut().expect("transfer present");
                    if t.got + 1e-6 < FRAGMENT_BYTES {
                        break; // mark still armed at the piece boundary
                    }
                    t.got -= FRAGMENT_BYTES;
                    t.piece = None;
                }

                // One fragment received from u by d: the paper's counter.
                completed_any = true;
                self.peers[d].nbrs[j].frags += 1;
                self.peers[d].inflight.clear(piece);
                let remaining_before = self.peers[d].remaining();
                if self.peers[d].have.set(piece) {
                    self.have_words[d * self.words_per_peer + (piece as usize >> 6)] |=
                        1u64 << (piece & 63);
                    self.have_queue.push((d as u32, piece));
                    if self.peers[d].have.is_full() {
                        self.peers[d].completed_at = Some(now);
                        self.status[d] |= ST_COMPLETE;
                        self.incomplete -= 1;
                        let t = self.peers[d].nbrs[j].transfer.take().expect("transfer present");
                        self.net.stop_flow(t.flow);
                        self.finalize_peer(d);
                        return;
                    }
                    // Crossing into endgame widens every pair's candidate set
                    // (in-flight reservations stop masking pieces): retry.
                    if remaining_before > self.cfg.endgame_pieces
                        && self.peers[d].remaining() <= self.cfg.endgame_pieces
                    {
                        self.retry_queue.push(d as u32);
                    }
                }
                continue; // pick the next piece below
            }

            // No current piece: try to (re)start one on this stream.
            self.prof.piece_picks += 1;
            let picked = {
                let Self { cfg, peers, rng, avail, have_words, words_per_peer, .. } = self;
                let (dp, wpp) = (&peers[d], *words_per_peer);
                let pp = cfg.num_pieces as usize;
                // Have rows come from the dense mirror (live pairs only, so
                // the crash sentinel is never read here); its rows are kept
                // hot by HAVE flushing, unlike the scattered per-peer heaps.
                let ctx = PickContext {
                    uploader_have: &have_words[u * wpp..(u + 1) * wpp],
                    downloader_have: &have_words[d * wpp..(d + 1) * wpp],
                    inflight: dp.inflight.words(),
                    avail: &avail[d * pp..(d + 1) * pp],
                    endgame: dp.remaining() <= cfg.endgame_pieces,
                    random_first: dp.have.count() < RANDOM_FIRST_PIECES,
                };
                pick_piece(cfg.selection, &ctx, rng)
            };
            match picked {
                Some(p) => {
                    self.peers[d].inflight.set(p);
                    let t = self.peers[d].nbrs[j].transfer.as_mut().expect("transfer present");
                    t.piece = Some(p);
                    if t.got + 1e-6 >= FRAGMENT_BYTES {
                        continue; // read-ahead already covers it: complete now
                    }
                    // Service batching: on fast streams, let one mark cover
                    // up to a `step` worth of bytes so dozens of fragments
                    // complete per event (the legacy engine's 50 ms service
                    // cadence); on slow streams the piece boundary is
                    // further out than a step and marks stay piece-exact.
                    let ahead = (FRAGMENT_BYTES - t.got).max(self.net.flow_rate(flow) * STEP);
                    self.net.set_delivery_mark(flow, ahead);
                    break;
                }
                None => {
                    // Uploader momentarily out of fresh pieces. Keep the
                    // stream open through a short grace window — delivered
                    // bytes accumulate as read-ahead and complete the next
                    // announced piece instantly, and the fairness solver is
                    // spared a churn per catch-up. Only an expired grace
                    // (its own mark firing with still nothing to pick)
                    // tears the stream down.
                    if completed_any || !entered_idle {
                        // Idleness begins (or re-begins) now: arm the grace.
                        let grace = (self.net.flow_rate(flow) * IDLE_GRACE).max(FRAGMENT_BYTES);
                        self.net.set_delivery_mark(flow, grace);
                    } else if on_mark {
                        // The grace window itself fired with nothing new:
                        // stop the stream.
                        let t = self.peers[d].nbrs[j].transfer.take().expect("transfer present");
                        self.net.stop_flow(t.flow);
                        let still = {
                            let (dp, up) = two_mut(&mut self.peers, d, u);
                            dp.have.is_interested_in(&up.have)
                        };
                        if !still {
                            self.peers[d].nbrs[j].im_interested = false;
                            self.peers[u].nbrs[pos].they_interested = false;
                            // Original-client behaviour: the uploader does
                            // NOT re-choke on NOT_INTERESTED — the slot
                            // survives until its next choker round, so the
                            // pair resumes instantly on the next HAVE
                            // instead of losing the slot to a
                            // cross-bottleneck stream at every catch-up.
                            // Idle slots are reclaimed on demand by the
                            // spare-slot rechoke in `flush_haves` and at
                            // the scheduled boundary.
                        }
                    }
                    // else: idle with a pending grace mark — keep waiting.
                    return;
                }
            }
        }
    }

    /// Starts a download stream from neighbor `j` of peer `d` if a piece is
    /// available, arming its fragment delivery mark.
    fn try_start_transfer(&mut self, d: usize, j: usize) {
        if self.peers[d].completed_at.is_some()
            || !self.peers[d].alive
            || self.peers[d].nbrs[j].transfer.is_some()
        {
            return;
        }
        let (u, pos) = {
            let nb = &self.peers[d].nbrs[j];
            (nb.peer as usize, nb.pos_at_peer as usize)
        };
        if !self.peers[u].nbrs[pos].am_unchoking {
            return;
        }
        self.prof.piece_picks += 1;
        let picked = {
            let Self { cfg, peers, rng, avail, have_words, words_per_peer, .. } = self;
            let (dp, wpp) = (&peers[d], *words_per_peer);
            let pp = cfg.num_pieces as usize;
            let ctx = PickContext {
                uploader_have: &have_words[u * wpp..(u + 1) * wpp],
                downloader_have: &have_words[d * wpp..(d + 1) * wpp],
                inflight: dp.inflight.words(),
                avail: &avail[d * pp..(d + 1) * pp],
                endgame: dp.remaining() <= cfg.endgame_pieces,
                random_first: dp.have.count() < RANDOM_FIRST_PIECES,
            };
            pick_piece(cfg.selection, &ctx, rng)
        };
        if let Some(p) = picked {
            self.peers[d].inflight.set(p);
            let flow =
                self.net.start_flow(self.peers[u].host, self.peers[d].host, None, pair_tag(d, j));
            let ahead = FRAGMENT_BYTES.max(self.net.flow_rate(flow) * STEP);
            self.net.set_delivery_mark(flow, ahead);
            self.peers[d].nbrs[j].transfer = Some(Transfer { flow, piece: Some(p), got: 0.0 });
        }
    }

    /// Stops the download stream from neighbor `j` of peer `d` (choked).
    /// Partial fragment progress is discarded, mirroring a request queue
    /// flush; at fluid rates this loses well under one fragment per rechoke.
    /// Releasing the in-flight reservation may unblock d's dormant pairs, so
    /// d is queued for retry.
    fn halt_transfer(&mut self, d: usize, j: usize) {
        if let Some(t) = self.peers[d].nbrs[j].transfer.take() {
            self.net.stop_flow(t.flow);
            if let Some(p) = t.piece {
                self.peers[d].inflight.clear(p);
            }
            self.retry_queue.push(d as u32);
        }
    }

    /// Cleans up a peer that just completed its download: stop its
    /// downloads, withdraw its interest everywhere, and re-evaluate chokes —
    /// both for the new seed (its ranking policy flips to upload rate) and
    /// for any uploader that just lost a customer.
    fn finalize_peer(&mut self, d: usize) {
        let mut rechoke: Vec<usize> = Vec::new();
        for j in 0..self.peers[d].nbrs.len() {
            if self.peers[d].nbrs[j].transfer.is_some() {
                self.halt_transfer(d, j);
            }
            if self.peers[d].nbrs[j].im_interested {
                let (u, pos) = {
                    let nb = &self.peers[d].nbrs[j];
                    (nb.peer as usize, nb.pos_at_peer as usize)
                };
                self.peers[d].nbrs[j].im_interested = false;
                self.peers[u].nbrs[pos].they_interested = false;
                if self.peers[u].nbrs[pos].am_unchoking {
                    rechoke.push(u);
                }
            }
        }
        rechoke.push(d);
        rechoke.sort_unstable();
        rechoke.dedup();
        for p in rechoke {
            self.rechoke_peer(p, false);
        }
    }

    /// Propagates queued HAVE announcements: availability counts, interest
    /// flags, waking dormant unchoked pairs, and eager slot filling.
    fn flush_haves(&mut self) {
        let pp = self.cfg.num_pieces as usize;
        let mut scratch = std::mem::take(&mut self.scratch_nbrs);
        while !self.have_queue.is_empty() {
            let queue = std::mem::take(&mut self.have_queue);
            self.prof.have_announcements += queue.len() as u64;
            // Announcements arrive in owner-runs (one service batch queues
            // every piece a stream completed), so the packed neighbor-id
            // scratch is rebuilt once per run, not once per piece. The
            // neighbor topology is immutable during a flush (peers are only
            // added by tracker re-announces, which happen at perturbation
            // boundaries), so the ids stay valid across nested wakes.
            let mut cur_owner = u32::MAX;
            for (owner, piece) in queue {
                if owner != cur_owner {
                    cur_owner = owner;
                    scratch.clear();
                    scratch.extend(
                        self.peers[owner as usize].nbrs.iter().map(|nb| (nb.peer, nb.pos_at_peer)),
                    );
                }
                let owner = owner as usize;
                for (j, &(u, pos)) in scratch.iter().enumerate() {
                    let (u, pos) = (u as usize, pos as usize);
                    // Dense mirror of `peers[u].have.get(piece)`: the common
                    // case (neighbor already holds the piece) resolves from
                    // one flat row without touching the scattered `Peer`.
                    // Liveness rides along — crashed hosts carry all-ones
                    // sentinel rows, completed hosts genuinely full ones —
                    // so one bit test gates the whole visit.
                    //
                    // The availability increment is *skipped* for those
                    // neighbors: picks read `avail[u][p]` only for candidate
                    // pieces, and candidates always exclude `u`'s own haves
                    // (a peer never un-loses a piece — crashes keep piece
                    // state, revival recomputes the whole row), so a counter
                    // under an already-held piece is dead state. This turns
                    // the common visit into one load and a bit test, with no
                    // scattered store.
                    let word = self.have_words[u * self.words_per_peer + (piece as usize >> 6)];
                    if word >> (piece & 63) & 1 != 0 {
                        continue;
                    }
                    let slot = &mut self.avail[u * pp + piece as usize];
                    *slot = slot.saturating_add(1);
                    // u is now (still) interested in owner. Tested via the
                    // owner-side `they_interested` mirror (the two fields
                    // are kept in lockstep everywhere — see the invariant
                    // check in `mirror_invariants_hold_mid_run`): the owner's `nbrs`
                    // row stays cache-hot across the whole owner-run, so
                    // the already-interested majority never chases the
                    // scattered `peers[u]` entry at all.
                    if !self.peers[owner].nbrs[j].they_interested {
                        self.peers[u].nbrs[pos].im_interested = true;
                        self.peers[owner].nbrs[j].they_interested = true;
                        // Original-client behaviour: an interest change triggers a
                        // choke re-evaluation if the uploader has slots to spare —
                        // unless the pair already holds an (idle) unchoke slot, in
                        // which case the wake below resumes it directly. Catch-up
                        // pairs flap interest at every announcement, so skipping
                        // the re-choke here is what keeps HAVE processing O(1).
                        if !self.peers[owner].nbrs[j].am_unchoking
                            && self.unchoked_count(owner) < UPLOAD_SLOTS
                        {
                            self.rechoke_peer(owner, false);
                        }
                    }
                    // Wake a dormant unchoked pair, or nudge an idling
                    // stream — but only when the just-announced piece is
                    // actually fetchable by u. A dormant pair's candidate
                    // set grows only through announcements (in-flight
                    // releases queue an explicit retry), so gating on this
                    // piece skips the guaranteed-to-fail pick attempts that
                    // otherwise dominate HAVE processing. The choke test
                    // goes first: both tests are pure reads, the owner-side
                    // slot bit stays cache-hot across the batch, and ~9 in
                    // 10 pairs are choked — skipping the pointer chase into
                    // `u`'s reservation state entirely.
                    if self.peers[owner].nbrs[j].am_unchoking {
                        let fetchable = !self.peers[u].inflight.get(piece)
                            || self.peers[u].remaining() <= self.cfg.endgame_pieces;
                        if fetchable {
                            match &self.peers[u].nbrs[pos].transfer {
                                None => self.try_start_transfer(u, pos),
                                Some(t) if t.piece.is_none() => self.service_pair(u, pos, false),
                                Some(_) => {}
                            }
                        }
                    }
                }
            }
        }
        self.scratch_nbrs = scratch;
    }

    fn unchoked_count(&self, p: usize) -> usize {
        self.peers[p].nbrs.iter().filter(|nb| nb.am_unchoking && nb.they_interested).count()
    }

    /// Runs the choking algorithm for every peer.
    fn rechoke_all(&mut self, rotate_optimistic: bool) {
        for p in 0..self.peers.len() {
            self.rechoke_peer(p, rotate_optimistic);
        }
    }

    /// The choking algorithm for peer `p` (paper constants: 3 reciprocal
    /// slots ranked by rate, 1 optimistic slot rotated every 30 s).
    ///
    /// Leechers rank interested neighbors by *download* rate received from
    /// them (tit-for-tat); seeds and finished peers rank by *upload* rate to
    /// the neighbor, as the original client's seed policy does.
    fn rechoke_peer(&mut self, p: usize, rotate_optimistic: bool) {
        if !self.peers[p].alive {
            return;
        }
        self.prof.rechoke_passes += 1;
        let now = self.net.time();
        {
            let Self { peers, rng, scratch_cands: cands, scratch_decisions, .. } = self;
            let completed = peers[p].completed_at.is_some();
            let pr = &mut peers[p];

            // Score interested neighbors: measured link capacity while a
            // recent transfer ran, else the byte-rate estimate.
            cands.clear();
            for (j, nb) in pr.nbrs.iter_mut().enumerate() {
                if !nb.they_interested {
                    continue;
                }
                let (est, (cap, cap_at)) = if completed {
                    (nb.rate_to.rate(now), nb.link_rate_to)
                } else {
                    (nb.rate_from.rate(now), nb.link_rate_from)
                };
                let score = if now - cap_at <= RATE_WINDOW { est.max(cap) } else { est };
                cands.push((score, rng.gen::<u64>(), j as u32));
            }
            // Highest score first; random tie-break.
            cands.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
            // The regular slots are the sorted prefix; the optimistic pool
            // is everything after it (both are views, no copies).
            let k = REGULAR_SLOTS.min(cands.len());
            let (regular, pool) = cands.split_at(k);

            // Optimistic slots among the remaining interested neighbors.
            let opt_slots = UPLOAD_SLOTS - REGULAR_SLOTS;
            if rotate_optimistic {
                pr.optimistic.clear();
            } else {
                // Keep holders that are still eligible.
                pr.optimistic.retain(|&x| pool.iter().any(|&(_, _, j)| j == x));
            }
            while pr.optimistic.len() < opt_slots {
                // Uniform pick among pool members not already holding a
                // slot; same single `gen_range` draw the materialized
                // `fresh.choose(rng)` made.
                let fresh = || pool.iter().filter(|&&(_, _, j)| !pr.optimistic.contains(&j));
                let m = fresh().count();
                if m == 0 {
                    break;
                }
                let pick = rng.gen_range(0..m);
                let &(_, _, j) = fresh().nth(pick).expect("pick < fresh count");
                pr.optimistic.push(j);
            }

            scratch_decisions.clear();
            for j in 0..pr.nbrs.len() {
                let un = regular.iter().any(|&(_, _, r)| r as usize == j)
                    || pr.optimistic.contains(&(j as u32));
                if pr.nbrs[j].am_unchoking != un {
                    scratch_decisions.push((j as u32, un));
                }
            }
        }

        let decisions = std::mem::take(&mut self.scratch_decisions);
        for &(j, unchoke) in &decisions {
            let j = j as usize;
            self.peers[p].nbrs[j].am_unchoking = unchoke;
            let (d, pos, interested) = {
                let nb = &self.peers[p].nbrs[j];
                (nb.peer as usize, nb.pos_at_peer as usize, nb.they_interested)
            };
            if unchoke {
                if interested {
                    self.try_start_transfer(d, pos);
                }
            } else {
                self.halt_transfer(d, pos);
            }
        }
        self.scratch_decisions = decisions;
    }

    /// Drives the simulation until every **surviving** leecher completes
    /// (crashed-for-good hosts do not gate the run; crashed hosts with a
    /// scheduled revival do) or the safety time limit is hit, returning the
    /// final state summary. Pacing follows [`SwarmConfig::drive`]:
    /// completion-to-completion by default.
    pub fn run(mut self) -> RunOutcome {
        let max_dt = match self.cfg.drive {
            DriveMode::EventDriven => f64::INFINITY,
            DriveMode::FixedStep => STEP,
        };
        while self.incomplete + self.down_incomplete > 0 && self.net.time() < self.cfg.max_sim_time
        {
            self.slice(max_dt);
        }
        self.into_outcome()
    }

    fn into_outcome(mut self) -> RunOutcome {
        let fragments = self.fragments();
        let completion: Vec<Option<f64>> = self.peers.iter().map(|p| p.completed_at).collect();
        let disrupted: Vec<bool> = self.peers.iter().map(|p| p.ever_down).collect();
        let departed: Vec<bool> = self.peers.iter().map(|p| !p.alive).collect();
        // The broadcast reference time over *surviving* hosts: a host lost
        // before completing does not gate the broadcast; one that completed
        // before crashing contributes its real completion time.
        let makespan = completion
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != self.root)
            .filter_map(|(i, t)| match t {
                Some(t) => Some(*t),
                None if departed[i] => None,
                None => Some(self.cfg.max_sim_time),
            })
            .fold(0.0f64, f64::max);
        let prof = {
            let mut p = self.prof;
            p.engine = self.net.prof();
            p
        };
        // Hand the broadcast-lifetime buffers back to this worker's pool
        // for the campaign's next iteration.
        SCRATCH.with(|s| {
            let sc = &mut *s.borrow_mut();
            sc.avail = std::mem::take(&mut self.avail);
            sc.have_words = std::mem::take(&mut self.have_words);
            sc.fired = std::mem::take(&mut self.fired_scratch);
            sc.nbrs = std::mem::take(&mut self.scratch_nbrs);
            sc.cands = std::mem::take(&mut self.scratch_cands);
            sc.decisions = std::mem::take(&mut self.scratch_decisions);
        });
        RunOutcome {
            fragments,
            completion,
            makespan,
            finished: self.incomplete == 0 && self.down_incomplete == 0,
            sim_steps: self.events,
            disrupted,
            departed,
            prof,
        }
    }
}

/// Raw outcome of a single swarm run (see
/// [`BroadcastResult`](crate::broadcast::BroadcastResult) for the
/// user-facing wrapper).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Directed fragment counts (paper Eq. 1 inputs).
    pub fragments: FragmentMatrix,
    /// Per-peer completion times; the root is 0.0, unfinished peers `None`.
    pub completion: Vec<Option<f64>>,
    /// Max completion time over surviving leechers — the paper's broadcast
    /// reference time (lost hosts do not gate it).
    pub makespan: f64,
    /// Whether all surviving leechers finished within the safety limit.
    pub finished: bool,
    /// Number of protocol events processed (fragment completions serviced,
    /// rechoke rounds, and applied perturbations) — identical across drive
    /// modes.
    pub sim_steps: usize,
    /// Per-peer: true when the host crashed at *any* point during the run —
    /// its measurements are truncated, so phase-2 aggregation must not
    /// average its pairs in for this run.
    pub disrupted: Vec<bool>,
    /// Per-peer: true when the host was still down when the run ended (a
    /// *lost* host, in the reliability report's terms).
    pub departed: Vec<bool>,
    /// Attribution counters for the run (wall-clock phases + event counts).
    /// Observational only: excluded from determinism comparisons.
    pub prof: SwarmProf,
}

impl RunOutcome {
    /// Hosts still down when the run ended.
    pub fn hosts_lost(&self) -> usize {
        self.departed.iter().filter(|&&d| d).count()
    }

    /// The per-peer full-participation mask
    /// ([`crate::metrics::MetricAccumulator::push_run_partial`]'s second
    /// argument): true where the host was up for the entire run.
    pub fn participated(&self) -> Vec<bool> {
        self.disrupted.iter().map(|&d| !d).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btt_netsim::prelude::*;

    fn star_hosts(n: usize, mbps: f64) -> (Arc<RouteTable>, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hosts: Vec<NodeId> = (0..n).map(|i| b.add_host(format!("h{i}"))).collect();
        let sw = b.add_switch("sw");
        for &h in &hosts {
            b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(mbps)));
        }
        let topo = Arc::new(b.build().unwrap());
        (Arc::new(RouteTable::new(topo)), hosts)
    }

    fn quick_cfg(pieces: u32) -> SwarmConfig {
        SwarmConfig {
            num_pieces: pieces,
            endgame_pieces: 0, // exact conservation in tests
            max_sim_time: 600.0,
            ..SwarmConfig::default()
        }
    }

    #[test]
    fn tiny_swarm_completes_and_conserves_fragments() {
        let (routes, hosts) = star_hosts(4, 890.0);
        let swarm = Swarm::new(routes, &hosts, 0, quick_cfg(128), 42);
        let out = swarm.run();
        assert!(out.finished, "swarm must complete");
        // Conservation: every leecher received exactly num_pieces fragments
        // (endgame disabled). The root receives none.
        assert_eq!(out.fragments.received_by(0), 0);
        for d in 1..4 {
            assert_eq!(out.fragments.received_by(d), 128, "leecher {d}");
        }
        // All fragments originate somewhere: total sent == total received.
        assert_eq!(out.fragments.total(), 3 * 128);
        // Root completion is t=0; leechers positive.
        assert_eq!(out.completion[0], Some(0.0));
        for d in 1..4 {
            assert!(out.completion[d].unwrap() > 0.0);
        }
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (routes, hosts) = star_hosts(8, 500.0);
        let run = |seed| Swarm::new(routes.clone(), &hosts, 0, quick_cfg(64), seed).run();
        let a = run(7);
        let b = run(7);
        assert_eq!(a.fragments, b.fragments);
        assert_eq!(a.completion, b.completion);
        let c = run(8);
        assert_ne!(a.fragments, c.fragments, "different seeds should differ");
    }

    #[test]
    fn drive_modes_agree_bit_for_bit() {
        let (routes, hosts) = star_hosts(6, 700.0);
        let run = |drive| {
            let cfg = SwarmConfig { drive, ..quick_cfg(96) };
            Swarm::new(routes.clone(), &hosts, 0, cfg, 99).run()
        };
        let ev = run(DriveMode::EventDriven);
        let fs = run(DriveMode::FixedStep);
        assert_eq!(ev.fragments, fs.fragments);
        assert_eq!(ev.completion, fs.completion, "bit-identical completion times");
        assert_eq!(ev.makespan.to_bits(), fs.makespan.to_bits());
        assert_eq!(ev.sim_steps, fs.sim_steps);
    }

    #[test]
    fn makespan_scales_linearly_in_message_size() {
        // §II-B: broadcast time is O(M). Double the pieces, roughly double
        // the time (generous tolerance — protocol effects are not exactly
        // linear at small sizes). Files must be big enough that the makespan
        // spans several rechoke intervals.
        let (routes, hosts) = star_hosts(6, 890.0);
        let t1 = Swarm::new(routes.clone(), &hosts, 0, quick_cfg(4096), 3).run().makespan;
        let t2 = Swarm::new(routes.clone(), &hosts, 0, quick_cfg(8192), 3).run().makespan;
        let ratio = t2 / t1;
        assert!(ratio > 1.5 && ratio < 2.7, "ratio {ratio} (t1={t1}, t2={t2})");
    }

    #[test]
    fn root_choice_matters() {
        let (routes, hosts) = star_hosts(6, 890.0);
        let out = Swarm::new(routes, &hosts, 3, quick_cfg(64), 11).run();
        assert!(out.finished);
        assert_eq!(out.completion[3], Some(0.0), "root 3 starts complete");
        assert_eq!(out.fragments.received_by(3), 0);
        assert!(out.fragments.sent_by(3) > 0, "root must upload");
    }

    #[test]
    fn seed_uploads_at_most_upload_slots_concurrently() {
        // Structural check: after the first rechoke, the root has at most 4
        // active upload streams (its unchoke set).
        let (routes, hosts) = star_hosts(12, 890.0);
        let mut swarm = Swarm::new(routes, &hosts, 0, quick_cfg(2048), 5);
        swarm.step();
        let root_unchoked =
            swarm.peers[0].nbrs.iter().filter(|nb| nb.am_unchoking && nb.they_interested).count();
        assert!(root_unchoked <= 4, "{root_unchoked} > 4 upload slots");
        assert!(root_unchoked >= 1, "root must serve someone");
    }

    #[test]
    fn endgame_duplicates_are_bounded() {
        let (routes, hosts) = star_hosts(5, 890.0);
        let cfg = SwarmConfig { num_pieces: 64, endgame_pieces: 16, ..SwarmConfig::default() };
        let out = Swarm::new(routes, &hosts, 0, cfg, 123).run();
        assert!(out.finished);
        for d in 1..5 {
            let got = out.fragments.received_by(d);
            assert!(got >= 64, "leecher {d} must receive the whole file");
            assert!(got <= 64 + 32, "duplicates should be bounded, got {got}");
        }
    }

    #[test]
    fn mirror_invariants_hold_mid_run() {
        let (routes, hosts) = star_hosts(10, 400.0);
        let mut swarm = Swarm::new(routes, &hosts, 0, quick_cfg(256), 77);
        for _ in 0..40 {
            swarm.step();
        }
        for d in 0..swarm.peers.len() {
            for j in 0..swarm.peers[d].nbrs.len() {
                let (u, pos, im) = {
                    let nb = &swarm.peers[d].nbrs[j];
                    (nb.peer as usize, nb.pos_at_peer as usize, nb.im_interested)
                };
                let mirror = &swarm.peers[u].nbrs[pos];
                assert_eq!(mirror.peer as usize, d, "mirror index must point back");
                assert_eq!(
                    mirror.they_interested, im,
                    "interest mirror out of sync between {d} and {u}"
                );
                // A transfer may only run while the uploader unchokes us.
                if swarm.peers[d].nbrs[j].transfer.is_some() {
                    assert!(mirror.am_unchoking, "transfer without unchoke {u}->{d}");
                }
            }
        }
    }

    #[test]
    fn bystander_cross_traffic_slows_the_broadcast() {
        use btt_netsim::perturb::{Perturbation, PerturbationSchedule, TimedPerturbation};
        // Two switches joined by one 200 Mb/s link; each side has three
        // swarm hosts and two bystanders outside the swarm.
        let mut b = TopologyBuilder::new();
        let left = b.add_switch("left");
        let right = b.add_switch("right");
        b.link(left, right, LinkSpec::lan(Bandwidth::from_mbps(200.0)));
        let mut side = |sw: NodeId, tag: &str| -> Vec<NodeId> {
            (0..5)
                .map(|i| {
                    let h = b.add_host(format!("{tag}{i}"));
                    b.link(h, sw, LinkSpec::lan(Bandwidth::from_mbps(890.0)));
                    h
                })
                .collect()
        };
        let l = side(left, "l");
        let r = side(right, "r");
        let routes = Arc::new(RouteTable::new(Arc::new(b.build().unwrap())));
        let hosts = [&l[..3], &r[..3]].concat();
        let quiet = Swarm::new(routes.clone(), &hosts, 0, quick_cfg(512), 3).run();
        assert!(quiet.finished);
        // One always-on bystander stream across the shared link each way.
        let schedule = PerturbationSchedule::new(vec![
            TimedPerturbation {
                at: 0.0,
                what: Perturbation::XTrafficStart { src: l[3], dst: r[3], key: 0 },
            },
            TimedPerturbation {
                at: 0.0,
                what: Perturbation::XTrafficStart { src: r[4], dst: l[4], key: 1 },
            },
        ]);
        let loaded =
            Swarm::new(routes, &hosts, 0, quick_cfg(512), 3).with_perturbations(schedule).run();
        assert!(loaded.finished, "must still complete under load");
        assert!(
            loaded.makespan > quiet.makespan,
            "bystander traffic on a shared link should cost time: {} vs {}",
            loaded.makespan,
            quiet.makespan
        );
        for d in 1..6 {
            assert_eq!(loaded.fragments.received_by(d), 512, "conservation under load");
        }
    }

    #[test]
    fn crashed_host_is_lost_and_survivors_complete() {
        use btt_netsim::perturb::{Perturbation, PerturbationSchedule, TimedPerturbation};
        let (routes, hosts) = star_hosts(6, 890.0);
        // Host 3 crashes early and never comes back.
        let schedule = PerturbationSchedule::new(vec![TimedPerturbation {
            at: 0.05,
            what: Perturbation::HostDown { host: hosts[3] },
        }]);
        let out =
            Swarm::new(routes, &hosts, 0, quick_cfg(256), 21).with_perturbations(schedule).run();
        assert!(out.finished, "survivors must complete");
        assert_eq!(out.hosts_lost(), 1);
        assert!(out.departed[3] && out.disrupted[3]);
        assert!(out.completion[3].is_none(), "lost host never completes");
        for d in [1, 2, 4, 5] {
            assert!(!out.disrupted[d]);
            assert_eq!(out.fragments.received_by(d), 256, "survivor {d}");
            assert!(out.completion[d].is_some());
        }
        // Participation mask matches the disruption record.
        assert_eq!(out.participated(), vec![true, true, true, false, true, true]);
        // The makespan is gated by survivors only.
        assert!(out.makespan < quick_cfg(256).max_sim_time);
    }

    #[test]
    fn revived_host_completes_its_download() {
        use btt_netsim::perturb::{Perturbation, PerturbationSchedule, TimedPerturbation};
        let (routes, hosts) = star_hosts(5, 890.0);
        let schedule = PerturbationSchedule::new(vec![
            TimedPerturbation { at: 0.1, what: Perturbation::HostDown { host: hosts[2] } },
            TimedPerturbation { at: 4.0, what: Perturbation::HostUp { host: hosts[2] } },
        ]);
        let out =
            Swarm::new(routes, &hosts, 0, quick_cfg(512), 5).with_perturbations(schedule).run();
        assert!(out.finished, "the run waits for the revived host");
        assert_eq!(out.hosts_lost(), 0);
        assert!(out.disrupted[2], "restart is recorded as a disruption");
        assert!(!out.departed[2]);
        let t2 = out.completion[2].expect("revived host completes");
        assert!(t2 > 4.0, "completion after the revival instant, got {t2}");
        assert!(out.fragments.received_by(2) >= 512);
    }

    #[test]
    fn drive_modes_agree_bit_for_bit_under_perturbations() {
        use btt_netsim::perturb::{generate_schedule, ReliabilityCfg};
        let (routes, hosts) = star_hosts(8, 700.0);
        let cfg_rel = ReliabilityCfg { churn: 0.3, xtraffic: 0.3, degrade: 0.25 };
        let horizon =
            btt_netsim::perturb::horizon_estimate(routes.topology(), &hosts, 96.0 * 16384.0);
        let run = |drive| {
            let cfg = SwarmConfig { drive, ..quick_cfg(96) };
            let schedule = generate_schedule(routes.topology(), &hosts, 0, &cfg_rel, horizon, 77);
            assert!(!schedule.is_empty());
            Swarm::new(routes.clone(), &hosts, 0, cfg, 77).with_perturbations(schedule).run()
        };
        let ev = run(DriveMode::EventDriven);
        let fs = run(DriveMode::FixedStep);
        assert_eq!(ev.fragments, fs.fragments);
        assert_eq!(ev.completion, fs.completion, "bit-identical completion under churn");
        assert_eq!(ev.makespan.to_bits(), fs.makespan.to_bits());
        assert_eq!(ev.sim_steps, fs.sim_steps);
        assert_eq!(ev.disrupted, fs.disrupted);
        assert_eq!(ev.departed, fs.departed);
    }

    #[test]
    fn cross_traffic_schedule_slows_the_broadcast() {
        use btt_netsim::perturb::{Perturbation, PerturbationSchedule, TimedPerturbation};
        let (routes, hosts) = star_hosts(6, 890.0);
        let quiet = Swarm::new(routes.clone(), &hosts, 0, quick_cfg(4096), 3).run();
        assert!(quiet.finished);
        // Saturating cross-traffic into every leecher for the whole run.
        let mut events = Vec::new();
        let mut key = 0u32;
        for (i, &dst) in hosts.iter().enumerate().skip(1) {
            let src = hosts[(i + 1) % hosts.len()];
            if src == dst {
                continue;
            }
            events.push(TimedPerturbation {
                at: 0.0,
                what: Perturbation::XTrafficStart { src, dst, key },
            });
            key += 1;
        }
        let loaded = Swarm::new(routes, &hosts, 0, quick_cfg(4096), 3)
            .with_perturbations(PerturbationSchedule::new(events))
            .run();
        assert!(loaded.finished, "must still complete under load");
        assert!(
            loaded.makespan > quiet.makespan,
            "competing traffic should cost time: {} vs {}",
            loaded.makespan,
            quiet.makespan
        );
        for d in 1..6 {
            assert_eq!(loaded.fragments.received_by(d), 4096, "conservation under load");
        }
    }

    #[test]
    fn mid_run_degradation_slows_the_affected_host() {
        use btt_netsim::perturb::{Perturbation, PerturbationSchedule, TimedPerturbation};
        let (routes, hosts) = star_hosts(5, 890.0);
        let quiet = Swarm::new(routes.clone(), &hosts, 0, quick_cfg(2048), 9).run();
        // Degrade host 2's access link to 5% almost immediately.
        let link = routes.topology().neighbors(hosts[2])[0].1;
        let schedule = PerturbationSchedule::new(vec![TimedPerturbation {
            at: 0.01,
            what: Perturbation::LinkDegrade { link, factor: 0.05 },
        }]);
        let slow =
            Swarm::new(routes, &hosts, 0, quick_cfg(2048), 9).with_perturbations(schedule).run();
        assert!(slow.finished);
        let t_quiet = quiet.completion[2].unwrap();
        let t_slow = slow.completion[2].unwrap();
        assert!(
            t_slow > 2.0 * t_quiet,
            "degraded access must cost the host dearly: {t_slow} vs {t_quiet}"
        );
    }

    #[test]
    fn two_mut_panics_on_same_index() {
        let mut v = [1, 2, 3];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = two_mut(&mut v, 1, 1);
        }));
        assert!(r.is_err());
        let (a, b) = two_mut(&mut v, 2, 0);
        assert_eq!((*a, *b), (3, 1));
    }

    #[test]
    fn pair_tags_round_trip() {
        for (d, j) in [(0usize, 0usize), (7, 34), (1023, 12), (usize::MAX >> 40, 3)] {
            assert_eq!(untag(pair_tag(d, j)), (d, j));
        }
    }
}
