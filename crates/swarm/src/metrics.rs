//! The tomography metric: fragments exchanged per peer pair.
//!
//! Implements §II-A of the paper. During an instrumented broadcast every
//! client counts fragments it receives from each source peer
//! ([`FragmentMatrix`]). The per-edge metric of Eq. (1) symmetrizes one run:
//!
//! ```text
//! w(e) = (v1 →  v2) + (v2 →  v1)          for e = (v1, v2)
//! ```
//!
//! and Eq. (2) averages over `n` iterations ([`MetricAccumulator`]):
//!
//! ```text
//! w(e) = Σᵢ (v1 →ᵢ v2 + v2 →ᵢ v1) / n
//! ```

use serde::{Deserialize, Serialize};

/// Directed fragment counts for one broadcast: how many fragments each
/// `(src, dst)` pair moved, with `src` the sender and `dst` the receiver.
///
/// Peers are swarm-local indices `0..n`, not topology node ids; callers keep
/// the mapping.
///
/// The representation is sparse: a broadcast over a `MAX_PEERS`-bounded
/// overlay touches O(n · MAX_PEERS) pairs, so the dense n² matrix this
/// replaces was ~99% zeros at 1000 hosts — 8 MB allocated, faulted in, and
/// scanned per run for ~35k live counters. Entries are kept sorted by packed
/// key `src * n + dst`, which makes the form canonical: two matrices with
/// the same nonzero counts compare equal, exactly as the dense form did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FragmentMatrix {
    n: usize,
    /// Packed `src * n + dst` keys of nonzero entries, sorted ascending.
    keys: Vec<u64>,
    /// Fragment counts, parallel to `keys`; never zero.
    counts: Vec<u64>,
}

impl FragmentMatrix {
    /// A zero matrix for `n` peers.
    pub fn new(n: usize) -> Self {
        FragmentMatrix { n, keys: Vec::new(), counts: Vec::new() }
    }

    /// Builds a matrix from `(packed key, count)` entries in one shot — the
    /// bulk path for [`crate::swarm::Swarm`], which tallies fragments on its
    /// per-neighbor state during the run (cache-resident, unlike this
    /// matrix) and materializes once. Entries may arrive unsorted; zero
    /// counts are dropped, duplicate keys merged.
    pub(crate) fn from_entries(n: usize, mut entries: Vec<(u64, u64)>) -> Self {
        entries.retain(|&(_, c)| c > 0);
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mut keys: Vec<u64> = Vec::with_capacity(entries.len());
        let mut counts: Vec<u64> = Vec::with_capacity(entries.len());
        for (k, c) in entries {
            if keys.last() == Some(&k) {
                *counts.last_mut().expect("parallel to keys") += c;
            } else {
                keys.push(k);
                counts.push(c);
            }
        }
        FragmentMatrix { n, keys, counts }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when tracking zero peers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn key(&self, src: usize, dst: usize) -> u64 {
        debug_assert!(src < self.n && dst < self.n);
        (src * self.n + dst) as u64
    }

    /// Records one fragment sent by `src`, received by `dst`.
    ///
    /// O(log nnz) for a known pair, O(nnz) when a new pair is inserted —
    /// fine for the tests and small drivers that call it; the simulation
    /// hot path counts on per-neighbor state and bulk-loads via
    /// `FragmentMatrix::from_entries` instead.
    pub fn record(&mut self, src: usize, dst: usize) {
        debug_assert!(src != dst, "a peer cannot send to itself");
        let key = self.key(src, dst);
        match self.keys.binary_search(&key) {
            Ok(i) => self.counts[i] += 1,
            Err(i) => {
                self.keys.insert(i, key);
                self.counts.insert(i, 1);
            }
        }
    }

    /// Fragments sent from `src` to `dst` (directed).
    #[inline]
    pub fn sent(&self, src: usize, dst: usize) -> u64 {
        match self.keys.binary_search(&self.key(src, dst)) {
            Ok(i) => self.counts[i],
            Err(_) => 0,
        }
    }

    /// Eq. (1): the symmetric single-run edge metric
    /// `v1 → v2 + v2 → v1`.
    #[inline]
    pub fn edge(&self, a: usize, b: usize) -> u64 {
        self.sent(a, b) + self.sent(b, a)
    }

    /// Total fragments received by `dst` from all sources.
    pub fn received_by(&self, dst: usize) -> u64 {
        let n = self.n as u64;
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|&(k, _)| k % n == dst as u64)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Total fragments sent by `src` to all destinations.
    pub fn sent_by(&self, src: usize) -> u64 {
        let n = self.n as u64;
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|&(k, _)| k / n == src as u64)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Total fragments exchanged in the run.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Eq. (2): accumulates [`FragmentMatrix`] runs into the averaged edge metric.
///
/// Aggregation is *streaming*: [`MetricAccumulator::push_run`] folds one run
/// in and maintains a sorted registry of edges with nonzero mass, so
/// [`MetricAccumulator::edges`] — the snapshot handed to the clustering
/// phase — costs O(nnz) rather than O(n²). A convergence study over `n`
/// iterations therefore aggregates each run exactly once and snapshots
/// after every push, instead of re-aggregating every prefix from scratch.
///
/// ## Partial runs
///
/// Under host churn a broadcast may end with some hosts crashed: their
/// measurements are *truncated*, not merely noisy. The accumulator therefore
/// keeps a per-pair **observation count** — the number of runs in which both
/// endpoints participated for the whole broadcast
/// ([`MetricAccumulator::push_run_partial`]) — and Eq. (2) divides each
/// edge's sum by *its own* observation count instead of the global iteration
/// count. A pair measured cleanly in 3 of 5 runs is averaged over those 3,
/// rather than silently diluted by two truncated zeros; pairs never observed
/// carry no edge at all. With no churn every pair is observed every run and
/// the metric is bit-identical to the historical global average.
///
/// ## Storage
///
/// Nothing is stored per host pair. The sums live alongside the sorted
/// nonzero registry (16 B per nonzero edge); the overlay bounds each host to
/// a few dozen peers, so that is O(n · MAX_PEERS). Observation counts are
/// derived rather than stored: runs where everyone participated are one
/// counter, and each *partial* run sets one bit in a per-host participation
/// signature, so a pair's count is the full-run counter plus the popcount of
/// its two signatures ANDed — 8 B × n per 64 partial runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricAccumulator {
    n: usize,
    iterations: u32,
    /// Peer pairs `(a, b)`, `a < b`, whose sum is nonzero, sorted
    /// lexicographically — the sparse support of the measurement graph.
    nonzero: Vec<(u32, u32)>,
    /// Symmetric sums of `edge(a,b)` over observed runs, parallel to
    /// `nonzero`.
    sums: Vec<f64>,
    /// Runs in which every peer participated; each adds one observation to
    /// every pair. The other `iterations - full_runs` runs are partial.
    full_runs: u32,
    /// Participation signatures over partial runs, run-word-major: bit
    /// `r % 64` of `sig[(r / 64) * n + h]` is set when host `h` participated
    /// in partial run `r`.
    sig: Vec<u64>,
    /// Pair observations contributed by partial runs: Σ k(k−1)/2 over
    /// partial runs with `k` participating hosts.
    partial_pair_obs: u64,
}

impl MetricAccumulator {
    /// An empty accumulator for `n` peers.
    pub fn new(n: usize) -> Self {
        MetricAccumulator {
            n,
            iterations: 0,
            nonzero: Vec::new(),
            sums: Vec::new(),
            full_runs: 0,
            sig: Vec::new(),
            partial_pair_obs: 0,
        }
    }

    /// Partial runs in which both `a` and `b` participated.
    #[inline]
    fn partial_obs(&self, a: usize, b: usize) -> u32 {
        debug_assert!(a != b && a < self.n && b < self.n);
        self.sig.chunks_exact(self.n).map(|col| (col[a] & col[b]).count_ones()).sum()
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when tracking zero peers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of accumulated iterations.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Streams one broadcast run into the accumulator.
    ///
    /// Folds only the run's sparse support — O(nnz log nnz) to order the
    /// run plus one O(nnz) merge into the registry, with no O(n²) pass at
    /// all — so a sequence of pushes interleaved with
    /// [`MetricAccumulator::edges`] snapshots is the incremental path behind
    /// convergence studies, in place of an O(prefixes · n²) re-aggregation
    /// per prefix.
    pub fn push_run(&mut self, m: &FragmentMatrix) {
        self.push_run_partial(m, &[]);
    }

    /// Streams one **partial** broadcast run: `participated[i]` is true when
    /// peer `i` was up for the whole run (an empty slice means everyone
    /// participated — the no-churn fast path used by
    /// [`MetricAccumulator::push_run`]).
    ///
    /// Only pairs whose *both* endpoints participated contribute: their
    /// fragments join the sums and their observation count increments.
    /// Truncated pairs contribute neither, so Eq. (2) averages each edge
    /// over exactly the runs that measured it cleanly.
    pub fn push_run_partial(&mut self, m: &FragmentMatrix, participated: &[bool]) {
        assert_eq!(m.len(), self.n, "matrix size mismatch");
        assert!(
            participated.is_empty() || participated.len() == self.n,
            "participation mask size mismatch"
        );
        let full = participated.is_empty() || participated.iter().all(|&p| p);
        if full {
            self.full_runs += 1;
        } else {
            // Index of this run among the partial runs.
            let r = (self.iterations - self.full_runs) as usize;
            if r.is_multiple_of(64) {
                self.sig.resize(self.sig.len() + self.n, 0);
            }
            let bit = 1u64 << (r % 64);
            let col = &mut self.sig[(r / 64) * self.n..];
            let mut k = 0u64;
            for (word, _) in col.iter_mut().zip(participated).filter(|&(_, &p)| p) {
                *word |= bit;
                k += 1;
            }
            self.partial_pair_obs += k * k.saturating_sub(1) / 2;
        }
        // Fold the run's sparse support: symmetrize the directed keys into
        // unordered pair keys, then walk them sorted — O(nnz log nnz), never
        // the n²/2 pair scan. Sorted pair keys are lexicographic (a, b)
        // order, the registry's order, so one merge walk folds them in.
        let n = self.n as u64;
        let mut pairs: Vec<u64> = m
            .keys
            .iter()
            .map(|&k| {
                let (src, dst) = (k / n, k % n);
                let (lo, hi) = if src < dst { (src, dst) } else { (dst, src) };
                lo * n + hi
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        // Pairs already registered gain their run sum in place; new ones
        // are collected and merged in below. Every pair gets one addition
        // per observed run, in run order, so each sum is bit-identical to
        // a dense per-pair fold.
        let mut fresh: Vec<((u32, u32), f64)> = Vec::new();
        let mut i = 0;
        for key in pairs {
            let (a, b) = ((key / n) as usize, (key % n) as usize);
            if !(full || (participated[a] && participated[b])) {
                continue;
            }
            let e = m.edge(a, b);
            debug_assert!(e > 0, "support keys always carry fragments");
            let pair = (a as u32, b as u32);
            while i < self.nonzero.len() && self.nonzero[i] < pair {
                i += 1;
            }
            if self.nonzero.get(i) == Some(&pair) {
                self.sums[i] += e as f64;
            } else {
                fresh.push((pair, e as f64));
            }
        }
        if !fresh.is_empty() {
            // Merge two sorted pair lists (disjoint by construction).
            let old_pairs = std::mem::take(&mut self.nonzero);
            let old_sums = std::mem::take(&mut self.sums);
            let len = old_pairs.len() + fresh.len();
            self.nonzero = Vec::with_capacity(len);
            self.sums = Vec::with_capacity(len);
            let mut old = old_pairs.into_iter().zip(old_sums).peekable();
            for (pair, e) in fresh {
                while let Some((p, s)) = old.next_if(|&(p, _)| p < pair) {
                    self.nonzero.push(p);
                    self.sums.push(s);
                }
                self.nonzero.push(pair);
                self.sums.push(e);
            }
            for (p, s) in old {
                self.nonzero.push(p);
                self.sums.push(s);
            }
        }
        self.iterations += 1;
    }

    /// Number of edges with nonzero accumulated mass.
    pub fn num_nonzero_edges(&self) -> usize {
        self.nonzero.len()
    }

    /// Number of runs in which pair `(a, b)` was fully observed (both
    /// endpoints up for the whole broadcast).
    pub fn observations(&self, a: usize, b: usize) -> u32 {
        self.full_runs + self.partial_obs(a, b)
    }

    /// Number of unordered pairs never fully observed in any run — the
    /// blind spots a churned campaign leaves in the measurement graph.
    ///
    /// Zero without scanning whenever one run observed everyone. Otherwise
    /// hosts with the same participation signature (w = ⌈partial runs / 64⌉
    /// words) are counted as one group. A pair is unobserved exactly when
    /// its two signatures share no run, so the count is Σ cᵢ·cⱼ over
    /// disjoint groups plus c(c − 1)/2 for the all-zero group. Groups are
    /// ordered by how many runs they joined, and two groups whose counts
    /// sum past the partial runs must share one, so only the pairs below
    /// that sum are compared: O(n · w · log n) plus w per compared pair.
    /// Under light churn every host joins most runs and almost no pair is
    /// compared; at worst all G² / 2 group pairs are.
    pub fn pairs_unobserved(&self) -> usize {
        if self.iterations == 0 || self.full_runs > 0 {
            return 0;
        }
        let (n, w) = (self.n, self.sig.len() / self.n.max(1));
        let rows: Vec<u64> =
            (0..n).flat_map(|h| (0..w).map(move |k| self.sig[k * n + h])).collect();
        let mut sigs: Vec<(u32, &[u64])> =
            rows.chunks_exact(w).map(|s| (s.iter().map(|x| x.count_ones()).sum(), s)).collect();
        sigs.sort_unstable();
        let mut groups: Vec<(u32, &[u64], usize)> = Vec::new();
        for (runs, s) in sigs {
            match groups.last_mut() {
                Some((_, g, c)) if *g == s => *c += 1,
                _ => groups.push((runs, s, 1)),
            }
        }
        let mut unobserved = 0;
        for (i, &(ri, gi, ci)) in groups.iter().enumerate() {
            if ri == 0 {
                unobserved += ci * (ci - 1) / 2;
            }
            // No run was full, so `iterations` counts the partial runs.
            let candidates =
                groups[i + 1..].iter().take_while(|&&(rj, _, _)| ri + rj <= self.iterations);
            for &(_, gj, cj) in candidates {
                if gi.iter().zip(gj).all(|(&x, &y)| x & y == 0) {
                    unobserved += ci * cj;
                }
            }
        }
        unobserved
    }

    /// Mean per-pair observation fraction (`obs / iterations`, averaged
    /// over all pairs): 1.0 before any run and for a churn-free
    /// campaign, lower as failures truncate more pair measurements.
    pub fn pair_coverage(&self) -> f64 {
        let pairs = (self.n * self.n.saturating_sub(1) / 2) as u64;
        if self.iterations == 0 || pairs == 0 {
            return 1.0;
        }
        let total = self.partial_pair_obs + u64::from(self.full_runs) * pairs;
        total as f64 / (pairs as f64 * self.iterations as f64)
    }

    /// Eq. (2): the averaged metric `w(e)` for edge `(a, b)` — the pair's
    /// accumulated fragments over *its own* observation count (confidence
    /// weighting; equal to the global iteration count without churn).
    pub fn w(&self, a: usize, b: usize) -> f64 {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        match self.nonzero.binary_search(&(lo as u32, hi as u32)) {
            Ok(i) => self.sums[i] / f64::from(self.observations(lo, hi)),
            Err(_) => 0.0,
        }
    }

    /// All edges with nonzero metric as `(a, b, w)` triples, sorted with
    /// `a < b`.
    ///
    /// This is the weighted measurement graph handed to the clustering
    /// phase. Costs O(nnz) via the sorted nonzero registry — at 1000+ hosts
    /// the dense pair scan this replaces dominated the whole inference
    /// phase.
    pub fn edges(&self) -> Vec<(u32, u32, f64)> {
        if self.iterations == 0 {
            return Vec::new();
        }
        // Divide per edge by its own observation count (not multiply by a
        // reciprocal): bit-identical to the historical dense scan on
        // churn-free campaigns, where every pair's count equals the
        // iteration count.
        self.nonzero
            .iter()
            .zip(&self.sums)
            .map(|(&(a, b), &s)| (a, b, s / f64::from(self.observations(a as usize, b as usize))))
            .collect()
    }
}

/// A sliding-window variant of [`MetricAccumulator`] for networks whose
/// topology changes over time.
///
/// The paper's conclusion (§V) singles out overlay/virtualized networks
/// "which may have a dynamically altering underlying topology" as a target.
/// Averaging over *all* history (Eq. 2) then mixes pre- and post-change
/// measurements; keeping only the last `window` iterations lets the metric
/// track the current topology.
#[derive(Debug, Clone)]
pub struct WindowedMetric {
    n: usize,
    window: usize,
    matrices: std::collections::VecDeque<FragmentMatrix>,
}

impl WindowedMetric {
    /// A sliding window over the last `window` iterations for `n` peers.
    pub fn new(n: usize, window: usize) -> Self {
        assert!(window >= 1);
        WindowedMetric { n, window, matrices: std::collections::VecDeque::new() }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when tracking zero peers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterations currently inside the window.
    pub fn occupancy(&self) -> usize {
        self.matrices.len()
    }

    /// Pushes one broadcast's counts, evicting the oldest beyond the window.
    pub fn push(&mut self, m: &FragmentMatrix) {
        assert_eq!(m.len(), self.n, "matrix size mismatch");
        if self.matrices.len() == self.window {
            self.matrices.pop_front();
        }
        self.matrices.push_back(m.clone());
    }

    /// The Eq. (2) metric over the window's iterations only.
    pub fn snapshot(&self) -> MetricAccumulator {
        let mut acc = MetricAccumulator::new(self.n);
        for m in &self.matrices {
            acc.push_run(m);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An all-pairs scan, kept as the oracle of `pairs_unobserved`.
    fn pairs_unobserved_reference(acc: &MetricAccumulator) -> usize {
        if acc.iterations == 0 || acc.full_runs > 0 {
            return 0;
        }
        (0..acc.n).map(|a| ((a + 1)..acc.n).filter(|&b| acc.partial_obs(a, b) == 0).count()).sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Counting pairs by signature group equals the pair scan after
        /// every run. Up to 150 partial runs span three signature words;
        /// some hosts never participate; `full_at` optionally makes one run
        /// full, which takes the early return from then on.
        #[test]
        fn pairs_unobserved_matches_the_pair_scan(
            n in 1usize..48,
            runs in 1usize..151,
            up_per_mille in 20u64..950,
            never_per_mille in 0u64..300,
            full_at in 0usize..300,
            seed in any::<u64>(),
        ) {
            let mut x = seed;
            let mut next = move || {
                x = btt_netsim::util::splitmix64(x);
                x
            };
            let never: Vec<bool> = (0..n).map(|_| next() % 1000 < never_per_mille).collect();
            let mut acc = MetricAccumulator::new(n);
            let m = FragmentMatrix::new(n);
            for r in 0..runs {
                let mask: Vec<bool> = if r == full_at {
                    vec![true; n]
                } else {
                    let mut mask: Vec<bool> =
                        (0..n).map(|h| !never[h] && next() % 1000 < up_per_mille).collect();
                    mask[r % n] = false;
                    mask
                };
                acc.push_run_partial(&m, &mask);
                prop_assert_eq!(acc.pairs_unobserved(), pairs_unobserved_reference(&acc), "run {}", r);
            }
        }
    }

    #[test]
    fn pairs_unobserved_on_one_and_two_hosts() {
        let m1 = FragmentMatrix::new(1);
        let mut one = MetricAccumulator::new(1);
        one.push_run_partial(&m1, &[false]);
        assert_eq!(one.pairs_unobserved(), 0, "one host has no pairs");

        let m2 = FragmentMatrix::new(2);
        let mut two = MetricAccumulator::new(2);
        two.push_run_partial(&m2, &[true, false]);
        assert_eq!(two.pairs_unobserved(), 1);
        two.push_run_partial(&m2, &[false, true]);
        assert_eq!(two.pairs_unobserved(), 1, "never up together");
        two.push_run_partial(&m2, &[true, true]);
        assert_eq!(two.pairs_unobserved(), 0, "a full run observes the pair");
        let mut down = MetricAccumulator::new(2);
        down.push_run_partial(&m2, &[false, false]);
        assert_eq!(down.pairs_unobserved(), 1, "two silent hosts form the all-zero group");
    }

    #[test]
    fn record_and_read_back() {
        let mut m = FragmentMatrix::new(3);
        m.record(0, 1);
        m.record(0, 1);
        m.record(1, 0);
        m.record(2, 1);
        assert_eq!(m.sent(0, 1), 2);
        assert_eq!(m.sent(1, 0), 1);
        assert_eq!(m.edge(0, 1), 3);
        assert_eq!(m.edge(1, 0), 3, "edge metric is symmetric");
        assert_eq!(m.received_by(1), 3);
        assert_eq!(m.sent_by(0), 2);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn accumulator_averages_eq2() {
        let mut acc = MetricAccumulator::new(3);
        let mut m1 = FragmentMatrix::new(3);
        m1.record(0, 1); // edge(0,1) = 1
        let mut m2 = FragmentMatrix::new(3);
        for _ in 0..3 {
            m2.record(1, 0); // edge(0,1) = 3
        }
        acc.push_run(&m1);
        acc.push_run(&m2);
        assert_eq!(acc.iterations(), 2);
        assert!((acc.w(0, 1) - 2.0).abs() < 1e-12);
        assert!((acc.w(1, 0) - 2.0).abs() < 1e-12);
        assert_eq!(acc.w(0, 2), 0.0);
    }

    #[test]
    fn edges_lists_nonzero_only() {
        let mut acc = MetricAccumulator::new(4);
        let mut m = FragmentMatrix::new(4);
        m.record(2, 3);
        m.record(0, 1);
        acc.push_run(&m);
        let edges = acc.edges();
        assert_eq!(edges, vec![(0, 1, 1.0), (2, 3, 1.0)]);
    }

    #[test]
    fn observations_cross_the_signature_word_boundary() {
        // 70 partial runs span two signature words. Host 2 sits out every
        // third run, host 3 every run past the 64th.
        let mut acc = MetricAccumulator::new(4);
        let m = FragmentMatrix::new(4);
        for r in 0..70 {
            acc.push_run_partial(&m, &[true, true, r % 3 != 0, r < 64]);
        }
        assert_eq!(acc.observations(0, 1), 70);
        assert_eq!(acc.observations(1, 0), 70);
        assert_eq!(acc.observations(0, 2), 46);
        assert_eq!(acc.observations(0, 3), 64);
        assert_eq!(acc.observations(2, 3), 42);
        assert_eq!(acc.pairs_unobserved(), 0);
        let total = 70 + 46 + 64 + 46 + 64 + 42;
        assert_eq!(acc.pair_coverage(), total as f64 / (6.0 * 70.0));
    }

    #[test]
    fn streaming_edges_match_dense_recompute() {
        // Pushing runs one at a time and snapshotting must equal the dense
        // O(n²) enumeration at every prefix.
        let n = 7;
        let mut acc = MetricAccumulator::new(n);
        for r in 0..5u64 {
            let mut m = FragmentMatrix::new(n);
            // A deterministic pseudo-random sparse pattern per run.
            for a in 0..n {
                for b in 0..n {
                    if a != b && (a as u64 * 31 + b as u64 * 17 + r * 7).is_multiple_of(5) {
                        m.record(a, b);
                    }
                }
            }
            acc.push_run(&m);
            // Dense reference: every pair with w > 0, in (a, b) order.
            let mut dense = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    let w = acc.w(a, b);
                    if w > 0.0 {
                        dense.push((a as u32, b as u32, w));
                    }
                }
            }
            assert_eq!(acc.edges(), dense, "prefix {}", r + 1);
            assert_eq!(acc.num_nonzero_edges(), dense.len());
        }
    }

    #[test]
    fn nonzero_registry_stays_sorted_and_deduplicated() {
        let mut acc = MetricAccumulator::new(5);
        // Run 1 touches (2,3); run 2 touches (0,1) and (2,3) again.
        let mut m1 = FragmentMatrix::new(5);
        m1.record(3, 2);
        let mut m2 = FragmentMatrix::new(5);
        m2.record(0, 1);
        m2.record(2, 3);
        acc.push_run(&m1);
        acc.push_run(&m2);
        let edges = acc.edges();
        assert_eq!(edges.len(), 2);
        assert_eq!((edges[0].0, edges[0].1), (0, 1), "sorted output");
        assert_eq!((edges[1].0, edges[1].1), (2, 3), "no duplicate for re-touched edge");
        assert!((edges[0].2 - 0.5).abs() < 1e-12);
        assert!((edges[1].2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_runs_weigh_edges_by_observation_count() {
        let mut acc = MetricAccumulator::new(3);
        // Run 1: everyone up; edge(0,1) = 4, edge(1,2) = 2.
        let mut m1 = FragmentMatrix::new(3);
        for _ in 0..4 {
            m1.record(0, 1);
        }
        m1.record(1, 2);
        m1.record(2, 1);
        acc.push_run_partial(&m1, &[true, true, true]);
        // Run 2: host 2 crashed mid-run; its (truncated) fragments must not
        // dilute pairs involving it.
        let mut m2 = FragmentMatrix::new(3);
        for _ in 0..2 {
            m2.record(0, 1);
        }
        m2.record(1, 2); // truncated measurement: ignored
        acc.push_run_partial(&m2, &[true, true, false]);
        assert_eq!(acc.iterations(), 2);
        assert_eq!(acc.observations(0, 1), 2);
        assert_eq!(acc.observations(1, 2), 1);
        assert_eq!(acc.observations(0, 2), 1);
        // (0,1): both runs observed -> (4 + 2) / 2.
        assert!((acc.w(0, 1) - 3.0).abs() < 1e-12);
        // (1,2): only run 1 observed -> 2 / 1, NOT (2 + 1) / 2.
        assert!((acc.w(1, 2) - 2.0).abs() < 1e-12);
        assert_eq!(acc.pairs_unobserved(), 0);
        // Coverage: (2 + 1 + 1) / (3 pairs x 2 runs).
        assert!((acc.pair_coverage() - 4.0 / 6.0).abs() < 1e-12);
        // Edges list uses per-edge observation counts too.
        let edges = acc.edges();
        assert_eq!(edges, vec![(0, 1, 3.0), (1, 2, 2.0)]);
    }

    #[test]
    fn never_observed_pairs_are_counted() {
        let mut acc = MetricAccumulator::new(3);
        let m = FragmentMatrix::new(3);
        acc.push_run_partial(&m, &[true, true, false]);
        acc.push_run_partial(&m, &[true, true, false]);
        assert_eq!(acc.pairs_unobserved(), 2, "(0,2) and (1,2) never observed");
        assert_eq!(acc.w(0, 2), 0.0);
        // A fresh accumulator reports no blind spots (nothing measured yet).
        assert_eq!(MetricAccumulator::new(3).pairs_unobserved(), 0);
        assert_eq!(MetricAccumulator::new(3).pair_coverage(), 1.0);
    }

    #[test]
    fn full_participation_is_bit_identical_to_push_run() {
        let n = 5;
        let mut m = FragmentMatrix::new(n);
        m.record(0, 1);
        m.record(3, 2);
        m.record(1, 4);
        let mut plain = MetricAccumulator::new(n);
        let mut masked = MetricAccumulator::new(n);
        for _ in 0..3 {
            plain.push_run(&m);
            masked.push_run_partial(&m, &[true; 5]);
        }
        assert_eq!(plain, masked);
        for (a, b, w) in plain.edges() {
            let wm = masked.w(a as usize, b as usize);
            assert_eq!(w.to_bits(), wm.to_bits());
        }
    }

    #[test]
    fn empty_accumulator_has_no_edges() {
        let acc = MetricAccumulator::new(4);
        assert!(acc.edges().is_empty());
        assert_eq!(acc.num_nonzero_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let mut acc = MetricAccumulator::new(3);
        acc.push_run(&FragmentMatrix::new(4));
    }

    #[test]
    fn windowed_metric_evicts_old_iterations() {
        let mut w = WindowedMetric::new(2, 3);
        // Three runs with edge(0,1) = 10, then three with edge(0,1) = 2.
        let mk = |k: usize| {
            let mut m = FragmentMatrix::new(2);
            for _ in 0..k {
                m.record(0, 1);
            }
            m
        };
        for _ in 0..3 {
            w.push(&mk(10));
        }
        assert_eq!(w.occupancy(), 3);
        assert!((w.snapshot().w(0, 1) - 10.0).abs() < 1e-12);
        for _ in 0..3 {
            w.push(&mk(2));
        }
        assert_eq!(w.occupancy(), 3, "window stays bounded");
        assert!(
            (w.snapshot().w(0, 1) - 2.0).abs() < 1e-12,
            "old topology's measurements fully evicted"
        );
    }

    #[test]
    fn windowed_partial_fill() {
        let mut w = WindowedMetric::new(3, 5);
        let mut m = FragmentMatrix::new(3);
        m.record(1, 2);
        w.push(&m);
        let snap = w.snapshot();
        assert_eq!(snap.iterations(), 1);
        assert!((snap.w(1, 2) - 1.0).abs() < 1e-12);
    }
}
