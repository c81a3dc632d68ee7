//! Swarm configuration.
//!
//! Defaults follow the paper (§II) and the classic BitTorrent client it
//! instrumented: 16 KiB fragments, a 239 MB file (15 259 fragments), at most
//! 35 connected peers, 4 parallel uploads (3 reciprocal + 1 optimistic),
//! 10 s rechoke with optimistic rotation every 30 s.

use btt_netsim::units::FRAGMENT_BYTES;
use serde::{Deserialize, Serialize};

/// How a [`Swarm`](crate::swarm::Swarm) run advances simulated time.
///
/// Protocol actions happen at the same instants in both modes — fragment
/// completions fire as engine delivery-mark events at exact fluid times and
/// rechokes fire as scheduled timers — so both produce **bit-identical**
/// results per seed. They differ only in pacing:
///
/// * `EventDriven` jumps the clock straight from event to event (the fast
///   path, and the default);
/// * `FixedStep` caps every advance at [`SwarmConfig::step`] seconds, which
///   is required when an external per-step hook injects traffic
///   ([`Swarm::run_with`](crate::swarm::Swarm::run_with) forces it) and is
///   what the engine-equivalence tests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriveMode {
    /// Jump from completion to completion (default).
    EventDriven,
    /// Advance at most [`SwarmConfig::step`] per slice.
    FixedStep,
}

/// Piece-selection policy used by downloaders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// Rarest-of-a-random-sample: approximates exact rarest-first at O(sample)
    /// per pick (DESIGN.md §2). The protocol's standard behaviour here.
    SampledRarest {
        /// How many random useful candidates to compare.
        sample: u16,
    },
    /// Uniformly random useful piece (ablation).
    Random,
    /// Exact global rarest-first, O(pieces) per pick (ablation).
    ExactRarest,
}

/// Full configuration of a simulated BitTorrent broadcast.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwarmConfig {
    /// Fragment (piece) size in bytes. The paper's clients use 16 KiB.
    pub piece_bytes: f64,
    /// Number of fragments in the file. 15 259 ⇒ the paper's 239 MB file.
    pub num_pieces: u32,
    /// Maximum number of connected peers per client (paper: 35).
    pub max_peers: usize,
    /// Total parallel uploads per client (paper: 4).
    pub upload_slots: usize,
    /// Reciprocal (tit-for-tat) upload slots; the remainder up to
    /// `upload_slots` is optimistic.
    pub regular_slots: usize,
    /// Seconds between choking algorithm runs.
    pub rechoke_interval: f64,
    /// Seconds between optimistic-unchoke rotations.
    pub optimistic_interval: f64,
    /// Rolling window for transfer-rate estimation (seconds).
    pub rate_window: f64,
    /// Pacing cap for [`DriveMode::FixedStep`] (seconds). Protocol actions
    /// are event-timed in both modes; this bounds how far a single
    /// fixed-step slice may advance (e.g. between traffic-hook invocations).
    /// In both modes it is also the fairness re-solve quantum: flow churn
    /// is batched and rates re-solved at most once per `step`.
    pub step: f64,
    /// How runs advance time (see [`DriveMode`]).
    pub drive: DriveMode,
    /// How long a transfer stream survives after its uploader runs out of
    /// fresh pieces (seconds' worth of bytes at the stream's current rate).
    /// Bytes delivered while idling model request pipelining / read-ahead:
    /// they complete future pieces instantly when the uploader announces
    /// them. This replaces the implicit one-step grace the pre-event-driven
    /// engine applied via its 50 ms service quantum, and keeps fast
    /// same-bottleneck pairs from tearing their streams down at every
    /// catch-up (which would churn the fairness solver per fragment).
    pub idle_grace: f64,
    /// Below this many missing pieces a downloader enters endgame mode and
    /// may request the same piece from several peers.
    pub endgame_pieces: u32,
    /// Peers pick random (not rarest) pieces until they hold this many.
    pub random_first_pieces: u32,
    /// Selection policy.
    pub selection: SelectionPolicy,
    /// Hard wall on simulated seconds per broadcast (safety net).
    pub max_sim_time: f64,
}

impl SwarmConfig {
    /// The paper's measurement configuration: 239 MB file in 15 259 × 16 KiB
    /// fragments.
    pub fn paper() -> Self {
        SwarmConfig { num_pieces: 15_259, ..Self::default() }
    }

    /// A reduced-size configuration for fast tests: same protocol constants,
    /// smaller file.
    pub fn small(num_pieces: u32) -> Self {
        SwarmConfig { num_pieces, ..Self::default() }
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> f64 {
        self.piece_bytes * self.num_pieces as f64
    }

    /// Panics if the configuration is inconsistent (setup-time programming
    /// errors, not runtime conditions).
    pub fn validate(&self) {
        assert!(self.piece_bytes > 0.0, "piece size must be positive");
        assert!(self.num_pieces > 0, "need at least one piece");
        assert!(self.max_peers >= 1, "peers need at least one connection");
        assert!(self.upload_slots >= 1, "need at least one upload slot");
        assert!(self.regular_slots <= self.upload_slots, "regular slots cannot exceed total slots");
        assert!(self.rechoke_interval > 0.0 && self.optimistic_interval > 0.0);
        assert!(self.step > 0.0 && self.max_sim_time > self.step);
        assert!(self.idle_grace > 0.0, "idle grace must be positive");
        if let SelectionPolicy::SampledRarest { sample } = self.selection {
            assert!(sample >= 1, "sample size must be at least 1");
        }
    }
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            piece_bytes: FRAGMENT_BYTES,
            num_pieces: 1024,
            max_peers: 35,
            upload_slots: 4,
            regular_slots: 3,
            rechoke_interval: 10.0,
            optimistic_interval: 30.0,
            rate_window: 20.0,
            step: 0.05,
            drive: DriveMode::EventDriven,
            idle_grace: 0.05,
            endgame_pieces: 20,
            random_first_pieces: 4,
            selection: SelectionPolicy::SampledRarest { sample: 16 },
            max_sim_time: 3_600.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_reported_numbers() {
        let c = SwarmConfig::paper();
        assert_eq!(c.num_pieces, 15_259);
        assert_eq!(c.piece_bytes, 16_384.0);
        // §II-A: "exactly 15259 fragments of 16384 bytes" ≈ 239 MB.
        let mb = c.file_bytes() / (1024.0 * 1024.0);
        assert!((mb - 238.4).abs() < 0.2, "{mb} MB");
        assert_eq!(c.max_peers, 35);
        assert_eq!(c.upload_slots, 4);
        c.validate();
    }

    #[test]
    fn small_keeps_protocol_constants() {
        let c = SwarmConfig::small(64);
        assert_eq!(c.num_pieces, 64);
        assert_eq!(c.max_peers, SwarmConfig::default().max_peers);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "regular slots")]
    fn validate_catches_slot_mismatch() {
        let c = SwarmConfig { regular_slots: 9, ..SwarmConfig::default() };
        c.validate();
    }
}
