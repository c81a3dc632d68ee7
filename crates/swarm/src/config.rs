//! Swarm configuration.
//!
//! The client's protocol is held fixed, as in the paper's measurements
//! (§II) and the classic BitTorrent client it instrumented: 16 KiB
//! fragments ([`FRAGMENT_BYTES`]), at most 35 connected peers, 4 parallel
//! uploads (3 reciprocal + 1 optimistic), a 10 s rechoke with optimistic
//! rotation every 30 s. Those values, and the engine's own pacing, are the
//! constants of this module. [`SwarmConfig`] carries only what a caller
//! varies per broadcast: the file size, the piece-selection policy, the
//! endgame threshold, the drive mode and the safety cap on simulated time.

use btt_netsim::units::FRAGMENT_BYTES;
use serde::{Deserialize, Serialize};

/// Most peers the tracker connects one client to (paper §II-C: 35).
pub const MAX_PEERS: usize = 35;

/// Parallel uploads per client (paper §II: 4).
pub const UPLOAD_SLOTS: usize = 4;

/// Reciprocal (tit-for-tat) upload slots; the other
/// `UPLOAD_SLOTS - REGULAR_SLOTS` are optimistic (paper §II: 3 + 1).
pub const REGULAR_SLOTS: usize = 3;

/// Seconds between choking-algorithm runs (paper §II: 10 s).
pub const RECHOKE_INTERVAL: f64 = 10.0;

/// Seconds between optimistic-unchoke rotations (paper §II: 30 s).
pub const OPTIMISTIC_INTERVAL: f64 = 30.0;

/// Rolling window of the transfer-rate estimates tit-for-tat ranks
/// neighbours by, in seconds (the stock client's 20 s rate period).
pub const RATE_WINDOW: f64 = 20.0;

/// Peers pick random (not rarest) pieces until they hold this many (the
/// stock client's random-first cutoff of 4).
pub const RANDOM_FIRST_PIECES: u32 = 4;

/// The engine's step, in seconds: the pacing cap of
/// [`DriveMode::FixedStep`] slices and [`Swarm::step`](crate::swarm::Swarm::step).
/// In both drive modes it is also the fairness re-solve quantum (flow
/// churn is batched and rates re-solved at most once per step) and the
/// service batch (one delivery mark on a fast stream covers up to a step's
/// bytes). 50 ms is the service quantum of the fixed-step engine that the
/// event-driven one replaced.
pub const STEP: f64 = 0.05;

/// How long a transfer stream survives after its uploader runs out of
/// fresh pieces, in seconds' worth of bytes at the stream's current rate.
/// Bytes delivered while idling model request pipelining / read-ahead:
/// they complete future pieces instantly when the uploader announces them.
/// This is the one-step grace the fixed-step engine applied through its
/// 50 ms service quantum, and it keeps fast same-bottleneck pairs from
/// tearing their streams down at every catch-up (which would churn the
/// fairness solver per fragment).
pub const IDLE_GRACE: f64 = 0.05;

const _: () = assert!(REGULAR_SLOTS <= UPLOAD_SLOTS, "regular slots cannot exceed total slots");

/// How a [`Swarm`](crate::swarm::Swarm) run advances simulated time.
///
/// Protocol actions happen at the same instants in both modes — fragment
/// completions fire as engine delivery-mark events at exact fluid times and
/// rechokes fire as scheduled timers — so both produce **bit-identical**
/// results per seed. They differ only in pacing:
///
/// * `EventDriven` jumps the clock straight from event to event (the fast
///   path, and the default);
/// * `FixedStep` caps every advance at [`STEP`] seconds. It is the
///   reference pacing the engine-equivalence tests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriveMode {
    /// Jump from completion to completion (default).
    EventDriven,
    /// Advance at most [`STEP`] per slice.
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

/// What a caller chooses for one simulated BitTorrent broadcast; the
/// protocol itself is the constants of [`crate::config`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwarmConfig {
    /// Number of [`FRAGMENT_BYTES`] fragments in the file. 15 259 ⇒ the
    /// paper's 239 MB file.
    pub num_pieces: u32,
    /// How runs advance time (see [`DriveMode`]).
    pub drive: DriveMode,
    /// Below this many missing pieces a downloader enters endgame mode and
    /// may request the same piece from several peers.
    pub endgame_pieces: u32,
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
        FRAGMENT_BYTES * self.num_pieces as f64
    }

    /// Panics if the configuration is inconsistent (setup-time programming
    /// errors, not runtime conditions).
    pub fn validate(&self) {
        assert!(self.num_pieces > 0, "need at least one piece");
        assert!(self.max_sim_time > STEP, "the time cap must exceed one step");
        if let SelectionPolicy::SampledRarest { sample } = self.selection {
            assert!(sample >= 1, "sample size must be at least 1");
        }
    }
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            num_pieces: 1024,
            drive: DriveMode::EventDriven,
            endgame_pieces: 20,
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
        assert_eq!(FRAGMENT_BYTES, 16_384.0);
        // §II-A: "exactly 15259 fragments of 16384 bytes" ≈ 239 MB.
        let mb = c.file_bytes() / (1024.0 * 1024.0);
        assert!((mb - 238.4).abs() < 0.2, "{mb} MB");
        assert_eq!(MAX_PEERS, 35);
        assert_eq!(UPLOAD_SLOTS, 4);
        c.validate();
    }

    #[test]
    fn small_keeps_protocol_constants() {
        let c = SwarmConfig::small(64);
        let d = SwarmConfig::default();
        assert_eq!(c.num_pieces, 64);
        assert_eq!(c.drive, d.drive);
        assert_eq!(c.endgame_pieces, d.endgame_pieces);
        assert_eq!(c.selection, d.selection);
        assert_eq!(c.max_sim_time, d.max_sim_time);
        c.validate();
    }
}
