//! Physical quantities used by the simulator.
//!
//! Simulated time is kept as plain `f64` seconds ([`SimTime`]) for arithmetic
//! convenience; bandwidth gets a newtype because mixing up bits and bytes (or
//! Mb/s and MB/s) is the classic simulator calibration bug.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// Simulated time in seconds since the start of the run.
pub type SimTime = f64;

/// Number of bytes, as a float (flow progress is fluid, not packetized).
pub type Bytes = f64;

/// One kibibyte in bytes.
pub const KIB: f64 = 1024.0;
/// One mebibyte in bytes.
pub const MIB: f64 = 1024.0 * 1024.0;
/// The BitTorrent fragment (piece) size used throughout the paper: 16 KiB.
pub const FRAGMENT_BYTES: f64 = 16.0 * KIB;

/// Link or flow bandwidth, stored internally as **bytes per second**.
///
/// Constructors take the conventional networking units (decimal bits per
/// second), so `Bandwidth::from_mbps(890.0)` is the paper's measured 1 GbE
/// goodput.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// From raw bytes per second.
    #[inline]
    pub fn from_bytes_per_sec(b: f64) -> Self {
        assert!(b.is_finite() && b >= 0.0, "bandwidth must be finite and non-negative");
        Bandwidth(b)
    }

    /// From decimal megabits per second (1 Mb/s = 125 000 B/s).
    #[inline]
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_bytes_per_sec(mbps * 1e6 / 8.0)
    }

    /// From decimal gigabits per second.
    #[inline]
    pub fn from_gbps(gbps: f64) -> Self {
        Self::from_mbps(gbps * 1000.0)
    }

    /// Bytes transferred per second at this rate.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Decimal megabits per second (the unit the paper reports).
    #[inline]
    pub fn mbps(self) -> f64 {
        self.0 * 8.0 / 1e6
    }

    /// Smaller of two bandwidths.
    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} Mb/s", self.mbps())
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_round_trip() {
        let b = Bandwidth::from_mbps(890.0);
        assert!((b.mbps() - 890.0).abs() < 1e-9);
        assert!((b.bytes_per_sec() - 111_250_000.0).abs() < 1e-6);
    }

    #[test]
    fn gbps_is_1000_mbps() {
        assert_eq!(
            Bandwidth::from_gbps(10.0).bytes_per_sec(),
            Bandwidth::from_mbps(10_000.0).bytes_per_sec()
        );
    }

    #[test]
    fn arithmetic() {
        let a = Bandwidth::from_bytes_per_sec(10.0);
        let b = Bandwidth::from_bytes_per_sec(4.0);
        assert_eq!((a + b).bytes_per_sec(), 14.0);
        assert_eq!((a - b).bytes_per_sec(), 6.0);
        // Saturating subtraction: bandwidth never goes negative.
        assert_eq!((b - a).bytes_per_sec(), 0.0);
        assert_eq!((a * 2.0).bytes_per_sec(), 20.0);
        assert_eq!((a / 2.0).bytes_per_sec(), 5.0);
        assert_eq!(a.min(b).bytes_per_sec(), 4.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be finite")]
    fn rejects_negative() {
        let _ = Bandwidth::from_bytes_per_sec(-1.0);
    }

    #[test]
    fn fragment_constant_matches_paper() {
        // The paper: fragments of 16384 bytes; 15259 of them make the 239 MB file.
        assert_eq!(FRAGMENT_BYTES, 16384.0);
        let file = 15259.0 * FRAGMENT_BYTES;
        assert!((file / MIB - 238.4).abs() < 0.1, "239 MB file as reported");
    }
}
