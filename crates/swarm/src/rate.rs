//! Rolling transfer-rate estimation for the choking algorithm.
//!
//! Tit-for-tat ranks neighbors by recent download rate. We use the classic
//! two-bucket approximation of a sliding window: cheap, O(1) memory, and
//! smooth enough for 10-second rechoke decisions.

/// Estimates a byte rate over a sliding window.
#[derive(Debug, Clone)]
pub struct RateEstimator {
    window: f64,
    bucket_start: f64,
    current: f64,
    previous: f64,
}

impl RateEstimator {
    /// A new estimator with the given window length in seconds.
    pub fn new(window: f64) -> Self {
        assert!(window > 0.0);
        RateEstimator { window, bucket_start: 0.0, current: 0.0, previous: 0.0 }
    }

    fn roll(&mut self, now: f64) {
        let half = self.window / 2.0;
        while now - self.bucket_start >= half {
            self.previous = self.current;
            self.current = 0.0;
            self.bucket_start += half;
            // If the gap is huge, fast-forward instead of looping long.
            if now - self.bucket_start >= self.window {
                self.previous = 0.0;
                self.bucket_start = now - half;
            }
        }
    }

    /// Records `bytes` transferred at time `now`.
    pub fn add(&mut self, bytes: f64, now: f64) {
        self.roll(now);
        self.current += bytes;
    }

    /// The estimated rate in bytes/sec at time `now`.
    ///
    /// The previous half-bucket is weighted by how much of it still overlaps
    /// the window, which removes the sawtooth a plain bucket reset would show.
    pub fn rate(&mut self, now: f64) -> f64 {
        self.roll(now);
        let half = self.window / 2.0;
        let elapsed_in_current = (now - self.bucket_start).max(1e-9);
        let prev_weight = ((half - elapsed_in_current) / half).clamp(0.0, 1.0);
        let effective_window = elapsed_in_current + prev_weight * half;
        (self.current + self.previous * prev_weight) / effective_window.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stream_estimates_true_rate() {
        let mut r = RateEstimator::new(20.0);
        // 100 B every 0.1 s = 1000 B/s for 30 s.
        for i in 1..=300 {
            r.add(100.0, i as f64 * 0.1);
        }
        let est = r.rate(30.0);
        assert!((est - 1000.0).abs() / 1000.0 < 0.05, "estimate {est}");
    }

    #[test]
    fn idle_source_decays_to_zero() {
        let mut r = RateEstimator::new(10.0);
        r.add(10_000.0, 1.0);
        assert!(r.rate(1.5) > 0.0);
        // Long idle: the window has fully rolled past the burst.
        assert_eq!(r.rate(60.0), 0.0);
    }

    #[test]
    fn recent_bytes_dominate() {
        let mut slow = RateEstimator::new(10.0);
        let mut fast = RateEstimator::new(10.0);
        for i in 1..=100 {
            let t = i as f64 * 0.1;
            slow.add(50.0, t);
            fast.add(500.0, t);
        }
        assert!(fast.rate(10.0) > 5.0 * slow.rate(10.0));
    }

    #[test]
    fn rate_is_nonnegative_and_finite() {
        let mut r = RateEstimator::new(20.0);
        assert!(r.rate(0.0) >= 0.0);
        r.add(1.0, 0.0);
        for t in [0.0, 0.001, 5.0, 19.9, 20.1, 1e6] {
            let v = r.rate(t);
            assert!(v.is_finite() && v >= 0.0, "rate at {t} = {v}");
        }
    }
}
