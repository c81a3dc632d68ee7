//! Pure numeric helpers: medians, quartiles, nearest-rank percentiles, the
//! report fingerprint hash, and `VmHWM` parsing. Everything here is a
//! function of its arguments, so the unit tests pin it exactly.

/// Median of `values` (mean of the two middle values for even counts);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median, and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method), so spreads printed here match the ones an external check
/// computes. One value is its own quartiles; no values give `NaN`s.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`: the
/// smallest sample with at least `p` % of the samples at or below it.
pub fn nearest_rank(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), p) - 1]
}

/// One-based nearest rank of the `p`-th percentile among `n` samples, in
/// integer tenths of a percent so that e.g. p99.9 of 10 000 is exactly
/// rank 9 990 (the float product rounds up past it).
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Tail percentiles a timing may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples beyond it — the tail a timing can honestly be reported at.
/// `None` when even the 75th percentile has fewer than ten samples beyond.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n >= 10 && n - rank(n, p) >= 10)
}

/// FNV-1a, 64-bit: the fingerprint of a rendered report.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// KiB.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert!(quartiles(&[]).1.is_nan());
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 90.0), 90.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        // Nearest rank never interpolates: p50 of four is the second.
        assert_eq!(nearest_rank(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
        assert!(nearest_rank(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0)); // rank 90, ten beyond
        assert_eq!(tail_percentile(160), Some(90.0)); // rank 144, sixteen beyond
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fingerprint_is_stable() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a64(b"{\"onmi\":0.5}"), fnv1a64(b"{\"onmi\":0.50}"));
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tbtt-benchmark\nVmPeak:\t  900 kB\nVmHWM:\t   79968 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(79_968));
        assert_eq!(vm_hwm_kib("VmRSS:\t100 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t100 MB\n"), None);
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
    }
}
