//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 · n)`, so
//! exactly `n − rank` samples lie beyond it. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Fewest samples for which the 99th percentile has [`MIN_BEYOND`]
/// samples beyond it.
pub const MIN_SAMPLES_FOR_P99: usize = 1000;

/// 1-based nearest rank of percentile `p` among `n` samples (at least 1).
pub fn rank(n: usize, p: f64) -> usize {
    // Integer per-mille arithmetic: `0.99 * 1000.0` is not exactly 990.
    let per_mille = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of already sorted samples (0 when empty).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of `values` (mean of the middle pair for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of millisecond samples, as reported by per-layer metrics.
pub fn median_ms(ns: &[u64]) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    percentile_sorted(&v, 50.0) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(MIN_SAMPLES_FOR_P99, 99.0), MIN_BEYOND);
    }

    #[test]
    fn tail_percentile_is_highest_with_ten_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn every_selected_tail_has_ten_beyond() {
        for n in 0..5_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={} p={}", n, p);
                // No higher candidate qualifies.
                for &q in TAIL_CANDIDATES.iter().filter(|&&q| q > p) {
                    assert!(samples_beyond(n, q) < MIN_BEYOND, "n={} q={}", n, q);
                }
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
