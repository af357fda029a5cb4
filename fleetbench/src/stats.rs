//! Order statistics for the benchmark's reports.

/// Fewest samples a reported tail percentile must leave beyond it.
pub const TAIL_MARGIN: usize = 10;

/// Sorts `values` (which must hold no NaN) ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// 1-based nearest rank of quantile `q` among `n > 0` samples: the
/// smallest rank with at least a `q` share of samples at or below it.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` from rounding up to rank 991.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` in `[0, 1]` of ascending `sorted`; zero for
/// no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Median of `values`; zero for none.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Mean of `values`; zero for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The rank a tail metric reports among `n > 0` samples: that of
/// `target` if at least [`TAIL_MARGIN`] samples lie beyond it, else the
/// highest rank that still leaves that many beyond it. With too few
/// samples for a tail above the median, the median's rank.
pub fn tail_rank(n: usize, target: f64) -> usize {
    let median = rank(n, 0.5);
    if n < TAIL_MARGIN + median {
        return median;
    }
    rank(n, target).min(n - TAIL_MARGIN).max(median)
}

/// A tail percentile of ascending `sorted` under the ten-beyond rule:
/// `(percentile actually used, value)`; `(0, 0)` for no samples.
pub fn tail(sorted: &[f64], target: f64) -> (f64, f64) {
    if sorted.is_empty() {
        return (0.0, 0.0);
    }
    let r = tail_rank(sorted.len(), target);
    (r as f64 / sorted.len() as f64, sorted[r - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(100);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&ramp(1000), 0.99), 990.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly ten beyond it.
        assert_eq!(tail(&ramp(1000), 0.99), (0.99, 990.0));
        // 100 samples: p99 would leave one, so p90 is the highest with ten.
        assert_eq!(tail(&ramp(100), 0.99), (0.90, 90.0));
        // 500 samples: p98.
        assert_eq!(tail(&ramp(500), 0.99), (0.98, 490.0));
        // Too few samples for a tail above the median: the median.
        assert_eq!(tail(&ramp(12), 0.99), (0.5, 6.0));
        assert_eq!(tail(&[], 0.99), (0.0, 0.0));
    }

    #[test]
    fn every_chosen_tail_leaves_ten_beyond_or_is_the_median() {
        for n in 1..3000 {
            let r = tail_rank(n, 0.99);
            assert!(r >= rank(n, 0.5) && r <= rank(n, 0.99), "n={n} r={r}");
            assert!(n - r >= TAIL_MARGIN || r == rank(n, 0.5), "n={n} r={r}");
        }
    }
}
