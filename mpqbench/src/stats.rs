//! Order statistics with the benchmark's reporting rules.

/// The fewest samples that must lie beyond a tail percentile before it is
/// reported: with fewer, the value is one or two outliers, not a tail.
pub const MIN_BEYOND_TAIL: usize = 10;

/// `values` sorted ascending (NaNs are not expected and sort last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// The nearest-rank `pct`-th percentile of `sorted` (ascending): the
/// smallest sample with at least `pct` percent of the samples at or below
/// it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    let rank = rank_of(sorted.len(), pct)?;
    Some(sorted[rank - 1])
}

/// [`percentile`] under the tail rule: reported only when at least
/// [`MIN_BEYOND_TAIL`] samples lie beyond its rank, so a p99 needs 1000
/// samples.
pub fn tail_percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    let rank = rank_of(sorted.len(), pct)?;
    (sorted.len() - rank >= MIN_BEYOND_TAIL).then(|| sorted[rank - 1])
}

/// 1-based nearest rank, `ceil(pct · n / 100)` in integers (so `pct = 99`
/// of 1000 is exactly rank 990), clamped to at least 1.
fn rank_of(n: usize, pct: usize) -> Option<usize> {
    (n > 0).then(|| ((pct * n).div_ceil(100)).clamp(1, n))
}

/// The median: the middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// `num / den`, `None` when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(&ramp(999), 99), None);
        // 1000 samples: rank 990, samples 991..=1000 lie beyond it.
        assert_eq!(tail_percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(tail_percentile(&ramp(2000), 99), Some(1980.0));
        // The plain percentile has no such rule.
        assert_eq!(percentile(&ramp(10), 99), Some(10.0));
        assert_eq!(tail_percentile(&ramp(10), 99), None);
        // p50 of 30 samples has 15 beyond it.
        assert_eq!(tail_percentile(&ramp(30), 50), Some(15.0));
        assert_eq!(tail_percentile(&[], 50), None);
    }

    #[test]
    fn nearest_rank_and_median() {
        assert_eq!(percentile(&ramp(4), 50), Some(2.0));
        assert_eq!(percentile(&ramp(4), 0), Some(1.0));
        assert_eq!(percentile(&ramp(4), 100), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(ratio(1.0, 0.0), None);
    }
}
