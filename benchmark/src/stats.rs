//! The harness's own arithmetic: medians, percentiles, the reportable
//! tail, geometric mean.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// hundredths of a percent so that 99.9 % of 10 000 is exactly 9 990.
fn rank(n: usize, p: f64) -> usize {
    ((p * 100.0).round() as usize * n)
        .div_ceil(10_000)
        .clamp(1, n)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest candidate percentile that still has at least ten samples
/// beyond it, with its value; `None` below 40 samples (even p75 would
/// rest on fewer than ten).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .find(|&&p| sorted.len() - rank(sorted.len(), p) >= 10)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let n = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&n(39)), None);
        assert_eq!(tail(&n(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&n(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&n(999)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&n(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&n(10_000)).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&n(100_000)), Some((99.99, 99_989.0)));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.05]) - 1.05).abs() < 1e-12);
    }
}
