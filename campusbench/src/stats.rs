//! Exact order statistics and guarded ratios over the benchmark's own
//! per-session samples.
//!
//! Percentiles are read off the sorted samples by nearest rank, never
//! interpolated inside a histogram bin, so two distributions that differ
//! give different percentiles.

/// Tails are reported only when at least this many samples lie beyond
/// them; below that a tail is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set, with the counts that qualify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly after the chosen rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 1) of `sorted`, which must be
/// in ascending order. `None` for an empty set.
pub fn quantile(sorted: &[f64], p: f64) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// [`quantile`] for a tail percentile: `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], p: f64) -> Option<Quantile> {
    quantile(sorted, p).filter(|q| q.beyond >= MIN_BEYOND)
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when the denominator is 0: a count that never
/// happened has no rate.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of the worker pool's capacity spent inside sessions: the sum
/// of per-session host seconds over `workers × wall` seconds.
pub fn busy_share(session_secs: f64, workers: usize, wall_secs: f64) -> f64 {
    ratio(session_secs, workers as f64 * wall_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_uniform_ramp() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = quantile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = quantile(&v, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        let p99 = quantile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(quantile(&v, 1.0).unwrap().value, 100.0);
        assert_eq!(quantile(&v, 0.0).unwrap().value, 1.0);
    }

    #[test]
    fn a_spread_distribution_gives_distinct_p50_and_p90() {
        // 1 ms body with a 10 ms tail on every tenth sample: a binned
        // estimator that cannot separate these is what this replaces.
        let raw: Vec<f64> = (0..1000)
            .map(|i| {
                if i % 10 == 9 {
                    10.0 + i as f64 * 1e-3
                } else {
                    1.0 + i as f64 * 1e-4
                }
            })
            .collect();
        let v = sorted(&raw);
        let p50 = quantile(&v, 0.5).unwrap().value;
        let p90 = quantile(&v, 0.9).unwrap().value;
        let p99 = tail(&v, 0.99).unwrap().value;
        assert!(p50 < 1.1, "p50 in the body: {p50}");
        assert!(
            (1.0..1.1).contains(&p90),
            "p90 is the body's last sample: {p90}"
        );
        assert!(p99 > 10.0, "p99 in the tail: {p99}");
        assert!(p50 < p90 && p90 < p99);
    }

    #[test]
    fn a_constant_distribution_has_equal_percentiles() {
        let v = vec![3.5; 40];
        assert_eq!(quantile(&v, 0.5).unwrap().value, 3.5);
        assert_eq!(tail(&v, 0.5).unwrap().value, 3.5);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail(&v, 0.99).is_none(), "999 samples leave 9 beyond p99");
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99).unwrap().beyond, 10);
        assert!(quantile(&[], 0.5).is_none());
        assert!(tail(&[], 0.9).is_none());
    }

    #[test]
    fn medians_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_with_zero_denominators_read_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(busy_share(1.0, 0, 2.0), 0.0);
        assert_eq!(busy_share(1.0, 2, 0.0), 0.0);
        assert_eq!(busy_share(0.0, 2, 0.0), 0.0);
        assert_eq!(busy_share(3.0, 2, 2.0), 0.75);
    }
}
