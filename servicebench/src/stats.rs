//! Percentiles and interquartile means.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; otherwise it is *unsupported* and printed as `null`, never
//! as a number.

/// Samples that must lie strictly beyond a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value, or `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub value: Option<f64>,
    /// Sample count.
    pub samples: usize,
    /// Samples ranked beyond the percentile.
    pub beyond: usize,
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `values`: the smallest
/// sample with at least `q·n` samples at or below it.
pub fn percentile(values: &[f64], q: f64) -> Percentile {
    let n = values.len();
    if n == 0 {
        return Percentile {
            value: None,
            samples: 0,
            beyond: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    Percentile {
        value: (beyond >= MIN_BEYOND).then(|| sorted[rank - 1]),
        samples: n,
        beyond,
    }
}

/// The interquartile mean of a non-empty slice: the mean of what is left
/// after the lowest and the highest quarter (`n / 4` values each) are
/// dropped. A few outliers are dropped, as a median drops them; a share
/// of slow values moves it in proportion, not in a jump.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_a_known_sample() {
        // 1..=2000 shuffled: p50 = 1000, p99 = 1980 with 20 beyond.
        let mut v: Vec<f64> = (1..=2000).map(f64::from).collect();
        v.reverse();
        v.swap(3, 1500);
        let p50 = percentile(&v, 0.50);
        assert_eq!(p50.value, Some(1000.0));
        assert_eq!(p50.beyond, 1000);
        let p99 = percentile(&v, 0.99);
        assert_eq!(p99.value, Some(1980.0));
        assert_eq!((p99.samples, p99.beyond), (2000, 20));
        assert_eq!(percentile(&v, 0.999).value, None, "2 beyond: unsupported");
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99).value, None);
        assert_eq!(percentile(&v, 0.90).value, Some(90.0));
        assert_eq!(percentile(&v, 0.90).beyond, 10);
        assert_eq!(percentile(&[], 0.5).value, None);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.5).value, None, "5 beyond the median");
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        assert_eq!(interquartile_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(interquartile_mean(&[100.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(
            interquartile_mean(&[9.0, 0.0, 4.0, 5.0, 6.0, 7.0, 1e9, 8.0]),
            6.5
        );
    }
}
