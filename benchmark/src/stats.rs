//! Order statistics the benchmark reports: the fastest-quarter mean that
//! summarizes an operation's samples, medians, nearest-rank latency
//! percentiles, and the worsening `--repeat-check` prints.

/// Median of `values` (mean of the two middle values for an even count);
/// 0.0 for an empty slice, so an idle layer reports zero, not NaN.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Largest of `values`; 0.0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Mean of the fastest quarter of `values`: of its `ceil(n / 4)` smallest.
/// The machine's noise only adds time, in stretches (a lower clock, a busy
/// neighbour), so the slower samples are dropped; the single fastest one is
/// a lottery ticket on the rare stretch at full clock, so several are
/// averaged. 0.0 for an empty slice.
pub fn fastest_quarter(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = &sorted[..sorted.len().div_ceil(4)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile (`q` in `0..=1`): the smallest sample with at
/// least `q` of the samples at or below it. 0.0 for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `q` of
/// `n` samples. The run refuses to report a percentile backed by fewer than
/// ten of these.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub((q * n as f64).ceil() as usize)
}

/// `a / b`, or 0.0 when `b` is zero (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Relative worsening of `second` against `first` for a metric whose
/// better direction is `higher` or lower: positive means worse.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn max_of_nothing_is_zero() {
        assert_eq!((max(&[3.0, 1.5, 2.0]), max(&[])), (3.0, 0.0));
    }

    #[test]
    fn fastest_quarter_averages_the_smallest_samples() {
        // Eight samples: the two smallest; nine: the three smallest.
        let eight = [9.0, 1.0, 8.0, 3.0, 7.0, 6.0, 5.0, 4.0];
        assert_eq!(fastest_quarter(&eight), 2.0);
        let nine = [9.0, 1.0, 8.0, 3.0, 7.0, 6.0, 5.0, 4.0, 2.0];
        assert_eq!(fastest_quarter(&nine), 2.0);
        // Fewer than five samples: the fastest alone.
        assert_eq!(fastest_quarter(&[4.0, 2.0, 3.0]), 2.0);
        assert_eq!(fastest_quarter(&[]), 0.0);
        // A slow stretch that hits most samples does not move it.
        let noisy = [1.0, 1.1, 2.0, 2.0, 2.5, 2.0, 2.0, 4.0];
        assert_eq!(fastest_quarter(&noisy), 1.05);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.50), 50.0);
        assert_eq!(percentile(&values, 0.95), 95.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        // Order of the input does not matter.
        let mut shuffled = values.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.95), 95.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
    }

    #[test]
    fn ten_samples_beyond_p95_need_two_hundred() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(20, 0.95), 1);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }
}
