//! Order statistics over timing samples.

/// Fewest samples that must lie above a reported percentile: a
/// percentile resting on fewer is mostly one outlier.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None`
/// when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it — p50
/// needs 20 samples, p90 needs 100 and p99 needs 1000.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if !(q > 0.0 && q < 1.0) || samples.is_empty() {
        return None;
    }
    let n = samples.len();
    // 1-based nearest rank; the samples after it are the ones beyond.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median of a handful of per-pass or per-cycle values (the middle
/// value, or the mean of the two middle values). Unlike [`percentile`]
/// it makes no sample-count demand: it summarizes repeated
/// measurements, not a latency distribution.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The arithmetic mean, or `None` for no values.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the helper must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn percentile_rejects_degenerate_input() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
        assert_eq!(percentile(&ramp(100), 1.0), None);
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
