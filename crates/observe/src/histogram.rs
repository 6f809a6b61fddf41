//! Log-bucketed latency histograms: lock-free recording, snapshots that
//! merge across nodes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One bucket per power of two of nanoseconds, plus a zero bucket.
///
/// Bucket 0 holds exact zeros; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. 64 powers cover the full `u64` range, so nothing
/// is ever clipped.
pub const BUCKETS: usize = 65;

/// A concurrent, log-bucketed latency histogram.
///
/// HDR-style: recording is a few relaxed atomic ops (no locks, no
/// allocation), quantiles are answered from the bucket counts with at most
/// 2x relative error, and snapshots merge across nodes via
/// [`HistogramSnapshot::merge`].
///
/// # Example
///
/// ```
/// use privtopk_observe::Histogram;
///
/// let h = Histogram::new();
/// for ns in [100, 200, 400, 800] {
///     h.record(ns);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.max_ns, 800);
/// assert!(snap.p50_ns >= 200);
/// ```
#[derive(Debug)]
pub struct Histogram {
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A point-in-time read of a [`Histogram`].
///
/// Quantiles are bucket upper bounds (clamped to the observed maximum), so
/// they over-estimate by at most the bucket width. Snapshots carry their
/// full bucket array, so they can be [`merge`](HistogramSnapshot::merge)d
/// across nodes without losing quantile fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub sum_ns: u64,
    /// Largest sample, in nanoseconds.
    pub max_ns: u64,
    /// Median estimate, in nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile estimate, in nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile estimate, in nanoseconds.
    pub p99_ns: u64,
    /// Raw log-bucket counts (see [`BUCKETS`]) the quantiles derive from.
    pub buckets: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            p50_ns: 0,
            p90_ns: 0,
            p99_ns: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample in nanoseconds (0.0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Whether anything was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Rebuilds a snapshot from raw totals, recomputing the quantile
    /// estimates from the bucket array. `count` is always derived from
    /// the buckets so the result is internally consistent.
    #[must_use]
    pub fn from_parts(buckets: [u64; BUCKETS], sum_ns: u64, max_ns: u64) -> Self {
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum_ns,
            max_ns,
            p50_ns: quantile(&buckets, count, max_ns, 0.50),
            p90_ns: quantile(&buckets, count, max_ns, 0.90),
            p99_ns: quantile(&buckets, count, max_ns, 0.99),
            buckets,
        }
    }

    /// Merges two snapshots into one, as if every sample of both had been
    /// recorded into a single histogram.
    ///
    /// Bucket counts and sums add (saturating), maxima take the larger
    /// value, and quantiles are recomputed from the merged buckets — all
    /// component operations are associative and commutative, so merging
    /// per-node snapshots yields the same digest in any order or
    /// grouping.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_add(other.buckets[i]);
        }
        HistogramSnapshot::from_parts(
            buckets,
            self.sum_ns.saturating_add(other.sum_ns),
            self.max_ns.max(other.max_ns),
        )
    }
}

/// The bucket `nanos` falls in (see [`BUCKETS`]).
pub(crate) fn bucket_index(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        64 - nanos.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `index`, in nanoseconds.
///
/// Bucket 0 holds exact zeros; bucket `i >= 1` holds
/// `[2^(i-1), 2^i - 1]`; the last bucket tops out at `u64::MAX`.
#[must_use]
pub fn bucket_upper(index: usize) -> u64 {
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample of `nanos` nanoseconds.
    ///
    /// The sum saturates at `u64::MAX`, as [`HistogramSnapshot::merge`]
    /// does, so a huge sample never wraps the mean below the maximum.
    pub fn record(&self, nanos: u64) {
        // The closure always returns `Some`, so the update cannot fail.
        let _ = self
            .sum_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
                Some(sum.saturating_add(nanos))
            });
        self.max_ns.fetch_max(nanos, Ordering::Relaxed);
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one sample from a [`Duration`] (saturating at `u64::MAX`).
    pub fn record_duration(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Reads the current totals and quantile estimates.
    ///
    /// A snapshot taken while writers race is internally consistent up to
    /// one in-flight sample per writer — good enough for progress stats.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot::from_parts(
            buckets,
            self.sum_ns.load(Ordering::Relaxed),
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

fn quantile(buckets: &[u64; BUCKETS], count: u64, max_ns: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cumulative += c;
        if cumulative >= rank {
            return bucket_upper(i).min(max_ns);
        }
    }
    max_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap, HistogramSnapshot::default());
        assert!(snap.is_empty());
        assert_eq!(snap.mean_ns(), 0.0);
    }

    #[test]
    fn bucket_indexing_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for idx in 1..=63 {
            // Every bucket's upper bound maps back to the same bucket.
            assert_eq!(bucket_index(bucket_upper(idx)), idx);
        }
    }

    #[test]
    fn single_sample_quantiles_hit_the_sample() {
        let h = Histogram::new();
        h.record(1000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.max_ns, 1000);
        // All quantiles clamp to the observed maximum.
        assert_eq!(snap.p50_ns, 1000);
        assert_eq!(snap.p99_ns, 1000);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i * 100);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max_ns, 100_000);
        assert!(snap.p50_ns <= snap.p90_ns);
        assert!(snap.p90_ns <= snap.p99_ns);
        assert!(snap.p99_ns <= snap.max_ns);
        // Log buckets over-estimate by at most 2x.
        assert!(snap.p50_ns >= 50_000 && snap.p50_ns <= 100_000);
    }

    #[test]
    fn duration_recording_saturates() {
        let h = Histogram::new();
        h.record_duration(Duration::from_nanos(1500));
        h.record_duration(Duration::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max_ns, u64::MAX);
    }

    #[test]
    fn record_saturates_the_sum_like_merge() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(5);
        let snap = h.snapshot();
        assert_eq!(snap.sum_ns, u64::MAX);
        assert_eq!(snap.max_ns, u64::MAX);
        assert!(snap.mean_ns() >= u64::MAX as f64 / 2.0);
        // One histogram fed both samples equals the merge of two fed one
        // each.
        let (a, b) = (Histogram::new(), Histogram::new());
        a.record(u64::MAX);
        b.record(5);
        assert_eq!(a.snapshot().merge(&b.snapshot()), snap);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
    }

    #[test]
    fn snapshot_merge_matches_one_histogram_fed_everything() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for (h, samples) in [(&a, [10u64, 20, 350]), (&b, [5000, 0, 7])] {
            for s in samples {
                h.record(s);
                all.record(s);
            }
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), all.snapshot());
    }

    #[test]
    fn snapshot_merge_with_empty_is_identity() {
        let h = Histogram::new();
        h.record(42);
        h.record(9000);
        let snap = h.snapshot();
        let empty = HistogramSnapshot::default();
        assert_eq!(snap.merge(&empty), snap);
        assert_eq!(empty.merge(&snap), snap);
    }

    fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h.snapshot()
    }

    proptest! {
        #[test]
        fn snapshot_merge_is_commutative(
            xs in proptest::collection::vec(0u64..10_000_000, 0..100),
            ys in proptest::collection::vec(0u64..10_000_000, 0..100),
        ) {
            let a = snapshot_of(&xs);
            let b = snapshot_of(&ys);
            prop_assert_eq!(a.merge(&b), b.merge(&a));
        }

        #[test]
        fn snapshot_merge_is_associative_on_quantile_buckets(
            xs in proptest::collection::vec(0u64..10_000_000, 0..80),
            ys in proptest::collection::vec(0u64..10_000_000, 0..80),
            zs in proptest::collection::vec(0u64..10_000_000, 0..80),
        ) {
            let a = snapshot_of(&xs);
            let b = snapshot_of(&ys);
            let c = snapshot_of(&zs);
            let left = a.merge(&b).merge(&c);
            let right = a.merge(&b.merge(&c));
            // Full structural equality: buckets, totals and every
            // recomputed quantile must agree regardless of grouping.
            prop_assert_eq!(left, right);
            // And either grouping equals the single-histogram digest.
            let mut all = xs.clone();
            all.extend_from_slice(&ys);
            all.extend_from_slice(&zs);
            prop_assert_eq!(left, snapshot_of(&all));
        }
    }

    proptest! {
        #[test]
        fn quantile_estimate_is_within_one_bucket(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let snap = h.snapshot();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let exact_p50 = sorted[(samples.len() - 1) / 2];
            // The estimate can exceed the exact median by at most the
            // bucket width (2x), and never exceeds the max.
            prop_assert!(snap.p50_ns <= snap.max_ns);
            prop_assert!(snap.p50_ns >= exact_p50 / 2 || snap.p50_ns >= exact_p50);
            prop_assert_eq!(snap.max_ns, *sorted.last().unwrap());
            prop_assert_eq!(snap.count, samples.len() as u64);
        }
    }
}
