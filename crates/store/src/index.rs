//! The incrementally maintained top-k candidate index.
//!
//! A bounded ordered multiset of the store's largest live values. The
//! governing invariant is:
//!
//! > **Tracked region.** With eviction threshold `t` (initially absent),
//! > the index holds *every* live occurrence of *every* value strictly
//! > greater than `t`, and *no* occurrence of any value `≤ t`. With no
//! > threshold, it holds every live value.
//!
//! Values are evicted at whole-value granularity (all duplicates of the
//! smallest tracked value leave together, raising `t` to that value), so
//! a value is never half-tracked and a later delete is unambiguous:
//! above the threshold the index answers exactly; at or below it the
//! delete is delegated to the log (assumed present; checked exactly at
//! the next rebuild, which replays the log and rejects unmatched
//! deletes).
//!
//! All mutations are `O(log c)` in the candidate capacity `c` — never in
//! the row count. When deletes erode the tracked region below what a
//! query needs (or below half the capacity while untracked rows exist),
//! the owner rebuilds the index from the log's net counts.

use std::collections::BTreeMap;

use privtopk_domain::Value;

/// Default candidate capacity; grows automatically to `2k` when a
/// larger `k` is queried.
pub const DEFAULT_CAPACITY: usize = 256;

/// Bounded ordered index over the largest live values of one store.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    /// Live occurrences per tracked value.
    candidates: BTreeMap<Value, u64>,
    /// Sum of all counts in `candidates`.
    tracked: u64,
    /// Values `≤ threshold` are untracked (delegated to the log).
    threshold: Option<Value>,
    /// Maximum tracked occurrences before eviction.
    capacity: usize,
    /// Total live rows, tracked or not.
    live_rows: u64,
    /// Rebuilds performed over this index's lifetime.
    rebuilds: u64,
}

impl CandidateIndex {
    /// An empty index with the given candidate capacity (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        CandidateIndex {
            candidates: BTreeMap::new(),
            tracked: 0,
            threshold: None,
            capacity: capacity.max(1),
            live_rows: 0,
            rebuilds: 0,
        }
    }

    /// Total live rows (tracked and untracked).
    #[must_use]
    pub fn live_rows(&self) -> u64 {
        self.live_rows
    }

    /// Occurrences currently held by the index (the "index depth").
    #[must_use]
    pub fn tracked(&self) -> u64 {
        self.tracked
    }

    /// Candidate capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current eviction threshold: values at or below it are untracked
    /// (`None` means every live value is tracked).
    #[must_use]
    pub fn threshold(&self) -> Option<Value> {
        self.threshold
    }

    /// Rebuilds performed so far.
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Whether the index can answer an exact top-`k` without a rebuild:
    /// it holds at least `min(live, k)` occurrences.
    #[must_use]
    pub fn answerable(&self, k: usize) -> bool {
        self.tracked >= (k as u64).min(self.live_rows)
    }

    /// Whether the tracked region has eroded enough that a proactive
    /// rebuild is worthwhile: untracked rows exist and fewer than half
    /// the capacity is tracked.
    #[must_use]
    pub fn wants_rebuild(&self) -> bool {
        self.tracked < self.live_rows && self.tracked * 2 <= self.capacity as u64
    }

    /// Records one inserted occurrence of `v`. `O(log c)`.
    pub fn insert(&mut self, v: Value) {
        self.live_rows += 1;
        if let Some(t) = self.threshold {
            if v <= t {
                return; // below the watermark: log-only
            }
        }
        *self.candidates.entry(v).or_insert(0) += 1;
        self.tracked += 1;
        if self.tracked > self.capacity as u64 {
            self.evict_smallest();
        }
    }

    /// Records one deleted occurrence of `v`. `O(log c)`.
    ///
    /// Returns `false` when the tracked region proves `v` is not live
    /// (no state is changed); `true` otherwise. At or below the
    /// threshold the delete is accepted on faith — the log replay at the
    /// next rebuild or compaction verifies it exactly.
    #[must_use]
    pub fn delete(&mut self, v: Value) -> bool {
        let above = match self.threshold {
            Some(t) => v > t,
            None => true,
        };
        if above {
            match self.candidates.get_mut(&v) {
                Some(c) => {
                    *c -= 1;
                    if *c == 0 {
                        self.candidates.remove(&v);
                    }
                    self.tracked -= 1;
                }
                None => return false,
            }
        }
        self.live_rows -= 1;
        true
    }

    /// Evicts every occurrence of the smallest tracked value and raises
    /// the threshold to it.
    fn evict_smallest(&mut self) {
        if let Some((&smallest, &count)) = self.candidates.iter().next() {
            self.candidates.remove(&smallest);
            self.tracked -= count;
            self.threshold = Some(match self.threshold {
                Some(t) => t.max(smallest),
                None => smallest,
            });
        }
    }

    /// Replaces the index contents from net per-value live counts (a log
    /// replay), keeping whole values from the top until `capacity` is
    /// reached. Counts the operation as one rebuild.
    ///
    /// `counts` must be strictly ascending by value, as
    /// [`Replay::counts`](crate::log::Replay::counts) and
    /// [`counts_of`](crate::counts_of) return them.
    pub fn rebuild_from_counts(&mut self, counts: &[(Value, u64)], capacity: usize) {
        debug_assert!(
            counts.windows(2).all(|w| w[0].0 < w[1].0),
            "counts must be strictly ascending by value"
        );
        self.capacity = capacity.max(1);
        self.candidates.clear();
        self.tracked = 0;
        self.threshold = None;
        self.live_rows = counts.iter().map(|&(_, c)| c).sum();
        for &(v, c) in counts.iter().rev() {
            if self.tracked >= self.capacity as u64 {
                // First excluded (distinct) value: everything at or
                // below it is untracked.
                self.threshold = Some(v);
                break;
            }
            self.candidates.insert(v, c);
            self.tracked += c;
        }
        self.rebuilds += 1;
    }

    /// The tracked values in descending order, duplicates expanded, at
    /// most `limit` values.
    #[must_use]
    pub fn top_values(&self, limit: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(limit.min(self.tracked as usize));
        'outer: for (&v, &c) in self.candidates.iter().rev() {
            for _ in 0..c {
                if out.len() == limit {
                    break 'outer;
                }
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(i64, u64)]) -> Vec<(Value, u64)> {
        pairs.iter().map(|&(v, c)| (Value::new(v), c)).collect()
    }

    #[test]
    fn small_inserts_fully_tracked() {
        let mut idx = CandidateIndex::new(8);
        for v in [5, 1, 9, 5] {
            idx.insert(Value::new(v));
        }
        assert_eq!(idx.live_rows(), 4);
        assert_eq!(idx.tracked(), 4);
        assert!(idx.answerable(4));
        assert_eq!(
            idx.top_values(4),
            vec![Value::new(9), Value::new(5), Value::new(5), Value::new(1)]
        );
    }

    #[test]
    fn eviction_drops_whole_smallest_value() {
        let mut idx = CandidateIndex::new(3);
        for v in [2, 2, 7, 9] {
            idx.insert(Value::new(v));
        }
        // Overflow at the 4th insert evicts both 2s together.
        assert_eq!(idx.live_rows(), 4);
        assert_eq!(idx.tracked(), 2);
        assert_eq!(idx.top_values(10), vec![Value::new(9), Value::new(7)]);
        // 2 is now untracked: inserts of 2 bypass the index.
        idx.insert(Value::new(2));
        assert_eq!(idx.tracked(), 2);
        assert_eq!(idx.live_rows(), 5);
    }

    #[test]
    fn delete_above_threshold_is_exact() {
        let mut idx = CandidateIndex::new(4);
        for v in [3, 8, 8, 5] {
            idx.insert(Value::new(v));
        }
        assert!(idx.delete(Value::new(8)));
        assert_eq!(
            idx.top_values(10),
            vec![Value::new(8), Value::new(5), Value::new(3)]
        );
        // Deleting a provably absent value is refused, state unchanged.
        assert!(!idx.delete(Value::new(9)));
        assert_eq!(idx.live_rows(), 3);
    }

    #[test]
    fn delete_below_threshold_is_accepted_on_faith() {
        let mut idx = CandidateIndex::new(2);
        for v in [1, 6, 9] {
            idx.insert(Value::new(v));
        }
        assert_eq!(idx.tracked(), 2); // 1 evicted
        assert!(idx.delete(Value::new(1)));
        assert_eq!(idx.live_rows(), 2);
        assert_eq!(idx.tracked(), 2);
    }

    #[test]
    fn answerable_tracks_erosion() {
        let mut idx = CandidateIndex::new(2);
        for v in [1, 6, 9] {
            idx.insert(Value::new(v));
        }
        assert!(idx.answerable(2));
        assert!(idx.delete(Value::new(9)));
        assert!(idx.answerable(1));
        assert!(!idx.answerable(2)); // 2 live rows but only 1 tracked
        assert!(idx.wants_rebuild());
    }

    #[test]
    fn rebuild_restores_top_and_threshold() {
        let mut idx = CandidateIndex::new(2);
        idx.rebuild_from_counts(&counts(&[(1, 3), (5, 1), (9, 2)]), 3);
        assert_eq!(idx.live_rows(), 6);
        assert_eq!(idx.tracked(), 3);
        assert_eq!(
            idx.top_values(10),
            vec![Value::new(9), Value::new(9), Value::new(5)]
        );
        assert_eq!(idx.rebuilds(), 1);
        // 1 is the first excluded value: untracked region.
        idx.insert(Value::new(1));
        assert_eq!(idx.tracked(), 3);
        assert_eq!(idx.live_rows(), 7);
    }

    #[test]
    fn rebuild_keeps_whole_duplicate_groups() {
        let mut idx = CandidateIndex::new(4);
        // The 9s (count 3) exceed capacity 2 on their own: keep them all,
        // exclude 4 and below.
        idx.rebuild_from_counts(&counts(&[(4, 2), (9, 3)]), 2);
        assert_eq!(idx.tracked(), 3);
        assert_eq!(idx.top_values(10).len(), 3);
        assert!(idx.answerable(3));
    }
}
