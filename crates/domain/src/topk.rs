//! The ordered top-k multiset vector passed around the ring.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DomainError, Value, ValueDomain};

/// An ordered multiset of exactly `k` values, sorted descending.
///
/// This is the "global top-k vector" `G_i(r)` and "local top-k vector" `V_i`
/// of Algorithm 2 in the paper. It is a *multiset*: duplicate values are
/// meaningful and preserved ("the global vector is an ordered multiset that
/// may include duplicate values").
///
/// The vector always holds exactly `k` entries. Construction from fewer than
/// `k` values pads with the domain floor ([`ValueDomain::min`]), which is
/// exactly how the protocol initializes the global vector ("initializes the
/// global topk vector to the lowest possible values in the corresponding
/// data domain").
///
/// Ranks are 1-based to mirror the paper's notation: `get(1)` is the largest
/// element (`G[1]`), `get(k)` the smallest (`G[k]`).
///
/// # Example
///
/// ```
/// use privtopk_domain::{TopKVector, Value, ValueDomain};
///
/// let domain = ValueDomain::paper_default();
/// let v = TopKVector::from_values(3, [10, 40, 20, 5].map(Value::new), &domain)?;
/// assert_eq!(v.get(1), Some(Value::new(40)));
/// assert_eq!(v.kth(), Value::new(10));
/// # Ok::<(), privtopk_domain::DomainError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TopKVector {
    /// Invariant: `values.len() == k`, sorted descending.
    values: Vec<Value>,
}

impl TopKVector {
    /// Creates the all-floor vector used to initialize the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; use [`TopKVector::from_values`] for fallible
    /// construction.
    #[must_use]
    pub fn floor(k: usize, domain: &ValueDomain) -> Self {
        assert!(k > 0, "top-k parameter k must be at least 1");
        TopKVector {
            values: vec![domain.min(); k],
        }
    }

    /// Builds a local top-k vector from a node's attribute values.
    ///
    /// Keeps the largest `k` of `values`, sorted descending, and pads with
    /// the domain floor if fewer than `k` values were supplied. The result
    /// is identical to sorting every value and truncating to `k`, but the
    /// selection is bounded: O(N) time for N values and O(min(N, k))
    /// memory. Candidates collect in a buffer of at most `2k`; each time
    /// it fills, a linear-time selection cuts it back to its top `k` and
    /// raises a threshold, and later values at or below the threshold
    /// are skipped without being stored.
    ///
    /// # Errors
    ///
    /// - [`DomainError::ZeroK`] if `k == 0`.
    /// - [`DomainError::OutOfDomain`] naming the first value, in iteration
    ///   order, that lies outside `domain`.
    pub fn from_values<I>(k: usize, values: I, domain: &ValueDomain) -> Result<Self, DomainError>
    where
        I: IntoIterator<Item = Value>,
    {
        if k == 0 {
            return Err(DomainError::ZeroK);
        }
        let values = values.into_iter();
        let cap = k.saturating_mul(2);
        let mut buf: Vec<Value> = Vec::with_capacity(values.size_hint().0.min(cap));
        // Values at the floor can be skipped from the start: padding puts
        // the same value back in any rank they would have filled.
        let mut threshold = domain.min();
        for v in values {
            if !domain.contains(v) {
                return Err(DomainError::OutOfDomain { value: v });
            }
            if v <= threshold {
                continue;
            }
            if buf.len() == cap {
                buf.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
                buf.truncate(k);
                threshold = buf[k - 1];
                if v <= threshold {
                    continue;
                }
            }
            buf.push(v);
        }
        buf.sort_unstable_by(|a, b| b.cmp(a));
        buf.truncate(k);
        buf.resize(k, domain.min());
        Ok(TopKVector { values: buf })
    }

    /// Builds a vector from parts already known to be sorted descending.
    ///
    /// # Errors
    ///
    /// - [`DomainError::ZeroK`] if `parts` is empty.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `parts` is not sorted descending.
    pub fn from_sorted(parts: Vec<Value>) -> Result<Self, DomainError> {
        if parts.is_empty() {
            return Err(DomainError::ZeroK);
        }
        debug_assert!(
            parts.windows(2).all(|w| w[0] >= w[1]),
            "from_sorted requires descending input"
        );
        Ok(TopKVector { values: parts })
    }

    /// The top-`k` prefix of this vector.
    ///
    /// For `k <= k'`, the first `k` entries of a top-`k'` vector are
    /// exactly the top-`k` of the same values, so one wide vector serves
    /// every narrower request over them.
    ///
    /// # Errors
    ///
    /// - [`DomainError::ZeroK`] if `k == 0`.
    /// - [`DomainError::MismatchedK`] if `k` exceeds this vector's length.
    pub fn top(&self, k: usize) -> Result<TopKVector, DomainError> {
        if k == 0 {
            return Err(DomainError::ZeroK);
        }
        let values = self.values.get(..k).ok_or(DomainError::MismatchedK {
            left: k,
            right: self.k(),
        })?;
        Ok(TopKVector {
            values: values.to_vec(),
        })
    }

    /// The `k` parameter (vector length).
    #[must_use]
    pub fn k(&self) -> usize {
        self.values.len()
    }

    /// The element at 1-based `rank` (`rank = 1` is the largest).
    ///
    /// Returns `None` if `rank == 0` or `rank > k`.
    #[must_use]
    pub fn get(&self, rank: usize) -> Option<Value> {
        if rank == 0 {
            return None;
        }
        self.values.get(rank - 1).copied()
    }

    /// The largest element, `G[1]`.
    #[must_use]
    pub fn first(&self) -> Value {
        self.values[0]
    }

    /// The smallest element, `G[k]`.
    #[must_use]
    pub fn kth(&self) -> Value {
        *self.values.last().expect("invariant: k >= 1")
    }

    /// A view of the values, sorted descending.
    #[must_use]
    pub fn as_slice(&self) -> &[Value] {
        &self.values
    }

    /// Iterates over the values in descending order.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Value>> {
        self.values.iter().copied()
    }

    /// Multiset membership count of `v`.
    #[must_use]
    pub fn count_of(&self, v: Value) -> usize {
        self.values.iter().filter(|&&x| x == v).count()
    }

    /// Whether `v` occurs at least once.
    #[must_use]
    pub fn contains(&self, v: Value) -> bool {
        self.count_of(v) > 0
    }

    /// The real merged top-k: `topK(self ∪ other)` as a multiset union.
    ///
    /// This computes `G'_i(r) = topK(G_{i-1}(r) ∪ V_i)` of Algorithm 2.
    /// Both operands keep their own `k`; the result has `self.k()` entries
    /// (the global vector's width).
    #[must_use]
    pub fn merged_with(&self, other: &TopKVector) -> TopKVector {
        let mut merged: Vec<Value> = Vec::with_capacity(self.values.len());
        self.merge_into(other, &mut merged);
        TopKVector { values: merged }
    }

    /// Allocation-free variant of [`TopKVector::merged_with`]: writes the
    /// merged top-k into `out` (cleared first, capacity reused) and returns
    /// the number of entries taken from `other`.
    ///
    /// Because ties prefer `self`, an entry is taken from `other` exactly
    /// when it is not covered by an occurrence in `self`, so the returned
    /// count equals `|merged − self|` — Algorithm 2's contribution size
    /// `m = |V'_i|` — without materializing the difference.
    pub fn merge_into(&self, other: &TopKVector, out: &mut Vec<Value>) -> usize {
        out.clear();
        let k = self.values.len();
        out.reserve(k);
        // Merge two descending runs (merge sort step, as the paper suggests).
        let (a, b) = (self.values.as_slice(), other.values.as_slice());
        let (mut i, mut j) = (0, 0);
        // Hot loop while both runs are live: the select and the index
        // bumps are data-independent of the branch predictor, so this
        // lowers to conditional moves the vectorizer can chew on.
        while out.len() < k && i < a.len() && j < b.len() {
            let take_left = a[i] >= b[j];
            out.push(if take_left { a[i] } else { b[j] });
            i += usize::from(take_left);
            j += usize::from(!take_left);
        }
        // Cold tails: at most one of these runs, after one side drained.
        while out.len() < k && i < a.len() {
            out.push(a[i]);
            i += 1;
        }
        while out.len() < k && j < b.len() {
            out.push(b[j]);
            j += 1;
        }
        // Ties prefer `self`, so `j` counts exactly the entries not covered
        // by an occurrence in `self` — Algorithm 2's contribution size `m`.
        j
    }

    /// Multiset difference `self − other`: the values of `self` that are
    /// *not* covered by occurrences in `other`.
    ///
    /// This computes `V'_i = G'_i(r) − G_{i-1}(r)` of Algorithm 2 — the
    /// values the node would newly contribute. The result is sorted
    /// descending and may be empty.
    #[must_use]
    pub fn multiset_subtract(&self, other: &TopKVector) -> Vec<Value> {
        let mut out = Vec::new();
        self.multiset_subtract_into(other, &mut out);
        out
    }

    /// Allocation-free variant of [`TopKVector::multiset_subtract`]:
    /// writes the difference into `out` (cleared first, capacity reused).
    ///
    /// Both operands are sorted descending, so a single two-pointer sweep
    /// pairs occurrences greedily — `O(k)` instead of the quadratic
    /// scan-and-remove over a cloned buffer this replaces.
    pub fn multiset_subtract_into(&self, other: &TopKVector, out: &mut Vec<Value>) {
        out.clear();
        let (a, b) = (&self.values, &other.values);
        let (mut i, mut j) = (0, 0);
        while i < a.len() {
            if j >= b.len() || a[i] > b[j] {
                // No occurrence in `other` can cover a[i] any more.
                out.push(a[i]);
                i += 1;
            } else if a[i] == b[j] {
                // Covered: consume one occurrence of each.
                i += 1;
                j += 1;
            } else {
                // b[j] > a[i]: this occurrence of `other` covers nothing.
                j += 1;
            }
        }
    }

    /// Number of elements of `self` that also occur in `other`, counting
    /// multiplicity (multiset intersection size).
    #[must_use]
    pub fn multiset_intersection_size(&self, other: &TopKVector) -> usize {
        let (a, b) = (&self.values, &other.values);
        let (mut i, mut j) = (0, 0);
        let mut count = 0;
        while i < a.len() && j < b.len() {
            if a[i] == b[j] {
                count += 1;
                i += 1;
                j += 1;
            } else if a[i] > b[j] {
                i += 1;
            } else {
                j += 1;
            }
        }
        count
    }

    /// The paper's precision metric: `|R ∩ TopK| / k` where `self` is the
    /// returned set `R` and `truth` the real top-k (Section 5.4).
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::MismatchedK`] if the two vectors have
    /// different `k`.
    pub fn precision_against(&self, truth: &TopKVector) -> Result<f64, DomainError> {
        if self.k() != truth.k() {
            return Err(DomainError::MismatchedK {
                left: self.k(),
                right: truth.k(),
            });
        }
        Ok(self.multiset_intersection_size(truth) as f64 / self.k() as f64)
    }

    /// Builds the randomized output of Algorithm 2's `P_r` branch: the first
    /// `k − m` entries copied from `prefix_source` and the last `m` entries
    /// replaced by `tail` (sorted descending internally).
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::MismatchedK`] if `tail.len() != m` or
    /// `m > k`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the result would not be sorted descending
    /// (the caller must draw tail values at or below `prefix_source[k−m]`).
    pub fn with_randomized_tail(
        prefix_source: &TopKVector,
        m: usize,
        mut tail: Vec<Value>,
    ) -> Result<TopKVector, DomainError> {
        Self::with_randomized_tail_from(prefix_source, m, &mut tail)
    }

    /// Scratch-reusing variant of [`TopKVector::with_randomized_tail`]:
    /// sorts `tail` in place and drains it, so a hop loop can keep one
    /// tail buffer alive across steps instead of allocating per hop.
    ///
    /// # Errors
    ///
    /// Returns [`DomainError::MismatchedK`] if `tail.len() != m` or
    /// `m > k` (in which case `tail` is left untouched).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the result would not be sorted descending
    /// (the caller must draw tail values at or below `prefix_source[k−m]`).
    pub fn with_randomized_tail_from(
        prefix_source: &TopKVector,
        m: usize,
        tail: &mut Vec<Value>,
    ) -> Result<TopKVector, DomainError> {
        let k = prefix_source.k();
        if tail.len() != m || m > k {
            return Err(DomainError::MismatchedK {
                left: m,
                right: tail.len(),
            });
        }
        tail.sort_unstable_by(|a, b| b.cmp(a));
        let mut values = Vec::with_capacity(k);
        values.extend_from_slice(&prefix_source.values[..k - m]);
        values.extend_from_slice(tail);
        tail.clear();
        debug_assert!(
            values.windows(2).all(|w| w[0] >= w[1]),
            "randomized tail broke descending order"
        );
        Ok(TopKVector { values })
    }

    /// Consumes the vector and returns its values, sorted descending.
    #[must_use]
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Whether every element equals the domain floor (i.e. the vector still
    /// carries no real information).
    #[must_use]
    pub fn is_floor(&self, domain: &ValueDomain) -> bool {
        self.values.iter().all(|&v| v == domain.min())
    }
}

impl fmt::Display for TopKVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl<'a> IntoIterator for &'a TopKVector {
    type Item = Value;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Value>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> ValueDomain {
        ValueDomain::paper_default()
    }

    fn vk(k: usize, vals: &[i64]) -> TopKVector {
        TopKVector::from_values(k, vals.iter().copied().map(Value::new), &domain()).unwrap()
    }

    #[test]
    fn floor_vector_is_all_domain_min() {
        let v = TopKVector::floor(4, &domain());
        assert_eq!(v.k(), 4);
        assert!(v.is_floor(&domain()));
        assert_eq!(v.first(), Value::new(1));
    }

    #[test]
    fn from_values_sorts_and_truncates() {
        let v = vk(3, &[10, 40, 20, 5]);
        assert_eq!(
            v.as_slice(),
            &[Value::new(40), Value::new(20), Value::new(10)]
        );
    }

    #[test]
    fn from_values_pads_with_floor() {
        let v = vk(4, &[100]);
        assert_eq!(v.get(1), Some(Value::new(100)));
        assert_eq!(v.get(2), Some(Value::new(1)));
        assert_eq!(v.kth(), Value::new(1));
    }

    #[test]
    fn from_values_rejects_zero_k() {
        let err = TopKVector::from_values(0, [], &domain()).unwrap_err();
        assert_eq!(err, DomainError::ZeroK);
    }

    #[test]
    fn from_values_rejects_out_of_domain() {
        let err = TopKVector::from_values(2, [Value::new(20_000)], &domain()).unwrap_err();
        assert!(matches!(err, DomainError::OutOfDomain { .. }));
    }

    #[test]
    fn top_is_the_prefix_and_equals_a_narrow_build() {
        let vals = [7, 40, 3, 40, 19, 11, 2];
        let wide = vk(5, &vals);
        for k in 1..=5 {
            let narrow = wide.top(k).unwrap();
            assert_eq!(narrow.as_slice(), &wide.as_slice()[..k]);
            assert_eq!(narrow, vk(k, &vals), "k {k}");
        }
        assert_eq!(wide.top(5).unwrap(), wide);
        assert_eq!(wide.top(0).unwrap_err(), DomainError::ZeroK);
        assert_eq!(
            wide.top(6).unwrap_err(),
            DomainError::MismatchedK { left: 6, right: 5 }
        );
    }

    #[test]
    fn one_based_rank_accessors() {
        let v = vk(3, &[30, 20, 10]);
        assert_eq!(v.get(0), None);
        assert_eq!(v.get(1), Some(Value::new(30)));
        assert_eq!(v.get(3), Some(Value::new(10)));
        assert_eq!(v.get(4), None);
    }

    #[test]
    fn merged_with_takes_global_topk() {
        let g = vk(3, &[50, 30, 10]);
        let v = vk(3, &[40, 20, 5]);
        let merged = g.merged_with(&v);
        assert_eq!(
            merged.as_slice(),
            &[Value::new(50), Value::new(40), Value::new(30)]
        );
    }

    #[test]
    fn merged_with_preserves_duplicates() {
        let g = vk(3, &[50, 50, 10]);
        let v = vk(3, &[50, 20, 5]);
        let merged = g.merged_with(&v);
        assert_eq!(
            merged.as_slice(),
            &[Value::new(50), Value::new(50), Value::new(50)]
        );
    }

    #[test]
    fn merged_with_differing_local_k() {
        // Local vector may conceptually be shorter; padding keeps it k-wide,
        // but merging with a wider global vector must still work.
        let g = vk(4, &[9, 8, 7, 6]);
        let v = vk(4, &[10]);
        let merged = g.merged_with(&v);
        assert_eq!(merged.get(1), Some(Value::new(10)));
        assert_eq!(merged.kth(), Value::new(7));
    }

    #[test]
    fn merge_into_reuses_buffer_and_counts_contribution() {
        let g = vk(3, &[50, 30, 10]);
        let v = vk(3, &[40, 20, 5]);
        let mut buf = vec![Value::new(999)]; // stale content must be cleared
        let m = g.merge_into(&v, &mut buf);
        assert_eq!(buf, vec![Value::new(50), Value::new(40), Value::new(30)]);
        // merged − g = {40}, so exactly one entry came from `v`.
        assert_eq!(m, 1);
        assert_eq!(m, g.merged_with(&v).multiset_subtract(&g).len());
    }

    #[test]
    fn merge_into_count_respects_duplicates() {
        // Ties prefer `self`, so a value the incoming vector already covers
        // is not counted as a contribution.
        let g = vk(3, &[50, 50, 10]);
        let v = vk(3, &[50, 20, 5]);
        let mut buf = Vec::new();
        assert_eq!(g.merge_into(&v, &mut buf), 1); // only the third 50 is new
        let g2 = vk(2, &[50, 1]);
        let v2 = vk(2, &[80, 80]);
        assert_eq!(g2.merge_into(&v2, &mut buf), 2); // both 80s are new
    }

    #[test]
    fn multiset_subtract_counts_multiplicity() {
        let a = vk(4, &[50, 40, 40, 10]);
        let b = vk(4, &[40, 10, 5, 1]);
        let diff = a.multiset_subtract(&b);
        assert_eq!(diff, vec![Value::new(50), Value::new(40)]);
    }

    #[test]
    fn multiset_subtract_identical_is_empty() {
        let a = vk(3, &[7, 7, 3]);
        assert!(a.multiset_subtract(&a).is_empty());
    }

    #[test]
    fn intersection_size_multiset_semantics() {
        let a = vk(4, &[9, 9, 5, 2]);
        let b = vk(4, &[9, 5, 5, 2]);
        assert_eq!(a.multiset_intersection_size(&b), 3); // one 9, one 5, one 2
    }

    #[test]
    fn precision_is_fraction_of_truth_recovered() {
        let truth = vk(4, &[100, 90, 80, 70]);
        let exact = vk(4, &[100, 90, 80, 70]);
        let half = vk(4, &[100, 90, 3, 2]);
        assert_eq!(exact.precision_against(&truth).unwrap(), 1.0);
        assert_eq!(half.precision_against(&truth).unwrap(), 0.5);
    }

    #[test]
    fn precision_rejects_mismatched_k() {
        let a = vk(3, &[3, 2, 1]);
        let b = vk(4, &[4, 3, 2, 1]);
        assert!(matches!(
            a.precision_against(&b),
            Err(DomainError::MismatchedK { .. })
        ));
    }

    #[test]
    fn with_randomized_tail_copies_prefix() {
        let g_prev = vk(6, &[90, 80, 70, 60, 50, 40]);
        let tail = vec![Value::new(55), Value::new(45), Value::new(58)];
        let out = TopKVector::with_randomized_tail(&g_prev, 3, tail).unwrap();
        assert_eq!(out.get(1), Some(Value::new(90)));
        assert_eq!(out.get(3), Some(Value::new(70)));
        // Tail sorted descending.
        assert_eq!(
            &out.as_slice()[3..],
            &[Value::new(58), Value::new(55), Value::new(45)]
        );
    }

    #[test]
    fn with_randomized_tail_full_replacement() {
        let g_prev = vk(3, &[30, 20, 10]);
        let tail = vec![Value::new(25), Value::new(15), Value::new(28)];
        let out = TopKVector::with_randomized_tail(&g_prev, 3, tail).unwrap();
        assert_eq!(
            out.as_slice(),
            &[Value::new(28), Value::new(25), Value::new(15)]
        );
    }

    #[test]
    fn with_randomized_tail_rejects_bad_m() {
        let g_prev = vk(3, &[30, 20, 10]);
        assert!(TopKVector::with_randomized_tail(&g_prev, 2, vec![Value::new(1)]).is_err());
        assert!(TopKVector::with_randomized_tail(&g_prev, 4, vec![Value::new(1); 4]).is_err());
    }

    #[test]
    fn with_randomized_tail_from_drains_and_reuses_buffer() {
        let g_prev = vk(4, &[90, 80, 70, 60]);
        let mut tail = vec![Value::new(65), Value::new(75)];
        let out = TopKVector::with_randomized_tail_from(&g_prev, 2, &mut tail).unwrap();
        assert_eq!(
            out.as_slice(),
            &[
                Value::new(90),
                Value::new(80),
                Value::new(75),
                Value::new(65)
            ]
        );
        assert!(tail.is_empty(), "tail scratch is drained for the next hop");
        // A failed call leaves the scratch intact.
        tail.push(Value::new(1));
        assert!(TopKVector::with_randomized_tail_from(&g_prev, 2, &mut tail).is_err());
        assert_eq!(tail, vec![Value::new(1)]);
        // The owning wrapper produces the identical vector.
        let owned =
            TopKVector::with_randomized_tail(&g_prev, 2, vec![Value::new(65), Value::new(75)])
                .unwrap();
        assert_eq!(owned, out);
    }

    #[test]
    fn display_formats_as_list() {
        let v = vk(3, &[3, 2, 1]);
        assert_eq!(v.to_string(), "[3, 2, 1]");
    }

    #[test]
    fn iteration_is_descending() {
        let v = vk(4, &[1, 9, 4, 6]);
        let collected: Vec<i64> = v.iter().map(Value::get).collect();
        assert_eq!(collected, vec![9, 6, 4, 1]);
    }

    #[test]
    fn from_sorted_roundtrip() {
        let v = TopKVector::from_sorted(vec![Value::new(5), Value::new(3)]).unwrap();
        assert_eq!(v.k(), 2);
        assert_eq!(v.into_values(), vec![Value::new(5), Value::new(3)]);
    }

    #[test]
    fn from_sorted_rejects_empty() {
        assert_eq!(
            TopKVector::from_sorted(Vec::new()).unwrap_err(),
            DomainError::ZeroK
        );
    }
}
