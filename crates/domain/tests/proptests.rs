//! Property-based tests for the domain foundation types.

use privtopk_domain::rng::{derive_seed, seeded_rng};
use privtopk_domain::{DomainError, PrivacySpectrum, TopKVector, Value, ValueDomain};
use proptest::prelude::*;

fn arb_domain() -> impl Strategy<Value = ValueDomain> {
    (-10_000i64..10_000, 0i64..20_000).prop_map(|(min, width)| {
        ValueDomain::new(Value::new(min), Value::new(min + width)).expect("non-empty")
    })
}

fn arb_values(domain: ValueDomain, max_len: usize) -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(
        (domain.min().get()..=domain.max().get()).prop_map(Value::new),
        0..max_len,
    )
}

/// The collect-sort-truncate-pad construction `from_values` replaced,
/// kept as the reference its bounded selection must match exactly.
fn full_sort_reference(
    k: usize,
    values: &[Value],
    domain: &ValueDomain,
) -> Result<Vec<Value>, DomainError> {
    if k == 0 {
        return Err(DomainError::ZeroK);
    }
    let mut vs = Vec::new();
    for &v in values {
        if !domain.contains(v) {
            return Err(DomainError::OutOfDomain { value: v });
        }
        vs.push(v);
    }
    vs.sort_unstable_by(|a, b| b.cmp(a));
    vs.truncate(k);
    while vs.len() < k {
        vs.push(domain.min());
    }
    Ok(vs)
}

/// Column lengths for the reference check: anywhere in `0..4096`, or
/// pinned near the `k`, `2k` and `4k` points where the selection buffer
/// first fills and compacts.
fn arb_len(k: usize) -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..4096,
        (0usize..3).prop_map(move |d| (k + d).saturating_sub(1)),
        (0usize..3).prop_map(move |d| (2 * k + d).saturating_sub(1)),
        (0usize..3).prop_map(move |d| (4 * k + d).saturating_sub(1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn from_values_matches_full_sort_reference(
        (domain, mut values, k) in (arb_domain(), 1usize..=64, any::<bool>()).prop_flat_map(
            |(d, k, duplicates)| {
                // Heavy duplicates: every value from a 3-wide range (or
                // the whole domain when it is narrower than that).
                let (lo, hi) = (d.min().get(), d.max().get());
                let hi = if duplicates { hi.min(lo + 2) } else { hi };
                let values = arb_len(k).prop_flat_map(move |len| {
                    prop::collection::vec((lo..=hi).prop_map(Value::new), len)
                });
                (Just(d), values, Just(k))
            }
        ),
        bad in prop::option::of((any::<u64>(), any::<bool>())),
    ) {
        if let Some((at, above)) = bad {
            // One out-of-domain value at a random position, on either side.
            let outside = if above {
                Value::new(domain.max().get() + 1)
            } else {
                Value::new(domain.min().get() - 1)
            };
            let at = at as usize % (values.len() + 1);
            values.insert(at, outside);
        }
        let expected = full_sort_reference(k, &values, &domain);
        let got = TopKVector::from_values(k, values.iter().copied(), &domain);
        prop_assert_eq!(got.map(TopKVector::into_values), expected);
    }
}

proptest! {
    #[test]
    fn topk_vector_is_always_sorted_descending(
        (domain, values, k) in arb_domain().prop_flat_map(|d| {
            (Just(d), arb_values(d, 32), 1usize..8)
        })
    ) {
        let v = TopKVector::from_values(k, values, &domain).unwrap();
        prop_assert_eq!(v.k(), k);
        let s = v.as_slice();
        prop_assert!(s.windows(2).all(|w| w[0] >= w[1]));
        prop_assert!(s.iter().all(|&x| domain.contains(x)));
    }

    #[test]
    fn merge_is_commutative_on_equal_k(
        (domain, a, b, k) in arb_domain().prop_flat_map(|d| {
            (Just(d), arb_values(d, 16), arb_values(d, 16), 1usize..6)
        })
    ) {
        let va = TopKVector::from_values(k, a, &domain).unwrap();
        let vb = TopKVector::from_values(k, b, &domain).unwrap();
        prop_assert_eq!(va.merged_with(&vb), vb.merged_with(&va));
    }

    #[test]
    fn self_merge_duplicates_each_element(
        (domain, a, k) in arb_domain().prop_flat_map(|d| {
            (Just(d), arb_values(d, 16), 1usize..6)
        })
    ) {
        // Multiset-union semantics: merging a vector with itself doubles the
        // multiplicity of every element, so rank r of the merge equals rank
        // ceil(r/2) of the original. (This is why Algorithm 2's inputs are
        // disjoint data sources — duplicates are real data items.)
        let va = TopKVector::from_values(k, a, &domain).unwrap();
        let merged = va.merged_with(&va);
        for rank in 1..=k {
            prop_assert_eq!(merged.get(rank), va.get(rank.div_ceil(2)));
        }
    }

    #[test]
    fn merge_dominates_both_operands(
        (domain, a, b, k) in arb_domain().prop_flat_map(|d| {
            (Just(d), arb_values(d, 16), arb_values(d, 16), 1usize..6)
        })
    ) {
        let va = TopKVector::from_values(k, a, &domain).unwrap();
        let vb = TopKVector::from_values(k, b, &domain).unwrap();
        let merged = va.merged_with(&vb);
        // Element-wise, the merged vector dominates each operand.
        for rank in 1..=k {
            prop_assert!(merged.get(rank).unwrap() >= va.get(rank).unwrap());
            prop_assert!(merged.get(rank).unwrap() >= vb.get(rank).unwrap());
        }
    }

    #[test]
    fn subtract_then_count_adds_up(
        (domain, a, b, k) in arb_domain().prop_flat_map(|d| {
            (Just(d), arb_values(d, 16), arb_values(d, 16), 1usize..6)
        })
    ) {
        let va = TopKVector::from_values(k, a, &domain).unwrap();
        let vb = TopKVector::from_values(k, b, &domain).unwrap();
        let diff = va.multiset_subtract(&vb);
        let inter = va.multiset_intersection_size(&vb);
        prop_assert_eq!(diff.len() + inter, k);
    }

    #[test]
    fn merge_into_matches_reference_merge(
        (domain, a, b, k) in arb_domain().prop_flat_map(|d| {
            (Just(d), arb_values(d, 16), arb_values(d, 16), 1usize..6)
        })
    ) {
        let va = TopKVector::from_values(k, a, &domain).unwrap();
        let vb = TopKVector::from_values(k, b, &domain).unwrap();
        // Reference: multiset union via concatenate-sort-truncate.
        let mut reference: Vec<Value> = va.iter().chain(vb.iter()).collect();
        reference.sort_unstable_by(|x, y| y.cmp(x));
        reference.truncate(k);
        let mut out = vec![Value::new(0); 3]; // stale content must be cleared
        let m = va.merge_into(&vb, &mut out);
        prop_assert_eq!(&out, &reference);
        let merged = va.merged_with(&vb);
        prop_assert_eq!(merged.as_slice(), &out[..]);
        // The returned count is the contribution size of Algorithm 2.
        prop_assert_eq!(m, merged.multiset_subtract(&va).len());
    }

    #[test]
    fn subtract_into_matches_scan_and_remove_reference(
        (domain, a, b, k) in arb_domain().prop_flat_map(|d| {
            (Just(d), arb_values(d, 16), arb_values(d, 16), 1usize..6)
        })
    ) {
        let va = TopKVector::from_values(k, a, &domain).unwrap();
        let vb = TopKVector::from_values(k, b, &domain).unwrap();
        // Reference: the quadratic scan-and-remove the two-pointer sweep
        // replaced.
        let mut remaining: Vec<Value> = vb.iter().collect();
        let mut reference = Vec::new();
        for v in va.iter() {
            if let Some(pos) = remaining.iter().position(|&x| x == v) {
                remaining.remove(pos);
            } else {
                reference.push(v);
            }
        }
        prop_assert_eq!(va.multiset_subtract(&vb), reference);
    }

    #[test]
    fn precision_is_symmetric_and_bounded(
        (domain, a, b, k) in arb_domain().prop_flat_map(|d| {
            (Just(d), arb_values(d, 16), arb_values(d, 16), 1usize..6)
        })
    ) {
        let va = TopKVector::from_values(k, a, &domain).unwrap();
        let vb = TopKVector::from_values(k, b, &domain).unwrap();
        let p_ab = va.precision_against(&vb).unwrap();
        let p_ba = vb.precision_against(&va).unwrap();
        prop_assert!((p_ab - p_ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&p_ab));
        prop_assert!((va.precision_against(&va).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_open_sampling_never_hits_upper_bound(
        (lo, width, seed) in (-1000i64..1000, 1i64..500, any::<u64>())
    ) {
        let domain = ValueDomain::new(Value::new(-2000), Value::new(2000)).unwrap();
        let mut rng = seeded_rng(seed);
        let v = domain
            .sample_half_open(&mut rng, Value::new(lo), Value::new(lo + width))
            .unwrap();
        prop_assert!(v.get() >= lo);
        prop_assert!(v.get() < lo + width);
    }

    #[test]
    fn derive_seed_is_injective_in_stream(base in any::<u64>(), s1 in 0u64..10_000, s2 in 0u64..10_000) {
        prop_assume!(s1 != s2);
        prop_assert_ne!(derive_seed(base, s1), derive_seed(base, s2));
    }

    #[test]
    fn spectrum_is_monotone_in_probability(
        (p1, p2, n) in (0.0f64..=1.0, 0.0f64..=1.0, 1usize..100)
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let c_lo = PrivacySpectrum::classify(lo, n);
        let c_hi = PrivacySpectrum::classify(hi, n);
        prop_assert!(c_lo <= c_hi);
    }
}
