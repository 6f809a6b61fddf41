//! Property-based tests for the core protocol crate.

use privtopk_core::local::{max_step, topk_step, LocalAction};
use privtopk_core::{
    BatchMessage, ProtocolConfig, RoundPolicy, Schedule, SimulationEngine, MAX_BATCH_ENTRIES,
};
use privtopk_domain::rng::seeded_rng;
use privtopk_domain::{TopKVector, Value, ValueDomain};
use privtopk_ring::wire::{decode_from_bytes, decode_from_slice, encode_to_bytes};
use proptest::prelude::*;

fn domain() -> ValueDomain {
    ValueDomain::paper_default()
}

fn arb_vals(len: usize) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(1i64..=10_000, 1..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Equation 2 invariants for every schedule: probabilities are valid,
    /// non-increasing, and (except for Constant/Never edge cases) decay.
    #[test]
    fn schedules_are_monotone_probabilities(
        p0 in 0.01f64..=1.0,
        d in 0.01f64..=1.0,
        step in 0.01f64..=1.0,
        c in 0.0f64..1.0,
    ) {
        let schedules = [
            Schedule::exponential(p0, d).unwrap(),
            Schedule::linear(p0, step).unwrap(),
            Schedule::constant(c).unwrap(),
            Schedule::Never,
        ];
        for s in schedules {
            let mut prev = 1.0f64;
            for r in 1..=30 {
                let p = s.probability(r);
                prop_assert!((0.0..=1.0).contains(&p), "{s}: p({r}) = {p}");
                prop_assert!(p <= prev + 1e-12, "{s} increased at round {r}");
                prev = p;
            }
        }
    }

    /// Algorithm 1 case analysis is exhaustive and correct for arbitrary
    /// inputs: output is max-bounded, monotone, and the action labels
    /// match the arithmetic.
    #[test]
    fn max_step_case_analysis(
        incoming in 1i64..=10_000,
        own in 1i64..=10_000,
        prob in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = seeded_rng(seed);
        let s = max_step(
            &mut rng,
            prob,
            Value::new(incoming),
            Value::new(own),
            &domain(),
        )
        .unwrap();
        prop_assert!(s.output >= Value::new(incoming), "monotone");
        prop_assert!(s.output <= Value::new(incoming.max(own)), "bounded");
        match s.action {
            LocalAction::PassedOn => prop_assert!(incoming >= own),
            LocalAction::InsertedReal => {
                prop_assert!(own > incoming);
                prop_assert_eq!(s.output, Value::new(own));
            }
            LocalAction::Randomized => {
                prop_assert!(own > incoming);
                prop_assert!(s.output < Value::new(own));
            }
        }
    }

    /// Algorithm 2 output invariants for arbitrary vectors: sorted, the
    /// correct k, never exceeding the true merged top-k element-wise, and
    /// the randomized branch never exposes a contributing value.
    #[test]
    fn topk_step_structural_invariants(
        (g_vals, v_vals, k, prob, delta, seed) in (1usize..5).prop_flat_map(|k| {
            (arb_vals(8), arb_vals(8), Just(k), 0.0f64..=1.0, 1u64..500, any::<u64>())
        })
    ) {
        let d = domain();
        let g = TopKVector::from_values(k, g_vals.iter().map(|&x| Value::new(x)), &d).unwrap();
        let v = TopKVector::from_values(k, v_vals.iter().map(|&x| Value::new(x)), &d).unwrap();
        let merged = g.merged_with(&v);
        let mut rng = seeded_rng(seed);
        let s = topk_step(&mut rng, prob, &g, &v, false, delta, &d).unwrap();
        prop_assert_eq!(s.output.k(), k);
        let slice = s.output.as_slice();
        prop_assert!(slice.windows(2).all(|w| w[0] >= w[1]), "sorted");
        for rank in 1..=k {
            prop_assert!(
                s.output.get(rank).unwrap() <= merged.get(rank).unwrap(),
                "rank {rank} exceeds the true merge"
            );
        }
        if s.action == LocalAction::Randomized {
            // The contribution (what the node would have newly revealed)
            // must be absent from the randomized output above the real
            // kth value.
            let contribution = merged.multiset_subtract(&g);
            let kth_real = merged.kth();
            for c in contribution {
                if c > kth_real {
                    prop_assert!(
                        !s.output.contains(c),
                        "randomized output leaked contributing value {c}"
                    );
                }
            }
        }
    }

    /// Insert-once: once flagged, the step is a pure pass-through no
    /// matter the probability or data.
    #[test]
    fn flagged_nodes_are_pure_forwarders(
        (g_vals, v_vals, k, prob, seed) in (1usize..4).prop_flat_map(|k| {
            (arb_vals(6), arb_vals(6), Just(k), 0.0f64..=1.0, any::<u64>())
        })
    ) {
        let d = domain();
        let g = TopKVector::from_values(k, g_vals.iter().map(|&x| Value::new(x)), &d).unwrap();
        let v = TopKVector::from_values(k, v_vals.iter().map(|&x| Value::new(x)), &d).unwrap();
        let mut rng = seeded_rng(seed);
        let s = topk_step(&mut rng, prob, &g, &v, true, 1, &d).unwrap();
        prop_assert_eq!(s.output, g);
        prop_assert_eq!(s.action, LocalAction::PassedOn);
        prop_assert!(s.has_inserted);
    }

    /// The full engine respects the round policy exactly: a fixed-round
    /// run has exactly n*r steps and every round appears.
    #[test]
    fn engine_shape_matches_policy(
        (n, r, seed) in (3usize..7, 1u32..6, any::<u64>())
    ) {
        let values: Vec<Value> = (0..n).map(|i| Value::new((i as i64 * 131) % 9999 + 1)).collect();
        let engine = SimulationEngine::new(
            ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(r)),
        );
        let t = engine.run_values(&values, seed).unwrap();
        prop_assert_eq!(t.rounds(), r);
        prop_assert_eq!(t.message_count(), n * r as usize);
        for round in 1..=r {
            prop_assert_eq!(t.steps_in_round(round).count(), n);
        }
    }

    /// Every node acts exactly once per round, at its ring position.
    #[test]
    fn every_node_acts_once_per_round(
        (n, seed) in (3usize..8, any::<u64>())
    ) {
        let values: Vec<Value> = (0..n).map(|i| Value::new((i as i64 * 97) % 9999 + 1)).collect();
        let engine = SimulationEngine::new(
            ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(4)),
        );
        let t = engine.run_values(&values, seed).unwrap();
        for round in 1..=4 {
            let mut seen: Vec<usize> = t
                .steps_in_round(round)
                .map(|s| s.node.get())
                .collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    /// Token continuity: each step's incoming equals the previous step's
    /// outgoing (within and across rounds).
    #[test]
    fn token_chains_across_steps(
        (n, seed) in (3usize..7, any::<u64>())
    ) {
        let values: Vec<Value> = (0..n).map(|i| Value::new((i as i64 * 211) % 9999 + 1)).collect();
        let engine = SimulationEngine::new(
            ProtocolConfig::topk(1).with_rounds(RoundPolicy::Fixed(5)),
        );
        let locals: Vec<TopKVector> = values
            .iter()
            .map(|&v| TopKVector::from_values(1, [v], &domain()).unwrap())
            .collect();
        let t = engine.run(&locals, seed).unwrap();
        let steps = t.steps();
        for w in steps.windows(2) {
            prop_assert_eq!(&w[1].incoming, &w[0].outgoing);
        }
    }

    /// Batched wire frames are lossless: encode → decode is the identity
    /// for arbitrary batch widths, ks, round labels, and payloads, through
    /// both the owned-frame and zero-copy slice decoders.
    #[test]
    fn batch_message_roundtrips(
        (k, b, round, seed) in (1usize..4, 1usize..=40, any::<u32>(), any::<u64>())
    ) {
        let d = domain();
        let mut rng = seeded_rng(seed);
        let vectors: Vec<TopKVector> = (0..b)
            .map(|_| {
                let vals =
                    (0..k).map(|_| Value::new(rand::Rng::gen_range(&mut rng, 1i64..=10_000)));
                TopKVector::from_values(k, vals, &d).unwrap()
            })
            .collect();
        let tokens = BatchMessage::Tokens { round, vectors: vectors.clone() };
        let frame = encode_to_bytes(&tokens);
        prop_assert_eq!(decode_from_bytes::<BatchMessage>(&frame).unwrap(), tokens.clone());
        prop_assert_eq!(decode_from_slice::<BatchMessage>(frame.as_ref()).unwrap(), tokens);

        let finished = BatchMessage::Finished { vectors };
        let frame = encode_to_bytes(&finished);
        prop_assert_eq!(decode_from_bytes::<BatchMessage>(&frame).unwrap(), finished);
    }

    /// Truncating a batch frame anywhere never panics and never yields a
    /// valid message — decode either errors or (full length) roundtrips.
    #[test]
    fn truncated_batch_frames_never_decode(
        (b, cut_seed) in (1usize..=8, any::<u64>())
    ) {
        let d = domain();
        let v = TopKVector::from_values(2, [Value::new(9), Value::new(3)], &d).unwrap();
        let msg = BatchMessage::Tokens { round: 2, vectors: vec![v; b] };
        let frame = encode_to_bytes(&msg);
        let cut = (cut_seed as usize) % frame.len();
        prop_assert!(decode_from_slice::<BatchMessage>(&frame[..cut]).is_err());
    }
}

#[test]
fn zero_entry_batch_frames_are_rejected() {
    // Hand-craft compact frames with a zero entry count: structurally
    // decodable, semantically forbidden.
    for tag in [8u8, 9u8] {
        let mut buf = bytes::BytesMut::new();
        bytes::BufMut::put_u8(&mut buf, tag);
        if tag == 8 {
            bytes::BufMut::put_u8(&mut buf, 1); // varint round (Tokens only)
        }
        bytes::BufMut::put_u8(&mut buf, 0); // varint entry count: zero
        assert!(
            decode_from_slice::<BatchMessage>(buf.as_ref()).is_err(),
            "tag {tag} accepted an empty batch"
        );
    }
}

#[test]
fn over_cap_batch_frames_are_rejected() {
    let d = domain();
    let v = TopKVector::from_values(1, [Value::new(1)], &d).unwrap();
    let at_cap = BatchMessage::Finished {
        vectors: vec![v.clone(); MAX_BATCH_ENTRIES],
    };
    let frame = encode_to_bytes(&at_cap);
    assert!(decode_from_bytes::<BatchMessage>(&frame).is_ok());
    let over = BatchMessage::Finished {
        vectors: vec![v; MAX_BATCH_ENTRIES + 1],
    };
    let frame = encode_to_bytes(&over);
    assert!(decode_from_bytes::<BatchMessage>(&frame).is_err());
}
