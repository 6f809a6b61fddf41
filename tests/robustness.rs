//! Integration tests: failure handling, adversarial frames, and pipeline
//! robustness across crates.

use bytes::Bytes;
use privtopk::knn::{centralized_knn, KnnConfig, LabeledPoint, PrivateKnnClassifier};
use privtopk::prelude::*;
use privtopk::ring::wire::{decode_from_bytes, get_topk_compact};
use privtopk::ring::RingTopology;
use proptest::prelude::*;

/// A node fails mid-deployment: the ring is reconstructed by connecting
/// its predecessor and successor, and the query re-runs correctly over
/// the survivors.
#[test]
fn ring_reconstruction_after_failure() {
    let domain = ValueDomain::paper_default();
    let dbs = DatasetBuilder::new(6)
        .rows_per_node(5)
        .seed(8)
        .build()
        .unwrap();
    let mut topo = RingTopology::identity(6).unwrap();

    // Node 2 fails.
    topo.remove_node(NodeId::new(2)).unwrap();
    assert_eq!(topo.len(), 5);
    assert_eq!(topo.successor_of(NodeId::new(1)).unwrap(), NodeId::new(3));

    // The survivors re-run the query over their own data.
    let survivors: Vec<TopKVector> = topo
        .order()
        .iter()
        .map(|id| dbs[id.get()].local_topk(2).unwrap())
        .collect();
    let truth = true_topk(&survivors, 2, &domain).unwrap();
    let engine = SimulationEngine::new(
        ProtocolConfig::topk(2).with_rounds(RoundPolicy::Precision { epsilon: 1e-9 }),
    );
    let t = engine.run(&survivors, 123).unwrap();
    assert_eq!(t.result(), &truth);
}

/// Per-round ring remapping (the Section 4.3 collusion mitigation) leaves
/// correctness untouched.
#[test]
fn remapping_preserves_correctness() {
    let engine = SimulationEngine::new(
        ProtocolConfig::topk(3)
            .with_remap_each_round(true)
            .with_rounds(RoundPolicy::Precision { epsilon: 1e-9 }),
    );
    for seed in 0..20 {
        let locals = DatasetBuilder::new(8)
            .rows_per_node(4)
            .seed(seed)
            .build_local_topk(3)
            .unwrap();
        let truth = true_topk(&locals, 3, &ValueDomain::paper_default()).unwrap();
        let t = engine.run(&locals, seed).unwrap();
        assert_eq!(t.result(), &truth, "seed {seed}");
    }
}

/// Remapping measurably reduces how often the same pair of neighbors
/// sandwiches a given node (the collusion surface).
#[test]
fn remapping_rotates_neighbors() {
    let engine_fixed =
        SimulationEngine::new(ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(8)));
    let engine_remap = SimulationEngine::new(
        ProtocolConfig::max()
            .with_remap_each_round(true)
            .with_rounds(RoundPolicy::Fixed(8)),
    );
    let values: Vec<Value> = (1..=8).map(|i| Value::new(i * 100)).collect();
    let distinct_neighbor_sets = |t: &Transcript| {
        let mut sets = std::collections::HashSet::new();
        for r in 1..=t.rounds() {
            let order = t.ring_order(r).unwrap();
            let n = order.len();
            if let Some(pos) = order.iter().position(|&x| x == NodeId::new(0)) {
                sets.insert((order[(pos + n - 1) % n], order[(pos + 1) % n]));
            }
        }
        sets.len()
    };
    let fixed = engine_fixed.run_values(&values, 3).unwrap();
    let remapped = engine_remap.run_values(&values, 3).unwrap();
    assert_eq!(distinct_neighbor_sets(&fixed), 1);
    assert!(distinct_neighbor_sets(&remapped) > 1);
}

/// The private kNN classifier agrees with the centralized reference over
/// a grid of queries — end-to-end across four crates.
#[test]
fn knn_end_to_end_agreement() {
    use privtopk::domain::rng::seeded_rng;
    use rand::Rng;
    let mut rng = seeded_rng(99);
    let shards: Vec<Vec<LabeledPoint>> = (0..4)
        .map(|_| {
            (0..15)
                .map(|_| {
                    let label = usize::from(rng.gen_bool(0.4));
                    let c = if label == 0 { 0.0 } else { 3.0 };
                    LabeledPoint::new(
                        vec![c + rng.gen_range(-1.5..1.5), c + rng.gen_range(-1.5..1.5)],
                        label,
                    )
                })
                .collect()
        })
        .collect();
    let flat: Vec<LabeledPoint> = shards.iter().flatten().cloned().collect();
    let config = KnnConfig::new(5);
    let clf = PrivateKnnClassifier::new(config, shards).unwrap();
    for i in 0..30 {
        let q = [rng.gen_range(-1.0..4.0), rng.gen_range(-1.0..4.0)];
        assert_eq!(
            clf.classify(&q, i).unwrap(),
            centralized_knn(&flat, &q, &config),
            "query {q:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding arbitrary adversarial bytes as a protocol message never
    /// panics — it either parses or errors cleanly.
    #[test]
    fn wire_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let frame = Bytes::from(bytes);
        let _ = decode_from_bytes::<privtopk::core::TokenMessage>(&frame);
        let _ = decode_from_bytes::<privtopk::core::BatchMessage>(&frame);
        let _ = decode_from_bytes::<privtopk::core::SlotMessage>(&frame);
        let mut buf: &[u8] = frame.as_ref();
        let _ = get_topk_compact(&mut buf);
    }
}
