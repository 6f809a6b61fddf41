//! Property-based tests for the ring substrate.

use bytes::BytesMut;
use privtopk_domain::rng::seeded_rng;
use privtopk_domain::{NodeId, TopKVector, Value, ValueDomain};
use privtopk_ring::trust::{coverage, trust_aware_arrangement, TrustGraph};
use privtopk_ring::wire::{get_topk_compact, put_topk_compact};
use privtopk_ring::RingTopology;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random topologies are permutations with consistent neighbor maps.
    #[test]
    fn topology_invariants(n in 1usize..50, seed in any::<u64>()) {
        let topo = RingTopology::random(n, &mut seeded_rng(seed)).unwrap();
        let mut ids: Vec<usize> = topo.order().iter().map(|x| x.get()).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n).collect::<Vec<_>>());
        for i in 0..n {
            let node = NodeId::new(i);
            prop_assert_eq!(
                topo.predecessor_of(topo.successor_of(node).unwrap()).unwrap(),
                node
            );
        }
    }

    /// Removing any node reconnects its neighbors and shrinks the ring.
    #[test]
    fn removal_reconnects(n in 2usize..30, victim in 0usize..30, seed in any::<u64>()) {
        prop_assume!(victim < n);
        let mut topo = RingTopology::random(n, &mut seeded_rng(seed)).unwrap();
        let node = NodeId::new(victim);
        let pred = topo.predecessor_of(node).unwrap();
        let succ = topo.successor_of(node).unwrap();
        topo.remove_node(node).unwrap();
        prop_assert_eq!(topo.len(), n - 1);
        if n > 2 {
            prop_assert_eq!(topo.successor_of(pred).unwrap(), succ);
        }
        prop_assert!(topo.position_of(node).is_err());
    }

    /// Group splitting partitions exactly, preserving order.
    #[test]
    fn group_split_partitions(n in 1usize..60, groups in 1usize..10, seed in any::<u64>()) {
        prop_assume!(groups <= n);
        let topo = RingTopology::random(n, &mut seeded_rng(seed)).unwrap();
        let parts = topo.split_into_groups(groups).unwrap();
        let flattened: Vec<NodeId> = parts.iter().flat_map(|p| p.order().to_vec()).collect();
        prop_assert_eq!(flattened, topo.order().to_vec());
        let sizes: Vec<usize> = parts.iter().map(RingTopology::len).collect();
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        prop_assert!(max - min <= 1, "balanced split");
    }

    /// TopKVector compact-codec roundtrip for arbitrary vectors.
    #[test]
    fn topk_vector_wire_roundtrip(
        vals in prop::collection::vec(1i64..=10_000, 0..20),
        k in 1usize..8,
    ) {
        let domain = ValueDomain::paper_default();
        let v = TopKVector::from_values(k, vals.into_iter().map(Value::new), &domain).unwrap();
        let mut buf = BytesMut::new();
        put_topk_compact(&mut buf, &v);
        let mut cursor = buf.as_ref();
        prop_assert_eq!(get_topk_compact(&mut cursor).unwrap(), v);
        prop_assert!(cursor.is_empty(), "decoder must consume the whole vector");
    }

    /// Trust-aware arrangements are permutations whose coverage never
    /// falls below... anything structurally invalid; and coverage is 1.0
    /// on complete graphs.
    #[test]
    fn trust_arrangement_structurally_sound(
        n in 1usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..40),
        seed in any::<u64>(),
    ) {
        let mut graph = TrustGraph::new(n);
        for (a, b) in edges {
            if a < n && b < n {
                graph.add_trust(NodeId::new(a), NodeId::new(b)).unwrap();
            }
        }
        let topo = trust_aware_arrangement(&graph, &mut seeded_rng(seed)).unwrap();
        let mut ids: Vec<usize> = topo.order().iter().map(|x| x.get()).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n).collect::<Vec<_>>());
        let cov = coverage(&topo, &graph).unwrap();
        prop_assert!(cov.covered <= cov.total);
    }
}
