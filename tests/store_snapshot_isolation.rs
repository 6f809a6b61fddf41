//! Snapshot isolation: a standing service answering queries while a
//! writer thread floods the underlying stores must behave exactly as
//! if the data were frozen at worker setup.
//!
//! The service acquires one epoch-stamped snapshot per node when it
//! starts; everything a concurrent writer does afterwards lands in the
//! stores but not in those views. The tests pin that down two ways:
//! transcript bit-identity against a frozen-copy run of the same
//! workload, and epoch stability of the snapshots themselves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use privtopk::core::derive_batch_seed;
use privtopk::core::distributed::NetworkKind;
use privtopk::core::service::ServiceRuntime;
use privtopk::domain::rng::SeedSpec;
use privtopk::prelude::*;
use privtopk::store::StoreSnapshot;

const NODES: usize = 5;
const ROWS: usize = 400;
const K: usize = 4;
const QUERIES: u64 = 40;
const SEED: u64 = 90_210;

/// Builds `NODES` on-disk stores under a scratch dir, streaming in the
/// standard synthetic dataset.
fn build_stores(tag: &str) -> (std::path::PathBuf, Vec<Arc<NodeStore>>) {
    let root = std::env::temp_dir().join(format!(
        "privtopk-test-snapiso-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let domain = ValueDomain::paper_default();
    let builder = DatasetBuilder::new(NODES)
        .rows_per_node(ROWS)
        .distribution(DataDistribution::classic_zipf())
        .domain(domain)
        .seed(SEED);
    let mut stores = Vec::with_capacity(NODES);
    for i in 0..NODES {
        let store = NodeStore::create(&root.join(format!("node{i}")), domain).unwrap();
        store
            .insert_many(builder.node_value_stream(i).unwrap())
            .unwrap();
        stores.push(Arc::new(store));
    }
    (root, stores)
}

/// Spawns a thread that hammers the stores with round-robin inserts
/// until told to stop; returns (handle, stop flag).
fn spawn_writer(
    stores: &[Arc<NodeStore>],
    stream: u64,
) -> (std::thread::JoinHandle<u64>, Arc<AtomicBool>) {
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stores: Vec<Arc<NodeStore>> = stores.to_vec();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            use rand::Rng;
            let domain = stores[0].domain();
            let mut rng = SeedSpec::new(SEED).stream(stream).rng();
            let mut wrote = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let v = Value::new(rng.gen_range(domain.as_range()));
                stores[wrote as usize % stores.len()].insert(v).unwrap();
                wrote += 1;
            }
            wrote
        })
    };
    (handle, stop)
}

/// The named gate from the issue: every transcript produced while a
/// writer races the service is bit-identical to the run over frozen
/// copies of the snapshots taken at worker setup.
#[test]
fn store_snapshot_isolation() {
    let (root, stores) = build_stores("main");

    // Freeze the per-node views the service will serve from, and keep
    // an independent clone of their contents as the oracle.
    let snapshots: Vec<Arc<StoreSnapshot>> = stores
        .iter()
        .map(|s| s.snapshot_for_k(K).unwrap())
        .collect();
    let frozen_locals: Vec<TopKVector> =
        snapshots.iter().map(|s| s.local_topk(K).unwrap()).collect();
    let epochs: Vec<u64> = snapshots.iter().map(|s| s.epoch()).collect();

    let config = ProtocolConfig::topk(K)
        .with_schedule(Schedule::paper_default())
        .with_rounds(RoundPolicy::Precision { epsilon: 0.01 });
    let workload: Vec<(ProtocolConfig, u64)> = (0..QUERIES)
        .map(|i| (config.clone(), derive_batch_seed(SEED, i)))
        .collect();

    // Race: writer thread flooding the stores while the service runs
    // the whole workload from its snapshots. The workload starts once
    // every store has moved past its held snapshot: an in-memory ring
    // can answer all of it before the writer thread is first scheduled.
    let (writer, stop) = spawn_writer(&stores, 0xACE);
    while stores
        .iter()
        .zip(&epochs)
        .any(|(store, &epoch)| store.stats().generation <= epoch)
    {
        std::thread::yield_now();
    }
    let mut service =
        ServiceRuntime::start_from_sources(&snapshots, K, NetworkKind::InMemory, 4).unwrap();
    let raced = service.run_workload(&workload).unwrap();
    service.shutdown().unwrap();
    stop.store(true, Ordering::Relaxed);
    let wrote = writer.join().unwrap();
    assert!(wrote > 0, "writer thread never landed a row");

    // Frozen-copy run: a second service over plain vectors cloned from
    // the snapshots before the writer existed.
    let mut frozen_service =
        ServiceRuntime::start(&frozen_locals, NetworkKind::InMemory, 4).unwrap();
    let frozen = frozen_service.run_workload(&workload).unwrap();
    frozen_service.shutdown().unwrap();

    assert_eq!(raced.len(), frozen.len());
    for (i, (raced, frozen)) in raced.iter().zip(&frozen).enumerate() {
        assert_eq!(
            raced.transcript, frozen.transcript,
            "query {i}: transcript under concurrent writes diverged from frozen run"
        );
        assert_eq!(
            raced.per_node_results, frozen.per_node_results,
            "query {i}: results under concurrent writes diverged from frozen run"
        );
    }

    // The held snapshots are immutable views: same epoch, same answer,
    // even though the stores have visibly moved on.
    for (i, (snap, store)) in snapshots.iter().zip(&stores).enumerate() {
        assert_eq!(snap.epoch(), epochs[i], "node {i} snapshot epoch moved");
        assert_eq!(
            snap.local_topk(K).unwrap(),
            frozen_locals[i],
            "node {i} snapshot answer moved"
        );
        assert!(
            store.stats().generation > epochs[i],
            "node {i} store should have advanced past the held snapshot"
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}

/// Re-acquiring snapshots after the writes *does* observe them — the
/// isolation above comes from the held epoch, not from writes being
/// lost.
#[test]
fn fresh_snapshots_observe_concurrent_writes() {
    let (root, stores) = build_stores("fresh");
    let before: Vec<Arc<StoreSnapshot>> = stores
        .iter()
        .map(|s| s.snapshot_for_k(K).unwrap())
        .collect();

    let (writer, stop) = spawn_writer(&stores, 0xBEE);
    while stores[0].stats().rows < ROWS as u64 + 50 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let wrote = writer.join().unwrap();

    let mut advanced = 0;
    for (snap, store) in before.iter().zip(&stores) {
        let after = store.snapshot_for_k(K).unwrap();
        assert_eq!(
            after.rows(),
            snap.rows() + (store.stats().rows - ROWS as u64),
            "fresh snapshot must count every landed write"
        );
        if after.epoch() > snap.epoch() {
            advanced += 1;
        }
    }
    assert_eq!(advanced, NODES, "every store took writes ({wrote} total)");

    let _ = std::fs::remove_dir_all(&root);
}
