//! Protocol execution cost: scaling in `n`, `k`, and protocol kind.
//!
//! Backs the Section 4.2 efficiency analysis: per-round cost is linear in
//! `n`, the round count is independent of `n`, and the probabilistic
//! protocol costs only a small constant factor over the naive baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use privtopk_bench::bench_locals;
use privtopk_core::{ProtocolConfig, RoundPolicy, SimulationEngine};
use privtopk_datagen::DatasetBuilder;
use privtopk_domain::TopKVector;

fn bench_max_vs_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_protocol_vs_n");
    for n in [4usize, 16, 64, 256] {
        let locals = bench_locals(n, 1, 7);
        let engine = SimulationEngine::new(
            ProtocolConfig::max().with_rounds(RoundPolicy::Precision { epsilon: 1e-6 }),
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &locals, |b, locals| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                engine.run(locals, seed).expect("valid run")
            });
        });
    }
    group.finish();
}

fn bench_topk_vs_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_protocol_vs_k");
    for k in [1usize, 4, 16, 64] {
        let locals = bench_locals(8, k, 11);
        let engine = SimulationEngine::new(
            ProtocolConfig::topk(k).with_rounds(RoundPolicy::Precision { epsilon: 1e-6 }),
        );
        group.bench_with_input(BenchmarkId::from_parameter(k), &locals, |b, locals| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                engine.run(locals, seed).expect("valid run")
            });
        });
    }
    group.finish();
}

fn bench_protocol_kinds(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_kind");
    let locals = bench_locals(16, 4, 3);
    let configs = [
        ("naive", ProtocolConfig::naive(4)),
        ("anonymous_naive", ProtocolConfig::anonymous_naive(4)),
        (
            "probabilistic",
            ProtocolConfig::topk(4).with_rounds(RoundPolicy::Precision { epsilon: 1e-6 }),
        ),
    ];
    for (name, config) in configs {
        let engine = SimulationEngine::new(config);
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                engine.run(&locals, seed).expect("valid run")
            });
        });
    }
    group.finish();
}

/// The local step every query compiles per member: one column of 10⁴
/// uniform rows into its top-k vector.
fn bench_local_topk_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_topk_compile");
    let db = DatasetBuilder::new(1)
        .rows_per_node(10_000)
        .seed(5)
        .build()
        .expect("valid benchmark dataset")
        .remove(0);
    let domain = db.domain();
    for k in [1usize, 8, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                TopKVector::from_values(k, db.sensitive_values(), &domain).expect("in domain")
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_max_vs_n,
    bench_topk_vs_k,
    bench_protocol_kinds,
    bench_local_topk_compile
);
criterion_main!(benches);
