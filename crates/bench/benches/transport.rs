//! Wire-codec and transport costs: encode/decode throughput and in-memory
//! vs TCP token circulation.

use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use privtopk_bench::bench_locals;
use privtopk_core::distributed::{run_distributed, NetworkKind};
use privtopk_core::{ProtocolConfig, RoundPolicy, TokenMessage};
use privtopk_domain::{NodeId, TopKVector, Value, ValueDomain};
use privtopk_ring::transport::{InMemoryNetwork, Transport};
use privtopk_ring::wire::{decode_from_bytes, encode_to_bytes};

fn sample_message(k: usize) -> TokenMessage {
    let domain = ValueDomain::paper_default();
    TokenMessage::Token {
        round: 3,
        vector: TopKVector::from_values(
            k,
            (1..=k as i64).map(|i| Value::new(i * 13 % 9000 + 1)),
            &domain,
        )
        .expect("valid vector"),
    }
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    for k in [1usize, 16, 256] {
        let msg = sample_message(k);
        group.bench_with_input(BenchmarkId::new("encode", k), &msg, |b, msg| {
            b.iter(|| encode_to_bytes(msg));
        });
        let frame = encode_to_bytes(&msg);
        group.bench_with_input(BenchmarkId::new("decode", k), &frame, |b, frame| {
            b.iter(|| decode_from_bytes::<TokenMessage>(frame).expect("valid frame"));
        });
    }
    group.finish();
}

fn bench_in_memory_ping(c: &mut Criterion) {
    c.bench_function("in_memory_send_recv", |b| {
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints();
        let payload = Bytes::from_static(b"token-token-token");
        b.iter(|| {
            eps[0]
                .send(NodeId::new(1), payload.clone())
                .expect("send ok");
            eps[1].recv().expect("recv ok")
        });
    });
}

fn bench_distributed_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_full_run");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    let locals = bench_locals(5, 2, 9);
    let config = ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(6));
    group.bench_function("in_memory_n5", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            run_distributed(&config, &locals, NetworkKind::InMemory, seed).expect("run ok")
        });
    });
    group.bench_function("tcp_n5", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            run_distributed(&config, &locals, NetworkKind::Tcp, seed).expect("run ok")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_wire_codec,
    bench_in_memory_ping,
    bench_distributed_run
);
criterion_main!(benches);
