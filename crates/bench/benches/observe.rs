//! Per-span recorder cost: one `clock` + `record` pair on a stats-only
//! recorder (the mode the standing service runs), from one handle and
//! from six threads that each hold their own clone, as the six workers of
//! a six-node ring do.
//!
//! One iteration records `SPANS` spans on each thread, so the reported
//! time per iteration divided by `SPANS` is the wall time per span per
//! thread. Starting and joining the six threads is inside each
//! six-thread iteration: about 0.2 ms on a 2-vCPU host, measured with
//! one span per thread.

use std::thread;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use privtopk_observe::{Ctx, Phase, Recorder};

/// Spans each thread records per timed iteration.
const SPANS: u32 = 16_384;

/// Worker threads in the contended case: one per node of a six-node ring.
const THREADS: u32 = 6;

fn spans(rec: &Recorder, ctx: Ctx) {
    for _ in 0..SPANS {
        let started = rec.clock();
        rec.record(Phase::Step, black_box(ctx), started);
    }
}

fn bench_recorder_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("recorder_span");
    let rec = Recorder::stats_only();
    group.bench_function(format!("one_handle/{SPANS}_spans"), |b| {
        b.iter(|| spans(&rec, Ctx::default().with_node(0)));
    });
    let handles: Vec<Recorder> = (0..THREADS).map(|_| rec.clone()).collect();
    group.bench_function(format!("six_threads/{SPANS}_spans_each"), |b| {
        b.iter(|| {
            thread::scope(|s| {
                for (node, handle) in (0u32..).zip(&handles) {
                    s.spawn(move || spans(handle, Ctx::default().with_node(node)));
                }
            });
        });
    });
    group.finish();
}

criterion_group!(benches, bench_recorder_span);
criterion_main!(benches);
