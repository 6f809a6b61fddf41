//! Batched-executor throughput benchmark.
//!
//! Runs B ∈ {1, 8, 64, 256, 1024} homogeneous fixed-start queries twice
//! — once as B sequential solo `run_distributed` calls, once as a single
//! `run_distributed_batch` — and reports queries/sec, the amortization
//! factor, and the wire accounting (physical frames vs logical messages,
//! per-frame and per-query bytes under the compact codec, plus what the
//! retired fixed-width codec would have sent, computed from the message
//! shapes).
//!
//! The timed passes run over TCP loopback, where every call opens a ring
//! of n socket-connected worker threads and every hop is a socket write,
//! so batching amortizes both. In memory a call opens no thread and a
//! hop is a queue push, and per-query batch cost is flat from B = 64, so
//! a width gate there measures nothing. The identity, frame-count and
//! byte gates run in memory (bytes and frames do not depend on the
//! network).
//!
//! The run *asserts* the correctness gates before reporting numbers:
//! every batched transcript must be bit-identical to its solo run, the
//! batch path must not lose to the sequential path even at B = 1, the
//! mean batched frame at B = 64 must stay under the 1200-byte budget,
//! and batched queries/sec must rise strictly with width through
//! B = 256 (the cliff this benchmark exists to watch).
//!
//! Small widths finish in milliseconds, so each timed pass runs the
//! workload `max(1, 256/B)` times and divides — every width is timed
//! over a comparable amount of work instead of a single noisy call.
//!
//! Usage: `throughput [n] [rounds] [out.json]`
//! Defaults: n = 6, rounds = 8, out = BENCH_throughput.json

use std::fmt::Write as _;
use std::time::Instant;

use privtopk_bench::{bench_locals, machine_json};
use privtopk_core::distributed::{run_distributed, run_distributed_batch, NetworkKind};
use privtopk_core::{derive_batch_seed, BatchJob, ProtocolConfig, RoundPolicy, StartPolicy};

const BASE_SEED: u64 = 24301;
const K: usize = 4;
const WIDTHS: [usize; 5] = [1, 8, 64, 256, 1024];
const REPS: u32 = 5;
/// Mean-frame budget at B = 64: well under half the 2312.6 B the
/// fixed-width codec produced at that width.
const B64_FRAME_BUDGET: f64 = 1200.0;
/// Fixed-width bytes of one top-k vector: `u32` k, then k `i64` values.
const FIXED_VECTOR_BYTES: u64 = 4 + 8 * K as u64;

/// Bytes the retired fixed-width codec would have sent for one batch of
/// `width` queries: `n·r` token hops of `9 + B·(4 + 8k)` bytes (tag,
/// `u32` round, `u32` length, vectors) and `n − 1` termination hops of
/// `5 + B·(4 + 8k)` bytes (no round).
fn baseline_bytes(n: usize, rounds: u32, width: usize) -> u64 {
    let body = width as u64 * FIXED_VECTOR_BYTES;
    let (n, rounds) = (n as u64, u64::from(rounds));
    n * rounds * (9 + body) + (n - 1) * (5 + body)
}

struct Point {
    width: usize,
    solo_ms: f64,
    batch_ms: f64,
    batch_qps: f64,
    solo_qps: f64,
    frames: u64,
    logical: u64,
    bytes: u64,
    baseline_bytes: u64,
    mean_frame_bytes: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let rounds: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());

    let config = ProtocolConfig::topk(K)
        .with_start(StartPolicy::Fixed)
        .with_rounds(RoundPolicy::Fixed(rounds));
    let locals = bench_locals(n, K, BASE_SEED);

    eprintln!("throughput: n={n} k={K} rounds={rounds} reps={REPS} timed network=tcp");

    let mut points = Vec::with_capacity(WIDTHS.len());
    for width in WIDTHS {
        let jobs: Vec<BatchJob> = (0..width as u64)
            .map(|i| {
                BatchJob::new(
                    config.clone(),
                    locals.clone(),
                    derive_batch_seed(BASE_SEED, i),
                )
            })
            .collect();

        // Correctness gate first: the batched transcripts must be
        // bit-identical to the solo runs they claim to amortize.
        let batch_out = run_distributed_batch(&jobs, NetworkKind::InMemory).expect("batch run");
        assert_eq!(batch_out.groups, 1, "homogeneous batch must form one group");
        // The shape model behind the baseline column counts n·r + n − 1 hops.
        assert_eq!(
            batch_out.frames_sent,
            (n as u64) * u64::from(rounds) + n as u64 - 1,
            "B={width} frame count departs from the paper's cost model"
        );
        for (i, job) in jobs.iter().enumerate() {
            let solo = run_distributed(&job.config, &job.locals, NetworkKind::InMemory, job.seed)
                .expect("solo run");
            assert_eq!(
                batch_out.transcripts[i], solo.transcript,
                "B={width} query {i} diverged from its solo run"
            );
        }

        // Timed passes over TCP: `iters` runs per pass so every width is
        // timed over ~256 queries of work, best of REPS passes for each
        // path. The paths alternate pass by pass: every TCP ring leaves
        // sockets in TIME_WAIT, and connecting gets slower as they pile
        // up, so running all of one path's passes first would charge
        // that drift to the other.
        let iters = (256 / width).max(1) as u32;
        let ms_per_iter = |pass: &dyn Fn()| {
            let start = Instant::now();
            for _ in 0..iters {
                pass();
            }
            start.elapsed().as_secs_f64() * 1e3 / f64::from(iters)
        };
        let (mut batch_ms, mut solo_ms) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..REPS {
            batch_ms = batch_ms.min(ms_per_iter(&|| {
                let out = run_distributed_batch(&jobs, NetworkKind::Tcp).expect("batch run");
                std::hint::black_box(out);
            }));
            solo_ms = solo_ms.min(ms_per_iter(&|| {
                for job in &jobs {
                    let out = run_distributed(&job.config, &job.locals, NetworkKind::Tcp, job.seed)
                        .expect("solo run");
                    std::hint::black_box(out);
                }
            }));
        }

        let point = Point {
            width,
            solo_ms,
            batch_ms,
            batch_qps: width as f64 / (batch_ms / 1e3),
            solo_qps: width as f64 / (solo_ms / 1e3),
            frames: batch_out.frames_sent,
            logical: batch_out.logical_messages,
            bytes: batch_out.bytes_sent,
            baseline_bytes: baseline_bytes(n, rounds, width),
            mean_frame_bytes: batch_out.bytes_sent as f64 / batch_out.frames_sent as f64,
        };
        eprintln!(
            "  B={width:>4}: batch {batch_ms:>8.2} ms ({:>9.0} q/s)  solo {solo_ms:>8.2} ms ({:>9.0} q/s)  frames {} logical {} wire {} B (fixed-width {} B)",
            point.batch_qps, point.solo_qps, point.frames, point.logical, point.bytes,
            point.baseline_bytes
        );
        points.push(point);
    }

    // At the default shape the computed column must reproduce the B=1
    // figure the fixed-width codec measured before it was retired.
    if (n, rounds) == (6, 8) {
        assert_eq!(
            baseline_bytes(n, rounds, 1),
            2365,
            "fixed-width shape model"
        );
    }

    // The batch-width cliff gate: queries/sec must rise strictly with
    // width through B = 256. (B = 1024 is reported but not gated — at
    // some width the kernel, not the transport, becomes the limit.)
    for pair in points.windows(2) {
        if pair[1].width > 256 {
            break;
        }
        assert!(
            pair[1].batch_qps > pair[0].batch_qps,
            "batch throughput must rise with width: B={} ({:.0} q/s) <= B={} ({:.0} q/s)",
            pair[1].width,
            pair[1].batch_qps,
            pair[0].width,
            pair[0].batch_qps
        );
    }

    // B = 1 must not pay for the batching machinery it doesn't use: the
    // batch path opens the same ring and runs the same hop kernel, so a
    // single-query batch has to stay within noise of the solo path.
    let b1 = points.iter().find(|p| p.width == 1).expect("B=1 point");
    let b1_speedup = b1.batch_qps / b1.solo_qps;
    assert!(
        b1_speedup >= 0.9,
        "B=1 batch ({:.0} q/s) regressed below 0.9x the sequential path ({:.0} q/s)",
        b1.batch_qps,
        b1.solo_qps
    );

    // Per-hop byte gates: a B=64 frame must undercut 64 solo frames and
    // stay under the compact-codec budget.
    let b64 = points.iter().find(|p| p.width == 64).expect("B=64 point");
    assert!(
        b64.mean_frame_bytes < 64.0 * b1.mean_frame_bytes,
        "batched frame ({:.1} B) must be smaller than 64 solo frames ({:.1} B)",
        b64.mean_frame_bytes,
        64.0 * b1.mean_frame_bytes
    );
    assert!(
        b64.mean_frame_bytes < B64_FRAME_BUDGET,
        "B=64 mean frame ({:.1} B) must stay under the {B64_FRAME_BUDGET} B budget",
        b64.mean_frame_bytes
    );
    let amortization = (b1.batch_ms * 64.0) / b64.batch_ms;
    eprintln!("  B=64 amortization vs 64 x B=1 batches: {amortization:.2}x");
    eprintln!("  B=1 batch vs sequential: {b1_speedup:.3}x");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"batched multi-query ring executor throughput\","
    );
    let _ = writeln!(json, "  \"machine\": {},", machine_json());
    let _ = writeln!(
        json,
        "  \"config\": {{\"n\": {n}, \"k\": {K}, \"rounds\": {rounds}, \"network\": \"tcp\", \"start\": \"fixed\", \"seed\": {BASE_SEED}, \"reps\": {REPS}}},"
    );
    let _ = writeln!(json, "  \"amortization_b64_vs_b1\": {amortization:.3},");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"batch_width\": {}, \"batch_ms\": {:.3}, \"batch_queries_per_sec\": {:.1}, \"sequential_ms\": {:.3}, \"sequential_queries_per_sec\": {:.1}, \"speedup_vs_sequential\": {:.3}, \"frames_sent\": {}, \"logical_messages\": {}, \"bytes_sent\": {}, \"baseline_bytes\": {}, \"mean_frame_bytes\": {:.1}, \"bytes_per_query\": {:.1}}}{}",
            p.width,
            p.batch_ms,
            p.batch_qps,
            p.solo_ms,
            p.solo_qps,
            p.batch_qps / p.solo_qps,
            p.frames,
            p.logical,
            p.bytes,
            p.baseline_bytes,
            p.mean_frame_bytes,
            p.bytes as f64 / p.width as f64,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"transcripts_identical_to_solo\": true");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");
}
