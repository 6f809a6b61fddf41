//! Persistent-service throughput benchmark.
//!
//! Answers the same workload of homogeneous fixed-start queries two
//! ways over TCP — cold (a fresh `run_distributed` federation per query:
//! listeners, threads, connections and teardown every time) and warm
//! (one long-lived [`ServiceRuntime`] whose node workers and connections
//! survive across queries) — and reports sustained queries/sec at
//! pipeline depths 1, 4 and 16.
//!
//! The run *asserts* the correctness gates before reporting numbers: at
//! every depth each in-memory service outcome must be bit-identical to
//! its solo `run_distributed` run; over TCP the best warm depth must
//! sustain at least 2x the cold rate and every depth > 1 must strictly
//! beat depth 1; and a recorder-armed in-memory service must keep
//! transcripts bit-identical at under 2% throughput overhead.
//!
//! The two TCP gates price a thread per node: set-up and per-hop
//! hand-offs that warm reuse and pipelining amortize. An in-memory ring
//! runs every node on the caller's thread, so neither has anything to
//! amortize there.
//!
//! Usage: `service [n] [rounds] [queries] [out.json]`
//! Defaults: n = 6, rounds = 8, queries = 240, out = BENCH_service.json

use std::fmt::Write as _;
use std::time::Instant;

use privtopk_bench::{bench_locals, machine_json};
use privtopk_core::distributed::{run_distributed, NetworkKind};
use privtopk_core::groups::grouped_max_traced;
use privtopk_core::service::ServiceRuntime;
use privtopk_core::{derive_batch_seed, ProtocolConfig, RoundPolicy, StartPolicy};
use privtopk_domain::Value;
use privtopk_observe::{analyze, AnalyzerConfig, Recorder, TraceCollector};

const BASE_SEED: u64 = 24301;
const K: usize = 4;
const DEPTHS: [usize; 3] = [1, 4, 16];
const REPS: u32 = 3;

struct Point {
    depth: usize,
    warm_ms: f64,
    warm_qps: f64,
    mean_query_latency_ms: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let rounds: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let queries: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(240);
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_service.json".to_string());

    let config = ProtocolConfig::topk(K)
        .with_start(StartPolicy::Fixed)
        .with_rounds(RoundPolicy::Fixed(rounds));
    let locals = bench_locals(n, K, BASE_SEED);
    let workload: Vec<(ProtocolConfig, u64)> = (0..queries)
        .map(|i| (config.clone(), derive_batch_seed(BASE_SEED, i)))
        .collect();

    eprintln!(
        "service: n={n} k={K} rounds={rounds} queries={queries} reps={REPS} \
         (identity and tracing in memory, cold and warm over tcp)"
    );

    // Correctness gate first: at every depth the warm transcripts must
    // be bit-identical to the cold runs they claim to accelerate.
    let solo: Vec<_> = workload
        .iter()
        .map(|(config, seed)| {
            run_distributed(config, &locals, NetworkKind::InMemory, *seed).expect("solo run")
        })
        .collect();
    for depth in DEPTHS {
        let mut service =
            ServiceRuntime::start(&locals, NetworkKind::InMemory, depth).expect("service start");
        let outcomes = service.run_workload(&workload).expect("warm workload");
        for (i, (outcome, cold)) in outcomes.iter().zip(&solo).enumerate() {
            assert_eq!(
                outcome.transcript, cold.transcript,
                "depth={depth} query {i} transcript diverged from its solo run"
            );
            assert_eq!(
                outcome.per_node_results, cold.per_node_results,
                "depth={depth} query {i} results diverged from its solo run"
            );
        }
        service.shutdown().expect("service shutdown");
    }
    eprintln!("  identity gate: every depth matches solo, bit for bit");

    // Cold path over TCP: a fresh federation per query, best of REPS
    // passes.
    let mut cold_ms = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        for (config, seed) in &workload {
            let out = run_distributed(config, &locals, NetworkKind::Tcp, *seed).expect("cold run");
            std::hint::black_box(out);
        }
        cold_ms = cold_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }
    let cold_qps = queries as f64 / (cold_ms / 1e3);
    eprintln!("  cold: {cold_ms:>8.2} ms ({cold_qps:>8.0} q/s)");

    // Warm path over TCP: one standing service per depth; the first pass
    // warms the workers and connections, then best of REPS timed passes
    // over the same ring.
    let mut points = Vec::with_capacity(DEPTHS.len());
    for depth in DEPTHS {
        let mut service =
            ServiceRuntime::start(&locals, NetworkKind::Tcp, depth).expect("service start");
        let warmup = service.run_workload(&workload).expect("warm-up pass");
        std::hint::black_box(warmup);
        let mut warm_ms = f64::INFINITY;
        for _ in 0..REPS {
            let start = Instant::now();
            let out = service.run_workload(&workload).expect("warm workload");
            warm_ms = warm_ms.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(out);
        }
        service.shutdown().expect("service shutdown");
        let point = Point {
            depth,
            warm_ms,
            warm_qps: queries as f64 / (warm_ms / 1e3),
            mean_query_latency_ms: warm_ms / queries as f64,
        };
        eprintln!(
            "  depth={depth:>2}: {warm_ms:>8.2} ms ({:>8.0} q/s, {:.2}x cold)",
            point.warm_qps,
            point.warm_qps / cold_qps,
        );
        points.push(point);
    }

    // Acceptance gates over TCP: warm reuse must pay for itself, and
    // pipelining must add to it.
    let d1 = points.iter().find(|p| p.depth == 1).expect("depth-1 point");
    for p in points.iter().filter(|p| p.depth > 1) {
        assert!(
            p.warm_qps > d1.warm_qps,
            "depth {} ({:.0} q/s) must strictly beat depth 1 ({:.0} q/s)",
            p.depth,
            p.warm_qps,
            d1.warm_qps
        );
    }
    let best = points
        .iter()
        .max_by(|a, b| a.warm_qps.total_cmp(&b.warm_qps))
        .expect("best point");
    let warm_vs_cold = best.warm_qps / cold_qps;
    assert!(
        warm_vs_cold >= 2.0,
        "warm service ({:.0} q/s at depth {}) must sustain at least 2x cold ({:.0} q/s)",
        best.warm_qps,
        best.depth,
        cold_qps
    );
    eprintln!(
        "  best warm vs cold: {warm_vs_cold:.2}x (depth {})",
        best.depth
    );

    // Telemetry overhead gate: the same workload through a recorder-armed
    // in-memory service at the best TCP depth must (a) stay bit-identical
    // to the solo runs and (b) cost less than 2% of the untraced
    // in-memory throughput. The
    // recorder runs in its always-on production mode (1-in-1024 span
    // sampling; counters exact) — full event capture is a debugging mode
    // and is not held to the 2% bar. Each round pairs a fresh off service
    // against a fresh on service with passes alternating, and the gate
    // takes the best per-round on/off ratio: thread-placement luck and
    // machine-load drift hit both sides of a round equally, so only a
    // genuine, reproducible overhead survives the min.
    let recorder = Recorder::sampled(10);
    let mut best_ratio = f64::INFINITY;
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    let mut checked_identity = false;
    for _ in 0..REPS {
        let mut off_service = ServiceRuntime::start(&locals, NetworkKind::InMemory, best.depth)
            .expect("service start");
        let mut on_service = ServiceRuntime::start_traced(
            &locals,
            NetworkKind::InMemory,
            best.depth,
            recorder.clone(),
        )
        .expect("traced service start");
        std::hint::black_box(off_service.run_workload(&workload).expect("warm-up pass"));
        let traced_outcomes = on_service.run_workload(&workload).expect("warm-up pass");
        if !checked_identity {
            for (i, (outcome, cold)) in traced_outcomes.iter().zip(&solo).enumerate() {
                assert_eq!(
                    outcome.transcript, cold.transcript,
                    "tracing-on query {i} transcript diverged from its solo run"
                );
            }
            checked_identity = true;
        }
        let mut round_off = f64::INFINITY;
        let mut round_on = f64::INFINITY;
        for _ in 0..REPS {
            let start = Instant::now();
            std::hint::black_box(off_service.run_workload(&workload).expect("off pass"));
            round_off = round_off.min(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            std::hint::black_box(on_service.run_workload(&workload).expect("on pass"));
            round_on = round_on.min(start.elapsed().as_secs_f64() * 1e3);
        }
        off_service.shutdown().expect("service shutdown");
        on_service.shutdown().expect("traced service shutdown");
        if round_on / round_off < best_ratio {
            best_ratio = round_on / round_off;
            off_ms = round_off;
            on_ms = round_on;
        }
    }
    let traced_qps = queries as f64 / (on_ms / 1e3);
    let overhead_pct = (best_ratio - 1.0) * 100.0;
    assert!(
        overhead_pct < 2.0,
        "tracing overhead {overhead_pct:.2}% at depth {} must stay under 2% \
         (off {off_ms:.2} ms, on {on_ms:.2} ms)",
        best.depth
    );
    eprintln!(
        "  tracing on (depth {}): {on_ms:>8.2} ms ({traced_qps:>8.0} q/s, {overhead_pct:+.2}% vs {off_ms:.2} ms off), {} sampled steps",
        best.depth,
        recorder.phase(privtopk_observe::Phase::Step).count
    );

    // §4.2 grouped-max critical path, analyzer-measured from real traces.
    // The grouped run's critical path is its slowest group chain plus the
    // leader-ring chain; the flat run's is its single chain. Both come
    // out of the same collect-and-analyze pipeline the CLI uses, best of
    // REPS passes each.
    const GROUPED_VALUES: usize = 24;
    const GROUPS: usize = 4;
    let grouped_config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(rounds));
    let grouped_values: Vec<Value> = (0..GROUPED_VALUES)
        .map(|i| Value::new(((i * 37) % 9000 + 1) as i64))
        .collect();
    let chains_of = |groups: usize| -> Vec<(Option<u64>, u64)> {
        let recorder = Recorder::new();
        grouped_max_traced(
            &grouped_config,
            &grouped_values,
            groups,
            BASE_SEED,
            &recorder,
        )
        .expect("grouped run");
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("grouped.jsonl", &recorder.trace_jsonl());
        let trace = collector.finish();
        assert!(trace.diagnostics.is_empty(), "{:?}", trace.diagnostics);
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        analysis
            .queries
            .iter()
            .map(|q| {
                assert!(q.complete, "chain {:?} incomplete", q.query);
                assert!(q.critical_path_ns > 0, "chain {:?} empty", q.query);
                (q.query, q.critical_path_ns)
            })
            .collect()
    };
    let mut flat_ns = u64::MAX;
    let mut grouped_ns = u64::MAX;
    for _ in 0..REPS {
        let flat = chains_of(1);
        assert_eq!(flat.len(), 1, "flat run is one chain");
        flat_ns = flat_ns.min(flat[0].1);

        let chains = chains_of(GROUPS);
        assert_eq!(chains.len(), GROUPS + 1, "group chains plus leader ring");
        let leader = chains
            .iter()
            .find(|(q, _)| *q == Some(GROUPS as u64))
            .expect("leader chain")
            .1;
        let slowest_group = chains
            .iter()
            .filter(|(q, _)| *q != Some(GROUPS as u64))
            .map(|&(_, ns)| ns)
            .max()
            .expect("group chains");
        grouped_ns = grouped_ns.min(slowest_group + leader);
    }
    let grouped_ratio = grouped_ns as f64 / flat_ns as f64;
    eprintln!(
        "  grouped max (4.2): critical path {grouped_ns} ns grouped ({GROUPS} groups of {}) vs {flat_ns} ns flat ({GROUPED_VALUES}-ring), ratio {grouped_ratio:.3}",
        GROUPED_VALUES / GROUPS
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"benchmark\": \"persistent federation service throughput\","
    );
    let _ = writeln!(json, "  \"machine\": {},", machine_json());
    let _ = writeln!(
        json,
        "  \"config\": {{\"n\": {n}, \"k\": {K}, \"rounds\": {rounds}, \"queries\": {queries}, \"network\": \"tcp\", \"start\": \"fixed\", \"seed\": {BASE_SEED}, \"reps\": {REPS}}},"
    );
    let _ = writeln!(
        json,
        "  \"cold\": {{\"total_ms\": {cold_ms:.3}, \"queries_per_sec\": {cold_qps:.1}, \"mean_query_latency_ms\": {:.4}}},",
        cold_ms / queries as f64
    );
    json.push_str("  \"warm_depths\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"pipeline_depth\": {}, \"total_ms\": {:.3}, \"queries_per_sec\": {:.1}, \"mean_query_latency_ms\": {:.4}, \"speedup_vs_cold\": {:.3}}}{}",
            p.depth,
            p.warm_ms,
            p.warm_qps,
            p.mean_query_latency_ms,
            p.warm_qps / cold_qps,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"warm_vs_cold_speedup\": {warm_vs_cold:.3},");
    let _ = writeln!(json, "  \"best_depth\": {},", best.depth);
    let _ = writeln!(
        json,
        "  \"tracing\": {{\"network\": \"in-memory\", \"depth\": {}, \"mode\": \"sampled-1-in-1024\", \"off_total_ms\": {off_ms:.3}, \"on_total_ms\": {on_ms:.3}, \"off_queries_per_sec\": {:.1}, \"on_queries_per_sec\": {traced_qps:.1}, \"overhead_pct\": {overhead_pct:.3}}},",
        best.depth,
        queries as f64 / (off_ms / 1e3)
    );
    let _ = writeln!(
        json,
        "  \"grouped_max\": {{\"values\": {GROUPED_VALUES}, \"groups\": {GROUPS}, \"rounds\": {rounds}, \"flat_critical_path_ns\": {flat_ns}, \"grouped_critical_path_ns\": {grouped_ns}, \"critical_path_ratio\": {grouped_ratio:.4}}},"
    );
    let _ = writeln!(json, "  \"transcripts_identical_to_solo\": true");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path}");
}
