//! Chaos observability benchmark.
//!
//! Runs a seeded schedule of incidents — node crash, ring partition,
//! sustained loss — against a standing pipelined service and measures
//! what observing the damage costs:
//!
//! 1. **Bit-identity gate**: every query answered while the network is
//!    being broken must match its fault-free run, transcript and all.
//!    Chaos only delays delivery; it never changes an answer.
//! 2. **Healing attribution**: the trace analyzer must reconstruct at
//!    least one incident from the retry/re-ACK storm, with nonzero
//!    healing latency (p50/p99 reported) and per-node frame overhead.
//! 3. **Observability overhead gate**: the same chaos schedule paired
//!    against itself — recorder off vs the always-on production mode
//!    (sampled) — must cost under 2% wall clock.
//!
//! Usage: `chaos [n] [rounds] [out.json]`
//! Defaults: n = 6, rounds = 8, out = BENCH_chaos.json

use std::fmt::Write as _;
use std::time::Instant;

use privtopk_bench::{bench_locals, machine_json};
use privtopk_core::distributed::NetworkKind;
use privtopk_core::service::ServiceRuntime;
use privtopk_core::{
    derive_batch_seed, ChaosPlan, ChaosState, ProtocolConfig, RoundPolicy, StartPolicy,
    DEFAULT_HEAL_BUDGET,
};
use privtopk_observe::{analyze, AnalyzerConfig, Recorder, TraceCollector};

const BASE_SEED: u64 = 48105;
const K: usize = 4;
const DEPTH: usize = 16;
const INCIDENTS: usize = 2;
const REPS: usize = 3;

fn percentile_ms(sorted_ns: &[u64], pct: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let index = (sorted_ns.len() * pct / 100).min(sorted_ns.len() - 1);
    sorted_ns[index] as f64 / 1e6
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let rounds: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());

    let config = ProtocolConfig::topk(K)
        .with_start(StartPolicy::Fixed)
        .with_rounds(RoundPolicy::Fixed(rounds));
    let locals = bench_locals(n, K, BASE_SEED);
    let plan = ChaosPlan::seeded(BASE_SEED, n as u32, INCIDENTS);
    plan.validate(DEFAULT_HEAL_BUDGET).expect("healable plan");

    eprintln!(
        "chaos: n={n} k={K} rounds={rounds} depth={DEPTH} incidents={INCIDENTS} seed={BASE_SEED}"
    );
    for incident in &plan.incidents {
        eprintln!(
            "  t+{}ms for {}ms: {}",
            incident.at.as_millis(),
            incident.duration.as_millis(),
            incident.event.describe()
        );
    }

    // Attribution run: full event capture, waves of queries until every
    // incident window has opened and closed, so the whole schedule hits
    // live traffic and the analyzer can reconstruct it.
    let recorder = Recorder::new();
    let state = ChaosState::new(plan.clone());
    let mut chaotic = ServiceRuntime::start_traced(
        &locals,
        NetworkKind::Chaos(state.clone()),
        DEPTH,
        recorder.clone(),
    )
    .expect("chaos start");
    state.arm();
    let mut wave_seeds: Vec<u64> = Vec::new();
    let mut wave_outcomes = Vec::new();
    let mut wave = 0u64;
    while !state.quiescent() || wave == 0 {
        let seeds: Vec<u64> = (0..DEPTH as u64)
            .map(|i| derive_batch_seed(BASE_SEED ^ (0xA000 + wave), i))
            .collect();
        let wave_workload: Vec<(ProtocolConfig, u64)> =
            seeds.iter().map(|s| (config.clone(), *s)).collect();
        wave_outcomes.extend(chaotic.run_workload(&wave_workload).expect("chaos wave"));
        wave_seeds.extend(seeds);
        wave += 1;
    }
    let stats = chaotic.stats();
    chaotic.shutdown().expect("chaos shutdown");
    assert!(state.dropped() > 0, "no frame ever hit an incident window");
    assert!(
        stats.retransmissions > 0,
        "healing must flow through the reliability layer"
    );

    // Bit-identity gate for the attribution run: replay the wave seeds
    // on a fault-free service and compare everything. The replay also
    // serves as the expected outcomes for the timed passes below.
    let workload: Vec<(ProtocolConfig, u64)> =
        wave_seeds.iter().map(|s| (config.clone(), *s)).collect();
    let mut clean =
        ServiceRuntime::start(&locals, NetworkKind::InMemory, DEPTH).expect("clean start");
    let clean_outcomes = clean.run_workload(&workload).expect("clean replay");
    clean.shutdown().expect("clean shutdown");
    for (i, (chaos, clean)) in wave_outcomes.iter().zip(&clean_outcomes).enumerate() {
        assert_eq!(
            chaos.transcript, clean.transcript,
            "query {i}: transcript diverged under chaos"
        );
        assert_eq!(
            chaos.per_node_results, clean.per_node_results,
            "query {i}: results diverged under chaos"
        );
    }
    eprintln!(
        "  identity gate: {} chaos-run queries match fault-free, bit for bit ({} frames dropped, {} retransmissions)",
        wave_outcomes.len(),
        state.dropped(),
        stats.retransmissions
    );

    // Healing attribution through the analyzer, with the run's mean
    // frame size as the byte-overhead hint.
    let mut collector = TraceCollector::new();
    collector.ingest_recorder("chaos", &recorder);
    let analyzer_config = AnalyzerConfig {
        bytes_per_frame_hint: Some(stats.bytes_sent as f64 / stats.frames_sent.max(1) as f64),
        ..AnalyzerConfig::default()
    };
    let analysis = analyze(&collector.finish(), &analyzer_config);
    assert!(
        !analysis.incidents.is_empty(),
        "analyzer must reconstruct at least one incident"
    );
    let mut healing_ns: Vec<u64> = analysis.incidents.iter().map(|i| i.healing_ns).collect();
    healing_ns.sort_unstable();
    assert!(
        healing_ns[0] > 0,
        "every reconstructed incident must carry nonzero healing cost"
    );
    let healing_p50_ms = percentile_ms(&healing_ns, 50);
    let healing_p99_ms = percentile_ms(&healing_ns, 99);
    let overhead_bytes: u64 = analysis
        .incidents
        .iter()
        .map(|i| i.overhead_bytes_est.unwrap_or(0))
        .sum();
    eprintln!(
        "  healing: {} incidents reconstructed, p50 {healing_p50_ms:.1} ms, p99 {healing_p99_ms:.1} ms, ~{overhead_bytes} B overhead",
        analysis.incidents.len()
    );

    // Observability overhead gate: the same chaos schedule, recorder
    // off vs the always-on production mode (span sampling). One timed
    // pass per fresh service. The wave workload is repeated enough
    // times that compute outlasts the schedule by a wide margin: the
    // last window then closes mid-run and elapsed time is
    // compute-bound, so the comparison measures recorder cost instead
    // of which 50 ms retry quantum the final heal happened to land on.
    let timed: Vec<(ProtocolConfig, u64)> = (0..workload.len() * 6)
        .map(|i| workload[i % workload.len()].clone())
        .collect();
    let mut off_ms = f64::INFINITY;
    let mut on_ms = f64::INFINITY;
    for _ in 0..REPS {
        let off_state = ChaosState::new(plan.clone());
        let off_network = NetworkKind::Chaos(off_state.clone());
        let mut off_service =
            ServiceRuntime::start(&locals, off_network, DEPTH).expect("off start");
        off_state.arm();
        let start = Instant::now();
        std::hint::black_box(off_service.run_workload(&timed).expect("off pass"));
        off_ms = off_ms.min(start.elapsed().as_secs_f64() * 1e3);
        off_service.shutdown().expect("off shutdown");

        let on_state = ChaosState::new(plan.clone());
        let on_network = NetworkKind::Chaos(on_state.clone());
        let mut on_service =
            ServiceRuntime::start_traced(&locals, on_network, DEPTH, Recorder::sampled(10))
                .expect("on start");
        on_state.arm();
        let start = Instant::now();
        let on_outcomes = on_service.run_workload(&timed).expect("on pass");
        on_ms = on_ms.min(start.elapsed().as_secs_f64() * 1e3);
        for (i, outcome) in on_outcomes.iter().enumerate() {
            let clean = &clean_outcomes[i % clean_outcomes.len()];
            assert_eq!(
                outcome.transcript, clean.transcript,
                "observed query {i} transcript diverged"
            );
        }
        on_service.shutdown().expect("on shutdown");
    }
    let overhead_pct = (on_ms / off_ms - 1.0) * 100.0;
    assert!(
        overhead_pct < 2.0,
        "observability overhead {overhead_pct:.2}% under chaos must stay under 2% \
         (off {off_ms:.2} ms, on {on_ms:.2} ms)"
    );
    eprintln!(
        "  overhead gate: off {off_ms:.2} ms vs on {on_ms:.2} ms ({overhead_pct:+.2}%) — under 2%"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"chaos observability\",");
    let _ = writeln!(json, "  \"machine\": {},", machine_json());
    let _ = writeln!(
        json,
        "  \"config\": {{\"n\": {n}, \"k\": {K}, \"rounds\": {rounds}, \"depth\": {DEPTH}, \"queries\": {}, \"incidents_scheduled\": {INCIDENTS}, \"seed\": {BASE_SEED}, \"reps\": {REPS}}},",
        workload.len()
    );
    let _ = writeln!(json, "  \"plan\": [");
    for (i, incident) in plan.incidents.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"at_ms\": {}, \"duration_ms\": {}, \"event\": \"{}\"}}{}",
            incident.at.as_millis(),
            incident.duration.as_millis(),
            incident.event.describe(),
            if i + 1 < plan.incidents.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"bit_identical\": true,");
    let _ = writeln!(
        json,
        "  \"chaos_run\": {{\"queries\": {}, \"frames_dropped\": {}, \"retransmissions\": {}, \"re_acks\": {}}},",
        wave_outcomes.len(),
        state.dropped(),
        stats.retransmissions,
        stats.re_acks
    );
    let _ = writeln!(
        json,
        "  \"healing\": {{\"incidents_reconstructed\": {}, \"p50_ms\": {healing_p50_ms:.3}, \"p99_ms\": {healing_p99_ms:.3}, \"overhead_bytes_est\": {overhead_bytes}}},",
        analysis.incidents.len()
    );
    let _ = writeln!(
        json,
        "  \"observability_overhead\": {{\"off_ms\": {off_ms:.3}, \"on_ms\": {on_ms:.3}, \"overhead_pct\": {overhead_pct:.3}, \"gate\": \"under 2%\"}}"
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_chaos.json");
    eprintln!("wrote {out_path}");
}
