//! Chaos observability, end to end: a seeded schedule of node crash,
//! ring partition and sustained loss against a standing depth-16
//! service must (a) leave every query transcript bit-identical to a
//! fault-free run, (b) leave reconstructible incidents with nonzero
//! attributed healing cost in the trace, and (c) surface on the SLO /
//! health / flight-recorder operator surfaces.

use std::time::Duration;

use privtopk::core::derive_batch_seed;
use privtopk::core::distributed::NetworkKind;
use privtopk::federation::{ChaosEvent, ChaosPlan, ChaosState, DEFAULT_HEAL_BUDGET};
use privtopk::observe::{analyze, scrape_path, AnalyzerConfig, Recorder, TraceCollector};
use privtopk::prelude::*;

const NODES: usize = 5;
const DEPTH: usize = 16;

fn federation(seed: u64) -> Federation {
    let dbs = DatasetBuilder::new(NODES)
        .rows_per_node(16)
        .seed(seed)
        .build()
        .expect("valid dataset");
    Federation::new(dbs).expect("valid federation")
}

/// Crash + partition + loss, one after another, each window well under
/// the reliability layer's healing budget and separated widely enough
/// for the analyzer's default incident gap (200 ms).
fn three_incident_plan() -> ChaosPlan {
    ChaosPlan::new()
        .with_incident(
            Duration::from_millis(20),
            Duration::from_millis(150),
            ChaosEvent::NodeOutage { node: 1 },
        )
        .with_incident(
            Duration::from_millis(600),
            Duration::from_millis(120),
            ChaosEvent::Partition { cut: 2 },
        )
        .with_incident(
            Duration::from_millis(1150),
            Duration::from_millis(120),
            ChaosEvent::LossWindow {
                drop_probability: 0.4,
            },
        )
}

#[test]
fn chaos_run_is_bit_identical_with_attributed_healing_cost() {
    let federation = federation(31);
    let spec = QuerySpec::top_k("value", 3);
    let plan = three_incident_plan();
    plan.validate(DEFAULT_HEAL_BUDGET).unwrap();

    let recorder = Recorder::new();
    let state = ChaosState::new(plan);
    let network = NetworkKind::Chaos(state.clone());
    let mut chaotic = federation
        .serve_traced(&spec, network, DEPTH, recorder.clone())
        .unwrap();
    state.arm();

    // Keep waves of queries flowing until every incident window has
    // opened and closed, so the schedule is guaranteed to hit traffic.
    let mut seeds = Vec::new();
    let mut outcomes = Vec::new();
    let mut wave = 0u64;
    while !state.quiescent() || wave == 0 {
        let batch: Vec<u64> = (0..DEPTH as u64)
            .map(|i| derive_batch_seed(4000 + wave, i))
            .collect();
        outcomes.extend(chaotic.query_many(&batch).unwrap());
        seeds.extend(batch);
        wave += 1;
    }
    let stats = chaotic.stats();
    chaotic.shutdown().unwrap();

    assert!(state.dropped() > 0, "no frame ever hit an incident window");
    assert!(
        stats.retransmissions > 0,
        "healing must go through the reliability layer"
    );

    // (a) Bit-identity: the same seeds on a fault-free standing service
    // produce byte-identical values and transcripts.
    let mut clean = federation
        .serve(&spec, NetworkKind::InMemory, DEPTH)
        .unwrap();
    let baseline = clean.query_many(&seeds).unwrap();
    clean.shutdown().unwrap();
    assert_eq!(outcomes.len(), baseline.len());
    for (i, (chaos, clean)) in outcomes.iter().zip(&baseline).enumerate() {
        assert_eq!(chaos.values(), clean.values(), "query {i}: values diverged");
        assert_eq!(
            chaos.transcript().steps(),
            clean.transcript().steps(),
            "query {i}: transcript diverged under chaos"
        );
    }

    // (b) Healing-cost attribution: the analyzer reconstructs at least
    // one incident, with nonzero healing latency and byte overhead
    // attributed to named nodes.
    let mut collector = TraceCollector::new();
    collector.ingest_recorder("chaos", &recorder);
    let trace = collector.finish();
    let config = AnalyzerConfig {
        bytes_per_frame_hint: Some(stats.bytes_sent as f64 / stats.frames_sent.max(1) as f64),
        ..AnalyzerConfig::default()
    };
    let analysis = analyze(&trace, &config);
    assert!(
        !analysis.incidents.is_empty(),
        "expected at least one reconstructed incident"
    );
    let total_healing: u64 = analysis.incidents.iter().map(|i| i.healing_ns).sum();
    assert!(total_healing > 0, "healing cost must be nonzero");
    let attributed: u64 = analysis
        .incidents
        .iter()
        .flat_map(|i| i.nodes.iter())
        .map(|n| n.retransmissions + n.re_acks)
        .sum();
    assert!(attributed > 0, "healing frames must attribute to nodes");
    assert!(
        analysis
            .incidents
            .iter()
            .all(|i| i.overhead_bytes_est.unwrap_or(0) > 0),
        "with a frame-size hint every incident carries a byte estimate"
    );
    let rendered = analysis.to_string();
    assert!(rendered.contains("incident 1:"), "text report: {rendered}");
}

#[test]
fn flight_recorder_feeds_the_analyzer_even_in_stats_only_mode() {
    let federation = federation(57);
    let spec = QuerySpec::top_k("value", 2);
    let plan = ChaosPlan::new().with_incident(
        Duration::from_millis(10),
        Duration::from_millis(150),
        ChaosEvent::NodeOutage { node: 2 },
    );
    // stats_only: no full trace buffer exists, yet the always-on flight
    // ring still captures the most recent spans.
    let recorder = Recorder::stats_only();
    let state = ChaosState::new(plan);
    let mut service = federation
        .serve_traced(&spec, NetworkKind::Chaos(state.clone()), 4, recorder)
        .unwrap();
    state.arm();
    let mut wave = 0u64;
    while !state.quiescent() || wave == 0 {
        let batch: Vec<u64> = (0..8).map(|i| derive_batch_seed(8100 + wave, i)).collect();
        service.query_many(&batch).unwrap();
        wave += 1;
    }
    let dump = service.dump_flight_recorder();
    service.shutdown().unwrap();

    assert!(!dump.is_empty(), "flight ring must hold events");
    assert!(
        dump.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
        "flight dump must be JSONL"
    );
    assert!(
        dump.contains("\"phase\":\"retry\""),
        "the outage's healing storm must be in the flight ring"
    );
    let mut collector = TraceCollector::new();
    collector.ingest_jsonl("flight", &dump);
    let analysis = analyze(&collector.finish(), &AnalyzerConfig::default());
    assert!(
        !analysis.incidents.is_empty(),
        "flight dump alone must reconstruct the incident"
    );
}

#[test]
fn slo_health_and_uptime_surface_on_the_metrics_endpoint() {
    let federation = federation(77);
    let spec = QuerySpec::max("value");
    let mut service = federation
        .serve_traced(&spec, NetworkKind::InMemory, 2, Recorder::new())
        .unwrap();
    let addr = service.metrics_endpoint("127.0.0.1:0").unwrap();
    let seeds: Vec<u64> = (0..10).map(|i| derive_batch_seed(5, i)).collect();
    service.query_many(&seeds).unwrap();

    let report = service.slo();
    assert_eq!(report.long.samples, 10);
    assert_eq!(report.long.failures, 0);

    let body = privtopk::observe::scrape(&addr).unwrap();
    for series in [
        "privtopk_slo_latency_burn_short",
        "privtopk_slo_availability_burn_long",
        "privtopk_slo_healthy",
        "privtopk_build_info",
        "privtopk_service_uptime_seconds",
    ] {
        assert!(body.contains(series), "missing series {series}");
    }

    let health = scrape_path(&addr, "/healthz", Duration::from_secs(2)).unwrap();
    assert!(
        health.starts_with("ok") || health.starts_with("alerting"),
        "unexpected health body: {health}"
    );
    service.shutdown().unwrap();
}

#[test]
fn seeded_chaos_plans_reject_unhealable_windows() {
    let plan = ChaosPlan::seeded(11, NODES as u32, 4);
    assert_eq!(plan.incidents.len(), 4);
    plan.validate(DEFAULT_HEAL_BUDGET).unwrap();
    let bad = ChaosPlan::new().with_incident(
        Duration::ZERO,
        DEFAULT_HEAL_BUDGET,
        ChaosEvent::NodeOutage { node: 0 },
    );
    assert!(bad.validate(DEFAULT_HEAL_BUDGET).is_err());
}
