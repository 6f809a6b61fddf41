//! Command execution.

use std::io::Write;
use std::path::Path;

use privtopk_analysis::{correctness, efficiency, privacy_bounds, RandomizationParams};
use privtopk_core::distributed::NetworkKind;
use privtopk_core::groups::grouped_max;
use privtopk_core::{derive_batch_seed, ProtocolConfig, RoundPolicy, ServiceStats};
use privtopk_datagen::{DataDistribution, DatasetBuilder, PrivateDatabase};
use privtopk_domain::{NodeId, TopKVector, Value, ValueDomain};
use privtopk_federation::{ChaosPlan, ChaosState, Federation, QueryBatch, QueryKind, QuerySpec};
use privtopk_knn::{centralized_knn, KnnConfig, LabeledPoint, PrivateKnnClassifier};
use privtopk_observe::{
    analyze, AnalyzerConfig, CollectedTrace, PrivacyLedger, Recorder, TraceCollector,
};
use privtopk_privacy::{
    AccountantSnapshot, LopAccountant, LopAccumulator, SuccessorAdversary, DEFAULT_SHADOW_SEED,
    DEFAULT_SHADOW_TRIALS,
};
use privtopk_store::{publish_store_metrics, NodeStore};

use crate::args::usage;
use crate::csv::load_csv_dir;
use crate::{Arguments, CliError, Command};

/// Executes a parsed command, writing human output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] for bad flags or execution failures.
pub fn run(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    // `--threads N` configures the experiment layer's trial-executor
    // default for everything this process runs (0 = hardware default).
    // Results never depend on it; only wall-clock time does.
    let threads: usize = args.parse_or("threads", 0)?;
    privtopk_experiments::pool::set_default_threads(threads);
    match args.command {
        Command::Help => {
            write_out(out, &usage())?;
            Ok(())
        }
        Command::Analyze => run_analyze(args, out),
        Command::Knn => run_knn(args, out),
        Command::Query { audit } => run_query(args, audit, out),
        Command::TraceAnalyze => run_trace_analyze(args, out),
        Command::TraceWatch => run_trace_watch(args, out),
        Command::TraceDump => run_trace_dump(args, out),
        Command::ChaosRun => run_chaos_run(args, out),
        Command::PrivacyReport => run_privacy_report(args, out),
        Command::StoreInit => run_store_init(args, out),
        Command::StoreIngest => run_store_ingest(args, out),
        Command::StoreCompact => run_store_compact(args, out),
    }
}

/// Resolves `--store-dir`, required by every store subcommand.
fn store_dir(args: &Arguments) -> Result<std::path::PathBuf, CliError> {
    args.get("store-dir")
        .map(std::path::PathBuf::from)
        .ok_or(CliError::BadFlag {
            flag: "--store-dir".into(),
        })
}

/// Per-node store directory layout: `<store-dir>/node<i>`.
fn node_store_dir(root: &Path, i: usize) -> std::path::PathBuf {
    root.join(format!("node{i}"))
}

/// Opens the `node0..` stores under `root`, in node order.
fn open_stores(root: &Path) -> Result<Vec<NodeStore>, CliError> {
    let mut stores = Vec::new();
    loop {
        let dir = node_store_dir(root, stores.len());
        if !dir.join(privtopk_store::log::LOG_FILE).exists() {
            break;
        }
        stores.push(
            NodeStore::open(&dir)
                .map_err(|e| CliError::Execution(format!("{}: {e}", dir.display())))?,
        );
    }
    if stores.is_empty() {
        return Err(CliError::Execution(format!(
            "no node stores under {} (run `privtopk store init` first)",
            root.display()
        )));
    }
    Ok(stores)
}

/// `privtopk store init --store-dir DIR --nodes N` — create empty
/// persistent stores, one per node.
fn run_store_init(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let root = store_dir(args)?;
    let nodes: usize = args.parse_or("nodes", 4)?;
    if nodes == 0 {
        return Err(CliError::Execution("--nodes must be at least 1".into()));
    }
    let lo: i64 = args.parse_or("domain-min", 1i64)?;
    let hi: i64 = args.parse_or("domain-max", 10_000i64)?;
    let domain = ValueDomain::new(Value::new(lo), Value::new(hi))
        .map_err(|e| CliError::Execution(e.to_string()))?;
    for i in 0..nodes {
        let dir = node_store_dir(&root, i);
        NodeStore::create(&dir, domain)
            .map_err(|e| CliError::Execution(format!("{}: {e}", dir.display())))?;
        write_out(out, &format!("node#{i}: created {}\n", dir.display()))?;
    }
    write_out(
        out,
        &format!(
            "store: {nodes} empty node stores under {} (domain [{lo}, {hi}])\n",
            root.display()
        ),
    )
}

/// `privtopk store ingest` — stream synthetic rows chunk-by-chunk into
/// the node stores; peak memory is bounded by the chunk size and the
/// candidate index, never by `--rows`.
fn run_store_ingest(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let root = store_dir(args)?;
    let stores = open_stores(&root)?;
    let nodes = stores.len();
    let rows: usize = args.parse_or("rows", 1000)?;
    let seed: u64 = args.parse_or("seed", 0x5EED)?;
    let chunk: usize = args.parse_or("chunk", 65_536)?;
    if chunk == 0 {
        return Err(CliError::Execution("--chunk must be at least 1".into()));
    }
    let builder = DatasetBuilder::new(nodes)
        .rows_per_node(rows)
        .domain(stores[0].domain())
        .distribution(parse_distribution(args)?)
        .seed(seed);
    for (i, store) in stores.iter().enumerate() {
        let mut stream = builder
            .node_value_stream(i)
            .map_err(|e| CliError::Execution(e.to_string()))?;
        loop {
            let mut taken = 0usize;
            store
                .insert_many(stream.by_ref().take(chunk).inspect(|_| taken += 1))
                .map_err(|e| CliError::Execution(e.to_string()))?;
            if taken < chunk {
                break;
            }
        }
        let stats = store.stats();
        write_out(
            out,
            &format!(
                "node#{i}: +{rows} rows (total {}, index depth {})\n",
                stats.rows, stats.index_depth
            ),
        )?;
    }
    write_out(
        out,
        &format!("store: ingested {rows} rows into each of {nodes} nodes\n"),
    )
}

/// `privtopk store compact --store-dir DIR` — rewrite each node's log
/// to live rows only.
fn run_store_compact(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let root = store_dir(args)?;
    let stores = open_stores(&root)?;
    for (i, store) in stores.iter().enumerate() {
        let before = store.stats().log_records;
        store
            .compact()
            .map_err(|e| CliError::Execution(e.to_string()))?;
        let after = store.stats().log_records;
        write_out(
            out,
            &format!("node#{i}: compacted {before} -> {after} log records\n"),
        )?;
    }
    write_out(
        out,
        &format!("store: compacted {} node stores\n", stores.len()),
    )
}

/// Reads every positional operand as a JSONL trace file into one
/// collector (shared by `trace analyze` and `privacy report`).
fn collect_trace_files(args: &Arguments, what: &str) -> Result<CollectedTrace, CliError> {
    if args.positionals().is_empty() {
        return Err(CliError::Execution(format!(
            "{what} needs at least one JSONL trace file"
        )));
    }
    let mut collector = TraceCollector::new();
    for path in args.positionals() {
        let content = std::fs::read_to_string(path)
            .map_err(|e| CliError::Execution(format!("cannot read {path}: {e}")))?;
        collector.ingest_jsonl(path, &content);
    }
    Ok(collector.finish())
}

/// `--lop-alert X`, parsed when present.
fn parse_lop_alert(args: &Arguments) -> Result<Option<f64>, CliError> {
    match args.get("lop-alert") {
        None => Ok(None),
        Some(_) => Ok(Some(args.parse_or("lop-alert", 0.0)?)),
    }
}

/// Replays a collected trace's protocol coordinates — and nothing else —
/// through a privacy accountant: ring size and round count are inferred
/// per query from its hop chain (`--nodes` overrides the ring size), and
/// each query is observed under those coordinates exactly as a live
/// service would have observed it.
fn account_trace(args: &Arguments, trace: &CollectedTrace) -> Result<LopAccountant, CliError> {
    let k: usize = args.parse_or("k", 1)?;
    let trials: usize = args.parse_or("trials", DEFAULT_SHADOW_TRIALS)?;
    let shadow_seed: u64 = args.parse_or("seed", DEFAULT_SHADOW_SEED)?;
    if trials == 0 {
        return Err(CliError::Execution("--trials must be at least 1".into()));
    }
    let nodes_flag: usize = args.parse_or("nodes", 0)?;
    let accountant = LopAccountant::with_budget(trials, shadow_seed);
    for query in trace.queries() {
        let mut n = nodes_flag;
        let mut rounds = 0u32;
        for span in trace.chain(query) {
            if nodes_flag == 0 {
                if let Some(hop) = span.event.ctx.hop {
                    n = n.max(hop as usize + 1);
                }
            }
            if let Some(round) = span.event.ctx.round {
                rounds = rounds.max(round);
            }
        }
        if n < 3 || rounds == 0 {
            continue; // chain too fragmentary to carry coordinates
        }
        let config = ProtocolConfig::topk(k.max(1))
            .with_schedule(privtopk_core::Schedule::paper_default())
            .with_rounds(RoundPolicy::Fixed(rounds));
        accountant.observe(&config, n, rounds);
    }
    Ok(accountant)
}

/// Flattens an accountant snapshot into the observability layer's
/// privacy-agnostic ledger.
fn ledger_from_snapshot(snapshot: &AccountantSnapshot) -> PrivacyLedger {
    PrivacyLedger {
        queries_accounted: snapshot.queries_accounted,
        per_node_lop: snapshot.per_node.iter().map(|e| e.lop).collect(),
        per_node_ci95: snapshot.per_node.iter().map(|e| e.ci95).collect(),
        per_node_class: snapshot
            .per_node
            .iter()
            .map(|e| e.class.to_string())
            .collect(),
        average_lop: snapshot.average_lop,
        worst_lop: snapshot.worst_lop,
        worst_class: snapshot
            .per_node
            .iter()
            .map(|e| e.class)
            .max()
            .map(|c| c.to_string())
            .unwrap_or_default(),
    }
}

/// `privtopk privacy report FILE...` — re-derive the live accountant's
/// per-node LoP estimates offline from collected trace files.
fn run_privacy_report(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let trace = collect_trace_files(args, "privacy report")?;
    let accountant = account_trace(args, &trace)?;
    let snapshot = accountant.snapshot();
    if snapshot.queries_accounted == 0 {
        return Err(CliError::Execution(
            "no complete query chains found: the traces carry no (round, hop) coordinates to account"
                .into(),
        ));
    }
    if args.has("json") {
        let mut json = format!(
            "{{\"queries_accounted\":{},\"average_lop\":{:.6},\"worst_lop\":{:.6},\"per_node\":[",
            snapshot.queries_accounted, snapshot.average_lop, snapshot.worst_lop
        );
        for (i, e) in snapshot.per_node.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"node\":{},\"lop\":{:.6},\"ci95\":{:.6},\"class\":\"{}\"}}",
                e.node, e.lop, e.ci95, e.class
            ));
        }
        json.push_str("],\"spectrum\":{");
        for (i, (label, count)) in snapshot.spectrum.as_labeled().iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!("\"{label}\":{count}"));
        }
        json.push_str("}}");
        return write_out(out, &format!("{json}\n"));
    }
    let mut text = format!(
        "privacy report: {} queries accounted across {} nodes\n",
        snapshot.queries_accounted,
        snapshot.per_node.len()
    );
    for e in &snapshot.per_node {
        text.push_str(&format!(
            "  node#{}: LoP {:.4} +-{:.4} ({})\n",
            e.node, e.lop, e.ci95, e.class
        ));
    }
    text.push_str(&format!(
        "  average {:.4}, worst {:.4}\n",
        snapshot.average_lop, snapshot.worst_lop
    ));
    text.push_str("  spectrum:");
    for (label, count) in snapshot.spectrum.as_labeled() {
        if count > 0 {
            text.push_str(&format!(" {label} x{count}"));
        }
    }
    text.push('\n');
    write_out(out, &text)
}

/// `privtopk trace analyze FILE...` — merge per-node JSONL traces into
/// one causally ordered view and report each query's critical path.
fn run_trace_analyze(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let mut trace = collect_trace_files(args, "trace analyze")?;
    // With a declared topology, every chain is validated against it;
    // otherwise completeness is inferred from the trace's own bounds.
    let nodes: usize = args.parse_or("nodes", 0)?;
    let rounds: u32 = args.parse_or("rounds", 0)?;
    if nodes > 0 && rounds > 0 {
        trace.validate_topology(nodes, rounds);
    }
    // The privacy panel is strictly opt-in: without --lop-alert the
    // report is byte-identical to earlier releases.
    let lop_alert = parse_lop_alert(args)?;
    if lop_alert.is_some() {
        let accountant = account_trace(args, &trace)?;
        trace.privacy = Some(ledger_from_snapshot(&accountant.snapshot()));
    }
    let defaults = AnalyzerConfig::default();
    let bytes_hint: f64 = args.parse_or("bytes-per-frame", 0.0)?;
    let config = AnalyzerConfig {
        stall_multiplier: args.parse_or("stall-multiplier", defaults.stall_multiplier)?,
        incident_gap_us: args.parse_or("incident-gap-us", defaults.incident_gap_us)?,
        bytes_per_frame_hint: (bytes_hint > 0.0).then_some(bytes_hint),
    };
    let analysis = analyze(&trace, &config);
    if args.has("json") {
        return write_out(out, &format!("{}\n", analysis.to_json()));
    }
    write_out(out, &analysis.to_string())?;
    if let (Some(threshold), Some(privacy)) = (lop_alert, &analysis.privacy) {
        if privacy.worst_lop > threshold {
            write_out(
                out,
                &format!(
                    "privacy alert: worst LoP {:.4} exceeds --lop-alert {threshold}\n",
                    privacy.worst_lop
                ),
            )?;
        } else {
            write_out(
                out,
                &format!(
                    "privacy ok: worst LoP {:.4} within --lop-alert {threshold}\n",
                    privacy.worst_lop
                ),
            )?;
        }
    }
    Ok(())
}

/// `privtopk trace watch --addr HOST:PORT` — poll a live service
/// metrics endpoint, printing each scrape's samples and any firing
/// SLO burn-rate alerts. Transient scrape failures are retried with
/// bounded exponential backoff; `--max-misses` consecutive misses
/// (default 3) end the watch with an error.
fn run_trace_watch(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let raw_addr = args.get("addr").ok_or(CliError::BadFlag {
        flag: "--addr".into(),
    })?;
    let addr: std::net::SocketAddr = raw_addr.parse().map_err(|_| CliError::BadValue {
        flag: "--addr".into(),
        value: raw_addr.into(),
    })?;
    let interval = std::time::Duration::from_millis(args.parse_or("interval-ms", 1000u64)?);
    let count: u64 = args.parse_or("count", 0u64)?;
    let max_misses: u32 = args.parse_or("max-misses", 3u32)?.max(1);
    let lop_alert = parse_lop_alert(args)?;
    let mut poll = 0u64;
    let mut misses = 0u32;
    loop {
        match privtopk_observe::scrape(&addr) {
            Ok(body) => {
                misses = 0;
                poll += 1;
                let mut text = format!("--- poll {poll} ---\n");
                for line in body
                    .lines()
                    .filter(|l| !l.starts_with('#') && !l.is_empty())
                {
                    text.push_str(line);
                    text.push('\n');
                }
                for alert in parse_slo_alerts(&body) {
                    text.push_str(&alert);
                    text.push('\n');
                }
                if let Some(threshold) = lop_alert {
                    for (node, lop) in parse_lop_node_gauges(&body) {
                        if lop > threshold {
                            text.push_str(&format!(
                                "privacy alert: node {node} LoP {lop:.4} exceeds --lop-alert {threshold}\n"
                            ));
                        }
                    }
                }
                write_out(out, &text)?;
                if count > 0 && poll >= count {
                    return Ok(());
                }
                std::thread::sleep(interval);
            }
            Err(e) => {
                misses += 1;
                if misses >= max_misses {
                    // Budget exhausted: final error either way, so a
                    // flapping endpoint cannot wedge the watch forever.
                    return Err(CliError::Execution(if poll == 0 {
                        format!("cannot scrape {addr}: {e} ({misses} consecutive misses)")
                    } else {
                        format!("lost {addr} after {poll} polls: {e} ({misses} consecutive misses)")
                    }));
                }
                write_out(
                    out,
                    &format!("--- miss {misses}/{max_misses}: {e}; retrying ---\n"),
                )?;
                // Bounded backoff: 1x, 2x, 4x ... the poll interval,
                // capped at 8x so recovery detection stays prompt.
                let factor = 2u32.saturating_pow(misses - 1).min(8);
                std::thread::sleep(interval * factor);
            }
        }
    }
}

/// Pulls firing SLO alerts out of a scrape body: when a
/// `privtopk_slo_*_alert` gauge reads 1, render the matching burn-rate
/// line from the `_burn_short`/`_burn_long` gauges next to it.
fn parse_slo_alerts(body: &str) -> Vec<String> {
    let gauge = |name: &str| -> Option<f64> {
        body.lines().find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
    };
    let mut alerts = Vec::new();
    for objective in ["latency", "availability"] {
        if gauge(&format!("privtopk_slo_{objective}_alert ")) == Some(1.0) {
            let short = gauge(&format!("privtopk_slo_{objective}_burn_short ")).unwrap_or(0.0);
            let long = gauge(&format!("privtopk_slo_{objective}_burn_long ")).unwrap_or(0.0);
            alerts.push(format!(
                "SLO ALERT {objective}: burn {short:.2}x short / {long:.2}x long"
            ));
        }
    }
    alerts
}

/// Pulls `(node, lop)` pairs out of a Prometheus scrape body's
/// `privtopk_privacy_lop_node{node="N"} V` sample lines.
fn parse_lop_node_gauges(body: &str) -> Vec<(u32, f64)> {
    let mut gauges = Vec::new();
    for line in body.lines() {
        let Some(rest) = line.strip_prefix("privtopk_privacy_lop_node{node=\"") else {
            continue;
        };
        let Some((node, value)) = rest.split_once("\"} ") else {
            continue;
        };
        if let (Ok(node), Ok(value)) = (node.parse(), value.trim().parse()) {
            gauges.push((node, value));
        }
    }
    gauges
}

/// `privtopk chaos run` — execute a seeded incident schedule (node
/// crash, ring partition, sustained loss) against a standing service
/// while a query workload flows, prove every answer bit-identical to a
/// fault-free run, and report the analyzer's per-incident healing cost.
fn run_chaos_run(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let nodes: usize = args.parse_or("nodes", 5)?;
    let k: usize = args.parse_or("k", 3)?;
    let incidents: usize = args.parse_or("incidents", 2)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let depth: usize = args.parse_or("pipeline", 8)?;
    let dbs = DatasetBuilder::new(nodes)
        .rows_per_node((k.max(2)) * 4)
        .seed(seed)
        .build()
        .map_err(|e| CliError::Execution(e.to_string()))?;
    let federation = Federation::new(dbs).map_err(|e| CliError::Execution(e.to_string()))?;
    let spec = QuerySpec::top_k("value", k);
    let state = ChaosState::new(ChaosPlan::seeded(seed, nodes as u32, incidents));
    let plan = state.plan();

    let recorder = Recorder::new();
    let network = NetworkKind::Chaos(state.clone());
    let mut chaotic = federation
        .serve_traced(&spec, network, depth, recorder.clone())
        .map_err(|e| CliError::Execution(e.to_string()))?;
    state.arm();
    // Waves of queries until every incident window has opened and
    // closed, so the whole schedule hits live traffic.
    let mut seeds = Vec::new();
    let mut outcomes = Vec::new();
    let mut wave = 0u64;
    while !state.quiescent() || wave == 0 {
        let batch: Vec<u64> = (0..depth as u64)
            .map(|i| derive_batch_seed(seed ^ wave.wrapping_mul(0x9E37), i))
            .collect();
        outcomes.extend(
            chaotic
                .query_many(&batch)
                .map_err(|e| CliError::Execution(e.to_string()))?,
        );
        seeds.extend(batch);
        wave += 1;
    }
    let stats = chaotic.stats();
    let flight = chaotic.dump_flight_recorder();
    chaotic
        .shutdown()
        .map_err(|e| CliError::Execution(e.to_string()))?;

    // The same seeds on a fault-free standing service must produce
    // byte-identical values and transcripts.
    let mut clean = federation
        .serve(&spec, NetworkKind::InMemory, depth)
        .map_err(|e| CliError::Execution(e.to_string()))?;
    let baseline = clean
        .query_many(&seeds)
        .map_err(|e| CliError::Execution(e.to_string()))?;
    clean
        .shutdown()
        .map_err(|e| CliError::Execution(e.to_string()))?;
    let identical = outcomes.len() == baseline.len()
        && outcomes.iter().zip(&baseline).all(|(chaos, clean)| {
            chaos.values() == clean.values()
                && chaos.transcript().steps() == clean.transcript().steps()
        });
    if !identical {
        return Err(CliError::Execution(
            "chaos run diverged from the fault-free baseline".into(),
        ));
    }

    let mut collector = TraceCollector::new();
    collector.ingest_recorder("chaos", &recorder);
    let config = AnalyzerConfig {
        bytes_per_frame_hint: Some(stats.bytes_sent as f64 / stats.frames_sent.max(1) as f64),
        ..AnalyzerConfig::default()
    };
    let analysis = analyze(&collector.finish(), &config);

    if let Some(path) = args.get("flight-out") {
        std::fs::write(path, &flight).map_err(|e| CliError::Execution(format!("{path}: {e}")))?;
    }

    if args.has("json") {
        let mut json = String::from("{");
        json.push_str(&format!(
            "\"nodes\":{nodes},\"k\":{k},\"pipeline\":{depth},\"seed\":{seed},\
             \"incidents_scheduled\":{},\"queries\":{},\"frames_dropped\":{},\
             \"retransmissions\":{},\"re_acks\":{},\"bit_identical\":true,\"analysis\":{}",
            plan.incidents.len(),
            outcomes.len(),
            state.dropped(),
            stats.retransmissions,
            stats.re_acks,
            analysis.to_json(),
        ));
        json.push('}');
        return write_out(out, &format!("{json}\n"));
    }

    let mut text = format!(
        "chaos run: {nodes} nodes, depth {depth}, {} scheduled incidents, seed {seed}\n",
        plan.incidents.len()
    );
    for incident in &plan.incidents {
        text.push_str(&format!(
            "  t+{}ms for {}ms: {}\n",
            incident.at.as_millis(),
            incident.duration.as_millis(),
            incident.event.describe()
        ));
    }
    text.push_str(&format!(
        "workload: {} queries, {} frames dropped by chaos, {} retransmissions, {} re-acks\n\
         bit-identity: OK — every answer and transcript matches the fault-free run\n",
        outcomes.len(),
        state.dropped(),
        stats.retransmissions,
        stats.re_acks,
    ));
    write_out(out, &text)?;
    write_out(out, &analysis.to_string())
}

/// `privtopk trace dump --out PATH` — run a short standing-service
/// workload under a stats-only recorder and dump its event ring (the
/// most recent spans) to JSONL for `trace analyze`.
fn run_trace_dump(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let path = args.get("out").ok_or(CliError::BadFlag {
        flag: "--out".into(),
    })?;
    let nodes: usize = args.parse_or("nodes", 5)?;
    let k: usize = args.parse_or("k", 3)?;
    let queries: u64 = args.parse_or("queries", 16)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let dbs = DatasetBuilder::new(nodes)
        .rows_per_node((k.max(2)) * 4)
        .seed(seed)
        .build()
        .map_err(|e| CliError::Execution(e.to_string()))?;
    let federation = Federation::new(dbs).map_err(|e| CliError::Execution(e.to_string()))?;
    let spec = QuerySpec::top_k("value", k);
    // stats_only: even the cheapest enabled mode keeps its newest
    // 4,096 events, so the dump needs no full tracing.
    let mut service = federation
        .serve_traced(&spec, NetworkKind::InMemory, 4, Recorder::stats_only())
        .map_err(|e| CliError::Execution(e.to_string()))?;
    let seeds: Vec<u64> = (0..queries).map(|i| derive_batch_seed(seed, i)).collect();
    service
        .query_many(&seeds)
        .map_err(|e| CliError::Execution(e.to_string()))?;
    let dump = service.dump_flight_recorder();
    service
        .shutdown()
        .map_err(|e| CliError::Execution(e.to_string()))?;
    std::fs::write(path, &dump).map_err(|e| CliError::Execution(format!("{path}: {e}")))?;
    write_out(
        out,
        &format!(
            "wrote {} flight-recorder events to {path} ({queries} queries served)\n",
            dump.lines().count(),
        ),
    )
}

fn run_knn(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let k: usize = args.parse_or("k", 5)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let query: Vec<f64> = args
        .get("query")
        .ok_or(CliError::BadFlag {
            flag: "--query".into(),
        })?
        .split(',')
        .map(|c| {
            c.trim().parse().map_err(|_| CliError::BadValue {
                flag: "--query".into(),
                value: c.trim().into(),
            })
        })
        .collect::<Result<_, _>>()?;

    let shards: Vec<Vec<LabeledPoint>> = if let Some(dir) = args.get("csv-dir") {
        let tables = load_csv_dir(Path::new(dir))?;
        write_out(
            out,
            &format!("loaded {} participants from {dir}\n", tables.len()),
        )?;
        tables
            .into_iter()
            .map(|(name, table)| {
                let label_col = table
                    .column_by_name("label")
                    .map_err(|_| CliError::Execution(format!("{name}: missing `label` column")))?;
                Ok(table
                    .iter()
                    .map(|row| {
                        let features: Vec<f64> = row
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != label_col.get())
                            .map(|(_, v)| v.get() as f64)
                            .collect();
                        let label = row[label_col.get()].get().unsigned_abs() as usize;
                        LabeledPoint::new(features, label)
                    })
                    .collect())
            })
            .collect::<Result<_, CliError>>()?
    } else {
        // Synthetic two-blob demo data, dimension = query dimension.
        let nodes: usize = args.parse_or("nodes", 4)?;
        let mut rng = privtopk_domain::rng::seeded_rng(seed ^ 0x1234);
        write_out(
            out,
            &format!("synthetic training data across {nodes} parties\n"),
        )?;
        (0..nodes)
            .map(|_| {
                (0..20)
                    .map(|_| {
                        let label = usize::from(rand::Rng::gen_bool(&mut rng, 0.5));
                        let c = if label == 0 { 0.0 } else { 100.0 };
                        let features = query
                            .iter()
                            .map(|_| c + rand::Rng::gen_range(&mut rng, -30.0..30.0))
                            .collect();
                        LabeledPoint::new(features, label)
                    })
                    .collect()
            })
            .collect()
    };

    let flat: Vec<LabeledPoint> = shards.iter().flatten().cloned().collect();
    let config = KnnConfig::new(k);
    let classifier = PrivateKnnClassifier::new(config, shards)
        .map_err(|e| CliError::Execution(e.to_string()))?;
    let label = classifier
        .classify(&query, seed)
        .map_err(|e| CliError::Execution(e.to_string()))?;
    let reference = centralized_knn(&flat, &query, &config);
    write_out(
        out,
        &format!(
            "\nfederated {k}-NN over {} parties, {} training points\nquery {query:?} -> label {label}\ncentralized reference agrees: {}\n",
            classifier.parties(),
            flat.len(),
            label == reference,
        ),
    )
}

fn write_out(out: &mut impl Write, text: &str) -> Result<(), CliError> {
    out.write_all(text.as_bytes())
        .map_err(|e| CliError::Execution(format!("write failed: {e}")))
}

fn run_analyze(args: &Arguments, out: &mut impl Write) -> Result<(), CliError> {
    let p0: f64 = args.parse_or("p0", 1.0)?;
    let d: f64 = args.parse_or("d", 0.5)?;
    let epsilon: f64 = args.parse_or("epsilon", 1e-3)?;
    let rounds: u32 = args.parse_or("rounds", 10)?;
    let params = RandomizationParams::new(p0, d).map_err(|e| CliError::Execution(e.to_string()))?;

    let mut text = format!("analysis for (p0 = {p0}, d = {d})\n\n");
    text.push_str("round  precision_bound(Eq.3)  expected_lop(Eq.6)\n");
    for r in 1..=rounds {
        text.push_str(&format!(
            "{r:>5}  {:>21.6}  {:>18.6}\n",
            correctness::precision_lower_bound(params, r),
            privacy_bounds::probabilistic_lop_round_term(params, r),
        ));
    }
    match efficiency::min_rounds_for_precision(params, epsilon) {
        Ok(r_min) => text.push_str(&format!(
            "\nrounds needed for precision {} (Eq.4): {r_min}\n",
            1.0 - epsilon
        )),
        Err(e) => text.push_str(&format!("\nprecision {} unreachable: {e}\n", 1.0 - epsilon)),
    }
    write_out(out, &text)
}

fn parse_kind(args: &Arguments) -> Result<QueryKind, CliError> {
    let k: usize = args.parse_or("k", 1)?;
    match args.get_or("kind", "max") {
        "max" => Ok(QueryKind::Max),
        "min" => Ok(QueryKind::Min),
        "topk" => Ok(QueryKind::TopK(k)),
        "bottomk" => Ok(QueryKind::BottomK(k)),
        "kth" => Ok(QueryKind::KthLargest(k)),
        other => Err(CliError::BadValue {
            flag: "--kind".into(),
            value: other.into(),
        }),
    }
}

/// `--network memory|tcp`: run over a wire (the in-memory FIFO ring or
/// TCP loopback) instead of the in-process simulation; `None` keeps the
/// simulated engine.
fn parse_network(args: &Arguments) -> Result<Option<NetworkKind>, CliError> {
    match args.get("network") {
        None => Ok(None),
        Some("memory") => Ok(Some(NetworkKind::InMemory)),
        Some("tcp") => Ok(Some(NetworkKind::Tcp)),
        Some(other) => Err(CliError::BadValue {
            flag: "--network".into(),
            value: other.into(),
        }),
    }
}

/// Writes the JSONL trace (if `--trace-out`) and prints the `--stats`
/// summary — phase quantiles, counters and gauges from `recorder`, plus
/// the live service figures when the query ran through the persistent
/// service. Purely additive: nothing here alters the query output above
/// it.
fn emit_telemetry(
    recorder: &Recorder,
    trace_out: Option<&str>,
    stats: bool,
    service_stats: Option<&ServiceStats>,
    out: &mut impl Write,
) -> Result<(), CliError> {
    if let Some(path) = trace_out {
        std::fs::write(path, recorder.trace_jsonl())
            .map_err(|e| CliError::Execution(format!("cannot write trace to {path}: {e}")))?;
        write_out(
            out,
            &format!("\ntrace: {} events -> {path}\n", recorder.events_recorded()),
        )?;
    }
    if stats {
        write_out(out, &format!("\n{}", recorder.summary()))?;
        if let Some(s) = service_stats {
            write_out(
                out,
                &format!(
                    "service stats: depth {} | in flight {} | high water {} | submitted {} | completed {}\n\
                     queue wait: count {} p50 {}ns p99 {}ns max {}ns\n\
                     wire: {} frames, {} logical messages, {} bytes, \
                     {} retransmissions, {} re-acks\n",
                    s.depth,
                    s.in_flight,
                    s.pipeline_high_water,
                    s.queries_submitted,
                    s.queries_completed,
                    s.queue_wait.count,
                    s.queue_wait.p50_ns,
                    s.queue_wait.p99_ns,
                    s.queue_wait.max_ns,
                    s.frames_sent,
                    s.logical_messages,
                    s.bytes_sent,
                    s.retransmissions,
                    s.re_acks,
                ),
            )?;
        }
    }
    Ok(())
}

fn parse_distribution(args: &Arguments) -> Result<DataDistribution, CliError> {
    match args.get_or("dist", "uniform") {
        "uniform" => Ok(DataDistribution::Uniform),
        "normal" => Ok(DataDistribution::centered_normal()),
        "zipf" => Ok(DataDistribution::classic_zipf()),
        other => Err(CliError::BadValue {
            flag: "--dist".into(),
            value: other.into(),
        }),
    }
}

fn build_members(
    args: &Arguments,
    attribute: &str,
    out: &mut impl Write,
) -> Result<Vec<PrivateDatabase>, CliError> {
    let domain = ValueDomain::paper_default();
    if let Some(dir) = args.get("csv-dir") {
        let tables = load_csv_dir(Path::new(dir))?;
        write_out(
            out,
            &format!("loaded {} participants from {dir}\n", tables.len()),
        )?;
        tables
            .into_iter()
            .enumerate()
            .map(|(i, (name, table))| {
                write_out(
                    out,
                    &format!("  node#{i} = {name} ({} rows)\n", table.len()),
                )?;
                PrivateDatabase::new(NodeId::new(i), domain, table, attribute)
                    .map_err(|e| CliError::Execution(format!("{name}: {e}")))
            })
            .collect()
    } else {
        let nodes: usize = args.parse_or("nodes", 4)?;
        let rows: usize = args.parse_or("rows", 20)?;
        let seed: u64 = args.parse_or("seed", 0x5EED)?;
        write_out(
            out,
            &format!("synthetic federation: {nodes} nodes x {rows} rows\n"),
        )?;
        DatasetBuilder::new(nodes)
            .rows_per_node(rows)
            .distribution(parse_distribution(args)?)
            .seed(seed)
            .build()
            .map_err(|e| CliError::Execution(e.to_string()))
    }
}

fn run_query(args: &Arguments, audit: bool, out: &mut impl Write) -> Result<(), CliError> {
    // Persistent-store backend: answer from on-disk node stores through
    // the source-backed service runtime instead of synthetic/CSV tables.
    if args.get("store-dir").is_some() {
        return run_query_store(args, audit, out);
    }
    let attribute = args.get_or("attribute", "value").to_string();
    let kind = parse_kind(args)?;
    let epsilon: f64 = args.parse_or("epsilon", 1e-6)?;
    let seed: u64 = args.parse_or("seed", 42)?;

    let members = build_members(args, &attribute, out)?;
    let federation =
        Federation::new(members.clone()).map_err(|e| CliError::Execution(e.to_string()))?;
    let spec = match kind {
        QueryKind::Max => QuerySpec::max(&attribute),
        QueryKind::Min => QuerySpec::min(&attribute),
        QueryKind::TopK(k) => QuerySpec::top_k(&attribute, k),
        QueryKind::BottomK(k) => QuerySpec::bottom_k(&attribute, k),
        QueryKind::KthLargest(rank) => QuerySpec::kth_largest(&attribute, rank),
    }
    .with_epsilon(epsilon);

    let batch_width: usize = args.parse_or("batch", 1)?;
    if batch_width == 0 {
        return Err(CliError::Execution("--batch must be at least 1".into()));
    }
    let service_mode = args.get("repeat").is_some() || args.get("pipeline").is_some();
    if args.get("metrics-addr").is_some() && !service_mode {
        return Err(CliError::Execution(
            "--metrics-addr needs a running service; add --repeat/--pipeline".into(),
        ));
    }

    // Telemetry is opt-in and additive: the recorder only exists when
    // `--trace-out` or `--stats` asked for it, and the default stdout is
    // byte-identical either way (tracing never changes transcripts).
    // A scrape endpoint still needs a live counter/gauge registry, so
    // `--metrics-addr` alone gets the stats-only tier.
    let stats_requested = args.has("stats");
    let trace_out = args.get("trace-out").map(str::to_string);
    let telemetry = stats_requested || trace_out.is_some();
    let recorder = if telemetry {
        Recorder::new()
    } else if args.get("metrics-addr").is_some() {
        Recorder::stats_only()
    } else {
        Recorder::disabled()
    };
    let network = parse_network(args)?;

    // §4.2 group-parallel max: split the participants into g subrings,
    // then run a leader ring over the group winners.
    let groups: usize = args.parse_or("groups", 0)?;
    if groups > 0 {
        if audit || batch_width > 1 || service_mode {
            return Err(CliError::Execution(
                "--groups cannot combine with audit, --batch or --repeat".into(),
            ));
        }
        if telemetry || network.is_some() {
            return Err(CliError::Execution(
                "--groups does not support --trace-out, --stats or --network".into(),
            ));
        }
        if !matches!(kind, QueryKind::Max) {
            return Err(CliError::Execution(
                "--groups requires --kind max (the Section 4.2 optimization is defined for max selection)"
                    .into(),
            ));
        }
        // Each participant contributes its private local maximum.
        let values: Vec<Value> = members
            .iter()
            .map(|m| {
                let col = m
                    .table()
                    .column_by_name(&attribute)
                    .map_err(|e| CliError::Execution(e.to_string()))?;
                m.table()
                    .column_iter(col)
                    .max()
                    .ok_or_else(|| CliError::Execution("a participant holds no rows".into()))
            })
            .collect::<Result<_, _>>()?;
        let config = ProtocolConfig::max()
            .with_domain(federation.domain())
            .with_schedule(spec.schedule())
            .with_rounds(RoundPolicy::Precision { epsilon });
        let outcome = grouped_max(&config, &values, groups, seed)
            .map_err(|e| CliError::Execution(e.to_string()))?;
        return write_out(
            out,
            &format!(
                "\ngroup-parallel max over `{attribute}`: {} nodes in {groups} groups\n\
                 result: [{}]\n\
                 total messages: {}  critical path messages: {}\n",
                values.len(),
                outcome.result,
                outcome.total_messages,
                outcome.critical_path_messages,
            ),
        );
    }

    if batch_width > 1 {
        if audit {
            return Err(CliError::Execution(
                "audit does not support --batch; audit queries one at a time".into(),
            ));
        }
        if service_mode {
            return Err(CliError::Execution(
                "--batch cannot combine with --repeat/--pipeline; pick one execution mode".into(),
            ));
        }
        let batch = QueryBatch::from_specs(vec![spec; batch_width], seed);
        let outcomes = match network {
            Some(nk) => federation.execute_batch_distributed_traced(&batch, nk, &recorder),
            None => federation.execute_batch_traced(&batch, &recorder),
        }
        .map_err(|e| CliError::Execution(e.to_string()))?;
        let mut text = format!(
            "\nbatched query: {batch_width} x {kind:?} over `{attribute}` (epsilon {epsilon}), one ring execution\n"
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            let rendered: Vec<String> = outcome.values().iter().map(ToString::to_string).collect();
            text.push_str(&format!(
                "query#{i} result: [{}] rounds: {} messages: {}\n",
                rendered.join(", "),
                outcome.rounds(),
                outcome.messages(),
            ));
        }
        write_out(out, &text)?;
        return emit_telemetry(&recorder, trace_out.as_deref(), stats_requested, None, out);
    }

    // Persistent service mode: stand the federation up once, then stream
    // `--repeat` queries through it, `--pipeline` of them in flight at a
    // time. Per-query seeds are batch-derived from --seed, so query i's
    // outcome is bit-identical to a solo run under that seed.
    if service_mode {
        if audit {
            return Err(CliError::Execution(
                "audit does not support --repeat; audit queries one at a time".into(),
            ));
        }
        let repeat: usize = args.parse_or("repeat", 1)?;
        let depth: usize = args.parse_or("pipeline", 1)?;
        if repeat == 0 {
            return Err(CliError::Execution("--repeat must be at least 1".into()));
        }
        let mut service = federation
            .serve_traced(
                &spec,
                network.unwrap_or(NetworkKind::InMemory),
                depth,
                recorder.clone(),
            )
            .map_err(|e| CliError::Execution(e.to_string()))?;
        if let Some(metrics_addr) = args.get("metrics-addr") {
            let bound = service
                .metrics_endpoint(metrics_addr)
                .map_err(|e| CliError::Execution(format!("cannot bind {metrics_addr}: {e}")))?;
            write_out(out, &format!("metrics: serving on {bound}\n"))?;
        }
        let seeds: Vec<u64> = (0..repeat as u64)
            .map(|i| derive_batch_seed(seed, i))
            .collect();
        let outcomes = service
            .query_many(&seeds)
            .map_err(|e| CliError::Execution(e.to_string()))?;
        let metrics = service.metrics();
        let service_stats = service.stats();
        service
            .shutdown()
            .map_err(|e| CliError::Execution(e.to_string()))?;
        let mut text = format!(
            "\nservice: {repeat} x {kind:?} over `{attribute}` (epsilon {epsilon}), pipeline depth {depth}\n"
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            let rendered: Vec<String> = outcome.values().iter().map(ToString::to_string).collect();
            text.push_str(&format!(
                "query#{i} result: [{}] rounds: {} messages: {}\n",
                rendered.join(", "),
                outcome.rounds(),
                outcome.messages(),
            ));
        }
        let wire = metrics.peek();
        text.push_str(&format!(
            "service totals: {} frames, {} bytes\n",
            wire.frames_sent, wire.bytes_sent,
        ));
        write_out(out, &text)?;
        return emit_telemetry(
            &recorder,
            trace_out.as_deref(),
            stats_requested,
            Some(&service_stats),
            out,
        );
    }

    let outcome = match network {
        Some(nk) => federation.execute_distributed_traced(&spec, nk, seed, &recorder),
        None => federation.execute_traced(&spec, seed, &recorder),
    }
    .map_err(|e| CliError::Execution(e.to_string()))?;

    let rendered: Vec<String> = outcome.values().iter().map(ToString::to_string).collect();
    write_out(
        out,
        &format!(
            "\nquery: {:?} over `{attribute}` (epsilon {epsilon})\nresult: [{}]\nrounds: {}  messages: {}\n",
            kind,
            rendered.join(", "),
            outcome.rounds(),
            outcome.messages(),
        ),
    )?;

    if audit {
        if kind.is_mirrored() {
            return Err(CliError::Execution(
                "audit currently supports max/topk kinds only".into(),
            ));
        }
        let k = kind.k();
        let domain = federation.domain();
        let locals: Vec<TopKVector> = members
            .iter()
            .map(|m| {
                let col = m
                    .table()
                    .column_by_name(&attribute)
                    .map_err(|e| CliError::Execution(e.to_string()))?;
                TopKVector::from_values(k, m.table().column_iter(col), &domain)
                    .map_err(|e| CliError::Execution(e.to_string()))
            })
            .collect::<Result<_, _>>()?;
        let mut acc = LopAccumulator::new();
        acc.add(&SuccessorAdversary::estimate(outcome.transcript(), &locals));
        let summary = acc.summarize();
        let mut text = String::from("\nprivacy audit (semi-honest successor adversary):\n");
        for (i, lop) in summary.per_node_peak.iter().enumerate() {
            text.push_str(&format!("  node#{i}: peak LoP {lop:.4}\n"));
        }
        text.push_str(&format!(
            "  average {:.4}, worst {:.4}\n",
            summary.average_peak, summary.worst_peak
        ));
        write_out(out, &text)?;
    }
    emit_telemetry(&recorder, trace_out.as_deref(), stats_requested, None, out)
}

/// `privtopk query --store-dir DIR ...` — the query path over
/// persistent node stores.
///
/// Each node's local top-k is a frozen snapshot acquired here, before
/// the ring starts, so transcripts are bit-identical to a run against a
/// frozen copy of the data even while `--write-rate` keeps background
/// inserts landing in the stores. Nothing timing-dependent is printed:
/// row counts come from the snapshots, wire totals are deterministic.
fn run_query_store(args: &Arguments, audit: bool, out: &mut impl Write) -> Result<(), CliError> {
    if audit {
        return Err(CliError::Execution(
            "audit does not support --store-dir; audit runs over synthetic/CSV members".into(),
        ));
    }
    let batch_width: usize = args.parse_or("batch", 1)?;
    let groups: usize = args.parse_or("groups", 0)?;
    if batch_width > 1 || groups > 0 {
        return Err(CliError::Execution(
            "--store-dir runs through the service; it cannot combine with --batch or --groups"
                .into(),
        ));
    }
    let kind = parse_kind(args)?;
    let k = match kind {
        QueryKind::Max => 1,
        QueryKind::TopK(k) => k,
        _ => {
            return Err(CliError::Execution(
                "--store-dir supports --kind max|topk (stores hold raw, unmirrored values)".into(),
            ))
        }
    };
    let epsilon: f64 = args.parse_or("epsilon", 1e-6)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let repeat: usize = args.parse_or("repeat", 1)?;
    let depth: usize = args.parse_or("pipeline", 1)?;
    if repeat == 0 {
        return Err(CliError::Execution("--repeat must be at least 1".into()));
    }
    let write_rate: u64 = args.parse_or("write-rate", 0)?;

    let root = store_dir(args)?;
    let stores = open_stores(&root)?;
    let domain = stores[0].domain();
    for s in &stores {
        if s.domain() != domain {
            return Err(CliError::Execution(
                "node stores disagree on the public value domain".into(),
            ));
        }
    }
    // One consistent view per node for the service's whole lifetime.
    let snapshots: Vec<std::sync::Arc<privtopk_store::StoreSnapshot>> = stores
        .iter()
        .map(|s| s.snapshot_for_k(k))
        .collect::<Result<_, _>>()
        .map_err(|e| CliError::Execution(e.to_string()))?;
    let mut text = format!(
        "store federation: {} nodes from {}\n",
        stores.len(),
        root.display()
    );
    for (i, snap) in snapshots.iter().enumerate() {
        text.push_str(&format!(
            "  node#{i}: {} rows @ epoch {}\n",
            snap.rows(),
            snap.epoch()
        ));
    }
    write_out(out, &text)?;

    let stats_requested = args.has("stats");
    let trace_out = args.get("trace-out").map(str::to_string);
    // A scrape endpoint needs a live counter/gauge registry even when
    // no stats table or trace was asked for — stats_only keeps the
    // counters exact without buffering span events.
    let recorder = if stats_requested || trace_out.is_some() {
        Recorder::new()
    } else if args.get("metrics-addr").is_some() {
        Recorder::stats_only()
    } else {
        Recorder::disabled()
    };
    let network = parse_network(args)?.unwrap_or(NetworkKind::InMemory);
    let config = match kind {
        QueryKind::Max => ProtocolConfig::max(),
        _ => ProtocolConfig::topk(k),
    }
    .with_domain(domain)
    .with_schedule(privtopk_core::Schedule::paper_default())
    .with_rounds(RoundPolicy::Precision { epsilon });

    let mut service = privtopk_core::ServiceRuntime::start_from_sources_traced(
        &snapshots,
        k,
        network,
        depth,
        recorder.clone(),
    )
    .map_err(|e| CliError::Execution(e.to_string()))?;

    // Live Prometheus exposition: store series refresh on every scrape.
    let stores = std::sync::Arc::new(stores);
    let _metrics_server = match args.get("metrics-addr") {
        Some(addr) => {
            let scrape_stores = std::sync::Arc::clone(&stores);
            let scrape_recorder = recorder.clone();
            let epochs: Vec<u64> = snapshots.iter().map(|s| s.epoch()).collect();
            let server = privtopk_observe::MetricsServer::bind(addr, move || {
                let stats: Vec<_> = scrape_stores.iter().map(NodeStore::stats).collect();
                publish_store_metrics(&scrape_recorder, &stats, &epochs);
                privtopk_observe::render_summary(&scrape_recorder.summary())
            })
            .map_err(|e| CliError::Execution(format!("cannot bind {addr}: {e}")))?;
            write_out(out, &format!("metrics: serving on {}\n", server.addr()))?;
            Some(server)
        }
        None => None,
    };

    // Background ingest racing the queries: inserts land in the stores
    // (and the log) but never in the frozen snapshots above.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = if write_rate > 0 {
        let stores = std::sync::Arc::clone(&stores);
        let stop = std::sync::Arc::clone(&stop);
        let interval = std::time::Duration::from_nanos(1_000_000_000 / write_rate.max(1));
        Some(std::thread::spawn(move || {
            use rand::Rng;
            let mut rng = privtopk_domain::rng::SeedSpec::new(seed).stream(0x57).rng();
            let mut wrote = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let target = (wrote % stores.len() as u64) as usize;
                let v = Value::new(rng.gen_range(domain.as_range()));
                if stores[target].insert(v).is_err() {
                    break;
                }
                wrote += 1;
                std::thread::sleep(interval);
            }
            wrote
        }))
    } else {
        None
    };

    let workload: Vec<(ProtocolConfig, u64)> = (0..repeat as u64)
        .map(|i| (config.clone(), derive_batch_seed(seed, i)))
        .collect();
    let outcomes = service
        .run_workload(&workload)
        .map_err(|e| CliError::Execution(e.to_string()))?;
    stop.store(true, std::sync::atomic::Ordering::Release);
    if let Some(handle) = writer {
        // Row counts written vary with timing, so they stay off stdout.
        let _ = handle.join();
    }
    let metrics = service.metrics().peek();
    service
        .shutdown()
        .map_err(|e| CliError::Execution(e.to_string()))?;

    let mut text = format!(
        "\nservice (store-backed): {repeat} x {kind:?} (epsilon {epsilon}), pipeline depth {depth}\n"
    );
    for (i, outcome) in outcomes.iter().enumerate() {
        let global = &outcome.per_node_results[0];
        let rendered: Vec<String> = global.iter().map(|v| v.to_string()).collect();
        text.push_str(&format!(
            "query#{i} result: [{}] rounds: {} messages: {}\n",
            rendered.join(", "),
            outcome.transcript.rounds(),
            outcome.transcript.message_count(),
        ));
    }
    text.push_str(&format!(
        "service totals: {} frames, {} bytes\n",
        metrics.frames_sent, metrics.bytes_sent,
    ));
    write_out(out, &text)?;
    emit_telemetry(&recorder, trace_out.as_deref(), stats_requested, None, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Arguments;

    fn run_to_string(argv: &[&str]) -> Result<String, CliError> {
        let args = Arguments::parse(argv.iter().copied())?;
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf-8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let out = run_to_string(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    fn temp_store_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("privtopk-cli-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_init_ingest_compact_query_lifecycle() {
        let root = temp_store_root("lifecycle");
        let dir = root.to_str().unwrap();
        let out = run_to_string(&["store", "init", "--store-dir", dir, "--nodes", "4"]).unwrap();
        assert!(out.contains("4 empty node stores"));
        let out = run_to_string(&[
            "store",
            "ingest",
            "--store-dir",
            dir,
            "--rows",
            "200",
            "--dist",
            "zipf",
            "--seed",
            "9",
            "--chunk",
            "64",
        ])
        .unwrap();
        assert!(out.contains("ingested 200 rows into each of 4 nodes"));
        assert!(out.contains("node#3: +200 rows (total 200"));
        let out = run_to_string(&[
            "query",
            "--kind",
            "topk",
            "--k",
            "3",
            "--store-dir",
            dir,
            "--repeat",
            "2",
        ])
        .unwrap();
        assert!(out.contains("store federation: 4 nodes"));
        assert!(out.contains("query#1 result: ["));
        let out = run_to_string(&["store", "compact", "--store-dir", dir]).unwrap();
        assert!(out.contains("compacted 4 node stores"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn store_query_is_deterministic_and_matches_under_write_load() {
        let root = temp_store_root("determinism");
        let dir = root.to_str().unwrap();
        run_to_string(&["store", "init", "--store-dir", dir, "--nodes", "3"]).unwrap();
        run_to_string(&["store", "ingest", "--store-dir", dir, "--rows", "50"]).unwrap();
        let quiet = run_to_string(&[
            "query",
            "--kind",
            "max",
            "--store-dir",
            dir,
            "--repeat",
            "3",
            "--seed",
            "7",
        ])
        .unwrap();
        // Background writes must not perturb stdout: snapshots freeze
        // the view before the writer starts.
        let racing = run_to_string(&[
            "query",
            "--kind",
            "max",
            "--store-dir",
            dir,
            "--repeat",
            "3",
            "--seed",
            "7",
            "--write-rate",
            "2000",
        ])
        .unwrap();
        assert_eq!(quiet, racing);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn store_query_metrics_endpoint_exposes_store_series() {
        let root = temp_store_root("metrics");
        let dir = root.to_str().unwrap().to_string();
        run_to_string(&["store", "init", "--store-dir", &dir, "--nodes", "3"]).unwrap();
        run_to_string(&["store", "ingest", "--store-dir", &dir, "--rows", "500"]).unwrap();

        // Reserve a free port, release it, and hand it to the CLI.
        let addr = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        let query = {
            let dir = dir.clone();
            let addr = addr.to_string();
            std::thread::spawn(move || {
                // No --stats, no --trace-out: the endpoint alone must
                // stand up a live registry (the regression this pins).
                run_to_string(&[
                    "query",
                    "--kind",
                    "topk",
                    "--k",
                    "2",
                    "--store-dir",
                    &dir,
                    "--repeat",
                    "2000",
                    "--pipeline",
                    "4",
                    "--metrics-addr",
                    &addr,
                ])
            })
        };
        let mut body = String::new();
        for _ in 0..400 {
            if let Ok(scraped) = privtopk_observe::scrape(&addr) {
                body = scraped;
                if body.contains("privtopk_store_rows_total") {
                    break;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let out = query.join().unwrap().unwrap();
        assert!(out.contains("metrics: serving on"), "{out}");
        assert!(
            body.contains("privtopk_store_rows_total 1500"),
            "store row count missing from scrape: {body}"
        );
        for series in [
            "privtopk_store_index_rebuilds_total",
            "privtopk_store_index_depth",
            "privtopk_store_snapshot_age",
        ] {
            assert!(body.contains(series), "missing {series} in scrape: {body}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn store_query_rejects_unsupported_modes() {
        let root = temp_store_root("rejects");
        let dir = root.to_str().unwrap();
        run_to_string(&["store", "init", "--store-dir", dir, "--nodes", "3"]).unwrap();
        assert!(run_to_string(&["query", "--kind", "min", "--store-dir", dir]).is_err());
        assert!(run_to_string(&["audit", "--kind", "max", "--store-dir", dir]).is_err());
        assert!(
            run_to_string(&["query", "--kind", "max", "--store-dir", dir, "--batch", "2"]).is_err()
        );
        // Missing --store-dir on store subcommands.
        assert!(run_to_string(&["store", "ingest"]).is_err());
        // Query against a dir with no stores.
        let empty = temp_store_root("empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(run_to_string(&[
            "query",
            "--kind",
            "max",
            "--store-dir",
            empty.to_str().unwrap()
        ])
        .is_err());
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn analyze_prints_bounds() {
        let out = run_to_string(&["analyze", "--p0", "1.0", "--d", "0.5"]).unwrap();
        assert!(out.contains("precision_bound"));
        assert!(out.contains("rounds needed"));
    }

    #[test]
    fn analyze_reports_unreachable_precision() {
        let out = run_to_string(&["analyze", "--p0", "1.0", "--d", "1.0"]).unwrap();
        assert!(out.contains("unreachable"));
    }

    #[test]
    fn synthetic_query_runs() {
        let out = run_to_string(&[
            "query", "--kind", "topk", "--k", "3", "--nodes", "5", "--rows", "10",
        ])
        .unwrap();
        assert!(out.contains("result: ["));
        assert!(out.contains("rounds:"));
    }

    #[test]
    fn min_query_runs() {
        let out = run_to_string(&["query", "--kind", "min"]).unwrap();
        assert!(out.contains("result: ["));
    }

    #[test]
    fn audit_adds_privacy_report() {
        let out = run_to_string(&["audit", "--kind", "max", "--nodes", "4"]).unwrap();
        assert!(out.contains("privacy audit"));
        assert!(out.contains("average"));
    }

    #[test]
    fn audit_refuses_mirrored_kinds() {
        assert!(run_to_string(&["audit", "--kind", "min"]).is_err());
    }

    #[test]
    fn csv_query_end_to_end() {
        let dir = std::env::temp_dir().join(format!("privtopk_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("acme.csv"), "sales\n3200\n210\n").unwrap();
        std::fs::write(dir.join("bolt.csv"), "sales\n1100\n").unwrap();
        std::fs::write(dir.join("crate.csv"), "sales\n4800\n99\n").unwrap();
        let out = run_to_string(&[
            "query",
            "--attribute",
            "sales",
            "--csv-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("result: [4800]"), "output: {out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kth_query_runs() {
        let out = run_to_string(&["query", "--kind", "kth", "--k", "2", "--nodes", "4"]).unwrap();
        assert!(out.contains("result: ["));
    }

    #[test]
    fn knn_synthetic_classifies() {
        let out = run_to_string(&["knn", "--query", "2,3", "--k", "3"]).unwrap();
        assert!(out.contains("-> label 0"), "output: {out}");
        assert!(out.contains("agrees: true"));
        let out = run_to_string(&["knn", "--query", "101,99", "--k", "3"]).unwrap();
        assert!(out.contains("-> label 1"), "output: {out}");
    }

    #[test]
    fn knn_requires_query_flag() {
        assert!(run_to_string(&["knn"]).is_err());
        assert!(run_to_string(&["knn", "--query", "a,b"]).is_err());
    }

    #[test]
    fn knn_from_csv_with_labels() {
        let dir = std::env::temp_dir().join(format!("privtopk_knn_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, rows) in [
            ("a.csv", "x,y,label\n0,0,0\n1,1,0\n"),
            ("b.csv", "x,y,label\n100,100,1\n99,101,1\n"),
            ("c.csv", "x,y,label\n2,0,0\n98,99,1\n"),
        ] {
            std::fs::write(dir.join(name), rows).unwrap();
        }
        let out = run_to_string(&[
            "knn",
            "--query",
            "1,2",
            "--k",
            "3",
            "--csv-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("-> label 0"), "output: {out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batched_query_prints_per_query_results() {
        let out = run_to_string(&[
            "query", "--kind", "topk", "--k", "2", "--nodes", "4", "--batch", "4",
        ])
        .unwrap();
        assert!(out.contains("batched query: 4 x"), "output: {out}");
        for i in 0..4 {
            assert!(
                out.contains(&format!("query#{i} result: [")),
                "output: {out}"
            );
        }
    }

    #[test]
    fn batch_of_one_keeps_solo_output_format() {
        // --batch 1 must take the unmodified single-query path.
        let solo = run_to_string(&["query", "--kind", "max", "--nodes", "4"]).unwrap();
        let one =
            run_to_string(&["query", "--kind", "max", "--nodes", "4", "--batch", "1"]).unwrap();
        assert_eq!(solo, one);
        assert!(one.contains("result: ["));
        assert!(!one.contains("batched"));
    }

    #[test]
    fn batch_of_zero_is_rejected() {
        let err = run_to_string(&["query", "--kind", "max", "--nodes", "4", "--batch", "0"])
            .unwrap_err()
            .to_string();
        assert!(err.contains("--batch must be at least 1"), "error: {err}");
    }

    #[test]
    fn audit_refuses_batch() {
        assert!(run_to_string(&["audit", "--kind", "max", "--batch", "2"]).is_err());
    }

    #[test]
    fn service_mode_prints_per_query_results_and_totals() {
        let out = run_to_string(&[
            "query",
            "--kind",
            "topk",
            "--k",
            "2",
            "--nodes",
            "4",
            "--repeat",
            "5",
            "--pipeline",
            "4",
        ])
        .unwrap();
        assert!(out.contains("service: 5 x"), "output: {out}");
        assert!(out.contains("pipeline depth 4"), "output: {out}");
        for i in 0..5 {
            assert!(
                out.contains(&format!("query#{i} result: [")),
                "output: {out}"
            );
        }
        assert!(out.contains("service totals:"), "output: {out}");
        assert!(out.contains("frames"), "output: {out}");
    }

    #[test]
    fn service_results_match_solo_runs_per_derived_seed() {
        // query#i of the service run must equal a solo run under the
        // batch-derived seed, at any pipeline depth.
        let shallow = run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--repeat",
            "6",
            "--pipeline",
            "1",
        ])
        .unwrap();
        let deep = run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--repeat",
            "6",
            "--pipeline",
            "6",
        ])
        .unwrap();
        for i in 0..6 {
            let line = |s: &str| {
                s.lines()
                    .find(|l| l.starts_with(&format!("query#{i} ")))
                    .unwrap()
                    .to_string()
            };
            assert_eq!(line(&shallow), line(&deep), "query {i}");
        }
    }

    #[test]
    fn service_mode_rejects_bad_combos() {
        assert!(run_to_string(&["audit", "--kind", "max", "--repeat", "2"]).is_err());
        assert!(
            run_to_string(&["query", "--kind", "max", "--batch", "2", "--repeat", "2"]).is_err()
        );
        assert!(run_to_string(&["query", "--kind", "max", "--repeat", "0"]).is_err());
        assert!(
            run_to_string(&["query", "--kind", "max", "--repeat", "2", "--pipeline", "0"]).is_err()
        );
    }

    #[test]
    fn grouped_max_reports_critical_path() {
        let out = run_to_string(&[
            "query", "--kind", "max", "--nodes", "9", "--rows", "6", "--groups", "3",
        ])
        .unwrap();
        assert!(out.contains("group-parallel max"), "output: {out}");
        assert!(out.contains("9 nodes in 3 groups"), "output: {out}");
        assert!(out.contains("total messages:"), "output: {out}");
        assert!(out.contains("critical path messages:"), "output: {out}");
    }

    #[test]
    fn grouped_max_matches_flat_result() {
        // The optimization must not change the answer: compare against
        // the plain query over the same synthetic federation.
        let flat =
            run_to_string(&["query", "--kind", "max", "--nodes", "9", "--rows", "6"]).unwrap();
        let grouped = run_to_string(&[
            "query", "--kind", "max", "--nodes", "9", "--rows", "6", "--groups", "3",
        ])
        .unwrap();
        let result = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("result: ["))
                .unwrap()
                .to_string()
        };
        assert_eq!(result(&flat), result(&grouped));
    }

    #[test]
    fn groups_rejects_non_max_kinds_and_bad_combos() {
        assert!(run_to_string(&["query", "--kind", "topk", "--k", "2", "--groups", "3"]).is_err());
        assert!(run_to_string(&["audit", "--kind", "max", "--groups", "3"]).is_err());
        assert!(
            run_to_string(&["query", "--kind", "max", "--groups", "3", "--batch", "2"]).is_err()
        );
        assert!(
            run_to_string(&["query", "--kind", "max", "--groups", "3", "--repeat", "2"]).is_err()
        );
        // Two groups: neither flat nor a valid split (needs >= 3 groups).
        assert!(
            run_to_string(&["query", "--kind", "max", "--nodes", "9", "--groups", "2"]).is_err()
        );
    }

    #[test]
    fn bad_kind_rejected() {
        assert!(matches!(
            run_to_string(&["query", "--kind", "median"]),
            Err(CliError::BadValue { .. })
        ));
        assert!(run_to_string(&["query", "--dist", "cauchy"]).is_err());
    }

    /// Telemetry flags are additive: everything before the telemetry
    /// block must match the untraced run byte for byte.
    fn assert_prefix_matches(plain: &str, traced: &str) {
        assert!(
            traced.starts_with(plain),
            "traced output does not extend the plain output.\nplain:\n{plain}\ntraced:\n{traced}"
        );
    }

    fn temp_trace_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("privtopk_trace_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn stats_flag_appends_summary_without_changing_results() {
        let plain =
            run_to_string(&["query", "--kind", "topk", "--k", "2", "--nodes", "4"]).unwrap();
        let traced = run_to_string(&[
            "query", "--kind", "topk", "--k", "2", "--nodes", "4", "--stats",
        ])
        .unwrap();
        assert_prefix_matches(&plain, &traced);
        assert!(traced.contains("p99"), "output: {traced}");
        assert!(traced.contains("step"), "output: {traced}");
        assert!(traced.contains("trace events:"), "output: {traced}");
    }

    #[test]
    fn trace_out_writes_jsonl_spans() {
        let path = temp_trace_path("solo");
        let out = run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("trace:"), "output: {out}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(!trace.is_empty());
        for line in trace.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        }
        assert!(trace.contains("\"phase\":\"step\""), "trace: {trace}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn distributed_query_supports_telemetry() {
        let plain = run_to_string(&["query", "--kind", "max", "--nodes", "4"]).unwrap();
        let path = temp_trace_path("dist");
        let traced = run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--network",
            "memory",
            "--stats",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        // Distributed execution returns the same results as simulation.
        assert_prefix_matches(&plain, &traced);
        assert!(traced.contains("counters"), "output: {traced}");
        assert!(traced.contains("frames_sent"), "output: {traced}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"phase\":\"send\""), "trace: {trace}");
        assert!(trace.contains("\"phase\":\"recv\""), "trace: {trace}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batched_query_supports_telemetry() {
        let plain = run_to_string(&[
            "query", "--kind", "topk", "--k", "2", "--nodes", "4", "--batch", "3",
        ])
        .unwrap();
        let traced = run_to_string(&[
            "query",
            "--kind",
            "topk",
            "--k",
            "2",
            "--nodes",
            "4",
            "--batch",
            "3",
            "--network",
            "memory",
            "--stats",
        ])
        .unwrap();
        assert_prefix_matches(&plain, &traced);
        assert!(traced.contains("p99"), "output: {traced}");
        assert!(traced.contains("frames_sent"), "output: {traced}");
    }

    #[test]
    fn service_mode_stats_prints_pipeline_figures() {
        let plain = run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--repeat",
            "4",
            "--pipeline",
            "2",
        ])
        .unwrap();
        let path = temp_trace_path("service");
        let traced = run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--repeat",
            "4",
            "--pipeline",
            "2",
            "--stats",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        assert_prefix_matches(&plain, &traced);
        assert!(
            traced.contains("service stats: depth 2"),
            "output: {traced}"
        );
        assert!(traced.contains("submitted 4"), "output: {traced}");
        assert!(traced.contains("completed 4"), "output: {traced}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"query\":"), "trace: {trace}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_analyze_reconstructs_service_critical_paths() {
        let path = temp_trace_path("analyze_svc");
        run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--repeat",
            "2",
            "--pipeline",
            "2",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let report = run_to_string(&["trace", "analyze", path.to_str().unwrap()]).unwrap();
        assert!(report.contains("trace analysis: 2 queries"), "{report}");
        assert!(report.contains("critical path"), "{report}");
        assert!(report.contains("complete"), "{report}");
        assert!(report.contains("node load:"), "{report}");
        let json = run_to_string(&["trace", "analyze", path.to_str().unwrap(), "--json"]).unwrap();
        assert!(json.contains("\"critical_path_ns\":"), "{json}");
        assert!(json.contains("\"complete\":true"), "{json}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_analyze_requires_files_and_tolerates_garbage() {
        assert!(run_to_string(&["trace", "analyze"]).is_err());
        assert!(run_to_string(&["trace", "analyze", "/no/such/file.jsonl"]).is_err());
        // Malformed lines become diagnostics, never a hard failure.
        let path = temp_trace_path("garbage");
        std::fs::write(
            &path,
            "not json at all\n{\"t_us\":1,\"phase\":\"step\",\"query\":0,\"node\":0,\"round\":1,\"hop\":0,\"dur_ns\":5}\n",
        )
        .unwrap();
        let report = run_to_string(&["trace", "analyze", path.to_str().unwrap()]).unwrap();
        assert!(report.contains("diagnostic:"), "{report}");
        assert!(report.contains("1 queries"), "{report}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_watch_polls_a_live_endpoint() {
        let server = privtopk_observe::MetricsServer::bind("127.0.0.1:0", || {
            "# HELP privtopk_demo_total x\n# TYPE privtopk_demo_total counter\nprivtopk_demo_total 7\n"
                .to_string()
        })
        .unwrap();
        let out = run_to_string(&[
            "trace",
            "watch",
            "--addr",
            &server.addr().to_string(),
            "--interval-ms",
            "1",
            "--count",
            "2",
        ])
        .unwrap();
        assert!(out.contains("--- poll 1 ---"), "{out}");
        assert!(out.contains("--- poll 2 ---"), "{out}");
        assert!(out.contains("privtopk_demo_total 7"), "{out}");
        drop(server);
        assert!(
            run_to_string(&["trace", "watch", "--addr", "127.0.0.1:1", "--count", "1"]).is_err()
        );
        assert!(run_to_string(&["trace", "watch", "--count", "1"]).is_err());
    }

    #[test]
    fn trace_watch_retries_transient_misses_with_bounded_backoff() {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A flapping endpoint: the first connection is slammed shut (a
        // transient miss), the next two answer like a healthy server.
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 512];
                let _ = stream.read(&mut buf);
                let body = "privtopk_demo_total 7\n";
                let _ = stream.write_all(
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        });
        let out = run_to_string(&[
            "trace",
            "watch",
            "--addr",
            &addr.to_string(),
            "--interval-ms",
            "1",
            "--count",
            "2",
            "--max-misses",
            "3",
        ])
        .unwrap();
        handle.join().unwrap();
        assert!(out.contains("miss 1/3"), "{out}");
        assert!(out.contains("--- poll 1 ---"), "{out}");
        assert!(out.contains("--- poll 2 ---"), "{out}");
        assert!(out.contains("privtopk_demo_total 7"), "{out}");
    }

    #[test]
    fn trace_watch_prints_slo_alert_lines() {
        let server = privtopk_observe::MetricsServer::bind("127.0.0.1:0", || {
            "privtopk_slo_latency_alert 1\n\
             privtopk_slo_latency_burn_short 3.5\n\
             privtopk_slo_latency_burn_long 2.25\n\
             privtopk_slo_availability_alert 0\n"
                .to_string()
        })
        .unwrap();
        let out = run_to_string(&[
            "trace",
            "watch",
            "--addr",
            &server.addr().to_string(),
            "--interval-ms",
            "1",
            "--count",
            "1",
        ])
        .unwrap();
        assert!(
            out.contains("SLO ALERT latency: burn 3.50x short / 2.25x long"),
            "{out}"
        );
        assert!(!out.contains("SLO ALERT availability"), "{out}");
    }

    #[test]
    fn chaos_run_proves_bit_identity_and_reports_healing() {
        let flight = temp_trace_path("chaos_flight");
        let out = run_to_string(&[
            "chaos",
            "run",
            "--nodes",
            "4",
            "--incidents",
            "1",
            "--seed",
            "7",
            "--pipeline",
            "4",
            "--flight-out",
            flight.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("chaos run: 4 nodes"), "{out}");
        assert!(out.contains("outage(") || out.contains("partition(") || out.contains("loss("));
        assert!(out.contains("bit-identity: OK"), "{out}");
        assert!(out.contains("incident 1:"), "{out}");
        // The dumped flight ring feeds straight back into trace analyze.
        let report = run_to_string(&["trace", "analyze", flight.to_str().unwrap()]).unwrap();
        assert!(report.contains("trace analysis:"), "{report}");
        std::fs::remove_file(&flight).unwrap();
    }

    #[test]
    fn chaos_run_json_carries_the_gates() {
        let json = run_to_string(&[
            "chaos",
            "run",
            "--nodes",
            "4",
            "--incidents",
            "1",
            "--seed",
            "9",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"bit_identical\":true"), "{json}");
        assert!(json.contains("\"incidents_scheduled\":1"), "{json}");
        assert!(json.contains("\"frames_dropped\":"), "{json}");
        assert!(json.contains("\"analysis\":{"), "{json}");
        assert!(json.contains("\"incidents\":["), "{json}");
    }

    #[test]
    fn trace_dump_writes_flight_jsonl_for_analyze() {
        let path = temp_trace_path("flight_dump");
        let out = run_to_string(&[
            "trace",
            "dump",
            "--out",
            path.to_str().unwrap(),
            "--nodes",
            "4",
            "--queries",
            "8",
        ])
        .unwrap();
        assert!(out.contains("flight-recorder events"), "{out}");
        let report = run_to_string(&["trace", "analyze", path.to_str().unwrap()]).unwrap();
        assert!(report.contains("trace analysis:"), "{report}");
        std::fs::remove_file(&path).unwrap();
        assert!(run_to_string(&["trace", "dump"]).is_err());
    }

    #[test]
    fn privacy_report_accounts_collected_traces() {
        let path = temp_trace_path("privacy_report");
        run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--repeat",
            "2",
            "--pipeline",
            "2",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let report =
            run_to_string(&["privacy", "report", path.to_str().unwrap(), "--trials", "4"]).unwrap();
        assert!(
            report.contains("privacy report: 2 queries accounted across 4 nodes"),
            "{report}"
        );
        assert!(report.contains("node#0: LoP "), "{report}");
        assert!(report.contains("spectrum:"), "{report}");
        let json = run_to_string(&[
            "privacy",
            "report",
            path.to_str().unwrap(),
            "--trials",
            "4",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"queries_accounted\":2"), "{json}");
        assert!(json.contains("\"per_node\":[{\"node\":0,"), "{json}");
        assert!(json.contains("\"spectrum\":{"), "{json}");
        std::fs::remove_file(&path).unwrap();
        assert!(run_to_string(&["privacy", "report"]).is_err());
        assert!(run_to_string(&["privacy", "report", "/no/such/file.jsonl"]).is_err());
    }

    #[test]
    fn trace_analyze_lop_alert_adds_privacy_panel() {
        let path = temp_trace_path("lop_alert");
        run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--repeat",
            "2",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        // Without the flag, the report is privacy-free and byte-stable.
        let plain = run_to_string(&["trace", "analyze", path.to_str().unwrap()]).unwrap();
        assert!(!plain.contains("privacy"), "{plain}");
        let report = run_to_string(&[
            "trace",
            "analyze",
            path.to_str().unwrap(),
            "--lop-alert",
            "100",
            "--trials",
            "4",
        ])
        .unwrap();
        assert!(report.contains("privacy: 2 queries accounted"), "{report}");
        assert!(report.contains("node 0: LoP "), "{report}");
        assert!(report.contains("privacy ok: worst LoP "), "{report}");
        let alerting = run_to_string(&[
            "trace",
            "analyze",
            path.to_str().unwrap(),
            "--lop-alert",
            "-1",
            "--trials",
            "4",
        ])
        .unwrap();
        assert!(alerting.contains("privacy alert: worst LoP "), "{alerting}");
        let json = run_to_string(&[
            "trace",
            "analyze",
            path.to_str().unwrap(),
            "--lop-alert",
            "100",
            "--trials",
            "4",
            "--json",
        ])
        .unwrap();
        assert!(
            json.contains("\"privacy\":{\"queries_accounted\":2"),
            "{json}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trace_watch_lop_alert_flags_hot_nodes() {
        let server = privtopk_observe::MetricsServer::bind("127.0.0.1:0", || {
            "# TYPE privtopk_privacy_lop_node gauge\n\
             privtopk_privacy_lop_node{node=\"0\"} 0.1\n\
             privtopk_privacy_lop_node{node=\"1\"} 0.5\n"
                .to_string()
        })
        .unwrap();
        let out = run_to_string(&[
            "trace",
            "watch",
            "--addr",
            &server.addr().to_string(),
            "--interval-ms",
            "1",
            "--count",
            "1",
            "--lop-alert",
            "0.25",
        ])
        .unwrap();
        assert!(
            out.contains("privacy alert: node 1 LoP 0.5000 exceeds --lop-alert 0.25"),
            "{out}"
        );
        assert!(!out.contains("privacy alert: node 0"), "{out}");
    }

    #[test]
    fn metrics_addr_serves_scrapes_during_service_run() {
        // Bind an ephemeral endpoint; the run is short, so rather than
        // race a scrape against it we check the bound-address line and
        // that the flag is rejected outside service mode.
        let out = run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--repeat",
            "2",
            "--metrics-addr",
            "127.0.0.1:0",
        ])
        .unwrap();
        assert!(out.contains("metrics: serving on 127.0.0.1:"), "{out}");
        assert!(run_to_string(&[
            "query",
            "--kind",
            "max",
            "--nodes",
            "4",
            "--metrics-addr",
            "127.0.0.1:0"
        ])
        .is_err());
    }

    #[test]
    fn groups_mode_rejects_telemetry_flags() {
        assert!(run_to_string(&[
            "query", "--kind", "max", "--nodes", "9", "--groups", "3", "--stats",
        ])
        .is_err());
    }
}
