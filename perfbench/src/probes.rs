//! Per-layer probes: each times calls into one layer's public functions
//! from here, on the workload's own data and shapes, so no span is added
//! to program code. Layers a workload's traffic does not cross (the
//! store on the federation workloads, the service on `batch-sim`) are
//! probed the same way, so every run reports every layer.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use privtopk_core::distributed::NetworkKind;
use privtopk_core::local::{topk_step_scratch, LocalAction, TopkScratch};
use privtopk_core::{
    derive_batch_seed, QueryObserver, ServiceStats, SimulationEngine, SlotMessage, TokenMessage,
    Transcript,
};
use privtopk_datagen::PrivateDatabase;
use privtopk_domain::rng::{derive_seed, SeedSpec};
use privtopk_domain::{NodeId, TopKVector, Value};
use privtopk_federation::{Federation, QueryBatch, QuerySpec};
use privtopk_observe::{Phase, Recorder, SloConfig, SloEngine};
use privtopk_privacy::LopAccountant;
use privtopk_ring::transport::{InMemoryNetwork, TcpNetwork, Transport};
use privtopk_ring::wire::{decode_from_slice, encode_into};
use privtopk_ring::RingError;
use privtopk_store::NodeStore;

use crate::federated::{answer, phase_mean_ns, protocol_config};
use crate::load::{self, us};
use crate::report::Metrics;
use crate::run::{Budget, Checker, Samples};
use crate::stats::{mean, median, percentile};
use crate::store_ingest::{LiveRows, Writer};

/// Wall-time cap of one repeated probe (it still runs its minimum).
const PROBE_TIME: Duration = Duration::from_millis(250);
/// Engine runs per spec, and how many of their transcripts feed the
/// kernel and codec probes.
const ENGINE_QUERIES: usize = 200;
const TRANSCRIPTS_KEPT: usize = 50;
/// Round trips per transport probe.
const PING_PONGS: usize = 2_000;
const RECV_TIMEOUT: Duration = Duration::from_secs(2);
/// Observer and SLO calls timed per probe. `SloEngine::record` costs
/// grow with the samples its window holds, so its figure is the mean
/// over a window filling from empty to this many queries.
const HOOK_CALLS: u32 = 20_000;
/// Write chunks of the store probe: enough inserts for a p99.
const STORE_PROBE_CHUNKS: usize = 1_200;
/// Rows per `insert_many` of the store probe's bulk load.
const INGEST_CHUNK: usize = 65_536;
/// Batched call width of the `execute_batch` share probe.
const CALL_WIDTH: usize = 16;
const STREAM_PROBE: u64 = 0x9_80BE;

/// What the probes run on.
pub(crate) struct ProbeInputs {
    /// The members the workload queries.
    pub members: Vec<PrivateDatabase>,
    /// The workload's distinct query specs.
    pub specs: Vec<QuerySpec>,
    pub seed: u64,
    /// Run a traced service probe at this depth (for a workload with no
    /// service of its own).
    pub service_depth: Option<usize>,
    /// Run the store probe (for a workload with no store of its own).
    pub store_probe: bool,
}

/// Runs every probe and records its metrics.
pub(crate) fn run(
    inputs: &ProbeInputs,
    scratch: &Path,
    checker: &mut Checker,
    m: &mut Metrics,
) -> Result<(), String> {
    let federation = Federation::new(inputs.members.clone()).map_err(|e| e.to_string())?;
    let compile_us = compile(inputs, m)?;
    call_share(&federation, inputs, &compile_us, m)?;
    let runs = engine(inputs, m)?;
    kernel(&runs, inputs, m);
    let frame = wire(&runs, checker, m);
    m.set(
        "ring.transport.inmem_oneway_us_p50",
        ping_pong(InMemoryNetwork::new(2).endpoints(), &frame)?,
    );
    let tcp = TcpNetwork::bind(2)
        .and_then(TcpNetwork::endpoints)
        .map_err(|e| e.to_string())?;
    m.set("ring.transport.tcp_oneway_us_p50", ping_pong(tcp, &frame)?);
    hooks(inputs, m)?;
    if inputs.store_probe {
        store(inputs, scratch, checker, m)?;
    }
    if let Some(depth) = inputs.service_depth {
        service(&federation, inputs, depth, checker, m)?;
    }
    Ok(())
}

/// Times `f` at least `min` and at most `max` times, stopping early once
/// [`PROBE_TIME`] has passed; returns the samples in microseconds.
fn repeat<T>(min: usize, max: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    let deadline = Instant::now() + PROBE_TIME;
    let mut samples = Vec::with_capacity(max);
    for i in 0..max {
        if i >= min && Instant::now() >= deadline {
            break;
        }
        let start = Instant::now();
        black_box(f());
        samples.push(us(start.elapsed()));
    }
    samples
}

/// What `Federation` compiles a spec into: each member's local top-k of
/// the attribute, over mirrored values for min/bottom-k.
fn compile_locals(
    members: &[PrivateDatabase],
    spec: &QuerySpec,
) -> Result<Vec<TopKVector>, String> {
    let domain = members[0].domain();
    let (lo, hi) = (domain.min().get(), domain.max().get());
    let mirrored = spec.kind().is_mirrored();
    members
        .iter()
        .map(|m| {
            let values = m.sensitive_values().map(|v| {
                if mirrored {
                    Value::new(lo + hi - v.get())
                } else {
                    v
                }
            });
            TopKVector::from_values(spec.kind().k(), values, &domain).map_err(|e| e.to_string())
        })
        .collect()
}

/// `federation.compile_us_per_spec`: per spec, `TopKVector::from_values`
/// over every member column. Returns the per-spec medians.
fn compile(inputs: &ProbeInputs, m: &mut Metrics) -> Result<Vec<f64>, String> {
    let mut per_spec = Vec::with_capacity(inputs.specs.len());
    for spec in &inputs.specs {
        compile_locals(&inputs.members, spec)?;
        let samples = repeat(3, 50, || compile_locals(&inputs.members, spec));
        per_spec.push(median(&samples).expect("at least three samples"));
    }
    m.set("federation.compile_us_per_spec", mean(&per_spec));
    Ok(per_spec)
}

/// `federation.share_of_call_pct`: the compile share of an
/// `execute_batch` call of 16 specs cycling the workload's mix.
fn call_share(
    federation: &Federation,
    inputs: &ProbeInputs,
    compile_us: &[f64],
    m: &mut Metrics,
) -> Result<(), String> {
    let specs: Vec<QuerySpec> = (0..CALL_WIDTH)
        .map(|i| inputs.specs[i % inputs.specs.len()].clone())
        .collect();
    let batch = QueryBatch::from_specs(specs, derive_seed(inputs.seed, STREAM_PROBE));
    federation
        .execute_batch(&batch)
        .map_err(|e| e.to_string())?;
    let call_us = median(&repeat(1, 10, || federation.execute_batch(&batch)));
    let compiled: f64 = (0..CALL_WIDTH)
        .map(|i| compile_us[i % compile_us.len()])
        .sum();
    m.set(
        "federation.share_of_call_pct",
        call_us.map(|call| 100.0 * compiled / call),
    );
    Ok(())
}

/// One engine run kept for the kernel and codec probes.
struct EngineRun {
    spec: usize,
    locals: std::rc::Rc<Vec<TopKVector>>,
    transcript: Transcript,
}

/// `core.engine.run_us_per_query`: `SimulationEngine::run` on compiled
/// locals, per spec of the mix, under fresh seeds.
fn engine(inputs: &ProbeInputs, m: &mut Metrics) -> Result<Vec<EngineRun>, String> {
    let mut runs = Vec::new();
    let mut total = Duration::ZERO;
    let mut count = 0u32;
    for (spec_index, spec) in inputs.specs.iter().enumerate() {
        let locals = std::rc::Rc::new(compile_locals(&inputs.members, spec)?);
        let engine = SimulationEngine::new(protocol_config(spec, &inputs.members));
        let deadline = Instant::now() + PROBE_TIME;
        for i in 0..ENGINE_QUERIES {
            if i >= TRANSCRIPTS_KEPT && Instant::now() >= deadline {
                break;
            }
            let seed = derive_batch_seed(derive_seed(inputs.seed, STREAM_PROBE), i as u64);
            let start = Instant::now();
            let transcript = engine.run(&locals, seed).map_err(|e| e.to_string())?;
            total += start.elapsed();
            count += 1;
            if i < TRANSCRIPTS_KEPT {
                runs.push(EngineRun {
                    spec: spec_index,
                    locals: std::rc::Rc::clone(&locals),
                    transcript,
                });
            }
        }
    }
    m.set(
        "core.engine.run_us_per_query",
        Some(us(total) / f64::from(count)),
    );
    Ok(runs)
}

/// `core.local.*` and `domain.topk.merge_ns_p50`: `topk_step_scratch`
/// and `merge_into` replayed on the engine runs' own steps.
fn kernel(runs: &[EngineRun], inputs: &ProbeInputs, m: &mut Metrics) {
    let mut step_ns = Vec::new();
    let mut merge_ns = Vec::new();
    let mut randomized = 0usize;
    let mut scratch = TopkScratch::new();
    let mut merged = Vec::new();
    let mut rng = SeedSpec::new(inputs.seed).stream(STREAM_PROBE).rng();
    for run in runs {
        let config = protocol_config(&inputs.specs[run.spec], &inputs.members);
        let domain = config.domain();
        let mut inserted = vec![false; run.locals.len()];
        for step in run.transcript.steps() {
            let node = step.node.get();
            let own = &run.locals[node];
            let probability = config.schedule().probability(step.round);
            let start = Instant::now();
            let outcome = topk_step_scratch(
                &mut rng,
                probability,
                &step.incoming,
                own,
                inserted[node],
                config.delta(),
                &domain,
                &mut scratch,
            );
            step_ns.push(start.elapsed().as_nanos() as f64);
            if let Ok(outcome) = black_box(outcome) {
                inserted[node] = outcome.has_inserted;
            }
            let start = Instant::now();
            black_box(step.incoming.merge_into(own, &mut merged));
            merge_ns.push(start.elapsed().as_nanos() as f64);
            randomized += usize::from(step.action == LocalAction::Randomized);
        }
    }
    m.set("core.local.step_ns_p50", percentile(&step_ns, 0.5));
    m.set("core.local.step_ns_p99", percentile(&step_ns, 0.99));
    m.set(
        "core.local.steps_per_query",
        Some(step_ns.len() as f64 / runs.len() as f64),
    );
    m.set(
        "core.local.randomized_share_pct",
        Some(100.0 * randomized as f64 / step_ns.len() as f64),
    );
    m.set("domain.topk.merge_ns_p50", percentile(&merge_ns, 0.5));
}

/// `ring.wire.*`: the service's `SlotMessage` frames for each engine
/// run — one token per hop, then the final circulation — encoded and
/// decoded. A frame that does not decode to itself is a failed check.
/// Returns a frame of the mean size for the transport probes.
fn wire(runs: &[EngineRun], checker: &mut Checker, m: &mut Metrics) -> Bytes {
    let mut encode_ns = Vec::new();
    let mut decode_ns = Vec::new();
    let mut sizes = Vec::new();
    let mut frames = Vec::new();
    let mut buf = BytesMut::new();
    for (query, run) in runs.iter().enumerate() {
        let t = &run.transcript;
        let tokens = t.steps().iter().map(|s| TokenMessage::Token {
            round: s.round,
            vector: s.outgoing.clone(),
        });
        let finished = (1..t.n()).map(|_| TokenMessage::Finished {
            vector: t.result().clone(),
        });
        for inner in tokens.chain(finished) {
            let message = SlotMessage {
                query: query as u64,
                inner,
            };
            let start = Instant::now();
            encode_into(&message, &mut buf);
            encode_ns.push(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            let decoded = decode_from_slice::<SlotMessage>(&buf);
            decode_ns.push(start.elapsed().as_nanos() as f64);
            if decoded.ok().as_ref() != Some(&message) {
                checker.fail(format!("frame of query {query} did not decode to itself"));
            }
            sizes.push(buf.len() as f64);
            frames.push(Bytes::copy_from_slice(&buf));
        }
    }
    let mean_size = mean(&sizes).unwrap_or(0.0);
    m.set("ring.wire.encode_ns_p50", percentile(&encode_ns, 0.5));
    m.set("ring.wire.decode_ns_p50", percentile(&decode_ns, 0.5));
    m.set("ring.wire.frame_bytes_mean", Some(mean_size));
    m.set(
        "ring.wire.bytes_per_query",
        Some(sizes.iter().sum::<f64>() / runs.len() as f64),
    );
    frames
        .into_iter()
        .min_by(|a, b| {
            (a.len() as f64 - mean_size)
                .abs()
                .total_cmp(&(b.len() as f64 - mean_size).abs())
        })
        .unwrap_or_default()
}

/// Median one-way latency between two endpoints: half the round trip
/// of `frame` bounced off an echo thread.
fn ping_pong<T: Transport + 'static>(
    mut endpoints: Vec<T>,
    frame: &Bytes,
) -> Result<Option<f64>, String> {
    let (Some(mut echo), Some(mut ping)) = (endpoints.pop(), endpoints.pop()) else {
        return Err("a ping-pong needs two endpoints".into());
    };
    let iterations = PING_PONGS;
    std::thread::scope(|scope| {
        let echoing = scope.spawn(move || -> Result<(), RingError> {
            for _ in 0..iterations {
                let (from, frame) = echo.recv_timeout(RECV_TIMEOUT)?;
                echo.send(from, frame)?;
            }
            Ok(())
        });
        let mut oneway_us = Vec::with_capacity(iterations);
        let mut failure = None;
        for _ in 0..iterations {
            let start = Instant::now();
            let round_trip = ping
                .send(NodeId::new(1), frame.clone())
                .and_then(|()| ping.recv_timeout(RECV_TIMEOUT));
            if let Err(e) = round_trip {
                failure = Some(e.to_string());
                break;
            }
            oneway_us.push(us(start.elapsed()) / 2.0);
        }
        let echoed = echoing
            .join()
            .map_err(|_| "the echo thread panicked".to_string())?;
        match (failure, echoed) {
            (Some(e), _) => Err(e),
            (None, Err(e)) => Err(e.to_string()),
            (None, Ok(())) => Ok(percentile(&oneway_us, 0.5)),
        }
    })
}

/// `privacy.accountant.*` and `observe.slo.record_ns`: the per-query
/// hooks every served query passes through.
fn hooks(inputs: &ProbeInputs, m: &mut Metrics) -> Result<(), String> {
    let config = protocol_config(&inputs.specs[0], &inputs.members);
    let rounds = config.resolve_rounds().map_err(|e| e.to_string())?;
    let n = inputs.members.len();
    let accountant = LopAccountant::new();
    let start = Instant::now();
    for _ in 0..HOOK_CALLS {
        accountant.on_query(black_box(&config), n, rounds);
    }
    m.set(
        "privacy.accountant.on_query_ns",
        Some(start.elapsed().as_nanos() as f64 / f64::from(HOOK_CALLS)),
    );
    let start = Instant::now();
    black_box(accountant.snapshot());
    m.set(
        "privacy.accountant.first_snapshot_ms",
        Some(load::ms(start.elapsed())),
    );

    let slo = SloEngine::new(SloConfig::default());
    let start = Instant::now();
    for i in 0..HOOK_CALLS {
        slo.record(black_box(1_000_000 + u64::from(i % 1000)), true);
    }
    m.set(
        "observe.slo.record_ns",
        Some(start.elapsed().as_nanos() as f64 / f64::from(HOOK_CALLS)),
    );
    Ok(())
}

/// `store.*` for a workload without stores: one store bulk-loaded with
/// the first member's rows, reopened, then fed the `store-ingest` write
/// stream back to back.
fn store(
    inputs: &ProbeInputs,
    scratch: &Path,
    checker: &mut Checker,
    m: &mut Metrics,
) -> Result<(), String> {
    let dir = scratch.join("store-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let domain = inputs.members[0].domain();
    let rows: Vec<Value> = inputs.members[0].sensitive_values().collect();
    let store = NodeStore::create(&dir, domain).map_err(|e| e.to_string())?;
    let start = Instant::now();
    for chunk in rows.chunks(INGEST_CHUNK) {
        store
            .insert_many(chunk.iter().copied())
            .map_err(|e| e.to_string())?;
    }
    m.set(
        "store.bulk_ingest_rows_per_s",
        Some(rows.len() as f64 / start.elapsed().as_secs_f64()),
    );
    drop(store);

    let start = Instant::now();
    let store = NodeStore::open(&dir).map_err(|e| e.to_string())?;
    m.set("store.open_ms_per_node", Some(load::ms(start.elapsed())));
    let k = inputs.specs.iter().map(|s| s.kind().k()).max().unwrap_or(1);
    let start = Instant::now();
    store.snapshot_for_k(k).map_err(|e| e.to_string())?;
    m.set("store.snapshot_us", Some(us(start.elapsed())));

    let mut live = LiveRows::new(domain);
    for &v in &rows {
        live.insert(v);
    }
    let mut writer = Writer::new(vec![live], inputs.seed);
    let stores = std::slice::from_ref(&store);
    let rebuilds = store.stats().index_rebuilds;
    let mut insert_us = Vec::new();
    for _ in 0..STORE_PROBE_CHUNKS {
        insert_us.extend(writer.chunk(stores)?.map(us));
    }
    writer.verify(stores, checker);
    m.set("store.insert_many_us_p50", percentile(&insert_us, 0.5));
    m.set("store.insert_many_us_p99", percentile(&insert_us, 0.99));
    m.set(
        "store.index_rebuilds",
        Some((store.stats().index_rebuilds - rebuilds) as f64),
    );
    m.set("store.log_bytes_per_row", log_bytes_per_row(stores));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// On-disk log bytes per logged row (inserts and deletes), headers
/// included.
pub(crate) fn log_bytes_per_row(stores: &[NodeStore]) -> Option<f64> {
    let mut bytes = 0u64;
    let mut records = 0u64;
    for store in stores {
        bytes += std::fs::metadata(privtopk_store::log::log_path(store.dir()))
            .ok()?
            .len();
        records += store.stats().log_records;
    }
    (records > 0).then(|| bytes as f64 / records as f64)
}

/// `core.service.*` for a workload without a service: a traced
/// in-memory service of the first spec at `depth`, driven closed loop.
fn service(
    federation: &Federation,
    inputs: &ProbeInputs,
    depth: usize,
    checker: &mut Checker,
    m: &mut Metrics,
) -> Result<(), String> {
    let spec = &inputs.specs[0];
    let start = Instant::now();
    let mut service = federation
        .serve_traced(spec, NetworkKind::InMemory, depth, Recorder::new())
        .map_err(|e| e.to_string())?;
    m.set("core.service.start_ms", Some(load::ms(start.elapsed())));
    let budget = Budget::new(PROBE_TIME, None, true);
    let samples = load::closed_loop(&mut service, depth, &budget, checker)?;
    service_layers(&service.stats(), service.recorder(), &samples, m);
    let start = Instant::now();
    service.shutdown().map_err(|e| e.to_string())?;
    m.set("core.service.shutdown_ms", Some(load::ms(start.elapsed())));
    checker.resolve(|_, seed| {
        federation
            .execute(spec, seed)
            .map(answer)
            .map_err(|e| e.to_string())
    });
    Ok(())
}

/// `core.service.*`, `ring.faults.*` and the wire-phase trace means, read
/// from a traced service after its pass.
pub(crate) fn service_layers(
    stats: &ServiceStats,
    recorder: &Recorder,
    traced: &Samples,
    m: &mut Metrics,
) {
    let wait = &stats.queue_wait;
    m.set(
        "core.service.queue_wait_us_mean",
        (wait.count > 0).then(|| wait.sum_ns as f64 / wait.count as f64 / 1e3),
    );
    m.set(
        "core.service.submit_us_p50",
        percentile(&traced.submit_us, 0.5),
    );
    m.set(
        "core.service.collect_wait_us_p50",
        percentile(&traced.collect_us, 0.5),
    );
    m.set(
        "core.service.pipeline_high_water",
        Some(stats.pipeline_high_water as f64),
    );
    m.set(
        "ring.faults.retransmissions",
        Some(stats.retransmissions as f64),
    );
    m.set("ring.faults.re_acks", Some(stats.re_acks as f64));
    m.set(
        "trace.encode_ns_mean",
        phase_mean_ns(recorder, Phase::Encode),
    );
    m.set("trace.send_ns_mean", phase_mean_ns(recorder, Phase::Send));
    m.set("trace.recv_ns_mean", phase_mean_ns(recorder, Phase::Recv));
}
