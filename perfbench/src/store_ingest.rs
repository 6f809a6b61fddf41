//! `store-ingest`: a standing service answering from node-store
//! snapshots while a writer appends and deletes rows in the stores —
//! the `privtopk query --store-dir --write-rate` path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;

use privtopk_core::distributed::NetworkKind;
use privtopk_core::{
    ProtocolConfig, QueryTicket, RoundPolicy, Schedule, ServiceRuntime, ServiceStats,
    SimulationEngine,
};
use privtopk_datagen::DatasetBuilder;
use privtopk_domain::rng::SeedSpec;
use privtopk_domain::{LocalTopkSource, TopKVector, Value, ValueDomain};
use privtopk_federation::QuerySpec;
use privtopk_observe::{Phase, Recorder};
use privtopk_store::NodeStore;

use crate::federated::phase_mean_ns;
use crate::load::{self, Frontend};
use crate::probes::{self, ProbeInputs};
use crate::report::Metrics;
use crate::run::{Answer, Bench, Budget, Checker, Expected, PathKind, RunConfig, Samples, Timings};
use crate::stats::percentile;

const NODES: usize = 4;
const K: usize = 8;
/// Queries kept in flight.
const DEPTH: usize = 4;
/// Rows per write chunk, and the open-loop chunk period.
const CHUNK_ROWS: usize = 64;
const CHUNK_PERIOD: Duration = Duration::from_millis(1);
/// Every tenth chunk a store receives is a chunk of deletes.
const DELETE_EVERY: u64 = 10;
/// Of a delete chunk's rows, how many remove the store's largest live
/// value. Those land in the candidate index and erode it until it
/// rebuilds from the log; the rest are drawn uniformly from the live
/// rows and almost always fall below the index.
const HOT_DELETES: usize = 4;
/// Rows per `insert_many` while pre-loading the stores.
const INGEST_CHUNK: usize = 65_536;
const STREAM_WRITES: u64 = 0x57;

/// One store's live rows, tracked by the benchmark as the oracle for
/// the store's own answers: a count per domain value, mirrored in a
/// Fenwick tree so that a uniformly chosen live row, or the largest, is
/// found in `O(log width)` without keeping the rows themselves.
pub(crate) struct LiveRows {
    min: i64,
    counts: Vec<u64>,
    /// 1-based Fenwick tree over `counts`.
    tree: Vec<u64>,
    live: u64,
}

impl LiveRows {
    pub(crate) fn new(domain: ValueDomain) -> Self {
        let width = usize::try_from(domain.width()).expect("the domain fits in memory");
        LiveRows {
            min: domain.min().get(),
            counts: vec![0; width],
            tree: vec![0; width + 1],
            live: 0,
        }
    }

    fn value(&self, slot: usize) -> Value {
        Value::new(self.min + slot as i64)
    }

    fn add(&mut self, slot: usize, insert: bool) {
        let step = |c: &mut u64| if insert { *c += 1 } else { *c -= 1 };
        step(&mut self.counts[slot]);
        step(&mut self.live);
        let mut i = slot + 1;
        while i < self.tree.len() {
            step(&mut self.tree[i]);
            i += i & i.wrapping_neg();
        }
    }

    /// The slot of the live row with 0-based ascending rank `rank`.
    fn slot_of_rank(&self, mut rank: u64) -> usize {
        let mut pos = 0;
        let mut step = (self.tree.len() - 1).next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= rank {
                pos = next;
                rank -= self.tree[next];
            }
            step /= 2;
        }
        pos
    }

    pub(crate) fn insert(&mut self, v: Value) {
        self.add((v.get() - self.min) as usize, true);
    }

    /// Removes a uniformly chosen live row.
    fn take_uniform(&mut self, rng: &mut SmallRng) -> Value {
        let slot = self.slot_of_rank(rng.gen_range(0..self.live));
        self.add(slot, false);
        self.value(slot)
    }

    /// Removes one occurrence of the largest live value.
    fn take_largest(&mut self) -> Value {
        let slot = self.slot_of_rank(self.live - 1);
        self.add(slot, false);
        self.value(slot)
    }

    /// The `k` largest live rows, descending.
    fn top(&self, k: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(k);
        for (slot, &count) in self.counts.iter().enumerate().rev() {
            let take = count.min((k - out.len()) as u64) as usize;
            out.extend(std::iter::repeat_n(self.value(slot), take));
            if out.len() == k {
                break;
            }
        }
        out
    }
}

/// The write stream: 64-row chunks round-robin over the stores, every
/// tenth chunk per store a chunk of deletes of earlier-inserted rows.
pub(crate) struct Writer {
    live: Vec<LiveRows>,
    rng: SmallRng,
    chunks: u64,
    per_store: Vec<u64>,
}

impl Writer {
    pub(crate) fn new(live: Vec<LiveRows>, seed: u64) -> Self {
        let stores = live.len();
        Writer {
            live,
            rng: SeedSpec::new(seed).stream(STREAM_WRITES).rng(),
            chunks: 0,
            per_store: vec![0; stores],
        }
    }

    /// Applies the next chunk to `stores`; returns how long `insert_many`
    /// took if the chunk was one of inserts.
    pub(crate) fn chunk(&mut self, stores: &[NodeStore]) -> Result<Option<Duration>, String> {
        let s = (self.chunks % stores.len() as u64) as usize;
        self.chunks += 1;
        self.per_store[s] += 1;
        let live = &mut self.live[s];
        if self.per_store[s].is_multiple_of(DELETE_EVERY) {
            let mut doomed = Vec::with_capacity(CHUNK_ROWS);
            for i in 0..CHUNK_ROWS {
                doomed.push(if i < HOT_DELETES {
                    live.take_largest()
                } else {
                    live.take_uniform(&mut self.rng)
                });
            }
            for v in doomed {
                stores[s].delete(v).map_err(|e| e.to_string())?;
            }
            Ok(None)
        } else {
            let range = stores[s].domain().as_range();
            let fresh: Vec<Value> = (0..CHUNK_ROWS)
                .map(|_| Value::new(self.rng.gen_range(range.clone())))
                .collect();
            let start = Instant::now();
            stores[s]
                .insert_many(fresh.iter().copied())
                .map_err(|e| e.to_string())?;
            let took = start.elapsed();
            for v in fresh {
                live.insert(v);
            }
            Ok(Some(took))
        }
    }

    /// Checks every store's exact top-k against the tracked live rows.
    pub(crate) fn verify(&self, stores: &[NodeStore], checker: &mut Checker) {
        for (i, (store, live)) in stores.iter().zip(&self.live).enumerate() {
            let answer = store
                .snapshot_for_k(K)
                .map_err(|e| e.to_string())
                .and_then(|s| Ok((s.rows(), s.local_topk(K).map_err(|e| e.to_string())?)));
            match answer {
                Ok((rows, top)) if rows == live.live && top.as_slice() == live.top(K) => {}
                Ok((rows, top)) => checker.fail(format!(
                    "store {i}: snapshot holds {rows} rows with top {top}; \
                     the live rows are {} with top {:?}",
                    live.live,
                    live.top(K)
                )),
                Err(e) => checker.fail(format!("store {i}: snapshot failed: {e}")),
            }
        }
    }
}

/// Runs the writer open loop, one chunk per [`CHUNK_PERIOD`], until
/// `stop`; returns the `insert_many` latencies in microseconds. A chunk
/// that falls behind is issued at once, however long earlier ones took.
fn write_until(
    stores: &[NodeStore],
    writer: &mut Writer,
    stop: &AtomicBool,
) -> (Vec<f64>, Option<String>) {
    let mut insert_us = Vec::new();
    let mut due = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        match writer.chunk(stores) {
            Ok(took) => insert_us.extend(took.map(load::us)),
            Err(e) => return (insert_us, Some(e)),
        }
        due += CHUNK_PERIOD;
    }
    (insert_us, None)
}

struct StoreFront {
    runtime: ServiceRuntime,
    config: ProtocolConfig,
}

impl Frontend for StoreFront {
    fn submit(&mut self, seed: u64) -> Result<QueryTicket, String> {
        self.runtime
            .submit(&self.config, seed)
            .map_err(|e| e.to_string())
    }

    fn collect(&mut self, ticket: QueryTicket) -> Result<Answer, String> {
        let outcome = self.runtime.collect(ticket).map_err(|e| e.to_string())?;
        Ok(Answer {
            values: outcome.per_node_results[0].iter().collect(),
            transcript: outcome.transcript,
        })
    }

    fn stats(&self) -> ServiceStats {
        self.runtime.stats()
    }
}

/// The store-backed workload.
pub(crate) struct StoreIngest {
    seed: u64,
    dirs: Vec<PathBuf>,
    config: ProtocolConfig,
    /// Generates the pre-loaded rows, again for the layer probes.
    builder: DatasetBuilder,
    bulk_rows_per_s: f64,
    /// The write stream; carried across systems, since every set-up
    /// reopens the same stores.
    writer: Mutex<Option<Writer>>,
}

/// Open stores and the service answering from their snapshots.
pub(crate) struct StoreSystem {
    front: StoreFront,
    stores: Arc<Vec<NodeStore>>,
    /// The frozen snapshots' local vectors: what the oracle runs on.
    locals: Vec<TopKVector>,
    /// `insert_many` latencies of the write stream, in microseconds.
    insert_us: Vec<f64>,
    rebuilds_at_open: u64,
}

fn store_dirs(root: &Path) -> Vec<PathBuf> {
    (0..NODES).map(|i| root.join(format!("node{i}"))).collect()
}

impl StoreIngest {
    pub(crate) fn new(cfg: &RunConfig) -> Result<Self, String> {
        let dirs = store_dirs(&cfg.scratch.join("stores"));
        let builder = DatasetBuilder::new(NODES)
            .rows_per_node(cfg.scale.store_rows_per_node)
            .seed(cfg.seed);
        let domain = ValueDomain::paper_default();
        let mut live = Vec::with_capacity(NODES);
        let mut ingest = Duration::ZERO;
        for (i, dir) in dirs.iter().enumerate() {
            let _ = std::fs::remove_dir_all(dir);
            let store = NodeStore::create(dir, domain).map_err(|e| e.to_string())?;
            let mut tracked = LiveRows::new(domain);
            // Streamed in chunks, so pre-loading never holds a node's rows
            // in memory: the run's peak RSS stays the system's.
            let mut rows = builder.node_value_stream(i).map_err(|e| e.to_string())?;
            loop {
                let chunk: Vec<Value> = rows.by_ref().take(INGEST_CHUNK).collect();
                if chunk.is_empty() {
                    break;
                }
                let start = Instant::now();
                store
                    .insert_many(chunk.iter().copied())
                    .map_err(|e| e.to_string())?;
                ingest += start.elapsed();
                for v in chunk {
                    tracked.insert(v);
                }
            }
            live.push(tracked);
        }
        let total_rows = (NODES * cfg.scale.store_rows_per_node) as f64;
        // The CLI's store query path builds exactly this configuration.
        let config = ProtocolConfig::topk(K)
            .with_domain(domain)
            .with_schedule(Schedule::paper_default())
            .with_rounds(RoundPolicy::Precision { epsilon: 1e-6 });
        Ok(StoreIngest {
            seed: cfg.seed,
            dirs,
            config,
            builder,
            bulk_rows_per_s: total_rows / ingest.as_secs_f64(),
            writer: Mutex::new(Some(Writer::new(live, cfg.seed))),
        })
    }

    fn writer(&self) -> std::sync::MutexGuard<'_, Option<Writer>> {
        self.writer
            .lock()
            .expect("no thread panics holding the writer")
    }
}

impl Bench for StoreIngest {
    type System = StoreSystem;

    fn tail(&self) -> f64 {
        0.99
    }

    fn path(&self) -> PathKind {
        PathKind::Ring { tcp: false }
    }

    fn checker(&self) -> Checker {
        let rounds = self
            .config
            .resolve_rounds()
            .expect("the default precision resolves");
        // The true answer is set at every set-up, from the rows the
        // snapshots freeze.
        let expected = Expected {
            truth: vec![Vec::new()],
            rounds: vec![rounds],
            nodes: NODES,
        };
        Checker::new(self.seed, expected)
    }

    fn setup(
        &self,
        traced: bool,
        checker: &mut Checker,
        timings: &mut Timings,
    ) -> Result<StoreSystem, String> {
        let mut stores = Vec::with_capacity(NODES);
        for dir in &self.dirs {
            let start = Instant::now();
            stores.push(NodeStore::open(dir).map_err(|e| e.to_string())?);
            timings.add("store.open_ms_per_node", load::ms(start.elapsed()));
        }
        let start = Instant::now();
        let snapshots = stores
            .iter()
            .map(|s| s.snapshot_for_k(K))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        timings.add(
            "store.snapshot_us",
            load::us(start.elapsed()) / NODES as f64,
        );
        let recorder = if traced {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let start = Instant::now();
        let runtime = ServiceRuntime::start_from_sources_traced(
            &snapshots,
            K,
            NetworkKind::InMemory,
            DEPTH,
            recorder,
        )
        .map_err(|e| e.to_string())?;
        timings.add("core.service.start_ms", load::ms(start.elapsed()));
        let locals = snapshots
            .iter()
            .map(|s| s.local_topk(K))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let truth = privtopk_core::true_topk(&locals, K, &self.config.domain())
            .map_err(|e| e.to_string())?;
        checker.set_truth(0, truth.iter().collect());
        let rebuilds_at_open = stores.iter().map(|s| s.stats().index_rebuilds).sum();
        let mut front = StoreFront {
            runtime,
            config: self.config.clone(),
        };
        load::first_query(&mut front, checker)?;
        Ok(StoreSystem {
            front,
            stores: Arc::new(stores),
            locals,
            insert_us: Vec::new(),
            rebuilds_at_open,
        })
    }

    fn pass(
        &self,
        sys: &mut StoreSystem,
        budget: &Budget,
        checker: &mut Checker,
    ) -> Result<Samples, String> {
        let mut writer = self
            .writer()
            .take()
            .expect("the writer is idle between passes");
        let stop = AtomicBool::new(false);
        let stores = Arc::clone(&sys.stores);
        let (queries, (writes, write_error)) = std::thread::scope(|scope| {
            let writing = scope.spawn(|| write_until(&stores, &mut writer, &stop));
            let queries = load::closed_loop(&mut sys.front, DEPTH, budget, checker);
            stop.store(true, Ordering::Release);
            let writes = writing
                .join()
                .unwrap_or_else(|_| (Vec::new(), Some("the writer panicked".into())));
            (queries, writes)
        });
        if let Some(e) = write_error {
            checker.fail(format!("write failed: {e}"));
        }
        sys.insert_us.extend(writes);
        writer.verify(&sys.stores, checker);
        *self.writer() = Some(writer);
        queries
    }

    fn teardown(&self, sys: StoreSystem, timings: &mut Timings) -> Result<(), String> {
        let start = Instant::now();
        sys.front.runtime.shutdown().map_err(|e| e.to_string())?;
        timings.add("core.service.shutdown_ms", load::ms(start.elapsed()));
        Ok(())
    }

    fn oracle(&self, sys: &StoreSystem, _spec: usize, seed: u64) -> Result<Answer, String> {
        let transcript = SimulationEngine::new(self.config.clone())
            .run(&sys.locals, seed)
            .map_err(|e| e.to_string())?;
        Ok(Answer {
            values: transcript.result().iter().collect(),
            transcript,
        })
    }

    fn system_layers(&self, sys: &StoreSystem, traced: &Samples, m: &mut Metrics) {
        let recorder = sys.front.runtime.recorder();
        probes::service_layers(&sys.front.runtime.stats(), recorder, traced, m);
        m.set("trace.step_ns_mean", phase_mean_ns(recorder, Phase::Step));
        m.set("store.bulk_ingest_rows_per_s", Some(self.bulk_rows_per_s));
        m.set("store.insert_many_us_p50", percentile(&sys.insert_us, 0.5));
        m.set("store.insert_many_us_p99", percentile(&sys.insert_us, 0.99));
        let rebuilds: u64 = sys.stores.iter().map(|s| s.stats().index_rebuilds).sum();
        m.set(
            "store.index_rebuilds",
            Some(rebuilds.saturating_sub(sys.rebuilds_at_open) as f64),
        );
        m.set(
            "store.log_bytes_per_row",
            probes::log_bytes_per_row(&sys.stores),
        );
    }

    fn probe_inputs(&self) -> Result<ProbeInputs, String> {
        Ok(ProbeInputs {
            members: self.builder.build().map_err(|e| e.to_string())?,
            specs: vec![QuerySpec::top_k("value", K)],
            seed: self.seed,
            service_depth: None,
            store_probe: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_rows_agree_with_a_sorted_list() {
        let domain = ValueDomain::new(Value::new(1), Value::new(20)).unwrap();
        let mut live = LiveRows::new(domain);
        let mut rng = SeedSpec::new(5).rng();
        let mut sorted: Vec<Value> = Vec::new();
        for _ in 0..200 {
            let v = Value::new(rng.gen_range(1..=20));
            live.insert(v);
            sorted.push(v);
        }
        sorted.sort_unstable();
        for (rank, &v) in sorted.iter().enumerate() {
            assert_eq!(live.value(live.slot_of_rank(rank as u64)), v, "rank {rank}");
        }
        assert_eq!(Some(live.take_largest()), sorted.pop());
        for _ in 0..50 {
            let v = live.take_uniform(&mut rng);
            let at = sorted
                .iter()
                .position(|&x| x == v)
                .expect("took a live row");
            sorted.remove(at);
        }
        assert_eq!(live.live, sorted.len() as u64);
        let top: Vec<Value> = sorted.iter().rev().take(8).copied().collect();
        assert_eq!(live.top(8), top);
    }
}
