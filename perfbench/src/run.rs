//! The run loop shared by every workload: set-up cycles, timed
//! passes, the traced pass, output checks, and the metrics they yield.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use privtopk_core::{derive_batch_seed, Transcript};
use privtopk_domain::Value;

use crate::probes::{self, ProbeInputs};
use crate::report::{Metrics, Report, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile};
use crate::{federated, proc, store_ingest};

/// Every `ORACLE_EVERY`-th query is re-run through the in-process
/// oracle (`Federation::execute` with the same spec and seed) and must
/// match bit for bit.
const ORACLE_EVERY: u64 = 50;

/// Untraced passes a `--trace 1` run measures before its traced pass.
const REFERENCE_PASSES: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Standing in-memory service, 16 queries in flight, stats-only recorder.
    ServePipelined,
    /// Standing TCP service at depth 1 under seeded Poisson arrivals.
    ServeInteractive,
    /// `Federation::execute_batch` with a 16-spec mix per call.
    BatchSim,
    /// Store-backed service answering while a writer appends and deletes.
    StoreIngest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServePipelined,
        Workload::ServeInteractive,
        Workload::BatchSim,
        Workload::StoreIngest,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePipelined => "serve-pipelined",
            Workload::ServeInteractive => "serve-interactive",
            Workload::BatchSim => "batch-sim",
            Workload::StoreIngest => "store-ingest",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and repetition counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scale {
    /// Rows per member for the federation workloads.
    pub rows_per_node: usize,
    /// Rows pre-loaded into each node store for `store-ingest`.
    pub store_rows_per_node: usize,
    /// Set-up, pass and teardown cycles per `--trace 0` run. `setup_s` is
    /// the median set-up; the other end-to-end metrics are medians over
    /// the passes the hypervisor disturbed least.
    pub passes: usize,
    /// Cap on requests per pass, on top of the time budget.
    pub max_requests: Option<u64>,
}

impl Scale {
    /// The sizes the benchmark is defined at.
    #[must_use]
    pub fn full() -> Scale {
        Scale {
            rows_per_node: 10_000,
            store_rows_per_node: 250_000,
            passes: 10,
            max_requests: None,
        }
    }

    /// A few-second run over tiny inputs that still walks every code
    /// path: one pass of about 20 requests. Too few samples for the tail
    /// percentiles, which then print as `null`.
    #[must_use]
    pub fn smoke() -> Scale {
        Scale {
            rows_per_node: 200,
            store_rows_per_node: 2_000,
            passes: 1,
            max_requests: Some(20),
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured time: split evenly over the passes (`--trace 0`), or
    /// over the reference and traced passes (`--trace 1`).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for on-disk state (node stores); removed afterwards.
    pub scratch: PathBuf,
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// Any failure that prevents measuring: invalid inputs, a service that
/// cannot start, or a failed submission. Wrong answers are not errors:
/// they are counted in [`Report::failed`].
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("cannot create {}: {e}", cfg.scratch.display()))?;
    let outcome = match cfg.workload {
        Workload::ServePipelined => federated::Serve::pipelined(cfg).and_then(|b| drive(&b, cfg)),
        Workload::ServeInteractive => {
            federated::Serve::interactive(cfg).and_then(|b| drive(&b, cfg))
        }
        Workload::BatchSim => federated::Batch::new(cfg).and_then(|b| drive(&b, cfg)),
        Workload::StoreIngest => store_ingest::StoreIngest::new(cfg).and_then(|b| drive(&b, cfg)),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    outcome
}

/// A query's answer as the checks see it.
#[derive(Debug)]
pub(crate) struct Answer {
    pub values: Vec<Value>,
    pub transcript: Transcript,
}

/// What every answer is checked against, per spec of the workload's mix.
#[derive(Debug, Clone)]
pub(crate) struct Expected {
    /// The true answer.
    pub truth: Vec<Vec<Value>>,
    /// The resolved round count.
    pub rounds: Vec<u32>,
    /// Members on the ring.
    pub nodes: usize,
}

/// A 64-bit digest of everything `Transcript` equality compares, plus
/// the answer values: a deferred oracle check keeps this instead of the
/// transcript, so the harness's memory does not grow with throughput.
fn digest(answer: &Answer) -> u64 {
    let mut h = DefaultHasher::new();
    answer.values.hash(&mut h);
    let t = &answer.transcript;
    (t.n(), t.k(), t.rounds(), t.result()).hash(&mut h);
    for round in 1..=t.rounds() {
        t.ring_order(round).hash(&mut h);
    }
    for s in t.steps() {
        (s.round, s.position.get(), s.node.get(), s.action).hash(&mut h);
        (&s.incoming, &s.outgoing).hash(&mut h);
    }
    h.finish()
}

/// An answer awaiting its oracle check.
struct Deferred {
    spec: usize,
    seed: u64,
    values: Vec<Value>,
    digest: u64,
}

/// Output checks: every answer against the true top-k of the members,
/// every answer's round and message count against the cost model, and
/// every [`ORACLE_EVERY`]-th answer (plus any answer off the true top-k)
/// against the in-process oracle under the same spec and seed.
pub(crate) struct Checker {
    base_seed: u64,
    expected: Expected,
    attempted: u64,
    failed: u64,
    /// Answers off the true top-k that the oracle reproduces exactly:
    /// the randomized protocol's bounded imprecision, not a defect.
    precision_misses: u64,
    deferred: Vec<Deferred>,
}

impl Checker {
    pub fn new(base_seed: u64, expected: Expected) -> Self {
        Checker {
            base_seed,
            expected,
            attempted: 0,
            failed: 0,
            precision_misses: 0,
            deferred: Vec::new(),
        }
    }

    /// Claims the next query index.
    pub fn begin(&mut self) -> u64 {
        self.attempted += 1;
        self.attempted - 1
    }

    /// The protocol seed of query `index` on the service workloads.
    pub fn seed_of(&self, index: u64) -> u64 {
        derive_batch_seed(self.base_seed, index)
    }

    /// Messages per query: `n · r` hops (the paper's cost model, before
    /// the `n − 1` frames of the final circulation).
    pub fn messages(&self, spec: usize) -> usize {
        self.expected.nodes * self.expected.rounds[spec] as usize
    }

    /// Frames per query on a real transport: `n · r + n − 1`.
    pub fn frames(&self, spec: usize) -> u64 {
        (self.messages(spec) + self.expected.nodes - 1) as u64
    }

    /// Checks query `index`'s outcome. Cheap checks run now; oracle
    /// re-runs wait for [`resolve`](Self::resolve), outside timed code.
    pub fn check(&mut self, index: u64, spec: usize, seed: u64, outcome: Result<Answer, String>) {
        let answer = match outcome {
            Ok(answer) => answer,
            Err(e) => return self.fail(format!("query {index} failed: {e}")),
        };
        let rounds = answer.transcript.rounds();
        if rounds != self.expected.rounds[spec]
            || answer.transcript.message_count() != self.messages(spec)
        {
            return self.fail(format!(
                "query {index}: {rounds} rounds, {} messages; expected {} rounds, {} messages",
                answer.transcript.message_count(),
                self.expected.rounds[spec],
                self.messages(spec)
            ));
        }
        if answer.values != self.expected.truth[spec] || index.is_multiple_of(ORACLE_EVERY) {
            self.deferred.push(Deferred {
                spec,
                seed,
                digest: digest(&answer),
                values: answer.values,
            });
        }
    }

    /// Replaces the true answer to spec `spec` (a store-backed system's
    /// answer depends on the rows its snapshots froze).
    pub fn set_truth(&mut self, spec: usize, truth: Vec<Value>) {
        self.expected.truth[spec] = truth;
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Settles deferred checks against `oracle`.
    pub fn resolve(&mut self, oracle: impl Fn(usize, u64) -> Result<Answer, String>) {
        for d in std::mem::take(&mut self.deferred) {
            match oracle(d.spec, d.seed) {
                Ok(expected) if digest(&expected) == d.digest => {
                    if d.values != self.expected.truth[d.spec] {
                        self.precision_misses += 1;
                    }
                }
                Ok(expected) => self.fail(format!(
                    "seed {}: answer {:?} or its transcript differs from the oracle's {:?}",
                    d.seed, d.values, expected.values
                )),
                Err(e) => self.fail(format!("oracle for seed {} failed: {e}", d.seed)),
            }
        }
    }
}

/// When a pass stops admitting requests, and what it records.
pub(crate) struct Budget {
    pub deadline: Instant,
    max_requests: Option<u64>,
    /// Record per-request submit, collect and lateness samples, which
    /// only the traced run reads.
    pub detailed: bool,
}

impl Budget {
    pub fn new(length: Duration, max_requests: Option<u64>, detailed: bool) -> Self {
        Budget {
            deadline: Instant::now() + length,
            max_requests,
            detailed,
        }
    }

    /// Whether a request issued now, after `issued` others, belongs to
    /// the pass.
    pub fn admits(&self, issued: u64) -> bool {
        Instant::now() < self.deadline && issued < self.cap(u64::MAX)
    }

    /// `wanted` requests, or fewer if the request cap says so.
    pub fn cap(&self, wanted: u64) -> u64 {
        self.max_requests.map_or(wanted, |m| wanted.min(m))
    }
}

/// What one pass observed, from the load generator's side.
#[derive(Debug, Default)]
pub(crate) struct Samples {
    detailed: bool,
    /// Queries answered (a batched call answers several).
    pub queries: u64,
    /// Per-request latency: per query on the services, per call on
    /// `batch-sim`.
    pub latency_ms: Vec<f64>,
    /// How late the generator issued each request: after the slot freed
    /// (closed loops) or after its due time (open loops).
    pub lateness_us: Vec<f64>,
    /// Time inside `submit` (service workloads).
    pub submit_us: Vec<f64>,
    /// Time blocked inside `collect` (service workloads).
    pub collect_us: Vec<f64>,
}

impl Samples {
    /// Empty samples for a pass under `budget`.
    pub fn new(budget: &Budget) -> Self {
        Samples {
            detailed: budget.detailed,
            ..Samples::default()
        }
    }

    /// Records one answered request.
    pub fn answered(&mut self, queries: u64, latency: Duration) {
        self.queries += queries;
        self.latency_ms.push(latency.as_secs_f64() * 1e3);
    }

    /// Records how late the generator issued a request.
    pub fn late(&mut self, by: Duration) {
        if self.detailed {
            self.lateness_us.push(by.as_secs_f64() * 1e6);
        }
    }

    /// Records the time a request spent in `submit` and in `collect`.
    pub fn service(&mut self, submit: Duration, collect: Duration) {
        if self.detailed {
            self.submit_us.push(submit.as_secs_f64() * 1e6);
            self.collect_us.push(collect.as_secs_f64() * 1e6);
        }
    }
}

/// Named sub-timings of set-up and teardown, keyed by the per-layer
/// metric they feed and reduced by median.
#[derive(Debug, Default)]
pub(crate) struct Timings(BTreeMap<&'static str, Vec<f64>>);

impl Timings {
    pub fn add(&mut self, metric: &'static str, value: f64) {
        self.0.entry(metric).or_default().push(value);
    }

    fn report(self, m: &mut Metrics) {
        for (name, values) in self.0 {
            m.set(name, median(&values));
        }
    }
}

/// How a workload's requests reach the system, which decides what its
/// critical path is made of.
pub(crate) enum PathKind {
    /// Queries on a standing ring; `tcp` selects the transport probe.
    Ring { tcp: bool },
    /// In-process batched calls of `specs` queries.
    Batch { specs: usize },
}

/// One workload, as the run loop sees it.
pub(crate) trait Bench {
    /// The running system, from first answer to teardown.
    type System;
    /// The percentile reported as `latency_tail_ms`: the highest one
    /// the workload's sample count supports.
    fn tail(&self) -> f64;
    /// What the critical path of one request consists of.
    fn path(&self) -> PathKind;

    /// A checker primed with the true answers.
    fn checker(&self) -> Checker;
    /// Brings the system up to its first answered query.
    fn setup(
        &self,
        traced: bool,
        checker: &mut Checker,
        timings: &mut Timings,
    ) -> Result<Self::System, String>;
    /// Drives load until `budget` runs out and the system drains.
    fn pass(
        &self,
        sys: &mut Self::System,
        budget: &Budget,
        checker: &mut Checker,
    ) -> Result<Samples, String>;
    /// Stops the system, joining everything it started.
    fn teardown(&self, sys: Self::System, timings: &mut Timings) -> Result<(), String>;
    /// The in-process answer of `sys`'s data to spec `spec` under `seed`.
    fn oracle(&self, sys: &Self::System, spec: usize, seed: u64) -> Result<Answer, String>;
    /// Per-layer metrics read from the traced system after its pass.
    fn system_layers(&self, sys: &Self::System, traced: &Samples, m: &mut Metrics);
    /// The data and shapes the layer probes run on, generated again from
    /// the seed: the workload keeps no copy it does not use itself.
    fn probe_inputs(&self) -> Result<ProbeInputs, String>;
}

/// One measured pass, summarized. The raw samples are dropped after
/// the pass, so the harness's own memory does not grow with the number
/// of queries a run answers.
pub(crate) struct PassStats {
    queries: u64,
    wall_s: f64,
    usage: Option<proc::Usage>,
    /// Share of host CPU time the hypervisor stole during the pass.
    steal_pct: Option<f64>,
    latency_p50_ms: Option<f64>,
    latency_tail_ms: Option<f64>,
    lateness_p90_us: Option<f64>,
}

impl PassStats {
    fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_s
    }

    fn per_query(&self, total: f64) -> f64 {
        total / self.queries as f64
    }

    fn cpu_ms_per_query(&self) -> Option<f64> {
        Some(self.per_query(self.usage?.cpu.as_secs_f64() * 1e3))
    }

    fn ctx_switches_per_query(&self) -> Option<f64> {
        Some(self.per_query(self.usage?.context_switches as f64))
    }
}

fn median_of<'a>(
    passes: impl IntoIterator<Item = &'a PassStats>,
    f: impl Fn(&PassStats) -> Option<f64>,
) -> Option<f64> {
    median(&passes.into_iter().filter_map(f).collect::<Vec<_>>())
}

/// The half of `passes` (rounded up) during which the hypervisor stole
/// the least host CPU time. On a shared host even CPU per query rises
/// with steal, as contended threads spin and switch more (0.17 ms at no
/// steal against 0.25 ms at 30% on `store-ingest`), so passes it
/// disturbed say more about the host than about the program. Without
/// steal readings, every pass counts.
fn least_stolen(passes: &[PassStats]) -> Vec<&PassStats> {
    let mut sorted: Vec<&PassStats> = passes.iter().collect();
    sorted.sort_by(|a, b| {
        a.steal_pct
            .unwrap_or(0.0)
            .total_cmp(&b.steal_pct.unwrap_or(0.0))
    });
    sorted.truncate(passes.len().div_ceil(2));
    sorted
}

fn drive<B: Bench>(bench: &B, cfg: &RunConfig) -> Result<Report, String> {
    let host_before = proc::host_cpu();
    let mut checker = bench.checker();
    let mut m = Metrics::default();
    let catalogue = if cfg.trace {
        traced_run(bench, cfg, &mut checker, &mut m)?;
        let steal = host_before.zip(proc::host_cpu());
        m.set(
            "host.steal_pct",
            steal.and_then(|(a, b)| proc::steal_pct(a, b)),
        );
        PER_LAYER
    } else {
        timed_run(bench, cfg, &mut checker, &mut m)?;
        END_TO_END
    };
    if checker.precision_misses > 0 {
        eprintln!(
            "note: {} answers fell short of the true top-k exactly as the oracle did \
             (the protocol's bounded imprecision)",
            checker.precision_misses
        );
    }
    Ok(Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: m.finish(catalogue),
    })
}

/// Runs one pass of `length` and summarizes it; also returns the raw
/// samples for a caller that needs more than the summary.
fn measured_pass<B: Bench>(
    bench: &B,
    sys: &mut B::System,
    length: Duration,
    cfg: &RunConfig,
    checker: &mut Checker,
) -> Result<(PassStats, Samples), String> {
    let budget = Budget::new(length, cfg.scale.max_requests, cfg.trace);
    let host = proc::host_cpu();
    let usage = proc::usage();
    let start = Instant::now();
    let samples = bench.pass(sys, &budget, checker)?;
    let wall_s = start.elapsed().as_secs_f64();
    let usage = usage.zip(proc::usage()).map(|(a, b)| a.until(b));
    let steal = host
        .zip(proc::host_cpu())
        .and_then(|(a, b)| proc::steal_pct(a, b));
    checker.resolve(|spec, seed| bench.oracle(sys, spec, seed));
    if samples.queries == 0 {
        return Err("a pass answered no queries".into());
    }
    let stats = PassStats {
        queries: samples.queries,
        wall_s,
        usage,
        steal_pct: steal,
        latency_p50_ms: percentile(&samples.latency_ms, 0.5),
        latency_tail_ms: percentile(&samples.latency_ms, bench.tail()),
        lateness_p90_us: percentile(&samples.lateness_us, 0.9),
    };
    let fmt = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"));
    eprintln!(
        "  pass: {} queries in {wall_s:.2} s, {:.1} q/s, p50 {} ms, cpu {} ms/q, host steal {}%",
        stats.queries,
        stats.qps(),
        fmt(stats.latency_p50_ms),
        fmt(stats.cpu_ms_per_query()),
        fmt(stats.steal_pct),
    );
    Ok((stats, samples))
}

/// What one set-up cost.
struct SetupCost {
    wall_s: f64,
    /// CPU time of every thread of the process, which hypervisor steal
    /// does not inflate.
    cpu_s: Option<f64>,
}

/// Sets the system up, measures what that cost, and settles the first
/// query's oracle check.
fn timed_setup<B: Bench>(
    bench: &B,
    traced: bool,
    checker: &mut Checker,
    timings: &mut Timings,
) -> Result<(B::System, SetupCost), String> {
    let usage = proc::usage();
    let start = Instant::now();
    let sys = bench.setup(traced, checker, timings)?;
    let cost = SetupCost {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: usage
            .zip(proc::usage())
            .map(|(a, b)| a.until(b).cpu.as_secs_f64()),
    };
    checker.resolve(|spec, seed| bench.oracle(&sys, spec, seed));
    Ok((sys, cost))
}

/// `--trace 0`: cycles of set-up, one timed pass and teardown, untraced.
/// A fresh system per pass keeps the passes alike: state a standing
/// service accumulates (the SLO window grows with every query) does not
/// carry from one pass into the next.
fn timed_run<B: Bench>(
    bench: &B,
    cfg: &RunConfig,
    checker: &mut Checker,
    m: &mut Metrics,
) -> Result<(), String> {
    let cycles = cfg.scale.passes.max(1);
    let length = Duration::from_secs_f64(cfg.seconds / cycles as f64);
    let mut setup_cpu = Vec::with_capacity(cycles);
    let mut setup_wall = Vec::with_capacity(cycles);
    let mut passes = Vec::with_capacity(cycles);
    let mut timings = Timings::default();
    for _ in 0..cycles {
        let (mut sys, setup) = timed_setup(bench, false, checker, &mut timings)?;
        setup_wall.push(setup.wall_s);
        setup_cpu.extend(setup.cpu_s);
        let (stats, _) = measured_pass(bench, &mut sys, length, cfg, checker)?;
        passes.push(stats);
        bench.teardown(sys, &mut timings)?;
    }
    eprintln!(
        "  set-up: median {:.3} ms wall",
        median(&setup_wall).unwrap_or(f64::NAN) * 1e3
    );

    m.set("setup_s", median(&setup_cpu));
    m.set(
        "cpu_ms_per_query",
        median_of(least_stolen(&passes), PassStats::cpu_ms_per_query),
    );
    m.set(
        "peak_rss_mb",
        proc::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0)),
    );
    Ok(())
}

/// `--trace 1`: untraced reference passes, one pass under a full
/// recorder, then the layer probes.
fn traced_run<B: Bench>(
    bench: &B,
    cfg: &RunConfig,
    checker: &mut Checker,
    m: &mut Metrics,
) -> Result<(), String> {
    let passes = REFERENCE_PASSES;
    let length = Duration::from_secs_f64(cfg.seconds / (passes + 1) as f64 * 0.8);

    let mut timings = Timings::default();
    let (mut sys, setup) = timed_setup(bench, false, checker, &mut timings)?;
    m.set("client.setup_wall_ms", Some(setup.wall_s * 1e3));
    let reference = (0..passes)
        .map(|_| measured_pass(bench, &mut sys, length, cfg, checker).map(|(stats, _)| stats))
        .collect::<Result<Vec<_>, _>>()?;
    bench.teardown(sys, &mut timings)?;

    let (mut sys, _) = timed_setup(bench, true, checker, &mut Timings::default())?;
    let (traced, traced_samples) = measured_pass(bench, &mut sys, length, cfg, checker)?;
    bench.system_layers(&sys, &traced_samples, m);
    drop(traced_samples);
    bench.teardown(sys, &mut Timings::default())?;
    // Set-up and teardown sub-timings come from the untraced system; a
    // workload without a service or store gets them from the probes.
    timings.report(m);

    probes::run(&bench.probe_inputs()?, &cfg.scratch, checker, m)?;

    m.set(
        "ring.transport.ctx_switches_per_query",
        median_of(&reference, PassStats::ctx_switches_per_query),
    );
    let untraced_cpu = median_of(&reference, PassStats::cpu_ms_per_query);
    m.set(
        "observe.trace_overhead_pct",
        traced
            .cpu_ms_per_query()
            .zip(untraced_cpu)
            .map(|(on, off)| (on / off - 1.0) * 100.0),
    );
    m.set(
        "client.throughput_qps",
        median_of(&reference, |p| Some(p.qps())),
    );
    m.set(
        "client.latency_p50_ms",
        median_of(&reference, |p| p.latency_p50_ms),
    );
    m.set(
        "client.latency_tail_ms",
        median_of(&reference, |p| p.latency_tail_ms),
    );
    let latency_us = median_of(&reference, |p| p.latency_p50_ms).map(|ms| ms * 1e3);
    m.set(
        "attribution.residual_pct",
        latency_us
            .zip(critical_path_us(&bench.path(), m))
            .map(|(total, path)| (total - path) / total * 100.0),
    );
    m.set(
        "client.lateness_us_p90",
        median_of(&reference, |p| p.lateness_p90_us),
    );
    Ok(())
}

/// The probe sum for one request's critical path: per hop, encode +
/// one-way transport + decode, plus the local step of every computing
/// hop; for a batched call, the compile and engine time of its specs.
fn critical_path_us(path: &PathKind, m: &Metrics) -> Option<f64> {
    match *path {
        PathKind::Ring { tcp } => {
            let oneway = if tcp {
                m.get("ring.transport.tcp_oneway_us_p50")?
            } else {
                m.get("ring.transport.inmem_oneway_us_p50")?
            };
            let codec_us =
                (m.get("ring.wire.encode_ns_p50")? + m.get("ring.wire.decode_ns_p50")?) / 1e3;
            let frames =
                m.get("ring.wire.bytes_per_query")? / m.get("ring.wire.frame_bytes_mean")?;
            let steps = m.get("core.local.steps_per_query")?;
            Some(frames * (oneway + codec_us) + steps * m.get("core.local.step_ns_p50")? / 1e3)
        }
        PathKind::Batch { specs } => Some(
            specs as f64
                * (m.get("federation.compile_us_per_spec")?
                    + m.get("core.engine.run_us_per_query")?),
        ),
    }
}
