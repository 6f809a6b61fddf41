//! The workloads over a `Federation` of synthetic members: the standing
//! service (pipelined in memory, interactive over TCP) and the batched
//! in-process executor.

use rand::rngs::SmallRng;

use privtopk_core::distributed::NetworkKind;
use privtopk_core::{derive_batch_seed, ProtocolConfig, QueryTicket, RoundPolicy, ServiceStats};
use privtopk_datagen::{DatasetBuilder, PrivateDatabase};
use privtopk_domain::rng::{derive_seed, SeedSpec};
use privtopk_domain::Value;
use privtopk_federation::{
    Federation, FederationService, QueryBatch, QueryKind, QueryOutcome, QuerySpec,
};
use privtopk_observe::{Phase, Recorder};

use crate::load::{self, Frontend};
use crate::probes::{self, ProbeInputs};
use crate::report::Metrics;
use crate::run::{Answer, Bench, Budget, Checker, Expected, PathKind, RunConfig, Samples, Timings};

/// Members of every federation workload (the paper's `n > 2` parties).
const NODES: usize = 6;
/// Queries kept in flight by `serve-pipelined`.
const PIPELINE_DEPTH: usize = 16;
/// Mean arrival rate of `serve-interactive`, per second.
const INTERACTIVE_RATE_HZ: f64 = 50.0;
/// Specs per `execute_batch` call on `batch-sim`.
const BATCH_WIDTH: usize = 16;
/// Seed stream of the interactive arrival times.
const STREAM_ARRIVALS: u64 = 0xA11;
/// Seed stream of the batched calls' base seeds.
const STREAM_CALLS: u64 = 0xCA11;

fn members(rows: usize, seed: u64) -> Result<Vec<PrivateDatabase>, String> {
    DatasetBuilder::new(NODES)
        .rows_per_node(rows)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())
}

/// The true answer to `spec` over the members' full columns, by sorting
/// every value: descending for max/top-k, ascending for bottom-k.
fn truth(members: &[PrivateDatabase], spec: &QuerySpec) -> Vec<Value> {
    let mut all: Vec<Value> = members.iter().flat_map(|m| m.sensitive_values()).collect();
    all.sort_unstable();
    let k = spec.kind().k();
    match spec.kind() {
        QueryKind::Min | QueryKind::BottomK(_) => all.into_iter().take(k).collect(),
        _ => all.into_iter().rev().take(k).collect(),
    }
}

/// The protocol configuration `Federation` compiles `spec` into.
pub(crate) fn protocol_config(spec: &QuerySpec, members: &[PrivateDatabase]) -> ProtocolConfig {
    ProtocolConfig::topk(spec.kind().k())
        .with_domain(members[0].domain())
        .with_schedule(spec.schedule())
        .with_rounds(RoundPolicy::Precision {
            epsilon: spec.epsilon(),
        })
}

fn expected(members: &[PrivateDatabase], specs: &[QuerySpec]) -> Result<Expected, String> {
    let rounds = specs
        .iter()
        .map(|s| protocol_config(s, members).resolve_rounds())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Expected {
        truth: specs.iter().map(|s| truth(members, s)).collect(),
        rounds,
        nodes: members.len(),
    })
}

pub(crate) fn answer(outcome: QueryOutcome) -> Answer {
    Answer {
        values: outcome.values().to_vec(),
        transcript: outcome.transcript().clone(),
    }
}

impl Frontend for FederationService {
    fn submit(&mut self, seed: u64) -> Result<QueryTicket, String> {
        FederationService::submit(self, seed).map_err(|e| e.to_string())
    }

    fn collect(&mut self, ticket: QueryTicket) -> Result<Answer, String> {
        FederationService::collect(self, ticket)
            .map(answer)
            .map_err(|e| e.to_string())
    }

    fn stats(&self) -> ServiceStats {
        FederationService::stats(self)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Pipelined,
    Interactive,
}

/// `serve-pipelined` and `serve-interactive`: `Federation::serve` of
/// `top_k(value, 8)` with the default spec (random ring, ε = 1e-6).
pub(crate) struct Serve {
    mode: Mode,
    seed: u64,
    rows: usize,
    federation: Federation,
    spec: QuerySpec,
    expected: Expected,
}

/// A running service plus the arrival stream that feeds it.
pub(crate) struct ServeSystem {
    service: FederationService,
    arrivals: SmallRng,
}

impl Serve {
    fn new(cfg: &RunConfig, mode: Mode) -> Result<Self, String> {
        let members = members(cfg.scale.rows_per_node, cfg.seed)?;
        let spec = QuerySpec::top_k("value", 8);
        let expected = expected(&members, std::slice::from_ref(&spec))?;
        Ok(Serve {
            mode,
            seed: cfg.seed,
            rows: cfg.scale.rows_per_node,
            federation: Federation::new(members).map_err(|e| e.to_string())?,
            spec,
            expected,
        })
    }

    pub(crate) fn pipelined(cfg: &RunConfig) -> Result<Self, String> {
        Serve::new(cfg, Mode::Pipelined)
    }

    pub(crate) fn interactive(cfg: &RunConfig) -> Result<Self, String> {
        Serve::new(cfg, Mode::Interactive)
    }
}

impl Bench for Serve {
    type System = ServeSystem;

    fn tail(&self) -> f64 {
        match self.mode {
            Mode::Pipelined => 0.99,
            // A reference pass of about 5 s at 50 q/s leaves ten samples
            // beyond p90, not beyond p99.
            Mode::Interactive => 0.90,
        }
    }

    fn path(&self) -> PathKind {
        PathKind::Ring {
            tcp: self.mode == Mode::Interactive,
        }
    }

    fn checker(&self) -> Checker {
        Checker::new(self.seed, self.expected.clone())
    }

    fn setup(
        &self,
        traced: bool,
        checker: &mut Checker,
        timings: &mut Timings,
    ) -> Result<ServeSystem, String> {
        // The operator configuration keeps a stats-only recorder for its
        // metrics endpoint; the interactive analyst runs without one.
        let (network, depth, recorder) = match self.mode {
            Mode::Pipelined => (
                NetworkKind::InMemory,
                PIPELINE_DEPTH,
                Recorder::stats_only(),
            ),
            Mode::Interactive => (NetworkKind::Tcp, 1, Recorder::disabled()),
        };
        let recorder = if traced { Recorder::new() } else { recorder };
        let start = std::time::Instant::now();
        let mut service = self
            .federation
            .serve_traced(&self.spec, network, depth, recorder)
            .map_err(|e| e.to_string())?;
        timings.add("core.service.start_ms", load::ms(start.elapsed()));
        load::first_query(&mut service, checker)?;
        Ok(ServeSystem {
            service,
            arrivals: SeedSpec::new(self.seed).stream(STREAM_ARRIVALS).rng(),
        })
    }

    fn pass(
        &self,
        sys: &mut ServeSystem,
        budget: &Budget,
        checker: &mut Checker,
    ) -> Result<Samples, String> {
        match self.mode {
            Mode::Pipelined => load::closed_loop(&mut sys.service, PIPELINE_DEPTH, budget, checker),
            Mode::Interactive => load::open_loop(
                &mut sys.service,
                INTERACTIVE_RATE_HZ,
                &mut sys.arrivals,
                budget,
                checker,
            ),
        }
    }

    fn teardown(&self, sys: ServeSystem, timings: &mut Timings) -> Result<(), String> {
        let start = std::time::Instant::now();
        sys.service.shutdown().map_err(|e| e.to_string())?;
        timings.add("core.service.shutdown_ms", load::ms(start.elapsed()));
        Ok(())
    }

    fn oracle(&self, _sys: &ServeSystem, _spec: usize, seed: u64) -> Result<Answer, String> {
        self.federation
            .execute(&self.spec, seed)
            .map(answer)
            .map_err(|e| e.to_string())
    }

    fn system_layers(&self, sys: &ServeSystem, traced: &Samples, m: &mut Metrics) {
        probes::service_layers(&sys.service.stats(), sys.service.recorder(), traced, m);
        m.set(
            "trace.step_ns_mean",
            phase_mean_ns(sys.service.recorder(), Phase::Step),
        );
    }

    fn probe_inputs(&self) -> Result<ProbeInputs, String> {
        Ok(ProbeInputs {
            members: members(self.rows, self.seed)?,
            specs: vec![self.spec.clone()],
            seed: self.seed,
            service_depth: None,
            store_probe: true,
        })
    }
}

/// Mean span length of `phase`, or `None` if the recorder saw none.
pub(crate) fn phase_mean_ns(recorder: &Recorder, phase: Phase) -> Option<f64> {
    let h = recorder.phase(phase);
    (h.count > 0).then(|| h.sum_ns as f64 / h.count as f64)
}

/// `batch-sim`: `Federation::execute_batch` with 16 specs per call,
/// cycling `top_k(16)`, `top_k(8)`, `max`, `bottom_k(16)` — so 12 of
/// every 16 specs (75%) repeat one already in the call.
pub(crate) struct Batch {
    seed: u64,
    rows: usize,
    federation: Federation,
    mix: Vec<QuerySpec>,
    expected: Expected,
}

/// A batch run's recorder and call counter.
pub(crate) struct BatchSystem {
    recorder: Recorder,
    calls: u64,
}

impl Batch {
    pub(crate) fn new(cfg: &RunConfig) -> Result<Self, String> {
        let members = members(cfg.scale.rows_per_node, cfg.seed)?;
        let mix = vec![
            QuerySpec::top_k("value", 16),
            QuerySpec::top_k("value", 8),
            QuerySpec::max("value"),
            QuerySpec::bottom_k("value", 16),
        ];
        let expected = expected(&members, &mix)?;
        Ok(Batch {
            seed: cfg.seed,
            rows: cfg.scale.rows_per_node,
            federation: Federation::new(members).map_err(|e| e.to_string())?,
            mix,
            expected,
        })
    }

    /// Issues one call and checks its 16 answers; returns the call's
    /// latency.
    fn call(&self, sys: &mut BatchSystem, checker: &mut Checker) -> std::time::Duration {
        let base = derive_batch_seed(derive_seed(self.seed, STREAM_CALLS), sys.calls);
        sys.calls += 1;
        let specs = (0..BATCH_WIDTH)
            .map(|i| self.mix[i % self.mix.len()].clone())
            .collect();
        let batch = QueryBatch::from_specs(specs, base);
        let start = std::time::Instant::now();
        let outcomes = self.federation.execute_batch_traced(&batch, &sys.recorder);
        let latency = start.elapsed();
        match outcomes {
            Ok(outcomes) => {
                for (i, outcome) in outcomes.into_iter().enumerate() {
                    let index = checker.begin();
                    let spec = i % self.mix.len();
                    checker.check(index, spec, batch.query_seed(i), Ok(answer(outcome)));
                }
            }
            Err(e) => {
                for _ in 0..BATCH_WIDTH {
                    checker.begin();
                    checker.fail(format!("execute_batch failed: {e}"));
                }
            }
        }
        latency
    }
}

impl Bench for Batch {
    type System = BatchSystem;

    fn tail(&self) -> f64 {
        // About 40 calls a second at 10^4 rows per member: a reference
        // pass of about 5 s leaves ten samples beyond p90, not beyond p99.
        0.90
    }

    fn path(&self) -> PathKind {
        PathKind::Batch { specs: BATCH_WIDTH }
    }

    fn checker(&self) -> Checker {
        Checker::new(self.seed, self.expected.clone())
    }

    fn setup(
        &self,
        traced: bool,
        checker: &mut Checker,
        _timings: &mut Timings,
    ) -> Result<BatchSystem, String> {
        // The CLI's `--batch` path calls `execute_batch_traced` with a
        // disabled recorder unless telemetry was asked for; so does this.
        let recorder = if traced {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let mut sys = BatchSystem { recorder, calls: 0 };
        self.call(&mut sys, checker);
        Ok(sys)
    }

    fn pass(
        &self,
        sys: &mut BatchSystem,
        budget: &Budget,
        checker: &mut Checker,
    ) -> Result<Samples, String> {
        let mut samples = Samples::new(budget);
        let mut calls = 0u64;
        let mut returned = std::time::Instant::now();
        while budget.admits(calls) {
            samples.late(returned.elapsed());
            let latency = self.call(sys, checker);
            returned = std::time::Instant::now();
            samples.answered(BATCH_WIDTH as u64, latency);
            calls += 1;
        }
        Ok(samples)
    }

    fn teardown(&self, _sys: BatchSystem, _timings: &mut Timings) -> Result<(), String> {
        Ok(())
    }

    fn oracle(&self, _sys: &BatchSystem, spec: usize, seed: u64) -> Result<Answer, String> {
        self.federation
            .execute(&self.mix[spec], seed)
            .map(answer)
            .map_err(|e| e.to_string())
    }

    fn system_layers(&self, sys: &BatchSystem, _traced: &Samples, m: &mut Metrics) {
        m.set(
            "trace.step_ns_mean",
            phase_mean_ns(&sys.recorder, Phase::Step),
        );
    }

    fn probe_inputs(&self) -> Result<ProbeInputs, String> {
        Ok(ProbeInputs {
            members: members(self.rows, self.seed)?,
            specs: self.mix.clone(),
            seed: self.seed,
            service_depth: Some(BATCH_WIDTH),
            store_probe: true,
        })
    }
}
