//! The federation itself: schema validation and query execution.

use privtopk_core::distributed::{
    run_distributed, run_distributed_batch, run_distributed_batch_traced, run_distributed_traced,
    NetworkKind,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use privtopk_core::service::{QueryTicket, ServiceRuntime, ServiceStats, ServiceStatsHandle};
use privtopk_core::{
    derive_batch_seed, run_simulated_batch, run_simulated_batch_traced, BatchJob, ChaosPlan,
    ChaosState, ProtocolConfig, RoundPolicy, SimulationEngine, Transcript,
};
use privtopk_datagen::PrivateDatabase;
use privtopk_domain::{DomainError, TopKVector, Value, ValueDomain};
use privtopk_observe::{
    render_summary, write_build_info, write_counter, write_gauge, write_gauge_f64,
    write_gauge_f64_series, write_histogram, MetricsServer, Recorder, SloConfig, SloEngine,
    SloReport,
};
use privtopk_privacy::{AccountantSnapshot, LopAccountant};
use privtopk_ring::TransportMetrics;

use crate::{FederationError, QuerySpec};

/// A group of private databases that jointly answer statistics queries.
///
/// Construction validates the paper's standing assumptions once — at
/// least three members, a shared public value domain — so queries fail
/// only for query-specific reasons (unknown attribute, out-of-domain
/// data).
#[derive(Debug, Clone)]
pub struct Federation {
    members: Vec<PrivateDatabase>,
    domain: ValueDomain,
}

impl Federation {
    /// Assembles a federation.
    ///
    /// # Errors
    ///
    /// - [`FederationError::TooFewMembers`] for fewer than 3 members.
    /// - [`FederationError::DomainMismatch`] if members disagree on the
    ///   public value domain.
    pub fn new(members: Vec<PrivateDatabase>) -> Result<Self, FederationError> {
        if members.len() < 3 {
            return Err(FederationError::TooFewMembers { got: members.len() });
        }
        let domain = members[0].domain();
        if members.iter().any(|m| m.domain() != domain) {
            return Err(FederationError::DomainMismatch);
        }
        Ok(Federation { members, domain })
    }

    /// Number of participating databases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the federation has no members (never true once built).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The shared public value domain.
    #[must_use]
    pub fn domain(&self) -> ValueDomain {
        self.domain
    }

    /// Checks the paper's schema-matching assumption for one attribute.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::SchemaMismatch`] naming the first member
    /// that lacks the attribute.
    pub fn validate_attribute(&self, attribute: &str) -> Result<(), FederationError> {
        for (i, m) in self.members.iter().enumerate() {
            if m.table().column_by_name(attribute).is_err() {
                return Err(FederationError::SchemaMismatch {
                    attribute: attribute.to_string(),
                    member: i,
                });
            }
        }
        Ok(())
    }

    /// Executes a query over a real transport (one thread per member,
    /// in-memory channels or TCP loopback), producing the same result and
    /// transcript as [`Federation::execute`] with the same seed.
    ///
    /// # Errors
    ///
    /// As [`Federation::execute`], plus transport failures.
    pub fn execute_distributed(
        &self,
        spec: &QuerySpec,
        network: NetworkKind,
        seed: u64,
    ) -> Result<QueryOutcome, FederationError> {
        let (config, locals, mirrored) = self.compile(spec)?;
        let outcome = run_distributed(&config, &locals, network, seed)?;
        Ok(self.finish(spec, outcome.transcript, mirrored))
    }

    /// [`Federation::execute_distributed`] with telemetry published into
    /// `recorder`: per-hop phase spans tagged with node, round and hop,
    /// plus wire counters. The outcome is bit-identical to the untraced
    /// call — telemetry carries protocol coordinates and timings only,
    /// never data values.
    ///
    /// # Errors
    ///
    /// As [`Federation::execute_distributed`].
    pub fn execute_distributed_traced(
        &self,
        spec: &QuerySpec,
        network: NetworkKind,
        seed: u64,
        recorder: &Recorder,
    ) -> Result<QueryOutcome, FederationError> {
        let (config, locals, mirrored) = self.compile(spec)?;
        let outcome = run_distributed_traced(&config, &locals, network, seed, recorder)?;
        Ok(self.finish(spec, outcome.transcript, mirrored))
    }

    /// Stands up a persistent service for one query spec: every member
    /// spawns a long-lived worker owning its compiled database snapshot,
    /// its ring endpoint and its established successor connection, all
    /// reused for every subsequent query — no per-query setup cost.
    ///
    /// `depth` is the pipeline depth: the service keeps up to that many
    /// independent queries (distinct seeds) in flight on the ring at
    /// once. Each query's outcome is bit-identical to
    /// [`Federation::execute_distributed`] with the same spec and seed,
    /// at any depth — pipelining changes only scheduling, never
    /// per-query randomness.
    ///
    /// # Errors
    ///
    /// As [`Federation::execute`] for spec compilation, plus
    /// [`privtopk_core::ProtocolError::InvalidService`] for a zero
    /// `depth`.
    pub fn serve(
        &self,
        spec: &QuerySpec,
        network: NetworkKind,
        depth: usize,
    ) -> Result<FederationService, FederationError> {
        self.serve_traced(spec, network, depth, Recorder::disabled())
    }

    /// [`Federation::serve`] with telemetry: every worker publishes
    /// per-hop phase spans and the scheduler publishes pipeline-depth
    /// and queue-wait figures into `recorder`. Outcomes stay
    /// bit-identical to the untraced service.
    ///
    /// # Errors
    ///
    /// As [`Federation::serve`].
    pub fn serve_traced(
        &self,
        spec: &QuerySpec,
        network: NetworkKind,
        depth: usize,
        recorder: Recorder,
    ) -> Result<FederationService, FederationError> {
        let (config, locals, mirrored) = self.compile(spec)?;
        let runtime = ServiceRuntime::start_traced(&locals, network, depth, recorder)?;
        Ok(self.finish_serve(spec, config, mirrored, runtime))
    }

    /// [`Federation::serve_traced`] over an in-memory network with the
    /// plan's chaos incidents — node outages, ring partitions, loss
    /// windows — injected under the reliability layer on a seeded
    /// schedule. Returns the shared [`ChaosState`] so the caller can
    /// arm the chaos clock and read drop counts.
    ///
    /// Chaos only delays delivery, so every outcome stays bit-identical
    /// to the same seeds on a fault-free service; the healing cost
    /// shows up in the recorder's retry/re-ACK spans instead.
    ///
    /// # Errors
    ///
    /// As [`Federation::serve`], plus
    /// [`privtopk_core::ProtocolError::Ring`] for a plan the
    /// reliability layer could not heal.
    pub fn serve_chaos_traced(
        &self,
        spec: &QuerySpec,
        depth: usize,
        recorder: Recorder,
        plan: &ChaosPlan,
    ) -> Result<(FederationService, Arc<ChaosState>), FederationError> {
        let (config, locals, mirrored) = self.compile(spec)?;
        let (runtime, state) = ServiceRuntime::start_chaos_traced(&locals, depth, recorder, plan)
            .map_err(FederationError::from)?;
        Ok((self.finish_serve(spec, config, mirrored, runtime), state))
    }

    fn finish_serve(
        &self,
        spec: &QuerySpec,
        config: ProtocolConfig,
        mirrored: bool,
        mut runtime: ServiceRuntime,
    ) -> FederationService {
        // Privacy accounting is always on: the accountant consumes only
        // data-independent protocol coordinates (n, k, schedule, rounds),
        // so it costs a few counter bumps per query and can never leak.
        let accountant = Arc::new(LopAccountant::new());
        runtime.set_observer(Arc::clone(&accountant) as _);
        FederationService {
            federation: self.clone(),
            runtime,
            spec: spec.clone(),
            config,
            mirrored,
            metrics_server: None,
            accountant,
            slo: Arc::new(SloEngine::new(SloConfig::default())),
            started: HashMap::new(),
        }
    }

    /// Executes a batch of independent queries in one protocol execution,
    /// sharing ring traversals between queries wherever possible.
    ///
    /// Query `i` runs under seed [`QueryBatch::query_seed`]`(i)` — an
    /// independent stream derived from the batch's base seed — and its
    /// [`QueryOutcome`] is byte-identical to
    /// [`Federation::execute`]`(spec_i, batch.query_seed(i))`. Batching
    /// changes only transport cost, never results, transcripts, or the
    /// level of privacy of any individual query.
    ///
    /// Compilation makes one pass over each member column per
    /// `(attribute, direction)` pair in the batch — max/top-k/kth-largest
    /// read a column descending, min/bottom-k read it mirrored — at the
    /// widest `k` any query asks of that pair; each query takes the top-`k`
    /// prefix of those local vectors, which is exactly its own local
    /// top-`k`. Queries are checked in batch order, so the first failing
    /// query decides the error.
    ///
    /// # Errors
    ///
    /// As [`Federation::execute`] for each member query, plus
    /// [`FederationError::Protocol`] with
    /// [`privtopk_core::ProtocolError::InvalidBatch`] for an empty batch.
    pub fn execute_batch(&self, batch: &QueryBatch) -> Result<Vec<QueryOutcome>, FederationError> {
        let (jobs, mirrors) = self.compile_batch(batch)?;
        let transcripts = run_simulated_batch(&jobs)?;
        Ok(self.finish_batch(batch, transcripts, &mirrors))
    }

    /// [`Federation::execute_batch`] with telemetry: hop spans are
    /// tagged with each query's batch index. Outcomes are unchanged.
    ///
    /// # Errors
    ///
    /// As [`Federation::execute_batch`].
    pub fn execute_batch_traced(
        &self,
        batch: &QueryBatch,
        recorder: &Recorder,
    ) -> Result<Vec<QueryOutcome>, FederationError> {
        let (jobs, mirrors) = self.compile_batch(batch)?;
        let transcripts = run_simulated_batch_traced(&jobs, recorder)?;
        Ok(self.finish_batch(batch, transcripts, &mirrors))
    }

    /// Executes a query batch on one ring over a real transport, each
    /// lock-step group's payloads piggybacked in one wire frame per hop.
    ///
    /// Produces the same outcomes as [`Federation::execute_batch`] with
    /// the same batch.
    ///
    /// # Errors
    ///
    /// As [`Federation::execute_batch`], plus transport failures.
    pub fn execute_batch_distributed(
        &self,
        batch: &QueryBatch,
        network: NetworkKind,
    ) -> Result<Vec<QueryOutcome>, FederationError> {
        let (jobs, mirrors) = self.compile_batch(batch)?;
        let outcome = run_distributed_batch(&jobs, network)?;
        Ok(self.finish_batch(batch, outcome.transcripts, &mirrors))
    }

    /// [`Federation::execute_batch_distributed`] with telemetry, as for
    /// [`Federation::execute_distributed_traced`].
    ///
    /// # Errors
    ///
    /// As [`Federation::execute_batch_distributed`].
    pub fn execute_batch_distributed_traced(
        &self,
        batch: &QueryBatch,
        network: NetworkKind,
        recorder: &Recorder,
    ) -> Result<Vec<QueryOutcome>, FederationError> {
        let (jobs, mirrors) = self.compile_batch(batch)?;
        let outcome = run_distributed_batch_traced(&jobs, network, recorder)?;
        Ok(self.finish_batch(batch, outcome.transcripts, &mirrors))
    }

    /// Compiles every query of a batch into a protocol job plus its
    /// mirroring flag, scanning each column once (see
    /// [`Federation::execute_batch`]). A pair is compiled when its first
    /// spec is reached, so a domain error surfaces at the same spec as in
    /// a spec-by-spec compile.
    fn compile_batch(
        &self,
        batch: &QueryBatch,
    ) -> Result<(Vec<BatchJob>, Vec<bool>), FederationError> {
        let mut widest: HashMap<(&str, bool), usize> = HashMap::new();
        for spec in batch.specs() {
            let k = widest.entry(column_key(spec)).or_default();
            *k = (*k).max(spec.kind().k());
        }
        let mut columns: HashMap<(&str, bool), Vec<TopKVector>> = HashMap::new();
        let mut jobs = Vec::with_capacity(batch.len());
        let mut mirrors = Vec::with_capacity(batch.len());
        for (i, spec) in batch.specs().iter().enumerate() {
            self.check_spec(spec)?;
            let wide = match columns.entry(column_key(spec)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let (attribute, mirrored) = *e.key();
                    let k = widest[e.key()];
                    e.insert(self.local_vectors(attribute, k, mirrored)?)
                }
            };
            let locals = wide
                .iter()
                .map(|v| v.top(spec.kind().k()))
                .collect::<Result<_, _>>()?;
            jobs.push(BatchJob::new(
                self.config(spec),
                locals,
                batch.query_seed(i),
            ));
            mirrors.push(spec.kind().is_mirrored());
        }
        Ok((jobs, mirrors))
    }

    fn finish_batch(
        &self,
        batch: &QueryBatch,
        transcripts: Vec<Transcript>,
        mirrors: &[bool],
    ) -> Vec<QueryOutcome> {
        transcripts
            .into_iter()
            .zip(batch.specs())
            .zip(mirrors)
            .map(|((transcript, spec), &mirrored)| self.finish(spec, transcript, mirrored))
            .collect()
    }

    /// Executes a query, deterministic under `seed`.
    ///
    /// Min/bottom-k queries are compiled to max/top-k over *mirrored*
    /// values (`v ↦ domain.min + domain.max − v`), which stays inside the
    /// same public domain; results are mirrored back.
    ///
    /// # Errors
    ///
    /// - [`FederationError::ZeroK`] for `k = 0`.
    /// - [`FederationError::SchemaMismatch`] if a member lacks the
    ///   attribute.
    /// - [`FederationError::Domain`] if a member's attribute values fall
    ///   outside the public domain.
    /// - [`FederationError::Protocol`] for protocol-level failures.
    pub fn execute(&self, spec: &QuerySpec, seed: u64) -> Result<QueryOutcome, FederationError> {
        let (config, locals, mirrored) = self.compile(spec)?;
        let transcript = SimulationEngine::new(config).run(&locals, seed)?;
        Ok(self.finish(spec, transcript, mirrored))
    }

    /// [`Federation::execute`] with telemetry: the simulated engine
    /// spans every hop computation. The outcome is bit-identical to the
    /// untraced call.
    ///
    /// # Errors
    ///
    /// As [`Federation::execute`].
    pub fn execute_traced(
        &self,
        spec: &QuerySpec,
        seed: u64,
        recorder: &Recorder,
    ) -> Result<QueryOutcome, FederationError> {
        let (config, locals, mirrored) = self.compile(spec)?;
        let transcript = SimulationEngine::new(config)
            .with_recorder(recorder.clone())
            .run(&locals, seed)?;
        Ok(self.finish(spec, transcript, mirrored))
    }

    /// Compiles a query into protocol inputs.
    fn compile(
        &self,
        spec: &QuerySpec,
    ) -> Result<(ProtocolConfig, Vec<TopKVector>, bool), FederationError> {
        self.check_spec(spec)?;
        let mirrored = spec.kind().is_mirrored();
        let locals = self.local_vectors(spec.attribute(), spec.kind().k(), mirrored)?;
        Ok((self.config(spec), locals, mirrored))
    }

    /// The query-specific checks that precede any column scan: a nonzero
    /// `k`, then an attribute every member holds.
    fn check_spec(&self, spec: &QuerySpec) -> Result<(), FederationError> {
        if spec.kind().k() == 0 {
            return Err(FederationError::ZeroK);
        }
        self.validate_attribute(spec.attribute())
    }

    fn config(&self, spec: &QuerySpec) -> ProtocolConfig {
        ProtocolConfig::topk(spec.kind().k())
            .with_domain(self.domain)
            .with_schedule(spec.schedule())
            .with_rounds(RoundPolicy::Precision {
                epsilon: spec.epsilon(),
            })
    }

    /// Every member's local top-`k` vector of `attribute`.
    fn local_vectors(
        &self,
        attribute: &str,
        k: usize,
        mirrored: bool,
    ) -> Result<Vec<TopKVector>, FederationError> {
        self.members
            .iter()
            .map(|m| self.local_vector(m, attribute, k, mirrored))
            .collect()
    }

    /// Converts a protocol transcript into a query outcome.
    fn finish(&self, spec: &QuerySpec, transcript: Transcript, mirrored: bool) -> QueryOutcome {
        let mut values: Vec<Value> = transcript.result().iter().collect();
        if mirrored {
            // Mirroring a descending vector back yields ascending order —
            // smallest first, which is the natural order for min queries.
            values = values.into_iter().map(|v| self.mirror(v)).collect();
        }
        if matches!(spec.kind(), crate::QueryKind::KthLargest(_)) {
            // Only the rank-th value is the answer; the rest of the vector
            // was scaffolding.
            values = vec![*values.last().expect("k >= 1")];
        }
        QueryOutcome {
            spec: spec.clone(),
            values,
            transcript,
        }
    }

    /// Privately sums `attribute` across all members (masked ring sum).
    ///
    /// Unlike the top-k protocol this reveals exactly one number — the
    /// total — and nothing about any member's contribution; the ring
    /// tokens are one-time-pad masked.
    ///
    /// # Errors
    ///
    /// - [`FederationError::SchemaMismatch`] if a member lacks the
    ///   attribute.
    /// - [`FederationError::NegativeAggregate`] if a value is negative
    ///   (sums are defined over non-negative attributes).
    /// - [`FederationError::AggregateOverflow`] if a member's total or the
    ///   federation's total exceeds `u64::MAX`.
    pub fn sum(&self, attribute: &str, seed: u64) -> Result<u64, FederationError> {
        self.validate_attribute(attribute)?;
        let per_member: Vec<u64> = self
            .members
            .iter()
            .map(|m| {
                let col = m.table().column_by_name(attribute)?;
                let mut total = 0u64;
                for v in m.table().column_iter(col) {
                    let raw = v.get();
                    if raw < 0 {
                        return Err(FederationError::NegativeAggregate { value: v });
                    }
                    total = total
                        .checked_add(raw as u64)
                        .ok_or(FederationError::AggregateOverflow)?;
                }
                Ok(total)
            })
            .collect::<Result<_, FederationError>>()?;
        // The masked ring sum wraps by design, so it cannot tell a total
        // past u64::MAX from a small one; the in-process totals can.
        per_member
            .iter()
            .try_fold(0u64, |acc, &total| acc.checked_add(total))
            .ok_or(FederationError::AggregateOverflow)?;
        Ok(privtopk_knn::secure_sum::secure_sum(&per_member, seed)
            .map_err(|_| FederationError::TooFewMembers {
                got: self.members.len(),
            })?
            .sum)
    }

    /// Privately counts the rows holding `attribute` across all members.
    ///
    /// # Errors
    ///
    /// As [`Federation::sum`].
    pub fn count(&self, attribute: &str, seed: u64) -> Result<u64, FederationError> {
        self.validate_attribute(attribute)?;
        let per_member: Vec<u64> = self
            .members
            .iter()
            .map(|m| m.table().len() as u64)
            .collect();
        Ok(privtopk_knn::secure_sum::secure_sum(&per_member, seed)
            .map_err(|_| FederationError::TooFewMembers {
                got: self.members.len(),
            })?
            .sum)
    }

    /// The mean of `attribute` across the federation: two masked ring
    /// sums (total and count), one division.
    ///
    /// # Errors
    ///
    /// As [`Federation::sum`]; additionally errors if the federation
    /// holds no rows.
    pub fn mean(&self, attribute: &str, seed: u64) -> Result<f64, FederationError> {
        let total = self.sum(attribute, seed)?;
        let count = self.count(attribute, seed.wrapping_add(1))?;
        if count == 0 {
            return Err(FederationError::ZeroK);
        }
        Ok(total as f64 / count as f64)
    }

    fn local_vector(
        &self,
        member: &PrivateDatabase,
        attribute: &str,
        k: usize,
        mirrored: bool,
    ) -> Result<TopKVector, FederationError> {
        let col = member.table().column_by_name(attribute)?;
        let values = member.table().column_iter(col);
        if !mirrored {
            return Ok(TopKVector::from_values(k, values, &self.domain)?);
        }
        // Min / bottom-k: mirror on the fly, no column clone. A value lies
        // in the domain exactly when its mirror does, so the one domain
        // check in `from_values` stops at the same row, and mirroring its
        // report back names the raw value.
        TopKVector::from_values(k, values.map(|v| self.mirror(v)), &self.domain).map_err(|e| {
            match e {
                DomainError::OutOfDomain { value } => DomainError::OutOfDomain {
                    value: self.mirror(value),
                },
                other => other,
            }
            .into()
        })
    }

    /// Mirrors a value inside the domain: `lo + hi − v`.
    fn mirror(&self, v: Value) -> Value {
        // lo + hi - v stays inside [lo, hi] for v inside [lo, hi]; the
        // arithmetic is exact in i128 then narrowed.
        let wide =
            self.domain.min().get() as i128 + self.domain.max().get() as i128 - v.get() as i128;
        Value::new(wide as i64)
    }
}

/// The column a spec's local vectors come from: its attribute, and
/// whether min / bottom-k mirroring reverses the direction.
fn column_key(spec: &QuerySpec) -> (&str, bool) {
    (spec.attribute(), spec.kind().is_mirrored())
}

/// A standing federated query service, created by [`Federation::serve`].
///
/// Holds one long-lived worker per member, all wired onto a persistent
/// ring; [`query`](Self::query) answers the served spec under a fresh
/// seed with no per-query setup, and [`query_many`](Self::query_many)
/// streams a whole seed workload through the pipeline. Tear it down with
/// [`shutdown`](Self::shutdown), which drains in-flight queries and
/// joins every worker.
pub struct FederationService {
    federation: Federation,
    runtime: ServiceRuntime,
    spec: QuerySpec,
    config: ProtocolConfig,
    mirrored: bool,
    metrics_server: Option<MetricsServer>,
    accountant: Arc<LopAccountant>,
    /// Rolling latency/availability objectives, fed by every collected
    /// query and rendered as burn-rate gauges on the exposition.
    slo: Arc<SloEngine>,
    /// Submission instants of in-flight tickets, consumed at collect
    /// time to feed the SLO engine.
    started: HashMap<u64, Instant>,
}

/// Renders the live exposition body a [`FederationService`] metrics
/// endpoint serves: the recorder's whole registry, the service
/// scheduler's own figures, and the privacy accountant's live LoP
/// estimates, all under the `privtopk_` prefix. Aggregate coordinates
/// and timings only — never data values.
fn render_service_metrics(
    recorder: &Recorder,
    handle: &ServiceStatsHandle,
    accountant: &LopAccountant,
    slo: &SloEngine,
) -> String {
    let mut body = render_summary(&recorder.summary());
    write_build_info(&mut body);
    if let Some(uptime) = recorder.uptime() {
        write_gauge_f64(
            &mut body,
            "privtopk_service_uptime_seconds",
            "Seconds since this service's recorder started observing.",
            uptime.as_secs_f64(),
        );
    }
    let stats = handle.stats();
    write_gauge(
        &mut body,
        "privtopk_service_pipeline_depth",
        "Configured maximum queries in flight.",
        stats.depth as u64,
    );
    write_gauge(
        &mut body,
        "privtopk_service_in_flight",
        "Queries currently occupying a pipeline slot.",
        stats.in_flight as u64,
    );
    write_gauge(
        &mut body,
        "privtopk_service_pipeline_high_water",
        "Highest simultaneous pipeline occupancy observed.",
        stats.pipeline_high_water as u64,
    );
    write_counter(
        &mut body,
        "privtopk_service_queries_submitted_total",
        "Queries admitted into the pipeline.",
        stats.queries_submitted,
    );
    write_counter(
        &mut body,
        "privtopk_service_queries_completed_total",
        "Queries completed (successfully or not).",
        stats.queries_completed,
    );
    write_histogram(
        &mut body,
        "privtopk_service_queue_wait_ns",
        "How long submissions waited for a free pipeline slot.",
        &stats.queue_wait,
    );
    write_counter(
        &mut body,
        "privtopk_service_frames_sent_total",
        "Physical frames sent by the service transport.",
        stats.frames_sent,
    );
    write_counter(
        &mut body,
        "privtopk_service_logical_messages_total",
        "Logical messages carried by those frames.",
        stats.logical_messages,
    );
    write_counter(
        &mut body,
        "privtopk_service_bytes_sent_total",
        "Payload bytes sent (wire size).",
        stats.bytes_sent,
    );
    write_gauge(
        &mut body,
        "privtopk_service_pooled_buffers_high_water",
        "Lifetime frame-pool high-water mark.",
        stats.pooled_buffers_high_water,
    );
    write_counter(
        &mut body,
        "privtopk_service_retransmissions_total",
        "Frames retransmitted by the reliability layer.",
        stats.retransmissions,
    );
    write_counter(
        &mut body,
        "privtopk_service_re_acks_total",
        "Duplicate frames re-acknowledged.",
        stats.re_acks,
    );
    slo.evaluate().write_prometheus(&mut body);
    write_privacy_metrics(&mut body, &accountant.snapshot());
    body
}

/// Appends the privacy accountant's series to an exposition body:
/// per-node live LoP estimates, the spectrum classification counts, and
/// the cumulative accounted-query counter.
pub fn write_privacy_metrics(body: &mut String, privacy: &AccountantSnapshot) {
    let per_node: Vec<(String, f64)> = privacy
        .per_node
        .iter()
        .map(|e| (format!("node=\"{}\"", e.node), e.lop))
        .collect();
    write_gauge_f64_series(
        body,
        "privtopk_privacy_lop_node",
        "Live empirical peak loss of privacy per node (Eq. 2 estimate).",
        &per_node,
    );
    let ci: Vec<(String, f64)> = privacy
        .per_node
        .iter()
        .map(|e| (format!("node=\"{}\"", e.node), e.ci95))
        .collect();
    write_gauge_f64_series(
        body,
        "privtopk_privacy_lop_node_ci95",
        "95% confidence half-width of each node's live LoP estimate.",
        &ci,
    );
    write_gauge_f64(
        body,
        "privtopk_privacy_lop_average",
        "Average of the per-node live LoP estimates.",
        privacy.average_lop,
    );
    write_gauge_f64(
        body,
        "privtopk_privacy_lop_worst",
        "Worst per-node live LoP estimate.",
        privacy.worst_lop,
    );
    let classes: Vec<(String, f64)> = privacy
        .spectrum
        .as_labeled()
        .iter()
        .map(|(label, count)| (format!("class=\"{label}\""), *count as f64))
        .collect();
    write_gauge_f64_series(
        body,
        "privtopk_privacy_spectrum_class",
        "Node counts per privacy-spectrum class.",
        &classes,
    );
    write_counter(
        body,
        "privtopk_privacy_queries_accounted_total",
        "Queries folded into the privacy accountant.",
        privacy.queries_accounted,
    );
}

impl FederationService {
    /// The query spec this service answers.
    #[must_use]
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Maximum number of queries kept in flight at once.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.runtime.depth()
    }

    /// Cumulative wire counters for the service's lifetime, including
    /// the frame pool's high-water mark under pipelining.
    #[must_use]
    pub fn metrics(&self) -> TransportMetrics {
        self.runtime.metrics()
    }

    /// A live snapshot of the running service — pipeline occupancy,
    /// queue waits and wire counters — readable at any time, including
    /// while queries are in flight. Nothing is drained by reading it.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        self.runtime.stats()
    }

    /// A live read of the service's privacy accountant: per-node
    /// empirical LoP estimates with confidence intervals, spectrum
    /// classification and the cumulative per-query ledger. Computed
    /// from data-independent protocol coordinates only; the first read
    /// after new coordinates appear pays the shadow Monte-Carlo cost,
    /// subsequent reads are memoized.
    #[must_use]
    pub fn privacy(&self) -> AccountantSnapshot {
        self.accountant.snapshot()
    }

    /// The recorder this service publishes telemetry into (disabled
    /// unless created via [`Federation::serve_traced`]).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        self.runtime.recorder()
    }

    /// Evaluates the service's SLOs right now: burn rates for the
    /// latency and availability objectives over both rolling windows,
    /// plus the overall health verdict.
    #[must_use]
    pub fn slo(&self) -> SloReport {
        self.slo.evaluate()
    }

    /// Dumps the recorder's event ring — the most recent span events,
    /// ordered by timestamp — as JSONL suitable for
    /// `privtopk trace analyze` or the [`privtopk_observe::analyze`]
    /// healing-cost analyzer. Available in every enabled recorder mode:
    /// `stats_only` and sampled recorders keep their newest 4,096
    /// events.
    #[must_use]
    pub fn dump_flight_recorder(&self) -> String {
        self.runtime.recorder().trace_jsonl()
    }

    /// Starts a live metrics endpoint on `addr` (Prometheus text
    /// exposition v0.0.4 over plain TCP; bind `127.0.0.1:0` for an
    /// ephemeral port) and returns the bound address.
    ///
    /// The endpoint serves the recorder's full registry plus the
    /// scheduler's own pipeline figures, readable mid-stream while
    /// queries are in flight; a scrape's counters always agree with
    /// [`stats`](Self::stats) at the same instant. Rebinding replaces
    /// the previous endpoint. Serving metrics never touches the query
    /// path: the exposition carries aggregates over protocol
    /// coordinates and timings only.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding the listener.
    pub fn metrics_endpoint(&mut self, addr: &str) -> std::io::Result<std::net::SocketAddr> {
        let recorder = self.runtime.recorder().clone();
        let handle = self.runtime.stats_handle();
        let accountant = Arc::clone(&self.accountant);
        let slo = Arc::clone(&self.slo);
        let health_slo = Arc::clone(&self.slo);
        let server = MetricsServer::bind_with_health(
            addr,
            move || render_service_metrics(&recorder, &handle, &accountant, &slo),
            move || health_slo.evaluate().health_body(),
        )?;
        let bound = server.addr();
        self.metrics_server = Some(server);
        Ok(bound)
    }

    /// The metrics endpoint's bound address, if one is running.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_server.as_ref().map(MetricsServer::addr)
    }

    /// Answers the served spec under `seed` — the warm-path equivalent
    /// of [`Federation::execute_distributed`], with a bit-identical
    /// outcome.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures, as [`Federation::execute_distributed`].
    pub fn query(&mut self, seed: u64) -> Result<QueryOutcome, FederationError> {
        let ticket = self.submit(seed)?;
        self.collect(ticket)
    }

    /// Submits one query without waiting for it, blocking only while
    /// the pipeline is full.
    ///
    /// # Errors
    ///
    /// As [`query`](Self::query).
    pub fn submit(&mut self, seed: u64) -> Result<QueryTicket, FederationError> {
        let ticket = self.runtime.submit(&self.config, seed)?;
        self.started.insert(ticket.id(), Instant::now());
        Ok(ticket)
    }

    /// Redeems a ticket from [`submit`](Self::submit).
    ///
    /// # Errors
    ///
    /// The query's own failure, or
    /// [`privtopk_core::ProtocolError::InvalidService`] for a ticket
    /// already collected.
    pub fn collect(&mut self, ticket: QueryTicket) -> Result<QueryOutcome, FederationError> {
        let began = self.started.remove(&ticket.id());
        let collected = self.runtime.collect(ticket);
        if let Some(t0) = began {
            let latency = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.slo.record(latency, collected.is_ok());
        }
        let outcome = collected?;
        Ok(self
            .federation
            .finish(&self.spec, outcome.transcript, self.mirrored))
    }

    /// Streams a whole seed workload through the pipeline, returning
    /// outcomes in workload order.
    ///
    /// # Errors
    ///
    /// The first submission or per-query failure encountered.
    pub fn query_many(&mut self, seeds: &[u64]) -> Result<Vec<QueryOutcome>, FederationError> {
        let mut tickets = Vec::with_capacity(seeds.len());
        for seed in seeds {
            tickets.push(self.submit(*seed)?);
        }
        tickets
            .into_iter()
            .map(|ticket| self.collect(ticket))
            .collect()
    }

    /// Shuts the service down: drains in-flight queries (discarding
    /// their uncollected results) and joins every worker thread.
    ///
    /// # Errors
    ///
    /// [`privtopk_core::ProtocolError::WorkerFailed`] if a worker
    /// thread panicked.
    pub fn shutdown(mut self) -> Result<(), FederationError> {
        // Stop serving scrapes before the stats they render freeze.
        self.metrics_server.take();
        Ok(self.runtime.shutdown()?)
    }
}

/// A set of independent queries answered in one batched execution.
///
/// Each query gets its own seed stream derived from the batch's base seed
/// via [`derive_batch_seed`], so adding or removing other queries never
/// changes what any one query computes.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBatch {
    specs: Vec<QuerySpec>,
    base_seed: u64,
}

impl QueryBatch {
    /// An empty batch rooted at `base_seed` (executing it is an error —
    /// push at least one query).
    #[must_use]
    pub fn new(base_seed: u64) -> Self {
        QueryBatch {
            specs: Vec::new(),
            base_seed,
        }
    }

    /// Builds a batch from a list of query specs.
    #[must_use]
    pub fn from_specs(specs: Vec<QuerySpec>, base_seed: u64) -> Self {
        QueryBatch { specs, base_seed }
    }

    /// Appends a query (builder style).
    #[must_use]
    pub fn with(mut self, spec: QuerySpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The member queries, in execution order.
    #[must_use]
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the batch holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The batch's base seed.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The seed query `i` runs under: solo-executing its spec with this
    /// seed reproduces the batched outcome exactly.
    #[must_use]
    pub fn query_seed(&self, i: usize) -> u64 {
        derive_batch_seed(self.base_seed, i as u64)
    }
}

/// The result of a federated query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    spec: QuerySpec,
    values: Vec<Value>,
    transcript: Transcript,
}

impl QueryOutcome {
    /// The query this outcome answers.
    #[must_use]
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// The answer values: descending for max/top-k, ascending for
    /// min/bottom-k.
    #[must_use]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The scalar answer for max/min queries.
    #[must_use]
    pub fn value(&self) -> Value {
        self.values[0]
    }

    /// The protocol transcript, for privacy audits (feed it to
    /// `privtopk-privacy`).
    #[must_use]
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// Rounds the protocol ran.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.transcript.rounds()
    }

    /// Messages exchanged during computation.
    #[must_use]
    pub fn messages(&self) -> usize {
        self.transcript.message_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privtopk_datagen::{DatasetBuilder, Table};
    use privtopk_domain::NodeId;

    fn federation(n: usize, rows: usize, seed: u64) -> Federation {
        Federation::new(
            DatasetBuilder::new(n)
                .rows_per_node(rows)
                .seed(seed)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn all_values(f: &Federation, attr: &str) -> Vec<i64> {
        let mut out = Vec::new();
        for m in &f.members {
            let col = m.table().column_by_name(attr).unwrap();
            out.extend(m.table().column_iter(col).map(|v| v.get()));
        }
        out
    }

    #[test]
    fn max_and_min_queries() {
        let f = federation(5, 12, 1);
        let all = all_values(&f, "value");
        let max = f.execute(&QuerySpec::max("value"), 9).unwrap();
        assert_eq!(max.value().get(), *all.iter().max().unwrap());
        let min = f.execute(&QuerySpec::min("value"), 9).unwrap();
        assert_eq!(min.value().get(), *all.iter().min().unwrap());
    }

    #[test]
    fn top_k_and_bottom_k_queries() {
        let f = federation(4, 10, 2);
        let mut all = all_values(&f, "value");
        all.sort_unstable();

        let bottom = f
            .execute(&QuerySpec::bottom_k("value", 3).with_epsilon(1e-9), 5)
            .unwrap();
        let expect_bottom: Vec<i64> = all[..3].to_vec();
        assert_eq!(
            bottom.values().iter().map(|v| v.get()).collect::<Vec<_>>(),
            expect_bottom
        );

        let top = f
            .execute(&QuerySpec::top_k("value", 3).with_epsilon(1e-9), 5)
            .unwrap();
        let mut expect_top: Vec<i64> = all[all.len() - 3..].to_vec();
        expect_top.reverse();
        assert_eq!(
            top.values().iter().map(|v| v.get()).collect::<Vec<_>>(),
            expect_top
        );
    }

    #[test]
    fn outcome_carries_transcript_and_costs() {
        let f = federation(4, 5, 3);
        let out = f.execute(&QuerySpec::max("value"), 1).unwrap();
        assert!(out.rounds() >= 4);
        assert_eq!(out.messages(), 4 * out.rounds() as usize);
        assert_eq!(out.spec().attribute(), "value");
        assert_eq!(out.transcript().n(), 4);
    }

    #[test]
    fn rejects_small_federations_and_mixed_domains() {
        let dbs = DatasetBuilder::new(2).seed(0).build().unwrap();
        assert!(matches!(
            Federation::new(dbs),
            Err(FederationError::TooFewMembers { got: 2 })
        ));

        let mut dbs = DatasetBuilder::new(3).seed(0).build().unwrap();
        let other = ValueDomain::new(Value::new(1), Value::new(50)).unwrap();
        let mut t = Table::new(["value"]).unwrap();
        t.push_row(vec![Value::new(10)]).unwrap();
        dbs[2] = PrivateDatabase::new(NodeId::new(2), other, t, "value").unwrap();
        assert!(matches!(
            Federation::new(dbs),
            Err(FederationError::DomainMismatch)
        ));
    }

    #[test]
    fn schema_mismatch_detected_with_member_index() {
        let f = federation(4, 5, 4);
        let err = f.execute(&QuerySpec::max("revenue"), 0).unwrap_err();
        assert!(matches!(
            err,
            FederationError::SchemaMismatch { member: 0, .. }
        ));
        assert!(f.validate_attribute("value").is_ok());
    }

    #[test]
    fn zero_k_rejected() {
        let f = federation(3, 4, 5);
        assert!(matches!(
            f.execute(&QuerySpec::top_k("value", 0), 0),
            Err(FederationError::ZeroK)
        ));
    }

    #[test]
    fn deterministic_under_seed() {
        let f = federation(5, 8, 6);
        let a = f.execute(&QuerySpec::top_k("value", 2), 11).unwrap();
        let b = f.execute(&QuerySpec::top_k("value", 2), 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn distributed_execution_matches_simulation() {
        let f = federation(4, 6, 8);
        let spec = QuerySpec::top_k("value", 2).with_epsilon(1e-9);
        let sim = f.execute(&spec, 33).unwrap();
        let dist = f
            .execute_distributed(&spec, NetworkKind::InMemory, 33)
            .unwrap();
        assert_eq!(sim.values(), dist.values());
        assert_eq!(sim.transcript().steps(), dist.transcript().steps());
    }

    #[test]
    fn distributed_min_query_over_threads() {
        let f = federation(4, 6, 9);
        let all = all_values(&f, "value");
        let out = f
            .execute_distributed(
                &QuerySpec::min("value").with_epsilon(1e-9),
                NetworkKind::InMemory,
                2,
            )
            .unwrap();
        assert_eq!(out.value().get(), *all.iter().min().unwrap());
    }

    #[test]
    fn kth_largest_returns_single_rank() {
        let f = federation(4, 6, 21);
        let mut all = all_values(&f, "value");
        all.sort_unstable_by(|a, b| b.cmp(a));
        for rank in [1usize, 3, 7] {
            let out = f
                .execute(
                    &QuerySpec::kth_largest("value", rank).with_epsilon(1e-9),
                    rank as u64,
                )
                .unwrap();
            assert_eq!(out.values().len(), 1, "rank {rank}");
            assert_eq!(out.value().get(), all[rank - 1], "rank {rank}");
        }
    }

    #[test]
    fn aggregate_sum_count_mean() {
        let f = federation(5, 7, 31);
        let all = all_values(&f, "value");
        let expected_sum: i64 = all.iter().sum();
        assert_eq!(f.sum("value", 1).unwrap(), expected_sum as u64);
        assert_eq!(f.count("value", 2).unwrap(), all.len() as u64);
        let mean = f.mean("value", 3).unwrap();
        assert!((mean - expected_sum as f64 / all.len() as f64).abs() < 1e-9);
        // Unknown attribute rejected up front.
        assert!(matches!(
            f.sum("profit", 0),
            Err(FederationError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn aggregate_sum_rejects_totals_past_u64() {
        // Only the sensitive column is domain-checked, so `extra` can hold
        // i64::MAX. Three rows overflow each member's own total; two rows
        // fit per member, but the three members' totals do not.
        let domain = ValueDomain::paper_default();
        let federation_of = |rows: usize| {
            let members = (0..3)
                .map(|i| {
                    let mut t = Table::new(["value", "extra"]).unwrap();
                    for _ in 0..rows {
                        t.push_row(vec![Value::new(7), Value::new(i64::MAX)])
                            .unwrap();
                    }
                    PrivateDatabase::new(NodeId::new(i), domain, t, "value").unwrap()
                })
                .collect();
            Federation::new(members).unwrap()
        };
        for rows in [3, 2] {
            let f = federation_of(rows);
            assert!(
                matches!(f.sum("extra", 1), Err(FederationError::AggregateOverflow)),
                "{rows} rows per member"
            );
            assert!(matches!(
                f.mean("extra", 3),
                Err(FederationError::AggregateOverflow)
            ));
        }
        assert_eq!(
            FederationError::AggregateOverflow.to_string(),
            "aggregate total exceeds u64::MAX"
        );
    }

    fn spec_for_case(case: u64) -> QuerySpec {
        match case % 5 {
            0 => QuerySpec::max("value"),
            1 => QuerySpec::min("value"),
            2 => QuerySpec::top_k("value", 2),
            3 => QuerySpec::bottom_k("value", 3),
            _ => QuerySpec::kth_largest("value", 2),
        }
    }

    #[test]
    fn batch_of_one_matches_single_query_path_200_cases() {
        // The satellite acceptance gate: across 200 seeded cases covering
        // every query kind, a batch of one produces a byte-identical
        // QueryOutcome (values, transcript, spec) to the solo path under
        // the batch-derived seed.
        let f = federation(4, 6, 14);
        for base in 0..200u64 {
            let spec = spec_for_case(base);
            let batch = QueryBatch::new(base).with(spec.clone());
            let batched = f.execute_batch(&batch).unwrap();
            assert_eq!(batched.len(), 1);
            let solo = f.execute(&spec, batch.query_seed(0)).unwrap();
            assert_eq!(batched[0], solo, "case {base}");
        }
    }

    #[test]
    fn batched_queries_match_their_solo_runs() {
        // Determinism across batch widths: each member query's outcome is
        // independent of its co-batched neighbours.
        let f = federation(5, 8, 15);
        for width in [1usize, 8, 64] {
            let batch = QueryBatch::from_specs((0..width as u64).map(spec_for_case).collect(), 99);
            let batched = f.execute_batch(&batch).unwrap();
            assert_eq!(batched.len(), width);
            for (i, out) in batched.iter().enumerate() {
                let solo = f.execute(&batch.specs()[i], batch.query_seed(i)).unwrap();
                assert_eq!(out, &solo, "width {width}, query {i}");
            }
        }
    }

    #[test]
    fn distributed_batch_matches_simulated_batch() {
        let f = federation(4, 6, 16);
        let batch = QueryBatch::new(7)
            .with(QuerySpec::max("value"))
            .with(QuerySpec::top_k("value", 3).with_epsilon(1e-9))
            .with(QuerySpec::min("value"));
        let sim = f.execute_batch(&batch).unwrap();
        let dist = f
            .execute_batch_distributed(&batch, NetworkKind::InMemory)
            .unwrap();
        assert_eq!(sim, dist);
    }

    /// A federation whose members hold two in-domain columns, `value` and
    /// `score`, each drawn like the single-column test data.
    fn two_column_federation(n: usize, rows: usize, seed: u64) -> Federation {
        let build = |seed| {
            DatasetBuilder::new(n)
                .rows_per_node(rows)
                .seed(seed)
                .build()
                .unwrap()
        };
        let members = build(seed)
            .into_iter()
            .zip(build(seed + 1))
            .map(|(a, b)| {
                let mut t = Table::new(["value", "score"]).unwrap();
                let col = |db: &PrivateDatabase| db.table().column_by_name("value").unwrap();
                let (ca, cb) = (col(&a), col(&b));
                for (x, y) in a.table().column_iter(ca).zip(b.table().column_iter(cb)) {
                    t.push_row(vec![x, y]).unwrap();
                }
                PrivateDatabase::new(a.owner(), a.domain(), t, "value").unwrap()
            })
            .collect();
        Federation::new(members).unwrap()
    }

    #[test]
    fn batch_compile_shares_columns_and_keeps_outcomes() {
        let f = two_column_federation(4, 6, 18);
        let spec = |i: u64| {
            let attribute = if i.is_multiple_of(3) {
                "score"
            } else {
                "value"
            };
            // k up to 7 over 6 rows per member also covers padding.
            let k = 1 + (i as usize * 5) % 7;
            match i % 5 {
                0 => QuerySpec::top_k(attribute, k),
                1 => QuerySpec::bottom_k(attribute, k),
                2 => QuerySpec::max(attribute),
                3 => QuerySpec::min(attribute),
                _ => QuerySpec::kth_largest(attribute, k),
            }
        };
        // Specs 20..32 repeat specs 0..12 under their own seeds.
        let batch = QueryBatch::from_specs((0..32).map(|i| spec(i % 20)).collect(), 61);
        let batched = f.execute_batch(&batch).unwrap();
        assert_eq!(batched.len(), 32);
        for (i, out) in batched.iter().enumerate() {
            let solo = f.execute(&batch.specs()[i], batch.query_seed(i)).unwrap();
            assert_eq!(out, &solo, "query {i}");
        }
        let distributed = f
            .execute_batch_distributed(&batch, NetworkKind::InMemory)
            .unwrap();
        assert_eq!(distributed, batched);

        // The first failing spec in batch order decides the error.
        let valid = QuerySpec::top_k("score", 2);
        let zero_k = QuerySpec::top_k("value", 0);
        let unknown = QuerySpec::max("revenue");
        let run = |specs: Vec<QuerySpec>| f.execute_batch(&QueryBatch::from_specs(specs, 0));
        assert!(matches!(
            run(vec![valid.clone(), zero_k.clone(), unknown.clone()]),
            Err(FederationError::ZeroK)
        ));
        assert!(matches!(
            run(vec![valid, unknown, zero_k]),
            Err(FederationError::SchemaMismatch { member: 0, .. })
        ));
    }

    #[test]
    fn out_of_domain_error_names_the_raw_value_for_mirrored_specs() {
        // Only the sensitive column is domain-checked on construction, so
        // another column can carry values outside the public domain.
        let domain = ValueDomain::paper_default();
        let members = (0..3)
            .map(|i| {
                let mut t = Table::new(["value", "extra"]).unwrap();
                let extra: [i64; 3] = if i == 1 { [3, 12_345, -9] } else { [4, 5, 6] };
                for x in extra {
                    t.push_row(vec![Value::new(7), Value::new(x)]).unwrap();
                }
                PrivateDatabase::new(NodeId::new(i), domain, t, "value").unwrap()
            })
            .collect();
        let f = Federation::new(members).unwrap();
        let raw = DomainError::OutOfDomain {
            value: Value::new(12_345),
        };
        for spec in [
            QuerySpec::bottom_k("extra", 2),
            QuerySpec::top_k("extra", 2),
        ] {
            assert!(
                matches!(f.execute(&spec, 0), Err(FederationError::Domain(e)) if e == raw),
                "{spec:?}"
            );
            let batch = QueryBatch::new(0).with(QuerySpec::max("value")).with(spec);
            assert!(matches!(
                f.execute_batch(&batch),
                Err(FederationError::Domain(e)) if e == raw
            ));
        }
    }

    #[test]
    fn empty_batch_rejected() {
        let f = federation(3, 4, 17);
        assert!(matches!(
            f.execute_batch(&QueryBatch::new(0)),
            Err(FederationError::Protocol(
                privtopk_core::ProtocolError::InvalidBatch { .. }
            ))
        ));
    }

    #[test]
    fn service_matches_cold_distributed_for_every_kind() {
        let f = federation(4, 6, 22);
        for case in 0..5u64 {
            let spec = spec_for_case(case).with_epsilon(1e-9);
            let mut service = f.serve(&spec, NetworkKind::InMemory, 1).unwrap();
            for seed in 0..4u64 {
                let warm = service.query(seed).unwrap();
                let cold = f
                    .execute_distributed(&spec, NetworkKind::InMemory, seed)
                    .unwrap();
                assert_eq!(warm, cold, "case {case}, seed {seed}");
            }
            service.shutdown().unwrap();
        }
    }

    #[test]
    fn pipelined_service_matches_solo_outcomes() {
        let f = federation(5, 8, 23);
        let spec = QuerySpec::top_k("value", 3).with_epsilon(1e-9);
        let seeds: Vec<u64> = (0..16).collect();
        let solo: Vec<QueryOutcome> = seeds
            .iter()
            .map(|&s| f.execute(&spec, s).unwrap())
            .collect();
        for depth in [1usize, 4, 16] {
            let mut service = f.serve(&spec, NetworkKind::InMemory, depth).unwrap();
            let warm = service.query_many(&seeds).unwrap();
            service.shutdown().unwrap();
            assert_eq!(warm, solo, "depth {depth}");
        }
    }

    #[test]
    fn service_rejects_zero_depth_and_reports_metrics() {
        let f = federation(3, 4, 24);
        let spec = QuerySpec::max("value");
        assert!(f.serve(&spec, NetworkKind::InMemory, 0).is_err());
        let mut service = f.serve(&spec, NetworkKind::InMemory, 2).unwrap();
        assert_eq!(service.depth(), 2);
        assert_eq!(service.spec().attribute(), "value");
        service.query(0).unwrap();
        assert!(service.metrics().frames_sent() > 0);
        service.shutdown().unwrap();
    }

    #[test]
    fn traced_paths_match_untraced_across_all_modes() {
        use privtopk_observe::Phase;
        let f = federation(4, 6, 41);
        let spec = QuerySpec::top_k("value", 2).with_epsilon(1e-9);

        let recorder = Recorder::new();
        let sim = f.execute(&spec, 12).unwrap();
        assert_eq!(f.execute_traced(&spec, 12, &recorder).unwrap(), sim);

        let dist = f
            .execute_distributed(&spec, NetworkKind::InMemory, 12)
            .unwrap();
        assert_eq!(
            f.execute_distributed_traced(&spec, NetworkKind::InMemory, 12, &recorder)
                .unwrap(),
            dist
        );
        assert_eq!(sim.transcript().steps(), dist.transcript().steps());

        let batch = QueryBatch::new(5)
            .with(QuerySpec::max("value"))
            .with(spec.clone());
        let batched = f.execute_batch(&batch).unwrap();
        assert_eq!(f.execute_batch_traced(&batch, &recorder).unwrap(), batched);
        assert_eq!(
            f.execute_batch_distributed_traced(&batch, NetworkKind::InMemory, &recorder)
                .unwrap(),
            batched
        );

        // All four traced modes contributed hop spans.
        assert!(recorder.phase(Phase::Step).count > 0);
        assert!(!recorder.trace_jsonl().is_empty());
    }

    #[test]
    fn served_stats_are_live_and_summarized() {
        let f = federation(4, 6, 43);
        let spec = QuerySpec::top_k("value", 2).with_epsilon(1e-9);
        let recorder = Recorder::new();
        let mut service = f
            .serve_traced(&spec, NetworkKind::InMemory, 2, recorder.clone())
            .unwrap();
        let untraced_service = f.serve(&spec, NetworkKind::InMemory, 2).unwrap();
        drop(untraced_service.stats()); // stats work without a recorder too
        untraced_service.shutdown().unwrap();

        let seeds: Vec<u64> = (0..5).collect();
        let warm = service.query_many(&seeds).unwrap();
        let stats = service.stats();
        assert_eq!(stats.queries_submitted, 5);
        assert_eq!(stats.queries_completed, 5);
        assert_eq!(stats.queue_wait.count, 5);
        assert!(stats.frames_sent > 0);
        assert!(stats.pooled_buffers_high_water > 0);
        assert!(service.recorder().is_enabled());
        service.shutdown().unwrap();

        for (seed, outcome) in seeds.iter().zip(&warm) {
            let cold = f
                .execute_distributed(&spec, NetworkKind::InMemory, *seed)
                .unwrap();
            assert_eq!(outcome, &cold);
        }
        // The recorder's text summary renders without panicking and
        // names the phases.
        let summary = recorder.summary().to_string();
        assert!(summary.contains("step"));
    }

    #[test]
    fn metrics_endpoint_serves_live_scrapes_matching_stats() {
        let f = federation(4, 6, 47);
        let spec = QuerySpec::top_k("value", 2).with_epsilon(1e-9);
        let mut service = f
            .serve_traced(&spec, NetworkKind::InMemory, 2, Recorder::new())
            .unwrap();
        let addr = service.metrics_endpoint("127.0.0.1:0").unwrap();
        assert_eq!(service.metrics_addr(), Some(addr));

        let metric = |body: &str, name: &str| -> u64 {
            body.lines()
                .find(|l| l.starts_with(&format!("{name} ")))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("missing `{name}` in scrape:\n{body}"))
        };

        // Mid-stream: two queries submitted but not yet collected — the
        // scrape must see the live occupancy, not a post-hoc summary.
        let t1 = service.submit(1).unwrap();
        let t2 = service.submit(2).unwrap();
        let live = privtopk_observe::scrape(&addr).unwrap();
        assert_eq!(metric(&live, "privtopk_service_in_flight"), 2);
        assert_eq!(metric(&live, "privtopk_service_queries_submitted_total"), 2);
        service.collect(t1).unwrap();
        service.collect(t2).unwrap();

        // Quiesced: every exposed counter agrees with stats() exactly.
        let body = privtopk_observe::scrape(&addr).unwrap();
        let stats = service.stats();
        assert_eq!(
            metric(&body, "privtopk_service_queries_submitted_total"),
            stats.queries_submitted
        );
        assert_eq!(
            metric(&body, "privtopk_service_queries_completed_total"),
            stats.queries_completed
        );
        assert_eq!(
            metric(&body, "privtopk_service_frames_sent_total"),
            stats.frames_sent
        );
        assert_eq!(
            metric(&body, "privtopk_service_bytes_sent_total"),
            stats.bytes_sent
        );
        assert_eq!(
            metric(&body, "privtopk_service_queue_wait_ns_count"),
            stats.queue_wait.count
        );
        assert_eq!(
            metric(&body, "privtopk_service_pipeline_high_water"),
            stats.pipeline_high_water as u64
        );
        // The recorder's own registry rides along in the same body.
        assert!(body.contains("# TYPE privtopk_phase_step_ns histogram"));

        service.shutdown().unwrap();
        assert!(privtopk_observe::scrape(&addr).is_err());
    }

    #[test]
    fn service_accounts_privacy_and_exposes_it_on_the_scrape() {
        let f = federation(4, 6, 53);
        let spec = QuerySpec::top_k("value", 2).with_epsilon(1e-9);
        let mut service = f
            .serve_traced(&spec, NetworkKind::InMemory, 2, Recorder::new())
            .unwrap();
        let addr = service.metrics_endpoint("127.0.0.1:0").unwrap();

        // Before any query the accountant is empty and the scrape says so.
        let idle = privtopk_observe::scrape(&addr).unwrap();
        assert!(idle.contains("privtopk_privacy_queries_accounted_total 0"));

        service.query_many(&[1, 2, 3]).unwrap();

        let privacy = service.privacy();
        assert_eq!(privacy.queries_accounted, 3);
        assert_eq!(privacy.per_node.len(), 4);
        assert_eq!(privacy.ledger.len(), 3);
        assert!(privacy.worst_lop >= privacy.average_lop);
        let counted: usize = privacy.spectrum.as_labeled().iter().map(|(_, c)| *c).sum();
        assert_eq!(counted, 4, "every node lands in exactly one class");

        let body = privtopk_observe::scrape(&addr).unwrap();
        assert!(body.contains("privtopk_privacy_queries_accounted_total 3"));
        assert!(body.contains("# TYPE privtopk_privacy_lop_node gauge"));
        for node in 0..4 {
            assert!(
                body.contains(&format!("privtopk_privacy_lop_node{{node=\"{node}\"}}")),
                "missing node {node} LoP gauge in scrape:\n{body}"
            );
        }
        assert!(body.contains("privtopk_privacy_spectrum_class{class=\"beyond_suspicion\"}"));
        assert!(body.contains("privtopk_privacy_lop_worst"));

        // The scrape's per-node figures agree with privacy() exactly.
        for estimate in &privacy.per_node {
            let line = format!(
                "privtopk_privacy_lop_node{{node=\"{}\"}} {}",
                estimate.node, estimate.lop
            );
            assert!(body.contains(&line), "missing `{line}` in scrape:\n{body}");
        }
        service.shutdown().unwrap();
    }

    #[test]
    fn mirror_is_involutive_and_stays_in_domain() {
        let f = federation(3, 4, 7);
        for raw in [1i64, 2, 5000, 9999, 10_000] {
            let v = Value::new(raw);
            let m = f.mirror(v);
            assert!(f.domain().contains(m), "mirror({raw}) = {m}");
            assert_eq!(f.mirror(m), v);
        }
    }
}
