//! The distributed protocol driver: one thread per private database,
//! communicating only through a [`Transport`].
//!
//! This runs the *same* local algorithms as the
//! [`SimulationEngine`](crate::SimulationEngine) — with the same seed
//! derivation — so, over a losslessly ordered transport, a distributed
//! execution produces a transcript identical to the simulated one. That
//! equivalence is asserted by integration tests and is what justifies
//! running the large experiment sweeps in-process.

use std::sync::Arc;
use std::time::Duration;

use privtopk_domain::rng::SeedSpec;
use privtopk_domain::{NodeId, RingPosition, TopKVector};
use privtopk_observe::{Ctx, Phase, Recorder};
use privtopk_ring::chaos::{ChaosEndpoint, ChaosState};
use privtopk_ring::faults::{FaultyEndpoint, ReliableEndpoint};
use privtopk_ring::transport::{send_value, FramePool, InMemoryNetwork, TcpNetwork, Transport};
use privtopk_ring::{MetricsSnapshot, RingError, RingTopology, TransportMetrics};

use crate::local::{max_step, topk_step_scratch, TopkScratch};
use crate::{
    AlgorithmKind, BatchJob, BatchMessage, ProtocolConfig, ProtocolError, StartPolicy, StepRecord,
    TokenMessage, Transcript,
};

/// Seed stream tags — shared with the simulation engine so both drivers
/// derive identical randomness.
pub(crate) const STREAM_TOPOLOGY: u64 = 0x10;
pub(crate) const STREAM_NODE: u64 = 0x20;

/// How long a worker waits for its predecessor before giving up.
pub(crate) const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Which substrate carries the messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkKind {
    /// Crossbeam channels inside the current process.
    InMemory,
    /// Real TCP sockets on loopback.
    Tcp,
    /// In-process channels that drop each frame with the given
    /// probability, healed by a stop-and-wait reliability layer — the
    /// protocol runs unmodified over a lossy network.
    LossyInMemory {
        /// Per-frame drop probability in `[0, 1)`.
        drop_probability: f64,
    },
}

/// Result of a distributed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedOutcome {
    /// The assembled global transcript (merged from all workers).
    pub transcript: Transcript,
    /// The final result as learned by each node (indexed by `NodeId`);
    /// the termination circulation guarantees these are all equal.
    pub per_node_results: Vec<TopKVector>,
    /// Total frames sent on the transport.
    pub messages_sent: u64,
    /// Total payload bytes sent on the transport.
    pub bytes_sent: u64,
}

/// Runs the configured protocol with one worker thread per node.
///
/// `locals[i]` is the local top-k vector of `NodeId(i)`.
///
/// # Errors
///
/// - Configuration errors, as for the simulation engine.
/// - [`ProtocolError::Ring`] on transport failures or timeouts.
/// - [`ProtocolError::WorkerFailed`] if a worker thread panics.
///
/// Per-round ring remapping is a simulation-only extension; requesting it
/// here returns [`ProtocolError::Ring`] with a decode reason.
pub fn run_distributed(
    config: &ProtocolConfig,
    locals: &[TopKVector],
    network: NetworkKind,
    seed: u64,
) -> Result<DistributedOutcome, ProtocolError> {
    run_distributed_traced(config, locals, network, seed, &Recorder::disabled())
}

/// [`run_distributed`] with telemetry: every worker times its receive
/// waits, hop computations and sends as [`Phase`] spans, the lossy
/// reliability layer reports retransmissions and re-ACKs, and the
/// transport counters are absorbed into the recorder's registry when the
/// run completes. Recording never touches the seeded RNG streams or the
/// wire content, so the transcript is bit-identical to the untraced run.
///
/// # Errors
///
/// As for [`run_distributed`].
pub fn run_distributed_traced(
    config: &ProtocolConfig,
    locals: &[TopKVector],
    network: NetworkKind,
    seed: u64,
    recorder: &Recorder,
) -> Result<DistributedOutcome, ProtocolError> {
    run_once(
        config,
        locals,
        network,
        seed,
        &CrashSchedule::none(),
        RECV_TIMEOUT,
        recorder,
    )
    .map_err(RunFailure::into_error)
}

/// Scheduled mid-protocol crashes, for failure-recovery testing: node ->
/// the round at whose start it dies (before receiving or sending).
#[derive(Debug, Clone, Default)]
pub struct CrashSchedule {
    at_round: std::collections::HashMap<NodeId, u32>,
}

impl CrashSchedule {
    /// No crashes.
    #[must_use]
    pub fn none() -> Self {
        CrashSchedule::default()
    }

    /// Schedules `node` to crash at the start of `round`.
    #[must_use]
    pub fn crash(mut self, node: NodeId, round: u32) -> Self {
        self.at_round.insert(node, round);
        self
    }

    /// The scheduled crash round for `node`, if any.
    #[must_use]
    pub fn round_for(&self, node: NodeId) -> Option<u32> {
        self.at_round.get(&node).copied()
    }

    /// Whether any crash is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.at_round.is_empty()
    }
}

/// Why a distributed attempt failed, with enough structure for a
/// supervisor to react.
#[derive(Debug)]
pub(crate) struct RunFailure {
    /// Nodes that died mid-protocol.
    pub crashed: Vec<NodeId>,
    /// The first non-crash error observed (e.g. a survivor's timeout).
    pub error: ProtocolError,
}

impl RunFailure {
    fn into_error(self) -> ProtocolError {
        self.error
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_once(
    config: &ProtocolConfig,
    locals: &[TopKVector],
    network: NetworkKind,
    seed: u64,
    crashes: &CrashSchedule,
    recv_timeout: Duration,
    recorder: &Recorder,
) -> Result<DistributedOutcome, RunFailure> {
    let fail = |error: ProtocolError| RunFailure {
        crashed: Vec::new(),
        error,
    };
    let n = locals.len();
    config.validate(n).map_err(fail)?;
    for local in locals {
        if local.k() != config.k() {
            return Err(fail(ProtocolError::InconsistentK {
                expected: config.k(),
                got: local.k(),
            }));
        }
    }
    if config.remap_each_round() {
        return Err(fail(ProtocolError::Ring(RingError::Decode {
            reason: "per-round remapping is not supported by the distributed driver",
        })));
    }
    let rounds = config.resolve_rounds().map_err(fail)?;
    let topology = Arc::new(derive_topology(config, n, seed).map_err(fail)?);

    let (endpoints, metrics) = build_endpoints(network, n, seed, recorder).map_err(fail)?;
    let drain_on_exit = drain_window(network);
    let config = Arc::new(config.clone());
    let mut handles = Vec::with_capacity(n);
    for (i, endpoint) in endpoints.into_iter().enumerate() {
        let me = NodeId::new(i);
        let topology = Arc::clone(&topology);
        let state = NodeWorker::for_query(Arc::clone(&config), locals[i].clone(), seed, i, rounds);
        let crash_at = crashes.round_for(me);
        let recorder = recorder.clone();
        handles.push(std::thread::spawn(move || {
            worker(
                me,
                state,
                endpoint,
                &topology,
                rounds,
                drain_on_exit,
                crash_at,
                recv_timeout,
                recorder,
                Ctx::EMPTY,
            )
        }));
    }

    let mut reports: Vec<WorkerReport> = Vec::with_capacity(n);
    let mut crashed: Vec<NodeId> = Vec::new();
    let mut first_error: Option<ProtocolError> = None;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(report)) => reports.push(report),
            Ok(Err(ProtocolError::WorkerCrashed { node })) => crashed.push(node),
            Ok(Err(e)) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
            Err(_) => {
                if first_error.is_none() {
                    first_error = Some(ProtocolError::WorkerFailed { position: i });
                }
            }
        }
    }
    if let Some(error) = first_error {
        return Err(RunFailure { crashed, error });
    }
    if !crashed.is_empty() {
        // Every survivor somehow finished despite crashes (cannot happen
        // on a ring, but be defensive).
        let node = crashed[0];
        return Err(RunFailure {
            crashed,
            error: ProtocolError::WorkerCrashed { node },
        });
    }

    reports.sort_by_key(|r| r.node.get());
    let per_node_results: Vec<TopKVector> = reports.iter().map(|r| r.result.clone()).collect();
    let mut steps: Vec<StepRecord> = reports.into_iter().flat_map(|r| r.steps).collect();
    steps.sort_by_key(|s| (s.round, s.position.get()));
    let result = per_node_results[0].clone();
    let transcript = Transcript::new(
        n,
        config.k(),
        rounds,
        vec![topology.order().to_vec()],
        steps,
        result,
    );
    let snap = metrics.take();
    snap.publish(recorder);
    Ok(DistributedOutcome {
        transcript,
        per_node_results,
        messages_sent: snap.logical_messages,
        bytes_sent: snap.bytes_sent,
    })
}

/// Derives a query's ring topology from its seed — the same
/// `STREAM_TOPOLOGY` derivation as the simulation engine, shared by the
/// one-shot, batched and persistent-service drivers.
pub(crate) fn derive_topology(
    config: &ProtocolConfig,
    n: usize,
    seed: u64,
) -> Result<RingTopology, ProtocolError> {
    Ok(match config.start() {
        StartPolicy::Fixed => RingTopology::identity(n)?,
        StartPolicy::RandomAnonymous => {
            RingTopology::random(n, &mut SeedSpec::new(seed).stream(STREAM_TOPOLOGY).rng())?
        }
    })
}

/// Builds one endpoint per node over the requested substrate, plus the
/// network's shared metrics. Over a lossy substrate the reliability
/// layer shares the metrics and the recorder, so retransmissions and
/// re-ACKs show up in both.
pub(crate) fn build_endpoints(
    network: NetworkKind,
    n: usize,
    seed: u64,
    recorder: &Recorder,
) -> Result<(Vec<Box<dyn Transport>>, TransportMetrics), ProtocolError> {
    Ok(match network {
        NetworkKind::InMemory => {
            let net = InMemoryNetwork::new(n);
            let metrics = net.metrics();
            (
                net.endpoints()
                    .into_iter()
                    .map(|e| Box::new(e) as Box<dyn Transport>)
                    .collect(),
                metrics,
            )
        }
        NetworkKind::Tcp => {
            let net = TcpNetwork::bind(n)?;
            let metrics = net.metrics();
            (
                net.endpoints()?
                    .into_iter()
                    .map(|e| Box::new(e) as Box<dyn Transport>)
                    .collect(),
                metrics,
            )
        }
        NetworkKind::LossyInMemory { drop_probability } => {
            let net = InMemoryNetwork::new(n);
            let metrics = net.metrics();
            (
                net.endpoints()
                    .into_iter()
                    .enumerate()
                    .map(|(i, e)| {
                        let faulty =
                            FaultyEndpoint::new(e, drop_probability, seed ^ (i as u64) << 8);
                        let reliable = ReliableEndpoint::new(faulty)
                            .with_observer(metrics.clone(), recorder.clone());
                        Box::new(reliable) as Box<dyn Transport>
                    })
                    .collect(),
                metrics,
            )
        }
    })
}

/// Builds one endpoint per node with a [`ChaosEndpoint`] injecting the
/// shared [`ChaosState`]'s scheduled incidents underneath the usual
/// reliability layer. The stack mirrors the lossy substrate — chaos
/// drops frames, stop-and-wait heals them, and both the metrics and the
/// recorder see every retransmission and re-ACK of the healing storm.
pub(crate) fn build_chaos_endpoints(
    n: usize,
    seed: u64,
    recorder: &Recorder,
    state: &Arc<ChaosState>,
) -> (Vec<Box<dyn Transport>>, TransportMetrics) {
    let net = InMemoryNetwork::new(n);
    let metrics = net.metrics();
    (
        net.endpoints()
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let chaotic = ChaosEndpoint::new(e, Arc::clone(state), seed ^ (i as u64) << 8);
                let reliable =
                    ReliableEndpoint::new(chaotic).with_observer(metrics.clone(), recorder.clone());
                Box::new(reliable) as Box<dyn Transport>
            })
            .collect(),
        metrics,
    )
}

/// Lossy transports need a shutdown drain: a finished worker keeps
/// re-acknowledging retransmissions for a grace window so a peer whose
/// ACK was dropped does not retry into a closed endpoint.
pub(crate) fn drain_window(network: NetworkKind) -> Option<Duration> {
    match network {
        NetworkKind::LossyInMemory { .. } => Some(Duration::from_secs(1)),
        _ => None,
    }
}

/// Result of a batched distributed execution: per-query outcomes plus
/// frame-level wire accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedBatchOutcome {
    /// One transcript per job, in job order; each is bit-identical to the
    /// job's solo [`run_distributed`] transcript.
    pub transcripts: Vec<Transcript>,
    /// `per_node_results[q][i]` is what node `i` learned for query `q`.
    pub per_node_results: Vec<Vec<TopKVector>>,
    /// Physical frames sent across all batch groups.
    pub frames_sent: u64,
    /// Logical (per-query) messages carried by those frames; this is the
    /// paper's cost-model quantity, summed over the batch.
    pub logical_messages: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Number of lock-step groups the batch was partitioned into (jobs
    /// only share frames when they agree on ring order and round count).
    pub groups: u32,
}

/// Runs B independent queries over one federation of `n` nodes, sharing
/// ring traversals wherever the jobs agree on topology and round count.
///
/// Jobs are partitioned into lock-step groups keyed by (resolved rounds,
/// ring order): within a group, one [`BatchMessage`] per hop piggybacks
/// every member query's token, so per-hop framing, thread spawning and
/// syscalls are amortized across the group. Jobs with
/// [`StartPolicy::RandomAnonymous`] derive their ring order from their own
/// seed (exactly as solo runs do), so they only coalesce when their orders
/// happen to agree; fixed-start homogeneous batches — the serving-path
/// case — always form a single group.
///
/// Each job's randomness is private to it, which makes every transcript
/// bit-identical to the job's solo run — batching is observable only in
/// wire accounting ([`DistributedBatchOutcome::frames_sent`] versus
/// [`DistributedBatchOutcome::logical_messages`]).
///
/// # Errors
///
/// - [`ProtocolError::InvalidBatch`] if the batch is empty, exceeds the
///   wire entry cap, or mixes node counts.
/// - Per-job configuration errors, as for [`run_distributed`].
/// - [`ProtocolError::Ring`] on transport failures or timeouts.
pub fn run_distributed_batch(
    jobs: &[BatchJob],
    network: NetworkKind,
) -> Result<DistributedBatchOutcome, ProtocolError> {
    run_distributed_batch_traced(jobs, network, &Recorder::disabled())
}

/// [`run_distributed_batch`] with telemetry: hop spans are tagged with
/// each member query's batch index, and the combined wire accounting is
/// absorbed into the recorder's registry. Tracing never changes the
/// transcripts.
///
/// # Errors
///
/// As for [`run_distributed_batch`].
pub fn run_distributed_batch_traced(
    jobs: &[BatchJob],
    network: NetworkKind,
    recorder: &Recorder,
) -> Result<DistributedBatchOutcome, ProtocolError> {
    crate::batch::validate_batch_shape(jobs)?;
    let n = jobs[0].locals.len();
    for job in jobs {
        if job.locals.len() != n {
            return Err(ProtocolError::InvalidBatch {
                reason: "batched jobs must share one federation (node count)",
            });
        }
        job.config.validate(n)?;
        for local in &job.locals {
            if local.k() != job.config.k() {
                return Err(ProtocolError::InconsistentK {
                    expected: job.config.k(),
                    got: local.k(),
                });
            }
        }
        if job.config.remap_each_round() {
            return Err(ProtocolError::Ring(RingError::Decode {
                reason: "per-round remapping is not supported by the distributed driver",
            }));
        }
    }

    // Resolve each job's rounds and ring order from its own seed — the
    // same derivation as its solo run.
    let mut prepared: Vec<(u32, Arc<RingTopology>)> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let rounds = job.config.resolve_rounds()?;
        let topology = derive_topology(&job.config, n, job.seed)?;
        prepared.push((rounds, Arc::new(topology)));
    }

    // Partition into lock-step groups: same rounds, same ring order.
    let mut groups: Vec<(u32, Arc<RingTopology>, Vec<usize>)> = Vec::new();
    for (idx, (rounds, topology)) in prepared.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|(r, t, _)| r == rounds && t.order() == topology.order())
        {
            Some((_, _, members)) => members.push(idx),
            None => groups.push((*rounds, Arc::clone(topology), vec![idx])),
        }
    }

    let configs: Vec<Arc<ProtocolConfig>> =
        jobs.iter().map(|j| Arc::new(j.config.clone())).collect();
    let mut transcripts: Vec<Option<Transcript>> = vec![None; jobs.len()];
    let mut per_node_results: Vec<Vec<TopKVector>> = vec![Vec::new(); jobs.len()];
    let mut wire = MetricsSnapshot::default();

    // Groups execute sequentially, so later groups' jobs queue behind the
    // earlier traversals. Account that wait per group (`queue_wait/groupG`)
    // so the `--stats` table can show each group's own distribution
    // instead of folding every group into one histogram.
    let batch_started = recorder.clock();
    for (group_idx, (rounds, topology, members)) in groups.iter().enumerate() {
        if batch_started.is_some() {
            let name = format!("queue_wait/group{group_idx}");
            for _ in members {
                recorder.observe_named(&name, batch_started);
            }
        }
        let (endpoints, metrics) = build_endpoints(network, n, jobs[members[0]].seed, recorder)?;
        let drain_on_exit = drain_window(network);
        let mut handles = Vec::with_capacity(n);
        for (i, endpoint) in endpoints.into_iter().enumerate() {
            let worker_jobs: Vec<NodeWorker> = members
                .iter()
                .map(|&j| {
                    NodeWorker::for_query(
                        Arc::clone(&configs[j]),
                        jobs[j].locals[i].clone(),
                        jobs[j].seed,
                        i,
                        *rounds,
                    )
                })
                .collect();
            let topology = Arc::clone(topology);
            let rounds = *rounds;
            let member_indices: Vec<u64> = members.iter().map(|&j| j as u64).collect();
            let recorder = recorder.clone();
            handles.push(std::thread::spawn(move || {
                batch_worker(
                    NodeId::new(i),
                    worker_jobs,
                    endpoint,
                    &topology,
                    rounds,
                    drain_on_exit,
                    RECV_TIMEOUT,
                    recorder,
                    &member_indices,
                )
            }));
        }

        let mut reports: Vec<BatchWorkerReport> = Vec::with_capacity(n);
        let mut first_error: Option<ProtocolError> = None;
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(Ok(report)) => reports.push(report),
                Ok(Err(e)) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
                Err(_) => {
                    if first_error.is_none() {
                        first_error = Some(ProtocolError::WorkerFailed { position: i });
                    }
                }
            }
        }
        if let Some(error) = first_error {
            return Err(error);
        }
        reports.sort_by_key(|r| r.node.get());

        // Reassemble each member query's transcript from the per-node,
        // per-job step logs.
        let mut steps_by_job: Vec<Vec<StepRecord>> = vec![Vec::new(); members.len()];
        let mut results_by_job: Vec<Vec<TopKVector>> = vec![Vec::new(); members.len()];
        for report in reports {
            for (slot, (steps, result)) in report.jobs.into_iter().enumerate() {
                steps_by_job[slot].extend(steps);
                results_by_job[slot].push(result);
            }
        }
        for (slot, &job_idx) in members.iter().enumerate() {
            let mut steps = std::mem::take(&mut steps_by_job[slot]);
            steps.sort_by_key(|s| (s.round, s.position.get()));
            let results = std::mem::take(&mut results_by_job[slot]);
            let result = results[0].clone();
            transcripts[job_idx] = Some(Transcript::new(
                n,
                jobs[job_idx].config.k(),
                *rounds,
                vec![topology.order().to_vec()],
                steps,
                result,
            ));
            per_node_results[job_idx] = results;
        }
        let snap = metrics.take();
        wire.frames_sent += snap.frames_sent;
        wire.logical_messages += snap.logical_messages;
        wire.bytes_sent += snap.bytes_sent;
        wire.retransmissions += snap.retransmissions;
        wire.re_acks += snap.re_acks;
        wire.pooled_buffers_high_water = wire
            .pooled_buffers_high_water
            .max(snap.pooled_buffers_high_water);
    }
    wire.publish(recorder);

    Ok(DistributedBatchOutcome {
        transcripts: transcripts
            .into_iter()
            .map(|t| t.expect("every job belongs to exactly one group"))
            .collect(),
        per_node_results,
        frames_sent: wire.frames_sent,
        logical_messages: wire.logical_messages,
        bytes_sent: wire.bytes_sent,
        groups: groups.len() as u32,
    })
}

/// Outcome of a failure-recovered execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The successful run over the surviving nodes. NodeIds inside the
    /// transcript are *survivor-space* indices; `survivors` maps them
    /// back to the original ids.
    pub outcome: DistributedOutcome,
    /// Original ids of nodes excluded after crashing, in exclusion order.
    pub excluded: Vec<NodeId>,
    /// Original ids of the survivors, indexed by survivor-space NodeId.
    pub survivors: Vec<NodeId>,
    /// Number of protocol attempts (1 = no failures encountered).
    pub attempts: u32,
}

/// Runs the protocol with failure recovery: when nodes die mid-protocol,
/// the survivors time out, the ring is reconstructed without the failed
/// nodes ("the ring can be reconstructed ... simply by connecting the
/// predecessor and successor of the failed node", Section 3.2), and the
/// query re-runs from scratch over the survivors' data.
///
/// `worker_timeout` is how long a worker waits on its predecessor before
/// declaring the round lost (keep it small in tests).
///
/// # Errors
///
/// - Any non-crash execution error, immediately.
/// - [`ProtocolError::TooFewNodes`] if crashes leave fewer than 3
///   survivors.
/// - [`ProtocolError::WorkerCrashed`] if `max_attempts` is exhausted.
pub fn run_with_recovery(
    config: &ProtocolConfig,
    locals: &[TopKVector],
    network: NetworkKind,
    seed: u64,
    crashes: &CrashSchedule,
    worker_timeout: Duration,
    max_attempts: u32,
) -> Result<RecoveryOutcome, ProtocolError> {
    let mut current_ids: Vec<NodeId> = (0..locals.len()).map(NodeId::new).collect();
    let mut current_locals: Vec<TopKVector> = locals.to_vec();
    let mut excluded: Vec<NodeId> = Vec::new();
    for attempt in 1..=max_attempts.max(1) {
        // Project the original-id crash schedule into survivor space.
        let mut projected = CrashSchedule::none();
        for (idx, original) in current_ids.iter().enumerate() {
            if let Some(round) = crashes.round_for(*original) {
                projected = projected.crash(NodeId::new(idx), round);
            }
        }
        match run_once(
            config,
            &current_locals,
            network,
            seed.wrapping_add(u64::from(attempt)),
            &projected,
            worker_timeout,
            &Recorder::disabled(),
        ) {
            Ok(outcome) => {
                return Ok(RecoveryOutcome {
                    outcome,
                    excluded,
                    survivors: current_ids,
                    attempts: attempt,
                })
            }
            Err(failure) if !failure.crashed.is_empty() => {
                // Map survivor-space crash ids back to original ids and
                // reconstruct the ring without them.
                let dead: std::collections::HashSet<usize> =
                    failure.crashed.iter().map(|n| n.get()).collect();
                let mut next_ids = Vec::with_capacity(current_ids.len() - dead.len());
                let mut next_locals = Vec::with_capacity(next_ids.capacity());
                for (idx, original) in current_ids.iter().enumerate() {
                    if dead.contains(&idx) {
                        excluded.push(*original);
                    } else {
                        next_ids.push(*original);
                        next_locals.push(current_locals[idx].clone());
                    }
                }
                current_ids = next_ids;
                current_locals = next_locals;
                config
                    .validate(current_ids.len())
                    .map_err(|_| ProtocolError::TooFewNodes {
                        got: current_ids.len(),
                        minimum: 3,
                    })?;
            }
            Err(failure) => return Err(failure.error),
        }
    }
    Err(ProtocolError::WorkerCrashed {
        node: *excluded.last().unwrap_or(&NodeId::new(0)),
    })
}

/// Per-node, per-query protocol state shared by every execution mode —
/// the one-shot [`worker`], the lock-step [`batch_worker`], and the
/// persistent service's in-flight slots (`crate::service`). It owns the
/// node's seed-derived RNG stream, the top-k insertion flag and the step
/// log, and advances exactly one hop at a time; centralizing the hop
/// computation here is what keeps every mode's transcript bit-identical
/// to the simulation for a given seed.
pub(crate) struct NodeWorker {
    config: Arc<ProtocolConfig>,
    local: TopKVector,
    rng: rand::rngs::SmallRng,
    has_inserted: bool,
    steps: Vec<StepRecord>,
}

impl NodeWorker {
    /// State for node index `i` of a query seeded by `seed`, using the
    /// `STREAM_NODE` derivation shared with the simulation engine.
    pub(crate) fn for_query(
        config: Arc<ProtocolConfig>,
        local: TopKVector,
        seed: u64,
        node_index: usize,
        rounds: u32,
    ) -> Self {
        NodeWorker {
            config,
            local,
            rng: SeedSpec::new(seed)
                .stream(STREAM_NODE)
                .stream(node_index as u64)
                .rng(),
            has_inserted: false,
            steps: Vec::with_capacity(rounds as usize),
        }
    }

    /// The domain-floor vector the starting node consumes in round 1
    /// instead of receiving.
    pub(crate) fn floor(&self) -> TopKVector {
        TopKVector::floor(self.config.k(), &self.config.domain())
    }

    /// Runs one hop of the local algorithm: consumes `incoming`, records
    /// the step, and returns the vector to forward to the successor.
    ///
    /// `scratch` is the hop kernel's working memory; drivers keep one per
    /// thread (shared across all batch entries and pipeline slots) so the
    /// hot loop never allocates a merge or tail buffer. The scratch never
    /// carries state between hops, so sharing cannot perturb transcripts.
    pub(crate) fn advance(
        &mut self,
        round: u32,
        position: RingPosition,
        node: NodeId,
        incoming: TopKVector,
        scratch: &mut TopkScratch,
    ) -> Result<TopKVector, ProtocolError> {
        let domain = self.config.domain();
        let probability = self.config.schedule().probability(round);
        let (outgoing, action) = match self.config.algorithm() {
            AlgorithmKind::Max => {
                let step = max_step(
                    &mut self.rng,
                    probability,
                    incoming.first(),
                    self.local.first(),
                    &domain,
                )?;
                (TopKVector::from_sorted(vec![step.output])?, step.action)
            }
            AlgorithmKind::TopK => {
                let outcome = topk_step_scratch(
                    &mut self.rng,
                    probability,
                    &incoming,
                    &self.local,
                    self.has_inserted,
                    self.config.delta(),
                    &domain,
                    scratch,
                )?;
                self.has_inserted = outcome.has_inserted;
                let out = outcome.output.unwrap_or_else(|| incoming.clone());
                (out, outcome.action)
            }
        };
        self.steps.push(StepRecord {
            round,
            position,
            node,
            incoming,
            outgoing: outgoing.clone(),
            action,
        });
        Ok(outgoing)
    }

    /// Consumes the state, yielding the recorded step log.
    pub(crate) fn into_steps(self) -> Vec<StepRecord> {
        self.steps
    }
}

pub(crate) struct WorkerReport {
    pub(crate) node: NodeId,
    pub(crate) steps: Vec<StepRecord>,
    pub(crate) result: TopKVector,
}

#[allow(clippy::too_many_arguments)]
fn worker(
    me: NodeId,
    mut state: NodeWorker,
    mut endpoint: Box<dyn Transport>,
    topology: &RingTopology,
    rounds: u32,
    drain_on_exit: Option<Duration>,
    crash_at: Option<u32>,
    recv_timeout: Duration,
    recorder: Recorder,
    base_ctx: Ctx,
) -> Result<WorkerReport, ProtocolError> {
    let n = topology.len();
    let position = topology.position_of(me)?;
    let successor = topology.successor_of(me)?;
    let predecessor = topology.predecessor_of(me)?;
    let pool = endpoint.pool();
    let my_ctx = base_ctx.with_node(me.get() as u32);

    let recv_token = |endpoint: &mut Box<dyn Transport>,
                      recorder: &Recorder,
                      expect_round: u32|
     -> Result<TopKVector, ProtocolError> {
        let recv_started = recorder.clock();
        let (from, msg): (NodeId, TokenMessage) =
            recv_with_timeout(endpoint.as_mut(), recv_timeout)?;
        recorder.record(Phase::Recv, my_ctx.with_round(expect_round), recv_started);
        match msg {
            TokenMessage::Token { round, vector } if round == expect_round => {
                debug_assert_eq!(from, predecessor, "token must come from predecessor");
                Ok(vector)
            }
            // Out-of-protocol round labels or premature termination: a
            // semi-honest network never produces these.
            TokenMessage::Token { .. } => Err(ProtocolError::Ring(RingError::Decode {
                reason: "unexpected round label",
            })),
            TokenMessage::Finished { .. } => Err(ProtocolError::Ring(RingError::Decode {
                reason: "premature termination message",
            })),
        }
    };

    let mut scratch = TopkScratch::new();
    for round in 1..=rounds {
        if crash_at == Some(round) {
            // Simulated node failure: die silently, mid-protocol.
            return Err(ProtocolError::WorkerCrashed { node: me });
        }
        let incoming = if round == 1 && position.is_start() {
            state.floor()
        } else {
            // Position 0 consumes the previous round's closing token.
            let expect = if position.is_start() {
                round - 1
            } else {
                round
            };
            recv_token(&mut endpoint, &recorder, expect)?
        };
        let step_started = recorder.clock();
        let outgoing = state.advance(round, position, me, incoming, &mut scratch)?;
        recorder.record(
            Phase::Step,
            my_ctx.with_round(round).with_hop(position.get() as u32),
            step_started,
        );
        send_value(
            endpoint.as_mut(),
            &pool,
            successor,
            &TokenMessage::Token {
                round,
                vector: outgoing,
            },
            1,
            &recorder,
            my_ctx.with_round(round),
        )?;
    }

    // Termination: the starting node collects the closing token of the
    // final round and circulates the result once around the ring.
    let result = if position.is_start() {
        let result = recv_token(&mut endpoint, &recorder, rounds)?;
        send_value(
            endpoint.as_mut(),
            &pool,
            successor,
            &TokenMessage::Finished {
                vector: result.clone(),
            },
            1,
            &recorder,
            my_ctx,
        )?;
        result
    } else {
        let recv_started = recorder.clock();
        let (_, msg): (NodeId, TokenMessage) = recv_with_timeout(endpoint.as_mut(), recv_timeout)?;
        recorder.record(Phase::Recv, my_ctx, recv_started);
        let TokenMessage::Finished { vector } = msg else {
            return Err(ProtocolError::Ring(RingError::Decode {
                reason: "expected termination message",
            }));
        };
        // Forward unless the successor is the starting node (which
        // initiated the circulation and already has the result).
        if position.get() + 1 < n {
            send_value(
                endpoint.as_mut(),
                &pool,
                successor,
                &TokenMessage::Finished {
                    vector: vector.clone(),
                },
                1,
                &recorder,
                my_ctx,
            )?;
        }
        vector
    };

    // Over lossy transports, keep re-acknowledging retransmissions for a
    // grace window so peers whose ACKs were dropped can finish cleanly.
    if let Some(window) = drain_on_exit {
        drain_endpoint(endpoint.as_mut(), window)?;
    }

    Ok(WorkerReport {
        node: me,
        steps: state.into_steps(),
        result,
    })
}

/// Keeps receiving (and discarding) frames until `window` elapses or the
/// network disconnects — the shutdown drain for lossy transports, whose
/// reliability layer re-acknowledges duplicates inside `recv`.
pub(crate) fn drain_endpoint(
    endpoint: &mut dyn Transport,
    window: Duration,
) -> Result<(), ProtocolError> {
    let deadline = std::time::Instant::now() + window;
    loop {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return Ok(());
        }
        match endpoint.recv_timeout(remaining) {
            Ok(_) => {} // duplicate already re-acked inside the layer
            Err(RingError::Timeout) | Err(RingError::Disconnected) => return Ok(()),
            Err(e) => return Err(e.into()),
        }
    }
}

fn recv_with_timeout(
    endpoint: &mut dyn Transport,
    timeout: Duration,
) -> Result<(NodeId, TokenMessage), ProtocolError> {
    let (from, frame) = endpoint.recv_timeout(timeout)?;
    let msg = privtopk_ring::wire::decode_from_bytes(&frame)?;
    Ok((from, msg))
}

/// What one node reports back for a batch group: per job (in group
/// order), its step log and learned result.
struct BatchWorkerReport {
    node: NodeId,
    jobs: Vec<(Vec<StepRecord>, TopKVector)>,
}

/// The batched counterpart of [`worker`]: runs the identical per-round
/// protocol for every member job, but exchanges one [`BatchMessage`] per
/// hop carrying all member tokens. Each job advances with its own RNG and
/// `has_inserted` flag, so its step sequence is the one its solo worker
/// would produce.
#[allow(clippy::too_many_arguments)]
fn batch_worker(
    me: NodeId,
    mut jobs: Vec<NodeWorker>,
    mut endpoint: Box<dyn Transport>,
    topology: &RingTopology,
    rounds: u32,
    drain_on_exit: Option<Duration>,
    recv_timeout: Duration,
    recorder: Recorder,
    query_indices: &[u64],
) -> Result<BatchWorkerReport, ProtocolError> {
    let n = topology.len();
    let width = jobs.len();
    let logical = width as u64;
    let position = topology.position_of(me)?;
    let successor = topology.successor_of(me)?;
    let predecessor = topology.predecessor_of(me)?;
    let pool = endpoint.pool();
    let my_ctx = Ctx::default().with_node(me.get() as u32);

    let recv_batch = |endpoint: &mut Box<dyn Transport>,
                      pool: &FramePool,
                      recorder: &Recorder,
                      expect_round: u32|
     -> Result<Vec<TopKVector>, ProtocolError> {
        let recv_started = recorder.clock();
        let (from, frame) = endpoint.recv_timeout(recv_timeout)?;
        recorder.record(Phase::Recv, my_ctx.with_round(expect_round), recv_started);
        let msg: BatchMessage = privtopk_ring::wire::decode_from_bytes(&frame)?;
        pool.recycle(frame);
        match msg {
            BatchMessage::Tokens { round, vectors } if round == expect_round => {
                debug_assert_eq!(from, predecessor, "tokens must come from predecessor");
                if vectors.len() != width {
                    return Err(ProtocolError::Ring(RingError::Decode {
                        reason: "batch width changed mid-flight",
                    }));
                }
                Ok(vectors)
            }
            BatchMessage::Tokens { .. } => Err(ProtocolError::Ring(RingError::Decode {
                reason: "unexpected round label",
            })),
            BatchMessage::Finished { .. } => Err(ProtocolError::Ring(RingError::Decode {
                reason: "premature termination message",
            })),
        }
    };

    // One hop-kernel scratch shared across all B entries of the group:
    // per-entry state lives in the jobs, the merge/tail buffers do not.
    let mut scratch = TopkScratch::new();
    for round in 1..=rounds {
        let incomings: Vec<TopKVector> = if round == 1 && position.is_start() {
            jobs.iter().map(NodeWorker::floor).collect()
        } else {
            // Position 0 consumes the previous round's closing tokens.
            let expect = if position.is_start() {
                round - 1
            } else {
                round
            };
            recv_batch(&mut endpoint, &pool, &recorder, expect)?
        };
        let mut outgoing_vectors = Vec::with_capacity(width);
        for ((slot, job), incoming) in jobs.iter_mut().enumerate().zip(incomings) {
            let step_started = recorder.clock();
            outgoing_vectors.push(job.advance(round, position, me, incoming, &mut scratch)?);
            recorder.record(
                Phase::Step,
                my_ctx
                    .with_query(query_indices[slot])
                    .with_round(round)
                    .with_hop(position.get() as u32),
                step_started,
            );
        }
        send_value(
            endpoint.as_mut(),
            &pool,
            successor,
            &BatchMessage::Tokens {
                round,
                vectors: outgoing_vectors,
            },
            logical,
            &recorder,
            my_ctx.with_round(round),
        )?;
    }

    // Termination mirrors the solo worker: the starting node collects the
    // final closing tokens and circulates them once around the ring.
    let results: Vec<TopKVector> = if position.is_start() {
        let results = recv_batch(&mut endpoint, &pool, &recorder, rounds)?;
        send_value(
            endpoint.as_mut(),
            &pool,
            successor,
            &BatchMessage::Finished {
                vectors: results.clone(),
            },
            logical,
            &recorder,
            my_ctx,
        )?;
        results
    } else {
        let recv_started = recorder.clock();
        let (_, frame) = endpoint.recv_timeout(recv_timeout)?;
        recorder.record(Phase::Recv, my_ctx, recv_started);
        let msg: BatchMessage = privtopk_ring::wire::decode_from_bytes(&frame)?;
        pool.recycle(frame);
        let BatchMessage::Finished { vectors } = msg else {
            return Err(ProtocolError::Ring(RingError::Decode {
                reason: "expected termination message",
            }));
        };
        if vectors.len() != width {
            return Err(ProtocolError::Ring(RingError::Decode {
                reason: "batch width changed mid-flight",
            }));
        }
        if position.get() + 1 < n {
            send_value(
                endpoint.as_mut(),
                &pool,
                successor,
                &BatchMessage::Finished {
                    vectors: vectors.clone(),
                },
                logical,
                &recorder,
                my_ctx,
            )?;
        }
        vectors
    };

    if let Some(window) = drain_on_exit {
        drain_endpoint(endpoint.as_mut(), window)?;
    }

    Ok(BatchWorkerReport {
        node: me,
        jobs: jobs
            .into_iter()
            .zip(results)
            .map(|(job, result)| (job.into_steps(), result))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoundPolicy, SimulationEngine};
    use privtopk_domain::{Value, ValueDomain};

    fn locals_k(k: usize, data: &[&[i64]]) -> Vec<TopKVector> {
        let domain = ValueDomain::paper_default();
        data.iter()
            .map(|vals| {
                TopKVector::from_values(k, vals.iter().copied().map(Value::new), &domain).unwrap()
            })
            .collect()
    }

    #[test]
    fn distributed_max_matches_simulation_exactly() {
        let config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(6));
        let locals = locals_k(1, &[&[300], &[100], &[900], &[500]]);
        let sim = SimulationEngine::new(config.clone())
            .run(&locals, 77)
            .unwrap();
        let dist = run_distributed(&config, &locals, NetworkKind::InMemory, 77).unwrap();
        assert_eq!(dist.transcript.steps(), sim.steps());
        assert_eq!(dist.transcript.result(), sim.result());
    }

    #[test]
    fn distributed_topk_matches_simulation_exactly() {
        let config = ProtocolConfig::topk(3).with_rounds(RoundPolicy::Fixed(7));
        let locals = locals_k(
            3,
            &[
                &[900, 400, 100],
                &[850, 300, 50],
                &[700, 650, 10],
                &[20, 15, 12],
            ],
        );
        let sim = SimulationEngine::new(config.clone())
            .run(&locals, 5)
            .unwrap();
        let dist = run_distributed(&config, &locals, NetworkKind::InMemory, 5).unwrap();
        assert_eq!(dist.transcript.steps(), sim.steps());
    }

    #[test]
    fn all_nodes_learn_the_same_result() {
        let config = ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(5));
        let locals = locals_k(2, &[&[10, 20], &[90, 80], &[50, 60], &[70, 1], &[2, 3]]);
        let out = run_distributed(&config, &locals, NetworkKind::InMemory, 9).unwrap();
        assert_eq!(out.per_node_results.len(), 5);
        for r in &out.per_node_results {
            assert_eq!(r, out.transcript.result());
        }
        assert_eq!(
            out.transcript.result().as_slice(),
            &[Value::new(90), Value::new(80)]
        );
    }

    #[test]
    fn message_count_matches_cost_model() {
        // n messages per round, plus the termination circulation: the
        // starting node's Finished plus n-2 forwards (the last node does
        // not forward back to the start).
        let config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(4));
        let locals = locals_k(1, &[&[1], &[2], &[3]]);
        let out = run_distributed(&config, &locals, NetworkKind::InMemory, 1).unwrap();
        assert_eq!(out.messages_sent, 3 * 4 + 2);
        assert!(out.bytes_sent > 0);
    }

    #[test]
    fn distributed_over_tcp_converges() {
        let config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(5));
        let locals = locals_k(1, &[&[42], &[17], &[99], &[3]]);
        let out = run_distributed(&config, &locals, NetworkKind::Tcp, 13).unwrap();
        assert_eq!(out.transcript.result_value(), Value::new(99));
        for r in &out.per_node_results {
            assert_eq!(r.first(), Value::new(99));
        }
    }

    #[test]
    fn remap_rejected_by_distributed_driver() {
        let config = ProtocolConfig::max()
            .with_remap_each_round(true)
            .with_rounds(RoundPolicy::Fixed(3));
        let locals = locals_k(1, &[&[1], &[2], &[3]]);
        assert!(run_distributed(&config, &locals, NetworkKind::InMemory, 0).is_err());
    }

    #[test]
    fn protocol_survives_lossy_network() {
        // 20% frame loss in every direction; the reliability layer heals
        // it and the transcript is identical to the lossless run.
        let config = ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(6));
        let locals = locals_k(2, &[&[900, 100], &[800, 50], &[700, 25], &[600, 10]]);
        let clean = run_distributed(&config, &locals, NetworkKind::InMemory, 21).unwrap();
        let lossy = run_distributed(
            &config,
            &locals,
            NetworkKind::LossyInMemory {
                drop_probability: 0.2,
            },
            21,
        )
        .unwrap();
        assert_eq!(clean.transcript.steps(), lossy.transcript.steps());
        // The healed run necessarily sent more frames (retransmits + acks).
        assert!(lossy.messages_sent > clean.messages_sent);
    }

    #[test]
    fn recovery_reconstructs_after_single_crash() {
        // Node 2 dies at the start of round 3; survivors time out, the
        // ring is rebuilt without it, and the query completes over the
        // remaining data.
        let config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(5));
        let locals = locals_k(1, &[&[300], &[100], &[900], &[500], &[200]]);
        let crashes = CrashSchedule::none().crash(NodeId::new(2), 3);
        let out = run_with_recovery(
            &config,
            &locals,
            NetworkKind::InMemory,
            7,
            &crashes,
            Duration::from_millis(200),
            3,
        )
        .unwrap();
        assert_eq!(out.attempts, 2);
        assert_eq!(out.excluded, vec![NodeId::new(2)]);
        assert_eq!(out.survivors.len(), 4);
        assert!(!out.survivors.contains(&NodeId::new(2)));
        // The maximum among survivors is 500 (900 died with node 2).
        assert_eq!(out.outcome.transcript.result_value(), Value::new(500));
    }

    #[test]
    fn recovery_handles_multiple_crashes_across_attempts() {
        let config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(4));
        let locals = locals_k(1, &[&[10], &[20], &[30], &[40], &[50], &[60]]);
        // Two nodes die in the first attempt (both hit their round), and
        // the retry succeeds.
        let crashes = CrashSchedule::none()
            .crash(NodeId::new(0), 2)
            .crash(NodeId::new(5), 2);
        let out = run_with_recovery(
            &config,
            &locals,
            NetworkKind::InMemory,
            3,
            &crashes,
            Duration::from_millis(200),
            4,
        )
        .unwrap();
        assert!(out.excluded.contains(&NodeId::new(0)));
        assert!(out.excluded.contains(&NodeId::new(5)));
        assert_eq!(out.outcome.transcript.result_value(), Value::new(50));
    }

    #[test]
    fn recovery_without_crashes_is_single_attempt() {
        let config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(3));
        let locals = locals_k(1, &[&[1], &[2], &[3]]);
        let out = run_with_recovery(
            &config,
            &locals,
            NetworkKind::InMemory,
            1,
            &CrashSchedule::none(),
            Duration::from_secs(5),
            3,
        )
        .unwrap();
        assert_eq!(out.attempts, 1);
        assert!(out.excluded.is_empty());
    }

    #[test]
    fn recovery_refuses_to_shrink_below_three() {
        let config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(3));
        let locals = locals_k(1, &[&[1], &[2], &[3]]);
        let crashes = CrashSchedule::none().crash(NodeId::new(1), 2);
        assert!(matches!(
            run_with_recovery(
                &config,
                &locals,
                NetworkKind::InMemory,
                1,
                &crashes,
                Duration::from_millis(200),
                3,
            ),
            Err(ProtocolError::TooFewNodes { .. })
        ));
    }

    #[test]
    fn validates_node_count() {
        let config = ProtocolConfig::max();
        let locals = locals_k(1, &[&[1], &[2]]);
        assert!(matches!(
            run_distributed(&config, &locals, NetworkKind::InMemory, 0),
            Err(ProtocolError::TooFewNodes { .. })
        ));
    }

    #[test]
    fn batch_of_one_matches_solo_run_exactly() {
        let config = ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(5));
        let locals = locals_k(2, &[&[900, 100], &[800, 50], &[700, 25], &[600, 10]]);
        let solo = run_distributed(&config, &locals, NetworkKind::InMemory, 31).unwrap();
        let batch =
            run_distributed_batch(&[BatchJob::new(config, locals, 31)], NetworkKind::InMemory)
                .unwrap();
        assert_eq!(batch.groups, 1);
        assert_eq!(batch.transcripts[0], solo.transcript);
        assert_eq!(batch.per_node_results[0], solo.per_node_results);
        // A batch of one sends exactly the solo frame count, one logical
        // message per frame.
        assert_eq!(batch.frames_sent, solo.messages_sent);
        assert_eq!(batch.logical_messages, solo.messages_sent);
    }

    #[test]
    fn compact_b64_mean_frame_under_budget() {
        // Frame-budget smoke, run by name from scripts/ci.sh: the B=64
        // sweep shape of the throughput bench (n = 6, k = 4, 8 rounds)
        // previously averaged 2312.6 B per frame under the fixed-width
        // codec; the compact codec must stay under half of that.
        use rand::Rng;
        let (n, k) = (6, 4);
        let domain = ValueDomain::paper_default();
        let mut rng = privtopk_domain::rng::SeedSpec::new(24301).rng();
        let locals: Vec<TopKVector> = (0..n)
            .map(|_| {
                let values: Vec<Value> = (0..k)
                    .map(|_| Value::new(rng.gen_range(domain.as_range())))
                    .collect();
                TopKVector::from_values(k, values, &domain).unwrap()
            })
            .collect();
        let config = ProtocolConfig::topk(k).with_rounds(RoundPolicy::Fixed(8));
        let jobs: Vec<BatchJob> = (0..64u64)
            .map(|q| {
                BatchJob::new(
                    config.clone(),
                    locals.clone(),
                    crate::derive_batch_seed(24301, q),
                )
            })
            .collect();
        let out = run_distributed_batch(&jobs, NetworkKind::InMemory).unwrap();
        let mean = out.bytes_sent as f64 / out.frames_sent as f64;
        assert!(
            mean < 1156.3,
            "B=64 mean frame {mean:.1} B exceeds the 50% compact budget"
        );
    }

    #[test]
    fn heterogeneous_batch_matches_each_solo_run() {
        // Eight jobs mixing algorithms, round counts and seeds; the
        // RandomAnonymous start policy derives a different ring order per
        // seed, so this exercises multi-group partitioning.
        let max_locals = locals_k(1, &[&[300], &[100], &[900], &[500]]);
        let topk_locals = locals_k(2, &[&[900, 400], &[850, 300], &[700, 650], &[20, 15]]);
        let jobs: Vec<BatchJob> = (0..8u64)
            .map(|i| {
                if i % 2 == 0 {
                    BatchJob::new(
                        ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(5)),
                        max_locals.clone(),
                        100 + i,
                    )
                } else {
                    BatchJob::new(
                        ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(7)),
                        topk_locals.clone(),
                        200 + i,
                    )
                }
            })
            .collect();
        let batch = run_distributed_batch(&jobs, NetworkKind::InMemory).unwrap();
        assert!(batch.groups > 1, "mixed rounds must split into groups");
        for (i, job) in jobs.iter().enumerate() {
            let solo =
                run_distributed(&job.config, &job.locals, NetworkKind::InMemory, job.seed).unwrap();
            assert_eq!(batch.transcripts[i], solo.transcript, "job {i}");
            assert_eq!(batch.per_node_results[i], solo.per_node_results, "job {i}");
        }
    }

    #[test]
    fn fixed_start_batch_shares_frames_across_queries() {
        // 64 homogeneous fixed-start queries form a single lock-step
        // group: the frame count is that of ONE solo run, while logical
        // messages scale with the batch width.
        let config = ProtocolConfig::max()
            .with_start(StartPolicy::Fixed)
            .with_rounds(RoundPolicy::Fixed(4));
        let locals = locals_k(1, &[&[1], &[2], &[3]]);
        let jobs: Vec<BatchJob> = (0..64u64)
            .map(|i| BatchJob::new(config.clone(), locals.clone(), 1000 + i))
            .collect();
        let batch = run_distributed_batch(&jobs, NetworkKind::InMemory).unwrap();
        assert_eq!(batch.groups, 1);
        let solo_frames = 3 * 4 + 2; // cost model: n*rounds + (n-1)
        assert_eq!(batch.frames_sent, solo_frames);
        assert_eq!(batch.logical_messages, 64 * solo_frames);
        // Piggybacking beats 64 separate wires on bytes too: the shared
        // per-frame envelope is paid once per hop.
        let solo = run_distributed(&config, &locals, NetworkKind::InMemory, 1000).unwrap();
        assert!(batch.bytes_sent < 64 * solo.bytes_sent);
        // Spot-check determinism across the batch.
        for i in [0usize, 31, 63] {
            let solo =
                run_distributed(&config, &locals, NetworkKind::InMemory, jobs[i].seed).unwrap();
            assert_eq!(batch.transcripts[i], solo.transcript, "job {i}");
        }
    }

    #[test]
    fn batch_rejects_mixed_node_counts() {
        let config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(3));
        let jobs = vec![
            BatchJob::new(config.clone(), locals_k(1, &[&[1], &[2], &[3]]), 1),
            BatchJob::new(config, locals_k(1, &[&[1], &[2], &[3], &[4]]), 2),
        ];
        assert!(matches!(
            run_distributed_batch(&jobs, NetworkKind::InMemory),
            Err(ProtocolError::InvalidBatch { .. })
        ));
    }

    #[test]
    fn batch_survives_lossy_network() {
        let config = ProtocolConfig::topk(2)
            .with_start(StartPolicy::Fixed)
            .with_rounds(RoundPolicy::Fixed(4));
        let locals = locals_k(2, &[&[900, 100], &[800, 50], &[700, 25]]);
        let jobs: Vec<BatchJob> = (0..4u64)
            .map(|i| BatchJob::new(config.clone(), locals.clone(), 40 + i))
            .collect();
        let clean = run_distributed_batch(&jobs, NetworkKind::InMemory).unwrap();
        let lossy = run_distributed_batch(
            &jobs,
            NetworkKind::LossyInMemory {
                drop_probability: 0.2,
            },
        )
        .unwrap();
        assert_eq!(clean.transcripts, lossy.transcripts);
        assert!(lossy.frames_sent > clean.frames_sent);
    }
}
