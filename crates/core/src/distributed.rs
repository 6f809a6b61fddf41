//! The distributed protocol entry points: one thread per private
//! database, communicating only through a [`Transport`]. Every run, solo
//! or batched, is one one-shot ring of service workers (`crate::service`),
//! the only driver of the per-node protocol machine (`crate::node`).
//!
//! This runs the *same* local algorithms as the
//! [`SimulationEngine`](crate::SimulationEngine) — with the same seed
//! derivation — so, over a losslessly ordered transport, a distributed
//! execution produces a transcript identical to the simulated one. That
//! equivalence is asserted by integration tests and is what justifies
//! running the large experiment sweeps in-process.

use std::sync::Arc;
use std::time::Duration;

use privtopk_domain::{NodeId, TopKVector};
use privtopk_observe::Recorder;
use privtopk_ring::chaos::{ChaosEndpoint, ChaosEvent, ChaosPlan, ChaosState};
use privtopk_ring::faults::ReliableEndpoint;
use privtopk_ring::transport::{InMemoryNetwork, TcpNetwork, Transport};
use privtopk_ring::{RingError, TransportMetrics};

use crate::service::run_once;
use crate::{BatchJob, ProtocolConfig, ProtocolError, Transcript};

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
    /// probability (one chaos loss window lasting the whole run), healed
    /// by a stop-and-wait reliability layer — the protocol runs
    /// unmodified over a lossy network.
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
/// - [`ProtocolError::Ring`] on transport failures or timeouts, and
///   [`RingError::Config`] inside it for a lossy drop probability
///   outside `[0, 1)`.
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
/// waits, hop computations and sends as
/// [`Phase`](privtopk_observe::Phase) spans, the lossy reliability layer
/// reports retransmissions and re-ACKs, and the transport counters are
/// absorbed into the recorder's registry when the run completes.
/// Recording never touches the seeded RNG streams or the wire content, so
/// the transcript is bit-identical to the untraced run.
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
    let job = BatchJob::new(config.clone(), locals.to_vec(), seed);
    run_once(
        &[job],
        network,
        &CrashSchedule::none(),
        RECV_TIMEOUT,
        recorder,
    )
    .map(DistributedBatchOutcome::into_solo)
    .map_err(|failure| failure.error)
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

/// Builds one endpoint per node over the requested substrate, plus the
/// network's shared metrics.
///
/// A drop probability outside `[0, 1)` (NaN included) is
/// [`RingError::Config`]: a link that drops everything never delivers.
pub(crate) fn build_endpoints(
    network: NetworkKind,
    n: usize,
    seed: u64,
    recorder: &Recorder,
) -> Result<(Vec<Box<dyn Transport>>, TransportMetrics), ProtocolError> {
    fn boxed<T: Transport + 'static>(endpoints: Vec<T>) -> Vec<Box<dyn Transport>> {
        endpoints
            .into_iter()
            .map(|e| Box::new(e) as Box<dyn Transport>)
            .collect()
    }
    Ok(match network {
        NetworkKind::InMemory => {
            let net = InMemoryNetwork::new(n);
            let metrics = net.metrics();
            (boxed(net.endpoints()), metrics)
        }
        NetworkKind::Tcp => {
            let net = TcpNetwork::bind(n)?;
            let metrics = net.metrics();
            (boxed(net.endpoints()?), metrics)
        }
        NetworkKind::LossyInMemory { drop_probability } => {
            if !(0.0..1.0).contains(&drop_probability) {
                return Err(RingError::Config {
                    reason: "lossy drop probability must be in [0, 1)",
                }
                .into());
            }
            let loss = ChaosEvent::LossWindow { drop_probability };
            let plan = ChaosPlan::new().with_incident(Duration::ZERO, Duration::MAX, loss);
            healed_endpoints(n, seed, recorder, &ChaosState::new(plan))
        }
    })
}

/// In-memory endpoints whose frames pass through a [`ChaosEndpoint`]
/// (seeded per node) beneath the stop-and-wait reliability layer: the
/// chaos state (a whole-run loss window or an incident schedule) drops
/// frames, the layer heals them, and both the metrics and the recorder
/// see every retransmission and re-ACK.
pub(crate) fn healed_endpoints(
    n: usize,
    seed: u64,
    recorder: &Recorder,
    state: &Arc<ChaosState>,
) -> (Vec<Box<dyn Transport>>, TransportMetrics) {
    let net = InMemoryNetwork::new(n);
    let metrics = net.metrics();
    let endpoints = net
        .endpoints()
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let lossy = ChaosEndpoint::new(e, Arc::clone(state), seed ^ (i as u64) << 8);
            let reliable =
                ReliableEndpoint::new(lossy).with_observer(metrics.clone(), recorder.clone());
            Box::new(reliable) as Box<dyn Transport>
        })
        .collect();
    (endpoints, metrics)
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

impl DistributedBatchOutcome {
    /// A batch of one, as its solo run reports it.
    fn into_solo(mut self) -> DistributedOutcome {
        DistributedOutcome {
            transcript: self.transcripts.swap_remove(0),
            per_node_results: self.per_node_results.swap_remove(0),
            messages_sent: self.logical_messages,
            bytes_sent: self.bytes_sent,
        }
    }
}

/// Runs B independent queries over one federation of `n` nodes, sharing
/// ring traversals wherever the jobs agree on topology and round count.
///
/// Jobs are partitioned into lock-step groups keyed by (resolved rounds,
/// ring order): within a group, one [`BatchMessage`](crate::BatchMessage)
/// per hop piggybacks every member query's token, so per-hop framing and
/// syscalls are amortized across the group. Every group is one slot of a
/// single one-shot ring, so all groups are in flight at once. Jobs with
/// [`StartPolicy::RandomAnonymous`](crate::StartPolicy::RandomAnonymous) derive their ring order from their own
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
    run_once(
        jobs,
        network,
        &CrashSchedule::none(),
        RECV_TIMEOUT,
        recorder,
    )
    .map_err(|failure| failure.error)
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
    let recorder = Recorder::disabled();
    for attempt in 1..=max_attempts.max(1) {
        // Project the original-id crash schedule into survivor space.
        let mut projected = CrashSchedule::none();
        for (idx, original) in current_ids.iter().enumerate() {
            if let Some(round) = crashes.round_for(*original) {
                projected = projected.crash(NodeId::new(idx), round);
            }
        }
        let attempt_seed = seed.wrapping_add(u64::from(attempt));
        let job = BatchJob::new(config.clone(), current_locals.clone(), attempt_seed);
        match run_once(&[job], network, &projected, worker_timeout, &recorder) {
            Ok(outcome) => {
                return Ok(RecoveryOutcome {
                    outcome: outcome.into_solo(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoundPolicy, SimulationEngine, StartPolicy};
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
    fn lossy_network_rejects_impossible_drop_probabilities() {
        // A link that drops every frame, or a probability that is not
        // one, is a typed configuration error on both entry points, not a
        // panic on the caller's thread.
        let config = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(2));
        let locals = locals_k(1, &[&[1], &[2], &[3]]);
        for drop_probability in [1.0, 1.5, -0.1, f64::NAN] {
            let network = NetworkKind::LossyInMemory { drop_probability };
            let solo = run_distributed(&config, &locals, network, 7);
            assert!(
                matches!(solo, Err(ProtocolError::Ring(RingError::Config { .. }))),
                "run_distributed at p = {drop_probability}: {solo:?}"
            );
            let service = crate::ServiceRuntime::start(&locals, network, 2);
            assert!(
                matches!(service, Err(ProtocolError::Ring(RingError::Config { .. }))),
                "ServiceRuntime::start at p = {drop_probability}"
            );
        }
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
    fn heterogeneous_batch_runs_on_one_ring_over_every_network() {
        // The jobs of `heterogeneous_batch_matches_each_solo_run`, with a
        // fixed start for the even ones: the four Max jobs (5 rounds) form
        // one group of four, and the four random-start TopK(2) jobs
        // (7 rounds) four one-member groups, all in flight on one ring.
        let max_locals = locals_k(1, &[&[300], &[100], &[900], &[500]]);
        let topk_locals = locals_k(2, &[&[900, 400], &[850, 300], &[700, 650], &[20, 15]]);
        let jobs: Vec<BatchJob> = (0..8u64)
            .map(|i| {
                if i % 2 == 0 {
                    BatchJob::new(
                        ProtocolConfig::max()
                            .with_start(StartPolicy::Fixed)
                            .with_rounds(RoundPolicy::Fixed(5)),
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
        let solo: Vec<DistributedOutcome> = jobs
            .iter()
            .map(|job| {
                run_distributed(&job.config, &job.locals, NetworkKind::InMemory, job.seed).unwrap()
            })
            .collect();
        let lossy = NetworkKind::LossyInMemory {
            drop_probability: 0.2,
        };
        for network in [NetworkKind::InMemory, NetworkKind::Tcp, lossy] {
            let batch = run_distributed_batch(&jobs, network).unwrap();
            assert_eq!(batch.groups, 5, "{network:?}");
            for (i, solo) in solo.iter().enumerate() {
                assert_eq!(batch.transcripts[i], solo.transcript, "{network:?} job {i}");
                assert_eq!(
                    batch.per_node_results[i], solo.per_node_results,
                    "{network:?} job {i}"
                );
            }
            if network != lossy {
                // n*r + n - 1 frames per group: 23 for the Max group, 31
                // for each TopK job; the group's frames carry four queries.
                assert_eq!(batch.frames_sent, 23 + 4 * 31, "{network:?}");
                assert_eq!(batch.logical_messages, 4 * 23 + 4 * 31, "{network:?}");
            }
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
