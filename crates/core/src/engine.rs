//! The synchronous simulation engine: runs any configured protocol over an
//! in-process ring and records a full [`Transcript`].

use privtopk_domain::rng::SeedSpec;
use privtopk_domain::{TopKVector, Value};
use privtopk_observe::{Ctx, Phase, Recorder};
use privtopk_ring::RingTopology;

use crate::local::{max_step, topk_step_scratch, TopkScratch};
use crate::{
    AlgorithmKind, BatchJob, ProtocolConfig, ProtocolError, StartPolicy, StepRecord, Transcript,
};

/// Seed stream tags, shared with the wire drivers so every execution
/// mode derives identical randomness.
pub(crate) const STREAM_TOPOLOGY: u64 = 0x10;
pub(crate) const STREAM_NODE: u64 = 0x20;
const STREAM_REMAP: u64 = 0x30;

/// Executes a protocol configuration over in-process nodes, deterministic
/// under a seed.
///
/// This driver is what the experiments use: it is exact (same local
/// algorithms as the distributed runner), single-threaded, allocation-light
/// and fully reproducible. For execution over real transports see
/// [`crate::distributed`].
///
/// # Example
///
/// ```
/// use privtopk_core::{ProtocolConfig, RoundPolicy, SimulationEngine};
/// use privtopk_domain::Value;
///
/// let engine = SimulationEngine::new(
///     ProtocolConfig::max().with_rounds(RoundPolicy::Precision { epsilon: 1e-6 }),
/// );
/// let values = [30i64, 10, 40, 20].map(Value::new);
/// let transcript = engine.run_values(&values, 7)?;
/// assert_eq!(transcript.result_value(), Value::new(40));
/// # Ok::<(), privtopk_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimulationEngine {
    config: ProtocolConfig,
    recorder: Recorder,
}

impl SimulationEngine {
    /// Wraps a configuration (telemetry disabled).
    #[must_use]
    pub fn new(config: ProtocolConfig) -> Self {
        SimulationEngine {
            config,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a telemetry recorder: every hop is timed as a
    /// [`Phase::Step`] span. Recording never touches the protocol's seeded
    /// RNG streams, so transcripts are bit-identical with or without it.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Runs the protocol over one local top-k vector per node
    /// (`locals[i]` belongs to `NodeId(i)`).
    ///
    /// # Errors
    ///
    /// - Configuration errors from [`ProtocolConfig::validate`] /
    ///   [`ProtocolConfig::resolve_rounds`].
    /// - [`ProtocolError::InconsistentK`] if a local vector's `k` differs
    ///   from the configured `k`.
    pub fn run(&self, locals: &[TopKVector], seed: u64) -> Result<Transcript, ProtocolError> {
        self.run_ctx(locals, seed, Ctx::EMPTY)
    }

    /// [`SimulationEngine::run`] with shared telemetry coordinates for
    /// every hop — how composite executions (the §4.2 grouped run) keep
    /// their sub-protocols distinguishable in one recorder.
    pub(crate) fn run_ctx(
        &self,
        locals: &[TopKVector],
        seed: u64,
        base_ctx: Ctx,
    ) -> Result<Transcript, ProtocolError> {
        let mut state =
            SimJobState::prepare(&self.config, locals, seed, self.recorder.clone(), base_ctx)?;
        // Reused across all n × rounds hops so the merge never reallocates.
        let mut scratch = TopkScratch::new();
        for round in 1..=state.rounds {
            state.advance_round(round, &mut scratch)?;
        }
        Ok(state.finish())
    }

    /// Convenience for `k = 1` protocols: one scalar per node.
    ///
    /// # Errors
    ///
    /// As for [`SimulationEngine::run`], plus domain errors if a value
    /// lies outside the configured domain.
    pub fn run_values(&self, values: &[Value], seed: u64) -> Result<Transcript, ProtocolError> {
        let domain = self.config.domain();
        let locals = values
            .iter()
            .map(|&v| TopKVector::from_values(self.config.k(), [v], &domain))
            .collect::<Result<Vec<_>, _>>()?;
        self.run(&locals, seed)
    }
}

/// The in-flight state of one simulated protocol execution, advanced one
/// round at a time.
///
/// Both [`SimulationEngine::run`] and [`run_simulated_batch`] drive this
/// same state machine, which is what makes a batched query's transcript
/// bit-identical to its solo run: the per-round code path is literally the
/// same, and all randomness is private to the job.
struct SimJobState<'a> {
    config: &'a ProtocolConfig,
    locals: &'a [TopKVector],
    n: usize,
    rounds: u32,
    topology: RingTopology,
    remap_rng: rand::rngs::SmallRng,
    node_rngs: Vec<rand::rngs::SmallRng>,
    has_inserted: Vec<bool>,
    global: TopKVector,
    steps: Vec<StepRecord>,
    ring_orders: Vec<Vec<privtopk_domain::NodeId>>,
    recorder: Recorder,
    /// Telemetry coordinates shared by every hop of this job (e.g. the
    /// query index of a batched run).
    base_ctx: Ctx,
}

impl<'a> SimJobState<'a> {
    fn prepare(
        config: &'a ProtocolConfig,
        locals: &'a [TopKVector],
        seed: u64,
        recorder: Recorder,
        base_ctx: Ctx,
    ) -> Result<Self, ProtocolError> {
        let n = locals.len();
        config.validate(n)?;
        for local in locals {
            if local.k() != config.k() {
                return Err(ProtocolError::InconsistentK {
                    expected: config.k(),
                    got: local.k(),
                });
            }
        }
        let rounds = config.resolve_rounds()?;
        let spec = SeedSpec::new(seed);

        let topology = match config.start() {
            StartPolicy::Fixed => RingTopology::identity(n)?,
            StartPolicy::RandomAnonymous => {
                RingTopology::random(n, &mut spec.stream(STREAM_TOPOLOGY).rng())?
            }
        };
        let remap_rng = spec.stream(STREAM_REMAP).rng();
        let node_rngs: Vec<_> = (0..n)
            .map(|i| spec.stream(STREAM_NODE).stream(i as u64).rng())
            .collect();
        let global = TopKVector::floor(config.k(), &config.domain());
        let ring_orders = vec![topology.order().to_vec()];
        Ok(SimJobState {
            config,
            locals,
            n,
            rounds,
            topology,
            remap_rng,
            node_rngs,
            has_inserted: vec![false; n],
            global,
            steps: Vec::with_capacity(n * rounds as usize),
            ring_orders,
            recorder,
            base_ctx,
        })
    }

    fn advance_round(
        &mut self,
        round: u32,
        scratch: &mut TopkScratch,
    ) -> Result<(), ProtocolError> {
        if round > 1 && self.config.remap_each_round() {
            self.topology.remap(&mut self.remap_rng);
            self.ring_orders.push(self.topology.order().to_vec());
        }
        let domain = self.config.domain();
        let probability = self.config.schedule().probability(round);
        for position in 0..self.n {
            let step_started = self.recorder.clock();
            let node = self
                .topology
                .node_at(privtopk_domain::RingPosition::new(position))?;
            let idx = node.get();
            // `replaced` is the new global state when the step changed
            // it; `None` forwards the current state unchanged. Keeping
            // the distinction lets the common pass-on hop record the
            // step with one clone instead of three.
            let (replaced, action) = match self.config.algorithm() {
                AlgorithmKind::Max => {
                    let step = max_step(
                        &mut self.node_rngs[idx],
                        probability,
                        self.global.first(),
                        self.locals[idx].first(),
                        &domain,
                    )?;
                    if step.output == self.global.first() {
                        (None, step.action)
                    } else {
                        (
                            Some(TopKVector::from_sorted(vec![step.output])?),
                            step.action,
                        )
                    }
                }
                AlgorithmKind::TopK => {
                    let outcome = topk_step_scratch(
                        &mut self.node_rngs[idx],
                        probability,
                        &self.global,
                        &self.locals[idx],
                        self.has_inserted[idx],
                        self.config.delta(),
                        &domain,
                        scratch,
                    )?;
                    self.has_inserted[idx] = outcome.has_inserted;
                    (outcome.output, outcome.action)
                }
            };
            let (incoming, outgoing) = match replaced {
                Some(output) => {
                    let incoming = std::mem::replace(&mut self.global, output);
                    (incoming, self.global.clone())
                }
                None => (self.global.clone(), self.global.clone()),
            };
            self.steps.push(StepRecord {
                round,
                position: privtopk_domain::RingPosition::new(position),
                node,
                incoming,
                outgoing,
                action,
            });
            self.recorder.record(
                Phase::Step,
                self.base_ctx
                    .with_node(idx as u32)
                    .with_round(round)
                    .with_hop(position as u32),
                step_started,
            );
        }
        Ok(())
    }

    fn finish(self) -> Transcript {
        Transcript::new(
            self.n,
            self.config.k(),
            self.rounds,
            self.ring_orders,
            self.steps,
            self.global,
        )
    }
}

/// Runs B independent queries through the simulation engine with a single
/// round-major sweep, returning one transcript per job (in job order).
///
/// Jobs may differ in configuration, node count, and round count; each
/// advances through its own state with its own RNG streams, so transcript
/// `i` is bit-identical to `SimulationEngine::new(jobs[i].config.clone())
/// .run(&jobs[i].locals, jobs[i].seed)`. What batching buys here is shared
/// scratch storage and a single cache-warm pass per round across all
/// queries — the simulation analogue of the distributed driver's
/// piggybacked frames.
///
/// # Errors
///
/// - [`ProtocolError::InvalidBatch`] for an empty or oversized batch.
/// - Any per-job configuration error, as for [`SimulationEngine::run`].
pub fn run_simulated_batch(jobs: &[BatchJob]) -> Result<Vec<Transcript>, ProtocolError> {
    run_simulated_batch_traced(jobs, &Recorder::disabled())
}

/// [`run_simulated_batch`] with telemetry: each hop is timed as a
/// [`Phase::Step`] span tagged with the job's batch index as the query
/// coordinate. Transcripts are unaffected by recording.
///
/// # Errors
///
/// As for [`run_simulated_batch`].
pub fn run_simulated_batch_traced(
    jobs: &[BatchJob],
    recorder: &Recorder,
) -> Result<Vec<Transcript>, ProtocolError> {
    crate::batch::validate_batch_shape(jobs)?;
    let mut states = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            SimJobState::prepare(
                &job.config,
                &job.locals,
                job.seed,
                recorder.clone(),
                Ctx::default().with_query(i as u64),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    let max_rounds = states.iter().map(|s| s.rounds).max().unwrap_or(0);
    let mut scratch = TopkScratch::new();
    for round in 1..=max_rounds {
        for state in &mut states {
            if round <= state.rounds {
                state.advance_round(round, &mut scratch)?;
            }
        }
    }
    Ok(states.into_iter().map(SimJobState::finish).collect())
}

/// Ground truth for tests and experiments: the true global top-k over all
/// nodes' full value multisets.
///
/// # Errors
///
/// Returns a domain error if `k == 0` or values fall outside `domain`.
pub fn true_topk(
    locals: &[TopKVector],
    k: usize,
    domain: &privtopk_domain::ValueDomain,
) -> Result<TopKVector, privtopk_domain::DomainError> {
    TopKVector::from_values(k, locals.iter().flat_map(TopKVector::iter), domain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalAction;
    use crate::{RoundPolicy, Schedule};
    use privtopk_domain::ValueDomain;

    fn domain() -> ValueDomain {
        ValueDomain::paper_default()
    }

    fn locals_k(k: usize, data: &[&[i64]]) -> Vec<TopKVector> {
        data.iter()
            .map(|vals| {
                TopKVector::from_values(k, vals.iter().copied().map(Value::new), &domain()).unwrap()
            })
            .collect()
    }

    #[test]
    fn max_converges_to_true_maximum() {
        let engine = SimulationEngine::new(
            ProtocolConfig::max().with_rounds(RoundPolicy::Precision { epsilon: 1e-9 }),
        );
        for seed in 0..30 {
            let t = engine
                .run_values(&[30, 10, 40, 20].map(Value::new), seed)
                .unwrap();
            assert_eq!(t.result_value(), Value::new(40), "seed {seed}");
        }
    }

    #[test]
    fn paper_walkthrough_figure_1() {
        // The Section 3.3 example: 4 nodes with values 30, 10, 40, 20 on a
        // fixed ring starting at node 0, p0 = 1, d = 1/2. The randomized
        // values differ from the paper's illustration (different RNG), but
        // the structure must match: round 1 is fully randomized, and the
        // result converges to 40.
        let config = ProtocolConfig::max()
            .with_start(StartPolicy::Fixed)
            .with_rounds(RoundPolicy::Fixed(12));
        let engine = SimulationEngine::new(config);
        let t = engine
            .run_values(&[30, 10, 40, 20].map(Value::new), 1)
            .unwrap();
        // Round 1, node 0 receives the domain floor and must randomize
        // below its value 30.
        let first = &t.steps()[0];
        assert_eq!(first.action, LocalAction::Randomized);
        assert!(first.outgoing.first() < Value::new(30));
        assert_eq!(t.result_value(), Value::new(40));
    }

    #[test]
    fn monotone_global_value_in_max_protocol() {
        let engine =
            SimulationEngine::new(ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(6)));
        let t = engine
            .run_values(&[500, 100, 900, 300, 700].map(Value::new), 3)
            .unwrap();
        let mut prev = Value::MIN;
        for s in t.steps() {
            assert!(s.outgoing.first() >= prev, "global value regressed");
            prev = s.outgoing.first();
        }
    }

    #[test]
    fn naive_protocol_single_round_exact() {
        let engine = SimulationEngine::new(ProtocolConfig::naive(1));
        let t = engine.run_values(&[5, 25, 15].map(Value::new), 0).unwrap();
        assert_eq!(t.rounds(), 1);
        assert_eq!(t.result_value(), Value::new(25));
        // Every step is deterministic: pass-on or real insert.
        assert!(t
            .steps()
            .iter()
            .all(|s| s.action != LocalAction::Randomized));
        // Fixed start: ring order is node order.
        assert_eq!(t.ring_order(1).unwrap()[0].get(), 0);
    }

    #[test]
    fn anonymous_naive_randomizes_start() {
        let engine = SimulationEngine::new(ProtocolConfig::anonymous_naive(1));
        let mut starts = std::collections::HashSet::new();
        for seed in 0..50 {
            let t = engine
                .run_values(&[5, 25, 15, 35].map(Value::new), seed)
                .unwrap();
            assert_eq!(t.result_value(), Value::new(35));
            starts.insert(t.ring_order(1).unwrap()[0]);
        }
        assert!(starts.len() >= 3, "start node should vary");
    }

    #[test]
    fn topk_converges_to_true_topk() {
        let locals = locals_k(
            3,
            &[
                &[900, 400, 100],
                &[850, 300, 50],
                &[700, 650, 10],
                &[200, 150, 120],
            ],
        );
        let truth = true_topk(&locals, 3, &domain()).unwrap();
        assert_eq!(
            truth.as_slice(),
            &[Value::new(900), Value::new(850), Value::new(700)]
        );
        let engine = SimulationEngine::new(
            ProtocolConfig::topk(3).with_rounds(RoundPolicy::Precision { epsilon: 1e-9 }),
        );
        for seed in 0..30 {
            let t = engine.run(&locals, seed).unwrap();
            assert_eq!(t.result(), &truth, "seed {seed}");
        }
    }

    #[test]
    fn topk_with_duplicates_across_nodes() {
        // Two nodes hold the same value; the true top-2 contains it twice.
        let locals = locals_k(2, &[&[500, 1], &[500, 1], &[400, 1]]);
        let engine = SimulationEngine::new(
            ProtocolConfig::topk(2).with_rounds(RoundPolicy::Precision { epsilon: 1e-9 }),
        );
        let t = engine.run(&locals, 11).unwrap();
        assert_eq!(t.result().as_slice(), &[Value::new(500), Value::new(500)]);
    }

    #[test]
    fn deterministic_under_seed() {
        let engine = SimulationEngine::new(ProtocolConfig::max());
        let values = [3, 14, 15, 92, 65].map(Value::new);
        let a = engine.run_values(&values, 99).unwrap();
        let b = engine.run_values(&values, 99).unwrap();
        assert_eq!(a, b);
        let c = engine.run_values(&values, 100).unwrap();
        assert!(a.steps() != c.steps(), "different seed, different path");
    }

    #[test]
    fn transcript_shape_matches_configuration() {
        let engine =
            SimulationEngine::new(ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(5)));
        let locals = locals_k(2, &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let t = engine.run(&locals, 4).unwrap();
        assert_eq!(t.n(), 4);
        assert_eq!(t.k(), 2);
        assert_eq!(t.rounds(), 5);
        assert_eq!(t.message_count(), 20);
        assert_eq!(t.steps_in_round(3).count(), 4);
    }

    #[test]
    fn rejects_inconsistent_local_k() {
        let engine = SimulationEngine::new(ProtocolConfig::topk(3));
        let locals = locals_k(2, &[&[1], &[2], &[3]]);
        assert!(matches!(
            engine.run(&locals, 0),
            Err(ProtocolError::InconsistentK {
                expected: 3,
                got: 2
            })
        ));
    }

    #[test]
    fn rejects_too_few_nodes_for_probabilistic() {
        let engine = SimulationEngine::new(ProtocolConfig::max());
        assert!(matches!(
            engine.run_values(&[1, 2].map(Value::new), 0),
            Err(ProtocolError::TooFewNodes { .. })
        ));
    }

    #[test]
    fn remap_each_round_changes_ring_orders() {
        let engine = SimulationEngine::new(
            ProtocolConfig::max()
                .with_remap_each_round(true)
                .with_rounds(RoundPolicy::Fixed(6)),
        );
        let t = engine
            .run_values(&[10, 20, 30, 40, 50, 60, 70, 80].map(Value::new), 5)
            .unwrap();
        let orders: Vec<_> = (1..=6).map(|r| t.ring_order(r).unwrap().to_vec()).collect();
        assert!(
            orders.windows(2).any(|w| w[0] != w[1]),
            "remapping should change the ring at least once"
        );
        assert_eq!(t.result_value(), Value::new(80));
    }

    #[test]
    fn p0_zero_equivalent_schedule_reduces_to_naive() {
        // "if we set the initial randomization probability to be 0, the
        // protocol is reduced to the naive deterministic protocol".
        let engine = SimulationEngine::new(
            ProtocolConfig::max()
                .with_schedule(Schedule::Never)
                .with_rounds(RoundPolicy::Fixed(1))
                .with_start(StartPolicy::Fixed),
        );
        let t = engine.run_values(&[8, 6, 7, 5].map(Value::new), 0).unwrap();
        assert_eq!(t.result_value(), Value::new(8));
        assert!(t
            .steps()
            .iter()
            .all(|s| s.action != LocalAction::Randomized));
    }

    #[test]
    fn all_equal_values_resolve_without_randomizing_forever() {
        let engine =
            SimulationEngine::new(ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(8)));
        let t = engine
            .run_values(&[100, 100, 100].map(Value::new), 2)
            .unwrap();
        assert_eq!(t.result_value(), Value::new(100));
    }

    #[test]
    fn simulated_batch_matches_solo_runs_exactly() {
        // Heterogeneous batch: different algorithms, k, round counts, node
        // counts and seeds — every transcript must equal its solo run.
        let max_cfg = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(5));
        let topk_cfg = ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(8));
        let jobs = vec![
            crate::BatchJob::new(
                max_cfg.clone(),
                locals_k(1, &[&[300], &[100], &[900], &[500]]),
                11,
            ),
            crate::BatchJob::new(
                topk_cfg.clone(),
                locals_k(2, &[&[10, 20], &[90, 80], &[50, 60]]),
                22,
            ),
            crate::BatchJob::new(max_cfg.clone(), locals_k(1, &[&[7], &[8], &[9]]), 33),
        ];
        let batched = run_simulated_batch(&jobs).unwrap();
        assert_eq!(batched.len(), 3);
        for (job, transcript) in jobs.iter().zip(&batched) {
            let solo = SimulationEngine::new(job.config.clone())
                .run(&job.locals, job.seed)
                .unwrap();
            assert_eq!(transcript, &solo);
        }
    }

    #[test]
    fn traced_run_is_bit_identical_and_counts_every_hop() {
        let config = ProtocolConfig::topk(2).with_rounds(RoundPolicy::Fixed(7));
        let locals = locals_k(2, &[&[10, 20], &[90, 80], &[50, 60], &[70, 30]]);
        let plain = SimulationEngine::new(config.clone())
            .run(&locals, 42)
            .unwrap();
        let recorder = Recorder::new();
        let traced = SimulationEngine::new(config)
            .with_recorder(recorder.clone())
            .run(&locals, 42)
            .unwrap();
        assert_eq!(plain, traced, "recording must not perturb the protocol");
        // One Step span per hop: n * rounds.
        assert_eq!(recorder.phase(Phase::Step).count, 4 * 7);
        assert_eq!(recorder.events_recorded(), 4 * 7);
    }

    #[test]
    fn traced_batch_tags_hops_with_query_index() {
        let cfg = ProtocolConfig::max().with_rounds(RoundPolicy::Fixed(3));
        let jobs = vec![
            crate::BatchJob::new(cfg.clone(), locals_k(1, &[&[3], &[1], &[2]]), 1),
            crate::BatchJob::new(cfg.clone(), locals_k(1, &[&[9], &[8], &[7]]), 2),
        ];
        let recorder = Recorder::new();
        let traced = run_simulated_batch_traced(&jobs, &recorder).unwrap();
        assert_eq!(traced, run_simulated_batch(&jobs).unwrap());
        assert_eq!(recorder.phase(Phase::Step).count, 2 * 3 * 3);
        let trace = recorder.trace_jsonl();
        assert!(trace.contains("\"query\":0"));
        assert!(trace.contains("\"query\":1"));
    }

    #[test]
    fn empty_batch_rejected() {
        assert!(matches!(
            run_simulated_batch(&[]),
            Err(ProtocolError::InvalidBatch { .. })
        ));
    }

    #[test]
    fn single_value_nodes_with_floor_padding() {
        // Nodes with fewer than k values participate with floor padding.
        let locals = locals_k(3, &[&[500], &[400, 300], &[200]]);
        let engine = SimulationEngine::new(
            ProtocolConfig::topk(3).with_rounds(RoundPolicy::Precision { epsilon: 1e-9 }),
        );
        let t = engine.run(&locals, 8).unwrap();
        assert_eq!(
            t.result().as_slice(),
            &[Value::new(500), Value::new(400), Value::new(300)]
        );
    }
}
