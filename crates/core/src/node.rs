//! The per-node protocol machine: one node's part in one query, with no
//! transport attached.
//!
//! The paper's protocol (Section 3, Algorithms 1 and 2) gives every node
//! one rule: take the predecessor's vector, run the local step for round
//! `r`, pass the result on, and in the termination round pass the final
//! answer once around the ring. [`NodeMachine`] is that rule, written
//! once. It takes `(from, TokenMessage)` and hands back the message to
//! forward and, once the node is done, what it learned.
//!
//! One driver puts the machine on a wire: the service worker loop
//! (`crate::service`), which runs standing services, one-shot queries and
//! batches alike. Each of its [`Slot`]s holds one machine per member
//! query: one for a service or solo query, one per query of a lock-step
//! batch group. The [`SimulationEngine`] stays the oracle: under the same
//! seed, every query's transcript equals its transcript.
//!
//! [`SimulationEngine`]: crate::SimulationEngine

use std::sync::Arc;

use privtopk_domain::rng::SeedSpec;
use privtopk_domain::{NodeId, RingPosition, TopKVector};
use privtopk_observe::{Ctx, Laps, Phase};
use privtopk_ring::{RingError, RingTopology};

use crate::engine::{STREAM_NODE, STREAM_TOPOLOGY};
use crate::local::{max_step, topk_step_scratch, TopkScratch};
use crate::messages::SlotPayload;
use crate::service::ServiceOutcome;
use crate::{
    AlgorithmKind, BatchMessage, ProtocolConfig, ProtocolError, StartPolicy, StepRecord,
    TokenMessage, Transcript,
};

/// The admission checks every wire entry point runs on a query, in one
/// fixed order: the configuration against the ring size, then `k`
/// agreement (`k_mismatch` is the entry point's own error for a local
/// snapshot of the wrong `k`, if there is one), then the refusal of
/// per-round remapping, which only the simulation engine supports.
pub(crate) fn check_query(
    config: &ProtocolConfig,
    n: usize,
    k_mismatch: Option<ProtocolError>,
) -> Result<(), ProtocolError> {
    config.validate(n)?;
    if let Some(error) = k_mismatch {
        return Err(error);
    }
    if config.remap_each_round() {
        return Err(ProtocolError::Ring(RingError::Decode {
            reason: "per-round remapping is not supported by the distributed driver",
        }));
    }
    Ok(())
}

/// The `InconsistentK` error for the first local snapshot whose `k` is
/// not `expected`, if there is one.
pub(crate) fn k_mismatch(expected: usize, locals: &[TopKVector]) -> Option<ProtocolError> {
    locals
        .iter()
        .find(|local| local.k() != expected)
        .map(|local| ProtocolError::InconsistentK {
            expected,
            got: local.k(),
        })
}

/// One admitted query's ring coordinates: everything a node needs to
/// open its machine for it.
pub(crate) struct SlotInit {
    /// The query id spans and reports carry (a batch entry's index).
    pub(crate) query: u64,
    pub(crate) config: Arc<ProtocolConfig>,
    pub(crate) topology: Arc<RingTopology>,
    pub(crate) rounds: u32,
    pub(crate) seed: u64,
}

impl SlotInit {
    /// Resolves the round count and derives the ring order from `seed`
    /// with the simulation engine's `STREAM_TOPOLOGY` derivation.
    pub(crate) fn new(
        query: u64,
        config: &ProtocolConfig,
        n: usize,
        seed: u64,
    ) -> Result<SlotInit, ProtocolError> {
        let rounds = config.resolve_rounds()?;
        let topology = Arc::new(match config.start() {
            StartPolicy::Fixed => RingTopology::identity(n)?,
            StartPolicy::RandomAnonymous => {
                RingTopology::random(n, &mut SeedSpec::new(seed).stream(STREAM_TOPOLOGY).rng())?
            }
        });
        Ok(SlotInit {
            query,
            config: Arc::new(config.clone()),
            topology,
            rounds,
            seed,
        })
    }
}

/// What one node learned from one query: its step log and result.
pub(crate) struct WorkerReport {
    pub(crate) node: NodeId,
    pub(crate) steps: Vec<StepRecord>,
    pub(crate) result: TopKVector,
}

/// Merges the n node reports of one query into its transcript and
/// per-node results: the one shape every wire driver's outcome takes,
/// and what the bit-identity tests compare.
pub(crate) fn assemble(init: &SlotInit, mut reports: Vec<WorkerReport>) -> ServiceOutcome {
    reports.sort_by_key(|r| r.node.get());
    let per_node_results: Vec<TopKVector> = reports.iter().map(|r| r.result.clone()).collect();
    let mut steps: Vec<StepRecord> = reports.into_iter().flat_map(|r| r.steps).collect();
    steps.sort_by_key(|s| (s.round, s.position.get()));
    let transcript = Transcript::new(
        init.topology.len(),
        init.config.k(),
        init.rounds,
        vec![init.topology.order().to_vec()],
        steps,
        per_node_results[0].clone(),
    );
    ServiceOutcome {
        transcript,
        per_node_results,
    }
}

/// Where a node stands in one query.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)] // every phase *is* a wait
enum SlotPhase {
    /// Waiting for `Token { round: expect }`; on arrival compute round
    /// `compute` (they differ only on the starting node, which consumes
    /// round r's closing token as input to round r + 1).
    AwaitToken { expect: u32, compute: u32 },
    /// Starting node, all rounds computed: waiting for the final round's
    /// closing token to initiate the termination circulation.
    AwaitClosing,
    /// Non-starting node, all rounds computed: waiting for the
    /// termination circulation.
    AwaitFinished,
}

/// What the machine asks of its driver after one input.
pub(crate) struct Hop {
    /// The message to send to the successor, if any.
    pub(crate) forward: Option<TokenMessage>,
    /// What the node learned, once its part in the query is over.
    pub(crate) result: Option<TopKVector>,
}

/// One node's protocol state for one query: its seed-derived RNG stream,
/// the top-k insertion flag, the step log and its place in the round
/// sequence. Advancing it never touches a transport, which is what keeps
/// every driver's transcript bit-identical to the simulation's.
pub(crate) struct NodeMachine {
    query: u64,
    config: Arc<ProtocolConfig>,
    local: TopKVector,
    rng: rand::rngs::SmallRng,
    has_inserted: bool,
    steps: Vec<StepRecord>,
    phase: SlotPhase,
    me: NodeId,
    position: RingPosition,
    predecessor: NodeId,
    successor: NodeId,
    rounds: u32,
    n: usize,
    /// Telemetry coordinates of every span about this machine: node,
    /// query id and ring position.
    ctx: Ctx,
}

impl NodeMachine {
    /// Opens node `me`'s machine for `init`, with the `STREAM_NODE` RNG
    /// derivation shared with the simulation engine.
    pub(crate) fn open(
        me: NodeId,
        local: TopKVector,
        init: &SlotInit,
    ) -> Result<NodeMachine, ProtocolError> {
        let topology = &init.topology;
        let position = topology.position_of(me)?;
        Ok(NodeMachine {
            query: init.query,
            config: Arc::clone(&init.config),
            local,
            rng: SeedSpec::new(init.seed)
                .stream(STREAM_NODE)
                .stream(me.get() as u64)
                .rng(),
            has_inserted: false,
            steps: Vec::with_capacity(init.rounds as usize),
            phase: SlotPhase::AwaitToken {
                expect: 1,
                compute: 1,
            },
            me,
            position,
            predecessor: topology.predecessor_of(me)?,
            successor: topology.successor_of(me)?,
            rounds: init.rounds,
            n: topology.len(),
            ctx: Ctx::default()
                .with_node(me.get() as u32)
                .with_query(init.query)
                .with_hop(position.get() as u32),
        })
    }

    /// The node every forwarded message goes to.
    pub(crate) fn successor(&self) -> NodeId {
        self.successor
    }

    /// The round this node computes next, if it has one left — the point
    /// at which a scheduled crash strikes.
    pub(crate) fn next_round(&self) -> Option<u32> {
        match self.phase {
            SlotPhase::AwaitToken { compute, .. } => Some(compute),
            SlotPhase::AwaitClosing | SlotPhase::AwaitFinished => None,
        }
    }

    /// The span context of a message this machine takes or forwards: its
    /// own coordinates plus, for a token, the token's round label.
    pub(crate) fn span_ctx(&self, msg: &TokenMessage) -> Ctx {
        match msg {
            TokenMessage::Token { round, .. } => self.ctx.with_round(*round),
            TokenMessage::Finished { .. } => self.ctx,
        }
    }

    /// The starting node's kick-off: it computes round 1 from the domain
    /// floor instead of receiving. Every other node has nothing to do
    /// until its predecessor's token arrives.
    pub(crate) fn kick_off(
        &mut self,
        scratch: &mut TopkScratch,
        laps: &mut Laps,
    ) -> Result<Hop, ProtocolError> {
        let forward = if self.position.is_start() {
            let floor = TopKVector::floor(self.config.k(), &self.config.domain());
            Some(self.compute(1, floor, scratch, laps)?)
        } else {
            None
        };
        Ok(Hop {
            forward,
            result: None,
        })
    }

    /// Takes one message from `from`. Anything a semi-honest ring never
    /// produces — a sender other than the predecessor, a wrong round
    /// label, a premature or missing termination — is a typed
    /// [`RingError::Decode`].
    ///
    /// `scratch` is the hop kernel's working memory; drivers keep one per
    /// thread and share it across every machine they hold. It carries no
    /// state between hops, so sharing cannot perturb transcripts.
    pub(crate) fn take(
        &mut self,
        from: NodeId,
        msg: TokenMessage,
        scratch: &mut TopkScratch,
        laps: &mut Laps,
    ) -> Result<Hop, ProtocolError> {
        if from != self.predecessor {
            return Err(decode_error("message from a non-predecessor node"));
        }
        match self.phase {
            SlotPhase::AwaitToken { expect, compute } => {
                let incoming = expect_token(msg, expect)?;
                Ok(Hop {
                    forward: Some(self.compute(compute, incoming, scratch, laps)?),
                    result: None,
                })
            }
            SlotPhase::AwaitClosing => {
                let result = expect_token(msg, self.rounds)?;
                Ok(Hop {
                    forward: Some(TokenMessage::Finished {
                        vector: result.clone(),
                    }),
                    result: Some(result),
                })
            }
            SlotPhase::AwaitFinished => {
                let TokenMessage::Finished { vector } = msg else {
                    return Err(decode_error("expected termination message"));
                };
                // Forward unless the successor is the starting node,
                // which initiated the circulation.
                let forward = (self.position.get() + 1 < self.n).then(|| TokenMessage::Finished {
                    vector: vector.clone(),
                });
                Ok(Hop {
                    forward,
                    result: Some(vector),
                })
            }
        }
    }

    /// Consumes the machine, yielding its step log.
    pub(crate) fn into_steps(self) -> Vec<StepRecord> {
        self.steps
    }

    /// Runs the local algorithm for `round` on `incoming`, logs the step
    /// and moves on to the next wait. The step is the hop's next lap, and
    /// its first when nothing was received (the starting node's kick-off).
    fn compute(
        &mut self,
        round: u32,
        incoming: TopKVector,
        scratch: &mut TopkScratch,
        laps: &mut Laps,
    ) -> Result<TokenMessage, ProtocolError> {
        laps.start();
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
                (
                    outcome.output.unwrap_or_else(|| incoming.clone()),
                    outcome.action,
                )
            }
        };
        self.steps.push(StepRecord {
            round,
            position: self.position,
            node: self.me,
            incoming,
            outgoing: outgoing.clone(),
            action,
        });
        laps.lap(Phase::Step, self.ctx.with_round(round));
        self.phase = self.phase_after(round);
        Ok(TokenMessage::Token {
            round,
            vector: outgoing,
        })
    }

    /// The phase entered after computing round `computed`.
    fn phase_after(&self, computed: u32) -> SlotPhase {
        let start = self.position.is_start();
        match (computed < self.rounds, start) {
            (false, true) => SlotPhase::AwaitClosing,
            (false, false) => SlotPhase::AwaitFinished,
            (true, _) => SlotPhase::AwaitToken {
                expect: if start { computed } else { computed + 1 },
                compute: computed + 1,
            },
        }
    }
}

/// One node's machines for one slot, in member order: a single query, or
/// every query of a lock-step batch group. A slot has at least one member.
pub(crate) struct Slot {
    machines: Vec<NodeMachine>,
}

/// What a slot asks of its driver after one input.
pub(crate) struct SlotHop {
    /// The payload to send to the successor, if any.
    pub(crate) forward: Option<SlotPayload>,
    /// Every member's result, once its queries are over at this node.
    pub(crate) results: Option<Vec<TopKVector>>,
}

impl Slot {
    pub(crate) fn new(machines: Vec<NodeMachine>) -> Slot {
        Slot { machines }
    }

    /// The member count: the logical messages each of the slot's frames
    /// carries.
    pub(crate) fn width(&self) -> usize {
        self.machines.len()
    }

    /// The node every forwarded payload goes to; members share a ring
    /// order.
    pub(crate) fn successor(&self) -> NodeId {
        self.machines[0].successor()
    }

    /// The round the members compute next; they share it in lock-step.
    pub(crate) fn next_round(&self) -> Option<u32> {
        self.machines[0].next_round()
    }

    /// The span context of a payload this slot takes or forwards: a
    /// token's is the member's own; a batch's is the members' shared node,
    /// ring position and round label, with no query id.
    pub(crate) fn span_ctx(&self, payload: &SlotPayload) -> Ctx {
        let first = &self.machines[0];
        match payload {
            SlotPayload::Token(msg) => first.span_ctx(msg),
            SlotPayload::Batch(BatchMessage::Tokens { round, .. }) => Ctx {
                query: None,
                ..first.ctx.with_round(*round)
            },
            SlotPayload::Batch(BatchMessage::Finished { .. }) => Ctx {
                query: None,
                ..first.ctx
            },
        }
    }

    /// Advances every member by one input: the kick-off for `None`, else
    /// a frame's payload from `from`. A lone member takes a token as is; a
    /// group splits a batch of its own width into one token per member and
    /// packs what they forward back into one batch. A payload of the wrong
    /// shape is a typed [`RingError::Decode`].
    pub(crate) fn advance(
        &mut self,
        input: Option<(NodeId, SlotPayload)>,
        scratch: &mut TopkScratch,
        laps: &mut Laps,
    ) -> Result<SlotHop, ProtocolError> {
        if let [machine] = self.machines.as_mut_slice() {
            let hop = match input {
                None => machine.kick_off(scratch, laps)?,
                Some((from, SlotPayload::Token(msg))) => machine.take(from, msg, scratch, laps)?,
                Some((_, SlotPayload::Batch(_))) => {
                    return Err(decode_error("batch frame for a one-query slot"))
                }
            };
            return Ok(SlotHop {
                forward: hop.forward.map(SlotPayload::Token),
                results: hop.result.map(|result| vec![result]),
            });
        }
        let hops: Vec<Hop> = match input {
            None => self
                .machines
                .iter_mut()
                .map(|machine| machine.kick_off(scratch, laps))
                .collect::<Result<_, _>>()?,
            Some((from, SlotPayload::Batch(batch))) if batch.len() == self.width() => self
                .machines
                .iter_mut()
                .zip(split(batch))
                .map(|(machine, token)| machine.take(from, token, scratch, laps))
                .collect::<Result<_, _>>()?,
            Some(_) => return Err(decode_error("batch width changed mid-flight")),
        };
        let (forwards, results): (Vec<_>, Vec<_>) = hops
            .into_iter()
            .map(|hop| (hop.forward, hop.result))
            .unzip();
        Ok(SlotHop {
            forward: pack(forwards)?.map(SlotPayload::Batch),
            results: results.into_iter().collect(),
        })
    }

    /// Consumes the slot: each member's query id and step log, with its
    /// result.
    pub(crate) fn into_reports(
        self,
        results: Vec<TopKVector>,
    ) -> impl Iterator<Item = (u64, Vec<StepRecord>, TopKVector)> {
        self.machines
            .into_iter()
            .zip(results)
            .map(|(machine, result)| (machine.query, machine.into_steps(), result))
    }
}

/// One batch frame as the per-entry tokens its members would have sent
/// alone.
fn split(batch: BatchMessage) -> Vec<TokenMessage> {
    match batch {
        BatchMessage::Tokens { round, vectors } => vectors
            .into_iter()
            .map(|vector| TokenMessage::Token { round, vector })
            .collect(),
        BatchMessage::Finished { vectors } => vectors
            .into_iter()
            .map(|vector| TokenMessage::Finished { vector })
            .collect(),
    }
}

/// Packs one lock-step hop's per-entry outputs back into a batch frame:
/// `None` when no entry forwards (the last node of the termination
/// circulation), an error if the entries disagree on what to send.
fn pack(forwards: Vec<Option<TokenMessage>>) -> Result<Option<BatchMessage>, ProtocolError> {
    let width = forwards.len();
    // `Some(round)` labels a token batch, `None` a termination batch.
    let mut label: Option<Option<u32>> = None;
    let mut vectors = Vec::with_capacity(width);
    for forward in forwards.into_iter().flatten() {
        let (round, vector) = match forward {
            TokenMessage::Token { round, vector } => (Some(round), vector),
            TokenMessage::Finished { vector } => (None, vector),
        };
        // An entry disagreeing with the first one's label is left out,
        // which the width check below turns into an error.
        if *label.get_or_insert(round) == round {
            vectors.push(vector);
        }
    }
    match label {
        None => Ok(None),
        Some(_) if vectors.len() != width => {
            Err(decode_error("batch entries fell out of lock-step"))
        }
        Some(Some(round)) => Ok(Some(BatchMessage::Tokens { round, vectors })),
        Some(None) => Ok(Some(BatchMessage::Finished { vectors })),
    }
}

fn expect_token(msg: TokenMessage, expect: u32) -> Result<TopKVector, ProtocolError> {
    match msg {
        TokenMessage::Token { round, vector } if round == expect => Ok(vector),
        TokenMessage::Token { .. } => Err(decode_error("unexpected round label")),
        TokenMessage::Finished { .. } => Err(decode_error("premature termination message")),
    }
}

fn decode_error(reason: &'static str) -> ProtocolError {
    ProtocolError::Ring(RingError::Decode { reason })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoundPolicy, SimulationEngine, StartPolicy};
    use privtopk_domain::rng::derive_seed;
    use privtopk_domain::{Value, ValueDomain};
    use rand::Rng;

    fn random_locals(n: usize, k: usize, rng: &mut impl Rng) -> Vec<TopKVector> {
        let domain = ValueDomain::paper_default();
        (0..n)
            .map(|_| {
                let values: Vec<Value> = (0..k + 2)
                    .map(|_| Value::new(rng.gen_range(domain.as_range())))
                    .collect();
                TopKVector::from_values(k, values, &domain).unwrap()
            })
            .collect()
    }

    #[test]
    fn bad_inputs_give_typed_errors_not_panics() {
        // Node 2 on a fixed-start ring of four: its predecessor is node 1
        // and it first expects round 1's token.
        let config = ProtocolConfig::topk(2)
            .with_start(StartPolicy::Fixed)
            .with_rounds(RoundPolicy::Fixed(3));
        let locals = random_locals(4, 2, &mut SeedSpec::new(3).rng());
        let init = SlotInit::new(0, &config, 4, 11).unwrap();
        let mut machine = NodeMachine::open(NodeId::new(2), locals[2].clone(), &init).unwrap();
        let mut scratch = TopkScratch::new();
        let mut laps = Laps::default();
        let token = |round| TokenMessage::Token {
            round,
            vector: locals[0].clone(),
        };
        let bad_inputs = [
            (NodeId::new(3), token(1)),
            (NodeId::new(1), token(2)),
            (
                NodeId::new(1),
                TokenMessage::Finished {
                    vector: locals[0].clone(),
                },
            ),
        ];
        for (from, msg) in bad_inputs {
            let label = format!("{msg:?} from {from:?}");
            assert!(
                matches!(
                    machine.take(from, msg, &mut scratch, &mut laps),
                    Err(ProtocolError::Ring(RingError::Decode { .. }))
                ),
                "{label} must be a typed decode error"
            );
        }
        // Refused inputs leave the machine where it was.
        let hop = machine
            .take(NodeId::new(1), token(1), &mut scratch, &mut laps)
            .unwrap();
        assert!(matches!(
            hop.forward,
            Some(TokenMessage::Token { round: 1, .. })
        ));
        assert_eq!(machine.into_steps().len(), 1);
    }

    #[test]
    fn slot_width_and_lockstep_mismatches_are_typed_errors() {
        // Node 2 of a fixed-start ring of four, in a one-member slot and in
        // a four-member group, each given a frame of the wrong shape.
        let config = ProtocolConfig::topk(2)
            .with_start(StartPolicy::Fixed)
            .with_rounds(RoundPolicy::Fixed(3));
        let locals = random_locals(4, 2, &mut SeedSpec::new(3).rng());
        let open = |width: u64| {
            let machines = (0..width)
                .map(|q| {
                    let init = SlotInit::new(q, &config, 4, 11 + q).unwrap();
                    NodeMachine::open(NodeId::new(2), locals[2].clone(), &init).unwrap()
                })
                .collect();
            Slot::new(machines)
        };
        let batch = |width| {
            SlotPayload::Batch(BatchMessage::Tokens {
                round: 1,
                vectors: vec![locals[0].clone(); width],
            })
        };
        let token = SlotPayload::Token(TokenMessage::Token {
            round: 1,
            vector: locals[0].clone(),
        });
        let mut scratch = TopkScratch::new();
        let mut laps = Laps::default();
        let predecessor = NodeId::new(1);
        let (mut one, mut group) = (open(1), open(4));
        for (width, payload) in [(1, batch(2)), (4, token), (4, batch(3))] {
            let slot = if width == 1 { &mut one } else { &mut group };
            let label = format!("{width}-member slot given {payload:?}");
            assert!(
                matches!(
                    slot.advance(Some((predecessor, payload)), &mut scratch, &mut laps),
                    Err(ProtocolError::Ring(RingError::Decode { .. }))
                ),
                "{label} must be a typed decode error"
            );
        }
        // Refused frames leave the group where it was.
        let hop = group
            .advance(Some((predecessor, batch(4))), &mut scratch, &mut laps)
            .unwrap();
        assert!(matches!(
            hop.forward,
            Some(SlotPayload::Batch(BatchMessage::Tokens { round: 1, ref vectors })) if vectors.len() == 4
        ));
        // Members forwarding a token and a termination in the same hop
        // have fallen out of lock-step.
        let torn = vec![
            Some(TokenMessage::Token {
                round: 2,
                vector: locals[0].clone(),
            }),
            Some(TokenMessage::Finished {
                vector: locals[0].clone(),
            }),
        ];
        assert!(matches!(
            pack(torn),
            Err(ProtocolError::Ring(RingError::Decode { .. }))
        ));
    }

    #[test]
    fn interleaved_queries_match_the_simulation() {
        // Eight queries share one thread, n machines each, mixing Max and
        // TopK, fixed and random-anonymous starts, and 2-5 rounds. A
        // seeded RNG picks which query's in-flight frame is delivered
        // next; whatever the interleaving, every transcript must equal
        // the simulation engine's for that query's seed, and every query
        // must cost the paper's n*r + n - 1 frames.
        const N: usize = 5;
        const QUERIES: usize = 8;
        let mut data = SeedSpec::new(0xD1CE).rng();
        let max_locals = random_locals(N, 1, &mut data);
        let topk_locals = random_locals(N, 3, &mut data);
        let queries: Vec<(ProtocolConfig, &[TopKVector])> = (0..QUERIES)
            .map(|q| {
                let (config, locals) = if q % 2 == 0 {
                    (ProtocolConfig::max(), &max_locals[..])
                } else {
                    (ProtocolConfig::topk(3), &topk_locals[..])
                };
                let start = if q / 2 % 2 == 0 {
                    StartPolicy::Fixed
                } else {
                    StartPolicy::RandomAnonymous
                };
                let rounds = RoundPolicy::Fixed(2 + (q % 4) as u32);
                (config.with_start(start).with_rounds(rounds), locals)
            })
            .collect();
        let mut scratch = TopkScratch::new();
        let mut laps = Laps::default();
        for schedule in 0..256u64 {
            let seeds: Vec<u64> = (0..QUERIES as u64)
                .map(|q| derive_seed(schedule, q))
                .collect();
            let inits: Vec<SlotInit> = queries
                .iter()
                .zip(&seeds)
                .enumerate()
                .map(|(q, ((config, _), &seed))| SlotInit::new(q as u64, config, N, seed).unwrap())
                .collect();
            let mut machines: Vec<Vec<NodeMachine>> = inits
                .iter()
                .zip(&queries)
                .map(|(init, (_, locals))| {
                    (0..N)
                        .map(|i| {
                            NodeMachine::open(NodeId::new(i), locals[i].clone(), init).unwrap()
                        })
                        .collect()
                })
                .collect();
            // A ring carries one frame per query at a time:
            // (query, from, to, message).
            let mut in_flight: Vec<(usize, NodeId, NodeId, TokenMessage)> = Vec::new();
            for (q, nodes) in machines.iter_mut().enumerate() {
                for machine in nodes.iter_mut() {
                    let hop = machine.kick_off(&mut scratch, &mut laps).unwrap();
                    if let Some(msg) = hop.forward {
                        in_flight.push((q, machine.me, machine.successor(), msg));
                    }
                }
            }
            let mut frames = [0u64; QUERIES];
            let mut results: Vec<Vec<Option<TopKVector>>> = vec![vec![None; N]; QUERIES];
            let mut pick = SeedSpec::new(schedule).rng();
            while !in_flight.is_empty() {
                let next = pick.gen_range(0..in_flight.len());
                let (q, from, to, msg) = in_flight.swap_remove(next);
                frames[q] += 1;
                let machine = &mut machines[q][to.get()];
                let hop = machine.take(from, msg, &mut scratch, &mut laps).unwrap();
                if let Some(msg) = hop.forward {
                    in_flight.push((q, to, machine.successor(), msg));
                }
                if let Some(result) = hop.result {
                    results[q][to.get()] = Some(result);
                }
            }
            for (q, nodes) in machines.into_iter().enumerate() {
                let reports = nodes
                    .into_iter()
                    .zip(&results[q])
                    .enumerate()
                    .map(|(i, (machine, result))| WorkerReport {
                        node: NodeId::new(i),
                        steps: machine.into_steps(),
                        result: result.clone().expect("every node learns the result"),
                    })
                    .collect();
                let outcome = assemble(&inits[q], reports);
                let (config, locals) = &queries[q];
                let sim = SimulationEngine::new(config.clone())
                    .run(locals, seeds[q])
                    .unwrap();
                assert_eq!(outcome.transcript, sim, "schedule {schedule}, query {q}");
                for result in &outcome.per_node_results {
                    assert_eq!(result, sim.result(), "schedule {schedule}, query {q}");
                }
                let (n, r) = (N as u64, u64::from(inits[q].rounds));
                assert_eq!(frames[q], n * r + n - 1, "schedule {schedule}, query {q}");
            }
        }
    }
}
