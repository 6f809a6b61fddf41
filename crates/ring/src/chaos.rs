//! Deterministic chaos scenarios: the one fault injector.
//!
//! Real outages are structured: a node crashes and the ring reconstructs
//! around it, a link partitions the ring in two, loss spikes for a
//! window and subsides. This module injects exactly those shapes, on a
//! seeded schedule, through a transport wrapper. Uniform loss is the
//! degenerate schedule: one [`ChaosEvent::LossWindow`] that starts at
//! `Duration::ZERO` and lasts `Duration::MAX`, which is how
//! `privtopk-core` builds its lossy in-memory network.
//!
//! - [`ChaosPlan`]: a list of timed [`ChaosIncident`]s (offset +
//!   duration + [`ChaosEvent`] kind), either hand-built or generated
//!   from a seed.
//! - [`ChaosState`]: the shared clock and drop arbiter every endpoint of
//!   one network consults, so all links agree on when an incident is
//!   active.
//! - [`ChaosEndpoint`]: the [`Transport`] wrapper that consults the
//!   state on every send. Stacked *under* a
//!   [`super::faults::ReliableEndpoint`], the reliability layer heals
//!   each incident with the retransmit/re-ACK storm the trace analyzer
//!   then attributes as healing cost.
//!
//! Chaos only delays delivery — frames are dropped and retransmitted
//! verbatim, and no protocol RNG stream is ever consulted — so query
//! transcripts stay bit-identical to a fault-free run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::Rng;

use privtopk_domain::rng::seeded_rng;
use privtopk_domain::NodeId;

use crate::transport::{Transport, Waker};
use crate::RingError;

/// The reliability layer's default healing budget:
/// `ReliableEndpoint::DEFAULT_ACK_TIMEOUT` (50 ms) times
/// `DEFAULT_MAX_RETRIES` (100). Chaos windows at or beyond this exhaust
/// the retransmission budget and turn an injected fault into a query
/// failure, so [`ChaosPlan::validate`] rejects them.
pub const DEFAULT_HEAL_BUDGET: Duration = Duration::from_secs(5);

/// How far apart [`ChaosPlan::seeded`] starts its windows. A window
/// lasts at most 299 ms, so at least 401 ms of quiet follows it: more than
/// the analyzer's default 200 ms incident gap plus the one 50 ms ACK
/// timeout that retries run past a window's end. Consecutive incidents
/// therefore never merge in the analysis.
const SEEDED_SPACING: Duration = Duration::from_millis(700);

/// What a [`ChaosIncident`] does to the network while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosEvent {
    /// The node crashes: every frame to or from it is dropped. When the
    /// window ends the node "restarts" and the reliability layer's
    /// retransmissions reconstruct the ring's traffic around the gap.
    NodeOutage {
        /// The crashed node's index.
        node: u32,
    },
    /// A link partition: frames crossing the cut between nodes `< cut`
    /// and nodes `>= cut` are dropped in both directions.
    Partition {
        /// The partition boundary (1..n).
        cut: u32,
    },
    /// A sustained loss window: every frame is dropped with this
    /// probability (seeded, per endpoint).
    LossWindow {
        /// Drop probability in `[0, 1)`.
        drop_probability: f64,
    },
}

impl ChaosEvent {
    /// A short human label (`outage(n2)`, `partition(@3)`, `loss(25%)`).
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            ChaosEvent::NodeOutage { node } => format!("outage(n{node})"),
            ChaosEvent::Partition { cut } => format!("partition(@{cut})"),
            ChaosEvent::LossWindow { drop_probability } => {
                format!("loss({:.0}%)", drop_probability * 100.0)
            }
        }
    }
}

/// One scheduled incident: an event active during
/// `[at, at + duration)` on the chaos clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosIncident {
    /// Offset from the chaos clock's start.
    pub at: Duration,
    /// How long the event stays active.
    pub duration: Duration,
    /// What happens.
    pub event: ChaosEvent,
}

/// A seeded schedule of incidents for one run.
///
/// Windows must heal within the reliability layer's retry budget
/// (`DEFAULT_ACK_TIMEOUT x DEFAULT_MAX_RETRIES` = 5 s); the seeded
/// generator keeps every window at a few hundred milliseconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosPlan {
    /// The scheduled incidents, in no particular order.
    pub incidents: Vec<ChaosIncident>,
}

impl ChaosPlan {
    /// An empty plan (chaos armed, nothing scheduled).
    #[must_use]
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Generates `count` incidents for an `n`-node ring from `seed`:
    /// kinds cycle crash -> partition -> loss (targets seeded), windows
    /// run 150-299 ms and start 700 ms apart, so each incident heals,
    /// and the analysis closes it, before the next begins.
    #[must_use]
    pub fn seeded(seed: u64, n: u32, count: usize) -> Self {
        let mut rng = seeded_rng(seed ^ 0xC4A0_5EED);
        let mut incidents = Vec::with_capacity(count);
        for index in 0..count {
            let at = Duration::from_millis(100) + SEEDED_SPACING * index as u32;
            let duration = Duration::from_millis(150 + rng.gen_range(0..150));
            let event = match index % 3 {
                0 => ChaosEvent::NodeOutage {
                    node: rng.gen_range(0..n.max(1)),
                },
                1 => ChaosEvent::Partition {
                    cut: rng.gen_range(1..n.max(2)),
                },
                _ => ChaosEvent::LossWindow {
                    drop_probability: 0.2 + f64::from(rng.gen_range(0..30)) / 100.0,
                },
            };
            incidents.push(ChaosIncident {
                at,
                duration,
                event,
            });
        }
        ChaosPlan { incidents }
    }

    /// Appends an incident (builder style).
    #[must_use]
    pub fn with_incident(mut self, at: Duration, duration: Duration, event: ChaosEvent) -> Self {
        self.incidents.push(ChaosIncident {
            at,
            duration,
            event,
        });
        self
    }

    /// When the last incident window closes (zero for an empty plan).
    #[must_use]
    pub fn horizon(&self) -> Duration {
        self.incidents
            .iter()
            .map(|i| i.at + i.duration)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Rejects plans the reliability layer cannot heal: any window at or
    /// beyond `budget` would exhaust the retransmission budget and turn
    /// an injected fault into a query failure.
    ///
    /// # Errors
    ///
    /// [`RingError::Config`] naming the offending window.
    pub fn validate(&self, budget: Duration) -> Result<(), RingError> {
        for incident in &self.incidents {
            if incident.duration >= budget {
                return Err(RingError::Config {
                    reason: "chaos window exceeds the reliability layer's healing budget",
                });
            }
            if let ChaosEvent::LossWindow { drop_probability } = incident.event {
                if !(0.0..1.0).contains(&drop_probability) {
                    return Err(RingError::Config {
                        reason: "chaos loss probability must be in [0, 1)",
                    });
                }
            }
        }
        Ok(())
    }
}

/// The shared arbiter: one per network, consulted by every
/// [`ChaosEndpoint`] on every send.
///
/// The chaos clock starts lazily at the first consulted send (or
/// eagerly via [`ChaosState::arm`]), so incident offsets count from
/// when traffic actually begins, not from construction.
#[derive(Debug)]
pub struct ChaosState {
    plan: ChaosPlan,
    epoch: OnceLock<Instant>,
    dropped: AtomicU64,
}

impl ChaosState {
    /// Wraps a plan for sharing across endpoints.
    #[must_use]
    pub fn new(plan: ChaosPlan) -> Arc<Self> {
        Arc::new(ChaosState {
            plan,
            epoch: OnceLock::new(),
            dropped: AtomicU64::new(0),
        })
    }

    /// The plan being executed.
    #[must_use]
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Starts the chaos clock now (idempotent).
    pub fn arm(&self) {
        let _ = self.epoch.get_or_init(Instant::now);
    }

    /// Time on the chaos clock (arms it on first use).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.epoch.get_or_init(Instant::now).elapsed()
    }

    /// Whether every incident window has closed.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.elapsed() >= self.plan.horizon()
    }

    /// Frames dropped by all endpoints of this state so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The incidents active right now (labels only — for operator
    /// display).
    #[must_use]
    pub fn active(&self) -> Vec<ChaosEvent> {
        let now = self.elapsed();
        self.plan
            .incidents
            .iter()
            .filter(|i| i.at <= now && now < i.at + i.duration)
            .map(|i| i.event)
            .collect()
    }

    /// Decides whether a `from -> to` frame is lost to an active
    /// incident. `rng` is the asking endpoint's own seeded stream,
    /// consumed only inside loss windows.
    fn should_drop(&self, from: u32, to: u32, rng: &mut rand::rngs::SmallRng) -> bool {
        let now = self.elapsed();
        for incident in &self.plan.incidents {
            if now < incident.at || now >= incident.at + incident.duration {
                continue;
            }
            let hit = match incident.event {
                ChaosEvent::NodeOutage { node } => from == node || to == node,
                ChaosEvent::Partition { cut } => (from < cut) != (to < cut),
                ChaosEvent::LossWindow { drop_probability } => rng.gen_bool(drop_probability),
            };
            if hit {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

/// A [`Transport`] wrapper that loses frames according to the shared
/// [`ChaosState`]. Stack it *under* a reliability layer:
/// `ReliableEndpoint::new(ChaosEndpoint::new(inner, state, seed))`.
pub struct ChaosEndpoint<T> {
    inner: T,
    state: Arc<ChaosState>,
    rng: rand::rngs::SmallRng,
    dropped: u64,
}

impl<T: Transport> ChaosEndpoint<T> {
    /// Wraps `inner`. `seed` feeds only the loss-window coin flips; one
    /// distinct seed per endpoint keeps those independent.
    #[must_use]
    pub fn new(inner: T, state: Arc<ChaosState>, seed: u64) -> Self {
        ChaosEndpoint {
            inner,
            state,
            rng: seeded_rng(seed),
            dropped: 0,
        }
    }

    /// Frames this endpoint dropped so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<T: Transport> Transport for ChaosEndpoint<T> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&mut self, to: NodeId, frame: Bytes) -> Result<(), RingError> {
        self.send_many(to, frame, 1)
    }

    fn send_many(&mut self, to: NodeId, frame: Bytes, logical: u64) -> Result<(), RingError> {
        let from = self.inner.node().get() as u32;
        if self.state.should_drop(from, to.get() as u32, &mut self.rng) {
            self.dropped += 1;
            return Ok(()); // the incident ate it
        }
        self.inner.send_many(to, frame, logical)
    }

    fn recv(&mut self) -> Result<(NodeId, Bytes), RingError> {
        self.inner.recv()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Bytes), RingError> {
        self.inner.recv_timeout(timeout)
    }

    fn waker(&self) -> Waker {
        self.inner.waker()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ReliableEndpoint;
    use crate::transport::InMemoryNetwork;

    fn outage_plan(node: u32, ms: u64) -> ChaosPlan {
        ChaosPlan::new().with_incident(
            Duration::ZERO,
            Duration::from_millis(ms),
            ChaosEvent::NodeOutage { node },
        )
    }

    #[test]
    fn seeded_plans_are_reproducible_and_healable() {
        let a = ChaosPlan::seeded(7, 5, 6);
        let b = ChaosPlan::seeded(7, 5, 6);
        assert_eq!(a, b);
        assert_ne!(a, ChaosPlan::seeded(8, 5, 6));
        assert_eq!(a.incidents.len(), 6);
        a.validate(Duration::from_secs(5)).unwrap();
        // Kinds cycle: crash, partition, loss, ...
        assert!(matches!(
            a.incidents[0].event,
            ChaosEvent::NodeOutage { .. }
        ));
        assert!(matches!(a.incidents[1].event, ChaosEvent::Partition { .. }));
        assert!(matches!(
            a.incidents[2].event,
            ChaosEvent::LossWindow { .. }
        ));
        assert!(a.horizon() > Duration::from_millis(2000));
    }

    #[test]
    fn seeded_windows_leave_more_quiet_than_the_incident_gap() {
        // The analyzer closes an incident after `incident_gap_us` of
        // quiet, and retries run up to one ACK timeout past a window's
        // end. Every quiet gap between seeded windows must exceed both
        // together, or two incidents read as one.
        use crate::faults::ReliableEndpoint;
        use crate::transport::InMemoryEndpoint;
        let incident_gap = privtopk_observe::AnalyzerConfig::default().incident_gap_us;
        let needed = Duration::from_micros(incident_gap)
            + ReliableEndpoint::<InMemoryEndpoint>::DEFAULT_ACK_TIMEOUT;
        for seed in 0..1_000u64 {
            let plan = ChaosPlan::seeded(seed, 5, 6);
            for (index, pair) in plan.incidents.windows(2).enumerate() {
                let closes = pair[0].at + pair[0].duration;
                let quiet = pair[1].at.checked_sub(closes).unwrap_or_default();
                assert!(
                    quiet > needed,
                    "seed {seed}: {quiet:?} of quiet after window {index}, need over {needed:?}"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_unhealable_windows_and_bad_loss() {
        let wide = ChaosPlan::new().with_incident(
            Duration::ZERO,
            Duration::from_secs(10),
            ChaosEvent::LossWindow {
                drop_probability: 0.5,
            },
        );
        assert!(wide.validate(Duration::from_secs(5)).is_err());
        let certain = ChaosPlan::new().with_incident(
            Duration::ZERO,
            Duration::from_millis(100),
            ChaosEvent::LossWindow {
                drop_probability: 1.0,
            },
        );
        assert!(certain.validate(Duration::from_secs(5)).is_err());
        ChaosPlan::new().validate(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn outage_drops_frames_touching_the_node_until_window_ends() {
        let state = ChaosState::new(outage_plan(1, 50));
        state.arm();
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints().into_iter();
        let mut a = ChaosEndpoint::new(eps.next().unwrap(), Arc::clone(&state), 1);
        let mut b = eps.next().unwrap();
        a.send(NodeId::new(1), Bytes::from_static(b"x")).unwrap();
        assert_eq!(a.dropped(), 1);
        assert_eq!(state.dropped(), 1);
        assert!(b.recv_timeout(Duration::from_millis(5)).is_err());
        assert!(!state.quiescent());
        std::thread::sleep(Duration::from_millis(60));
        a.send(NodeId::new(1), Bytes::from_static(b"y")).unwrap();
        let (_, frame) = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(&frame[..], b"y");
        assert!(state.quiescent());
        assert_eq!(state.active().len(), 0);
    }

    #[test]
    fn partition_cuts_cross_links_only() {
        let plan = ChaosPlan::new().with_incident(
            Duration::ZERO,
            Duration::from_millis(200),
            ChaosEvent::Partition { cut: 1 },
        );
        let state = ChaosState::new(plan);
        state.arm();
        let net = InMemoryNetwork::new(3);
        let mut eps = net.endpoints().into_iter();
        let _a = eps.next().unwrap();
        let mut b = ChaosEndpoint::new(eps.next().unwrap(), Arc::clone(&state), 2);
        let mut c = eps.next().unwrap();
        // 1 -> 2 stays within the >= cut side: delivered.
        b.send(NodeId::new(2), Bytes::from_static(b"in")).unwrap();
        assert!(c.recv_timeout(Duration::from_millis(100)).is_ok());
        // 1 -> 0 crosses the cut: dropped.
        b.send(NodeId::new(0), Bytes::from_static(b"out")).unwrap();
        assert_eq!(b.dropped(), 1);
    }

    #[test]
    fn reliable_layer_heals_an_outage_with_counted_retries() {
        // Node 1 is down for 120 ms; the reliable sender keeps retrying
        // and the frame arrives once the outage lifts.
        let state = ChaosState::new(outage_plan(1, 120));
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints().into_iter();
        let mut a = ReliableEndpoint::new(ChaosEndpoint::new(
            eps.next().unwrap(),
            Arc::clone(&state),
            1,
        ));
        let mut b = ReliableEndpoint::new(ChaosEndpoint::new(
            eps.next().unwrap(),
            Arc::clone(&state),
            2,
        ));
        state.arm();
        let handle = std::thread::spawn(move || {
            let (_, frame) = b.recv_timeout(Duration::from_secs(10)).unwrap();
            frame
        });
        a.send(NodeId::new(1), Bytes::from_static(b"survives"))
            .unwrap();
        assert_eq!(&handle.join().unwrap()[..], b"survives");
        assert!(a.retransmissions() > 0, "outage must force retries");
        assert!(state.dropped() > 0);
    }

    #[test]
    fn loss_window_uses_the_endpoint_seed() {
        let plan = ChaosPlan::new().with_incident(
            Duration::ZERO,
            Duration::from_secs(3),
            ChaosEvent::LossWindow {
                drop_probability: 0.5,
            },
        );
        let state = ChaosState::new(plan);
        state.arm();
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints().into_iter();
        let mut a = ChaosEndpoint::new(eps.next().unwrap(), Arc::clone(&state), 42);
        let _b = eps.next().unwrap();
        for _ in 0..200 {
            a.send(NodeId::new(1), Bytes::from_static(b"x")).unwrap();
        }
        let dropped = a.dropped();
        assert!(
            (60..=140).contains(&(dropped as usize)),
            "dropped {dropped}"
        );
    }

    #[test]
    fn whole_run_loss_window_drops_what_faulty_endpoint_dropped() {
        // A whole-run loss window flips one coin per send from the
        // endpoint's seeded stream, exactly as the uniform-drop wrapper
        // it replaced did: these are that wrapper's drop counts, so no
        // lossy run's drop pattern moves. The last seed is the lossy
        // service's node-1 seed.
        for (seed, p, expected) in [(3, 0.5, 504), (11, 0.4, 391), (0x5EED_F517, 0.2, 210)] {
            let loss = ChaosEvent::LossWindow {
                drop_probability: p,
            };
            let plan = ChaosPlan::new().with_incident(Duration::ZERO, Duration::MAX, loss);
            let net = InMemoryNetwork::new(2);
            let mut eps = net.endpoints().into_iter();
            let mut a = ChaosEndpoint::new(eps.next().unwrap(), ChaosState::new(plan), seed);
            let mut b = eps.next().unwrap();
            let mut decisions = String::new();
            for _ in 0..1000 {
                let before = a.dropped();
                a.send(NodeId::new(1), Bytes::from_static(b"x")).unwrap();
                decisions.push(if a.dropped() > before { 'D' } else { '.' });
            }
            assert_eq!(a.dropped(), expected, "seed {seed:#x} at p = {p}");
            if seed == 3 {
                assert_eq!(&decisions[..32], "D....DD..D.DDDDDD...DDDD....DD.D");
            }
            let mut delivered = 0;
            while b.recv_timeout(Duration::from_millis(5)).is_ok() {
                delivered += 1;
            }
            assert_eq!(delivered + a.dropped(), 1000);
        }
    }
}
