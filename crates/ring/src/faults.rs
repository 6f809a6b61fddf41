//! The reliability layer beneath the protocol.
//!
//! The paper assumes a lossless ring and handles only whole-node failure
//! (by reconstruction). Real deployments also lose *messages*.
//! [`ReliableEndpoint`] wraps any [`Transport`] with sequence numbers,
//! positive ACKs, retransmission and duplicate suppression, restoring
//! exactly-once, in-order delivery per sender — so the unmodified
//! protocol runs correctly over a lossy substrate. The losses it heals
//! come from [`crate::chaos`], the one fault injector: a uniformly lossy
//! link is a [`ChaosEndpoint`](crate::chaos::ChaosEndpoint) under a
//! single loss window that lasts the whole run.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};

use privtopk_domain::NodeId;
use privtopk_observe::{Ctx, Phase, Recorder};

use crate::transport::{Transport, Waker};
use crate::{RingError, TransportMetrics};

const FRAME_DATA: u8 = 1;
const FRAME_ACK: u8 = 2;

fn encode_reliable(kind: u8, seq: u64, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(9 + payload.len());
    buf.put_u8(kind);
    buf.put_u64_le(seq);
    buf.put_slice(payload);
    buf.freeze()
}

fn decode_reliable(frame: &Bytes) -> Result<(u8, u64, Bytes), RingError> {
    if frame.len() < 9 {
        return Err(RingError::Decode {
            reason: "reliable frame too short",
        });
    }
    let kind = frame[0];
    let seq = u64::from_le_bytes(frame[1..9].try_into().expect("8 bytes"));
    Ok((kind, seq, frame.slice(9..)))
}

/// Stop-and-wait reliability over an unreliable transport: every data
/// frame carries a sequence number and is retransmitted until the peer
/// acknowledges it; the receiver suppresses duplicates and always
/// re-acknowledges, so ACK loss is also tolerated.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use privtopk_ring::chaos::{ChaosEndpoint, ChaosEvent, ChaosPlan, ChaosState};
/// use privtopk_ring::faults::ReliableEndpoint;
/// use privtopk_ring::transport::{InMemoryNetwork, Transport};
/// use privtopk_domain::NodeId;
/// use bytes::Bytes;
///
/// let net = InMemoryNetwork::new(2);
/// let mut eps = net.endpoints().into_iter();
/// // 30% loss in both directions for the whole run, healed by the
/// // reliability layer.
/// let loss = ChaosEvent::LossWindow { drop_probability: 0.3 };
/// let state = ChaosState::new(ChaosPlan::new().with_incident(Duration::ZERO, Duration::MAX, loss));
/// let mut a = ReliableEndpoint::new(ChaosEndpoint::new(eps.next().unwrap(), state.clone(), 1));
/// let mut b = ReliableEndpoint::new(ChaosEndpoint::new(eps.next().unwrap(), state, 2));
/// let handle = std::thread::spawn(move || {
///     let (_, frame) = b.recv()?;
///     Ok::<Bytes, privtopk_ring::RingError>(frame)
/// });
/// a.send(NodeId::new(1), Bytes::from_static(b"important"))?;
/// assert_eq!(&handle.join().unwrap()?[..], b"important");
/// # Ok::<(), privtopk_ring::RingError>(())
/// ```
pub struct ReliableEndpoint<T> {
    inner: T,
    next_seq: u64,
    /// Highest sequence number delivered per sender.
    delivered: HashMap<NodeId, u64>,
    /// Data frames that arrived while waiting for an ACK.
    buffered: VecDeque<(NodeId, Bytes)>,
    ack_timeout: Duration,
    max_retries: u32,
    retransmissions: u64,
    /// Shared counters that make healing activity visible network-wide.
    metrics: Option<TransportMetrics>,
    recorder: Recorder,
}

impl<T: Transport> ReliableEndpoint<T> {
    /// Default per-attempt ACK timeout.
    pub const DEFAULT_ACK_TIMEOUT: Duration = Duration::from_millis(50);
    /// Default retransmission budget per frame.
    pub const DEFAULT_MAX_RETRIES: u32 = 100;

    /// Wraps `inner` with default timeouts.
    pub fn new(inner: T) -> Self {
        ReliableEndpoint {
            inner,
            next_seq: 0,
            delivered: HashMap::new(),
            buffered: VecDeque::new(),
            ack_timeout: Self::DEFAULT_ACK_TIMEOUT,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            retransmissions: 0,
            metrics: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Overrides the ACK timeout and retry budget.
    #[must_use]
    pub fn with_policy(mut self, ack_timeout: Duration, max_retries: u32) -> Self {
        self.ack_timeout = ack_timeout;
        self.max_retries = max_retries;
        self
    }

    /// Attaches shared metrics and a telemetry recorder: every
    /// retransmission and duplicate re-ACK this endpoint performs is
    /// counted network-wide instead of staying silent.
    #[must_use]
    pub fn with_observer(mut self, metrics: TransportMetrics, recorder: Recorder) -> Self {
        self.metrics = Some(metrics);
        self.recorder = recorder;
        self
    }

    /// Retransmissions performed so far.
    #[must_use]
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Handles an incoming raw frame; returns a payload if it is fresh
    /// data to deliver.
    fn handle_incoming(
        &mut self,
        from: NodeId,
        frame: &Bytes,
    ) -> Result<Option<(NodeId, Bytes)>, RingError> {
        // A frame from this endpoint's own node is a wake (see `Waker`):
        // it never crossed a link, so it carries no sequence number and
        // passes through untouched.
        if from == self.inner.node() {
            return Ok(Some((from, frame.clone())));
        }
        let (kind, seq, payload) = decode_reliable(frame)?;
        match kind {
            FRAME_DATA => {
                // Always (re-)acknowledge, even duplicates: the sender may
                // have missed the previous ACK.
                self.inner
                    .send(from, encode_reliable(FRAME_ACK, seq, &[]))?;
                let fresh = self.delivered.get(&from).is_none_or(|&last| seq > last);
                if fresh {
                    self.delivered.insert(from, seq);
                    Ok(Some((from, payload)))
                } else {
                    // A duplicate means the peer missed our ACK — the
                    // re-ACK just sent is healing activity worth counting.
                    if let Some(metrics) = &self.metrics {
                        metrics.record_re_ack();
                    }
                    self.recorder.tick(
                        Phase::Ack,
                        Ctx::default().with_node(self.inner.node().get() as u32),
                    );
                    Ok(None)
                }
            }
            FRAME_ACK => Ok(None), // stale ack outside a send window
            _ => Err(RingError::Decode {
                reason: "unknown reliable frame kind",
            }),
        }
    }
}

impl<T: Transport> Transport for ReliableEndpoint<T> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&mut self, to: NodeId, frame: Bytes) -> Result<(), RingError> {
        self.send_many(to, frame, 1)
    }

    fn send_many(&mut self, to: NodeId, frame: Bytes, logical: u64) -> Result<(), RingError> {
        self.next_seq += 1;
        let seq = self.next_seq;
        let data = encode_reliable(FRAME_DATA, seq, &frame);
        // Each retry span measures the failed attempt it replaces: the
        // time the sender sat blocked on an ACK that never came — the
        // healing cost a trace analyzer attributes to this node.
        let mut attempt_started = self.recorder.clock();
        for attempt in 0..=self.max_retries {
            if attempt > 0 {
                self.retransmissions += 1;
                if let Some(metrics) = &self.metrics {
                    metrics.record_retransmission();
                }
                self.recorder.record(
                    Phase::Retry,
                    Ctx::default().with_node(self.inner.node().get() as u32),
                    attempt_started,
                );
                attempt_started = self.recorder.clock();
            }
            self.inner.send_many(to, data.clone(), logical)?;
            let deadline = Instant::now() + self.ack_timeout;
            loop {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break; // retransmit
                }
                match self.inner.recv_timeout(remaining) {
                    Ok((from, raw)) => {
                        if from == to
                            && matches!(decode_reliable(&raw)?, (FRAME_ACK, got, _) if got == seq)
                        {
                            return Ok(());
                        }
                        if let Some(delivery) = self.handle_incoming(from, &raw)? {
                            self.buffered.push_back(delivery);
                        }
                    }
                    Err(RingError::Timeout) => break, // retransmit
                    Err(e) => return Err(e),
                }
            }
        }
        Err(RingError::Timeout)
    }

    fn recv(&mut self) -> Result<(NodeId, Bytes), RingError> {
        loop {
            if let Some(ready) = self.buffered.pop_front() {
                return Ok(ready);
            }
            let (from, raw) = self.inner.recv()?;
            if let Some(delivery) = self.handle_incoming(from, &raw)? {
                return Ok(delivery);
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(NodeId, Bytes), RingError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ready) = self.buffered.pop_front() {
                return Ok(ready);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RingError::Timeout);
            }
            let (from, raw) = self.inner.recv_timeout(remaining)?;
            if let Some(delivery) = self.handle_incoming(from, &raw)? {
                return Ok(delivery);
            }
        }
    }

    fn waker(&self) -> Waker {
        self.inner.waker()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosEndpoint, ChaosEvent, ChaosPlan, ChaosState};
    use crate::transport::{InMemoryEndpoint, InMemoryNetwork};

    /// Two reliable endpoints over links that drop each frame with
    /// probability `p` for the whole run (seeds 11 and 22).
    fn lossy_pair(
        p: f64,
    ) -> (
        ReliableEndpoint<ChaosEndpoint<InMemoryEndpoint>>,
        ReliableEndpoint<ChaosEndpoint<InMemoryEndpoint>>,
    ) {
        let loss = ChaosEvent::LossWindow {
            drop_probability: p,
        };
        let state =
            ChaosState::new(ChaosPlan::new().with_incident(Duration::ZERO, Duration::MAX, loss));
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints().into_iter();
        let a = ReliableEndpoint::new(ChaosEndpoint::new(eps.next().unwrap(), state.clone(), 11));
        let b = ReliableEndpoint::new(ChaosEndpoint::new(eps.next().unwrap(), state, 22));
        (a, b)
    }

    #[test]
    fn zero_loss_reliable_is_transparent() {
        let (mut a, mut b) = lossy_pair(0.0);
        let handle = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..5 {
                let (_, f) = b.recv().unwrap();
                got.push(f[0]);
            }
            got
        });
        for i in 0..5u8 {
            a.send(NodeId::new(1), Bytes::from(vec![i])).unwrap();
        }
        assert_eq!(handle.join().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(a.retransmissions(), 0);
    }

    /// Keeps a receiver alive briefly after its last expected frame so it
    /// can re-ACK retransmissions whose previous ACK was dropped.
    fn drain<T: Transport>(ep: &mut ReliableEndpoint<T>) {
        while ep.recv_timeout(Duration::from_millis(200)).is_ok() {}
    }

    #[test]
    fn heavy_loss_healed_in_order_exactly_once() {
        let (mut a, mut b) = lossy_pair(0.4);
        let n = 50u8;
        let handle = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..n {
                let (_, f) = b.recv_timeout(Duration::from_secs(30)).unwrap();
                got.push(f[0]);
            }
            drain(&mut b);
            got
        });
        for i in 0..n {
            a.send(NodeId::new(1), Bytes::from(vec![i])).unwrap();
        }
        let got = handle.join().unwrap();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "in order, exactly once");
        assert!(a.retransmissions() > 0, "loss must have caused retries");
    }

    #[test]
    fn bidirectional_traffic_under_loss() {
        // Both sides send while the other receives — data frames arriving
        // during a send's ACK wait must be buffered, not lost.
        let (mut a, mut b) = lossy_pair(0.25);
        let handle = std::thread::spawn(move || {
            let mut got = Vec::new();
            for i in 0..10u8 {
                b.send(NodeId::new(0), Bytes::from(vec![100 + i])).unwrap();
                let (_, f) = b.recv_timeout(Duration::from_secs(30)).unwrap();
                got.push(f[0]);
            }
            drain(&mut b);
            got
        });
        let mut got = Vec::new();
        for i in 0..10u8 {
            a.send(NodeId::new(1), Bytes::from(vec![i])).unwrap();
            let (_, f) = a.recv_timeout(Duration::from_secs(30)).unwrap();
            got.push(f[0]);
        }
        drain(&mut a);
        assert_eq!(got, (100..110).collect::<Vec<_>>());
        assert_eq!(handle.join().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn lossy_run_moves_shared_healing_counters() {
        // Satellite of the telemetry PR: ring-healing activity must be
        // visible. Both endpoints share one TransportMetrics and one
        // Recorder; a lossy exchange must move the retransmission counter
        // (ACK waits that expired) and the re-ACK counter (duplicates the
        // receiver suppressed after its ACK was lost).
        let metrics = TransportMetrics::new();
        let recorder = Recorder::new();
        let (a, b) = lossy_pair(0.4);
        let mut a = a.with_observer(metrics.clone(), recorder.clone());
        let mut b = b.with_observer(metrics.clone(), recorder.clone());
        let n = 50u8;
        let handle = std::thread::spawn(move || {
            for _ in 0..n {
                b.recv_timeout(Duration::from_secs(30)).unwrap();
            }
            drain(&mut b);
        });
        for i in 0..n {
            a.send(NodeId::new(1), Bytes::from(vec![i])).unwrap();
        }
        let local_retries = a.retransmissions();
        handle.join().unwrap();
        assert!(local_retries > 0, "40% loss must force retries");
        assert_eq!(metrics.peek().retransmissions, local_retries);
        assert!(
            metrics.peek().re_acks > 0,
            "dropped ACKs must surface as counted re-ACKs"
        );
        // The recorder saw the same activity as trace events.
        assert_eq!(recorder.phase(Phase::Retry).count, local_retries);
        assert_eq!(recorder.phase(Phase::Ack).count, metrics.peek().re_acks);
        // And the drained snapshot carries both figures.
        let snap = metrics.take();
        assert_eq!(snap.retransmissions, local_retries);
        assert!(snap.re_acks > 0);
    }

    #[test]
    fn a_wake_passes_through_recv_and_the_ack_wait() {
        let (mut a, mut b) = lossy_pair(0.0);
        let waker = a.waker();
        let handle = std::thread::spawn(move || b.recv_timeout(Duration::from_secs(5)).unwrap());
        // Queued before the send, the wake meets its ACK wait first.
        waker.wake();
        a.send(NodeId::new(1), Bytes::from_static(b"data")).unwrap();
        assert_eq!(&handle.join().unwrap().1[..], b"data");
        let (from, frame) = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, frame.len()), (NodeId::new(0), 0));
        waker.wake();
        let (from, frame) = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, frame.len()), (NodeId::new(0), 0));
    }

    #[test]
    fn sender_gives_up_after_retry_budget() {
        // Peer never acks (we never call recv on it): tiny budget fails.
        let net = InMemoryNetwork::new(2);
        let mut eps = net.endpoints().into_iter();
        let mut a =
            ReliableEndpoint::new(eps.next().unwrap()).with_policy(Duration::from_millis(5), 2);
        let _b = eps.next().unwrap();
        let err = a
            .send(NodeId::new(1), Bytes::from_static(b"x"))
            .unwrap_err();
        assert!(matches!(err, RingError::Timeout));
    }
}
