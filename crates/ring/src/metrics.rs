//! Transport-level counters backing the efficiency evaluation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use privtopk_observe::Recorder;

/// Shared frame/message/byte counters for one network.
///
/// The paper's efficiency analysis (Section 4.2) argues the communication
/// cost is "proportional to the number of nodes" times the number of
/// rounds; these counters let the experiments measure exactly that.
///
/// Batched execution splits the notion of "message" in two: a *frame* is
/// one physical send on the wire, while a *logical message* is one query's
/// payload inside it. An unbatched send is one frame carrying one logical
/// message; a batched hop is one frame carrying B.
/// [`messages_sent`](TransportMetrics::messages_sent) reports logical
/// messages so the paper's cost model (`n · r` messages per query) keeps
/// holding per query regardless of batching.
///
/// Cloning is cheap (the counters are shared).
///
/// # Example
///
/// ```
/// use privtopk_ring::TransportMetrics;
///
/// let m = TransportMetrics::new();
/// m.record_send(128);
/// m.record_frame(256, 8); // one batched frame carrying 8 queries
/// assert_eq!(m.frames_sent(), 2);
/// assert_eq!(m.messages_sent(), 9);
/// assert_eq!(m.bytes_sent(), 384);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TransportMetrics {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    frames: AtomicU64,
    logical: AtomicU64,
    bytes: AtomicU64,
    pooled_high_water: AtomicU64,
    retransmissions: AtomicU64,
    re_acks: AtomicU64,
}

/// A snapshot of [`TransportMetrics`], returned by
/// [`TransportMetrics::take`] (draining) or
/// [`TransportMetrics::peek`] (non-draining).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Physical frames sent.
    pub frames_sent: u64,
    /// Logical (per-query) messages carried by those frames.
    pub logical_messages: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// The most buffers the frame pool ever held at once. A lifetime peak,
    /// not a rate: [`TransportMetrics::take`] reports it without resetting.
    pub pooled_buffers_high_water: u64,
    /// Reliable-transport retransmissions (lossy networks only).
    pub retransmissions: u64,
    /// Duplicate-suppression re-acknowledgements sent for frames that had
    /// already been delivered (lossy networks only).
    pub re_acks: u64,
}

impl MetricsSnapshot {
    /// Mean payload bytes per physical frame (0 when no frame was sent).
    #[must_use]
    pub fn mean_frame_bytes(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.frames_sent as f64
        }
    }

    /// Publishes every figure into a [`Recorder`]'s counter registry,
    /// under the same names as the fields.
    ///
    /// This is how the telemetry registry absorbs the transport counters:
    /// the recorder's summary then reports wire activity alongside the
    /// phase histograms without a second metrics surface.
    pub fn publish(&self, recorder: &Recorder) {
        recorder.set_counter("frames_sent", self.frames_sent);
        recorder.set_counter("logical_messages", self.logical_messages);
        recorder.set_counter("bytes_sent", self.bytes_sent);
        recorder.set_counter("pooled_buffers_high_water", self.pooled_buffers_high_water);
        recorder.set_counter("retransmissions", self.retransmissions);
        recorder.set_counter("re_acks", self.re_acks);
    }
}

impl TransportMetrics {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        TransportMetrics::default()
    }

    /// Records one sent frame carrying one logical message of `bytes`
    /// payload bytes.
    pub fn record_send(&self, bytes: usize) {
        self.record_frame(bytes, 1);
    }

    /// Records one sent frame of `bytes` payload bytes carrying
    /// `logical` piggybacked logical messages.
    pub fn record_frame(&self, bytes: usize, logical: u64) {
        self.inner.frames.fetch_add(1, Ordering::Relaxed);
        self.inner.logical.fetch_add(logical, Ordering::Relaxed);
        self.inner.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records the frame pool's current occupancy, keeping the maximum
    /// ever observed. Pooled transports call this on every recycle; the
    /// resulting high-water mark shows whether the pool's retention cap
    /// actually bounds buffer memory under load (e.g. deep pipelining).
    pub fn record_pooled(&self, pooled: usize) {
        self.inner
            .pooled_high_water
            .fetch_max(pooled as u64, Ordering::Relaxed);
    }

    /// The most buffers the frame pool ever held at once.
    #[must_use]
    pub fn pooled_buffers_high_water(&self) -> u64 {
        self.inner.pooled_high_water.load(Ordering::Relaxed)
    }

    /// Records one reliable-transport retransmission.
    pub fn record_retransmission(&self) {
        self.inner.retransmissions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one re-acknowledgement of an already-delivered frame.
    pub fn record_re_ack(&self) {
        self.inner.re_acks.fetch_add(1, Ordering::Relaxed);
    }

    /// Total reliable-transport retransmissions recorded.
    #[must_use]
    pub fn retransmissions(&self) -> u64 {
        self.inner.retransmissions.load(Ordering::Relaxed)
    }

    /// Total re-acknowledgements of already-delivered frames.
    #[must_use]
    pub fn re_acks(&self) -> u64 {
        self.inner.re_acks.load(Ordering::Relaxed)
    }

    /// Total logical messages sent (one per query per frame).
    ///
    /// Equal to [`frames_sent`](Self::frames_sent) on unbatched paths.
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.inner.logical.load(Ordering::Relaxed)
    }

    /// Total physical frames sent.
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.inner.frames.load(Ordering::Relaxed)
    }

    /// Alias for [`messages_sent`](Self::messages_sent), named for
    /// contrast with [`frames_sent`](Self::frames_sent).
    #[must_use]
    pub fn logical_messages(&self) -> u64 {
        self.messages_sent()
    }

    /// Total payload bytes sent.
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Mean payload bytes per physical frame (0 when nothing was sent).
    #[must_use]
    pub fn mean_frame_bytes(&self) -> f64 {
        self.peek().mean_frame_bytes()
    }

    /// Reads every counter without draining anything.
    ///
    /// This is the mid-stream inspection path (service `stats()`):
    /// concurrent writers keep accumulating and a later [`take`](Self::take)
    /// still sees their full totals.
    #[must_use]
    pub fn peek(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            frames_sent: self.inner.frames.load(Ordering::Relaxed),
            logical_messages: self.inner.logical.load(Ordering::Relaxed),
            bytes_sent: self.inner.bytes.load(Ordering::Relaxed),
            pooled_buffers_high_water: self.inner.pooled_high_water.load(Ordering::Relaxed),
            retransmissions: self.inner.retransmissions.load(Ordering::Relaxed),
            re_acks: self.inner.re_acks.load(Ordering::Relaxed),
        }
    }

    /// Atomically drains the counters, returning what they held.
    ///
    /// Each rate counter is swapped to zero rather than stored, so a
    /// `record_*` racing with `take` lands in exactly one of "returned by
    /// this take" or "left for the next reader" — never silently lost,
    /// which a load-then-store reset cannot guarantee. The pooled-buffer
    /// high-water mark is a lifetime peak, not a rate, so it is reported
    /// without being reset.
    pub fn take(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            frames_sent: self.inner.frames.swap(0, Ordering::Relaxed),
            logical_messages: self.inner.logical.swap(0, Ordering::Relaxed),
            bytes_sent: self.inner.bytes.swap(0, Ordering::Relaxed),
            pooled_buffers_high_water: self.inner.pooled_high_water.load(Ordering::Relaxed),
            retransmissions: self.inner.retransmissions.swap(0, Ordering::Relaxed),
            re_acks: self.inner.re_acks.swap(0, Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero (discarding the drained values).
    pub fn reset(&self) {
        let _ = self.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let m = TransportMetrics::new();
        assert_eq!(m.messages_sent(), 0);
        m.record_send(10);
        m.record_send(20);
        assert_eq!(m.messages_sent(), 2);
        assert_eq!(m.frames_sent(), 2);
        assert_eq!(m.bytes_sent(), 30);
    }

    #[test]
    fn batched_frames_split_physical_and_logical() {
        let m = TransportMetrics::new();
        m.record_frame(100, 8);
        m.record_frame(100, 8);
        m.record_send(25);
        assert_eq!(m.frames_sent(), 3);
        assert_eq!(m.logical_messages(), 17);
        assert_eq!(m.messages_sent(), 17);
        assert_eq!(m.bytes_sent(), 225);
        assert!((m.mean_frame_bytes() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn pooled_high_water_keeps_maximum() {
        let m = TransportMetrics::new();
        assert_eq!(m.pooled_buffers_high_water(), 0);
        m.record_pooled(3);
        m.record_pooled(7);
        m.record_pooled(5);
        assert_eq!(m.pooled_buffers_high_water(), 7);
        // The watermark survives a counter drain: it tracks peak pool
        // occupancy over the network's lifetime, not a rate.
        let _ = m.take();
        assert_eq!(m.pooled_buffers_high_water(), 7);
    }

    #[test]
    fn clones_share_state() {
        let m = TransportMetrics::new();
        let m2 = m.clone();
        m.record_send(5);
        assert_eq!(m2.messages_sent(), 1);
        assert_eq!(m2.bytes_sent(), 5);
    }

    #[test]
    fn reset_zeroes() {
        let m = TransportMetrics::new();
        m.record_send(100);
        m.reset();
        assert_eq!(m.messages_sent(), 0);
        assert_eq!(m.frames_sent(), 0);
        assert_eq!(m.bytes_sent(), 0);
        assert_eq!(m.mean_frame_bytes(), 0.0);
    }

    #[test]
    fn take_drains_and_reports() {
        let m = TransportMetrics::new();
        m.record_frame(64, 4);
        let snap = m.take();
        assert_eq!(
            snap,
            MetricsSnapshot {
                frames_sent: 1,
                logical_messages: 4,
                bytes_sent: 64,
                ..Default::default()
            }
        );
        assert_eq!(m.take(), MetricsSnapshot::default());
    }

    #[test]
    fn peek_reads_without_draining() {
        let m = TransportMetrics::new();
        m.record_frame(64, 4);
        m.record_pooled(5);
        m.record_retransmission();
        m.record_re_ack();
        m.record_re_ack();
        let peeked = m.peek();
        assert_eq!(peeked.frames_sent, 1);
        assert_eq!(peeked.logical_messages, 4);
        assert_eq!(peeked.bytes_sent, 64);
        assert_eq!(peeked.pooled_buffers_high_water, 5);
        assert_eq!(peeked.retransmissions, 1);
        assert_eq!(peeked.re_acks, 2);
        // Peeking drained nothing: take() still sees the full totals.
        assert_eq!(m.take(), peeked);
    }

    #[test]
    fn snapshot_exposes_pool_high_water_and_healing_counters() {
        let m = TransportMetrics::new();
        m.record_pooled(9);
        m.record_retransmission();
        m.record_re_ack();
        let snap = m.take();
        assert_eq!(snap.pooled_buffers_high_water, 9);
        assert_eq!(snap.retransmissions, 1);
        assert_eq!(snap.re_acks, 1);
        // Retransmissions/re-ACKs drain like rates; the pool high-water
        // mark is a lifetime peak and survives the drain.
        let again = m.take();
        assert_eq!(again.retransmissions, 0);
        assert_eq!(again.re_acks, 0);
        assert_eq!(again.pooled_buffers_high_water, 9);
    }

    #[test]
    fn publish_absorbs_figures_into_a_recorder() {
        let m = TransportMetrics::new();
        m.record_frame(128, 2);
        m.record_pooled(3);
        m.record_retransmission();
        let rec = Recorder::stats_only();
        m.peek().publish(&rec);
        assert_eq!(rec.counter("frames_sent"), 1);
        assert_eq!(rec.counter("logical_messages"), 2);
        assert_eq!(rec.counter("bytes_sent"), 128);
        assert_eq!(rec.counter("pooled_buffers_high_water"), 3);
        assert_eq!(rec.counter("retransmissions"), 1);
        assert_eq!(rec.counter("re_acks"), 0);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let m = TransportMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record_send(3);
                    }
                });
            }
        });
        assert_eq!(m.messages_sent(), 8000);
        assert_eq!(m.bytes_sent(), 24_000);
    }

    #[test]
    fn concurrent_take_loses_nothing() {
        // The reset/staleness race: writers record while a reader drains.
        // Every recorded frame must end up either in some take() snapshot
        // or in the final residue — a plain store(0) reset can drop
        // increments that land between its load and store.
        let m = TransportMetrics::new();
        let drained = std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|_| {
                    let m = m.clone();
                    s.spawn(move || {
                        for _ in 0..2000 {
                            m.record_frame(7, 3);
                        }
                    })
                })
                .collect();
            let reader = {
                let m = m.clone();
                s.spawn(move || {
                    let mut acc = MetricsSnapshot::default();
                    for _ in 0..200 {
                        let snap = m.take();
                        acc.frames_sent += snap.frames_sent;
                        acc.logical_messages += snap.logical_messages;
                        acc.bytes_sent += snap.bytes_sent;
                        std::thread::yield_now();
                    }
                    acc
                })
            };
            for w in writers {
                w.join().unwrap();
            }
            reader.join().unwrap()
        });
        let rest = m.take();
        assert_eq!(drained.frames_sent + rest.frames_sent, 8000);
        assert_eq!(drained.logical_messages + rest.logical_messages, 24_000);
        assert_eq!(drained.bytes_sent + rest.bytes_sent, 56_000);
    }
}
