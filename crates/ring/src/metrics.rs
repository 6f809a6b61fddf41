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
/// [`MetricsSnapshot::logical_messages`] counts logical messages so the
/// paper's cost model (`n · r` messages per query) keeps holding per query
/// regardless of batching.
///
/// Cloning is cheap (the counters are shared).
///
/// # Example
///
/// ```
/// use privtopk_ring::TransportMetrics;
///
/// let m = TransportMetrics::new();
/// m.record_frame(128, 1);
/// m.record_frame(256, 8); // one batched frame carrying 8 queries
/// let snap = m.peek();
/// assert_eq!(snap.frames_sent, 2);
/// assert_eq!(snap.logical_messages, 9);
/// assert_eq!(snap.bytes_sent, 384);
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

    /// Records one sent frame of `bytes` payload bytes carrying
    /// `logical` piggybacked logical messages.
    pub fn record_frame(&self, bytes: usize, logical: u64) {
        self.inner.frames.fetch_add(1, Ordering::Relaxed);
        self.inner.logical.fetch_add(logical, Ordering::Relaxed);
        self.inner.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one reliable-transport retransmission.
    pub fn record_retransmission(&self) {
        self.inner.retransmissions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one re-acknowledgement of an already-delivered frame.
    pub fn record_re_ack(&self) {
        self.inner.re_acks.fetch_add(1, Ordering::Relaxed);
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
            retransmissions: self.inner.retransmissions.load(Ordering::Relaxed),
            re_acks: self.inner.re_acks.load(Ordering::Relaxed),
        }
    }

    /// Atomically drains the counters, returning what they held.
    ///
    /// Each counter is swapped to zero rather than stored, so a
    /// `record_*` racing with `take` lands in exactly one of "returned by
    /// this take" or "left for the next reader" — never silently lost,
    /// which a load-then-store reset cannot guarantee.
    pub fn take(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            frames_sent: self.inner.frames.swap(0, Ordering::Relaxed),
            logical_messages: self.inner.logical.swap(0, Ordering::Relaxed),
            bytes_sent: self.inner.bytes.swap(0, Ordering::Relaxed),
            retransmissions: self.inner.retransmissions.swap(0, Ordering::Relaxed),
            re_acks: self.inner.re_acks.swap(0, Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let m = TransportMetrics::new();
        assert_eq!(m.peek().logical_messages, 0);
        m.record_frame(10, 1);
        m.record_frame(20, 1);
        let snap = m.peek();
        assert_eq!(snap.logical_messages, 2);
        assert_eq!(snap.frames_sent, 2);
        assert_eq!(snap.bytes_sent, 30);
    }

    #[test]
    fn batched_frames_split_physical_and_logical() {
        let m = TransportMetrics::new();
        m.record_frame(100, 8);
        m.record_frame(100, 8);
        m.record_frame(25, 1);
        let snap = m.peek();
        assert_eq!(snap.frames_sent, 3);
        assert_eq!(snap.logical_messages, 17);
        assert_eq!(snap.bytes_sent, 225);
        assert!((snap.mean_frame_bytes() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn clones_share_state() {
        let m = TransportMetrics::new();
        let m2 = m.clone();
        m.record_frame(5, 1);
        assert_eq!(m2.peek().logical_messages, 1);
        assert_eq!(m2.peek().bytes_sent, 5);
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
        m.record_retransmission();
        m.record_re_ack();
        m.record_re_ack();
        let peeked = m.peek();
        assert_eq!(peeked.frames_sent, 1);
        assert_eq!(peeked.logical_messages, 4);
        assert_eq!(peeked.bytes_sent, 64);
        assert_eq!(peeked.retransmissions, 1);
        assert_eq!(peeked.re_acks, 2);
        // Peeking drained nothing: take() still sees the full totals.
        assert_eq!(m.take(), peeked);
    }

    #[test]
    fn snapshot_exposes_healing_counters() {
        let m = TransportMetrics::new();
        m.record_retransmission();
        m.record_re_ack();
        let snap = m.take();
        assert_eq!(snap.retransmissions, 1);
        assert_eq!(snap.re_acks, 1);
        // Retransmissions/re-ACKs drain like rates.
        let again = m.take();
        assert_eq!(again.retransmissions, 0);
        assert_eq!(again.re_acks, 0);
    }

    #[test]
    fn publish_absorbs_figures_into_a_recorder() {
        let m = TransportMetrics::new();
        m.record_frame(128, 2);
        m.record_retransmission();
        let rec = Recorder::stats_only();
        m.peek().publish(&rec);
        assert_eq!(rec.counter("frames_sent"), 1);
        assert_eq!(rec.counter("logical_messages"), 2);
        assert_eq!(rec.counter("bytes_sent"), 128);
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
                        m.record_frame(3, 1);
                    }
                });
            }
        });
        assert_eq!(m.peek().logical_messages, 8000);
        assert_eq!(m.peek().bytes_sent, 24_000);
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
