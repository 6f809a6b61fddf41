//! The [`Recorder`]: trace events, phase histograms, counters and gauges.
//!
//! Trace events live in one store per recorder, a bounded ring that keeps
//! the newest events: [`DEFAULT_EVENT_CAPACITY`] for [`Recorder::new`] and
//! [`DEFAULT_FLIGHT_CAPACITY`] for [`Recorder::stats_only`] and
//! [`Recorder::sampled`].
//!
//! Spans and ticks go through per-handle write lanes. A recorder has 16
//! (`LANES`), each on cache lines of its own behind a lock of its own;
//! the handle that builds a recorder takes lane 0 and each clone the next
//! lane round-robin, so the workers of a ring of up to 15 nodes record
//! without sharing a lock or a cache line. A lane holds plain histogram
//! counts per phase and per node and up to 64 pending events
//! (`LANE_BATCH`); a full batch moves into the ring under the ring's
//! lock. Every reader of spans first moves each lane's pending events
//! into the ring, then merges the lane counts, so it sees the counts,
//! buckets, maxima and quantiles one shared histogram fed every span
//! would hold.
//!
//! Across handles the ring evicts in flush order, not timestamp order:
//! once it has wrapped, its retained set can differ from the strict
//! newest events by at most `LANES * LANE_BATCH` events. A single handle
//! keeps exactly its newest events.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::histogram::{bucket_index, Histogram, HistogramSnapshot, BUCKETS};
use crate::{Ctx, Phase};

/// Events kept by [`Recorder::new`]: the newest 2^18 (~20 MB of event
/// storage).
///
/// Older events are overwritten and counted, never silently lost: see
/// [`Recorder::events_dropped`].
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 18;

/// Events kept by [`Recorder::stats_only`] and [`Recorder::sampled`]: the
/// newest 4,096 (~320 KB).
///
/// Every enabled mode keeps its most recent spans and ticks, so after an
/// incident the moments leading up to it are always at hand for an
/// operator reconstructing the degradation timeline; see
/// [`Recorder::trace_jsonl`].
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1 << 12;

/// One serialized trace record: a phase, protocol coordinates, timing.
///
/// By construction this is the *entire* vocabulary of a trace line — there
/// is no field that could carry a data value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the recorder was created.
    pub t_us: u64,
    /// What kind of work this span covered.
    pub phase: Phase,
    /// Protocol coordinates (query/slot/node/round/hop).
    pub ctx: Ctx,
    /// Span duration in nanoseconds (0 for instantaneous markers).
    pub dur_ns: u64,
}

impl TraceEvent {
    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// Key order is fixed (`t_us`, `phase`, coordinates, `dur_ns`) and
    /// unset coordinates are omitted, so the schema is exactly the fields
    /// of [`Ctx`] plus timing.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut line = String::with_capacity(96);
        line.push_str("{\"t_us\":");
        line.push_str(&self.t_us.to_string());
        line.push_str(",\"phase\":\"");
        line.push_str(self.phase.as_str());
        line.push('"');
        if let Some(query) = self.ctx.query {
            line.push_str(",\"query\":");
            line.push_str(&query.to_string());
        }
        if let Some(slot) = self.ctx.slot {
            line.push_str(",\"slot\":");
            line.push_str(&slot.to_string());
        }
        if let Some(node) = self.ctx.node {
            line.push_str(",\"node\":");
            line.push_str(&node.to_string());
        }
        if let Some(round) = self.ctx.round {
            line.push_str(",\"round\":");
            line.push_str(&round.to_string());
        }
        if let Some(hop) = self.ctx.hop {
            line.push_str(",\"hop\":");
            line.push_str(&hop.to_string());
        }
        line.push_str(",\"dur_ns\":");
        line.push_str(&self.dur_ns.to_string());
        line.push('}');
        line
    }
}

/// A point-in-time read of one gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Last value set.
    pub value: u64,
    /// Largest value ever set.
    pub high_water: u64,
}

struct GaugeCell {
    value: AtomicU64,
    high_water: AtomicU64,
}

/// A point-in-time read of one floating-point gauge.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GaugeF64Snapshot {
    /// Last value set.
    pub value: f64,
    /// Largest value ever set.
    pub high_water: f64,
}

/// An f64 gauge stored as IEEE-754 bits in atomics, so reads and writes
/// stay lock-free like the u64 registry.
struct GaugeF64Cell {
    value_bits: AtomicU64,
    high_water_bits: AtomicU64,
}

impl GaugeF64Cell {
    fn set(&self, value: f64) {
        self.value_bits.store(value.to_bits(), Ordering::Relaxed);
        let mut current = self.high_water_bits.load(Ordering::Relaxed);
        while value > f64::from_bits(current) {
            match self.high_water_bits.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    fn snapshot(&self) -> GaugeF64Snapshot {
        GaugeF64Snapshot {
            value: f64::from_bits(self.value_bits.load(Ordering::Relaxed)),
            high_water: f64::from_bits(self.high_water_bits.load(Ordering::Relaxed)),
        }
    }
}

/// The recorder's one event store: the newest event overwrites the
/// oldest once `capacity` is reached, so memory stays fixed no matter how
/// long the service runs.
struct EventRing {
    capacity: usize,
    /// The retained events, oldest first.
    events: VecDeque<TraceEvent>,
    /// Events overwritten so far.
    overwritten: u64,
}

impl EventRing {
    fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.overwritten += 1;
        }
        self.events.push_back(event);
    }
}

/// Write lanes per recorder: the handle that built it plus up to 15
/// clones each get a lane of their own.
const LANES: usize = 16;

/// Events a lane holds before it moves them into the ring.
const LANE_BATCH: usize = 64;

/// One phase's counts in one lane: a [`Histogram`] without atomics, since
/// only the lane's lock holder writes it.
struct LaneHistogram {
    buckets: [u64; BUCKETS],
    sum_ns: u64,
    max_ns: u64,
}

impl LaneHistogram {
    const EMPTY: LaneHistogram = LaneHistogram {
        buckets: [0; BUCKETS],
        sum_ns: 0,
        max_ns: 0,
    };

    fn record(&mut self, nanos: u64) {
        self.buckets[bucket_index(nanos)] += 1;
        self.sum_ns = self.sum_ns.saturating_add(nanos);
        self.max_ns = self.max_ns.max(nanos);
    }
}

type PhaseCounts = [LaneHistogram; Phase::ALL.len()];
type PhaseSnapshots = [HistogramSnapshot; Phase::ALL.len()];

/// Folds one lane's per-phase counts into merged snapshots.
fn merge_counts(into: &mut PhaseSnapshots, counts: &PhaseCounts) {
    for (merged, lane) in into.iter_mut().zip(counts) {
        *merged = merged.merge(&HistogramSnapshot::from_parts(
            lane.buckets,
            lane.sum_ns,
            lane.max_ns,
        ));
    }
}

/// One lane, aligned so that no two lanes share a cache line or an
/// adjacent-line prefetch pair.
#[repr(align(128))]
struct Lane(Mutex<LaneState>);

struct LaneState {
    phases: PhaseCounts,
    /// Per-node phase counts, sorted by node id — the digests behind
    /// [`Recorder::node_summaries`] (timings only, never values).
    nodes: Vec<(u32, PhaseCounts)>,
    /// Events not yet in the ring, oldest first; never more than
    /// [`LANE_BATCH`].
    pending: Vec<TraceEvent>,
}

impl LaneState {
    fn node_counts(&mut self, node: u32) -> &mut PhaseCounts {
        let at = match self.nodes.binary_search_by_key(&node, |(id, _)| *id) {
            Ok(at) => at,
            Err(at) => {
                self.nodes
                    .insert(at, (node, [LaneHistogram::EMPTY; Phase::ALL.len()]));
                at
            }
        };
        &mut self.nodes[at].1
    }
}

struct Inner {
    epoch: Instant,
    /// Keep a span when `seq & sample_mask == 0`; 0 keeps every span.
    sample_mask: u64,
    lanes: [Lane; LANES],
    /// The lane the next clone takes, modulo [`LANES`].
    next_lane: AtomicUsize,
    /// Lock order: a lane's lock, when held, is taken before this one.
    events: Mutex<EventRing>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    gauges_f64: Mutex<BTreeMap<String, Arc<GaugeF64Cell>>>,
    named: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The telemetry hub for one run or one standing service.
///
/// Cloning is cheap and every clone feeds the same sink, so a recorder can
/// be handed to each worker thread. Each clone writes its spans through a
/// lane of its own (see the module docs), so threads holding different
/// clones do not contend while they record; readers see every clone's
/// spans. A recorder is either *enabled* (allocated sink) or *disabled*
/// (`None` inside — every call is a single branch and
/// [`clock`](Recorder::clock) never touches the OS clock), so
/// instrumentation can stay unconditionally in place on hot paths.
///
/// # Example
///
/// ```
/// use privtopk_observe::{Ctx, Phase, Recorder};
///
/// let rec = Recorder::new();
/// rec.add("retransmissions", 2);
/// rec.gauge_set("pipeline_depth", 4);
/// let t0 = rec.clock();
/// rec.record(Phase::Send, Ctx::default().with_node(0), t0);
/// let summary = rec.summary();
/// assert_eq!(summary.counters, vec![("retransmissions".to_string(), 2)]);
/// ```
#[derive(Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    /// This handle's write lane, an index into `Inner::lanes`.
    lane: usize,
    /// Per-handle span sequence for sampling. Each clone counts its own
    /// spans, so sampling decisions never bounce a cache line between
    /// worker threads.
    span_seq: AtomicU64,
}

impl Clone for Recorder {
    fn clone(&self) -> Self {
        let lane = self.inner.as_deref().map_or(0, |inner| {
            inner.next_lane.fetch_add(1, Ordering::Relaxed) % LANES
        });
        Recorder {
            inner: self.inner.clone(),
            lane,
            span_seq: AtomicU64::new(0),
        }
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// A recorder that records nothing, at near-zero cost.
    #[must_use]
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// A full recorder: phase histograms, registries, and the newest
    /// [`DEFAULT_EVENT_CAPACITY`] trace events.
    #[must_use]
    pub fn new() -> Self {
        Recorder::build(DEFAULT_EVENT_CAPACITY, 0)
    }

    /// A recorder that aggregates histograms/counters/gauges and keeps
    /// only the newest [`DEFAULT_FLIGHT_CAPACITY`] trace events — the
    /// cheapest *enabled* mode that keeps every span.
    #[must_use]
    pub fn stats_only() -> Self {
        Recorder::build(DEFAULT_FLIGHT_CAPACITY, 0)
    }

    /// A stats-only recorder that keeps one timed span out of every
    /// `2^shift` per handle (deterministic — a per-clone sequence counter,
    /// no RNG, so seeded protocol streams are untouched).
    ///
    /// Instantaneous events ([`tick`](Recorder::tick) — retransmissions,
    /// re-ACKs), counters, gauges and named histograms stay exact; only
    /// [`clock`](Recorder::clock)-opened spans are sampled. This is the
    /// always-on production mode: on a microsecond-hop in-memory ring the
    /// full per-hop timing costs double-digit percent, while 1-in-64
    /// sampling keeps quantile estimates at well under 2% overhead.
    #[must_use]
    pub fn sampled(shift: u32) -> Self {
        Recorder::build(DEFAULT_FLIGHT_CAPACITY, (1u64 << shift.min(63)) - 1)
    }

    /// Builds an enabled recorder whose handle writes through lane 0.
    fn build(event_capacity: usize, sample_mask: u64) -> Self {
        Recorder {
            span_seq: AtomicU64::new(0),
            lane: 0,
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                sample_mask,
                lanes: std::array::from_fn(|_| {
                    Lane(Mutex::new(LaneState {
                        phases: [LaneHistogram::EMPTY; Phase::ALL.len()],
                        nodes: Vec::new(),
                        pending: Vec::new(),
                    }))
                }),
                next_lane: AtomicUsize::new(1),
                events: Mutex::new(EventRing {
                    capacity: event_capacity,
                    events: VecDeque::new(),
                    overwritten: 0,
                }),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                gauges_f64: Mutex::new(BTreeMap::new()),
                named: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether this recorder records anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Time elapsed since this recorder was created — the service
    /// uptime behind `privtopk_service_uptime_seconds`. `None` when
    /// disabled (a disabled recorder has no epoch to measure from).
    #[must_use]
    pub fn uptime(&self) -> Option<Duration> {
        self.inner.as_deref().map(|inner| inner.epoch.elapsed())
    }

    /// Reads the clock — but only when enabled and this span is sampled.
    ///
    /// The returned instant is what instrumented code later passes to
    /// [`record`](Recorder::record); a disabled recorder returns `None`
    /// so hot paths skip the clock read entirely, and a
    /// [`sampled`](Recorder::sampled) recorder returns `None` for the
    /// spans it elides (the paired `record` then no-ops too).
    #[must_use]
    pub fn clock(&self) -> Option<Instant> {
        let inner = self.inner.as_deref()?;
        if inner.sample_mask != 0 {
            let seq = self.span_seq.fetch_add(1, Ordering::Relaxed);
            if seq & inner.sample_mask != 0 {
                return None;
            }
        }
        Some(Instant::now())
    }

    /// Closes a span opened with [`clock`](Recorder::clock).
    ///
    /// No-op when disabled or when `started` is `None` (which is exactly
    /// what a disabled recorder's `clock` returned, so the two pair up).
    pub fn record(&self, phase: Phase, ctx: Ctx, started: Option<Instant>) {
        if let (Some(inner), Some(started)) = (self.inner.as_deref(), started) {
            let dur = started.elapsed();
            inner.record_event(self.lane, phase, ctx, started, dur);
        }
    }

    /// Records an instantaneous event (zero duration, timestamped now).
    pub fn tick(&self, phase: Phase, ctx: Ctx) {
        if let Some(inner) = self.inner.as_deref() {
            inner.record_event(self.lane, phase, ctx, Instant::now(), Duration::ZERO);
        }
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.counter(name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Sets the named counter to an absolute value.
    ///
    /// This is how external figures (e.g. a drained `TransportMetrics`
    /// snapshot) are absorbed into the registry.
    pub fn set_counter(&self, name: &str, value: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.counter(name).store(value, Ordering::Relaxed);
        }
    }

    /// Reads a counter (0 when absent or disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_deref()
            .and_then(|inner| {
                inner
                    .counters
                    .lock()
                    .get(name)
                    .map(|c| c.load(Ordering::Relaxed))
            })
            .unwrap_or(0)
    }

    /// Sets the named gauge, tracking its high-water mark.
    pub fn gauge_set(&self, name: &str, value: u64) {
        if let Some(inner) = self.inner.as_deref() {
            let cell = inner.gauge(name);
            cell.value.store(value, Ordering::Relaxed);
            cell.high_water.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Reads a gauge (`None` when absent or disabled).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<GaugeSnapshot> {
        let inner = self.inner.as_deref()?;
        let cell = inner.gauges.lock().get(name).cloned()?;
        Some(GaugeSnapshot {
            value: cell.value.load(Ordering::Relaxed),
            high_water: cell.high_water.load(Ordering::Relaxed),
        })
    }

    /// Sets the named floating-point gauge, tracking its high-water
    /// mark. `NaN` values are ignored — a gauge can only hold a real
    /// observation.
    pub fn gauge_set_f64(&self, name: &str, value: f64) {
        if value.is_nan() {
            return;
        }
        if let Some(inner) = self.inner.as_deref() {
            inner.gauge_f64(name).set(value);
        }
    }

    /// Reads a floating-point gauge (`None` when absent or disabled).
    #[must_use]
    pub fn gauge_f64(&self, name: &str) -> Option<GaugeF64Snapshot> {
        let inner = self.inner.as_deref()?;
        let cell = inner.gauges_f64.lock().get(name).cloned()?;
        Some(cell.snapshot())
    }

    /// Closes a span into the named histogram (no trace event).
    ///
    /// For aggregate-only timings like queue waits where a per-event line
    /// would add noise without information.
    pub fn observe_named(&self, name: &str, started: Option<Instant>) {
        if let (Some(inner), Some(started)) = (self.inner.as_deref(), started) {
            inner
                .named_histogram(name)
                .record_duration(started.elapsed());
        }
    }

    /// Records an already-measured duration into the named histogram.
    ///
    /// For figures measured outside the recorder's own clock.
    pub fn observe_named_duration(&self, name: &str, duration: Duration) {
        if let Some(inner) = self.inner.as_deref() {
            inner.named_histogram(name).record_duration(duration);
        }
    }

    /// Reads the named histogram (`None` when absent or disabled).
    #[must_use]
    pub fn named(&self, name: &str) -> Option<HistogramSnapshot> {
        let inner = self.inner.as_deref()?;
        let hist = inner.named.lock().get(name).cloned()?;
        Some(hist.snapshot())
    }

    /// Reads the aggregate histogram for one phase.
    #[must_use]
    pub fn phase(&self, phase: Phase) -> HistogramSnapshot {
        self.inner
            .as_deref()
            .map(|inner| inner.phases()[phase.index()])
            .unwrap_or_default()
    }

    /// How many trace events the ring has overwritten.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.inner
            .as_deref()
            .map(|inner| inner.ring(|ring| ring.overwritten))
            .unwrap_or(0)
    }

    /// How many trace events the ring holds.
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.inner
            .as_deref()
            .map(|inner| inner.ring(|ring| ring.events.len() as u64))
            .unwrap_or(0)
    }

    /// The retained trace as JSON Lines, one event per line, ordered by
    /// timestamp — the input of the trace analyzer and collector.
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }

    /// A copy of the retained trace events, ordered by timestamp — the
    /// live-ingestion surface for `crate::collector`.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        let mut events: Vec<TraceEvent> = inner.ring(|ring| ring.events.iter().copied().collect());
        events.sort_by_key(|e| e.t_us);
        events
    }

    /// Per-node phase digests: the summary each ring member ships back
    /// to the initiator at query completion, sorted by node index.
    ///
    /// Every span that carried a node coordinate contributed; like all
    /// recorder output this holds timings and coordinates only, never a
    /// protocol value.
    #[must_use]
    pub fn node_summaries(&self) -> Vec<NodeSummary> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        let mut nodes: BTreeMap<u32, PhaseSnapshots> = BTreeMap::new();
        inner.read_lanes(|lane| {
            for (node, counts) in &lane.nodes {
                merge_counts(nodes.entry(*node).or_default(), counts);
            }
        });
        nodes
            .into_iter()
            .map(|(node, phases)| NodeSummary {
                node,
                phases: Phase::ALL
                    .iter()
                    .map(|&p| (p, phases[p.index()]))
                    .filter(|(_, snap)| !snap.is_empty())
                    .collect(),
            })
            .collect()
    }

    /// Snapshots every aggregate into a displayable [`Summary`].
    #[must_use]
    pub fn summary(&self) -> Summary {
        let Some(inner) = self.inner.as_deref() else {
            return Summary::default();
        };
        let merged = inner.phases();
        let phases = Phase::ALL
            .iter()
            .map(|&p| (p, merged[p.index()]))
            .filter(|(_, snap)| !snap.is_empty())
            .collect();
        let (events_recorded, events_dropped) = {
            let ring = inner.events.lock();
            (ring.events.len() as u64, ring.overwritten)
        };
        let named = inner
            .named
            .lock()
            .iter()
            .map(|(name, hist)| (name.to_string(), hist.snapshot()))
            .collect();
        let counters = inner
            .counters
            .lock()
            .iter()
            .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .iter()
            .map(|(name, cell)| {
                (
                    name.to_string(),
                    GaugeSnapshot {
                        value: cell.value.load(Ordering::Relaxed),
                        high_water: cell.high_water.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        let gauges_f64 = inner
            .gauges_f64
            .lock()
            .iter()
            .map(|(name, cell)| (name.to_string(), cell.snapshot()))
            .collect();
        Summary {
            phases,
            named,
            counters,
            gauges,
            gauges_f64,
            events_recorded,
            events_dropped,
        }
    }
}

impl Inner {
    fn record_event(&self, lane: usize, phase: Phase, ctx: Ctx, started: Instant, dur: Duration) {
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let t_us = u64::try_from(started.saturating_duration_since(self.epoch).as_micros())
            .unwrap_or(u64::MAX);
        // Every event that reaches the sink lands in the one ring, in
        // every enabled mode, a batch at a time: the span itself locks
        // only its handle's lane.
        let mut state = self.lanes[lane].0.lock();
        state.phases[phase.index()].record(dur_ns);
        if let Some(node) = ctx.node {
            state.node_counts(node)[phase.index()].record(dur_ns);
        }
        state.pending.push(TraceEvent {
            t_us,
            phase,
            ctx,
            dur_ns,
        });
        if state.pending.len() == LANE_BATCH {
            self.flush(&mut state);
        }
    }

    /// Moves a lane's pending events into the ring, oldest first. The
    /// caller holds the lane's lock, so no reader can miss an event in
    /// transit.
    fn flush(&self, lane: &mut LaneState) {
        let mut ring = self.events.lock();
        for event in lane.pending.drain(..) {
            ring.push(event);
        }
    }

    /// Flushes every lane's pending events, handing each lane's counts to
    /// `read` while its lock is held.
    fn read_lanes(&self, mut read: impl FnMut(&LaneState)) {
        for lane in &self.lanes {
            let mut state = lane.0.lock();
            self.flush(&mut state);
            read(&state);
        }
    }

    /// Every phase's counts, merged over the lanes.
    fn phases(&self) -> PhaseSnapshots {
        let mut phases = PhaseSnapshots::default();
        self.read_lanes(|lane| merge_counts(&mut phases, &lane.phases));
        phases
    }

    /// Reads the ring once every lane's pending events are in it.
    fn ring<R>(&self, read: impl FnOnce(&EventRing) -> R) -> R {
        self.read_lanes(|_| {});
        read(&self.events.lock())
    }

    // Registry keys are owned `String`s so labels can be built at
    // runtime; each helper looks up by `&str` first so the steady state
    // allocates nothing.

    fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut counters = self.counters.lock();
        if let Some(cell) = counters.get(name) {
            return cell.clone();
        }
        let cell = Arc::new(AtomicU64::new(0));
        counters.insert(name.to_string(), cell.clone());
        cell
    }

    fn gauge(&self, name: &str) -> Arc<GaugeCell> {
        let mut gauges = self.gauges.lock();
        if let Some(cell) = gauges.get(name) {
            return cell.clone();
        }
        let cell = Arc::new(GaugeCell {
            value: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        });
        gauges.insert(name.to_string(), cell.clone());
        cell
    }

    fn gauge_f64(&self, name: &str) -> Arc<GaugeF64Cell> {
        let mut gauges = self.gauges_f64.lock();
        if let Some(cell) = gauges.get(name) {
            return cell.clone();
        }
        let cell = Arc::new(GaugeF64Cell {
            value_bits: AtomicU64::new(0f64.to_bits()),
            high_water_bits: AtomicU64::new(0f64.to_bits()),
        });
        gauges.insert(name.to_string(), cell.clone());
        cell
    }

    fn named_histogram(&self, name: &str) -> Arc<Histogram> {
        let mut named = self.named.lock();
        if let Some(hist) = named.get(name) {
            return hist.clone();
        }
        let hist = Arc::new(Histogram::new());
        named.insert(name.to_string(), hist.clone());
        hist
    }
}

/// One ring member's phase digests, as shipped back to the initiator.
///
/// Carries node index and per-phase timing digests only — the same
/// no-leak vocabulary as every other recorder surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSummary {
    /// Node index in `0..n`.
    pub node: u32,
    /// Per-phase latency digests (phases with no samples are omitted).
    pub phases: Vec<(Phase, HistogramSnapshot)>,
}

impl NodeSummary {
    /// Total busy nanoseconds across compute phases (encode/send/step) —
    /// the load-skew numerator used by the analyzer. Receive waits are
    /// excluded: they measure the predecessor, not this node.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|(p, _)| matches!(p, Phase::Encode | Phase::Send | Phase::Step))
            .map(|(_, snap)| snap.sum_ns)
            .sum()
    }
}

/// Aggregated run statistics, rendered by `Display` as a fixed-width
/// table: one row per phase / named histogram with count, p50/p90/p99,
/// max and mean, followed by counters and gauges.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per-phase latency digests (phases with no samples are omitted).
    pub phases: Vec<(Phase, HistogramSnapshot)>,
    /// Named histograms (e.g. `queue_wait`), sorted by name.
    pub named: Vec<(String, HistogramSnapshot)>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// Floating-point gauges (e.g. live privacy estimates), sorted by
    /// name.
    pub gauges_f64: Vec<(String, GaugeF64Snapshot)>,
    /// Trace events held in the recorder's ring.
    pub events_recorded: u64,
    /// Trace events the ring has overwritten.
    pub events_dropped: u64,
}

/// Renders nanoseconds with an adaptive unit (ASCII only).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "phase", "count", "p50", "p90", "p99", "max", "mean"
        )?;
        let mut row = |name: &str, snap: &HistogramSnapshot| {
            writeln!(
                f,
                "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                name,
                snap.count,
                fmt_ns(snap.p50_ns),
                fmt_ns(snap.p90_ns),
                fmt_ns(snap.p99_ns),
                fmt_ns(snap.max_ns),
                fmt_ns(snap.mean_ns() as u64),
            )
        };
        for (phase, snap) in &self.phases {
            row(phase.as_str(), snap)?;
        }
        for (name, snap) in &self.named {
            row(name, snap)?;
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, value) in &self.counters {
                writeln!(f, "  {name} = {value}")?;
            }
        }
        if !self.gauges.is_empty() || !self.gauges_f64.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, gauge) in &self.gauges {
                writeln!(
                    f,
                    "  {name} = {} (high water {})",
                    gauge.value, gauge.high_water
                )?;
            }
            for (name, gauge) in &self.gauges_f64 {
                writeln!(
                    f,
                    "  {name} = {:.4} (high water {:.4})",
                    gauge.value, gauge.high_water
                )?;
            }
        }
        writeln!(
            f,
            "trace events: {} buffered, {} dropped",
            self.events_recorded, self.events_dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        assert!(rec.clock().is_none());
        rec.record(Phase::Step, Ctx::default(), rec.clock());
        rec.tick(Phase::Retry, Ctx::default());
        rec.add("retransmissions", 5);
        rec.gauge_set("pipeline_depth", 3);
        rec.observe_named("queue_wait", rec.clock());
        assert_eq!(rec.phase(Phase::Step).count, 0);
        assert_eq!(rec.counter("retransmissions"), 0);
        assert!(rec.gauge("pipeline_depth").is_none());
        assert!(rec.named("queue_wait").is_none());
        assert_eq!(rec.trace_jsonl(), "");
        assert_eq!(rec.summary().phases.len(), 0);
    }

    #[test]
    fn record_feeds_phase_histogram_and_event_buffer() {
        let rec = Recorder::new();
        let t0 = rec.clock();
        assert!(t0.is_some());
        rec.record(Phase::Send, Ctx::default().with_node(1).with_round(2), t0);
        assert_eq!(rec.phase(Phase::Send).count, 1);
        assert_eq!(rec.events_recorded(), 1);
        let trace = rec.trace_jsonl();
        assert!(trace.contains("\"phase\":\"send\""));
        assert!(trace.contains("\"node\":1"));
        assert!(trace.contains("\"round\":2"));
        assert!(!trace.contains("query")); // unset coordinates are omitted
    }

    #[test]
    fn stats_only_recorder_keeps_histograms_and_recent_events() {
        let rec = Recorder::stats_only();
        rec.record(Phase::Step, Ctx::default(), rec.clock());
        assert_eq!(rec.phase(Phase::Step).count, 1);
        assert_eq!(rec.events_recorded(), 1);
        assert_eq!(rec.events_dropped(), 0);
        assert!(rec.trace_jsonl().contains("\"phase\":\"step\""));
    }

    #[test]
    fn sampled_recorder_keeps_one_span_in_2_to_the_shift() {
        let rec = Recorder::sampled(3);
        let mut kept = 0;
        for _ in 0..32 {
            let t0 = rec.clock();
            kept += usize::from(t0.is_some());
            rec.record(Phase::Step, Ctx::default(), t0);
        }
        assert_eq!(kept, 4); // 32 spans at 1-in-8
        assert_eq!(rec.phase(Phase::Step).count, 4);
        // Counters and ticks are exact regardless of sampling.
        rec.add("retransmissions", 2);
        rec.tick(Phase::Retry, Ctx::default());
        rec.tick(Phase::Retry, Ctx::default());
        assert_eq!(rec.counter("retransmissions"), 2);
        assert_eq!(rec.phase(Phase::Retry).count, 2);
        // Each clone samples on its own sequence, starting at zero.
        let clone = rec.clone();
        assert!(clone.clock().is_some());
    }

    #[test]
    fn event_cap_counts_drops_instead_of_growing() {
        let rec = Recorder::stats_only();
        for _ in 0..DEFAULT_FLIGHT_CAPACITY + 3 {
            rec.tick(Phase::Idle, Ctx::default());
        }
        assert_eq!(rec.events_recorded(), DEFAULT_FLIGHT_CAPACITY as u64);
        assert_eq!(rec.events_dropped(), 3);
        // The histograms still saw every sample.
        assert_eq!(
            rec.phase(Phase::Idle).count,
            DEFAULT_FLIGHT_CAPACITY as u64 + 3
        );
        let summary = rec.summary();
        assert_eq!(summary.events_dropped, 3);
    }

    #[test]
    fn counters_gauges_and_named_histograms_register() {
        let rec = Recorder::new();
        rec.add("retransmissions", 1);
        rec.add("retransmissions", 2);
        rec.set_counter("frames_sent", 53);
        rec.gauge_set("pipeline_depth", 4);
        rec.gauge_set("pipeline_depth", 9);
        rec.gauge_set("pipeline_depth", 2);
        rec.observe_named("queue_wait", rec.clock());
        assert_eq!(rec.counter("retransmissions"), 3);
        assert_eq!(rec.counter("frames_sent"), 53);
        assert_eq!(
            rec.gauge("pipeline_depth"),
            Some(GaugeSnapshot {
                value: 2,
                high_water: 9
            })
        );
        assert_eq!(rec.named("queue_wait").unwrap().count, 1);
    }

    #[test]
    fn f64_gauges_register_and_track_high_water() {
        let rec = Recorder::stats_only();
        rec.gauge_set_f64("privacy_lop", 0.25);
        rec.gauge_set_f64("privacy_lop", 0.75);
        rec.gauge_set_f64("privacy_lop", 0.5);
        let snap = rec.gauge_f64("privacy_lop").unwrap();
        assert_eq!(snap.value, 0.5);
        assert_eq!(snap.high_water, 0.75);
        // NaN sets are dropped; the gauge keeps its last real value.
        rec.gauge_set_f64("privacy_lop", f64::NAN);
        assert_eq!(rec.gauge_f64("privacy_lop").unwrap().value, 0.5);
        assert!(rec.gauge_f64("missing").is_none());
        assert!(Recorder::disabled().gauge_f64("privacy_lop").is_none());
        // Summaries carry and render the f64 registry.
        let text = rec.summary().to_string();
        assert!(text.contains("privacy_lop = 0.5000 (high water 0.7500)"));
    }

    #[test]
    fn clones_share_one_sink() {
        let rec = Recorder::new();
        let worker = rec.clone();
        worker.add("retransmissions", 7);
        worker.tick(Phase::Retry, Ctx::default().with_node(3));
        assert_eq!(rec.counter("retransmissions"), 7);
        assert_eq!(rec.events_recorded(), 1);
    }

    #[test]
    fn trace_json_schema_is_fixed() {
        let rec = Recorder::new();
        rec.tick(
            Phase::Step,
            Ctx::default()
                .with_query(7)
                .with_slot(7)
                .with_node(0)
                .with_round(1)
                .with_hop(4),
        );
        let line = rec.trace_jsonl();
        let line = line.trim();
        assert!(line.starts_with('{') && line.ends_with('}'));
        for key in [
            "t_us", "phase", "query", "slot", "node", "round", "hop", "dur_ns",
        ] {
            assert!(
                line.contains(&format!("\"{key}\":")),
                "missing {key} in {line}"
            );
        }
    }

    #[test]
    fn trace_is_sorted_by_timestamp() {
        let rec = Recorder::new();
        for _ in 0..64 {
            rec.tick(Phase::Step, Ctx::default());
        }
        let trace = rec.trace_jsonl();
        let stamps: Vec<u64> = trace
            .lines()
            .map(|l| {
                let rest = l.strip_prefix("{\"t_us\":").unwrap();
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn summary_renders_phases_counters_and_gauges() {
        let rec = Recorder::new();
        rec.record(Phase::Recv, Ctx::default(), rec.clock());
        rec.add("re_acks", 4);
        rec.gauge_set("pipeline_depth", 16);
        rec.observe_named("queue_wait", rec.clock());
        let text = rec.summary().to_string();
        assert!(text.contains("phase"));
        assert!(text.contains("p50"));
        assert!(text.contains("p99"));
        assert!(text.contains("recv"));
        assert!(text.contains("queue_wait"));
        assert!(text.contains("re_acks = 4"));
        assert!(text.contains("pipeline_depth = 16 (high water 16)"));
        assert!(!text.contains("encode")); // empty phases omitted
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }

    #[test]
    fn runtime_built_registry_names_work() {
        let rec = Recorder::new();
        for group in 0..3 {
            let name = format!("queue_wait/group{group}");
            rec.observe_named_duration(&name, Duration::from_nanos(100 * (group + 1)));
            rec.add(&format!("jobs/group{group}"), 2);
        }
        assert_eq!(rec.named("queue_wait/group1").unwrap().count, 1);
        assert_eq!(rec.counter("jobs/group2"), 2);
        let summary = rec.summary();
        assert_eq!(summary.named.len(), 3);
        assert!(summary.named.iter().any(|(n, _)| n == "queue_wait/group0"));
    }

    #[test]
    fn node_summaries_aggregate_per_node_spans() {
        let rec = Recorder::stats_only();
        rec.record(Phase::Step, Ctx::default().with_node(2), rec.clock());
        rec.record(Phase::Step, Ctx::default().with_node(0), rec.clock());
        rec.record(Phase::Send, Ctx::default().with_node(0), rec.clock());
        rec.tick(Phase::Retry, Ctx::default().with_node(0));
        // Spans without a node coordinate stay out of node summaries.
        rec.record(Phase::Step, Ctx::default(), rec.clock());
        let summaries = rec.node_summaries();
        assert_eq!(
            summaries.iter().map(|s| s.node).collect::<Vec<_>>(),
            vec![0, 2]
        );
        let node0 = &summaries[0];
        let step = node0
            .phases
            .iter()
            .find(|(p, _)| *p == Phase::Step)
            .unwrap();
        assert_eq!(step.1.count, 1);
        assert!(node0.phases.iter().any(|(p, _)| *p == Phase::Retry));
        assert_eq!(summaries[1].phases.len(), 1); // node 2: step only
        assert_eq!(Recorder::disabled().node_summaries(), Vec::new());
    }

    #[test]
    fn events_accessor_returns_sorted_copies() {
        let rec = Recorder::new();
        rec.tick(Phase::Step, Ctx::default().with_node(1));
        rec.tick(Phase::Send, Ctx::default().with_node(1));
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert!(Recorder::disabled().events().is_empty());
    }

    #[test]
    fn lanes_merge_concurrent_handles_exactly() {
        // Six clones on six threads, as a six-node ring's workers hold
        // them: the merged counts are what one shared histogram fed every
        // span would hold, and the ring keeps exactly its capacity.
        let rec = Recorder::stats_only();
        std::thread::scope(|s| {
            for node in 0..6u32 {
                let handle = rec.clone();
                s.spawn(move || {
                    let ctx = Ctx::default().with_node(node);
                    for _ in 0..1000 {
                        handle.record(Phase::Step, ctx, handle.clock());
                        handle.tick(Phase::Retry, ctx);
                    }
                });
            }
        });
        assert_eq!(rec.phase(Phase::Step).count, 6000);
        assert_eq!(rec.phase(Phase::Retry).count, 6000);
        let summaries = rec.node_summaries();
        assert_eq!(
            summaries.iter().map(|s| s.node).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        for summary in &summaries {
            let counts: Vec<(Phase, u64)> = summary
                .phases
                .iter()
                .map(|(p, snap)| (*p, snap.count))
                .collect();
            assert_eq!(counts, vec![(Phase::Step, 1000), (Phase::Retry, 1000)]);
        }
        for phase in [Phase::Step, Phase::Retry] {
            let per_node: Vec<HistogramSnapshot> = summaries
                .iter()
                .flat_map(|s| &s.phases)
                .filter(|(p, _)| *p == phase)
                .map(|(_, snap)| *snap)
                .collect();
            let merged = rec.phase(phase);
            assert_eq!(
                merged.sum_ns,
                per_node.iter().map(|snap| snap.sum_ns).sum::<u64>()
            );
            let folded = per_node
                .iter()
                .fold(HistogramSnapshot::default(), |acc, snap| acc.merge(snap));
            assert_eq!(merged, folded);
        }
        assert_eq!(rec.events_recorded(), 4096);
        assert_eq!(rec.events_dropped(), 7904);
        let events = rec.events();
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn pending_lane_events_reach_every_reader() {
        // Three ticks, fewer than a lane's batch, from a clone whose
        // thread has exited. Each reader gets a fresh recorder, so each
        // must move the pending events into the ring itself.
        fn three_pending() -> Recorder {
            let rec = Recorder::stats_only();
            let handle = rec.clone();
            std::thread::spawn(move || {
                for _ in 0..3 {
                    handle.tick(Phase::Retry, Ctx::default().with_node(2));
                }
            })
            .join()
            .expect("ticking thread panicked");
            rec
        }
        assert_eq!(three_pending().events().len(), 3);
        assert_eq!(three_pending().trace_jsonl().lines().count(), 3);
        assert_eq!(three_pending().events_recorded(), 3);
        assert_eq!(three_pending().summary().events_recorded, 3);
        let summaries = three_pending().node_summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].node, 2);
        assert_eq!(summaries[0].phases[0].0, Phase::Retry);
        assert_eq!(summaries[0].phases[0].1.count, 3);
        let body = crate::render_summary(&three_pending().summary());
        assert!(body.contains("privtopk_trace_events_recorded_total 3\n"));
    }

    #[test]
    fn flight_ring_is_always_on_and_keeps_the_newest_events() {
        // A stats_only recorder's ring holds the newest events, oldest
        // first, and the trace and event surfaces both read it.
        let rec = Recorder::stats_only();
        for round in 0..DEFAULT_FLIGHT_CAPACITY as u32 + 6 {
            rec.tick(Phase::Retry, Ctx::default().with_round(round));
        }
        let rounds: Vec<u32> = rec.events().iter().map(|e| e.ctx.round.unwrap()).collect();
        assert_eq!(
            rounds,
            (6..DEFAULT_FLIGHT_CAPACITY as u32 + 6).collect::<Vec<_>>()
        );
        assert_eq!(rec.events_dropped(), 6);
        let jsonl = rec.trace_jsonl();
        assert_eq!(jsonl.lines().count(), DEFAULT_FLIGHT_CAPACITY);
        assert!(jsonl.starts_with("{\"t_us\":"));
        assert!(jsonl.contains("\"phase\":\"retry\",\"round\":6,"));
        assert!(!jsonl.contains("\"round\":5,"));
        assert!(Recorder::disabled().events().is_empty());
        assert_eq!(Recorder::disabled().events_dropped(), 0);
    }
}
