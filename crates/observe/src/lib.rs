//! Privacy-safe telemetry for the `privtopk` query path.
//!
//! The paper's evaluation (Sections 4.2 and 5) reasons about per-hop
//! communication cost; this crate makes that cost *observable at runtime*
//! without weakening the protocol's privacy argument. It provides a
//! [`Recorder`] whose clones record spans through write lanes of their
//! own, with:
//!
//! - structured trace events carrying only protocol *coordinates*
//!   (query id, node, round, hop) and a [`Phase`] label,
//! - log-bucketed latency [`Histogram`]s (HDR-style, p50/p90/p99/max,
//!   snapshots mergeable across nodes),
//! - a counter/gauge registry that absorbs the transport-level figures
//!   previously only reachable through `TransportMetrics`,
//! - one bounded ring of the newest trace events per recorder, exported
//!   as JSONL, plus a compact text [`Summary`] table.
//!
//! # The no-leak constraint
//!
//! Telemetry must be safe to ship off-host, so by construction a trace
//! record can only hold the fields of [`Ctx`] plus timing. There is no API
//! for attaching data values: no `TopKVector` contents, no local-vector
//! sizes beyond `k`, nothing the `privtopk-privacy` adversary models could
//! consume. Enabling tracing therefore provably cannot change the loss of
//! privacy of a run, and the integration tests assert that serialized
//! traces never contain any value from any node's private dataset.
//!
//! # Disabled means free
//!
//! [`Recorder::disabled`] carries no allocation and every record call is a
//! single branch on an `Option`. Crucially, [`Recorder::clock`] returns
//! `None` when disabled, so instrumented code never even reads the OS
//! clock unless telemetry is on:
//!
//! ```
//! use privtopk_observe::{Ctx, Phase, Recorder};
//!
//! let rec = Recorder::new();
//! let started = rec.clock(); // None when disabled: no syscall, no work
//! // ... do the hop ...
//! rec.record(Phase::Step, Ctx::default().with_node(2).with_round(1), started);
//! assert_eq!(rec.phase(Phase::Step).count, 1);
//! let trace = rec.trace_jsonl();
//! assert!(trace.contains("\"phase\":\"step\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod collector;
mod histogram;
mod prometheus;
mod recorder;
mod slo;

pub use analyzer::{
    analyze, Analysis, AnalyzerConfig, HopBreakdown, Incident, NodeHealingCost, NodeLoad,
    QueryPath, Stall,
};
pub use collector::{
    parse_trace_line, CollectedSpan, CollectedTrace, Diagnostic, PrivacyLedger, TraceCollector,
};
pub use histogram::{bucket_upper, Histogram, HistogramSnapshot, BUCKETS};
pub use prometheus::{
    render_summary, sanitize_metric_name, scrape, scrape_path, scrape_timeout, write_build_info,
    write_counter, write_gauge, write_gauge_f64, write_gauge_f64_series, write_histogram,
    MetricsServer, SCRAPE_TIMEOUT,
};
pub use recorder::{
    GaugeSnapshot, Laps, NodeSummary, Recorder, Summary, TraceEvent, DEFAULT_EVENT_CAPACITY,
    DEFAULT_FLIGHT_CAPACITY,
};
pub use slo::{BurnRate, SloConfig, SloEngine, SloReport, SloStatus, WindowReport};

/// A phase label for one timed span of protocol work.
///
/// Phases are the only vocabulary trace events have for *what* happened;
/// everything else in an event is a protocol coordinate ([`Ctx`]) or a
/// duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Serializing a message into a wire frame.
    Encode,
    /// Handing a frame to the transport.
    Send,
    /// Waiting for and receiving a frame.
    Recv,
    /// The local per-hop computation (max / top-k step).
    Step,
    /// A reliable-transport retransmission.
    Retry,
    /// A duplicate-suppression re-acknowledgement.
    Ack,
    /// A worker sitting idle with no slot to serve.
    Idle,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 7] = [
        Phase::Encode,
        Phase::Send,
        Phase::Recv,
        Phase::Step,
        Phase::Retry,
        Phase::Ack,
        Phase::Idle,
    ];

    /// The lowercase wire name of this phase.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Encode => "encode",
            Phase::Send => "send",
            Phase::Recv => "recv",
            Phase::Step => "step",
            Phase::Retry => "retry",
            Phase::Ack => "ack",
            Phase::Idle => "idle",
        }
    }

    /// The inverse of [`Phase::as_str`]: parses a lowercase wire name.
    #[must_use]
    pub fn from_wire(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == name)
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Encode => 0,
            Phase::Send => 1,
            Phase::Recv => 2,
            Phase::Step => 3,
            Phase::Retry => 4,
            Phase::Ack => 5,
            Phase::Idle => 6,
        }
    }
}

/// Protocol coordinates attached to a trace event.
///
/// Every field is an *identifier*, never a data value: which query, which
/// node, which round, which hop position. Fields left `None` are omitted
/// from the serialized trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ctx {
    /// Scheduler-assigned query id (service/batch runs).
    pub query: Option<u64>,
    /// Node index in `0..n`.
    pub node: Option<u32>,
    /// Protocol round, counted from 1.
    pub round: Option<u32>,
    /// Ring position of the hop, counted from 0.
    pub hop: Option<u32>,
}

impl Ctx {
    /// A context with every field unset.
    pub const EMPTY: Ctx = Ctx {
        query: None,
        node: None,
        round: None,
        hop: None,
    };

    /// Sets the query id.
    #[must_use]
    pub fn with_query(mut self, query: u64) -> Self {
        self.query = Some(query);
        self
    }

    /// Sets the node index.
    #[must_use]
    pub fn with_node(mut self, node: u32) -> Self {
        self.node = Some(node);
        self
    }

    /// Sets the protocol round.
    #[must_use]
    pub fn with_round(mut self, round: u32) -> Self {
        self.round = Some(round);
        self
    }

    /// Sets the ring-position hop index.
    #[must_use]
    pub fn with_hop(mut self, hop: u32) -> Self {
        self.hop = Some(hop);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(
            names,
            ["encode", "send", "recv", "step", "retry", "ack", "idle"]
        );
    }

    #[test]
    fn phase_indices_are_dense_and_unique() {
        let mut seen = [false; Phase::ALL.len()];
        for p in Phase::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
    }

    #[test]
    fn ctx_builder_sets_fields() {
        let ctx = Ctx::default()
            .with_query(9)
            .with_node(3)
            .with_round(4)
            .with_hop(5);
        assert_eq!(ctx.query, Some(9));
        assert_eq!(ctx.node, Some(3));
        assert_eq!(ctx.round, Some(4));
        assert_eq!(ctx.hop, Some(5));
        assert_eq!(Ctx::EMPTY, Ctx::default());
    }
}
