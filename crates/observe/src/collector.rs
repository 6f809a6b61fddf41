//! Cross-node trace collection: merging per-node JSONL traces and live
//! [`Recorder`] snapshots into one causally ordered view.
//!
//! In distributed and service mode every process records its own trace
//! island; this module reassembles a whole ring traversal from them.
//! Spans are keyed by `(query, slot, round, hop)` and ordered causally
//! (round-major along the ring, matching Algorithm 1/2's token path), so
//! a complete traversal reads top to bottom. Collection is forgiving by
//! design: malformed lines, duplicate spans, gaps in the hop chain and
//! timestamp inversions become structured [`Diagnostic`]s — never a
//! panic and never an `Err` — because a fleet's trace files are exactly
//! the artifact most likely to be truncated mid-write.
//!
//! Like every other `privtopk-observe` surface, collected output carries
//! protocol coordinates and timings only: the ingestion schema *is* the
//! `TraceEvent` schema, so there is no field a data value could ride in.

use std::collections::BTreeMap;

use crate::recorder::{NodeSummary, TraceEvent};
use crate::{Ctx, Phase};

/// One span in a collected trace: the event plus which source it came
/// from (an index into [`CollectedTrace::sources`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectedSpan {
    /// The parsed trace event.
    pub event: TraceEvent,
    /// Index of the originating source in [`CollectedTrace::sources`].
    pub source: usize,
}

/// A structured problem found while collecting or validating a trace.
///
/// Diagnostics are data, not errors: a collector never fails on bad
/// input, it reports what it had to skip or could not reconcile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Diagnostic {
    /// A line that did not parse as a trace event (malformed JSON,
    /// unknown phase, non-integer field — typically a truncated write).
    MalformedLine {
        /// Which source the line came from.
        source: String,
        /// 1-based line number within that source.
        line: usize,
        /// Why the line was rejected.
        reason: String,
    },
    /// The same `(query, slot, round, hop)` step appeared more than
    /// once (e.g. the same trace ingested twice); only the earliest
    /// occurrence is kept.
    DuplicateStep {
        /// Query id (`None` for untagged solo traces).
        query: Option<u64>,
        /// Protocol round.
        round: u32,
        /// Ring position.
        hop: u32,
    },
    /// A hop expected from the ring topology has no step span.
    MissingStep {
        /// Query id (`None` for untagged solo traces).
        query: Option<u64>,
        /// Protocol round.
        round: u32,
        /// Ring position.
        hop: u32,
    },
    /// A step's timestamp precedes its causal predecessor's — clock
    /// skew between per-node sources, worth knowing when reading
    /// wall-clock figures.
    OutOfOrderStep {
        /// Query id (`None` for untagged solo traces).
        query: Option<u64>,
        /// Protocol round of the earlier-stamped later hop.
        round: u32,
        /// Ring position of the earlier-stamped later hop.
        hop: u32,
    },
    /// One ring position was claimed by two different nodes within a
    /// query — the reconstructed chain contradicts the ring topology.
    TopologyMismatch {
        /// Query id (`None` for untagged solo traces).
        query: Option<u64>,
        /// The contested ring position.
        hop: u32,
    },
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn query_label(query: &Option<u64>) -> String {
            query.map_or_else(|| "-".to_string(), |q| q.to_string())
        }
        match self {
            Diagnostic::MalformedLine {
                source,
                line,
                reason,
            } => {
                write!(f, "malformed line {source}:{line}: {reason}")
            }
            Diagnostic::DuplicateStep { query, round, hop } => write!(
                f,
                "duplicate step query {} round {round} hop {hop}",
                query_label(query)
            ),
            Diagnostic::MissingStep { query, round, hop } => write!(
                f,
                "missing step query {} round {round} hop {hop}",
                query_label(query)
            ),
            Diagnostic::OutOfOrderStep { query, round, hop } => write!(
                f,
                "out-of-order step query {} round {round} hop {hop}",
                query_label(query)
            ),
            Diagnostic::TopologyMismatch { query, hop } => write!(
                f,
                "topology mismatch query {}: hop {hop} claimed by two nodes",
                query_label(query)
            ),
        }
    }
}

/// Per-node privacy-accounting figures riding along with a collected
/// trace.
///
/// This is the privacy accountant's snapshot flattened to plain numbers
/// and class labels, so the observability layer can carry and render it
/// without depending on the privacy crate. It attaches *out of band* —
/// never as trace lines — keeping the trace schema (and the no-leak
/// gates over it) byte-identical with accounting on or off.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PrivacyLedger {
    /// Queries folded into the accountant.
    pub queries_accounted: u64,
    /// Per-node peak LoP estimates, indexed by node.
    pub per_node_lop: Vec<f64>,
    /// 95% confidence half-widths matching `per_node_lop`.
    pub per_node_ci95: Vec<f64>,
    /// Spectrum class label per node (e.g. "beyond suspicion").
    pub per_node_class: Vec<String>,
    /// Average of the per-node estimates.
    pub average_lop: f64,
    /// Maximum of the per-node estimates.
    pub worst_lop: f64,
    /// Worst spectrum class label across nodes.
    pub worst_class: String,
}

/// Accumulates spans from trace files and live recorders, then
/// [`finish`](TraceCollector::finish)es into a [`CollectedTrace`].
#[derive(Debug, Default)]
pub struct TraceCollector {
    sources: Vec<String>,
    spans: Vec<CollectedSpan>,
    node_summaries: Vec<NodeSummary>,
    diagnostics: Vec<Diagnostic>,
}

impl TraceCollector {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Ingests one JSONL trace (as exported by
    /// [`Recorder::trace_jsonl`](crate::Recorder::trace_jsonl)),
    /// returning how many spans were accepted.
    ///
    /// Lines that fail to parse are reported as
    /// [`Diagnostic::MalformedLine`] and skipped; ingestion itself never
    /// fails.
    pub fn ingest_jsonl(&mut self, source: &str, content: &str) -> usize {
        let source_index = self.add_source(source);
        let mut accepted = 0;
        for (line_index, line) in content.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_trace_line(line) {
                Ok(event) => {
                    self.spans.push(CollectedSpan {
                        event,
                        source: source_index,
                    });
                    accepted += 1;
                }
                Err(reason) => self.diagnostics.push(Diagnostic::MalformedLine {
                    source: source.to_string(),
                    line: line_index + 1,
                    reason,
                }),
            }
        }
        accepted
    }

    /// Ingests a live recorder: its buffered trace events plus the
    /// per-node summaries it aggregated. Returns how many spans were
    /// accepted.
    pub fn ingest_recorder(&mut self, source: &str, recorder: &crate::Recorder) -> usize {
        let source_index = self.add_source(source);
        let events = recorder.events();
        let accepted = events.len();
        self.spans
            .extend(events.into_iter().map(|event| CollectedSpan {
                event,
                source: source_index,
            }));
        self.node_summaries = merge_node_summaries(
            std::mem::take(&mut self.node_summaries),
            recorder.node_summaries(),
        );
        accepted
    }

    /// Merges everything ingested so far into one causally ordered
    /// trace: spans sorted by `(query, slot, round, hop)` then
    /// timestamp, duplicate steps collapsed (earliest kept) with a
    /// [`Diagnostic::DuplicateStep`] each.
    #[must_use]
    pub fn finish(mut self) -> CollectedTrace {
        self.spans.sort_by_key(|s| causal_key(&s.event));
        // Collapse duplicate steps: identical (query, slot, round, hop)
        // step spans can only come from overlapping ingestion (the same
        // run's file and live recorder, say), never from the protocol —
        // a retransmitted frame re-delivers a token, it does not rerun
        // the hop.
        let mut seen_steps: std::collections::BTreeSet<(Option<u64>, Option<u64>, u32, u32)> =
            std::collections::BTreeSet::new();
        let mut deduped: Vec<CollectedSpan> = Vec::with_capacity(self.spans.len());
        for span in self.spans {
            if span.event.phase == Phase::Step {
                if let (Some(round), Some(hop)) = (span.event.ctx.round, span.event.ctx.hop) {
                    let key = (span.event.ctx.query, span.event.ctx.slot, round, hop);
                    if !seen_steps.insert(key) {
                        self.diagnostics.push(Diagnostic::DuplicateStep {
                            query: span.event.ctx.query,
                            round,
                            hop,
                        });
                        continue;
                    }
                }
            }
            deduped.push(span);
        }
        CollectedTrace {
            sources: self.sources,
            spans: deduped,
            node_summaries: self.node_summaries,
            diagnostics: self.diagnostics,
            privacy: None,
        }
    }

    fn add_source(&mut self, source: &str) -> usize {
        self.sources.push(source.to_string());
        self.sources.len() - 1
    }
}

/// The merged, causally ordered view of one or more trace sources.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectedTrace {
    /// Labels of the ingested sources, in ingestion order.
    pub sources: Vec<String>,
    /// Every accepted span, ordered by `(query, slot, round, hop)` and
    /// then timestamp; duplicate steps already collapsed.
    pub spans: Vec<CollectedSpan>,
    /// Per-node phase digests shipped by live recorders (empty for
    /// file-only collection).
    pub node_summaries: Vec<NodeSummary>,
    /// Everything the collector had to skip or could not reconcile.
    pub diagnostics: Vec<Diagnostic>,
    /// Privacy-accounting figures, set out of band by the caller after
    /// [`TraceCollector::finish`] (which leaves it `None`) when an
    /// accountant ran over the trace. Never derived from (or written
    /// into) the trace lines themselves.
    pub privacy: Option<PrivacyLedger>,
}

impl CollectedTrace {
    /// The distinct query ids seen, sorted; `None` groups spans from
    /// untagged solo traces.
    #[must_use]
    pub fn queries(&self) -> Vec<Option<u64>> {
        let mut queries: Vec<Option<u64>> = self
            .spans
            .iter()
            .filter(|s| s.event.phase == Phase::Step)
            .map(|s| s.event.ctx.query)
            .collect();
        queries.sort_unstable();
        queries.dedup();
        queries
    }

    /// Step spans of one query, in causal chain order.
    pub fn chain(&self, query: Option<u64>) -> impl Iterator<Item = &CollectedSpan> {
        self.spans
            .iter()
            .filter(move |s| s.event.phase == Phase::Step && s.event.ctx.query == query)
    }

    /// Validates every query's reconstructed hop chain against the ring
    /// topology: `rounds` rounds of `nodes` hops each, every hop exactly
    /// once, each ring position owned by one node, timestamps
    /// non-decreasing along the chain.
    ///
    /// Problems are appended to [`diagnostics`](CollectedTrace::diagnostics);
    /// returns `true` when every chain checked out complete and
    /// consistent.
    pub fn validate_topology(&mut self, nodes: usize, rounds: u32) -> bool {
        let mut found = Vec::new();
        for query in self.queries() {
            // (round, hop) -> (count, node, t_us of earliest occurrence)
            let mut seen: BTreeMap<(u32, u32), (u32, Option<u32>, u64)> = BTreeMap::new();
            // Ownership must be a bijection: one node per ring position
            // and one position per node, so track both directions.
            let mut position_owner: BTreeMap<u32, u32> = BTreeMap::new();
            let mut node_position: BTreeMap<u32, u32> = BTreeMap::new();
            for span in self.chain(query) {
                let (Some(round), Some(hop)) = (span.event.ctx.round, span.event.ctx.hop) else {
                    continue;
                };
                let entry =
                    seen.entry((round, hop))
                        .or_insert((0, span.event.ctx.node, span.event.t_us));
                entry.0 += 1;
                if let Some(node) = span.event.ctx.node {
                    let position_conflict =
                        position_owner.get(&hop).is_some_and(|&owner| owner != node);
                    let node_conflict = node_position.get(&node).is_some_and(|&owned| owned != hop);
                    if position_conflict || node_conflict {
                        found.push(Diagnostic::TopologyMismatch { query, hop });
                    } else {
                        position_owner.insert(hop, node);
                        node_position.insert(node, hop);
                    }
                }
            }
            let mut last_t_us = 0u64;
            for round in 1..=rounds {
                for hop in 0..nodes as u32 {
                    match seen.get(&(round, hop)) {
                        None => {
                            found.push(Diagnostic::MissingStep { query, round, hop });
                        }
                        Some(&(count, _, t_us)) => {
                            if count > 1 {
                                found.push(Diagnostic::DuplicateStep { query, round, hop });
                            }
                            if t_us < last_t_us {
                                found.push(Diagnostic::OutOfOrderStep { query, round, hop });
                            }
                            last_t_us = last_t_us.max(t_us);
                        }
                    }
                }
            }
        }
        let clean = found.is_empty();
        self.diagnostics.extend(found);
        clean
    }

    /// Serializes the merged view back to JSONL — the same schema as
    /// [`TraceEvent::to_json`], so everything that gates a raw trace
    /// (the `trace_no_leak` schema and data-independence checks) gates
    /// the collected output too.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for span in &self.spans {
            out.push_str(&span.event.to_json());
            out.push('\n');
        }
        out
    }
}

/// Causal sort key: query-major, then slot, then round-major hop order
/// along the ring, then timestamp. Spans missing a coordinate sort
/// before spans that have it, keeping per-node context lines (recv
/// waits, retries) adjacent to their chain.
fn causal_key(
    event: &TraceEvent,
) -> (
    Option<u64>,
    Option<u64>,
    Option<u32>,
    Option<u32>,
    u64,
    usize,
) {
    (
        event.ctx.query,
        event.ctx.slot,
        event.ctx.round,
        event.ctx.hop,
        event.t_us,
        event.phase.index(),
    )
}

/// Parses one recorder JSONL line back into a [`TraceEvent`].
///
/// Accepts exactly the flat-object schema [`TraceEvent::to_json`] emits
/// (any key order); anything else is an `Err` with a human-readable
/// reason.
///
/// # Errors
///
/// A static description of the first structural problem found.
pub fn parse_trace_line(line: &str) -> Result<TraceEvent, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .ok_or_else(|| "not a JSON object".to_string())?;
    let mut t_us = None;
    let mut phase = None;
    let mut dur_ns = None;
    let mut ctx = Ctx::default();
    for pair in inner.split(',') {
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("not a key:value pair: `{pair}`"))?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        if key == "phase" {
            let name = value.trim_matches('"');
            phase = Some(Phase::from_wire(name).ok_or_else(|| format!("unknown phase `{name}`"))?);
            continue;
        }
        let number: u64 = value
            .parse()
            .map_err(|_| format!("non-integer value for `{key}`"))?;
        match key {
            "t_us" => t_us = Some(number),
            "dur_ns" => dur_ns = Some(number),
            "query" => ctx.query = Some(number),
            "slot" => ctx.slot = Some(number),
            "node" => {
                ctx.node = Some(u32::try_from(number).map_err(|_| "node out of range")?);
            }
            "round" => {
                ctx.round = Some(u32::try_from(number).map_err(|_| "round out of range")?);
            }
            "hop" => {
                ctx.hop = Some(u32::try_from(number).map_err(|_| "hop out of range")?);
            }
            other => return Err(format!("unexpected key `{other}`")),
        }
    }
    Ok(TraceEvent {
        t_us: t_us.ok_or("missing t_us")?,
        phase: phase.ok_or("missing phase")?,
        ctx,
        dur_ns: dur_ns.ok_or("missing dur_ns")?,
    })
}

fn merge_node_summaries(a: Vec<NodeSummary>, b: Vec<NodeSummary>) -> Vec<NodeSummary> {
    let mut merged: BTreeMap<u32, NodeSummary> = a.into_iter().map(|s| (s.node, s)).collect();
    for summary in b {
        match merged.get_mut(&summary.node) {
            None => {
                merged.insert(summary.node, summary);
            }
            Some(existing) => {
                for (phase, snap) in summary.phases {
                    match existing.phases.iter_mut().find(|(p, _)| *p == phase) {
                        Some((_, acc)) => *acc = acc.merge(&snap),
                        None => existing.phases.push((phase, snap)),
                    }
                }
                existing.phases.sort_by_key(|(p, _)| p.index());
            }
        }
    }
    merged.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn step(query: u64, round: u32, hop: u32, t_us: u64) -> String {
        format!(
            "{{\"t_us\":{t_us},\"phase\":\"step\",\"query\":{query},\"node\":{hop},\"round\":{round},\"hop\":{hop},\"dur_ns\":100}}"
        )
    }

    fn full_chain(query: u64, nodes: u32, rounds: u32) -> String {
        let mut lines = Vec::new();
        let mut t = 1 + query * 1000;
        for round in 1..=rounds {
            for hop in 0..nodes {
                lines.push(step(query, round, hop, t));
                t += 1;
            }
        }
        lines.join("\n")
    }

    #[test]
    fn merges_sources_into_causal_order() {
        // Per-node islands: each file holds one node's spans only.
        let mut per_node = [String::new(), String::new(), String::new()];
        let mut t = 1u64;
        for round in 1..=2u32 {
            for hop in 0..3u32 {
                per_node[hop as usize].push_str(&step(0, round, hop, t));
                per_node[hop as usize].push('\n');
                t += 1;
            }
        }
        let mut collector = TraceCollector::new();
        for (i, content) in per_node.iter().enumerate() {
            assert_eq!(
                collector.ingest_jsonl(&format!("node{i}.jsonl"), content),
                2
            );
        }
        let mut trace = collector.finish();
        assert_eq!(trace.sources.len(), 3);
        assert_eq!(trace.spans.len(), 6);
        let coords: Vec<(Option<u32>, Option<u32>)> = trace
            .spans
            .iter()
            .map(|s| (s.event.ctx.round, s.event.ctx.hop))
            .collect();
        let expected: Vec<(Option<u32>, Option<u32>)> = (1..=2)
            .flat_map(|r| (0..3).map(move |h| (Some(r), Some(h))))
            .collect();
        assert_eq!(coords, expected, "spans must be in causal chain order");
        assert!(trace.validate_topology(3, 2));
        assert!(trace.diagnostics.is_empty());
    }

    #[test]
    fn malformed_lines_become_diagnostics_not_errors() {
        let content = format!(
            "{}\nnot json at all\n{{\"t_us\":5,\"phase\":\"warp\",\"dur_ns\":1}}\n{{\"t_us\":9,\"phase\":\"step\",\"query\":0,\"node\":1,\"round\":1,\"hop\":1,\"dur_ns\":\n{}",
            step(0, 1, 0, 1),
            step(0, 1, 2, 3),
        );
        let mut collector = TraceCollector::new();
        let accepted = collector.ingest_jsonl("island.jsonl", &content);
        assert_eq!(accepted, 2);
        let trace = collector.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.diagnostics.len(), 3);
        for diagnostic in &trace.diagnostics {
            assert!(
                matches!(diagnostic, Diagnostic::MalformedLine { .. }),
                "unexpected {diagnostic:?}"
            );
        }
        // Line numbers point at the offending lines (1-based).
        assert!(matches!(
            &trace.diagnostics[0],
            Diagnostic::MalformedLine { line: 2, source, .. } if source == "island.jsonl"
        ));
    }

    #[test]
    fn duplicate_steps_collapse_to_earliest_with_diagnostics() {
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("a.jsonl", &full_chain(0, 3, 1));
        collector.ingest_jsonl("a-again.jsonl", &full_chain(0, 3, 1));
        let mut trace = collector.finish();
        assert_eq!(trace.spans.len(), 3, "duplicates must collapse");
        assert_eq!(
            trace
                .diagnostics
                .iter()
                .filter(|d| matches!(d, Diagnostic::DuplicateStep { .. }))
                .count(),
            3
        );
        // After collapsing, the chain itself validates.
        assert!(trace.validate_topology(3, 1));
    }

    #[test]
    fn missing_hops_are_reported_per_coordinate() {
        let mut lines: Vec<String> = full_chain(0, 3, 2).lines().map(String::from).collect();
        lines.remove(4); // round 2, hop 1
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("gappy.jsonl", &lines.join("\n"));
        let mut trace = collector.finish();
        assert!(!trace.validate_topology(3, 2));
        assert_eq!(
            trace.diagnostics,
            vec![Diagnostic::MissingStep {
                query: Some(0),
                round: 2,
                hop: 1
            }]
        );
    }

    #[test]
    fn out_of_order_and_topology_conflicts_are_flagged() {
        let content = [
            step(0, 1, 0, 100),
            // hop 1 stamped before hop 0: clock skew across sources.
            step(0, 1, 1, 50),
            // hop 2 claimed by node 0 instead of node 2.
            "{\"t_us\":120,\"phase\":\"step\",\"query\":0,\"node\":0,\"round\":1,\"hop\":2,\"dur_ns\":100}"
                .to_string(),
        ]
        .join("\n");
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("skewed.jsonl", &content);
        let mut trace = collector.finish();
        assert!(!trace.validate_topology(3, 1));
        assert!(trace.diagnostics.contains(&Diagnostic::OutOfOrderStep {
            query: Some(0),
            round: 1,
            hop: 1
        }));
        assert!(trace.diagnostics.contains(&Diagnostic::TopologyMismatch {
            query: Some(0),
            hop: 2
        }));
    }

    #[test]
    fn live_recorder_ingestion_carries_node_summaries() {
        let rec = Recorder::new();
        rec.record(
            Phase::Step,
            Ctx::default()
                .with_query(0)
                .with_node(1)
                .with_round(1)
                .with_hop(1),
            rec.clock(),
        );
        let mut collector = TraceCollector::new();
        assert_eq!(collector.ingest_recorder("live", &rec), 1);
        let trace = collector.finish();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.node_summaries.len(), 1);
        assert_eq!(trace.node_summaries[0].node, 1);
    }

    #[test]
    fn roundtrip_through_jsonl_is_lossless() {
        let rec = Recorder::new();
        for (round, hop) in [(1u32, 0u32), (1, 1), (2, 0)] {
            rec.tick(
                Phase::Step,
                Ctx::default()
                    .with_query(3)
                    .with_slot(1)
                    .with_node(hop)
                    .with_round(round)
                    .with_hop(hop),
            );
        }
        let jsonl = rec.trace_jsonl();
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("export.jsonl", &jsonl);
        let trace = collector.finish();
        assert!(trace.diagnostics.is_empty());
        assert_eq!(trace.to_jsonl(), jsonl);
    }

    #[test]
    fn queries_and_chain_group_by_query_id() {
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("a", &full_chain(1, 3, 1));
        collector.ingest_jsonl("b", &full_chain(0, 3, 1));
        let trace = collector.finish();
        assert_eq!(trace.queries(), vec![Some(0), Some(1)]);
        assert_eq!(trace.chain(Some(0)).count(), 3);
        assert_eq!(trace.chain(None).count(), 0);
    }
}
