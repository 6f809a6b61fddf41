//! Critical-path analysis over a [`CollectedTrace`].
//!
//! The ring protocol gives every query a linear causal chain — round 1
//! hops `0..n`, round 2 hops `0..n`, … (Algorithm 1/2's token path) — so
//! per-query critical-path reconstruction is a join, not a search: step
//! spans *are* the chain, and encode/send/recv spans attach to a hop by
//! their `(query, node, round)` coordinates. On top of the
//! reconstruction the analyzer reports stalls (hops beyond a
//! configurable multiple of the query's median hop latency), per-node
//! load skew, and retransmission attribution on lossy transports.
//!
//! Everything here consumes and produces protocol coordinates and
//! timings only — the same no-leak vocabulary as the trace itself.

use std::collections::BTreeMap;

use crate::collector::{CollectedTrace, Diagnostic, PrivacyLedger};
use crate::recorder::fmt_ns;
use crate::Phase;

/// Tunables for [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerConfig {
    /// A hop stalls when its total latency exceeds this multiple of the
    /// query's median hop latency.
    pub stall_multiplier: f64,
    /// Healing events (retries, re-ACKs) closer together than this gap
    /// belong to the same incident; a longer quiet period closes the
    /// incident and returns the timeline to steady state.
    pub incident_gap_us: u64,
    /// Mean wire bytes per frame for this run, when the caller knows it
    /// (e.g. `bytes_sent / frames_sent` from transport counters). Used
    /// only to estimate per-incident byte overhead from frame counts —
    /// a run-level aggregate, so no per-event size ever enters a trace.
    pub bytes_per_frame_hint: Option<f64>,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            stall_multiplier: 3.0,
            incident_gap_us: 200_000,
            bytes_per_frame_hint: None,
        }
    }
}

/// Wall-clock decomposition of one hop of one query's chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopBreakdown {
    /// Protocol round (from 1).
    pub round: u32,
    /// Ring position (from 0).
    pub hop: u32,
    /// Node that executed the hop, when the trace says.
    pub node: Option<u32>,
    /// Serialization time attributed to this hop, in nanoseconds.
    pub encode_ns: u64,
    /// Transport hand-off time attributed to this hop.
    pub send_ns: u64,
    /// Predecessor-wait time attributed to this hop.
    pub recv_ns: u64,
    /// The local max/top-k computation.
    pub step_ns: u64,
    /// Gap between the attributed receive completing and the step
    /// starting — time the token sat in the worker's slot queue.
    pub queue_ns: u64,
}

impl HopBreakdown {
    /// Everything this hop contributed to the critical path.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.encode_ns + self.send_ns + self.recv_ns + self.step_ns + self.queue_ns
    }
}

/// A hop flagged as anomalously slow for its query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// Protocol round of the stalled hop.
    pub round: u32,
    /// Ring position of the stalled hop.
    pub hop: u32,
    /// The stalled hop's total latency.
    pub total_ns: u64,
    /// The query's median hop latency it is measured against.
    pub median_ns: u64,
}

/// One query's reconstructed critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPath {
    /// Query id (`None` for untagged solo traces).
    pub query: Option<u64>,
    /// The causal chain, round-major.
    pub hops: Vec<HopBreakdown>,
    /// Sum of every hop's attributed time — the protocol's serial cost.
    pub critical_path_ns: u64,
    /// Last span end minus first span start: elapsed wall clock, which
    /// under pipelining can exceed the critical path's share of it.
    pub wall_clock_ns: u64,
    /// Hops beyond the configured multiple of the median hop latency.
    pub stalls: Vec<Stall>,
    /// Whether the chain covers a full `nodes x rounds` grid with no
    /// gaps (inferred from the trace's own maxima).
    pub complete: bool,
}

/// One node's share of one incident's healing cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeHealingCost {
    /// Node index.
    pub node: u32,
    /// Frames this node retransmitted during the incident.
    pub retransmissions: u64,
    /// Duplicate frames this node re-acknowledged.
    pub re_acks: u64,
    /// Time the node spent waiting out lost frames (the summed
    /// durations of its retry spans), in nanoseconds.
    pub backoff_ns: u64,
}

impl NodeHealingCost {
    /// Extra frames the incident put on the wire through this node.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.retransmissions + self.re_acks
    }
}

/// One reconstructed degradation incident: a cluster of healing events
/// (retransmissions and re-ACKs) separated from the next cluster by at
/// least [`AnalyzerConfig::incident_gap_us`] of quiet.
///
/// The timeline reads detect -> storm -> steady state: the first
/// healing event marks detection (`start_us`), the retransmit/re-ACK
/// storm runs until its last event finishes (`end_us`, which for a
/// crash-and-reconstruct scenario is when the ring has re-formed), and
/// steady state resumes after the configured quiet gap.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Incident ordinal, from 1, in timeline order.
    pub index: usize,
    /// Trace timestamp of the first healing event (detection).
    pub start_us: u64,
    /// Trace timestamp at which the last healing event finished.
    pub end_us: u64,
    /// Healing latency: detection to last healing event end, in
    /// nanoseconds (a single retry still has its wait duration, so a
    /// real incident's healing cost is never zero).
    pub healing_ns: u64,
    /// Frames retransmitted during the incident.
    pub retransmissions: u64,
    /// Duplicate frames re-acknowledged during the incident.
    pub re_acks: u64,
    /// Summed retry-wait time across all nodes, in nanoseconds.
    pub backoff_ns: u64,
    /// Estimated extra wire bytes, when the caller supplied
    /// [`AnalyzerConfig::bytes_per_frame_hint`].
    pub overhead_bytes_est: Option<u64>,
    /// Per-node decomposition, sorted by node index.
    pub nodes: Vec<NodeHealingCost>,
}

impl Incident {
    /// Extra frames the incident put on the wire in total.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.retransmissions + self.re_acks
    }
}

/// One node's share of the trace's total busy time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLoad {
    /// Node index.
    pub node: u32,
    /// Nanoseconds of encode/send/step work attributed to the node.
    pub busy_ns: u64,
    /// `busy_ns` as a fraction of all nodes' busy time (0 when idle).
    pub share: f64,
    /// Retransmissions attributed to the node (lossy transports).
    pub retransmissions: u64,
}

/// The full analysis of a collected trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Per-query critical paths, sorted by query id.
    pub queries: Vec<QueryPath>,
    /// Per-node load, sorted by node index.
    pub node_load: Vec<NodeLoad>,
    /// Total retransmissions seen (retry ticks across all nodes).
    pub retransmissions: u64,
    /// Total re-acknowledgements seen (duplicate suppression).
    pub re_acks: u64,
    /// Reconstructed degradation incidents, in timeline order.
    pub incidents: Vec<Incident>,
    /// Diagnostics carried over from collection/validation.
    pub diagnostics: Vec<Diagnostic>,
    /// Privacy-accounting figures carried over from collection, when a
    /// ledger was attached. Rendered as a privacy panel only when
    /// present, so ledger-free analyses print exactly as before.
    pub privacy: Option<PrivacyLedger>,
}

impl Analysis {
    /// Largest node-load share divided by the mean share — 1.0 means a
    /// perfectly balanced ring (0.0 when no load was attributed).
    #[must_use]
    pub fn load_skew(&self) -> f64 {
        if self.node_load.is_empty() {
            return 0.0;
        }
        let total: u64 = self.node_load.iter().map(|l| l.busy_ns).sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.node_load.len() as f64;
        let max = self.node_load.iter().map(|l| l.busy_ns).max().unwrap_or(0);
        max as f64 / mean
    }
}

/// Reconstructs every query's critical path from `trace` and scores
/// stalls, load skew and retransmissions. Never fails: an empty or
/// incoherent trace yields an empty analysis plus whatever diagnostics
/// collection already produced.
#[must_use]
pub fn analyze(trace: &CollectedTrace, config: &AnalyzerConfig) -> Analysis {
    let mut queries = Vec::new();
    for query in trace.queries() {
        queries.push(analyze_query(trace, query, config));
    }

    // Node load and healing counters come from every span, not just
    // chain members, so unattributable work still shows up somewhere.
    let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
    let mut retries: BTreeMap<u32, u64> = BTreeMap::new();
    let mut retransmissions = 0u64;
    let mut re_acks = 0u64;
    for span in &trace.spans {
        match span.event.phase {
            Phase::Encode | Phase::Send | Phase::Step => {
                if let Some(node) = span.event.ctx.node {
                    *busy.entry(node).or_insert(0) += span.event.dur_ns;
                }
            }
            Phase::Retry => {
                retransmissions += 1;
                if let Some(node) = span.event.ctx.node {
                    *retries.entry(node).or_insert(0) += 1;
                }
            }
            Phase::Ack => re_acks += 1,
            Phase::Recv | Phase::Idle => {}
        }
    }
    // Live node summaries cover spans the event buffer may have dropped
    // (or never captured, in stats-only mode).
    for summary in &trace.node_summaries {
        let entry = busy.entry(summary.node).or_insert(0);
        *entry = (*entry).max(summary.busy_ns());
    }
    let total_busy: u64 = busy.values().sum();
    let node_load = busy
        .iter()
        .map(|(&node, &busy_ns)| NodeLoad {
            node,
            busy_ns,
            share: if total_busy == 0 {
                0.0
            } else {
                busy_ns as f64 / total_busy as f64
            },
            retransmissions: retries.get(&node).copied().unwrap_or(0),
        })
        .collect();

    Analysis {
        queries,
        node_load,
        retransmissions,
        re_acks,
        incidents: reconstruct_incidents(trace, config),
        diagnostics: trace.diagnostics.clone(),
        privacy: trace.privacy.clone(),
    }
}

/// Clusters the trace's healing events (retry spans, re-ACK ticks) into
/// [`Incident`]s: events within `incident_gap_us` of each other belong
/// to one incident, a longer quiet period starts the next.
fn reconstruct_incidents(trace: &CollectedTrace, config: &AnalyzerConfig) -> Vec<Incident> {
    struct HealingEvent {
        t_us: u64,
        dur_ns: u64,
        node: Option<u32>,
        retry: bool,
    }
    let mut healing: Vec<HealingEvent> = trace
        .spans
        .iter()
        .filter(|span| matches!(span.event.phase, Phase::Retry | Phase::Ack))
        .map(|span| HealingEvent {
            t_us: span.event.t_us,
            dur_ns: span.event.dur_ns,
            node: span.event.ctx.node,
            retry: span.event.phase == Phase::Retry,
        })
        .collect();
    healing.sort_by_key(|e| e.t_us);

    let mut incidents: Vec<Incident> = Vec::new();
    let mut current: Vec<&HealingEvent> = Vec::new();
    let flush = |group: &mut Vec<&HealingEvent>, incidents: &mut Vec<Incident>| {
        if group.is_empty() {
            return;
        }
        let start_us = group.first().map_or(0, |e| e.t_us);
        let end_us = group
            .iter()
            .map(|e| e.t_us + e.dur_ns.div_ceil(1000))
            .max()
            .unwrap_or(start_us);
        let mut nodes: BTreeMap<u32, NodeHealingCost> = BTreeMap::new();
        let mut retransmissions = 0u64;
        let mut re_acks = 0u64;
        let mut backoff_ns = 0u64;
        for event in group.iter() {
            let cost = event.node.map(|node| {
                nodes.entry(node).or_insert_with(|| NodeHealingCost {
                    node,
                    ..NodeHealingCost::default()
                })
            });
            if event.retry {
                retransmissions += 1;
                backoff_ns += event.dur_ns;
                if let Some(cost) = cost {
                    cost.retransmissions += 1;
                    cost.backoff_ns += event.dur_ns;
                }
            } else {
                re_acks += 1;
                if let Some(cost) = cost {
                    cost.re_acks += 1;
                }
            }
        }
        let frames = retransmissions + re_acks;
        incidents.push(Incident {
            index: incidents.len() + 1,
            start_us,
            end_us,
            healing_ns: (end_us - start_us).saturating_mul(1000).max(backoff_ns),
            retransmissions,
            re_acks,
            backoff_ns,
            overhead_bytes_est: config
                .bytes_per_frame_hint
                .map(|mean| (mean * frames as f64).round() as u64),
            nodes: nodes.into_values().collect(),
        });
        group.clear();
    };
    let mut last_end_us = 0u64;
    for event in &healing {
        if !current.is_empty() && event.t_us.saturating_sub(last_end_us) > config.incident_gap_us {
            flush(&mut current, &mut incidents);
        }
        last_end_us = last_end_us.max(event.t_us + event.dur_ns.div_ceil(1000));
        current.push(event);
    }
    flush(&mut current, &mut incidents);
    incidents
}

fn analyze_query(trace: &CollectedTrace, query: Option<u64>, config: &AnalyzerConfig) -> QueryPath {
    // The chain skeleton: one entry per step span, keyed (round, hop).
    let mut hops: BTreeMap<(u32, u32), HopBreakdown> = BTreeMap::new();
    // Step start/end stamps, for queue-gap attribution and wall clock.
    let mut step_bounds: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    let mut first_start_ns = u64::MAX;
    let mut last_end_ns = 0u64;
    for span in trace.chain(query) {
        let (Some(round), Some(hop)) = (span.event.ctx.round, span.event.ctx.hop) else {
            continue;
        };
        let entry = hops.entry((round, hop)).or_default();
        entry.round = round;
        entry.hop = hop;
        entry.node = span.event.ctx.node;
        entry.step_ns += span.event.dur_ns;
        let start_ns = span.event.t_us.saturating_mul(1000);
        let end_ns = start_ns.saturating_add(span.event.dur_ns);
        step_bounds.insert((round, hop), (start_ns, end_ns));
        first_start_ns = first_start_ns.min(start_ns);
        last_end_ns = last_end_ns.max(end_ns);
    }

    // Attribute wire spans. A span with explicit (round, hop) lands on
    // that hop; otherwise it joins through its (node, round) — each node
    // holds one ring position per query, so the pair is unambiguous.
    let mut node_position: BTreeMap<u32, u32> = BTreeMap::new();
    for breakdown in hops.values() {
        if let Some(node) = breakdown.node {
            node_position.entry(node).or_insert(breakdown.hop);
        }
    }
    for span in &trace.spans {
        if span.event.ctx.query != query || span.event.phase == Phase::Step {
            continue;
        }
        let Some(round) = span.event.ctx.round else {
            continue;
        };
        let hop = span.event.ctx.hop.or_else(|| {
            span.event
                .ctx
                .node
                .and_then(|n| node_position.get(&n).copied())
        });
        let Some(hop) = hop else { continue };
        let Some(entry) = hops.get_mut(&(round, hop)) else {
            continue;
        };
        match span.event.phase {
            Phase::Encode => entry.encode_ns += span.event.dur_ns,
            Phase::Send => entry.send_ns += span.event.dur_ns,
            Phase::Recv => {
                entry.recv_ns += span.event.dur_ns;
                // Queue gap: time between the receive completing and the
                // step starting on the same hop.
                let recv_end = span
                    .event
                    .t_us
                    .saturating_mul(1000)
                    .saturating_add(span.event.dur_ns);
                if let Some(&(step_start, _)) = step_bounds.get(&(round, hop)) {
                    entry.queue_ns += step_start.saturating_sub(recv_end);
                }
            }
            _ => {}
        }
        let start_ns = span.event.t_us.saturating_mul(1000);
        first_start_ns = first_start_ns.min(start_ns);
        last_end_ns = last_end_ns.max(start_ns.saturating_add(span.event.dur_ns));
    }

    let hops: Vec<HopBreakdown> = hops.into_values().collect();
    let critical_path_ns = hops.iter().map(HopBreakdown::total_ns).sum();

    // Completeness, inferred from the trace's own maxima: every
    // (round, hop) cell up to the observed bounds must be present.
    let max_round = hops.iter().map(|h| h.round).max().unwrap_or(0);
    let max_hop = hops.iter().map(|h| h.hop).max().unwrap_or(0);
    let complete = !hops.is_empty()
        && hops.len() == (max_round as usize) * (max_hop as usize + 1)
        && hops.first().is_some_and(|h| h.round == 1 && h.hop == 0);

    // Stalls: hops beyond `stall_multiplier` x the median hop total.
    let mut totals: Vec<u64> = hops.iter().map(HopBreakdown::total_ns).collect();
    totals.sort_unstable();
    let median_ns = totals
        .get(totals.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0);
    let threshold = (median_ns.max(1) as f64) * config.stall_multiplier;
    let stalls = hops
        .iter()
        .filter(|h| h.total_ns() as f64 > threshold)
        .map(|h| Stall {
            round: h.round,
            hop: h.hop,
            total_ns: h.total_ns(),
            median_ns,
        })
        .collect();

    QueryPath {
        query,
        hops,
        critical_path_ns,
        wall_clock_ns: last_end_ns.saturating_sub(if first_start_ns == u64::MAX {
            0
        } else {
            first_start_ns
        }),
        stalls,
        complete,
    }
}

fn query_label(query: Option<u64>) -> String {
    query.map_or_else(|| "-".to_string(), |q| q.to_string())
}

impl std::fmt::Display for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "trace analysis: {} queries, {} diagnostics",
            self.queries.len(),
            self.diagnostics.len()
        )?;
        for path in &self.queries {
            let pct = |part: u64| {
                if path.critical_path_ns == 0 {
                    0.0
                } else {
                    100.0 * part as f64 / path.critical_path_ns as f64
                }
            };
            let encode: u64 = path.hops.iter().map(|h| h.encode_ns).sum();
            let send: u64 = path.hops.iter().map(|h| h.send_ns).sum();
            let recv: u64 = path.hops.iter().map(|h| h.recv_ns).sum();
            let step: u64 = path.hops.iter().map(|h| h.step_ns).sum();
            let queue: u64 = path.hops.iter().map(|h| h.queue_ns).sum();
            writeln!(
                f,
                "query {:>3}: {} hops ({}), critical path {} \
                 (encode {:.0}%, send {:.0}%, recv {:.0}%, step {:.0}%, queue {:.0}%), \
                 wall clock {}, {} stalls",
                query_label(path.query),
                path.hops.len(),
                if path.complete {
                    "complete"
                } else {
                    "INCOMPLETE"
                },
                fmt_ns(path.critical_path_ns),
                pct(encode),
                pct(send),
                pct(recv),
                pct(step),
                pct(queue),
                fmt_ns(path.wall_clock_ns),
                path.stalls.len(),
            )?;
            for stall in &path.stalls {
                writeln!(
                    f,
                    "  stall r{} h{}: {} ({:.1}x median {})",
                    stall.round,
                    stall.hop,
                    fmt_ns(stall.total_ns),
                    stall.total_ns as f64 / stall.median_ns.max(1) as f64,
                    fmt_ns(stall.median_ns),
                )?;
            }
        }
        if !self.node_load.is_empty() {
            write!(f, "node load:")?;
            for load in &self.node_load {
                write!(f, " n{} {:.0}%", load.node, load.share * 100.0)?;
            }
            writeln!(f, " (skew {:.2}x)", self.load_skew())?;
        }
        if self.retransmissions > 0 || self.re_acks > 0 {
            write!(
                f,
                "healing: {} retransmissions, {} re-acks",
                self.retransmissions, self.re_acks
            )?;
            let attributed: Vec<String> = self
                .node_load
                .iter()
                .filter(|l| l.retransmissions > 0)
                .map(|l| format!("n{}: {}", l.node, l.retransmissions))
                .collect();
            if attributed.is_empty() {
                writeln!(f)?;
            } else {
                writeln!(f, " ({})", attributed.join(", "))?;
            }
        }
        for incident in &self.incidents {
            write!(
                f,
                "incident {}: detect t+{} -> storm {} ({} retransmissions, {} re-acks, \
                 backoff {}{}) -> steady at t+{}",
                incident.index,
                fmt_ns(incident.start_us.saturating_mul(1000)),
                fmt_ns(incident.healing_ns),
                incident.retransmissions,
                incident.re_acks,
                fmt_ns(incident.backoff_ns),
                incident
                    .overhead_bytes_est
                    .map_or_else(String::new, |b| format!(", ~{b} B overhead")),
                fmt_ns(incident.end_us.saturating_mul(1000)),
            )?;
            let per_node: Vec<String> = incident
                .nodes
                .iter()
                .map(|n| {
                    format!(
                        "n{}: {} frames, backoff {}",
                        n.node,
                        n.frames(),
                        fmt_ns(n.backoff_ns)
                    )
                })
                .collect();
            if per_node.is_empty() {
                writeln!(f)?;
            } else {
                writeln!(f, "\n  {}", per_node.join("; "))?;
            }
        }
        if let Some(privacy) = &self.privacy {
            writeln!(
                f,
                "privacy: {} queries accounted, avg LoP {:.4}, worst {:.4} ({})",
                privacy.queries_accounted,
                privacy.average_lop,
                privacy.worst_lop,
                privacy.worst_class,
            )?;
            for (node, lop) in privacy.per_node_lop.iter().enumerate() {
                let ci = privacy.per_node_ci95.get(node).copied().unwrap_or(0.0);
                let class = privacy.per_node_class.get(node).map_or("", String::as_str);
                writeln!(f, "  node {node}: LoP {lop:.4} +-{ci:.4} ({class})")?;
            }
        }
        for diagnostic in &self.diagnostics {
            writeln!(f, "diagnostic: {diagnostic}")?;
        }
        Ok(())
    }
}

impl Analysis {
    /// The analysis as one JSON object (machine twin of `Display`).
    ///
    /// Hand-rolled like the trace writer: fixed key order, integers and
    /// fixed-precision floats only, no external dependency.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"queries\":[");
        for (i, path) in self.queries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"query\":");
            match path.query {
                Some(q) => out.push_str(&q.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(&format!(
                ",\"hops\":{},\"complete\":{},\"critical_path_ns\":{},\"wall_clock_ns\":{}",
                path.hops.len(),
                path.complete,
                path.critical_path_ns,
                path.wall_clock_ns
            ));
            out.push_str(",\"phase_totals_ns\":{");
            let totals = [
                ("encode", path.hops.iter().map(|h| h.encode_ns).sum::<u64>()),
                ("send", path.hops.iter().map(|h| h.send_ns).sum()),
                ("recv", path.hops.iter().map(|h| h.recv_ns).sum()),
                ("step", path.hops.iter().map(|h| h.step_ns).sum()),
                ("queue", path.hops.iter().map(|h| h.queue_ns).sum()),
            ];
            for (j, (name, value)) in totals.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\":{value}"));
            }
            out.push_str("},\"stalls\":[");
            for (j, stall) in path.stalls.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"round\":{},\"hop\":{},\"total_ns\":{},\"median_ns\":{}}}",
                    stall.round, stall.hop, stall.total_ns, stall.median_ns
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"node_load\":[");
        for (i, load) in self.node_load.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"node\":{},\"busy_ns\":{},\"share\":{:.4},\"retransmissions\":{}}}",
                load.node, load.busy_ns, load.share, load.retransmissions
            ));
        }
        out.push_str(&format!(
            "],\"load_skew\":{:.4},\"retransmissions\":{},\"re_acks\":{}",
            self.load_skew(),
            self.retransmissions,
            self.re_acks
        ));
        out.push_str(",\"incidents\":[");
        for (i, incident) in self.incidents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"start_us\":{},\"end_us\":{},\"healing_ns\":{},\
                 \"retransmissions\":{},\"re_acks\":{},\"backoff_ns\":{}",
                incident.index,
                incident.start_us,
                incident.end_us,
                incident.healing_ns,
                incident.retransmissions,
                incident.re_acks,
                incident.backoff_ns,
            ));
            if let Some(bytes) = incident.overhead_bytes_est {
                out.push_str(&format!(",\"overhead_bytes_est\":{bytes}"));
            }
            out.push_str(",\"nodes\":[");
            for (j, node) in incident.nodes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"node\":{},\"retransmissions\":{},\"re_acks\":{},\"backoff_ns\":{}}}",
                    node.node, node.retransmissions, node.re_acks, node.backoff_ns
                ));
            }
            out.push_str("]}");
        }
        out.push(']');
        if let Some(privacy) = &self.privacy {
            out.push_str(&format!(
                ",\"privacy\":{{\"queries_accounted\":{},\"average_lop\":{:.6},\"worst_lop\":{:.6},\"worst_class\":\"{}\",\"nodes\":[",
                privacy.queries_accounted,
                privacy.average_lop,
                privacy.worst_lop,
                privacy.worst_class,
            ));
            for (node, lop) in privacy.per_node_lop.iter().enumerate() {
                if node > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"node\":{node},\"lop\":{lop:.6},\"ci95\":{:.6},\"class\":\"{}\"}}",
                    privacy.per_node_ci95.get(node).copied().unwrap_or(0.0),
                    privacy.per_node_class.get(node).map_or("", String::as_str),
                ));
            }
            out.push_str("]}");
        }
        out.push_str(",\"diagnostics\":[");
        for (i, diagnostic) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            // Diagnostics render through Display; escape the two JSON
            // specials that can appear in a source path.
            for c in diagnostic.to_string().chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use crate::{Ctx, Recorder};

    /// Emits a synthetic 3-node, 2-round trace: per hop a recv wait
    /// (2us), a step (1us) and a send (500ns), with one slow stall.
    fn synthetic_trace(stall_hop: Option<(u32, u32)>) -> CollectedTrace {
        let mut lines = Vec::new();
        let mut t = 100u64; // microseconds
        for round in 1..=2u32 {
            for hop in 0..3u32 {
                let step_ns = if stall_hop == Some((round, hop)) {
                    90_000
                } else {
                    1_000
                };
                lines.push(format!(
                    "{{\"t_us\":{},\"phase\":\"recv\",\"query\":0,\"node\":{hop},\"round\":{round},\"dur_ns\":2000}}",
                    t
                ));
                // step starts 1us after the recv ends -> 1us queue gap.
                lines.push(format!(
                    "{{\"t_us\":{},\"phase\":\"step\",\"query\":0,\"node\":{hop},\"round\":{round},\"hop\":{hop},\"dur_ns\":{step_ns}}}",
                    t + 3
                ));
                lines.push(format!(
                    "{{\"t_us\":{},\"phase\":\"send\",\"query\":0,\"node\":{hop},\"round\":{round},\"dur_ns\":500}}",
                    t + 4
                ));
                t += 10;
            }
        }
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("synthetic.jsonl", &lines.join("\n"));
        collector.finish()
    }

    #[test]
    fn reconstructs_complete_chain_with_decomposition() {
        let trace = synthetic_trace(None);
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        assert_eq!(analysis.queries.len(), 1);
        let path = &analysis.queries[0];
        assert!(path.complete);
        assert_eq!(path.hops.len(), 6);
        for hop in &path.hops {
            assert_eq!(hop.step_ns, 1_000);
            assert_eq!(hop.recv_ns, 2_000);
            assert_eq!(hop.send_ns, 500);
            assert_eq!(hop.queue_ns, 1_000); // recv end 100+2us, step at 103us
        }
        assert_eq!(path.critical_path_ns, 6 * 4_500);
        assert!(path.stalls.is_empty());
        assert!(path.wall_clock_ns >= path.critical_path_ns / 2);
    }

    #[test]
    fn stall_detection_flags_the_slow_hop() {
        let trace = synthetic_trace(Some((2, 1)));
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        let path = &analysis.queries[0];
        assert_eq!(path.stalls.len(), 1);
        let stall = path.stalls[0];
        assert_eq!((stall.round, stall.hop), (2, 1));
        assert!(stall.total_ns > stall.median_ns * 3);
        // A looser multiplier stops flagging it.
        let lax = analyze(
            &trace,
            &AnalyzerConfig {
                stall_multiplier: 1000.0,
                ..AnalyzerConfig::default()
            },
        );
        assert!(lax.queries[0].stalls.is_empty());
    }

    #[test]
    fn incomplete_chain_is_marked_and_diagnosed() {
        let mut lines: Vec<String> = synthetic_trace(None)
            .to_jsonl()
            .lines()
            .map(String::from)
            .collect();
        // Drop round 2 hop 2's step line.
        lines.retain(|l| {
            !(l.contains("\"phase\":\"step\"")
                && l.contains("\"round\":2")
                && l.contains("\"hop\":2"))
        });
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("gappy.jsonl", &lines.join("\n"));
        let mut trace = collector.finish();
        assert!(!trace.validate_topology(3, 2));
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        assert!(!analysis.queries[0].complete);
        assert!(analysis.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::MissingStep {
                round: 2,
                hop: 2,
                ..
            }
        )));
    }

    #[test]
    fn node_load_and_retry_attribution() {
        let rec = Recorder::new();
        for node in 0..3u32 {
            rec.tick(
                Phase::Step,
                Ctx::default()
                    .with_query(0)
                    .with_node(node)
                    .with_round(1)
                    .with_hop(node),
            );
        }
        rec.tick(Phase::Retry, Ctx::default().with_node(1));
        rec.tick(Phase::Retry, Ctx::default().with_node(1));
        rec.tick(Phase::Ack, Ctx::default().with_node(2));
        let mut collector = TraceCollector::new();
        collector.ingest_recorder("live", &rec);
        let analysis = analyze(&collector.finish(), &AnalyzerConfig::default());
        assert_eq!(analysis.retransmissions, 2);
        assert_eq!(analysis.re_acks, 1);
        let n1 = analysis.node_load.iter().find(|l| l.node == 1).unwrap();
        assert_eq!(n1.retransmissions, 2);
    }

    #[test]
    fn text_and_json_renderings_cover_the_findings() {
        let trace = synthetic_trace(Some((1, 0)));
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        let text = analysis.to_string();
        assert!(text.contains("query   0"), "text report:\n{text}");
        assert!(text.contains("complete"));
        assert!(text.contains("stall r1 h0"));
        assert!(text.contains("node load:"));
        let json = analysis.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"queries\":",
            "\"critical_path_ns\":",
            "\"phase_totals_ns\":",
            "\"stalls\":",
            "\"node_load\":",
            "\"load_skew\":",
            "\"diagnostics\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn privacy_panel_renders_only_when_a_ledger_rides_along() {
        let bare = analyze(&synthetic_trace(None), &AnalyzerConfig::default());
        assert!(!bare.to_string().contains("privacy:"));
        assert!(!bare.to_json().contains("\"privacy\""));

        let mut trace = synthetic_trace(None);
        trace.privacy = Some(PrivacyLedger {
            queries_accounted: 5,
            per_node_lop: vec![0.01, 0.02, 0.03],
            per_node_ci95: vec![0.001, 0.002, 0.003],
            per_node_class: vec!["beyond suspicion".into(); 3],
            average_lop: 0.02,
            worst_lop: 0.03,
            worst_class: "beyond suspicion".into(),
        });
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        let text = analysis.to_string();
        assert!(
            text.contains("privacy: 5 queries accounted, avg LoP 0.0200, worst 0.0300"),
            "text report:\n{text}"
        );
        assert!(text.contains("node 2: LoP 0.0300 +-0.0030 (beyond suspicion)"));
        // The panel is strictly additive: the header line is unchanged.
        assert!(text.starts_with("trace analysis: 1 queries, 0 diagnostics"));
        let json = analysis.to_json();
        assert!(json.contains("\"privacy\":{\"queries_accounted\":5"));
        assert!(json.contains("\"worst_class\":\"beyond suspicion\""));
        assert!(json.contains("{\"node\":2,\"lop\":0.030000,\"ci95\":0.003000"));
    }

    #[test]
    fn empty_trace_analyzes_to_nothing() {
        let trace = TraceCollector::new().finish();
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        assert!(analysis.queries.is_empty());
        assert!(analysis.node_load.is_empty());
        assert!(analysis.incidents.is_empty());
        assert_eq!(analysis.load_skew(), 0.0);
        // Rendering an empty analysis is well-formed in both shapes.
        assert!(analysis
            .to_string()
            .starts_with("trace analysis: 0 queries"));
        assert!(analysis.to_json().contains("\"incidents\":[]"));
    }

    #[test]
    fn single_query_zero_retry_trace_has_no_incidents() {
        let trace = synthetic_trace(None);
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        assert_eq!(analysis.queries.len(), 1);
        assert_eq!(analysis.retransmissions, 0);
        assert!(analysis.incidents.is_empty());
        assert!(!analysis.to_string().contains("incident"));
    }

    #[test]
    fn uniformly_slow_trace_flags_no_stalls_and_survives_zero_medians() {
        // Every hop equally slow: stall detection is relative to the
        // query's own median, so nothing should be flagged.
        let mut lines = Vec::new();
        for hop in 0..3u32 {
            lines.push(format!(
                "{{\"t_us\":{},\"phase\":\"step\",\"query\":0,\"node\":{hop},\"round\":1,\"hop\":{hop},\"dur_ns\":80000000}}",
                100 + hop as u64 * 100_000
            ));
        }
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("slow.jsonl", &lines.join("\n"));
        let analysis = analyze(&collector.finish(), &AnalyzerConfig::default());
        assert!(analysis.queries[0].stalls.is_empty());

        // All-zero durations drive the median to zero; the threshold
        // guard must not divide by it (or flag every hop).
        let mut zero = Vec::new();
        for hop in 0..3u32 {
            zero.push(format!(
                "{{\"t_us\":{},\"phase\":\"step\",\"query\":0,\"node\":{hop},\"round\":1,\"hop\":{hop},\"dur_ns\":0}}",
                100 + hop as u64
            ));
        }
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("zero.jsonl", &zero.join("\n"));
        let analysis = analyze(&collector.finish(), &AnalyzerConfig::default());
        assert!(analysis.queries[0].stalls.is_empty());
        assert!(analysis.load_skew().is_finite());
    }

    /// A trace with two retry storms separated by a quiet second, plus
    /// one re-ACK inside the first storm.
    fn two_incident_trace() -> CollectedTrace {
        // Storm 1 at t=10ms: node 1 retries twice (50ms waits each),
        // node 2 re-acks a duplicate. Storm 2 at t=2s: node 0 retries
        // once.
        let lines = [
            "{\"t_us\":10000,\"phase\":\"retry\",\"node\":1,\"dur_ns\":50000000}",
            "{\"t_us\":60000,\"phase\":\"retry\",\"node\":1,\"dur_ns\":50000000}",
            "{\"t_us\":61000,\"phase\":\"ack\",\"node\":2,\"dur_ns\":0}",
            "{\"t_us\":2000000,\"phase\":\"retry\",\"node\":0,\"dur_ns\":50000000}",
        ];
        let mut collector = TraceCollector::new();
        collector.ingest_jsonl("chaos.jsonl", &lines.join("\n"));
        collector.finish()
    }

    #[test]
    fn healing_events_cluster_into_incidents_with_per_node_costs() {
        let analysis = analyze(&two_incident_trace(), &AnalyzerConfig::default());
        assert_eq!(analysis.incidents.len(), 2);
        let first = &analysis.incidents[0];
        assert_eq!(first.index, 1);
        assert_eq!(first.retransmissions, 2);
        assert_eq!(first.re_acks, 1);
        assert_eq!(first.frames(), 3);
        assert_eq!(first.backoff_ns, 100_000_000);
        assert!(first.healing_ns >= 100_000_000, "got {}", first.healing_ns);
        assert_eq!(first.start_us, 10_000);
        assert_eq!(first.nodes.len(), 2);
        let n1 = first.nodes.iter().find(|n| n.node == 1).unwrap();
        assert_eq!(n1.retransmissions, 2);
        assert_eq!(n1.backoff_ns, 100_000_000);
        let n2 = first.nodes.iter().find(|n| n.node == 2).unwrap();
        assert_eq!(n2.re_acks, 1);
        assert_eq!(n2.frames(), 1);
        let second = &analysis.incidents[1];
        assert_eq!(second.index, 2);
        assert_eq!(second.retransmissions, 1);
        // A lone retry still attributes its wait as healing cost.
        assert!(second.healing_ns > 0);
    }

    #[test]
    fn incident_gap_controls_clustering() {
        // A huge gap folds both storms into one incident.
        let merged = analyze(
            &two_incident_trace(),
            &AnalyzerConfig {
                incident_gap_us: 10_000_000,
                ..AnalyzerConfig::default()
            },
        );
        assert_eq!(merged.incidents.len(), 1);
        assert_eq!(merged.incidents[0].retransmissions, 3);
        // A tiny gap still keeps storm 1 whole — its events chain with
        // no quiet time between retry windows — while storm 2 stays
        // separate.
        let split = analyze(
            &two_incident_trace(),
            &AnalyzerConfig {
                incident_gap_us: 10,
                ..AnalyzerConfig::default()
            },
        );
        assert_eq!(split.incidents.len(), 2);
        assert_eq!(split.incidents[0].frames(), 3);
    }

    #[test]
    fn incident_renderings_cover_text_and_json() {
        let config = AnalyzerConfig {
            bytes_per_frame_hint: Some(128.0),
            ..AnalyzerConfig::default()
        };
        let analysis = analyze(&two_incident_trace(), &config);
        let text = analysis.to_string();
        assert!(text.contains("incident 1: detect t+"), "text:\n{text}");
        assert!(text.contains("2 retransmissions, 1 re-acks"));
        assert!(text.contains("~384 B overhead"));
        assert!(text.contains("n1: 2 frames"));
        let json = analysis.to_json();
        assert!(json.contains("\"incidents\":[{\"index\":1"));
        assert!(json.contains("\"healing_ns\":"));
        assert!(json.contains("\"overhead_bytes_est\":384"));
        assert!(json.contains("{\"node\":1,\"retransmissions\":2"));
        // Without the hint the byte estimate is absent, not zero.
        let bare = analyze(&two_incident_trace(), &AnalyzerConfig::default());
        assert!(!bare.to_json().contains("overhead_bytes_est"));
    }
}
