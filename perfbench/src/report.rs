//! The metric catalogue and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; the smoke test checks that the two agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by a `--trace 0` run: what a user of the
/// federation sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a `--trace 1` run. Names are
/// `<layer>.<metric>`, with the layer named after the crate module the
/// probe calls into.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("federation.compile_us_per_spec", "us"),
    ("federation.share_of_call_pct", "%"),
    ("core.engine.run_us_per_query", "us"),
    ("core.local.step_ns_p50", "ns"),
    ("core.local.step_ns_p99", "ns"),
    ("core.local.steps_per_query", "count"),
    ("core.local.randomized_share_pct", "%"),
    ("domain.topk.merge_ns_p50", "ns"),
    ("ring.wire.encode_ns_p50", "ns"),
    ("ring.wire.decode_ns_p50", "ns"),
    ("ring.wire.frame_bytes_mean", "B"),
    ("ring.wire.bytes_per_query", "B"),
    ("ring.transport.inmem_oneway_us_p50", "us"),
    ("ring.transport.tcp_oneway_us_p50", "us"),
    ("ring.transport.ctx_switches_per_query", "count"),
    ("core.service.start_ms", "ms"),
    ("core.service.shutdown_ms", "ms"),
    ("core.service.queue_wait_us_mean", "us"),
    ("core.service.submit_us_p50", "us"),
    ("core.service.collect_wait_us_p50", "us"),
    ("core.service.pipeline_high_water", "count"),
    ("store.bulk_ingest_rows_per_s", "rows/s"),
    ("store.open_ms_per_node", "ms"),
    ("store.snapshot_us", "us"),
    ("store.insert_many_us_p50", "us"),
    ("store.insert_many_us_p99", "us"),
    ("store.log_bytes_per_row", "B"),
    ("store.index_rebuilds", "count"),
    ("privacy.accountant.on_query_ns", "ns"),
    ("privacy.accountant.first_snapshot_ms", "ms"),
    ("observe.slo.record_ns", "ns"),
    ("observe.trace_overhead_pct", "%"),
    ("ring.faults.retransmissions", "count"),
    ("ring.faults.re_acks", "count"),
    ("trace.step_ns_mean", "ns"),
    ("trace.encode_ns_mean", "ns"),
    ("trace.send_ns_mean", "ns"),
    ("trace.recv_ns_mean", "ns"),
    ("attribution.residual_pct", "%"),
    ("host.steal_pct", "%"),
    ("client.setup_wall_ms", "ms"),
    ("client.throughput_qps", "q/s"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_tail_ms", "ms"),
    ("client.lateness_us_p90", "us"),
];

/// Metric values collected during a run, keyed by catalogue name. A
/// `None` value is a measurement that could not be taken (a percentile
/// without enough samples beyond it, or a counter the platform lacks).
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, Option<f64>>,
}

impl Metrics {
    /// Records `name`. Later writes replace earlier ones.
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        self.values.insert(name, value);
    }

    /// The value recorded for `name`, if it was measured.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied().flatten()
    }

    /// The catalogue's metrics in catalogue order, with their units.
    ///
    /// # Panics
    ///
    /// Panics if the run recorded a name outside `catalogue` or left one
    /// of its names unrecorded — both are bugs in the benchmark.
    #[must_use]
    pub fn finish(mut self, catalogue: &[(&'static str, &'static str)]) -> Vec<Metric> {
        let out = catalogue
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self
                    .values
                    .remove(name)
                    .unwrap_or_else(|| panic!("metric `{name}` was never recorded")),
            })
            .collect();
        let stray: Vec<_> = self.values.keys().collect();
        assert!(stray.is_empty(), "metrics outside the catalogue: {stray:?}");
        out
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value; `None` prints as JSON `null`.
    pub value: Option<f64>,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Queries (or, for batched calls, member queries) the run issued.
    pub attempted: u64,
    /// Queries that failed or returned a wrong answer, plus failed
    /// whole-run checks (frame counts, store snapshots).
    pub failed: u64,
    /// Metrics in catalogue order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The single-line JSON object the benchmark prints last.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = match m.value {
                // Rust's shortest round-trip formatting keeps every digit.
                Some(v) if v.is_finite() => format!("{v}"),
                _ => "null".to_string(),
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_documented_keys() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", Some(0.8127));
        metrics.set("latency_p50_ms", None);
        let report = Report {
            attempted: 1000,
            failed: 0,
            metrics: metrics.finish(&[("setup_s", "s"), ("latency_p50_ms", "ms")]),
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"latency_p50_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn unrecorded_metric_is_a_bug() {
        let _ = Metrics::default().finish(&[("setup_s", "s")]);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}
