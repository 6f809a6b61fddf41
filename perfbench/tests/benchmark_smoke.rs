//! Runs every workload at smoke size (one pass of about 20 requests,
//! tiny inputs) in both modes, and checks that the outputs pass their
//! checks and that every metric `BENCHMARK.json` names is emitted with
//! its declared unit.

use std::path::PathBuf;

use privtopk_perfbench::report::{END_TO_END, PER_LAYER};
use privtopk_perfbench::{run, RunConfig, Scale, Workload};

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, in order.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json lists no {list}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("entry has the key")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("value closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    for (list, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<(String, String)> = catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(list), ours, "{list} differs from BENCHMARK.json");
    }
}

fn smoke(workload: Workload) {
    for trace in [false, true] {
        let cfg = RunConfig {
            workload,
            seed: 7,
            seconds: 0.5,
            trace,
            scale: Scale::smoke(),
            scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("smoke-{}-{trace}", workload.name())),
        };
        let report = run(&cfg).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
        assert!(
            report.correct(),
            "{}: {} failed checks",
            workload.name(),
            report.failed
        );
        assert!(
            report.attempted >= 20,
            "{}: {} attempted",
            workload.name(),
            report.attempted
        );
        let emitted: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        let list = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(emitted, declared(list), "{} trace={trace}", workload.name());
        assert!(!cfg.scratch.exists(), "scratch state outlived the run");
        let json = report.to_json();
        for (name, unit) in declared(list) {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": "))
                    && json.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} missing from {json}"
            );
        }
    }
}

#[test]
fn serve_pipelined_smoke() {
    smoke(Workload::ServePipelined);
}

#[test]
fn serve_interactive_smoke() {
    smoke(Workload::ServeInteractive);
}

#[test]
fn batch_sim_smoke() {
    smoke(Workload::BatchSim);
}

#[test]
fn store_ingest_smoke() {
    smoke(Workload::StoreIngest);
}
