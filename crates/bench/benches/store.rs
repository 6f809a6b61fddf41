//! Store log replay: the pass behind every `NodeStore::open`, index
//! rebuild and compaction, over logs of 10^5 and 10^6 records with 10%
//! deletes over the paper domain.

use std::path::Path;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;

use privtopk_domain::rng::seeded_rng;
use privtopk_domain::{Value, ValueDomain};
use privtopk_store::log::{replay, LogRecord, LogWriter};

/// Writes a log of `records` records to `path`: inserts drawn uniformly
/// from the paper domain, and one record in ten on average a delete of a
/// live row, so the log replays cleanly.
fn write_log(path: &Path, records: usize, seed: u64) {
    let domain = ValueDomain::paper_default();
    let mut rng = seeded_rng(seed);
    let mut writer = LogWriter::create(path, &domain).expect("create bench log");
    let mut live: Vec<Value> = Vec::with_capacity(records);
    for _ in 0..records {
        let record = if !live.is_empty() && rng.gen_bool(0.1) {
            LogRecord::Delete(live.swap_remove(rng.gen_range(0..live.len())))
        } else {
            let v = Value::new(rng.gen_range(domain.as_range()));
            live.push(v);
            LogRecord::Insert(v)
        };
        writer.append(record).expect("append bench record");
    }
    writer.flush().expect("flush bench log");
}

fn bench_store_log_replay(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("privtopk-bench-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let mut group = c.benchmark_group("store_log_replay");
    group.sample_size(20);
    for records in [100_000usize, 1_000_000] {
        let path = dir.join(format!("{records}.log"));
        write_log(&path, records, 0x5709E ^ records as u64);
        group.bench_with_input(BenchmarkId::from_parameter(records), &path, |b, path| {
            b.iter(|| replay(path).expect("replay bench log"));
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_store_log_replay);
criterion_main!(benches);
