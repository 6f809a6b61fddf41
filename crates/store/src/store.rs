//! [`NodeStore`]: the per-node persistent store, and its snapshots.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use privtopk_domain::{DomainError, LocalTopkSource, TopKVector, Value, ValueDomain};
use privtopk_observe::Recorder;

use crate::index::{CandidateIndex, DEFAULT_CAPACITY};
use crate::log::{log_path, replay, sorted_counts, write_compacted, LogRecord, LogWriter};
use crate::StoreError;

/// Counter name published for total live rows (rendered by the
/// Prometheus exposition as `privtopk_store_rows_total`).
pub const METRIC_ROWS: &str = "store_rows";
/// Counter name for index rebuilds (`privtopk_store_index_rebuilds_total`).
pub const METRIC_REBUILDS: &str = "store_index_rebuilds";
/// Gauge name for the candidate-index depth (`privtopk_store_index_depth`).
pub const METRIC_INDEX_DEPTH: &str = "store_index_depth";
/// Gauge name for snapshot staleness in write generations
/// (`privtopk_store_snapshot_age`).
pub const METRIC_SNAPSHOT_AGE: &str = "store_snapshot_age";

/// Point-in-time counters of one [`NodeStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Live rows (inserts minus deletes).
    pub rows: u64,
    /// Occurrences currently held by the candidate index.
    pub index_depth: u64,
    /// Candidate capacity the index is bounded to.
    pub index_capacity: usize,
    /// Index rebuilds (log replays) performed.
    pub index_rebuilds: u64,
    /// Write generation: increments on every mutation.
    pub generation: u64,
    /// Records in the on-disk log (grows until compaction).
    pub log_records: u64,
    /// Compactions performed.
    pub compactions: u64,
}

/// An immutable, cheaply clonable view of a store at one write
/// generation.
///
/// Snapshots are what the standing service hands to its workers: a
/// query runs entirely against the frozen `top` candidates while writes
/// keep landing in the store, so transcripts are bit-identical to a run
/// against a frozen copy of the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    epoch: u64,
    rows: u64,
    top: Vec<Value>,
    domain: ValueDomain,
}

impl StoreSnapshot {
    /// Write generation this view was captured at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live rows at capture time.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The captured candidates, largest first.
    #[must_use]
    pub fn top(&self) -> &[Value] {
        &self.top
    }

    /// The store's public value domain.
    #[must_use]
    pub fn domain(&self) -> ValueDomain {
        self.domain
    }
}

impl LocalTopkSource for StoreSnapshot {
    fn local_topk(&self, k: usize) -> Result<TopKVector, DomainError> {
        if k == 0 {
            return Err(DomainError::ZeroK);
        }
        let need = (k as u64).min(self.rows) as usize;
        if self.top.len() < need {
            return Err(DomainError::InsufficientCandidates {
                have: self.top.len(),
                need,
            });
        }
        let floor = self.domain.min();
        let mut parts: Vec<Value> = self.top.iter().copied().take(k).collect();
        parts.resize(k, floor);
        TopKVector::from_sorted(parts)
    }

    fn row_count(&self) -> u64 {
        self.rows
    }

    fn source_epoch(&self) -> u64 {
        self.epoch
    }
}

#[derive(Debug)]
struct Inner {
    writer: LogWriter,
    index: CandidateIndex,
    generation: u64,
    compactions: u64,
    cache: Option<Arc<StoreSnapshot>>,
}

/// A persistent, append-only record store for one node's sensitive
/// column, topped by an incremental top-k candidate index.
///
/// The on-disk log under the store directory is the source of truth
/// (see [`crate::log`]); the index is a bounded cache over its largest
/// live values, mutated in `O(log c)` per write and rebuilt from a log
/// replay only when queries outgrow it. The query path never sorts the
/// data set.
///
/// The store is internally synchronized: share it across threads with
/// [`Arc`] and call `insert`/`delete`/`snapshot` concurrently.
#[derive(Debug)]
pub struct NodeStore {
    dir: PathBuf,
    domain: ValueDomain,
    inner: Mutex<Inner>,
}

impl NodeStore {
    /// Creates a fresh store in `dir` (created if absent); fails if a
    /// log already exists there.
    pub fn create(dir: &Path, domain: ValueDomain) -> Result<NodeStore, StoreError> {
        fs::create_dir_all(dir)?;
        let path = log_path(dir);
        if path.exists() {
            return Err(StoreError::Layout {
                what: "store already exists (open it instead)",
            });
        }
        let writer = LogWriter::create(&path, &domain)?;
        Ok(NodeStore {
            dir: dir.to_path_buf(),
            domain,
            inner: Mutex::new(Inner {
                writer,
                index: CandidateIndex::new(DEFAULT_CAPACITY),
                generation: 0,
                compactions: 0,
                cache: None,
            }),
        })
    }

    /// Opens an existing store, replaying its log to rebuild the index.
    pub fn open(dir: &Path) -> Result<NodeStore, StoreError> {
        let path = log_path(dir);
        if !path.exists() {
            return Err(StoreError::Layout {
                what: "no store log in this directory",
            });
        }
        let replayed = replay(&path)?;
        let mut index = CandidateIndex::new(DEFAULT_CAPACITY);
        index.rebuild_from_counts(&replayed.counts, DEFAULT_CAPACITY);
        let writer = LogWriter::open_append(&path, replayed.records)?;
        Ok(NodeStore {
            dir: dir.to_path_buf(),
            domain: replayed.domain,
            inner: Mutex::new(Inner {
                writer,
                index,
                generation: 0,
                compactions: 0,
                cache: None,
            }),
        })
    }

    /// Opens the store in `dir` if one exists, otherwise creates it.
    pub fn open_or_create(dir: &Path, domain: ValueDomain) -> Result<NodeStore, StoreError> {
        if log_path(dir).exists() {
            Self::open(dir)
        } else {
            Self::create(dir, domain)
        }
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The public value domain rows must fall in.
    #[must_use]
    pub fn domain(&self) -> ValueDomain {
        self.domain
    }

    /// Appends one row. `O(log c)` against the candidate index plus one
    /// buffered log write.
    pub fn insert(&self, v: Value) -> Result<(), StoreError> {
        self.insert_many(std::iter::once(v))
    }

    /// Appends many rows in one buffered pass — the streaming-ingest
    /// path; memory stays bounded by the index capacity regardless of
    /// how many rows the iterator yields.
    pub fn insert_many<I>(&self, values: I) -> Result<(), StoreError>
    where
        I: IntoIterator<Item = Value>,
    {
        let mut inner = self.inner.lock();
        let mut wrote = false;
        for v in values {
            if !self.domain.contains(v) {
                // Flush what already hit the log so state matches disk.
                inner.writer.flush()?;
                return Err(DomainError::OutOfDomain { value: v }.into());
            }
            if !wrote {
                // The memoized snapshot is stale from the first row on,
                // even if a later row fails.
                inner.cache = None;
                wrote = true;
            }
            inner.writer.append(LogRecord::Insert(v))?;
            inner.index.insert(v);
            inner.generation += 1;
        }
        if wrote {
            inner.writer.flush()?;
        }
        Ok(())
    }

    /// Removes one previously inserted occurrence of `v`.
    ///
    /// Above the index threshold the removal is verified immediately and
    /// [`StoreError::DeleteMissing`] is returned for an absent value; at
    /// or below it the delete is logged on faith and verified exactly at
    /// the next rebuild or compaction (log replay rejects unmatched
    /// deletes).
    pub fn delete(&self, v: Value) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        if !inner.index.delete(v) {
            return Err(StoreError::DeleteMissing { value: v });
        }
        inner.writer.append(LogRecord::Delete(v))?;
        inner.writer.flush()?;
        inner.generation += 1;
        inner.cache = None;
        if inner.index.wants_rebuild() {
            let capacity = inner.index.capacity();
            self.rebuild_locked(&mut inner, capacity)?;
        }
        Ok(())
    }

    /// Rewrites the log to live rows only (one insert per occurrence)
    /// and rebuilds the index from the result.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        inner.writer.flush()?;
        let path = log_path(&self.dir);
        let replayed = replay(&path)?;
        let tmp = self.dir.join("store.log.compacting");
        let records = write_compacted(&tmp, &self.domain, &replayed.counts)?;
        fs::rename(&tmp, &path)?;
        let capacity = inner.index.capacity();
        inner.index.rebuild_from_counts(&replayed.counts, capacity);
        inner.writer = LogWriter::open_append(&path, records)?;
        inner.generation += 1;
        inner.compactions += 1;
        inner.cache = None;
        Ok(())
    }

    fn rebuild_locked(&self, inner: &mut Inner, capacity: usize) -> Result<(), StoreError> {
        inner.writer.flush()?;
        let replayed = replay(&log_path(&self.dir))?;
        inner.index.rebuild_from_counts(&replayed.counts, capacity);
        Ok(())
    }

    /// Ensures the index can answer exact top-`k` queries: grows the
    /// candidate capacity to at least `2k` and rebuilds from the log if
    /// the tracked region is too shallow.
    pub fn ensure_k(&self, k: usize) -> Result<(), StoreError> {
        if k == 0 {
            return Err(DomainError::ZeroK.into());
        }
        let mut inner = self.inner.lock();
        let needed = (2 * k).max(DEFAULT_CAPACITY);
        if inner.index.capacity() < needed || !inner.index.answerable(k) {
            let capacity = inner.index.capacity().max(needed);
            self.rebuild_locked(&mut inner, capacity)?;
            inner.cache = None;
        }
        Ok(())
    }

    /// A consistent view of the store at its current write generation.
    ///
    /// Cached per generation: repeated calls between writes return the
    /// same (cheap) [`Arc`].
    #[must_use]
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        let mut inner = self.inner.lock();
        if let Some(cached) = &inner.cache {
            return Arc::clone(cached);
        }
        let snap = Arc::new(StoreSnapshot {
            epoch: inner.generation,
            rows: inner.index.live_rows(),
            top: inner.index.top_values(inner.index.capacity()),
            domain: self.domain,
        });
        inner.cache = Some(Arc::clone(&snap));
        snap
    }

    /// [`snapshot`](Self::snapshot) preceded by [`ensure_k`](Self::ensure_k),
    /// so the returned view is guaranteed to answer exact top-`k`.
    pub fn snapshot_for_k(&self, k: usize) -> Result<Arc<StoreSnapshot>, StoreError> {
        self.ensure_k(k)?;
        Ok(self.snapshot())
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            rows: inner.index.live_rows(),
            index_depth: inner.index.tracked(),
            index_capacity: inner.index.capacity(),
            index_rebuilds: inner.index.rebuilds(),
            generation: inner.generation,
            log_records: inner.writer.records(),
            compactions: inner.compactions,
        }
    }
}

impl LocalTopkSource for NodeStore {
    fn local_topk(&self, k: usize) -> Result<TopKVector, DomainError> {
        let snap = self.snapshot_for_k(k).map_err(|e| match e {
            StoreError::Domain(d) => d,
            // I/O failure on the rebuild path: surface as a
            // candidate shortfall, the only honest domain-level fact.
            _ => DomainError::InsufficientCandidates { have: 0, need: k },
        })?;
        snap.local_topk(k)
    }

    fn row_count(&self) -> u64 {
        self.stats().rows
    }

    fn source_epoch(&self) -> u64 {
        self.stats().generation
    }
}

/// Publishes store counters and gauges into a [`Recorder`] registry so
/// the existing Prometheus exposition renders them as
/// `privtopk_store_rows_total`, `privtopk_store_index_rebuilds_total`,
/// `privtopk_store_index_depth` and `privtopk_store_snapshot_age`.
///
/// `stats` aggregates over all of a service's node stores;
/// `snapshot_epochs` pairs each store's stats with the epoch of the
/// snapshot the service is currently answering from (age = generation −
/// epoch, maximized over nodes). The published series carry only sizes
/// and ages — never values — so the exposition stays data-independent.
pub fn publish_store_metrics(recorder: &Recorder, stats: &[StoreStats], snapshot_epochs: &[u64]) {
    let rows: u64 = stats.iter().map(|s| s.rows).sum();
    let rebuilds: u64 = stats.iter().map(|s| s.index_rebuilds).sum();
    let depth: u64 = stats.iter().map(|s| s.index_depth).max().unwrap_or(0);
    let age: u64 = stats
        .iter()
        .zip(snapshot_epochs)
        .map(|(s, &e)| s.generation.saturating_sub(e))
        .max()
        .unwrap_or(0);
    recorder.set_counter(METRIC_ROWS, rows);
    recorder.set_counter(METRIC_REBUILDS, rebuilds);
    recorder.gauge_set(METRIC_INDEX_DEPTH, depth);
    recorder.gauge_set(METRIC_SNAPSHOT_AGE, age);
}

/// Net live counts per value from an iterator of values, ascending by
/// value as [`CandidateIndex::rebuild_from_counts`] takes them — helper
/// for tests and benches that need the full-re-sort reference answer.
#[must_use]
pub fn counts_of<I: IntoIterator<Item = Value>>(values: I) -> Vec<(Value, u64)> {
    let mut counts = HashMap::new();
    for v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    sorted_counts(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("privtopk-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn vals(raw: &[i64]) -> Vec<Value> {
        raw.iter().copied().map(Value::new).collect()
    }

    #[test]
    fn create_insert_query_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        store.insert_many(vals(&[42, 7, 999, 42])).unwrap();
        let top = store.local_topk(3).unwrap();
        assert_eq!(
            top.as_slice(),
            &[Value::new(999), Value::new(42), Value::new(42)]
        );
        assert_eq!(store.row_count(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_replays_log() {
        let dir = tmp_dir("reopen");
        {
            let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
            store.insert_many(vals(&[10, 20, 30])).unwrap();
            store.delete(Value::new(20)).unwrap();
        }
        let store = NodeStore::open(&dir).unwrap();
        assert_eq!(store.row_count(), 2);
        let top = store.local_topk(2).unwrap();
        assert_eq!(top.as_slice(), &[Value::new(30), Value::new(10)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_existing_and_open_requires_log() {
        let dir = tmp_dir("layout");
        let domain = ValueDomain::paper_default();
        assert!(matches!(
            NodeStore::open(&dir),
            Err(StoreError::Io(_) | StoreError::Layout { .. })
        ));
        let _store = NodeStore::create(&dir, domain).unwrap();
        assert!(matches!(
            NodeStore::create(&dir, domain),
            Err(StoreError::Layout { .. })
        ));
        assert!(NodeStore::open_or_create(&dir, domain).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_domain_insert_rejected() {
        let dir = tmp_dir("domain");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        assert!(matches!(
            store.insert(Value::new(0)),
            Err(StoreError::Domain(DomainError::OutOfDomain { .. }))
        ));
        assert_eq!(store.row_count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_insert_many_failure_invalidates_the_snapshot() {
        let dir = tmp_dir("partial");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        store.insert_many(vals(&[5])).unwrap();
        let _ = store.snapshot();
        // 9000 lands, then 20000 is out of the paper domain.
        assert!(matches!(
            store.insert_many(vals(&[9000, 20000])),
            Err(StoreError::Domain(DomainError::OutOfDomain { .. }))
        ));
        let stats = store.stats();
        let snap = store.snapshot();
        assert_eq!(snap.rows(), stats.rows);
        assert_eq!(snap.epoch(), stats.generation);
        assert_eq!(snap.top(), vals(&[9000, 5]).as_slice());
        drop(store);
        let reopened = NodeStore::open(&dir).unwrap();
        let snap = reopened.snapshot();
        assert_eq!(snap.rows(), stats.rows);
        assert_eq!(snap.top(), vals(&[9000, 5]).as_slice());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_missing_tracked_value_errors() {
        let dir = tmp_dir("delmiss");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        store.insert_many(vals(&[5, 6])).unwrap();
        assert!(matches!(
            store.delete(Value::new(7)),
            Err(StoreError::DeleteMissing { .. })
        ));
        assert_eq!(store.row_count(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_is_frozen_while_writes_land() {
        let dir = tmp_dir("frozen");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        store.insert_many(vals(&[100, 200])).unwrap();
        let snap = store.snapshot_for_k(2).unwrap();
        store.insert(Value::new(300)).unwrap();
        // The snapshot still answers from its capture generation.
        let top = snap.local_topk(2).unwrap();
        assert_eq!(top.as_slice(), &[Value::new(200), Value::new(100)]);
        assert_eq!(snap.rows(), 2);
        // The store sees the new row; its epoch moved past the snapshot's.
        assert_eq!(store.row_count(), 3);
        assert!(store.source_epoch() > snap.epoch());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_cache_reuses_arc_between_writes() {
        let dir = tmp_dir("cache");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        store.insert(Value::new(5)).unwrap();
        let a = store.snapshot();
        let b = store.snapshot();
        assert!(Arc::ptr_eq(&a, &b));
        store.insert(Value::new(6)).unwrap();
        let c = store.snapshot();
        assert!(!Arc::ptr_eq(&a, &c));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_k_grows_capacity_and_rebuilds() {
        let dir = tmp_dir("ensure");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        store
            .insert_many((1..=600).map(|i| Value::new(i % 9_000 + 1)))
            .unwrap();
        // Default capacity is 256; k = 200 needs capacity 400+.
        let k = 200;
        store.ensure_k(k).unwrap();
        let stats = store.stats();
        assert!(stats.index_capacity >= 2 * k);
        assert!(store.local_topk(k).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn erosion_triggers_automatic_rebuild() {
        let dir = tmp_dir("erosion");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        // 600 distinct values; index tracks the top 256.
        store.insert_many((1..=600).map(Value::new)).unwrap();
        // Delete tracked values until the index rebuilds itself.
        for v in (345..=600).rev() {
            store.delete(Value::new(v)).unwrap();
        }
        let stats = store.stats();
        assert!(stats.index_rebuilds > 0, "erosion should trigger rebuilds");
        // All remaining 344 rows answerable up to the capacity.
        let top = store.local_topk(10).unwrap();
        assert_eq!(top.first(), Value::new(344));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_shrinks_log_and_preserves_answers() {
        let dir = tmp_dir("compact");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        store.insert_many(vals(&[10, 20, 30, 40])).unwrap();
        store.delete(Value::new(20)).unwrap();
        store.delete(Value::new(40)).unwrap();
        let before = store.local_topk(2).unwrap();
        let log_before = store.stats().log_records;
        store.compact().unwrap();
        let stats = store.stats();
        assert_eq!(stats.log_records, 2);
        assert!(stats.log_records < log_before);
        assert_eq!(stats.compactions, 1);
        assert_eq!(store.local_topk(2).unwrap(), before);
        // Reopen after compaction: identical view.
        drop(store);
        let store = NodeStore::open(&dir).unwrap();
        assert_eq!(store.local_topk(2).unwrap(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fewer_rows_than_k_pads_with_floor() {
        let dir = tmp_dir("pad");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        store.insert(Value::new(50)).unwrap();
        let top = store.local_topk(3).unwrap();
        assert_eq!(
            top.as_slice(),
            &[Value::new(50), Value::new(1), Value::new(1)]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_k_rejected() {
        let dir = tmp_dir("zerok");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        assert!(store.local_topk(0).is_err());
        assert!(store.ensure_k(0).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_publication_names_and_aggregation() {
        let dir = tmp_dir("metrics");
        let store = NodeStore::create(&dir, ValueDomain::paper_default()).unwrap();
        store.insert_many(vals(&[5, 6, 7])).unwrap();
        let snap = store.snapshot();
        store.insert(Value::new(8)).unwrap();
        let recorder = Recorder::new();
        publish_store_metrics(&recorder, &[store.stats()], &[snap.epoch()]);
        assert_eq!(recorder.counter(METRIC_ROWS), 4);
        assert_eq!(recorder.counter(METRIC_REBUILDS), 0);
        assert_eq!(recorder.gauge(METRIC_INDEX_DEPTH).unwrap().value, 4);
        assert_eq!(recorder.gauge(METRIC_SNAPSHOT_AGE).unwrap().value, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
