//! The append-only on-disk record log.
//!
//! One store directory holds one log file, `store.log`:
//!
//! ```text
//! header  (24 bytes):  magic "PTKS" | version u32 LE | domain min i64 LE | domain max i64 LE
//! records ( 9 bytes):  tag u8 (1 = insert, 2 = delete) | value i64 LE
//! ```
//!
//! The log is the single source of truth: the in-memory candidate index
//! is a bounded cache rebuilt by replaying it. Replay aggregates *net
//! per-value counts* (insert `+1`, delete `-1`), so rebuild memory is
//! bounded by the number of distinct domain values plus one read block,
//! never by row count — the property that lets a 1-core container
//! replay a multi-million-row log.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

use privtopk_domain::{Value, ValueDomain};

use crate::StoreError;

/// Log file name inside a store directory.
pub const LOG_FILE: &str = "store.log";

const MAGIC: [u8; 4] = *b"PTKS";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 24;
/// Bytes per record: tag byte plus a little-endian `i64` value.
pub const RECORD_LEN: usize = 9;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;

/// One logical operation in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogRecord {
    /// A row with this sensitive value became live.
    Insert(Value),
    /// A previously inserted row with this value was removed.
    Delete(Value),
}

/// Path of the log file inside `dir`.
#[must_use]
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join(LOG_FILE)
}

fn encode_header(domain: &ValueDomain) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&domain.min().get().to_le_bytes());
    h[16..24].copy_from_slice(&domain.max().get().to_le_bytes());
    h
}

fn decode_header(h: &[u8; HEADER_LEN]) -> Result<ValueDomain, StoreError> {
    if h[..4] != MAGIC {
        return Err(StoreError::Corrupt {
            what: "bad magic (not a privtopk store log)".into(),
        });
    }
    let version = u32::from_le_bytes(h[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(StoreError::Corrupt {
            what: format!("unsupported log version {version}"),
        });
    }
    let min = i64::from_le_bytes(h[8..16].try_into().expect("8 bytes"));
    let max = i64::from_le_bytes(h[16..24].try_into().expect("8 bytes"));
    ValueDomain::new(Value::new(min), Value::new(max)).map_err(|e| StoreError::Corrupt {
        what: format!("invalid domain in header: {e}"),
    })
}

fn encode_record(rec: LogRecord) -> [u8; RECORD_LEN] {
    let (tag, v) = match rec {
        LogRecord::Insert(v) => (TAG_INSERT, v),
        LogRecord::Delete(v) => (TAG_DELETE, v),
    };
    let mut buf = [0u8; RECORD_LEN];
    buf[0] = tag;
    buf[1..].copy_from_slice(&v.get().to_le_bytes());
    buf
}

fn decode_record(buf: &[u8; RECORD_LEN]) -> Result<LogRecord, StoreError> {
    let v = Value::new(i64::from_le_bytes(buf[1..].try_into().expect("8 bytes")));
    match buf[0] {
        TAG_INSERT => Ok(LogRecord::Insert(v)),
        TAG_DELETE => Ok(LogRecord::Delete(v)),
        tag => Err(StoreError::Corrupt {
            what: format!("unknown record tag {tag}"),
        }),
    }
}

/// Buffered append handle over the log file.
#[derive(Debug)]
pub struct LogWriter {
    out: BufWriter<File>,
    records: u64,
}

impl LogWriter {
    /// Creates a fresh log (header only) at `path`, failing if one
    /// already exists.
    pub fn create(path: &Path, domain: &ValueDomain) -> Result<LogWriter, StoreError> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&encode_header(domain))?;
        out.flush()?;
        Ok(LogWriter { out, records: 0 })
    }

    /// Opens an existing log for appending; `records` is the replayed
    /// record count (the writer only tracks what it appends on top).
    pub fn open_append(path: &Path, records: u64) -> Result<LogWriter, StoreError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(LogWriter {
            out: BufWriter::new(file),
            records,
        })
    }

    /// Appends one record (buffered; call [`flush`](Self::flush) to make
    /// it visible to readers).
    pub fn append(&mut self, rec: LogRecord) -> Result<(), StoreError> {
        self.out.write_all(&encode_record(rec))?;
        self.records += 1;
        Ok(())
    }

    /// Flushes buffered records to the file.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.out.flush()?;
        Ok(())
    }

    /// Total records in the log (replayed base plus appended).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Result of replaying a log: the domain from the header, net live
/// counts per value, and the raw record count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Domain recorded in the log header.
    pub domain: ValueDomain,
    /// Net live occurrences per value (`insert − delete`), ascending by
    /// value, zero entries removed.
    pub counts: Vec<(Value, u64)>,
    /// Number of records replayed.
    pub records: u64,
}

impl Replay {
    /// Total live rows.
    #[must_use]
    pub fn live_rows(&self) -> u64 {
        self.counts.iter().map(|&(_, c)| c).sum()
    }
}

/// Bytes per replay read: the whole records that fit in 64 KiB, so a
/// file read ends on a record boundary.
const BLOCK_LEN: usize = (64 * 1024 / RECORD_LEN) * RECORD_LEN;

/// Replays the full log at `path` into net per-value counts.
///
/// One pass over ~64 KiB blocks of whole records, folded into a hash
/// map: memory is the distinct values plus one block, never the row
/// count.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on a bad header, a truncated record, an
/// unknown tag, an insert outside the header domain, or a delete with no
/// matching insert — the first one in log order; [`StoreError::Io`] on
/// filesystem failure.
pub fn replay(path: &Path) -> Result<Replay, StoreError> {
    replay_from(File::open(path)?)
}

/// [`replay`] over any byte source; reads may return any number of
/// bytes.
fn replay_from<R: Read>(mut reader: R) -> Result<Replay, StoreError> {
    let mut header = [0u8; HEADER_LEN];
    reader
        .read_exact(&mut header)
        .map_err(|_| StoreError::Corrupt {
            what: "log shorter than its header".into(),
        })?;
    let domain = decode_header(&header)?;

    // Default `RandomState`: the log is outside input, so its values
    // must not be able to pick hash collisions.
    let mut counts: HashMap<Value, u64> = HashMap::new();
    let mut records = 0u64;
    let mut block = vec![0u8; BLOCK_LEN];
    // `block[..filled]` holds unread bytes: at most one partial record
    // carried over from the previous read, then the new ones.
    let mut filled = 0;
    loop {
        let n = match reader.read(&mut block[filled..]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        filled += n;
        let whole = filled - filled % RECORD_LEN;
        for rec in block[..whole].chunks_exact(RECORD_LEN) {
            records += 1;
            match decode_record(rec.try_into().expect("chunks are RECORD_LEN"))? {
                LogRecord::Insert(v) => {
                    if !domain.contains(v) {
                        return Err(StoreError::Corrupt {
                            what: format!("logged value {v} outside the header domain"),
                        });
                    }
                    *counts.entry(v).or_insert(0) += 1;
                }
                LogRecord::Delete(v) => match counts.get_mut(&v) {
                    Some(c) if *c > 0 => *c -= 1,
                    _ => {
                        return Err(StoreError::Corrupt {
                            what: format!("delete of {v} with no live insert (record {records})"),
                        })
                    }
                },
            }
        }
        block.copy_within(whole..filled, 0);
        filled -= whole;
    }
    // The only place a torn tail can show: bytes left over after the
    // last whole record.
    if filled > 0 {
        return Err(StoreError::Corrupt {
            what: format!("truncated record at index {records}"),
        });
    }
    Ok(Replay {
        domain,
        counts: sorted_counts(counts),
        records,
    })
}

/// The positive entries of `counts`, ascending by value.
pub(crate) fn sorted_counts(counts: HashMap<Value, u64>) -> Vec<(Value, u64)> {
    let mut sorted = Vec::with_capacity(counts.values().filter(|&&c| c > 0).count());
    sorted.extend(counts.into_iter().filter(|&(_, c)| c > 0));
    sorted.sort_unstable_by_key(|&(v, _)| v);
    sorted
}

/// Writes a compacted log — header plus one insert per live occurrence,
/// in the order of `counts` (ascending by value, as [`Replay::counts`]
/// holds them) — to `path` (atomically replaced by the caller via
/// rename).
pub fn write_compacted(
    path: &Path,
    domain: &ValueDomain,
    counts: &[(Value, u64)],
) -> Result<u64, StoreError> {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    let mut out = BufWriter::new(file);
    out.write_all(&encode_header(domain))?;
    let mut records = 0u64;
    for &(v, c) in counts {
        for _ in 0..c {
            out.write_all(&encode_record(LogRecord::Insert(v)))?;
            records += 1;
        }
    }
    out.flush()?;
    Ok(records)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::io::{self, BufReader};

    use proptest::prelude::*;

    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("privtopk-store-log-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The count replayed for `v`, if it is live.
    fn lookup(counts: &[(Value, u64)], v: Value) -> Option<&u64> {
        counts.iter().find(|&&(w, _)| w == v).map(|(_, c)| c)
    }

    /// The record-at-a-time replay that block reads replaced: a
    /// `BufReader` and a `BTreeMap`, the loop kept verbatim. It is the
    /// oracle `replay_from` must match, result for result and error text
    /// for error text.
    fn reference_replay<R: Read>(inner: R) -> Result<Replay, StoreError> {
        let mut reader = BufReader::new(inner);
        let mut header = [0u8; HEADER_LEN];
        reader
            .read_exact(&mut header)
            .map_err(|_| StoreError::Corrupt {
                what: "log shorter than its header".into(),
            })?;
        let domain = decode_header(&header)?;

        let mut counts: BTreeMap<Value, i64> = BTreeMap::new();
        let mut records = 0u64;
        let mut buf = [0u8; RECORD_LEN];
        loop {
            if reader.read(&mut buf[..1])? == 0 {
                break;
            }
            reader
                .read_exact(&mut buf[1..])
                .map_err(|_| StoreError::Corrupt {
                    what: format!("truncated record at index {records}"),
                })?;
            records += 1;
            match decode_record(&buf)? {
                LogRecord::Insert(v) => {
                    if !domain.contains(v) {
                        return Err(StoreError::Corrupt {
                            what: format!("logged value {v} outside the header domain"),
                        });
                    }
                    *counts.entry(v).or_insert(0) += 1;
                }
                LogRecord::Delete(v) => {
                    let c = counts.entry(v).or_insert(0);
                    *c -= 1;
                    if *c < 0 {
                        return Err(StoreError::Corrupt {
                            what: format!("delete of {v} with no live insert (record {records})"),
                        });
                    }
                }
            }
        }
        let counts = counts
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .map(|(v, c)| (v, c as u64))
            .collect();
        Ok(Replay {
            domain,
            counts,
            records,
        })
    }

    /// A replay result with the error reduced to its `Display` text.
    fn outcome(result: Result<Replay, StoreError>) -> Result<Replay, String> {
        result.map_err(|e| e.to_string())
    }

    /// Serves `bytes` in reads of at most `sizes[i]` bytes (cycling
    /// through `sizes`), and fails every `interrupt_every`-th call with
    /// `Interrupted` (never when it is 0; 1 would never make progress).
    struct ShortReads<'a> {
        bytes: &'a [u8],
        sizes: &'a [usize],
        next: usize,
        calls: usize,
        interrupt_every: usize,
    }

    impl<'a> ShortReads<'a> {
        fn new(bytes: &'a [u8], sizes: &'a [usize], interrupt_every: usize) -> Self {
            ShortReads {
                bytes,
                sizes,
                next: 0,
                calls: 0,
                interrupt_every,
            }
        }
    }

    impl Read for ShortReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt_every > 0 && self.calls.is_multiple_of(self.interrupt_every) {
                return Err(ErrorKind::Interrupted.into());
            }
            let size = self.sizes[self.next % self.sizes.len()];
            self.next += 1;
            let n = size.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Whole records in one replay block.
    const RECORDS_PER_BLOCK: usize = BLOCK_LEN / RECORD_LEN;

    /// Header domain of the generated logs. Well-formed records use
    /// values 1..=6 only, so 7 and 8 are in-domain values that are
    /// never inserted.
    fn small_domain() -> ValueDomain {
        ValueDomain::new(Value::new(1), Value::new(8)).unwrap()
    }

    fn raw_record(tag: u8, v: i64) -> [u8; RECORD_LEN] {
        let mut rec = [0u8; RECORD_LEN];
        rec[0] = tag;
        rec[1..].copy_from_slice(&v.to_le_bytes());
        rec
    }

    /// One record that makes a replay fail: a stray tag, an insert
    /// outside [`small_domain`], or a delete of a value never inserted.
    fn arb_stray_record() -> impl Strategy<Value = [u8; RECORD_LEN]> {
        prop_oneof![
            (prop_oneof![Just(0u8), Just(3u8), Just(255u8)], any::<i64>())
                .prop_map(|(tag, v)| raw_record(tag, v)),
            prop_oneof![Just(0i64), Just(9), Just(i64::MIN), Just(i64::MAX)]
                .prop_map(|v| raw_record(TAG_INSERT, v)),
            (7i64..=8).prop_map(|v| raw_record(TAG_DELETE, v)),
        ]
    }

    /// A log of up to three blocks of records over [`small_domain`]. Up
    /// to 3/8 of the records after a run of leading inserts are deletes, so
    /// deletes often match and sometimes precede their insert. Half the
    /// logs get one stray record at any position, half end in 1–8 stray
    /// bytes.
    fn arb_log() -> impl Strategy<Value = Vec<u8>> {
        (
            0u8..=3,
            0usize..=48,
            prop::collection::vec((0u8..8, 1i64..=6), 0..=3 * RECORDS_PER_BLOCK),
            prop_oneof![
                Just(None),
                (0..=3 * RECORDS_PER_BLOCK, arb_stray_record()).prop_map(Some)
            ],
            prop_oneof![Just(Vec::new()), prop::collection::vec(any::<u8>(), 1..=8)],
        )
            .prop_map(|(deletes_per_8, leading_inserts, body, stray, tail)| {
                let mut records: Vec<[u8; RECORD_LEN]> = body
                    .iter()
                    .enumerate()
                    .map(|(i, &(op, v))| {
                        let delete = i >= leading_inserts && op < deletes_per_8;
                        raw_record(if delete { TAG_DELETE } else { TAG_INSERT }, v)
                    })
                    .collect();
                if let Some((at, rec)) = stray {
                    records.insert(at.min(records.len()), rec);
                }
                let mut bytes = encode_header(&small_domain()).to_vec();
                bytes.extend(records.iter().flatten());
                bytes.extend(tail);
                bytes
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Block replay equals the record-at-a-time reference on every
        /// generated log: the same domain, records and counts, or the
        /// same first error in log order. Reads of 1–13 bytes with
        /// interruptions between them change nothing.
        #[test]
        fn replay_matches_record_at_a_time_reference(
            bytes in arb_log(),
            sizes in prop::collection::vec(1usize..=13, 1..=16),
            interrupt_every in prop_oneof![Just(0usize), 2usize..=7],
        ) {
            let expected = outcome(reference_replay(bytes.as_slice()));
            prop_assert_eq!(outcome(replay_from(bytes.as_slice())), expected.clone());
            let short = ShortReads::new(&bytes, &sizes, interrupt_every);
            prop_assert_eq!(outcome(replay_from(short)), expected);
        }
    }

    #[test]
    fn header_only_log_replays_empty() {
        let bytes = encode_header(&small_domain());
        let replayed = replay_from(bytes.as_slice()).unwrap();
        assert_eq!(replayed.domain, small_domain());
        assert_eq!(replayed.records, 0);
        assert!(replayed.counts.is_empty());
        assert_eq!(Ok(replayed), outcome(reference_replay(bytes.as_slice())));
    }

    #[test]
    fn log_shorter_than_its_header_is_corrupt() {
        let header = encode_header(&small_domain());
        let bytes = &header[..HEADER_LEN - 1];
        let err = outcome(replay_from(bytes)).unwrap_err();
        assert_eq!(err, "corrupt store log: log shorter than its header");
        assert_eq!(Err(err), outcome(reference_replay(bytes)));
    }

    #[test]
    fn record_straddling_a_block_boundary_is_carried_over() {
        // Insert 1 everywhere except the record cut by the first block
        // read, which inserts 2.
        let straddler = RECORDS_PER_BLOCK - 1;
        let mut bytes = encode_header(&small_domain()).to_vec();
        for i in 0..RECORDS_PER_BLOCK + 2 {
            bytes.extend(raw_record(TAG_INSERT, if i == straddler { 2 } else { 1 }));
        }
        // The header, then a block read that stops 4 bytes into the
        // straddling record.
        let sizes = [HEADER_LEN, BLOCK_LEN - 4, BLOCK_LEN];
        let replayed = replay_from(ShortReads::new(&bytes, &sizes, 0)).unwrap();
        let total = RECORDS_PER_BLOCK as u64 + 2;
        assert_eq!(replayed.records, total);
        assert_eq!(
            replayed.counts,
            vec![(Value::new(1), total - 1), (Value::new(2), 1)]
        );
        assert_eq!(Ok(replayed), outcome(reference_replay(bytes.as_slice())));
    }

    #[test]
    fn one_byte_tail_at_a_block_boundary_is_truncated() {
        let dir = tmp_dir("block-tail");
        let path = log_path(&dir);
        let mut w = LogWriter::create(&path, &small_domain()).unwrap();
        for _ in 0..RECORDS_PER_BLOCK {
            w.append(LogRecord::Insert(Value::new(3))).unwrap();
        }
        w.flush().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(TAG_INSERT);
        std::fs::write(&path, &bytes).unwrap();
        // The file's first block read ends exactly on the boundary; the
        // stray byte arrives alone in the second.
        let err = outcome(replay(&path)).unwrap_err();
        assert_eq!(
            err,
            format!("corrupt store log: truncated record at index {RECORDS_PER_BLOCK}")
        );
        assert_eq!(Err(err), outcome(reference_replay(bytes.as_slice())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtrip_insert_delete_counts() {
        let dir = tmp_dir("roundtrip");
        let path = log_path(&dir);
        let domain = ValueDomain::paper_default();
        let mut w = LogWriter::create(&path, &domain).unwrap();
        for v in [5, 9, 5, 7] {
            w.append(LogRecord::Insert(Value::new(v))).unwrap();
        }
        w.append(LogRecord::Delete(Value::new(5))).unwrap();
        w.flush().unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records, 5);
        assert_eq!(replayed.domain, domain);
        assert_eq!(replayed.live_rows(), 3);
        assert_eq!(lookup(&replayed.counts, Value::new(5)), Some(&1));
        assert_eq!(lookup(&replayed.counts, Value::new(9)), Some(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_existing_log() {
        let dir = tmp_dir("existing");
        let path = log_path(&dir);
        let domain = ValueDomain::paper_default();
        LogWriter::create(&path, &domain).unwrap();
        assert!(LogWriter::create(&path, &domain).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_record_is_corrupt() {
        let dir = tmp_dir("truncated");
        let path = log_path(&dir);
        let domain = ValueDomain::paper_default();
        let mut w = LogWriter::create(&path, &domain).unwrap();
        w.append(LogRecord::Insert(Value::new(3))).unwrap();
        w.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert!(matches!(replay(&path), Err(StoreError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tmp_dir("magic");
        let path = log_path(&dir);
        std::fs::write(&path, [0u8; 40]).unwrap();
        assert!(matches!(replay(&path), Err(StoreError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unmatched_delete_rejected() {
        let dir = tmp_dir("unmatched");
        let path = log_path(&dir);
        let domain = ValueDomain::paper_default();
        let mut w = LogWriter::create(&path, &domain).unwrap();
        w.append(LogRecord::Delete(Value::new(8))).unwrap();
        w.flush().unwrap();
        assert!(matches!(replay(&path), Err(StoreError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacted_log_replays_to_same_counts() {
        let dir = tmp_dir("compact");
        let path = log_path(&dir);
        let domain = ValueDomain::paper_default();
        let mut w = LogWriter::create(&path, &domain).unwrap();
        for v in [4, 4, 9, 2, 9, 9] {
            w.append(LogRecord::Insert(Value::new(v))).unwrap();
        }
        w.append(LogRecord::Delete(Value::new(9))).unwrap();
        w.flush().unwrap();
        let before = replay(&path).unwrap();
        let compacted = dir.join("compacted.log");
        let n = write_compacted(&compacted, &domain, &before.counts).unwrap();
        assert_eq!(n, before.live_rows());
        let after = replay(&compacted).unwrap();
        assert_eq!(after.counts, before.counts);
        assert_eq!(after.records, before.live_rows());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
