//! Disk spill files for out-of-core operators.
//!
//! A spill file holds the partitions of one writer — one for a sort run,
//! sixteen for an aggregate's flush. Records are staged per partition and
//! written as chunks of 8 KiB or more, each with one `write_all`
//! that counts as one fault-injection operation; the `(offset, len)` index
//! of the chunks stays in memory and becomes one reader per partition over
//! the shared file. A record is a kind byte and a self-delimiting payload.
//! A *row* record (kind 0) holds one row in a compact self-describing format
//! (one tag byte per value): sort runs and the generic aggregate's partial
//! rows. A *block* record (kind 1) holds a whole [`RowBatch`] column by
//! column — `u32 rows | u32 ncols`, then per column a lane tag and either
//! `rows × 8` little-endian bytes (`Int` 0, `Float` 1) or `rows` encoded
//! values (`Generic` 2) — so the aggregate's typed lanes reach the disk and
//! come back without passing through a `Vec<Value>`. The block payload
//! (`encode_block`/`decode_block`) is also what the write-ahead log
//! stores in an `Insert` record and the checkpoint image per table chunk
//! ([`crate::storage::wal`]): one codec for every batch that touches a disk.
//!
//! Spill files live in a per-database temp directory, made when the first
//! of them is and deleted on drop: a database that never spills touches no
//! filesystem. The paper's §3.3 highlights out-of-core simulation as a core
//! advantage of the RDBMS approach; these files are the mechanism.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::bigbits::BigBits;
use crate::error::{Error, Result};
use crate::exec::batch::{Column, RowBatch};
use crate::storage::fault::{FaultInjector, FaultSite};
use crate::value::Value;

/// A row as stored and exchanged by operators.
pub type Row = Vec<Value>;

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Directory that owns all spill files for one database; created with the
/// first spill file, removed on drop.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
    files_created: AtomicU64,
    bytes_written: AtomicU64,
    injector: Arc<FaultInjector>,
}

impl SpillDir {
    /// Reserve a fresh spill directory name under the system temp dir.
    pub fn new() -> Arc<Self> {
        Self::new_with(FaultInjector::none())
    }

    /// A spill directory whose file I/O is gated by `injector` (shared with
    /// the WAL in durable databases so one schedule covers every disk path).
    pub fn new_with(injector: Arc<FaultInjector>) -> Arc<Self> {
        let id = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "qymera-sqldb-{}-{}",
            std::process::id(),
            id
        ));
        Arc::new(SpillDir {
            path,
            files_created: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            injector,
        })
    }

    /// Filesystem path of the spill directory (absent until the first spill).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fault injector gating this directory's file I/O.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Number of files currently present on disk (orphan-leak checks).
    pub fn live_files(&self) -> usize {
        fs::read_dir(&self.path).map(|d| d.count()).unwrap_or(0)
    }

    /// Total spill files created over the database lifetime.
    pub fn files_created(&self) -> u64 {
        self.files_created.load(Ordering::Relaxed)
    }

    /// Total bytes ever written to spill files.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    fn next_file_path(&self) -> PathBuf {
        let n = self.files_created.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("run-{n}.spill"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Serialize one value into `buf`.
fn encode_value(buf: &mut impl BufMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64_le(*i);
        }
        Value::Float(f) => {
            buf.put_u8(2);
            buf.put_f64_le(*f);
        }
        Value::Str(s) => {
            buf.put_u8(3);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Big(b) => {
            buf.put_u8(4);
            buf.put_u64_le(b.width() as u64);
            buf.put_u32_le(b.words().len() as u32);
            for w in b.words() {
                buf.put_u64_le(*w);
            }
        }
    }
}

/// Require `n` more bytes in `buf`; `bytes::Buf` getters panic on underflow,
/// so every fixed-width read below is guarded to turn a corrupted or
/// truncated record into a typed [`Error::Io`] instead of a panic.
fn need(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        return Err(Error::Io("truncated spill record".into()));
    }
    Ok(())
}

fn decode_value(buf: &mut Bytes) -> Result<Value> {
    need(buf, 1)?;
    let tag = buf.get_u8();
    Ok(match tag {
        0 => Value::Null,
        1 => {
            need(buf, 8)?;
            Value::Int(buf.get_i64_le())
        }
        2 => {
            need(buf, 8)?;
            Value::Float(buf.get_f64_le())
        }
        3 => {
            need(buf, 4)?;
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(Error::Io("truncated spill string".into()));
            }
            let bytes = buf.copy_to_bytes(len);
            Value::Str(String::from_utf8(bytes.to_vec()).map_err(|e| Error::Io(e.to_string()))?)
        }
        4 => {
            need(buf, 12)?;
            let width = buf.get_u64_le() as usize;
            let n = buf.get_u32_le() as usize;
            need(buf, n.checked_mul(8).ok_or_else(|| {
                Error::Io("bad spill bigint length".into())
            })?)?;
            let mut words = Vec::with_capacity(n);
            for _ in 0..n {
                words.push(buf.get_u64_le());
            }
            Value::Big(BigBits::from_words(words, width))
        }
        t => return Err(Error::Io(format!("bad spill value tag {t}"))),
    })
}

/// Encode a full row (u32 column count + values).
pub fn encode_row(buf: &mut BytesMut, row: &Row) {
    buf.put_u32_le(row.len() as u32);
    for v in row {
        encode_value(buf, v);
    }
}

/// Decode a full row previously written by [`encode_row`].
pub fn decode_row(bytes: &mut Bytes) -> Result<Row> {
    need(bytes, 4)?;
    let ncols = bytes.get_u32_le() as usize;
    let mut row = Vec::with_capacity(ncols.min(1 << 16));
    for _ in 0..ncols {
        row.push(decode_value(bytes)?);
    }
    Ok(row)
}

const KIND_ROW: u8 = 0;
const KIND_BLOCK: u8 = 1;

/// Write a fast lane as little-endian words, staged 128 at a time so the
/// buffer grows by slices, not by single values.
fn put_lane<T: Copy>(buf: &mut impl BufMut, lane: &[T], le: impl Fn(T) -> [u8; 8]) {
    let mut stage = [0u8; 8 * 128];
    for part in lane.chunks(128) {
        for (dst, &x) in stage.chunks_exact_mut(8).zip(part) {
            dst.copy_from_slice(&le(x));
        }
        buf.put_slice(&stage[..8 * part.len()]);
    }
}

/// Read `rows` little-endian words (the caller has checked they are there).
fn get_lane<T>(buf: &mut Bytes, rows: usize, le: impl Fn([u8; 8]) -> T) -> Vec<T> {
    let lane = buf.chunk()[..8 * rows]
        .chunks_exact(8)
        .map(|b| le(b.try_into().expect("chunks of 8")))
        .collect();
    buf.advance(8 * rows);
    lane
}

/// Encode a batch column by column: the payload of a spill block record, of
/// a WAL `Insert` record and of each table chunk in a checkpoint image.
/// Floats travel as their bit patterns (`-0.0` and NaN payloads survive).
pub(crate) fn encode_block(buf: &mut impl BufMut, batch: &RowBatch) {
    buf.put_u32_le(batch.num_rows() as u32);
    buf.put_u32_le(batch.num_columns() as u32);
    for col in batch.columns() {
        match &**col {
            Column::Int(v) => {
                buf.put_u8(0);
                put_lane(buf, v, i64::to_le_bytes);
            }
            Column::Float(v) => {
                buf.put_u8(1);
                put_lane(buf, v, f64::to_le_bytes);
            }
            Column::Generic(v) => {
                buf.put_u8(2);
                v.iter().for_each(|x| encode_value(buf, x));
            }
        }
    }
}

/// Decode a block written by [`encode_block`], lanes as they were.
pub(crate) fn decode_block(buf: &mut Bytes) -> Result<RowBatch> {
    need(buf, 8)?;
    let rows = buf.get_u32_le() as usize;
    let ncols = buf.get_u32_le() as usize;
    if ncols == 0 {
        return Ok(RowBatch::zero_columns(rows));
    }
    // Every column takes at least its tag, every value at least one byte:
    // the checks bound both allocations by the record's own length.
    need(buf, ncols)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        need(buf, 1)?;
        let tag = buf.get_u8();
        need(buf, if tag == 2 { rows } else { rows.saturating_mul(8) })?;
        columns.push(match tag {
            0 => Column::Int(get_lane(buf, rows, i64::from_le_bytes)),
            1 => Column::Float(get_lane(buf, rows, f64::from_le_bytes)),
            2 => Column::Generic((0..rows).map(|_| decode_value(buf)).collect::<Result<_>>()?),
            t => return Err(Error::Io(format!("bad block lane tag {t}"))),
        });
    }
    Ok(RowBatch::from_columns(columns))
}

/// One record of a spill file.
#[derive(Debug)]
pub enum SpillRecord {
    /// A single row ([`SpillWriter::write_row`]).
    Row(Row),
    /// A batch of rows in columnar layout ([`SpillWriter::write_batch`]).
    Block(RowBatch),
}

fn decode_record(buf: &mut Bytes) -> Result<SpillRecord> {
    need(buf, 1)?;
    match buf.get_u8() {
        KIND_ROW => decode_row(buf).map(SpillRecord::Row),
        KIND_BLOCK => decode_block(buf).map(SpillRecord::Block),
        k => Err(Error::Io(format!("bad spill record kind {k}"))),
    }
}

/// Bytes a partition stages in memory before they go to the file as one
/// chunk (a block record larger than this is a chunk of its own).
const CHUNK_BYTES: usize = 8 * 1024;

/// The file behind one writer and then its readers; removed with the last
/// of them, so an operator that dies mid-spill (out of memory, injected I/O
/// fault, panic unwound by the morsel driver) never leaks a temp file.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    file: Mutex<File>,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// What one partition of a writer has staged and written.
#[derive(Default)]
struct Partition {
    staged: BytesMut,
    /// `(offset, len)` of each chunk written, in order.
    chunks: Vec<(u64, usize)>,
}

/// Append-only writer of one spill file holding `n` partitions: a sort run
/// is a file of one, an aggregate flushes its sixteen hash partitions into
/// one file. Records are staged per partition and written as chunks; the
/// chunk index stays in memory and goes to the readers.
pub struct SpillWriter {
    dir: Arc<SpillDir>,
    file: SpillFile,
    len: u64,
    parts: Vec<Partition>,
}

impl SpillWriter {
    /// Open a fresh spill file of `partitions` partitions in `dir`, making
    /// the directory first if this is the database's first spill.
    pub fn create(dir: &Arc<SpillDir>, partitions: usize) -> Result<Self> {
        fs::create_dir_all(&dir.path)?;
        let path = dir.next_file_path();
        let file =
            OpenOptions::new().create(true).read(true).write(true).truncate(true).open(&path)?;
        Ok(SpillWriter {
            dir: Arc::clone(dir),
            file: SpillFile { path, file: Mutex::new(file) },
            len: 0,
            parts: (0..partitions).map(|_| Partition::default()).collect(),
        })
    }

    /// Append one row to partition `part` as a row record.
    pub fn write_row(&mut self, part: usize, row: &Row) -> Result<()> {
        self.parts[part].staged.put_u8(KIND_ROW);
        encode_row(&mut self.parts[part].staged, row);
        self.write_chunk(part, CHUNK_BYTES)
    }

    /// Append a whole batch to partition `part` as one block record.
    pub fn write_batch(&mut self, part: usize, batch: &RowBatch) -> Result<()> {
        self.parts[part].staged.put_u8(KIND_BLOCK);
        encode_block(&mut self.parts[part].staged, batch);
        self.write_chunk(part, CHUNK_BYTES)
    }

    /// Write what `part` has staged as one chunk — one gated `write_all` —
    /// once it holds at least `at_least` bytes.
    fn write_chunk(&mut self, part: usize, at_least: usize) -> Result<()> {
        let p = &mut self.parts[part];
        if p.staged.len() < at_least {
            return Ok(());
        }
        let file = self.file.file.get_mut().expect("spill file lock poisoned");
        self.dir.injector.write_all(FaultSite::SpillWrite, file, &p.staged)?;
        p.chunks.push((self.len, p.staged.len()));
        self.len += p.staged.len() as u64;
        self.dir.bytes_written.fetch_add(p.staged.len() as u64, Ordering::Relaxed);
        p.staged.clear();
        Ok(())
    }

    /// Write out what is staged and convert into one reader per partition,
    /// in partition order.
    pub fn into_readers(mut self) -> Result<Vec<SpillReader>> {
        for part in 0..self.parts.len() {
            self.write_chunk(part, 1)?;
        }
        let file = Arc::new(self.file); // file ownership passes to the readers
        let injector = &self.dir.injector;
        let reader = |p: Partition| SpillReader {
            file: Arc::clone(&file),
            chunks: p.chunks.into_iter(),
            chunk: Bytes::default(),
            injector: Arc::clone(injector),
        };
        Ok(self.parts.into_iter().map(reader).collect())
    }

    /// [`Self::into_readers`] of a one-partition file (a sort run).
    pub fn into_reader(self) -> Result<SpillReader> {
        Ok(self.into_readers()?.swap_remove(0))
    }
}

/// Streaming reader over one partition of a spill file.
pub struct SpillReader {
    file: Arc<SpillFile>,
    chunks: std::vec::IntoIter<(u64, usize)>,
    /// The unread rest of the chunk at hand.
    chunk: Bytes,
    injector: Arc<FaultInjector>,
}

impl SpillReader {
    /// True when no record is left to read.
    pub fn is_empty(&self) -> bool {
        self.chunk.is_empty() && self.chunks.len() == 0
    }

    /// Read the next record, or `None` at the end of the partition.
    pub fn next_record(&mut self) -> Result<Option<SpillRecord>> {
        if self.chunk.is_empty() {
            let Some((offset, len)) = self.chunks.next() else { return Ok(None) };
            self.injector.check(FaultSite::SpillRead)?;
            let mut data = vec![0u8; len];
            let mut file = self.file.file.lock().expect("spill file lock poisoned");
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut data)?;
            self.chunk = Bytes::from(data);
        }
        decode_record(&mut self.chunk).map(Some)
    }

    /// Read the next record of a partition that holds only rows (a sort run).
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        match self.next_record()? {
            None => Ok(None),
            Some(SpillRecord::Row(row)) => Ok(Some(row)),
            Some(SpillRecord::Block(_)) => Err(Error::Io("block record in a row run".into())),
        }
    }
}

/// Approximate in-memory size of a row (shallow vec + per-value heap).
pub fn row_bytes(row: &[Value]) -> usize {
    24 + row.iter().map(Value::heap_bytes).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::batch::ColumnRef;

    fn sample_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(0), Value::Float(1.0), Value::Null],
            vec![Value::Str("hello 'world'".into()), Value::Int(-42), Value::Float(f64::MIN)],
            vec![Value::Big(BigBits::ones(100, 5, 300)), Value::Int(i64::MAX), Value::Null],
        ]
    }

    #[test]
    fn round_trip_rows_through_disk() {
        let dir = SpillDir::new();
        let mut w = SpillWriter::create(&dir, 1).unwrap();
        let rows = sample_rows();
        for r in &rows {
            w.write_row(0, r).unwrap();
        }
        let mut r = w.into_reader().unwrap();
        let mut out = Vec::new();
        while let Some(row) = r.next_row().unwrap() {
            out.push(row);
        }
        assert_eq!(out.len(), rows.len());
        for (a, b) in rows.iter().zip(out.iter()) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                match (x, y) {
                    (Value::Null, Value::Null) => {}
                    _ => assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn spill_dir_tracks_stats_and_cleans_up() {
        let dir = SpillDir::new();
        let path = dir.path().to_path_buf();
        assert!(!path.exists(), "no spill yet, so no directory");
        assert_eq!((dir.live_files(), dir.files_created(), dir.bytes_written()), (0, 0, 0));
        {
            let mut w = SpillWriter::create(&dir, 1).unwrap();
            w.write_row(0, &vec![Value::Int(1)]).unwrap();
            assert!(path.exists());
            assert_eq!(dir.live_files(), 1);
            let _r = w.into_reader().unwrap();
        }
        assert_eq!(dir.live_files(), 0);
        assert_eq!(dir.files_created(), 1);
        assert!(dir.bytes_written() > 0);
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn dropping_a_never_used_dir_is_quiet() {
        let dir = SpillDir::new();
        let path = dir.path().to_path_buf();
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn an_uncreatable_dir_is_a_typed_error_at_the_first_spill() {
        // A directory cannot be made below a regular file.
        let blocker = std::env::temp_dir()
            .join(format!("qymera-spill-blocker-{}", std::process::id()));
        fs::write(&blocker, b"").unwrap();
        let dir = Arc::new(SpillDir {
            path: blocker.join("spill"),
            files_created: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            injector: FaultInjector::none(),
        });
        let err = SpillWriter::create(&dir, 1).err().expect("create must fail");
        assert!(matches!(err, Error::Io(_)), "{err:?}");
        assert_eq!(dir.live_files(), 0);
        drop(dir);
        fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn empty_reader_returns_none() {
        let dir = SpillDir::new();
        let w = SpillWriter::create(&dir, 1).unwrap();
        let mut r = w.into_reader().unwrap();
        assert!(r.is_empty());
        assert!(r.next_row().unwrap().is_none());
    }

    /// Every value of a batch with floats as their bit patterns: `PartialEq`
    /// would call two NaNs different and `0.0` and `-0.0` the same.
    fn bits(batch: &RowBatch) -> Vec<String> {
        let value = |v: &Value| match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        };
        let column = |c: &ColumnRef| match &**c {
            Column::Int(v) => format!("Int{v:?}"),
            Column::Float(v) => format!("Float{:?}", v.iter().map(|f| f.to_bits()).collect::<Vec<_>>()),
            Column::Generic(v) => format!("Generic{:?}", v.iter().map(value).collect::<Vec<_>>()),
        };
        batch.columns().iter().map(column).chain([format!("rows={}", batch.num_rows())]).collect()
    }

    fn sample_blocks() -> Vec<RowBatch> {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let generic = vec![
            Value::Null,
            Value::Float(-0.0),
            Value::Big(BigBits::ones(100, 5, 300)),
            Value::Str("né".into()),
        ];
        vec![
            RowBatch::from_columns(vec![
                Column::Int(vec![i64::MIN, -1, 0, i64::MAX]),
                Column::Float(vec![-0.0, nan, f64::MIN_POSITIVE, f64::NEG_INFINITY]),
                Column::Generic(generic),
            ]),
            RowBatch::from_columns(vec![Column::Int(vec![]), Column::Float(vec![])]),
            RowBatch::zero_columns(3),
            RowBatch::from_columns(vec![Column::Float((0..3000).map(|i| i as f64 / 7.0).collect())]),
        ]
    }

    #[test]
    fn blocks_round_trip_bit_exact_and_partitions_stay_apart() {
        let dir = SpillDir::new();
        let mut w = SpillWriter::create(&dir, 3).unwrap();
        let blocks = sample_blocks();
        // Partition 0 takes the blocks, partition 2 rows and blocks mixed
        // (what a table demoted between two flushes leaves), 1 nothing.
        for (i, b) in blocks.iter().enumerate() {
            w.write_batch(0, b).unwrap();
            w.write_row(2, &vec![Value::Int(i as i64), Value::Float(-0.0)]).unwrap();
            w.write_batch(2, b).unwrap();
        }
        assert_eq!(dir.live_files(), 1, "three partitions, one file");
        let mut readers = w.into_readers().unwrap();
        assert_eq!(readers.len(), 3);
        assert!(readers[1].is_empty() && readers[1].next_record().unwrap().is_none());
        for want in &blocks {
            let Some(SpillRecord::Block(got)) = readers[0].next_record().unwrap() else {
                panic!("expected a block");
            };
            assert_eq!(bits(&got), bits(want));
        }
        assert!(readers[0].next_record().unwrap().is_none());
        for (i, want) in blocks.iter().enumerate() {
            let Some(SpillRecord::Row(row)) = readers[2].next_record().unwrap() else {
                panic!("expected a row");
            };
            assert_eq!(row[0], Value::Int(i as i64));
            assert!(matches!(row[1], Value::Float(f) if f.to_bits() == (-0.0f64).to_bits()));
            let Some(SpillRecord::Block(got)) = readers[2].next_record().unwrap() else {
                panic!("expected a block");
            };
            assert_eq!(bits(&got), bits(want));
        }
        assert!(readers[2].is_empty());
        // A sort run reader refuses a block instead of misreading it.
        let mut w = SpillWriter::create(&dir, 1).unwrap();
        w.write_batch(0, &blocks[0]).unwrap();
        assert!(matches!(w.into_reader().unwrap().next_row(), Err(Error::Io(_))));
        drop(readers);
        assert_eq!(dir.live_files(), 0);
    }

    #[test]
    fn a_cut_or_mistagged_block_is_a_typed_error_never_a_panic() {
        let mut buf = BytesMut::new();
        buf.put_u8(KIND_BLOCK);
        encode_block(&mut buf, &sample_blocks()[0]);
        let whole = buf.to_vec();
        assert!(matches!(decode_record(&mut Bytes::from(whole.clone())), Ok(SpillRecord::Block(_))));
        for cut in 0..whole.len() {
            let err = decode_record(&mut Bytes::from(whole[..cut].to_vec())).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "cut at {cut}: {err:?}");
        }
        // Byte 9 is the first column's lane tag, byte 0 the record kind.
        for (at, bad) in [(9, 3u8), (9, 255), (0, 2)] {
            let mut bytes = whole.clone();
            bytes[at] = bad;
            let err = decode_record(&mut Bytes::from(bytes)).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "byte {at} = {bad}: {err:?}");
        }
        // A row count the record cannot hold is refused before allocating.
        let mut bytes = whole.clone();
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_record(&mut Bytes::from(bytes)), Err(Error::Io(_))));
    }

    #[test]
    fn a_file_shorter_than_its_index_is_a_typed_error() {
        let dir = SpillDir::new();
        let mut w = SpillWriter::create(&dir, 1).unwrap();
        w.write_batch(0, &sample_blocks()[3]).unwrap();
        let path = w.file.path.clone();
        let mut r = w.into_reader().unwrap();
        OpenOptions::new().write(true).open(&path).unwrap().set_len(100).unwrap();
        assert!(matches!(r.next_record(), Err(Error::Io(_))));
    }

    #[test]
    fn row_bytes_accounts_heap() {
        let small = vec![Value::Int(1)];
        let big = vec![Value::Big(BigBits::zero(10_000))];
        assert!(row_bytes(&big) > row_bytes(&small) + 1000);
    }
}
