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
//! values (`Big` and `Text` both 2, each value tagged) — so the aggregate's
//! typed lanes reach the disk and come back without passing through a
//! `Vec<Value>`. A value tagged NULL (0), which files written while the
//! engine had NULL may hold, is refused by name. The block payload
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

/// A checked little-endian reader over the bytes of a record: a read past
/// the end is an [`Error::Io`], never a panic, so a cut or corrupted spill
/// record, log record or checkpoint image is a typed error.
pub(crate) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader(bytes)
    }

    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> usize {
        self.0.len()
    }

    /// Fail unless `n` more bytes are left: decoders check this before they
    /// allocate for `n` items of a byte or more, so a corrupted count cannot
    /// ask for more memory than the record holds.
    pub(crate) fn need(&self, n: usize) -> Result<()> {
        if self.0.len() < n {
            let left = self.0.len();
            return Err(Error::Io(format!("record cut short: {n} bytes wanted, {left} left")));
        }
        Ok(())
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length, then that many bytes of UTF-8.
    pub(crate) fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| Error::Io(e.to_string()))
    }
}

/// Append a `u32` length and the bytes of `s` (read by [`Reader::string`]).
pub(crate) fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Serialize one value into `buf`.
fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(2);
            buf.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => encode_str(buf, s),
        Value::Big(b) => encode_big(buf, b),
    }
}

fn encode_str(buf: &mut Vec<u8>, s: &str) {
    buf.push(3);
    put_string(buf, s);
}

fn encode_big(buf: &mut Vec<u8>, b: &BigBits) {
    buf.push(4);
    buf.extend_from_slice(&(b.width() as u64).to_le_bytes());
    buf.extend_from_slice(&(b.words().len() as u32).to_le_bytes());
    for w in b.words() {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

fn decode_value(r: &mut Reader) -> Result<Value> {
    Ok(match r.u8()? {
        0 => return Err(Error::Io("a NULL value, which the engine no longer has".into())),
        1 => Value::Int(i64::from_le_bytes(r.array()?)),
        2 => Value::Float(f64::from_le_bytes(r.array()?)),
        3 => Value::Str(r.string()?),
        4 => {
            let width = r.u64()? as usize;
            let n = r.u32()? as usize;
            let len = n.checked_mul(8).ok_or_else(|| Error::Io("bad spill bigint length".into()))?;
            let words = r.take(len)?.chunks_exact(8);
            let words = words.map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes"))).collect();
            Value::Big(BigBits::from_words(words, width))
        }
        t => return Err(Error::Io(format!("bad spill value tag {t}"))),
    })
}

/// Encode a full row (u32 column count + values).
fn encode_row(buf: &mut Vec<u8>, row: &Row) {
    buf.extend_from_slice(&(row.len() as u32).to_le_bytes());
    for v in row {
        encode_value(buf, v);
    }
}

/// Decode a full row previously written by [`encode_row`].
fn decode_row(r: &mut Reader) -> Result<Row> {
    let ncols = r.u32()? as usize;
    let mut row = Vec::with_capacity(ncols.min(1 << 16));
    for _ in 0..ncols {
        row.push(decode_value(r)?);
    }
    Ok(row)
}

const KIND_ROW: u8 = 0;
const KIND_BLOCK: u8 = 1;

/// Write a fast lane as little-endian words, staged 128 at a time so the
/// buffer grows by slices, not by single values.
fn put_lane<T: Copy>(buf: &mut Vec<u8>, lane: &[T], le: impl Fn(T) -> [u8; 8]) {
    let mut stage = [0u8; 8 * 128];
    for part in lane.chunks(128) {
        for (dst, &x) in stage.chunks_exact_mut(8).zip(part) {
            dst.copy_from_slice(&le(x));
        }
        buf.extend_from_slice(&stage[..8 * part.len()]);
    }
}

/// Read `rows` little-endian words.
fn get_lane<T>(r: &mut Reader, rows: usize, le: impl Fn([u8; 8]) -> T) -> Result<Vec<T>> {
    let lane = r.take(rows.checked_mul(8).ok_or_else(|| Error::Io("bad block row count".into()))?)?;
    Ok(lane.chunks_exact(8).map(|b| le(b.try_into().expect("chunks of 8"))).collect())
}

/// Encode a batch column by column: the payload of a spill block record, of
/// a WAL `Insert` record and of each table chunk in a checkpoint image.
/// Floats travel as their bit patterns (`-0.0` and NaN payloads survive).
pub(crate) fn encode_block(buf: &mut Vec<u8>, batch: &RowBatch) {
    buf.extend_from_slice(&(batch.num_rows() as u32).to_le_bytes());
    buf.extend_from_slice(&(batch.num_columns() as u32).to_le_bytes());
    for col in batch.columns() {
        match &**col {
            Column::Int(v) => {
                buf.push(0);
                put_lane(buf, v, i64::to_le_bytes);
            }
            Column::Float(v) => {
                buf.push(1);
                put_lane(buf, v, f64::to_le_bytes);
            }
            Column::Big(v) => {
                buf.push(2);
                v.iter().for_each(|b| encode_big(buf, b));
            }
            Column::Text(v) => {
                buf.push(2);
                v.iter().for_each(|s| encode_str(buf, s));
            }
        }
    }
}

/// Decode a block written by [`encode_block`], lanes as they were.
pub(crate) fn decode_block(r: &mut Reader) -> Result<RowBatch> {
    let rows = r.u32()? as usize;
    let ncols = r.u32()? as usize;
    if ncols == 0 {
        return Ok(RowBatch::zero_columns(rows));
    }
    // Every column takes at least its tag, every value at least one byte:
    // the checks bound both allocations by the record's own length.
    r.need(ncols)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(match r.u8()? {
            0 => Column::Int(get_lane(r, rows, i64::from_le_bytes)?),
            1 => Column::Float(get_lane(r, rows, f64::from_le_bytes)?),
            2 => {
                r.need(rows)?;
                Column::from_values((0..rows).map(|_| decode_value(r))).map_err(|e| match e {
                    Error::Type(m) => Error::Io(format!("a block column of mixed types: {m}")),
                    other => other,
                })?
            }
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

fn decode_record(r: &mut Reader) -> Result<SpillRecord> {
    match r.u8()? {
        KIND_ROW => decode_row(r).map(SpillRecord::Row),
        KIND_BLOCK => decode_block(r).map(SpillRecord::Block),
        k => Err(Error::Io(format!("bad spill record kind {k}"))),
    }
}

/// Bytes a partition stages in memory before they go to the file as one
/// chunk (a block record larger than this is a chunk of its own).
const CHUNK_BYTES: usize = 8 * 1024;

/// The file behind one writer and then its readers; removed with the last
/// of them, so an operator that dies mid-spill (out of memory, injected I/O
/// fault, a panic) never leaks a temp file.
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
    staged: Vec<u8>,
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
        self.parts[part].staged.push(KIND_ROW);
        encode_row(&mut self.parts[part].staged, row);
        self.write_chunk(part, CHUNK_BYTES)
    }

    /// Append a whole batch to partition `part` as one block record.
    pub fn write_batch(&mut self, part: usize, batch: &RowBatch) -> Result<()> {
        self.parts[part].staged.push(KIND_BLOCK);
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
            chunk: Vec::new(),
            read: 0,
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
    /// The chunk at hand and how much of it was read.
    chunk: Vec<u8>,
    read: usize,
    injector: Arc<FaultInjector>,
}

impl SpillReader {
    /// True when no record is left to read.
    pub fn is_empty(&self) -> bool {
        self.read == self.chunk.len() && self.chunks.len() == 0
    }

    /// Read the next record, or `None` at the end of the partition.
    pub fn next_record(&mut self) -> Result<Option<SpillRecord>> {
        if self.read == self.chunk.len() {
            let Some((offset, len)) = self.chunks.next() else { return Ok(None) };
            self.injector.check(FaultSite::SpillRead)?;
            let mut data = vec![0u8; len];
            let mut file = self.file.file.lock().expect("spill file lock poisoned");
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut data)?;
            (self.chunk, self.read) = (data, 0);
        }
        let mut r = Reader::new(&self.chunk[self.read..]);
        let record = decode_record(&mut r)?;
        self.read = self.chunk.len() - r.remaining();
        Ok(Some(record))
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
            vec![Value::Int(0), Value::Float(1.0), Value::Str(String::new())],
            vec![Value::Str("hello 'world'".into()), Value::Int(-42), Value::Float(f64::MIN)],
            vec![Value::Big(BigBits::ones(100, 5, 300)), Value::Int(i64::MAX), Value::Float(-0.0)],
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
        assert_eq!(out, rows);
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

    /// Every column of a batch with floats as their bit patterns: `PartialEq`
    /// would call two NaNs different and `0.0` and `-0.0` the same.
    fn bits(batch: &RowBatch) -> Vec<String> {
        let column = |c: &ColumnRef| match &**c {
            Column::Int(v) => format!("Int{v:?}"),
            Column::Float(v) => format!("Float{:?}", v.iter().map(|f| f.to_bits()).collect::<Vec<_>>()),
            other => format!("{other:?}"),
        };
        batch.columns().iter().map(column).chain([format!("rows={}", batch.num_rows())]).collect()
    }

    fn sample_blocks() -> Vec<RowBatch> {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let big = [BigBits::ones(100, 5, 300), BigBits::zero(1), BigBits::from_u64(7, 64), BigBits::ones(0, 64, 64)];
        vec![
            RowBatch::from_columns(vec![
                Column::Int(vec![i64::MIN, -1, 0, i64::MAX]),
                Column::Float(vec![-0.0, nan, f64::MIN_POSITIVE, f64::NEG_INFINITY]),
                Column::Big(big.to_vec()),
                Column::Text(["né", "", "'", "x"].map(String::from).to_vec()),
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
        // (the codec keeps both kinds in order), 1 nothing.
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
        let decode = |bytes: &[u8]| decode_record(&mut Reader::new(bytes));
        let mut block = vec![KIND_BLOCK];
        encode_block(&mut block, &sample_blocks()[0]);
        // Rows 1 and 2 hold a string and a wide integer.
        let rows: Vec<Vec<u8>> = sample_rows()[1..]
            .iter()
            .map(|row| {
                let mut record = vec![KIND_ROW];
                encode_row(&mut record, row);
                record
            })
            .collect();
        assert!(matches!(decode(&block), Ok(SpillRecord::Block(_))));
        for (record, want) in rows.iter().zip(&sample_rows()[1..]) {
            assert!(matches!(decode(record), Ok(SpillRecord::Row(got)) if got == *want));
        }
        for whole in rows.iter().chain([&block]) {
            for cut in 0..whole.len() {
                let err = decode(&whole[..cut]).unwrap_err();
                assert!(matches!(err, Error::Io(_)), "cut at {cut} of {}: {err:?}", whole.len());
            }
        }
        // Byte 9 is the first column's lane tag, byte 0 the record kind.
        for (at, bad) in [(9, 3u8), (9, 255), (0, 2)] {
            let mut bytes = block.clone();
            bytes[at] = bad;
            let err = decode(&bytes).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "byte {at} = {bad}: {err:?}");
        }
        // A row count the record cannot hold is refused before allocating.
        let mut bytes = block.clone();
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(Error::Io(_))));
    }

    /// A `Big` and a `Text` column are lane 2 with every value tagged, the
    /// bytes the untyped lane of earlier versions wrote; a NULL value (tag
    /// 0), or two types in one lane-2 column, is refused by name.
    #[test]
    fn lane_2_columns_keep_their_bytes_and_refuse_a_null() {
        let one = |col: Column| {
            let mut buf = Vec::new();
            encode_block(&mut buf, &RowBatch::from_columns(vec![col]));
            buf
        };
        let head = |rows: u32| [rows.to_le_bytes(), 1u32.to_le_bytes()].concat();
        let want = [head(1), vec![2, 3], 2u32.to_le_bytes().to_vec(), b"ab".to_vec()].concat();
        assert_eq!(one(Column::Text(vec!["ab".into()])), want);
        let big = [vec![2, 4], 70u64.to_le_bytes().to_vec(), 2u32.to_le_bytes().to_vec()].concat();
        let words = [5u64.to_le_bytes(), 0u64.to_le_bytes()].concat();
        assert_eq!(one(Column::Big(vec![BigBits::from_u64(5, 70)])), [head(1), big, words].concat());
        for (value, what) in [(vec![0u8], "NULL"), (vec![1, 0, 0, 0, 0, 0, 0, 0, 0], "mixed types")] {
            let mut bytes = want.clone();
            bytes[..4].copy_from_slice(&2u32.to_le_bytes());
            bytes.extend(value);
            let err = decode_block(&mut Reader::new(&bytes)).unwrap_err();
            assert!(matches!(&err, Error::Io(m) if m.contains(what)), "{err:?}");
        }
        // An empty lane-2 column decodes (its table's type decides its lane).
        assert!(decode_block(&mut Reader::new(&[head(0), vec![2]].concat())).is_ok());
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
