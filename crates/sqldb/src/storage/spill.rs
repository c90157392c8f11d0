//! Disk spill files for out-of-core operators.
//!
//! Rows are serialized in a compact self-describing binary format (one tag
//! byte per value). Spill files live in a per-database temp directory, made
//! when the first of them is and deleted on drop: a database that never
//! spills touches no filesystem. The paper's §3.3 highlights out-of-core
//! simulation as a core advantage of the RDBMS approach; these files are the
//! mechanism.

use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::bigbits::BigBits;
use crate::error::{Error, Result};
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
fn encode_value(buf: &mut BytesMut, v: &Value) {
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

/// Decode a full row previously written by [`encode_row`]. Shared with the
/// WAL and checkpoint codecs so every on-disk row uses one format.
pub fn decode_row(bytes: &mut Bytes) -> Result<Row> {
    need(bytes, 4)?;
    let ncols = bytes.get_u32_le() as usize;
    let mut row = Vec::with_capacity(ncols.min(1 << 16));
    for _ in 0..ncols {
        row.push(decode_value(bytes)?);
    }
    Ok(row)
}

/// Append-only spill writer. Dropping a writer without converting it into a
/// reader removes its file, so an operator that dies mid-spill (out of
/// memory, injected I/O fault, panic unwound by the morsel driver) never
/// leaks a temp file.
pub struct SpillWriter {
    dir: Arc<SpillDir>,
    path: PathBuf,
    writer: BufWriter<File>,
    rows: u64,
    buf: BytesMut,
    finished: bool,
}

impl SpillWriter {
    /// Open a fresh spill file in `dir` for appending rows, making the
    /// directory first if this is the database's first spill.
    pub fn create(dir: &Arc<SpillDir>) -> Result<Self> {
        fs::create_dir_all(&dir.path)?;
        let path = dir.next_file_path();
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        Ok(SpillWriter {
            dir: Arc::clone(dir),
            path,
            writer: BufWriter::new(file),
            rows: 0,
            buf: BytesMut::with_capacity(4096),
            finished: false,
        })
    }

    /// Append one row (length-prefixed record) to the spill file.
    pub fn write_row(&mut self, row: &Row) -> Result<()> {
        self.buf.clear();
        encode_row(&mut self.buf, row);
        // length-prefix each record so readers can stream
        let len = self.buf.len() as u32;
        let inj = Arc::clone(&self.dir.injector);
        inj.write_all(FaultSite::SpillWrite, &mut self.writer, &len.to_le_bytes())?;
        inj.write_all(FaultSite::SpillWrite, &mut self.writer, &self.buf)?;
        self.dir.bytes_written.fetch_add(4 + len as u64, Ordering::Relaxed);
        self.rows += 1;
        Ok(())
    }

    /// Number of rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Flush and convert into a reader over the written rows.
    pub fn into_reader(mut self) -> Result<SpillReader> {
        self.writer.flush()?;
        self.finished = true; // file ownership passes to the reader
        SpillReader::open(
            std::mem::take(&mut self.path),
            self.rows,
            Arc::clone(&self.dir.injector),
        )
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if !self.finished {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Streaming reader over a spill file; deletes the file on drop.
pub struct SpillReader {
    path: PathBuf,
    reader: BufReader<File>,
    remaining: u64,
    injector: Arc<FaultInjector>,
}

impl SpillReader {
    fn open(path: PathBuf, rows: u64, injector: Arc<FaultInjector>) -> Result<Self> {
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) => {
                // Ownership landed here; don't leak the file on a failed open.
                let _ = fs::remove_file(&path);
                return Err(e.into());
            }
        };
        Ok(SpillReader { path, reader: BufReader::new(file), remaining: rows, injector })
    }

    /// Total rows left to read.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Read the next row, or `None` at end of file.
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.injector.check(FaultSite::SpillRead)?;
        let mut len_buf = [0u8; 4];
        self.reader.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut data = vec![0u8; len];
        self.reader.read_exact(&mut data)?;
        let mut bytes = Bytes::from(data);
        let row = decode_row(&mut bytes)?;
        self.remaining -= 1;
        Ok(Some(row))
    }
}

impl Drop for SpillReader {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Approximate in-memory size of a row (shallow vec + per-value heap).
pub fn row_bytes(row: &[Value]) -> usize {
    24 + row.iter().map(Value::heap_bytes).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut w = SpillWriter::create(&dir).unwrap();
        let rows = sample_rows();
        for r in &rows {
            w.write_row(r).unwrap();
        }
        assert_eq!(w.rows(), 3);
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
            let mut w = SpillWriter::create(&dir).unwrap();
            w.write_row(&vec![Value::Int(1)]).unwrap();
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
        let err = SpillWriter::create(&dir).err().expect("create must fail");
        assert!(matches!(err, Error::Io(_)), "{err:?}");
        assert_eq!(dir.live_files(), 0);
        drop(dir);
        fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn empty_reader_returns_none() {
        let dir = SpillDir::new();
        let w = SpillWriter::create(&dir).unwrap();
        let mut r = w.into_reader().unwrap();
        assert!(r.next_row().unwrap().is_none());
    }

    #[test]
    fn row_bytes_accounts_heap() {
        let small = vec![Value::Int(1)];
        let big = vec![Value::Big(BigBits::zero(10_000))];
        assert!(row_bytes(&big) > row_bytes(&small) + 1000);
    }
}
