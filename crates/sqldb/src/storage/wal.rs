//! Write-ahead log and checkpointing: the crash-safe durability layer.
//!
//! ROADMAP item 3. A durable database directory contains at most three
//! files:
//!
//! * `wal.qwl` — the write-ahead log. A flat sequence of checksummed,
//!   length-prefixed records: `[u32 len][u32 crc32(payload)][payload]`.
//!   Work is framed by **transactions**: a `Begin{txn}` record opens a
//!   frame, logical payloads (`CreateTable`, `DropTable`, `Insert`,
//!   `Delete`) each carry the `txn` id they belong to, and the frame ends
//!   with `Commit{txn, commit_seq}` (durable) or `Abort{txn}` (discarded).
//!   An auto-commit statement is simply a one-statement transaction. The
//!   rows of an `Insert` are one typed **column block** — the codec of the
//!   spill files ([`crate::storage::spill`]) — so a batch reaches the log,
//!   and comes back from it, without becoming rows.
//!   Frames from concurrent sessions may interleave freely; recovery keys
//!   pending frames by `txn` id and replays exactly the **committed
//!   frames in commit order**: a frame with no `Commit` — because the
//!   process died mid-transaction — is ignored, an `Abort`ed frame is
//!   dropped, a `RollbackSp{txn, n}` record discards that frame's last
//!   `n` ops (crash-safe savepoint rollback), and a torn or corrupted
//!   record ends replay at the last good boundary (the tail past it is
//!   discarded) — whereas a record that passes its checksum and does not
//!   decode is another version's or corrupted, and makes `open` fail with
//!   every file left as it was. Rollback is **only** ever those two logical
//!   records:
//!   the file shrinks in exactly three places — `open` (the torn tail),
//!   `repair` (after a failed append or fsync, whose on-disk result is
//!   unknown) and `checkpoint` (the image covers the log). Rolled-back
//!   frames stay in the log until the next checkpoint reclaims them.
//! * `checkpoint.qck` — a full serialized image of every table, stamped
//!   with the commit sequence number it covers. Produced by walking each
//!   table's O(1) `Arc` chunk snapshot, one column block per chunk
//!   (checkpointing never blocks or copies table data beyond the
//!   serialization itself) and published
//!   atomically: written to `checkpoint.tmp`, fsynced, renamed over the old
//!   image, directory fsynced, and only then is the WAL truncated behind
//!   it. A crash in *any* window of that protocol recovers correctly: the
//!   tmp file is ignored and deleted, and replay skips WAL frames whose
//!   `commit_seq` the surviving checkpoint already covers. While a
//!   transaction is open a checkpoint runs in *keep-tail* mode: the image
//!   serializes only committed state and the WAL is left intact so the
//!   in-flight frames stay replayable.
//! * `checkpoint.tmp` — transient; deleted on open.
//!
//! Durability knob: [`FsyncPolicy`], set through
//! `DurabilityOptions::fsync` — `Always` (fsync every record), `Commit`
//! (default — fsync once per committed frame), or `Off` (no fsync; crash
//! consistency still holds via checksums, but the tail of acknowledged
//! transactions may be lost with the OS cache).
//!
//! Every file operation goes through the shared
//! [`FaultInjector`], which is how
//! the crash-matrix test kills the engine at every one of these steps and
//! asserts recovery.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes};

use crate::ast::DataType;
use crate::error::{Error, Result};
use crate::exec::batch::RowBatch;
use crate::storage::fault::{FaultInjector, FaultSite};
use crate::storage::spill::{decode_block, encode_block};
use crate::table::TableSnapshot;

/// WAL file name inside a database directory.
pub const WAL_FILE: &str = "wal.qwl";
/// Live checkpoint image name.
pub const CHECKPOINT_FILE: &str = "checkpoint.qck";
/// In-flight checkpoint image (ignored and removed at open).
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// 8-byte magic prefixing a checkpoint image. `02`: tables are written as
/// column blocks; an `01` image (rows) is refused at open.
const CHECKPOINT_MAGIC: &[u8; 8] = b"QYCKPT02";

/// When to force WAL bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every record append (slowest, strongest).
    Always,
    /// fsync once per committed statement frame (the default): an
    /// acknowledged statement survives power loss.
    #[default]
    Commit,
    /// Never fsync. Consistency still holds (checksummed replay), but the
    /// tail of acknowledged statements may be lost with the OS cache.
    Off,
}

// ---------------------------------------------------------------------------
// crc32 (IEEE 802.3, slicing-by-8) — hand-rolled; the engine vendors no
// checksum crate.

/// `T[0]` is the classic byte table; `T[k][b]` is the checksum state after
/// byte `b` followed by `k` zero bytes, which lets [`Crc32::update`] fold
/// eight input bytes per step with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Streaming CRC-32 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh accumulator (standard all-ones initial state).
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the running checksum, eight bytes per step and the
    /// rest one by one.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let at = |k: usize, byte: u32| t[k][(byte & 0xFF) as usize];
        let mut c = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = at(7, lo) ^ at(6, lo >> 8) ^ at(5, lo >> 16) ^ at(4, lo >> 24)
                ^ at(3, hi) ^ at(2, hi >> 8) ^ at(1, hi >> 16) ^ at(0, hi >> 24);
        }
        for &b in words.remainder() {
            c = at(0, c ^ b as u32) ^ (c >> 8);
        }
        self.0 = c;
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// Record payloads

/// Payload tags (first byte of every record payload).
const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_CREATE: u8 = 3;
const TAG_DROP: u8 = 4;
const TAG_DELETE: u8 = 6;
/// Transaction rolled back: replay drops its pending frame.
const TAG_ABORT: u8 = 7;
/// `ROLLBACK TO SAVEPOINT`: replay drops the last `n` ops of the pending
/// frame.
const TAG_RBSP: u8 = 8;
/// Rows as one column block. (Tag 5 was the row-encoded `Insert` of logs
/// written before the block format; such a log is refused at open.)
const TAG_INSERT: u8 = 9;

/// A logical operation recovered from the WAL. An auto-commit statement
/// frame carries one of these — except CTAS, which logs a `CreateTable`
/// followed by one `Insert` per streamed batch; a multi-statement
/// transaction carries one per logged statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field names mirror the statements they log
pub enum WalOp {
    CreateTable { name: String, columns: Vec<(String, DataType)> },
    DropTable { name: String },
    /// The logged batch, lanes and float bit patterns as they were.
    Insert { table: String, rows: RowBatch },
    /// The predicate is stored as SQL text (`None` = unconditional):
    /// expressions are pure, so re-parsing and re-evaluating at replay is
    /// deterministic and avoids a second serialization format.
    Delete { table: String, predicate: Option<String> },
}

/// A committed transaction frame read back during recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct WalFrame {
    /// Transaction id the frame was logged under (allocation order — not
    /// commit order when sessions interleave).
    pub txn: u64,
    /// Monotonic commit sequence number: the order frames became durable,
    /// and what a checkpoint covers.
    pub commit_seq: u64,
    /// The transaction's logical operations, in apply order.
    pub ops: Vec<WalOp>,
}

fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Integer => 0,
        DataType::Double => 1,
        DataType::Text => 2,
        DataType::HugeInt => 3,
    }
}

fn type_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Integer,
        1 => DataType::Double,
        2 => DataType::Text,
        3 => DataType::HugeInt,
        t => return Err(Error::Io(format!("bad column type tag {t}"))),
    })
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Require `n` more bytes: `bytes::Buf` getters panic on underflow, so all
/// decode paths bounds-check first and surface corruption as [`Error::Io`].
fn need(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        return Err(Error::Io("truncated log record".into()));
    }
    Ok(())
}

fn get_u8(buf: &mut Bytes) -> Result<u8> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

fn get_u32(buf: &mut Bytes) -> Result<u32> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut Bytes) -> Result<u64> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

fn get_string(buf: &mut Bytes) -> Result<String> {
    let len = get_u32(buf)? as usize;
    need(buf, len)?;
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|e| Error::Io(e.to_string()))
}

fn encode_columns(buf: &mut Vec<u8>, columns: &[(String, DataType)]) {
    buf.put_u32_le(columns.len() as u32);
    for (name, ty) in columns {
        put_string(buf, name);
        buf.put_u8(type_tag(*ty));
    }
}

fn decode_columns(buf: &mut Bytes) -> Result<Vec<(String, DataType)>> {
    let n = get_u32(buf)? as usize;
    let mut columns = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = get_string(buf)?;
        let ty = type_from_tag(get_u8(buf)?)?;
        columns.push((name, ty));
    }
    Ok(columns)
}

/// One record of the log, decoded.
enum Record {
    Begin,
    Commit { commit_seq: u64 },
    Abort,
    RollbackSp { drop_last: u64 },
    Op(WalOp),
}

/// Decode a record payload: `[tag][u64 txn][body]`; the body must be
/// consumed to its last byte.
fn decode_record(payload: &mut Bytes) -> Result<(u64, Record)> {
    let tag = get_u8(payload)?;
    let txn = get_u64(payload)?;
    let record = match tag {
        TAG_BEGIN => Record::Begin,
        TAG_COMMIT => Record::Commit { commit_seq: get_u64(payload)? },
        TAG_ABORT => Record::Abort,
        TAG_RBSP => Record::RollbackSp { drop_last: get_u64(payload)? },
        TAG_CREATE => Record::Op(WalOp::CreateTable {
            name: get_string(payload)?,
            columns: decode_columns(payload)?,
        }),
        TAG_DROP => Record::Op(WalOp::DropTable { name: get_string(payload)? }),
        TAG_INSERT => Record::Op(WalOp::Insert {
            table: get_string(payload)?,
            rows: decode_block(payload)?,
        }),
        TAG_DELETE => {
            let table = get_string(payload)?;
            let predicate = match get_u8(payload)? {
                0 => None,
                _ => Some(get_string(payload)?),
            };
            Record::Op(WalOp::Delete { table, predicate })
        }
        t => return Err(Error::Io(format!("unknown record tag {t}"))),
    };
    if !payload.is_empty() {
        return Err(Error::Io(format!("{} bytes left over", payload.remaining())));
    }
    Ok((txn, record))
}

// ---------------------------------------------------------------------------
// The log itself

/// Append-side of the write-ahead log. All appends go through the shared
/// [`FaultInjector`]; `good_end` tracks the byte offset of the last
/// **committed frame** boundary, and any failed append triggers a
/// truncate-back repair to that boundary so the next frame starts clean.
#[derive(Debug)]
struct Wal {
    file: File,
    len: u64,
    /// End offset of the last committed frame; repairs truncate here.
    good_end: u64,
    /// Set when a repair itself failed: the on-disk tail is unknown, so all
    /// further appends are refused until a checkpoint resets the log.
    poisoned: bool,
    /// Bumped on every crash-repair truncation. An open transaction whose
    /// records may have been cut records the epoch at `BEGIN` and aborts
    /// when it no longer matches.
    repair_epoch: u64,
    /// Bytes appended and fsyncs done since open ([`DurableStore::io_counts`]).
    appended: u64,
    fsyncs: u64,
}

/// Everything recovered from a database directory at open.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Commit sequence the checkpoint covers, with its table images.
    pub checkpoint: Option<(u64, Vec<CkptTable>)>,
    /// Committed WAL frames with `commit_seq` beyond the checkpoint, in
    /// commit order.
    pub frames: Vec<WalFrame>,
}

/// One table image inside a checkpoint.
#[derive(Debug)]
pub struct CkptTable {
    /// Declared table name (original casing).
    pub name: String,
    /// Declared columns in schema order.
    pub columns: Vec<(String, DataType)>,
    /// The table's chunks in order, one batch each, on the lanes they had.
    pub chunks: Vec<RowBatch>,
}

/// The durable half of a database: WAL appends, transaction framing,
/// checkpoint publication, and recovery. Owned by
/// [`Database`](crate::db::Database) when opened with a path.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    wal: Wal,
    policy: FsyncPolicy,
    injector: Arc<FaultInjector>,
    /// Transaction id the next frame will carry. Advanced past every id
    /// *seen* in the log at open — committed, aborted, or in-flight — so a
    /// dead frame's records can never merge with a new frame's.
    next_txn: u64,
    /// Commit sequence number the next `Commit` record will carry.
    next_commit: u64,
    /// Commit sequence of the last committed frame (what a checkpoint
    /// covers).
    last_committed: u64,
    /// Auto-checkpoint once the WAL grows past this many bytes
    /// (0 = never).
    pub checkpoint_every_bytes: u64,
}

/// One table's contribution to a checkpoint image: name, schema, and an
/// O(1) COW snapshot of its chunks. Built by the database from either the
/// live catalog or — while a transaction holds uncommitted changes — the
/// committed state captured in the transaction's undo stack.
#[derive(Debug)]
pub struct CkptSource {
    /// Declared table name (original casing).
    pub name: String,
    /// Declared columns in schema order.
    pub columns: Vec<(String, DataType)>,
    /// Row count of the snapshot.
    pub rows: usize,
    /// Chunk snapshot to serialize.
    pub snapshot: TableSnapshot,
}

/// Default WAL size that triggers an automatic checkpoint.
pub const DEFAULT_CHECKPOINT_BYTES: u64 = 8 * 1024 * 1024;

impl DurableStore {
    /// Open (or create) the durable store in `dir`, recovering the last
    /// checkpoint and the committed WAL prefix. Any torn tail — a frame
    /// without its `Commit`, a half-written record, a corrupted checksum —
    /// is discarded and the log truncated back to the last good boundary.
    /// A record that passes its checksum and still does not decode, or an
    /// image with another magic, was written by another version (or is
    /// corrupted beyond what a crash does): that is an [`Error::Io`], and
    /// no file is touched.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        injector: Arc<FaultInjector>,
    ) -> Result<(Self, Recovered)> {
        fs::create_dir_all(dir)?;
        let checkpoint = read_checkpoint(&dir.join(CHECKPOINT_FILE))?;
        let ckpt_seq = checkpoint.as_ref().map_or(0, |(seq, _)| *seq);

        let wal_path = dir.join(WAL_FILE);
        let mut file =
            OpenOptions::new()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(&wal_path)?;
        let scan = replay_committed(&mut file, ckpt_seq)?;
        // A crash mid-checkpoint may leave a tmp image; it covers nothing.
        let _ = fs::remove_file(dir.join(CHECKPOINT_TMP));
        // Discard the torn/uncommitted tail so appends start at a clean
        // boundary. (A plain open never injects: schedules arm later.)
        file.set_len(scan.committed_end)?;
        file.seek(SeekFrom::Start(scan.committed_end))?;

        let store = DurableStore {
            dir: dir.to_path_buf(),
            wal: Wal {
                file,
                len: scan.committed_end,
                good_end: scan.committed_end,
                poisoned: false,
                repair_epoch: 0,
                appended: 0,
                fsyncs: 0,
            },
            policy,
            injector,
            next_txn: scan.max_txn.max(ckpt_seq) + 1,
            next_commit: scan.max_commit.max(ckpt_seq) + 1,
            last_committed: scan.max_commit.max(ckpt_seq),
            checkpoint_every_bytes: DEFAULT_CHECKPOINT_BYTES,
        };
        Ok((store, Recovered { checkpoint, frames: scan.frames }))
    }

    /// Database directory this store persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current WAL length in bytes: committed frames, rolled-back frames
    /// not yet reclaimed by a checkpoint, and any open frames.
    pub fn wal_len(&self) -> u64 {
        self.wal.len
    }

    /// The fsync policy in force.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// The injector gating this store's file I/O.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// `(bytes appended to the log, fsyncs of it)` since open.
    pub fn io_counts(&self) -> (u64, u64) {
        (self.wal.appended, self.wal.fsyncs)
    }

    /// Whether the WAL grew past the auto-checkpoint threshold.
    pub fn wants_checkpoint(&self) -> bool {
        self.checkpoint_every_bytes > 0 && self.wal.len > self.checkpoint_every_bytes
    }

    /// Whether a failed truncate-repair left the log refusing appends.
    /// A full (non-keep-tail) checkpoint resets the log and clears this.
    pub fn is_poisoned(&self) -> bool {
        self.wal.poisoned
    }

    /// Monotonic count of crash-repair truncations. A transaction records
    /// this at `BEGIN`; a mismatch later means some of its records may have
    /// been cut and the transaction must abort.
    pub fn repair_epoch(&self) -> u64 {
        self.wal.repair_epoch
    }

    /// A record under construction: eight bytes kept free for the header,
    /// then `[tag][u64 txn]`; the caller appends the body and hands the
    /// buffer to [`Self::append_record`].
    fn record(tag: u8, txn: u64) -> Vec<u8> {
        let mut record = vec![0u8; 8];
        record.put_u8(tag);
        record.put_u64_le(txn);
        record
    }

    /// Fill in `[u32 len][u32 crc32(payload)]` and append header and
    /// payload with one write.
    fn append_record(&mut self, mut record: Vec<u8>) -> Result<()> {
        if self.wal.poisoned {
            return Err(Error::Io(
                "write-ahead log poisoned by an earlier failed repair; \
                 checkpoint or reopen to continue"
                    .into(),
            ));
        }
        let (header, payload) = record.split_at_mut(8);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        match self.injector.write_all(FaultSite::WalAppend, &mut self.wal.file, &record) {
            Ok(()) => {
                self.wal.len += record.len() as u64;
                self.wal.appended += record.len() as u64;
                if self.policy == FsyncPolicy::Always {
                    self.fsync()?;
                }
                Ok(())
            }
            Err(e) => {
                // A torn write may have landed part of the record; the
                // on-disk length is unknown, so roll the file back to the
                // last committed boundary before anything else is appended.
                self.wal.len = self.wal.file.seek(SeekFrom::End(0)).unwrap_or(self.wal.len);
                self.repair();
                Err(e)
            }
        }
    }

    /// Force the log down; on failure its tail is of unknown durability, so
    /// the log is repaired back to the last committed boundary.
    fn fsync(&mut self) -> Result<()> {
        match self.injector.fsync(FaultSite::WalFsync, &self.wal.file) {
            Ok(()) => {
                self.wal.fsyncs += 1;
                Ok(())
            }
            Err(e) => {
                self.repair();
                Err(e)
            }
        }
    }

    /// Truncate the log back to the last committed frame boundary after a
    /// failed append or fsync: the tail's on-disk content is unknown, so
    /// every open transaction with bytes at risk is invalidated via the
    /// repair epoch. On failure the log is poisoned (appends refused) until
    /// a checkpoint resets it — recovery tolerates the garbage tail either
    /// way via checksums and commit framing.
    fn repair(&mut self) {
        self.wal.repair_epoch += 1;
        let to = self.wal.good_end;
        let ok = self.injector.check(FaultSite::WalTruncate).is_ok()
            && self.wal.file.set_len(to).is_ok()
            && self.wal.file.seek(SeekFrom::Start(to)).is_ok();
        if ok {
            self.wal.len = to;
        } else {
            self.wal.poisoned = true;
        }
    }

    /// Start a transaction frame; returns its id and writes the `Begin`
    /// record. The frame holds no locks and buffers nothing — records land
    /// in the file as they are logged, and only `commit` makes them
    /// recoverable. The id is consumed even if the append fails, so a
    /// retried frame can never collide with a half-written one.
    pub fn begin(&mut self) -> Result<u64> {
        let txn = self.next_txn;
        self.next_txn += 1;
        self.append_record(Self::record(TAG_BEGIN, txn))?;
        Ok(txn)
    }

    /// Log a `CREATE TABLE` inside transaction `txn`.
    pub fn log_create(
        &mut self,
        txn: u64,
        name: &str,
        columns: &[(String, DataType)],
    ) -> Result<()> {
        let mut record = Self::record(TAG_CREATE, txn);
        put_string(&mut record, name);
        encode_columns(&mut record, columns);
        self.append_record(record)
    }

    /// Log a `DROP TABLE` inside transaction `txn`.
    pub fn log_drop(&mut self, txn: u64, name: &str) -> Result<()> {
        let mut record = Self::record(TAG_DROP, txn);
        put_string(&mut record, name);
        self.append_record(record)
    }

    /// Log the rows `rows` appended to `table` inside transaction `txn`, as
    /// one column block: `INSERT`, the bulk loader and every batch a CTAS
    /// streams log this record, lanes as the table is about to receive them.
    pub fn log_insert(&mut self, txn: u64, table: &str, rows: &RowBatch) -> Result<()> {
        let mut record = Self::record(TAG_INSERT, txn);
        put_string(&mut record, table);
        encode_block(&mut record, rows);
        self.append_record(record)
    }

    /// Log a `DELETE` inside transaction `txn` (predicate as SQL text).
    pub fn log_delete(&mut self, txn: u64, table: &str, predicate: Option<&str>) -> Result<()> {
        let mut record = Self::record(TAG_DELETE, txn);
        put_string(&mut record, table);
        match predicate {
            None => record.put_u8(0),
            Some(p) => {
                record.put_u8(1);
                put_string(&mut record, p);
            }
        }
        self.append_record(record)
    }

    /// Commit transaction `txn`: append the `Commit` record carrying the
    /// next commit sequence, force it down per the fsync policy, and
    /// advance the committed boundary. After `Ok`, the transaction survives
    /// a crash; on `Err` the log was repaired back to the last committed
    /// boundary (or poisoned — recovery ignores the commit-less frame
    /// either way) and the caller must undo its in-memory effects.
    pub fn commit(&mut self, txn: u64) -> Result<u64> {
        let commit_seq = self.next_commit;
        let mut record = Self::record(TAG_COMMIT, txn);
        record.put_u64_le(commit_seq);
        self.append_record(record)?;
        if self.policy != FsyncPolicy::Off {
            // Unknown durability of the frame on failure: `fsync` discards
            // it so the in-memory rollback and recovery agree.
            self.fsync()?;
        }
        self.wal.good_end = self.wal.len;
        self.last_committed = commit_seq;
        self.next_commit = commit_seq + 1;
        Ok(commit_seq)
    }

    /// Abandon transaction `txn`'s frame: append an `Abort` record so
    /// replay drops it. If the append fails, recovery still ignores the
    /// frame (no `Commit` record), so this never errors.
    pub fn abort(&mut self, txn: u64) {
        let _ = self.append_record(Self::record(TAG_ABORT, txn));
    }

    /// Roll transaction `txn` back to a savepoint: append a `RollbackSp`
    /// record telling replay to discard the frame's last `drop_last`
    /// logged ops.
    pub fn rollback_ops(&mut self, txn: u64, drop_last: u64) -> Result<()> {
        if drop_last == 0 {
            return Ok(());
        }
        let mut record = Self::record(TAG_RBSP, txn);
        record.put_u64_le(drop_last);
        self.append_record(record)
    }

    /// Write a checkpoint covering every committed transaction, publish it
    /// atomically, and — unless `keep_wal` — truncate the WAL behind it.
    /// `sources` must be the *committed* state in sorted-name order (the
    /// live catalog between transactions; the undo-stack views while one is
    /// open). `keep_wal` leaves the log intact so in-flight frames stay
    /// replayable: replay skips frames the image already covers by
    /// `commit_seq`. On error the durable state is unchanged — the tmp
    /// image is removed and the WAL still covers everything.
    pub fn checkpoint(&mut self, sources: &[CkptSource], keep_wal: bool) -> Result<()> {
        let seq = self.last_committed;
        let tmp = self.dir.join(CHECKPOINT_TMP);
        let result = self.write_checkpoint_tmp(&tmp, seq, sources);
        if let Err(e) = result {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        // Atomic publication: rename over the previous image, then fsync
        // the directory so the rename itself is durable.
        self.injector.check(FaultSite::CheckpointRename)?;
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE))?;
        if self.policy != FsyncPolicy::Off {
            let dirf = File::open(&self.dir)?;
            self.injector.fsync(FaultSite::CheckpointFsync, &dirf)?;
        }
        if keep_wal {
            return Ok(());
        }
        // The WAL's frames are all covered by the image now. A failure
        // here is benign (replay skips frames with commit_seq ≤ checkpoint
        // seq), but surfaces as an error so operators see the log not
        // shrinking.
        self.injector.check(FaultSite::WalTruncate)?;
        self.wal.file.set_len(0)?;
        self.wal.file.seek(SeekFrom::Start(0))?;
        self.wal.len = 0;
        self.wal.good_end = 0;
        self.wal.poisoned = false;
        Ok(())
    }

    fn write_checkpoint_tmp(
        &mut self,
        tmp: &Path,
        seq: u64,
        sources: &[CkptSource],
    ) -> Result<()> {
        let mut file =
            OpenOptions::new().create(true).write(true).truncate(true).open(tmp)?;
        let mut crc = Crc32::new();
        let write = |file: &mut File, crc: &mut Crc32, bytes: &[u8]| -> Result<()> {
            crc.update(bytes);
            self.injector.write_all(FaultSite::CheckpointWrite, file, bytes)
        };

        self.injector.write_all(FaultSite::CheckpointWrite, &mut file, CHECKPOINT_MAGIC)?;
        let mut buf: Vec<u8> = Vec::new();
        buf.put_u64_le(seq);
        buf.put_u32_le(sources.len() as u32);
        write(&mut file, &mut crc, &buf)?;

        for source in sources {
            buf.clear();
            put_string(&mut buf, &source.name);
            encode_columns(&mut buf, &source.columns);
            buf.put_u64_le(source.rows as u64);
            buf.put_u32_le(source.snapshot.chunks().len() as u32);
            write(&mut file, &mut crc, &buf)?;
            // Walk the O(1) Arc snapshot: one block per chunk, its columns
            // shared with the table, never materialized as rows.
            for chunk in source.snapshot.chunks() {
                buf.clear();
                encode_block(&mut buf, &RowBatch::from_shared(chunk.columns().to_vec()));
                write(&mut file, &mut crc, &buf)?;
            }
        }
        let trailer = crc.finish().to_le_bytes();
        self.injector.write_all(FaultSite::CheckpointWrite, &mut file, &trailer)?;
        self.injector.fsync(FaultSite::CheckpointFsync, &file)?;
        Ok(())
    }
}

/// Read and verify a checkpoint image; `Ok(None)` when absent. A corrupted
/// image (bad magic, bad trailer CRC, truncated body) is an error — unlike
/// a torn WAL tail it cannot be partially trusted, because it *replaces*
/// state rather than appending to it.
fn read_checkpoint(path: &Path) -> Result<Option<(u64, Vec<CkptTable>)>> {
    let data = match fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if data.len() < CHECKPOINT_MAGIC.len() + 4 || &data[..8] != CHECKPOINT_MAGIC {
        return Err(Error::Io(format!(
            "{CHECKPOINT_FILE} has bad magic (expected {}): written by another \
             version, or corrupted; left untouched",
            String::from_utf8_lossy(CHECKPOINT_MAGIC)
        )));
    }
    let body_end = data.len() - 4;
    let stored = u32::from_le_bytes(data[body_end..].try_into().expect("4-byte trailer"));
    let mut buf = Bytes::from(data).slice(8..body_end);
    if crc32(&buf) != stored {
        return Err(Error::Io("checkpoint image failed checksum".into()));
    }
    let seq = get_u64(&mut buf)?;
    let ntables = get_u32(&mut buf)? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1 << 12));
    for _ in 0..ntables {
        let name = get_string(&mut buf)?;
        let columns = decode_columns(&mut buf)?;
        let nrows = get_u64(&mut buf)?;
        let nchunks = get_u32(&mut buf)? as usize;
        let mut chunks = Vec::with_capacity(nchunks.min(1 << 16));
        for _ in 0..nchunks {
            chunks.push(decode_block(&mut buf)?);
        }
        if chunks.iter().map(|c| c.num_rows() as u64).sum::<u64>() != nrows {
            return Err(Error::Io(format!("checkpoint image: table `{name}` row count mismatch")));
        }
        tables.push(CkptTable { name, columns, chunks });
    }
    Ok(Some((seq, tables)))
}

/// Result of scanning the WAL at open.
struct WalScan {
    /// Committed frames with `commit_seq > ckpt_seq`, in commit order.
    frames: Vec<WalFrame>,
    /// Byte offset just past the last `Commit` record.
    committed_end: u64,
    /// Highest transaction id seen *anywhere* in the scanned prefix —
    /// committed, aborted, or in-flight. New ids must start above this so
    /// a dead frame's records can never merge with a live frame's.
    max_txn: u64,
    /// Highest commit sequence seen.
    max_commit: u64,
}

/// Scan the WAL. Pending frames are keyed by transaction id, so frames
/// from concurrent sessions may interleave arbitrarily; only a `Commit`
/// record makes a frame visible, in commit-record order. Stops — without
/// error — at the first torn record (cut short, empty, or failing its
/// checksum): everything past the last `Commit` is a casualty of the crash,
/// by design. A record that passes its checksum and does not decode is no
/// crash artefact: the scan fails, naming its offset and tag, before
/// [`DurableStore::open`] has changed anything. The file is read once and
/// every record is a view of that buffer.
fn replay_committed(file: &mut File, ckpt_seq: u64) -> Result<WalScan> {
    let mut data = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut data)?;
    let data = Bytes::from(data);

    let mut scan = WalScan {
        frames: Vec::new(),
        committed_end: 0,
        max_txn: 0,
        max_commit: 0,
    };
    let mut pending: HashMap<u64, Vec<WalOp>> = HashMap::new();
    let mut offset = 0usize;

    while data.len() - offset >= 8 {
        let word = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
        let (len, stored) = (word(offset) as usize, word(offset + 4));
        let end = (offset + 8).saturating_add(len);
        // Torn tail: a record cut short, the zeros of a never-written
        // block, or bytes that fail their checksum.
        if len == 0 || end > data.len() || crc32(&data[offset + 8..end]) != stored {
            break;
        }
        let mut payload = data.slice(offset + 8..end);
        let (txn, record) = decode_record(&mut payload).map_err(|e| {
            Error::Io(format!(
                "{WAL_FILE}: the record at offset {offset} (tag {}) passes its checksum \
                 but does not decode ({e}): written by another version, or corrupted; \
                 the log was left untouched",
                data[offset + 8]
            ))
        })?;
        scan.max_txn = scan.max_txn.max(txn);
        match record {
            // A Begin reusing a pending id cannot happen in a healthy log
            // (ids are never reused); if it does, the older frame never
            // committed, so dropping it is safe.
            Record::Begin => {
                pending.insert(txn, Vec::new());
            }
            Record::Commit { commit_seq } => {
                if let Some(ops) = pending.remove(&txn) {
                    scan.max_commit = scan.max_commit.max(commit_seq);
                    scan.committed_end = end as u64;
                    if commit_seq > ckpt_seq {
                        scan.frames.push(WalFrame { txn, commit_seq, ops });
                    }
                }
            }
            Record::Abort => {
                pending.remove(&txn);
            }
            Record::RollbackSp { drop_last } => {
                if let Some(ops) = pending.get_mut(&txn) {
                    let keep = ops.len().saturating_sub(drop_last as usize);
                    ops.truncate(keep);
                }
            }
            // An op outside any frame is tolerated and ignored — it can
            // only arise from a repair that half-succeeded.
            Record::Op(op) => {
                if let Some(ops) = pending.get_mut(&txn) {
                    ops.push(op);
                }
            }
        }
        offset = end;
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::batch::Column;
    use crate::storage::budget::MemoryBudget;
    use crate::table::Table;
    use crate::value::Value;

    /// A one-column `INTEGER` batch, what `INSERT INTO t VALUES (k), …` logs.
    fn ints(values: &[i64]) -> RowBatch {
        RowBatch::from_columns(vec![Column::Int(values.to_vec())])
    }

    /// The `(table, rows)` of every `Insert` in a frame.
    fn inserts(frame: &WalFrame) -> Vec<(String, RowBatch)> {
        let insert = |op: &WalOp| match op {
            WalOp::Insert { table, rows } => Some((table.clone(), rows.clone())),
            _ => None,
        };
        frame.ops.iter().filter_map(insert).collect()
    }

    fn source(t: &Table) -> CkptSource {
        CkptSource {
            name: t.name().to_string(),
            columns: t.columns().to_vec(),
            rows: t.row_count(),
            snapshot: t.snapshot(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qymera-wal-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (DurableStore, Recovered) {
        DurableStore::open(dir, FsyncPolicy::Commit, FaultInjector::none()).unwrap()
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The eight-bytes-per-step fold is the bytewise loop, on every length
    /// and alignment around its word size and however the input is split.
    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        let bytewise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        // xorshift: the data must not depend on a vendored generator.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for align in 0..9 {
            for len in (0..70).chain([255, 256, 257, 1023, 1024, 4089, 4096]) {
                let bytes = &data[align..align + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "align {align}, len {len}");
                let mut split = Crc32::new();
                split.update(&bytes[..len / 3]);
                split.update(&bytes[len / 3..]);
                assert_eq!(split.finish(), bytewise(bytes), "split at {}", len / 3);
            }
        }
    }

    /// Every lane and the values a row codec is most likely to bend: the
    /// block an `Insert` logs comes back bit for bit.
    fn awkward_batch() -> RowBatch {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        RowBatch::from_columns(vec![
            Column::Int(vec![i64::MIN, -1, 0, i64::MAX]),
            Column::Float(vec![-0.0, nan, f64::MIN_POSITIVE, f64::NEG_INFINITY]),
            Column::Generic(vec![
                Value::Null,
                Value::Float(-0.0),
                Value::Big(crate::bigbits::BigBits::ones(100, 5, 300)),
                Value::Str("né".into()),
            ]),
        ])
    }

    /// Floats as bit patterns: `PartialEq` calls two NaNs different and
    /// `0.0` and `-0.0` the same.
    fn bits(batch: &RowBatch) -> String {
        let value = |v: &Value| match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        };
        let column = |c: &Column| match c {
            Column::Int(v) => format!("Int{v:?}"),
            Column::Float(v) => format!("Float{:x?}", v.iter().map(|f| f.to_bits()).collect::<Vec<_>>()),
            Column::Generic(v) => format!("Generic{:?}", v.iter().map(value).collect::<Vec<_>>()),
        };
        batch.columns().iter().map(|c| column(c)).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn block_insert_round_trips_bit_for_bit_and_survives_every_cut() {
        let dir = tmpdir("block");
        let big = RowBatch::from_columns(vec![
            Column::Int((0..300).collect()),
            Column::Float((0..300).map(|i| i as f64 / 7.0).collect()),
        ]);
        let first_frame_end = {
            let (mut store, _) = open(&dir);
            let txn = store.begin().unwrap();
            store.log_insert(txn, "t", &awkward_batch()).unwrap();
            store.commit(txn).unwrap();
            let first_frame_end = store.wal_len();
            let txn = store.begin().unwrap();
            store.log_insert(txn, "u", &big).unwrap();
            store.commit(txn).unwrap();
            let (bytes, fsyncs) = store.io_counts();
            assert_eq!((bytes, fsyncs), (store.wal_len(), 2), "one fsync per commit");
            first_frame_end
        };
        let (_, rec) = open(&dir);
        let got: Vec<(String, RowBatch)> = rec.frames.iter().flat_map(inserts).collect();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].0.as_str(), bits(&got[0].1)), ("t", bits(&awkward_batch())));
        assert_eq!((got[1].0.as_str(), bits(&got[1].1)), ("u", bits(&big)));

        // Cut the log at every offset: replay never errors, never yields
        // part of a frame, and what it yields still decodes.
        let wal = dir.join(WAL_FILE);
        let full = fs::read(&wal).unwrap();
        for cut in 0..full.len() as u64 {
            fs::write(&wal, &full[..cut as usize]).unwrap();
            let (store, rec) = open(&dir);
            let want = usize::from(cut >= first_frame_end);
            assert_eq!(rec.frames.len(), want, "cut at {cut}");
            assert_eq!(store.wal_len(), if want == 1 { first_frame_end } else { 0 });
            for frame in &rec.frames {
                assert_eq!(bits(&inserts(frame)[0].1), bits(&awkward_batch()));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record that passes its checksum and does not decode is version
    /// skew or corruption, not a torn tail: `open` refuses the directory and
    /// leaves every byte where it was. (It used to stop replay there and
    /// truncate the rest of the log away.)
    #[test]
    fn an_undecodable_record_with_a_good_checksum_is_refused_and_left_untouched() {
        // A log as the previous format wrote it: `Insert` under tag 5, rows
        // encoded one by one.
        let old_insert: Vec<u8> = {
            let mut p = vec![5u8];
            p.put_u64_le(1);
            put_string(&mut p, "t");
            p.put_u32_le(1); // one row
            p.put_u32_le(1); // of one value
            p.put_u8(1);
            p.put_i64_le(7);
            p
        };
        // An `Insert` of this format whose block names a lane that is none.
        let bad_block: Vec<u8> = {
            let mut p = vec![TAG_INSERT];
            p.put_u64_le(1);
            put_string(&mut p, "t");
            encode_block(&mut p, &ints(&[7]));
            let lane_tag = p.len() - 9;
            p[lane_tag] = 7;
            p
        };
        let truncated_commit: Vec<u8> = vec![TAG_COMMIT, 1, 0, 0, 0, 0, 0, 0, 0, 9];
        let trailing_abort: Vec<u8> = vec![TAG_ABORT, 1, 0, 0, 0, 0, 0, 0, 0, 0xEE];
        for (what, payload, tag) in [
            ("retired tag", old_insert, 5),
            ("bad block", bad_block, TAG_INSERT),
            ("short body", truncated_commit, TAG_COMMIT),
            ("long body", trailing_abort, TAG_ABORT),
        ] {
            let dir = tmpdir("skew");
            let offset = {
                let (mut store, _) = open(&dir);
                let frame = |store: &mut DurableStore| {
                    let txn = store.begin().unwrap();
                    store.log_drop(txn, "gone").unwrap();
                    store.commit(txn).unwrap();
                    store.wal_len() as usize
                };
                let offset = frame(&mut store);
                // A committed frame behind the bad record: what stopping
                // there and truncating used to throw away.
                frame(&mut store);
                offset
            };
            let wal = dir.join(WAL_FILE);
            let mut bytes = fs::read(&wal).unwrap();
            let mut record = Vec::new();
            record.put_u32_le(payload.len() as u32);
            record.put_u32_le(crc32(&payload));
            record.extend_from_slice(&payload);
            bytes.splice(offset..offset, record);
            fs::write(&wal, &bytes).unwrap();
            let err = DurableStore::open(&dir, FsyncPolicy::Commit, FaultInjector::none())
                .unwrap_err();
            let Error::Io(msg) = &err else { panic!("{what}: {err:?}") };
            assert!(
                msg.contains(&format!("offset {offset}")) && msg.contains(&format!("tag {tag}")),
                "{what}: {msg}"
            );
            assert_eq!(fs::read(&wal).unwrap(), bytes, "{what}: the log must be left as it was");
            let _ = fs::remove_dir_all(&dir);
        }

        // The torn tails stay what they were: a record cut short, a bad
        // checksum and a run of zeros all end replay quietly.
        let dir = tmpdir("skew-torn");
        {
            let (mut store, _) = open(&dir);
            let txn = store.begin().unwrap();
            store.log_drop(txn, "gone").unwrap();
            store.commit(txn).unwrap();
        }
        let wal = dir.join(WAL_FILE);
        let good = fs::read(&wal).unwrap();
        for tail in [vec![9, 0, 0, 0, 1, 2], vec![1, 0, 0, 0, 0, 0, 0, 0, 5], vec![0u8; 64]] {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&tail);
            fs::write(&wal, &bytes).unwrap();
            let (store, rec) = open(&dir);
            assert_eq!((rec.frames.len(), store.wal_len()), (1, good.len() as u64));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// An image of the row format (`QYCKPT01`) is refused, not misread, and
    /// neither it nor the log beside it is touched.
    #[test]
    fn a_checkpoint_of_the_row_format_is_refused_and_left_untouched() {
        let dir = tmpdir("oldckpt");
        {
            let (mut store, _) = open(&dir);
            let txn = store.begin().unwrap();
            store.log_create(txn, "t", &[("a".into(), DataType::Integer)]).unwrap();
            store.commit(txn).unwrap();
            let t = Table::new("t", vec![("a".into(), DataType::Integer)], MemoryBudget::unlimited());
            store.checkpoint(&[source(&t)], true).unwrap();
        }
        let path = dir.join(CHECKPOINT_FILE);
        let mut img = fs::read(&path).unwrap();
        img[..8].copy_from_slice(b"QYCKPT01");
        fs::write(&path, &img).unwrap();
        let wal_before = fs::read(dir.join(WAL_FILE)).unwrap();
        let err = DurableStore::open(&dir, FsyncPolicy::Commit, FaultInjector::none()).unwrap_err();
        assert!(matches!(&err, Error::Io(m) if m.contains("bad magic") && m.contains("QYCKPT02")), "{err:?}");
        assert_eq!(fs::read(&path).unwrap(), img);
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), wal_before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_frames_replay_in_order() {
        let dir = tmpdir("replay");
        {
            let (mut store, rec) = open(&dir);
            assert!(rec.frames.is_empty() && rec.checkpoint.is_none());
            let txn = store.begin().unwrap();
            store
                .log_create(txn, "t", &[("a".into(), DataType::Integer)])
                .unwrap();
            store.commit(txn).unwrap();
            let txn = store.begin().unwrap();
            store.log_insert(txn, "t", &ints(&[7])).unwrap();
            store.commit(txn).unwrap();
        }
        let (_, rec) = open(&dir);
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(rec.frames[0].commit_seq, 1);
        assert_eq!(rec.frames[1].commit_seq, 2);
        assert!(matches!(&rec.frames[0].ops[0], WalOp::CreateTable { name, .. } if name == "t"));
        assert_eq!(inserts(&rec.frames[1]), [("t".to_string(), ints(&[7]))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_frame_is_invisible() {
        let dir = tmpdir("uncommitted");
        {
            let (mut store, _) = open(&dir);
            let txn = store.begin().unwrap();
            store.log_drop(txn, "t").unwrap();
            store.commit(txn).unwrap();
            // Frame without a commit: simulates a crash mid-transaction.
            let txn = store.begin().unwrap();
            store.log_drop(txn, "u").unwrap();
        }
        let (store, rec) = open(&dir);
        assert_eq!(rec.frames.len(), 1);
        assert!(matches!(&rec.frames[0].ops[0], WalOp::DropTable { name } if name == "t"));
        // Recovery truncated the uncommitted tail.
        assert_eq!(store.wal_len(), fs::metadata(dir.join(WAL_FILE)).unwrap().len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_sole_writer_frame_grows_the_log_by_one_abort_record() {
        let dir = tmpdir("abort-record");
        {
            let (mut store, _) = open(&dir);
            let txn = store.begin().unwrap();
            store.log_drop(txn, "t").unwrap();
            store.commit(txn).unwrap();
            // This frame is alone on the tail: the case that used to be a
            // truncation. Abort must append, never shrink the file.
            let txn = store.begin().unwrap();
            store.log_insert(txn, "t", &ints(&[1])).unwrap();
            let before = store.wal_len();
            store.abort(txn);
            // [len][crc][tag][txn] = 4 + 4 + 1 + 8 bytes.
            assert_eq!(store.wal_len(), before + 17);
            assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), before + 17);
            let txn = store.begin().unwrap();
            store.log_drop(txn, "u").unwrap();
            store.commit(txn).unwrap();
        }
        // Replay walks over the dead frame and reaches the commit behind it.
        let (_, rec) = open(&dir);
        let dropped: Vec<_> = rec.frames.iter().map(|f| f.ops.clone()).collect();
        assert_eq!(
            dropped,
            vec![
                vec![WalOp::DropTable { name: "t".into() }],
                vec![WalOp::DropTable { name: "u".into() }],
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_frames_commit_independently() {
        let dir = tmpdir("interleave");
        {
            let (mut store, _) = open(&dir);
            let a = store.begin().unwrap();
            let b = store.begin().unwrap();
            store.log_insert(a, "t", &ints(&[1])).unwrap();
            store.log_insert(b, "t", &ints(&[2])).unwrap();
            // b commits first, then a: replay must order by commit, not id.
            store.commit(b).unwrap();
            store.log_insert(a, "t", &ints(&[3])).unwrap();
            store.commit(a).unwrap();
            // c aborts while d's frame is open around it.
            let c = store.begin().unwrap();
            let d = store.begin().unwrap();
            store.log_insert(c, "t", &ints(&[4])).unwrap();
            store.abort(c);
            store.log_insert(d, "t", &ints(&[5])).unwrap();
            store.commit(d).unwrap();
        }
        let (store, rec) = open(&dir);
        assert_eq!(rec.frames.len(), 3);
        assert_eq!(rec.frames[0].txn, 2); // b
        assert_eq!(rec.frames[1].txn, 1); // a, two ops
        assert_eq!(rec.frames[1].ops.len(), 2);
        assert_eq!(rec.frames[2].txn, 4); // d; c's frame dropped
        assert!(rec.frames.iter().all(|f| f.txn != 3));
        // Fresh ids start above every id seen, even aborted ones.
        assert!(store.next_txn > 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_to_savepoint_drops_tail_ops() {
        let dir = tmpdir("rbsp");
        {
            let (mut store, _) = open(&dir);
            let txn = store.begin().unwrap();
            store.log_insert(txn, "t", &ints(&[1])).unwrap();
            store.log_insert(txn, "t", &ints(&[2])).unwrap();
            store.log_insert(txn, "t", &ints(&[3])).unwrap();
            // Alone on the tail (the old truncation case): one RollbackSp
            // record, [len][crc][tag][txn][n] = 4 + 4 + 1 + 8 + 8 bytes.
            let before = store.wal_len();
            store.rollback_ops(txn, 2).unwrap();
            assert_eq!(store.wal_len(), before + 25);
            // Dropping nothing writes nothing.
            store.rollback_ops(txn, 0).unwrap();
            assert_eq!(store.wal_len(), before + 25);
            store.log_insert(txn, "t", &ints(&[9])).unwrap();
            store.commit(txn).unwrap();

            // Interleaved with another open frame: the same record.
            let a = store.begin().unwrap();
            let b = store.begin().unwrap();
            store.log_insert(a, "t", &ints(&[10])).unwrap();
            store.log_insert(a, "t", &ints(&[11])).unwrap();
            let before = store.wal_len();
            store.rollback_ops(a, 1).unwrap();
            assert_eq!(store.wal_len(), before + 25);
            store.commit(a).unwrap();
            store.abort(b);
        }
        let (_, rec) = open(&dir);
        assert_eq!(rec.frames.len(), 2);
        let t = || "t".to_string();
        assert_eq!(inserts(&rec.frames[0]), [(t(), ints(&[1])), (t(), ints(&[9]))]);
        assert_eq!(inserts(&rec.frames[1]), [(t(), ints(&[10]))]);
        assert_eq!(rec.frames[0].ops.len() + rec.frames[1].ops.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_corruption_stop_replay_cleanly() {
        let dir = tmpdir("torn");
        {
            let (mut store, _) = open(&dir);
            for i in 0..3 {
                let txn = store.begin().unwrap();
                store.log_insert(txn, "t", &ints(&[i])).unwrap();
                store.commit(txn).unwrap();
            }
        }
        let wal = dir.join(WAL_FILE);
        let full = fs::read(&wal).unwrap();
        // Truncate at every byte boundary: replay must never error and
        // must recover a prefix of the three frames.
        for cut in 0..full.len() {
            fs::write(&wal, &full[..cut]).unwrap();
            let (_, rec) = open(&dir);
            assert!(rec.frames.len() <= 3);
            for (i, f) in rec.frames.iter().enumerate() {
                assert_eq!(f.commit_seq, i as u64 + 1);
            }
        }
        // Flip a byte mid-file: replay stops at the corruption.
        fs::write(&wal, &full).unwrap();
        let mut corrupted = full.clone();
        corrupted[full.len() / 2] ^= 0xFF;
        fs::write(&wal, &corrupted).unwrap();
        let (_, rec) = open(&dir);
        assert!(rec.frames.len() < 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_covers_and_truncates() {
        let dir = tmpdir("ckpt");
        let budget = MemoryBudget::unlimited();
        {
            let (mut store, _) = open(&dir);
            let txn = store.begin().unwrap();
            store
                .log_create(txn, "t", &[("a".into(), DataType::Integer)])
                .unwrap();
            store.commit(txn).unwrap();

            let mut t = Table::new(
                "t",
                vec![("a".into(), DataType::Integer)],
                budget.clone(),
            );
            t.append_batch(&ints(&[1, 2])).unwrap();
            store.checkpoint(&[source(&t)], false).unwrap();
            assert_eq!(store.wal_len(), 0);

            // One more statement after the checkpoint.
            let txn = store.begin().unwrap();
            store.log_insert(txn, "t", &ints(&[3])).unwrap();
            store.commit(txn).unwrap();
        }
        let (_, rec) = open(&dir);
        let (seq, tables) = rec.checkpoint.expect("checkpoint written");
        assert_eq!(seq, 1);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].chunks, [ints(&[1, 2])]);
        // Only the post-checkpoint frame replays.
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(rec.frames[0].commit_seq, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_wal_checkpoint_leaves_inflight_frames_replayable() {
        let dir = tmpdir("keepwal");
        {
            let (mut store, _) = open(&dir);
            let txn = store.begin().unwrap();
            store
                .log_create(txn, "t", &[("a".into(), DataType::Integer)])
                .unwrap();
            store.commit(txn).unwrap();

            // An open transaction has logged ops when the checkpoint runs.
            let open_txn = store.begin().unwrap();
            store.log_insert(open_txn, "t", &ints(&[7])).unwrap();

            let mut t = Table::new(
                "t",
                vec![("a".into(), DataType::Integer)],
                MemoryBudget::unlimited(),
            );
            t.append_batch(&ints(&[1])).unwrap();
            let len_before = store.wal_len();
            store.checkpoint(&[source(&t)], true).unwrap();
            // keep_wal: the log was not truncated.
            assert_eq!(store.wal_len(), len_before);

            store.commit(open_txn).unwrap();
        }
        let (_, rec) = open(&dir);
        let (seq, tables) = rec.checkpoint.expect("checkpoint written");
        assert_eq!(seq, 1);
        assert_eq!(tables[0].chunks, [ints(&[1])]);
        // The open transaction committed after the checkpoint: its frame
        // must replay on top of the image.
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(inserts(&rec.frames[0]), [("t".to_string(), ints(&[7]))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checkpoint_is_a_typed_error() {
        let dir = tmpdir("badckpt");
        {
            let (mut store, _) = open(&dir);
            let t = Table::new(
                "t",
                vec![("a".into(), DataType::Integer)],
                MemoryBudget::unlimited(),
            );
            let txn = store.begin().unwrap();
            store.log_create(txn, "t", &[("a".into(), DataType::Integer)]).unwrap();
            store.commit(txn).unwrap();
            store.checkpoint(&[source(&t)], false).unwrap();
        }
        let path = dir.join(CHECKPOINT_FILE);
        let mut img = fs::read(&path).unwrap();
        let mid = img.len() / 2;
        img[mid] ^= 0xFF;
        fs::write(&path, &img).unwrap();
        let err = DurableStore::open(&dir, FsyncPolicy::Commit, FaultInjector::none())
            .unwrap_err();
        assert!(matches!(err, Error::Io(m) if m.contains("checksum")));
        let _ = fs::remove_dir_all(&dir);
    }
}
