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
//!   An auto-commit statement is simply a one-statement transaction.
//!   Frames from concurrent sessions may interleave freely; recovery keys
//!   pending frames by `txn` id and replays exactly the **committed
//!   frames in commit order**: a frame with no `Commit` — because the
//!   process died mid-transaction — is ignored, an `Abort`ed frame is
//!   dropped, a `RollbackSp{txn, n}` record discards that frame's last
//!   `n` ops (crash-safe savepoint rollback), and a torn or corrupted
//!   record ends replay at the last good boundary (the tail past it is
//!   discarded). Rollback is **only** ever those two logical records:
//!   the file shrinks in exactly three places — `open` (the torn tail),
//!   `repair` (after a failed append or fsync, whose on-disk result is
//!   unknown) and `checkpoint` (the image covers the log). Rolled-back
//!   frames stay in the log until the next checkpoint reclaims them.
//! * `checkpoint.qck` — a full serialized image of every table, stamped
//!   with the commit sequence number it covers. Produced by walking each
//!   table's O(1) `Arc` chunk snapshot (checkpointing never blocks or
//!   copies table data beyond the serialization itself) and published
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

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::ast::DataType;
use crate::error::{Error, Result};
use crate::storage::fault::{FaultInjector, FaultSite};
use crate::storage::spill::{decode_row, encode_row, Row};
use crate::table::TableSnapshot;

/// WAL file name inside a database directory.
pub const WAL_FILE: &str = "wal.qwl";
/// Live checkpoint image name.
pub const CHECKPOINT_FILE: &str = "checkpoint.qck";
/// In-flight checkpoint image (ignored and removed at open).
pub const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// 8-byte magic prefixing a checkpoint image.
const CHECKPOINT_MAGIC: &[u8; 8] = b"QYCKPT01";

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
// crc32 (IEEE 802.3, table-driven) — hand-rolled; the engine vendors no
// checksum crate.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Streaming CRC-32 accumulator.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh accumulator (standard all-ones initial state).
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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
const TAG_INSERT: u8 = 5;
const TAG_DELETE: u8 = 6;
/// Transaction rolled back: replay drops its pending frame.
const TAG_ABORT: u8 = 7;
/// `ROLLBACK TO SAVEPOINT`: replay drops the last `n` ops of the pending
/// frame.
const TAG_RBSP: u8 = 8;

/// A logical operation recovered from the WAL. An auto-commit statement
/// frame carries one of these — except CTAS, which logs a `CreateTable`
/// followed by one `Insert` per streamed chunk; a multi-statement
/// transaction carries one per logged statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // field names mirror the statements they log
pub enum WalOp {
    CreateTable { name: String, columns: Vec<(String, DataType)> },
    DropTable { name: String },
    Insert { table: String, rows: Vec<Row> },
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

fn put_string(buf: &mut BytesMut, s: &str) {
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

fn encode_columns(buf: &mut BytesMut, columns: &[(String, DataType)]) {
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

/// Decode an op record payload: `[tag][u64 txn][body]`. Frame-control
/// records (`Begin`/`Commit`/`Abort`/`RollbackSp`) are handled by tag
/// directly in the replay loop and never reach this function.
fn decode_op(payload: &mut Bytes) -> Result<(u64, WalOp)> {
    let tag = get_u8(payload)?;
    let txn = get_u64(payload)?;
    let op = match tag {
        TAG_CREATE => WalOp::CreateTable {
            name: get_string(payload)?,
            columns: decode_columns(payload)?,
        },
        TAG_DROP => WalOp::DropTable { name: get_string(payload)? },
        TAG_INSERT => {
            let table = get_string(payload)?;
            let nrows = get_u32(payload)? as usize;
            let mut rows = Vec::with_capacity(nrows.min(1 << 16));
            for _ in 0..nrows {
                rows.push(decode_row(payload)?);
            }
            WalOp::Insert { table, rows }
        }
        TAG_DELETE => {
            let table = get_string(payload)?;
            let predicate = match get_u8(payload)? {
                0 => None,
                _ => Some(get_string(payload)?),
            };
            WalOp::Delete { table, predicate }
        }
        t => return Err(Error::Io(format!("bad log record tag {t}"))),
    };
    Ok((txn, op))
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
    /// Every row, already coerced to the declared types.
    pub rows: Vec<Row>,
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
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        injector: Arc<FaultInjector>,
    ) -> Result<(Self, Recovered)> {
        fs::create_dir_all(dir)?;
        // A crash mid-checkpoint may leave a tmp image; it covers nothing.
        let _ = fs::remove_file(dir.join(CHECKPOINT_TMP));

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

    fn append_record(&mut self, payload: &[u8]) -> Result<()> {
        if self.wal.poisoned {
            return Err(Error::Io(
                "write-ahead log poisoned by an earlier failed repair; \
                 checkpoint or reopen to continue"
                    .into(),
            ));
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        match self.injector.write_all(FaultSite::WalAppend, &mut self.wal.file, &frame) {
            Ok(()) => {
                self.wal.len += frame.len() as u64;
                if self.policy == FsyncPolicy::Always {
                    if let Err(e) =
                        self.injector.fsync(FaultSite::WalFsync, &self.wal.file)
                    {
                        self.repair();
                        return Err(e);
                    }
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
        let mut buf = BytesMut::with_capacity(9);
        buf.put_u8(TAG_BEGIN);
        buf.put_u64_le(txn);
        self.append_record(&buf)?;
        Ok(txn)
    }

    /// Log a `CREATE TABLE` inside transaction `txn`.
    pub fn log_create(
        &mut self,
        txn: u64,
        name: &str,
        columns: &[(String, DataType)],
    ) -> Result<()> {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_CREATE);
        buf.put_u64_le(txn);
        put_string(&mut buf, name);
        encode_columns(&mut buf, columns);
        self.append_record(&buf)
    }

    /// Log a `DROP TABLE` inside transaction `txn`.
    pub fn log_drop(&mut self, txn: u64, name: &str) -> Result<()> {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_DROP);
        buf.put_u64_le(txn);
        put_string(&mut buf, name);
        self.append_record(&buf)
    }

    /// Log an `INSERT` of already-evaluated rows inside transaction `txn`.
    /// Rows are borrowed: logging copies them into the record buffer but
    /// never clones the caller's vector.
    pub fn log_insert(&mut self, txn: u64, table: &str, rows: &[Row]) -> Result<()> {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_INSERT);
        buf.put_u64_le(txn);
        put_string(&mut buf, table);
        buf.put_u32_le(rows.len() as u32);
        for row in rows {
            encode_row(&mut buf, row);
        }
        self.append_record(&buf)
    }

    /// Log a `DELETE` inside transaction `txn` (predicate as SQL text).
    pub fn log_delete(&mut self, txn: u64, table: &str, predicate: Option<&str>) -> Result<()> {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_DELETE);
        buf.put_u64_le(txn);
        put_string(&mut buf, table);
        match predicate {
            None => buf.put_u8(0),
            Some(p) => {
                buf.put_u8(1);
                put_string(&mut buf, p);
            }
        }
        self.append_record(&buf)
    }

    /// Commit transaction `txn`: append the `Commit` record carrying the
    /// next commit sequence, force it down per the fsync policy, and
    /// advance the committed boundary. After `Ok`, the transaction survives
    /// a crash; on `Err` the log was repaired back to the last committed
    /// boundary (or poisoned — recovery ignores the commit-less frame
    /// either way) and the caller must undo its in-memory effects.
    pub fn commit(&mut self, txn: u64) -> Result<u64> {
        let commit_seq = self.next_commit;
        let mut buf = BytesMut::with_capacity(17);
        buf.put_u8(TAG_COMMIT);
        buf.put_u64_le(txn);
        buf.put_u64_le(commit_seq);
        self.append_record(&buf)?;
        if self.policy != FsyncPolicy::Off {
            if let Err(e) = self.injector.fsync(FaultSite::WalFsync, &self.wal.file) {
                // Unknown durability of the frame: discard it so the
                // in-memory rollback and recovery agree.
                self.repair();
                return Err(e);
            }
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
        let mut buf = BytesMut::with_capacity(9);
        buf.put_u8(TAG_ABORT);
        buf.put_u64_le(txn);
        let _ = self.append_record(&buf);
    }

    /// Roll transaction `txn` back to a savepoint: append a `RollbackSp`
    /// record telling replay to discard the frame's last `drop_last`
    /// logged ops.
    pub fn rollback_ops(&mut self, txn: u64, drop_last: u64) -> Result<()> {
        if drop_last == 0 {
            return Ok(());
        }
        let mut buf = BytesMut::with_capacity(17);
        buf.put_u8(TAG_RBSP);
        buf.put_u64_le(txn);
        buf.put_u64_le(drop_last);
        self.append_record(&buf)
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
        let mut head = BytesMut::new();
        head.put_u64_le(seq);
        head.put_u32_le(sources.len() as u32);
        write(&mut file, &mut crc, &head)?;

        let mut buf = BytesMut::new();
        for source in sources {
            buf.clear();
            put_string(&mut buf, &source.name);
            encode_columns(&mut buf, &source.columns);
            buf.put_u64_le(source.rows as u64);
            write(&mut file, &mut crc, &buf)?;
            // Walk the O(1) Arc snapshot chunk by chunk: serialization
            // streams without materializing the table as rows.
            for chunk in source.snapshot.chunks() {
                buf.clear();
                for i in 0..chunk.rows() {
                    encode_row(&mut buf, &chunk.row(i));
                }
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
        return Err(Error::Io("checkpoint image has bad magic".into()));
    }
    let body = &data[8..data.len() - 4];
    let stored =
        u32::from_le_bytes(data[data.len() - 4..].try_into().expect("4-byte trailer"));
    if crc32(body) != stored {
        return Err(Error::Io("checkpoint image failed checksum".into()));
    }
    let mut buf = Bytes::from(body.to_vec());
    let seq = get_u64(&mut buf)?;
    let ntables = get_u32(&mut buf)? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1 << 12));
    for _ in 0..ntables {
        let name = get_string(&mut buf)?;
        let columns = decode_columns(&mut buf)?;
        let nrows = get_u64(&mut buf)? as usize;
        let mut rows = Vec::with_capacity(nrows.min(1 << 20));
        for _ in 0..nrows {
            rows.push(decode_row(&mut buf)?);
        }
        tables.push(CkptTable { name, columns, rows });
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
/// error — at the first torn or corrupted record: everything past the
/// last `Commit` is a casualty of the crash, by design.
fn replay_committed(file: &mut File, ckpt_seq: u64) -> Result<WalScan> {
    let mut data = Vec::new();
    file.seek(SeekFrom::Start(0))?;
    file.read_to_end(&mut data)?;

    let mut scan = WalScan {
        frames: Vec::new(),
        committed_end: 0,
        max_txn: 0,
        max_commit: 0,
    };
    let mut pending: HashMap<u64, Vec<WalOp>> = HashMap::new();
    let mut offset = 0usize;

    while data.len() - offset >= 8 {
        let len =
            u32::from_le_bytes(data[offset..offset + 4].try_into().expect("4 bytes"))
                as usize;
        let stored =
            u32::from_le_bytes(data[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let Some(end) = offset.checked_add(8 + len) else { break };
        if end > data.len() {
            break; // torn tail: record extends past the file
        }
        let payload = &data[offset + 8..end];
        if crc32(payload) != stored {
            break; // corrupted record: stop at the last good boundary
        }
        let mut bytes = Bytes::from(payload.to_vec());
        // Tag dispatch: frame control inline, payload ops via decode_op.
        let Ok(tag) = get_u8(&mut bytes) else { break };
        match tag {
            TAG_BEGIN => {
                let Ok(txn) = get_u64(&mut bytes) else { break };
                scan.max_txn = scan.max_txn.max(txn);
                // A Begin reusing a pending id cannot happen in a healthy
                // log (ids are never reused); if it does, the older frame
                // never committed, so dropping it is safe.
                pending.insert(txn, Vec::new());
            }
            TAG_COMMIT => {
                let Ok(txn) = get_u64(&mut bytes) else { break };
                let Ok(commit_seq) = get_u64(&mut bytes) else { break };
                scan.max_txn = scan.max_txn.max(txn);
                if let Some(ops) = pending.remove(&txn) {
                    scan.max_commit = scan.max_commit.max(commit_seq);
                    scan.committed_end = end as u64;
                    if commit_seq > ckpt_seq {
                        scan.frames.push(WalFrame { txn, commit_seq, ops });
                    }
                }
            }
            TAG_ABORT => {
                let Ok(txn) = get_u64(&mut bytes) else { break };
                scan.max_txn = scan.max_txn.max(txn);
                pending.remove(&txn);
            }
            TAG_RBSP => {
                let Ok(txn) = get_u64(&mut bytes) else { break };
                let Ok(drop_last) = get_u64(&mut bytes) else { break };
                scan.max_txn = scan.max_txn.max(txn);
                if let Some(ops) = pending.get_mut(&txn) {
                    let keep = ops.len().saturating_sub(drop_last as usize);
                    ops.truncate(keep);
                }
            }
            _ => {
                let mut full = Bytes::from(payload.to_vec());
                let Ok((txn, op)) = decode_op(&mut full) else { break };
                scan.max_txn = scan.max_txn.max(txn);
                if let Some(ops) = pending.get_mut(&txn) {
                    ops.push(op);
                }
                // An op outside any frame is tolerated and ignored — it can
                // only arise from a repair that half-succeeded.
            }
        }
        offset = end;
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::budget::MemoryBudget;
    use crate::table::Table;
    use crate::value::Value;

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
            store.log_insert(txn, "t", &[vec![Value::Int(7)]]).unwrap();
            store.commit(txn).unwrap();
        }
        let (_, rec) = open(&dir);
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(rec.frames[0].commit_seq, 1);
        assert_eq!(rec.frames[1].commit_seq, 2);
        assert!(matches!(&rec.frames[0].ops[0], WalOp::CreateTable { name, .. } if name == "t"));
        assert!(matches!(
            &rec.frames[1].ops[0],
            WalOp::Insert { rows, .. } if rows == &vec![vec![Value::Int(7)]]
        ));
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
            store.log_insert(txn, "t", &[vec![Value::Int(1)]]).unwrap();
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
            store.log_insert(a, "t", &[vec![Value::Int(1)]]).unwrap();
            store.log_insert(b, "t", &[vec![Value::Int(2)]]).unwrap();
            // b commits first, then a: replay must order by commit, not id.
            store.commit(b).unwrap();
            store.log_insert(a, "t", &[vec![Value::Int(3)]]).unwrap();
            store.commit(a).unwrap();
            // c aborts while d's frame is open around it.
            let c = store.begin().unwrap();
            let d = store.begin().unwrap();
            store.log_insert(c, "t", &[vec![Value::Int(4)]]).unwrap();
            store.abort(c);
            store.log_insert(d, "t", &[vec![Value::Int(5)]]).unwrap();
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
            store.log_insert(txn, "t", &[vec![Value::Int(1)]]).unwrap();
            store.log_insert(txn, "t", &[vec![Value::Int(2)]]).unwrap();
            store.log_insert(txn, "t", &[vec![Value::Int(3)]]).unwrap();
            // Alone on the tail (the old truncation case): one RollbackSp
            // record, [len][crc][tag][txn][n] = 4 + 4 + 1 + 8 + 8 bytes.
            let before = store.wal_len();
            store.rollback_ops(txn, 2).unwrap();
            assert_eq!(store.wal_len(), before + 25);
            // Dropping nothing writes nothing.
            store.rollback_ops(txn, 0).unwrap();
            assert_eq!(store.wal_len(), before + 25);
            store.log_insert(txn, "t", &[vec![Value::Int(9)]]).unwrap();
            store.commit(txn).unwrap();

            // Interleaved with another open frame: the same record.
            let a = store.begin().unwrap();
            let b = store.begin().unwrap();
            store.log_insert(a, "t", &[vec![Value::Int(10)]]).unwrap();
            store.log_insert(a, "t", &[vec![Value::Int(11)]]).unwrap();
            let before = store.wal_len();
            store.rollback_ops(a, 1).unwrap();
            assert_eq!(store.wal_len(), before + 25);
            store.commit(a).unwrap();
            store.abort(b);
        }
        let (_, rec) = open(&dir);
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(
            rec.frames[0].ops,
            vec![
                WalOp::Insert { table: "t".into(), rows: vec![vec![Value::Int(1)]] },
                WalOp::Insert { table: "t".into(), rows: vec![vec![Value::Int(9)]] },
            ]
        );
        assert_eq!(
            rec.frames[1].ops,
            vec![WalOp::Insert { table: "t".into(), rows: vec![vec![Value::Int(10)]] }]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_and_corruption_stop_replay_cleanly() {
        let dir = tmpdir("torn");
        {
            let (mut store, _) = open(&dir);
            for i in 0..3 {
                let txn = store.begin().unwrap();
                store.log_insert(txn, "t", &[vec![Value::Int(i)]]).unwrap();
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
            t.insert_rows(vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap();
            store.checkpoint(&[source(&t)], false).unwrap();
            assert_eq!(store.wal_len(), 0);

            // One more statement after the checkpoint.
            let txn = store.begin().unwrap();
            store.log_insert(txn, "t", &[vec![Value::Int(3)]]).unwrap();
            store.commit(txn).unwrap();
        }
        let (_, rec) = open(&dir);
        let (seq, tables) = rec.checkpoint.expect("checkpoint written");
        assert_eq!(seq, 1);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
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
            store.log_insert(open_txn, "t", &[vec![Value::Int(7)]]).unwrap();

            let mut t = Table::new(
                "t",
                vec![("a".into(), DataType::Integer)],
                MemoryBudget::unlimited(),
            );
            t.insert_rows(vec![vec![Value::Int(1)]]).unwrap();
            let len_before = store.wal_len();
            store.checkpoint(&[source(&t)], true).unwrap();
            // keep_wal: the log was not truncated.
            assert_eq!(store.wal_len(), len_before);

            store.commit(open_txn).unwrap();
        }
        let (_, rec) = open(&dir);
        let (seq, tables) = rec.checkpoint.expect("checkpoint written");
        assert_eq!(seq, 1);
        assert_eq!(tables[0].rows, vec![vec![Value::Int(1)]]);
        // The open transaction committed after the checkpoint: its frame
        // must replay on top of the image.
        assert_eq!(rec.frames.len(), 1);
        assert_eq!(
            rec.frames[0].ops,
            vec![WalOp::Insert { table: "t".into(), rows: vec![vec![Value::Int(7)]] }]
        );
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
