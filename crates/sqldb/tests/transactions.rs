//! Multi-statement transaction integration tests: ACID semantics of
//! `BEGIN` / `COMMIT` / `ROLLBACK` / `SAVEPOINT`, crash recovery of
//! transaction-scoped WAL frames (truncation and corruption matrices over
//! a transactional workload), checkpointing around open transactions,
//! poisoned-WAL self-healing, and concurrent writers through
//! [`SharedDb`] / [`Session`] with typed conflict errors.

use std::fs;
use std::path::{Path, PathBuf};

use qymera_sqldb::storage::wal::{CHECKPOINT_FILE, WAL_FILE};
use qymera_sqldb::{
    Database, DurabilityOptions, Error, FsyncPolicy, Session, SharedDb, Value,
};

/// Fresh scratch directory for one test (removed on entry, not on exit, so
/// a failing test leaves its evidence behind).
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("qymera-txn-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn test_opts() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Commit,
        checkpoint_every_bytes: 0,
        ..DurabilityOptions::default()
    }
}

fn open(dir: &Path) -> Database {
    Database::open_with(dir, test_opts()).unwrap()
}

/// Deterministic dump of the full database: every table's name and rows
/// (sorted bytewise so physical chunk order doesn't matter).
fn dump(db: &mut Database) -> Vec<(String, Vec<String>)> {
    let mut names = db.table_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let mut rows: Vec<String> = db
                .execute(&format!("SELECT * FROM {name}"))
                .unwrap()
                .rows()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            (name, rows)
        })
        .collect()
}

fn ints(db: &mut Database, sql: &str) -> Vec<i64> {
    db.execute(sql)
        .unwrap()
        .rows()
        .iter()
        .map(|r| match r[0] {
            Value::Int(k) => k,
            ref v => panic!("unexpected value {v:?}"),
        })
        .collect()
}

/// `ints` through a session (sees the session's own uncommitted state).
fn session_ints(s: &mut Session, sql: &str) -> Vec<i64> {
    s.execute(sql)
        .unwrap()
        .rows()
        .iter()
        .map(|r| match r[0] {
            Value::Int(k) => k,
            ref v => panic!("unexpected value {v:?}"),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Core semantics (in-memory)
// ---------------------------------------------------------------------------

#[test]
fn commit_keeps_rollback_discards() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();

    db.execute("BEGIN").unwrap();
    assert!(db.in_transaction());
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    // Uncommitted changes are visible to the transaction itself.
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 2]);
    db.execute("COMMIT").unwrap();
    assert!(!db.in_transaction());
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 2]);

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    db.execute("DELETE FROM t WHERE k = 1").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![2, 3]);
    db.execute("ROLLBACK").unwrap();
    assert!(!db.in_transaction());
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 2]);
}

#[test]
fn ddl_rolls_back_created_and_dropped_tables() {
    let mut db = Database::new();
    db.execute("CREATE TABLE keep (k INTEGER)").unwrap();
    db.execute("INSERT INTO keep VALUES (7), (8)").unwrap();

    db.execute("BEGIN").unwrap();
    db.execute("CREATE TABLE fresh (x INTEGER)").unwrap();
    db.execute("INSERT INTO fresh VALUES (1)").unwrap();
    db.execute("DROP TABLE keep").unwrap();
    assert_eq!(db.table_names(), vec!["fresh".to_string()]);
    db.execute("ROLLBACK").unwrap();

    // Created table gone, dropped table back with its rows and usable.
    assert_eq!(db.table_names(), vec!["keep".to_string()]);
    assert_eq!(ints(&mut db, "SELECT k FROM keep ORDER BY k"), vec![7, 8]);
    db.execute("INSERT INTO keep VALUES (9)").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM keep ORDER BY k"), vec![7, 8, 9]);
}

#[test]
fn savepoints_rewind_partially_and_survive_rollback_to() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("SAVEPOINT a").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("SAVEPOINT b").unwrap();
    db.execute("INSERT INTO t VALUES (3)").unwrap();

    db.execute("ROLLBACK TO b").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 2]);

    // The savepoint survives its own rollback; later work rewinds again.
    db.execute("INSERT INTO t VALUES (4)").unwrap();
    db.execute("ROLLBACK TO b").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 2]);

    // Rolling back to an earlier savepoint discards the later one.
    db.execute("ROLLBACK TO A").unwrap(); // case-insensitive
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1]);
    let err = db.execute("ROLLBACK TO b").unwrap_err();
    assert!(matches!(err, Error::Plan(_)), "got {err:?}");
    assert!(db.in_transaction(), "unknown savepoint must not abort");

    db.execute("INSERT INTO t VALUES (5)").unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 5]);
}

#[test]
fn bookkeeping_errors_do_not_abort_the_transaction() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();

    // Outside a transaction: COMMIT/ROLLBACK/SAVEPOINT are plan errors.
    for sql in ["COMMIT", "ROLLBACK", "SAVEPOINT s", "ROLLBACK TO s"] {
        let err = db.execute(sql).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{sql}: got {err:?}");
    }

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let err = db.execute("BEGIN").unwrap_err();
    assert!(matches!(err, Error::Plan(_)), "nested BEGIN: got {err:?}");
    assert!(db.in_transaction(), "nested BEGIN must not abort");
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);
    db.execute("COMMIT").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);
}

#[test]
fn statement_error_aborts_the_whole_transaction() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let err = db.execute("SELECT * FROM no_such_table").unwrap_err();
    assert!(matches!(err, Error::Catalog(_)), "got {err:?}");
    assert!(!db.in_transaction(), "statement error must abort the txn");
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);

    // An immediate retry of the whole transaction is valid.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 2]);
}

#[test]
fn ctas_is_rejected_inside_a_transaction_without_aborting() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let err = db.create_table_as("c", "SELECT k FROM t").unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "got {err:?}");
    assert!(db.in_transaction());
    db.execute("COMMIT").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);
}

#[test]
fn insert_rows_api_joins_the_open_transaction() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("BEGIN").unwrap();
    db.insert_rows("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]])
        .unwrap();
    db.execute("ROLLBACK").unwrap();
    assert!(ints(&mut db, "SELECT k FROM t").is_empty());
}

// ---------------------------------------------------------------------------
// Durability of transaction frames
// ---------------------------------------------------------------------------

#[test]
fn committed_txn_survives_reopen_in_flight_does_not() {
    let dir = tmpdir("inflight");
    {
        let mut db = open(&dir);
        db.execute("CREATE TABLE t (k INTEGER)").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        db.execute("COMMIT").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        // Drop mid-transaction: the crash leaves the frame without a
        // Commit record in the WAL.
        assert!(db.in_transaction());
    }
    let mut db = open(&dir);
    assert_eq!(
        ints(&mut db, "SELECT k FROM t ORDER BY k"),
        vec![1, 2],
        "in-flight frame must leave zero trace after recovery"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rolled_back_txn_leaves_zero_recovered_trace_and_one_abort_record() {
    let dir = tmpdir("residue-rollback");
    let mut db = open(&dir);
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    // Even a sole writer's rollback is a logical record: the file never
    // shrinks, it grows by one 17-byte `Abort` ([len][crc][tag][txn]).
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("DELETE FROM t WHERE k = 1").unwrap();
    let before = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(
        fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        before + 17,
        "rollback must append exactly one Abort record"
    );
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);

    // A commit lands behind the dead frame; recovery walks past the frame
    // to reach it and shows no trace of the rolled-back statements.
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    drop(db);
    let mut db = open(&dir);
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 3]);
    let _ = fs::remove_dir_all(&dir);
}

/// Rolled-back frames stay in the log until a checkpoint, so a workload
/// that only ever rolls back must still reach the auto-checkpoint.
#[test]
fn rollback_only_workload_keeps_the_log_bounded() {
    const THRESHOLD: u64 = 4096;
    let dir = tmpdir("rollback-bounded");
    let opts = || DurabilityOptions {
        fsync: FsyncPolicy::Off,
        checkpoint_every_bytes: THRESHOLD,
        ..DurabilityOptions::default()
    };
    let mut db = Database::open_with(&dir, opts()).unwrap();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let expected = dump(&mut db);

    for i in 0..1_000 {
        db.execute("BEGIN").unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        db.execute("ROLLBACK").unwrap();
        let len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(len < 2 * THRESHOLD, "iteration {i}: wal.qwl grew to {len} bytes");
    }
    assert_eq!(dump(&mut db), expected);
    drop(db);
    let mut db = Database::open_with(&dir, opts()).unwrap();
    assert_eq!(dump(&mut db), expected, "recovery must see the pre-loop state");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn read_only_txn_never_touches_the_wal() {
    let dir = tmpdir("residue-readonly");
    let mut db = open(&dir);
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let before = fs::metadata(dir.join(WAL_FILE)).unwrap().len();

    db.execute("BEGIN").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);
    db.execute("COMMIT").unwrap();
    db.execute("BEGIN").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);
    db.execute("ROLLBACK").unwrap();

    assert_eq!(
        fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        before,
        "read-only transactions must not open a WAL frame"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Crash matrices over a transactional workload
// ---------------------------------------------------------------------------

/// Build a WAL exercising every transactional record shape, returning the
/// set of dumps recovery is allowed to produce (the state after each
/// commit boundary, in commit order).
///
/// The workload interleaves two sessions so the log contains: interleaved
/// `Begin`/op records, `Abort` and `RollbackSp` records both inside
/// another session's open frame and from a sole writer (the case that was
/// a file truncation before rollback became purely logical), commits out
/// of begin order, and a trailing in-flight frame.
fn txn_workload(dir: &Path) -> Vec<Vec<(String, Vec<String>)>> {
    let shared = SharedDb::new(open(dir));
    let mut states: Vec<Vec<(String, Vec<String>)>> = Vec::new();
    // The shadow replays only what has committed, at commit time.
    let mut shadow = Database::new();
    let snap = |shadow: &mut Database, states: &mut Vec<_>| {
        states.push(dump(shadow));
    };
    snap(&mut shadow, &mut states); // empty database

    let mut s1 = shared.session();
    let mut s2 = shared.session();

    s1.execute("CREATE TABLE a (k INTEGER)").unwrap();
    shadow.execute("CREATE TABLE a (k INTEGER)").unwrap();
    snap(&mut shadow, &mut states);
    s1.execute("CREATE TABLE b (k INTEGER)").unwrap();
    shadow.execute("CREATE TABLE b (k INTEGER)").unwrap();
    snap(&mut shadow, &mut states);

    // Interleaved frames: s1 on a, s2 on b.
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO a VALUES (1)").unwrap();
    s2.execute("BEGIN").unwrap();
    s2.execute("INSERT INTO b VALUES (10)").unwrap();
    // s2's Abort record lands in the middle of s1's open frame.
    s1.execute("INSERT INTO a VALUES (2)").unwrap();
    s2.execute("ROLLBACK").unwrap();
    s1.execute("COMMIT").unwrap();
    shadow.execute("INSERT INTO a VALUES (1)").unwrap();
    shadow.execute("INSERT INTO a VALUES (2)").unwrap();
    snap(&mut shadow, &mut states);

    // Savepoint rollback in an interleaved frame → RollbackSp record.
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO a VALUES (3)").unwrap();
    s1.execute("SAVEPOINT sp").unwrap();
    s1.execute("INSERT INTO a VALUES (99)").unwrap();
    s2.execute("INSERT INTO b VALUES (20)").unwrap(); // auto-commit after s1's ops
    s1.execute("ROLLBACK TO sp").unwrap();
    s1.execute("DELETE FROM a WHERE k = 1").unwrap();
    // s2's auto-commit landed before s1's commit.
    shadow.execute("INSERT INTO b VALUES (20)").unwrap();
    snap(&mut shadow, &mut states);
    s1.execute("COMMIT").unwrap();
    shadow.execute("INSERT INTO a VALUES (3)").unwrap();
    shadow.execute("DELETE FROM a WHERE k = 1").unwrap();
    snap(&mut shadow, &mut states);

    // Sole writer, nobody else has a frame open: ROLLBACK TO and ROLLBACK
    // still write RollbackSp / Abort records, cut at every offset below.
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO a VALUES (4)").unwrap();
    s1.execute("SAVEPOINT q").unwrap();
    s1.execute("INSERT INTO a VALUES (98)").unwrap();
    s1.execute("ROLLBACK TO q").unwrap();
    s1.execute("INSERT INTO a VALUES (5)").unwrap();
    s1.execute("COMMIT").unwrap();
    shadow.execute("INSERT INTO a VALUES (4), (5)").unwrap();
    snap(&mut shadow, &mut states);
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO a VALUES (97)").unwrap();
    s1.execute("ROLLBACK").unwrap();
    s2.execute("INSERT INTO b VALUES (30)").unwrap(); // behind the dead frame
    shadow.execute("INSERT INTO b VALUES (30)").unwrap();
    snap(&mut shadow, &mut states);

    // Trailing in-flight frame: never commits, must recover to nothing.
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO a VALUES (1000)").unwrap();
    s1.execute("DROP TABLE b").unwrap();
    std::mem::forget(s1); // crash: skip the session's abort-on-drop
    states
}

/// Truncate the transactional WAL at every byte offset and reopen: the
/// recovered state must be exactly one of the committed-prefix states —
/// in-flight and rolled-back frames leave zero trace at any crash point.
#[test]
fn every_truncation_point_recovers_a_committed_txn_prefix() {
    let dir = tmpdir("txn-truncate");
    let states = txn_workload(&dir);
    assert!(states.len() >= 7, "workload produced too few commit points");
    let full = fs::read(dir.join(WAL_FILE)).unwrap();
    assert!(full.len() > 200, "workload produced a suspiciously small WAL");

    let cut_dir = tmpdir("txn-truncate-cut");
    for cut in 0..=full.len() {
        let _ = fs::remove_dir_all(&cut_dir);
        fs::create_dir_all(&cut_dir).unwrap();
        fs::write(cut_dir.join(WAL_FILE), &full[..cut]).unwrap();
        let mut db = open(&cut_dir);
        let got = dump(&mut db);
        assert!(
            states.contains(&got),
            "cut at byte {cut}/{}: recovered {got:?} is not a committed prefix",
            full.len()
        );
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&cut_dir);
}

/// Flip a single byte at every offset: recovery must never panic and never
/// surface uncommitted or fabricated state.
#[test]
fn every_single_byte_corruption_recovers_a_committed_txn_prefix() {
    let dir = tmpdir("txn-flip");
    let states = txn_workload(&dir);
    let full = fs::read(dir.join(WAL_FILE)).unwrap();

    let flip_dir = tmpdir("txn-flip-flip");
    for pos in 0..full.len() {
        let mut bytes = full.clone();
        bytes[pos] ^= 0x41;
        let _ = fs::remove_dir_all(&flip_dir);
        fs::create_dir_all(&flip_dir).unwrap();
        fs::write(flip_dir.join(WAL_FILE), &bytes).unwrap();
        let mut db = open(&flip_dir);
        let got = dump(&mut db);
        assert!(
            states.contains(&got),
            "flip at byte {pos}/{}: recovered {got:?} is not a committed prefix",
            full.len()
        );
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&flip_dir);
}

// ---------------------------------------------------------------------------
// Checkpointing around open transactions
// ---------------------------------------------------------------------------

/// Copy the durable files (WAL + checkpoint image) into a fresh directory —
/// a point-in-time crash snapshot taken while the source stays open.
fn snapshot_dir(src: &Path, tag: &str) -> PathBuf {
    let dst = tmpdir(tag);
    fs::create_dir_all(&dst).unwrap();
    for name in [WAL_FILE, CHECKPOINT_FILE] {
        let from = src.join(name);
        if from.exists() {
            fs::copy(&from, dst.join(name)).unwrap();
        }
    }
    dst
}

#[test]
fn checkpoint_with_open_txn_serializes_committed_state_only() {
    let dir = tmpdir("ckpt-open-txn");
    let mut db = open(&dir);
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("CREATE TABLE victim (x INTEGER)").unwrap();
    db.execute("INSERT INTO victim VALUES (5)").unwrap();

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("CREATE TABLE fresh (y INTEGER)").unwrap();
    db.execute("DROP TABLE victim").unwrap();
    db.checkpoint().unwrap();

    // keep-tail checkpoint: the WAL still holds the in-flight frame.
    assert!(
        fs::metadata(dir.join(WAL_FILE)).unwrap().len() > 0,
        "checkpoint with an open transaction must keep the WAL"
    );

    // Crash before COMMIT: only committed state survives — the open
    // transaction's insert, created table, and drop all vanish.
    let before = snapshot_dir(&dir, "ckpt-open-txn-before");
    let mut rec = open(&before);
    let mut names = rec.table_names();
    names.sort();
    assert_eq!(names, vec!["t".to_string(), "victim".to_string()]);
    assert_eq!(ints(&mut rec, "SELECT k FROM t"), vec![1]);
    assert_eq!(ints(&mut rec, "SELECT x FROM victim"), vec![5]);
    drop(rec);

    // Crash after COMMIT: the kept frame replays on top of the image.
    db.execute("COMMIT").unwrap();
    let after = snapshot_dir(&dir, "ckpt-open-txn-after");
    let mut rec = open(&after);
    let mut names = rec.table_names();
    names.sort();
    assert_eq!(names, vec!["fresh".to_string(), "t".to_string()]);
    assert_eq!(ints(&mut rec, "SELECT k FROM t ORDER BY k"), vec![1, 2]);
    drop(rec);

    // The live database agrees with post-commit recovery.
    let mut names = db.table_names();
    names.sort();
    assert_eq!(names, vec!["fresh".to_string(), "t".to_string()]);
    for d in [dir, before, after] {
        let _ = fs::remove_dir_all(&d);
    }
}

// ---------------------------------------------------------------------------
// Poisoned-WAL self-healing (fault injector is debug-only)
// ---------------------------------------------------------------------------

#[cfg(debug_assertions)]
#[test]
fn poisoned_wal_heals_via_forced_checkpoint_on_next_statement() {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::{FaultInjector, FaultKind, FaultSite};

    let dir = tmpdir("poison-heal");
    let inj = FaultInjector::none();
    let mut opts = test_opts();
    opts.injector = Arc::clone(&inj);
    let mut db = Database::open_with(&dir, opts).unwrap();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    // The only truncation left outside open/checkpoint is the repair after
    // a failed append. Fail every I/O operation during ROLLBACK: the Abort
    // record's append fails, then the repair's truncate fails, and that
    // poisons the log.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    inj.arm_seeded(1, 1, FaultKind::Error);
    db.execute("ROLLBACK").unwrap();
    inj.disarm();
    assert_eq!(inj.ops(FaultSite::WalTruncate), 1, "the repair must have tried");
    assert!(db.wal_poisoned(), "failed append + failed repair must poison the log");
    // Memory already rolled back despite the poisoned log.
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);

    // The next statement self-heals: forced checkpoint, WAL reset, and the
    // statement itself succeeds.
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    assert!(!db.wal_poisoned(), "statement boundary must heal the log");
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 3]);
    drop(db);

    // And the healed state is what recovery sees.
    let mut db = open(&dir);
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 3]);
    let _ = fs::remove_dir_all(&dir);
}

/// A commit whose log can be neither written, repaired nor reset behind a
/// checkpoint must not answer with an ordinary error ("fully absent"): it
/// cannot know what a crash would recover, and says so.
#[cfg(debug_assertions)]
#[test]
fn commit_that_cannot_repair_or_heal_the_log_is_in_doubt() {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::{FaultInjector, FaultKind};

    let dir = tmpdir("commit-in-doubt");
    let inj = FaultInjector::none();
    let mut opts = test_opts();
    opts.injector = Arc::clone(&inj);
    let mut db = Database::open_with(&dir, opts).unwrap();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    inj.arm_seeded(1, 1, FaultKind::Error);
    let err = db.execute("COMMIT").unwrap_err();
    inj.disarm();
    assert!(matches!(err, Error::CommitInDoubt { .. }), "got {err:?}");
    assert!(db.wal_poisoned());
    assert!(!db.in_transaction(), "the transaction is over either way");
    assert_eq!(ints(&mut db, "SELECT k FROM t"), Vec::<i64>::new(), "memory rolled back");
    // The read above was a statement boundary: it healed the log, so the
    // outcome is now known — absent — and stays so across a reopen.
    assert!(!db.wal_poisoned());
    drop(db);
    let mut db = open(&dir);
    assert_eq!(ints(&mut db, "SELECT k FROM t"), Vec::<i64>::new());
    let _ = fs::remove_dir_all(&dir);
}

/// A crash-repair truncation while a transaction is open cuts its frame's
/// bytes. The doomed transaction's later `ROLLBACK TO` and `ROLLBACK` must
/// leave the repaired log alone (when savepoints held byte offsets, a
/// `set_len` to one past the repaired end left a zero hole that stopped
/// replay dead, losing every transaction committed after it).
#[cfg(debug_assertions)]
#[test]
fn stale_savepoint_after_wal_repair_cannot_corrupt_the_log() {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::{FaultInjector, FaultKind, FaultSite};

    let dir = tmpdir("stale-savepoint");
    let inj = FaultInjector::none();
    let mut opts = test_opts();
    opts.injector = Arc::clone(&inj);
    let shared = SharedDb::new(Database::open_with(&dir, opts).unwrap());
    let mut a = shared.session();
    let mut b = shared.session();
    a.execute("CREATE TABLE ta (k INTEGER)").unwrap();
    b.execute("CREATE TABLE tb (k INTEGER)").unwrap();

    // A's frame interleaves with B's.
    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO ta VALUES (1), (2)").unwrap();
    a.execute("SAVEPOINT sp").unwrap();
    a.execute("INSERT INTO ta VALUES (3), (4)").unwrap();
    b.execute("BEGIN").unwrap();
    b.execute("INSERT INTO tb VALUES (5)").unwrap();

    // An injected fsync failure at B's COMMIT repairs (truncates) the
    // log back to the last committed boundary, cutting A's frame bytes.
    inj.arm_nth(Some(FaultSite::WalFsync), 1, FaultKind::Error);
    let err = b.execute("COMMIT").unwrap_err();
    inj.disarm();
    assert!(matches!(err, Error::Io(_)), "got {err:?}");
    assert!(!b.in_transaction(), "failed COMMIT must abort the txn");

    // A keeps going: another statement, then a rollback to the savepoint.
    // Both succeed in memory; neither may damage the log.
    a.execute("INSERT INTO ta VALUES (9), (10)").unwrap();
    a.execute("ROLLBACK TO sp").unwrap();
    assert_eq!(session_ints(&mut a, "SELECT k FROM ta ORDER BY k"), vec![1, 2]);
    a.execute("ROLLBACK").unwrap();

    // A post-repair commit lands after A's dead frame in the log...
    b.execute("INSERT INTO tb VALUES (7)").unwrap();

    // ...and must survive a crash: replay walks past the dead frame's
    // remainder to reach it.
    let snap = snapshot_dir(&dir, "stale-savepoint-snap");
    let mut rec = open(&snap);
    assert_eq!(
        dump(&mut rec),
        vec![
            ("ta".to_string(), vec![]),
            ("tb".to_string(), vec!["[Int(7)]".to_string()]),
        ]
    );
    drop(rec);
    drop(a);
    drop(b);
    for d in [dir, snap] {
        let _ = fs::remove_dir_all(&d);
    }
}

/// The second stale-savepoint data loss (ROADMAP item 1), from plain SQL:
/// B's open frame sits on the log's tail when A sets a savepoint, B rolls
/// back, and A then logs past where B's bytes were and rolls back to the
/// savepoint. With byte-offset savepoints and B's rollback a truncation,
/// A's `ROLLBACK TO` cut the file mid-record and recovery dropped both A's
/// commit and the commit after it. Every rollback is a logical record now.
#[test]
fn foreign_rollback_between_savepoint_and_rollback_to_loses_no_commit() {
    let dir = tmpdir("foreign-rollback");
    let shared = SharedDb::new(open(&dir));
    let mut a = shared.session();
    let mut b = shared.session();
    for t in ["ta", "tb", "tc"] {
        a.execute(&format!("CREATE TABLE {t} (k INTEGER)")).unwrap();
    }

    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO ta VALUES (1)").unwrap();
    // B's auto-commit moves the committed boundary past A's bytes...
    b.execute("INSERT INTO tb VALUES (100)").unwrap();
    // ...so B's next frame is alone on the uncommitted tail.
    b.execute("BEGIN").unwrap();
    b.execute("INSERT INTO tb VALUES (200), (201)").unwrap();
    a.execute("SAVEPOINT sp").unwrap();
    b.execute("ROLLBACK").unwrap();
    for i in 0..10 {
        a.execute(&format!("INSERT INTO ta VALUES ({})", 1000 + i)).unwrap();
    }
    a.execute("ROLLBACK TO sp").unwrap();
    a.execute("INSERT INTO ta VALUES (42)").unwrap();
    a.execute("COMMIT").unwrap();
    b.execute("INSERT INTO tc VALUES (7)").unwrap();
    drop((a, b, shared));

    let mut rec = open(&dir);
    assert_eq!(
        dump(&mut rec),
        vec![
            ("ta".to_string(), vec!["[Int(1)]".to_string(), "[Int(42)]".to_string()]),
            ("tb".to_string(), vec!["[Int(100)]".to_string()]),
            ("tc".to_string(), vec!["[Int(7)]".to_string()]),
        ],
        "every acknowledged commit must survive the reopen"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Governance inside transactions
// ---------------------------------------------------------------------------

#[test]
fn cancellation_inside_txn_aborts_with_full_cleanup() {
    let dir = tmpdir("cancel-txn");
    let mut db = open(&dir);
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.arm_cancel_after_polls(Some(1));
    let err = db.execute("INSERT INTO t VALUES (3)").unwrap_err();
    db.arm_cancel_after_polls(None);
    assert!(matches!(err, Error::Cancelled), "got {err:?}");

    // Cleanup contract: transaction aborted, memory restored, no spill
    // residue, and an immediate retry of the whole transaction succeeds.
    assert!(!db.in_transaction());
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);
    assert_eq!(db.live_spill_files(), 0);
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("COMMIT").unwrap();
    drop(db);

    // No partial WAL frame: recovery sees exactly the committed rows.
    let mut db = open(&dir);
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 2]);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Concurrent writers (SharedDb / Session)
// ---------------------------------------------------------------------------

#[test]
fn sessions_on_disjoint_tables_commit_concurrently() {
    let shared = SharedDb::new(Database::new());
    shared.with(|db| {
        db.execute("CREATE TABLE a (k INTEGER)").unwrap();
        db.execute("CREATE TABLE b (k INTEGER)").unwrap();
    });
    let handles: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|table| {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let mut s = shared.session();
                for i in 0..20 {
                    s.execute("BEGIN").unwrap();
                    s.execute(&format!("INSERT INTO {table} VALUES ({i})"))
                        .unwrap();
                    s.execute("COMMIT").unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    shared.with(|db| {
        assert_eq!(db.table_row_count("a").unwrap(), 20);
        assert_eq!(db.table_row_count("b").unwrap(), 20);
    });
}

#[test]
fn conflicting_writer_gets_typed_timeout_and_retry_succeeds() {
    let shared = SharedDb::new(Database::new());
    shared.with(|db| db.execute("CREATE TABLE t (k INTEGER)").unwrap());
    shared.with(|db| db.lock_table().set_timeout_ms(50));

    let mut s1 = shared.session();
    let mut s2 = shared.session();
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO t VALUES (1)").unwrap();

    // s2 cannot take the exclusive lock while s1's transaction holds it.
    let err = s2.execute("INSERT INTO t VALUES (2)").unwrap_err();
    assert!(
        matches!(err, Error::LockTimeout { ref table, .. } if table == "t"),
        "got {err:?}"
    );
    // Readers queue behind the writer too (strict 2PL, no dirty reads).
    let err = s2.execute("SELECT * FROM t").unwrap_err();
    assert!(matches!(err, Error::LockTimeout { .. }), "got {err:?}");

    s1.execute("COMMIT").unwrap();
    // The loser's immediate retry succeeds once the winner resolves.
    s2.execute("INSERT INTO t VALUES (2)").unwrap();
    let rows = shared.with(|db| ints(db, "SELECT k FROM t ORDER BY k"));
    assert_eq!(rows, vec![1, 2]);
}

#[test]
fn lock_failure_inside_txn_aborts_it_and_releases_locks() {
    let shared = SharedDb::new(Database::new());
    shared.with(|db| {
        db.execute("CREATE TABLE a (k INTEGER)").unwrap();
        db.execute("CREATE TABLE b (k INTEGER)").unwrap();
        db.lock_table().set_timeout_ms(50);
    });

    let mut s1 = shared.session();
    let mut s2 = shared.session();
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO a VALUES (1)").unwrap();
    s2.execute("BEGIN").unwrap();
    s2.execute("INSERT INTO b VALUES (10)").unwrap();

    // s2 times out waiting for a → its whole transaction aborts and its
    // lock on b releases, so s1 can take b immediately.
    let err = s2.execute("INSERT INTO a VALUES (2)").unwrap_err();
    assert!(matches!(err, Error::LockTimeout { .. }), "got {err:?}");
    assert!(!s2.in_transaction());
    s1.execute("INSERT INTO b VALUES (20)").unwrap();
    s1.execute("COMMIT").unwrap();

    let (a, b) = shared.with(|db| {
        (
            ints(db, "SELECT k FROM a ORDER BY k"),
            ints(db, "SELECT k FROM b ORDER BY k"),
        )
    });
    assert_eq!(a, vec![1]);
    assert_eq!(b, vec![20], "s2's aborted insert must be rolled back");
}

#[test]
fn deadlock_resolves_with_typed_victim_and_retry() {
    let shared = SharedDb::new(Database::new());
    shared.with(|db| {
        db.execute("CREATE TABLE a (k INTEGER)").unwrap();
        db.execute("CREATE TABLE b (k INTEGER)").unwrap();
    });

    let mut s1 = shared.session();
    let mut s2 = shared.session();
    s1.execute("BEGIN").unwrap();
    s1.execute("INSERT INTO a VALUES (1)").unwrap();
    s2.execute("BEGIN").unwrap();
    s2.execute("INSERT INTO b VALUES (10)").unwrap();

    // s1 blocks on b in another thread; s2 then requests a, closing the
    // cycle — the youngest owner (s2) dies, s1 proceeds.
    let t1 = std::thread::spawn(move || {
        s1.execute("INSERT INTO b VALUES (2)").unwrap();
        s1.execute("COMMIT").unwrap();
    });
    let err = loop {
        match s2.execute("INSERT INTO a VALUES (11)") {
            Err(e) => break e,
            // s2 can win the race if s1 hasn't published its wait yet;
            // its lock on a then blocks s1 — resolve by finishing s2.
            Ok(_) => {
                s2.execute("COMMIT").unwrap();
                s2.execute("BEGIN").unwrap();
                s2.execute("INSERT INTO b VALUES (10)").unwrap();
            }
        }
    };
    assert!(
        matches!(err, Error::Deadlock { .. } | Error::LockTimeout { .. }),
        "got {err:?}"
    );
    assert!(!s2.in_transaction(), "the victim's transaction must abort");
    t1.join().unwrap();

    // The victim retries and succeeds.
    s2.execute("BEGIN").unwrap();
    s2.execute("INSERT INTO b VALUES (10)").unwrap();
    s2.execute("INSERT INTO a VALUES (11)").unwrap();
    s2.execute("COMMIT").unwrap();
}

/// Hammer one table from several writer threads: every statement either
/// succeeds or fails with a *typed* conflict error, every failed
/// transaction retries until it lands, and the final row count proves no
/// transaction was lost or double-applied.
#[test]
fn concurrent_writer_smoke_never_corrupts_state() {
    let shared = SharedDb::new(Database::new());
    shared.with(|db| {
        db.execute("CREATE TABLE t (w INTEGER, i INTEGER)").unwrap();
        db.lock_table().set_timeout_ms(200);
    });
    let writers = 4;
    let txns_per_writer = 10;

    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let shared = shared.clone();
            std::thread::spawn(move || {
                let mut s = shared.session();
                for i in 0..txns_per_writer {
                    loop {
                        let attempt = (|| -> Result<(), Error> {
                            s.execute("BEGIN")?;
                            s.execute(&format!(
                                "INSERT INTO t VALUES ({w}, {i})"
                            ))?;
                            s.execute(&format!(
                                "DELETE FROM t WHERE w = {w} AND i < {i}"
                            ))?;
                            s.execute("COMMIT")?;
                            Ok(())
                        })();
                        match attempt {
                            Ok(()) => break,
                            Err(
                                Error::Deadlock { .. }
                                | Error::LockTimeout { .. },
                            ) => continue, // typed conflict: retry is valid
                            Err(e) => panic!("untyped failure: {e:?}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Each writer's last transaction deleted its earlier rows: exactly one
    // row per writer survives, with the final index.
    let rows = shared.with(|db| {
        db.execute("SELECT w, i FROM t ORDER BY w")
            .unwrap()
            .into_rows()
    });
    assert_eq!(rows.len(), writers as usize);
    for (w, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Int(w as i64));
        assert_eq!(row[1], Value::Int(txns_per_writer - 1));
    }
}

#[test]
fn session_drop_aborts_its_open_transaction() {
    let shared = SharedDb::new(Database::new());
    shared.with(|db| db.execute("CREATE TABLE t (k INTEGER)").unwrap());
    {
        let mut s = shared.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
    } // dropped without COMMIT
    let mut s2 = shared.session();
    assert_eq!(
        s2.execute("SELECT * FROM t").unwrap().rows().len(),
        0,
        "a dropped session's transaction must roll back"
    );
    // Its exclusive lock is released too.
    s2.execute("INSERT INTO t VALUES (2)").unwrap();
}

#[test]
fn session_script_stops_at_first_error_with_txn_aborted() {
    let shared = SharedDb::new(Database::new());
    shared.with(|db| db.execute("CREATE TABLE t (k INTEGER)").unwrap());
    let mut s = shared.session();
    let err = s
        .execute_script(
            "BEGIN; INSERT INTO t VALUES (1); \
             SELECT * FROM missing; INSERT INTO t VALUES (2); COMMIT",
        )
        .unwrap_err();
    assert!(matches!(err, Error::Catalog(_)), "got {err:?}");
    assert!(!s.in_transaction());
    assert_eq!(s.execute("SELECT * FROM t").unwrap().rows().len(), 0);
}
