//! Multi-statement transaction integration tests: ACID semantics of
//! `BEGIN` / `COMMIT` / `ROLLBACK` / `SAVEPOINT`, crash recovery of
//! transaction-scoped WAL frames (truncation and corruption matrices over
//! a transactional workload), checkpointing around open transactions,
//! poisoned-WAL self-healing and cancellation inside a transaction.

use std::fs;
use std::path::{Path, PathBuf};

use qymera_sqldb::storage::wal::{CHECKPOINT_FILE, WAL_FILE};
use qymera_sqldb::{Database, DurabilityOptions, Error, FsyncPolicy, Value};

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
    db.execute("INSERT INTO t VALUES (0)").unwrap();
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![0, 1, 2, 3]);
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

/// `CREATE TABLE … AS` inside `BEGIN` joins the transaction. Its table
/// reaches the log only at `COMMIT`, whole: a reopen then returns its rows
/// bit for bit (`-0.0` included). A `ROLLBACK`, or a `ROLLBACK TO` a
/// savepoint set before it, leaves nothing in memory or after a reopen, and
/// a crash image taken before `COMMIT` recovers none of it.
#[test]
fn ctas_joins_the_open_transaction() {
    const CTAS: &str = "SELECT k, v FROM src WHERE (k & 3) <> 1";
    let dir = tmpdir("ctas-in-txn");
    let mut db = open(&dir);
    db.execute("CREATE TABLE src (k INTEGER, v DOUBLE)").unwrap();
    let rows = (0..3000).map(|k| vec![Value::Int(k), Value::Float(-(k as f64) / 8.0)]).collect();
    db.insert_rows("src", rows).unwrap();
    let committed = dump(&mut db);
    let clean = |db: &Database| db.budget().used() == db.table_bytes();

    db.execute("BEGIN").unwrap();
    assert_eq!(db.create_table_as("copy", CTAS).unwrap(), 2250);
    db.execute("INSERT INTO copy VALUES (-1, 0.5)").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(dump(&mut db), committed);
    assert!(clean(&db));

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO src VALUES (5000, 1.0)").unwrap();
    db.execute("SAVEPOINT before_copy").unwrap();
    db.create_table_as("copy", CTAS).unwrap();
    db.execute("INSERT INTO copy VALUES (-2, 0.25)").unwrap();
    db.execute("ROLLBACK TO before_copy").unwrap();
    assert!(!db.table_names().contains(&"copy".to_string()));
    db.execute("COMMIT").unwrap();
    assert!(clean(&db));
    let committed = dump(&mut db);
    assert!(committed.iter().all(|(name, _)| name != "copy"));
    drop(db);
    assert_eq!(dump(&mut open(&dir)), committed, "rolled back: nothing recovers");

    let mut db = open(&dir);
    db.execute("BEGIN").unwrap();
    db.create_table_as("copy", CTAS).unwrap();
    db.execute("INSERT INTO copy VALUES (-2, 0.25)").unwrap();
    let crash = snapshot_dir(&dir, "ctas-in-txn-crash");
    assert_eq!(dump(&mut open(&crash)), committed, "a crash before COMMIT");
    db.execute("COMMIT").unwrap();
    let bits = |db: &mut Database| format!("{:?}", db.execute("SELECT k, v FROM copy").unwrap().rows());
    let want = bits(&mut db);
    assert!(want.contains("Float(-0.0)"));
    drop(db);
    let mut db = open(&dir);
    assert_eq!(bits(&mut db), want, "the reopen returns the rows bit for bit");
    assert_eq!(db.table_row_count("copy").unwrap(), 2252, "2251 copied, one inserted");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crash);
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
    db.execute("INSERT INTO t VALUES (4)").unwrap();
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
/// The log contains `Abort` and `RollbackSp` records (the cases that were
/// file truncations before rollback became purely logical), a commit
/// behind a rolled-back frame, and a trailing in-flight frame.
fn txn_workload(dir: &Path) -> Vec<Vec<(String, Vec<String>)>> {
    let mut db = open(dir);
    let mut states: Vec<Vec<(String, Vec<String>)>> = Vec::new();
    // The shadow replays only what has committed, at commit time.
    let mut shadow = Database::new();
    let snap = |shadow: &mut Database, states: &mut Vec<_>| {
        states.push(dump(shadow));
    };
    snap(&mut shadow, &mut states); // empty database

    db.execute("CREATE TABLE a (k INTEGER)").unwrap();
    shadow.execute("CREATE TABLE a (k INTEGER)").unwrap();
    snap(&mut shadow, &mut states);
    db.execute("CREATE TABLE b (k INTEGER)").unwrap();
    shadow.execute("CREATE TABLE b (k INTEGER)").unwrap();
    snap(&mut shadow, &mut states);

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO a VALUES (1)").unwrap();
    db.execute("INSERT INTO a VALUES (2)").unwrap();
    db.execute("COMMIT").unwrap();
    shadow.execute("INSERT INTO a VALUES (1)").unwrap();
    shadow.execute("INSERT INTO a VALUES (2)").unwrap();
    snap(&mut shadow, &mut states);

    // ROLLBACK → Abort record.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO b VALUES (10)").unwrap();
    db.execute("ROLLBACK").unwrap();

    // Savepoint rollback → RollbackSp record.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO a VALUES (3)").unwrap();
    db.execute("SAVEPOINT sp").unwrap();
    db.execute("INSERT INTO a VALUES (99)").unwrap();
    db.execute("ROLLBACK TO sp").unwrap();
    db.execute("INSERT INTO a VALUES (7)").unwrap();
    db.execute("COMMIT").unwrap();
    shadow.execute("INSERT INTO a VALUES (3)").unwrap();
    shadow.execute("INSERT INTO a VALUES (7)").unwrap();
    snap(&mut shadow, &mut states);
    db.execute("INSERT INTO b VALUES (20)").unwrap();
    shadow.execute("INSERT INTO b VALUES (20)").unwrap();
    snap(&mut shadow, &mut states);

    // A savepoint rewound mid-frame, then more ops and the commit.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO a VALUES (4)").unwrap();
    db.execute("SAVEPOINT q").unwrap();
    db.execute("INSERT INTO a VALUES (98)").unwrap();
    db.execute("ROLLBACK TO q").unwrap();
    db.execute("INSERT INTO a VALUES (5)").unwrap();
    db.execute("COMMIT").unwrap();
    shadow.execute("INSERT INTO a VALUES (4), (5)").unwrap();
    snap(&mut shadow, &mut states);
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO a VALUES (97)").unwrap();
    db.execute("ROLLBACK").unwrap();
    db.execute("INSERT INTO b VALUES (30)").unwrap(); // behind the dead frame
    shadow.execute("INSERT INTO b VALUES (30)").unwrap();
    snap(&mut shadow, &mut states);

    // Trailing in-flight frame: never commits, must recover to nothing.
    // A `Database` has no abort-on-drop, so dropping it here is the crash.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO a VALUES (1000)").unwrap();
    db.execute("DROP TABLE b").unwrap();
    drop(db);
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
    db.execute("CREATE TABLE remade (k INTEGER)").unwrap();
    db.execute("INSERT INTO remade VALUES (3)").unwrap();

    // The image holds each table as it was before the transaction,
    // whatever the transaction did to it: written then dropped, or
    // dropped and created again with other columns.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("CREATE TABLE fresh (y INTEGER)").unwrap();
    db.execute("INSERT INTO victim VALUES (6)").unwrap();
    db.execute("DROP TABLE victim").unwrap();
    db.execute("DROP TABLE remade").unwrap();
    db.execute("CREATE TABLE remade (name TEXT, k INTEGER)").unwrap();
    db.execute("INSERT INTO remade VALUES ('x', 4)").unwrap();
    db.checkpoint().unwrap();

    // keep-tail checkpoint: the WAL still holds the in-flight frame.
    assert!(
        fs::metadata(dir.join(WAL_FILE)).unwrap().len() > 0,
        "checkpoint with an open transaction must keep the WAL"
    );

    // Crash before COMMIT: only committed state survives — the open
    // transaction's inserts, created tables, and drops all vanish.
    let before = snapshot_dir(&dir, "ckpt-open-txn-before");
    let mut rec = open(&before);
    let mut names = rec.table_names();
    names.sort();
    assert_eq!(names, vec!["remade".to_string(), "t".to_string(), "victim".to_string()]);
    assert_eq!(ints(&mut rec, "SELECT k FROM t"), vec![1]);
    assert_eq!(ints(&mut rec, "SELECT x FROM victim"), vec![5]);
    assert_eq!(ints(&mut rec, "SELECT * FROM remade"), vec![3]);
    drop(rec);

    // Crash after COMMIT: the kept frame replays on top of the image.
    db.execute("COMMIT").unwrap();
    let after = snapshot_dir(&dir, "ckpt-open-txn-after");
    let mut rec = open(&after);
    let mut names = rec.table_names();
    names.sort();
    assert_eq!(names, vec!["fresh".to_string(), "remade".to_string(), "t".to_string()]);
    assert_eq!(ints(&mut rec, "SELECT k FROM t ORDER BY k"), vec![1, 2]);
    assert_eq!(ints(&mut rec, "SELECT k FROM remade"), vec![4]);
    drop(rec);

    // The live database agrees with post-commit recovery.
    let mut names = db.table_names();
    names.sort();
    assert_eq!(names, vec!["fresh".to_string(), "remade".to_string(), "t".to_string()]);
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

/// A failed append inside a transaction repairs (truncates) the log back
/// to the last committed boundary, cutting the transaction's frame, and
/// aborts the transaction. The doomed transaction's abort must leave the
/// repaired log alone, and a commit after it must survive a crash.
#[cfg(debug_assertions)]
#[test]
fn wal_repair_inside_a_txn_leaves_the_log_at_the_committed_boundary() {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::{FaultInjector, FaultKind, FaultSite};

    let dir = tmpdir("repair-in-txn");
    let inj = FaultInjector::none();
    let mut opts = test_opts();
    opts.injector = Arc::clone(&inj);
    let mut db = Database::open_with(&dir, opts).unwrap();
    db.execute("CREATE TABLE ta (k INTEGER)").unwrap();
    db.execute("CREATE TABLE tb (k INTEGER)").unwrap();
    let committed = fs::metadata(dir.join(WAL_FILE)).unwrap().len();

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO ta VALUES (1), (2)").unwrap();
    db.execute("SAVEPOINT sp").unwrap();
    db.execute("INSERT INTO ta VALUES (3), (4)").unwrap();

    // Half of the next record lands, then the append fails: the repair
    // truncates the torn record and the frame before it.
    inj.arm_nth(Some(FaultSite::WalAppend), 1, FaultKind::Torn);
    let err = db.execute("INSERT INTO ta VALUES (9), (10)").unwrap_err();
    inj.disarm();
    assert!(matches!(err, Error::Io(_)), "got {err:?}");
    assert!(!db.in_transaction(), "a failed statement must abort the txn");
    assert_eq!(ints(&mut db, "SELECT k FROM ta"), Vec::<i64>::new());
    assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), committed);

    // A post-repair commit must survive a crash.
    db.execute("INSERT INTO tb VALUES (7)").unwrap();
    let snap = snapshot_dir(&dir, "repair-in-txn-snap");
    let mut rec = open(&snap);
    assert_eq!(
        dump(&mut rec),
        vec![
            ("ta".to_string(), vec![]),
            ("tb".to_string(), vec!["[Int(7)]".to_string()]),
        ]
    );
    drop(rec);
    drop(db);
    for d in [dir, snap] {
        let _ = fs::remove_dir_all(&d);
    }
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
