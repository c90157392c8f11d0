//! Multi-statement transaction integration tests: ACID semantics of
//! `BEGIN` / `COMMIT` / `ROLLBACK` / `SAVEPOINT`, the write rule (nothing
//! of an open transaction reaches the log; `COMMIT` writes its frame),
//! crash recovery of transaction frames (truncation and corruption
//! matrices over a transactional workload), checkpointing around open
//! transactions, poisoned-WAL self-healing and cancellation inside a
//! transaction.

use std::fs;
use std::path::{Path, PathBuf};

use qymera_sqldb::storage::wal::{CHECKPOINT_FILE, WAL_FILE};
use qymera_sqldb::{Database, DurabilityOptions, Error, Value};

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
        checkpoint_every_bytes: 0,
        ..DurabilityOptions::default()
    }
}

fn open(dir: &Path) -> Database {
    Database::open_with(dir, test_opts()).unwrap()
}

/// A `SELECT` of every column of `name`, in table order.
fn select_all(db: &Database, name: &str) -> String {
    let cols: Vec<&str> =
        db.table_columns(name).unwrap().iter().map(|(c, _)| c.as_str()).collect();
    format!("SELECT {} FROM {name}", cols.join(", "))
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
                .execute(&select_all(db, &name))
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
    let err = db.execute("SELECT k FROM no_such_table").unwrap_err();
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
    // The join keeps the rows whose `(k + 3) & 3` is 1, 2 or 3.
    const CTAS: &str = "SELECT k, v FROM src JOIN keep ON keep.m = ((k + 3) & 3)";
    let dir = tmpdir("ctas-in-txn");
    let mut db = open(&dir);
    db.execute("CREATE TABLE src (k INTEGER, v DOUBLE)").unwrap();
    let rows = (0..3000).map(|k| vec![Value::Int(k), Value::Float(-(k as f64) / 8.0)]).collect();
    db.insert_rows("src", rows).unwrap();
    db.execute("CREATE TABLE keep (m INTEGER)").unwrap();
    db.execute("INSERT INTO keep VALUES (1), (2), (3)").unwrap();
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
fn rolled_back_txn_leaves_zero_recovered_trace_and_no_log_bytes() {
    let dir = tmpdir("residue-rollback");
    let mut db = open(&dir);
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    // A rollback is in-memory undo: the log holds nothing of the
    // transaction, so there is nothing to mark dead.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    db.execute("INSERT INTO t VALUES (4)").unwrap();
    let before = fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(
        fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        before,
        "rollback must write nothing"
    );
    assert_eq!(ints(&mut db, "SELECT k FROM t"), vec![1]);

    // A commit after it recovers with no trace of the rolled-back
    // statements.
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    drop(db);
    let mut db = open(&dir);
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 3]);
    let _ = fs::remove_dir_all(&dir);
}

/// A workload that only ever rolls back never grows the log.
#[test]
fn rollback_only_workload_never_grows_the_log() {
    let dir = tmpdir("rollback-only");
    let mut db = open(&dir);
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let expected = dump(&mut db);
    let len = fs::metadata(dir.join(WAL_FILE)).unwrap().len();

    for i in 0..100 {
        db.execute("BEGIN").unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        db.execute("SAVEPOINT sp").unwrap();
        db.execute("DROP TABLE t").unwrap();
        db.execute("ROLLBACK TO sp").unwrap();
        db.execute("ROLLBACK").unwrap();
        assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), len, "iteration {i}");
    }
    assert_eq!(dump(&mut db), expected);
    drop(db);
    let mut db = open(&dir);
    assert_eq!(dump(&mut db), expected, "recovery must see the pre-loop state");
    let _ = fs::remove_dir_all(&dir);
}

/// `COMMIT` is the only writer of the log. Inside one transaction: an
/// append to a committed table, a committed table dropped and created
/// again, a savepoint rolled back to, and a `CREATE TABLE … AS` — the log
/// keeps its length throughout, a crash recovers the state before `BEGIN`,
/// and after `COMMIT` recovery sees exactly what the transaction left.
#[test]
fn nothing_of_an_open_transaction_reaches_the_log() {
    let dir = tmpdir("nothing-open");
    let mut db = open(&dir);
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("CREATE TABLE remade (k INTEGER)").unwrap();
    db.execute("INSERT INTO remade VALUES (2)").unwrap();
    db.execute("CREATE TABLE src (k INTEGER)").unwrap();
    db.execute("INSERT INTO src VALUES (5), (6)").unwrap();
    let wal_len = || fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    let committed = wal_len();
    let before = dump(&mut db);

    db.execute("BEGIN").unwrap();
    for st in [
        "INSERT INTO t VALUES (3)",
        "DROP TABLE remade",
        "CREATE TABLE remade (name TEXT)",
        "INSERT INTO remade VALUES ('x')",
        "SAVEPOINT sp",
        "INSERT INTO t VALUES (99)",
        "DROP TABLE src",
        "ROLLBACK TO sp",
        "INSERT INTO t VALUES (4)",
    ] {
        db.execute(st).unwrap();
        assert_eq!(wal_len(), committed, "after `{st}`");
    }
    assert_eq!(db.create_table_as("copy", "SELECT k FROM src").unwrap(), 2);
    assert_eq!(wal_len(), committed, "after the CTAS");
    let crashed = snapshot_dir(&dir, "nothing-open-before");
    assert_eq!(dump(&mut open(&crashed)), before, "a crash before COMMIT");

    let inside = dump(&mut db);
    db.execute("COMMIT").unwrap();
    assert!(wal_len() > committed, "COMMIT writes the frame");
    let committed_dir = snapshot_dir(&dir, "nothing-open-after");
    assert_eq!(dump(&mut open(&committed_dir)), inside, "a crash after COMMIT");
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 3, 4]);

    // ROLLBACK writes 0 bytes, whatever the transaction did.
    let committed = wal_len();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    db.execute("DROP TABLE copy").unwrap();
    db.create_table_as("more", "SELECT k FROM t").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(wal_len(), committed, "ROLLBACK");
    assert_eq!(dump(&mut db), inside);
    drop(db);
    assert_eq!(dump(&mut open(&dir)), inside, "reopened");
    for d in [dir, crashed, committed_dir] {
        let _ = fs::remove_dir_all(&d);
    }
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

/// Build a WAL of transaction frames in every ordering `COMMIT` derives
/// one from, returning the set of dumps recovery is allowed to produce
/// (the state after each commit boundary, in commit order).
///
/// The frames are written by transactions that rolled back to savepoints
/// (before and after appending), dropped a committed table and created it
/// again, and committed after a rolled-back transaction; a trailing
/// in-flight transaction leaves nothing in the log.
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

    // A rollback writes nothing.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO b VALUES (10)").unwrap();
    db.execute("ROLLBACK").unwrap();

    // A savepoint rolled back to: the frame holds the rows that are left.
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
    db.execute("INSERT INTO b VALUES (30)").unwrap();
    shadow.execute("INSERT INTO b VALUES (30)").unwrap();
    snap(&mut shadow, &mut states);

    // Drop then re-create: the frame drops the committed table, then
    // creates the new one whole; the rows appended before the drop are not
    // in it.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO b VALUES (40)").unwrap();
    db.execute("DROP TABLE b").unwrap();
    db.execute("CREATE TABLE b (k INTEGER, tag TEXT)").unwrap();
    db.execute("INSERT INTO b VALUES (41, 'x')").unwrap();
    db.execute("COMMIT").unwrap();
    shadow.execute("DROP TABLE b").unwrap();
    shadow.execute("CREATE TABLE b (k INTEGER, tag TEXT)").unwrap();
    shadow.execute("INSERT INTO b VALUES (41, 'x')").unwrap();
    snap(&mut shadow, &mut states);

    // Appends after a savepoint: the first one rolled back, so the rows
    // are those past the count of the oldest append left.
    db.execute("BEGIN").unwrap();
    db.execute("SAVEPOINT s").unwrap();
    db.execute("INSERT INTO a VALUES (96)").unwrap();
    db.execute("ROLLBACK TO s").unwrap();
    db.execute("INSERT INTO a VALUES (8)").unwrap();
    db.execute("SAVEPOINT t").unwrap();
    db.execute("INSERT INTO a VALUES (9)").unwrap();
    db.execute("INSERT INTO b VALUES (42, 'y')").unwrap();
    db.execute("COMMIT").unwrap();
    shadow.execute("INSERT INTO a VALUES (8), (9)").unwrap();
    shadow.execute("INSERT INTO b VALUES (42, 'y')").unwrap();
    snap(&mut shadow, &mut states);

    // Trailing in-flight transaction: never commits, never reaches the
    // log. A `Database` has no abort-on-drop, so dropping it here is the
    // crash.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO a VALUES (1000)").unwrap();
    db.execute("DROP TABLE b").unwrap();
    drop(db);
    states
}

/// Truncate the transactional WAL at every byte offset and reopen: the
/// recovered state must be exactly one of the committed-prefix states — a
/// frame cut short leaves zero trace at any crash point.
#[test]
fn every_truncation_point_recovers_a_committed_txn_prefix() {
    let dir = tmpdir("txn-truncate");
    let states = txn_workload(&dir);
    assert!(states.len() >= 9, "workload produced too few commit points");
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

    // The log holds nothing of the open transaction: the checkpoint
    // truncates it.
    assert_eq!(
        fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        0,
        "checkpoint with an open transaction must empty the WAL"
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
    assert_eq!(ints(&mut rec, "SELECT k FROM remade"), vec![3]);
    drop(rec);

    // Crash after COMMIT: the frame it wrote replays on top of the image.
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

    // COMMIT writes `Begin`, `Insert`, `Commit`. The `Insert`'s append
    // fails, then the repair's truncate fails too: the log is poisoned,
    // with no `Commit` record on disk, so the answer is an ordinary error.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let appends = inj.ops(FaultSite::WalAppend);
    inj.arm_sites(&[(FaultSite::WalAppend, 2), (FaultSite::WalTruncate, 1)], FaultKind::Error);
    let err = db.execute("COMMIT").unwrap_err();
    inj.disarm();
    assert!(matches!(err, Error::Io(ref m) if m.contains("WalAppend")), "got {err:?}");
    assert_eq!(inj.ops(FaultSite::WalAppend), appends + 2, "Begin, then the failed Insert");
    assert_eq!(inj.ops(FaultSite::WalTruncate), 1, "the repair must have tried");
    assert!(db.wal_poisoned(), "failed append + failed repair must poison the log");
    assert!(!db.in_transaction(), "a failed COMMIT ends the transaction");

    // The next statement self-heals: forced checkpoint, WAL reset, and the
    // statement itself succeeds. Memory was rolled back despite the
    // poisoned log.
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    assert!(!db.wal_poisoned(), "statement boundary must heal the log");
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 3]);
    drop(db);

    // And the healed state is what recovery sees.
    let mut db = open(&dir);
    assert_eq!(ints(&mut db, "SELECT k FROM t ORDER BY k"), vec![1, 3]);
    let _ = fs::remove_dir_all(&dir);
}

/// A commit whose `Commit` record can be neither written, repaired nor
/// reset behind a checkpoint must not answer with an ordinary error
/// ("fully absent"): it cannot know what a crash would recover, and says
/// so. (Every I/O failing from the frame's first record on is an ordinary
/// error: no `Commit` record can be on disk.)
#[cfg(debug_assertions)]
#[test]
fn commit_that_cannot_repair_or_heal_the_log_is_in_doubt() {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::{FaultInjector, FaultKind, FaultSite};

    let dir = tmpdir("commit-in-doubt");
    let inj = FaultInjector::none();
    let mut opts = test_opts();
    opts.injector = Arc::clone(&inj);
    let mut db = Database::open_with(&dir, opts).unwrap();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    // The frame is `Begin`, `Insert`, `Commit`: the `Commit` append fails,
    // then the repair's truncate and the healing checkpoint's write.
    let faults = [
        (FaultSite::WalAppend, 3),
        (FaultSite::WalTruncate, 1),
        (FaultSite::CheckpointWrite, 1),
    ];
    inj.arm_sites(&faults, FaultKind::Error);
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

/// A failed append while `COMMIT` writes the frame repairs (truncates) the
/// log back to the last committed boundary, cutting the frame, and aborts
/// the transaction; a commit after it must survive a crash.
#[cfg(debug_assertions)]
#[test]
fn wal_repair_at_commit_leaves_the_log_at_the_committed_boundary() {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::{FaultInjector, FaultKind, FaultSite};

    let dir = tmpdir("repair-at-commit");
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
    db.execute("CREATE TABLE tc (k INTEGER)").unwrap();

    // The frame is `Begin`, `Insert` (ta), `CreateTable` (tc), `Commit`:
    // half of the `CreateTable` lands, then the append fails, and the
    // repair truncates the torn record and the frame before it.
    inj.arm_nth(Some(FaultSite::WalAppend), 3, FaultKind::Torn);
    let err = db.execute("COMMIT").unwrap_err();
    inj.disarm();
    assert!(matches!(err, Error::Io(_)), "got {err:?}");
    assert!(!db.in_transaction(), "a failed COMMIT must abort the txn");
    assert_eq!(ints(&mut db, "SELECT k FROM ta"), Vec::<i64>::new());
    assert_eq!(db.table_names().len(), 2, "tc is gone again");
    assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), committed);

    // A post-repair commit must survive a crash.
    db.execute("INSERT INTO tb VALUES (7)").unwrap();
    let snap = snapshot_dir(&dir, "repair-at-commit-snap");
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

/// README.md's transaction block runs as written — one `execute` call per
/// statement (the `;` there separates statements for the reader), nothing
/// stripped, so documentation SQL cannot use a form the engine refuses —
/// on a durable database, which reopens holding the two committed rows.
#[test]
fn readme_transaction_block_commits_as_documented() {
    let readme = include_str!("../../../README.md");
    let blocks: Vec<&str> = readme.split("```sql\n").skip(1).collect();
    assert_eq!(blocks.len(), 1, "README.md has one sql block, the transaction example");
    let dir = tmpdir("readme");
    let mut db = open(&dir);
    for sql in blocks[0].split("```").next().unwrap().split(';').map(str::trim) {
        if !sql.is_empty() {
            db.execute(sql).unwrap_or_else(|e| panic!("README: `{sql}`: {e}"));
        }
    }
    assert!(!db.in_transaction(), "the README block leaves a transaction open");
    drop(db);

    let mut db = open(&dir);
    let rs = db.execute("SELECT s, r, i FROM amps ORDER BY s").unwrap();
    // The README's `0.7071`, as the lexer reads it (both round correctly).
    let amp = |s| vec![Value::Int(s), Value::Float(7071.0 / 10_000.0), Value::Float(0.0)];
    assert_eq!(rs.rows(), [amp(0), amp(7)]);
    let _ = fs::remove_dir_all(&dir);
}
