//! Durability integration tests: persistence across reopen, checkpointing,
//! torn/corrupted WAL tails, and the crash matrix — for every fault
//! injection point on the WAL/checkpoint paths, kill the database at that
//! exact operation, reopen, and check the recovered state equals exactly
//! the acknowledged (committed) statement prefix.
//!
//! The fault injector is compiled out in release builds, so the injector-
//! driven tests are gated on `debug_assertions`; the plain persistence and
//! byte-level corruption tests run in every profile.

use std::fs;
use std::path::{Path, PathBuf};

use qymera_sqldb::storage::fault::{FaultKind, FaultSite, ALL_FAULT_SITES};
use qymera_sqldb::storage::wal::{CHECKPOINT_FILE, WAL_FILE};
use qymera_sqldb::{Database, DurabilityOptions, FsyncPolicy, Value};

/// Fresh scratch directory for one test (removed on entry, not on exit, so
/// a failing test leaves its evidence behind).
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("qymera-durability-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Options pinned for tests: per-commit fsync,
/// no auto-checkpoint (tests trigger checkpoints explicitly).
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

/// Deterministic dump of the full database: every table's name, schema,
/// and rows (sorted bytewise so physical chunk order doesn't matter).
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

#[test]
fn persists_across_reopen() {
    let dir = tmpdir("basic");
    {
        let mut db = open(&dir);
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')").unwrap();
        db.execute("DELETE FROM t WHERE k = 2").unwrap();
        db.execute("CREATE TABLE gone (x INTEGER)").unwrap();
        db.execute("DROP TABLE gone").unwrap();
    }
    let mut db = open(&dir);
    assert_eq!(db.table_names(), vec!["t".to_string()]);
    let rs = db.execute("SELECT k, v FROM t ORDER BY k").unwrap();
    assert_eq!(
        rs.rows(),
        &[
            vec![Value::Int(1), Value::Str("one".into())],
            vec![Value::Int(3), Value::Str("three".into())],
        ]
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_wal_and_recovers() {
    let dir = tmpdir("checkpoint");
    {
        let mut db = open(&dir);
        db.execute("CREATE TABLE t (k INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.checkpoint().unwrap();
        assert_eq!(
            fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            0,
            "checkpoint must truncate the WAL behind it"
        );
        db.execute("INSERT INTO t VALUES (3)").unwrap();
    }
    // Recovery = checkpoint image + post-checkpoint WAL frames.
    let mut db = open(&dir);
    let rs = db.execute("SELECT k FROM t ORDER BY k").unwrap();
    assert_eq!(
        rs.rows(),
        &[vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reopen_is_idempotent() {
    let dir = tmpdir("idempotent");
    let expected = {
        let mut db = open(&dir);
        db.execute("CREATE TABLE t (k INTEGER, v DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 0.5), (2, 0.25)").unwrap();
        db.execute("DELETE FROM t WHERE k = 1").unwrap();
        dump(&mut db)
    };
    // Reopening replays the same WAL; doing it repeatedly (without a
    // checkpoint ever running) must not duplicate or lose anything.
    for _ in 0..3 {
        let mut db = open(&dir);
        assert_eq!(dump(&mut db), expected);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_tail_is_tolerated() {
    let dir = tmpdir("garbage-tail");
    let expected = {
        let mut db = open(&dir);
        db.execute("CREATE TABLE t (k INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (10), (20)").unwrap();
        dump(&mut db)
    };
    // A crash can leave arbitrary bytes past the last committed frame.
    let wal = dir.join(WAL_FILE);
    let mut bytes = fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xAB; 37]);
    fs::write(&wal, &bytes).unwrap();
    let mut db = open(&dir);
    assert_eq!(dump(&mut db), expected);
    let _ = fs::remove_dir_all(&dir);
}

/// Truncate the WAL at *every byte offset* and reopen: recovery must always
/// succeed and always yield a prefix of the committed statements — never an
/// error, never a partial statement.
#[test]
fn every_truncation_point_recovers_a_committed_prefix() {
    let dir = tmpdir("truncate-matrix");
    let inserts = 5i64;
    {
        let mut db = open(&dir);
        db.execute("CREATE TABLE t (k INTEGER)").unwrap();
        for k in 1..=inserts {
            db.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
        }
    }
    let full = fs::read(dir.join(WAL_FILE)).unwrap();
    let cut_dir = tmpdir("truncate-matrix-cut");
    for cut in 0..=full.len() {
        let _ = fs::remove_dir_all(&cut_dir);
        fs::create_dir_all(&cut_dir).unwrap();
        fs::write(cut_dir.join(WAL_FILE), &full[..cut]).unwrap();
        let mut db = open(&cut_dir);
        match db.table_names().as_slice() {
            // Cut before the CREATE committed: empty database.
            [] => {}
            [t] => {
                assert_eq!(t, "t");
                let rows = db.execute("SELECT k FROM t ORDER BY k").unwrap().into_rows();
                let recovered: Vec<i64> = rows
                    .iter()
                    .map(|r| match r[0] {
                        Value::Int(k) => k,
                        ref v => panic!("unexpected value {v:?}"),
                    })
                    .collect();
                let prefix: Vec<i64> = (1..=recovered.len() as i64).collect();
                assert_eq!(
                    recovered, prefix,
                    "cut at byte {cut}: rows must be a committed prefix"
                );
            }
            other => panic!("cut at byte {cut}: unexpected tables {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&cut_dir);
}

/// Flip a single byte at every offset of the WAL: recovery must never
/// panic and never fabricate rows — every outcome is a committed prefix
/// (checksums catch payload damage; length-field damage reads as a torn
/// tail).
#[test]
fn every_single_byte_corruption_recovers_a_prefix() {
    let dir = tmpdir("flip-matrix");
    let inserts = 4i64;
    {
        let mut db = open(&dir);
        db.execute("CREATE TABLE t (k INTEGER)").unwrap();
        for k in 1..=inserts {
            db.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
        }
    }
    let full = fs::read(dir.join(WAL_FILE)).unwrap();
    let flip_dir = tmpdir("flip-matrix-flip");
    for pos in 0..full.len() {
        let mut bytes = full.clone();
        bytes[pos] ^= 0x41;
        let _ = fs::remove_dir_all(&flip_dir);
        fs::create_dir_all(&flip_dir).unwrap();
        fs::write(flip_dir.join(WAL_FILE), &bytes).unwrap();
        let mut db = open(&flip_dir);
        if db.table_names().is_empty() {
            continue; // corruption hit the CREATE frame
        }
        let rows = db.execute("SELECT k FROM t ORDER BY k").unwrap().into_rows();
        let recovered: Vec<i64> = rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(k) => k,
                ref v => panic!("unexpected value {v:?}"),
            })
            .collect();
        let prefix: Vec<i64> = (1..=recovered.len() as i64).collect();
        assert_eq!(recovered, prefix, "flip at byte {pos}: not a committed prefix");
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&flip_dir);
}

/// A corrupted checkpoint image is a hard, typed error — unlike a torn WAL
/// tail it replaces state instead of appending, so no part of it can be
/// trusted.
#[test]
fn corrupted_checkpoint_is_a_hard_error() {
    let dir = tmpdir("bad-checkpoint");
    {
        let mut db = open(&dir);
        db.execute("CREATE TABLE t (k INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.checkpoint().unwrap();
    }
    let ckpt = dir.join(CHECKPOINT_FILE);
    let mut bytes = fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&ckpt, &bytes).unwrap();
    let err = match Database::open_with(&dir, test_opts()) {
        Err(e) => e,
        Ok(_) => panic!("opening a corrupted checkpoint must fail"),
    };
    assert!(
        matches!(err, qymera_sqldb::Error::Io(ref m) if m.contains("checksum") || m.contains("magic")),
        "expected a typed checkpoint-corruption error, got {err:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Crash matrix (fault injector is debug-only)
// ---------------------------------------------------------------------------

/// The crash-matrix workload: a fixed statement sequence covering every
/// logged operation (CREATE/INSERT/DELETE/DROP) with an explicit
/// checkpoint in the middle, so WAL *and* checkpoint I/O sites all see
/// traffic. Each entry either runs SQL or checkpoints.
#[cfg(debug_assertions)]
const WORKLOAD: &[&str] = &[
    "CREATE TABLE t (k INTEGER, v TEXT)",
    "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
    "INSERT INTO t VALUES (3, 'c')",
    "DELETE FROM t WHERE k = 2",
    "CREATE TABLE u (x INTEGER)",
    "INSERT INTO u VALUES (10)",
    "<checkpoint>",
    "INSERT INTO t VALUES (4, 'd')",
    "DROP TABLE u",
    "INSERT INTO t VALUES (5, 'e')",
];

/// Run the workload against a durable database until the first error (the
/// simulated crash point), mirroring every acknowledged statement into an
/// in-memory shadow database. Returns the shadow's state dump — the exact
/// state recovery must reproduce.
#[cfg(debug_assertions)]
fn run_until_crash(db: &mut Database) -> Vec<(String, Vec<String>)> {
    let mut shadow = Database::new();
    for step in WORKLOAD {
        let result = if *step == "<checkpoint>" {
            db.checkpoint().map(|_| ())
        } else {
            db.execute(step).map(|_| ())
        };
        match result {
            Ok(()) => {
                if *step != "<checkpoint>" {
                    shadow.execute(step).unwrap();
                }
            }
            Err(_) => break, // crash: everything acknowledged so far must survive
        }
    }
    dump(&mut shadow)
}

/// For every fault site and every operation index observed at that site,
/// inject a failure at exactly that operation, treat the resulting error as
/// a crash, reopen the database, and require the recovered state to equal
/// the acknowledged-statement prefix.
#[cfg(debug_assertions)]
fn crash_matrix(kind: FaultKind) {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::FaultInjector;

    // Counting pass: quiescent injector, learn how many ops each site sees.
    let count_dir = tmpdir(&format!("matrix-count-{kind:?}"));
    let injector = FaultInjector::none();
    let mut opts = test_opts();
    opts.injector = Arc::clone(&injector);
    let mut db = Database::open_with(&count_dir, opts).unwrap();
    let clean_state = run_until_crash(&mut db);
    drop(db);
    {
        // Sanity: the clean pass must reach the end of the workload.
        let mut reopened = open(&count_dir);
        assert_eq!(dump(&mut reopened), clean_state);
    }
    let _ = fs::remove_dir_all(&count_dir);

    let mut cases = 0u64;
    for site in ALL_FAULT_SITES {
        let ops = injector.ops(site);
        for nth in 1..=ops {
            let dir = tmpdir(&format!("matrix-{kind:?}-{site:?}-{nth}"));
            let inj = FaultInjector::none();
            inj.arm_nth(Some(site), nth, kind);
            let mut opts = test_opts();
            opts.injector = Arc::clone(&inj);
            let mut db = match Database::open_with(&dir, opts) {
                Ok(db) => db,
                // The fault can fire inside open() itself (e.g. the very
                // first WAL operation); the directory holds nothing yet, so
                // there is nothing to verify.
                Err(_) => {
                    let _ = fs::remove_dir_all(&dir);
                    continue;
                }
            };
            let acked = run_until_crash(&mut db);
            drop(db);

            let mut recovered = open(&dir);
            assert_eq!(
                dump(&mut recovered),
                acked,
                "{kind:?} fault at {site:?} op {nth}: recovered state \
                 diverges from the acknowledged prefix"
            );
            cases += 1;
            let _ = fs::remove_dir_all(&dir);
        }
    }
    assert!(cases > 20, "crash matrix ran only {cases} cases — workload too small?");
    // The workload never spills, so the spill sites must be quiet — the
    // dedicated spill fault tests live in fault_injection.rs.
    assert_eq!(injector.ops(FaultSite::SpillWrite), 0);
    assert_eq!(injector.ops(FaultSite::SpillRead), 0);
}

#[cfg(debug_assertions)]
#[test]
fn crash_matrix_clean_faults() {
    crash_matrix(FaultKind::Error);
}

#[cfg(debug_assertions)]
#[test]
fn crash_matrix_torn_writes() {
    crash_matrix(FaultKind::Torn);
}

/// `CREATE TABLE … AS` over a filter, so every batch arrives ragged and the
/// copy spans several chunks: its frame is a `CreateTable` and one `Insert`
/// block per batch. Kill the statement at every I/O step of that frame,
/// clean and torn, and reopen: the copy is there with every row or not
/// there at all, and an acknowledged CTAS is never the one that is missing.
#[cfg(debug_assertions)]
#[test]
fn crash_matrix_over_a_ragged_multi_chunk_ctas() {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::FaultInjector;

    const CTAS: &str = "SELECT k, v FROM src WHERE (k & 3) <> 1";
    let setup = |dir: &Path, inj: &Arc<FaultInjector>| {
        let mut opts = test_opts();
        opts.injector = Arc::clone(inj);
        let mut db = Database::open_with(dir, opts).unwrap();
        db.execute("CREATE TABLE src (k INTEGER, v DOUBLE)").unwrap();
        let rows = (0..3000).map(|k| vec![Value::Int(k), Value::Float(k as f64 / 8.0)]).collect();
        db.insert_rows("src", rows).unwrap();
        db
    };
    let copy_of = |db: &mut Database| -> Option<Vec<Vec<Value>>> {
        let there = db.table_names().iter().any(|n| n == "copy");
        there.then(|| db.execute("SELECT k, v FROM copy").unwrap().into_rows())
    };

    // Counting pass: what the CTAS alone does at each site, and its result.
    let dir = tmpdir("ctas-matrix-count");
    let inj = FaultInjector::none();
    let mut db = setup(&dir, &inj);
    inj.reset_counts();
    assert_eq!(db.create_table_as("copy", CTAS).unwrap(), 2250);
    let ops: Vec<(FaultSite, u64)> = ALL_FAULT_SITES.iter().map(|&s| (s, inj.ops(s))).collect();
    let whole = copy_of(&mut db).unwrap();
    assert_eq!(whole.len(), 2250);
    drop(db);
    assert_eq!(copy_of(&mut open(&dir)).as_ref(), Some(&whole), "the clean run recovers");
    let appends = ops.iter().find(|(s, _)| *s == FaultSite::WalAppend).unwrap().1;
    assert!(appends >= 6, "Begin, CreateTable, three or more Insert blocks, Commit: {appends}");
    let _ = fs::remove_dir_all(&dir);

    let mut cases = 0;
    for kind in [FaultKind::Error, FaultKind::Torn] {
        for &(site, n) in &ops {
            for nth in 1..=n {
                let dir = tmpdir(&format!("ctas-matrix-{kind:?}-{site:?}-{nth}"));
                let inj = FaultInjector::none();
                let mut db = setup(&dir, &inj);
                inj.arm_nth(Some(site), nth, kind);
                let acked = db.create_table_as("copy", CTAS).is_ok();
                assert_eq!(copy_of(&mut db).is_some(), acked, "memory follows the answer");
                drop(db);
                let recovered = copy_of(&mut open(&dir));
                let what = format!("{kind:?} fault at {site:?} op {nth}");
                match recovered {
                    None => assert!(!acked, "{what}: an acknowledged CTAS is gone"),
                    Some(rows) => assert_eq!(rows, whole, "{what}: part of the copy recovered"),
                }
                cases += 1;
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
    assert!(cases >= 14, "only {cases} cases");
}

/// After a commit-time fsync failure the statement must be absent both in
/// memory (rolled back) and on disk (frame discarded) — the Err ⇒ absent
/// half of the durability contract, checked pointwise here because the
/// matrix above already covers the scan.
#[cfg(debug_assertions)]
#[test]
fn failed_commit_rolls_back_in_memory_and_on_disk() {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::FaultInjector;

    let dir = tmpdir("failed-commit");
    let inj = FaultInjector::none();
    let mut opts = test_opts();
    opts.injector = Arc::clone(&inj);
    let mut db = Database::open_with(&dir, opts).unwrap();
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    inj.arm_nth(Some(FaultSite::WalFsync), 1, FaultKind::Error);
    let err = db.execute("INSERT INTO t VALUES (2)").unwrap_err();
    assert!(
        matches!(err, qymera_sqldb::Error::Io(ref m) if m.contains("injected")),
        "expected the injected fault, got {err:?}"
    );
    // In-memory: rolled back.
    assert_eq!(
        db.execute("SELECT k FROM t ORDER BY k").unwrap().rows(),
        &[vec![Value::Int(1)]]
    );
    // The database remains usable after the failure.
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    drop(db);
    // On disk: the failed statement never surfaces.
    let mut db = open(&dir);
    assert_eq!(
        db.execute("SELECT k FROM t ORDER BY k").unwrap().rows(),
        &[vec![Value::Int(1)], vec![Value::Int(3)]]
    );
    let _ = fs::remove_dir_all(&dir);
}

/// [`FsyncPolicy::Always`]: every WAL
/// record is forced to stable storage as it is appended, not just at commit.
/// The rest of the suite pins `commit` (and the bulk harness uses `off`), so
/// this is the targeted coverage for the third policy: same durability
/// contract across reopen, plus — in debug builds, where the injector
/// counts operations — strictly more `WalFsync` operations than the
/// per-commit policy on the identical workload.
#[test]
fn fsync_always_persists_and_syncs_per_record() {
    use std::sync::Arc;
    use qymera_sqldb::storage::fault::FaultInjector;

    let workload = |policy: FsyncPolicy, dir: &Path| -> u64 {
        let inj = FaultInjector::none();
        let opts = DurabilityOptions {
            fsync: policy,
            checkpoint_every_bytes: 0,
            injector: Arc::clone(&inj),
            ..DurabilityOptions::default()
        };
        let mut db = Database::open_with(dir, opts).unwrap();
        db.execute("CREATE TABLE t (k INTEGER, v TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')").unwrap();
        db.execute("DELETE FROM t WHERE k = 1").unwrap();
        inj.ops(FaultSite::WalFsync)
    };

    let dir_always = tmpdir("fsync-always");
    let dir_commit = tmpdir("fsync-commit");
    let always_syncs = workload(FsyncPolicy::Always, &dir_always);
    let commit_syncs = workload(FsyncPolicy::Commit, &dir_commit);

    // Durability across a reopen is identical under `always`.
    let mut db = open(&dir_always);
    assert_eq!(
        db.execute("SELECT k, v FROM t ORDER BY k").unwrap().rows(),
        &[vec![Value::Int(2), Value::Str("two".into())]]
    );

    if cfg!(debug_assertions) {
        // 3 statements → ≥3 sync points under `commit`; `always` adds one
        // per record (begin/op/commit make ≥3 records per statement).
        assert!(
            always_syncs > commit_syncs,
            "per-record fsync must sync more often: always={always_syncs} commit={commit_syncs}"
        );
        assert!(commit_syncs >= 3, "one sync per committed statement, got {commit_syncs}");
    }
    let _ = fs::remove_dir_all(&dir_always);
    let _ = fs::remove_dir_all(&dir_commit);
}
