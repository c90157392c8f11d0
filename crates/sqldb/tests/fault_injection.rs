//! Spill-path fault injection: an injected I/O failure (ENOSPC-style) in
//! the middle of a spilling sort, aggregate, or join must surface as a
//! typed [`qymera_sqldb::Error::Io`], leave zero residue in the memory
//! ledger, leave no orphan spill files, and leave the database fully
//! usable — the same query retried without the fault succeeds.
//!
//! Last, the one multi-fault path of the durable side that no seeded
//! schedule reaches: the commit whose fsync *and* repairing truncate fail.
//!
//! The whole file is debug-only: the fault injector compiles to a
//! passthrough in release builds, so these schedules could never fire.
#![cfg(debug_assertions)]

use std::sync::Arc;

use qymera_sqldb::storage::fault::{FaultInjector, FaultKind, FaultSite};
use qymera_sqldb::storage::wal::{CHECKPOINT_FILE, WAL_FILE};
use qymera_sqldb::{Database, DurabilityOptions, Error, Value};

/// A memory-limited database whose `big` table (60k rows) fits the budget
/// but whose sorts and wide aggregations do not — every scenario query
/// below is forced through the spill paths.
fn scenario_db(parallelism: usize) -> Database {
    let mut db = Database::with_memory_limit(2 * 1024 * 1024);
    db.set_parallelism(parallelism);
    db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)").unwrap();
    let rows: Vec<Vec<Value>> = (0..60_000)
        .map(|i| vec![Value::Int((i * 7919) % 20_000), Value::Float((i % 97) as f64 / 8.0)])
        .collect();
    db.insert_rows("big", rows).unwrap();
    db.execute("CREATE TABLE dim (k INTEGER, w DOUBLE)").unwrap();
    let dim: Vec<Vec<Value>> =
        (0..64).map(|k| vec![Value::Int(k as i64), Value::Float(2.0)]).collect();
    db.insert_rows("dim", dim).unwrap();
    db
}

const SORT_SQL: &str = "SELECT k, v FROM big ORDER BY v DESC, k";
const AGG_SQL: &str = "SELECT k, SUM(v) AS t FROM big GROUP BY k ORDER BY k";
// Every probe row matches one dim row, so the join's full 60k-row output
// flows into a 20k-group aggregation that must spill under the budget.
const JOIN_SQL: &str = "SELECT b.k, SUM(b.v * d.w) AS t FROM big b \
                        JOIN dim d ON d.k = (b.k & 63) GROUP BY b.k ORDER BY b.k";

/// Arm a one-shot fault, run `sql`, and require: a typed injected error,
/// a ledger holding exactly the base tables, an empty spill directory,
/// and a clean retry (the schedule disarms after firing) that does spill.
fn assert_clean_failure_then_recovery(
    db: &mut Database,
    sql: &str,
    site: FaultSite,
    nth: u64,
    kind: FaultKind,
) {
    db.fault_injector().arm_nth(Some(site), nth, kind);
    let err = db.execute(sql).unwrap_err();
    assert!(
        matches!(err, Error::Io(ref m) if m.contains("injected")),
        "{site:?}/{kind:?} op {nth}: expected the injected error, got {err:?}"
    );
    assert_eq!(
        db.budget().used(),
        db.table_bytes(),
        "{site:?}/{kind:?} op {nth}: memory ledger residue after error"
    );
    assert_eq!(
        db.live_spill_files(),
        0,
        "{site:?}/{kind:?} op {nth}: orphan spill files after error"
    );
    let spilled_before = db.stats().spill_files;
    let rs = db.execute(sql).unwrap();
    assert!(!rs.rows().is_empty(), "retry must produce rows");
    assert!(
        db.stats().spill_files > spilled_before,
        "retry was expected to exercise the spill path"
    );
    assert_eq!(db.budget().used(), db.table_bytes(), "ledger residue after retry");
    assert_eq!(db.live_spill_files(), 0, "orphan spill files after retry");
}

#[test]
fn spill_write_failure_is_clean_on_every_operator() {
    for parallelism in [1usize, 4] {
        for sql in [SORT_SQL, AGG_SQL, JOIN_SQL] {
            let mut db = scenario_db(parallelism);
            assert_clean_failure_then_recovery(
                &mut db,
                sql,
                FaultSite::SpillWrite,
                1,
                FaultKind::Error,
            );
        }
    }
}

#[test]
fn spill_read_failure_is_clean_on_every_operator() {
    for parallelism in [1usize, 4] {
        for sql in [SORT_SQL, AGG_SQL, JOIN_SQL] {
            let mut db = scenario_db(parallelism);
            assert_clean_failure_then_recovery(
                &mut db,
                sql,
                FaultSite::SpillRead,
                1,
                FaultKind::Error,
            );
        }
    }
}

/// A torn spill write (power-cut emulation: half the record lands) must be
/// indistinguishable from a clean failure at the statement level — the
/// half-written file is removed with the rest of the run.
#[test]
fn torn_spill_write_is_clean() {
    for parallelism in [1usize, 4] {
        // A sort run's row chunk, and a block of the aggregate's fast table.
        for sql in [SORT_SQL, AGG_SQL] {
            let mut db = scenario_db(parallelism);
            assert_clean_failure_then_recovery(
                &mut db,
                sql,
                FaultSite::SpillWrite,
                3,
                FaultKind::Torn,
            );
        }
    }
}

/// Fail mid-stream rather than on the first operation: learn the clean
/// run's spill-write count, then inject at the halfway point, where spill
/// files already exist (sort runs; the aggregate's partition file, and
/// readers over it once a merge re-partitions) and must all be reclaimed.
#[test]
fn midstream_spill_write_failure_is_clean() {
    for sql in [SORT_SQL, AGG_SQL] {
        let ops = {
            let mut db = scenario_db(1);
            db.execute(sql).unwrap();
            db.fault_injector().ops(FaultSite::SpillWrite)
        };
        assert!(ops > 4, "did not spill enough to test midstream failure: {sql}");
        for parallelism in [1usize, 4] {
            let mut db = scenario_db(parallelism);
            assert_clean_failure_then_recovery(
                &mut db,
                sql,
                FaultSite::SpillWrite,
                ops / 2,
                FaultKind::Error,
            );
        }
    }
}

/// A read that fails while a spilled partition is being merged — past the
/// first chunk, so the merge table holds groups and readers are open.
#[test]
fn midstream_spill_read_failure_is_clean() {
    let ops = {
        let mut db = scenario_db(1);
        db.execute(AGG_SQL).unwrap();
        db.fault_injector().ops(FaultSite::SpillRead)
    };
    assert!(ops > 4, "aggregate did not read enough chunks back: {ops}");
    for parallelism in [1usize, 4] {
        let mut db = scenario_db(parallelism);
        assert_clean_failure_then_recovery(
            &mut db,
            AGG_SQL,
            FaultSite::SpillRead,
            ops / 2,
            FaultKind::Error,
        );
    }
}

/// Seeded random faulting as a soak: whatever fails, the invariants hold
/// and the database stays usable once the schedule is disarmed.
#[test]
fn seeded_fault_soak_preserves_invariants() {
    let mut db = scenario_db(4);
    db.fault_injector().arm_seeded(0xDEAD_BEEF, 64, FaultKind::Error);
    for _ in 0..8 {
        match db.execute(AGG_SQL) {
            Ok(rs) => assert!(!rs.rows().is_empty()),
            Err(e) => assert!(
                matches!(e, Error::Io(ref m) if m.contains("injected")),
                "unexpected error under seeded faults: {e:?}"
            ),
        }
        assert_eq!(db.budget().used(), db.table_bytes(), "ledger residue");
        assert_eq!(db.live_spill_files(), 0, "orphan spill files");
    }
    db.fault_injector().disarm();
    let rs = db.execute(AGG_SQL).unwrap();
    assert_eq!(rs.rows().len(), 20_000, "one group per distinct key");
}

/// The double-fault commit: the fsync of the `Commit` record fails and so
/// does the truncate that should cut the frame off again, so the record may
/// still be on disk behind a poisoned log. The healed arm — the checkpoint
/// of the rolled-back state succeeds, its truncate being the *second* at
/// that site — answers with the plain I/O error over a clean log; when the
/// checkpoint fails as well the answer is `CommitInDoubt`. Seeded streams
/// only ever found the second arm; a schedule of chosen sites pins both.
#[test]
fn double_fault_commit_heals_behind_a_checkpoint_or_says_in_doubt() {
    let dir = std::env::temp_dir().join(format!("qymera-double-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let inj = FaultInjector::none();
    let open = |inj: &Arc<FaultInjector>| {
        let opts = DurabilityOptions {
            checkpoint_every_bytes: 0,
            injector: Arc::clone(inj),
            ..DurabilityOptions::default()
        };
        Database::open_with(&dir, opts).unwrap()
    };
    let keys = |db: &mut Database| -> Vec<Value> {
        let rs = db.execute("SELECT k FROM t ORDER BY k").unwrap();
        rs.into_rows().into_iter().map(|mut r| r.remove(0)).collect()
    };
    let mut db = open(&inj);
    db.execute("CREATE TABLE t (k INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(!dir.join(CHECKPOINT_FILE).exists());

    let double_fault = [(FaultSite::WalFsync, 1), (FaultSite::WalTruncate, 1)];
    inj.arm_sites(&double_fault, FaultKind::Error);
    let err = db.execute("INSERT INTO t VALUES (2)").unwrap_err();
    assert!(
        matches!(err, Error::Io(ref m) if m.contains("injected") && m.contains("WalFsync")),
        "healed: the first fault is the answer, got {err:?}"
    );
    assert!(!db.wal_poisoned(), "the checkpoint reset the log");
    assert!(dir.join(CHECKPOINT_FILE).exists());
    assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
    assert_eq!(keys(&mut db), [Value::Int(1)], "rolled back in memory");
    db.execute("INSERT INTO t VALUES (3)").unwrap();
    drop(db);
    let mut db = open(&inj);
    assert_eq!(keys(&mut db), [Value::Int(1), Value::Int(3)], "and on disk");

    // The same two faults and a failing checkpoint write: outcome unknown.
    let triple = [double_fault[0], double_fault[1], (FaultSite::CheckpointWrite, 1)];
    inj.arm_sites(&triple, FaultKind::Error);
    let err = db.execute("INSERT INTO t VALUES (4)").unwrap_err();
    assert!(matches!(err, Error::CommitInDoubt { .. }), "{err:?}");
    assert!(db.wal_poisoned());
    // The next statement boundary retries the heal, with nothing armed.
    db.execute("INSERT INTO t VALUES (5)").unwrap();
    assert!(!db.wal_poisoned());
    assert_eq!(keys(&mut db), [Value::Int(1), Value::Int(3), Value::Int(5)]);
    drop(db);
    assert_eq!(keys(&mut open(&inj)), [Value::Int(1), Value::Int(3), Value::Int(5)]);
    let _ = std::fs::remove_dir_all(&dir);
}
