//! Query-lifecycle governance: cooperative cancellation and deadlines.
//!
//! The contract mirrors the fault-injection one exactly — a cancel or
//! timeout delivered at *any* point must surface as the typed
//! [`Error::Cancelled`] / [`Error::Timeout`], leave the memory ledger
//! holding precisely the base tables, leave zero spill files, never commit
//! a WAL frame, and leave the database immediately usable: the same
//! statement retried (with the trigger cleared) succeeds.

use qymera_sqldb::{Database, DurabilityOptions, Error, QueryContext, Value};

/// One-batch slack allowed past the configured memory limit (the documented
/// admission granularity: reservations are taken per batch/chunk, so the
/// peak may overshoot by at most one in-flight batch per worker).
const OVERSHOOT_SLACK_BYTES: usize = 512 * 1024;

/// Plan-depth allowance for [`QueryContext::latency_bound`]: every scenario
/// query below has far fewer than this many operators.
const PLAN_DEPTH_ALLOWANCE: usize = 16;

/// A memory-limited database whose scenario queries are forced through the
/// spill paths (same shape as the fault-injection scenarios).
fn scenario_db(parallelism: usize) -> Database {
    scenario_db_within(Some(2 * 1024 * 1024), parallelism)
}

/// The scenario tables under `limit` (`None`: nothing spills).
fn scenario_db_within(limit: Option<usize>, parallelism: usize) -> Database {
    let mut db = limit.map_or_else(Database::new, Database::with_memory_limit);
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
const JOIN_SQL: &str = "SELECT b.k, SUM(b.v * d.w) AS t FROM big b \
                        JOIN dim d ON d.k = (b.k & 63) GROUP BY b.k ORDER BY b.k";

/// The shared postcondition: typed error, exact ledger restore, no spill
/// residue, bounded overshoot, bounded cancellation latency.
fn assert_clean_after_error(db: &Database, parallelism: usize, what: &str) {
    assert_eq!(
        db.budget().used(),
        db.table_bytes(),
        "{what}: memory ledger residue after error"
    );
    assert_eq!(db.live_spill_files(), 0, "{what}: orphan spill files after error");
    assert!(
        db.budget().peak_overshoot() <= OVERSHOOT_SLACK_BYTES,
        "{what}: peak overshoot {} exceeds the one-batch bound",
        db.budget().peak_overshoot()
    );
    let units = db.last_query_context().units_after_cancel();
    let bound = QueryContext::latency_bound(parallelism, PLAN_DEPTH_ALLOWANCE);
    assert!(
        units <= bound,
        "{what}: {units} work units completed after cancel (bound {bound})"
    );
}

#[test]
fn pre_armed_cancel_handle_rejects_and_reset_recovers() {
    let mut db = scenario_db(2);
    let handle = db.cancel_handle();
    handle.cancel();
    let err = db.execute(SORT_SQL).unwrap_err();
    assert!(matches!(err, Error::Cancelled), "got {err:?}");
    assert_clean_after_error(&db, 2, "pre-armed cancel");
    // Sticky until reset: the next statement is refused too.
    assert!(matches!(db.execute(AGG_SQL), Err(Error::Cancelled)));
    handle.reset();
    let rs = db.execute(SORT_SQL).unwrap();
    assert_eq!(rs.rows().len(), 60_000);
    assert_clean_after_error(&db, 2, "after reset");
}

#[test]
fn deadline_times_out_spilling_query_and_retry_succeeds() {
    let mut db = scenario_db(4);
    db.set_statement_timeout_ms(Some(1));
    let err = db.execute(JOIN_SQL).unwrap_err();
    assert!(matches!(err, Error::Timeout { ms: 1 }), "got {err:?}");
    assert_clean_after_error(&db, 4, "deadline");
    db.set_statement_timeout_ms(None);
    let rs = db.execute(JOIN_SQL).unwrap();
    assert_eq!(rs.rows().len(), 20_000);
}

/// Sweep deterministic cancel points through every operator: learn how many
/// governance polls a clean run observes, then re-run with a cancel armed
/// at the start, the quartiles, and the last poll of that window.
#[test]
fn poll_armed_cancel_is_clean_at_every_injection_point() {
    for parallelism in [1usize, 2, 4, 8] {
        for sql in [SORT_SQL, AGG_SQL, JOIN_SQL] {
            let mut db = scenario_db(parallelism);
            db.execute(sql).unwrap();
            let polls = db.last_query_context().polls();
            assert!(polls > 8, "scenario query observed only {polls} polls");
            for at in [1, polls / 4, polls / 2, 3 * polls / 4, polls] {
                let at = at.max(1);
                db.arm_cancel_after_polls(Some(at));
                match db.execute(sql) {
                    Err(err) => {
                        assert!(
                            matches!(err, Error::Cancelled),
                            "p={parallelism} poll {at}/{polls}: got {err:?}"
                        );
                        assert_clean_after_error(
                            &db,
                            parallelism,
                            &format!("p={parallelism} poll {at}/{polls} of {sql:.24}"),
                        );
                    }
                    Ok(_) => {
                        // Parallel poll totals vary slightly between runs;
                        // completing is legitimate only when this run
                        // genuinely never reached the armed poll.
                        let observed = db.last_query_context().polls();
                        assert!(
                            observed < at,
                            "p={parallelism}: ran to completion past the armed \
                             cancel point ({observed} polls, armed at {at})"
                        );
                    }
                }
            }
            db.arm_cancel_after_polls(None);
            let rs = db.execute(sql).unwrap();
            assert!(!rs.rows().is_empty(), "retry after disarm must succeed");
            assert_clean_after_error(&db, parallelism, "after disarm");
        }
    }
}

/// Cancel armed to fire at the WAL pre-commit checkpoint: the mutation must
/// be rolled back in memory, the frame marked aborted in the log, and a reopen
/// must see only the acknowledged prefix. The retry then commits.
#[test]
fn cancel_before_wal_commit_rolls_back_and_is_absent_after_reopen() {
    let dir = std::env::temp_dir().join(format!("qymera-cancel-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        // INSERT polls: statement entry (1), then the pre-commit check (2).
        db.arm_cancel_after_polls(Some(2));
        let err = db.execute("INSERT INTO t VALUES (2)").unwrap_err();
        assert!(matches!(err, Error::Cancelled), "got {err:?}");
        assert_eq!(db.budget().used(), db.table_bytes(), "ledger residue");
        db.arm_cancel_after_polls(None);
        let rs = db.execute("SELECT a FROM t ORDER BY a").unwrap();
        assert_eq!(rs.rows().len(), 1, "cancelled INSERT must not be applied");
        db.execute("INSERT INTO t VALUES (2)").unwrap();
    }
    let mut db = Database::open(&dir).unwrap();
    let rs = db.execute("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(
        rs.rows(),
        &[vec![Value::Int(1)], vec![Value::Int(2)]],
        "reopen must recover exactly the committed statements"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// CTAS cancelled mid-stream must drop the partial table, abort its WAL
/// frame, and leave the catalog byte-exact; the retry builds it fully.
#[test]
fn cancelled_ctas_leaves_no_partial_table() {
    let dir = std::env::temp_dir().join(format!("qymera-cancel-ctas-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let opts = DurabilityOptions {
            budget: qymera_sqldb::MemoryBudget::with_limit(2 * 1024 * 1024),
            ..Default::default()
        };
        let mut db = Database::open_with(&dir, opts).unwrap();
        db.execute("CREATE TABLE src (k INTEGER, v DOUBLE)").unwrap();
        let rows: Vec<Vec<Value>> =
            (0..30_000).map(|i| vec![Value::Int(i), Value::Float(i as f64)]).collect();
        db.insert_rows("src", rows).unwrap();
        db.execute("CREATE TABLE sink (n INTEGER)").unwrap(); // unrelated survivor
        db.arm_cancel_after_polls(Some(12));
        let err = db
            .create_table_as("dst", "SELECT k, SUM(v) AS s FROM src GROUP BY k ORDER BY k")
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled), "got {err:?}");
        assert_eq!(db.budget().used(), db.table_bytes(), "ledger residue");
        assert_eq!(db.live_spill_files(), 0, "orphan spill files");
        assert!(
            !db.table_names().iter().any(|n| n == "dst"),
            "partial CTAS table must be dropped"
        );
        db.arm_cancel_after_polls(None);
        let n = db
            .create_table_as("dst", "SELECT k, SUM(v) AS s FROM src GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(n, 30_000);
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.table_row_count("dst").unwrap(), 30_000, "reopen sees the retried CTAS");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancelling through the public handle from another thread while a
/// spilling query runs: the typed error wins the race cleanly at every
/// parallelism level, and the session works again after reset.
#[test]
fn concurrent_handle_cancel_is_clean() {
    for parallelism in [2usize, 4, 8] {
        let mut db = scenario_db(parallelism);
        let handle = db.cancel_handle();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(3));
            handle.cancel();
        });
        match db.execute(JOIN_SQL) {
            // The query may legitimately finish before the cancel lands.
            Ok(rs) => assert_eq!(rs.rows().len(), 20_000),
            Err(e) => {
                assert!(matches!(e, Error::Cancelled), "got {e:?}");
                assert_clean_after_error(&db, parallelism, "concurrent cancel");
            }
        }
        canceller.join().unwrap();
        db.cancel_handle().reset();
        let rs = db.execute("SELECT k FROM dim ORDER BY k LIMIT 5").unwrap();
        assert_eq!(rs.rows().len(), 5);
        assert_clean_after_error(&db, parallelism, "after concurrent cancel");
    }
}

/// The ledger balances: whatever way a gate-shaped query ends — its groups
/// drained from memory or merged back from spill partitions, an evaluation
/// error after some groups have left, a cancel at any poll — `used()` is
/// back at what the tables hold. The aggregate charges its new groups once
/// per batch and releases them once per emitted batch; a charge that leaked
/// shows here (a double release shows in the running balance that
/// `exec::vector`'s drain test checks, because `shrink` saturates).
#[test]
fn ledger_balances_however_a_gate_query_ends() {
    // Group 777 is first seen well into the input, so batches of finished
    // groups have left the aggregate before the division fails.
    let failing = "WITH t AS (SELECT b.k AS k, SUM(b.v * d.w) AS t FROM big b \
                   JOIN dim d ON d.k = (b.k & 63) GROUP BY b.k) \
                   SELECT k, t, 100 / (k - 777) AS q FROM t";
    for limit in [None, Some(2 * 1024 * 1024)] {
        for parallelism in [1usize, 2] {
            let what = format!("limit {limit:?}, p={parallelism}");
            let mut db = scenario_db_within(limit, parallelism);
            let held = db.budget().used();
            assert_eq!(held, db.table_bytes(), "{what}: before any query");

            assert_eq!(db.execute(JOIN_SQL).unwrap().rows().len(), 20_000, "{what}");
            assert_eq!(db.stats().spill_files > 0, limit.is_some(), "{what}: spilled");
            assert_eq!(db.budget().used(), held, "{what}: after success");
            let polls = db.last_query_context().polls();

            let err = db.execute(failing).unwrap_err();
            assert!(matches!(err, Error::Eval(_)), "{what}: got {err:?}");
            assert_eq!(db.budget().used(), held, "{what}: after an evaluation error");

            for at in (1..=polls).step_by((polls as usize / 16).max(1)) {
                db.arm_cancel_after_polls(Some(at));
                if let Err(err) = db.execute(JOIN_SQL) {
                    assert!(matches!(err, Error::Cancelled), "{what}: got {err:?}");
                }
                assert_eq!(db.budget().used(), held, "{what}: cancel at poll {at}/{polls}");
                assert_eq!(db.live_spill_files(), 0, "{what}: cancel at poll {at}/{polls}");
            }
            db.arm_cancel_after_polls(None);
            assert_eq!(db.execute(JOIN_SQL).unwrap().rows().len(), 20_000, "{what}: retry");
            assert_eq!(db.budget().used(), held, "{what}: after the retry");
        }
    }
}
