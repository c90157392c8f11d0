use super::*;
use crate::ast::DataType;
use crate::exec::batch::Column;
use crate::storage::spill::Row;
use crate::value::Value;

fn ghz_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE); \
         INSERT INTO T0 VALUES (0, 1.0, 0.0); \
         CREATE TABLE H (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE); \
         INSERT INTO H VALUES (0, 0, 0.7071067811865476, 0.0), \
                              (0, 1, 0.7071067811865476, 0.0), \
                              (1, 0, 0.7071067811865476, 0.0), \
                              (1, 1, -0.7071067811865476, 0.0); \
         CREATE TABLE CX (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE); \
         INSERT INTO CX VALUES (0, 0, 1.0, 0.0), (1, 3, 1.0, 0.0), \
                               (2, 2, 1.0, 0.0), (3, 1, 1.0, 0.0);",
    )
    .unwrap();
    db
}

#[test]
fn fig2_full_cte_chain_produces_ghz() {
    // The exact query of Fig. 2c, three gates on |000⟩.
    let mut db = ghz_db();
    let sql = "WITH T1 AS (
          SELECT ((T0.s & ~1) | H.out_s) AS s,
                 SUM((T0.r * H.r) - (T0.i * H.i)) AS r,
                 SUM((T0.r * H.i) + (T0.i * H.r)) AS i
          FROM T0 JOIN H ON H.in_s = (T0.s & 1)
          GROUP BY ((T0.s & ~1) | H.out_s)),
        T2 AS (
          SELECT ((T1.s & ~3) | CX.out_s) AS s,
                 SUM((T1.r * CX.r) - (T1.i * CX.i)) AS r,
                 SUM((T1.r * CX.i) + (T1.i * CX.r)) AS i
          FROM T1 JOIN CX ON CX.in_s = (T1.s & 3)
          GROUP BY ((T1.s & ~3) | CX.out_s)),
        T3 AS (
          SELECT ((T2.s & ~6) | (CX.out_s << 1)) AS s,
                 SUM((T2.r * CX.r) - (T2.i * CX.i)) AS r,
                 SUM((T2.r * CX.i) + (T2.i * CX.r)) AS i
          FROM T2 JOIN CX ON CX.in_s = ((T2.s >> 1) & 3)
          GROUP BY ((T2.s & ~6) | (CX.out_s << 1)))
        SELECT s, r, i FROM T3 ORDER BY s";
    let rs = db.execute(sql).unwrap();
    assert_eq!(rs.columns(), &["s", "r", "i"]);
    assert_eq!(rs.rows().len(), 2, "GHZ state has two basis states");
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    assert_eq!(rs.rows()[0][0], Value::Int(0));
    assert!((rs.rows()[0][1].as_f64().unwrap() - inv_sqrt2).abs() < 1e-12);
    assert_eq!(rs.rows()[1][0], Value::Int(7));
    assert!((rs.rows()[1][1].as_f64().unwrap() - inv_sqrt2).abs() < 1e-12);
}

#[test]
fn insert_with_column_list_and_delete() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
    let rs = db.execute("INSERT INTO t (b, a) VALUES ('x', 1), ('y', 2)").unwrap();
    assert_eq!(rs.affected(), 2);
    let rs = db.execute("SELECT a FROM t WHERE b = 'x'").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(1)));
    let rs = db.execute("DELETE FROM t WHERE a = 1").unwrap();
    assert_eq!(rs.affected(), 1);
    assert_eq!(db.table_row_count("t").unwrap(), 1);
}

#[test]
fn create_table_as_streams_rows() {
    let mut db = ghz_db();
    let n = db
        .create_table_as("T1", "SELECT ((T0.s & ~1) | H.out_s) AS s, \
             SUM((T0.r * H.r) - (T0.i * H.i)) AS r, \
             SUM((T0.r * H.i) + (T0.i * H.r)) AS i \
             FROM T0 JOIN H ON H.in_s = (T0.s & 1) \
             GROUP BY ((T0.s & ~1) | H.out_s)")
        .unwrap();
    assert_eq!(n, 2);
    let rs = db.execute("SELECT COUNT(*) FROM T1").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
}

#[test]
fn stats_track_execution() {
    let mut db = ghz_db();
    let before = db.stats();
    db.execute("SELECT * FROM H").unwrap();
    let after = db.stats();
    assert_eq!(after.statements_executed, before.statements_executed + 1);
    assert_eq!(after.rows_returned, before.rows_returned + 4);
    assert!(after.peak_memory_bytes > 0);
}

#[test]
fn errors_are_reported_not_panicked() {
    let mut db = Database::new();
    assert!(db.execute("SELECT * FROM missing").is_err());
    assert!(db.execute("SELEC 1").is_err());
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    assert!(db.execute("INSERT INTO t VALUES (1, 2)").is_err());
    assert!(db.execute("INSERT INTO t VALUES ('text')").is_err());
}

#[test]
fn memory_limited_db_spills_on_aggregate() {
    // Budget fits the 50k-row base table (~1.2 MB in columnar chunks)
    // but not the 20k-group aggregation state on top of it, forcing the
    // operator to spill.
    let mut db = Database::with_memory_limit(2 * 1024 * 1024);
    db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)").unwrap();
    let rows: Vec<Row> = (0..50_000)
        .map(|i| vec![Value::Int(i % 20_000), Value::Float(0.5)])
        .collect();
    db.insert_rows("big", rows).unwrap();
    let rs = db
        .execute("SELECT k, SUM(v) AS total FROM big GROUP BY k ORDER BY k LIMIT 3")
        .unwrap();
    assert_eq!(rs.rows().len(), 3);
    assert!(db.stats().spill_files > 0, "expected the aggregate to spill");
}

#[test]
fn to_table_string_renders() {
    let mut db = ghz_db();
    let rs = db.execute("SELECT in_s, out_s FROM CX ORDER BY in_s").unwrap();
    let s = rs.to_table_string();
    assert!(s.contains("in_s"));
    assert!(s.lines().count() >= 6);
}

#[test]
fn explain_returns_plan() {
    let db = ghz_db();
    let text = db.explain("SELECT s FROM T0 WHERE s = 0").unwrap();
    assert!(text.contains("Scan T0"));
}

#[test]
fn explain_statement_returns_plan_rows() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
    let rs = db.execute("EXPLAIN SELECT a FROM t WHERE a > 1 ORDER BY a").unwrap();
    assert_eq!(rs.columns(), &["plan"]);
    let text: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
    assert!(text.iter().any(|l| l.contains("Scan t")), "{text:?}");
    assert!(text.iter().any(|l| l.contains("Sort")), "{text:?}");
}

#[test]
fn explain_shows_pushdown() {
    let mut db = Database::new();
    db.execute("CREATE TABLE a (x INTEGER)").unwrap();
    db.execute("CREATE TABLE b (y INTEGER)").unwrap();
    let rs = db
        .execute("EXPLAIN SELECT x FROM a JOIN b ON a.x = b.y WHERE a.x > 3")
        .unwrap();
    let text = rs
        .rows()
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n");
    // the filter on a.x must sit below the join after optimization
    let join_pos = text.find("Join").unwrap();
    let filter_pos = text.find("Filter").unwrap();
    assert!(filter_pos > join_pos, "filter should be pushed under the join:\n{text}");
}

#[test]
fn explain_analyze_reports_rows_per_operator() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER)").unwrap();
    let rows: Vec<Row> = (0..100).map(|i| vec![Value::Int(i)]).collect();
    db.insert_rows("t", rows).unwrap();
    let text = db
        .explain_analyze("SELECT a FROM t WHERE a < 10 ORDER BY a DESC")
        .unwrap();
    assert!(text.contains("Scan t"), "{text}");
    assert!(text.contains("rows=100"), "scan emits all rows:\n{text}");
    assert!(text.contains("rows=10"), "filter passes 10 rows:\n{text}");
    assert!(text.contains("total output rows: 10"), "{text}");
}

/// `self=` is inclusive time minus the direct children's: no node may
/// report less time than its children took together (a join drains its build
/// side while it is constructed, so construction counts), and the self times
/// of a plan add up to the root's inclusive time, exactly.
#[test]
fn explain_analyze_self_times_partition_the_root_time() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE s (k INTEGER, v DOUBLE); CREATE TABLE g (k INTEGER, w DOUBLE); \
         INSERT INTO g VALUES (0, 10.0), (1, 20.0), (1, 30.0);",
    )
    .unwrap();
    let rows: Vec<Row> = (0..5000).map(|i| vec![Value::Int(i), Value::Float(0.5)]).collect();
    db.insert_rows("s", rows).unwrap();
    let gate = "SELECT (s.k & ~1) | g.k AS k, SUM(s.v * g.w) AS t \
                FROM s JOIN g ON g.k = (s.k & 1) GROUP BY (s.k & ~1) | g.k";
    let queries = [
        gate.to_string(),
        format!("WITH t AS ({gate}) SELECT k, t FROM t ORDER BY t DESC, k LIMIT 7"),
        format!("WITH t AS ({gate}) SELECT t.k, s.v FROM t LEFT JOIN s ON s.k = t.k ORDER BY 1"),
        "SELECT s.k FROM s JOIN g ON s.k < g.k UNION ALL SELECT k FROM g".to_string(),
    ];
    for parallelism in [1, 2] {
        db.set_parallelism(parallelism);
        for sql in &queries {
            let (nodes, _) = db.analyze(sql).unwrap();
            let own = NodeStats::self_nanos(&nodes);
            assert_eq!(nodes[0].depth, 0, "{sql}");
            assert!(nodes[1..].iter().all(|n| n.depth > 0), "one root: {sql}");
            assert_eq!(
                own.iter().sum::<u128>(),
                nodes[0].nanos,
                "p={parallelism}: a child outlasted its parent in {sql}: {nodes:#?}"
            );
            assert!(nodes.iter().zip(&own).all(|(n, own)| *own <= n.nanos), "{sql}");
        }
        let text = db.explain_analyze(&queries[1]).unwrap();
        assert!(text.lines().all(|l| l.contains(" self=") || l.starts_with("total")), "{text}");
    }
}

#[test]
fn explain_analyze_join_aggregate_shape() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE s (k INTEGER, v DOUBLE); \
         INSERT INTO s VALUES (0, 1.0), (1, 2.0), (0, 3.0); \
         CREATE TABLE g (k INTEGER, w DOUBLE); \
         INSERT INTO g VALUES (0, 10.0), (1, 20.0);",
    )
    .unwrap();
    let text = db
        .explain_analyze(
            "SELECT s.k, SUM(s.v * g.w) FROM s JOIN g ON s.k = g.k GROUP BY s.k",
        )
        .unwrap();
    assert!(text.contains("Join"), "{text}");
    assert!(text.contains("Aggregate"), "{text}");
    assert!(text.contains("total output rows: 2"), "{text}");
}

/// A `(s, r, i)` state table of `n` rows on typed lanes.
fn state_rows(n: i64) -> Vec<Row> {
    (0..n).map(|s| vec![Value::Int(s), Value::Float(s as f64 / 8.0), Value::Float(-0.0)]).collect()
}

/// Deterministic guard of the result path: `query_batches` hands back the
/// pipeline's batches and never rows — a bare scan the table's very chunk
/// columns, a sorted state typed `Int`/`Float`/`Float` lanes — and counts,
/// cancels and times out exactly as `execute` does. If the query arm
/// transposes into rows again, or `query_batches` grows its own drain,
/// this fails.
#[test]
fn query_batches_hands_back_columns_like_execute() {
    let mut db = Database::new();
    db.set_parallelism(1);
    db.execute("CREATE TABLE t (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    let n = 2 * crate::table::CHUNK_ROWS + 512;
    db.insert_rows("t", state_rows(n as i64).into_iter().rev().collect()).unwrap();

    let table = db.catalog.get("t").unwrap().snapshot();
    let scanned = db.query_batches("SELECT s, r, i FROM t").unwrap();
    assert_eq!(scanned.len(), table.chunks().len());
    for (batch, chunk) in scanned.iter().zip(table.chunks()) {
        for (a, b) in batch.columns().iter().zip(chunk.columns()) {
            assert!(Arc::ptr_eq(a, b), "a scanned column was copied");
        }
    }

    let sorted = "SELECT s, r, i FROM t ORDER BY s";
    let mut s_seen = Vec::new();
    for batch in db.query_batches(sorted).unwrap() {
        let [s, r, i] = batch.columns() else { panic!("three columns") };
        let (Column::Int(s), Column::Float(_), Column::Float(_)) = (&**s, &**r, &**i) else {
            panic!("a sorted state left its typed lanes: {batch:?}")
        };
        s_seen.extend_from_slice(s);
    }
    assert_eq!(s_seen, (0..n as i64).collect::<Vec<_>>());

    let before = db.stats();
    let rows = db.execute(sorted).unwrap().into_rows();
    let by_execute = db.stats();
    let batches = db.query_batches(sorted).unwrap();
    let by_batches = db.stats();
    assert_eq!(batches.into_iter().flat_map(|b| b.into_rows()).collect::<Vec<_>>(), rows);
    for (from, to) in [(&before, &by_execute), (&by_execute, &by_batches)] {
        assert_eq!(to.statements_executed - from.statements_executed, 1);
        assert_eq!(to.rows_returned - from.rows_returned, n as u64);
    }

    // A cancelled and a timed-out statement fail alike on both paths and
    // leave the ledger, the spill directory and the row count as they were.
    let cross = "SELECT a.s, b.r FROM t a CROSS JOIN t b ORDER BY a.s";
    for timeout in [false, true] {
        for via_batches in [false, true] {
            if timeout {
                db.set_statement_timeout_ms(Some(1));
            } else {
                db.arm_cancel_after_polls(Some(2));
            }
            let (ledger, stats) = (db.budget().used(), db.stats());
            let err = if via_batches {
                db.query_batches(cross).map(|_| ()).unwrap_err()
            } else {
                db.execute(cross).map(|_| ()).unwrap_err()
            };
            match (timeout, &err) {
                (false, Error::Cancelled) | (true, Error::Timeout { ms: 1 }) => {}
                _ => panic!("timeout {timeout}, batches {via_batches}: got {err:?}"),
            }
            assert_eq!(db.budget().used(), ledger);
            assert_eq!(db.live_spill_files(), 0);
            assert_eq!(db.stats().statements_executed, stats.statements_executed + 1);
            assert_eq!(db.stats().rows_returned, stats.rows_returned);
            db.set_statement_timeout_ms(None);
            db.arm_cancel_after_polls(None);
        }
    }
    assert!(matches!(db.query_batches("DROP TABLE t"), Err(Error::Plan(_))));
    assert!(db.catalog.contains("t"), "a refused statement ran");
}

/// Deterministic guard of the CTAS path: a result batch reaches the new
/// table as the columns it was — here the very allocations the scan handed
/// out — and never as rows. If `create_table_as_in_txn` transposes batches
/// again, the copy's chunks stop being the source's.
#[test]
fn ctas_appends_batches_without_rows() {
    let mut db = Database::new();
    db.execute("CREATE TABLE src (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    let n = 2 * crate::table::CHUNK_ROWS + 512;
    db.insert_rows("src", state_rows(n as i64)).unwrap();
    assert_eq!(db.create_table_as("copy", "SELECT s, r, i FROM src").unwrap(), n);
    let src = db.catalog.get("src").unwrap().snapshot();
    let copy = db.catalog.get("copy").unwrap().snapshot();
    assert_eq!(copy.chunks().len(), 3);
    for (ours, theirs) in copy.chunks().iter().zip(src.chunks()) {
        for (a, b) in ours.columns().iter().zip(theirs.columns()) {
            assert!(std::sync::Arc::ptr_eq(a, b), "a CTAS batch was copied or rebuilt");
        }
    }
    assert_eq!(db.budget().used(), 2 * 24 * n, "both tables charged, 8 bytes a cell");
    // Types come from the lanes of the first batch.
    let types: Vec<_> = db.catalog.get("copy").unwrap().columns().iter().map(|c| c.1).collect();
    assert_eq!(types, [DataType::Integer, DataType::Double, DataType::Double]);
}

/// Deterministic guard of recovery: a logged batch comes back as the
/// columns it was. A log of step tables — each made from the one before,
/// which is then dropped — is replayed block by block through
/// `append_batch`, so the table that is left has the chunks the CTAS
/// streamed (typed lanes, the logged batch boundaries), with and without a
/// checkpoint image on the way, and the counters say what the open did.
#[test]
fn recovery_replays_blocks_into_chunks() {
    let dir = std::env::temp_dir().join(format!("qymera-replay-{}", std::process::id()));
    for checkpoint_after in [None, Some(2), Some(5)] {
        let _ = std::fs::remove_dir_all(&dir);
        let opts = || DurabilityOptions { checkpoint_every_bytes: 0, ..DurabilityOptions::default() };
        let mut db = Database::open_with(&dir, opts()).unwrap();
        db.execute("CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        db.insert_rows("T0", state_rows(2500)).unwrap();
        for k in 1..=5 {
            let select = format!("SELECT s, r, i FROM T{}", k - 1);
            assert_eq!(db.create_table_as(&format!("T{k}"), &select).unwrap(), 2500);
            db.execute(&format!("DROP TABLE T{}", k - 1)).unwrap();
            if checkpoint_after == Some(k) {
                db.checkpoint().unwrap();
            }
        }
        let written = db.stats();
        assert!(written.wal_bytes > 5 * 2500 * 24 && written.wal_fsyncs == 12, "{written:?}");
        drop(db);

        let db = Database::open_with(&dir, opts()).unwrap();
        assert_eq!(db.table_names(), ["T5"]);
        let recovered = db.catalog.get("T5").unwrap().snapshot();
        let sizes: Vec<usize> = recovered.chunks().iter().map(|c| c.rows()).collect();
        assert_eq!(sizes, [1024, 1024, 452], "one chunk per logged batch");
        for chunk in recovered.chunks() {
            let lanes = chunk.columns();
            assert!(matches!(&*lanes[0], Column::Int(_)) && matches!(&*lanes[2], Column::Float(_)));
        }
        let bits = |rows: Vec<Row>| format!("{rows:?}");
        assert_eq!(bits(recovered.to_rows()), bits(state_rows(2500)), "-0.0 included");
        assert_eq!(db.budget().used(), 2500 * 24);
        let recovery = db.stats().recovery;
        // Per CTAS frame a `CreateTable` and three `Insert` blocks; T0 is a
        // create and an insert; five drops. An image covers what it covers.
        let (frames, ops) = match checkpoint_after {
            None => (12, 2 + 5 * 4 + 5),
            Some(2) => (6, 3 * 4 + 3),
            _ => (0, 0),
        };
        assert_eq!((recovery.frames, recovery.ops_applied), (frames, ops), "{recovery:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 13-qubit register after a Hadamard on qubit 12: `T1` holds 8 192 rows,
/// twice what a scan checks, so what the planner knows of `T1.s` is what the
/// `CREATE TABLE … AS` recorded — and nothing once the rows changed.
fn step_table_db(db: &mut Database) {
    db.execute_script(
        "CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE); \
         CREATE TABLE H (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE); \
         INSERT INTO H VALUES (0, 0, 0.5, 0.0), (0, 1, 0.5, 0.0), (1, 0, 0.5, 0.0), (1, 1, -0.5, 0.0); \
         CREATE TABLE X (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE); \
         INSERT INTO X VALUES (0, 1, 1.0, 0.0), (1, 0, 1.0, 0.0);",
    )
    .unwrap();
    db.insert_rows("T0", state_rows(4096)).unwrap();
    let made = db.create_table_as("T1", &gate_step("T0", "H", 12)).unwrap();
    assert_eq!(made, 8192);
}

/// The Fig. 2c statement for one-qubit gate table `g` on qubit `q` of `t`.
fn gate_step(t: &str, g: &str, q: u32) -> String {
    let key = format!("(({t}.s & ~{}) | ({g}.out_s << {q}))", 1u64 << q);
    format!(
        "SELECT {key} AS s, SUM(({t}.r * {g}.r) - ({t}.i * {g}.i)) AS r, \
         SUM(({t}.r * {g}.i) + ({t}.i * {g}.r)) AS i \
         FROM {t} JOIN {g} ON {g}.in_s = (({t}.s >> {q}) & 1) GROUP BY {key}"
    )
}

fn streams(db: &Database, sql: &str) -> bool {
    db.explain(sql).unwrap().contains("(one row per group: streamed)")
}

fn assert_matches_reference(db: &mut Database, sql: &str) {
    let mut got = db.execute(sql).unwrap().into_rows();
    let mut want = db.query_reference(sql).unwrap().into_rows();
    assert_eq!(got.len(), 8192);
    let by_key = |a: &Row, b: &Row| a[0].cmp_total(&b[0]);
    got.sort_by(by_key);
    want.sort_by(by_key);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
}

#[test]
fn a_recorded_key_does_not_outlive_the_rows_it_described() {
    let mut db = Database::new();
    step_table_db(&mut db);
    let next = gate_step("T1", "X", 3);
    assert!(!streams(&db, &gate_step("T0", "H", 12)), "a Hadamard interferes");
    assert!(streams(&db, &next), "T1.s is a key: its CTAS said so");
    assert_matches_reference(&mut db, &next);

    // Fewer rows of a key are still a key; the old rows brought back by a
    // rollback are not known to be (the undo restores chunks, not facts).
    db.execute("DELETE FROM T1 WHERE s = 9").unwrap();
    assert!(streams(&db, &next));
    db.execute_script("BEGIN; DELETE FROM T1 WHERE s = 10; ROLLBACK").unwrap();
    assert!(!streams(&db, &next));

    // A second |7⟩: the statement groups, and the two rows add up.
    for insert in [true, false] {
        let mut db = Database::new();
        step_table_db(&mut db);
        if insert {
            db.execute("INSERT INTO T1 VALUES (7, 0.25, 0.5)").unwrap();
        } else {
            db.insert_rows("T1", vec![vec![Value::Int(7), Value::Float(0.25), Value::Float(0.5)]])
                .unwrap();
        }
        assert!(!streams(&db, &next));
        let mut got = db.execute(&next).unwrap().into_rows();
        assert_eq!(got.len(), 8192, "8 193 rows, two of them |7⟩");
        got.retain(|row| row[0] == Value::Int(15));
        let before = 7.0 / 8.0 * 0.5;
        assert_eq!(got, [vec![Value::Int(15), Value::Float(before + 0.25), Value::Float(0.5)]]);
        db.execute("DELETE FROM T1 WHERE s = 7 AND i = 0.5").unwrap();
        assert!(!streams(&db, &next), "nothing brings a forgotten fact back");
        assert_matches_reference(&mut db, &next);
    }
}

#[test]
fn another_session_can_take_a_recorded_key_away_between_two_gate_statements() {
    let mut db = Database::new();
    step_table_db(&mut db);
    let shared = crate::SharedDb::new(db);
    let (mut ours, mut theirs) = (shared.session(), shared.session());
    let next = gate_step("T1", "X", 3);
    assert!(shared.with(|db| streams(db, &next)));
    let before = ours.execute(&next).unwrap().into_rows();
    theirs.execute("INSERT INTO T1 VALUES (7, 0.25, 0.5)").unwrap();
    assert!(!shared.with(|db| streams(db, &next)));
    let after = ours.execute(&next).unwrap().into_rows();
    assert_eq!((before.len(), after.len()), (8192, 8192));
    let want = shared.with(|db| db.query_reference(&next).unwrap().into_rows());
    let sorted = |mut rows: Vec<Row>| {
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        format!("{rows:?}")
    };
    assert_eq!(sorted(after), sorted(want));
}

#[test]
fn a_reopened_directory_knows_no_keys_it_cannot_check() {
    let dir = std::env::temp_dir().join(format!("qymera-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::open(&dir).unwrap();
    step_table_db(&mut db);
    let next = gate_step("T1", "X", 3);
    assert!(streams(&db, &next));
    drop(db);
    let mut db = Database::open(&dir).unwrap();
    assert!(!streams(&db, &next), "recovery appends rows; it proves nothing about them");
    assert!(streams(&db, &gate_step("T0", "X", 3)), "4 096 rows are checked again");
    assert_matches_reference(&mut db, &next);
    // What the first statement after the reopen creates is known again.
    db.create_table_as("T2", &next).unwrap();
    assert!(streams(&db, &gate_step("T2", "X", 5)));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
