//! Engine-level integration tests: the SQL surface beyond the translator's
//! gate query — subqueries, outer joins, HAVING, DISTINCT, multi-key
//! ordering, CTAS, EXPLAIN — exercised end-to-end, and the constructs the
//! engine refuses (`docs/OPERATORS.md`'s audit) refused everywhere.

use qymera_sqldb::{Database, Error, Value};

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE runs (id INTEGER, backend TEXT, qubits INTEGER, ms DOUBLE);
         INSERT INTO runs VALUES
           (1, 'sql',         4, 1.5), (2, 'sql',         8, 6.0),
           (3, 'statevector', 4, 0.1), (4, 'statevector', 8, 0.4),
           (5, 'sparse',      4, 0.2), (6, 'sparse',      8, 0.3),
           (7, 'sql',        12, 40.0);
         CREATE TABLE caps (backend TEXT, max_qubits INTEGER);
         INSERT INTO caps VALUES ('sql', 63), ('statevector', 27);",
    )
    .unwrap();
    db
}

#[test]
fn group_by_having_and_aggregates() {
    let mut db = fixture();
    let rs = db
        .execute(
            "SELECT backend, COUNT(*) AS n, AVG(ms) AS avg_ms, MIN(qubits) AS lo, MAX(qubits) AS hi \
             FROM runs GROUP BY backend HAVING COUNT(*) > 2 ORDER BY backend",
        )
        .unwrap();
    assert_eq!(rs.rows().len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Str("sql".into()));
    assert_eq!(rs.rows()[0][1], Value::Int(3));
    assert!((rs.rows()[0][2].as_f64().unwrap() - (1.5 + 6.0 + 40.0) / 3.0).abs() < 1e-12);
    assert_eq!(rs.rows()[0][3], Value::Int(4));
    assert_eq!(rs.rows()[0][4], Value::Int(12));
}

/// `"from"` names a column; bare, the word is the keyword.
#[test]
fn quoted_keywords_name_columns() {
    let mut db = Database::new();
    db.execute_script("CREATE TABLE t (\"from\" INTEGER); INSERT INTO t VALUES (3), (5);").unwrap();
    let rs = db.execute("SELECT \"from\" FROM t WHERE \"from\" > 4").unwrap();
    assert_eq!(rs.rows(), [vec![Value::Int(5)]]);
    assert!(db.execute("SELECT from FROM t").is_err());
}

/// `''` inside a string literal is one quote; non-ASCII text comes back as written.
#[test]
fn string_literals_round_trip() {
    let mut db = Database::new();
    let rs = db.execute("SELECT 'it''s', 'é'").unwrap();
    assert_eq!(rs.rows(), [vec![Value::Str("it's".into()), Value::Str("é".into())]]);
}

#[test]
fn left_join_pads_missing_side() {
    let mut db = fixture();
    let rs = db
        .execute(
            "SELECT runs.backend, caps.max_qubits FROM runs \
             LEFT JOIN caps ON runs.backend = caps.backend \
             WHERE runs.qubits = 4 ORDER BY runs.backend",
        )
        .unwrap();
    assert_eq!(rs.rows().len(), 3);
    // sparse has no cap row → NULL
    assert_eq!(rs.rows()[0][0], Value::Str("sparse".into()));
    assert!(rs.rows()[0][1].is_null());
    assert_eq!(rs.rows()[1][1], Value::Int(63));
}

#[test]
fn subquery_in_from_and_where() {
    let mut db = fixture();
    let rs = db
        .execute(
            "SELECT backend, total FROM \
               (SELECT backend, SUM(ms) AS total FROM runs GROUP BY backend) AS agg \
             WHERE total > 0.5 ORDER BY total DESC",
        )
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Str("sql".into()));
    assert!((rs.rows()[0][1].as_f64().unwrap() - 47.5).abs() < 1e-12);
}

#[test]
fn select_distinct_over_a_subquery() {
    let mut db = fixture();
    let rs = db
        .execute(
            "SELECT DISTINCT backend FROM (SELECT backend FROM runs WHERE qubits > 4) AS u \
             ORDER BY backend",
        )
        .unwrap();
    let names: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["sparse", "sql", "statevector"]);
}

#[test]
fn in_list_between_and_is_null() {
    let mut db = fixture();
    let rs = db
        .execute("SELECT COUNT(*) FROM runs WHERE qubits IN (4, 12)")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
    let rs = db
        .execute("SELECT COUNT(*) FROM runs WHERE ms BETWEEN 0.2 AND 1.5")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
    let rs = db
        .execute(
            "SELECT COUNT(*) FROM runs LEFT JOIN caps ON runs.backend = caps.backend \
             WHERE caps.max_qubits IS NULL",
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(2)), "sparse rows have no cap");
}

#[test]
fn multi_key_order_with_limit_offset() {
    let mut db = fixture();
    let rs = db
        .execute("SELECT backend, qubits FROM runs ORDER BY backend, qubits DESC LIMIT 3 OFFSET 2")
        .unwrap();
    assert_eq!(rs.rows().len(), 3);
    assert_eq!(rs.rows()[0][0], Value::Str("sql".into()));
    assert_eq!(rs.rows()[0][1], Value::Int(12));
}

#[test]
fn ctas_then_query_then_drop() {
    let mut db = fixture();
    let n = db
        .create_table_as("fast_runs", "SELECT id, ms FROM runs WHERE ms < 1.0")
        .unwrap();
    assert_eq!(n, 4);
    let rs = db.execute("SELECT COUNT(*) FROM fast_runs").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
    db.execute("DROP TABLE fast_runs").unwrap();
    assert!(db.execute("SELECT * FROM fast_runs").is_err());
}

#[test]
fn explain_runs_through_sql() {
    let mut db = fixture();
    let rs = db
        .execute("EXPLAIN SELECT backend, SUM(ms) FROM runs GROUP BY backend ORDER BY backend")
        .unwrap();
    let text = rs.rows().iter().map(|r| r[0].to_string()).collect::<Vec<_>>().join("\n");
    assert!(text.contains("Aggregate"));
    assert!(text.contains("Sort"));
    assert!(text.contains("Scan runs"));
}

#[test]
fn arithmetic_edge_cases_surface_as_errors() {
    let mut db = fixture();
    assert!(matches!(db.execute("SELECT 1 / 0"), Err(Error::Eval(_))));
    assert!(matches!(db.execute("SELECT 9223372036854775807 + 1"), Err(Error::Eval(_))));
    // but float division by zero is IEEE infinity, not an error
    let rs = db.execute("SELECT 1.0 / 0.0").unwrap();
    assert_eq!(rs.scalar().unwrap().as_f64().unwrap(), f64::INFINITY);
}

#[test]
fn three_way_join_chain() {
    let mut db = fixture();
    db.execute_script(
        "CREATE TABLE teams (backend TEXT, team TEXT);
         INSERT INTO teams VALUES ('sql', 'db'), ('statevector', 'hpc');",
    )
    .unwrap();
    let rs = db
        .execute(
            "SELECT runs.id, caps.max_qubits, teams.team FROM runs \
             JOIN caps ON runs.backend = caps.backend \
             JOIN teams ON caps.backend = teams.backend \
             WHERE runs.qubits = 8 ORDER BY runs.id",
        )
        .unwrap();
    assert_eq!(rs.rows().len(), 2);
    assert_eq!(rs.rows()[0][2], Value::Str("db".into()));
    assert_eq!(rs.rows()[1][2], Value::Str("hpc".into()));
}

#[test]
fn string_functions_in_queries() {
    let mut db = fixture();
    let rs = db
        .execute("SELECT CONCAT(SUBSTR(backend, 1, 2), '!') AS b FROM runs WHERE id = 3")
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Str("st!".into())));
}

#[test]
fn count_distinct() {
    let mut db = fixture();
    let rs = db
        .execute("SELECT COUNT(DISTINCT backend), COUNT(DISTINCT qubits) FROM runs")
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Int(3));
    assert_eq!(rs.rows()[0][1], Value::Int(3));
}

/// Every construct without a caller is refused before it reaches an
/// operator: a typed `Error::Unsupported` naming it, from the executor,
/// `EXPLAIN`, the reference interpreter and CTAS alike, leaving nothing
/// behind.
#[test]
fn deleted_constructs_are_unsupported_everywhere() {
    let cases = [
        ("SELECT COUNT(*) FROM caps CROSS JOIN caps AS c2", "CROSS JOIN"),
        ("SELECT COUNT(*) FROM caps, caps AS c2 WHERE caps.backend = c2.backend", "CROSS JOIN"),
        ("SELECT runs.id FROM runs JOIN caps ON runs.qubits < caps.max_qubits", "join condition"),
        ("SELECT runs.id FROM runs LEFT JOIN caps ON caps.max_qubits > 4", "join condition"),
        ("SELECT runs.id FROM runs RIGHT JOIN caps ON runs.backend = caps.backend", "RIGHT JOIN"),
        ("SELECT backend FROM runs UNION ALL SELECT backend FROM caps", "UNION ALL"),
        ("SELECT CASE WHEN ms < 1.0 THEN 'fast' ELSE 'slow' END FROM runs", "CASE"),
        ("SELECT ABS(ms) FROM runs", "ABS"),
        ("SELECT SQRT(ms) FROM runs", "SQRT"),
        ("SELECT POW(ms, 2) FROM runs", "POW"),
        ("SELECT FLOOR(ms) FROM runs", "FLOOR"),
        ("SELECT CEIL(ms) FROM runs", "CEIL"),
        ("SELECT ROUND(ms, 1) FROM runs", "ROUND"),
        ("SELECT COS(ms) FROM runs", "COS"),
        ("SELECT SIN(ms) FROM runs", "SIN"),
        ("SELECT EXP(ms) FROM runs", "EXP"),
        ("SELECT LN(ms) FROM runs", "LN"),
        ("SELECT SIGN(ms) FROM runs", "SIGN"),
        ("SELECT COALESCE(ms, 0.0) FROM runs", "COALESCE"),
        ("SELECT LENGTH(backend) FROM runs", "LENGTH"),
        ("SELECT UPPER(backend) FROM runs", "UPPER"),
        ("SELECT LOWER(backend) FROM runs", "LOWER"),
        ("SELECT SUM(DISTINCT ms) FROM runs", "SUM(DISTINCT"),
        ("SELECT backend, AVG(DISTINCT ms) FROM runs GROUP BY backend", "AVG(DISTINCT"),
        ("SELECT MIN(DISTINCT qubits) FROM runs", "MIN(DISTINCT"),
        ("SELECT MAX(DISTINCT qubits) FROM runs", "MAX(DISTINCT"),
    ];
    let mut db = fixture();
    for (sql, names) in cases {
        let results = [
            ("execute", db.execute(sql).map(|_| ())),
            ("explain", db.explain(sql).map(|_| ())),
            ("query_reference", db.query_reference(sql).map(|_| ())),
            ("create_table_as", db.create_table_as("refused", sql).map(|_| ())),
        ];
        for (path, result) in results {
            match result {
                Err(Error::Unsupported(what)) => assert!(what.contains(names), "{path}: {what}"),
                other => panic!("{path}: {sql}: expected Unsupported, got {other:?}"),
            }
        }
        assert_eq!(db.budget().used(), db.table_bytes(), "{sql}");
        assert_eq!(db.live_spill_files(), 0, "{sql}");
        assert!(!db.table_names().iter().any(|t| t == "refused"), "{sql}");
        let rs = db.execute("SELECT COUNT(*) FROM runs").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(7)), "after {sql}");
    }
}
