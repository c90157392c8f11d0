//! Engine-level integration tests: the SQL surface beyond the translator's
//! gate query — CTEs, join chains, `HAVING`, sums, ordering, CTAS,
//! `explain` — exercised end-to-end, and the constructs the engine refuses
//! (`docs/OPERATORS.md`'s audit) refused everywhere.

use qymera_sqldb::{Database, Error, Value};

fn fixture() -> Database {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE runs (id INTEGER, backend TEXT, qubits INTEGER, ms DOUBLE)",
        "INSERT INTO runs VALUES (1, 'sql', 4, 1.5), (2, 'sql', 8, 6.0), \
             (3, 'statevector', 4, 0.1), (4, 'statevector', 8, 0.4), (5, 'sparse', 4, 0.2), \
             (6, 'sparse', 8, 0.3), (7, 'sql', 12, 40.0)",
        "CREATE TABLE caps (backend TEXT, max_qubits INTEGER)",
        "INSERT INTO caps VALUES ('sql', 63), ('statevector', 27)",
    ] {
        db.execute(sql).unwrap();
    }
    db
}

#[test]
fn group_by_having_and_aggregates() {
    let mut db = fixture();
    let rs = db
        .execute(
            "SELECT backend, COUNT(*) AS n, SUM(ms) AS total \
             FROM runs GROUP BY backend HAVING COUNT(*) > 2 ORDER BY backend",
        )
        .unwrap();
    assert_eq!(rs.rows().len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Str("sql".into()));
    assert_eq!(rs.rows()[0][1], Value::Int(3));
    assert_eq!(rs.rows()[0][2], Value::Float(1.5 + 6.0 + 40.0));
}

/// `''` inside a string literal is one quote; non-ASCII text comes back as written.
#[test]
fn string_literals_round_trip() {
    let mut db = fixture();
    let rs = db.execute("SELECT 'it''s', 'é', COUNT(*) FROM runs").unwrap();
    let want = [Value::Str("it's".into()), Value::Str("é".into()), Value::Int(7)];
    assert_eq!(rs.rows(), [want]);
}

/// An inner join keeps the rows that match: `sparse` has no cap row.
#[test]
fn join_keeps_only_matching_rows() {
    let mut db = fixture();
    let rs = db
        .execute(
            "SELECT runs.backend, caps.max_qubits FROM runs \
             JOIN caps ON runs.backend = caps.backend ORDER BY runs.backend",
        )
        .unwrap();
    assert_eq!(rs.rows().len(), 5);
    assert_eq!(rs.rows()[0], [Value::Str("sql".into()), Value::Int(63)]);
    assert_eq!(rs.rows()[4], [Value::Str("statevector".into()), Value::Int(27)]);
}

#[test]
fn aggregate_with_having_in_a_cte() {
    let mut db = fixture();
    let rs = db
        .execute(
            "WITH agg AS (SELECT backend, SUM(ms) AS total FROM runs GROUP BY backend \
             HAVING SUM(ms) > 0.5) SELECT backend, total FROM agg ORDER BY total",
        )
        .unwrap();
    assert_eq!(rs.rows().len(), 1, "sparse and statevector sum to 0.5");
    assert_eq!(rs.rows()[0][0], Value::Str("sql".into()));
    assert!((rs.rows()[0][1].as_f64().unwrap() - 47.5).abs() < 1e-12);
}

#[test]
fn group_by_over_a_cte() {
    let mut db = fixture();
    let rs = db
        .execute(
            "WITH u AS (SELECT backend, qubits FROM runs) \
             SELECT backend FROM u GROUP BY backend ORDER BY backend",
        )
        .unwrap();
    let names: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["sparse", "sql", "statevector"]);
}

/// `HAVING` filters groups with `=` and `>`, a zero sum included.
#[test]
fn having_filters_groups() {
    let mut db = fixture();
    let rs = db.execute("SELECT COUNT(*) FROM runs GROUP BY qubits HAVING qubits = 4").unwrap();
    assert_eq!(rs.rows(), [[Value::Int(3)]]);
    let rs = db
        .execute("SELECT id FROM runs GROUP BY id HAVING SUM(ms) > SUM(qubits)")
        .unwrap();
    assert_eq!(rs.rows(), [[Value::Int(7)]]);
    db.execute("INSERT INTO caps VALUES ('sparse', 0)").unwrap();
    let rs = db.execute("SELECT COUNT(*) AS n, SUM(max_qubits) AS total FROM caps").unwrap();
    assert_eq!(rs.rows(), [[Value::Int(3), Value::Int(63 + 27)]]);
    let rs = db
        .execute("SELECT backend FROM caps GROUP BY backend HAVING SUM(max_qubits) > 0")
        .unwrap();
    assert_eq!(rs.rows().len(), 2, "the sparse sum is 0");
}

#[test]
fn order_by_one_key_keeps_ties_in_input_order() {
    let mut db = fixture();
    let rs = db.execute("SELECT backend, qubits FROM runs ORDER BY backend").unwrap();
    assert_eq!(rs.rows().len(), 7);
    assert_eq!(rs.rows()[0], [Value::Str("sparse".into()), Value::Int(4)]);
    assert_eq!(rs.rows()[1], [Value::Str("sparse".into()), Value::Int(8)]);
    assert_eq!(rs.rows()[4], [Value::Str("sql".into()), Value::Int(12)]);
}

#[test]
fn ctas_then_query_then_drop() {
    let mut db = fixture();
    let n = db
        .create_table_as("fast_runs", "SELECT id, SUM(ms) AS ms FROM runs GROUP BY id HAVING 1.0 > SUM(ms)")
        .unwrap();
    assert_eq!(n, 4);
    let rs = db.execute("SELECT COUNT(*) FROM fast_runs").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(4)));
    db.execute("DROP TABLE fast_runs").unwrap();
    assert!(db.execute("SELECT id FROM fast_runs").is_err());
}

#[test]
fn explain_renders_the_plan() {
    let db = fixture();
    let text = db
        .explain("SELECT backend, SUM(ms) FROM runs GROUP BY backend ORDER BY backend")
        .unwrap();
    assert!(text.contains("Aggregate"));
    assert!(text.contains("Sort"));
    assert!(text.contains("Scan runs"));
}

#[test]
fn arithmetic_edge_cases_surface_as_errors() {
    let mut db = fixture();
    db.execute("CREATE TABLE one (x INTEGER)").unwrap();
    db.execute("INSERT INTO one VALUES (1)").unwrap();
    let one_row = |sql: &str| format!("SELECT {sql} FROM one");
    assert!(matches!(db.execute(&one_row("1 >> -1")), Err(Error::Eval(_))));
    assert!(matches!(db.execute(&one_row("9223372036854775807 + 1")), Err(Error::Eval(_))));
    // but a float overflow is IEEE infinity, not an error
    let rs = db.execute(&one_row("1e308 * 10.0")).unwrap();
    assert_eq!(rs.scalar().unwrap().as_f64().unwrap(), f64::INFINITY);
}

#[test]
fn three_way_join_chain() {
    let mut db = fixture();
    for sql in [
        "CREATE TABLE teams (backend TEXT, team TEXT)",
        "INSERT INTO teams VALUES ('sql', 'db'), ('statevector', 'hpc')",
    ] {
        db.execute(sql).unwrap();
    }
    let rs = db
        .execute(
            "SELECT runs.id, caps.max_qubits, teams.team FROM runs \
             JOIN caps ON runs.backend = caps.backend \
             JOIN teams ON caps.backend = teams.backend \
             ORDER BY runs.id",
        )
        .unwrap();
    let teams: Vec<String> = rs.rows().iter().map(|r| r[2].to_string()).collect();
    assert_eq!(teams, ["db", "db", "hpc", "hpc", "db"]);
}

#[test]
fn string_functions_in_queries() {
    let mut db = fixture();
    let rs = db
        .execute("SELECT CONCAT(SUBSTR(backend, 1, 2), '!') AS b FROM caps ORDER BY b")
        .unwrap();
    assert_eq!(rs.rows(), [[Value::Str("sq!".into())], [Value::Str("st!".into())]]);
}

/// Every construct without a caller is refused before it reaches an
/// operator, from the executor, `EXPLAIN`, the reference interpreter and
/// CTAS alike, leaving nothing behind: a construct that meant something is a
/// typed `Error::Unsupported` naming it (`Some(name)`), a removed spelling
/// of one that stays is a parse error (`None`).
#[test]
fn deleted_constructs_are_unsupported_everywhere() {
    let cases: &[(&str, Option<&str>)] = &[
        ("SELECT COUNT(*) FROM caps CROSS JOIN caps AS c2", Some("CROSS JOIN")),
        ("SELECT COUNT(*) FROM caps, caps AS c2", Some("CROSS JOIN")),
        ("SELECT runs.id FROM runs JOIN caps ON runs.qubits > caps.max_qubits", Some("join condition")),
        ("SELECT runs.id FROM runs JOIN caps ON caps.max_qubits > 4", Some("join condition")),
        ("SELECT runs.id FROM runs JOIN caps ON runs.backend = runs.backend", Some("join condition")),
        ("SELECT runs.id FROM runs RIGHT JOIN caps ON runs.backend = caps.backend", Some("RIGHT JOIN")),
        ("SELECT runs.id FROM runs LEFT JOIN caps ON runs.backend = caps.backend", Some("LEFT JOIN")),
        ("SELECT runs.id FROM runs LEFT OUTER JOIN caps ON runs.backend = caps.backend", Some("LEFT JOIN")),
        ("SELECT backend FROM runs UNION ALL SELECT backend FROM caps", Some("UNION ALL")),
        ("SELECT CASE WHEN ms > 1.0 THEN 'slow' ELSE 'fast' END FROM runs", Some("CASE")),
        ("SELECT ABS(ms) FROM runs", Some("ABS")),
        ("SELECT SQRT(ms) FROM runs", Some("SQRT")),
        ("SELECT POW(ms, 2) FROM runs", Some("POW")),
        ("SELECT FLOOR(ms) FROM runs", Some("FLOOR")),
        ("SELECT CEIL(ms) FROM runs", Some("CEIL")),
        ("SELECT ROUND(ms, 1) FROM runs", Some("ROUND")),
        ("SELECT COS(ms) FROM runs", Some("COS")),
        ("SELECT SIN(ms) FROM runs", Some("SIN")),
        ("SELECT EXP(ms) FROM runs", Some("EXP")),
        ("SELECT LN(ms) FROM runs", Some("LN")),
        ("SELECT SIGN(ms) FROM runs", Some("SIGN")),
        ("SELECT COALESCE(ms, 0.0) FROM runs", Some("COALESCE")),
        ("SELECT LENGTH(backend) FROM runs", Some("LENGTH")),
        ("SELECT UPPER(backend) FROM runs", Some("UPPER")),
        ("SELECT LOWER(backend) FROM runs", Some("LOWER")),
        ("SELECT CAST(ms AS INTEGER) FROM runs", Some("CAST")),
        ("SELECT CAST(id AS INT) FROM runs", Some("CAST")),
        // Aggregates.
        ("SELECT COUNT(DISTINCT qubits) FROM runs", Some("COUNT(DISTINCT")),
        ("SELECT SUM(DISTINCT ms) FROM runs", Some("SUM(DISTINCT")),
        ("SELECT COUNT(ms) FROM runs", Some("COUNT(expr)")),
        ("SELECT backend, AVG(ms) AS avg_ms FROM runs GROUP BY backend", Some("AVG")),
        ("SELECT MIN(qubits) FROM runs", Some("MIN")),
        ("SELECT MAX(DISTINCT qubits) FROM runs", Some("MAX")),
        // Statements.
        ("DELETE FROM runs WHERE id = 1", Some("DELETE")),
        ("DELETE FROM runs", Some("DELETE")),
        ("EXPLAIN SELECT id FROM runs", Some("EXPLAIN")),
        ("CREATE TABLE IF NOT EXISTS runs (id INTEGER)", Some("IF [NOT] EXISTS")),
        ("DROP TABLE IF EXISTS runs", Some("IF [NOT] EXISTS")),
        ("INSERT INTO runs (id) VALUES (8)", Some("INSERT column list")),
        ("SELECT id FROM runs; SELECT id FROM caps", Some("`;`")),
        ("DROP TABLE caps;", Some("`;`")),
        // Query forms.
        ("SELECT u.id FROM (SELECT id FROM runs) AS u", Some("subquery in FROM")),
        ("(SELECT id FROM runs)", Some("parenthesized query")),
        ("WITH a AS ((SELECT id FROM runs)) SELECT id FROM a", Some("parenthesized query")),
        ("SELECT runs.* FROM runs", Some("`table.*`")),
        ("SELECT * FROM runs", Some("`*` in a select list")),
        ("SELECT DISTINCT backend FROM runs", Some("SELECT DISTINCT")),
        ("SELECT id ident FROM runs", Some("bare alias")),
        ("SELECT r.id FROM runs r", Some("bare alias")),
        ("SELECT 1 + 1", Some("SELECT without FROM")),
        ("WITH RECURSIVE a AS (SELECT id FROM runs) SELECT id FROM a", Some("WITH RECURSIVE")),
        ("SELECT id FROM runs ORDER BY 1", Some("ORDER BY an ordinal")),
        ("SELECT id FROM runs ORDER BY id OFFSET 1", Some("OFFSET")),
        ("SELECT id FROM runs WHERE qubits = 4", Some("WHERE")),
        ("SELECT id FROM runs ORDER BY id LIMIT 2", Some("LIMIT")),
        ("SELECT id FROM runs ORDER BY id DESC", Some("ORDER BY … DESC")),
        ("SELECT id, qubits FROM runs ORDER BY qubits, id", Some("a second ORDER BY key")),
        // Expressions and names.
        ("SELECT id = 1 OR id = 2 FROM runs", Some("OR")),
        ("SELECT id = 1 AND qubits = 4 FROM runs", Some("AND")),
        ("SELECT NOT id = 1 FROM runs", Some("NOT")),
        ("SELECT id NOT IN (1, 2) FROM runs", Some("NOT")),
        ("SELECT qubits IN (4, 8) FROM runs", Some("IN")),
        ("SELECT ms IS NULL FROM runs", Some("IS [NOT] NULL")),
        ("SELECT ms IS NOT NULL FROM runs", Some("IS [NOT] NULL")),
        ("SELECT NULL AS n FROM runs", Some("NULL")),
        ("INSERT INTO caps VALUES ('mps', NULL)", Some("NULL")),
        ("SELECT id > NULL AS z FROM runs", Some("NULL")),
        ("SELECT id != 1 FROM runs", Some("`!=`")),
        ("SELECT id <> 1 FROM runs", Some("`<>`")),
        ("SELECT id < 2 FROM runs", Some("`<`")),
        ("SELECT id <= 2 FROM runs", Some("`<=`")),
        ("SELECT id >= 2 FROM runs", Some("`>=`")),
        ("SELECT ms / 2.0 FROM runs", Some("`/`")),
        ("SELECT id % 2 FROM runs", Some("`%`")),
        ("SELECT ms BETWEEN 0.2 AND 1.5 FROM runs", Some("BETWEEN")),
        ("SELECT TRUE FROM runs", Some("TRUE")),
        ("SELECT FALSE FROM runs", Some("FALSE")),
        ("SELECT \"id\" FROM runs", Some("quoted")),
        // Not `id - (-qubits)`: a comment is refused, never skipped.
        ("SELECT id --qubits FROM runs", Some("`--` comment")),
        ("SELECT id FROM runs -- trailing", Some("`--` comment")),
        ("SELECT id /* block */ FROM runs", Some("`/* */` comment")),
        // Spellings.
        ("SELECT id == 1 FROM runs", None),
        ("START TRANSACTION", None),
        ("BEGIN TRANSACTION", None),
        ("BEGIN WORK", None),
        ("COMMIT WORK", None),
        ("END", None),
        ("ROLLBACK TRANSACTION", None),
        ("ROLLBACK TO SAVEPOINT sp", None),
        ("SELECT ALL id FROM runs", None),
        ("SELECT runs.id FROM runs INNER JOIN caps ON runs.backend = caps.backend", None),
        ("SELECT id FROM runs ORDER BY id ASC", None),
        ("SELECT +id FROM runs", None),
        ("CREATE TABLE t2 (a INT)", None),
        ("CREATE TABLE t2 (a BIGINT)", None),
        ("CREATE TABLE t2 (a REAL)", None),
        ("CREATE TABLE t2 (a VARCHAR(8))", None),
        ("CREATE TABLE t2 (a DOUBLE PRECISION)", None),
    ];
    let mut db = fixture();
    for &(sql, names) in cases {
        let results = [
            ("execute", db.execute(sql).map(|_| ())),
            ("explain", db.explain(sql).map(|_| ())),
            ("query_reference", db.query_reference(sql).map(|_| ())),
            ("create_table_as", db.create_table_as("refused", sql).map(|_| ())),
        ];
        for (path, result) in results {
            match (result, names) {
                (Err(Error::Unsupported(what)), Some(names)) => {
                    assert!(what.contains(names), "{path}: {sql}: {what}")
                }
                (Err(Error::Parse { .. }), None) => {}
                (other, _) => panic!("{path}: {sql}: expected {names:?}, got {other:?}"),
            }
        }
        assert_eq!(db.budget().used(), db.table_bytes(), "{sql}");
        assert_eq!(db.live_spill_files(), 0, "{sql}");
        assert!(!db.in_transaction(), "{sql}");
        let mut tables = db.table_names();
        tables.sort();
        assert_eq!(tables, ["caps", "runs"], "{sql}");
        let rs = db.execute("SELECT COUNT(*) FROM runs").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(7)), "after {sql}");
    }
}
