//! E1 — golden reproduction of the paper's Fig. 2: the exact SQL text, the
//! exact gate tables, and the exact intermediate state tables T0 → T3 for
//! the 3-qubit GHZ running example.

use qymera::circuit::library;
use qymera::sqldb::{Database, Value};
use qymera::translate::SqlSimulator;

const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// The full query of Fig. 2c, exactly as the translator must emit it.
const FIG2C_SQL: &str = "WITH T1 AS (SELECT ((T0.s & ~1) | H.out_s) AS s, \
SUM((T0.r * H.r) - (T0.i * H.i)) AS r, \
SUM((T0.r * H.i) + (T0.i * H.r)) AS i \
FROM T0 JOIN H ON H.in_s = (T0.s & 1) \
GROUP BY ((T0.s & ~1) | H.out_s)), \
T2 AS (SELECT ((T1.s & ~3) | CX.out_s) AS s, \
SUM((T1.r * CX.r) - (T1.i * CX.i)) AS r, \
SUM((T1.r * CX.i) + (T1.i * CX.r)) AS i \
FROM T1 JOIN CX ON CX.in_s = (T1.s & 3) \
GROUP BY ((T1.s & ~3) | CX.out_s)), \
T3 AS (SELECT ((T2.s & ~6) | (CX.out_s << 1)) AS s, \
SUM((T2.r * CX.r) - (T2.i * CX.i)) AS r, \
SUM((T2.r * CX.i) + (T2.i * CX.r)) AS i \
FROM T2 JOIN CX ON CX.in_s = ((T2.s >> 1) & 3) \
GROUP BY ((T2.s & ~6) | (CX.out_s << 1))) \
SELECT s, r, i FROM T3 ORDER BY s";

#[test]
fn generated_sql_is_exactly_fig2c() {
    let sql = SqlSimulator::paper_default().generated_sql(&library::ghz(3));
    assert_eq!(sql, FIG2C_SQL);
}

#[test]
fn gate_tables_match_fig2b() {
    use qymera::circuit::{gate_table_entries, Gate, GateKind};
    // H table: in_s/out_s ∈ {0,1}, amplitudes ±1/√2.
    let h = gate_table_entries(&Gate::new(GateKind::H, vec![0], vec![]), 1e-15);
    let expected_h: Vec<(u64, u64, f64)> = vec![
        (0, 0, INV_SQRT2),
        (0, 1, INV_SQRT2),
        (1, 0, INV_SQRT2),
        (1, 1, -INV_SQRT2),
    ];
    assert_eq!(h.len(), 4);
    for ((i, o, amp), (ei, eo, er)) in h.iter().zip(&expected_h) {
        assert_eq!((i, o), (ei, eo));
        assert!((amp.re - er).abs() < 1e-15 && amp.im == 0.0);
    }
    // CX table: exactly the permutation of Fig. 2b.
    let cx = gate_table_entries(&Gate::new(GateKind::Cx, vec![0, 1], vec![]), 1e-15);
    let perm: Vec<(u64, u64)> = cx.iter().map(|&(i, o, _)| (i, o)).collect();
    assert_eq!(perm, vec![(0, 0), (1, 3), (2, 2), (3, 1)]);
    assert!(cx.iter().all(|(_, _, a)| (a.re - 1.0).abs() < 1e-15 && a.im == 0.0));
}

#[test]
fn executing_fig2c_verbatim_yields_fig2_output() {
    // Build the database exactly as Fig. 2b describes, then run the paper's
    // SQL text through the engine.
    let mut db = Database::new();
    db.execute("CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    db.execute("INSERT INTO T0 VALUES (0, 1.0, 0.0)").unwrap();
    db.execute("CREATE TABLE H (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    db.execute(&format!(
        "INSERT INTO H VALUES (0,0,{INV_SQRT2},0.0),(0,1,{INV_SQRT2},0.0),\
         (1,0,{INV_SQRT2},0.0),(1,1,{},0.0)",
        -INV_SQRT2
    ))
    .unwrap();
    db.execute("CREATE TABLE CX (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    db.execute(
        "INSERT INTO CX VALUES (0,0,1.0,0.0),(1,3,1.0,0.0),(2,2,1.0,0.0),(3,1,1.0,0.0)",
    )
    .unwrap();

    let rs = db.execute(FIG2C_SQL).unwrap();
    assert_eq!(rs.columns(), &["s", "r", "i"]);
    // Final output state (Fig. 2c): rows s=0 and s=7 with r = 1/√2, i = 0.
    assert_eq!(rs.rows().len(), 2);
    assert_eq!(rs.rows()[0][0], Value::Int(0));
    assert!((rs.rows()[0][1].as_f64().unwrap() - INV_SQRT2).abs() < 1e-12);
    assert_eq!(rs.rows()[0][2], Value::Float(0.0));
    assert_eq!(rs.rows()[1][0], Value::Int(7));
    assert!((rs.rows()[1][1].as_f64().unwrap() - INV_SQRT2).abs() < 1e-12);
}

#[test]
fn intermediate_tables_match_fig2c() {
    // Fig. 2c shows T1 = {0, 1}, T2 = {0, 3}, T3 = {0, 7}, all amplitudes
    // 1/√2 — verified through the step-table trace.
    let states = SqlSimulator::paper_default().run_trace(&library::ghz(3)).unwrap().states;
    let expect: [&[i64]; 4] = [&[0], &[0, 1], &[0, 3], &[0, 7]];
    for (k, (state, want)) in states.iter().zip(expect).enumerate() {
        let got: Vec<i64> = state.iter().map(|a| a.s.as_i64().unwrap()).collect();
        assert_eq!(got, want, "table T{k}");
        let amp = if k == 0 { 1.0 } else { INV_SQRT2 };
        for a in state {
            assert!((a.amp.re - amp).abs() < 1e-12, "T{k} amplitude");
            assert!(a.amp.im.abs() < 1e-15);
        }
    }
}

#[test]
fn bitwise_operator_table1_end_to_end() {
    // Every operator in the paper's Table 1, evaluated by the engine over a
    // one-row table (a SELECT needs a FROM).
    let mut db = Database::new();
    db.execute("CREATE TABLE one (x INTEGER)").unwrap();
    db.execute("INSERT INTO one VALUES (0)").unwrap();
    let cases = [
        ("SELECT 12 & 10", 8),
        ("SELECT 12 | 10", 14),
        ("SELECT ~1", -2),
        ("SELECT 1 << 4", 16),
        ("SELECT 16 >> 2", 4),
        // and the composed Fig. 2 idiom
        ("SELECT (5 & ~1) | 0", 4),
        ("SELECT (6 >> 1) & 3", 3),
    ];
    for (sql, want) in cases {
        let rs = db.execute(&format!("{sql} FROM one")).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(want)), "{sql}");
    }
}
