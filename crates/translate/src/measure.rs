//! Measurement queries over a final state table — the Output Layer's
//! "final quantum state, including measurement probabilities" (§3.4),
//! expressed as SQL like everything else in Qymera. Two are kept, the two
//! `examples/educational_ghz.rs` prints: the total norm and one qubit's
//! marginal distribution. Anything else about a state is read off
//! `SimOutput::amplitudes` in Rust.

/// Total squared norm: should return 1 for a valid state.
pub fn norm_query(table: &str) -> String {
    format!("SELECT SUM((r * r) + (i * i)) AS norm FROM {table}")
}

/// Marginal distribution of one qubit: rows `(bit, probability)`, ordered
/// by bit. The bit is `((s >> q) & 1)`: 0 or 1, of the type of `s`.
pub fn marginal_query(table: &str, qubit: usize) -> String {
    let bit = format!("(({table}.s >> {qubit}) & 1)");
    format!(
        "SELECT {bit} AS bit, SUM((r * r) + (i * i)) AS p FROM {table} GROUP BY {bit} ORDER BY bit"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qymera_sqldb::{Database, Value};

    /// Both queries run — not only parse — on a GHZ(3) state stored with
    /// `INTEGER` and with `HUGEINT` basis states, and answer what GHZ means.
    /// These are the engine's translator callers (`docs/OPERATORS.md`): a
    /// construct they need cannot go unnoticed.
    #[test]
    fn both_queries_run_on_ghz_in_both_encodings() {
        let a = std::f64::consts::FRAC_1_SQRT_2;
        for ty in ["INTEGER", "HUGEINT"] {
            let mut db = Database::new();
            db.execute(&format!("CREATE TABLE T (s {ty}, r DOUBLE, i DOUBLE)")).unwrap();
            db.execute(&format!("INSERT INTO T VALUES (0, {a}, 0.0), (7, {a}, 0.0)")).unwrap();
            let mut run = |sql: String| {
                db.execute(&sql).unwrap_or_else(|e| panic!("{ty}: {e}: {sql}")).into_rows()
            };
            let float = |v: &Value| v.as_f64().unwrap();
            let near = |x: f64, want: f64| (x - want).abs() < 1e-12;

            assert!(near(float(&run(norm_query("T"))[0][0]), 1.0), "{ty}: norm");
            for q in 0..3 {
                let marginal = run(marginal_query("T", q));
                // Compared by value: a `HUGEINT` 1 equals `INTEGER` 1.
                let bits: Vec<&Value> = marginal.iter().map(|row| &row[0]).collect();
                assert_eq!(bits, [&Value::Int(0), &Value::Int(1)], "{ty}: qubit {q}");
                assert!(marginal.iter().all(|row| near(float(&row[1]), 0.5)), "{ty}: {marginal:?}");
            }
        }
    }

    #[test]
    fn marginal_of_an_uneven_state() {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        // |01⟩ with probability 0.36, |10⟩ with 0.64 (amplitude 0.8i).
        db.execute("INSERT INTO T VALUES (1, 0.6, 0.0), (2, 0.0, 0.8)").unwrap();
        let rs = db.execute(&marginal_query("T", 1)).unwrap();
        assert_eq!(rs.rows().len(), 2);
        assert!((rs.rows()[0][1].as_f64().unwrap() - 0.36).abs() < 1e-12);
        assert!((rs.rows()[1][1].as_f64().unwrap() - 0.64).abs() < 1e-12);
    }
}
