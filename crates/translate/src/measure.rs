//! Measurement and analysis queries over a final state table — the Output
//! Layer's "final quantum state, including measurement probabilities"
//! (§3.4), expressed as SQL like everything else in Qymera.

/// Total squared norm: should return 1 for a valid state.
pub fn norm_query(table: &str) -> String {
    format!("SELECT SUM((r * r) + (i * i)) AS norm FROM {table}")
}

/// Basis-state probabilities, most probable first.
pub fn probabilities_query(table: &str, limit: Option<usize>) -> String {
    let mut sql = format!(
        "SELECT s, ((r * r) + (i * i)) AS p FROM {table} ORDER BY p DESC, s"
    );
    if let Some(k) = limit {
        sql.push_str(&format!(" LIMIT {k}"));
    }
    sql
}

/// Marginal distribution of one qubit: rows `(bit, probability)`.
/// The bit expression is wrapped in `CAST(… AS INTEGER)` so it stays an
/// ordinary integer under the `HUGEINT` encoding as well.
pub fn marginal_query(table: &str, qubit: usize) -> String {
    let bit = bit_expr(table, qubit);
    format!(
        "SELECT {bit} AS bit, SUM((r * r) + (i * i)) AS p FROM {table} GROUP BY {bit} ORDER BY bit"
    )
}

/// ⟨Z_q⟩ expectation: Σ p(s) · (1 − 2·bit_q(s)).
pub fn expectation_z_query(table: &str, qubit: usize) -> String {
    let bit = bit_expr(table, qubit);
    format!("SELECT SUM(((r * r) + (i * i)) * (1 - (2 * {bit}))) AS ez FROM {table}")
}

/// Probability that qubits measured in the computational basis equal
/// `pattern` on the masked positions: rows restricted by `s & mask = value`.
pub fn pattern_probability_query(table: &str, mask: u64, value: u64) -> String {
    format!(
        "SELECT SUM((r * r) + (i * i)) AS p FROM {table} WHERE (s & {mask}) = {value}"
    )
}

/// Number of stored (nonzero) basis states.
pub fn support_size_query(table: &str) -> String {
    format!("SELECT COUNT(*) AS nonzeros FROM {table}")
}

/// Number of distinct configurations the masked qubits take across the
/// support: `COUNT(DISTINCT s & mask)`. A quick entanglement/locality probe
/// — a product state over the masked qubits shows exactly one configuration
/// per branch of the rest.
pub fn mask_support_query(table: &str, mask: u64) -> String {
    format!("SELECT COUNT(DISTINCT (s & {mask})) AS configs FROM {table}")
}

/// Per-basis-state comparison of two state tables (debugging / fidelity
/// inspection): every basis state of `a` with `b`'s amplitude beside it,
/// NULL-padded where `b` has no such state. States present only in `b` can
/// be listed by swapping the arguments.
pub fn state_diff_query(a: &str, b: &str) -> String {
    format!(
        "SELECT {a}.s AS s, {a}.r AS ar, {a}.i AS ai, {b}.r AS br, {b}.i AS bi \
         FROM {a} LEFT JOIN {b} ON {b}.s = {a}.s ORDER BY {a}.s"
    )
}

fn bit_expr(table: &str, qubit: usize) -> String {
    if qubit == 0 {
        format!("CAST(({table}.s & 1) AS INTEGER)")
    } else {
        format!("CAST((({table}.s >> {qubit}) & 1) AS INTEGER)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qymera_sqldb::{Database, Value};

    fn ghz_state_db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE T (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        let a = std::f64::consts::FRAC_1_SQRT_2;
        db.execute(&format!("INSERT INTO T VALUES (0, {a}, 0.0), (7, {a}, 0.0)"))
            .unwrap();
        db
    }

    /// Every measurement query runs — not only parses — on a GHZ(3) state
    /// stored with `INTEGER` and with `HUGEINT` basis states, and answers
    /// what GHZ means. These are the engine's translator callers
    /// (`docs/OPERATORS.md`): a construct they need cannot go unnoticed.
    #[test]
    fn all_queries_run_on_ghz_in_both_encodings() {
        let a = std::f64::consts::FRAC_1_SQRT_2;
        for ty in ["INTEGER", "HUGEINT"] {
            let mut db = Database::new();
            for (table, states) in [("T", "(0, {a}, 0.0), (7, {a}, 0.0)"), ("U", "(0, {a}, 0.0)")] {
                db.execute(&format!("CREATE TABLE {table} (s {ty}, r DOUBLE, i DOUBLE)")).unwrap();
                let rows = states.replace("{a}", &a.to_string());
                db.execute(&format!("INSERT INTO {table} VALUES {rows}")).unwrap();
            }
            let mut run = |sql: String| {
                db.execute(&sql).unwrap_or_else(|e| panic!("{ty}: {e}: {sql}")).into_rows()
            };
            let float = |v: &Value| v.as_f64().unwrap();
            let near = |x: f64, want: f64| (x - want).abs() < 1e-12;

            assert!(near(float(&run(norm_query("T"))[0][0]), 1.0), "{ty}: norm");
            assert_eq!(run(probabilities_query("T", Some(1))).len(), 1, "{ty}");
            assert_eq!(run(probabilities_query("T", None)).len(), 2, "{ty}");
            let marginal = run(marginal_query("T", 2));
            assert_eq!(marginal.len(), 2, "{ty}: bit 0 and bit 1");
            assert!(marginal.iter().all(|row| near(float(&row[1]), 0.5)), "{ty}: {marginal:?}");
            assert!(near(float(&run(expectation_z_query("T", 0))[0][0]), 0.0), "{ty}: <Z>");
            assert!(near(float(&run(pattern_probability_query("T", 3, 3))[0][0]), 0.5), "{ty}");
            assert_eq!(run(support_size_query("T"))[0][0], Value::Int(2), "{ty}");
            assert_eq!(run(mask_support_query("T", 5))[0][0], Value::Int(2), "{ty}");
            let diff = run(state_diff_query("T", "U"));
            assert_eq!(diff.len(), 2, "{ty}: one row per state of T");
            assert!(!diff[0][3].is_null() && diff[1][3].is_null(), "{ty}: |111⟩ is NULL-padded");
        }
    }

    #[test]
    fn mask_support_counts_distinct_configs() {
        let mut db = ghz_state_db();
        // GHZ support {|000⟩, |111⟩}: qubit 0 takes two configurations, and
        // adding a state that repeats s&1 = 1 must not raise the count.
        db.execute("INSERT INTO T VALUES (5, 0.1, 0.0)").unwrap();
        let n = db.execute(&mask_support_query("T", 1)).unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(2)));
        let n = db.execute(&mask_support_query("T", 7)).unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn state_diff_pads_missing_states() {
        let mut db = ghz_state_db();
        let a = std::f64::consts::FRAC_1_SQRT_2;
        db.execute("CREATE TABLE U (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        db.execute(&format!("INSERT INTO U VALUES (0, {a}, 0.0)")).unwrap();
        let rs = db.execute(&state_diff_query("T", "U")).unwrap();
        assert_eq!(rs.rows().len(), 2, "one row per state of T");
        assert_eq!(rs.rows()[0][0], Value::Int(0));
        assert!(!rs.rows()[0][3].is_null(), "|000⟩ exists in both");
        assert_eq!(rs.rows()[1][0], Value::Int(7));
        assert!(rs.rows()[1][3].is_null(), "|111⟩ missing from U → NULL pad");
    }

    #[test]
    fn norm_and_support() {
        let mut db = ghz_state_db();
        let norm = db.execute(&norm_query("T")).unwrap().scalar().unwrap().as_f64().unwrap();
        assert!((norm - 1.0).abs() < 1e-12);
        let n = db.execute(&support_size_query("T")).unwrap();
        assert_eq!(n.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn probabilities_ordering() {
        let mut db = ghz_state_db();
        db.execute("INSERT INTO T VALUES (3, 0.1, 0.0)").unwrap();
        let rs = db.execute(&probabilities_query("T", Some(2))).unwrap();
        assert_eq!(rs.rows().len(), 2);
        // the two GHZ components (p = 0.5) come before the 0.01 entry
        assert_eq!(rs.rows()[0][0], Value::Int(0));
        assert_eq!(rs.rows()[1][0], Value::Int(7));
    }

    #[test]
    fn marginal_of_ghz_qubit() {
        let mut db = ghz_state_db();
        let rs = db.execute(&marginal_query("T", 1)).unwrap();
        assert_eq!(rs.rows().len(), 2);
        assert!((rs.rows()[0][1].as_f64().unwrap() - 0.5).abs() < 1e-12);
        assert!((rs.rows()[1][1].as_f64().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn z_expectation_of_ghz_is_zero() {
        let mut db = ghz_state_db();
        let ez = db
            .execute(&expectation_z_query("T", 0))
            .unwrap()
            .scalar()
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(ez.abs() < 1e-12);
    }

    #[test]
    fn pattern_probability() {
        let mut db = ghz_state_db();
        // P(qubit0 = 1 and qubit1 = 1) = P(|111⟩) = 0.5
        let p = db
            .execute(&pattern_probability_query("T", 3, 3))
            .unwrap()
            .scalar()
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }
}
