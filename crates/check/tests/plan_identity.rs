//! Plan identity: sharing plan nodes must not change the plan anyone sees.
//! `EXPLAIN` of the benchmark's two single-query circuits and of the
//! generator's deep-CTE cases is pinned to the text the deep-copying planner
//! produced (recorded at commit 3d39675, before plan children became `Arc`s),
//! as line count plus FNV-1a hash of the rendered tree.

use qymera_check::SqlCase;
use qymera_circuit::{library, QuantumCircuit};
use qymera_sqldb::ast::Statement;
use qymera_sqldb::parser::parse_statement;
use qymera_sqldb::plan::logical::depth_bound;
use qymera_sqldb::Database;
use qymera_translate::fusion::lower_circuit;
use qymera_translate::sqlgen::circuit_query;
use qymera_translate::tables::create_initial_state_table;
use qymera_translate::{GateTableRegistry, SqlGenConfig};

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `EXPLAIN` of the single-query translation of `circuit`.
fn explain_circuit(circuit: &QuantumCircuit) -> String {
    let mut reg = GateTableRegistry::new();
    let ops = lower_circuit(circuit, &mut reg, None);
    let mut db = Database::new();
    reg.materialize(&mut db).unwrap();
    create_initial_state_table(&mut db, "T0", circuit.num_qubits, 0).unwrap();
    let sql = circuit_query(&ops, circuit.num_qubits, "T0", &SqlGenConfig::default());
    db.explain(&sql).unwrap()
}

fn assert_plan(what: &str, text: &str, lines: usize, hash: u64) {
    let got = (text.lines().count(), fnv1a(text));
    assert_eq!(got, (lines, hash), "{what}: (lines, hash) differ from the recorded plan's");
}

#[test]
fn deep_sparse_plan_is_unchanged() {
    // perfbench's `deep_sparse`: parity check of 46 bits, 24 of them set.
    let input: Vec<bool> = (0..46).map(|q| q % 2 == 0 || q == 45).collect();
    assert_eq!(input.iter().filter(|&&b| b).count(), 24);
    let text = explain_circuit(&library::parity_check(&input));
    assert_plan("deep_sparse", &text, 353, 17_099_976_798_079_467_809);
}

#[test]
fn wide_dense_plan_is_unchanged() {
    // perfbench's `wide_dense`: one layer of the 14-qubit ansatz.
    let ansatz = library::hardware_efficient_ansatz(14, 1);
    let angles: Vec<f64> = (0..ansatz.symbols().len()).map(|k| 0.3 + 0.05 * k as f64).collect();
    let text = explain_circuit(&ansatz.bind_values(&angles).unwrap());
    assert_plan("wide_dense", &text, 208, 261_500_769_636_905_870);
}

/// `EXPLAIN` of a generated case's query over its own tables.
fn explain_case(case: &SqlCase) -> String {
    let mut db = Database::new();
    for statement in case.setup_statements() {
        db.execute(&statement).unwrap();
    }
    db.explain(&case.query_sql()).unwrap()
}

#[test]
fn generated_deep_cte_plans_are_unchanged() {
    let mut all = String::new();
    let mut cases = 0;
    for case in (0..400).map(SqlCase::generate).filter(|c| c.query.cte_depth >= 9) {
        all.push_str(&explain_case(&case));
        cases += 1;
    }
    assert_eq!(cases, 61, "deep-CTE cases among the first 400 seeds");
    assert_plan("generated deep-CTE cases", &all, 1861, 14_081_049_551_076_021_020);
}

/// The engine picks its stack from `depth_bound` before a plan exists, so
/// the bound must hold for whatever the generator can write.
#[test]
fn depth_bound_holds_on_generated_queries() {
    for case in (0..400).map(SqlCase::generate) {
        let Statement::Query(query) = parse_statement(&case.query_sql()).unwrap() else {
            panic!("seed {}: not a query", case.seed)
        };
        // One level per two spaces of indentation.
        let text = explain_case(&case);
        let depth = text.lines().map(|l| (l.len() - l.trim_start().len()) / 2 + 1).max();
        assert!(Some(depth_bound(&query)) >= depth, "seed {}:\n{text}", case.seed);
    }
}
