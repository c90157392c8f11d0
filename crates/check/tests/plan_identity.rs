//! Plan identity: sharing plan nodes must not change the plan anyone sees.
//! `EXPLAIN` of the benchmark's two single-query circuits and of the
//! generator's deep-CTE cases is pinned as line count plus FNV-1a hash of
//! the rendered tree. The generated cases still hash to the text the
//! deep-copying planner produced (commit 3d39675, before plan children
//! became `Arc`s); the two circuits were re-pinned when the optimizer began
//! to mark the aggregates it proves to see one row per group, and the
//! number of marked and unmarked ones is asserted next to each hash.

use qymera_check::SqlCase;
use qymera_circuit::{library, QuantumCircuit};
use qymera_sqldb::ast::Statement;
use qymera_sqldb::parser::parse_statement;
use qymera_sqldb::plan::logical::depth_bound;
use qymera_sqldb::Database;
use qymera_translate::fusion::lower_circuit;
use qymera_translate::sqlgen::{circuit_query, step_statement};
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

/// Aggregates of `text` that build a group table, and those the optimizer
/// proved to see one row per group.
fn aggregates(text: &str) -> (usize, usize) {
    let streamed = text.matches("(one row per group: streamed)").count();
    (text.matches("Aggregate [").count() - streamed, streamed)
}

#[test]
fn deep_sparse_plan_is_unchanged() {
    // perfbench's `deep_sparse`: parity check of 46 bits, 24 of them set.
    let input: Vec<bool> = (0..46).map(|q| q % 2 == 0 || q == 45).collect();
    assert_eq!(input.iter().filter(|&&b| b).count(), 24);
    let text = explain_circuit(&library::parity_check(&input));
    assert_plan("deep_sparse", &text, 353, 8_780_452_115_840_028_341);
    // X and CX only: no gate builds a group table.
    assert_eq!(aggregates(&text), (0, 70));
}

#[test]
fn wide_dense_plan_is_unchanged() {
    // perfbench's `wide_dense`: one layer of the 14-qubit ansatz.
    let ansatz = library::hardware_efficient_ansatz(14, 1);
    let angles: Vec<f64> = (0..ansatz.symbols().len()).map(|k| 0.3 + 0.05 * k as f64).collect();
    let text = explain_circuit(&ansatz.bind_values(&angles).unwrap());
    assert_plan("wide_dense", &text, 208, 17_926_480_232_214_115_492);
    // The 14 RY build a table; the 14 RZ and the 13 CX stream.
    assert_eq!(aggregates(&text), (14, 27));
}

/// Step-table mode (perfbench's `durable_steps` circuit): each statement is
/// planned over the table the previous one created, whose key is the fact
/// its `CREATE TABLE … AS` recorded — past 4,096 rows nothing else says so.
#[test]
fn qft13_step_statements_stream_all_but_the_hadamards() {
    let circuit = library::qft(13);
    let mut reg = GateTableRegistry::new();
    let ops = lower_circuit(&circuit, &mut reg, None);
    let mut db = Database::new();
    reg.materialize(&mut db).unwrap();
    create_initial_state_table(&mut db, "T0", 13, 0).unwrap();
    let (mut far_cp, mut recorded) = (0, 0);
    for (k, op) in ops.iter().enumerate() {
        let (next, select) = step_statement(k, op, 13, &SqlGenConfig::default());
        let want = if op.table == "H" { (1, 0) } else { (0, 1) };
        let text = db.explain(&select).unwrap();
        assert_eq!(aggregates(&text), want, "step {k} ({} on {:?}):\n{text}", op.table, op.qubits);
        far_cp += usize::from(op.table.starts_with("CP") && op.qubits[0] + 1 != op.qubits[1]);
        recorded += usize::from(db.table_row_count(&format!("T{k}")).unwrap() > 4096);
        db.create_table_as(&next, &select).unwrap();
    }
    assert_eq!(ops.len(), 97);
    assert_eq!(far_cp, 66, "CP gates on non-adjacent qubits");
    assert_eq!(recorded, 6, "statements whose state table is too large to check: the swaps");
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
