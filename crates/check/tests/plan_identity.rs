//! Plan identity: sharing plan nodes must not change the plan anyone sees.
//! `EXPLAIN` of the benchmark's two single-query circuits and of the
//! generator's deep-CTE cases is pinned as line count plus FNV-1a hash of
//! the rendered tree. The two circuits were re-pinned when the optimizer
//! began to mark the aggregates it proved to see one row per group, and
//! again when that proof was deleted (the translator now writes such gates
//! without a `GROUP BY`, and Fig. 2c groups every gate): the new texts are
//! the old ones with the mark removed, and the number of aggregates is
//! asserted next to each hash. The
//! generated cases were re-pinned when the generator stopped drawing joins
//! and aggregates the engine no longer has: the engine of the commit before
//! renders the new cases to the same text. They were re-pinned again when
//! the optimizer stopped pushing `WHERE` conjuncts into and below inner
//! joins: the 11 cases with a `WHERE` over a join now show one `Filter`
//! above the `Join` where they showed filters below it, and no other line
//! moved. They were re-pinned once more when the generator came to speak
//! only the engine's kept language (one `=` or `>` predicate, `SUM`,
//! `COUNT(*)`, `COUNT(DISTINCT)`, `HAVING`, no `DISTINCT`, `*` or `OFFSET`):
//! the engine of the commit before renders the new cases to the same text
//! once its `Limit Some(n) offset 0` lines read `Limit n`, the one line
//! `OFFSET`'s deletion changed. They were re-pinned last when the generator
//! stopped drawing `WHERE`, `LEFT JOIN`, `LIMIT`, `DESC`, second `ORDER BY`
//! keys and `COUNT(DISTINCT)`, which the engine no longer has: the engine
//! of the commit before renders the new cases to the same text.
//!
//! The labels do not show which column an expression reads, so the three
//! benchmark translations are also pinned by their bound expressions: every
//! plan node's, in pre-order, rendered with `{:?}`. These hashes were
//! recorded before the front end stopped binding aggregate queries twice.
//!
//! All of these are Fig. 2c's translation ([`SqlGenConfig::FIG_2C`]: every
//! gate a join), which the default no longer is. The default translation,
//! which writes lone permutation gates as projections, is pinned beside
//! them for `deep_sparse` and `qft:13`.

use qymera_check::circuits::translation_with_catalog;
use qymera_check::SqlCase;
use qymera_circuit::{library, QuantumCircuit};
use qymera_sqldb::ast::Statement;
use qymera_sqldb::parser::parse_statement;
use qymera_sqldb::plan::logical::{depth_bound, plan_query, Plan};
use qymera_sqldb::plan::optimizer::optimize;
use qymera_sqldb::Database;
use qymera_translate::fusion::lower_circuit;
use qymera_translate::sqlgen::{circuit_query, step_statement};
use qymera_translate::tables::create_initial_state_table;
use qymera_translate::{GateTableRegistry, SqlGenConfig};

/// (`EXPLAIN` lines, hash, bound-expression lines, hash) of the default
/// translations.
const DEEP_SPARSE_PROJECTED: (usize, u64, usize, u64) = (143, 81_576_898_285_483_659, 143, 3_852_582_857_348_530_560);
const QFT13_PROJECTED: (usize, u64, usize, u64) = (236, 8_226_431_546_367_662_179, 236, 6_351_803_627_552_042_117);

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `EXPLAIN` of the unfused single-query translation of `circuit`.
fn explain_circuit(circuit: &QuantumCircuit, cfg: &SqlGenConfig) -> String {
    let mut reg = GateTableRegistry::for_sql(cfg);
    let ops = lower_circuit(circuit, &mut reg, None);
    let mut db = Database::new();
    reg.materialize(&mut db).unwrap();
    create_initial_state_table(&mut db, "T0", circuit.num_qubits, 0).unwrap();
    let sql = circuit_query(&ops, circuit.num_qubits, "T0", cfg);
    db.explain(&sql).unwrap()
}

/// Every node's bound expressions of the optimized single-query
/// translation of `circuit`, one line per node in pre-order. Binding needs
/// the tables' columns only, so the catalog holds no rows.
fn bound_exprs_circuit(circuit: &QuantumCircuit, cfg: &SqlGenConfig) -> String {
    let (sql, catalog) = translation_with_catalog(circuit, cfg);
    let Statement::Query(query) = parse_statement(&sql).unwrap() else { unreachable!() };
    let plan = optimize(plan_query(&query, &catalog).unwrap());
    let mut out = String::new();
    render_bound(&plan, &mut out);
    out
}

fn render_bound(plan: &Plan, out: &mut String) {
    let line = match plan {
        Plan::Filter { predicate, .. } => format!("{predicate:?}"),
        Plan::Project { exprs, .. } => format!("{exprs:?}"),
        Plan::Join { on, .. } => format!("{on:?}"),
        Plan::Aggregate { group_by, aggs, .. } => format!("{group_by:?} {aggs:?}"),
        // A sort used to hold a list of keys, each with a direction; its
        // one ascending key is rendered as that list was, so the hashes
        // recorded before stay comparable.
        Plan::Sort { key, .. } => format!("[SortKey {{ expr: {key:?}, desc: false }}]"),
        Plan::Scan { .. } | Plan::Alias { .. } => String::new(),
    };
    out.push_str(&line);
    out.push('\n');
    match plan {
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Alias { input, .. } => render_bound(input, out),
        Plan::Join { left, right, .. } => {
            render_bound(left, out);
            render_bound(right, out);
        }
        Plan::Scan { .. } => {}
    }
}

fn assert_plan(what: &str, text: &str, lines: usize, hash: u64) {
    let got = (text.lines().count(), fnv1a(text));
    assert_eq!(got, (lines, hash), "{what}: (lines, hash) differ from the recorded plan's");
}

/// Aggregates (each builds a group table) and joins in `text`.
fn aggregates_and_joins(text: &str) -> (usize, usize) {
    (text.matches("Aggregate [").count(), text.matches("Join ").count())
}

#[test]
fn deep_sparse_plan_is_unchanged() {
    // perfbench's `deep_sparse`: parity check of 46 bits, 24 of them set.
    let input: Vec<bool> = (0..46).map(|q| q % 2 == 0 || q == 45).collect();
    assert_eq!(input.iter().filter(|&&b| b).count(), 24);
    let text = explain_circuit(&library::parity_check(&input), &SqlGenConfig::FIG_2C);
    assert_plan("deep_sparse", &text, 353, 17_099_976_798_079_467_809);
    // X and CX only, yet Fig. 2c groups every gate.
    assert_eq!(aggregates_and_joins(&text), (70, 70));
    let bound = bound_exprs_circuit(&library::parity_check(&input), &SqlGenConfig::FIG_2C);
    assert_plan("deep_sparse bound expressions", &bound, 353, 14_801_420_637_632_251_740);
}

/// The default translation of `deep_sparse`: 70 projections, no join, no
/// aggregate.
#[test]
fn deep_sparse_projections_are_unchanged() {
    let input: Vec<bool> = (0..46).map(|q| q % 2 == 0 || q == 45).collect();
    let text = explain_circuit(&library::parity_check(&input), &SqlGenConfig::default());
    assert_eq!(aggregates_and_joins(&text), (0, 0));
    assert_eq!(text.matches("Project").count(), 71, "one per gate and the final SELECT");
    assert_plan("deep_sparse (default)", &text, DEEP_SPARSE_PROJECTED.0, DEEP_SPARSE_PROJECTED.1);
    let bound = bound_exprs_circuit(&library::parity_check(&input), &SqlGenConfig::default());
    assert_plan("deep_sparse (default) bound expressions", &bound, DEEP_SPARSE_PROJECTED.2, DEEP_SPARSE_PROJECTED.3);
}

#[test]
fn wide_dense_plan_is_unchanged() {
    // perfbench's `wide_dense`: one layer of the 14-qubit ansatz.
    let ansatz = library::hardware_efficient_ansatz(14, 1);
    let angles: Vec<f64> = (0..ansatz.symbols().len()).map(|k| 0.3 + 0.05 * k as f64).collect();
    let text = explain_circuit(&ansatz.bind_values(&angles).unwrap(), &SqlGenConfig::FIG_2C);
    assert_plan("wide_dense", &text, 208, 261_500_769_636_905_870);
    // 14 RY, 14 RZ and 13 CX: Fig. 2c groups every gate.
    assert_eq!(aggregates_and_joins(&text), (41, 41));
    let bound = bound_exprs_circuit(&ansatz.bind_values(&angles).unwrap(), &SqlGenConfig::FIG_2C);
    assert_plan("wide_dense bound expressions", &bound, 208, 15_297_289_258_910_485_199);
}

#[test]
fn qft13_bound_expressions_are_unchanged() {
    let bound = bound_exprs_circuit(&library::qft(13), &SqlGenConfig::FIG_2C);
    assert_plan("qft:13 bound expressions", &bound, 488, 3_431_268_540_974_136_051);
}

/// The default translation of `qft:13`: the 13 Hadamards join (and build
/// a group table), the 78 CP and 6 SWAP gates are projections.
#[test]
fn qft13_projections_are_unchanged() {
    let text = explain_circuit(&library::qft(13), &SqlGenConfig::default());
    assert_eq!(aggregates_and_joins(&text), (13, 13));
    assert_plan("qft:13 (default)", &text, QFT13_PROJECTED.0, QFT13_PROJECTED.1);
    let bound = bound_exprs_circuit(&library::qft(13), &SqlGenConfig::default());
    assert_plan("qft:13 (default) bound expressions", &bound, QFT13_PROJECTED.2, QFT13_PROJECTED.3);
}

/// Step-table mode as perfbench's `durable_steps` runs it: `qft:13`,
/// fused, under the default translation. Each statement is planned over
/// the table the one before created; the 9 ops holding the 13 Hadamards
/// group their join (the last five, on qubits still at 0, fuse with their
/// ladders into one block), the 15 permutation blocks join without a
/// `GROUP BY`, and the other 24 are lone projections.
#[test]
fn qft13_step_statements_group_only_the_hadamards() {
    let circuit = library::qft(13);
    let cfg = SqlGenConfig::default();
    let mut reg = GateTableRegistry::for_sql(&cfg);
    let ops = lower_circuit(&circuit, &mut reg, Some(6));
    let mut db = Database::new();
    reg.materialize(&mut db).unwrap();
    create_initial_state_table(&mut db, "T0", 13, 0).unwrap();
    let mut shapes = [0; 3];
    for (k, op) in ops.iter().enumerate() {
        let (next, select) = step_statement(k, op, 13, &cfg);
        let text = db.explain(&select).unwrap();
        let shape = aggregates_and_joins(&text);
        let want = match (op.permutes, op.closed_form.is_some()) {
            (false, _) => (1, 1),
            (true, false) => (0, 1),
            (true, true) => (0, 0),
        };
        assert_eq!(shape, want, "step {k} ({} on {:?}):\n{text}", op.table, op.qubits);
        shapes[shape.0 + shape.1] += 1;
        db.create_table_as(&next, &select).unwrap();
    }
    assert_eq!(shapes, [24, 15, 9], "(projections, permutation joins, grouped joins)");
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
    assert_eq!(cases, 57, "deep-CTE cases among the first 400 seeds");
    assert_plan("generated deep-CTE cases", &all, 1640, 12_701_366_015_014_652_122);
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
