//! `runs_on_caller_stack` promises that a statement within the budget fits
//! in `CALLER_STACK_BYTES`: the deepest such plan of every shape the engine
//! meets runs, through every entry point, on a thread whose whole stack is
//! the budget. Per-level stack costs differ by build profile, so this runs
//! in debug and in release (CI does both). Halving `STACK_PER_LEVEL`
//! doubles the depths here and overflows the thread.
//!
//! The test is alone in its binary on purpose: glibc hands a new thread a
//! cached stack of up to four times the size it asked for, and a finished
//! 2 MiB test thread would leave one behind.

use qymera_sqldb::ast::{Query, Statement};
use qymera_sqldb::db::{runs_on_caller_stack, CALLER_STACK_BYTES};
use qymera_sqldb::parser::parse_statement;
use qymera_sqldb::plan::logical::depth_bound;
use qymera_sqldb::Database;

/// The translator's join of a gate table `g` per CTE, `gates` of them:
/// `in_s` and `new_s` are its index expressions over the previous state.
fn join_chain_sql(
    gates: usize,
    g: &str,
    in_s: impl Fn(&str) -> String,
    new_s: impl Fn(&str) -> String,
) -> String {
    let ctes: Vec<String> = (1..=gates)
        .map(|k| {
            let p = format!("T{}", k - 1);
            let (in_s, new_s) = (in_s(&p), new_s(&p));
            format!(
                "T{k} AS (SELECT {new_s} AS s, SUM(({p}.r * {g}.r) - ({p}.i * {g}.i)) AS r, \
                 SUM(({p}.r * {g}.i) + ({p}.i * {g}.r)) AS i \
                 FROM {p} JOIN {g} ON {g}.in_s = {in_s} GROUP BY {new_s})"
            )
        })
        .collect();
    format!(
        "WITH {} SELECT s, r, i FROM T{gates} ORDER BY s",
        ctes.join(", ")
    )
}

/// Fig. 2c's join on a gate that interferes: `gates` Hadamards on qubit 0.
fn h_chain_sql(gates: usize) -> String {
    join_chain_sql(
        gates,
        "H",
        |t| format!("({t}.s & 1)"),
        |t| format!("(({t}.s & ~1) | H.out_s)"),
    )
}

/// A fused 2-qubit block on qubits 0 and 2, whose index expressions go bit
/// by bit because its qubits are not contiguous: `gates` of them.
fn fused_chain_sql(gates: usize) -> String {
    join_chain_sql(
        gates,
        "F",
        |t| format!("(({t}.s & 1) | ((({t}.s >> 2) & 1) << 1))"),
        |t| format!("(({t}.s & ~5) | ((F.out_s & 1) | (((F.out_s >> 1) & 1) << 2)))"),
    )
}

/// A lone permutation gate as the translator projects it: `gates` X gates.
fn projection_chain_sql(gates: usize) -> String {
    let ctes: Vec<String> = (1..=gates)
        .map(|k| format!("T{k} AS (SELECT (s ^ 1) AS s, r, i FROM T{})", k - 1))
        .collect();
    format!(
        "WITH {} SELECT s, r, i FROM T{gates} ORDER BY s",
        ctes.join(", ")
    )
}

/// The shape of `crates/check`'s deep-CTE cases: a join, an aggregate and
/// its `HAVING` filter, `ctes - 1` pass-through CTEs over it, sorted.
fn generated_chain_sql(ctes: usize) -> String {
    let mut chain = vec!["q0 AS (SELECT T0.s, COUNT(*) AS n, SUM(H.r) AS t FROM T0 \
                          JOIN H ON H.in_s = T0.s GROUP BY T0.s HAVING SUM(H.r) > 0.5)"
        .to_string()];
    chain.extend((1..ctes).map(|d| format!("q{d} AS (SELECT s, n, t FROM q{})", d - 1)));
    format!("WITH {} SELECT s, n, t FROM q{} ORDER BY t", chain.join(", "), ctes - 1)
}

fn query(sql: &str) -> Query {
    let Statement::Query(q) = parse_statement(sql).unwrap() else {
        panic!("not a query")
    };
    q
}

/// A database holding `T0 = |0⟩` and the gate tables the chains join.
fn gate_db() -> Database {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)",
        "INSERT INTO T0 VALUES (0, 1.0, 0.0)",
        "CREATE TABLE H (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)",
        "INSERT INTO H VALUES (0, 0, 0.7071067811865476, 0.0), \
             (0, 1, 0.7071067811865476, 0.0), (1, 0, 0.7071067811865476, 0.0), \
             (1, 1, -0.7071067811865476, 0.0)",
        "CREATE TABLE F (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)",
        "INSERT INTO F VALUES (0, 3, 1.0, 0.0), (1, 2, 1.0, 0.0), (2, 1, 1.0, 0.0), \
             (3, 0, 1.0, 0.0)",
    ] {
        db.execute(sql).unwrap();
    }
    db
}

/// Every entry point that plans `sql`: the executor, the batch drain, the
/// three plan renderings (`EXPLAIN ANALYZE` wraps every operator), the
/// reference interpreter and CTAS.
fn run_every_entry_point(db: &mut Database, sql: &str) {
    let rows = db.execute(sql).unwrap().rows().to_vec();
    assert!(!rows.is_empty(), "{sql}");
    let batched: usize = db
        .query_batches(sql)
        .unwrap()
        .iter()
        .map(|b| b.num_rows())
        .sum();
    assert_eq!(batched, rows.len());
    assert!(db.explain(sql).unwrap().lines().count() > depth_bound(&query(sql)) / 5);
    let analyzed = db.explain_analyze(sql).unwrap();
    assert!(analyzed.ends_with(&format!("total output rows: {}\n", rows.len())));
    assert_eq!(db.query_reference(sql).unwrap().rows(), rows);
    db.drop_table_if_exists("final").unwrap();
    assert_eq!(db.create_table_as("final", sql).unwrap(), rows.len());
}

/// A shape of statement: its SQL for a chain of `n` links.
type Chain = fn(usize) -> String;

/// The longest chain of `shape` whose statement the budget keeps on the
/// caller's stack.
fn deepest_inline(shape: Chain) -> String {
    let last = (1..)
        .take_while(|&n| runs_on_caller_stack(&query(&shape(n))))
        .last();
    shape(last.expect("one link fits the budget"))
}

#[test]
fn the_deepest_plan_within_budget_fits_the_budget() {
    let shapes: [(&str, Chain); 4] = [
        ("fused blocks", fused_chain_sql),
        ("Fig. 2c joins", h_chain_sql),
        ("projections", projection_chain_sql),
        ("generated deep CTEs", generated_chain_sql),
    ];
    let deepest: Vec<_> = shapes
        .iter()
        .map(|&(name, shape)| (name, deepest_inline(shape)))
        .collect();
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(CALLER_STACK_BYTES)
            .spawn_scoped(s, || {
                let mut db = gate_db();
                for (name, sql) in &deepest {
                    assert!(
                        depth_bound(&query(sql)) > 64,
                        "{name}: too shallow to test anything"
                    );
                    run_every_entry_point(&mut db, sql);
                }
                // Over the budget, the statement gets a thread of its own: a
                // 1,001-gate chain runs from this 1 MiB stack too.
                let chain = h_chain_sql(1001);
                assert!(!runs_on_caller_stack(&query(&chain)));
                run_every_entry_point(&mut db, &chain);
            })
            .unwrap()
            .join()
            .unwrap()
    });
}
