//! Gate chains: one CTE per gate, each reading its predecessor, so circuit
//! depth is plan depth. Planning must stay linear in the number of gates and
//! every recursive pass over the plan must run on a stack chosen before it.
//! `caller_stack.rs` checks the budget that decides which stack that is.

use std::time::{Duration, Instant};

use qymera_sqldb::ast::{DataType, Statement};
use qymera_sqldb::catalog::Catalog;
use qymera_sqldb::db::runs_on_caller_stack;
use qymera_sqldb::parser::parse_statement;
use qymera_sqldb::plan::logical::{depth_bound, plan_query};
use qymera_sqldb::plan::optimizer::optimize;
use qymera_sqldb::{Database, MemoryBudget, Value};

/// The translator's single-query shape for `gates` X gates on qubit 0.
fn x_chain_sql(gates: usize) -> String {
    let ctes: Vec<String> = (1..=gates)
        .map(|k| {
            let p = k - 1;
            format!(
                "T{k} AS (SELECT ((T{p}.s & ~1) | X.out_s) AS s, \
                 SUM((T{p}.r * X.r) - (T{p}.i * X.i)) AS r, \
                 SUM((T{p}.r * X.i) + (T{p}.i * X.r)) AS i \
                 FROM T{p} JOIN X ON X.in_s = (T{p}.s & 1) \
                 GROUP BY ((T{p}.s & ~1) | X.out_s))"
            )
        })
        .collect();
    format!("WITH {} SELECT s, r, i FROM T{gates} ORDER BY s", ctes.join(", "))
}

#[test]
fn thousand_gate_chain_runs_on_a_default_test_thread() {
    // This thread has the 2 MiB default stack; the plan is ~4000 levels deep.
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)",
        "INSERT INTO T0 VALUES (0, 1.0, 0.0)",
        "CREATE TABLE X (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)",
        "INSERT INTO X VALUES (0, 1, 1.0, 0.0), (1, 0, 1.0, 0.0)",
    ] {
        db.execute(sql).unwrap();
    }
    let sql = x_chain_sql(1001);
    let Statement::Query(query) = parse_statement(&sql).unwrap() else { panic!("not a query") };
    assert!(!runs_on_caller_stack(&query), "over the budget: a thread of its own");
    let rs = db.execute(&sql).unwrap();
    // An odd number of X gates: |0⟩ → |1⟩, amplitude 1.
    assert_eq!(rs.rows(), &[vec![Value::Int(1), Value::Float(1.0), Value::Float(0.0)]]);
    // The reference interpreter recurses once per plan level as well.
    assert_eq!(db.query_reference(&sql).unwrap().rows(), rs.rows());
    // The pass that never executes anything is deep too.
    assert_eq!(db.explain(&sql).unwrap().lines().count(), 5 * 1001 + 3);
    assert_eq!(db.create_table_as("final", &sql).unwrap(), 1);
}

/// Guard against the planner's old O(k³): the parent commit needed minutes
/// for what must now take milliseconds, so the limit is generous on purpose.
#[test]
fn planning_a_thousand_gate_chain_is_fast() {
    let mut catalog = Catalog::new();
    let col = |name: &str, ty| (name.to_string(), ty);
    let (int, double) = (DataType::Integer, DataType::Double);
    for (name, columns) in [
        ("T0", vec![col("s", int), col("r", double), col("i", double)]),
        ("X", vec![col("in_s", int), col("out_s", int), col("r", double), col("i", double)]),
    ] {
        catalog.create_table(name, columns, false, MemoryBudget::unlimited()).unwrap();
    }
    let Statement::Query(query) = parse_statement(&x_chain_sql(1000)).unwrap() else {
        panic!("not a query")
    };
    assert!(depth_bound(&query) >= 4003);
    // `optimize`, `depth` and the plan's drop recurse once per level: give
    // them the kind of stack `Database` would.
    let elapsed = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn_scoped(s, || {
                let start = Instant::now();
                let plan = optimize(plan_query(&query, &catalog).unwrap());
                let elapsed = start.elapsed();
                assert_eq!(plan.depth(), 4003);
                elapsed
            })
            .unwrap()
            .join()
            .unwrap()
    });
    assert!(elapsed < Duration::from_secs(1), "plan + optimize took {elapsed:?}");
}
