//! Microbenchmarks of the relational substrate itself: tokenize/parse/plan
//! of the Fig. 2c query, hash-join probe throughput, grouped-aggregation
//! throughput — the three costs every simulated gate pays — plus a
//! scan-only micro isolating the base-table storage layout.
//!
//! Every statement runs on one thread, so these numbers do not depend on
//! the host's core count. The `scan_16k_*` group compares two ways of
//! delivering the same 16k-row state table to the executor: transposing row
//! storage into columnar batches per scan (the pre-columnar layout), and
//! handing out the table's own column chunks by `Arc` (the current
//! zero-copy path); each variant then sums the `r` column the way a
//! vectorized kernel would read it. End-to-end numbers live in
//! `BENCH_e2e.json`, not here.

use criterion::{criterion_group, criterion_main, Criterion};
use qymera_sqldb::ast::DataType;
use qymera_sqldb::exec::batch::{Column, RowBatch, BATCH_SIZE};
use qymera_sqldb::table::Table;
use qymera_sqldb::{parser, Database, MemoryBudget, Row, Value};

const FIG2C: &str = "WITH T1 AS (SELECT ((T0.s & ~1) | H.out_s) AS s, \
SUM((T0.r * H.r) - (T0.i * H.i)) AS r, SUM((T0.r * H.i) + (T0.i * H.r)) AS i \
FROM T0 JOIN H ON H.in_s = (T0.s & 1) GROUP BY ((T0.s & ~1) | H.out_s)) \
SELECT s, r, i FROM T1 ORDER BY s";

const GATE_APPLY: &str = "SELECT ((T0.s & ~1) | H.out_s) AS s, \
SUM((T0.r * H.r) - (T0.i * H.i)) AS r, \
SUM((T0.r * H.i) + (T0.i * H.r)) AS i \
FROM T0 JOIN H ON H.in_s = (T0.s & 1) \
GROUP BY ((T0.s & ~1) | H.out_s)";

/// A 16k-amplitude uniform state plus a Hadamard gate table.
fn gate_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    let rows: Vec<Vec<Value>> = (0..16_384)
        .map(|s| vec![Value::Int(s), Value::Float(0.0078125), Value::Float(0.0)])
        .collect();
    db.insert_rows("T0", rows).unwrap();
    db.execute("CREATE TABLE H (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    let h = std::f64::consts::FRAC_1_SQRT_2;
    db.execute(&format!(
        "INSERT INTO H VALUES (0,0,{h},0.0),(0,1,{h},0.0),(1,0,{h},0.0),(1,1,{},0.0)",
        -h
    ))
    .unwrap();
    db
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_engine_micro");
    group.sample_size(30);

    group.bench_function("parse_fig2c", |b| {
        b.iter(|| std::hint::black_box(parser::parse_statement(FIG2C).unwrap()))
    });

    // One gate application over a 16k-row state (join + group by).
    let mut db = gate_db();
    group.bench_function("gate_join_groupby_16k_rows", |b| {
        b.iter(|| {
            let rs = db.execute(GATE_APPLY).unwrap();
            std::hint::black_box(rs.rows().len())
        })
    });

    // The full Fig. 2c shape end to end: CTE, join, grouped aggregation,
    // final ORDER BY.
    group.bench_function("gate_apply_fig2c_cte_16k", |b| {
        b.iter(|| {
            let rs = db.execute(FIG2C).unwrap();
            std::hint::black_box(rs.rows().len())
        })
    });

    group.finish();
}

/// Full 16k-row `ORDER BY` over keys that arrive in descending order, and
/// an equi-join whose probe side half-misses.
fn bench_sort_and_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_engine_micro");
    group.sample_size(30);

    const SORT: &str = "SELECT s, r, i FROM D ORDER BY s";
    // Keys 2 and 3 of `T0.s & 3` have no H row: half the probe side misses.
    const JOIN: &str =
        "SELECT T0.s, H.out_s, T0.r * H.r AS w FROM T0 JOIN H ON H.in_s = (T0.s & 3)";

    for (name, sql) in [("sort_16k", SORT), ("join_16k", JOIN)] {
        let mut batch_db = gate_db();
        batch_db.execute("CREATE TABLE D (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        let rows: Vec<Vec<Value>> = (0..16_384)
            .rev()
            .map(|s| vec![Value::Int(s), Value::Float(0.0078125), Value::Float(0.0)])
            .collect();
        batch_db.insert_rows("D", rows).unwrap();
        group.bench_function(format!("{name}_batch"), |b| {
            b.iter(|| {
                let rs = batch_db.execute(sql).unwrap();
                std::hint::black_box(rs.rows().len())
            })
        });
    }

    group.finish();
}

/// Sum the `r` column (index 1) of a batch through its fast lane — the read
/// pattern of a vectorized SUM kernel.
fn sum_r(batch: &RowBatch) -> f64 {
    match &*batch.columns()[1] {
        Column::Float(v) => v.iter().sum(),
        other => (0..other.len()).map(|i| other.value_at(i).as_f64().unwrap()).sum(),
    }
}

/// Scan-only micro over a 16k-amplitude state table: per-scan transpose vs
/// zero-copy chunk sharing.
fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("sql_engine_micro");
    group.sample_size(40);

    const N: i64 = 16_384;
    let mut table = Table::new(
        "T0",
        vec![
            ("s".into(), DataType::Integer),
            ("r".into(), DataType::Double),
            ("i".into(), DataType::Double),
        ],
        MemoryBudget::unlimited(),
    );
    let rows: Vec<Row> = (0..N)
        .map(|s| vec![Value::Int(s), Value::Float(0.0078125), Value::Float(0.0)])
        .collect();
    table.load_rows(rows.clone()).unwrap();
    let snapshot = table.snapshot();

    // The pre-columnar batch path: base tables stored Vec<Row>, and every
    // scan re-transposed each 1024-row slice into a columnar batch.
    group.bench_function("scan_16k_transposed_batch", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for slice in rows.chunks(BATCH_SIZE) {
                let batch = RowBatch::from_rows(slice).unwrap();
                acc += sum_r(&batch);
            }
            std::hint::black_box(acc)
        })
    });

    // The current path: batches share the table's column chunks via Arc.
    group.bench_function("scan_16k_zero_copy_columnar", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for chunk in snapshot.chunks() {
                let batch = RowBatch::from_shared(chunk.columns().to_vec());
                acc += sum_r(&batch);
            }
            std::hint::black_box(acc)
        })
    });

    // End-to-end sanity: the same scan through the SQL surface (includes
    // parse/plan and final row materialization).
    let mut db = gate_db();
    group.bench_function("scan_16k_select_batch", |b| {
        b.iter(|| {
            let rs = db.execute("SELECT s, r, i FROM T0").unwrap();
            std::hint::black_box(rs.rows().len())
        })
    });

    group.finish();
}

/// WAL overhead on the mutation path: the same 1024-row insert against an
/// in-memory database and a durable one (one fsync per commit), plus the
/// same insert rolled back inside a transaction. Reads are identical on every variant — durability wraps
/// mutations only — so an insert micro is the honest worst case.
fn bench_wal_overhead(c: &mut Criterion) {
    use qymera_sqldb::DurabilityOptions;

    let mut group = c.benchmark_group("sql_engine_micro");
    group.sample_size(20);

    let rows: Vec<Row> = (0..1024)
        .map(|s| vec![Value::Int(s), Value::Float(0.0078125), Value::Float(0.0)])
        .collect();
    let setup_mem = || {
        let mut db = Database::new();
        db.execute("CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        db
    };
    let setup_wal = |tag: &str| {
        let dir = std::env::temp_dir()
            .join(format!("qymera-bench-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No auto-checkpoint: the micro measures the log append + fsync,
        // not a periodic full-table serialization.
        let opts = DurabilityOptions {
            checkpoint_every_bytes: 0,
            ..DurabilityOptions::default()
        };
        let mut db = Database::open_with(&dir, opts).unwrap();
        db.execute("CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        db
    };

    let mut mem_db = setup_mem();
    group.bench_function("insert_1k_rows_inmemory", |b| {
        b.iter(|| std::hint::black_box(mem_db.insert_rows("T0", rows.clone()).unwrap()))
    });
    let mut wal_db = setup_wal("commit");
    group.bench_function("insert_1k_rows_wal_fsync_commit", |b| {
        b.iter(|| std::hint::black_box(wal_db.insert_rows("T0", rows.clone()).unwrap()))
    });

    // A rolled-back transaction: the 1024 rows are applied and undone in
    // memory; nothing reaches the log, which only `COMMIT` writes.
    let mut rollback_db = setup_wal("rollback");
    group.bench_function("txn_rollback_1k_rows_wal", |b| {
        b.iter(|| {
            rollback_db.execute("BEGIN").unwrap();
            std::hint::black_box(rollback_db.insert_rows("T0", rows.clone()).unwrap());
            rollback_db.execute("ROLLBACK").unwrap();
        })
    });

    for db in [&wal_db, &rollback_db] {
        let dir = db.storage_dir().unwrap().to_path_buf();
        let _ = std::fs::remove_dir_all(dir);
    }

    group.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_sort_and_join,
    bench_scan,
    bench_wal_overhead
);
criterion_main!(benches);
