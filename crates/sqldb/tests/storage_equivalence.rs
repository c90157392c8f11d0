//! Columnar↔row storage equivalence.
//!
//! PR 3 replaced row-major base tables with chunked columnar storage
//! ([`qymera_sqldb::table`]). The executor reads the chunks zero-copy, the
//! reference interpreter ([`Database::query_reference`]) reads the same
//! snapshot transposed into rows, so these tests pin down the contract:
//! identical results from both under randomized inserts and rolled-back
//! inserts, coercion errors that leave table and ledger untouched, a ledger
//! that follows inserts, rollbacks and drops, intact snapshot isolation
//! while the table mutates between (and under) scans, and agreement when the
//! executor spills.
//!
//! The same contract holds across a restart: a durable database reopened —
//! from its log alone, or from a checkpoint image and the log behind it —
//! equals the in-memory twin that ran the same statements, cell for cell
//! (float bits included), row order included, and byte for byte on the
//! ledger (`a_recovered_database_equals_its_in_memory_twin`).

use std::sync::Arc;

use rand::{Rng, SeedableRng, StdRng};

use qymera_sqldb::ast::DataType;
use qymera_sqldb::table::{Table, CHUNK_ROWS};
use qymera_sqldb::{BigBits, Database, DurabilityOptions, MemoryBudget, Value};

/// A random row for a `(s INTEGER, r DOUBLE, i DOUBLE)` state table.
fn random_row(rng: &mut StdRng) -> Vec<Value> {
    vec![
        Value::Int(rng.gen_range(0i64..4096)),
        Value::Float(rng.gen_range(-1i64..=1) as f64 / 2.0),
        Value::Float(rng.gen_range(0i64..8) as f64 / 8.0),
    ]
}

fn sorted_rows(rs: &qymera_sqldb::ResultSet) -> Vec<String> {
    let mut v: Vec<String> = rs.rows().iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

const PROBES: &[&str] = &[
    "SELECT s, r, i FROM t",
    "SELECT s & 7 AS g, SUM(r) AS sr, SUM(i) AS si FROM t GROUP BY s & 7",
    "SELECT COUNT(*) AS n, SUM(s) AS ts FROM t",
    "SELECT s, r, COUNT(*) AS n FROM t GROUP BY s, r HAVING r > 0.0",
];

/// Randomized inserts, some of them rolled back: after every mutation, every
/// probe query must agree between the reference and the executor.
#[test]
fn randomized_mutations_equivalent_across_paths() {
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        db.execute("CREATE TABLE t (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        for _step in 0..8 {
            // Random-size insert: crosses chunk boundaries at CHUNK_ROWS.
            let n = rng.gen_range(1usize..(CHUNK_ROWS + 300));
            let rows: Vec<Vec<Value>> =
                (0..n).map(|_| random_row(&mut rng)).collect();
            if rng.gen_range(0u32..3) == 0 {
                // Undone: the table rolls back to its chunks before the insert.
                let before = db.table_row_count("t").unwrap();
                db.execute("BEGIN").unwrap();
                db.insert_rows("t", rows).unwrap();
                db.execute("ROLLBACK").unwrap();
                assert_eq!(db.table_row_count("t").unwrap(), before, "seed {seed}: rollback");
            } else {
                db.insert_rows("t", rows).unwrap();
            }
            for sql in PROBES {
                let want = sorted_rows(&db.query_reference(sql).unwrap());
                let got = db.execute(sql).unwrap();
                assert_eq!(sorted_rows(&got), want, "seed {seed}: {sql}");
            }
            let counted = db.query_reference("SELECT COUNT(*) FROM t").unwrap();
            assert_eq!(
                counted.scalar(),
                Some(&Value::Int(db.table_row_count("t").unwrap() as i64))
            );
        }
    }
}

/// Coercion errors happen in storage, before any executor runs, and leave
/// the table and the ledger untouched.
#[test]
fn coerce_errors_are_atomic() {
    let mut db = Database::with_memory_limit(1 << 20);
    db.execute("CREATE TABLE t (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    db.insert_rows("t", vec![vec![Value::Int(1), Value::Float(0.5), Value::Float(0.0)]])
        .unwrap();
    let used = db.budget().used();

    // Wrong type in the middle of a batch: all-or-nothing.
    let bad = vec![
        vec![Value::Int(2), Value::Float(1.0), Value::Float(0.0)],
        vec![Value::Int(3), Value::Str("x".into()), Value::Float(0.0)],
    ];
    let err = db.insert_rows("t", bad).unwrap_err().to_string();
    assert!(err.contains("column `r`"), "{err}");
    assert_eq!(db.table_row_count("t").unwrap(), 1);
    assert_eq!(db.budget().used(), used, "failed insert must not charge");

    // Fractional float into INTEGER.
    assert!(db
        .execute("INSERT INTO t VALUES (1.5, 0.0, 0.0)")
        .unwrap_err()
        .to_string()
        .contains("column `s`"));
    assert_eq!(db.table_row_count("t").unwrap(), 1);
}

/// The ledger follows storage through inserts, rollbacks and drops, and the
/// reference interpreter never touches it: it reads snapshots and charges
/// nothing, so it cannot disturb the accounting it is used to check.
#[test]
fn budget_accounting_follows_storage_only() {
    let mut rng = StdRng::seed_from_u64(42);
    let rows: Vec<Vec<Value>> = (0..3000).map(|_| random_row(&mut rng)).collect();
    let mut db = Database::new();
    db.execute("CREATE TABLE t (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    db.insert_rows("t", rows).unwrap();
    let loaded = db.budget().used();
    let peak = db.budget().peak();
    for sql in PROBES {
        db.query_reference(sql).unwrap();
    }
    assert_eq!((db.budget().used(), db.budget().peak()), (loaded, peak));
    db.execute("BEGIN").unwrap();
    db.insert_rows("t", (0..500).map(|_| random_row(&mut rng)).collect()).unwrap();
    assert!(db.budget().used() > loaded, "an insert grows the charge");
    db.execute("ROLLBACK").unwrap();
    assert_eq!(db.budget().used(), loaded, "its rollback shrinks it back");
    db.execute("DROP TABLE t").unwrap();
    assert_eq!(db.budget().used(), 0, "drop releases everything");
}

/// Snapshot isolation at the storage layer: a snapshot taken mid-chunk keeps
/// its contents while the table grows (copy-on-write tail), and even after
/// the table is dropped.
#[test]
fn snapshot_isolation_under_mutation() {
    let budget = MemoryBudget::unlimited();
    let mut t = Table::new(
        "t",
        vec![
            ("s".into(), DataType::Integer),
            ("r".into(), DataType::Double),
            ("i".into(), DataType::Double),
        ],
        budget,
    );
    let row = |s: i64| vec![Value::Int(s), Value::Float(0.5), Value::Float(0.0)];
    t.load_rows((0..10).map(row).collect()).unwrap();

    let snap = t.snapshot();
    // Grow into the same open chunk: the snapshot must not see the append.
    t.load_rows((10..2000).map(row).collect()).unwrap();
    assert_eq!(snap.num_rows(), 10);
    assert_eq!(snap.to_rows().len(), 10);
    assert_eq!(t.row_count(), 2000);

    // Sealed chunks are shared, not copied: the first chunk of a fresh
    // snapshot is the same allocation the table holds (zero-copy scans).
    let snap2 = t.snapshot();
    let snap3 = t.snapshot();
    assert!(Arc::ptr_eq(&snap2.chunks()[0].columns()[0], &snap3.chunks()[0].columns()[0]));

    t.release_budget();
    assert_eq!(t.row_count(), 0);
    assert_eq!(snap2.num_rows(), 2000, "snapshot outlives the table's storage");
}

/// End-to-end snapshot semantics: a table mutated between scans yields the
/// new state on the next query, from the executor and the reference alike,
/// including after a rolled-back insert.
#[test]
fn table_mutated_between_scans_stays_consistent() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    let mk = |lo: i64, hi: i64| -> Vec<Vec<Value>> {
        (lo..hi)
            .map(|s| vec![Value::Int(s), Value::Float(1.0), Value::Float(0.0)])
            .collect()
    };
    // Both the executor's and the reference's answer to `sql`.
    let both = |db: &mut Database, sql: &str| {
        [db.execute(sql).unwrap().into_rows(), db.query_reference(sql).unwrap().into_rows()]
    };
    db.insert_rows("t", mk(0, 1500)).unwrap();
    for n1 in both(&mut db, "SELECT COUNT(*) FROM t") {
        assert_eq!(n1, vec![vec![Value::Int(1500)]]);
    }
    db.insert_rows("t", mk(1500, 1600)).unwrap();
    db.execute("BEGIN").unwrap();
    db.insert_rows("t", mk(1600, 3000)).unwrap();
    db.execute("ROLLBACK").unwrap();
    for n2 in both(&mut db, "SELECT COUNT(*), SUM(s) FROM t") {
        // sum(0..1600) = 1599 * 1600 / 2
        assert_eq!(n2, vec![vec![Value::Int(1600), Value::Int(1599 * 1600 / 2)]]);
    }
}

/// The gate-shaped join + group-by forced out of core: the executor spills
/// and agrees exactly with the reference.
#[test]
fn spill_paths_agree_on_gate_query() {
    let mut rng = StdRng::seed_from_u64(9);
    let state: Vec<Vec<Value>> = (0..40_000)
        .map(|s| {
            vec![
                Value::Int(s),
                Value::Float(rng.gen_range(-4i64..4) as f64 / 4.0),
                Value::Float(0.0),
            ]
        })
        .collect();
    let h = std::f64::consts::FRAC_1_SQRT_2;
    let sql = "SELECT ((T0.s & ~1) | H.out_s) AS s, \
               SUM((T0.r * H.r) - (T0.i * H.i)) AS r \
               FROM T0 JOIN H ON H.in_s = (T0.s & 1) \
               GROUP BY ((T0.s & ~1) | H.out_s) ORDER BY s";
    let mut db = Database::with_memory_limit(2 * 1024 * 1024);
    db.execute("CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    db.insert_rows("T0", state).unwrap();
    db.execute("CREATE TABLE H (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    db.execute(&format!(
        "INSERT INTO H VALUES (0,0,{h},0.0),(0,1,{h},0.0),(1,0,{h},0.0),(1,1,{},0.0)",
        -h
    ))
    .unwrap();
    let batch = db.execute(sql).unwrap().into_rows();
    assert!(db.stats().spill_files > 0, "expected to spill");
    assert_eq!(batch, db.query_reference(sql).unwrap().into_rows());
}

// ---------------------------------------------------------------------------
// Recovered database ≡ in-memory twin
// ---------------------------------------------------------------------------

const TYPES: [&str; 4] = ["INTEGER", "DOUBLE", "TEXT", "HUGEINT"];

/// A value a column of type `ty` accepts, drawn from the corners a codec is
/// most likely to bend: `-0.0`, NaNs with a payload, `i64::MIN`, and
/// integers offered to `DOUBLE`/`HUGEINT` columns (stored, and so logged,
/// coerced). Strings are built with exact capacity, as the log decodes
/// them: the ledger charges capacity.
fn random_value(rng: &mut StdRng, ty: &str) -> Value {
    let pick = rng.gen_range(0u32..8);
    match ty {
        "INTEGER" => match pick {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            2 => Value::Float(rng.gen_range(-50i64..50) as f64),
            _ => Value::Int(rng.gen_range(-1000i64..1000)),
        },
        "DOUBLE" => match pick {
            0 => Value::Float(-0.0),
            1 => Value::Float(f64::from_bits(0x7ff8_0000_0000_0000 | rng.gen_range(1u64..1 << 40))),
            2 => Value::Float(f64::NEG_INFINITY),
            3 => Value::Int(rng.gen_range(-9i64..9)),
            _ => Value::Float(rng.gen_range(-1000i64..1000) as f64 / 64.0),
        },
        "TEXT" => Value::Str("né'x".repeat(rng.gen_range(0usize..4))),
        _ => match pick {
            0 => Value::Int(rng.gen_range(0i64..1000)),
            _ => Value::Big(BigBits::ones(rng.gen_range(0usize..90), 3, 100)),
        },
    }
}

/// A `SELECT` of every column of `name`, in table order.
fn select_all(db: &Database, name: &str) -> String {
    let cols: Vec<&str> =
        db.table_columns(name).unwrap().iter().map(|(c, _)| c.as_str()).collect();
    format!("SELECT {} FROM {name}", cols.join(", "))
}

/// Every table's schema and rows in storage order with floats as bit
/// patterns, and what the ledger holds for them.
fn full_state(db: &mut Database) -> (Vec<String>, usize, usize) {
    let mut names = db.table_names();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        out.push(format!("{name}: {:?}", db.table_columns(&name).unwrap()));
        let rows = db.execute(&select_all(db, &name)).unwrap().into_rows();
        out.extend(rows.iter().map(|row| {
            let cell = |v: &Value| match v {
                Value::Float(f) => format!("f{:016x}", f.to_bits()),
                other => format!("{other:?}"),
            };
            row.iter().map(cell).collect::<Vec<_>>().join("|")
        }));
    }
    (out, db.budget().used(), db.table_bytes())
}

/// Random statements over three table names run on a durable database and
/// on an in-memory twin: bulk inserts over every lane mix (one row to
/// several chunks), `CREATE TABLE … AS` whole and ragged (a join with
/// `keep`, which holds the keys 1, 2 and 3, cuts every batch short), `DROP` and re-creation of a name under another
/// schema, transactions committed, rolled back and rolled back to a
/// savepoint, and now and then a checkpoint. Whenever the durable side is
/// reopened — and at the end — both sides must be equal, ledger included.
#[test]
fn a_recovered_database_equals_its_in_memory_twin() {
    let dir = std::env::temp_dir().join(format!("qymera-twin-{}", std::process::id()));
    let open = || {
        let opts = DurabilityOptions { checkpoint_every_bytes: 0, ..DurabilityOptions::default() };
        Database::open_with(&dir, opts).unwrap()
    };
    // CTAS copies made, checkpoints taken, mid-script reopens: the script
    // must have reached all three.
    let mut reached = [0u32; 3];
    for seed in 0..12u64 {
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut durable = open();
        let mut twin = Database::new();
        for db in [&mut durable, &mut twin] {
            db.execute("CREATE TABLE keep (m INTEGER)").unwrap();
            db.execute("INSERT INTO keep VALUES (1), (2), (3)").unwrap();
        }
        // name → column types (`None` for a CTAS copy), for the tables
        // that exist.
        let mut schemas: Vec<(String, Option<Vec<&str>>)> = Vec::new();
        let both = |durable: &mut Database, twin: &mut Database, what: &str,
                        f: &dyn Fn(&mut Database) -> qymera_sqldb::Result<usize>| {
            let (a, b) = (f(durable), f(twin));
            assert_eq!(a.is_ok(), b.is_ok(), "seed {seed}, {what}: {a:?} vs {b:?}");
            a.is_ok()
        };
        let sql = |text: String| move |db: &mut Database| db.execute(&text).map(|rs| rs.affected());
        for step in 0..40 {
            let name = ["a", "b", "c"][rng.gen_range(0usize..3)];
            let existing = schemas.iter().position(|(n, _)| n == name);
            match (existing, rng.gen_range(0u32..10)) {
                (None, 0..=4) => {
                    let types: Vec<&str> =
                        (0..rng.gen_range(1usize..5)).map(|_| TYPES[rng.gen_range(0usize..4)]).collect();
                    let cols: Vec<String> =
                        types.iter().enumerate().map(|(i, t)| format!("c{i} {t}")).collect();
                    let text = format!("CREATE TABLE {name} (k INTEGER, {})", cols.join(", "));
                    assert!(both(&mut durable, &mut twin, &text, &sql(text.clone())));
                    let mut all = vec!["INTEGER"];
                    all.extend(types);
                    schemas.push((name.to_string(), Some(all)));
                }
                (None, _) => {
                    // CTAS from another table: whole, or ragged through a
                    // join that drops the rows whose `(k + 3) & 3` is 0.
                    let Some((src, _)) = schemas.first().cloned() else { continue };
                    let filter = if rng.gen_range(0u32..2) == 0 {
                        " JOIN keep ON keep.m = ((k + 3) & 3)"
                    } else {
                        ""
                    };
                    let text = format!("{}{filter}", select_all(&durable, &src));
                    let ctas = move |db: &mut Database| db.create_table_as(name, &text);
                    if both(&mut durable, &mut twin, "CTAS", &ctas) {
                        // What the first batch made of each column is not
                        // predicted here: a copy takes no typed rows below.
                        schemas.push((name.to_string(), None));
                        reached[0] += 1;
                    }
                }
                (Some(at), 0 | 1) => {
                    let text = format!("DROP TABLE {name}");
                    assert!(both(&mut durable, &mut twin, &text, &sql(text.clone())));
                    schemas.remove(at);
                }
                (Some(at), 2) => {
                    // A transaction: rows, a savepoint, more rows rolled
                    // back to it, then COMMIT or ROLLBACK.
                    let Some(types) = schemas[at].1.clone() else { continue };
                    let rows = |rng: &mut StdRng, n: usize| -> Vec<Vec<Value>> {
                        (0..n).map(|_| types.iter().map(|t| random_value(rng, t)).collect()).collect()
                    };
                    let (kept, undone) = (rows(&mut rng, 40), rows(&mut rng, 1100));
                    let end = if rng.gen_range(0u32..3) == 0 { "ROLLBACK" } else { "COMMIT" };
                    let txn = move |db: &mut Database| {
                        db.execute("BEGIN")?;
                        db.insert_rows(name, kept.clone())?;
                        db.execute("SAVEPOINT sp")?;
                        db.insert_rows(name, undone.clone())?;
                        db.execute("ROLLBACK TO sp")?;
                        db.execute(end).map(|_| 0)
                    };
                    assert!(both(&mut durable, &mut twin, "transaction", &txn));
                }
                (Some(at), _) => {
                    let Some(types) = schemas[at].1.clone() else { continue };
                    let n = [1, 7, 300, CHUNK_ROWS, CHUNK_ROWS + 500, 2 * CHUNK_ROWS + 77]
                        [rng.gen_range(0usize..6)];
                    let rows: Vec<Vec<Value>> = (0..n)
                        .map(|_| types.iter().map(|t| random_value(&mut rng, t)).collect())
                        .collect();
                    let insert = move |db: &mut Database| db.insert_rows(name, rows.clone());
                    assert!(both(&mut durable, &mut twin, "insert_rows", &insert));
                }
            }
            match rng.gen_range(0u32..12) {
                0 => {
                    durable.checkpoint().unwrap();
                    reached[1] += 1;
                }
                1 | 2 => {
                    reached[2] += 1;
                    drop(durable);
                    durable = open();
                    assert_eq!(full_state(&mut durable), full_state(&mut twin), "seed {seed}, step {step}");
                }
                _ => {}
            }
        }
        drop(durable);
        let mut recovered = open();
        assert_eq!(full_state(&mut recovered), full_state(&mut twin), "seed {seed}, final");
    }
    assert!(reached.iter().all(|&n| n >= 5), "copies, checkpoints, reopens: {reached:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
