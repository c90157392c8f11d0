//! Columnar↔row storage equivalence.
//!
//! PR 3 replaced row-major base tables with chunked columnar storage
//! ([`qymera_sqldb::table`]). The executor reads the chunks zero-copy, the
//! reference interpreter ([`Database::query_reference`]) reads the same
//! snapshot transposed into rows, so these tests pin down the contract:
//! identical results from both under randomized inserts and deletes, coercion
//! errors that leave table and ledger untouched, a ledger that follows
//! inserts, deletes and drops, intact snapshot isolation while the table
//! mutates between (and under) scans, and agreement when the executor spills.
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

/// A random row for a `(s INTEGER, r DOUBLE, i DOUBLE)` state table, with
/// occasional NULLs to force generic-lane chunks.
fn random_row(rng: &mut StdRng) -> Vec<Value> {
    let s = if rng.gen_range(0u32..20) == 0 {
        Value::Null
    } else {
        Value::Int(rng.gen_range(0i64..4096))
    };
    vec![
        s,
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
    "SELECT COUNT(*) AS n, COUNT(s) AS ns FROM t",
    "SELECT s FROM t WHERE r > 0.0 AND s IS NOT NULL",
];

/// Randomized insert/delete interleaving: after every mutation, every probe
/// query must agree between the reference, the sequential executor and the
/// parallel executor.
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
            db.insert_rows("t", rows).unwrap();
            if rng.gen_range(0u32..3) == 0 {
                let cut = rng.gen_range(0i64..4096);
                let doomed = db
                    .query_reference(&format!("SELECT s FROM t WHERE s < {cut}"))
                    .unwrap()
                    .rows()
                    .len();
                let deleted =
                    db.execute(&format!("DELETE FROM t WHERE s < {cut}")).unwrap().affected();
                assert_eq!(deleted, doomed, "seed {seed}: delete count");
            }
            for sql in PROBES {
                let want = sorted_rows(&db.query_reference(sql).unwrap());
                for workers in [1, 4] {
                    db.set_parallelism(workers);
                    let got = db.execute(sql).unwrap();
                    assert_eq!(sorted_rows(&got), want, "seed {seed}, batch({workers}): {sql}");
                }
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

/// The ledger follows storage through inserts, deletes, and drops, and the
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
    db.execute("DELETE FROM t WHERE s < 1000").unwrap();
    assert!(db.budget().used() < loaded, "delete shrinks the charge");
    db.execute("DROP TABLE t").unwrap();
    assert_eq!(db.budget().used(), 0, "drop releases everything");
}

/// Snapshot isolation at the storage layer: a snapshot taken mid-chunk keeps
/// its contents while the table grows (copy-on-write tail), shrinks
/// (delete re-pack), and even after the table is dropped.
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

    // Delete re-packs survivors into new chunks; old snapshots unaffected.
    t.delete_where(|r| Ok(matches!(r[0], Value::Int(v) if v % 2 == 0))).unwrap();
    assert_eq!(t.row_count(), 1000);
    assert_eq!(snap2.num_rows(), 2000);
    assert_eq!(snap2.to_rows()[0][0], Value::Int(0), "deleted row still visible");

    t.release_budget();
    assert_eq!(snap2.num_rows(), 2000, "snapshot outlives the table's storage");
}

/// End-to-end snapshot semantics: a table mutated between scans yields the
/// new state on the next query, from the executor and the reference alike,
/// including after deletes that re-pack chunks.
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
    db.execute("DELETE FROM t WHERE s < 100").unwrap();
    for n2 in both(&mut db, "SELECT COUNT(*), SUM(s) FROM t") {
        // sum(100..1600) = (100 + 1599) * 1500 / 2
        assert_eq!(n2, vec![vec![Value::Int(1500), Value::Int((100 + 1599) * 1500 / 2)]]);
    }
}

/// The gate-shaped join + group-by forced out of core: the executor spills,
/// sequentially and in parallel, and agrees exactly with the reference.
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
    let run = |parallelism: usize| {
        let mut db = Database::with_memory_limit(2 * 1024 * 1024);
        db.set_parallelism(parallelism);
        db.execute("CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        db.insert_rows("T0", state.clone()).unwrap();
        db.execute("CREATE TABLE H (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)")
            .unwrap();
        db.execute(&format!(
            "INSERT INTO H VALUES (0,0,{h},0.0),(0,1,{h},0.0),(1,0,{h},0.0),(1,1,{},0.0)",
            -h
        ))
        .unwrap();
        let rs = db.execute(sql).unwrap();
        assert!(db.stats().spill_files > 0, "batch({parallelism}) expected to spill");
        (rs.into_rows(), db.query_reference(sql).unwrap().into_rows())
    };
    let (batch, reference) = run(1);
    assert_eq!(batch, reference);
    assert_eq!(run(4).0, reference);
}

// ---------------------------------------------------------------------------
// Recovered database ≡ in-memory twin
// ---------------------------------------------------------------------------

const TYPES: [&str; 4] = ["INTEGER", "DOUBLE", "TEXT", "HUGEINT"];

/// A value a column of type `ty` accepts, drawn from the corners a codec is
/// most likely to bend: NULLs, `-0.0`, NaNs with a payload, `i64::MIN`, and
/// integers offered to `DOUBLE`/`HUGEINT` columns (stored coerced, logged
/// as given). Strings are built with exact capacity, as the log decodes
/// them: the ledger charges capacity.
fn random_value(rng: &mut StdRng, ty: &str, nulls: bool) -> Value {
    if nulls && rng.gen_range(0u32..12) == 0 {
        return Value::Null;
    }
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

/// Every table's schema and rows in storage order with floats as bit
/// patterns, and what the ledger holds for them.
fn full_state(db: &mut Database) -> (Vec<String>, usize, usize) {
    let mut names = db.table_names();
    names.sort();
    let mut out = Vec::new();
    for name in names {
        out.push(format!("{name}: {:?}", db.query_schema(&format!("SELECT * FROM {name}")).unwrap()));
        let rows = db.execute(&format!("SELECT * FROM {name}")).unwrap().into_rows();
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
/// several chunks), `CREATE TABLE … AS` whole and ragged (a filter cuts
/// every batch short), `DROP` and re-creation of a name under another
/// schema, `DELETE`, transactions committed, rolled back and rolled back to
/// a savepoint, and now and then a checkpoint. Whenever the durable side is
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
                    // filter. A column whose first value is NULL is typed
                    // DOUBLE and may then refuse a later value — on both
                    // sides alike.
                    let Some((src, _)) = schemas.first().cloned() else { continue };
                    let filter = if rng.gen_range(0u32..2) == 0 { " WHERE (k & 3) <> 1" } else { "" };
                    let text = format!("SELECT * FROM {src}{filter}");
                    let ctas = move |db: &mut Database| db.create_table_as(name, &text);
                    if both(&mut durable, &mut twin, "CTAS", &ctas) {
                        // What the first batch made of each column is not
                        // predicted here: a copy takes no typed rows below.
                        schemas.push((name.to_string(), None));
                        reached[0] += 1;
                    }
                }
                (Some(at), 0) => {
                    let text = format!("DROP TABLE {name}");
                    assert!(both(&mut durable, &mut twin, &text, &sql(text.clone())));
                    schemas.remove(at);
                }
                (Some(_), 1) => {
                    let text = format!("DELETE FROM {name} WHERE (k & 7) = {}", rng.gen_range(0i64..8));
                    both(&mut durable, &mut twin, &text, &sql(text.clone()));
                }
                (Some(at), 2) => {
                    // A transaction: rows, a savepoint, more rows and a
                    // delete rolled back to it, then COMMIT or ROLLBACK.
                    let Some(types) = schemas[at].1.clone() else { continue };
                    let rows = |rng: &mut StdRng, n: usize| -> Vec<Vec<Value>> {
                        (0..n).map(|_| types.iter().map(|t| random_value(rng, t, true)).collect()).collect()
                    };
                    let (kept, undone) = (rows(&mut rng, 40), rows(&mut rng, 1100));
                    let end = if rng.gen_range(0u32..3) == 0 { "ROLLBACK" } else { "COMMIT" };
                    let txn = move |db: &mut Database| {
                        db.execute("BEGIN")?;
                        db.insert_rows(name, kept.clone())?;
                        db.execute("SAVEPOINT sp")?;
                        db.insert_rows(name, undone.clone())?;
                        db.execute(&format!("DELETE FROM {name} WHERE k < 0"))?;
                        db.execute("ROLLBACK TO sp")?;
                        db.execute(end).map(|_| 0)
                    };
                    assert!(both(&mut durable, &mut twin, "transaction", &txn));
                }
                (Some(at), _) => {
                    let Some(types) = schemas[at].1.clone() else { continue };
                    let n = [1, 7, 300, CHUNK_ROWS, CHUNK_ROWS + 500, 2 * CHUNK_ROWS + 77]
                        [rng.gen_range(0usize..6)];
                    let nulls = rng.gen_range(0u32..3) == 0;
                    let rows: Vec<Vec<Value>> = (0..n)
                        .map(|_| types.iter().map(|t| random_value(&mut rng, t, nulls)).collect())
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
