//! Reference vs batch equivalence on randomized tables.
//!
//! The vectorized executor ([`qymera_sqldb::exec::vector`]) must produce
//! byte-identical results to the reference interpreter
//! ([`Database::query_reference`]) for every query shape the planner can
//! emit. These tests run the same SQL over identical randomized data through
//! the reference and the executor and compare sorted result sets, plus
//! assert the `EXPLAIN ANALYZE` batch counters. (The float data is dyadic so
//! sums are FP-exact regardless of accumulation order.)

use rand::{Rng, SeedableRng, StdRng};

use qymera_sqldb::table::CHUNK_ROWS;
use qymera_sqldb::bigbits::BigBits;
use qymera_sqldb::{Database, Error, Value};

/// One randomized database.
fn rand_db(seed: u64, rows: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let k = rng.gen_range(0i64..50);
            let s = rng.gen_range(0i64..1024);
            let v = Value::Float(rng.gen_range(-100i64..100) as f64 / 8.0);
            vec![Value::Int(k), Value::Int(s), v]
        })
        .collect();
    let dims: Vec<Vec<Value>> = (0..40)
        .map(|i| {
            vec![
                Value::Int(i % 50),
                Value::Int(rng.gen_range(0i64..8)),
                Value::Float(rng.gen_range(1i64..10) as f64),
            ]
        })
        .collect();
    let mut db = Database::new();
    db.execute("CREATE TABLE facts (k INTEGER, s INTEGER, v DOUBLE)").unwrap();
    db.insert_rows("facts", data).unwrap();
    db.execute("CREATE TABLE dims (k INTEGER, out_s INTEGER, w DOUBLE)").unwrap();
    db.insert_rows("dims", dims).unwrap();
    db
}

fn sorted_rows(rows: &[Vec<Value>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// Run `sql` through the reference and the executor over `rows` randomized
/// rows and require identical row sets.
fn assert_equivalent_over(seed: u64, rows: usize, sql: &str) {
    let mut db = rand_db(seed, rows);
    let want = db.query_reference(sql).unwrap_or_else(|e| panic!("reference failed: {e}\n{sql}"));
    let got = db.execute(sql).unwrap_or_else(|e| panic!("batch failed: {e}\n{sql}"));
    assert_eq!(got.columns(), want.columns(), "{sql}");
    assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "{sql}");
}

fn assert_equivalent(seed: u64, sql: &str) {
    assert_equivalent_over(seed, 2000, sql);
}

/// The filter is `HAVING`'s: over group keys that make each group one
/// distinct row.
#[test]
fn filter_equivalence() {
    for seed in 0..3 {
        assert_equivalent(seed, "SELECT k, s, COUNT(*) AS n FROM facts GROUP BY k, s HAVING (s & 7) = 3");
        assert_equivalent(seed, "SELECT k, v, COUNT(*) AS n FROM facts GROUP BY k, v HAVING v > 2.0");
        assert_equivalent(seed, "SELECT s, v, COUNT(*) AS n FROM facts GROUP BY s, v HAVING v > -1.5");
        assert_equivalent(seed, "SELECT s, v, COUNT(*) AS n FROM facts GROUP BY s, v HAVING 0.0 > v");
        assert_equivalent(seed, "SELECT s, k, COUNT(*) AS n FROM facts GROUP BY s, k HAVING s > k");
    }
}

#[test]
fn projection_equivalence() {
    for seed in 0..3 {
        assert_equivalent(
            seed,
            "SELECT (s & ~7) | 5 AS masked, s >> 2 AS hi, v * 2.0 AS dv FROM facts",
        );
        assert_equivalent(seed, "SELECT k = 2 AS two, v > k AS big, -v AS neg FROM facts");
    }
}

#[test]
fn join_equivalence() {
    for seed in 0..3 {
        // The gate-shaped inner equi-join with bitwise key expressions.
        assert_equivalent(
            seed,
            "SELECT (facts.s & ~7) | dims.out_s AS s2, facts.v * dims.w AS amp \
             FROM facts JOIN dims ON dims.k = (facts.k & 63)",
        );
        // A filter over the join's output.
        assert_equivalent(
            seed,
            "SELECT facts.s, facts.v, dims.w, COUNT(*) AS n FROM facts JOIN dims \
             ON dims.k = facts.k GROUP BY facts.s, facts.v, dims.w HAVING facts.v > dims.w",
        );
        // An equi-join on the plain key.
        assert_equivalent(
            seed,
            "SELECT facts.k, dims.out_s FROM facts JOIN dims ON dims.k = facts.k",
        );
        // A key that packs two columns: rows match only when both do.
        assert_equivalent(
            seed,
            "SELECT facts.k, facts.v, dims.w FROM facts JOIN dims \
             ON (dims.k << 3) | dims.out_s = (facts.k << 3) | (facts.s & 7)",
        );
    }
}

#[test]
fn aggregate_equivalence() {
    for seed in 0..3 {
        // Fast-lane shape: single int key, SUM over doubles.
        assert_equivalent(
            seed,
            "SELECT (s & ~7) AS g, SUM(v * 0.5) AS total FROM facts GROUP BY (s & ~7)",
        );
        // Generic accumulators.
        assert_equivalent(
            seed,
            "SELECT k, COUNT(*) AS n, SUM(v) AS t, SUM(s) AS ts FROM facts GROUP BY k",
        );
        // Distinct values per group: a grouped CTE, grouped again.
        assert_equivalent(
            seed,
            "WITH d AS (SELECT k, s FROM facts GROUP BY k, s) \
             SELECT k, COUNT(*) AS ns FROM d GROUP BY k",
        );
        assert_equivalent(
            seed,
            "WITH d AS (SELECT k, v FROM facts GROUP BY k, v) \
             SELECT k, COUNT(*) AS nv, SUM(v) AS tv FROM d GROUP BY k",
        );
        // Global aggregate.
        assert_equivalent(seed, "SELECT SUM(v) AS t, COUNT(*) AS n FROM facts");
        assert_equivalent(seed, "SELECT k FROM facts GROUP BY k");
    }
}

/// `ORDER BY` equivalence: each lane, an expression key. Both
/// sides sort stably over the same scan order, so exact (order-sensitive)
/// comparison is well-defined even where keys tie.
#[test]
fn order_by_equivalence() {
    let shapes = [
        "SELECT v, k, s FROM facts ORDER BY v",
        "SELECT v, k, s FROM facts ORDER BY k",
        "SELECT v, k, s FROM facts ORDER BY (k << 10) | s",
        "SELECT v, k, s FROM facts ORDER BY v * 2.0",
        "SELECT k + 1 AS k1, s & 7 AS lo, v FROM facts ORDER BY lo",
    ];
    for seed in 0..3 {
        let mut db = rand_db(seed, 2000);
        for sql in shapes {
            let want = db.query_reference(sql).unwrap_or_else(|e| panic!("reference: {e}\n{sql}"));
            let got = db.execute(sql).unwrap_or_else(|e| panic!("batch: {e}\n{sql}"));
            assert_eq!(got.rows(), want.rows(), "exact order: {sql}");
        }
    }
}

/// Forced-spill `ORDER BY`: the vectorized sort must write runs and merge
/// them back into exactly the in-memory order.
#[test]
fn order_by_spill_equivalence() {
    let mut rng = StdRng::seed_from_u64(13);
    let data: Vec<Vec<Value>> = (0..60_000)
        .map(|_| {
            vec![
                Value::Int(rng.gen_range(0i64..1_000_000)),
                Value::Float(rng.gen_range(-100i64..100) as f64 / 8.0),
            ]
        })
        .collect();
    let sql = "SELECT k, v FROM big ORDER BY v";
    let mut db = Database::with_memory_limit(2 * 1024 * 1024);
    db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)").unwrap();
    db.insert_rows("big", data).unwrap();
    let batch = db.execute(sql).unwrap().into_rows();
    assert!(db.stats().spill_files > 0, "expected the sort to spill");
    assert_eq!(batch, db.query_reference(sql).unwrap().into_rows());
}

/// Forced-spill aggregation over two keys, grouped again: the generic
/// table's partial rows travel through the partition spill format; the
/// reference never spills.
#[test]
fn two_level_group_by_spill_equivalence() {
    let data: Vec<Vec<Value>> =
        (0..60_000).map(|i| vec![Value::Int(i % 6000), Value::Int((i / 6000) % 7)]).collect();
    let sql = "WITH d AS (SELECT k, s, COUNT(*) AS n FROM big GROUP BY k, s) \
               SELECT k, COUNT(*) AS ns, SUM(n) AS n FROM d GROUP BY k ORDER BY k";
    let mut db = Database::with_memory_limit(2 * 1024 * 1024);
    db.execute("CREATE TABLE big (k INTEGER, s INTEGER)").unwrap();
    db.insert_rows("big", data).unwrap();
    let batch = db.execute(sql).unwrap().into_rows();
    assert!(db.stats().spill_files > 0, "expected to spill");
    let baseline = db.query_reference(sql).unwrap().into_rows();
    assert_eq!(baseline.len(), 6000);
    assert_eq!(baseline[0][1], Value::Int(7), "7 distinct s per group");
    assert_eq!(batch, baseline);
}

#[test]
fn full_gate_query_equivalence() {
    for seed in 0..3 {
        assert_equivalent(
            seed,
            "WITH T1 AS (SELECT ((facts.s & ~1) | dims.out_s) AS s, \
             SUM(facts.v * dims.w) AS r FROM facts \
             JOIN dims ON dims.k = (facts.s & 1) \
             GROUP BY ((facts.s & ~1) | dims.out_s)) \
             SELECT s, r FROM T1 ORDER BY s",
        );
    }
}

#[test]
fn spill_path_equivalence_under_tight_budget() {
    // The executor must agree with the reference when the aggregate is forced
    // out of core.
    let mut rng = StdRng::seed_from_u64(7);
    let data: Vec<Vec<Value>> = (0..60_000)
        .map(|_| {
            vec![
                Value::Int(rng.gen_range(0i64..20_000)),
                Value::Float(0.25),
            ]
        })
        .collect();
    let sql = "SELECT k, SUM(v) AS t FROM big GROUP BY k ORDER BY k";
    // Columnar base-table chunks charge ~16 B/row, so the 60k-row table
    // costs ~1 MB; 2 MB leaves too little headroom for 20k groups.
    let mut db = Database::with_memory_limit(2 * 1024 * 1024);
    db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)").unwrap();
    db.insert_rows("big", data).unwrap();
    let batch = db.execute(sql).unwrap().into_rows();
    assert!(db.stats().spill_files > 0, "expected to spill");
    assert!(batch.len() > 15_000, "expected most groups to appear");
    assert_eq!(batch, db.query_reference(sql).unwrap().into_rows());
}

#[test]
fn explain_analyze_reports_batch_counts() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INTEGER, b DOUBLE)").unwrap();
    let rows: Vec<Vec<Value>> = (0..5000)
        .map(|i| vec![Value::Int(i), Value::Float(1.0)])
        .collect();
    db.insert_rows("t", rows).unwrap();
    let text = db
        .explain_analyze("SELECT a & 3 AS g, SUM(b) AS t FROM t GROUP BY a & 3")
        .unwrap();
    // The 5000-row scan crosses five 1024-row batch boundaries.
    assert!(text.contains("batches=5"), "scan should emit 5 batches:\n{text}");
    // The aggregate's 4 groups fit one batch.
    assert!(text.contains("batches=1"), "aggregate should emit 1 batch:\n{text}");
    assert!(text.contains("rows=5000"), "{text}");
}

/// A failing row fails the statement on both paths, wherever it sits: the
/// executor evaluates every batch it is handed, and every batch is
/// pulled.
#[test]
fn a_failing_row_fails_both_paths() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    let rows: Vec<Vec<Value>> =
        (0..100).map(|i| vec![Value::Int(if i < 10 { 1 } else { 0 })]).collect();
    db.insert_rows("t", rows).unwrap();
    // `x - 1` is -1 where x = 0: a negative shift amount is an error.
    let sql = "SELECT 1 >> (x - 1) AS q FROM t";
    assert!(db.execute(sql).is_err(), "batch path");
    assert!(db.query_reference(sql).is_err(), "the reference evaluates every row");

    // The failing row alone in the second chunk.
    db.execute("CREATE TABLE u (x INTEGER)").unwrap();
    let rows: Vec<Vec<Value>> =
        (0..CHUNK_ROWS + 1).map(|i| vec![Value::Int(if i < CHUNK_ROWS { 1 } else { 0 })]).collect();
    db.insert_rows("u", rows).unwrap();
    let sql = "SELECT 1 >> (x - 1) AS q FROM u";
    assert!(db.execute(sql).is_err(), "the second batch is pulled too");
    assert!(db.query_reference(sql).is_err(), "the reference evaluates every row");
}

/// Reference vs executor over 5000 rows, five chunks: every chunk boundary
/// crossed by filter/project pipelines, equi-join probes, fast-lane and
/// generic aggregates, sorts and the full gate query.
#[test]
fn multi_chunk_equivalence() {
    let shapes = [
        "SELECT k, s * 2 AS s2, COUNT(*) AS n FROM facts GROUP BY k, s * 2 HAVING (s * 2 & 14) = 6",
        "SELECT (s & ~7) | 5 AS masked, v * 2.0 AS dv FROM facts",
        "SELECT (facts.s & ~7) | dims.out_s AS s2, facts.v * dims.w AS amp \
         FROM facts JOIN dims ON dims.k = (facts.k & 63)",
        "SELECT (s & ~7) AS g, SUM(v * 0.5) AS total FROM facts GROUP BY (s & ~7)",
        "SELECT k, COUNT(*) AS n, SUM(v) AS t FROM facts GROUP BY k",
        "SELECT SUM(v) AS t, COUNT(*) AS n FROM facts",
        "WITH T1 AS (SELECT ((facts.s & ~1) | dims.out_s) AS s, \
         SUM(facts.v * dims.w) AS r FROM facts \
         JOIN dims ON dims.k = (facts.s & 1) \
         GROUP BY ((facts.s & ~1) | dims.out_s)) \
         SELECT s, r FROM T1 ORDER BY s",
        "SELECT v, k, s FROM facts ORDER BY v",
        "SELECT v, k, s FROM facts ORDER BY (s & 3) | (k << 2)",
        "SELECT facts.k, facts.s, dims.out_s FROM facts \
         JOIN dims ON (dims.k << 3) | dims.out_s = ((facts.k & 63) << 3) | (facts.s & 7)",
        "WITH d AS (SELECT k, s FROM facts GROUP BY k, s) SELECT k, COUNT(*) AS ns FROM d GROUP BY k",
    ];
    for seed in 0..2 {
        for sql in shapes {
            assert_equivalent_over(seed, 5000, sql);
        }
    }
}

/// Every plan shape reports a physical batch operator (with `batches=`
/// counters) in `EXPLAIN ANALYZE`.
#[test]
fn explain_analyze_shows_batch_operators_for_all_shapes() {
    let mut db = rand_db(23, 5000);
    let sort = db.explain("SELECT v FROM facts ORDER BY v").unwrap();
    assert!(sort.contains("Sort [1 keys]"), "{sort}");

    // `v` is DOUBLE: the comparator sorts it.
    let text = db.explain_analyze("SELECT v, k FROM facts ORDER BY v").unwrap();
    assert!(text.contains("BatchSort [1 keys] "), "{text}");
    assert!(text.contains("batches="), "{text}");

    let text = db.explain_analyze("SELECT v, k FROM facts ORDER BY k").unwrap();
    assert!(text.contains("BatchSort [1 keys, radix]") && text.contains("rows=5000 "), "{text}");

    let text = db
        .explain_analyze("SELECT facts.k FROM facts JOIN dims ON dims.k = facts.k")
        .unwrap();
    assert!(text.contains("HashJoin Inner"), "{text}");

    let text = db.explain_analyze("SELECT k, COUNT(*) FROM facts GROUP BY k").unwrap();
    assert!(text.contains("HashAggregate"), "{text}");
}

// ---------------------------------------------------------------------------
// Lane choices of the gate pipeline: both sides of each, against the reference
// ---------------------------------------------------------------------------

/// The paper's gate application over `state`, with `g` as the gate table.
const GATE_SQL: &str = "SELECT ((state.s & ~1) | g.out_s) AS s, \
     SUM((state.r * g.r) - (state.i * g.i)) AS r, \
     SUM((state.r * g.i) + (state.i * g.r)) AS i \
     FROM state JOIN g ON g.in_s = (state.s & 1) \
     GROUP BY ((state.s & ~1) | g.out_s)";

/// State keys of `n` rows, in the distributions the aggregate's integer
/// group lookup has to be indifferent to.
fn state_keys(shape: &str, n: usize, rng: &mut StdRng) -> Vec<i64> {
    let n = n as i64;
    match shape {
        "dense ascending" => (0..n).collect(),
        // Every key of 0..n, twice, in random order.
        "dense shuffled" => {
            let mut keys: Vec<i64> = (0..n).map(|i| i / 2).collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.gen_range(0..i + 1));
            }
            keys
        }
        "sparse 46-bit" => (0..n).map(|_| rng.gen_range(0i64..1 << 46)).collect(),
        "negative" => (0..n).map(|_| -rng.gen_range(1i64..1 << 40)).collect(),
        "extremes" => (0..n)
            .map(|i| [i64::MIN, i64::MAX, -1, 0, i64::MIN + 2, i64::MAX - 3][i as usize % 6])
            .collect(),
        // Dense, one far key, dense again.
        "dense then outlier" => {
            (0..n / 2).chain([1 << 45]).chain(n / 4..n - 1 - n / 4).collect()
        }
        "one row" => vec![rng.gen_range(1i64 << 45..1 << 46)],
        other => panic!("unknown key shape {other}"),
    }
}

/// A database holding `state` with the given keys and a random one-qubit gate
/// table `g`. Amplitudes are dyadic, so the sums are exact in any order;
/// zero and `-0.0` are among them (every `SUM` over doubles starts from
/// `0.0`, so a group of `-0.0` terms is `+0.0` on every path).
fn gate_db(keys: &[i64], rng: &mut StdRng, limit: Option<usize>) -> Database {
    // Dense (four rows), diagonal or permutation (two rows: each probe row
    // then matches exactly once).
    let outs: &[(i64, i64)] = match rng.gen_range(0u32..3) {
        0 => &[(0, 0), (0, 1), (1, 0), (1, 1)],
        1 => &[(0, 0), (1, 1)],
        _ => &[(0, 1), (1, 0)],
    };
    let mut amp = || {
        let magnitude = rng.gen_range(0i64..8) as f64 / 4.0;
        Value::Float(if rng.gen_range(0u32..2) == 0 { magnitude } else { -magnitude })
    };
    let state: Vec<Vec<Value>> =
        keys.iter().map(|&s| vec![Value::Int(s), amp(), amp()]).collect();
    let gate: Vec<Vec<Value>> = outs
        .iter()
        .map(|&(in_s, out_s)| vec![Value::Int(in_s), Value::Int(out_s), amp(), amp()])
        .collect();
    let mut db = limit.map_or_else(Database::new, Database::with_memory_limit);
    db.execute("CREATE TABLE state (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    db.insert_rows("state", state).unwrap();
    db.execute("CREATE TABLE g (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
    db.insert_rows("g", gate).unwrap();
    db
}

#[test]
fn gate_queries_agree_with_the_reference_on_every_key_distribution() {
    // 6 000 state rows are six chunks and up to 12 000 groups of 200 bytes:
    // the tight limit holds the table but not the groups, so the aggregate
    // spills (the one-row state fits any limit).
    const TIGHT: usize = 512 * 1024;
    for (case, shape) in [
        "dense ascending",
        "dense shuffled",
        "sparse 46-bit",
        "negative",
        "extremes",
        "dense then outlier",
        "one row",
    ]
    .into_iter()
    .enumerate()
    {
        for seed in 0..2u64 {
            for limit in [None, Some(TIGHT)] {
                let mut rng = StdRng::seed_from_u64(1000 * case as u64 + seed);
                let keys = state_keys(shape, 6000, &mut rng);
                let mut db = gate_db(&keys, &mut rng, limit);
                let what = format!("{shape}, seed {seed}, limit {limit:?}");
                let base = db.budget().used();
                let got = db.execute(GATE_SQL).unwrap_or_else(|e| panic!("{what}: {e}"));
                let spilled = db.stats().spill_files > 0;
                let distinct = keys.iter().collect::<std::collections::HashSet<_>>().len();
                if limit.is_some() && distinct > 3000 {
                    assert!(spilled, "{what}: expected the aggregate to spill");
                }
                assert!(limit.is_some() || !spilled, "{what}: spilled without a limit");
                assert_eq!(db.budget().used(), base, "{what}: ledger not restored");
                let want = db.query_reference(GATE_SQL).unwrap();
                assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "{what}");
            }
        }
    }
}

/// `SUM` over doubles gives one sign everywhere: a group whose terms are
/// all `-0.0` is `+0.0` in the fast lanes, in the generic table (the `COUNT`
/// forces it), through the spill merge and in the reference.
#[test]
fn sum_of_negative_zeros_is_positive_zero_on_every_path() {
    for (sql, limit) in [
        ("SELECT k, SUM(v) AS t FROM z GROUP BY k", None),
        ("SELECT k, SUM(v) AS t, COUNT(*) AS c FROM z GROUP BY k", None),
        ("SELECT k, SUM(v) AS t FROM z GROUP BY k", Some(256 * 1024)),
        ("SELECT k, SUM(v) AS t, COUNT(*) AS c FROM z GROUP BY k", Some(256 * 1024)),
    ] {
        let mut db = limit.map_or_else(Database::new, Database::with_memory_limit);
        db.execute("CREATE TABLE z (k INTEGER, v DOUBLE)").unwrap();
        let rows = (0..6000).map(|i| vec![Value::Int(i % 3000), Value::Float(-0.0)]);
        db.insert_rows("z", rows.collect()).unwrap();
        let got = db.execute(sql).unwrap();
        assert_eq!(db.stats().spill_files > 0, limit.is_some(), "{sql}");
        assert_eq!(got.rows().len(), 3000);
        for row in got.rows() {
            assert!(
                matches!(row[1], Value::Float(t) if t.to_bits() == 0),
                "{sql}, limit {limit:?}: {row:?}"
            );
        }
        let want = db.query_reference(sql).unwrap();
        assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "{sql}");
    }
}

/// A spilling aggregate over `HUGEINT` keys: the generic table flushes
/// partial rows and merges them back, and every key keeps its type and
/// width, as the reference's. `a.k` holds 9 000 keys below 2^14 (64 bits
/// wide) and 500 shifted past 64 bits.
#[test]
fn hugeint_spill_agrees_with_the_reference() {
    let big = |k: u64, up: usize| Value::Big(BigBits::from_u64(k, 64).shl(up));
    let mut db = Database::with_memory_limit(2 * 1024 * 1024);
    db.execute("CREATE TABLE a (k HUGEINT, v DOUBLE)").unwrap();
    let row = |i: u64, up| vec![big((i * 7919) % 9000, up), Value::Float((i % 64) as f64 / 8.0)];
    db.insert_rows("a", (0..27_000).map(|i| row(i, 0)).collect()).unwrap();
    db.insert_rows("a", (0..500).map(|i| row(i, 70)).collect()).unwrap();
    let sql = "SELECT k AS g, SUM(v) AS t, SUM(v * 2) AS u FROM a GROUP BY k";
    let before = db.stats().spill_files;
    let got = db.execute(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    assert!(db.stats().spill_files > before, "no spill\n{sql}");
    assert_eq!(db.live_spill_files(), 0);
    // `0 << 70` is the key 0 again.
    assert_eq!(got.rows().len(), 9000 + 499, "{sql}");
    let want = db.query_reference(sql).unwrap();
    assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "{sql}");
}

/// A value's type follows from its operands' types, never from their
/// values: `INTEGER << n` past `i64` is the overflow error, as `+` is, and
/// `SUM` of a `HUGEINT` is a type error, a lone term's too — on the executor
/// and the reference alike, through every operator that evaluates an
/// expression: project, aggregate key and argument, `HAVING`, sort key, and
/// a join's probe and build keys.
#[test]
fn overflowing_shifts_and_hugeint_sums_are_errors_on_both_paths() {
    let mut db = Database::new();
    db.execute("CREATE TABLE w (k INTEGER, v DOUBLE)").unwrap();
    // Keys whose `<< 60` stays INTEGER (-1, 0..7, negative or small) next
    // to keys that overflow (16 and up), interleaved across batch boundaries.
    let keys = |i: i64| [-1, 16, 3, 40, 0, 7, 1 << 20][(i % 7) as usize] + (i % 3) * 8;
    let rows = (0..5000).map(|i| vec![Value::Int(keys(i)), Value::Float(i as f64 / 4.0)]);
    db.insert_rows("w", rows.collect()).unwrap();
    db.execute("CREATE TABLE j (m INTEGER, tag INTEGER)").unwrap();
    let keep = (0..3).map(|m| vec![Value::Int(m), Value::Int(10 * m)]);
    db.insert_rows("j", keep.collect()).unwrap();
    let overflow = Error::Eval("integer overflow in <<".into());
    for sql in [
        "SELECT k << 60 AS x, v FROM w",
        "SELECT k, SUM(k << 60) AS t FROM w GROUP BY k",
        "SELECT (k << 60) >> 60 AS g, SUM(v) AS t, COUNT(*) AS c FROM w GROUP BY (k << 60) >> 60",
        "SELECT k << 60 AS x, v FROM w ORDER BY x",
        "SELECT k, SUM(v) AS t FROM w GROUP BY k HAVING (k << 60) > 0",
        "SELECT w.v, j.tag FROM w JOIN j ON j.m = ((k << 60) >> 60) & 1",
        "WITH q AS (SELECT k << 60 AS x, k FROM w) SELECT j.tag, q.x FROM j JOIN q ON q.k = j.m",
    ] {
        assert_eq!(db.execute(sql).unwrap_err(), overflow, "{sql}");
        assert_eq!(db.query_reference(sql).unwrap_err(), overflow, "{sql}");
    }
    // A shift that stays inside `i64` is an INTEGER on both paths.
    let fits = "SELECT (k & 7) << 60 AS x, v FROM w ORDER BY x";
    let got = db.execute(fits).unwrap();
    assert!(got.rows().iter().all(|r| matches!(r[0], Value::Int(_))));
    assert_eq!(format!("{:?}", got.rows()), format!("{:?}", db.query_reference(fits).unwrap().rows()));
    db.execute("CREATE TABLE h (k INTEGER, h HUGEINT)").unwrap();
    db.execute("INSERT INTO h VALUES (1, 0x0000000000000002), (1, 0x0000000000000003), (2, 0x0000000000000005)")
        .unwrap();
    let refused = Error::Type("SUM of a HUGEINT value".into());
    for sql in ["SELECT SUM(h) AS t FROM h", "SELECT k, SUM(h) AS t FROM h GROUP BY k"] {
        assert_eq!(db.execute(sql).unwrap_err(), refused, "{sql}");
        assert_eq!(db.query_reference(sql).unwrap_err(), refused, "{sql}");
    }
}

#[test]
fn joins_agree_with_the_reference_on_both_sides_of_the_direct_index() {
    // `probe.k` runs over -2..73; each build below either
    // qualifies for the direct index (every key an integer in 0..64) or
    // falls back to the hash table for the reason named.
    let mut rng = StdRng::seed_from_u64(17);
    let probe: Vec<Vec<Value>> = (0..3000)
        .map(|i| {
            let k = Value::Int(rng.gen_range(0i64..75) - 2);
            vec![k, Value::Int(i), Value::Str(format!("n{}", i % 5))]
        })
        .collect();
    let ints = |keys: &[i64]| -> Vec<Vec<Value>> {
        keys.iter()
            .enumerate()
            .map(|(j, &k)| vec![Value::Int(k), Value::Float(j as f64 / 4.0)])
            .collect()
    };
    let builds: Vec<(&str, &str, Vec<Vec<Value>>)> = vec![
        ("direct: one row per key", "INTEGER", ints(&(0..64).collect::<Vec<_>>())),
        ("direct: duplicated keys, many-to-many", "INTEGER", ints(&[3, 3, 3, 7, 7, 0, 63, 3])),
        ("direct: keys met in descending order", "INTEGER", ints(&[63, 40, 9, 9, 1])),
        ("direct: empty build", "INTEGER", Vec::new()),
        ("direct: integral DOUBLE keys", "DOUBLE", vec![
            vec![Value::Float(2.0), Value::Float(0.5)],
            vec![Value::Float(40.0), Value::Float(1.5)],
        ]),
        ("hashed: a key of 64", "INTEGER", ints(&[0, 1, 64])),
        ("hashed: a negative key", "INTEGER", ints(&[5, -1, 5, -2])),
        ("hashed: a fractional key", "DOUBLE", vec![
            vec![Value::Float(2.0), Value::Float(0.5)],
            vec![Value::Float(2.5), Value::Float(1.5)],
        ]),
    ];
    let queries = [
        "SELECT probe.k, probe.n, b.w FROM probe JOIN b ON b.k = probe.k",
        "SELECT b.k, probe.n FROM b JOIN probe ON probe.k = b.k",
        "SELECT probe.n, b.w FROM probe JOIN b ON b.k = (probe.k & 63)",
        "SELECT b.k, COUNT(*) AS c, SUM(b.w) AS t FROM probe JOIN b ON b.k = probe.k GROUP BY b.k",
    ];
    for (what, key_type, build) in builds {
        let mut db = Database::new();
        db.execute("CREATE TABLE probe (k INTEGER, n INTEGER, name TEXT)").unwrap();
        db.insert_rows("probe", probe.clone()).unwrap();
        db.execute(&format!("CREATE TABLE b (k {key_type}, w DOUBLE)")).unwrap();
        db.insert_rows("b", build).unwrap();
        for sql in queries {
            let want = db.query_reference(sql).unwrap_or_else(|e| panic!("{what}: {e}\n{sql}"));
            let got = db.execute(sql).unwrap_or_else(|e| panic!("{what}: {e}\n{sql}"));
            assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "{what}: {sql}");
        }
    }
    // A non-numeric key: TEXT never takes the direct index.
    let mut db = Database::new();
    db.execute("CREATE TABLE probe (k INTEGER, n INTEGER, name TEXT)").unwrap();
    db.insert_rows("probe", probe).unwrap();
    for sql in [
        "CREATE TABLE names (name TEXT, w DOUBLE)",
        "INSERT INTO names VALUES ('n1', 1.0), ('n3', 3.0), ('n3', 3.5), ('zz', 0.0)",
    ] {
        db.execute(sql).unwrap();
    }
    let sql = "SELECT probe.n, names.w FROM probe JOIN names ON names.name = probe.name";
    let want = db.query_reference(sql).unwrap();
    assert_eq!(sorted_rows(db.execute(sql).unwrap().rows()), sorted_rows(want.rows()));
}

/// `state(s, r, i)` of the given key type and `g(in_s, out_s, r, i)` with
/// dyadic amplitudes, so sums are exact in any order.
fn keyed_gate_db(key_type: &str, keys: Vec<Value>, gate: &[(i64, i64)]) -> Database {
    let amp = |k: usize| Value::Float((k % 13) as f64 / 4.0 - 1.5);
    let state = keys.into_iter().enumerate().map(|(k, s)| vec![s, amp(k), amp(k + 5)]);
    let gate = gate
        .iter()
        .enumerate()
        .map(|(k, &(in_s, out_s))| vec![Value::Int(in_s), Value::Int(out_s), amp(k + 2), amp(k + 7)]);
    let mut db = Database::new();
    db.execute(&format!("CREATE TABLE state (s {key_type}, r DOUBLE, i DOUBLE)")).unwrap();
    db.insert_rows("state", state.collect()).unwrap();
    // The gate table's indices have the state's type, as the translator's.
    db.execute(&format!("CREATE TABLE g (in_s {key_type}, out_s {key_type}, r DOUBLE, i DOUBLE)"))
        .unwrap();
    db.insert_rows("g", gate.collect()).unwrap();
    db
}

/// The Fig. 2c query with `key` for the new state and `on` for the join.
fn gate_sql(key: &str, on: &str, having: &str) -> String {
    format!(
        "SELECT {key} AS s, SUM((state.r * g.r) - (state.i * g.i)) AS r, \
         SUM((state.r * g.i) + (state.i * g.r)) AS i \
         FROM state JOIN g ON g.in_s = {on} GROUP BY {key}{having}"
    )
}

/// The translation of a gate whose table permutes: Fig. 2c's join without
/// the `GROUP BY`.
fn permutation_sql(key: &str, on: &str) -> String {
    format!(
        "SELECT {key} AS s, (state.r * g.r) - (state.i * g.i) AS r, \
         (state.r * g.i) + (state.i * g.r) AS i FROM state JOIN g ON g.in_s = {on}"
    )
}

/// One gate query over one state and gate table.
struct GateCase {
    what: &'static str,
    key_type: &'static str,
    keys: Vec<Value>,
    gate: &'static [(i64, i64)],
    sql: String,
}

/// Gate queries in both mask forms, grouped or not, over tables that
/// permute and tables that do not, and over keys that repeat, are negative
/// or are `HUGEINT`: the executor agrees with the reference on each.
#[test]
fn gate_queries_agree_with_the_reference() {
    const PERMUTATION: &[(i64, i64)] = &[(0, 0), (1, 3), (2, 2), (3, 1)];
    let ints = |keys: std::ops::Range<i64>| keys.map(Value::Int).collect::<Vec<_>>();
    let with = |extra: Value| ints(0..2999).into_iter().chain([extra]).collect::<Vec<_>>();
    let case = |what, keys, gate, sql: &str| GateCase {
        what,
        key_type: "INTEGER",
        keys,
        gate,
        sql: sql.to_string(),
    };
    let (contiguous_key, contiguous_on) = ("((state.s & ~6) | (g.out_s << 1))", "((state.s >> 1) & 3)");
    let contiguous = gate_sql(contiguous_key, contiguous_on, "");
    // Qubits [2, 0]: the per-bit form non-adjacent qubits get.
    let (per_bit_key, per_bit_on) = (
        "((state.s & ~5) | (((g.out_s & 1) << 2) | ((g.out_s >> 1) & 1)))",
        "(((state.s >> 2) & 1) | ((state.s & 1) << 1))",
    );
    let per_bit = gate_sql(per_bit_key, per_bit_on, "");
    let one_qubit = gate_sql("((state.s & ~1) | g.out_s)", "(state.s & 1)", "");
    let having = gate_sql(
        contiguous_key,
        contiguous_on,
        " HAVING SUM((state.r * g.r) - (state.i * g.i)) > 0.5",
    );
    let huge_key = "(state.s ^ ((g.in_s ^ g.out_s) << 70))";
    let huge = |sql: String| GateCase {
        what: "a HUGEINT register",
        key_type: "HUGEINT",
        keys: (0..3000).map(|v| Value::Big(BigBits::from_u64(v, 100).shl(40))).collect(),
        gate: &[(0, 1), (1, 0)],
        sql,
    };
    let cases = vec![
        case("contiguous mask form", ints(0..3000), PERMUTATION, &contiguous),
        case("per-bit mask form", ints(0..3000), PERMUTATION, &per_bit),
        case("diagonal gate", ints(-1500..1500), &[(0, 0), (1, 1)], &one_qubit),
        case("in_s repeats, out_s does not", ints(0..3000), &[(0, 0), (0, 1)], &one_qubit),
        case("HAVING above the aggregate", ints(0..3000), PERMUTATION, &having),
        case("H: both columns repeat", ints(0..3000), &[(0, 0), (0, 1), (1, 0), (1, 1)], &one_qubit),
        case("two in_s, one out_s", ints(0..3000), &[(0, 1), (1, 1)], &one_qubit),
        case("an out_s bit outside the field", ints(0..3000), &[(0, 1), (1, 2)], &one_qubit),
        case(
            "the key clears bits the join does not read",
            ints(0..3000),
            &[(0, 0), (1, 1)],
            &gate_sql("((state.s & ~7) | g.out_s)", "(state.s & 1)", ""),
        ),
        case(
            "the key keeps a bit out_s lands on",
            ints(0..3000),
            &[(0, 0), (1, 1)],
            &gate_sql("((state.s & ~6) | g.out_s)", "(state.s & 1)", ""),
        ),
        case("a duplicate s", with(Value::Int(7)), PERMUTATION, &contiguous),
        case("a negative s", with(Value::Int(-5)), PERMUTATION, &contiguous),
        case("permutation, contiguous", ints(0..3000), PERMUTATION, &permutation_sql(contiguous_key, contiguous_on)),
        case("permutation, per-bit", ints(0..3000), PERMUTATION, &permutation_sql(per_bit_key, per_bit_on)),
        case("permutation, a negative s", with(Value::Int(-5)), PERMUTATION, &permutation_sql(contiguous_key, contiguous_on)),
        huge(gate_sql(huge_key, "((state.s >> 70) & 0x1)", "")),
        huge(permutation_sql(huge_key, "((state.s >> 70) & 0x1)")),
    ];
    for GateCase { what, key_type, keys, gate, sql } in cases {
        let mut db = keyed_gate_db(key_type, keys, gate);
        let want = db.query_reference(&sql).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(!want.rows().is_empty(), "{what}: an empty result compares nothing");
        let got = db.execute(&sql).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "{what}");
    }
}

/// A permutation's join has no group table to charge or spill: under a
/// limit that makes Fig. 2c's `GROUP BY` of the same gate spill, the join
/// alone leaves the ledger where the tables put it. The aggregate sums
/// `-0.0` to `+0.0`; the join keeps the sign its product has.
#[test]
fn a_permutation_join_charges_and_spills_nothing() {
    const TIGHT: usize = 512 * 1024;
    let (key, on) = ("((state.s & ~1) | g.out_s)", "(state.s & 1)");
    for (sql, grouped) in [(gate_sql(key, on, ""), true), (permutation_sql(key, on), false)] {
        let mut db = Database::with_memory_limit(TIGHT);
        db.execute("CREATE TABLE state (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        let state = (0..6000).map(|s| vec![Value::Int(s), Value::Float(-0.0), Value::Float(0.25)]);
        db.insert_rows("state", state.collect()).unwrap();
        db.execute("CREATE TABLE g (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        db.execute("INSERT INTO g VALUES (0, 1, 1.0, 0.0), (1, 0, 1.0, 0.0)").unwrap();
        let tables = db.budget().used();
        let profile = db.explain_analyze(&sql).unwrap();
        assert_eq!(profile.contains("HashAggregate"), grouped, "{profile}");
        assert_eq!(db.stats().spill_files > 0, grouped, "{profile}");
        let got = db.execute(&sql).unwrap();
        assert_eq!(db.budget().used(), tables);
        if !grouped {
            // One batch of join output at a time, nothing per group.
            assert!(db.budget().peak() < tables + 100 * 1024, "peak {}", db.budget().peak());
        }
        let zero = if grouped { 0.0f64 } else { -0.0 };
        assert!(got.rows().iter().all(|r| matches!(r[1], Value::Float(x) if x.to_bits() == zero.to_bits())));
        let want = db.query_reference(&sql).unwrap();
        assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()));
    }
}

/// `ORDER BY` an `INTEGER` key takes the radix path; a `DOUBLE` or a
/// `HUGEINT` key takes the comparator, and the node is labelled radix only
/// when it took the radix path. On every key distribution — duplicates, negatives, `i64::MIN`/`MAX`, keys sharing
/// their high bytes (the skipped digits), digits whose only varying bit is
/// their top one, a single row —
/// in memory and spilled into several runs, all of them must equal the
/// reference's stable `sort_by` byte for byte. The payload `p` is the
/// input position, so a tie that leaves input order shows.
#[test]
fn radix_sort_agrees_with_the_comparator_and_the_reference() {
    const EXTREMES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    type Key = fn(&mut StdRng) -> i64;
    let distributions: [(&str, usize, Key); 7] = [
        ("duplicates", 5000, |rng| rng.gen_range(-40i64..40)),
        ("full range", 5000, |rng| rng.gen_range(i64::MIN..=i64::MAX)),
        ("extremes", 3500, |rng| EXTREMES[rng.gen_range(0..EXTREMES.len())]),
        ("shared high bytes", 5000, |rng| 0x5A5A_0000_0000_0000 + rng.gen_range(0i64..3000)),
        ("one varying bit per digit", 3500, |rng| rng.gen_range(0i64..4) << 7),
        ("negative, shared", 4000, |rng| -(1i64 << 40) - rng.gen_range(0i64..70_000)),
        ("single row", 1, |rng| rng.gen_range(i64::MIN..=i64::MAX)),
    ];
    let exact = |rows: &[Vec<Value>]| format!("{rows:?}");
    for (seed, (name, n, key)) in distributions.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0x5eed + seed as u64);
        let data: Vec<Vec<Value>> = (0..*n as i64)
            .map(|p| {
                let v = rng.gen_range(-4i64..4) as f64 / 2.0;
                vec![Value::Int(key(&mut rng)), Value::Float(v), Value::Int(p)]
            })
            .collect();
        // Table cells are 8 bytes; a buffered batch charges ~24 KiB, so the
        // tight limit spills a run every batch or two.
        for limit in [None, Some(24 * n + 40_000)] {
            let mut db = limit.map_or_else(Database::new, Database::with_memory_limit);
            db.execute("CREATE TABLE t (k INTEGER, v DOUBLE, p INTEGER)").unwrap();
            db.insert_rows("t", data.clone()).unwrap();
            let radix = "SELECT k, p FROM t ORDER BY k";
            let want = db.query_reference(radix).unwrap();
            let files = db.stats().spill_files;
            let got = db.execute(radix).unwrap();
            let case = format!("{name}, limit {limit:?}: {radix}");
            assert_eq!(exact(got.rows()), exact(want.rows()), "{case}");
            if limit.is_some() && *n > 3 * 1024 {
                assert!(db.stats().spill_files - files >= 2, "{case}: expected ≥ 2 runs");
            }
            let profile = db.explain_analyze(radix).unwrap();
            assert!(profile.contains("BatchSort [1 keys, radix]"), "{case}\n{profile}");
            // A DOUBLE key stays on the comparator.
            let float = "SELECT v, p FROM t ORDER BY v";
            let want_float = db.query_reference(float).unwrap();
            assert_eq!(exact(db.execute(float).unwrap().rows()), exact(want_float.rows()), "{case}");
            let profile = db.explain_analyze(float).unwrap();
            assert!(profile.contains("BatchSort [1 keys] "), "{case}\n{profile}");
            // A HUGEINT key (an INTEGER XOR a 65-bit literal) stays on the
            // comparator too, ties and all: 16 keys, in descending `p & 15`.
            let big = "SELECT k, p FROM t ORDER BY ((p & 15) ^ 0x1ffffffffffffffff)";
            let want = db.query_reference(big).unwrap();
            assert_eq!(exact(db.execute(big).unwrap().rows()), exact(want.rows()), "{case}");
            let profile = db.explain_analyze(big).unwrap();
            assert!(profile.contains("BatchSort [1 keys] "), "{case}\n{profile}");
        }
    }
}
