//! Reference vs batch vs parallel-batch equivalence on randomized tables.
//!
//! The vectorized executor ([`qymera_sqldb::exec::vector`]) must produce
//! byte-identical results to the reference interpreter
//! ([`Database::query_reference`]) for every query shape the planner can
//! emit — at every worker count. These tests run the same SQL over identical
//! randomized data through the reference, the sequential executor and the
//! morsel-parallel executor and compare sorted result sets, plus assert the
//! `EXPLAIN ANALYZE` batch/worker counters. (The float data is dyadic so sums
//! are FP-exact regardless of accumulation order.)

use rand::{Rng, SeedableRng, StdRng};

use qymera_sqldb::table::CHUNK_ROWS;
use qymera_sqldb::bigbits::BigBits;
use qymera_sqldb::{Database, Value};

/// One randomized database at the given worker count.
fn rand_db(seed: u64, rows: usize, parallelism: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let k = rng.gen_range(0i64..50);
            let s = rng.gen_range(0i64..1024);
            // Sprinkle NULLs so three-valued logic is exercised.
            let v = if rng.gen_range(0u32..10) == 0 {
                Value::Null
            } else {
                Value::Float(rng.gen_range(-100i64..100) as f64 / 8.0)
            };
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
    db.set_parallelism(parallelism);
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

/// Worker count of the parallel leg of every three-way comparison.
const WORKERS: usize = 4;

/// Run `sql` through the reference, the sequential executor and the
/// parallel executor and require identical row sets.
fn assert_equivalent(seed: u64, sql: &str) {
    let mut db = rand_db(seed, 2000, 1);
    let want = db.query_reference(sql).unwrap_or_else(|e| panic!("reference failed: {e}\n{sql}"));
    for workers in [1, WORKERS] {
        db.set_parallelism(workers);
        let got = db.execute(sql).unwrap_or_else(|e| panic!("batch({workers}) failed: {e}\n{sql}"));
        assert_eq!(got.columns(), want.columns(), "batch({workers}): {sql}");
        assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "batch({workers}): {sql}");
    }
}

#[test]
fn filter_equivalence() {
    for seed in 0..3 {
        assert_equivalent(seed, "SELECT k, s FROM facts WHERE (s & 7) = 3");
        assert_equivalent(seed, "SELECT k FROM facts WHERE v > 2.0");
        assert_equivalent(seed, "SELECT s FROM facts WHERE v IS NULL");
        assert_equivalent(seed, "SELECT s FROM facts WHERE k > 10 AND v < 0.0");
    }
}

#[test]
fn projection_equivalence() {
    for seed in 0..3 {
        assert_equivalent(
            seed,
            "SELECT (s & ~7) | 5 AS masked, s >> 2 AS hi, v * 2.0 AS dv FROM facts",
        );
        assert_equivalent(
            seed,
            "SELECT CASE WHEN v IS NULL THEN -1.0 ELSE v END AS filled FROM facts",
        );
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
        // Residual predicate after the key match.
        assert_equivalent(
            seed,
            "SELECT facts.s, dims.w FROM facts JOIN dims \
             ON dims.k = facts.k AND facts.v > dims.w",
        );
        // Left outer equi-join (vectorized hash join with match bitmap).
        assert_equivalent(
            seed,
            "SELECT facts.k, dims.out_s FROM facts LEFT JOIN dims ON dims.k = facts.k",
        );
        // Left outer with a residual predicate: pads appear only when no
        // pair passes the full ON condition.
        assert_equivalent(
            seed,
            "SELECT facts.k, facts.v, dims.w FROM facts LEFT JOIN dims \
             ON dims.k = facts.k AND dims.w > facts.v",
        );
        // Right outer join (planner-rewritten into a swapped left join).
        assert_equivalent(
            seed,
            "SELECT facts.k, facts.s, dims.k, dims.out_s FROM facts \
             RIGHT JOIN dims ON dims.k = facts.k AND facts.s < 100",
        );
        // Cross join (vectorized nested loop, no condition).
        assert_equivalent(
            seed,
            "SELECT facts.s, dims.out_s FROM facts CROSS JOIN dims WHERE facts.k = 7",
        );
        // Non-equi condition (vectorized nested loop with batched predicate).
        assert_equivalent(
            seed,
            "SELECT facts.k, dims.k FROM facts JOIN dims ON facts.k < dims.k - 40",
        );
        // Non-equi LEFT OUTER (nested loop with pads).
        assert_equivalent(
            seed,
            "SELECT facts.k, dims.k, dims.w FROM facts LEFT JOIN dims \
             ON facts.k < dims.k - 40",
        );
    }
}

/// RIGHT JOIN semantics on explicit data: every build-side row is preserved,
/// unmatched ones padded with NULLs on the left, written column order kept.
#[test]
fn right_join_semantics() {
    let mut db = Database::new();
    db.execute("CREATE TABLE l (a INTEGER, b INTEGER)").unwrap();
    db.execute("INSERT INTO l VALUES (1, 10), (2, 20), (2, 21)").unwrap();
    db.execute("CREATE TABLE r (c INTEGER, d INTEGER)").unwrap();
    db.execute("INSERT INTO r VALUES (2, 200), (3, 300)").unwrap();
    let sql = "SELECT l.a, l.b, r.c, r.d FROM l RIGHT JOIN r ON r.c = l.a ORDER BY r.c, l.b";
    let results =
        [("reference", db.query_reference(sql).unwrap()), ("batch", db.execute(sql).unwrap())];
    for (path, rs) in results {
        assert_eq!(rs.columns(), &["a", "b", "c", "d"], "{path}");
        let rows = rs.rows();
        assert_eq!(rows.len(), 3, "{path}: two matches for c=2, one pad for c=3");
        assert_eq!(rows[0], vec![Value::Int(2), Value::Int(20), Value::Int(2), Value::Int(200)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Int(21), Value::Int(2), Value::Int(200)]);
        assert_eq!(rows[2], vec![Value::Null, Value::Null, Value::Int(3), Value::Int(300)]);
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
            "SELECT k, COUNT(*) AS n, COUNT(v) AS nv, MIN(v) AS lo, MAX(v) AS hi, \
             AVG(v) AS mean FROM facts GROUP BY k",
        );
        // DISTINCT aggregates (vectorized, spillable distinct sets).
        assert_equivalent(seed, "SELECT k, COUNT(DISTINCT s) AS ns FROM facts GROUP BY k");
        assert_equivalent(
            seed,
            "SELECT k, SUM(DISTINCT v) AS sv, COUNT(DISTINCT s) AS ns, COUNT(*) AS n \
             FROM facts GROUP BY k",
        );
        // Global aggregate.
        assert_equivalent(seed, "SELECT SUM(v) AS t, COUNT(*) AS n FROM facts");
        assert_equivalent(seed, "SELECT DISTINCT k FROM facts");
    }
}

/// `ORDER BY` equivalence: multi-key, NULL keys, DESC, LIMIT/OFFSET. The
/// projections carry every sort key, so tied rows are fully identical and
/// exact (order-sensitive) comparison is well-defined.
#[test]
fn order_by_equivalence() {
    let shapes = [
        "SELECT v, k, s FROM facts ORDER BY v, k, s",
        "SELECT v, k, s FROM facts ORDER BY v DESC, k ASC, s DESC",
        "SELECT v, k, s FROM facts WHERE k > 10 ORDER BY v, k, s LIMIT 100",
        "SELECT v, k, s FROM facts ORDER BY v DESC, k, s LIMIT 50 OFFSET 37",
        "SELECT k + 1 AS k1, s & 7 AS lo, v FROM facts ORDER BY lo, v DESC, k1",
    ];
    for seed in 0..3 {
        let mut db = rand_db(seed, 2000, 1);
        for sql in shapes {
            let want = db.query_reference(sql).unwrap_or_else(|e| panic!("reference: {e}\n{sql}"));
            for workers in [1, WORKERS] {
                db.set_parallelism(workers);
                let got = db.execute(sql).unwrap_or_else(|e| panic!("batch({workers}): {e}\n{sql}"));
                assert_eq!(got.rows(), want.rows(), "batch({workers}) exact order: {sql}");
            }
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
    let sql = "SELECT k, v FROM big ORDER BY v DESC, k";
    let run = |parallelism: usize| {
        let mut db = Database::with_memory_limit(2 * 1024 * 1024);
        db.set_parallelism(parallelism);
        db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)").unwrap();
        db.insert_rows("big", data.clone()).unwrap();
        let rs = db.execute(sql).unwrap();
        assert!(db.stats().spill_files > 0, "batch({parallelism}) expected the sort to spill");
        (rs.into_rows(), db.query_reference(sql).unwrap().into_rows())
    };
    let (batch, reference) = run(1);
    assert_eq!(batch, reference);
    assert_eq!(run(WORKERS).0, reference);
}

/// Forced-spill DISTINCT aggregation: distinct sets travel through the
/// partition spill format (this shape errored out before the sets became
/// spillable); the reference never spills.
#[test]
fn distinct_spill_equivalence() {
    let data: Vec<Vec<Value>> = (0..60_000)
        .map(|i| {
            vec![
                Value::Int(i % 6000),
                Value::Int((i / 6000) % 7),
                Value::Float(((i / 6000) % 5) as f64),
            ]
        })
        .collect();
    let sql = "SELECT k, COUNT(DISTINCT s) AS ns, SUM(DISTINCT v) AS sv, COUNT(*) AS n \
               FROM big GROUP BY k ORDER BY k";
    let run = |parallelism: usize| {
        let mut db = Database::with_memory_limit(2 * 1024 * 1024);
        db.set_parallelism(parallelism);
        db.execute("CREATE TABLE big (k INTEGER, s INTEGER, v DOUBLE)").unwrap();
        db.insert_rows("big", data.clone()).unwrap();
        let rs = db.execute(sql).unwrap();
        assert!(db.stats().spill_files > 0, "batch({parallelism}) expected to spill");
        (rs.into_rows(), db.query_reference(sql).unwrap().into_rows())
    };
    let (batch, baseline) = run(1);
    assert_eq!(baseline.len(), 6000);
    assert_eq!(baseline[0][1], Value::Int(7), "7 distinct s per group");
    assert_eq!(baseline[0][2], Value::Float(10.0), "0+1+2+3+4 distinct v");
    assert_eq!(batch, baseline);
    assert_eq!(run(WORKERS).0, baseline);
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
             SELECT s, r FROM T1 ORDER BY s LIMIT 100",
        );
    }
}

#[test]
fn union_order_limit_equivalence() {
    for seed in 0..2 {
        assert_equivalent(
            seed,
            "SELECT s FROM facts WHERE k < 5 UNION ALL SELECT out_s FROM dims \
             ORDER BY 1 DESC LIMIT 50",
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
    let run = |parallelism: usize| {
        // Columnar base-table chunks charge ~16 B/row, so the 60k-row table
        // costs ~1 MB; 2 MB leaves too little headroom for 20k groups.
        let mut db = Database::with_memory_limit(2 * 1024 * 1024);
        db.set_parallelism(parallelism);
        db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)").unwrap();
        db.insert_rows("big", data.clone()).unwrap();
        let rs = db.execute(sql).unwrap();
        assert!(db.stats().spill_files > 0, "batch({parallelism}) expected to spill");
        (rs.into_rows(), db.query_reference(sql).unwrap().into_rows())
    };
    let (batch, reference) = run(1);
    assert_eq!(batch, reference);
    assert_eq!(run(WORKERS).0, reference);
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

#[test]
fn error_detection_is_batch_granular() {
    // Documented divergence (see exec/vector.rs module docs): the executor
    // evaluates expressions over whole batches, so an error in a row a
    // downstream LIMIT does not need still surfaces when that row shares a
    // batch with rows it does need.
    let mut db = Database::new();
    db.set_parallelism(1);
    db.execute("CREATE TABLE t (x INTEGER)").unwrap();
    let rows: Vec<Vec<Value>> =
        (0..100).map(|i| vec![Value::Int(if i < 10 { 1 } else { 0 })]).collect();
    db.insert_rows("t", rows).unwrap();
    let sql = "SELECT 10 / x AS q FROM t LIMIT 5";
    assert!(db.execute(sql).is_err(), "batch path errors at batch granularity");
    // The reference evaluates every row of every node, so it errors here too …
    assert!(db.query_reference(sql).is_err(), "the reference evaluates every row");

    // … and also where the failing row sits in a batch the LIMIT never pulls:
    // there the executor stops early and succeeds, the reference still errors.
    db.execute("CREATE TABLE u (x INTEGER)").unwrap();
    let rows: Vec<Vec<Value>> =
        (0..CHUNK_ROWS + 1).map(|i| vec![Value::Int(if i < CHUNK_ROWS { 1 } else { 0 })]).collect();
    db.insert_rows("u", rows).unwrap();
    let sql = "SELECT 10 / x AS q FROM u LIMIT 5";
    assert_eq!(db.execute(sql).unwrap().rows().len(), 5, "the second batch is never pulled");
    assert!(db.query_reference(sql).is_err(), "the reference evaluates every row");
}

// ---------------------------------------------------------------------------
// Morsel-parallel execution
// ---------------------------------------------------------------------------

/// Three-way randomized equivalence: reference vs single-threaded batch vs
/// morsel-parallel batch at 2–8 workers, over every parallelizable shape
/// (filter/project pipelines, equi-join probes, fast-lane and generic
/// aggregates, the full gate query). 5000 rows span five chunks, so the
/// parallel operators genuinely engage.
#[test]
fn three_way_equivalence_across_worker_counts() {
    let shapes = [
        "SELECT k, s * 2 AS s2 FROM facts WHERE (s & 7) = 3",
        "SELECT (s & ~7) | 5 AS masked, v * 2.0 AS dv FROM facts WHERE v IS NOT NULL",
        "SELECT (facts.s & ~7) | dims.out_s AS s2, facts.v * dims.w AS amp \
         FROM facts JOIN dims ON dims.k = (facts.k & 63)",
        "SELECT (s & ~7) AS g, SUM(v * 0.5) AS total FROM facts GROUP BY (s & ~7)",
        "SELECT k, COUNT(*) AS n, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean \
         FROM facts GROUP BY k",
        "SELECT SUM(v) AS t, COUNT(*) AS n FROM facts",
        "WITH T1 AS (SELECT ((facts.s & ~1) | dims.out_s) AS s, \
         SUM(facts.v * dims.w) AS r FROM facts \
         JOIN dims ON dims.k = (facts.s & 1) \
         GROUP BY ((facts.s & ~1) | dims.out_s)) \
         SELECT s, r FROM T1 ORDER BY s LIMIT 100",
        // Parallel sort (per-worker runs merged at the breaker), full + topk.
        "SELECT v, k, s FROM facts ORDER BY v DESC, k, s",
        "SELECT v, k, s FROM facts WHERE (s & 3) = 1 ORDER BY v, k, s LIMIT 64",
        // Parallel LEFT OUTER probe (pads are morsel-local).
        "SELECT facts.k, facts.s, dims.out_s FROM facts \
         LEFT JOIN dims ON dims.k = (facts.k & 63) AND dims.w > 5.0",
        // Parallel DISTINCT aggregation (per-worker sets merged by union).
        "SELECT k, COUNT(DISTINCT s) AS ns, SUM(DISTINCT v) AS sv FROM facts GROUP BY k",
    ];
    for seed in 0..2 {
        let mut batch1 = rand_db(seed, 5000, 1);
        for sql in shapes {
            let expect = sorted_rows(batch1.query_reference(sql).unwrap().rows());
            let got1 = sorted_rows(batch1.execute(sql).unwrap().rows());
            assert_eq!(expect, got1, "single-threaded batch diverged: {sql}");
            for workers in [2usize, 4, 8] {
                let mut par = rand_db(seed, 5000, workers);
                let got = sorted_rows(par.execute(sql).unwrap().rows());
                assert_eq!(expect, got, "{workers} workers diverged: {sql}");
            }
        }
    }
}

/// Order-sensitive consumers must observe the sequential batch order even
/// under parallel execution (morsel-order gathering): an unordered LIMIT
/// over a filtered scan returns exactly the same rows.
#[test]
fn parallel_pipeline_preserves_sequential_order() {
    for workers in [2usize, 4, 8] {
        let mut seq = rand_db(11, 5000, 1);
        let mut par = rand_db(11, 5000, workers);
        let sql = "SELECT k, s, v FROM facts WHERE (s & 3) != 0 LIMIT 937";
        let a = seq.execute(sql).unwrap();
        let b = par.execute(sql).unwrap();
        assert_eq!(a.rows(), b.rows(), "{workers} workers broke morsel order");
    }
}

/// The spill paths must agree at every worker count: per-worker partition
/// files merge with the coordinator's by partition index.
#[test]
fn parallel_spill_equivalence_under_tight_budget() {
    let mut rng = StdRng::seed_from_u64(7);
    let data: Vec<Vec<Value>> = (0..60_000)
        .map(|_| {
            vec![Value::Int(rng.gen_range(0i64..20_000)), Value::Float(0.25)]
        })
        .collect();
    let run = |parallelism: usize| {
        let mut db = Database::with_memory_limit(2 * 1024 * 1024);
        db.set_parallelism(parallelism);
        db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)").unwrap();
        db.insert_rows("big", data.clone()).unwrap();
        let rs = db
            .execute("SELECT k, SUM(v) AS t FROM big GROUP BY k ORDER BY k")
            .unwrap();
        assert!(db.stats().spill_files > 0, "{parallelism} workers expected to spill");
        rs.into_rows()
    };
    let baseline = run(1);
    assert!(baseline.len() > 15_000, "expected most groups to appear");
    for workers in [2usize, 4, 8] {
        assert_eq!(baseline, run(workers), "{workers} workers");
    }
}

/// Budget parity: after a query completes, the ledger must return to the
/// base-table charge at every worker count (all per-worker reservations are
/// RAII-released), and the limit is honored throughout.
#[test]
fn parallel_budget_parity() {
    let used_after = |parallelism: usize| {
        let mut db = Database::with_memory_limit(4 * 1024 * 1024);
        db.set_parallelism(parallelism);
        db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)").unwrap();
        let rows: Vec<Vec<Value>> = (0..30_000)
            .map(|i| vec![Value::Int(i % 5_000), Value::Float(0.5)])
            .collect();
        db.insert_rows("big", rows).unwrap();
        let rs = db
            .execute("SELECT k, SUM(v) AS t FROM big GROUP BY k ORDER BY k LIMIT 5")
            .unwrap();
        assert_eq!(rs.rows().len(), 5);
        assert!(db.budget().used() > 0, "base table stays charged");
        db.budget().used()
    };
    let base = used_after(1);
    for workers in [2usize, 4, 8] {
        assert_eq!(base, used_after(workers), "{workers} workers leaked or lost budget");
    }
}

/// `EXPLAIN ANALYZE` exposes the parallel plan: `workers=`/`morsels=` on
/// the aggregate, and the absorbed scan still reports its rows/batches.
#[test]
fn explain_analyze_reports_workers_and_morsels() {
    let mut db = Database::new();
    db.set_parallelism(4);
    db.execute("CREATE TABLE t (a INTEGER, b DOUBLE)").unwrap();
    let rows: Vec<Vec<Value>> = (0..5000)
        .map(|i| vec![Value::Int(i), Value::Float(1.0)])
        .collect();
    db.insert_rows("t", rows).unwrap();
    let text = db
        .explain_analyze("SELECT a & 3 AS g, SUM(b) AS t FROM t GROUP BY a & 3")
        .unwrap();
    assert!(text.contains("workers=4"), "aggregate should report workers:\n{text}");
    assert!(text.contains("morsels=5"), "5 chunks = 5 morsels:\n{text}");
    assert!(text.contains("rows=5000"), "absorbed scan still reports rows:\n{text}");

    // Sequential execution must not report parallel counters.
    db.set_parallelism(1);
    let text = db
        .explain_analyze("SELECT a & 3 AS g, SUM(b) AS t FROM t GROUP BY a & 3")
        .unwrap();
    assert!(!text.contains("workers="), "sequential plan reports no workers:\n{text}");
}

/// Repeated runs at a fixed worker count must be bit-for-bit reproducible
/// even for non-dyadic float sums (where accumulation order shows in the
/// last ulp) — this holds because aggregate workers take morsels by static
/// striding, not dynamic claiming.
#[test]
fn parallel_float_sums_reproducible_at_fixed_worker_count() {
    let run = || {
        let mut db = Database::new();
        db.set_parallelism(4);
        db.execute("CREATE TABLE t (k INTEGER, v DOUBLE)").unwrap();
        let rows: Vec<Vec<Value>> = (0..30_000)
            .map(|i| vec![Value::Int(i % 7), Value::Float(0.1 + (i as f64) * 1e-7)])
            .collect();
        db.insert_rows("t", rows).unwrap();
        db.execute("SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k")
            .unwrap()
            .into_rows()
    };
    let first = run();
    assert_eq!(first.len(), 7);
    for _ in 0..3 {
        assert_eq!(first, run(), "same worker count must reproduce bit-for-bit");
    }
}

/// `SUM(DISTINCT)` over non-representable floats must be bit-identical
/// across runs, the reference and the executor, and worker counts: the distinct set folds
/// in total order, never in (per-instance-seeded) hash order.
#[test]
fn sum_distinct_floats_deterministic() {
    // `None` runs the reference, `Some(n)` the executor with `n` workers.
    let run = |parallelism: Option<usize>| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INTEGER, v DOUBLE)").unwrap();
        // 0.1 + 0.2 + … is order-sensitive in the last ulp.
        let rows: Vec<Vec<Value>> = (0..5000)
            .map(|i| vec![Value::Int(i % 3), Value::Float(((i % 40) as f64) / 10.0)])
            .collect();
        db.insert_rows("t", rows).unwrap();
        let sql = "SELECT k, SUM(DISTINCT v) AS sv, AVG(DISTINCT v) AS av FROM t GROUP BY k ORDER BY k";
        match parallelism {
            None => db.query_reference(sql),
            Some(n) => {
                db.set_parallelism(n);
                db.execute(sql)
            }
        }
        .unwrap()
        .into_rows()
    };
    let baseline = run(None);
    for _ in 0..3 {
        assert_eq!(baseline, run(None), "reference run-to-run");
        assert_eq!(baseline, run(Some(1)), "batch path");
        assert_eq!(baseline, run(Some(4)), "parallel batch path");
    }
}

/// Order-sensitive parallel sort: the merged per-worker runs must reproduce
/// the sequential sort byte-for-byte (ordinal tie-break), at every worker
/// count, including under forced spilling.
#[test]
fn parallel_sort_is_byte_identical_to_sequential() {
    let sql = "SELECT v, k, s FROM facts ORDER BY v DESC, k, s";
    let mut seq = rand_db(17, 5000, 1);
    let expect = seq.execute(sql).unwrap();
    for workers in [2usize, 4, 8] {
        let mut par = rand_db(17, 5000, workers);
        let got = par.execute(sql).unwrap();
        assert_eq!(expect.rows(), got.rows(), "{workers} workers broke sort order");
    }
}

/// Every plan shape reports a physical batch operator (with `batches=`
/// counters) in `EXPLAIN ANALYZE`.
#[test]
fn explain_analyze_shows_batch_operators_for_all_shapes() {
    let mut db = rand_db(23, 5000, 1);
    let sort = db.execute("EXPLAIN SELECT v FROM facts ORDER BY v").unwrap();
    assert!(!sort.rows().is_empty());

    let text = db.explain_analyze("SELECT v, k FROM facts ORDER BY v, k").unwrap();
    assert!(text.contains("BatchSort [2 keys]"), "{text}");
    assert!(text.contains("batches="), "{text}");

    let text = db
        .explain_analyze("SELECT v, k FROM facts ORDER BY v, k LIMIT 5")
        .unwrap();
    assert!(text.contains("TopKSort [2 keys, k=5]"), "{text}");

    let text = db
        .explain_analyze("SELECT facts.k FROM facts LEFT JOIN dims ON dims.k = facts.k")
        .unwrap();
    assert!(text.contains("HashJoin Left"), "{text}");

    let text = db
        .explain_analyze("SELECT facts.k FROM facts CROSS JOIN dims LIMIT 10")
        .unwrap();
    assert!(text.contains("NestedLoopJoin Cross"), "{text}");

    let text = db
        .explain_analyze("SELECT facts.k FROM facts JOIN dims ON facts.k < dims.k")
        .unwrap();
    assert!(text.contains("NestedLoopJoin Inner"), "{text}");

    let text = db
        .explain_analyze("SELECT k, COUNT(DISTINCT s) FROM facts GROUP BY k")
        .unwrap();
    assert!(text.contains("HashAggregate"), "{text}");
}

/// The knob defaults to one worker (unless `QYMERA_PARALLELISM` says
/// otherwise), clamps to at least one and reads back.
#[test]
fn parallelism_knob_clamps() {
    let mut db = Database::new();
    let pinned = std::env::var("QYMERA_PARALLELISM").ok().and_then(|v| v.parse().ok());
    assert_eq!(db.parallelism(), pinned.unwrap_or(1).max(1));
    db.set_parallelism(0);
    assert_eq!(db.parallelism(), 1);
    db.set_parallelism(6);
    assert_eq!(db.parallelism(), 6);
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
fn gate_db(keys: &[i64], rng: &mut StdRng, limit: Option<usize>, workers: usize) -> Database {
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
    db.set_parallelism(workers);
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
                for workers in [1, 2] {
                    let mut rng = StdRng::seed_from_u64(1000 * case as u64 + seed);
                    let keys = state_keys(shape, 6000, &mut rng);
                    let mut db = gate_db(&keys, &mut rng, limit, workers);
                    let what = format!("{shape}, seed {seed}, limit {limit:?}, {workers} workers");
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
        for workers in [1, WORKERS] {
            let mut db = limit.map_or_else(Database::new, Database::with_memory_limit);
            db.set_parallelism(workers);
            db.execute("CREATE TABLE z (k INTEGER, v DOUBLE)").unwrap();
            let rows = (0..6000).map(|i| vec![Value::Int(i % 3000), Value::Float(-0.0)]);
            db.insert_rows("z", rows.collect()).unwrap();
            let got = db.execute(sql).unwrap();
            assert_eq!(db.stats().spill_files > 0, limit.is_some(), "{sql}, {workers} workers");
            assert_eq!(got.rows().len(), 3000);
            for row in got.rows() {
                assert!(
                    matches!(row[1], Value::Float(t) if t.to_bits() == 0),
                    "{sql}, limit {limit:?}, {workers} workers: {row:?}"
                );
            }
            let want = db.query_reference(sql).unwrap();
            assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "{sql}");
        }
    }
}

/// One operator, both spill formats. The fast table flushes blocks while the
/// `INTEGER` lanes last; the first batch with a `HUGEINT` key (or a NULL
/// addend) demotes it, and what the generic table flushes afterwards is
/// partial rows — into the same partitions, which only works because both
/// writers agree on a key's partition. Under parallel consume the two
/// formats also meet across workers.
#[test]
fn mixed_format_spill_agrees_with_the_reference() {
    let ints = |n: i64| -> Vec<Vec<Value>> {
        (0..n).map(|i| vec![Value::Int((i * 7919) % 9000), Value::Float((i % 64) as f64 / 8.0)]).collect()
    };
    let union = "SELECT k, SUM(v) AS t, SUM(v * 2) AS u \
                 FROM (SELECT k, v FROM a UNION ALL SELECT k, v FROM b) AS ab GROUP BY k";
    let nulls = "SELECT k, SUM(v) AS t, SUM(v * 2) AS u FROM m GROUP BY k";
    for workers in [1, WORKERS] {
        let mut db = Database::with_memory_limit(2 * 1024 * 1024);
        db.set_parallelism(workers);
        // `a`: 27 000 rows over 9 000 integer keys. `b`: the same keys as
        // HUGEINT, and 500 past 64 bits.
        db.execute("CREATE TABLE a (k INTEGER, v DOUBLE)").unwrap();
        db.insert_rows("a", ints(27_000)).unwrap();
        db.execute("CREATE TABLE b (k HUGEINT, v DOUBLE)").unwrap();
        let mut wide = ints(6000);
        wide.extend((0..500u64).map(|i| {
            vec![Value::Big(BigBits::from_u64(i, 100).shl(70)), Value::Float(0.5)]
        }));
        db.insert_rows("b", wide).unwrap();
        // `m`: integer keys throughout, a NULL addend in the later chunks.
        db.execute("CREATE TABLE m (k INTEGER, v DOUBLE)").unwrap();
        let mut holes = ints(30_000);
        for row in holes.iter_mut().skip(20_000).step_by(700) {
            row[1] = Value::Null;
        }
        db.insert_rows("m", holes).unwrap();
        for sql in [union, nulls] {
            let before = db.stats().spill_files;
            let got = db.execute(sql).unwrap_or_else(|e| panic!("{workers} workers: {e}\n{sql}"));
            assert!(db.stats().spill_files > before, "{workers} workers: no spill\n{sql}");
            assert_eq!(db.live_spill_files(), 0);
            let want = db.query_reference(sql).unwrap();
            assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "{workers} workers: {sql}");
        }
    }
}

#[test]
fn joins_agree_with_the_reference_on_both_sides_of_the_direct_index() {
    // `probe.k` runs over -2..70 with NULLs; each build below either
    // qualifies for the direct index (every key an integer in 0..64) or
    // falls back to the hash table for the reason named.
    let mut rng = StdRng::seed_from_u64(17);
    let probe: Vec<Vec<Value>> = (0..3000)
        .map(|i| {
            let k = match rng.gen_range(0i64..75) {
                k if k >= 72 => Value::Null,
                k => Value::Int(k - 2),
            };
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
        ("direct: NULL build keys are dropped", "INTEGER", {
            let mut b = ints(&[1, 2, 5]);
            b.push(vec![Value::Null, Value::Float(9.0)]);
            b
        }),
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
        "SELECT probe.k, probe.n, b.w FROM probe LEFT JOIN b ON b.k = probe.k",
        "SELECT probe.n, b.w FROM probe LEFT JOIN b ON b.k = (probe.k & 63) AND b.w > 0.5",
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
            for workers in [1, 2] {
                db.set_parallelism(workers);
                let got = db.execute(sql).unwrap_or_else(|e| panic!("{what}: {e}\n{sql}"));
                assert_eq!(
                    sorted_rows(got.rows()),
                    sorted_rows(want.rows()),
                    "{what}, {workers} workers: {sql}"
                );
            }
        }
    }
    // A non-numeric key: TEXT never takes the direct index.
    let mut db = Database::new();
    db.execute("CREATE TABLE probe (k INTEGER, n INTEGER, name TEXT)").unwrap();
    db.insert_rows("probe", probe).unwrap();
    db.execute_script(
        "CREATE TABLE names (name TEXT, w DOUBLE); \
         INSERT INTO names VALUES ('n1', 1.0), ('n3', 3.0), ('n3', 3.5), ('zz', 0.0);",
    )
    .unwrap();
    let sql = "SELECT probe.n, names.w FROM probe LEFT JOIN names ON names.name = probe.name";
    let want = db.query_reference(sql).unwrap();
    for workers in [1, 2] {
        db.set_parallelism(workers);
        assert_eq!(sorted_rows(db.execute(sql).unwrap().rows()), sorted_rows(want.rows()));
    }
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
    db.execute("CREATE TABLE g (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
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

/// One gate query over one state and gate table, and whether the optimizer
/// must prove it to see one row per group.
struct GateCase {
    what: &'static str,
    proven: bool,
    key_type: &'static str,
    keys: Vec<Value>,
    gate: &'static [(i64, i64)],
    sql: String,
}

/// The optimizer streams an aggregate only where it proves one row per
/// group, and the reference — which ignores the proof and groups — agrees
/// with the executor either way. Three chunks of state, so two workers run
/// the streamed aggregate as a stage of a morsel pipeline.
#[test]
fn proven_and_refused_gate_queries_agree_with_the_reference() {
    const PERMUTATION: &[(i64, i64)] = &[(0, 0), (1, 3), (2, 2), (3, 1)];
    let ints = |keys: std::ops::Range<i64>| keys.map(Value::Int).collect::<Vec<_>>();
    let with = |extra: Value| ints(0..2999).into_iter().chain([extra]).collect::<Vec<_>>();
    let case = |what, proven, keys, gate, sql: &str| GateCase {
        what,
        proven,
        key_type: "INTEGER",
        keys,
        gate,
        sql: sql.to_string(),
    };
    let contiguous = gate_sql("((state.s & ~6) | (g.out_s << 1))", "((state.s >> 1) & 3)", "");
    // Qubits [2, 0]: the per-bit form non-adjacent qubits get.
    let per_bit = gate_sql(
        "((state.s & ~5) | (((g.out_s & 1) << 2) | ((g.out_s >> 1) & 1)))",
        "(((state.s >> 2) & 1) | ((state.s & 1) << 1))",
        "",
    );
    let one_qubit = gate_sql("((state.s & ~1) | g.out_s)", "(state.s & 1)", "");
    let having = gate_sql(
        "((state.s & ~6) | (g.out_s << 1))",
        "((state.s >> 1) & 3)",
        " HAVING SUM((state.r * g.r) - (state.i * g.i)) > 0.5",
    );
    let cases = vec![
        case("contiguous mask form", true, ints(0..3000), PERMUTATION, &contiguous),
        case("per-bit mask form", true, ints(0..3000), PERMUTATION, &per_bit),
        case("diagonal gate", true, ints(-1500..1500), &[(0, 0), (1, 1)], &one_qubit),
        // A unique `out_s` names the gate row; `in_s` may repeat.
        case("in_s repeats, out_s does not", true, ints(0..3000), &[(0, 0), (0, 1)], &one_qubit),
        // `prune_threshold`'s filter sits above the aggregate and changes nothing below.
        case("HAVING above the aggregate", true, ints(0..3000), PERMUTATION, &having),
        case("H: both columns repeat", false, ints(0..3000), &[(0, 0), (0, 1), (1, 0), (1, 1)], &one_qubit),
        case("two in_s, one out_s", false, ints(0..3000), &[(0, 1), (1, 1)], &one_qubit),
        case("an out_s bit outside the field", false, ints(0..3000), &[(0, 1), (1, 2)], &one_qubit),
        case(
            "the key clears bits the join does not read",
            false,
            ints(0..3000),
            &[(0, 0), (1, 1)],
            &gate_sql("((state.s & ~7) | g.out_s)", "(state.s & 1)", ""),
        ),
        case(
            "the key keeps a bit out_s lands on",
            false,
            ints(0..3000),
            &[(0, 0), (1, 1)],
            &gate_sql("((state.s & ~6) | g.out_s)", "(state.s & 1)", ""),
        ),
        case("a duplicate s", false, with(Value::Int(7)), PERMUTATION, &contiguous),
        case("a NULL s", false, with(Value::Null), PERMUTATION, &contiguous),
        GateCase {
            what: "a HUGEINT register",
            proven: false,
            key_type: "HUGEINT",
            keys: (0..3000).map(|v| Value::Big(BigBits::from_u64(v, 100).shl(40))).collect(),
            gate: &[(0, 1), (1, 0)],
            sql: gate_sql(
                "((state.s ^ (g.in_s << 70)) ^ (g.out_s << 70))",
                "((state.s >> 70) & 0x1)",
                "",
            ),
        },
    ];
    for GateCase { what, proven, key_type, keys, gate, sql } in cases {
        let mut db = keyed_gate_db(key_type, keys, gate);
        let plan = db.explain(&sql).unwrap();
        assert_eq!(plan.contains("(one row per group: streamed)"), proven, "{what}:\n{plan}");
        let want = db.query_reference(&sql).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(!want.rows().is_empty(), "{what}: an empty result compares nothing");
        for workers in [1, 2] {
            db.set_parallelism(workers);
            let got = db.execute(&sql).unwrap_or_else(|e| panic!("{what}, {workers} workers: {e}"));
            assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()), "{what}, {workers} workers");
        }
    }
}

/// A streamed aggregate has no table to charge or spill: under a limit that
/// makes the same query spill when the state's key is not known (6 000 rows
/// are past what a scan checks), the proven one leaves the ledger where the
/// tables put it — and `-0.0` still sums to `+0.0`.
#[test]
fn a_streamed_aggregate_charges_and_spills_nothing() {
    const TIGHT: usize = 512 * 1024;
    let sql = gate_sql("((state.s & ~1) | g.out_s)", "(state.s & 1)", "");
    for (rows, streamed) in [(4000, true), (6000, false)] {
        let mut db = Database::with_memory_limit(TIGHT);
        db.set_parallelism(1);
        db.execute("CREATE TABLE state (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        let state = (0..rows).map(|s| vec![Value::Int(s), Value::Float(-0.0), Value::Float(0.25)]);
        db.insert_rows("state", state.collect()).unwrap();
        db.execute("CREATE TABLE g (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        db.execute("INSERT INTO g VALUES (0, 1, 1.0, 0.0), (1, 0, 1.0, 0.0)").unwrap();
        let tables = db.budget().used();
        let profile = db.explain_analyze(&sql).unwrap();
        assert_eq!(profile.contains("(one row per group: streamed)"), streamed, "{profile}");
        assert_eq!(db.stats().spill_files == 0, streamed, "{rows} rows");
        let got = db.execute(&sql).unwrap();
        assert_eq!(db.budget().used(), tables);
        if streamed {
            // One batch of join output at a time, nothing per group.
            assert!(db.budget().peak() < tables + 100 * 1024, "peak {}", db.budget().peak());
        }
        assert!(got.rows().iter().all(|r| matches!(r[1], Value::Float(x) if x.to_bits() == 0)));
        let want = db.query_reference(&sql).unwrap();
        assert_eq!(sorted_rows(got.rows()), sorted_rows(want.rows()));
    }
}

/// `ORDER BY` one `INTEGER` key takes the radix path; two keys, a `DOUBLE`
/// key and the morsel-parallel workers take the comparator. On every key
/// distribution — duplicates, negatives, `i64::MIN`/`MAX`, keys sharing
/// their high bytes (the skipped digits), digits whose only varying bit is
/// their top one, a single row — both directions,
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
            db.set_parallelism(1);
            db.execute("CREATE TABLE t (k INTEGER, v DOUBLE, p INTEGER)").unwrap();
            db.insert_rows("t", data.clone()).unwrap();
            for dir in ["", " DESC"] {
                let radix = format!("SELECT k, p FROM t ORDER BY k{dir}");
                let want = db.query_reference(&radix).unwrap();
                let files = db.stats().spill_files;
                let got = db.execute(&radix).unwrap();
                let case = format!("{name}, limit {limit:?}: {radix}");
                assert_eq!(exact(got.rows()), exact(want.rows()), "{case}");
                if limit.is_some() && *n > 3 * 1024 {
                    assert!(db.stats().spill_files - files >= 2, "{case}: expected ≥ 2 runs");
                }
                let profile = db.explain_analyze(&radix).unwrap();
                assert!(profile.contains("BatchSort [1 keys, radix]"), "{case}\n{profile}");
                // The comparator on the same order: the ordinal as a second
                // key, and the parallel workers' runs.
                let two_keys = format!("SELECT k, p FROM t ORDER BY k{dir}, p");
                assert_eq!(exact(db.execute(&two_keys).unwrap().rows()), exact(want.rows()), "{case}");
                let profile = db.explain_analyze(&two_keys).unwrap();
                assert!(profile.contains("BatchSort [2 keys] "), "{case}\n{profile}");
                db.set_parallelism(WORKERS);
                assert_eq!(exact(db.execute(&radix).unwrap().rows()), exact(want.rows()), "{case}");
                db.set_parallelism(1);
                // A DOUBLE key stays on the comparator.
                let float = format!("SELECT v, p FROM t ORDER BY v{dir}");
                let want = db.query_reference(&float).unwrap();
                assert_eq!(exact(db.execute(&float).unwrap().rows()), exact(want.rows()), "{case}");
                let profile = db.explain_analyze(&float).unwrap();
                assert!(profile.contains("BatchSort [1 keys] "), "{case}\n{profile}");
            }
        }
    }
}
