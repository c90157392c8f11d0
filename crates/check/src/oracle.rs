//! The multi-oracle executor: one generated case, several independent
//! execution strategies, byte-level agreement required.
//!
//! Comparison rules (designed so every mismatch is a real engine bug, not
//! a tie-breaking artifact):
//!
//! * The full result multiset must agree across oracles (rows
//!   canonicalized and sorted — group output order is not part of the
//!   contract between the reference and the executor).
//! * With `ORDER BY`, the *sequence* of the order-key column must agree
//!   exactly: sorting fixes the key sequence regardless of how ties among
//!   full rows are broken.
//! * Row counts always agree.
//! * Any oracle returning an error is a discrepancy outright — the
//!   generator only emits queries that cannot legitimately fail.

use qymera_sqldb::{Database, DurabilityOptions, ResultSet, Value};

use crate::generator::SqlCase;

/// One execution strategy a case is run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlOracle {
    /// The row-at-a-time reference interpreter
    /// ([`Database::query_reference`]): no executor code runs.
    Row,
    /// Vectorized batch executor.
    Batch,
    /// Durable database with a mid-run kill and two reopens (WAL
    /// recovery in the loop).
    DurableReopen,
}

impl std::fmt::Display for SqlOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlOracle::Row => write!(f, "row"),
            SqlOracle::Batch => write!(f, "batch"),
            SqlOracle::DurableReopen => write!(f, "durable-reopen"),
        }
    }
}

/// The oracles every SQL case runs under.
pub const ALL_SQL_ORACLES: [SqlOracle; 3] =
    [SqlOracle::Row, SqlOracle::Batch, SqlOracle::DurableReopen];

/// A disagreement between oracles (or an oracle erroring out). The
/// `detail` is human-readable; the seed pins the case.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Seed of the failing case.
    pub seed: u64,
    /// Oracle (or comparison) that failed.
    pub oracle: String,
    /// What differed.
    pub detail: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {}: [{}] {}", self.seed, self.oracle, self.detail)
    }
}

/// Canonical form of one value: `Debug`, with `-0.0` normalized to `0.0`
/// so IEEE signed zeros (reachable via `SUM` over values that cancel)
/// never masquerade as a discrepancy.
fn canon_value(v: &Value) -> String {
    match v {
        Value::Float(f) if *f == 0.0 => "Float(0.0)".to_string(),
        other => format!("{other:?}"),
    }
}

/// Canonical form of one row.
pub fn canon_row(row: &[Value]) -> String {
    let cells: Vec<String> = row.iter().map(canon_value).collect();
    cells.join("|")
}

/// Canonical multiset: every row canonicalized, then sorted.
pub fn canon_multiset(rows: &[Vec<Value>]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| canon_row(r)).collect();
    out.sort_unstable();
    out
}

/// Scratch directory for one durable-oracle run (unique per process and
/// per call; removed after a clean run, left behind on failure).
fn scratch_dir(tag: u64) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "qymera-check-{}-{tag:x}-{n}",
        std::process::id()
    ))
}

/// Run `case` under one oracle, returning the query's result set.
pub fn run_oracle(case: &SqlCase, oracle: SqlOracle) -> qymera_sqldb::Result<ResultSet> {
    let setup = case.setup_statements();
    let query = case.query_sql();
    match oracle {
        SqlOracle::Row => {
            let mut db = Database::new();
            for st in &setup {
                db.execute(st)?;
            }
            db.query_reference(&query)
        }
        SqlOracle::Batch => {
            let mut db = Database::new();
            for st in &setup {
                db.execute(st)?;
            }
            db.execute(&query)
        }
        SqlOracle::DurableReopen => {
            let dir = scratch_dir(case.seed);
            let _ = std::fs::remove_dir_all(&dir);
            let opts = || DurabilityOptions {
                // Tiny threshold so the workload crosses checkpoint
                // boundaries and recovery replays a real WAL tail.
                checkpoint_every_bytes: 4096,
                ..DurabilityOptions::default()
            };
            let result = (|| {
                let mid = setup.len() / 2;
                let mut db = Database::open_with(&dir, opts())?;
                for st in &setup[..mid] {
                    db.execute(st)?;
                }
                // Mid-run kill: drop without checkpointing, then recover.
                drop(db);
                let mut db = Database::open_with(&dir, opts())?;
                for st in &setup[mid..] {
                    db.execute(st)?;
                }
                drop(db);
                let mut db = Database::open_with(&dir, opts())?;
                db.execute(&query)
            })();
            if result.is_ok() {
                let _ = std::fs::remove_dir_all(&dir);
            }
            result
        }
    }
}

/// Index of the `ORDER BY` column within the output projection.
fn order_key_index(case: &SqlCase) -> Option<usize> {
    let name = case.query.order_by.as_ref()?;
    case.output_columns().iter().position(|c| c == name)
}

/// The order-key column of `rows`, canonicalized but *kept in output
/// order* — the sequence sorting fixes.
fn key_sequence(rows: &[Vec<Value>], key: usize) -> Vec<String> {
    rows.iter().map(|r| canon_value(&r[key])).collect()
}

/// Run `case` under every oracle in [`ALL_SQL_ORACLES`] and cross-check.
/// Returns `None` when all oracles agree, `Some` describing the first
/// disagreement otherwise.
pub fn run_sql_case_all_oracles(case: &SqlCase) -> Option<Discrepancy> {
    run_sql_case(case, &ALL_SQL_ORACLES)
}

/// Run `case` under the given oracles, comparing everything against the
/// first. A subset is what the shrinker uses: re-running only the two
/// oracles that disagreed keeps minimization fast.
pub fn run_sql_case(case: &SqlCase, oracles: &[SqlOracle]) -> Option<Discrepancy> {
    let mut results: Vec<(SqlOracle, ResultSet)> = Vec::with_capacity(oracles.len());
    for &oracle in oracles {
        match run_oracle(case, oracle) {
            Ok(rs) => results.push((oracle, rs)),
            Err(e) => {
                return Some(Discrepancy {
                    seed: case.seed,
                    oracle: oracle.to_string(),
                    detail: format!("query errored: {e}"),
                })
            }
        }
    }
    let (ref_oracle, reference) = &results[0];
    let ref_rows = reference.rows();
    let ref_multiset = canon_multiset(ref_rows);
    let key = order_key_index(case);
    let ref_keys = key.map(|k| key_sequence(ref_rows, k));
    for (oracle, rs) in &results[1..] {
        let rows = rs.rows();
        if rows.len() != ref_rows.len() {
            return Some(Discrepancy {
                seed: case.seed,
                oracle: format!("{ref_oracle} vs {oracle}"),
                detail: format!("row counts differ: {} vs {}", ref_rows.len(), rows.len()),
            });
        }
        if canon_multiset(rows) != ref_multiset {
            return Some(Discrepancy {
                seed: case.seed,
                oracle: format!("{ref_oracle} vs {oracle}"),
                detail: first_diff(&ref_multiset, &canon_multiset(rows)),
            });
        }
        if key.map(|k| key_sequence(rows, k)) != ref_keys {
            return Some(Discrepancy {
                seed: case.seed,
                oracle: format!("{ref_oracle} vs {oracle}"),
                detail: "ORDER BY key sequences differ".to_string(),
            });
        }
    }
    None
}

/// Describe the first differing element between two sorted multisets.
fn first_diff(a: &[String], b: &[String]) -> String {
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).map(String::as_str).unwrap_or("<missing>");
        let y = b.get(i).map(String::as_str).unwrap_or("<missing>");
        if x != y {
            return format!("multisets differ at sorted index {i}: `{x}` vs `{y}`");
        }
    }
    "multisets differ".to_string()
}

/// Slack for the batch-granular budget check: the aggregate table may
/// transiently overshoot its limit by at most one 1024-row batch of new
/// groups (see `exec/vector.rs` module docs). At a generous 512 bytes of
/// key + accumulator state per group, that is 512 KiB.
pub const OVERSHOOT_SLACK_BYTES: usize = 512 * 1024;

/// Run `case` on the batch path under a tight memory limit and assert the
/// documented budget invariant: peak usage never exceeds the limit by more
/// than [`OVERSHOOT_SLACK_BYTES`]. Out-of-core spilling may kick in, and
/// the query is even allowed to fail with `OutOfMemory` — the invariant
/// is about *accounting*, not success.
pub fn run_sql_case_memory_limited(case: &SqlCase, limit_bytes: usize) -> Option<Discrepancy> {
    let mut db = Database::with_memory_limit(limit_bytes);
    let mut run = || -> qymera_sqldb::Result<ResultSet> {
        for st in case.setup_statements() {
            db.execute(&st)?;
        }
        db.execute(&case.query_sql())
    };
    match run() {
        Ok(_) | Err(qymera_sqldb::Error::OutOfMemory { .. }) => {}
        Err(e) => {
            return Some(Discrepancy {
                seed: case.seed,
                oracle: format!("batch@limit={limit_bytes}"),
                detail: format!("unexpected error under memory limit: {e}"),
            })
        }
    }
    let overshoot = db.budget().peak_overshoot();
    if overshoot > OVERSHOOT_SLACK_BYTES {
        return Some(Discrepancy {
            seed: case.seed,
            oracle: format!("batch@limit={limit_bytes}"),
            detail: format!(
                "budget overshoot {overshoot} B exceeds the one-batch bound \
                 ({OVERSHOOT_SLACK_BYTES} B)"
            ),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SqlCase;

    #[test]
    fn oracles_agree_on_a_small_sample() {
        for seed in 0..12 {
            let case = SqlCase::generate(seed);
            if let Some(d) = run_sql_case_all_oracles(&case) {
                panic!("unexpected discrepancy: {d}\nquery: {}", case.query_sql());
            }
        }
    }

    #[test]
    fn negative_zero_is_canonically_zero() {
        assert_eq!(
            canon_value(&Value::Float(-0.0)),
            canon_value(&Value::Float(0.0))
        );
        assert_ne!(
            canon_value(&Value::Float(-1.5)),
            canon_value(&Value::Float(1.5))
        );
    }
}
