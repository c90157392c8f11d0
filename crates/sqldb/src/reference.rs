//! Reference interpreter: what a query means, in the fewest lines that say it.
//!
//! `run` is one recursive function over the optimized [`Plan`]. Every node
//! is materialised as a `Vec` of rows before its parent looks at it, every
//! expression is evaluated one row at a time with [`BoundExpr::eval`], a join
//! is a nested loop over all pairs, an aggregate is one map filled in input
//! order, a sort is a stable `sort_by`. There is no budget, spill, batch,
//! cancellation, instrumentation or thread here, on purpose: this is the
//! oracle the executor in [`crate::exec::vector`] is compared against, and it
//! shares with it only what defines the language — the plan, scalar
//! evaluation, value ordering and grouping keys, and the accumulator
//! arithmetic of `Acc`.
//!
//! It is reached only through [`crate::Database::query_reference`] and is
//! for tests and `crates/check`; nothing on a production path may call it (it
//! holds every intermediate result in memory at once).

use std::collections::HashMap;

use crate::catalog::Catalog;
use crate::error::Result;
use crate::exec::aggregate::Acc;
use crate::expr::BoundExpr;
use crate::plan::logical::Plan;
use crate::value::{GroupKey, Value};

type Row = Vec<Value>;

/// Every row `plan` produces over the tables in `catalog`, in the order the
/// plan fixes (input order where it fixes none).
pub(crate) fn run(plan: &Plan, catalog: &Catalog) -> Result<Vec<Row>> {
    Ok(match plan {
        Plan::Scan { table, .. } => catalog.get(table)?.snapshot().to_rows(),
        Plan::Alias { input, .. } => run(input, catalog)?,
        Plan::Filter { input, predicate } => {
            let mut out = Vec::new();
            for row in run(input, catalog)? {
                if is_true(predicate, &row)? {
                    out.push(row);
                }
            }
            out
        }
        Plan::Project { input, exprs, .. } => run(input, catalog)?
            .iter()
            .map(|row| eval_all(exprs, row))
            .collect::<Result<_>>()?,
        Plan::Join { left, right, on, .. } => {
            let (left_rows, right_rows) = (run(left, catalog)?, run(right, catalog)?);
            let mut out = Vec::new();
            for l in &left_rows {
                for r in &right_rows {
                    let pair: Row = l.iter().chain(r).cloned().collect();
                    if is_true(on, &pair)? {
                        out.push(pair);
                    }
                }
            }
            out
        }
        Plan::Aggregate { input, group_by, aggs, .. } => {
            let rows = run(input, catalog)?;
            // Groups in first-seen order: (key values of the first row, accumulators).
            let mut groups: Vec<(Row, Vec<Acc>)> = Vec::new();
            let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
            for row in &rows {
                let key_values = eval_all(group_by, row)?;
                let key: Vec<GroupKey> = key_values.iter().map(Value::group_key).collect();
                let g = *index.entry(key).or_insert_with(|| {
                    groups.push((key_values, aggs.iter().map(Acc::new).collect()));
                    groups.len() - 1
                });
                for (acc, agg) in groups[g].1.iter_mut().zip(aggs) {
                    acc.update(agg.arg.as_ref().map(|e| e.eval(row)).transpose()?)?;
                }
            }
            // A global aggregate has exactly one group, even over no rows.
            if rows.is_empty() && group_by.is_empty() {
                groups.push((Row::new(), aggs.iter().map(Acc::new).collect()));
            }
            let mut out = Vec::with_capacity(groups.len());
            for (mut row, accs) in groups {
                row.extend(accs.into_iter().map(Acc::finalize));
                out.push(row);
            }
            out
        }
        Plan::Sort { input, key } => {
            let mut keyed = Vec::new();
            for row in run(input, catalog)? {
                keyed.push((key.eval(&row)?, row));
            }
            // Numbers before text; ties keep input order.
            keyed.sort_by(|(a, _), (b, _)| a.cmp_total(b));
            keyed.into_iter().map(|(_, row)| row).collect()
        }
    })
}

fn eval_all(exprs: &[BoundExpr], row: &Row) -> Result<Row> {
    exprs.iter().map(|e| e.eval(row)).collect()
}

/// Whether `predicate` holds (is not zero) on `row`.
fn is_true(predicate: &BoundExpr, row: &Row) -> Result<bool> {
    predicate.eval(row)?.as_bool()
}

#[cfg(test)]
mod tests {
    use crate::{Database, Value};

    /// `l(a, b)`, `r(c, d)` and an empty `e(x)`.
    fn db() -> Database {
        let mut db = Database::new();
        for sql in [
            "CREATE TABLE l (a INTEGER, b INTEGER)",
            "INSERT INTO l VALUES (1, 10), (2, 20), (0, 30), (2, 21), (0, 31), (3, 5)",
            "CREATE TABLE r (c INTEGER, d INTEGER)",
            "INSERT INTO r VALUES (2, 15), (2, 25), (4, 0), (3, 1)",
            "CREATE TABLE e (x INTEGER)",
        ] {
            db.execute(sql).unwrap();
        }
        db
    }

    fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
        db.query_reference(sql).unwrap().into_rows()
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn groups_come_out_in_first_seen_order() {
        let got = rows(&db(), "SELECT a, COUNT(*) AS n, SUM(b) AS t FROM l GROUP BY a");
        assert_eq!(
            got,
            vec![ints(&[1, 1, 10]), ints(&[2, 2, 41]), ints(&[0, 2, 61]), ints(&[3, 1, 5])]
        );
    }

    /// The sum of no rows is `INTEGER` 0, as the executor's.
    #[test]
    fn global_aggregate_over_empty_input_is_one_row_of_zeros() {
        let mut db = db();
        let sql = "SELECT COUNT(*) AS n, SUM(x) AS t FROM e";
        let got = rows(&db, sql);
        assert!(matches!(got[..], [ref row] if matches!(row[..], [Value::Int(0), Value::Int(0)])));
        let executed = db.execute(sql).unwrap().into_rows();
        assert_eq!(format!("{executed:?}"), format!("{got:?}"));
        // A grouped aggregate over no rows has no groups.
        assert!(rows(&db, "SELECT x, COUNT(*) AS n FROM e GROUP BY x").is_empty());
    }

    #[test]
    fn join_pairs_every_match() {
        let got = rows(&db(), "SELECT l.a, l.b, r.c, r.d FROM l JOIN r ON r.c = l.a");
        assert_eq!(
            got,
            vec![
                ints(&[2, 20, 2, 15]), // two matches
                ints(&[2, 20, 2, 25]),
                ints(&[2, 21, 2, 15]),
                ints(&[2, 21, 2, 25]),
                ints(&[3, 5, 3, 1]),
            ]
        );
    }

    #[test]
    fn sort_is_stable() {
        let got = rows(&db(), "SELECT a, b FROM l ORDER BY a");
        let b: Vec<_> = got.iter().map(|r| r[1].clone()).collect();
        // Ties stay in input order.
        assert_eq!(b, ints(&[30, 31, 10, 20, 21, 5]));
    }

    /// `HUGEINT` keys group and join by value, whatever their width: `h.k`
    /// holds 2 at two widths (hex literals of 16 and 24 digits) next to 5,
    /// and 2 joins the `INTEGER` key 2 of `l`. The executor agrees.
    #[test]
    fn numerically_equal_keys_group_together() {
        let mut db = db();
        db.execute("CREATE TABLE h (k HUGEINT)").unwrap();
        let two = ["0x0000000000000002", "0x000000000000000000000002"];
        db.execute(&format!("INSERT INTO h VALUES ({}), ({}), (0x0000000000000005)", two[0], two[1]))
            .unwrap();
        let grouped = "SELECT k, COUNT(*) AS n FROM h GROUP BY k";
        let joined = "SELECT l.b, h.k FROM l JOIN h ON h.k = l.a";
        // The executor's generic table drains in hash order: compare sets.
        let sorted = |rows: Vec<Vec<Value>>| {
            let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        for sql in [grouped, joined] {
            assert_eq!(sorted(db.execute(sql).unwrap().into_rows()), sorted(rows(&db, sql)), "{sql}");
        }
        let big = |v: u64| Value::Big(crate::BigBits::from_u64(v, 64));
        assert_eq!(rows(&db, grouped), vec![vec![big(2), Value::Int(2)], vec![big(5), Value::Int(1)]]);
        let got = rows(&db, joined);
        assert_eq!(got.iter().map(|r| r[0].clone()).collect::<Vec<_>>(), ints(&[20, 20, 21, 21]));
        // `INTEGER << n` past `i64` is an error, not a HUGEINT key.
        let shifted = "SELECT a << 70 AS g, COUNT(*) AS n FROM l GROUP BY a << 70";
        let overflow = crate::Error::Eval("integer overflow in <<".into());
        assert_eq!(db.query_reference(shifted).unwrap_err(), overflow);
        assert_eq!(db.execute(shifted).unwrap_err(), overflow);
    }

    #[test]
    fn only_queries_are_accepted() {
        assert!(db().query_reference("DROP TABLE l").is_err());
    }
}
