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

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::ast::JoinKind;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
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
        Plan::One => vec![Row::new()],
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
        Plan::Join { left, right, kind, on, .. } => {
            if *kind == JoinKind::Right {
                return Err(Error::Plan(
                    "internal: RIGHT JOIN must be rewritten at plan time".into(),
                ));
            }
            let (left_rows, right_rows) = (run(left, catalog)?, run(right, catalog)?);
            let right_cols = right.schema().len();
            let mut out = Vec::new();
            for l in &left_rows {
                let mut matched = false;
                for r in &right_rows {
                    let pair: Row = l.iter().chain(r).cloned().collect();
                    if on.as_ref().map_or(Ok(true), |on| is_true(on, &pair))? {
                        matched = true;
                        out.push(pair);
                    }
                }
                if *kind == JoinKind::Left && !matched {
                    let nulls = std::iter::repeat_n(Value::Null, right_cols);
                    out.push(l.iter().cloned().chain(nulls).collect());
                }
            }
            out
        }
        // `one_row_per_group` is the optimizer's claim about this node, and
        // grouping regardless is what checks it: not read here, on purpose.
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
                for acc in accs {
                    row.push(acc.finalize()?);
                }
                out.push(row);
            }
            out
        }
        Plan::Sort { input, keys } => {
            let mut keyed = Vec::new();
            for row in run(input, catalog)? {
                let key = keys.iter().map(|k| k.expr.eval(&row)).collect::<Result<Row>>()?;
                keyed.push((key, row));
            }
            // NULLs first, numbers before text; ties keep input order.
            keyed.sort_by(|(a, _), (b, _)| {
                for ((x, y), k) in a.iter().zip(b).zip(keys) {
                    let ord = x.cmp_total(y);
                    if ord != Ordering::Equal {
                        return if k.desc { ord.reverse() } else { ord };
                    }
                }
                Ordering::Equal
            });
            keyed.into_iter().map(|(_, row)| row).collect()
        }
        Plan::Limit { input, limit, offset } => run(input, catalog)?
            .into_iter()
            .skip(usize::try_from(*offset).unwrap_or(usize::MAX))
            .take(limit.map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX)))
            .collect(),
        Plan::UnionAll { inputs } => {
            let mut out = Vec::new();
            for input in inputs {
                out.extend(run(input, catalog)?);
            }
            out
        }
    })
}

fn eval_all(exprs: &[BoundExpr], row: &Row) -> Result<Row> {
    exprs.iter().map(|e| e.eval(row)).collect()
}

/// SQL's three-valued truth: NULL and FALSE both reject the row.
fn is_true(predicate: &BoundExpr, row: &Row) -> Result<bool> {
    Ok(predicate.eval(row)?.as_bool()? == Some(true))
}

#[cfg(test)]
mod tests {
    use crate::{Database, Value};

    /// `l(a, b)`, `r(c, d)` and an empty `e(x)`; NULLs in every key column.
    fn db() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE l (a INTEGER, b INTEGER);
             INSERT INTO l VALUES (1, 10), (2, 20), (NULL, 30), (2, 21), (NULL, 31), (3, 5);
             CREATE TABLE r (c INTEGER, d INTEGER);
             INSERT INTO r VALUES (2, 15), (2, 25), (NULL, 0), (3, 1);
             CREATE TABLE e (x INTEGER);",
        )
        .unwrap();
        db
    }

    fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
        db.query_reference(sql).unwrap().into_rows()
    }

    fn ints(vals: &[Option<i64>]) -> Vec<Value> {
        vals.iter().map(|v| v.map_or(Value::Null, Value::Int)).collect()
    }

    #[test]
    fn null_group_keys_form_one_group() {
        let got = rows(&db(), "SELECT a, COUNT(*) AS n, SUM(b) AS t FROM l GROUP BY a");
        // First-seen order: 1, 2, NULL, 3.
        assert_eq!(
            got,
            vec![
                ints(&[Some(1), Some(1), Some(10)]),
                ints(&[Some(2), Some(2), Some(41)]),
                ints(&[None, Some(2), Some(61)]),
                ints(&[Some(3), Some(1), Some(5)]),
            ]
        );
    }

    #[test]
    fn global_aggregate_over_empty_input_is_one_row() {
        let db = db();
        assert_eq!(
            rows(&db, "SELECT COUNT(*) AS n, COUNT(x) AS nx, SUM(x) AS t FROM e"),
            vec![ints(&[Some(0), Some(0), None])]
        );
        // A grouped aggregate over no rows has no groups.
        assert!(rows(&db, "SELECT x, COUNT(*) AS n FROM e GROUP BY x").is_empty());
    }

    #[test]
    fn left_join_pads_only_when_no_pair_passes_the_full_on() {
        let got = rows(
            &db(),
            "SELECT l.a, l.b, r.c, r.d FROM l LEFT JOIN r ON r.c = l.a AND r.d > l.b",
        );
        assert_eq!(
            got,
            vec![
                ints(&[Some(1), Some(10), None, None]), // no key match
                ints(&[Some(2), Some(20), Some(2), Some(25)]), // one of two pairs passes: no pad
                ints(&[None, Some(30), None, None]),    // NULL = NULL is not true
                ints(&[Some(2), Some(21), Some(2), Some(25)]),
                ints(&[None, Some(31), None, None]),
                ints(&[Some(3), Some(5), None, None]), // key matches, the rest of ON fails
            ]
        );
    }

    #[test]
    fn offset_past_the_end_is_empty() {
        let db = db();
        assert!(rows(&db, "SELECT a FROM l LIMIT 3 OFFSET 6").is_empty());
        assert!(rows(&db, "SELECT a, b FROM l ORDER BY b LIMIT 3 OFFSET 100").is_empty());
        assert_eq!(rows(&db, "SELECT b FROM l LIMIT 3 OFFSET 4"), vec![ints(&[Some(31)]), ints(&[Some(5)])]);
    }

    #[test]
    fn distinct_aggregates() {
        let got = rows(
            &db(),
            "SELECT COUNT(DISTINCT a) AS na, SUM(DISTINCT a) AS sa, COUNT(a) AS n FROM l",
        );
        // a = 1, 2, NULL, 2, NULL, 3: NULLs are not counted, 2 only once.
        assert_eq!(got, vec![ints(&[Some(3), Some(6), Some(4)])]);
    }

    #[test]
    fn union_all_keeps_input_order() {
        let got = rows(&db(), "SELECT d FROM r UNION ALL SELECT x FROM e UNION ALL SELECT b FROM l WHERE a = 2");
        let want: Vec<_> = [15, 25, 0, 1, 20, 21].iter().map(|&v| ints(&[Some(v)])).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sort_is_stable_with_nulls_first() {
        let got = rows(&db(), "SELECT a, b FROM l ORDER BY a DESC");
        let b: Vec<_> = got.iter().map(|r| r[1].clone()).collect();
        // DESC reverses the key order (NULLs last); ties stay in input order.
        assert_eq!(b, ints(&[Some(5), Some(20), Some(21), Some(10), Some(30), Some(31)]));
    }

    #[test]
    fn numerically_equal_keys_group_together() {
        // 2 and 2.0 are one group key whatever their representation.
        let got = rows(
            &db(),
            "SELECT CASE WHEN b < 21 THEN 2 ELSE 2.0 END AS g, COUNT(*) AS n FROM l \
             WHERE a = 2 GROUP BY CASE WHEN b < 21 THEN 2 ELSE 2.0 END",
        );
        assert_eq!(got, vec![ints(&[Some(2), Some(2)])]);
    }

    #[test]
    fn select_without_from_is_one_row() {
        assert_eq!(rows(&db(), "SELECT 1 + 1 AS two"), vec![ints(&[Some(2)])]);
    }

    #[test]
    fn only_queries_are_accepted() {
        assert!(db().query_reference("DROP TABLE l").is_err());
    }
}
