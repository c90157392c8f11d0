//! Metamorphic testing: algebraically-equal rewrites of a generated query
//! must produce identical result multisets.
//!
//! Each rewrite operates on the *core* query block (`ORDER BY` and CTE
//! wrapping stripped — those are orthogonal to the algebra), renders a
//! second SQL text, and both texts run in the same database on the batch
//! path. Because every generated column name is globally unique and all
//! references are bare, the rewrites are purely syntactic:
//!
//! 1. **Join commutativity** — `A JOIN B ON a = b` ⇒ `B JOIN A ON b = a`.
//! 2. **Join associativity** — `(A ⋈ B) ⋈ C` ⇒ the `A ⋈ B` prefix
//!    materialized through a CTE, then joined with `C`.

use qymera_sqldb::Database;

use crate::generator::{render_core, render_from, render_select, JoinSpec, QuerySpec, SqlCase};
use crate::oracle::{canon_multiset, Discrepancy};

/// One applicable rewrite: a human-readable name plus the rewritten SQL.
pub struct Rewrite {
    /// Which algebraic identity produced this rewrite.
    pub name: &'static str,
    /// The rewritten core query.
    pub sql: String,
}

/// The core query with ORDER BY and CTE wrapping stripped — the block the
/// algebraic identities apply to.
fn core_query(case: &SqlCase) -> QuerySpec {
    let mut q = case.query.clone();
    q.order_by = None;
    q.cte_depth = 0;
    q
}

/// Join commutativity: swap the base table with the first join when that
/// join is anchored on a base-table column.
fn rewrite_join_commute(q: &QuerySpec, case: &SqlCase) -> Option<Rewrite> {
    let first = q.joins.first()?;
    // The swap is only syntactically clean when the left side of the ON
    // condition lives in the base table (the generator may anchor later
    // joins on any in-scope table).
    if !case.tables[q.base]
        .column_names()
        .contains(&first.left_col)
    {
        return None;
    }
    let mut swapped = q.clone();
    swapped.base = first.table;
    swapped.joins[0] = JoinSpec {
        table: q.base,
        left_col: first.right_col.clone(),
        right_col: first.left_col.clone(),
    };
    // Keep the ORIGINAL projection order: render the block over the
    // swapped FROM clause.
    let sql = render_select(q, &case.tables, &render_from(&swapped, &case.tables));
    Some(Rewrite { name: "join-commutativity", sql })
}

/// Join associativity: materialize the first join through a CTE, then
/// apply the remaining joins on top.
fn rewrite_join_assoc(q: &QuerySpec, case: &SqlCase) -> Option<Rewrite> {
    if q.joins.len() < 2 {
        return None;
    }
    let mut prefix = q.clone();
    prefix.joins.truncate(1);
    let mut prefix_cols = case.tables[prefix.base].column_names();
    prefix_cols.extend(case.tables[prefix.joins[0].table].column_names());
    let prefix_from = render_from(&prefix, &case.tables);
    let inner = format!("SELECT {} FROM {prefix_from}", prefix_cols.join(", "));
    let mut from = "s".to_string();
    for j in &q.joins[1..] {
        let t = &case.tables[j.table].name;
        from = format!("{from} JOIN {t} ON {} = {}", j.left_col, j.right_col);
    }
    let tail = render_select(q, &case.tables, &from);
    Some(Rewrite {
        name: "join-associativity",
        sql: format!("WITH s AS ({inner}) {tail}"),
    })
}

/// All rewrites applicable to `case`.
pub fn applicable_rewrites(case: &SqlCase) -> Vec<Rewrite> {
    let q = core_query(case);
    [rewrite_join_commute(&q, case), rewrite_join_assoc(&q, case)]
    .into_iter()
    .flatten()
    .collect()
}

/// Run the core query and every applicable rewrite in one batch-path
/// database; any multiset disagreement is a discrepancy.
pub fn run_metamorphic_case(case: &SqlCase) -> Option<Discrepancy> {
    let q = core_query(case);
    let original_sql = render_core(&q, &case.tables);
    let mut db = Database::new();
    for st in case.setup_statements() {
        if let Err(e) = db.execute(&st) {
            return Some(Discrepancy {
                seed: case.seed,
                oracle: "metamorphic-setup".to_string(),
                detail: format!("`{st}` errored: {e}"),
            });
        }
    }
    let original = match db.execute(&original_sql) {
        Ok(rs) => canon_multiset(rs.rows()),
        Err(e) => {
            return Some(Discrepancy {
                seed: case.seed,
                oracle: "metamorphic-original".to_string(),
                detail: format!("`{original_sql}` errored: {e}"),
            })
        }
    };
    for rw in applicable_rewrites(case) {
        let rewritten = match db.execute(&rw.sql) {
            Ok(rs) => canon_multiset(rs.rows()),
            Err(e) => {
                return Some(Discrepancy {
                    seed: case.seed,
                    oracle: format!("metamorphic:{}", rw.name),
                    detail: format!("`{}` errored: {e}", rw.sql),
                })
            }
        };
        if rewritten != original {
            return Some(Discrepancy {
                seed: case.seed,
                oracle: format!("metamorphic:{}", rw.name),
                detail: format!(
                    "rewrite changed the result multiset ({} vs {} rows)\noriginal: {}\nrewritten: {}",
                    original.len(),
                    rewritten.len(),
                    original_sql,
                    rw.sql
                ),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SqlCase;

    #[test]
    fn rewrites_preserve_results_on_a_small_sample() {
        let mut applied = 0;
        for seed in 0..60 {
            let case = SqlCase::generate(seed);
            applied += applicable_rewrites(&case).len();
            if let Some(d) = run_metamorphic_case(&case) {
                panic!("metamorphic failure: {d}");
            }
        }
        assert!(applied > 10, "rewrites barely applicable: {applied}");
    }
}
