//! Automatic minimization of failing cases.
//!
//! Greedy fixpoint over a menu of structural reductions: every candidate
//! is sanitized (dangling column references repaired), tested against the
//! caller's failure-preserving property, and accepted whenever the failure
//! survives. Passes repeat until a full sweep makes no progress, so the
//! result is 1-minimal with respect to the menu.
//!
//! The property closure returns `true` when the candidate *still fails* —
//! typically a re-run of just the two oracles that disagreed, which keeps
//! each trial cheap.

use qymera_sqldb::Value;

use crate::circuits::CircuitCase;
use crate::generator::{SqlCase, TableSpec};

/// Hard cap on property evaluations per shrink, so a pathological case
/// cannot stall CI. Greedy minimization of generator-sized cases uses a
/// few hundred trials at most.
const MAX_TRIALS: usize = 4000;

/// Repair a structurally-reduced case: drop clauses that reference
/// columns no longer in scope and restore generator invariants (`HAVING`
/// names an aggregate of the projection, `ORDER BY` an output column).
fn sanitize(case: &mut SqlCase) {
    let in_scope: Vec<String> = {
        let q = &case.query;
        let mut cols = case.tables[q.base].column_names();
        for j in &q.joins {
            cols.extend(case.tables[j.table].column_names());
        }
        cols
    };
    let q = &mut case.query;
    if let Some(a) = &mut q.aggregate {
        a.keys.retain(|k| in_scope.contains(k));
        a.aggs.retain(|g| match &g.col {
            None => true,
            Some(c) => in_scope.contains(c),
        });
        if a.having.as_ref().is_some_and(|(i, _)| *i >= a.aggs.len()) {
            a.having = None;
        }
        if a.aggs.is_empty() {
            q.aggregate = None;
        }
    }
    let out = crate::generator::output_columns(q, &case.tables);
    if q.order_by.as_ref().is_some_and(|c| !out.contains(c)) {
        q.order_by = None;
    }
}

/// The structural reductions applicable to `case` right now, smallest
/// effect last — big cuts (whole joins, row halves) are tried first so
/// the case collapses quickly.
fn candidates(case: &SqlCase) -> Vec<SqlCase> {
    let mut out = Vec::new();
    let mut push = |mut c: SqlCase| {
        sanitize(&mut c);
        out.push(c);
    };

    // Whole-clause cuts.
    if case.query.cte_depth > 0 {
        let mut c = case.clone();
        c.query.cte_depth = 0;
        push(c);
    }
    if !case.query.joins.is_empty() {
        let mut c = case.clone();
        c.query.joins.pop();
        push(c);
    }
    if case.query.aggregate.is_some() {
        let mut c = case.clone();
        c.query.aggregate = None;
        push(c);
    }
    if case.query.order_by.is_some() {
        let mut c = case.clone();
        c.query.order_by = None;
        push(c);
    }
    if let Some(a) = &case.query.aggregate {
        if a.having.is_some() {
            let mut c = case.clone();
            c.query.aggregate.as_mut().unwrap().having = None;
            push(c);
        }
        for i in 0..a.aggs.len() {
            if a.aggs.len() > 1 {
                let mut c = case.clone();
                c.query.aggregate.as_mut().unwrap().aggs.remove(i);
                push(c);
            }
        }
        if !a.keys.is_empty() {
            let mut c = case.clone();
            c.query.aggregate.as_mut().unwrap().keys.clear();
            push(c);
        }
    }

    // Drop tables the query no longer references.
    if let Some(c) = drop_unused_tables(case) {
        push(c);
    }

    // Row-level ddmin: halves first, then singles once tables are small.
    for (ti, t) in case.tables.iter().enumerate() {
        let n = t.rows.len();
        if n > 8 {
            for (lo, hi) in [(0, n / 2), (n / 2, n)] {
                let mut c = case.clone();
                c.tables[ti].rows.drain(lo..hi);
                push(c);
            }
        } else {
            for i in (0..n).rev() {
                let mut c = case.clone();
                c.tables[ti].rows.remove(i);
                push(c);
            }
        }
    }

    // Value narrowing, only once the data is small.
    let total_rows: usize = case.tables.iter().map(|t| t.rows.len()).sum();
    if total_rows <= 16 {
        for (ti, t) in case.tables.iter().enumerate() {
            for (ri, row) in t.rows.iter().enumerate() {
                for (ci, v) in row.iter().enumerate() {
                    if let Some(simpler) = narrow(v) {
                        let mut c = case.clone();
                        c.tables[ti].rows[ri][ci] = simpler;
                        push(c);
                    }
                }
            }
        }
    }
    out
}

/// A strictly-simpler stand-in for `v`, or `None` when already minimal.
fn narrow(v: &Value) -> Option<Value> {
    match v {
        Value::Int(i) if *i != 0 => Some(Value::Int(0)),
        Value::Float(f) if *f != 0.0 => Some(Value::Float(0.0)),
        Value::Str(s) if !s.is_empty() => Some(Value::Str(String::new())),
        _ => None,
    }
}

/// Remove tables the query never touches, remapping indices. `None` when every table is referenced.
fn drop_unused_tables(case: &SqlCase) -> Option<SqlCase> {
    let mut used = vec![false; case.tables.len()];
    used[case.query.base] = true;
    for j in &case.query.joins {
        used[j.table] = true;
    }
    if used.iter().all(|u| *u) {
        return None;
    }
    let mut remap = vec![usize::MAX; case.tables.len()];
    let mut tables: Vec<TableSpec> = Vec::new();
    for (i, keep) in used.iter().enumerate() {
        if *keep {
            remap[i] = tables.len();
            tables.push(case.tables[i].clone());
        }
    }
    let mut c = case.clone();
    c.tables = tables;
    c.query.base = remap[case.query.base];
    for j in &mut c.query.joins {
        j.table = remap[j.table];
    }
    Some(c)
}

/// Greedily minimize a failing SQL case. `still_fails` must return `true`
/// while the candidate preserves the original failure; it is never called
/// on the input case itself.
pub fn shrink_sql_case<F>(case: &SqlCase, still_fails: F) -> SqlCase
where
    F: Fn(&SqlCase) -> bool,
{
    let mut best = case.clone();
    let mut trials = 0;
    loop {
        let mut progressed = false;
        for cand in candidates(&best) {
            trials += 1;
            if trials > MAX_TRIALS {
                return best;
            }
            if still_fails(&cand) {
                best = cand;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return best;
        }
    }
}

/// Greedily minimize a failing circuit case: drop gate ranges, then
/// single gates, then zero out rotation parameters.
pub fn shrink_circuit_case<F>(case: &CircuitCase, still_fails: F) -> CircuitCase
where
    F: Fn(&CircuitCase) -> bool,
{
    let mut best = case.clone();
    let mut trials = 0;
    loop {
        let mut progressed = false;
        let mut cands: Vec<CircuitCase> = Vec::new();
        let n = best.gates.len();
        if n > 4 {
            for (lo, hi) in [(0, n / 2), (n / 2, n)] {
                let mut c = best.clone();
                c.gates.drain(lo..hi);
                cands.push(c);
            }
        }
        for i in (0..n).rev() {
            let mut c = best.clone();
            c.gates.remove(i);
            cands.push(c);
        }
        for (gi, g) in best.gates.iter().enumerate() {
            if g.params.iter().any(|p| *p != 0.0) {
                let mut c = best.clone();
                for p in &mut c.gates[gi].params {
                    *p = 0.0;
                }
                cands.push(c);
            }
        }
        for cand in cands {
            trials += 1;
            if trials > MAX_TRIALS {
                return best;
            }
            if still_fails(&cand) {
                best = cand;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SqlCase;

    /// Synthetic property: "fails" whenever table 0 still contains a row
    /// whose first cell is `Int(7)`. The shrinker must strip everything
    /// else and keep exactly one such row.
    #[test]
    fn shrinks_to_the_single_triggering_row() {
        let mut case = SqlCase::generate(5);
        let width = case.tables[0].columns.len();
        case.tables[0].rows.push(vec![Value::Int(7); width]);
        let has_seven = |c: &SqlCase| {
            !c.tables.is_empty()
                && c.tables[0]
                    .rows
                    .iter()
                    .any(|r| matches!(r.first(), Some(Value::Int(7))))
        };
        assert!(has_seven(&case));
        let small = shrink_sql_case(&case, has_seven);
        assert!(has_seven(&small));
        assert_eq!(small.tables[0].rows.len(), 1, "one triggering row should remain");
        assert!(small.query.joins.is_empty());
        assert!(small.query.cte_depth == 0);
        assert!(small.statement_count() <= 4, "got {}", small.statement_count());
    }

    #[test]
    fn sanitize_repairs_dangling_references() {
        let case = SqlCase::generate(11);
        // Dropping every join must never yield an unparseable/unplannable
        // query after sanitization.
        let mut c = case.clone();
        c.query.joins.clear();
        sanitize(&mut c);
        let mut db = qymera_sqldb::Database::new();
        for st in c.setup_statements() {
            db.execute(&st).unwrap();
        }
        db.execute(&c.query_sql()).unwrap();
    }
}
