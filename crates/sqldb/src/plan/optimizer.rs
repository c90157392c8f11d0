//! Rule-based plan optimizer.
//!
//! The paper's pitch is that a relational engine brings "logical and physical
//! query planning" to simulation for free (§1). This module implements the
//! logical rules that matter for the generated workloads:
//!
//! * **constant folding** — gate-table literals and mask arithmetic collapse
//!   at plan time;
//! * **filter → join predicate migration** — `WHERE` equi-conjuncts spanning
//!   both join sides become join conditions eligible for hash joins;
//! * **filter pushdown** — side-local conjuncts move below the join;
//! * **filter fusion** — stacked filters merge into one conjunction;
//! * **one row per group** — an aggregate whose group key provably differs
//!   on any two input rows (a gate that cannot interfere) is marked so the
//!   executor streams it; see [`super::keys`].

use std::sync::Arc;

use crate::ast::{BinaryOp, JoinKind};
use crate::expr::BoundExpr;
use crate::plan::keys::annotate;
use crate::plan::logical::{Plan, SortKey};
use crate::schema::Facts;

/// Apply all rules bottom-up until a fixpoint (bounded by plan depth).
pub fn optimize(plan: Plan) -> Plan {
    optimize_with_facts(plan).0
}

/// [`optimize`], and what the last pass derived of the result's columns
/// (`CREATE TABLE … AS` records it with the table it fills).
pub(crate) fn optimize_with_facts(plan: Plan) -> (Plan, Facts) {
    let mut p = plan;
    // Two passes are enough for the rule set (each rule is monotone).
    for _ in 0..2 {
        p = rewrite(p);
    }
    let facts = annotate(&mut p);
    (p, facts)
}

/// Rewrite a child. `Arc::unwrap_or_clone` moves a singly-referenced subtree
/// through the rules, so a gate chain is never copied; a shared node (a CTE
/// referenced twice) is copied one node at a time, once per reference.
fn rewrite_child(child: Arc<Plan>) -> Arc<Plan> {
    Arc::new(rewrite(Arc::unwrap_or_clone(child)))
}

fn rewrite(plan: Plan) -> Plan {
    // Recurse first so children are already optimized.
    match plan {
        Plan::Filter { input, predicate } => {
            let input = rewrite(Arc::unwrap_or_clone(input));
            let predicate = fold_expr(predicate);
            apply_filter_rules(input, predicate)
        }
        Plan::Project { input, exprs, schema } => Plan::Project {
            input: rewrite_child(input),
            exprs: exprs.into_iter().map(fold_expr).collect(),
            schema,
        },
        Plan::Join { left, right, kind, on, schema } => Plan::Join {
            left: rewrite_child(left),
            right: rewrite_child(right),
            kind,
            on: on.map(fold_expr),
            schema,
        },
        Plan::Aggregate { input, group_by, aggs, schema, one_row_per_group } => Plan::Aggregate {
            input: rewrite_child(input),
            group_by: group_by.into_iter().map(fold_expr).collect(),
            aggs,
            schema,
            one_row_per_group,
        },
        Plan::Sort { input, keys } => Plan::Sort {
            input: rewrite_child(input),
            keys: keys
                .into_iter()
                .map(|k| SortKey { expr: fold_expr(k.expr), desc: k.desc })
                .collect(),
        },
        Plan::Limit { input, limit, offset } => {
            Plan::Limit { input: rewrite_child(input), limit, offset }
        }
        Plan::UnionAll { inputs } => {
            Plan::UnionAll { inputs: inputs.into_iter().map(rewrite_child).collect() }
        }
        Plan::Alias { input, schema } => Plan::Alias { input: rewrite_child(input), schema },
        leaf @ (Plan::Scan { .. } | Plan::One) => leaf,
    }
}

/// Fold constant subexpressions. Evaluation errors (e.g. `1/0`) leave the
/// expression in place so they surface at execution time, per SQL semantics.
pub fn fold_expr(expr: BoundExpr) -> BoundExpr {
    // Fold children first.
    let expr = match expr {
        BoundExpr::Unary { op, expr } => {
            BoundExpr::Unary { op, expr: Box::new(fold_expr(*expr)) }
        }
        BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(fold_expr(*left)),
            op,
            right: Box::new(fold_expr(*right)),
        },
        BoundExpr::ScalarFn { func, args } => BoundExpr::ScalarFn {
            func,
            args: args.into_iter().map(fold_expr).collect(),
        },
        BoundExpr::Cast { expr, ty } => BoundExpr::Cast { expr: Box::new(fold_expr(*expr)), ty },
        BoundExpr::IsNull { expr, negated } => {
            BoundExpr::IsNull { expr: Box::new(fold_expr(*expr)), negated }
        }
        BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(fold_expr(*expr)),
            list: list.into_iter().map(fold_expr).collect(),
            negated,
        },
        BoundExpr::Case { operand, branches, else_branch } => BoundExpr::Case {
            operand: operand.map(|o| Box::new(fold_expr(*o))),
            branches: branches
                .into_iter()
                .map(|(c, r)| (fold_expr(c), fold_expr(r)))
                .collect(),
            else_branch: else_branch.map(|e| Box::new(fold_expr(*e))),
        },
        leaf => leaf,
    };
    if matches!(expr, BoundExpr::Literal(_)) {
        return expr;
    }
    if expr.is_constant() {
        if let Ok(v) = expr.eval(&vec![]) {
            return BoundExpr::Literal(v);
        }
    }
    expr
}

/// Split a predicate into its AND-conjuncts.
pub fn split_conjuncts(expr: BoundExpr, out: &mut Vec<BoundExpr>) {
    match expr {
        BoundExpr::Binary { left, op: BinaryOp::And, right } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// Rebuild a conjunction from parts (`None` for the empty conjunction).
pub fn conjoin(mut parts: Vec<BoundExpr>) -> Option<BoundExpr> {
    let mut acc = parts.pop()?;
    while let Some(p) = parts.pop() {
        acc = BoundExpr::Binary { left: Box::new(p), op: BinaryOp::And, right: Box::new(acc) };
    }
    Some(acc)
}

/// Which join sides a bound expression touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sides {
    Neither,
    LeftOnly,
    RightOnly,
    Both,
}

fn classify_sides(expr: &BoundExpr, left_cols: usize) -> Sides {
    let mut cols = Vec::new();
    expr.referenced_columns(&mut cols);
    let l = cols.iter().any(|&c| c < left_cols);
    let r = cols.iter().any(|&c| c >= left_cols);
    match (l, r) {
        (false, false) => Sides::Neither,
        (true, false) => Sides::LeftOnly,
        (false, true) => Sides::RightOnly,
        (true, true) => Sides::Both,
    }
}

/// Shift all column indices by `-delta` (for pushing below the right side).
fn shift_columns(expr: BoundExpr, delta: usize) -> BoundExpr {
    map_columns(expr, &|i| i - delta)
}

fn map_columns(expr: BoundExpr, f: &impl Fn(usize) -> usize) -> BoundExpr {
    match expr {
        BoundExpr::Column(i) => BoundExpr::Column(f(i)),
        BoundExpr::Literal(v) => BoundExpr::Literal(v),
        BoundExpr::Unary { op, expr } => {
            BoundExpr::Unary { op, expr: Box::new(map_columns(*expr, f)) }
        }
        BoundExpr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(map_columns(*left, f)),
            op,
            right: Box::new(map_columns(*right, f)),
        },
        BoundExpr::ScalarFn { func, args } => BoundExpr::ScalarFn {
            func,
            args: args.into_iter().map(|a| map_columns(a, f)).collect(),
        },
        BoundExpr::Cast { expr, ty } => {
            BoundExpr::Cast { expr: Box::new(map_columns(*expr, f)), ty }
        }
        BoundExpr::IsNull { expr, negated } => {
            BoundExpr::IsNull { expr: Box::new(map_columns(*expr, f)), negated }
        }
        BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
            expr: Box::new(map_columns(*expr, f)),
            list: list.into_iter().map(|e| map_columns(e, f)).collect(),
            negated,
        },
        BoundExpr::Case { operand, branches, else_branch } => BoundExpr::Case {
            operand: operand.map(|o| Box::new(map_columns(*o, f))),
            branches: branches
                .into_iter()
                .map(|(c, r)| (map_columns(c, f), map_columns(r, f)))
                .collect(),
            else_branch: else_branch.map(|e| Box::new(map_columns(*e, f))),
        },
    }
}

/// Filter-specific rules: fuse stacked filters, migrate predicates into
/// inner joins, drop always-true filters.
fn apply_filter_rules(input: Plan, predicate: BoundExpr) -> Plan {
    // Always-true predicate → drop the filter entirely.
    if let BoundExpr::Literal(v) = &predicate {
        if v.as_bool().ok().flatten() == Some(true) {
            return input;
        }
    }
    match input {
        // Filter fusion.
        Plan::Filter { input: inner, predicate: p2 } => {
            let combined = BoundExpr::Binary {
                left: Box::new(p2),
                op: BinaryOp::And,
                right: Box::new(predicate),
            };
            apply_filter_rules(Arc::unwrap_or_clone(inner), combined)
        }
        // Predicate migration and pushdown around inner joins.
        Plan::Join { left, right, kind: JoinKind::Inner, on, schema } => {
            let left_cols = left.schema().len();
            let mut conjuncts = Vec::new();
            split_conjuncts(predicate, &mut conjuncts);
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut to_on = Vec::new();
            for c in conjuncts {
                match classify_sides(&c, left_cols) {
                    Sides::LeftOnly => to_left.push(c),
                    Sides::RightOnly => to_right.push(shift_columns(c, left_cols)),
                    // constants and both-sided predicates stay on the join
                    _ => to_on.push(c),
                }
            }
            let push_down = |side: Arc<Plan>, conjuncts| match conjoin(conjuncts) {
                Some(predicate) => Arc::new(Plan::Filter { input: side, predicate }),
                None => side,
            };
            let left = push_down(left, to_left);
            let right = push_down(right, to_right);
            let mut on_parts = Vec::new();
            if let Some(o) = on {
                split_conjuncts(o, &mut on_parts);
            }
            on_parts.extend(to_on);
            Plan::Join { left, right, kind: JoinKind::Inner, on: conjoin(on_parts), schema }
        }
        other => Plan::Filter { input: Arc::new(other), predicate },
    }
}

/// Extract hash-join key pairs from a join condition.
///
/// Returns `(left_keys, right_keys, residual)` where `left_keys[i]` evaluated
/// on a left row must equal `right_keys[i]` evaluated on a right row. The
/// residual (if any) is evaluated on the concatenated row after a key match.
/// Right-key expressions are shifted to the right child's own schema.
pub fn extract_equi_keys(
    on: BoundExpr,
    left_cols: usize,
) -> (Vec<BoundExpr>, Vec<BoundExpr>, Option<BoundExpr>) {
    let mut conjuncts = Vec::new();
    split_conjuncts(on, &mut conjuncts);
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        if let BoundExpr::Binary { left, op: BinaryOp::Eq, right } = &c {
            let ls = classify_sides(left, left_cols);
            let rs = classify_sides(right, left_cols);
            match (ls, rs) {
                (Sides::LeftOnly, Sides::RightOnly) => {
                    lk.push((**left).clone());
                    rk.push(shift_columns((**right).clone(), left_cols));
                    continue;
                }
                (Sides::RightOnly, Sides::LeftOnly) => {
                    lk.push((**right).clone());
                    rk.push(shift_columns((**left).clone(), left_cols));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c);
    }
    (lk, rk, conjoin(residual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UnaryOp;
    use crate::value::Value;

    fn lit(v: i64) -> BoundExpr {
        BoundExpr::Literal(Value::Int(v))
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn eq(a: BoundExpr, b: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { left: Box::new(a), op: BinaryOp::Eq, right: Box::new(b) }
    }

    fn and(a: BoundExpr, b: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { left: Box::new(a), op: BinaryOp::And, right: Box::new(b) }
    }

    #[test]
    fn folds_constants() {
        // (1 + 2) * 3 → 9
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Binary {
                left: Box::new(lit(1)),
                op: BinaryOp::Add,
                right: Box::new(lit(2)),
            }),
            op: BinaryOp::Mul,
            right: Box::new(lit(3)),
        };
        assert_eq!(fold_expr(e), BoundExpr::Literal(Value::Int(9)));
    }

    #[test]
    fn folding_preserves_runtime_errors() {
        // 1/0 must not fold (and must not panic)
        let e = BoundExpr::Binary {
            left: Box::new(lit(1)),
            op: BinaryOp::Div,
            right: Box::new(lit(0)),
        };
        let folded = fold_expr(e.clone());
        assert_eq!(folded, e);
    }

    #[test]
    fn folds_bitnot_mask() {
        // ~1 → -2, the Fig. 2 mask idiom pre-computed at plan time
        let e = BoundExpr::Unary { op: UnaryOp::BitNot, expr: Box::new(lit(1)) };
        assert_eq!(fold_expr(e), BoundExpr::Literal(Value::Int(-2)));
    }

    #[test]
    fn split_and_conjoin_round_trip() {
        let e = and(and(eq(col(0), lit(1)), eq(col(1), lit(2))), eq(col(2), lit(3)));
        let mut parts = Vec::new();
        split_conjuncts(e, &mut parts);
        assert_eq!(parts.len(), 3);
        let rebuilt = conjoin(parts).unwrap();
        let mut parts2 = Vec::new();
        split_conjuncts(rebuilt, &mut parts2);
        assert_eq!(parts2.len(), 3);
    }

    #[test]
    fn extract_equi_keys_both_orientations() {
        // left has 2 columns; ON col0 = col2 AND col3 = col1 AND col0 > 0
        let on = and(
            and(eq(col(0), col(2)), eq(col(3), col(1))),
            BoundExpr::Binary {
                left: Box::new(col(0)),
                op: BinaryOp::Gt,
                right: Box::new(lit(0)),
            },
        );
        let (lk, rk, residual) = extract_equi_keys(on, 2);
        assert_eq!(lk.len(), 2);
        assert_eq!(rk, vec![col(0), col(1)], "right keys shifted into right schema");
        assert!(residual.is_some());
    }

    #[test]
    fn no_equi_keys_all_residual() {
        let on = BoundExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Lt,
            right: Box::new(col(2)),
        };
        let (lk, rk, residual) = extract_equi_keys(on, 2);
        assert!(lk.is_empty() && rk.is_empty());
        assert!(residual.is_some());
    }

    #[test]
    fn filter_pushdown_through_inner_join() {
        use crate::schema::{Field, RelSchema};
        let mk_schema = |rel: &str, names: &[&str]| {
            RelSchema::new(names.iter().map(|n| Field::new(Some(rel), n)).collect())
        };
        let scan = |table: &str, schema: RelSchema| {
            let facts = vec![None; schema.len()];
            Plan::Scan { table: table.into(), schema, facts }
        };
        let left = scan("a", mk_schema("a", &["x", "y"]));
        let right = scan("b", mk_schema("b", &["z"]));
        let joined_schema = left.schema().join(&right.schema());
        let join = Plan::Join {
            left: Arc::new(left),
            right: Arc::new(right),
            kind: JoinKind::Inner,
            on: None,
            schema: joined_schema,
        };
        // WHERE a.x = 1 AND b.z = 2 AND a.y = b.z
        let pred = and(and(eq(col(0), lit(1)), eq(col(2), lit(2))), eq(col(1), col(2)));
        let plan = Plan::Filter { input: Arc::new(join), predicate: pred };
        let opt = optimize(plan);
        let Plan::Join { left, right, on, .. } = opt else { panic!("expected join on top") };
        assert!(matches!(*left, Plan::Filter { .. }), "left conjunct pushed down");
        assert!(matches!(*right, Plan::Filter { .. }), "right conjunct pushed down");
        assert!(on.is_some(), "cross-side conjunct became the join condition");
        // The pushed-down right-side predicate must reference column 0 of b.
        let Plan::Filter { predicate, .. } = &*right else { unreachable!() };
        let mut cols = Vec::new();
        predicate.referenced_columns(&mut cols);
        assert_eq!(cols, vec![0]);
    }

    #[test]
    fn true_filter_dropped_and_filters_fused() {
        let scan = Plan::Scan {
            table: "t".into(),
            schema: crate::schema::RelSchema::new(vec![crate::schema::Field::new(None, "x")]),
            facts: vec![None],
        };
        let p = Plan::Filter { input: Arc::new(scan.clone()), predicate: lit(1) };
        assert!(matches!(optimize(p), Plan::Scan { .. }));

        let stacked = Plan::Filter {
            input: Arc::new(Plan::Filter {
                input: Arc::new(scan),
                predicate: eq(col(0), lit(1)),
            }),
            predicate: eq(col(0), lit(2)),
        };
        let opt = optimize(stacked);
        let Plan::Filter { input, predicate } = opt else { panic!("expected single filter") };
        assert!(matches!(*input, Plan::Scan { .. }));
        let mut parts = Vec::new();
        split_conjuncts(predicate, &mut parts);
        assert_eq!(parts.len(), 2);
    }
}
