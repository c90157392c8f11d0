//! Rule-based plan optimizer.
//!
//! The paper's pitch is that a relational engine brings "logical and physical
//! query planning" to simulation for free (§1). This module implements the
//! logical rules that matter for the generated workloads:
//!
//! * **constant folding** — gate-table literals and mask arithmetic collapse
//!   at plan time;
//! * an always-true filter is dropped.

use std::sync::Arc;

use crate::ast::BinaryOp;
use crate::expr::BoundExpr;
use crate::plan::logical::Plan;

/// Apply all rules bottom-up until a fixpoint (bounded by plan depth).
pub fn optimize(plan: Plan) -> Plan {
    let mut p = plan;
    // Two passes are enough for the rule set (each rule is monotone).
    for _ in 0..2 {
        rewrite(&mut p);
    }
    p
}

/// Apply the rules to `plan` in place, children first. `Arc::make_mut`
/// reaches a singly-referenced child without copying it, so a gate chain is
/// never copied; a shared node (a CTE referenced twice) is copied one node
/// at a time, once per reference.
fn rewrite(plan: &mut Plan) {
    match plan {
        Plan::Filter { input, predicate } => {
            rewrite(Arc::make_mut(input));
            fold_expr(predicate);
            if let BoundExpr::Literal(v) = predicate {
                if v.as_bool() == Ok(true) {
                    *plan = (**input).clone();
                }
            }
        }
        Plan::Project { input, exprs, .. } => {
            rewrite(Arc::make_mut(input));
            exprs.iter_mut().for_each(fold_expr);
        }
        Plan::Join { left, right, on, .. } => {
            rewrite(Arc::make_mut(left));
            rewrite(Arc::make_mut(right));
            fold_expr(on);
        }
        Plan::Aggregate { input, group_by, .. } => {
            rewrite(Arc::make_mut(input));
            group_by.iter_mut().for_each(fold_expr);
        }
        Plan::Sort { input, key } => {
            rewrite(Arc::make_mut(input));
            fold_expr(key);
        }
        Plan::Alias { input, .. } => rewrite(Arc::make_mut(input)),
        Plan::Scan { .. } => {}
    }
}

/// Fold constant subexpressions in place, in one pass. Evaluation errors
/// (e.g. `1 << -1`) leave the expression in place so they surface at execution
/// time, per SQL semantics.
pub fn fold_expr(expr: &mut BoundExpr) {
    fold(expr);
}

/// [`fold_expr`], returning whether `expr` references no column: such a
/// node is evaluated once its children are folded.
fn fold(expr: &mut BoundExpr) -> bool {
    let constant = match expr {
        BoundExpr::Literal(_) => return true,
        BoundExpr::Column(_) => return false,
        BoundExpr::Unary { expr, .. } => fold(expr),
        // Every child is folded: no short-circuit.
        BoundExpr::Binary { left, right, .. } => fold(left) & fold(right),
        BoundExpr::ScalarFn { args, .. } => args.iter_mut().fold(true, |c, a| fold(a) & c),
    };
    if constant {
        if let Ok(v) = expr.eval(&Vec::new()) {
            *expr = BoundExpr::Literal(v);
        }
    }
    constant
}

/// The hash-join key of a join condition `l = r` whose operands each read
/// one input: `(left key, right key)`, the right key rebased onto the right
/// input's columns. `None` for any other condition: the hash join has one
/// key and no residual, so the planner refuses such a join.
pub(crate) fn join_key(on: &BoundExpr, left_cols: usize) -> Option<(BoundExpr, BoundExpr)> {
    let BoundExpr::Binary { left, op: BinaryOp::Eq, right } = on else { return None };
    let (mut a, mut b) = ((**left).clone(), (**right).clone());
    match (rebase(&mut a, left_cols)?, rebase(&mut b, left_cols)?) {
        (false, true) => Some((a, b)),
        (true, false) => Some((b, a)),
        _ => None,
    }
}

/// Which input of a join `expr` reads: `Some(true)` the right one only,
/// whose columns it is then rebased onto, `Some(false)` the left one only,
/// `None` both or neither.
fn rebase(expr: &mut BoundExpr, left_cols: usize) -> Option<bool> {
    let (mut left, mut right) = (false, false);
    expr.columns_mut(&mut |c| {
        if *c < left_cols {
            left = true;
        } else {
            *c -= left_cols;
            right = true;
        }
    });
    (left != right).then_some(right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::UnaryOp;
    use crate::schema::RelSchema;
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

    fn folded(mut e: BoundExpr) -> BoundExpr {
        fold_expr(&mut e);
        e
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
        assert_eq!(folded(e), BoundExpr::Literal(Value::Int(9)));
    }

    #[test]
    fn folding_preserves_runtime_errors() {
        // 1 << -1 must not fold (and must not panic)
        let e = BoundExpr::Binary {
            left: Box::new(lit(1)),
            op: BinaryOp::Shl,
            right: Box::new(lit(-1)),
        };
        assert_eq!(folded(e.clone()), e);
    }

    #[test]
    fn folds_bitnot_mask() {
        // ~1 → -2, the Fig. 2 mask idiom pre-computed at plan time
        let e = BoundExpr::Unary { op: UnaryOp::BitNot, expr: Box::new(lit(1)) };
        assert_eq!(folded(e), BoundExpr::Literal(Value::Int(-2)));
    }

    #[test]
    fn a_join_key_takes_both_orientations_and_nothing_else() {
        // The left input has 2 columns: ON col3 = col1.
        assert_eq!(join_key(&eq(col(3), col(1)), 2), Some((col(1), col(1))));
        assert_eq!(join_key(&eq(col(0), col(2)), 2), Some((col(0), col(0))));
        let gt =
            BoundExpr::Binary { left: Box::new(col(0)), op: BinaryOp::Gt, right: Box::new(col(2)) };
        for not_a_key in [gt, eq(col(0), lit(1)), eq(col(0), col(1)), eq(col(2), col(3))] {
            assert_eq!(join_key(&not_a_key, 2), None, "{not_a_key:?}");
        }
    }

    #[test]
    fn a_filter_over_an_inner_join_stays_above_it() {
        use crate::schema::Field;
        let scan = |table: &str, names: &[&str]| {
            let schema = RelSchema::new(names.iter().map(|n| Field::new(Some(table), n)).collect());
            Plan::Scan { table: table.into(), schema }
        };
        let (left, right) = (scan("a", &["x", "y"]), scan("b", &["z"]));
        let schema = left.schema().join(right.schema());
        let join = Plan::Join {
            left: Arc::new(left),
            right: Arc::new(right),
            on: eq(col(0), col(2)),
            schema,
        };
        let predicate = eq(col(1), col(2));
        let plan = Plan::Filter { input: Arc::new(join.clone()), predicate: predicate.clone() };
        assert_eq!(optimize(plan), Plan::Filter { input: Arc::new(join), predicate });
    }

    #[test]
    fn true_filter_dropped() {
        let scan = Plan::Scan {
            table: "t".into(),
            schema: crate::schema::RelSchema::new(vec![crate::schema::Field::new(None, "x")]),
        };
        let p = Plan::Filter { input: Arc::new(scan.clone()), predicate: eq(lit(1), lit(1)) };
        assert_eq!(optimize(p), scan);
        let p = Plan::Filter { input: Arc::new(scan), predicate: eq(col(0), lit(1)) };
        assert!(matches!(optimize(p), Plan::Filter { .. }));
    }
}
