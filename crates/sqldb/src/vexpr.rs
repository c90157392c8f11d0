//! Vectorized evaluation of [`BoundExpr`] over columnar [`RowBatch`]es.
//!
//! This is the expression half of the batch executor: the operators in
//! [`crate::exec::vector`] hand whole batches to [`BoundExpr::eval_batch`],
//! which runs typed kernels over the null-free `Int`/`Float` fast lanes —
//! including the bitwise mask arithmetic (`&`, `|`, `~`, `<<`, `>>`) that
//! dominates Qymera's gate joins — and falls back to the scalar
//! [`BoundExpr::eval`] row loop for anything the kernels don't cover
//! (`SUBSTR`/`CONCAT`, `HUGEINT` columns, NULLs).
//!
//! Semantics contract: for every expression and input, `eval_batch` produces
//! exactly the values the row-at-a-time `eval` would produce, and errors
//! whenever `eval` would error on some row (the *specific* error surfaced may
//! differ when several rows fail, since kernels evaluate operands column-wise
//! rather than row-wise).

use crate::ast::{BinaryOp, UnaryOp};
use crate::error::{Error, Result};
use crate::exec::batch::{Column, ColumnRef, RowBatch};
use crate::expr::{apply_binary, BoundExpr};
use crate::value::Value;

/// A binary operand: either a shared column handle or a scalar literal kept
/// unsplatted so `col ⊕ constant` kernels avoid materializing the constant
/// 1024 times. Column operands are `Arc`s — resolving a bare column
/// reference never copies row data (it may be a base-table chunk).
enum Operand {
    Col(ColumnRef),
    Const(Value),
}

/// A borrowed, kernel-dispatchable view of an [`Operand`].
enum View<'a> {
    /// Null-free `INTEGER` column slice.
    ICol(&'a [i64]),
    /// Null-free `DOUBLE` column slice.
    FCol(&'a [f64]),
    /// `INTEGER` literal.
    IConst(i64),
    /// `DOUBLE` literal.
    FConst(f64),
    /// Anything the typed kernels don't cover (generic lane, NULL, text…).
    Other,
}

impl Operand {
    fn view(&self) -> View<'_> {
        match self {
            Operand::Col(c) => match &**c {
                Column::Int(v) => View::ICol(v),
                Column::Float(v) => View::FCol(v),
                Column::Generic(_) => View::Other,
            },
            Operand::Const(Value::Int(i)) => View::IConst(*i),
            Operand::Const(Value::Float(f)) => View::FConst(*f),
            Operand::Const(_) => View::Other,
        }
    }
}

impl BoundExpr {
    /// Evaluate against every row of `batch`, producing one output column.
    ///
    /// Bare column references resolve to a shared handle on the batch's
    /// column (refcount bump), so expressions like `SELECT s FROM t` forward
    /// base-table chunks untouched.
    pub fn eval_batch(&self, batch: &RowBatch) -> Result<ColumnRef> {
        let n = batch.num_rows();
        match self {
            BoundExpr::Literal(v) => Ok(ColumnRef::new(Column::splat(v, n))),
            BoundExpr::Column(i) => Ok(batch.column_shared(*i)),
            BoundExpr::Binary { left, op, right } => {
                let l = eval_operand(left, batch)?;
                let r = eval_operand(right, batch)?;
                eval_binary_kernel(&l, *op, &r, n).map(ColumnRef::new)
            }
            BoundExpr::Unary { op, expr } => {
                let col = expr.eval_batch(batch)?;
                eval_unary_kernel(*op, &col).map(ColumnRef::new)
            }
            // SUBSTR and CONCAT (the encoding experiment's): the scalar
            // path, once per materialized row.
            BoundExpr::ScalarFn { .. } => {
                let mut out = Column::new();
                for i in 0..n {
                    out.push(self.eval(&batch.row(i))?);
                }
                Ok(ColumnRef::new(out))
            }
        }
    }
}

/// Evaluate one side of a binary expression, keeping literals scalar.
fn eval_operand(expr: &BoundExpr, batch: &RowBatch) -> Result<Operand> {
    match expr {
        BoundExpr::Literal(v) => Ok(Operand::Const(v.clone())),
        other => Ok(Operand::Col(other.eval_batch(batch)?)),
    }
}

/// Dispatch a binary operator over typed operand shapes. Operands are
/// borrowed: kernels read column slices in place, whether the column is a
/// freshly computed intermediate or a shared base-table chunk.
fn eval_binary_kernel(l: &Operand, op: BinaryOp, r: &Operand, n: usize) -> Result<Column> {
    use View::{FCol, FConst, ICol, IConst};
    match (l.view(), r.view()) {
        // ---- integer fast lanes ------------------------------------------
        (ICol(a), ICol(b)) => int_kernel(op, a.len(), |i| (a[i], b[i])),
        (ICol(a), IConst(b)) => int_kernel(op, a.len(), |i| (a[i], b)),
        (IConst(a), ICol(b)) => int_kernel(op, b.len(), |i| (a, b[i])),

        // ---- float fast lanes (and int→float promotion) -------------------
        (FCol(a), FCol(b)) => float_kernel(op, a.len(), |i| (a[i], b[i])),
        (FCol(a), FConst(b)) => float_kernel(op, a.len(), |i| (a[i], b)),
        (FConst(a), FCol(b)) => float_kernel(op, b.len(), |i| (a, b[i])),
        (ICol(a), FCol(b)) if is_numeric_op(op) => {
            float_kernel(op, a.len(), |i| (a[i] as f64, b[i]))
        }
        (FCol(a), ICol(b)) if is_numeric_op(op) => {
            float_kernel(op, a.len(), |i| (a[i], b[i] as f64))
        }
        (ICol(a), FConst(b)) if is_numeric_op(op) => {
            float_kernel(op, a.len(), |i| (a[i] as f64, b))
        }
        (FConst(a), ICol(b)) if is_numeric_op(op) => {
            float_kernel(op, b.len(), |i| (a, b[i] as f64))
        }
        (FCol(a), IConst(b)) if is_numeric_op(op) => {
            float_kernel(op, a.len(), |i| (a[i], b as f64))
        }
        (IConst(a), FCol(b)) if is_numeric_op(op) => {
            float_kernel(op, b.len(), |i| (a as f64, b[i]))
        }

        // ---- everything else: per-row Value semantics ---------------------
        _ => {
            let mut out = Column::new();
            for i in 0..n {
                let a = operand_value(l, i);
                let b = operand_value(r, i);
                out.push(apply_binary(&a, op, &b)?);
            }
            Ok(out)
        }
    }
}

fn operand_value(o: &Operand, i: usize) -> Value {
    match o {
        Operand::Col(c) => c.value_at(i),
        Operand::Const(v) => v.clone(),
    }
}

/// True for operators that promote `INTEGER` to `DOUBLE` when mixed
/// (arithmetic and comparisons; bitwise/shift require integer operands and
/// must keep the row path's type error).
fn is_numeric_op(op: BinaryOp) -> bool {
    !matches!(
        op,
        BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::BitXor | BinaryOp::Shl | BinaryOp::Shr
    )
}

/// Integer kernel: both operands are null-free `i64`. Mirrors the checked
/// arithmetic of [`Value`]'s operators exactly, including overflow and
/// division-by-zero errors and the `<<` widening into `HUGEINT`.
fn int_kernel(op: BinaryOp, n: usize, at: impl Fn(usize) -> (i64, i64)) -> Result<Column> {
    macro_rules! map_checked {
        ($f:expr) => {{
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let (a, b) = at(i);
                out.push($f(a, b)?);
            }
            Ok(Column::Int(out))
        }};
    }
    macro_rules! map_infallible {
        ($f:expr) => {{
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let (a, b) = at(i);
                out.push($f(a, b));
            }
            Ok(Column::Int(out))
        }};
    }
    match op {
        BinaryOp::Add => map_checked!(|a: i64, b: i64| a
            .checked_add(b)
            .ok_or_else(|| Error::Eval("integer overflow in +".into()))),
        BinaryOp::Sub => map_checked!(|a: i64, b: i64| a
            .checked_sub(b)
            .ok_or_else(|| Error::Eval("integer overflow in -".into()))),
        BinaryOp::Mul => map_checked!(|a: i64, b: i64| a
            .checked_mul(b)
            .ok_or_else(|| Error::Eval("integer overflow in *".into()))),
        BinaryOp::BitAnd => map_infallible!(|a, b| a & b),
        BinaryOp::BitOr => map_infallible!(|a, b| a | b),
        BinaryOp::BitXor => map_infallible!(|a, b| a ^ b),
        BinaryOp::Shr => map_checked!(|a: i64, b: i64| {
            if b < 0 {
                return Err(Error::Eval("negative shift amount".into()));
            }
            Ok(if b >= 64 { 0 } else { ((a as u64) >> b) as i64 })
        }),
        BinaryOp::Shl => {
            // `<<` widens into HUGEINT on i64 overflow; start on the fast
            // lane and restart through Value::shl if any row widens.
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let (a, b) = at(i);
                if b < 0 {
                    return Err(Error::Eval("negative shift amount".into()));
                }
                let widened = b >= 64
                    || i64::try_from((a as i128) << b).map(|v| out.push(v)).is_err();
                if widened {
                    let mut vals: Vec<Value> = out.drain(..).map(Value::Int).collect();
                    for j in i..n {
                        let (a, b) = at(j);
                        vals.push(Value::Int(a).shl(&Value::Int(b))?);
                    }
                    return Ok(Column::Generic(vals));
                }
            }
            Ok(Column::Int(out))
        }
        BinaryOp::Eq => map_infallible!(|a, b| (a == b) as i64),
        #[cfg(not(feature = "canary"))]
        BinaryOp::Gt => map_infallible!(|a, b| (a > b) as i64),
        // Intentional mutation (the `canary` feature, test-only): `>` on the
        // Int fast lane evaluates as `>=`, so the batch path diverges from
        // the row reference — the differential harness must catch this.
        #[cfg(feature = "canary")]
        BinaryOp::Gt => map_infallible!(|a, b| (a >= b) as i64),
    }
}

/// Float kernel: both operands are (possibly promoted) null-free `f64`.
/// Comparisons use the same total order as [`Value::sql_cmp`].
fn float_kernel(op: BinaryOp, n: usize, at: impl Fn(usize) -> (f64, f64)) -> Result<Column> {
    macro_rules! map_float {
        ($f:expr) => {{
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let (a, b) = at(i);
                out.push($f(a, b));
            }
            Ok(Column::Float(out))
        }};
    }
    macro_rules! map_cmp {
        ($f:expr) => {{
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let (a, b) = at(i);
                let ord = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
                out.push($f(ord) as i64);
            }
            Ok(Column::Int(out))
        }};
    }
    use std::cmp::Ordering;
    match op {
        BinaryOp::Add => map_float!(|a, b| a + b),
        BinaryOp::Sub => map_float!(|a, b| a - b),
        BinaryOp::Mul => map_float!(|a, b| a * b),
        BinaryOp::Eq => map_cmp!(|o| o == Ordering::Equal),
        BinaryOp::Gt => map_cmp!(|o| o == Ordering::Greater),
        BinaryOp::BitAnd
        | BinaryOp::BitOr
        | BinaryOp::BitXor
        | BinaryOp::Shl
        | BinaryOp::Shr => Err(Error::Type(
            "bitwise operator requires integer operands, got DOUBLE and DOUBLE".into(),
        )),
    }
}

fn eval_unary_kernel(op: UnaryOp, col: &Column) -> Result<Column> {
    match (op, col) {
        (UnaryOp::Neg, Column::Int(v)) => {
            let mut out = Vec::with_capacity(v.len());
            for &i in v {
                out.push(
                    i.checked_neg()
                        .ok_or_else(|| Error::Eval("integer overflow in unary -".into()))?,
                );
            }
            Ok(Column::Int(out))
        }
        (UnaryOp::Neg, Column::Float(v)) => Ok(Column::Float(v.iter().map(|f| -f).collect())),
        (UnaryOp::BitNot, Column::Int(v)) => Ok(Column::Int(v.iter().map(|i| !i).collect())),
        (op, col) => {
            let mut out = Column::new();
            for i in 0..col.len() {
                let v = col.value_at(i);
                out.push(match op {
                    UnaryOp::Neg => v.neg()?,
                    UnaryOp::BitNot => v.bit_not()?,
                });
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::schema::{Field, RelSchema};
    use crate::storage::spill::Row;

    fn schema() -> RelSchema {
        RelSchema::new(vec![
            Field::new(Some("t"), "s"),
            Field::new(Some("t"), "r"),
            Field::new(Some("t"), "i"),
            Field::new(Some("t"), "x"),
        ])
    }

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(0), Value::Float(1.0), Value::Float(0.0), Value::Null],
            vec![Value::Int(5), Value::Float(0.5), Value::Float(-0.25), Value::Int(1)],
            vec![Value::Int(6), Value::Float(-2.0), Value::Float(0.5), Value::Str("a".into())],
            vec![Value::Int(-3), Value::Float(0.0), Value::Float(4.0), Value::Float(2.5)],
        ]
    }

    /// The equivalence oracle: eval_batch must agree with row-wise eval.
    fn check(sql: &str) {
        let expr = crate::expr::bind(&parse_expr(sql).unwrap(), &schema()).unwrap();
        let rows = rows();
        let batch = RowBatch::from_rows(&rows);
        let batched = expr.eval_batch(&batch);
        let rowwise: std::result::Result<Vec<Value>, Error> =
            rows.iter().map(|r| expr.eval(r)).collect();
        match (batched, rowwise) {
            (Ok(col), Ok(vals)) => {
                for (i, v) in vals.iter().enumerate() {
                    // Compare representations exactly: Int must stay Int.
                    assert_eq!(
                        format!("{:?}", col.value_at(i)),
                        format!("{v:?}"),
                        "{sql} row {i}"
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (b, r) => panic!("{sql}: batch {b:?} vs rows {r:?}"),
        }
    }

    #[test]
    fn gate_mask_expressions_match_row_path() {
        check("(s & ~1) | 2");
        check("(s >> 1) & 3");
        check("s << 2");
        check("s ^ 6");
        check("(r * 0.5) - (i * 0.25)");
        check("(r * 0.0) + (i * 1.0)");
    }

    #[test]
    fn comparisons_and_mixed_types_match_row_path() {
        check("s = 5");
        check("s > 0");
        check("r > s");
        check("s = r");
        check("x > s");
        check("s + r");
        check("s * 2");
        check("2.5 - r");
        check("x + 1");
    }

    #[test]
    fn fallback_constructs_match_row_path() {
        check("CONCAT(s, x)");
        check("-s");
        check("-r");
    }

    #[test]
    fn shl_widens_into_hugeint_like_row_path() {
        // 1 << 62 fits; 1 << 63 overflows i64 and widens to HUGEINT.
        let expr = crate::expr::bind(&parse_expr("s << 62").unwrap(), &schema()).unwrap();
        let batch = RowBatch::from_rows(&[vec![
            Value::Int(1),
            Value::Float(0.0),
            Value::Float(0.0),
            Value::Null,
        ]]);
        assert!(matches!(&*expr.eval_batch(&batch).unwrap(), Column::Int(_)));
        let expr = crate::expr::bind(&parse_expr("s << 63").unwrap(), &schema()).unwrap();
        let col = expr.eval_batch(&batch).unwrap();
        assert!(matches!(col.value_at(0), Value::Big(_)));
    }

    #[test]
    fn int_overflow_errors_match_row_path() {
        let expr =
            crate::expr::bind(&parse_expr("s + 1").unwrap(), &schema()).unwrap();
        let batch = RowBatch::from_rows(&[vec![
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(0.0),
            Value::Null,
        ]]);
        assert!(expr.eval_batch(&batch).is_err());
    }

    #[test]
    fn min_times_neg_one_errors_not_panics() {
        // i64::MIN * -1 and -i64::MIN overflow; both paths must error, not abort.
        let row = vec![Value::Int(i64::MIN), Value::Float(0.0), Value::Float(0.0), Value::Null];
        let batch = RowBatch::from_rows(std::slice::from_ref(&row));
        for sql in ["s * -1", "-s"] {
            let expr = crate::expr::bind(&parse_expr(sql).unwrap(), &schema()).unwrap();
            assert!(expr.eval_batch(&batch).is_err(), "{sql} batch");
            assert!(expr.eval(&row).is_err(), "{sql} row");
        }
    }
}
