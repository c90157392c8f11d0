//! Vectorized evaluation of [`BoundExpr`] over columnar [`RowBatch`]es.
//!
//! This is the expression half of the batch executor: the operators in
//! [`crate::exec::vector`] hand whole batches to [`BoundExpr::eval_batch`],
//! which runs typed kernels over the `Int`/`Float` lanes — including the
//! bitwise mask arithmetic (`&`, `|`, `~`, `<<`, `>>`) that dominates
//! Qymera's gate joins — and over the `HUGEINT` lane for the bitwise
//! operators the translator emits past 63 qubits, and falls back to the
//! scalar value operators row by row for anything the kernels don't cover
//! (`SUBSTR`/`CONCAT`, comparisons and arithmetic on `HUGEINT`, the `TEXT`
//! lane), collecting the results into the lane of their type.
//!
//! Semantics contract: for every expression and input, `eval_batch` produces
//! exactly the values the row-at-a-time `eval` would produce, each of its
//! type, and errors whenever `eval` would error on some row (the *specific*
//! error surfaced may differ when several rows fail, since kernels evaluate
//! operands column-wise rather than row-wise). A value's type follows from
//! its operands' types, never from their values (`INTEGER << n` past `i64`
//! is an error, as `+` is), so one expression's values over one batch share
//! a type and fill one lane.

use std::borrow::Cow;

use crate::ast::{BinaryOp, UnaryOp};
use crate::bigbits::BigBits;
use crate::error::{Error, Result};
use crate::exec::batch::{Column, ColumnRef, RowBatch};
use crate::expr::{apply_binary, BoundExpr};
use crate::value::{shl_i64, Value};

/// A binary operand: either a shared column handle or a scalar literal kept
/// unsplatted so `col ⊕ constant` kernels avoid materializing the constant
/// 1024 times. Column operands are `Arc`s — resolving a bare column
/// reference never copies row data (it may be a base-table chunk).
enum Operand {
    Col(ColumnRef),
    Const(Value),
}

/// A borrowed, kernel-dispatchable view of an [`Operand`].
#[derive(Clone, Copy)]
enum View<'a> {
    /// `INTEGER` column slice.
    ICol(&'a [i64]),
    /// `DOUBLE` column slice.
    FCol(&'a [f64]),
    /// `INTEGER` literal.
    IConst(i64),
    /// `DOUBLE` literal.
    FConst(f64),
    /// `HUGEINT` column slice.
    BCol(&'a [BigBits]),
    /// `HUGEINT` literal.
    BConst(&'a BigBits),
    /// Anything the typed kernels don't cover (`TEXT`).
    Other,
}

impl Operand {
    fn view(&self) -> View<'_> {
        match self {
            Operand::Col(c) => match &**c {
                Column::Int(v) => View::ICol(v),
                Column::Float(v) => View::FCol(v),
                Column::Big(v) => View::BCol(v),
                Column::Text(_) => View::Other,
            },
            Operand::Const(Value::Int(i)) => View::IConst(*i),
            Operand::Const(Value::Float(f)) => View::FConst(*f),
            Operand::Const(Value::Big(b)) => View::BConst(b),
            Operand::Const(Value::Str(_)) => View::Other,
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
                Column::from_values((0..n).map(|i| self.eval(&batch.row(i)))).map(ColumnRef::new)
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
    use View::{BCol, BConst, FCol, FConst, ICol, IConst};
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

        // ---- HUGEINT bitwise lanes -----------------------------------------
        (a @ (BCol(_) | BConst(_)), b @ (ICol(_) | IConst(_)))
            if matches!(op, BinaryOp::Shl | BinaryOp::Shr) =>
        {
            big_kernel(a, op, b, n)
        }
        (a @ (BCol(_) | BConst(_)), b @ (ICol(_) | IConst(_) | BCol(_) | BConst(_)))
        | (a @ (ICol(_) | IConst(_)), b @ (BCol(_) | BConst(_)))
            if matches!(op, BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::BitXor) =>
        {
            big_kernel(a, op, b, n)
        }

        // ---- everything else: per-row Value semantics ---------------------
        _ => Column::from_values(
            (0..n).map(|i| apply_binary(&operand_value(l, i), op, &operand_value(r, i))),
        ),
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

/// `HUGEINT` kernel: `&`, `|` and `^` with a `HUGEINT` operand and an
/// `INTEGER` or `HUGEINT` other one, and `<<`/`>>` of a `HUGEINT` by an
/// `INTEGER`, reading the `BigBits` in place instead of boxing each row as
/// a [`Value`]. Values, widths and errors are [`Value`]'s: an `INTEGER`
/// operand of `&`/`|`/`^` is a 64-bit `HUGEINT` and must not be negative,
/// and neither may a shift amount.
fn big_kernel(l: View, op: BinaryOp, r: View, n: usize) -> Result<Column> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(match (op, bits_at(l, i), bits_at(r, i)) {
            (BinaryOp::Shl | BinaryOp::Shr, _, Bits::Int(k)) if k < 0 => {
                return Err(Error::Eval("negative shift amount".into()))
            }
            (BinaryOp::Shl, Bits::Big(a), Bits::Int(k)) => a.shl(k as usize),
            (BinaryOp::Shr, Bits::Big(a), Bits::Int(k)) => a.shr(k as usize),
            (BinaryOp::BitAnd, a, b) => wide(a)?.and(&*wide(b)?),
            (BinaryOp::BitOr, a, b) => wide(a)?.or(&*wide(b)?),
            (BinaryOp::BitXor, a, b) => wide(a)?.xor(&*wide(b)?),
            _ => unreachable!("only HUGEINT bitwise operators reach the kernel"),
        });
    }
    Ok(Column::Big(out))
}

/// Row `i` of a `HUGEINT` or `INTEGER` operand.
enum Bits<'a> {
    Big(&'a BigBits),
    Int(i64),
}

/// A bitwise operand as a `HUGEINT`: an `INTEGER` is a 64-bit one, and
/// must not be negative.
fn wide(b: Bits<'_>) -> Result<Cow<'_, BigBits>> {
    match b {
        Bits::Big(x) => Ok(Cow::Borrowed(x)),
        Bits::Int(i) if i >= 0 => Ok(Cow::Owned(BigBits::from_u64(i as u64, 64))),
        Bits::Int(_) => Err(Error::Type("negative INTEGER in HUGEINT bitwise context".into())),
    }
}

fn bits_at(v: View<'_>, i: usize) -> Bits<'_> {
    match v {
        View::BCol(b) => Bits::Big(&b[i]),
        View::BConst(b) => Bits::Big(b),
        View::ICol(a) => Bits::Int(a[i]),
        View::IConst(a) => Bits::Int(a),
        View::FCol(_) | View::FConst(_) | View::Other => unreachable!("HUGEINT or INTEGER"),
    }
}

/// Integer kernel: both operands are `i64`. Mirrors the checked
/// arithmetic of [`Value`]'s operators exactly, including overflow and
/// division-by-zero errors.
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
        BinaryOp::Shl => map_checked!(|a: i64, b: i64| {
            if b < 0 {
                return Err(Error::Eval("negative shift amount".into()));
            }
            shl_i64(a, b as usize)
        }),
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

/// Float kernel: both operands are (possibly promoted) `f64`.
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
        (UnaryOp::BitNot, Column::Big(v)) => Ok(Column::Big(v.iter().map(BigBits::not).collect())),
        (op, col) => Column::from_values((0..col.len()).map(|i| {
            let v = col.value_at(i);
            match op {
                UnaryOp::Neg => v.neg(),
                UnaryOp::BitNot => v.bit_not(),
            }
        })),
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
            Field::new(Some("t"), "h"),
        ])
    }

    /// `x` is a `TEXT` column, `h` a `HUGEINT` one.
    fn rows() -> Vec<Row> {
        let h = |k: u64| Value::Big(crate::bigbits::BigBits::from_u64(k, 70).shl(k as usize));
        vec![
            vec![Value::Int(0), Value::Float(1.0), Value::Float(0.0), Value::Str("".into()), h(0)],
            vec![Value::Int(5), Value::Float(0.5), Value::Float(-0.25), Value::Str("b".into()), h(3)],
            vec![Value::Int(6), Value::Float(-2.0), Value::Float(0.5), Value::Str("a".into()), h(65)],
            vec![Value::Int(-3), Value::Float(0.0), Value::Float(4.0), Value::Str("ab".into()), h(1)],
        ]
    }

    /// The equivalence oracle: eval_batch must agree with row-wise eval.
    fn check(sql: &str) {
        let expr = crate::expr::bind(&parse_expr(sql).unwrap(), &schema()).unwrap();
        let rows = rows();
        let batch = RowBatch::from_rows(&rows).unwrap();
        let batched = expr.eval_batch(&batch);
        let rowwise: std::result::Result<Vec<Value>, Error> =
            rows.iter().map(|r| expr.eval(r)).collect();
        match (batched, rowwise) {
            (Ok(col), Ok(vals)) => {
                for (i, v) in vals.iter().enumerate() {
                    // Compare representations exactly: Int must stay Int,
                    // and a HUGEINT keeps its width.
                    assert_eq!(
                        format!("{:?}", col.value_at(i)),
                        format!("{v:?}"),
                        "{sql} row {i}"
                    );
                }
            }
            (Err(b), Err(r)) => assert_eq!(b, r, "{sql}"),
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
        check("x = 'a'");
        check("s + r");
        check("s * 2");
        check("2.5 - r");
        check("x + 1");
    }

    #[test]
    fn fallback_constructs_match_row_path() {
        check("CONCAT(s, x)");
        check("SUBSTR(x, 1, 1)");
        check("(h >> 2) & 3");
        check("(h & ~1) | 1");
        check("h ^ s");
        check("h = s");
        check("h > 8");
        check("~h");
        check("-s");
        check("-r");
    }

    /// The `HUGEINT` kernel: every bitwise operator over `HUGEINT` columns
    /// of several widths, next to an `INTEGER` column, a literal of each
    /// type, a negative `INTEGER` (a type error), a shift amount read from a
    /// column and a negative one.
    #[test]
    fn hugeint_bitwise_kernel_matches_row_path() {
        for sql in [
            "h ^ h",
            "h & (s & 7)",
            "(s & 7) | h",
            "h ^ 5",
            "5 ^ h",
            "h & 0x100000000000000000",
            "0x100000000000000001 | (s & 3)",
            "h ^ s",
            "s | h",
            "h << (s & 7)",
            "h >> (s & 3)",
            "h << 3",
            "h >> 66",
            "h << s",
            "((h ^ (s & 1)) << 2) >> 1",
        ] {
            check(sql);
        }
    }

    /// `INTEGER << n` is an `INTEGER` or the overflow error, as `+` is: no
    /// row widens into `HUGEINT`, so a batch never holds two types.
    #[test]
    fn shl_overflow_is_an_error_like_row_path() {
        let bind = |sql: &str| crate::expr::bind(&parse_expr(sql).unwrap(), &schema()).unwrap();
        let row = |s: i64| {
            let h = Value::Big(crate::bigbits::BigBits::from_u64(1, 70));
            vec![Value::Int(s), Value::Float(0.0), Value::Float(0.0), Value::Str(String::new()), h]
        };
        let fits = [row(-1), row(1), row(0)];
        let batch = RowBatch::from_rows(&fits).unwrap();
        assert_eq!(*bind("s << 62").eval_batch(&batch).unwrap(), Column::Int(vec![-1 << 62, 1 << 62, 0]));
        let overflow = Error::Eval("integer overflow in <<".into());
        for sql in ["s << 63", "h ^ (s << 63)", "(s << 64) >> 64"] {
            let batch = RowBatch::from_rows(&[row(0), row(4), row(1)]).unwrap();
            assert_eq!(bind(sql).eval_batch(&batch).unwrap_err(), overflow, "{sql}");
            assert_eq!(bind(sql).eval(&row(4)).unwrap_err(), overflow, "{sql}");
            check(sql);
        }
    }

    #[test]
    fn int_overflow_errors_match_row_path() {
        let expr =
            crate::expr::bind(&parse_expr("s + 1").unwrap(), &schema()).unwrap();
        let batch = RowBatch::from_rows(&[vec![
            Value::Int(i64::MAX),
            Value::Float(0.0),
            Value::Float(0.0),
            Value::Str(String::new()),
            Value::Int(0),
        ]])
        .unwrap();
        assert!(expr.eval_batch(&batch).is_err());
    }

    #[test]
    fn min_times_neg_one_errors_not_panics() {
        // i64::MIN * -1 and -i64::MIN overflow; both paths must error, not abort.
        let row = vec![Value::Int(i64::MIN), Value::Float(0.0), Value::Float(0.0), Value::Str("".into()), Value::Int(0)];
        let batch = RowBatch::from_rows(std::slice::from_ref(&row)).unwrap();
        for sql in ["s * -1", "-s"] {
            let expr = crate::expr::bind(&parse_expr(sql).unwrap(), &schema()).unwrap();
            assert!(expr.eval_batch(&batch).is_err(), "{sql} batch");
            assert!(expr.eval(&row).is_err(), "{sql} row");
        }
    }
}
