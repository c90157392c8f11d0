//! Bound (column-resolved) expressions and their evaluation.
//!
//! The planner rewrites AST expressions into [`BoundExpr`] where every column
//! reference is an index into the input row. Aggregates never reach this
//! layer — the planner replaces them with column references into the
//! aggregation operator's output before binding.

use crate::ast::{self, BinaryOp, Expr, Literal, UnaryOp};
use crate::error::{Error, Result};
use crate::schema::RelSchema;
use crate::storage::spill::Row;
use crate::value::Value;

/// Scalar (non-aggregate) built-in functions: the two the string-encoded
/// states of the encoding experiment need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `SUBSTR(text, start, len)` — 1-based, like SQLite.
    Substr,
    /// `CONCAT(a, b, …)` — string concatenation.
    Concat,
}

/// Functions no caller needs, so the engine does not implement them: binding
/// one is [`Error::Unsupported`]; any other unknown name is a plan error.
const UNSUPPORTED_FUNCS: [&str; 18] = [
    "ABS", "SQRT", "POW", "FLOOR", "CEIL", "ROUND", "COS", "SIN", "EXP", "LN", "SIGN",
    "COALESCE", "LENGTH", "UPPER", "LOWER", "MIN", "MAX", "AVG",
];

impl ScalarFunc {
    fn by_name(name: &str) -> Option<ScalarFunc> {
        let is = |f: &str| name.eq_ignore_ascii_case(f);
        if is("SUBSTR") || is("SUBSTRING") {
            Some(ScalarFunc::Substr)
        } else if is("CONCAT") {
            Some(ScalarFunc::Concat)
        } else {
            None
        }
    }

    fn arity_ok(&self, n: usize) -> bool {
        match self {
            ScalarFunc::Substr => n == 2 || n == 3,
            ScalarFunc::Concat => n >= 1,
        }
    }
}

/// Column-resolved expression ready for evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Literal(Value),
    Column(usize),
    Unary { op: UnaryOp, expr: Box<BoundExpr> },
    Binary { left: Box<BoundExpr>, op: BinaryOp, right: Box<BoundExpr> },
    ScalarFn { func: ScalarFunc, args: Vec<BoundExpr> },
}

/// Convert an AST literal to a runtime value.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Big(b) => Value::Big(b.clone()),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::Str(s.clone()),
    }
}

/// Bind `expr` against `schema`, resolving column references to indices.
pub fn bind(expr: &Expr, schema: &RelSchema) -> Result<BoundExpr> {
    bind_with(expr, &mut |e| match e {
        Expr::Column { table, name } => {
            Ok(Some(BoundExpr::Column(schema.resolve(table.as_deref(), name)?)))
        }
        _ => Ok(None),
    })
}

/// Bind `expr`, offering every subtree to `leaf` first: `Some` is that
/// subtree's binding, `None` binds it here. Column references are `leaf`'s
/// to bind; the planner's binder over an aggregate also takes group keys
/// and aggregate calls there.
pub(crate) fn bind_with<'e>(
    expr: &'e Expr,
    leaf: &mut impl FnMut(&'e Expr) -> Result<Option<BoundExpr>>,
) -> Result<BoundExpr> {
    if let Some(bound) = leaf(expr)? {
        return Ok(bound);
    }
    Ok(match expr {
        Expr::Literal(l) => BoundExpr::Literal(literal_value(l)),
        Expr::Column { .. } => {
            return Err(Error::Internal(format!("column `{expr}` left unbound")));
        }
        Expr::Unary { op, expr } => BoundExpr::Unary {
            op: *op,
            expr: Box::new(bind_with(expr, leaf)?),
        },
        Expr::Binary { left, op, right } => BoundExpr::Binary {
            left: Box::new(bind_with(left, leaf)?),
            op: *op,
            right: Box::new(bind_with(right, leaf)?),
        },
        Expr::Function { name, args } => {
            if ast::is_aggregate_name(name) {
                return Err(Error::Plan(format!(
                    "aggregate `{name}` is not allowed in this context"
                )));
            }
            let func = ScalarFunc::by_name(name).ok_or_else(|| {
                if UNSUPPORTED_FUNCS.iter().any(|f| f.eq_ignore_ascii_case(name)) {
                    Error::Unsupported(format!("function `{name}`"))
                } else {
                    Error::Plan(format!("unknown function `{name}`"))
                }
            })?;
            if !func.arity_ok(args.len()) {
                return Err(Error::Plan(format!(
                    "wrong number of arguments to `{name}`: {}",
                    args.len()
                )));
            }
            BoundExpr::ScalarFn {
                func,
                args: args.iter().map(|a| bind_with(a, leaf)).collect::<Result<_>>()?,
            }
        }
        Expr::Star => return Err(Error::Plan("`*` is not a scalar expression".into())),
    })
}

impl BoundExpr {
    /// Evaluate against one input row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Column(i) => Ok(row[*i].clone()),
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOp::Neg => v.neg(),
                    UnaryOp::BitNot => v.bit_not(),
                }
            }
            BoundExpr::Binary { left, op, right } => {
                apply_binary(&left.eval(row)?, *op, &right.eval(row)?)
            }
            BoundExpr::ScalarFn { func, args } => eval_scalar_fn(*func, args, row),
        }
    }

    /// Apply `f` to every column index the expression reads.
    pub fn columns_mut(&mut self, f: &mut impl FnMut(&mut usize)) {
        match self {
            BoundExpr::Literal(_) => {}
            BoundExpr::Column(i) => f(i),
            BoundExpr::Unary { expr, .. } => expr.columns_mut(f),
            BoundExpr::Binary { left, right, .. } => {
                left.columns_mut(f);
                right.columns_mut(f);
            }
            BoundExpr::ScalarFn { args, .. } => args.iter_mut().for_each(|a| a.columns_mut(f)),
        }
    }
}

/// A binary operator over two values: the row path, and the batch path's
/// lane for rows its typed kernels do not cover.
pub(crate) fn apply_binary(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    use std::cmp::Ordering::{Equal, Greater};
    let cmp = |holds: fn(std::cmp::Ordering) -> bool| -> Result<Value> {
        Ok(Value::Int(holds(l.sql_cmp(r)?) as i64))
    };
    match op {
        BinaryOp::Add => l.add(r),
        BinaryOp::Sub => l.sub(r),
        BinaryOp::Mul => l.mul(r),
        BinaryOp::BitAnd => l.bit_and(r),
        BinaryOp::BitOr => l.bit_or(r),
        BinaryOp::BitXor => l.bit_xor(r),
        BinaryOp::Shl => l.shl(r),
        BinaryOp::Shr => l.shr(r),
        BinaryOp::Eq => cmp(|o| o == Equal),
        BinaryOp::Gt => cmp(|o| o == Greater),
    }
}

fn eval_scalar_fn(func: ScalarFunc, args: &[BoundExpr], row: &Row) -> Result<Value> {
    let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect::<Result<_>>()?;
    Ok(match func {
        ScalarFunc::Substr => {
            let Value::Str(s) = &vals[0] else {
                return Err(Error::Type(format!(
                    "SUBSTR expects TEXT, got {}",
                    vals[0].data_type()
                )));
            };
            let chars: Vec<char> = s.chars().collect();
            let start = vals[1].as_i64()?.max(1) as usize - 1;
            let len = if vals.len() == 3 {
                vals[2].as_i64()?.max(0) as usize
            } else {
                chars.len().saturating_sub(start)
            };
            let end = (start + len).min(chars.len());
            let out: String = chars.get(start.min(chars.len())..end).unwrap_or(&[]).iter().collect();
            Value::Str(out)
        }
        ScalarFunc::Concat => {
            let mut out = String::new();
            for v in &vals {
                match v {
                    Value::Str(s) => out.push_str(s),
                    other => out.push_str(&other.to_string()),
                }
            }
            Value::Str(out)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::schema::{Field, RelSchema};

    fn schema() -> RelSchema {
        RelSchema::new(vec![
            Field::new(Some("t"), "s"),
            Field::new(Some("t"), "r"),
            Field::new(Some("t"), "i"),
        ])
    }

    fn eval_with(sql: &str, row: Vec<Value>) -> Result<Value> {
        let e = parse_expr(sql).unwrap();
        let b = bind(&e, &schema())?;
        b.eval(&row)
    }

    fn row() -> Vec<Value> {
        vec![Value::Int(5), Value::Float(0.5), Value::Float(-0.25)]
    }

    #[test]
    fn fig2_projection_expression() {
        // ((T0.s & ~1) | out) with s=5, out=0 → 4
        let v = eval_with("(s & ~1) | 0", row()).unwrap();
        assert_eq!(v, Value::Int(4));
    }

    #[test]
    fn complex_multiplication_expressions() {
        // the complex product terms from Fig. 2c
        let re = eval_with("(r * 2.0) - (i * 0.0)", row()).unwrap();
        assert_eq!(re, Value::Float(1.0));
        let im = eval_with("(r * 0.0) + (i * 2.0)", row()).unwrap();
        assert_eq!(im, Value::Float(-0.5));
    }

    #[test]
    fn comparisons_are_true_or_false() {
        assert_eq!(eval_with("r > i", row()).unwrap(), Value::Int(1));
        assert_eq!(eval_with("s > 4", row()).unwrap(), Value::Int(1));
        assert_eq!(eval_with("s > 5", row()).unwrap(), Value::Int(0));
    }

    #[test]
    fn binder_rejects_aggregates_and_unknowns() {
        let e = parse_expr("SUM(r)").unwrap();
        assert!(bind(&e, &schema()).is_err());
        let e = parse_expr("ABS(r)").unwrap();
        assert_eq!(bind(&e, &schema()), Err(Error::Unsupported("function `ABS`".into())));
        let e = parse_expr("MIN(r)").unwrap();
        assert_eq!(bind(&e, &schema()), Err(Error::Unsupported("function `MIN`".into())));
        let e = parse_expr("SUBTSR(r, 1)").unwrap();
        assert_eq!(bind(&e, &schema()), Err(Error::Plan("unknown function `SUBTSR`".into())));
        let e = parse_expr("nocolumn").unwrap();
        assert!(bind(&e, &schema()).is_err());
    }

    #[test]
    fn constant_evaluation_and_column_collection() {
        let b = bind(&parse_expr("1 + 2 * 3").unwrap(), &schema()).unwrap();
        assert_eq!(b.eval(&vec![]).unwrap(), Value::Int(7));
        let mut b = bind(&parse_expr("s + r").unwrap(), &schema()).unwrap();
        let mut cols = Vec::new();
        b.columns_mut(&mut |c| cols.push(*c));
        assert_eq!(cols, vec![0, 1]);
    }

    #[test]
    fn shift_precedence_evaluates_like_c() {
        // 1 << 2 + 3 = 1 << 5 = 32
        assert_eq!(eval_with("1 << 2 + 3", row()).unwrap(), Value::Int(32));
        // a & 1 << 2 with s=5: 5 & 4 = 4
        assert_eq!(eval_with("s & 1 << 2", row()).unwrap(), Value::Int(4));
    }
}

#[cfg(test)]
mod string_fn_tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::schema::RelSchema;

    fn eval(sql: &str) -> Result<Value> {
        bind(&parse_expr(sql).unwrap(), &RelSchema::default())?.eval(&vec![])
    }

    #[test]
    fn substr_semantics() {
        assert_eq!(eval("SUBSTR('010110', 2, 3)").unwrap(), Value::Str("101".into()));
        assert_eq!(eval("SUBSTR('abc', 2)").unwrap(), Value::Str("bc".into()));
        assert_eq!(eval("SUBSTR('abc', 1, 0)").unwrap(), Value::Str("".into()));
        assert_eq!(eval("SUBSTR('abc', 9, 2)").unwrap(), Value::Str("".into()));
        assert!(eval("SUBSTR(5, 1, 1)").is_err());
    }

    #[test]
    fn concat_semantics() {
        assert_eq!(eval("CONCAT('0', '1', '1')").unwrap(), Value::Str("011".into()));
        assert_eq!(eval("CONCAT('p=', 1)").unwrap(), Value::Str("p=1".into()));
    }
}
