//! Abstract syntax tree for the supported SQL dialect, plus a pretty-printer
//! whose output re-parses to the same tree (used by round-trip property
//! tests and by `EXPLAIN`-style debugging output).

use std::fmt;

use crate::bigbits::BigBits;

/// A literal constant in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Int(i64),
    Big(BigBits),
    Float(f64),
    Str(String),
}

/// Column data types accepted by `CREATE TABLE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    Integer,
    /// Arbitrary-width unsigned integer (see [`crate::bigbits`]).
    HugeInt,
    Double,
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Integer => write!(f, "INTEGER"),
            DataType::HugeInt => write!(f, "HUGEINT"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Text => write!(f, "TEXT"),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    /// Bitwise NOT `~` (Table 1 of the paper).
    BitNot,
}

/// Binary operators in increasing precedence order groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Eq,
    Gt,
    BitOr,
    BitXor,
    BitAnd,
    Shl,
    Shr,
    Add,
    Sub,
    Mul,
}

impl BinaryOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::Gt => ">",
            BinaryOp::BitOr => "|",
            BinaryOp::BitXor => "^",
            BinaryOp::BitAnd => "&",
            BinaryOp::Shl => "<<",
            BinaryOp::Shr => ">>",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
        }
    }
}

/// Scalar or aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Literal),
    /// `table.column` or bare `column`.
    Column { table: Option<String>, name: String },
    Unary { op: UnaryOp, expr: Box<Expr> },
    Binary { left: Box<Expr>, op: BinaryOp, right: Box<Expr> },
    /// Function call — aggregates (`SUM`, `COUNT`, ...) and the scalars
    /// `SUBSTR` and `CONCAT`. `COUNT(*)` is `Function { args: [Expr::Star] }`.
    Function { name: String, args: Vec<Expr> },
    Star,
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column { table: None, name: name.to_string() }
    }

    pub fn qcol(table: &str, name: &str) -> Expr {
        Expr::Column { table: Some(table.to_string()), name: name.to_string() }
    }

    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    pub fn float(v: f64) -> Expr {
        Expr::Literal(Literal::Float(v))
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// True if the expression contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, args, .. } => {
                is_aggregate_name(name) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            _ => false,
        }
    }

    /// Visit every column reference.
    pub fn visit_columns(&self, f: &mut impl FnMut(&Option<String>, &str)) {
        match self {
            Expr::Column { table, name } => f(table, name),
            Expr::Unary { expr, .. } => expr.visit_columns(f),
            Expr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::Function { args, .. } => args.iter().for_each(|a| a.visit_columns(f)),
            Expr::Literal(_) | Expr::Star => {}
        }
    }
}

/// Names treated as aggregate functions by the planner.
pub fn is_aggregate_name(name: &str) -> bool {
    name.eq_ignore_ascii_case("SUM") || name.eq_ignore_ascii_case("COUNT")
}

/// One item of the SELECT projection list: `expr [AS alias]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

/// A table (or CTE) in FROM, with its alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this relation is addressable by in the enclosing scope.
    pub fn visible_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// `JOIN table ON condition`, the gate join: an inner join, and the only
/// kind there is.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: TableRef,
    pub on: Expr,
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub projection: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<Join>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

/// A full query: optional CTEs, a body and an ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub ctes: Vec<(String, Query)>,
    pub body: Box<Select>,
    /// `ORDER BY expr`: one key, ascending.
    pub order_by: Option<Expr>,
}

/// Top-level statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<(String, DataType)>,
    },
    /// `DROP TABLE name`. `if_exists` is never parsed: only
    /// [`crate::Database::drop_table_if_exists`] builds it.
    DropTable {
        name: String,
        if_exists: bool,
    },
    Insert {
        table: String,
        rows: Vec<Vec<Expr>>,
    },
    Query(Query),
    /// `BEGIN` — open a multi-statement transaction.
    Begin,
    /// `COMMIT` — make every statement since `BEGIN` durable atomically.
    Commit,
    /// `ROLLBACK [TO name]` — discard the whole transaction, or just the
    /// statements after the named savepoint.
    Rollback { to_savepoint: Option<String> },
    /// `SAVEPOINT name` — mark a partial-rollback point inside a transaction.
    Savepoint { name: String },
}

// ---------------------------------------------------------------------------
// Pretty-printer
// ---------------------------------------------------------------------------

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Big(b) => write!(f, "0x{}", b.to_hex()),
            Literal::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Column { table: Some(t), name } => write!(f, "{t}.{name}"),
            Expr::Column { table: None, name } => write!(f, "{name}"),
            Expr::Unary { op: UnaryOp::BitNot, expr } => write!(f, "~{expr}"),
            Expr::Unary { op: UnaryOp::Neg, expr } => match expr.to_string() {
                // `--` would start a comment, which the lexer refuses.
                text if text.starts_with('-') => write!(f, "-({text})"),
                text => write!(f, "-{text}"),
            },
            Expr::Binary { left, op, right } => write!(f, "({left} {} {right})", op.symbol()),
            Expr::Function { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Star => write!(f, "*"),
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.expr),
            None => write!(f, "{}", self.expr),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM {}", self.from)?;
        for j in &self.joins {
            write!(f, " JOIN {} ON {}", j.table, j.on)?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.ctes.is_empty() {
            write!(f, "WITH ")?;
            for (i, (name, q)) in self.ctes.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{name} AS ({q})")?;
            }
            write!(f, " ")?;
        }
        write!(f, "{}", self.body)?;
        if let Some(key) = &self.order_by {
            write!(f, " ORDER BY {key}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable { name, columns } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, (c, t)) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} {t}")?;
                }
                write!(f, ")")
            }
            Statement::DropTable { name, if_exists } => {
                write!(f, "DROP TABLE {}{name}", if *if_exists { "IF EXISTS " } else { "" })
            }
            Statement::Insert { table, rows } => {
                write!(f, "INSERT INTO {table} VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, e) in row.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{e}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Begin => write!(f, "BEGIN"),
            Statement::Commit => write!(f, "COMMIT"),
            Statement::Rollback { to_savepoint: None } => write!(f, "ROLLBACK"),
            Statement::Rollback { to_savepoint: Some(name) } => {
                write!(f, "ROLLBACK TO {name}")
            }
            Statement::Savepoint { name } => write!(f, "SAVEPOINT {name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_display_parenthesizes_binaries() {
        let e = Expr::binary(
            Expr::binary(Expr::qcol("T0", "s"), BinaryOp::BitAnd, Expr::int(1)),
            BinaryOp::BitOr,
            Expr::qcol("H", "out_s"),
        );
        assert_eq!(e.to_string(), "((T0.s & 1) | H.out_s)");
    }

    #[test]
    fn contains_aggregate_detection() {
        let sum = Expr::Function { name: "SUM".into(), args: vec![Expr::col("r")] };
        assert!(sum.contains_aggregate());
        let nested = Expr::binary(sum, BinaryOp::Add, Expr::int(1));
        assert!(nested.contains_aggregate());
        assert!(!Expr::col("r").contains_aggregate());
        let scalar = Expr::Function { name: "SUBSTR".into(), args: vec![Expr::col("x")] };
        assert!(!scalar.contains_aggregate());
    }

    #[test]
    fn visit_columns_collects_references() {
        let e = Expr::binary(Expr::qcol("a", "x"), BinaryOp::Add, Expr::col("y"));
        let mut seen = Vec::new();
        e.visit_columns(&mut |t, n| seen.push((t.clone(), n.to_string())));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (Some("a".to_string()), "x".to_string()));
    }

    #[test]
    fn statement_display() {
        let st = Statement::CreateTable {
            name: "T0".into(),
            columns: vec![("s".into(), DataType::Integer), ("r".into(), DataType::Double)],
        };
        assert_eq!(st.to_string(), "CREATE TABLE T0 (s INTEGER, r DOUBLE)");
    }
}
