//! Recursive-descent SQL parser.
//!
//! Operator precedence follows the C-like convention used by DuckDB/SQLite
//! for the bitwise family, which is what Qymera's generated queries rely on:
//! comparisons bind *looser* than `|`, `^`, `&`, shifts, and arithmetic, so
//! `H.in_s = (T0.s & 1)` parses as expected even without the parentheses.
//! Binary operators are parsed by one precedence-climbing loop over
//! `infix`'s table.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::{tokenize, Keyword, Token, TokenKind};

/// Parse a single SQL statement.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let st = p.statement()?;
    p.expect_eof()?;
    Ok(st)
}

/// Parse a standalone scalar expression (used by tests and the translator).
pub fn parse_expr(sql: &str) -> Result<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Precedence of the comparisons, the loosest binding. They do not
/// associate: `a = b = c` is an error.
const CMP_PREC: u8 = 1;

/// The binary operator a token spells, with its precedence (higher binds
/// tighter). Every level is left-associative except the comparisons.
fn infix(kind: &TokenKind) -> Option<(BinaryOp, u8)> {
    Some(match kind {
        TokenKind::Eq => (BinaryOp::Eq, CMP_PREC),
        TokenKind::Gt => (BinaryOp::Gt, CMP_PREC),
        TokenKind::Pipe => (BinaryOp::BitOr, 2),
        TokenKind::Caret => (BinaryOp::BitXor, 3),
        TokenKind::Amp => (BinaryOp::BitAnd, 4),
        TokenKind::Shl => (BinaryOp::Shl, 5),
        TokenKind::Shr => (BinaryOp::Shr, 5),
        TokenKind::Plus => (BinaryOp::Add, 6),
        TokenKind::Minus => (BinaryOp::Sub, 6),
        TokenKind::Star => (BinaryOp::Mul, 7),
        _ => return None,
    })
}

/// The error for a construct the engine does not have.
fn unsupported<T>(what: &str) -> Result<T> {
    Err(Error::Unsupported(what.into()))
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(sql: &'a str) -> Result<Self> {
        Ok(Parser { tokens: tokenize(sql)?, pos: 0 })
    }

    fn peek(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos].kind
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    /// Step past the current token (never past `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// A parse error at the current token: "expected `what`, found …".
    fn expected(&self, what: &str) -> Error {
        Error::parse(self.peek_pos(), format!("expected {what}, found {}", self.peek().describe()))
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(Error::parse(self.peek_pos(), format!("unexpected {}", self.peek().describe())))
        }
    }

    fn peek_kw(&self, kw: Keyword) -> bool {
        matches!(self.peek(), TokenKind::Word(_, Some(k)) if *k == kw)
    }

    /// True (and consumes) if the next token is the given keyword.
    fn eat_kw(&mut self, kw: Keyword) -> bool {
        let found = self.peek_kw(kw);
        if found {
            self.bump();
        }
        found
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.expected(&format!("`{}`", format!("{kw:?}").to_ascii_uppercase())))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        let found = self.peek() == kind;
        if found {
            self.bump();
        }
        found
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.expected(what))
        }
    }

    /// A name: any word, keywords included.
    fn ident(&mut self, what: &str) -> Result<&'a str> {
        match *self.peek() {
            TokenKind::Word(name, _) => {
                self.bump();
                Ok(name)
            }
            _ => Err(self.expected(what)),
        }
    }

    /// `AS name`, if it follows. A word that is not a clause keyword would
    /// be a bare alias.
    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw(Keyword::As) {
            return Ok(Some(self.ident("alias")?.to_string()));
        }
        match *self.peek() {
            TokenKind::Word(_, kw) if !kw.is_some_and(Keyword::is_clause) => {
                unsupported("a bare alias (write `AS name`)")
            }
            _ => Ok(None),
        }
    }

    /// `item (, item)*`.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.eat(&TokenKind::Comma) {
            out.push(item(self)?);
        }
        Ok(out)
    }

    // ---- statements -------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        let kw = match *self.peek() {
            TokenKind::Word(_, kw) => kw,
            TokenKind::LParen => return unsupported("a parenthesized query"),
            _ => None,
        };
        match kw {
            Some(Keyword::Create) => self.create_table(),
            Some(Keyword::Drop) => {
                self.bump();
                self.expect_kw(Keyword::Table)?;
                let name = self.ident("table name")?.to_string();
                Ok(Statement::DropTable { name, if_exists: false })
            }
            Some(Keyword::Insert) => self.insert(),
            Some(Keyword::Select | Keyword::With) => Ok(Statement::Query(self.query()?)),
            Some(Keyword::Begin) => {
                self.bump();
                Ok(Statement::Begin)
            }
            Some(Keyword::Commit) => {
                self.bump();
                Ok(Statement::Commit)
            }
            Some(Keyword::Rollback) => {
                self.bump();
                let to_savepoint = if self.eat_kw(Keyword::To) {
                    Some(self.ident("savepoint name")?.to_string())
                } else {
                    None
                };
                Ok(Statement::Rollback { to_savepoint })
            }
            Some(Keyword::Savepoint) => {
                self.bump();
                let name = self.ident("savepoint name")?.to_string();
                Ok(Statement::Savepoint { name })
            }
            _ => Err(self.expected("a statement")),
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Create)?;
        self.expect_kw(Keyword::Table)?;
        let name = self.ident("table name")?.to_string();
        self.expect(&TokenKind::LParen, "`(`")?;
        let columns =
            self.list(|p| Ok((p.ident("column name")?.to_string(), p.data_type()?)))?;
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let pos = self.peek_pos();
        let name = self.ident("type name")?;
        let ty = match name.to_ascii_uppercase().as_str() {
            "INTEGER" => DataType::Integer,
            "HUGEINT" => DataType::HugeInt,
            "DOUBLE" => DataType::Double,
            "TEXT" => DataType::Text,
            _ => return Err(Error::parse(pos, format!("unknown type `{name}`"))),
        };
        Ok(ty)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.ident("table name")?.to_string();
        if self.peek() == &TokenKind::LParen {
            return unsupported("an INSERT column list");
        }
        self.expect_kw(Keyword::Values)?;
        let rows = self.list(|p| {
            p.expect(&TokenKind::LParen, "`(`")?;
            let row = p.list(Self::expr)?;
            p.expect(&TokenKind::RParen, "`)`")?;
            Ok(row)
        })?;
        Ok(Statement::Insert { table, rows })
    }

    // ---- queries ----------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw(Keyword::With) {
            ctes = self.list(|p| {
                let name = p.ident("CTE name")?.to_string();
                p.expect_kw(Keyword::As)?;
                p.expect(&TokenKind::LParen, "`(`")?;
                let q = p.query()?;
                p.expect(&TokenKind::RParen, "`)`")?;
                Ok((name, q))
            })?;
        }
        if self.peek() == &TokenKind::LParen {
            return unsupported("a parenthesized query");
        }
        let body = Box::new(self.select()?);
        let mut order_by = None;
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            let key = self.expr()?;
            if let Expr::Literal(Literal::Int(_)) = key {
                return unsupported("ORDER BY an ordinal");
            }
            if self.peek() == &TokenKind::Comma {
                return unsupported("a second ORDER BY key");
            }
            order_by = Some(key);
        }
        Ok(Query { ctes, body, order_by })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw(Keyword::Select)?;
        if self.peek_kw(Keyword::Distinct) {
            return unsupported("SELECT DISTINCT");
        }
        let projection = self.list(Self::select_item)?;
        if !self.eat_kw(Keyword::From) {
            return match self.peek() {
                TokenKind::Eof | TokenKind::RParen => unsupported("SELECT without FROM"),
                _ => Err(self.expected("`FROM`")),
            };
        }
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            match *self.peek() {
                TokenKind::Word(_, Some(Keyword::Join)) => self.bump(),
                // `FROM a, b` is a cross join.
                TokenKind::Comma => return unsupported("CROSS JOIN"),
                _ => break,
            }
            let table = self.table_ref()?;
            self.expect_kw(Keyword::On)?;
            let on = self.expr()?;
            joins.push(Join { table, on });
        }
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            group_by = self.list(Self::expr)?;
        }
        let having = if self.eat_kw(Keyword::Having) { Some(self.expr()?) } else { None };
        Ok(Select { projection, from, joins, group_by, having })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.peek() == &TokenKind::Star {
            return unsupported("`*` in a select list");
        }
        let next = |k: usize| self.tokens.get(self.pos + k).map(|t| &t.kind);
        if next(1) == Some(&TokenKind::Dot) && next(2) == Some(&TokenKind::Star) {
            return unsupported("`table.*`");
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(SelectItem { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if self.peek() == &TokenKind::LParen {
            return unsupported("a subquery in FROM");
        }
        let name = self.ident("table name")?.to_string();
        let alias = self.alias()?;
        Ok(TableRef { name, alias })
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.binary(1)
    }

    /// An expression of operators binding at least as tight as `min`
    /// (precedence climbing). Nothing follows a comparison at its level.
    fn binary(&mut self, min: u8) -> Result<Expr> {
        let mut left = self.unary()?;
        let mut ceiling = u8::MAX;
        while let Some((op, prec)) =
            infix(self.peek()).filter(|&(_, p)| (min..=ceiling).contains(&p))
        {
            self.bump();
            let right = self.binary(prec + 1)?;
            left = Expr::binary(left, op, right);
            ceiling = if prec == CMP_PREC { CMP_PREC - 1 } else { prec };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let inner = self.unary()?;
                // fold negative literals for nicer plans
                if let Expr::Literal(Literal::Int(v)) = inner {
                    return Ok(Expr::Literal(Literal::Int(-v)));
                }
                if let Expr::Literal(Literal::Float(v)) = inner {
                    return Ok(Expr::Literal(Literal::Float(-v)));
                }
                Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) })
            }
            TokenKind::Tilde => {
                self.bump();
                let inner = self.unary()?;
                Ok(Expr::Unary { op: UnaryOp::BitNot, expr: Box::new(inner) })
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        let literal = match self.peek() {
            TokenKind::Int(v) => Literal::Int(*v),
            TokenKind::BigInt(b) => Literal::Big((**b).clone()),
            TokenKind::Float(v) => Literal::Float(*v),
            TokenKind::Str(s) => Literal::Str(s.replace("''", "'")),
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                return Ok(e);
            }
            &TokenKind::Word(name, kw) => match kw {
                // Clause keywords cannot start an expression; catching them
                // here turns `SELECT FROM t` into a clear error instead of a
                // column named `FROM`.
                Some(kw) if kw.is_clause() => {
                    return Err(Error::parse(
                        self.peek_pos(),
                        format!("expected expression, found keyword `{name}`"),
                    ))
                }
                _ => return self.named(name),
            },
            _ => return Err(self.expected("expression")),
        };
        self.bump();
        Ok(Expr::Literal(literal))
    }

    /// What starts with the name at the current token: a function call, a
    /// qualified column or a bare one.
    fn named(&mut self, name: &'a str) -> Result<Expr> {
        self.bump();
        if self.eat(&TokenKind::LParen) {
            if self.peek_kw(Keyword::Distinct) {
                return unsupported(&format!("{}(DISTINCT …)", name.to_ascii_uppercase()));
            }
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                args = self.list(|p| match p.eat(&TokenKind::Star) {
                    true => Ok(Expr::Star),
                    false => p.expr(),
                })?;
                self.expect(&TokenKind::RParen, "`)`")?;
            }
            return Ok(Expr::Function { name: name.to_string(), args });
        }
        if self.eat(&TokenKind::Dot) {
            let col = self.ident("column name")?;
            return Ok(Expr::Column { table: Some(name.to_string()), name: col.to_string() });
        }
        Ok(Expr::Column { table: None, name: name.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig2_query_shape() {
        // Query q1 from Fig. 2c of the paper, verbatim structure.
        let sql = "SELECT ((T0.s & ~1) | H.out_s) AS s, \
                   SUM((T0.r * H.r) - (T0.i * H.i)) AS r, \
                   SUM((T0.r * H.i) + (T0.i * H.r)) AS i \
                   FROM T0 JOIN H ON H.in_s = (T0.s & 1) \
                   GROUP BY ((T0.s & ~1) | H.out_s)";
        let st = parse_statement(sql).unwrap();
        let Statement::Query(q) = st else { panic!("expected query") };
        let sel = &q.body;
        assert_eq!(sel.projection.len(), 3);
        assert_eq!(sel.joins.len(), 1);
        assert_eq!(sel.group_by.len(), 1);
    }

    #[test]
    fn parses_transaction_statements() {
        assert_eq!(parse_statement("begin").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(
            parse_statement("ROLLBACK").unwrap(),
            Statement::Rollback { to_savepoint: None }
        );
        assert_eq!(
            parse_statement("ROLLBACK TO sp1").unwrap(),
            Statement::Rollback { to_savepoint: Some("sp1".into()) }
        );
        assert_eq!(
            parse_statement("SAVEPOINT mark").unwrap(),
            Statement::Savepoint { name: "mark".into() }
        );
        assert!(parse_statement("SAVEPOINT").is_err());
        // Round-trip through the pretty-printer.
        for sql in ["BEGIN", "COMMIT", "ROLLBACK", "ROLLBACK TO sp1", "SAVEPOINT sp1"] {
            let st = parse_statement(sql).unwrap();
            assert_eq!(parse_statement(&st.to_string()).unwrap(), st);
        }
    }

    #[test]
    fn parses_full_cte_chain() {
        let sql = "WITH T1 AS (SELECT s, r, i FROM T0), \
                   T2 AS (SELECT s, r, i FROM T1) \
                   SELECT s, r, i FROM T2 ORDER BY s";
        let Statement::Query(q) = parse_statement(sql).unwrap() else { panic!() };
        assert_eq!(q.ctes.len(), 2);
        assert_eq!(q.order_by, Some(Expr::col("s")));
    }

    #[test]
    fn string_literals_decode_doubled_quotes_and_keep_utf8() {
        assert_eq!(parse_expr("'it''s'").unwrap(), Expr::Literal(Literal::Str("it's".into())));
        assert_eq!(parse_expr("''''").unwrap(), Expr::Literal(Literal::Str("'".into())));
        assert_eq!(parse_expr("'é'").unwrap(), Expr::Literal(Literal::Str("é".into())));
    }

    #[test]
    fn precedence_comparison_binds_loosest() {
        // `a = b & 1` must parse as `a = (b & 1)` (DuckDB/C precedence).
        let e = parse_expr("a = b & 1").unwrap();
        match e {
            Expr::Binary { op: BinaryOp::Eq, right, .. } => match *right {
                Expr::Binary { op: BinaryOp::BitAnd, .. } => {}
                other => panic!("rhs should be &, got {other:?}"),
            },
            other => panic!("expected =, got {other:?}"),
        }
    }

    #[test]
    fn precedence_shift_tighter_than_and() {
        // `a & 1 << 2` = `a & (1 << 2)`
        let e = parse_expr("a & 1 << 2").unwrap();
        match e {
            Expr::Binary { op: BinaryOp::BitAnd, right, .. } => match *right {
                Expr::Binary { op: BinaryOp::Shl, .. } => {}
                other => panic!("rhs should be <<, got {other:?}"),
            },
            other => panic!("expected &, got {other:?}"),
        }
    }

    #[test]
    fn precedence_arith_tighter_than_shift() {
        // `1 << 2 + 3` = `1 << (2 + 3)` = 32
        let e = parse_expr("1 << 2 + 3").unwrap();
        match e {
            Expr::Binary { op: BinaryOp::Shl, right, .. } => match *right {
                Expr::Binary { op: BinaryOp::Add, .. } => {}
                other => panic!("rhs should be +, got {other:?}"),
            },
            other => panic!("expected <<, got {other:?}"),
        }
    }

    #[test]
    fn tilde_is_prefix_and_tight() {
        let e = parse_expr("s & ~1").unwrap();
        match e {
            Expr::Binary { op: BinaryOp::BitAnd, right, .. } => {
                assert!(matches!(*right, Expr::Unary { op: UnaryOp::BitNot, .. }));
            }
            other => panic!("expected &, got {other:?}"),
        }
    }

    #[test]
    fn create_and_insert_statements() {
        let st = parse_statement("CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
        assert!(matches!(st, Statement::CreateTable { columns, .. } if columns.len() == 3));
        let st = parse_statement("INSERT INTO T0 VALUES (0, 1.0, 0.0), (1, 0.5, 0.5)").unwrap();
        let Statement::Insert { rows, .. } = st else { panic!() };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn aliases_need_as() {
        let Statement::Query(q) =
            parse_statement("SELECT x AS foo, y FROM t AS u JOIN v AS w ON u.a = w.b").unwrap()
        else {
            panic!()
        };
        let sel = &q.body;
        assert_eq!(sel.projection[0].alias.as_deref(), Some("foo"));
        assert_eq!(sel.projection[1].alias, None);
        assert_eq!(sel.from.visible_name(), "u");
        assert_eq!(sel.joins[0].table.visible_name(), "w");
    }

    /// The select-list, aggregate and ordering forms no caller sends are
    /// refused by name while parsing; `COUNT(*)`, `*` as multiplication and
    /// one `ORDER BY` key stay.
    #[test]
    fn deleted_select_forms_are_refused() {
        for (sql, what) in [
            ("SELECT DISTINCT s FROM t", "SELECT DISTINCT"),
            ("SELECT * FROM t", "`*` in a select list"),
            ("SELECT s, * FROM t", "`*` in a select list"),
            ("SELECT s x FROM t", "a bare alias (write `AS name`)"),
            ("SELECT s FROM t u", "a bare alias (write `AS name`)"),
            ("SELECT s FROM t JOIN u v ON v.s = t.s", "a bare alias (write `AS name`)"),
            ("SELECT COUNT(DISTINCT s) FROM t", "COUNT(DISTINCT …)"),
            ("SELECT min(DISTINCT s) FROM t", "MIN(DISTINCT …)"),
            ("SELECT s, r FROM t ORDER BY s, r", "a second ORDER BY key"),
            ("SELECT s FROM t ORDER BY 1", "ORDER BY an ordinal"),
        ] {
            assert_eq!(parse_statement(sql), Err(Error::Unsupported(what.into())), "{sql}");
        }
        assert!(parse_statement("SELECT COUNT(*), s * 2 FROM t GROUP BY s ORDER BY s").is_ok());
    }

    #[test]
    fn count_star() {
        let e = parse_expr("COUNT(*)").unwrap();
        assert!(matches!(&e, Expr::Function { args, .. } if args == &vec![Expr::Star]));
    }

    #[test]
    fn error_positions_are_reported() {
        match parse_statement("SELECT FROM t") {
            Err(Error::Parse { .. }) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse_statement("SELECT 1 2 FROM t").is_err());
        assert!(parse_statement("WITH x AS SELECT 1 FROM t SELECT 2 FROM x").is_err());
    }

    #[test]
    fn display_round_trip_is_stable() {
        let sqls = [
            "SELECT ((T0.s & ~1) | H.out_s) AS s FROM T0 JOIN H ON H.in_s = (T0.s & 1) GROUP BY ((T0.s & ~1) | H.out_s)",
            "WITH a AS (SELECT 1 AS x FROM t) SELECT x FROM a ORDER BY x",
            "SELECT x AS v, -(-x) AS w, x > 0 AS z FROM t JOIN u ON u.y = t.x",
            "SELECT x, COUNT(*) AS n FROM t GROUP BY x HAVING COUNT(*) > 1 ORDER BY x",
        ];
        for sql in sqls {
            let st1 = parse_statement(sql).unwrap();
            let printed = st1.to_string();
            let st2 = parse_statement(&printed).unwrap();
            assert_eq!(printed, st2.to_string(), "unstable print for {sql}");
        }
    }

    /// Every parse error points at the token that is wrong, not the one
    /// after it.
    #[test]
    fn parse_errors_point_at_the_offending_token() {
        let cases = [
            ("SELECT s FROM t ORDER BY", 24, "expected expression, found end of input"),
            ("SELECT s FROM t ORDER BY s ASC", 27, "unexpected identifier `ASC`"),
            ("CREATE TABLE t (a VARCHAR)", 18, "unknown type `VARCHAR`"),
            ("CREATE TABLE t (a INT)", 18, "unknown type `INT`"),
            ("SELECT FROM t", 7, "expected expression, found keyword `FROM`"),
            ("SELECT (1", 9, "expected `)`, found end of input"),
            ("SELECT 1 2 FROM t", 9, "expected `FROM`, found integer `2`"),
            ("SELECT a FROM t 2", 16, "unexpected integer `2`"),
            ("SELECT a = b = c FROM t", 13, "expected `FROM`, found `=`"),
            ("SELECT a == b FROM t", 10, "expected expression, found `=`"),
            ("WITH x AS SELECT 1", 10, "expected `(`, found identifier `SELECT`"),
            ("SELECT a FROM t JOIN u", 22, "expected `ON`, found end of input"),
            ("SELECT a FROM t OUTER JOIN u ON a = b", 16, "unexpected identifier `OUTER`"),
            ("CREATE TABLE t (a", 17, "expected type name, found end of input"),
            ("ROLLBACK TO", 11, "expected savepoint name, found end of input"),
            ("UPDATE t", 0, "expected a statement, found identifier `UPDATE`"),
        ];
        for (sql, want_pos, want) in cases {
            match parse_statement(sql) {
                Err(Error::Parse { pos, message }) => {
                    assert_eq!((pos, message.as_str()), (want_pos, want), "{sql}")
                }
                other => panic!("{sql}: expected a parse error, got {other:?}"),
            }
        }
    }
}
