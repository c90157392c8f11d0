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

/// Parse a single SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let st = p.statement()?;
    p.eat(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(st)
}

/// Parse a `;`-separated script into statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
        if !p.eat(&TokenKind::Semicolon) {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// Parse a standalone scalar expression (used by tests and the translator).
pub fn parse_expr(sql: &str) -> Result<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Precedence of `NOT x`: between `AND` and the comparisons.
const NOT_PREC: u8 = 3;
/// Precedence of the comparisons, `IS [NOT] NULL`, `[NOT] IN` and
/// `BETWEEN`. They do not associate: `a = b = c` is an error.
const CMP_PREC: u8 = 4;

/// The binary operator a token spells, with its precedence (higher binds
/// tighter). Every level is left-associative except the comparisons.
fn infix(kind: &TokenKind) -> Option<(BinaryOp, u8)> {
    Some(match kind {
        TokenKind::Word(_, Some(Keyword::Or)) => (BinaryOp::Or, 1),
        TokenKind::Word(_, Some(Keyword::And)) => (BinaryOp::And, 2),
        TokenKind::Eq => (BinaryOp::Eq, CMP_PREC),
        TokenKind::NotEq => (BinaryOp::NotEq, CMP_PREC),
        TokenKind::Lt => (BinaryOp::Lt, CMP_PREC),
        TokenKind::LtEq => (BinaryOp::LtEq, CMP_PREC),
        TokenKind::Gt => (BinaryOp::Gt, CMP_PREC),
        TokenKind::GtEq => (BinaryOp::GtEq, CMP_PREC),
        TokenKind::Pipe => (BinaryOp::BitOr, 5),
        TokenKind::Caret => (BinaryOp::BitXor, 6),
        TokenKind::Amp => (BinaryOp::BitAnd, 7),
        TokenKind::Shl => (BinaryOp::Shl, 8),
        TokenKind::Shr => (BinaryOp::Shr, 8),
        TokenKind::Plus => (BinaryOp::Add, 9),
        TokenKind::Minus => (BinaryOp::Sub, 9),
        TokenKind::Star => (BinaryOp::Mul, 10),
        TokenKind::Slash => (BinaryOp::Div, 10),
        TokenKind::Percent => (BinaryOp::Mod, 10),
        _ => return None,
    })
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

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    /// A parse error at the current token: "expected `what`, found …".
    fn expected(&self, what: &str) -> Error {
        Error::parse(self.peek_pos(), format!("expected {what}, found {}", self.peek().describe()))
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
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

    /// A name: any bare word, keywords included, or a quoted identifier.
    fn ident(&mut self, what: &str) -> Result<&'a str> {
        match *self.peek() {
            TokenKind::Word(name, _) | TokenKind::Quoted(name) => {
                self.bump();
                Ok(name)
            }
            _ => Err(self.expected(what)),
        }
    }

    /// `AS name`, or a bare name that is not a clause keyword.
    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw(Keyword::As) {
            return Ok(Some(self.ident("alias")?.to_string()));
        }
        let name = match *self.peek() {
            TokenKind::Word(name, kw) if !kw.is_some_and(Keyword::is_clause) => name,
            TokenKind::Quoted(name) => name,
            _ => return Ok(None),
        };
        self.bump();
        Ok(Some(name.to_string()))
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
            TokenKind::LParen => return Ok(Statement::Query(self.query()?)),
            _ => None,
        };
        match kw {
            Some(Keyword::Create) => self.create_table(),
            Some(Keyword::Drop) => self.drop_table(),
            Some(Keyword::Insert) => self.insert(),
            Some(Keyword::Delete) => self.delete(),
            Some(Keyword::Select | Keyword::With) => Ok(Statement::Query(self.query()?)),
            Some(Keyword::Explain) => {
                self.bump();
                Ok(Statement::Explain(self.query()?))
            }
            Some(Keyword::Begin | Keyword::Start) => {
                self.bump();
                self.transaction_noise();
                Ok(Statement::Begin)
            }
            Some(Keyword::Commit | Keyword::End) => {
                self.bump();
                self.transaction_noise();
                Ok(Statement::Commit)
            }
            Some(Keyword::Rollback) => {
                self.bump();
                self.transaction_noise();
                let to_savepoint = if self.eat_kw(Keyword::To) {
                    self.eat_kw(Keyword::Savepoint);
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

    /// The optional `TRANSACTION` or `WORK` after `BEGIN`, `COMMIT`, ….
    fn transaction_noise(&mut self) {
        if !self.eat_kw(Keyword::Transaction) {
            self.eat_kw(Keyword::Work);
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Create)?;
        self.expect_kw(Keyword::Table)?;
        let if_not_exists = if self.eat_kw(Keyword::If) {
            self.expect_kw(Keyword::Not)?;
            self.expect_kw(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.ident("table name")?.to_string();
        self.expect(&TokenKind::LParen, "`(`")?;
        let columns =
            self.list(|p| Ok((p.ident("column name")?.to_string(), p.data_type()?)))?;
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(Statement::CreateTable { name, columns, if_not_exists })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.ident("type name")?.to_ascii_uppercase();
        let ty = match name.as_str() {
            "INTEGER" | "INT" | "BIGINT" | "SMALLINT" | "TINYINT" => DataType::Integer,
            "HUGEINT" => DataType::HugeInt,
            "DOUBLE" | "REAL" | "FLOAT" | "NUMERIC" | "DECIMAL" => {
                // allow DOUBLE PRECISION
                self.eat_kw(Keyword::Precision);
                DataType::Double
            }
            "TEXT" | "VARCHAR" | "STRING" | "CHAR" => {
                // allow VARCHAR(255)
                if self.eat(&TokenKind::LParen) {
                    if !matches!(self.peek(), TokenKind::Int(_)) {
                        return Err(self.expected("length"));
                    }
                    self.bump();
                    self.expect(&TokenKind::RParen, "`)`")?;
                }
                DataType::Text
            }
            other => return Err(Error::Plan(format!("unknown type `{other}`"))),
        };
        Ok(ty)
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Drop)?;
        self.expect_kw(Keyword::Table)?;
        let if_exists = if self.eat_kw(Keyword::If) {
            self.expect_kw(Keyword::Exists)?;
            true
        } else {
            false
        };
        let name = self.ident("table name")?.to_string();
        Ok(Statement::DropTable { name, if_exists })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Insert)?;
        self.expect_kw(Keyword::Into)?;
        let table = self.ident("table name")?.to_string();
        let columns = if self.eat(&TokenKind::LParen) {
            let cols = self.list(|p| Ok(p.ident("column name")?.to_string()))?;
            self.expect(&TokenKind::RParen, "`)`")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw(Keyword::Values)?;
        let rows = self.list(|p| {
            p.expect(&TokenKind::LParen, "`(`")?;
            let row = p.list(Self::expr)?;
            p.expect(&TokenKind::RParen, "`)`")?;
            Ok(row)
        })?;
        Ok(Statement::Insert { table, columns, rows })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw(Keyword::Delete)?;
        self.expect_kw(Keyword::From)?;
        let table = self.ident("table name")?.to_string();
        let where_clause = if self.eat_kw(Keyword::Where) { Some(self.expr()?) } else { None };
        Ok(Statement::Delete { table, where_clause })
    }

    // ---- queries ----------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw(Keyword::With) {
            // RECURSIVE is accepted but recursion is not supported (detected
            // at plan time when a CTE references itself).
            self.eat_kw(Keyword::Recursive);
            ctes = self.list(|p| {
                let name = p.ident("CTE name")?.to_string();
                p.expect_kw(Keyword::As)?;
                p.expect(&TokenKind::LParen, "`(`")?;
                let q = p.query()?;
                p.expect(&TokenKind::RParen, "`)`")?;
                Ok((name, q))
            })?;
        }
        let body = self.body()?;
        let mut order_by = Vec::new();
        if self.eat_kw(Keyword::Order) {
            self.expect_kw(Keyword::By)?;
            order_by = self.list(|p| {
                let expr = p.expr()?;
                let desc = p.eat_kw(Keyword::Desc);
                if !desc {
                    p.eat_kw(Keyword::Asc);
                }
                Ok(OrderItem { expr, desc })
            })?;
        }
        let limit = if self.eat_kw(Keyword::Limit) { Some(self.unsigned()?) } else { None };
        let offset = if self.eat_kw(Keyword::Offset) { Some(self.unsigned()?) } else { None };
        Ok(Query { ctes, body, order_by, limit, offset })
    }

    fn unsigned(&mut self) -> Result<u64> {
        match *self.peek() {
            TokenKind::Int(v) if v >= 0 => {
                self.bump();
                Ok(v as u64)
            }
            _ => Err(self.expected("nonnegative integer")),
        }
    }

    /// A `SELECT`, possibly parenthesized. `UNION ALL` is refused.
    fn body(&mut self) -> Result<Box<Select>> {
        let body = if self.eat(&TokenKind::LParen) {
            let inner = self.body()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            inner
        } else {
            Box::new(self.select()?)
        };
        if self.peek_kw(Keyword::Union) {
            return Err(Error::Unsupported("UNION ALL".into()));
        }
        Ok(body)
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw(Keyword::Select)?;
        let distinct = self.eat_kw(Keyword::Distinct);
        self.eat_kw(Keyword::All);
        let projection = self.list(Self::select_item)?;
        let mut from = None;
        let mut joins = Vec::new();
        if self.eat_kw(Keyword::From) {
            from = Some(self.table_ref()?);
            loop {
                let kind = match *self.peek() {
                    TokenKind::Word(_, Some(Keyword::Join | Keyword::Inner)) => {
                        self.eat_kw(Keyword::Inner);
                        self.expect_kw(Keyword::Join)?;
                        JoinKind::Inner
                    }
                    TokenKind::Word(_, Some(Keyword::Left)) => {
                        self.bump();
                        self.eat_kw(Keyword::Outer);
                        self.expect_kw(Keyword::Join)?;
                        JoinKind::Left
                    }
                    TokenKind::Word(_, Some(Keyword::Right)) => {
                        return Err(Error::Unsupported("RIGHT JOIN".into()))
                    }
                    // `FROM a, b` is a cross join too.
                    TokenKind::Word(_, Some(Keyword::Cross)) | TokenKind::Comma => {
                        return Err(Error::Unsupported("CROSS JOIN".into()))
                    }
                    _ => break,
                };
                let table = self.table_ref()?;
                self.expect_kw(Keyword::On)?;
                let on = self.expr()?;
                joins.push(Join { kind, table, on });
            }
        }
        let where_clause = if self.eat_kw(Keyword::Where) { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw(Keyword::Group) {
            self.expect_kw(Keyword::By)?;
            group_by = self.list(Self::expr)?;
        }
        let having = if self.eat_kw(Keyword::Having) { Some(self.expr()?) } else { None };
        Ok(Select { distinct, projection, from, joins, where_clause, group_by, having })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // table.* needs two tokens of lookahead
        if let TokenKind::Word(name, _) | TokenKind::Quoted(name) = *self.peek() {
            let next = |k: usize| self.tokens.get(self.pos + k).map(|t| &t.kind);
            if next(1) == Some(&TokenKind::Dot) && next(2) == Some(&TokenKind::Star) {
                self.pos += 3;
                return Ok(SelectItem::QualifiedWildcard(name.to_string()));
            }
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if self.eat(&TokenKind::LParen) {
            let query = self.query()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            self.eat_kw(Keyword::As);
            let alias = self.ident("subquery alias")?.to_string();
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let name = self.ident("table name")?.to_string();
        let alias = self.alias()?;
        Ok(TableRef::Named { name, alias })
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.binary(1)
    }

    /// An expression of operators binding at least as tight as `min`
    /// (precedence climbing). `ceiling` is the loosest operator that may
    /// still follow what is parsed so far: after a comparison only `AND` and
    /// `OR`, and after `NOT x` the same.
    fn binary(&mut self, min: u8) -> Result<Expr> {
        let (mut left, mut ceiling) = if min <= NOT_PREC && self.eat_kw(Keyword::Not) {
            let inner = self.binary(NOT_PREC)?;
            (Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) }, NOT_PREC - 1)
        } else {
            (self.unary()?, u8::MAX)
        };
        let admits = |prec: u8, ceiling: u8| (min..=ceiling).contains(&prec);
        loop {
            if admits(CMP_PREC, ceiling) && self.at_predicate() {
                left = self.predicate(left)?;
                ceiling = CMP_PREC - 1;
                continue;
            }
            let Some((op, prec)) = infix(self.peek()).filter(|&(_, p)| admits(p, ceiling)) else {
                return Ok(left);
            };
            self.bump();
            let right = self.binary(prec + 1)?;
            left = Expr::binary(left, op, right);
            ceiling = if prec == CMP_PREC { CMP_PREC - 1 } else { prec };
        }
    }

    /// Whether a comparison-level postfix form follows: `IS [NOT] NULL`,
    /// `[NOT] IN (…)` or `BETWEEN lo AND hi`.
    fn at_predicate(&self) -> bool {
        use Keyword::{Between, In, Is, Not};
        matches!(self.peek(), TokenKind::Word(_, Some(Is | In | Not | Between)))
    }

    /// The postfix form [`Self::at_predicate`] found, applied to `left`.
    fn predicate(&mut self, left: Expr) -> Result<Expr> {
        if self.eat_kw(Keyword::Is) {
            let negated = self.eat_kw(Keyword::Not);
            self.expect_kw(Keyword::Null)?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        if self.eat_kw(Keyword::Between) {
            let lo = self.binary(CMP_PREC + 1)?;
            self.expect_kw(Keyword::And)?;
            let hi = self.binary(CMP_PREC + 1)?;
            // desugar: left >= lo AND left <= hi
            return Ok(Expr::binary(
                Expr::binary(left.clone(), BinaryOp::GtEq, lo),
                BinaryOp::And,
                Expr::binary(left, BinaryOp::LtEq, hi),
            ));
        }
        let negated = self.eat_kw(Keyword::Not);
        if !self.eat_kw(Keyword::In) {
            return Err(Error::parse(self.peek_pos(), "expected IN after NOT".to_string()));
        }
        self.expect(&TokenKind::LParen, "`(`")?;
        let list = self.list(Self::expr)?;
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(Expr::InList { expr: Box::new(left), list, negated })
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
            TokenKind::Plus => {
                self.bump();
                self.unary()
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
            TokenKind::Star => {
                self.bump();
                return Ok(Expr::Star);
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                return Ok(e);
            }
            &TokenKind::Word(name, kw) => match kw {
                Some(Keyword::Null) => Literal::Null,
                Some(Keyword::True) => Literal::Bool(true),
                Some(Keyword::False) => Literal::Bool(false),
                Some(Keyword::Cast) => return self.cast(),
                Some(Keyword::Case) => return Err(Error::Unsupported("CASE".into())),
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
            &TokenKind::Quoted(name) => return self.named(name),
            _ => return Err(self.expected("expression")),
        };
        self.bump();
        Ok(Expr::Literal(literal))
    }

    /// `CAST(expr AS type)`.
    fn cast(&mut self) -> Result<Expr> {
        self.bump();
        self.expect(&TokenKind::LParen, "`(`")?;
        let e = self.expr()?;
        self.expect_kw(Keyword::As)?;
        let ty = self.data_type()?;
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(Expr::Cast { expr: Box::new(e), ty })
    }

    /// What starts with the name at the current token: a function call, a
    /// qualified column or a bare one.
    fn named(&mut self, name: &'a str) -> Result<Expr> {
        self.bump();
        if self.eat(&TokenKind::LParen) {
            let distinct = self.eat_kw(Keyword::Distinct);
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                args = self.list(|p| match p.eat(&TokenKind::Star) {
                    true => Ok(Expr::Star),
                    false => p.expr(),
                })?;
                self.expect(&TokenKind::RParen, "`)`")?;
            }
            return Ok(Expr::Function { name: name.to_string(), args, distinct });
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
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("begin transaction").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("START TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("COMMIT WORK").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("END").unwrap(), Statement::Commit);
        assert_eq!(
            parse_statement("ROLLBACK").unwrap(),
            Statement::Rollback { to_savepoint: None }
        );
        assert_eq!(
            parse_statement("ROLLBACK TO sp1").unwrap(),
            Statement::Rollback { to_savepoint: Some("sp1".into()) }
        );
        assert_eq!(
            parse_statement("ROLLBACK TO SAVEPOINT sp1").unwrap(),
            Statement::Rollback { to_savepoint: Some("sp1".into()) }
        );
        assert_eq!(
            parse_statement("SAVEPOINT mark").unwrap(),
            Statement::Savepoint { name: "mark".into() }
        );
        assert!(parse_statement("SAVEPOINT").is_err());
        // Round-trip through the pretty-printer.
        for sql in ["BEGIN", "COMMIT", "ROLLBACK", "ROLLBACK TO SAVEPOINT sp1", "SAVEPOINT sp1"] {
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
        assert_eq!(q.order_by.len(), 1);
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
    fn create_insert_delete_statements() {
        let st = parse_statement("CREATE TABLE IF NOT EXISTS T0 (s INTEGER, r DOUBLE, i DOUBLE)")
            .unwrap();
        assert!(matches!(st, Statement::CreateTable { if_not_exists: true, .. }));
        let st =
            parse_statement("INSERT INTO T0 (s, r, i) VALUES (0, 1.0, 0.0), (1, 0.5, 0.5)").unwrap();
        let Statement::Insert { rows, columns, .. } = st else { panic!() };
        assert_eq!(rows.len(), 2);
        assert_eq!(columns.unwrap().len(), 3);
        let st = parse_statement("DELETE FROM T0 WHERE s = 3").unwrap();
        assert!(matches!(st, Statement::Delete { where_clause: Some(_), .. }));
    }

    #[test]
    fn aliases_implicit_and_explicit() {
        let Statement::Query(q) =
            parse_statement("SELECT x foo, y AS bar FROM t u JOIN v AS w ON u.a = w.b").unwrap()
        else {
            panic!()
        };
        let sel = &q.body;
        match &sel.projection[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("foo")),
            other => panic!("{other:?}"),
        }
        assert_eq!(sel.from.as_ref().unwrap().visible_name(), "u");
        assert_eq!(sel.joins[0].table.visible_name(), "w");
    }

    #[test]
    fn subquery_in_from() {
        let Statement::Query(q) =
            parse_statement("SELECT s FROM (SELECT 1 AS s) AS u WHERE s > 0").unwrap()
        else {
            panic!()
        };
        assert!(matches!(q.body.from, Some(TableRef::Subquery { .. })));
    }

    #[test]
    fn count_star_and_distinct() {
        let e = parse_expr("COUNT(*)").unwrap();
        assert!(matches!(&e, Expr::Function { args, .. } if args == &vec![Expr::Star]));
        let e = parse_expr("COUNT(DISTINCT s)").unwrap();
        assert!(matches!(e, Expr::Function { distinct: true, .. }));
    }

    #[test]
    fn between_desugars() {
        let e = parse_expr("x BETWEEN 1 AND 3").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinaryOp::And, .. }));
    }

    #[test]
    fn cast() {
        let e = parse_expr("CAST(x AS DOUBLE)").unwrap();
        assert!(matches!(e, Expr::Cast { ty: DataType::Double, .. }));
    }

    #[test]
    fn script_parsing() {
        let sts = parse_script(
            "CREATE TABLE t (x INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t;",
        )
        .unwrap();
        assert_eq!(sts.len(), 3);
    }

    #[test]
    fn error_positions_are_reported() {
        match parse_statement("SELECT FROM t") {
            Err(Error::Parse { .. }) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(parse_statement("SELECT 1 2").is_err());
        assert!(parse_statement("WITH x AS SELECT 1 SELECT 2").is_err());
    }

    #[test]
    fn display_round_trip_is_stable() {
        let sqls = [
            "SELECT ((T0.s & ~1) | H.out_s) AS s FROM T0 JOIN H ON H.in_s = (T0.s & 1) GROUP BY ((T0.s & ~1) | H.out_s)",
            "WITH a AS (SELECT 1 AS x) SELECT x FROM a ORDER BY x DESC LIMIT 3 OFFSET 1",
            "SELECT x AS v FROM t LEFT JOIN u ON u.y = t.x WHERE x IN (1, 2, 3) AND y IS NULL",
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
            ("SELECT s FROM t LIMIT x", 22, "expected nonnegative integer, found identifier `x`"),
            ("SELECT s FROM t OFFSET -1", 23, "expected nonnegative integer, found `-`"),
            ("CREATE TABLE t (a VARCHAR(x))", 26, "expected length, found identifier `x`"),
            ("SELECT CAST(x AS VARCHAR(-1))", 25, "expected length, found `-`"),
            ("SELECT FROM t", 7, "expected expression, found keyword `FROM`"),
            ("SELECT (1", 9, "expected `)`, found end of input"),
            ("SELECT 1 2", 9, "unexpected integer `2`"),
            ("SELECT a = b = c", 13, "unexpected `=`"),
            ("SELECT a NOT b FROM t", 13, "expected IN after NOT"),
            ("SELECT x IS 1", 12, "expected `NULL`, found integer `1`"),
            ("WITH x AS SELECT 1", 10, "expected `(`, found identifier `SELECT`"),
            ("SELECT a FROM t JOIN u", 22, "expected `ON`, found end of input"),
            ("DELETE t", 7, "expected `FROM`, found identifier `t`"),
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

    #[test]
    fn a_quoted_identifier_is_never_a_keyword() {
        let Statement::Query(q) = parse_statement("SELECT \"from\" FROM t AS \"select\"").unwrap()
        else {
            panic!()
        };
        match &q.body.projection[0] {
            SelectItem::Expr { expr, alias: None } => assert_eq!(expr, &Expr::col("from")),
            other => panic!("{other:?}"),
        }
        assert_eq!(q.body.from.as_ref().unwrap().visible_name(), "select");
        // Bare, the same word is the keyword.
        assert!(parse_statement("SELECT from FROM t").is_err());
    }

    #[test]
    fn is_null_and_in_negated() {
        let e = parse_expr("x IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
        let e = parse_expr("x NOT IN (1, 2)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, .. }));
    }
}
