//! Recursive-descent SQL parser.
//!
//! Operator precedence follows the C-like convention used by DuckDB/SQLite
//! for the bitwise family, which is what Qymera's generated queries rely on:
//! comparisons bind *looser* than `|`, `^`, `&`, shifts, and arithmetic, so
//! `H.in_s = (T0.s & 1)` parses as expected even without the parentheses.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parse a single SQL statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let st = p.statement()?;
    p.eat_kind(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(st)
}

/// Parse a `;`-separated script into statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat_kind(&TokenKind::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
        if !p.eat_kind(&TokenKind::Semicolon) {
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

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Self> {
        Ok(Parser { tokens: tokenize(sql)?, pos: 0 })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_pos(&self) -> usize {
        self.tokens[self.pos].pos
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(Error::parse(
                self.peek_pos(),
                format!("unexpected {}", self.peek().describe()),
            ))
        }
    }

    /// True (and consumes) if the next token is the given keyword.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let TokenKind::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.advance();
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::parse(
                self.peek_pos(),
                format!("expected `{kw}`, found {}", self.peek().describe()),
            ))
        }
    }

    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kind(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            Err(Error::parse(
                self.peek_pos(),
                format!("expected {what}, found {}", self.peek().describe()),
            ))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(Error::parse(
                self.peek_pos(),
                format!("expected {what}, found {}", other.describe()),
            )),
        }
    }

    // ---- statements -------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("CREATE") {
            return self.create_table();
        }
        if self.peek_kw("DROP") {
            return self.drop_table();
        }
        if self.peek_kw("INSERT") {
            return self.insert();
        }
        if self.peek_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("EXPLAIN") {
            return Ok(Statement::Explain(self.query()?));
        }
        if self.eat_kw("BEGIN") || self.eat_kw("START") {
            // BEGIN [TRANSACTION | WORK] / START TRANSACTION
            if !self.eat_kw("TRANSACTION") {
                self.eat_kw("WORK");
            }
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") || self.eat_kw("END") {
            if !self.eat_kw("TRANSACTION") {
                self.eat_kw("WORK");
            }
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            if !self.eat_kw("TRANSACTION") {
                self.eat_kw("WORK");
            }
            let to_savepoint = if self.eat_kw("TO") {
                self.eat_kw("SAVEPOINT");
                Some(self.ident("savepoint name")?)
            } else {
                None
            };
            return Ok(Statement::Rollback { to_savepoint });
        }
        if self.eat_kw("SAVEPOINT") {
            let name = self.ident("savepoint name")?;
            return Ok(Statement::Savepoint { name });
        }
        if self.peek_kw("SELECT") || self.peek_kw("WITH") || matches!(self.peek(), TokenKind::LParen)
        {
            return Ok(Statement::Query(self.query()?));
        }
        Err(Error::parse(
            self.peek_pos(),
            format!("expected a statement, found {}", self.peek().describe()),
        ))
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        self.expect_kw("TABLE")?;
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident("table name")?;
        self.expect_kind(&TokenKind::LParen, "`(`")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident("column name")?;
            let ty = self.data_type()?;
            columns.push((col, ty));
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kind(&TokenKind::RParen, "`)`")?;
        Ok(Statement::CreateTable { name, columns, if_not_exists })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.ident("type name")?.to_ascii_uppercase();
        let ty = match name.as_str() {
            "INTEGER" | "INT" | "BIGINT" | "SMALLINT" | "TINYINT" => DataType::Integer,
            "HUGEINT" => DataType::HugeInt,
            "DOUBLE" | "REAL" | "FLOAT" | "NUMERIC" | "DECIMAL" => {
                // allow DOUBLE PRECISION
                self.eat_kw("PRECISION");
                DataType::Double
            }
            "TEXT" | "VARCHAR" | "STRING" | "CHAR" => {
                // allow VARCHAR(255)
                if self.eat_kind(&TokenKind::LParen) {
                    match self.advance() {
                        TokenKind::Int(_) => {}
                        other => {
                            return Err(Error::parse(
                                self.peek_pos(),
                                format!("expected length, found {}", other.describe()),
                            ))
                        }
                    }
                    self.expect_kind(&TokenKind::RParen, "`)`")?;
                }
                DataType::Text
            }
            other => return Err(Error::Plan(format!("unknown type `{other}`"))),
        };
        Ok(ty)
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        self.expect_kw("TABLE")?;
        let if_exists = if self.eat_kw("IF") {
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident("table name")?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident("table name")?;
        let columns = if self.eat_kind(&TokenKind::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident("column name")?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen, "`)`")?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_kind(&TokenKind::LParen, "`(`")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect_kind(&TokenKind::RParen, "`)`")?;
            rows.push(row);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, columns, rows })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident("table name")?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Statement::Delete { table, where_clause })
    }

    // ---- queries ----------------------------------------------------------

    pub(crate) fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw("WITH") {
            // RECURSIVE is accepted but recursion is not supported (detected
            // at plan time when a CTE references itself).
            self.eat_kw("RECURSIVE");
            loop {
                let name = self.ident("CTE name")?;
                self.expect_kw("AS")?;
                self.expect_kind(&TokenKind::LParen, "`(`")?;
                let q = self.query()?;
                self.expect_kind(&TokenKind::RParen, "`)`")?;
                ctes.push((name, q));
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let body = self.body()?;
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.unsigned()?);
        }
        if self.eat_kw("OFFSET") {
            offset = Some(self.unsigned()?);
        }
        Ok(Query { ctes, body, order_by, limit, offset })
    }

    fn unsigned(&mut self) -> Result<u64> {
        match self.advance() {
            TokenKind::Int(v) if v >= 0 => Ok(v as u64),
            other => Err(Error::parse(
                self.peek_pos(),
                format!("expected nonnegative integer, found {}", other.describe()),
            )),
        }
    }

    /// A `SELECT`, possibly parenthesized. `UNION ALL` is refused.
    fn body(&mut self) -> Result<Box<Select>> {
        let body = if self.eat_kind(&TokenKind::LParen) {
            let inner = self.body()?;
            self.expect_kind(&TokenKind::RParen, "`)`")?;
            inner
        } else {
            Box::new(self.select()?)
        };
        if self.peek_kw("UNION") {
            return Err(Error::Unsupported("UNION ALL".into()));
        }
        Ok(body)
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        self.eat_kw("ALL");
        let mut projection = Vec::new();
        loop {
            projection.push(self.select_item()?);
            if !self.eat_kind(&TokenKind::Comma) {
                break;
            }
        }
        let mut from = None;
        let mut joins = Vec::new();
        if self.eat_kw("FROM") {
            from = Some(self.table_ref()?);
            loop {
                let kind = if self.peek_kw("JOIN") || self.peek_kw("INNER") {
                    self.eat_kw("INNER");
                    self.expect_kw("JOIN")?;
                    JoinKind::Inner
                } else if self.peek_kw("LEFT") {
                    self.advance();
                    self.eat_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinKind::Left
                } else if self.peek_kw("RIGHT") {
                    return Err(Error::Unsupported("RIGHT JOIN".into()));
                } else if self.peek_kw("CROSS") || self.peek() == &TokenKind::Comma {
                    // `FROM a, b` is a cross join too.
                    return Err(Error::Unsupported("CROSS JOIN".into()));
                } else {
                    break;
                };
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                let on = self.expr()?;
                joins.push(Join { kind, table, on });
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_kind(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.expr()?) } else { None };
        Ok(Select { distinct, projection, from, joins, where_clause, group_by, having })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_kind(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // table.* needs two tokens of lookahead
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::Dot)
                && self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&TokenKind::Star)
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident("alias")?)
        } else if let TokenKind::Ident(s) = self.peek() {
            // bare alias, but don't swallow clause keywords
            if is_clause_keyword(s) {
                None
            } else {
                let a = s.clone();
                self.advance();
                Some(a)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if self.eat_kind(&TokenKind::LParen) {
            let query = self.query()?;
            self.expect_kind(&TokenKind::RParen, "`)`")?;
            self.eat_kw("AS");
            let alias = self.ident("subquery alias")?;
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let name = self.ident("table name")?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident("alias")?)
        } else if let TokenKind::Ident(s) = self.peek() {
            if is_clause_keyword(s) {
                None
            } else {
                let a = s.clone();
                self.advance();
                Some(a)
            }
        } else {
            None
        };
        Ok(TableRef::Named { name, alias })
    }

    // ---- expressions ------------------------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.bitor_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.bitor_expr()?;
            return Ok(Expr::binary(left, op, right));
        }
        if self.peek_kw("IS") {
            self.advance();
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        if self.peek_kw("IN") || self.peek_kw("NOT") {
            let negated = self.eat_kw("NOT");
            if negated && !self.peek_kw("IN") {
                return Err(Error::parse(self.peek_pos(), "expected IN after NOT".to_string()));
            }
            if self.eat_kw("IN") {
                self.expect_kind(&TokenKind::LParen, "`(`")?;
                let mut list = Vec::new();
                loop {
                    list.push(self.expr()?);
                    if !self.eat_kind(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect_kind(&TokenKind::RParen, "`)`")?;
                return Ok(Expr::InList { expr: Box::new(left), list, negated });
            }
        }
        if self.peek_kw("BETWEEN") {
            self.advance();
            let lo = self.bitor_expr()?;
            self.expect_kw("AND")?;
            let hi = self.bitor_expr()?;
            // desugar: left >= lo AND left <= hi
            return Ok(Expr::binary(
                Expr::binary(left.clone(), BinaryOp::GtEq, lo),
                BinaryOp::And,
                Expr::binary(left, BinaryOp::LtEq, hi),
            ));
        }
        Ok(left)
    }

    fn bitor_expr(&mut self) -> Result<Expr> {
        let mut left = self.bitxor_expr()?;
        while self.eat_kind(&TokenKind::Pipe) {
            let right = self.bitxor_expr()?;
            left = Expr::binary(left, BinaryOp::BitOr, right);
        }
        Ok(left)
    }

    fn bitxor_expr(&mut self) -> Result<Expr> {
        let mut left = self.bitand_expr()?;
        while self.eat_kind(&TokenKind::Caret) {
            let right = self.bitand_expr()?;
            left = Expr::binary(left, BinaryOp::BitXor, right);
        }
        Ok(left)
    }

    fn bitand_expr(&mut self) -> Result<Expr> {
        let mut left = self.shift_expr()?;
        while self.eat_kind(&TokenKind::Amp) {
            let right = self.shift_expr()?;
            left = Expr::binary(left, BinaryOp::BitAnd, right);
        }
        Ok(left)
    }

    fn shift_expr(&mut self) -> Result<Expr> {
        let mut left = self.add_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Shl => BinaryOp::Shl,
                TokenKind::Shr => BinaryOp::Shr,
                _ => break,
            };
            self.advance();
            let right = self.add_expr()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.mul_expr()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                TokenKind::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.unary_expr()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        match self.peek() {
            TokenKind::Minus => {
                self.advance();
                let inner = self.unary_expr()?;
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
                self.advance();
                self.unary_expr()
            }
            TokenKind::Tilde => {
                self.advance();
                let inner = self.unary_expr()?;
                Ok(Expr::Unary { op: UnaryOp::BitNot, expr: Box::new(inner) })
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Int(v)))
            }
            TokenKind::BigInt(b) => {
                self.advance();
                Ok(Expr::Literal(Literal::Big(b)))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Literal::Float(v)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::Str(s)))
            }
            TokenKind::Star => {
                self.advance();
                Ok(Expr::Star)
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect_kind(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("NULL") {
                    self.advance();
                    return Ok(Expr::Literal(Literal::Null));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    self.advance();
                    return Ok(Expr::Literal(Literal::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.advance();
                    return Ok(Expr::Literal(Literal::Bool(false)));
                }
                if name.eq_ignore_ascii_case("CAST") {
                    self.advance();
                    self.expect_kind(&TokenKind::LParen, "`(`")?;
                    let e = self.expr()?;
                    self.expect_kw("AS")?;
                    let ty = self.data_type()?;
                    self.expect_kind(&TokenKind::RParen, "`)`")?;
                    return Ok(Expr::Cast { expr: Box::new(e), ty });
                }
                if name.eq_ignore_ascii_case("CASE") {
                    return Err(Error::Unsupported("CASE".into()));
                }
                // Clause keywords cannot start an expression; catching them
                // here turns `SELECT FROM t` into a clear error instead of a
                // column named `FROM`.
                if is_clause_keyword(&name) {
                    return Err(Error::parse(
                        self.peek_pos(),
                        format!("expected expression, found keyword `{name}`"),
                    ));
                }
                self.advance();
                // function call?
                if self.eat_kind(&TokenKind::LParen) {
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    if !self.eat_kind(&TokenKind::RParen) {
                        loop {
                            if self.eat_kind(&TokenKind::Star) {
                                args.push(Expr::Star);
                            } else {
                                args.push(self.expr()?);
                            }
                            if !self.eat_kind(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect_kind(&TokenKind::RParen, "`)`")?;
                    }
                    return Ok(Expr::Function { name, args, distinct });
                }
                // qualified column?
                if self.eat_kind(&TokenKind::Dot) {
                    let col = self.ident("column name")?;
                    return Ok(Expr::Column { table: Some(name), name: col });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(Error::parse(
                self.peek_pos(),
                format!("expected expression, found {}", other.describe()),
            )),
        }
    }

}

/// Keywords that terminate an implicit alias position. `RIGHT`, `CROSS`,
/// `UNION` and `CASE` are here only to be refused as unsupported.
fn is_clause_keyword(s: &str) -> bool {
    const KWS: &[&str] = &[
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "JOIN", "INNER", "LEFT",
        "RIGHT", "CROSS", "ON", "UNION", "AS", "AND", "OR", "NOT", "ASC", "DESC", "SELECT", "WITH",
        "VALUES", "SET", "BY", "IS", "IN", "BETWEEN", "CASE", "OUTER", "ALL",
    ];
    KWS.iter().any(|k| k.eq_ignore_ascii_case(s))
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

    #[test]
    fn is_null_and_in_negated() {
        let e = parse_expr("x IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
        let e = parse_expr("x NOT IN (1, 2)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, .. }));
    }
}
