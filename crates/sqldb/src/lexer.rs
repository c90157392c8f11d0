//! SQL tokenizer.
//!
//! Covers the dialect Qymera's callers speak (`docs/OPERATORS.md` lists
//! them): the bitwise operator set of Table 1 (`&`, `|`, `~`, `<<`, `>>`),
//! `0x…` hexadecimal literals (which become `HUGEINT` when they exceed 63
//! bits), `=` and `>`. The words and characters of constructs the engine does
//! not have (`AND`, `OR`, `WHERE`, `LIMIT`, `LEFT`, `DESC`, `CAST`, `DELETE`,
//! `<`, `/`, `;`, comments, `"quoted"` names, …) are refused here with
//! [`Error::Unsupported`], before anything is parsed.
//!
//! Tokens borrow the SQL text: a name costs no allocation until the parser
//! puts it in the tree. A word carries the keyword it spells, looked up once
//! here.

use crate::bigbits::BigBits;
use crate::error::{Error, Result};

/// A lexical token with its byte position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub pos: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// A word and the keyword it spells, if any. A keyword still names a
    /// table, column or alias where the grammar expects a name.
    Word(&'a str, Option<Keyword>),
    Int(i64),
    /// Integer literal too large for `i64` (decimal or hex) — HUGEINT.
    BigInt(Box<BigBits>),
    Float(f64),
    /// The text between the quotes of a string literal, `''` still doubled.
    Str(&'a str),
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Amp,
    Pipe,
    Tilde,
    Caret,
    Shl,
    Shr,
    Eq,
    Gt,
    Eof,
}

/// The words the parser reads as keywords, in any case. `All`, `Asc`,
/// `Inner` and `Outer` are in no rule: they stay reserved so that a query
/// using them fails to parse instead of reading them as an alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    All,
    As,
    Asc,
    Begin,
    By,
    Commit,
    Create,
    Distinct,
    Drop,
    From,
    Group,
    Having,
    Inner,
    Insert,
    Into,
    Join,
    On,
    Order,
    Outer,
    Rollback,
    Savepoint,
    Select,
    Table,
    To,
    Values,
    With,
}

impl Keyword {
    /// The keyword `word` spells, if any. A word that begins a construct the
    /// engine does not have is refused wherever it appears, as
    /// [`Error::Unsupported`] naming the construct.
    pub(crate) fn lookup(word: &str) -> Result<Option<Keyword>> {
        use Keyword::*;
        const LONGEST: usize = "SAVEPOINT".len();
        if word.len() < 2 || word.len() > LONGEST {
            return Ok(None);
        }
        let mut buf = [0u8; LONGEST];
        let upper = &mut buf[..word.len()];
        upper.copy_from_slice(word.as_bytes());
        upper.make_ascii_uppercase();
        let refused = |what: &str| Err(Error::Unsupported(what.into()));
        Ok(Some(match &*upper {
            b"ALL" => All,
            b"AS" => As,
            b"ASC" => Asc,
            b"BEGIN" => Begin,
            b"BY" => By,
            b"COMMIT" => Commit,
            b"CREATE" => Create,
            b"DISTINCT" => Distinct,
            b"DROP" => Drop,
            b"FROM" => From,
            b"GROUP" => Group,
            b"HAVING" => Having,
            b"INNER" => Inner,
            b"INSERT" => Insert,
            b"INTO" => Into,
            b"JOIN" => Join,
            b"ON" => On,
            b"ORDER" => Order,
            b"OUTER" => Outer,
            b"ROLLBACK" => Rollback,
            b"SAVEPOINT" => Savepoint,
            b"SELECT" => Select,
            b"TABLE" => Table,
            b"TO" => To,
            b"VALUES" => Values,
            b"WITH" => With,
            b"AND" => return refused("AND"),
            b"BETWEEN" => return refused("BETWEEN"),
            b"CASE" => return refused("CASE"),
            b"CAST" => return refused("CAST"),
            b"CROSS" => return refused("CROSS JOIN"),
            b"DELETE" => return refused("DELETE"),
            b"DESC" => return refused("ORDER BY … DESC"),
            b"EXPLAIN" => return refused("EXPLAIN (call `Database::explain`)"),
            b"FALSE" => return refused("FALSE"),
            b"IF" => return refused("IF [NOT] EXISTS"),
            b"IN" => return refused("IN"),
            b"IS" => return refused("IS [NOT] NULL"),
            b"LEFT" => return refused("LEFT JOIN"),
            b"LIMIT" => return refused("LIMIT"),
            b"NOT" => return refused("NOT"),
            b"NULL" => return refused("NULL"),
            b"OFFSET" => return refused("OFFSET"),
            b"OR" => return refused("OR"),
            b"RECURSIVE" => return refused("WITH RECURSIVE"),
            b"RIGHT" => return refused("RIGHT JOIN"),
            b"TRUE" => return refused("TRUE"),
            b"UNION" => return refused("UNION ALL"),
            b"WHERE" => return refused("WHERE"),
            _ => return Ok(None),
        }))
    }

    /// Keywords that can neither start an expression nor be a bare alias.
    pub(crate) fn is_clause(self) -> bool {
        use Keyword::*;
        matches!(
            self,
            From | Group | Having | Order | Join | Inner | On | As | Asc | Select | With
                | Values | By | Outer | All
        )
    }
}

impl TokenKind<'_> {
    /// Human-readable rendering for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Word(s, _) => format!("identifier `{s}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::BigInt(_) => "huge integer literal".to_string(),
            TokenKind::Float(f) => format!("float `{f}`"),
            TokenKind::Str(s) => format!("string '{s}'"),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::Comma => ",",
            TokenKind::Dot => ".",
            TokenKind::Star => "*",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Amp => "&",
            TokenKind::Pipe => "|",
            TokenKind::Tilde => "~",
            TokenKind::Caret => "^",
            TokenKind::Shl => "<<",
            TokenKind::Shr => ">>",
            TokenKind::Eq => "=",
            TokenKind::Gt => ">",
            _ => "?",
        }
    }
}

/// Tokenize `sql` fully. Returns tokens terminated by `Eof`.
pub fn tokenize(sql: &str) -> Result<Vec<Token<'_>>> {
    let bytes = sql.as_bytes();
    // The translator's SQL runs over two bytes a token: one allocation.
    let mut tokens = Vec::with_capacity(sql.len() / 2 + 2);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'\'' => {
                let start = i;
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(Error::lex(start, "unterminated string literal"));
                    }
                    if bytes[i] == b'\'' {
                        // '' is an escaped quote
                        if bytes.get(i + 1) == Some(&b'\'') {
                            i += 2;
                            continue;
                        }
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token { kind: TokenKind::Str(&sql[start + 1..i]), pos: start });
                i += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                if c == b'0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X')) {
                    i += 2;
                    let hs = i;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    if i == hs {
                        return Err(Error::lex(start, "empty hex literal"));
                    }
                    let hex = &sql[hs..i];
                    let big = BigBits::from_hex(hex)
                        .ok_or_else(|| Error::lex(start, "invalid hex literal"))?;
                    match big.to_i64() {
                        Some(v) if hex.len() <= 15 => {
                            tokens.push(Token { kind: TokenKind::Int(v), pos: start })
                        }
                        _ => tokens
                            .push(Token { kind: TokenKind::BigInt(Box::new(big)), pos: start }),
                    }
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let mut is_float = false;
                    if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                        is_float = true;
                        i += 1;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                        let mut j = i + 1;
                        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                            j += 1;
                        }
                        if j < bytes.len() && bytes[j].is_ascii_digit() {
                            is_float = true;
                            i = j;
                            while i < bytes.len() && bytes[i].is_ascii_digit() {
                                i += 1;
                            }
                        }
                    }
                    let text = &sql[start..i];
                    if is_float {
                        let f: f64 = text
                            .parse()
                            .map_err(|_| Error::lex(start, format!("invalid float `{text}`")))?;
                        tokens.push(Token { kind: TokenKind::Float(f), pos: start });
                    } else {
                        match text.parse::<i64>() {
                            Ok(v) => tokens.push(Token { kind: TokenKind::Int(v), pos: start }),
                            Err(_) => {
                                let big = BigBits::from_decimal(text).ok_or_else(|| {
                                    Error::lex(start, format!("invalid integer `{text}`"))
                                })?;
                                tokens.push(Token {
                                    kind: TokenKind::BigInt(Box::new(big)),
                                    pos: start,
                                });
                            }
                        }
                    }
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &sql[start..i];
                let kind = TokenKind::Word(word, Keyword::lookup(word)?);
                tokens.push(Token { kind, pos: start });
            }
            _ => {
                let refuse = |what: &str| Err(Error::Unsupported(what.into()));
                let (kind, len) = match (bytes.get(i..i + 2).unwrap_or(&[]), c) {
                    (b"<<", _) => (TokenKind::Shl, 2),
                    (b">>", _) => (TokenKind::Shr, 2),
                    // Refused by name: `a --b` is never `a - (-b)`.
                    (b"--", _) => return refuse("`--` comment"),
                    (b"/*", _) => return refuse("`/* */` comment"),
                    (b"!=" | b"<>" | b"<=" | b">=", _) => {
                        return refuse(&format!("`{}`", &sql[i..i + 2]))
                    }
                    (_, b'<' | b'/' | b'%') => return refuse(&format!("`{}`", c as char)),
                    (_, b'"') => return refuse("`\"quoted\"` identifier"),
                    (_, b';') => return refuse("`;` (one statement per call)"),
                    (_, b'(') => (TokenKind::LParen, 1),
                    (_, b')') => (TokenKind::RParen, 1),
                    (_, b',') => (TokenKind::Comma, 1),
                    (_, b'.') => (TokenKind::Dot, 1),
                    (_, b'*') => (TokenKind::Star, 1),
                    (_, b'+') => (TokenKind::Plus, 1),
                    (_, b'-') => (TokenKind::Minus, 1),
                    (_, b'&') => (TokenKind::Amp, 1),
                    (_, b'|') => (TokenKind::Pipe, 1),
                    (_, b'~') => (TokenKind::Tilde, 1),
                    (_, b'^') => (TokenKind::Caret, 1),
                    (_, b'=') => (TokenKind::Eq, 1),
                    (_, b'>') => (TokenKind::Gt, 1),
                    _ => {
                        let what = format!("unexpected character `{}`", c as char);
                        return Err(Error::lex(i, what));
                    }
                };
                tokens.push(Token { kind, pos: i });
                i += len;
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, pos: bytes.len() });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind<'_>> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn bitwise_operators_of_table1() {
        let ks = kinds("a & b | ~c << 2 >> 1");
        assert!(ks.contains(&TokenKind::Amp));
        assert!(ks.contains(&TokenKind::Pipe));
        assert!(ks.contains(&TokenKind::Tilde));
        assert!(ks.contains(&TokenKind::Shl));
        assert!(ks.contains(&TokenKind::Shr));
    }

    #[test]
    fn numbers_int_float_exponent() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("1.5")[0], TokenKind::Float(1.5));
        assert_eq!(kinds("2e3")[0], TokenKind::Float(2000.0));
        assert_eq!(kinds("2.5E-1")[0], TokenKind::Float(0.25));
    }

    #[test]
    fn oversized_decimal_becomes_bigint() {
        let ks = kinds("99999999999999999999999999");
        match &ks[0] {
            TokenKind::BigInt(b) => assert_eq!(b.to_decimal(), "99999999999999999999999999"),
            other => panic!("expected BigInt, got {other:?}"),
        }
    }

    #[test]
    fn hex_literals() {
        assert_eq!(kinds("0xff")[0], TokenKind::Int(255));
        match &kinds("0xffffffffffffffffff")[0] {
            TokenKind::BigInt(b) => assert_eq!(b.bit_len(), 72),
            other => panic!("expected BigInt, got {other:?}"),
        }
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'it''s'")[0], TokenKind::Str("it''s"));
    }

    /// A comment is refused by name, never lexed as two minus signs (`a --b`
    /// would then be `a - (-b)`); the comparisons but `=` and `>`, quoted
    /// names and the words of deleted clauses are refused too, in any case,
    /// while `<<` and `>>` stay.
    #[test]
    fn deleted_forms_are_refused_by_name() {
        for (sql, what) in [
            ("SELECT a --b FROM t", "`--` comment"),
            ("a -- trailing", "`--` comment"),
            ("a /* block */ b", "`/* */` comment"),
            ("a != b", "`!=`"),
            ("a <> b", "`<>`"),
            ("a < b", "`<`"),
            ("a <= b", "`<=`"),
            ("a >= b", "`>=`"),
            ("\"from\"", "`\"quoted\"` identifier"),
            ("a and b", "AND"),
            ("a IN (1)", "IN"),
            ("a is null", "IS [NOT] NULL"),
            ("NOT a", "NOT"),
            ("x > null", "NULL"),
            ("ORDER BY k OFFSET 2", "OFFSET"),
            ("SELECT s FROM t WHERE s > 0", "WHERE"),
            ("SELECT s FROM t LIMIT 1", "LIMIT"),
            ("t left join u", "LEFT JOIN"),
            ("ORDER BY s desc", "ORDER BY … DESC"),
            ("Cast(s AS INTEGER)", "CAST"),
        ] {
            assert_eq!(tokenize(sql), Err(Error::Unsupported(what.into())), "{sql}");
        }
        assert_eq!(kinds("a - -b")[1..3], [TokenKind::Minus, TokenKind::Minus]);
        assert_eq!(kinds("a == b")[1..3], [TokenKind::Eq, TokenKind::Eq]);
        assert_eq!(kinds("a << b >> c > d")[3], TokenKind::Shr);
    }

    #[test]
    fn keywords_are_tagged_in_any_case_and_only_whole() {
        assert_eq!(kinds("select")[0], TokenKind::Word("select", Some(Keyword::Select)));
        let savepoint = Some(Keyword::Savepoint);
        assert_eq!(kinds("SAVEPOINT")[0], TokenKind::Word("SAVEPOINT", savepoint));
        for word in ["selects", "s", "T0", "savepoints", "out_s", "TRANSACTION"] {
            assert_eq!(kinds(word)[0], TokenKind::Word(word, None), "{word}");
        }
        assert!(Keyword::From.is_clause() && !Keyword::Savepoint.is_clause());
    }

    #[test]
    fn errors_carry_position() {
        match tokenize("SELECT 'oops") {
            Err(Error::Lex { pos, .. }) => assert_eq!(pos, 7),
            other => panic!("expected lex error, got {other:?}"),
        }
        assert!(tokenize("a ? b").is_err());
    }

    #[test]
    fn fig2_query_fragment_tokenizes() {
        // Straight from Fig. 2c of the paper.
        let sql = "SELECT ((T0.s & ~1) | H.out_s) AS s FROM T0 JOIN H ON H.in_s = (T0.s & 1)";
        let ks = kinds(sql);
        assert!(ks.len() > 20);
        assert!(ks.contains(&TokenKind::Tilde));
    }
}
