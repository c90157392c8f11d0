//! Error taxonomy for the embedded engine.
//!
//! Every fallible public operation returns [`Result<T>`]. Errors are split by
//! pipeline stage so callers (e.g. the Qymera translator, which generates SQL
//! programmatically) can distinguish "the generated SQL is malformed" from
//! "the engine ran out of its memory budget".

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// All errors produced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Tokenizer-level failure (bad character, unterminated string, ...).
    Lex { pos: usize, message: String },
    /// Parser-level failure (unexpected token, missing clause, ...).
    Parse { pos: usize, message: String },
    /// Semantic analysis failure (unknown table/column, arity mismatch, ...).
    Plan(String),
    /// Type error during expression evaluation.
    Type(String),
    /// Runtime evaluation failure (division by zero, overflow, ...).
    Eval(String),
    /// Catalog-level failure (duplicate table, missing table, ...).
    Catalog(String),
    /// The configured memory budget cannot accommodate the operation even
    /// after spilling to disk.
    OutOfMemory { requested: usize, budget: usize },
    /// Error from the disk layer (spill files, WAL, checkpoints).
    Io(String),
    /// The statement was cancelled cooperatively (Ctrl-C, an explicit
    /// [`crate::exec::govern::CancelHandle`], or an injection point). The
    /// engine guarantees the same cleanup contract as any other statement
    /// failure: ledger restored, no orphan spill files, no partial WAL frame.
    Cancelled,
    /// The statement exceeded its deadline (`ms` is the configured timeout).
    /// Same cleanup contract as [`Error::Cancelled`].
    Timeout { ms: u64 },
    /// A commit failed *and* the write-ahead log could not be repaired or
    /// reset behind it (`cause` is the commit's own I/O error): memory is
    /// rolled back, but the `Commit` record may still be on disk, so until a
    /// checkpoint or a reopen succeeds a crash may recover the transaction
    /// or not. Every other statement error means "fully absent".
    CommitInDoubt { cause: String },
    /// The lock table chose this transaction as the deadlock victim: waiting
    /// for `table` would close a cycle in the waits-for graph, and this
    /// transaction is the youngest participant. The transaction has been
    /// rolled back (locks released, tables restored) and an immediate retry
    /// of the whole transaction is valid.
    Deadlock { table: String },
    /// A table lock could not be acquired within the bounded wait (`ms` is
    /// the configured lock timeout). Same rollback contract as
    /// [`Error::Deadlock`]: the transaction has been aborted and may be
    /// retried immediately.
    LockTimeout { table: String, ms: u64 },
    /// Feature recognized but not supported by this engine.
    Unsupported(String),
    /// An engine invariant was violated. Reaching this is a bug, but it
    /// surfaces as a typed error instead of a panic so a single bad query
    /// cannot take down an embedding process.
    Internal(String),
}

impl Error {
    pub(crate) fn lex(pos: usize, message: impl Into<String>) -> Self {
        Error::Lex { pos, message: message.into() }
    }

    pub(crate) fn parse(pos: usize, message: impl Into<String>) -> Self {
        Error::Parse { pos, message: message.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex { pos, message } => write!(f, "lex error at byte {pos}: {message}"),
            Error::Parse { pos, message } => write!(f, "parse error at byte {pos}: {message}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Type(m) => write!(f, "type error: {m}"),
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::OutOfMemory { requested, budget } => write!(
                f,
                "out of memory: requested {requested} bytes with budget {budget} bytes"
            ),
            Error::Io(m) => write!(f, "io error: {m}"),
            Error::Cancelled => write!(f, "statement cancelled"),
            Error::Timeout { ms } => {
                write!(f, "statement timed out after {ms} ms")
            }
            Error::CommitInDoubt { cause } => write!(
                f,
                "commit outcome unknown: {cause}; the write-ahead log could not be \
                 repaired, so the transaction is rolled back in memory but may be \
                 recovered after a crash until a checkpoint or reopen succeeds"
            ),
            Error::Deadlock { table } => write!(
                f,
                "deadlock: transaction rolled back while waiting for table {table}; retry the transaction"
            ),
            Error::LockTimeout { table, ms } => write!(
                f,
                "lock timeout: could not lock table {table} within {ms} ms; transaction rolled back"
            ),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::Internal(m) => write!(f, "internal error (engine bug): {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_stage() {
        let e = Error::parse(7, "expected SELECT");
        assert_eq!(e.to_string(), "parse error at byte 7: expected SELECT");
        let e = Error::OutOfMemory { requested: 10, budget: 5 };
        assert!(e.to_string().contains("budget 5"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("disk gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
    }
}
