//! # qymera-sqldb
//!
//! An embedded relational engine built from scratch as the substrate for the
//! Qymera reproduction (SIGMOD-Companion '25: *"Qymera: Simulating Quantum
//! Circuits using RDBMS"*). The paper runs its generated SQL on SQLite and
//! DuckDB; this crate provides the equivalent capability surface the
//! translation layer needs:
//!
//! * a SQL dialect covering `CREATE TABLE` / `INSERT` / `DELETE` / `SELECT`
//!   with CTEs, joins, grouped aggregation, `UNION ALL`, `ORDER BY`/`LIMIT`,
//!   and — crucially — the full bitwise operator set of the paper's Table 1
//!   (`&`, `|`, `~`, `<<`, `>>`);
//! * `HUGEINT` arbitrary-width integers so basis-state indices are not capped
//!   at 63 qubits (needed for the sparse-circuit memory-limit experiment);
//! * a rule-based optimizer (constant folding, predicate pushdown/migration,
//!   hash-join key extraction);
//! * byte-accurate memory accounting with **out-of-core** hash aggregation
//!   and external merge sort, so the paper's 2.0 GB-limit experiment is
//!   reproducible in software.
//!
//! Entry point: [`Database`].

pub mod ast;
pub mod bigbits;
pub mod catalog;
pub mod db;
pub mod error;
#[warn(missing_docs)]
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod reference;
pub mod schema;
#[warn(missing_docs)]
pub mod storage;
#[warn(missing_docs)]
pub mod table;
#[warn(missing_docs)]
pub mod txn;
pub mod value;
pub mod vexpr;

pub use bigbits::BigBits;
pub use db::{Database, DbStats, DurabilityOptions, RecoveryStats, ResultSet};
pub use error::{Error, Result};
pub use exec::govern::{CancelHandle, QueryContext};
pub use txn::{LockMode, LockTable, Session, SharedDb};
pub use storage::budget::MemoryBudget;
pub use storage::fault::{FaultInjector, FaultKind, FaultSchedule, FaultSite};
pub use storage::wal::FsyncPolicy;
pub use storage::spill::Row;
pub use value::Value;
