//! Multi-statement transactions: `BEGIN` / `COMMIT` / `ROLLBACK` with
//! savepoints, a table-granular lock manager for concurrent writers, and
//! the in-memory rollback machinery that pairs with the WAL's
//! transaction-scoped frames.
//!
//! The pieces:
//!
//! * [`lock`] — the strict two-phase-locking lock table
//!   ([`LockTable`] / [`LockGuard`]), with wound-or-die deadlock
//!   resolution and a bounded wait.
//! * [`session`] — [`SharedDb`] / [`Session`]: concurrent sessions over
//!   one database. A session pre-acquires its statement's table locks
//!   *before* taking the engine mutex, so lock waits never stall other
//!   sessions' progress.
//! * The `TxnState` bookkeeping (crate-private) the database keeps per
//!   open transaction: an undo stack of O(1) copy-on-write table states,
//!   savepoint marks into that stack, the WAL frame id, and the locks
//!   held.
//!
//! Rollback is purely in-memory and O(statements), not O(rows): each
//! mutated table's pre-statement chunk list is captured once per
//! statement (`UndoEntry::Mutated`), a created table is undone by
//! dropping it, and a dropped table is kept alive in the undo stack
//! (`UndoEntry::Dropped`) — budget charge included — until the
//! transaction resolves.

pub mod lock;
pub mod session;

pub use lock::{LockGuard, LockMode, LockTable, DEFAULT_LOCK_TIMEOUT_MS};
pub use session::{Session, SharedDb};

use std::collections::BTreeMap;

use crate::ast::{Query, SetExpr, Statement, TableRef};
use crate::table::{Table, TableUndo};

/// One undoable effect of a statement inside an open transaction, pushed
/// *after* the in-memory apply succeeds. Rollback pops these in reverse.
#[derive(Debug)]
pub(crate) enum UndoEntry {
    /// A table was mutated (INSERT / DELETE): `undo` restores the
    /// pre-statement chunk list in O(1).
    Mutated { table: String, undo: TableUndo },
    /// A table was created: rollback drops it.
    Created { name: String },
    /// A table was dropped: the stashed [`Table`] (still charging the
    /// memory budget) is put back on rollback, or finally released on
    /// commit.
    Dropped { table: Table },
}

/// A `SAVEPOINT` mark: the undo-stack depth and logged-op count that
/// `ROLLBACK TO SAVEPOINT` rewinds to. Counts only — no byte offset into
/// the log, so nothing another session does to the file can make a mark
/// stale.
#[derive(Debug)]
pub(crate) struct SavepointMark {
    /// Savepoint name (case-insensitive lookup, latest wins).
    pub name: String,
    /// Undo-stack depth when the savepoint was set.
    pub undo_len: usize,
    /// Ops logged to the WAL frame when the savepoint was set (0 when the
    /// frame had not been opened yet).
    pub ops_logged: u64,
}

/// Per-session state of one open transaction — a `BEGIN` … `COMMIT` block
/// or the implicit one-statement transaction every auto-commit mutation
/// runs as. Owned by the database (keyed by session id) so abort,
/// checkpoint and crash paths can reach every open transaction's undo
/// stack.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    /// WAL frame id, opened lazily at the first logged op — a read-only
    /// transaction commits without touching the log at all.
    pub wal_txn: Option<u64>,
    /// WAL repair epoch observed when the frame was opened. If a
    /// crash-repair truncation bumps it before the transaction resolves,
    /// some of its records may have been cut and `COMMIT` must refuse.
    pub epoch: u64,
    /// Count of op records logged to the frame (savepoint arithmetic).
    pub ops_logged: u64,
    /// Undo stack, oldest first.
    pub undo: Vec<UndoEntry>,
    /// Active savepoints, oldest first.
    pub savepoints: Vec<SavepointMark>,
    /// Table locks held (strict 2PL: released only when the transaction
    /// resolves and this state is dropped).
    pub locks: Vec<LockGuard>,
}

/// The table locks a statement needs, sorted by table name (deterministic
/// acquisition order keeps lock waits canonical across sessions).
///
/// Writers take [`LockMode::Exclusive`] on their target table; queries
/// take [`LockMode::Shared`] on every named relation in `FROM`/`JOIN`
/// (recursing into subqueries and CTE bodies — a CTE *name* that shadows
/// a base table over-locks harmlessly, since locking never requires the
/// table to exist). Transaction-control statements lock nothing.
pub fn locks_for_statement(st: &Statement) -> Vec<(String, LockMode)> {
    let mut wanted: BTreeMap<String, LockMode> = BTreeMap::new();
    match st {
        Statement::CreateTable { name, .. } | Statement::DropTable { name, .. } => {
            add(&mut wanted, name, LockMode::Exclusive);
        }
        Statement::Insert { table, .. } | Statement::Delete { table, .. } => {
            add(&mut wanted, table, LockMode::Exclusive);
        }
        Statement::Query(q) | Statement::Explain(q) => walk_query(q, &mut wanted),
        Statement::Begin
        | Statement::Commit
        | Statement::Rollback { .. }
        | Statement::Savepoint { .. } => {}
    }
    wanted.into_iter().collect()
}

fn add(wanted: &mut BTreeMap<String, LockMode>, name: &str, mode: LockMode) {
    wanted
        .entry(name.to_ascii_lowercase())
        .and_modify(|m| *m = (*m).max(mode))
        .or_insert(mode);
}

fn walk_query(q: &Query, wanted: &mut BTreeMap<String, LockMode>) {
    for (_, cte) in &q.ctes {
        walk_query(cte, wanted);
    }
    walk_set(&q.body, wanted);
}

fn walk_set(s: &SetExpr, wanted: &mut BTreeMap<String, LockMode>) {
    match s {
        SetExpr::Select(sel) => {
            if let Some(from) = &sel.from {
                walk_ref(from, wanted);
            }
            for join in &sel.joins {
                walk_ref(&join.table, wanted);
            }
        }
        SetExpr::UnionAll(a, b) => {
            walk_set(a, wanted);
            walk_set(b, wanted);
        }
    }
}

fn walk_ref(r: &TableRef, wanted: &mut BTreeMap<String, LockMode>) {
    match r {
        TableRef::Named { name, .. } => add(wanted, name, LockMode::Shared),
        TableRef::Subquery { query, .. } => walk_query(query, wanted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn locks(sql: &str) -> Vec<(String, LockMode)> {
        locks_for_statement(&parse_statement(sql).unwrap())
    }

    #[test]
    fn writers_lock_exclusive_readers_shared() {
        assert_eq!(
            locks("INSERT INTO t VALUES (1)"),
            vec![("t".into(), LockMode::Exclusive)]
        );
        assert_eq!(
            locks("DELETE FROM T WHERE a = 1"),
            vec![("t".into(), LockMode::Exclusive)]
        );
        assert_eq!(
            locks("SELECT * FROM a JOIN b ON a.x = b.y"),
            vec![("a".into(), LockMode::Shared), ("b".into(), LockMode::Shared)]
        );
    }

    #[test]
    fn query_walk_reaches_ctes_subqueries_and_unions() {
        let got = locks(
            "WITH c AS (SELECT x FROM base) \
             SELECT * FROM (SELECT * FROM inner1) s \
             JOIN c ON c.x = s.x \
             UNION ALL SELECT * FROM other",
        );
        let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["base", "c", "inner1", "other"]);
        assert!(got.iter().all(|(_, m)| *m == LockMode::Shared));
    }

    #[test]
    fn txn_control_locks_nothing_and_order_is_sorted() {
        assert!(locks("BEGIN").is_empty());
        assert!(locks("COMMIT").is_empty());
        assert!(locks("ROLLBACK").is_empty());
        let got = locks("SELECT * FROM zz JOIN aa ON zz.x = aa.x");
        assert_eq!(got[0].0, "aa");
        assert_eq!(got[1].0, "zz");
    }
}
