//! Multi-statement transactions: `BEGIN` / `COMMIT` / `ROLLBACK` with
//! savepoints, and the in-memory rollback machinery that pairs with the
//! WAL's transaction-scoped frames.
//!
//! A [`Database`](crate::db::Database) is one session: it has at most one
//! open transaction, the `TxnState` below (crate-private) — an undo stack
//! of O(1) copy-on-write table states, savepoint marks into that stack and
//! the WAL frame id. Its frame is therefore contiguous in the log.
//!
//! Rollback is purely in-memory and O(statements), not O(rows): each
//! mutated table's pre-statement chunk list is captured once per
//! statement (`UndoEntry::Mutated`), a created table is undone by
//! dropping it, and a dropped table is kept alive in the undo stack
//! (`UndoEntry::Dropped`) — budget charge included — until the
//! transaction resolves.
//!
//! The undo stack also says which tables the transaction created: those
//! reach the WAL only at `COMMIT`, whole and only if still alive
//! (`TxnState::created_at`, `TxnState::created_tables`). Dropping one
//! that no later savepoint can bring back frees it at once
//! (`TxnState::forget_created`): no rollback could restore it without
//! also undoing its creation.

use crate::table::{Table, TableUndo};

/// One undoable effect of a statement inside an open transaction, pushed
/// *after* the in-memory apply succeeds. Rollback pops these in reverse.
#[derive(Debug)]
pub(crate) enum UndoEntry {
    /// A table was appended to (INSERT, bulk load): `undo` restores the
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
/// the log, so nothing a repair does to the file can make a mark stale.
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

/// State of the open transaction — a `BEGIN` … `COMMIT` block or the
/// implicit one-statement transaction every auto-commit mutation runs as.
/// Owned by the database so abort, checkpoint and crash paths can reach
/// its undo stack.
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
}

impl TxnState {
    /// Position of the `Created` entry of the live table `name` when this
    /// transaction created it: the newest entry naming it is a `Created`
    /// (later `Mutated` entries aside), not a `Dropped`.
    pub fn created_at(&self, name: &str) -> Option<usize> {
        for (at, entry) in self.undo.iter().enumerate().rev() {
            match entry {
                UndoEntry::Created { name: n } if n.eq_ignore_ascii_case(name) => return Some(at),
                UndoEntry::Dropped { table } if table.name().eq_ignore_ascii_case(name) => {
                    return None
                }
                _ => {}
            }
        }
        None
    }

    /// Names of the tables this transaction created and still holds, in
    /// the order they were created.
    pub fn created_tables(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut names = Vec::new();
        for entry in self.undo.iter().rev() {
            let (name, created) = match entry {
                UndoEntry::Created { name } => (name.as_str(), true),
                UndoEntry::Dropped { table } => (table.name(), false),
                UndoEntry::Mutated { .. } => continue,
            };
            if seen.insert(name.to_ascii_lowercase()) && created {
                names.push(name.to_string());
            }
        }
        names.reverse();
        names
    }

    /// Forget the table `name` created at `at` (see [`Self::created_at`])
    /// once it is dropped: its `Created` entry and its later `Mutated`
    /// entries leave the stack, so the table is freed rather than
    /// stashed. Refused (`false`, nothing changed) when a savepoint was
    /// set after `at`, since `ROLLBACK TO` it must bring the table back.
    /// Earlier savepoints mark depths at or below `at`, which the removal
    /// leaves where they were.
    pub fn forget_created(&mut self, at: usize, name: &str) -> bool {
        if self.savepoints.iter().any(|m| m.undo_len > at) {
            return false;
        }
        let mut index = 0;
        self.undo.retain(|entry| {
            let mine = index >= at
                && match entry {
                    UndoEntry::Created { name: n } => n.eq_ignore_ascii_case(name),
                    UndoEntry::Mutated { table, .. } => table.eq_ignore_ascii_case(name),
                    UndoEntry::Dropped { .. } => false,
                };
            index += 1;
            !mine
        });
        true
    }
}
