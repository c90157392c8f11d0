//! Multi-statement transactions: `BEGIN` / `COMMIT` / `ROLLBACK` with
//! savepoints, and the one record of an open transaction — its undo stack.
//!
//! A [`Database`](crate::db::Database) is one session: it has at most one
//! open transaction, the `TxnState` below (crate-private) — an undo stack
//! of O(1) copy-on-write table states and savepoint marks into that stack.
//!
//! Rollback is purely in-memory and O(statements), not O(rows): each
//! mutated table's pre-statement chunk list is captured once per
//! statement (`UndoEntry::Mutated`), a created table is undone by
//! dropping it, and a dropped table is kept alive in the undo stack
//! (`UndoEntry::Dropped`) — budget charge included — until the
//! transaction resolves. `ROLLBACK` and `ROLLBACK TO` touch nothing else.
//!
//! Nothing of an open transaction is in the write-ahead log: `COMMIT`
//! derives the frame from the undo stack (`TxnState::frame`) — the
//! committed tables it dropped, the rows it appended to the ones still
//! alive (an existing table is only ever appended to, so they are the rows
//! past the oldest `Mutated` entry's count) and the tables it created and
//! still holds, whole. A table created and dropped within the transaction
//! therefore never reaches the log, and dropping one that no later
//! savepoint can bring back frees it at once (`TxnState::forget_created`):
//! no rollback could restore it without also undoing its creation.

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

/// A `SAVEPOINT` mark: the undo-stack depth that `ROLLBACK TO SAVEPOINT`
/// rewinds to.
#[derive(Debug)]
pub(crate) struct SavepointMark {
    /// Savepoint name (case-insensitive lookup, latest wins).
    pub name: String,
    /// Undo-stack depth when the savepoint was set.
    pub undo_len: usize,
}

/// State of the open transaction — a `BEGIN` … `COMMIT` block or the
/// implicit one-statement transaction every auto-commit mutation runs as.
/// Owned by the database so abort, checkpoint and crash paths can reach
/// its undo stack.
#[derive(Debug, Default)]
pub(crate) struct TxnState {
    /// Undo stack, oldest first.
    pub undo: Vec<UndoEntry>,
    /// Active savepoints, oldest first.
    pub savepoints: Vec<SavepointMark>,
}

/// What `COMMIT` writes to the log, read off the undo stack
/// (`TxnState::frame`) and replayed in this order.
#[derive(Debug, Default)]
pub(crate) struct Frame {
    /// Tables that existed at `BEGIN` and that the transaction dropped
    /// (whatever it did to the name afterwards).
    pub dropped: Vec<String>,
    /// Tables that existed at `BEGIN`, still do, and were appended to,
    /// each with its row count at `BEGIN`: the rows past it are the
    /// transaction's.
    pub appended: Vec<(String, usize)>,
    /// Tables the transaction created and still holds, logged whole.
    pub created: Vec<String>,
}

impl Frame {
    /// Whether the transaction changed nothing the log holds.
    pub fn is_empty(&self) -> bool {
        self.dropped.is_empty() && self.appended.is_empty() && self.created.is_empty()
    }
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

    /// The frame `COMMIT` logs. Per table, in order of first mention: the
    /// oldest entry naming it says whether it existed at `BEGIN` (a
    /// `Mutated` or `Dropped` one) and with how many rows; any `Dropped` or
    /// `Created` entry means that table is gone, and the newest of those
    /// whether the name now holds a table the transaction created.
    pub fn frame(&self) -> Frame {
        let mut seen: Vec<(&str, Option<usize>, Option<bool>)> = Vec::new();
        for entry in &self.undo {
            let (name, at_begin, created) = match entry {
                UndoEntry::Mutated { table, undo } => (table.as_str(), Some(undo.rows()), None),
                UndoEntry::Dropped { table } => {
                    (table.name(), Some(table.row_count()), Some(false))
                }
                UndoEntry::Created { name } => (name.as_str(), None, Some(true)),
            };
            match seen.iter_mut().find(|s| s.0.eq_ignore_ascii_case(name)) {
                Some(s) => s.2 = created.or(s.2),
                None => seen.push((name, at_begin, created)),
            }
        }
        let mut frame = Frame::default();
        for (name, at_begin, created) in seen {
            match (at_begin, created) {
                (Some(_), Some(_)) => frame.dropped.push(name.to_string()),
                (Some(rows), None) => frame.appended.push((name.to_string(), rows)),
                (None, _) => {}
            }
            if created == Some(true) {
                frame.created.push(name.to_string());
            }
        }
        frame
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
