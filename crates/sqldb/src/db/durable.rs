//! The durable half of [`Database`]: opening a directory, replaying what
//! recovery found, and the checkpoint policy (explicit, automatic after a
//! large WAL, and the forced one that heals a poisoned log).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use super::Database;
use crate::ast::Statement;
use crate::error::{Error, Result};
use crate::parser::parse_statement;
use crate::storage::budget::MemoryBudget;
use crate::storage::fault::FaultInjector;
use crate::storage::wal::{
    CkptSource, DurableStore, FsyncPolicy, Recovered, WalOp, DEFAULT_CHECKPOINT_BYTES,
};
use crate::txn::UndoEntry;

/// Configuration for [`Database::open_with`].
pub struct DurabilityOptions {
    /// When WAL bytes are forced to stable storage (default: per commit).
    pub fsync: FsyncPolicy,
    /// Auto-checkpoint once the WAL exceeds this many bytes (0 = never).
    pub checkpoint_every_bytes: u64,
    /// Memory ledger shared by tables and operators.
    pub budget: MemoryBudget,
    /// Fault-injection gate for every disk path (tests arm schedules on
    /// it; production passes the default quiescent injector).
    pub injector: Arc<FaultInjector>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::default(),
            checkpoint_every_bytes: DEFAULT_CHECKPOINT_BYTES,
            budget: MemoryBudget::unlimited(),
            injector: FaultInjector::none(),
        }
    }
}

impl Database {
    /// Open (or create) a **durable** database rooted at `dir`: every
    /// mutation is written ahead to a checksummed log and survives a
    /// crash; reopening recovers the last checkpoint plus the committed
    /// WAL prefix, tolerating a torn tail. Query execution is identical to
    /// an in-memory database.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, DurabilityOptions::default())
    }

    /// [`Database::open`] with explicit [`DurabilityOptions`].
    pub fn open_with(dir: impl AsRef<Path>, opts: DurabilityOptions) -> Result<Self> {
        let start = Instant::now();
        let (mut store, recovered) =
            DurableStore::open(dir.as_ref(), opts.fsync, Arc::clone(&opts.injector))?;
        store.checkpoint_every_bytes = opts.checkpoint_every_bytes;
        let mut db = Self::in_memory(opts.budget, opts.injector);
        db.apply_recovered(recovered)?;
        db.recovery.ms = start.elapsed().as_secs_f64() * 1e3;
        db.durable = Some(store);
        Ok(db)
    }

    /// Rebuild in-memory state from a recovered checkpoint and committed
    /// WAL frames: the image's chunks and the log's row blocks go straight
    /// into [`Table::append_batch`]. Runs before the store is attached, so
    /// replay applies to memory only and is never re-logged.
    ///
    /// [`Table::append_batch`]: crate::table::Table::append_batch
    fn apply_recovered(&mut self, recovered: Recovered) -> Result<()> {
        if let Some((_, tables)) = recovered.checkpoint {
            for t in tables {
                self.catalog.create_table(&t.name, t.columns, false, self.budget.clone())?;
                let table = self.catalog.get_mut(&t.name)?;
                for chunk in &t.chunks {
                    table.append_batch(chunk)?;
                }
            }
        }
        self.recovery.frames = recovered.frames.len() as u64;
        for op in recovered.frames.into_iter().flat_map(|f| f.ops) {
            self.apply_wal_op(op)?;
            self.recovery.ops_applied += 1;
        }
        Ok(())
    }

    /// Apply one recovered WAL operation to the in-memory catalog.
    fn apply_wal_op(&mut self, op: WalOp) -> Result<()> {
        match op {
            WalOp::CreateTable { name, columns } => {
                self.catalog.create_table(&name, columns, false, self.budget.clone())?;
            }
            WalOp::DropTable { name } => {
                self.catalog.drop_table(&name, false)?;
            }
            WalOp::Insert { table, rows } => {
                self.catalog.get_mut(&table)?.append_batch(&rows)?;
            }
            WalOp::Delete { table, predicate } => {
                // Predicates are logged as SQL text; expressions are pure,
                // so re-parsing and re-evaluating replays deterministically.
                let where_clause = match predicate {
                    None => None,
                    Some(text) => {
                        let sql = format!("DELETE FROM {table} WHERE {text}");
                        match parse_statement(&sql)? {
                            Statement::Delete { where_clause, .. } => where_clause,
                            _ => {
                                return Err(Error::Internal(
                                    "logged DELETE predicate did not re-parse".into(),
                                ))
                            }
                        }
                    }
                };
                self.run_delete(&table, where_clause.as_ref())?;
            }
        }
        Ok(())
    }

    /// The database directory when opened with [`Database::open`].
    pub fn storage_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(DurableStore::dir)
    }

    /// Serialize the **committed** state of all tables into a new
    /// checkpoint image. Between transactions that is the live catalog and
    /// the WAL is truncated behind the image; while a transaction is open
    /// the image is built from the transactions' undo stacks (each table's
    /// pre-transaction state) and the WAL is kept so the in-flight frames
    /// stay replayable. Errors with [`Error::Unsupported`] on an in-memory
    /// database.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.durable.is_none() {
            return Err(Error::Unsupported(
                "checkpoint requires a database opened with a path".into(),
            ));
        }
        let keep_wal = self.txns.values().any(|t| t.wal_txn.is_some());
        let sources = self.committed_sources();
        let store = self.durable.as_mut().expect("checked above");
        store.checkpoint(&sources, keep_wal)
    }

    /// Whether the write-ahead log is poisoned (a failed truncate-repair
    /// left it refusing appends). A poisoned log self-heals via a forced
    /// checkpoint at the next statement boundary with no open transaction.
    /// Always `false` for in-memory databases.
    pub fn wal_poisoned(&self) -> bool {
        self.durable.as_ref().is_some_and(DurableStore::is_poisoned)
    }

    /// The committed view of every table, sorted by name: the live catalog,
    /// overridden per table by the *first* undo entry any open transaction
    /// holds for it (strict 2PL guarantees at most one transaction has
    /// touched a given table).
    fn committed_sources(&self) -> Vec<CkptSource> {
        enum View<'a> {
            /// Mutated in-txn: the pre-transaction chunk snapshot.
            Snapshot(&'a crate::table::TableUndo),
            /// Created in-txn: absent from committed state.
            Absent,
            /// Dropped in-txn: the stashed table is the committed state.
            Stashed(&'a crate::table::Table),
        }
        let mut views: HashMap<String, View> = HashMap::new();
        for txn in self.txns.values() {
            for entry in &txn.undo {
                let (key, view) = match entry {
                    UndoEntry::Mutated { table, undo } => {
                        (table.to_ascii_lowercase(), View::Snapshot(undo))
                    }
                    UndoEntry::Created { name } => {
                        (name.to_ascii_lowercase(), View::Absent)
                    }
                    UndoEntry::Dropped { table } => {
                        (table.name().to_ascii_lowercase(), View::Stashed(table))
                    }
                };
                // First touch wins: the oldest entry holds the state from
                // before the transaction.
                views.entry(key).or_insert(view);
            }
        }
        let mut sources = Vec::new();
        for t in self.catalog.tables_sorted() {
            match views.get(&t.name().to_ascii_lowercase()) {
                None => sources.push(CkptSource {
                    name: t.name().to_string(),
                    columns: t.columns().to_vec(),
                    rows: t.row_count(),
                    snapshot: t.snapshot(),
                }),
                Some(View::Snapshot(undo)) => sources.push(CkptSource {
                    name: t.name().to_string(),
                    columns: t.columns().to_vec(),
                    rows: undo.rows(),
                    snapshot: undo.snapshot(),
                }),
                // Created (or dropped-then-recreated) inside an open
                // transaction: the live table is uncommitted.
                Some(View::Absent) | Some(View::Stashed(_)) => {}
            }
        }
        for view in views.values() {
            if let View::Stashed(table) = view {
                sources.push(CkptSource {
                    name: table.name().to_string(),
                    columns: table.columns().to_vec(),
                    rows: table.row_count(),
                    snapshot: table.snapshot(),
                });
            }
        }
        sources.sort_by(|a, b| a.name.cmp(&b.name));
        sources
    }

    /// Auto-checkpoint after a committed mutation once the WAL is large.
    /// Deferred while any transaction is open (a keep-tail checkpoint
    /// cannot shrink the log, so re-triggering every statement would just
    /// burn I/O). Failures are swallowed: the statement already committed,
    /// the WAL still covers everything, and the next trigger will retry.
    pub(super) fn maybe_auto_checkpoint(&mut self) {
        if !self.txns.is_empty() {
            return;
        }
        if self.durable.as_ref().is_some_and(DurableStore::wants_checkpoint) {
            let _ = self.checkpoint();
        }
    }

    /// Self-heal a poisoned WAL (a failed truncate-repair left the log
    /// refusing appends): once no transaction is open, force a full
    /// checkpoint at the next statement boundary — the image captures the
    /// current committed state and the log is reset behind it. Swallows
    /// failures; the statement then surfaces the poisoned-log error and
    /// the next statement retries the heal.
    pub(super) fn maybe_heal_poisoned(&mut self) {
        if !self.txns.is_empty() {
            return;
        }
        if self.durable.as_ref().is_some_and(DurableStore::is_poisoned) {
            let _ = self.checkpoint();
        }
    }
}
