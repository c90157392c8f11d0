//! The durable half of [`Database`]: opening a directory, replaying what
//! recovery found, and the checkpoint policy (explicit, automatic after a
//! large WAL, and the forced one that heals a poisoned log).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use super::Database;
use crate::error::{Error, Result};
use crate::storage::budget::MemoryBudget;
use crate::storage::fault::FaultInjector;
use crate::storage::wal::{CkptSource, DurableStore, Recovered, WalOp, DEFAULT_CHECKPOINT_BYTES};
use crate::table::Table;
use crate::txn::UndoEntry;

/// Configuration for [`Database::open_with`]. Every commit and checkpoint
/// fsyncs; nothing here turns that off.
pub struct DurabilityOptions {
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
        let (mut store, recovered) = DurableStore::open(dir.as_ref(), Arc::clone(&opts.injector))?;
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

    /// Apply one recovered WAL operation to the in-memory catalog. Every
    /// operation carries data, not SQL text: replay never parses.
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
        }
        Ok(())
    }

    /// The database directory when opened with [`Database::open`].
    pub fn storage_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(DurableStore::dir)
    }

    /// Serialize the **committed** state of all tables into a new
    /// checkpoint image and truncate the WAL behind it. Between
    /// transactions that is the live catalog; while one is open the image
    /// is built from its undo stack (each table's pre-transaction state),
    /// and the log holds nothing of it to keep. Errors with
    /// [`Error::Unsupported`] on an in-memory database.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.durable.is_none() {
            return Err(Error::Unsupported(
                "checkpoint requires a database opened with a path".into(),
            ));
        }
        let sources = self.committed_sources();
        self.durable.as_mut().expect("checked above").checkpoint(&sources)
    }

    /// Whether the write-ahead log is poisoned (a failed truncate-repair
    /// left it refusing appends). A poisoned log self-heals via a forced
    /// checkpoint at the next statement boundary.
    /// Always `false` for in-memory databases.
    pub fn wal_poisoned(&self) -> bool {
        self.durable.as_ref().is_some_and(DurableStore::is_poisoned)
    }

    /// The committed view of every table, sorted by name: the live catalog
    /// with the open transaction's undo stack applied to it, newest entry
    /// first, as a rollback would — but to snapshots, leaving the tables
    /// alone.
    fn committed_sources(&self) -> Vec<CkptSource> {
        let source = |t: &Table| CkptSource {
            name: t.name().to_string(),
            columns: t.columns().to_vec(),
            rows: t.row_count(),
            snapshot: t.snapshot(),
        };
        let mut views: HashMap<String, CkptSource> = self
            .catalog
            .tables_sorted()
            .into_iter()
            .map(|t| (t.name().to_ascii_lowercase(), source(t)))
            .collect();
        for entry in self.txn.iter().flat_map(|t| t.undo.iter()).rev() {
            match entry {
                UndoEntry::Mutated { table, undo } => {
                    if let Some(view) = views.get_mut(&table.to_ascii_lowercase()) {
                        view.rows = undo.rows();
                        view.snapshot = undo.snapshot();
                    }
                }
                UndoEntry::Created { name } => {
                    views.remove(&name.to_ascii_lowercase());
                }
                UndoEntry::Dropped { table } => {
                    views.insert(table.name().to_ascii_lowercase(), source(table));
                }
            }
        }
        let mut sources: Vec<CkptSource> = views.into_values().collect();
        sources.sort_by(|a, b| a.name.cmp(&b.name));
        sources
    }

    /// Auto-checkpoint after a commit once the WAL is large. Failures are
    /// swallowed: the transaction already committed, the WAL still covers
    /// everything, and the next trigger will retry.
    pub(super) fn maybe_auto_checkpoint(&mut self) {
        if self.durable.as_ref().is_some_and(DurableStore::wants_checkpoint) {
            let _ = self.checkpoint();
        }
    }

    /// Self-heal a poisoned WAL (a failed truncate-repair left the log
    /// refusing appends): force a full checkpoint at the next statement
    /// boundary — the image captures the committed state and the log is
    /// reset behind it. An open transaction does not stand in the way: the
    /// log holds nothing of it. Swallows failures; the next commit then
    /// surfaces the poisoned-log error and the next statement retries the
    /// heal.
    pub(super) fn maybe_heal_poisoned(&mut self) {
        if self.durable.as_ref().is_some_and(DurableStore::is_poisoned) {
            let _ = self.checkpoint();
        }
    }
}
