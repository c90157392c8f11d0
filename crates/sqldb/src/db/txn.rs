//! The one write path of [`Database`]: every mutation runs inside a
//! transaction (explicit, or an implicit one-statement one), logs into its
//! WAL frame, applies to memory, and records how to undo itself.
//!
//! A table the transaction created is the exception to "logs": nothing
//! done to it is logged as it happens. `COMMIT` writes it into the frame
//! whole — one `CreateTable` record and one `Insert` block per chunk of
//! its final contents — if it is still alive, so a state that is created
//! and dropped within one transaction never reaches the log (PostgreSQL's
//! `wal_level = minimal`).

use super::{with_exec_stack, Database, ResultSet};
use crate::ast::{DataType, Expr, Query, Statement};
use crate::error::{Error, Result};
use crate::exec::batch::{Column, RowBatch};
use crate::exec::vector::{build_batch_stream, drain};
use crate::expr::bind;
use crate::plan::logical::{plan_query, Plan};
use crate::plan::optimizer::optimize;
use crate::schema::RelSchema;
use crate::storage::spill::Row;
use crate::storage::wal::DurableStore;
use crate::txn::{SavepointMark, TxnState, UndoEntry};
use crate::value::Value;

impl Database {
    /// The one write path: run `body` inside the open transaction, or —
    /// when none is open — as an implicit one-statement transaction that
    /// commits as soon as `body` succeeds. Any error aborts the whole
    /// transaction with the full cleanup contract: memory and ledger
    /// restored, no orphan spill files, the WAL frame marked aborted. An
    /// immediate retry is always valid.
    pub(super) fn in_txn<T>(&mut self, body: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let implicit = self.txn.is_none();
        if implicit {
            self.txn = Some(TxnState::default());
        }
        let mut result = self.query.check().and_then(|()| body(self));
        if implicit {
            result = result.and_then(|out| self.txn_commit().map(|_| out));
        }
        if result.is_err() {
            self.abort_txn();
            #[cfg(debug_assertions)]
            self.assert_ledger_clean();
        }
        result
    }

    /// `BEGIN`: open a transaction.
    pub(super) fn txn_begin(&mut self) -> Result<ResultSet> {
        if self.txn.is_some() {
            return Err(Error::Plan("BEGIN: a transaction is already open".into()));
        }
        self.txn = Some(TxnState::default());
        Ok(ResultSet::dml(0))
    }

    /// Commit the open transaction: make its WAL frame durable, then drop
    /// the undo stack (releasing stashed tables). A read-only transaction
    /// never opened a frame and commits without touching the log. A failed
    /// commit aborts the transaction — memory is rolled back to match what
    /// recovery would replay, or the error is [`Error::CommitInDoubt`] when
    /// the log cannot be made to agree.
    pub(super) fn txn_commit(&mut self) -> Result<ResultSet> {
        let Some(state) = &self.txn else {
            return Err(Error::Plan("COMMIT: no open transaction".into()));
        };
        if let (Some(store), Some(_)) = (self.durable.as_ref(), state.wal_txn) {
            if store.repair_epoch() != state.epoch {
                // A crash-repair truncation while this transaction was
                // open may have cut its records; the frame cannot be
                // trusted, so refuse to commit it.
                self.abort_txn();
                return Err(Error::Io(
                    "transaction aborted: the write-ahead log was repaired while \
                     it was open; retry the transaction"
                        .into(),
                ));
            }
        }
        if let Err(e) = self.log_created_tables() {
            // No `Commit` record was written: recovery ignores the frame.
            self.abort_txn();
            return Err(e);
        }
        let state = self.txn.as_ref().expect("still open");
        if let (Some(store), Some(txn)) = (self.durable.as_mut(), state.wal_txn) {
            if let Err(e) = store.commit(txn) {
                self.abort_txn();
                // Double fault: the fsync failed and so did the repair's
                // truncate, so the `Commit` record may still be on disk
                // behind the poisoned log and a crash now would recover a
                // transaction this call reports as failed. Reset the log
                // behind a checkpoint of the rolled-back state before
                // answering; when that fails too, say so.
                self.maybe_heal_poisoned();
                if self.wal_poisoned() {
                    return Err(Error::CommitInDoubt { cause: e.to_string() });
                }
                return Err(e);
            }
        }
        self.txn = None;
        self.maybe_auto_checkpoint();
        Ok(ResultSet::dml(0))
    }

    /// `ROLLBACK`: abort the open transaction.
    pub(super) fn txn_rollback(&mut self) -> Result<ResultSet> {
        if self.txn.is_none() {
            return Err(Error::Plan("ROLLBACK: no open transaction".into()));
        }
        self.abort_txn();
        Ok(ResultSet::dml(0))
    }

    /// `SAVEPOINT name`: mark the current undo depth and logged-op count.
    pub(super) fn txn_savepoint(&mut self, name: String) -> Result<ResultSet> {
        let Some(state) = &mut self.txn else {
            return Err(Error::Plan("SAVEPOINT: no open transaction".into()));
        };
        state.savepoints.push(SavepointMark {
            name,
            undo_len: state.undo.len(),
            ops_logged: state.ops_logged,
        });
        Ok(ResultSet::dml(0))
    }

    /// `ROLLBACK TO SAVEPOINT name`: rewind the transaction — WAL frame
    /// and in-memory state — to the most recent savepoint with that name.
    /// The savepoint survives (it can be rolled back to again); savepoints
    /// set after it are discarded. An unknown name is a bookkeeping error
    /// and leaves the transaction untouched.
    pub(super) fn txn_rollback_to(&mut self, name: &str) -> Result<ResultSet> {
        let Some(state) = &mut self.txn else {
            return Err(Error::Plan(
                "ROLLBACK TO SAVEPOINT: no open transaction".into(),
            ));
        };
        let Some(idx) = state
            .savepoints
            .iter()
            .rposition(|m| m.name.eq_ignore_ascii_case(name))
        else {
            return Err(Error::Plan(format!("no such savepoint: {name}")));
        };
        let mark_undo = state.savepoints[idx].undo_len;
        let mark_ops = state.savepoints[idx].ops_logged;
        if let (Some(store), Some(txn)) = (self.durable.as_mut(), state.wal_txn) {
            // After a crash-repair truncation cut this frame it can never
            // commit (`txn_commit` refuses on the same mismatch), so there
            // is nothing left to tell replay about.
            if store.repair_epoch() == state.epoch {
                if let Err(e) = store.rollback_ops(txn, state.ops_logged - mark_ops) {
                    // The log cannot record the partial rollback: the
                    // whole transaction aborts so memory and recovery
                    // agree.
                    self.abort_txn();
                    return Err(e);
                }
            }
        }
        state.savepoints.truncate(idx + 1);
        state.ops_logged = mark_ops;
        let tail = state.undo.split_off(mark_undo);
        self.apply_undo(tail);
        Ok(ResultSet::dml(0))
    }

    /// Abort the open transaction (no-op when none is open): mark the WAL
    /// frame aborted, undo every in-memory effect in reverse and release
    /// stashed tables back into the catalog. Never fails — recovery ignores
    /// a commit-less frame even when the log cannot be written to.
    pub(super) fn abort_txn(&mut self) {
        let Some(state) = self.txn.take() else { return };
        if let (Some(store), Some(txn)) = (self.durable.as_mut(), state.wal_txn) {
            if store.repair_epoch() == state.epoch {
                store.abort(txn);
            }
            // else: a repair already rolled the log back past (some of)
            // this frame's bytes; the commit-less remainder is dropped at
            // recovery, so appending an Abort record is pointless.
        }
        self.apply_undo(state.undo);
        // The dead frame stays in the log until a checkpoint reclaims it.
        self.maybe_auto_checkpoint();
    }

    /// Apply undo entries (a full stack or a savepoint tail), newest
    /// first.
    fn apply_undo(&mut self, entries: Vec<UndoEntry>) {
        for entry in entries.into_iter().rev() {
            match entry {
                UndoEntry::Mutated { table, undo } => {
                    if let Ok(t) = self.catalog.get_mut(&table) {
                        t.restore(undo);
                    }
                }
                UndoEntry::Created { name } => {
                    let _ = self.catalog.drop_table(&name, true);
                }
                UndoEntry::Dropped { table } => self.catalog.put_table(table),
            }
        }
    }

    /// Log one op into the open transaction's WAL frame, opening the frame
    /// lazily at the first op (so read-only transactions never touch the
    /// log), and count it for savepoint arithmetic. No-op on an in-memory
    /// database.
    fn log_in_txn(&mut self, log: impl FnOnce(&mut DurableStore, u64) -> Result<()>) -> Result<()> {
        let Some(store) = self.durable.as_mut() else { return Ok(()) };
        let state = self.txn.as_mut().expect("open transaction");
        let txn = match state.wal_txn {
            Some(t) => t,
            None => {
                let t = store.begin()?;
                state.wal_txn = Some(t);
                // The frame's bytes start here: only repairs from now on
                // can cut them.
                state.epoch = store.repair_epoch();
                t
            }
        };
        log(store, txn)?;
        state.ops_logged += 1;
        Ok(())
    }

    /// Log an op on `table` into the open frame — unless the transaction
    /// created `table`, which reaches the log whole at `COMMIT`
    /// ([`Self::log_created_tables`]).
    fn log_unless_created(
        &mut self,
        table: &str,
        log: impl FnOnce(&mut DurableStore, u64) -> Result<()>,
    ) -> Result<()> {
        if self.durable.is_none() || self.txn().created_at(table).is_some() {
            return Ok(());
        }
        self.log_in_txn(log)
    }

    /// Write every table the open transaction created and still holds into
    /// its frame, just before the `Commit` record: a `CreateTable` record,
    /// then one `Insert` block per chunk of the table's snapshot. No-op on
    /// an in-memory database.
    fn log_created_tables(&mut self) -> Result<()> {
        if self.durable.is_none() {
            return Ok(());
        }
        for name in self.txn().created_tables() {
            let table = self.catalog.get(&name)?;
            let (name, columns) = (table.name().to_string(), table.columns().to_vec());
            let snapshot = table.snapshot();
            self.log_in_txn(|s, txn| s.log_create(txn, &name, &columns))?;
            for chunk in snapshot.chunks() {
                let block = RowBatch::from_shared(chunk.columns().to_vec());
                self.log_in_txn(|s, txn| s.log_insert(txn, &name, &block))?;
            }
        }
        Ok(())
    }

    fn txn(&self) -> &TxnState {
        self.txn.as_ref().expect("open transaction")
    }

    /// Record an applied effect on the open transaction's undo stack.
    fn push_undo(&mut self, entry: UndoEntry) {
        self.txn.as_mut().expect("open transaction").undo.push(entry);
    }

    /// One statement inside the open transaction. Mutations follow
    /// log → apply → push-undo → cancel point: any error leaves the frame
    /// commit-less and the caller aborts the whole transaction, which
    /// unwinds every undo entry — so no per-statement rollback is needed
    /// here, and a cancelled statement can never commit.
    pub(super) fn execute_in_txn(&mut self, st: Statement) -> Result<ResultSet> {
        match st {
            Statement::CreateTable { name, columns } => {
                // Logged at COMMIT, if it is still alive then; a duplicate
                // name is an error that changes nothing.
                self.catalog.create_table(&name, columns, false, self.budget.clone())?;
                self.push_undo(UndoEntry::Created { name });
                self.query.check()?;
                Ok(ResultSet::dml(0))
            }
            Statement::DropTable { name, if_exists } => {
                if !self.catalog.contains(&name) {
                    self.catalog.drop_table(&name, if_exists)?;
                    return Ok(ResultSet::dml(0));
                }
                let created = self.txn().created_at(&name);
                if created.is_none() {
                    self.log_in_txn(|s, txn| s.log_drop(txn, &name))?;
                }
                if let Some(table) = self.catalog.drop_table(&name, if_exists)? {
                    let state = self.txn.as_mut().expect("open transaction");
                    match created {
                        // Created in this transaction and beyond every
                        // savepoint's reach: freed here, with its entries.
                        Some(at) if state.forget_created(at, &name) => drop(table),
                        // The stash keeps charging the budget until the
                        // transaction resolves: rollback puts it back
                        // intact.
                        _ => state.undo.push(UndoEntry::Dropped { table }),
                    }
                }
                self.query.check()?;
                Ok(ResultSet::dml(0))
            }
            Statement::Insert { table, rows } => {
                // Evaluate first: INSERT expressions are pure, so this
                // cannot observe or modify state, and the WAL records
                // concrete values rather than expressions.
                let evaluated = self.eval_insert_rows(&table, rows)?;
                self.insert_rows_in_txn(&table, evaluated)
            }
            // Reads don't touch the frame.
            Statement::Query(q) => {
                let mut rows = Vec::new();
                let columns = self.drain_query(&q, |batch| rows.extend(batch.into_rows()))?;
                Ok(ResultSet::query(columns, rows))
            }
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback { .. }
            | Statement::Savepoint { .. } => Err(Error::Internal(
                "transaction control must go through execute_statement".into(),
            )),
        }
    }

    /// The one drain of a query result, behind both `execute` (whose
    /// `sink` transposes each batch into rows) and
    /// [`Database::query_batches`] (whose `sink` keeps the batches): plan,
    /// run, hand every batch to `sink` as the pipeline emits it, and count
    /// the rows as returned once the query has finished. Returns the
    /// result's column names.
    pub(super) fn drain_query(
        &mut self,
        q: &Query,
        mut sink: impl FnMut(RowBatch) + Send,
    ) -> Result<Vec<String>> {
        let mut rows = 0u64;
        let columns = with_exec_stack(q, || {
            let plan = optimize(plan_query(q, &self.catalog)?);
            drain(build_batch_stream(&plan, &self.catalog, &self.ctx())?, |batch| {
                rows += batch.num_rows() as u64;
                sink(batch);
                Ok(())
            })?;
            Ok::<_, Error>(plan.schema().names())
        })?;
        self.rows_returned += rows;
        Ok(columns)
    }

    /// Shared body of `INSERT` and [`Database::insert_rows`]: rows are
    /// already evaluated and in table order.
    pub(super) fn insert_rows_in_txn(&mut self, table: &str, rows: Vec<Row>) -> Result<ResultSet> {
        // Validate table and arity before logging; the record is the batch
        // as the table is about to receive it.
        let batch = self.catalog.get(table)?.batch_from_rows(rows)?;
        if batch.is_empty() {
            return Ok(ResultSet::dml(0));
        }
        self.log_unless_created(table, |s, txn| s.log_insert(txn, table, &batch))?;
        let t = self.catalog.get_mut(table)?;
        let undo = t.undo_state();
        let n = t.append_batch(&batch)?; // atomic: an error inserts nothing
        self.push_undo(UndoEntry::Mutated { table: table.to_string(), undo });
        self.query.check()?;
        Ok(ResultSet::dml(n))
    }

    /// Evaluate `INSERT` value expressions into concrete rows (expressions
    /// are pure; nothing is applied yet).
    fn eval_insert_rows(&self, table: &str, rows: Vec<Vec<Expr>>) -> Result<Vec<Row>> {
        let ncols = self.catalog.get(table)?.columns().len();
        let no_columns = RelSchema::default();
        rows.iter()
            .map(|exprs| {
                if exprs.len() != ncols {
                    let n = exprs.len();
                    return Err(Error::Plan(format!("INSERT expects {ncols} values, got {n}")));
                }
                exprs.iter().map(|e| bind(e, &no_columns)?.eval(&Vec::new())).collect()
            })
            .collect()
    }

    /// CTAS body. The new table belongs to the open transaction, so
    /// nothing is logged here: `COMMIT` writes the table, and recovery
    /// replays either the whole of it or none. A result batch is never
    /// turned into rows: each one is a cancel point and one
    /// [`Table::append_batch`] (which adopts typed columns by `Arc`). Any
    /// failure — query error mid-stream, budget overrun, cancellation —
    /// aborts the transaction, whose `Created` undo entry drops the
    /// partially built table again.
    ///
    /// [`Table::append_batch`]: crate::table::Table::append_batch
    pub(super) fn create_table_as_in_txn(&mut self, name: &str, plan: Plan) -> Result<usize> {
        let names = plan.schema().names();
        let stream = build_batch_stream(&plan, &self.catalog, &self.ctx())?;
        let mut created = false;
        let mut inserted = 0usize;
        drain(stream, |batch| {
            if batch.is_empty() {
                return Ok(());
            }
            if !created {
                self.ctas_create(name, &names, Some(&batch))?;
                created = true;
            }
            // Cancel point per batch: nothing of a doomed batch is applied.
            self.query.check()?;
            inserted += self.catalog.get_mut(name)?.append_batch(&batch)?;
            Ok(())
        })?;
        if !created {
            self.ctas_create(name, &names, None)?;
        }
        Ok(inserted)
    }

    /// Create the CTAS target. Column types come from the lanes of
    /// the first result batch (a generic lane: from its first value); later
    /// batches must coerce losslessly (the Qymera translator guarantees
    /// this by casting `s` explicitly when states are wider than 63 bits).
    /// An empty result makes every column `DOUBLE`.
    fn ctas_create(&mut self, name: &str, names: &[String], first: Option<&RowBatch>) -> Result<()> {
        let types: Vec<DataType> = match first {
            Some(batch) => batch.columns().iter().map(|c| infer_type(c)).collect(),
            None => vec![DataType::Double; names.len()],
        };
        let columns: Vec<(String, DataType)> = names.iter().cloned().zip(types).collect();
        self.catalog.create_table(name, columns, false, self.budget.clone())?;
        self.push_undo(UndoEntry::Created { name: name.to_string() });
        Ok(())
    }
}

/// Infer a column type from the first batch of a CTAS result.
fn infer_type(column: &Column) -> DataType {
    match column {
        Column::Int(_) => DataType::Integer,
        Column::Float(_) => DataType::Double,
        Column::Generic(values) => match values.first() {
            Some(Value::Int(_)) => DataType::Integer,
            Some(Value::Str(_)) => DataType::Text,
            Some(Value::Big(_)) => DataType::HugeInt,
            Some(Value::Float(_) | Value::Null) | None => DataType::Double,
        },
    }
}
