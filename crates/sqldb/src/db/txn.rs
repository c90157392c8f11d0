//! The one write path of [`Database`]: every mutation runs inside a
//! transaction (explicit, or an implicit one-statement one), applies to
//! memory, and records how to undo itself. Nothing reaches the log before
//! `COMMIT`, which writes the transaction's frame in one go, derived from
//! its undo stack (`TxnState::frame`): a `DropTable` record for each
//! committed table it dropped, one `Insert` block per chunk slice of the
//! rows it appended to each committed table still alive, and a
//! `CreateTable` record and one `Insert` block per chunk for each table it
//! created and still holds — so a state that is created and dropped within
//! one transaction never reaches the log (PostgreSQL's `wal_level =
//! minimal`), and `ROLLBACK` writes nothing.

use super::{with_exec_stack, Database, ResultSet};
use crate::ast::{DataType, Expr, Query, Statement};
use crate::error::{Error, Result};
use crate::exec::batch::RowBatch;
use crate::exec::vector::{build_batch_stream, drain};
use crate::expr::bind;
use crate::plan::logical::{plan_query, Plan};
use crate::plan::optimizer::optimize;
use crate::schema::RelSchema;
use crate::storage::spill::Row;
use crate::storage::wal::DurableStore;
use crate::table::Table;
use crate::txn::{SavepointMark, TxnState, UndoEntry};

impl Database {
    /// The one write path: run `body` inside the open transaction, or —
    /// when none is open — as an implicit one-statement transaction that
    /// commits as soon as `body` succeeds. Any error aborts the whole
    /// transaction with the full cleanup contract: memory and ledger
    /// restored, no orphan spill files, nothing in the log. An immediate
    /// retry is always valid.
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

    /// Commit the open transaction: write its frame and make it durable,
    /// then drop the undo stack (releasing stashed tables). A transaction
    /// that changed nothing the log holds writes nothing and syncs nothing.
    /// A failed commit aborts the transaction — memory is rolled back to
    /// match what recovery would replay, or the error is
    /// [`Error::CommitInDoubt`] when the log cannot be made to agree.
    pub(super) fn txn_commit(&mut self) -> Result<ResultSet> {
        if self.txn.is_none() {
            return Err(Error::Plan("COMMIT: no open transaction".into()));
        }
        let frame = match self.log_frame() {
            Ok(frame) => frame,
            Err(e) => {
                // No `Commit` record was written: recovery ignores the frame.
                self.abort_txn();
                return Err(e);
            }
        };
        if let (Some(store), Some(txn)) = (self.durable.as_mut(), frame) {
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

    /// `SAVEPOINT name`: mark the current undo depth.
    pub(super) fn txn_savepoint(&mut self, name: String) -> Result<ResultSet> {
        let Some(state) = &mut self.txn else {
            return Err(Error::Plan("SAVEPOINT: no open transaction".into()));
        };
        state.savepoints.push(SavepointMark { name, undo_len: state.undo.len() });
        Ok(ResultSet::dml(0))
    }

    /// `ROLLBACK TO SAVEPOINT name`: rewind the transaction's in-memory
    /// state to the most recent savepoint with that name. The savepoint
    /// survives (it can be rolled back to again); savepoints set after it
    /// are discarded. An unknown name is a bookkeeping error and leaves the
    /// transaction untouched.
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
        state.savepoints.truncate(idx + 1);
        let tail = state.undo.split_off(state.savepoints[idx].undo_len);
        self.apply_undo(tail);
        Ok(ResultSet::dml(0))
    }

    /// Abort the open transaction (no-op when none is open): undo every
    /// in-memory effect in reverse and release stashed tables back into
    /// the catalog. Never fails, and never touches the log, which holds
    /// nothing of an open transaction.
    pub(super) fn abort_txn(&mut self) {
        if let Some(state) = self.txn.take() {
            self.apply_undo(state.undo);
        }
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

    /// Write the open transaction's frame, all but its `Commit` record,
    /// and return its id — `None` on an in-memory database or when the
    /// frame is empty. Rows are encoded from the live tables' chunks, one
    /// `Insert` block per chunk or chunk slice, never turned into rows.
    fn log_frame(&mut self) -> Result<Option<u64>> {
        let Some(store) = self.durable.as_mut() else { return Ok(None) };
        let frame = self.txn.as_ref().expect("open transaction").frame();
        if frame.is_empty() {
            return Ok(None);
        }
        let txn = store.begin()?;
        for name in &frame.dropped {
            store.log_drop(txn, name)?;
        }
        for (name, rows_at_begin) in &frame.appended {
            log_rows(store, txn, self.catalog.get(name)?, *rows_at_begin)?;
        }
        for name in &frame.created {
            let table = self.catalog.get(name)?;
            store.log_create(txn, table.name(), table.columns())?;
            log_rows(store, txn, table, 0)?;
        }
        Ok(Some(txn))
    }

    fn txn(&self) -> &TxnState {
        self.txn.as_ref().expect("open transaction")
    }

    /// Record an applied effect on the open transaction's undo stack.
    fn push_undo(&mut self, entry: UndoEntry) {
        self.txn.as_mut().expect("open transaction").undo.push(entry);
    }

    /// One statement inside the open transaction. Mutations follow
    /// apply → push-undo → cancel point: any error aborts the whole
    /// transaction, which unwinds every undo entry — so no per-statement
    /// rollback is needed here, and a cancelled statement can never commit.
    pub(super) fn execute_in_txn(&mut self, st: Statement) -> Result<ResultSet> {
        match st {
            Statement::CreateTable { name, columns } => {
                // A duplicate name is an error that changes nothing.
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
                // cannot observe or modify state.
                let evaluated = self.eval_insert_rows(&table, rows)?;
                self.insert_rows_in_txn(&table, evaluated)
            }
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
        let batch = self.catalog.get(table)?.batch_from_rows(rows)?;
        if batch.is_empty() {
            return Ok(ResultSet::dml(0));
        }
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

    /// CTAS body. The new table belongs to the open transaction: `COMMIT`
    /// writes it, and recovery replays either the whole of it or none. A
    /// result batch is never turned into rows: each one is a cancel point
    /// and one
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

    /// Create the CTAS target. Column types are the lanes of the first
    /// result batch; later batches must coerce losslessly. Past 63 qubits the translator's `s`
    /// is `HUGEINT` from `T0` on, and a bitwise operator with a `HUGEINT`
    /// operand yields `HUGEINT` whatever the value (`value.rs`
    /// `bitwise_binop`), so every batch of a step statement carries `s` as
    /// `HUGEINT` and the step table is `HUGEINT` too
    /// (`runner.rs::step_mode_matches_single_query_beyond_63` pins it).
    /// An empty result makes every column `DOUBLE`.
    fn ctas_create(&mut self, name: &str, names: &[String], first: Option<&RowBatch>) -> Result<()> {
        let types: Vec<DataType> = match first {
            Some(batch) => batch.columns().iter().map(|c| c.data_type()).collect(),
            None => vec![DataType::Double; names.len()],
        };
        let columns: Vec<(String, DataType)> = names.iter().cloned().zip(types).collect();
        self.catalog.create_table(name, columns, false, self.budget.clone())?;
        self.push_undo(UndoEntry::Created { name: name.to_string() });
        Ok(())
    }
}

/// Log the rows of `table` past the first `from` into frame `txn`: one
/// `Insert` block per chunk, or per part of the chunk `from` falls in, on
/// the lanes the table holds them.
fn log_rows(store: &mut DurableStore, txn: u64, table: &Table, from: usize) -> Result<()> {
    let mut start = 0;
    for chunk in table.snapshot().chunks() {
        let (skip, rows) = (from.saturating_sub(start), chunk.rows());
        start += rows;
        let block = match skip {
            0 => RowBatch::from_shared(chunk.columns().to_vec()),
            _ if skip >= rows => continue,
            _ => {
                let tail = chunk.columns().iter().map(|c| c.slice(skip..rows)).collect();
                RowBatch::from_columns(tail)
            }
        };
        store.log_insert(txn, table.name(), &block)?;
    }
    Ok(())
}


