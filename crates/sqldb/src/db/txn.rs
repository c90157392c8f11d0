//! The one write path of [`Database`]: every mutation runs inside a
//! transaction (explicit, or an implicit one-statement one), logs into its
//! WAL frame, applies to memory, and records how to undo itself.

use super::{with_exec_stack, Database, ResultSet};
use crate::ast::{DataType, Expr, Query, Statement};
use crate::error::{Error, Result};
use crate::exec::batch::{Column, RowBatch};
use crate::exec::vector::{build_batch_stream, drain};
use crate::expr::bind;
use crate::plan::logical::{plan_query, Plan};
use crate::plan::optimizer::optimize;
use crate::schema::{Facts, RelSchema};
use crate::storage::spill::Row;
use crate::storage::wal::DurableStore;
use crate::txn::lock::LockGuard;
use crate::txn::{SavepointMark, TxnState, UndoEntry};
use crate::value::Value;

impl Database {
    /// The one write path: run `body` inside `sess`'s open transaction, or
    /// — when none is open — as an implicit one-statement transaction that
    /// commits as soon as `body` succeeds. `guards` join the transaction
    /// (strict 2PL — held until it resolves). Any error aborts the whole
    /// transaction with the full cleanup contract: memory and ledger
    /// restored, no orphan spill files, the WAL frame marked aborted. An
    /// immediate retry is always valid.
    pub(super) fn in_txn<T>(
        &mut self,
        sess: u64,
        guards: Vec<LockGuard>,
        body: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let implicit = !self.txns.contains_key(&sess);
        self.txns.entry(sess).or_default().locks.extend(guards);
        let mut result = self.query.check().and_then(|()| body(self));
        if implicit {
            result = result.and_then(|out| self.txn_commit(sess).map(|_| out));
        }
        if result.is_err() {
            self.abort_session_txn(sess);
            #[cfg(debug_assertions)]
            self.assert_ledger_clean();
        }
        result
    }

    /// Open a transaction for `sess`.
    pub(super) fn txn_begin(&mut self, sess: u64, guards: Vec<LockGuard>) -> Result<ResultSet> {
        if self.txns.contains_key(&sess) {
            return Err(Error::Plan("BEGIN: a transaction is already open".into()));
        }
        self.txns
            .insert(sess, TxnState { locks: guards, ..TxnState::default() });
        Ok(ResultSet::dml(0))
    }

    /// Commit `sess`'s transaction: make its WAL frame durable, then drop
    /// the undo stack (releasing stashed tables) and every lock. A
    /// read-only transaction never opened a frame and commits without
    /// touching the log. A failed commit aborts the transaction — memory
    /// is rolled back to match what recovery would replay, or the error is
    /// [`Error::CommitInDoubt`] when the log cannot be made to agree.
    pub(super) fn txn_commit(&mut self, sess: u64) -> Result<ResultSet> {
        let Some(state) = self.txns.get(&sess) else {
            return Err(Error::Plan("COMMIT: no open transaction".into()));
        };
        if let (Some(store), Some(txn)) = (self.durable.as_mut(), state.wal_txn) {
            if store.repair_epoch() != state.epoch {
                // A crash-repair truncation while this transaction was
                // open may have cut its records; the frame cannot be
                // trusted, so refuse to commit it.
                self.abort_session_txn(sess);
                return Err(Error::Io(
                    "transaction aborted: the write-ahead log was repaired while \
                     it was open; retry the transaction"
                        .into(),
                ));
            }
            if let Err(e) = store.commit(txn) {
                self.abort_session_txn(sess);
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
        self.txns.remove(&sess);
        self.maybe_auto_checkpoint();
        Ok(ResultSet::dml(0))
    }

    /// `ROLLBACK`: abort `sess`'s transaction.
    pub(super) fn txn_rollback(&mut self, sess: u64) -> Result<ResultSet> {
        if !self.txns.contains_key(&sess) {
            return Err(Error::Plan("ROLLBACK: no open transaction".into()));
        }
        self.abort_session_txn(sess);
        Ok(ResultSet::dml(0))
    }

    /// `SAVEPOINT name`: mark the current undo depth and logged-op count.
    pub(super) fn txn_savepoint(&mut self, sess: u64, name: String) -> Result<ResultSet> {
        let Some(state) = self.txns.get_mut(&sess) else {
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
    pub(super) fn txn_rollback_to(&mut self, sess: u64, name: &str) -> Result<ResultSet> {
        let Some(state) = self.txns.get_mut(&sess) else {
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
                    self.abort_session_txn(sess);
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

    /// Abort `sess`'s transaction (no-op when none is open): mark the WAL
    /// frame aborted, undo every in-memory effect in reverse, release
    /// stashed tables back into the catalog, and drop all locks. Never
    /// fails — recovery ignores a commit-less frame even when the log
    /// cannot be written to.
    pub(crate) fn abort_session_txn(&mut self, sess: u64) {
        let Some(state) = self.txns.remove(&sess) else { return };
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
        // `state.locks` drop here, releasing the transaction's tables.
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

    /// Log one op into `sess`'s WAL frame, opening the frame lazily at the
    /// first op (so read-only transactions never touch the log), and count
    /// it for savepoint arithmetic. No-op on an in-memory database.
    fn log_in_txn(
        &mut self,
        sess: u64,
        log: impl FnOnce(&mut DurableStore, u64) -> Result<()>,
    ) -> Result<()> {
        let Some(store) = self.durable.as_mut() else { return Ok(()) };
        let state = self.txns.get_mut(&sess).expect("open transaction");
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

    /// Record an applied effect on `sess`'s undo stack.
    fn push_undo(&mut self, sess: u64, entry: UndoEntry) {
        self.txns
            .get_mut(&sess)
            .expect("open transaction")
            .undo
            .push(entry);
    }

    /// One statement inside `sess`'s transaction. Mutations follow
    /// log → apply → push-undo → cancel point: any error leaves the frame
    /// commit-less and the caller aborts the whole transaction, which
    /// unwinds every undo entry — so no per-statement rollback is needed
    /// here, and a cancelled statement can never commit.
    pub(super) fn execute_in_txn(&mut self, sess: u64, st: Statement) -> Result<ResultSet> {
        match st {
            Statement::CreateTable { name, columns, if_not_exists } => {
                if self.catalog.contains(&name) {
                    // Duplicate: an IF NOT EXISTS no-op or an error —
                    // nothing changes, so nothing is logged.
                    self.catalog.create_table(
                        &name,
                        columns,
                        if_not_exists,
                        self.budget.clone(),
                    )?;
                    return Ok(ResultSet::dml(0));
                }
                self.log_in_txn(sess, |s, txn| s.log_create(txn, &name, &columns))?;
                self.catalog.create_table(&name, columns, false, self.budget.clone())?;
                self.push_undo(sess, UndoEntry::Created { name });
                self.query.check()?;
                Ok(ResultSet::dml(0))
            }
            Statement::DropTable { name, if_exists } => {
                if !self.catalog.contains(&name) {
                    self.catalog.drop_table(&name, if_exists)?;
                    return Ok(ResultSet::dml(0));
                }
                self.log_in_txn(sess, |s, txn| s.log_drop(txn, &name))?;
                if let Some(table) = self.catalog.drop_table(&name, if_exists)? {
                    // The stash keeps charging the budget until the
                    // transaction resolves: rollback puts it back intact.
                    self.push_undo(sess, UndoEntry::Dropped { table });
                }
                self.query.check()?;
                Ok(ResultSet::dml(0))
            }
            Statement::Insert { table, columns, rows } => {
                // Evaluate first: INSERT expressions are pure, so this
                // cannot observe or modify state, and the WAL records
                // concrete values rather than expressions.
                let evaluated = self.eval_insert_rows(&table, columns.as_deref(), rows)?;
                self.insert_rows_in_txn(sess, &table, evaluated)
            }
            Statement::Delete { table, where_clause } => {
                // Validate the table and predicate before logging anything.
                let schema = self.catalog.get(&table)?.schema();
                if let Some(w) = &where_clause {
                    bind(w, &schema)?;
                }
                let text = where_clause.as_ref().map(Expr::to_string);
                self.log_in_txn(sess, |s, txn| {
                    s.log_delete(txn, &table, text.as_deref())
                })?;
                let undo = self.catalog.get(&table)?.undo_state();
                let n = self.run_delete(&table, where_clause.as_ref())?;
                self.push_undo(sess, UndoEntry::Mutated { table, undo });
                self.query.check()?;
                Ok(ResultSet::dml(n))
            }
            // Reads don't touch the frame.
            Statement::Explain(q) => {
                let rows: Vec<Row> = self
                    .explain_query(&q)?
                    .lines()
                    .map(|l| vec![Value::Str(l.to_string())])
                    .collect();
                Ok(ResultSet::query(vec!["plan".to_string()], rows))
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
                "transaction control must go through execute_for_session".into(),
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
    pub(super) fn insert_rows_in_txn(
        &mut self,
        sess: u64,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<ResultSet> {
        // Validate table and arity before logging; the record is the batch
        // as the table is about to receive it.
        let batch = self.catalog.get(table)?.batch_from_rows(rows)?;
        if batch.is_empty() {
            return Ok(ResultSet::dml(0));
        }
        self.log_in_txn(sess, |s, txn| s.log_insert(txn, table, &batch))?;
        let t = self.catalog.get_mut(table)?;
        let undo = t.undo_state();
        let n = t.append_batch(&batch)?; // atomic: an error inserts nothing
        self.push_undo(sess, UndoEntry::Mutated { table: table.to_string(), undo });
        self.query.check()?;
        Ok(ResultSet::dml(n))
    }

    /// Evaluate `INSERT` value expressions into concrete rows in table
    /// column order (expressions are pure; nothing is applied yet).
    fn eval_insert_rows(
        &self,
        table: &str,
        columns: Option<&[String]>,
        rows: Vec<Vec<crate::ast::Expr>>,
    ) -> Result<Vec<Row>> {
        let empty_schema = RelSchema::default();
        let t = self.catalog.get(table)?;
        let ncols = t.columns().len();
        // Map provided column order to table order.
        let mapping: Vec<usize> = match columns {
            Some(cols) => {
                let mut m = Vec::with_capacity(cols.len());
                for c in cols {
                    let idx = t
                        .columns()
                        .iter()
                        .position(|(n, _)| n.eq_ignore_ascii_case(c))
                        .ok_or_else(|| {
                            Error::Plan(format!("unknown column `{c}` in INSERT"))
                        })?;
                    m.push(idx);
                }
                m
            }
            None => (0..ncols).collect(),
        };
        let mut evaluated = Vec::with_capacity(rows.len());
        for exprs in rows {
            if exprs.len() != mapping.len() {
                return Err(Error::Plan(format!(
                    "INSERT expects {} values, got {}",
                    mapping.len(),
                    exprs.len()
                )));
            }
            let mut full = vec![Value::Null; ncols];
            for (expr, &target) in exprs.iter().zip(&mapping) {
                let bexpr = bind(expr, &empty_schema)?;
                full[target] = bexpr.eval(&vec![])?;
            }
            evaluated.push(full);
        }
        Ok(evaluated)
    }

    /// CTAS body: one WAL frame wraps the `CREATE TABLE` and every
    /// streamed batch, so recovery replays either the whole table or none
    /// of it. A result batch is never turned into rows: each one is a
    /// cancel point, one `Insert` record and one [`Table::append_batch`]
    /// (which adopts typed columns by `Arc`). Any failure — query error
    /// mid-stream, budget overrun, WAL fault, cancellation — aborts the
    /// implicit transaction, whose `Created` undo entry drops the
    /// partially built table again.
    ///
    /// [`Table::append_batch`]: crate::table::Table::append_batch
    pub(super) fn create_table_as_in_txn(
        &mut self,
        name: &str,
        plan: Plan,
        facts: Facts,
    ) -> Result<usize> {
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
            // Cancel point per batch: nothing of a doomed batch is logged
            // or applied.
            self.query.check()?;
            self.log_in_txn(0, |s, txn| s.log_insert(txn, name, &batch))?;
            inserted += self.catalog.get_mut(name)?.append_batch(&batch)?;
            Ok(())
        })?;
        if !created {
            self.ctas_create(name, &names, None)?;
        }
        // What the plan proved of its columns holds of exactly these rows.
        self.catalog.get_mut(name)?.record_facts(facts);
        Ok(inserted)
    }

    /// Log and create the CTAS target. Column types come from the lanes of
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
        self.log_in_txn(0, |s, txn| s.log_create(txn, name, &columns))?;
        self.catalog.create_table(name, columns, false, self.budget.clone())?;
        self.push_undo(0, UndoEntry::Created { name: name.to_string() });
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
