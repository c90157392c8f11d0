//! The embedded database façade.
//!
//! ```
//! use qymera_sqldb::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE)").unwrap();
//! db.execute("INSERT INTO T0 VALUES (0, 1.0, 0.0)").unwrap();
//! let rs = db.execute("SELECT s, r FROM T0 ORDER BY s").unwrap();
//! assert_eq!(rs.rows().len(), 1);
//! ```

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use crate::ast::{DataType, Expr, Query, Statement};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::govern::{self, AdmissionController, CancelHandle, QueryContext};
use crate::exec::vector::{build_batch_stream, drain};
use crate::exec::ExecContext;
use crate::expr::bind;
use crate::parser::{parse_script, parse_statement};
use crate::plan::logical::{depth_bound, plan_query, Plan};
use crate::plan::optimizer::optimize;
use crate::reference;
use crate::schema::RelSchema;
use crate::storage::budget::MemoryBudget;
use crate::storage::fault::FaultInjector;
use crate::storage::spill::{Row, SpillDir};
use crate::storage::wal::{
    CkptSource, DurableStore, FsyncPolicy, Recovered, WalOp, DEFAULT_CHECKPOINT_BYTES,
};
use crate::txn::lock::{LockGuard, LockTable};
use crate::txn::{SavepointMark, TxnState, UndoEntry};
use crate::value::Value;

/// Queries whose plan may be deeper than this run on a dedicated thread with
/// a large stack. The translator emits one CTE (join + aggregate + project)
/// per gate, so plan depth grows linearly with circuit length; the optimizer,
/// `Plan::depth`, the pipeline builder, the reference interpreter and the
/// plan's drop all recurse once per level, and the executor keeps one live
/// frame set per pipeline stage while the top aggregate's consume phase is in
/// flight.
const DEEP_PLAN_DEPTH: usize = 64;

/// Stack size for the dedicated execution thread (fits thousands of gates).
const EXEC_STACK_BYTES: usize = 512 * 1024 * 1024;

/// Run `f` — plan `query`, optimize, execute, drop the plan — on the caller's
/// stack when the plan is sure to be shallow, or on a dedicated big-stack
/// thread otherwise (a CTE chain of hundreds of gates would overflow the
/// default thread stack). The choice is made from the AST, before planning:
/// nothing that recurses over the plan may run ahead of it.
fn with_exec_stack<T: Send>(query: &Query, f: impl FnOnce() -> T + Send) -> T {
    if depth_bound(query) <= DEEP_PLAN_DEPTH {
        return f();
    }
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("qymera-exec".into())
            .stack_size(EXEC_STACK_BYTES)
            // SAFETY of expect: spawn only fails when the OS refuses a new
            // thread (resource exhaustion); with no thread to run on there is
            // no way to make progress, so aborting loudly beats limping on
            // the shallow stack and overflowing mid-pipeline.
            .spawn_scoped(s, f)
            .expect("cannot spawn execution thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    columns: Vec<String>,
    rows: Vec<Row>,
    /// Rows inserted/deleted for DML; 0 for queries and DDL.
    affected: usize,
}

impl ResultSet {
    pub(crate) fn dml(affected: usize) -> Self {
        ResultSet { columns: Vec::new(), rows: Vec::new(), affected }
    }

    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    pub fn affected(&self) -> usize {
        self.affected
    }

    /// Single scalar convenience accessor (first column of first row).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// Render as an aligned text table (for examples and the CLI).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() && cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths.get(i).copied().unwrap_or(0)));
            }
            out.push('\n');
        }
        out
    }
}

/// Execution statistics, cumulative over the database lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbStats {
    pub statements_executed: u64,
    pub rows_returned: u64,
    pub spill_files: u64,
    pub spill_bytes: u64,
    /// High-water mark of the memory ledger in bytes.
    pub peak_memory_bytes: usize,
}

/// An embedded database instance. Statement execution is driven from the
/// caller's thread; with [`Database::set_parallelism`] above 1 (the default
/// follows the host's core count) the batch executor fans eligible pipeline
/// stages out over a morsel-parallel worker pool.
pub struct Database {
    catalog: Catalog,
    budget: MemoryBudget,
    spill: Arc<SpillDir>,
    parallelism: usize,
    statements: u64,
    rows_returned: u64,
    /// WAL + checkpoint store when opened with [`Database::open`];
    /// `None` for in-memory databases (the default and fast path).
    durable: Option<DurableStore>,
    /// Fault-injection gate shared by every disk path (WAL, checkpoint,
    /// spill). A zero-cost passthrough in release builds.
    injector: Arc<FaultInjector>,
    /// Session interrupt flag, exposed via [`Database::cancel_handle`] and
    /// observed by every statement started while it is set.
    interrupt: CancelHandle,
    /// Per-statement deadline in milliseconds (`None` = no deadline).
    timeout_ms: Option<u64>,
    /// Per-query memory grant in bytes (`None` = the full global budget).
    query_grant: Option<usize>,
    /// Deterministic cancel injection: latch a cancel at the n-th
    /// governance poll of each subsequent statement (tests/fuzzer knob).
    cancel_after_polls: Option<u64>,
    /// Bounded concurrent-statement admission (shareable across handles).
    admission: AdmissionController,
    /// Governance token of the statement in flight (or most recently run);
    /// [`Database::ctx`] embeds a clone so operators can observe it.
    query: QueryContext,
    /// Process slot on the durable directory (`QYMERA_DB_SLOTS`); held for
    /// the lifetime of the open, released (file removed) on drop.
    _slot: Option<govern::SlotGuard>,
    /// Open transactions, keyed by session id. Session `0` is the plain
    /// [`Database::execute`] caller; [`crate::txn::Session`]s get ids ≥ 1.
    txns: HashMap<u64, TxnState>,
    /// Table lock manager shared with [`crate::txn::SharedDb`] sessions
    /// (the plain session never contends, so it skips lock acquisition).
    locks: Arc<LockTable>,
}

/// Configuration for [`Database::open_with`].
pub struct DurabilityOptions {
    /// When WAL bytes are forced to stable storage (default: the
    /// `QYMERA_FSYNC` environment knob, falling back to per-commit).
    pub fsync: FsyncPolicy,
    /// Auto-checkpoint once the WAL exceeds this many bytes (0 = never).
    pub checkpoint_every_bytes: u64,
    /// Memory ledger shared by tables and operators.
    pub budget: MemoryBudget,
    /// Fault-injection gate for every disk path (tests arm schedules on
    /// it; production passes the default quiescent injector).
    pub injector: Arc<FaultInjector>,
    /// Cap on processes concurrently opening this directory (lock files
    /// under `<dir>/slots/`). `None` reads `QYMERA_DB_SLOTS`; 0 disables.
    pub process_slots: Option<usize>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::from_env(),
            checkpoint_every_bytes: DEFAULT_CHECKPOINT_BYTES,
            budget: MemoryBudget::unlimited(),
            injector: FaultInjector::none(),
            process_slots: None,
        }
    }
}

/// Worker threads a fresh [`Database`] allows the batch executor: the
/// `QYMERA_PARALLELISM` environment variable when set (a positive integer;
/// `1` forces fully sequential execution), otherwise the host's available
/// core count. An unparsable value panics rather than silently falling
/// back to full parallelism — the variable exists precisely so CI can pin
/// sequential semantics, and ignoring a typo would invert that guarantee.
fn default_parallelism() -> usize {
    if let Ok(raw) = std::env::var("QYMERA_PARALLELISM") {
        match raw.trim().parse::<usize>() {
            Ok(n) => return n.max(1),
            Err(_) => panic!(
                "QYMERA_PARALLELISM must be a non-negative integer, got `{raw}`"
            ),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl Database {
    /// Unlimited memory budget (usage is still tracked).
    pub fn new() -> Self {
        Self::with_budget(MemoryBudget::unlimited())
    }

    /// Database whose operators and tables share `budget`; exceeding it makes
    /// operators spill to disk (or fail where spilling is impossible).
    pub fn with_memory_limit(bytes: usize) -> Self {
        Self::with_budget(MemoryBudget::with_limit(bytes))
    }

    /// Database over an externally shared [`MemoryBudget`].
    pub fn with_budget(budget: MemoryBudget) -> Self {
        let injector = FaultInjector::none();
        Database {
            catalog: Catalog::new(),
            budget,
            spill: SpillDir::new_with(Arc::clone(&injector)),
            parallelism: default_parallelism(),
            statements: 0,
            rows_returned: 0,
            durable: None,
            injector,
            interrupt: CancelHandle::new(),
            timeout_ms: None,
            query_grant: None,
            cancel_after_polls: None,
            admission: AdmissionController::default(),
            query: QueryContext::unbounded(),
            _slot: None,
            txns: HashMap::new(),
            locks: Arc::new(LockTable::new()),
        }
    }

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
        let injector = opts.injector;
        // Admission before any WAL touch: a process turned away at the slot
        // gate must leave the directory exactly as it found it.
        let slots = opts.process_slots.unwrap_or_else(govern::env_db_slots);
        let slot = govern::acquire_process_slot(dir.as_ref(), slots)?;
        let (mut store, recovered) =
            DurableStore::open(dir.as_ref(), opts.fsync, Arc::clone(&injector))?;
        store.checkpoint_every_bytes = opts.checkpoint_every_bytes;
        let mut db = Database {
            catalog: Catalog::new(),
            budget: opts.budget,
            spill: SpillDir::new_with(Arc::clone(&injector)),
            parallelism: default_parallelism(),
            statements: 0,
            rows_returned: 0,
            durable: None,
            injector,
            interrupt: CancelHandle::new(),
            timeout_ms: None,
            query_grant: None,
            cancel_after_polls: None,
            admission: AdmissionController::default(),
            query: QueryContext::unbounded(),
            _slot: slot,
            txns: HashMap::new(),
            locks: Arc::new(LockTable::new()),
        };
        db.apply_recovered(recovered)?;
        db.durable = Some(store);
        Ok(db)
    }

    /// Rebuild in-memory state from a recovered checkpoint and committed
    /// WAL frames. Runs before the store is attached, so replay applies to
    /// memory only and is never re-logged.
    fn apply_recovered(&mut self, recovered: Recovered) -> Result<()> {
        if let Some((_, tables)) = recovered.checkpoint {
            for t in tables {
                self.catalog.create_table(&t.name, t.columns, false, self.budget.clone())?;
                self.catalog.get_mut(&t.name)?.load_rows(t.rows)?;
            }
        }
        for frame in recovered.frames {
            for op in frame.ops {
                self.apply_wal_op(op)?;
            }
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
                self.catalog.get_mut(&table)?.load_rows(rows)?;
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

    /// The fault-injection gate shared by this database's disk paths
    /// (spill, and WAL/checkpoint when durable). Quiescent unless a test
    /// arms it; all methods are no-ops in release builds.
    pub fn fault_injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// External interrupt handle for this session. Clone it into any thread
    /// (e.g. a Ctrl-C handler) and call [`CancelHandle::cancel`] to stop the
    /// statement in flight with [`Error::Cancelled`] — cooperatively, so the
    /// ledger, spill directory, and WAL are left exactly as after any other
    /// statement error. The flag is sticky: clear it with
    /// [`CancelHandle::reset`] before executing further statements.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.interrupt.clone()
    }

    /// Replace the session interrupt handle (e.g. to share one Ctrl-C flag
    /// across several databases). Affects statements started afterwards.
    pub fn set_cancel_handle(&mut self, handle: CancelHandle) {
        self.interrupt = handle;
    }

    /// Deadline applied to every subsequent statement; exceeding it fails
    /// the statement with [`Error::Timeout`] at the next operator
    /// checkpoint (one batch / morsel / spill run). `None` disables.
    pub fn set_statement_timeout_ms(&mut self, ms: Option<u64>) {
        self.timeout_ms = ms.filter(|&ms| ms > 0);
    }

    /// The configured per-statement timeout.
    pub fn statement_timeout_ms(&self) -> Option<u64> {
        self.timeout_ms
    }

    /// Per-query memory grant in bytes for subsequent statements: operators
    /// whose in-memory holding could never fit the grant fail admission with
    /// [`Error::OutOfMemory`] *before* allocating (spillable operators only
    /// need one batch at a time and are unaffected until even that exceeds
    /// the grant). `None` restores the full global budget.
    pub fn set_query_grant(&mut self, bytes: Option<usize>) {
        self.query_grant = bytes;
    }

    /// Deterministic cancel injection for tests and the cancellation
    /// fuzzer: every subsequent statement latches a cooperative cancel at
    /// its `n`-th governance poll (entry, per-batch, per-morsel, per-spill
    /// run, pre-commit — wherever [`QueryContext::check`] runs). `None`
    /// disarms.
    pub fn arm_cancel_after_polls(&mut self, n: Option<u64>) {
        self.cancel_after_polls = n;
    }

    /// Replace the admission controller (clone one controller into several
    /// `Database` handles to bound their *combined* concurrency).
    pub fn set_admission_controller(&mut self, ctl: AdmissionController) {
        self.admission = ctl;
    }

    /// The admission controller bounding concurrent statements.
    pub fn admission_controller(&self) -> &AdmissionController {
        &self.admission
    }

    /// Governance token of the statement currently in flight (or the most
    /// recently finished one). Tests use it to read the cancellation-latency
    /// meter ([`QueryContext::units_after_cancel`]).
    pub fn last_query_context(&self) -> QueryContext {
        self.query.clone()
    }

    /// Mint the governance token for one statement and make it current.
    fn begin_query(&mut self) -> QueryContext {
        let q = QueryContext::begin(
            self.timeout_ms,
            self.query_grant,
            self.interrupt.flag(),
            self.cancel_after_polls,
        );
        self.query = q.clone();
        q
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
    fn maybe_auto_checkpoint(&mut self) {
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
    fn maybe_heal_poisoned(&mut self) {
        if !self.txns.is_empty() {
            return;
        }
        if self.durable.as_ref().is_some_and(DurableStore::is_poisoned) {
            let _ = self.checkpoint();
        }
    }

    /// Debug builds: after any failed statement, the memory ledger must
    /// hold exactly the live base tables plus the tables stashed in open
    /// transactions' undo stacks (a dropped table keeps its charge until
    /// the transaction resolves) and the spill directory must be empty.
    /// Assumes the budget is not shared with reservations outside this
    /// database (true for every constructor here).
    #[cfg(debug_assertions)]
    fn assert_ledger_clean(&self) {
        let used = self.budget.used();
        let tables = self.catalog.total_bytes();
        let stashed: usize = self
            .txns
            .values()
            .flat_map(|t| t.undo.iter())
            .map(|e| match e {
                UndoEntry::Dropped { table } => table.bytes(),
                _ => 0,
            })
            .sum();
        debug_assert!(
            used == tables + stashed,
            "memory ledger leak after error: used {used} != base tables {tables} \
             + stashed {stashed}"
        );
        debug_assert_eq!(
            self.spill.live_files(),
            0,
            "orphan spill files after error"
        );
    }

    /// Cap the batch executor's morsel-parallel worker pool at `n` threads
    /// (clamped to at least 1). `1` reproduces single-threaded execution
    /// exactly; the default is the host core count (or `QYMERA_PARALLELISM`
    /// when that environment variable is set).
    pub fn set_parallelism(&mut self, n: usize) {
        self.parallelism = n.max(1);
    }

    /// The configured worker-pool size for parallel batch execution.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The shared memory ledger charged by tables and operators.
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Bytes currently charged for base-table storage. Whenever no statement
    /// is executing this must equal [`Database::budget`]`.used()` — any gap
    /// is operator residue leaked into the ledger.
    pub fn table_bytes(&self) -> usize {
        self.catalog.total_bytes()
    }

    /// Spill files currently live on disk. Zero between statements; anything
    /// else after a statement returns (even with an error) is a leak.
    pub fn live_spill_files(&self) -> usize {
        self.spill.live_files()
    }

    pub fn stats(&self) -> DbStats {
        DbStats {
            statements_executed: self.statements,
            rows_returned: self.rows_returned,
            spill_files: self.spill.files_created(),
            spill_bytes: self.spill.bytes_written(),
            peak_memory_bytes: self.budget.peak(),
        }
    }

    fn ctx(&self) -> ExecContext {
        ExecContext {
            budget: self.budget.clone(),
            spill: Arc::clone(&self.spill),
            parallelism: self.parallelism,
            instrument: None,
            query: self.query.clone(),
        }
    }

    /// `EXPLAIN ANALYZE`: execute the query with per-operator instrumentation
    /// and render the plan annotated with row counts and inclusive times.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        use std::cell::RefCell;
        use std::rc::Rc;
        let st = parse_statement(sql)?;
        let Statement::Query(q) = st else {
            return Err(Error::Plan("EXPLAIN ANALYZE requires a query".into()));
        };
        let (nodes, total_rows) = with_exec_stack(&q, || {
            let plan = optimize(plan_query(&q, &self.catalog)?);
            let _grant = self.admission.admit()?;
            let query = self.begin_query();
            query.check()?;
            let stats = Rc::new(RefCell::new(Vec::new()));
            let mut ctx = self.ctx();
            ctx.instrument = Some(Rc::clone(&stats));
            let mut total_rows = 0u64;
            drain(build_batch_stream(&plan, &self.catalog, &ctx)?, |batch| {
                total_rows += batch.num_rows() as u64;
                Ok(())
            })?;
            let nodes: Vec<_> = stats.borrow().clone();
            Ok::<_, Error>((nodes, total_rows))
        })?;
        let mut out = String::new();
        for node in nodes.iter() {
            let batches = if node.batches_out > 0 {
                format!("batches={:<6} ", node.batches_out)
            } else {
                String::new()
            };
            let parallel = if node.workers > 0 {
                format!("workers={:<3} morsels={:<6} ", node.workers, node.morsels)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{}{:<28} rows={:<9} {}{}time={:.3} ms
",
                "  ".repeat(node.depth),
                node.label,
                node.rows_out,
                batches,
                parallel,
                node.nanos as f64 / 1e6
            ));
        }
        out.push_str(&format!("total output rows: {total_rows}
"));
        Ok(out)
    }

    /// Execute a single SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet> {
        let st = parse_statement(sql)?;
        self.execute_statement(st)
    }

    /// Execute a `;`-separated script; returns the last statement's result.
    pub fn execute_script(&mut self, sql: &str) -> Result<ResultSet> {
        let statements = parse_script(sql)?;
        let mut last = ResultSet::dml(0);
        for st in statements {
            last = self.execute_statement(st)?;
        }
        Ok(last)
    }

    /// Execute an already-parsed statement. In a durable database every
    /// mutation is framed in the write-ahead log: `Ok` means the statement
    /// is both applied and crash-durable (per the fsync policy); `Err`
    /// means it is fully absent — in memory *and* at recovery — even when
    /// the failure happened after the in-memory apply (the apply is rolled
    /// back via the table's O(1) copy-on-write snapshot).
    ///
    /// Runs under full lifecycle governance: the statement first takes an
    /// admission grant (rejected with [`Error::Overloaded`] when the
    /// controller is saturated past its backoff budget), then executes under
    /// a fresh [`QueryContext`] carrying the session's timeout, memory
    /// grant, and interrupt flag. A cancel or deadline expiry surfaces as
    /// [`Error::Cancelled`] / [`Error::Timeout`] with the same guarantees as
    /// any other statement error — ledger restored, no spill residue, no
    /// recoverable WAL frame — so an immediate retry is always valid.
    /// `BEGIN` opens a multi-statement transaction for this handle
    /// (session 0); every later statement joins its WAL frame and undo
    /// scope until `COMMIT` / `ROLLBACK`. Outside one, a statement is an
    /// implicit one-statement transaction on the same machinery. Inside an
    /// open transaction **any statement error aborts the whole
    /// transaction** — Postgres-style uniform abort — except
    /// transaction-control bookkeeping mistakes (`BEGIN` twice, `COMMIT`
    /// with nothing open, `ROLLBACK TO` an unknown savepoint), which leave
    /// the transaction as it was.
    pub fn execute_statement(&mut self, st: Statement) -> Result<ResultSet> {
        self.execute_for_session(0, st, Vec::new())
    }

    /// Whether this handle (session 0) has an open transaction.
    pub fn in_transaction(&self) -> bool {
        self.txns.contains_key(&0)
    }

    /// The lock table sessions coordinate through (see
    /// [`crate::txn::SharedDb`]).
    pub fn lock_table(&self) -> Arc<LockTable> {
        Arc::clone(&self.locks)
    }

    /// Whether `sess` has an open transaction.
    pub(crate) fn session_in_txn(&self, sess: u64) -> bool {
        self.txns.contains_key(&sess)
    }

    /// Execute one statement for session `sess`, holding `guards` (the
    /// statement's pre-acquired table locks — empty for session 0, which
    /// owns the handle exclusively and never contends).
    pub(crate) fn execute_for_session(
        &mut self,
        sess: u64,
        st: Statement,
        guards: Vec<LockGuard>,
    ) -> Result<ResultSet> {
        self.statements += 1;
        let _grant = self.admission.admit()?;
        self.maybe_heal_poisoned();
        self.begin_query();

        // Transaction control is bookkeeping: handled before the uniform
        // abort-on-error rule, so its errors never abort anything.
        match st {
            Statement::Begin => self.txn_begin(sess, guards),
            Statement::Commit => self.txn_commit(sess),
            Statement::Rollback { to_savepoint: None } => self.txn_rollback(sess),
            Statement::Rollback { to_savepoint: Some(name) } => {
                self.txn_rollback_to(sess, &name)
            }
            Statement::Savepoint { name } => self.txn_savepoint(sess, name),
            st => self.in_txn(sess, guards, |db| db.execute_in_txn(sess, st)),
        }
    }

    /// The one write path: run `body` inside `sess`'s open transaction, or
    /// — when none is open — as an implicit one-statement transaction that
    /// commits as soon as `body` succeeds. `guards` join the transaction
    /// (strict 2PL — held until it resolves). Any error aborts the whole
    /// transaction with the full cleanup contract: memory and ledger
    /// restored, no orphan spill files, the WAL frame marked aborted. An
    /// immediate retry is always valid.
    fn in_txn<T>(
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
    fn txn_begin(&mut self, sess: u64, guards: Vec<LockGuard>) -> Result<ResultSet> {
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
    /// is rolled back to match what recovery would replay.
    fn txn_commit(&mut self, sess: u64) -> Result<ResultSet> {
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
                return Err(e);
            }
        }
        self.txns.remove(&sess);
        self.maybe_auto_checkpoint();
        Ok(ResultSet::dml(0))
    }

    /// `ROLLBACK`: abort `sess`'s transaction.
    fn txn_rollback(&mut self, sess: u64) -> Result<ResultSet> {
        if !self.txns.contains_key(&sess) {
            return Err(Error::Plan("ROLLBACK: no open transaction".into()));
        }
        self.abort_session_txn(sess);
        Ok(ResultSet::dml(0))
    }

    /// `SAVEPOINT name`: mark the current undo depth and logged-op count.
    fn txn_savepoint(&mut self, sess: u64, name: String) -> Result<ResultSet> {
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
    fn txn_rollback_to(&mut self, sess: u64, name: &str) -> Result<ResultSet> {
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
    fn execute_in_txn(&mut self, sess: u64, st: Statement) -> Result<ResultSet> {
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
                Ok(ResultSet { columns: vec!["plan".to_string()], rows, affected: 0 })
            }
            Statement::Query(q) => {
                let (columns, rows) = with_exec_stack(&q, || {
                    let plan = optimize(plan_query(&q, &self.catalog)?);
                    let mut rows = Vec::new();
                    drain(build_batch_stream(&plan, &self.catalog, &self.ctx())?, |batch| {
                        rows.extend(batch.into_rows());
                        Ok(())
                    })?;
                    Ok::<_, Error>((plan.schema().names(), rows))
                })?;
                self.rows_returned += rows.len() as u64;
                Ok(ResultSet { columns, rows, affected: 0 })
            }
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback { .. }
            | Statement::Savepoint { .. } => Err(Error::Internal(
                "transaction control must go through execute_for_session".into(),
            )),
        }
    }

    /// Shared body of `INSERT` and [`Database::insert_rows`]: rows are
    /// already evaluated and in table order.
    fn insert_rows_in_txn(
        &mut self,
        sess: u64,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<ResultSet> {
        self.catalog.get(table)?; // validate before logging
        if rows.is_empty() {
            return Ok(ResultSet::dml(0));
        }
        self.log_in_txn(sess, |s, txn| s.log_insert(txn, table, &rows))?;
        let t = self.catalog.get_mut(table)?;
        let undo = t.undo_state();
        let n = t.load_rows(rows)?; // atomic: an error inserts nothing
        self.push_undo(sess, UndoEntry::Mutated { table: table.to_string(), undo });
        self.query.check()?;
        Ok(ResultSet::dml(n))
    }

    /// `CREATE TABLE <name> AS <query>`: streams the query result into a new
    /// table, charging the budget incrementally (the out-of-core CTAS path
    /// used by the Qymera runner to materialize intermediate states).
    pub fn create_table_as(&mut self, name: &str, sql: &str) -> Result<usize> {
        let st = parse_statement(sql)?;
        let Statement::Query(q) = st else {
            return Err(Error::Plan("CREATE TABLE AS requires a query".into()));
        };
        with_exec_stack(&q, || {
            let plan = optimize(plan_query(&q, &self.catalog)?);
            self.create_table_as_exec(name, plan)
        })
    }

    /// Execution half of [`Self::create_table_as`] (runs on the execution
    /// stack for deep plans).
    fn create_table_as_exec(&mut self, name: &str, plan: Plan) -> Result<usize> {
        if self.in_transaction() {
            // CTAS frames span many streamed chunks; splicing that into an
            // open transaction's frame is not supported.
            return Err(Error::Unsupported(
                "CREATE TABLE AS inside an open transaction".into(),
            ));
        }
        let _grant = self.admission.admit()?;
        self.maybe_heal_poisoned();
        self.begin_query();
        self.in_txn(0, Vec::new(), |db| db.create_table_as_in_txn(name, plan))
    }

    /// CTAS body: one WAL frame wraps the `CREATE TABLE` and every
    /// streamed insert chunk, so recovery replays either the whole table
    /// or none of it. Any failure — query error mid-stream, budget
    /// overrun, WAL fault, cancellation — aborts the implicit transaction,
    /// whose `Created` undo entry drops the partially built table again.
    fn create_table_as_in_txn(&mut self, name: &str, plan: Plan) -> Result<usize> {
        const CHUNK: usize = 4096;
        let names = plan.schema().names();
        let stream = build_batch_stream(&plan, &self.catalog, &self.ctx())?;
        let mut created = false;
        let mut buf: Vec<Row> = Vec::new();
        let mut inserted = 0usize;
        drain(stream, |batch| {
            buf.extend(batch.into_rows());
            if !created {
                self.ctas_create(name, &names, buf.first())?;
                created = true;
            }
            while buf.len() >= CHUNK {
                let rest = buf.split_off(CHUNK);
                inserted += self.ctas_append(name, std::mem::replace(&mut buf, rest))?;
            }
            Ok(())
        })?;
        if !created {
            self.ctas_create(name, &names, None)?;
        }
        if !buf.is_empty() {
            inserted += self.ctas_append(name, buf)?;
        }
        Ok(inserted)
    }

    /// Log and create the CTAS target. Column types are inferred from the
    /// first result row; later rows must coerce losslessly (the Qymera
    /// translator guarantees this by casting `s` explicitly when states are
    /// wider than 63 bits). An empty result makes every column `DOUBLE`.
    fn ctas_create(&mut self, name: &str, names: &[String], first: Option<&Row>) -> Result<()> {
        let types: Vec<DataType> = match first {
            Some(row) => row.iter().map(infer_type).collect(),
            None => vec![DataType::Double; names.len()],
        };
        let columns: Vec<(String, DataType)> = names.iter().cloned().zip(types).collect();
        self.log_in_txn(0, |s, txn| s.log_create(txn, name, &columns))?;
        self.catalog.create_table(name, columns, false, self.budget.clone())?;
        self.push_undo(0, UndoEntry::Created { name: name.to_string() });
        Ok(())
    }

    /// Log and load one CTAS chunk. Cancel point per chunk: nothing from a
    /// doomed chunk is logged or applied. `load_rows` coerces and appends
    /// straight into the table's typed column builders.
    fn ctas_append(&mut self, name: &str, rows: Vec<Row>) -> Result<usize> {
        self.query.check()?;
        self.log_in_txn(0, |s, txn| s.log_insert(txn, name, &rows))?;
        self.catalog.get_mut(name)?.load_rows(rows)
    }

    /// Bulk-load pre-built rows (bypasses SQL parsing; used by the Qymera
    /// translator for gate/state tables, mirroring a native loader API).
    /// Rows stream into the table's typed column builders; a coercion error
    /// or budget overrun inserts nothing. Runs exactly like an `INSERT`
    /// statement: inside the open transaction when there is one (an error
    /// aborts it), as an implicit one otherwise.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let _grant = self.admission.admit()?;
        self.maybe_heal_poisoned();
        self.begin_query();
        self.in_txn(0, Vec::new(), |db| db.insert_rows_in_txn(0, table, rows))
            .map(|rs| rs.affected())
    }

    /// Output schema a query would produce, without executing it.
    pub fn query_schema(&self, sql: &str) -> Result<RelSchema> {
        let st = parse_statement(sql)?;
        let Statement::Query(q) = st else {
            return Err(Error::Plan("not a query".into()));
        };
        with_exec_stack(&q, || Ok(plan_query(&q, &self.catalog)?.schema()))
    }

    /// EXPLAIN-style plan rendering.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let st = parse_statement(sql)?;
        let Statement::Query(q) = st else {
            return Err(Error::Plan("EXPLAIN requires a query".into()));
        };
        self.explain_query(&q)
    }

    fn explain_query(&self, q: &Query) -> Result<String> {
        with_exec_stack(q, || Ok(optimize(plan_query(q, &self.catalog)?).explain()))
    }

    /// What `sql` (a query) means over the current tables, computed by the
    /// reference interpreter ([`crate::reference`]) and not by the executor:
    /// the oracle tests and `crates/check` compare [`Database::execute`]
    /// against. A function of the SQL text and the catalog only — no budget,
    /// spill, cancellation, admission or statistics — holding every
    /// intermediate result in memory, so not for production paths.
    pub fn query_reference(&self, sql: &str) -> Result<ResultSet> {
        let Statement::Query(q) = parse_statement(sql)? else {
            return Err(Error::Plan("query_reference requires a query".into()));
        };
        with_exec_stack(&q, || {
            let plan = optimize(plan_query(&q, &self.catalog)?);
            let rows = reference::run(&plan, &self.catalog)?;
            Ok(ResultSet { columns: plan.schema().names(), rows, affected: 0 })
        })
    }

    pub fn table_names(&self) -> Vec<String> {
        self.catalog.table_names()
    }

    pub fn table_row_count(&self, name: &str) -> Result<usize> {
        Ok(self.catalog.get(name)?.row_count())
    }

    /// Drop `name` if present (WAL-framed like `DROP TABLE IF EXISTS`).
    pub fn drop_table_if_exists(&mut self, name: &str) -> Result<()> {
        self.execute_statement(Statement::DropTable {
            name: name.to_string(),
            if_exists: true,
        })
        .map(|_| ())
    }

    /// Apply a delete to the in-memory table (shared by `DELETE` execution
    /// and WAL replay; the caller owns logging and rollback).
    fn run_delete(&mut self, table: &str, where_clause: Option<&Expr>) -> Result<usize> {
        let schema = self.catalog.get(table)?.schema();
        let predicate = match where_clause {
            Some(w) => Some(bind(w, &schema)?),
            None => None,
        };
        let t = self.catalog.get_mut(table)?;
        t.delete_where(|row| match &predicate {
            Some(p) => Ok(p.eval(row)?.as_bool()? == Some(true)),
            None => Ok(true),
        })
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
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

/// Infer a column type from a sample value (CTAS).
fn infer_type(v: &Value) -> DataType {
    match v {
        Value::Int(_) => DataType::Integer,
        Value::Float(_) => DataType::Double,
        Value::Str(_) => DataType::Text,
        Value::Big(_) => DataType::HugeInt,
        Value::Null => DataType::Double,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ghz_db() -> Database {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE T0 (s INTEGER, r DOUBLE, i DOUBLE); \
             INSERT INTO T0 VALUES (0, 1.0, 0.0); \
             CREATE TABLE H (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE); \
             INSERT INTO H VALUES (0, 0, 0.7071067811865476, 0.0), \
                                  (0, 1, 0.7071067811865476, 0.0), \
                                  (1, 0, 0.7071067811865476, 0.0), \
                                  (1, 1, -0.7071067811865476, 0.0); \
             CREATE TABLE CX (in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE); \
             INSERT INTO CX VALUES (0, 0, 1.0, 0.0), (1, 3, 1.0, 0.0), \
                                   (2, 2, 1.0, 0.0), (3, 1, 1.0, 0.0);",
        )
        .unwrap();
        db
    }

    #[test]
    fn fig2_full_cte_chain_produces_ghz() {
        // The exact query of Fig. 2c, three gates on |000⟩.
        let mut db = ghz_db();
        let sql = "WITH T1 AS (
              SELECT ((T0.s & ~1) | H.out_s) AS s,
                     SUM((T0.r * H.r) - (T0.i * H.i)) AS r,
                     SUM((T0.r * H.i) + (T0.i * H.r)) AS i
              FROM T0 JOIN H ON H.in_s = (T0.s & 1)
              GROUP BY ((T0.s & ~1) | H.out_s)),
            T2 AS (
              SELECT ((T1.s & ~3) | CX.out_s) AS s,
                     SUM((T1.r * CX.r) - (T1.i * CX.i)) AS r,
                     SUM((T1.r * CX.i) + (T1.i * CX.r)) AS i
              FROM T1 JOIN CX ON CX.in_s = (T1.s & 3)
              GROUP BY ((T1.s & ~3) | CX.out_s)),
            T3 AS (
              SELECT ((T2.s & ~6) | (CX.out_s << 1)) AS s,
                     SUM((T2.r * CX.r) - (T2.i * CX.i)) AS r,
                     SUM((T2.r * CX.i) + (T2.i * CX.r)) AS i
              FROM T2 JOIN CX ON CX.in_s = ((T2.s >> 1) & 3)
              GROUP BY ((T2.s & ~6) | (CX.out_s << 1)))
            SELECT s, r, i FROM T3 ORDER BY s";
        let rs = db.execute(sql).unwrap();
        assert_eq!(rs.columns(), &["s", "r", "i"]);
        assert_eq!(rs.rows().len(), 2, "GHZ state has two basis states");
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        assert_eq!(rs.rows()[0][0], Value::Int(0));
        assert!((rs.rows()[0][1].as_f64().unwrap() - inv_sqrt2).abs() < 1e-12);
        assert_eq!(rs.rows()[1][0], Value::Int(7));
        assert!((rs.rows()[1][1].as_f64().unwrap() - inv_sqrt2).abs() < 1e-12);
    }

    #[test]
    fn insert_with_column_list_and_delete() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
        let rs = db.execute("INSERT INTO t (b, a) VALUES ('x', 1), ('y', 2)").unwrap();
        assert_eq!(rs.affected(), 2);
        let rs = db.execute("SELECT a FROM t WHERE b = 'x'").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(1)));
        let rs = db.execute("DELETE FROM t WHERE a = 1").unwrap();
        assert_eq!(rs.affected(), 1);
        assert_eq!(db.table_row_count("t").unwrap(), 1);
    }

    #[test]
    fn create_table_as_streams_rows() {
        let mut db = ghz_db();
        let n = db
            .create_table_as("T1", "SELECT ((T0.s & ~1) | H.out_s) AS s, \
                 SUM((T0.r * H.r) - (T0.i * H.i)) AS r, \
                 SUM((T0.r * H.i) + (T0.i * H.r)) AS i \
                 FROM T0 JOIN H ON H.in_s = (T0.s & 1) \
                 GROUP BY ((T0.s & ~1) | H.out_s)")
            .unwrap();
        assert_eq!(n, 2);
        let rs = db.execute("SELECT COUNT(*) FROM T1").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn stats_track_execution() {
        let mut db = ghz_db();
        let before = db.stats();
        db.execute("SELECT * FROM H").unwrap();
        let after = db.stats();
        assert_eq!(after.statements_executed, before.statements_executed + 1);
        assert_eq!(after.rows_returned, before.rows_returned + 4);
        assert!(after.peak_memory_bytes > 0);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut db = Database::new();
        assert!(db.execute("SELECT * FROM missing").is_err());
        assert!(db.execute("SELEC 1").is_err());
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(db.execute("INSERT INTO t VALUES (1, 2)").is_err());
        assert!(db.execute("INSERT INTO t VALUES ('text')").is_err());
    }

    #[test]
    fn memory_limited_db_spills_on_aggregate() {
        // Budget fits the 50k-row base table (~1.2 MB in columnar chunks)
        // but not the 20k-group aggregation state on top of it, forcing the
        // operator to spill.
        let mut db = Database::with_memory_limit(2 * 1024 * 1024);
        db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)").unwrap();
        let rows: Vec<Row> = (0..50_000)
            .map(|i| vec![Value::Int(i % 20_000), Value::Float(0.5)])
            .collect();
        db.insert_rows("big", rows).unwrap();
        let rs = db
            .execute("SELECT k, SUM(v) AS total FROM big GROUP BY k ORDER BY k LIMIT 3")
            .unwrap();
        assert_eq!(rs.rows().len(), 3);
        assert!(db.stats().spill_files > 0, "expected the aggregate to spill");
    }

    #[test]
    fn to_table_string_renders() {
        let mut db = ghz_db();
        let rs = db.execute("SELECT in_s, out_s FROM CX ORDER BY in_s").unwrap();
        let s = rs.to_table_string();
        assert!(s.contains("in_s"));
        assert!(s.lines().count() >= 6);
    }

    #[test]
    fn explain_returns_plan() {
        let db = ghz_db();
        let text = db.explain("SELECT s FROM T0 WHERE s = 0").unwrap();
        assert!(text.contains("Scan T0"));
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;

    #[test]
    fn explain_statement_returns_plan_rows() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)").unwrap();
        let rs = db.execute("EXPLAIN SELECT a FROM t WHERE a > 1 ORDER BY a").unwrap();
        assert_eq!(rs.columns(), &["plan"]);
        let text: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
        assert!(text.iter().any(|l| l.contains("Scan t")), "{text:?}");
        assert!(text.iter().any(|l| l.contains("Sort")), "{text:?}");
    }

    #[test]
    fn explain_shows_pushdown() {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (x INTEGER)").unwrap();
        db.execute("CREATE TABLE b (y INTEGER)").unwrap();
        let rs = db
            .execute("EXPLAIN SELECT x FROM a JOIN b ON a.x = b.y WHERE a.x > 3")
            .unwrap();
        let text = rs
            .rows()
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        // the filter on a.x must sit below the join after optimization
        let join_pos = text.find("Join").unwrap();
        let filter_pos = text.find("Filter").unwrap();
        assert!(filter_pos > join_pos, "filter should be pushed under the join:\n{text}");
    }
}

#[cfg(test)]
mod explain_analyze_tests {
    use super::*;

    #[test]
    fn explain_analyze_reports_rows_per_operator() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        let rows: Vec<Row> = (0..100).map(|i| vec![Value::Int(i)]).collect();
        db.insert_rows("t", rows).unwrap();
        let text = db
            .explain_analyze("SELECT a FROM t WHERE a < 10 ORDER BY a DESC")
            .unwrap();
        assert!(text.contains("Scan t"), "{text}");
        assert!(text.contains("rows=100"), "scan emits all rows:\n{text}");
        assert!(text.contains("rows=10"), "filter passes 10 rows:\n{text}");
        assert!(text.contains("total output rows: 10"), "{text}");
    }

    #[test]
    fn explain_analyze_join_aggregate_shape() {
        let mut db = Database::new();
        db.execute_script(
            "CREATE TABLE s (k INTEGER, v DOUBLE); \
             INSERT INTO s VALUES (0, 1.0), (1, 2.0), (0, 3.0); \
             CREATE TABLE g (k INTEGER, w DOUBLE); \
             INSERT INTO g VALUES (0, 10.0), (1, 20.0);",
        )
        .unwrap();
        let text = db
            .explain_analyze(
                "SELECT s.k, SUM(s.v * g.w) FROM s JOIN g ON s.k = g.k GROUP BY s.k",
            )
            .unwrap();
        assert!(text.contains("Join"), "{text}");
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains("total output rows: 2"), "{text}");
    }
}
