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
use std::sync::Arc;

use crate::ast::{Expr, Query, Statement};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::batch::RowBatch;
use crate::exec::govern::{CancelHandle, QueryContext};
use crate::exec::vector::{build_batch_stream, drain};
use crate::exec::{ExecContext, NodeStats};
use crate::expr::bind;
use crate::parser::{parse_script, parse_statement};
use crate::plan::logical::{depth_bound, plan_query, Plan};
use crate::plan::optimizer::{optimize, optimize_with_facts};
use crate::reference;
use crate::schema::{Facts, RelSchema};
use crate::storage::budget::MemoryBudget;
use crate::storage::fault::FaultInjector;
use crate::storage::spill::{Row, SpillDir};
use crate::storage::wal::DurableStore;
use crate::txn::lock::{LockGuard, LockTable};
use crate::txn::TxnState;

mod durable;
mod result;
mod txn;
#[cfg(test)]
mod tests;

pub use durable::DurabilityOptions;
pub use result::{DbStats, RecoveryStats, ResultSet};

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

/// An embedded database instance. Statement execution is driven from the
/// caller's thread; with [`Database::set_parallelism`] above 1 (the default
/// is 1) the batch executor fans eligible pipeline
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
    /// Deterministic cancel injection: latch a cancel at the n-th
    /// governance poll of each subsequent statement (tests/fuzzer knob).
    cancel_after_polls: Option<u64>,
    /// Governance token of the statement in flight (or most recently run);
    /// [`Database::ctx`] embeds a clone so operators can observe it.
    query: QueryContext,
    /// What [`Database::open_with`] recovered (zero in memory).
    recovery: RecoveryStats,
    /// Open transactions, keyed by session id. Session `0` is the plain
    /// [`Database::execute`] caller; [`crate::txn::Session`]s get ids ≥ 1.
    txns: HashMap<u64, TxnState>,
    /// Table lock manager shared with [`crate::txn::SharedDb`] sessions
    /// (the plain session never contends, so it skips lock acquisition).
    locks: Arc<LockTable>,
}

/// Worker threads a fresh [`Database`] allows the batch executor: the
/// `QYMERA_PARALLELISM` environment variable when set (a positive integer),
/// otherwise 1 — fully sequential. The worker pool is opt-in: on the paper's
/// single-query chains it never engages, and in step-table mode it measured
/// slower than one worker. An unparsable value panics rather than silently
/// falling back — the variable exists so CI can pin a worker count for
/// whole test suites, and ignoring a typo would invert that guarantee.
fn default_parallelism() -> usize {
    match std::env::var("QYMERA_PARALLELISM") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => panic!("QYMERA_PARALLELISM must be a non-negative integer, got `{raw}`"),
        },
        Err(_) => 1,
    }
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
        Self::in_memory(budget, FaultInjector::none())
    }

    /// An in-memory database whose disk paths (spill) go through `injector`;
    /// [`Database::open_with`] attaches the durable store to one.
    fn in_memory(budget: MemoryBudget, injector: Arc<FaultInjector>) -> Self {
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
            cancel_after_polls: None,
            query: QueryContext::unbounded(),
            recovery: RecoveryStats::default(),
            txns: HashMap::new(),
            locks: Arc::new(LockTable::new()),
        }
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

    /// Deterministic cancel injection for tests and the cancellation
    /// fuzzer: every subsequent statement latches a cooperative cancel at
    /// its `n`-th governance poll (entry, per-batch, per-morsel, per-spill
    /// run, pre-commit — wherever [`QueryContext::check`] runs). `None`
    /// disarms.
    pub fn arm_cancel_after_polls(&mut self, n: Option<u64>) {
        self.cancel_after_polls = n;
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
            self.interrupt.flag(),
            self.cancel_after_polls,
        );
        self.query = q.clone();
        q
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
                crate::txn::UndoEntry::Dropped { table } => table.bytes(),
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
    /// exactly and is the default (unless the `QYMERA_PARALLELISM`
    /// environment variable sets another).
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
        let (wal_bytes, wal_fsyncs) =
            self.durable.as_ref().map_or((0, 0), DurableStore::io_counts);
        DbStats {
            statements_executed: self.statements,
            rows_returned: self.rows_returned,
            spill_files: self.spill.files_created(),
            spill_bytes: self.spill.bytes_written(),
            peak_memory_bytes: self.budget.peak(),
            wal_bytes,
            wal_fsyncs,
            recovery: self.recovery,
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
    /// and render the plan annotated with row counts, inclusive times
    /// (`time=`) and exclusive times (`self=`, see [`NodeStats::self_nanos`]).
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let (nodes, total_rows) = self.analyze(sql)?;
        let mut out = String::new();
        for (node, own) in nodes.iter().zip(NodeStats::self_nanos(&nodes)) {
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
                "{}{:<28} rows={:<9} {}{}time={:.3} ms self={:.3} ms
",
                "  ".repeat(node.depth),
                node.label,
                node.rows_out,
                batches,
                parallel,
                node.nanos as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        out.push_str(&format!("total output rows: {total_rows}
"));
        Ok(out)
    }

    /// Execute the query with per-operator instrumentation: the plan's
    /// nodes in pre-order, and the number of rows the query produced.
    fn analyze(&mut self, sql: &str) -> Result<(Vec<NodeStats>, u64)> {
        use std::cell::RefCell;
        use std::rc::Rc;
        let st = parse_statement(sql)?;
        let Statement::Query(q) = st else {
            return Err(Error::Plan("EXPLAIN ANALYZE requires a query".into()));
        };
        with_exec_stack(&q, || {
            let plan = optimize(plan_query(&q, &self.catalog)?);
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
            let nodes = stats.borrow().clone();
            Ok((nodes, total_rows))
        })
    }

    /// Execute a single SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet> {
        let st = parse_statement(sql)?;
        self.execute_statement(st)
    }

    /// Run a query like [`Database::execute`] — one statement counted, its
    /// rows added to `rows_returned`, under the session's timeout and
    /// cancel handle, inside session 0's open transaction if there is one —
    /// but hand back the batches the pipeline emitted instead of rows.
    /// Columns keep their lanes (`ORDER BY s` over a state returns
    /// `Column::Int` / `Column::Float` slices), and a bare scan returns the
    /// table's own chunk columns. Errors (and aborts) exactly like
    /// `execute`; a statement that is not a query is refused unrun.
    pub fn query_batches(&mut self, sql: &str) -> Result<Vec<RowBatch>> {
        let Statement::Query(q) = parse_statement(sql)? else {
            return Err(Error::Plan("query_batches requires a query".into()));
        };
        self.begin_statement();
        let mut batches = Vec::new();
        self.in_txn(0, Vec::new(), |db| db.drain_query(&q, |batch| batches.push(batch)))?;
        Ok(batches)
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
    /// Runs under lifecycle governance: the statement executes under a fresh
    /// [`QueryContext`] carrying the session's timeout and interrupt flag.
    /// A cancel or deadline expiry surfaces as
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
        self.begin_statement();

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

    /// Count one statement and start its governance: heal a poisoned log
    /// first, then mint the statement's [`QueryContext`].
    fn begin_statement(&mut self) {
        self.statements += 1;
        self.maybe_heal_poisoned();
        self.begin_query();
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
            let (plan, facts) = optimize_with_facts(plan_query(&q, &self.catalog)?);
            self.create_table_as_exec(name, plan, facts)
        })
    }

    /// Execution half of [`Self::create_table_as`] (runs on the execution
    /// stack for deep plans).
    fn create_table_as_exec(&mut self, name: &str, plan: Plan, facts: Facts) -> Result<usize> {
        if self.in_transaction() {
            // CTAS frames span many streamed chunks; splicing that into an
            // open transaction's frame is not supported.
            return Err(Error::Unsupported(
                "CREATE TABLE AS inside an open transaction".into(),
            ));
        }
        self.maybe_heal_poisoned();
        self.begin_query();
        self.in_txn(0, Vec::new(), |db| db.create_table_as_in_txn(name, plan, facts))
    }

    /// Bulk-load pre-built rows (bypasses SQL parsing; used by the Qymera
    /// translator for gate/state tables, mirroring a native loader API).
    /// The rows become one batch (`RowBatch::from_owned_rows`) that is
    /// logged as one column block and appended in one step; a coercion error
    /// or budget overrun inserts nothing. Runs exactly like an `INSERT`
    /// statement: inside the open transaction when there is one (an error
    /// aborts it), as an implicit one otherwise.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
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
    /// spill, cancellation or statistics — holding every
    /// intermediate result in memory, so not for production paths.
    pub fn query_reference(&self, sql: &str) -> Result<ResultSet> {
        let Statement::Query(q) = parse_statement(sql)? else {
            return Err(Error::Plan("query_reference requires a query".into()));
        };
        with_exec_stack(&q, || {
            let plan = optimize(plan_query(&q, &self.catalog)?);
            let rows = reference::run(&plan, &self.catalog)?;
            Ok(ResultSet::query(plan.schema().names(), rows))
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

}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}
