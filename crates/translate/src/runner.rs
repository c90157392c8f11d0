//! The SQL simulation backend: translate a circuit, execute it on the
//! embedded relational engine, read the final state back.
//!
//! Two execution modes mirror the system description:
//!
//! * [`ExecMode::SingleQuery`] — the whole circuit as one `WITH` chain
//!   (Fig. 2c). The engine pipelines the CTEs; grouped aggregation spills to
//!   disk under memory pressure, which is the paper's out-of-core story
//!   (§3.3) in action.
//! * [`ExecMode::StepTables`] — one `CREATE TABLE … AS` per gate (per fused
//!   block, [`crate::fusion`]), dropping the previous state. Intermediate
//!   states are inspectable (Scenario 3's educational walk-through, which
//!   never fuses: [`SqlSimulator::run_trace`]) at the cost of materializing
//!   each state.
//!
//! On a `--db` directory a run is one transaction: `BEGIN`, the gate tables
//! and `T0`, then (step tables) the leftover drops and the step loop,
//! `COMMIT`; single-query mode commits right after the loads. That makes a
//! run one WAL frame and one fsync, and a state created and dropped inside
//! it never reaches the log — only the tables alive at `COMMIT` do. In
//! memory there is no log to save, and every statement auto-commits.

use qymera_circuit::{c64, Complex64, QuantumCircuit};
use qymera_sim::{Amplitudes, SimError, SimOptions, SimOutput, Simulator};
use qymera_sqldb::exec::batch::{Column, RowBatch};
use qymera_sqldb::{
    CancelHandle, Database, DbStats, DurabilityOptions, Error as SqlError, MemoryBudget, Value,
};

use crate::fusion::{lower_circuit, MAX_FUSED_QUBITS};
use crate::sqlgen::{circuit_query, state_table_name, step_statement, SqlGenConfig};
use crate::tables::{create_initial_state_table, GateOp, GateTableRegistry};

/// How the translated circuit is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One CTE chain per circuit (streaming, out-of-core friendly).
    #[default]
    SingleQuery,
    /// One materialized state table per gate (inspectable).
    StepTables,
}

/// Configuration of the SQL backend.
#[derive(Debug, Clone)]
pub struct SqlSimConfig {
    /// Single-query CTE chain vs. one materialized table per gate.
    pub mode: ExecMode,
    /// Fuse consecutive gates into blocks of up to this many qubits (§3.2,
    /// under the rule in [`crate::fusion`]); `None` = off, one op per gate.
    /// Default `Some(`[`MAX_FUSED_QUBITS`]`)` in both modes;
    /// [`SqlSimulator::run_trace`] and [`SqlSimulator::profile`] never fuse.
    pub fusion: Option<usize>,
    /// SQL generation options (interference pruning via `HAVING`; Fig. 2c's
    /// join for every gate instead of projections for the lone ones that
    /// cannot interfere).
    pub sqlgen: SqlGenConfig,
    /// Engine memory budget in bytes (tables + operators); `None` unlimited.
    /// This is what the paper's 2.0 GB experiment constrains.
    pub memory_limit: Option<usize>,
    /// Accepted and ignored: statements run on the caller's thread; kept
    /// only until perfbench stops calling it.
    pub parallelism: Option<usize>,
    /// Open the engine on a persistent on-disk database at this directory
    /// (write-ahead logged, checkpointed, crash-recoverable) instead of the
    /// default in-memory store. Gate and state tables are replaced on rerun,
    /// so pointing repeated simulations at one directory is safe.
    pub db_path: Option<std::path::PathBuf>,
    /// Per-statement deadline in milliseconds for every SQL statement the
    /// run issues; exceeding it fails the run with [`SimError::Timeout`] and
    /// rolls the engine back cleanly. `None` or `Some(0)` = no deadline.
    pub timeout_ms: Option<u64>,
    /// External cancel handle observed by every statement of the run (wire
    /// a Ctrl-C handler to it); a cancel surfaces as [`SimError::Cancelled`]
    /// with the engine rolled back cleanly. `None` creates a private,
    /// never-cancelled handle.
    pub cancel: Option<CancelHandle>,
}

impl Default for SqlSimConfig {
    fn default() -> Self {
        SqlSimConfig {
            mode: ExecMode::default(),
            fusion: Some(MAX_FUSED_QUBITS),
            sqlgen: SqlGenConfig::default(),
            memory_limit: None,
            parallelism: None,
            db_path: None,
            timeout_ms: None,
            cancel: None,
        }
    }
}

/// One amplitude of the final state as the engine returned it. The basis
/// index is a [`Value`] because registers beyond 63 qubits use `HUGEINT`.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlAmplitude {
    /// Basis-state index (`INTEGER` or `HUGEINT` past 63 qubits).
    pub s: Value,
    /// The complex amplitude of that basis state.
    pub amp: Complex64,
}

/// Result of a SQL-backend run.
#[derive(Debug, Clone)]
pub struct SqlRunResult {
    /// Register width of the simulated circuit.
    pub num_qubits: usize,
    /// The final state's nonzero amplitudes, in basis-state order.
    pub amplitudes: Vec<SqlAmplitude>,
    /// Engine statistics (peak memory, spill files/bytes, statement count).
    pub stats: DbStats,
    /// Number of gate operations after fusion.
    pub ops_executed: usize,
}

impl SqlRunResult {
    /// Σ|a|².
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.amp.norm_sqr()).sum()
    }

    /// Stored (nonzero) amplitude count.
    pub fn support(&self) -> usize {
        self.amplitudes.len()
    }
}

/// Result of [`SqlSimulator::run_trace`].
#[derive(Debug, Clone)]
pub struct SqlTrace {
    /// Index 0 is the initial state, index k the state after gate k, each
    /// in basis-state order.
    pub states: Vec<Vec<SqlAmplitude>>,
    /// Engine statistics of the whole trace (WAL bytes and fsyncs with
    /// `--db`).
    pub stats: DbStats,
}

/// The SQL simulation backend.
///
/// # Examples
///
/// ```
/// use qymera_translate::SqlSimulator;
/// use qymera_circuit::library;
///
/// // Simulate a 3-qubit GHZ circuit entirely inside the relational engine.
/// let result = SqlSimulator::paper_default().run(&library::ghz(3)).unwrap();
/// assert_eq!(result.support(), 2); // |000⟩ and |111⟩
/// assert!((result.norm_sqr() - 1.0).abs() < 1e-12);
///
/// // The generated SQL is the paper's Fig. 2c CTE chain …
/// let sql = SqlSimulator::paper_default().generated_sql(&library::ghz(3));
/// assert!(sql.starts_with("WITH T1 AS ("));
/// assert_eq!(sql.matches(" JOIN ").count(), 3);
/// // … while the default writes the two CX gates as projections.
/// let sql = SqlSimulator::default().generated_sql(&library::ghz(3));
/// assert_eq!(sql.matches(" JOIN ").count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SqlSimulator {
    /// Execution mode, fusion, SQL generation, and memory-limit settings.
    pub config: SqlSimConfig,
}

impl SqlSimulator {
    /// Simulator with an explicit configuration.
    pub fn new(config: SqlSimConfig) -> Self {
        SqlSimulator { config }
    }

    /// The paper's setup: single query, gates fused into blocks of up to
    /// [`MAX_FUSED_QUBITS`] qubits where they cannot interfere (§3.2), every
    /// op a join with its gate table ([`SqlGenConfig::FIG_2C`]; a circuit
    /// where nothing may fuse, like `ghz:3`, is Fig. 2c verbatim), no memory
    /// limit. The default config differs only in writing lone gates that
    /// cannot interfere as projections.
    pub fn paper_default() -> Self {
        Self::new(SqlSimConfig { sqlgen: SqlGenConfig::FIG_2C, ..SqlSimConfig::default() })
    }

    /// `BEGIN` or `COMMIT` of the run's transaction, which only a `--db`
    /// run has (see the module doc).
    fn run_txn(&self, db: &mut Database, sql: &str) -> Result<(), SimError> {
        if self.config.db_path.is_none() {
            return Ok(());
        }
        db.execute(sql).map(drop).map_err(map_sql_error)
    }

    fn make_db(&self) -> Result<Database, SimError> {
        let mut db = match &self.config.db_path {
            Some(dir) => {
                let mut opts = DurabilityOptions::default();
                if let Some(limit) = self.config.memory_limit {
                    opts.budget = MemoryBudget::with_limit(limit);
                }
                Database::open_with(dir, opts).map_err(map_sql_error)?
            }
            None => match self.config.memory_limit {
                Some(limit) => Database::with_memory_limit(limit),
                None => Database::new(),
            },
        };
        db.set_statement_timeout_ms(self.config.timeout_ms);
        if let Some(handle) = &self.config.cancel {
            db.set_cancel_handle(handle.clone());
        }
        Ok(db)
    }

    /// The full SQL this backend would execute for `circuit` (single-query
    /// mode text, as shown in the paper's Fig. 2c).
    pub fn generated_sql(&self, circuit: &QuantumCircuit) -> String {
        let (_, ops) = self.lower(circuit, self.config.fusion);
        circuit_query(&ops, circuit.num_qubits, "T0", &self.config.sqlgen)
    }

    /// Execute the query [`Self::run`] executes, fused as configured, under
    /// `EXPLAIN ANALYZE`, returning the per-operator profile (per plan node:
    /// rows, batches, `time=` with its children and `self=` without) — the
    /// Output Layer's performance metrics at operator granularity — and, as
    /// its last line, what the run spilled (`spill: N files, B bytes`). One
    /// `HashJoin` line per joined op, with a `HashAggregate` above it where
    /// the op groups, and per projected op one `Project [3]` straight over
    /// the previous state.
    pub fn explain_analyze(&self, circuit: &QuantumCircuit) -> Result<String, SimError> {
        let (reg, ops) = self.lower(circuit, self.config.fusion);
        let mut db = self.make_db()?;
        reg.materialize(&mut db).map_err(map_sql_error)?;
        create_initial_state_table(&mut db, "T0", circuit.num_qubits, 0)
            .map_err(map_sql_error)?;
        let sql = circuit_query(&ops, circuit.num_qubits, "T0", &self.config.sqlgen);
        let text = db.explain_analyze(&sql).map_err(map_sql_error)?;
        let stats = db.stats();
        Ok(format!("{text}spill: {} files, {} bytes\n", stats.spill_files, stats.spill_bytes))
    }

    /// The per-gate profile: [`Self::explain_analyze`] of the unfused chain
    /// of joins, whatever [`SqlSimConfig::fusion`] and
    /// [`SqlGenConfig::join_every_gate`] say. One `HashAggregate` line per
    /// gate, whose `rows=` is the state after it.
    pub fn profile(&self, circuit: &QuantumCircuit) -> Result<String, SimError> {
        let sqlgen = SqlGenConfig { join_every_gate: true, ..self.config.sqlgen.clone() };
        let config = SqlSimConfig { fusion: None, sqlgen, ..self.config.clone() };
        SqlSimulator::new(config).explain_analyze(circuit)
    }

    /// Run the circuit and return the final state plus engine statistics.
    /// On a `--db` directory one transaction: the loads and, in step-table
    /// mode, every step (see the module doc).
    pub fn run(&self, circuit: &QuantumCircuit) -> Result<SqlRunResult, SimError> {
        let (batches, stats, ops_executed) = self.execute(circuit)?;
        let amplitudes = amplitudes_of(&batches)?;
        Ok(SqlRunResult { num_qubits: circuit.num_qubits, amplitudes, stats, ops_executed })
    }

    /// What [`Self::run`] and [`Simulator::simulate`] share: the final state
    /// as the engine's batches in basis-state order, the engine statistics
    /// and the number of ops after fusion.
    fn execute(
        &self,
        circuit: &QuantumCircuit,
    ) -> Result<(Vec<RowBatch>, DbStats, usize), SimError> {
        let (reg, ops) = self.lower(circuit, self.config.fusion);
        let mut db = self.make_db()?;
        self.run_txn(&mut db, "BEGIN")?;
        reg.materialize(&mut db).map_err(map_sql_error)?;
        create_initial_state_table(&mut db, "T0", circuit.num_qubits, 0)
            .map_err(map_sql_error)?;

        let batches = match self.config.mode {
            ExecMode::SingleQuery => {
                self.run_txn(&mut db, "COMMIT")?;
                let sql = circuit_query(&ops, circuit.num_qubits, "T0", &self.config.sqlgen);
                db.query_batches(&sql).map_err(map_sql_error)?
            }
            ExecMode::StepTables => {
                drop_leftover_state_tables(&mut db)?;
                for (k, op) in ops.iter().enumerate() {
                    let (next, select) =
                        step_statement(k, op, circuit.num_qubits, &self.config.sqlgen);
                    db.create_table_as(&next, &select).map_err(map_sql_error)?;
                    // Freed at once; on a `--db` run, where the run's
                    // transaction created it, never logged either.
                    db.drop_table_if_exists(&state_table_name(k)).map_err(map_sql_error)?;
                }
                self.run_txn(&mut db, "COMMIT")?;
                read_state(&mut db, &state_table_name(ops.len()))?
            }
        };
        Ok((batches, db.stats(), ops.len()))
    }

    /// Step-by-step execution returning every intermediate state — the
    /// educational trace of Demonstration Scenario 3. Index 0 is the initial
    /// state, index k the state after gate k: the trace never fuses,
    /// whatever [`SqlSimConfig::fusion`] says. On a `--db` directory one
    /// transaction, like [`Self::run`]'s step tables, which keeps every
    /// state table.
    pub fn run_trace(&self, circuit: &QuantumCircuit) -> Result<SqlTrace, SimError> {
        let (reg, ops) = self.lower(circuit, None);
        let mut db = self.make_db()?;
        self.run_txn(&mut db, "BEGIN")?;
        reg.materialize(&mut db).map_err(map_sql_error)?;
        create_initial_state_table(&mut db, "T0", circuit.num_qubits, 0)
            .map_err(map_sql_error)?;
        let mut states = Vec::with_capacity(ops.len() + 1);
        let read = |db: &mut Database, t: &str| amplitudes_of(&read_state(db, t)?);
        states.push(read(&mut db, "T0")?);
        drop_leftover_state_tables(&mut db)?;
        for (k, op) in ops.iter().enumerate() {
            let (next, select) = step_statement(k, op, circuit.num_qubits, &self.config.sqlgen);
            db.create_table_as(&next, &select).map_err(map_sql_error)?;
            states.push(read(&mut db, &next)?);
        }
        self.run_txn(&mut db, "COMMIT")?;
        Ok(SqlTrace { states, stats: db.stats() })
    }

    /// The gate tables and ops of `circuit` for this config's SQL.
    fn lower(
        &self,
        circuit: &QuantumCircuit,
        fusion: Option<usize>,
    ) -> (GateTableRegistry, Vec<GateOp>) {
        let mut reg = GateTableRegistry::for_sql(&self.config.sqlgen);
        let ops = lower_circuit(circuit, &mut reg, fusion);
        (reg, ops)
    }
}

/// What a run on a `--db` directory cost the log and what opening the
/// directory replayed: `B wal bytes, F wal fsyncs, opened in T ms (K
/// frames, A ops replayed)`.
pub fn wal_summary(stats: &DbStats) -> String {
    let r = stats.recovery;
    format!(
        "{} wal bytes, {} wal fsyncs, opened in {:.1} ms ({} frames, {} ops replayed)",
        stats.wal_bytes, stats.wal_fsyncs, r.ms, r.frames, r.ops_applied
    )
}

/// Drop the state tables `T1`, `T2`, … an earlier run left in a reused `--db`
/// directory (`run` leaves its final state, `run_trace` every step); the step
/// loop's `CREATE TABLE T<k>` would fail on them. Only tables that exist are
/// touched, so a fresh directory sees no statement, WAL frame or fsync.
fn drop_leftover_state_tables(db: &mut Database) -> Result<(), SimError> {
    for name in db.table_names() {
        let step = name.strip_prefix('T').and_then(|k| k.parse::<usize>().ok());
        if step.is_some_and(|k| k > 0 && state_table_name(k) == name) {
            db.drop_table_if_exists(&name).map_err(map_sql_error)?;
        }
    }
    Ok(())
}

/// The state table `t` in basis-state order, as the engine's batches.
fn read_state(db: &mut Database, t: &str) -> Result<Vec<RowBatch>, SimError> {
    db.query_batches(&format!("SELECT s, r, i FROM {t} ORDER BY s")).map_err(map_sql_error)
}

/// The amplitudes of `(s, r, i)` result batches.
fn amplitudes_of(batches: &[RowBatch]) -> Result<Vec<SqlAmplitude>, SimError> {
    let mut out = Vec::with_capacity(batches.iter().map(RowBatch::num_rows).sum());
    for_each_amplitude(batches, |s, amp| {
        out.push(SqlAmplitude { s, amp });
        Ok(())
    })?;
    Ok(out)
}

/// Call `f` on each row of `(s, r, i)` result batches, in order, read off
/// their typed columns (`Int` for `s`, `Float` for `r` and `i`); any other
/// lane — a `HUGEINT` index past 63 qubits — goes value by value.
fn for_each_amplitude(
    batches: &[RowBatch],
    mut f: impl FnMut(Value, Complex64) -> Result<(), SimError>,
) -> Result<(), SimError> {
    for batch in batches {
        let [s, r, i] = batch.columns() else {
            return Err(SimError::Numerical("state row arity mismatch".into()));
        };
        if let (Column::Int(s), Column::Float(r), Column::Float(i)) = (&**s, &**r, &**i) {
            for ((&s, &re), &im) in s.iter().zip(r).zip(i) {
                f(Value::Int(s), c64(re, im))?;
            }
            continue;
        }
        let f64_at = |c: &Column, k: usize| {
            c.value_at(k).as_f64().map_err(|e| SimError::Numerical(e.to_string()))
        };
        for k in 0..batch.num_rows() {
            f(s.value_at(k), c64(f64_at(r, k)?, f64_at(i, k)?))?;
        }
    }
    Ok(())
}

/// The `u64` basis index of an engine `s` value (`SimOutput`'s index).
fn basis_index(s: &Value) -> Result<u64, SimError> {
    match s {
        Value::Int(v) if *v >= 0 => Ok(*v as u64),
        Value::Big(b) => {
            b.to_u64().ok_or_else(|| SimError::Numerical("basis index exceeds u64".into()))
        }
        other => Err(SimError::Numerical(format!("unexpected basis index value {other:?}"))),
    }
}

fn map_sql_error(e: SqlError) -> SimError {
    match e {
        SqlError::OutOfMemory { requested, budget } => {
            SimError::OutOfMemory { requested, limit: budget }
        }
        SqlError::Cancelled => SimError::Cancelled,
        SqlError::Timeout { ms } => SimError::Timeout { ms },
        other => SimError::Numerical(other.to_string()),
    }
}

impl Simulator for SqlSimulator {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn simulate(
        &self,
        circuit: &QuantumCircuit,
        opts: &SimOptions,
    ) -> Result<SimOutput, SimError> {
        // SimOutput uses u64 basis indices; wider registers must use
        // `run()` directly (the HUGEINT path).
        if circuit.num_qubits > 63 {
            return Err(SimError::TooManyQubits { qubits: circuit.num_qubits, max: 63 });
        }
        let mut this = self.clone();
        if this.config.memory_limit.is_none() {
            this.config.memory_limit = opts.memory_limit;
        }
        let (batches, stats, ops) = this.execute(circuit)?;
        let tol2 = opts.truncation_tol * opts.truncation_tol;
        // `ORDER BY s` hands the rows over in basis-state order, so they go
        // straight into the vector; `push` refuses any that are not.
        let mut amplitudes =
            Amplitudes::with_capacity(batches.iter().map(RowBatch::num_rows).sum());
        for_each_amplitude(&batches, |s, amp| {
            if amp.norm_sqr() > tol2 {
                amplitudes.push(basis_index(&s)?, amp)?;
            }
            Ok(())
        })?;
        let mut detail = format!(
            "{ops} ops, {} spill files, {} spill bytes",
            stats.spill_files, stats.spill_bytes
        );
        if self.config.db_path.is_some() {
            // Behind the three counters above, whose wording callers parse.
            detail += &format!(", {}", wal_summary(&stats));
        }
        Ok(SimOutput {
            num_qubits: circuit.num_qubits,
            amplitudes,
            memory_bytes: stats.peak_memory_bytes,
            detail,
        })
    }

    fn max_qubits(&self, _opts: &SimOptions) -> usize {
        // The relational encoding itself is bounded by the HUGEINT width we
        // are willing to generate, not by memory; the trait interface caps at
        // u64 indices.
        63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qymera_circuit::{library, CircuitBuilder};
    use qymera_sim::StateVectorSim;

    const TOL: f64 = 1e-9;

    fn run_sql(c: &QuantumCircuit) -> SimOutput {
        SqlSimulator::paper_default().simulate(c, &SimOptions::default()).unwrap()
    }

    #[test]
    fn ghz3_matches_fig2_output() {
        let out = run_sql(&library::ghz(3));
        assert_eq!(out.nonzero_count(), 2);
        assert!((out.probability(0) - 0.5).abs() < TOL);
        assert!((out.probability(7) - 0.5).abs() < TOL);
    }

    #[test]
    fn matches_statevector_on_random_circuits() {
        for seed in 0..6 {
            let c = library::random_circuit(4, 20, seed);
            let sql = run_sql(&c);
            let sv = StateVectorSim.simulate(&c, &SimOptions::default()).unwrap();
            let diff = sql.max_amplitude_diff(&sv);
            assert!(diff < 1e-8, "seed {seed}: SQL differs from dense by {diff}");
        }
    }

    /// `simulate` keeps exactly the rows `run` returns above
    /// `truncation_tol`: the same basis states, in the same order, with the
    /// same bits, in both modes, fused and not.
    #[test]
    fn simulate_keeps_the_bits_and_order_run_returns() {
        let angles: Vec<f64> = (0..28).map(|k| 0.3 + 0.09 * k as f64).collect();
        // RY(1) then RY(−1 + 1e-13) leaves an amplitude near 5e-14 on |1⟩.
        let tiny = CircuitBuilder::new(3).h(2).ry(1.0, 0).ry(-1.0 + 1e-13, 0).cx(2, 1).build();
        let circuits = [
            library::hardware_efficient_ansatz(7, 2).bind_values(&angles).unwrap(),
            library::qft(5),
            tiny,
        ];
        let opts = SimOptions::default();
        let tol2 = opts.truncation_tol * opts.truncation_tol;
        let mut dropped = 0;
        for mode in [ExecMode::SingleQuery, ExecMode::StepTables] {
            for fusion in [Some(MAX_FUSED_QUBITS), None] {
                let sim = SqlSimulator::new(SqlSimConfig { mode, fusion, ..Default::default() });
                for c in &circuits {
                    let bits = |s: u64, a: Complex64| (s, a.re.to_bits(), a.im.to_bits());
                    let run = sim.run(c).unwrap();
                    let want: Vec<_> = run
                        .amplitudes
                        .iter()
                        .filter(|a| a.amp.norm_sqr() > tol2)
                        .map(|a| bits(basis_index(&a.s).unwrap(), a.amp))
                        .collect();
                    dropped += run.support() - want.len();
                    let out = sim.simulate(c, &opts).unwrap();
                    let got: Vec<_> = out.amplitudes.iter().map(|(&s, &a)| bits(s, a)).collect();
                    assert_eq!(got, want, "{mode:?}, fusion {fusion:?}: {c:?}");
                }
            }
        }
        assert!(dropped > 0, "no amplitude fell under truncation_tol");
    }

    #[test]
    fn step_mode_matches_single_query() {
        let c = library::qft(4);
        let single = run_sql(&c);
        let stepped = SqlSimulator::new(SqlSimConfig {
            mode: ExecMode::StepTables,
            ..Default::default()
        })
        .simulate(&c, &SimOptions::default())
        .unwrap();
        assert!(single.max_amplitude_diff(&stepped) < TOL);
    }

    #[test]
    fn step_mode_reuses_a_db_directory() {
        let dir = std::env::temp_dir()
            .join(format!("qymera-step-reuse-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stepped = SqlSimulator::new(SqlSimConfig {
            mode: ExecMode::StepTables,
            db_path: Some(dir.clone()),
            ..Default::default()
        });
        // Each run leaves its final state table behind and a trace leaves
        // every step's; the next run creates T1, T2, … again.
        for c in [library::qft(4), library::ghz(3)] {
            let reference = qymera_sim::SparseSim.simulate(&c, &SimOptions::default()).unwrap();
            let out = stepped.simulate(&c, &SimOptions::default()).unwrap();
            assert!(out.max_amplitude_diff(&reference) < TOL);
            stepped.run_trace(&c).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A step-table run on a fresh directory is one transaction: one
    /// fsync, one frame at reopen holding only the gate tables and the
    /// final state, and the ledger peak of the in-memory run — each state
    /// is freed when the next step drops it, not stashed until `COMMIT`.
    #[test]
    fn step_tables_log_one_frame_of_what_survives() {
        let dir = std::env::temp_dir()
            .join(format!("qymera-step-frame-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = CircuitBuilder::new(10).x(0).x(3).x(8).build();
        c.append(&library::qft(10)).unwrap();
        let config = |db_path| SqlSimConfig {
            mode: ExecMode::StepTables,
            db_path,
            ..Default::default()
        };
        let durable = SqlSimulator::new(config(Some(dir.clone()))).run(&c).unwrap();
        let in_memory = SqlSimulator::new(config(None)).run(&c).unwrap();
        assert_eq!(durable.stats.wal_fsyncs, 1, "{:?}", durable.stats);
        assert_eq!(durable.stats.peak_memory_bytes, in_memory.stats.peak_memory_bytes);
        assert_eq!(durable.amplitudes, in_memory.amplitudes);

        let db = Database::open(&dir).unwrap();
        assert_eq!(db.stats().recovery.frames, 1);
        let (reg, ops) = SqlSimulator::new(config(None)).lower(&c, config(None).fusion);
        let mut want: Vec<String> = reg.joined().map(|(name, _)| name.clone()).collect();
        want.push(state_table_name(ops.len()));
        want.sort();
        let mut tables = db.table_names();
        tables.sort();
        assert_eq!(tables, want);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fusion_preserves_semantics() {
        for seed in 0..4 {
            let c = library::random_circuit(4, 18, seed);
            let plain = run_sql(&c);
            for fuse in [2usize, 3] {
                let fused = SqlSimulator::new(SqlSimConfig {
                    fusion: Some(fuse),
                    ..Default::default()
                })
                .simulate(&c, &SimOptions::default())
                .unwrap();
                let diff = plain.max_amplitude_diff(&fused);
                assert!(diff < 1e-8, "seed {seed} fuse {fuse}: diff {diff}");
            }
        }
    }

    /// (group tables, joins without one) in the profile of `c`.
    fn groups_and_joins(sim: &SqlSimulator, c: &QuantumCircuit) -> (usize, usize) {
        let profile = sim.explain_analyze(c).unwrap();
        let tables = profile.matches("HashAggregate").count();
        assert_eq!(sim.generated_sql(c).matches(" GROUP BY ").count(), tables, "{}", c.name);
        (tables, profile.matches("HashJoin").count() - tables)
    }

    /// Every gate whose table is a partial permutation joins without a
    /// `GROUP BY`, in both mask forms (adjacent and non-adjacent qubits),
    /// plain or fused, in one query or step by step — and no gate that mixes
    /// amplitudes does. By default the lone ones are projections, all but
    /// CSWAP, which has no closed form and joins. What groups is read off
    /// the profile; that it is right, off the dense simulator.
    #[test]
    fn gates_that_cannot_interfere_are_not_grouped_and_the_others_are() {
        let joins = |fusion| SqlSimConfig { fusion, sqlgen: SqlGenConfig::FIG_2C, ..Default::default() };
        // Six Hadamards make the state dense; nothing after them interferes.
        let mut b = CircuitBuilder::new(6);
        for q in 0..6 {
            b = b.h(q);
        }
        let permuting = b
            .x(0).y(1).z(5).s(2).sdg(3).t(3).tdg(4).rz(0.3, 4).p(0.7, 1)
            .cx(0, 1).cx(5, 2).cy(1, 0).cz(3, 4).cz(0, 5).cp(0.4, 2, 3).cp(0.9, 4, 0).crz(1.1, 5, 3)
            .swap(1, 2).swap(0, 4).ccx(0, 1, 2).ccx(5, 0, 3).cswap(2, 4, 5)
            .build();
        let plain = SqlSimulator::new(joins(None));
        assert_eq!(groups_and_joins(&plain, &permuting), (28, 0), "Fig. 2c groups every gate");
        let projected = SqlSimulator::new(SqlSimConfig { fusion: None, ..Default::default() });
        assert_eq!(groups_and_joins(&projected, &permuting), (6, 1));
        assert_eq!(projected.generated_sql(&permuting).matches(" JOIN ").count(), 7);
        let mixing = CircuitBuilder::new(3)
            .h(0).ry(0.3, 1).rx(0.4, 2).sx(0).u3(0.1, 0.2, 0.3, 1).ch(0, 2).crx(0.5, 1, 0).cry(0.6, 2, 1)
            .build();
        assert_eq!(groups_and_joins(&projected, &mixing), (8, 0));
        // Fused: the Hadamards fuse into mixing blocks, the rest into
        // blocks with one nonzero per column, each one join.
        for fuse in [2, 3] {
            let fused = SqlSimulator::new(SqlSimConfig { fusion: Some(fuse), ..Default::default() });
            let (tables, joins) = groups_and_joins(&fused, &permuting);
            assert!(tables <= 6 && joins >= 4, "fuse {fuse}: {tables} tables, {joins} joins");
        }
        let want = StateVectorSim.simulate(&permuting, &SimOptions::default()).unwrap();
        for config in [
            SqlSimConfig::default(),
            joins(None),
            SqlSimConfig { mode: ExecMode::StepTables, fusion: None, ..Default::default() },
            SqlSimConfig { mode: ExecMode::StepTables, ..Default::default() },
            SqlSimConfig { fusion: Some(3), ..Default::default() },
            SqlSimConfig { fusion: Some(2), mode: ExecMode::StepTables, ..Default::default() },
        ] {
            let got = SqlSimulator::new(config.clone()).simulate(&permuting, &SimOptions::default());
            let diff = got.unwrap().max_amplitude_diff(&want);
            assert!(diff < 1e-9, "{config:?}: differs from dense by {diff}");
        }
    }

    /// Fusion never adds a group table, and no block of partial
    /// permutations groups: for every library circuit and 200 random ones,
    /// the fused default builds at most as many group tables as the unfused
    /// one, one per op whose table does not permute.
    #[test]
    fn fusion_never_adds_a_group_table() {
        let ansatz = library::hardware_efficient_ansatz(6, 2);
        let angles: Vec<f64> = (0..ansatz.symbols().len()).map(|k| 0.2 + 0.1 * k as f64).collect();
        let mut circuits = vec![
            library::bell(), library::ghz(6), library::equal_superposition(5), library::w_state(5),
            library::parity_check(&[true, false, true, true, false]), library::parity_check_superposed(5),
            library::qft(7), library::bernstein_vazirani(6, 0b101101), library::deutsch_jozsa(5, None),
            library::deutsch_jozsa(5, Some(0b10110)), library::phase_estimation(4, 5),
            library::grover(4, 9, library::grover_optimal_iterations(4)), library::sparse_circuit(9, 6, 3),
            library::dense_circuit(6, 3, 5), ansatz.bind_values(&angles).unwrap(),
        ];
        circuits.extend((0..200).map(|seed| library::random_circuit(2 + seed as usize % 5, 16, seed)));
        let fused = SqlSimulator::default();
        let unfused = SqlSimulator::new(SqlSimConfig { fusion: None, ..Default::default() });
        for c in &circuits {
            let (built, _) = groups_and_joins(&fused, c);
            let plain = groups_and_joins(&unfused, c).0;
            assert!(built <= plain, "{}: {built} group tables fused, {plain} unfused", c.name);
            let (_, ops) = fused.lower(c, fused.config.fusion);
            assert_eq!(built, ops.iter().filter(|op| !op.permutes).count(), "{}", c.name);
        }
    }

    #[test]
    fn fusion_reduces_executed_ops() {
        let run = |c: &QuantumCircuit, fusion| {
            SqlSimulator::new(SqlSimConfig { fusion, ..Default::default() }).run(c).unwrap()
        };
        // QFT-8: the CP ladders fuse once the Hadamards have widened the
        // support; the default fuses and agrees with one op per gate.
        let c = library::qft(8);
        let (plain, fused) = (run(&c, None), run(&c, Some(MAX_FUSED_QUBITS)));
        assert_eq!(plain.ops_executed, c.gate_count());
        assert!(fused.ops_executed < plain.ops_executed, "{}", fused.ops_executed);
        assert_eq!(SqlSimulator::paper_default().run(&c).unwrap().ops_executed, fused.ops_executed);
        assert_eq!(plain.support(), fused.support());
        for (a, b) in plain.amplitudes.iter().zip(&fused.amplitudes) {
            assert_eq!(a.s, b.s);
            assert!((a.amp - b.amp).abs() < 1e-12, "fused agrees at 1e-12, not bit for bit");
        }
    }

    #[test]
    fn trace_shows_fig2_intermediate_states() {
        let states = SqlSimulator::paper_default().run_trace(&library::ghz(3)).unwrap().states;
        assert_eq!(states.len(), 4);
        // |ψ⟩0 = |000⟩
        assert_eq!(states[0].len(), 1);
        // |ψ⟩1 = (|000⟩ + |001⟩)/√2 → rows s=0, s=1 (Fig. 2c table T1)
        let s1: Vec<i64> = states[1].iter().map(|a| a.s.as_i64().unwrap()).collect();
        assert_eq!(s1, vec![0, 1]);
        // |ψ⟩2 → rows 0 and 3 (table T2)
        let s2: Vec<i64> = states[2].iter().map(|a| a.s.as_i64().unwrap()).collect();
        assert_eq!(s2, vec![0, 3]);
        // |ψ⟩3 → rows 0 and 7 (table T3)
        let s3: Vec<i64> = states[3].iter().map(|a| a.s.as_i64().unwrap()).collect();
        assert_eq!(s3, vec![0, 7]);
    }

    #[test]
    fn huge_register_runs_beyond_63_qubits() {
        // 80-qubit GHZ: impossible for every in-memory baseline, a couple of
        // rows for the relational representation.
        let c = library::ghz(80);
        let result = SqlSimulator::paper_default().run(&c).unwrap();
        assert_eq!(result.support(), 2);
        assert!((result.norm_sqr() - 1.0).abs() < TOL);
        // the all-ones index must be the 80-bit value
        let big = result
            .amplitudes
            .iter()
            .filter_map(|a| match &a.s {
                Value::Big(b) => Some(b.clone()),
                _ => None,
            })
            .max()
            .expect("expected a HUGEINT basis index");
        assert_eq!(big.bit_len(), 80, "all-ones component spans all 80 qubits");
        // trait interface refuses (u64 output impossible)
        assert!(matches!(
            SqlSimulator::paper_default().simulate(&c, &SimOptions::default()),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn memory_limit_propagates_from_options() {
        let c = library::equal_superposition(12);
        let opts = SimOptions::with_memory_limit(16 * 1024);
        // 4096 amplitudes don't fit in 16 KiB of engine memory, but the
        // aggregate spills, so the run must SUCCEED (unlike the in-memory
        // baselines) — this is the out-of-core claim of §3.3.
        let out = SqlSimulator::paper_default().simulate(&c, &opts).unwrap();
        assert_eq!(out.nonzero_count(), 4096);
        assert!(out.detail.contains("spill"), "{}", out.detail);
    }

    #[test]
    fn generated_sql_is_fig2c() {
        let sql = SqlSimulator::paper_default().generated_sql(&library::ghz(3));
        assert!(sql.starts_with("WITH T1 AS ("));
        assert!(sql.contains("((T0.s & ~1) | H.out_s)"));
        assert!(sql.contains("((T2.s & ~6) | (CX.out_s << 1))"));
        assert!(sql.ends_with("SELECT s, r, i FROM T3 ORDER BY s"));
    }

    #[test]
    fn interference_prunes_with_having() {
        // Unfused: fused, H·H is the identity, and no zero row is made.
        let c = CircuitBuilder::new(1).h(0).h(0).build();
        // without pruning the engine returns the structural zero row
        let plain = SqlSimulator::new(SqlSimConfig { fusion: None, ..Default::default() });
        assert_eq!(plain.run(&c).unwrap().support(), 2);
        // with HAVING pruning it is dropped inside the engine
        let pruned = SqlSimulator::new(SqlSimConfig {
            sqlgen: SqlGenConfig { prune_threshold: Some(1e-20), ..Default::default() },
            fusion: None,
            ..Default::default()
        })
        .run(&c)
        .unwrap();
        assert_eq!(pruned.support(), 1);
    }

    #[test]
    fn empty_circuit_returns_initial_state() {
        let c = QuantumCircuit::new(3);
        let out = run_sql(&c);
        assert_eq!(out.nonzero_count(), 1);
        assert!((out.probability(0) - 1.0).abs() < TOL);
    }
}

#[cfg(test)]
mod huge_register_tests {
    use super::*;
    use qymera_circuit::CircuitBuilder;
    use qymera_sqldb::BigBits;

    fn big_index(result: &SqlRunResult) -> Vec<BigBits> {
        result
            .amplitudes
            .iter()
            .map(|a| match &a.s {
                Value::Big(b) => b.clone(),
                Value::Int(i) => BigBits::from_u64(*i as u64, 64),
                other => panic!("unexpected index {other:?}"),
            })
            .collect()
    }

    #[test]
    fn non_contiguous_gate_beyond_63_qubits() {
        // X(0) then CX(0, 69): control low, target high — the XOR form with
        // per-bit placement must set exactly bits 0 and 69 of a 70-bit index.
        let c = CircuitBuilder::new(70).x(0).cx(0, 69).build();
        let result = SqlSimulator::paper_default().run(&c).unwrap();
        assert_eq!(result.support(), 1);
        let idx = &big_index(&result)[0];
        assert!(idx.bit(0) && idx.bit(69));
        assert_eq!(idx.bit_len(), 70);
        assert!((result.norm_sqr() - 1.0).abs() < 1e-12);
    }

    /// Past 63 qubits the index is a `HUGEINT` and the closed forms are
    /// `INTEGER` arithmetic: the default translation joins every gate too.
    #[test]
    fn huge_registers_join_every_gate_by_default() {
        let c = CircuitBuilder::new(70).x(0).cx(0, 69).z(69).swap(3, 68).build();
        let sim = SqlSimulator::default();
        let result = sim.run(&c).unwrap();
        assert_eq!(sim.generated_sql(&c).matches(" JOIN ").count(), result.ops_executed);
        assert_eq!(result.support(), 1);
        let idx = &big_index(&result)[0];
        assert!(idx.bit(0) && idx.bit(69) && !idx.bit(3) && !idx.bit(68));
        assert_eq!(result.amplitudes[0].amp, c64(-1.0, 0.0));
    }

    #[test]
    fn reversed_qubit_order_beyond_63() {
        // CX listed [high, low]: the non-contiguous mask path.
        let c = CircuitBuilder::new(66).x(65).cx(65, 2).build();
        let result = SqlSimulator::paper_default().run(&c).unwrap();
        let idx = &big_index(&result)[0];
        assert!(idx.bit(65) && idx.bit(2), "control 65 set → target 2 flips");
    }

    #[test]
    fn superposition_on_high_qubit() {
        // H on qubit 64: two components differing in bit 64 only.
        let c = CircuitBuilder::new(65).h(64).build();
        let result = SqlSimulator::paper_default().run(&c).unwrap();
        assert_eq!(result.support(), 2);
        let idxs = big_index(&result);
        let diff = idxs[0].xor(&idxs[1]);
        assert!(diff.bit(64));
        assert_eq!(diff.bit_len(), 65);
    }

    #[test]
    fn step_mode_matches_single_query_beyond_63() {
        let c = CircuitBuilder::new(80).h(0).cx(0, 40).cx(40, 79).build();
        let single = SqlSimulator::paper_default().run(&c).unwrap();
        let stepped = SqlSimulator::new(SqlSimConfig {
            mode: ExecMode::StepTables,
            ..Default::default()
        })
        .run(&c)
        .unwrap();
        assert_eq!(single.support(), stepped.support());
        for (a, b) in single.amplitudes.iter().zip(&stepped.amplitudes) {
            assert_eq!(a.s, b.s);
            assert!((a.amp - b.amp).abs() < 1e-12);
        }
        // `T0` and every step table hold `s` on the HUGEINT lane in every
        // chunk (a scan hands the chunks out as they are): the state path
        // past 63 qubits boxes no `Value`.
        let sim = SqlSimulator::new(SqlSimConfig { mode: ExecMode::StepTables, ..Default::default() });
        let (reg, ops) = sim.lower(&c, sim.config.fusion);
        let mut db = sim.make_db().unwrap();
        reg.materialize(&mut db).unwrap();
        create_initial_state_table(&mut db, "T0", c.num_qubits, 0).unwrap();
        let mut tables = vec!["T0".to_string()];
        for (k, op) in ops.iter().enumerate() {
            let (next, select) = step_statement(k, op, c.num_qubits, &sim.config.sqlgen);
            db.create_table_as(&next, &select).unwrap();
            tables.push(next);
        }
        for table in &tables {
            let chunks = db.query_batches(&format!("SELECT s FROM {table}")).unwrap();
            assert!(!chunks.is_empty(), "{table}");
            for chunk in &chunks {
                assert!(matches!(chunk.column(0), Column::Big(_)), "{table}: {:?}", chunk.column(0));
            }
        }
    }

    /// Every gate table a circuit joins holds `in_s` and `out_s` in the
    /// state's lane, in every chunk: `HUGEINT` past 63 qubits, so every
    /// operand of the new-state XOR is a `HUGEINT`, and `INTEGER` at 63.
    #[test]
    fn gate_tables_hold_the_states_index_type() {
        for (n, big) in [(70, true), (63, false)] {
            let top = n - 1;
            let c = CircuitBuilder::new(n).h(0).cx(0, top).x(top).swap(3, top - 1).h(top).build();
            let sim = SqlSimulator::default();
            let (reg, _) = sim.lower(&c, sim.config.fusion);
            let mut db = sim.make_db().unwrap();
            reg.materialize(&mut db).unwrap();
            let mut joined = 0;
            for (table, _) in reg.joined() {
                joined += 1;
                let chunks = db.query_batches(&format!("SELECT in_s, out_s FROM {table}")).unwrap();
                assert!(!chunks.is_empty(), "{table}");
                for chunk in &chunks {
                    for col in chunk.columns() {
                        let lane_ok = match big {
                            true => matches!(**col, Column::Big(_)),
                            false => matches!(**col, Column::Int(_)),
                        };
                        assert!(lane_ok, "{n} qubits, {table}: {col:?}");
                    }
                }
            }
            assert!(joined >= 2, "{n} qubits: {joined} tables joined");
        }
    }

    #[test]
    fn interference_cancels_in_huge_registers() {
        // H then Z then H on qubit 70 = X up to nothing measurable on |0⟩…
        // precisely: HZH = X, so bit 70 must flip deterministically.
        let c = CircuitBuilder::new(71).h(70).z(70).h(70).build();
        let result = SqlSimulator::paper_default().run(&c).unwrap();
        // the zero-amplitude |0…0⟩ row may remain structurally; filter it
        let live: Vec<_> = result
            .amplitudes
            .iter()
            .filter(|a| a.amp.norm_sqr() > 1e-20)
            .collect();
        assert_eq!(live.len(), 1);
        match &live[0].s {
            Value::Big(b) => assert!(b.bit(70)),
            other => panic!("{other:?}"),
        }
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use qymera_circuit::library;

    #[test]
    fn profile_shows_one_pipeline_stage_per_gate() {
        let sim = SqlSimulator::paper_default();
        let text = sim.profile(&library::ghz(3)).unwrap();
        // Three gates → three aggregates and three joins in the profile.
        assert_eq!(text.matches("Aggregate").count(), 3, "{text}");
        assert_eq!(text.matches("Join").count(), 3, "{text}");
        assert!(text.contains("Sort"), "{text}");
        assert!(text.contains("total output rows: 2"), "{text}");
        assert!(text.ends_with("\nspill: 0 files, 0 bytes\n"), "{text}");
    }

    /// `profile` stays per gate and grouped under the fused default and the
    /// projecting one (a reader of its `rows=` gets the state after every
    /// gate); `explain_analyze` shows the fused query `run` executes.
    #[test]
    fn profile_is_per_gate_and_explain_analyze_is_what_runs() {
        let c = library::qft(8);
        let sim = SqlSimulator::paper_default();
        let aggregates = |text: String| text.matches("HashAggregate").count();
        assert_eq!(aggregates(sim.profile(&c).unwrap()), c.gate_count());
        assert_eq!(aggregates(SqlSimulator::default().profile(&c).unwrap()), c.gate_count());
        let ops = sim.run(&c).unwrap().ops_executed;
        assert!(ops < c.gate_count());
        assert_eq!(aggregates(sim.explain_analyze(&c).unwrap()), ops);
    }
}
