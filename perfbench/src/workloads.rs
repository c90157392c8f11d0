//! The four workloads: how each builds its circuit from the seed, which
//! native simulator is its reference, and what one untraced pass does.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use qymera_circuit::{library, CircuitBuilder, Complex64, QuantumCircuit};
use qymera_core::Engine;
use qymera_sim::{SimOptions, SimOutput, Simulator, SparseSim, StateVectorSim};
use qymera_sqldb::{Database, Value};
use qymera_translate::fusion::lower_circuit;
use qymera_translate::sqlgen::{state_table_name, step_statement};
use qymera_translate::tables::create_initial_state_table;
use qymera_translate::{ExecMode, GateOp, GateTableRegistry, SqlGenConfig, SqlSimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Recorder;

/// Engine limit of `out_of_core`: 64 % of the 3.29 MB ledger peak the same
/// circuit reaches on `wide_dense`, so the aggregate spills every pass.
const OUT_OF_CORE_LIMIT: usize = 2 * 1024 * 1024;

/// `deep_sparse`: parity check (the paper's Scenario 1) of a 46-bit input
/// with 24 ones, 24 X + 46 CX = 70 gates over a one-row state.
const SPARSE_BITS: usize = 46;
const SPARSE_ONES: usize = 24;

/// `wide_dense` and `out_of_core`: one layer of the hardware-efficient
/// ansatz, 41 gates ending on all 16 384 basis states.
const DENSE_QUBITS: usize = 14;

/// `durable_steps`: QFT on the basis state with six seed-picked ones. The
/// state doubles at every H and ends at 8192 rows.
const DURABLE_QUBITS: usize = 13;
const DURABLE_ONES: usize = 6;

/// Rows inserted after the savepoint and rolled back again.
const SCRATCH_ROWS: i64 = 256;

/// Every pass runs the engine single-threaded: the ledger peak is exact and
/// the two vCPUs of the sandbox leave one for the kernel.
pub const PARALLELISM: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeepSparse,
    WideDense,
    OutOfCore,
    DurableSteps,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DeepSparse,
        Workload::WideDense,
        Workload::OutOfCore,
        Workload::DurableSteps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepSparse => "deep_sparse",
            Workload::WideDense => "wide_dense",
            Workload::OutOfCore => "out_of_core",
            Workload::DurableSteps => "durable_steps",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The circuit for `seed`. The program under test sees only this. Every
    /// seed gives the same gate counts in the same order, so that runs on
    /// different seeds measure the same amount of work.
    pub fn circuit(self, seed: u64) -> QuantumCircuit {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Workload::DeepSparse => {
                let mut input = [false; SPARSE_BITS];
                for q in choose(&mut rng, SPARSE_BITS, SPARSE_ONES) {
                    input[q] = true;
                }
                library::parity_check(&input)
            }
            Workload::WideDense | Workload::OutOfCore => {
                let ansatz = library::hardware_efficient_ansatz(DENSE_QUBITS, 1);
                // Away from 0 and pi, where a rotation stops branching.
                let angles: Vec<f64> = ansatz
                    .symbols()
                    .iter()
                    .map(|_| rng.gen_range(0.3..2.8))
                    .collect();
                ansatz.bind_values(&angles).expect("one angle per symbol")
            }
            Workload::DurableSteps => {
                let mut b = CircuitBuilder::named(DURABLE_QUBITS, "durable_qft");
                for q in choose(&mut rng, DURABLE_QUBITS, DURABLE_ONES) {
                    b = b.x(q);
                }
                let mut c = b.build();
                c.append(&library::qft(DURABLE_QUBITS))
                    .expect("same register width");
                c
            }
        }
    }

    /// The native simulator whose final state every pass must reproduce.
    pub fn reference(self, circuit: &QuantumCircuit) -> Result<SimOutput, String> {
        let opts = SimOptions::default();
        match self {
            Workload::DeepSparse => SparseSim.simulate(circuit, &opts),
            _ => StateVectorSim.simulate(circuit, &opts),
        }
        .map_err(|e| format!("reference simulator: {e}"))
    }

    fn memory_limit(self) -> Option<usize> {
        (self == Workload::OutOfCore).then_some(OUT_OF_CORE_LIMIT)
    }

    /// The in-memory database `SqlSimulator` makes for that configuration.
    pub fn open_query_db(self, parallelism: usize) -> Database {
        let mut db = match self.memory_limit() {
            Some(limit) => Database::with_memory_limit(limit),
            None => Database::new(),
        };
        db.set_parallelism(parallelism);
        db
    }

    /// What `qymera run --backend sql [--memory N] [--db DIR]` configures,
    /// with step tables in place of the single query on `durable_steps`.
    pub fn sql_config(self, parallelism: usize, db_dir: Option<&Path>) -> SqlSimConfig {
        SqlSimConfig {
            mode: match self {
                Workload::DurableSteps => ExecMode::StepTables,
                _ => ExecMode::SingleQuery,
            },
            memory_limit: self.memory_limit(),
            parallelism: Some(parallelism),
            db_path: db_dir.map(Path::to_path_buf),
            ..Default::default()
        }
    }
}

/// `k` distinct values below `n`, in the order drawn.
fn choose(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    (0..k)
        .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
        .collect()
}

/// What one pass produced, beyond its wall time.
pub struct PassOutput {
    pub state: SimOutput,
    pub peak_mem_bytes: usize,
    pub spill_files: u64,
    pub spill_bytes: u64,
    /// Bytes in the database directory when the pass ended (0 in memory).
    pub dir_bytes: u64,
}

/// One timed pass: wall time in milliseconds and the outcome.
pub fn timed_pass(
    w: Workload,
    circuit: &QuantumCircuit,
    db_dir: &Path,
) -> (f64, Result<PassOutput, String>) {
    let start = Instant::now();
    let out = match w {
        Workload::DurableSteps => durable_pass(circuit, db_dir),
        _ => engine_pass(w, circuit, PARALLELISM, None),
    };
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if w == Workload::DurableSteps {
        // Outside the timed pass: a reused directory fails (see README).
        let _ = std::fs::remove_dir_all(db_dir);
    }
    (ms, out)
}

/// One pass through `Engine`, as `qymera run --backend sql --parallel 1
/// [--memory N] [--db DIR]` makes it.
pub fn engine_pass(
    w: Workload,
    circuit: &QuantumCircuit,
    parallelism: usize,
    db_dir: Option<&Path>,
) -> Result<PassOutput, String> {
    let report = Engine::new(SimOptions::default())
        .run_sql_configured(w.sql_config(parallelism, db_dir), circuit);
    let state = report
        .output
        .ok_or_else(|| report.error.unwrap_or_default())?;
    let [_, spill_files, spill_bytes] = parse_detail(&state.detail)?;
    Ok(PassOutput {
        peak_mem_bytes: report.memory_bytes,
        state,
        spill_files,
        spill_bytes,
        dir_bytes: 0,
    })
}

/// `Engine` hands the counters on only inside `SimOutput::detail`
/// ("35 ops, 2 spill files, 1234 spill bytes"): ops, files, bytes.
fn parse_detail(detail: &str) -> Result<[u64; 3], String> {
    let number_before = |label: &str| -> Option<u64> {
        let head = detail[..detail.find(label)?].trim_end();
        head.rsplit(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    match ["ops", "spill files", "spill bytes"].map(number_before) {
        [Some(ops), Some(files), Some(bytes)] => Ok([ops, files, bytes]),
        _ => Err(format!("cannot read the counters from detail `{detail}`")),
    }
}

/// One untraced `durable_steps` pass: the engine's own step-table run on
/// the fresh directory `dir`, then the directory reopened (recovery replays
/// the run's WAL) for the paper's "classical workflow".
fn durable_pass(circuit: &QuantumCircuit, dir: &Path) -> Result<PassOutput, String> {
    let run = engine_pass(Workload::DurableSteps, circuit, PARALLELISM, Some(dir))?;
    let [ops, ..] = parse_detail(&run.state.detail)?;
    let mut db = open_step_db(Some(dir), PARALLELISM)?;
    classical_epilogue(
        &mut db,
        &state_table_name(ops as usize),
        &mut Recorder::off(),
        0,
    )?;
    let stats = db.stats();
    drop(db);
    Ok(PassOutput {
        peak_mem_bytes: run.peak_mem_bytes.max(stats.peak_memory_bytes),
        dir_bytes: dir_bytes(dir),
        ..run
    })
}

/// Turn the engine's final `(s, r, i)` rows into a `SimOutput`, as
/// `SqlSimulator::simulate` does.
pub fn collect_state(
    num_qubits: usize,
    rows: Vec<Vec<Value>>,
    peak_mem_bytes: usize,
) -> Result<SimOutput, String> {
    let tol2 = SimOptions::default().truncation_tol.powi(2);
    let mut amplitudes = BTreeMap::new();
    for row in rows {
        let [s, r, i] = <[Value; 3]>::try_from(row).map_err(|_| "state row arity")?;
        let s = s.as_i64().map_err(sql_err)?;
        let amp = Complex64::new(r.as_f64().map_err(sql_err)?, i.as_f64().map_err(sql_err)?);
        if amp.norm_sqr() > tol2 {
            amplitudes.insert(u64::try_from(s).map_err(|e| e.to_string())?, amp);
        }
    }
    Ok(SimOutput::from_map(num_qubits, amplitudes, peak_mem_bytes))
}

/// Open the step-table database as `SqlSimulator` does: durable with the
/// `--db` defaults (one fsync per commit), or in memory for the overhead
/// comparison.
pub fn open_step_db(dir: Option<&Path>, parallelism: usize) -> Result<Database, String> {
    let mut db = match dir {
        Some(dir) => Database::open(dir).map_err(sql_err)?,
        None => Database::new(),
    };
    db.set_parallelism(parallelism);
    Ok(db)
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A finished step-table pass, with what the traced run goes on to use.
pub struct StepRun {
    pub out: PassOutput,
    pub reg: GateTableRegistry,
    pub ops: Vec<GateOp>,
    /// Span and SQL text of every query the database parsed and planned.
    pub statements: Vec<(usize, String)>,
    /// Rows of the state table each gate created.
    pub state_rows: Vec<usize>,
    pub peak_table_bytes: usize,
    pub budget_overshoot_bytes: usize,
}

/// The traced copy of [`durable_pass`]: step-table mode as
/// `SqlSimulator::run` issues it, on a fresh directory (or in memory when
/// `dir` is absent), then the paper's "classical workflow" on the reopened
/// database, with every call into a layer inside a span of `rec`.
pub fn step_pass(
    circuit: &QuantumCircuit,
    dir: Option<&Path>,
    parallelism: usize,
    rec: &mut Recorder,
) -> Result<StepRun, String> {
    let n = circuit.num_qubits;
    let cfg = SqlGenConfig::default();
    let pass = rec.begin_pass();

    let id = rec.open("translate.lower", pass);
    let mut reg = GateTableRegistry::new();
    let ops = lower_circuit(circuit, &mut reg, None);
    rec.close(id);

    let id = rec.open("sqldb.storage.open", pass);
    let mut db = open_step_db(dir, parallelism)?;
    rec.close(id);

    let id = rec.open("translate.load", pass);
    reg.materialize(&mut db).map_err(sql_err)?;
    create_initial_state_table(&mut db, "T0", n, 0).map_err(sql_err)?;
    rec.close(id);

    let mut statements = Vec::with_capacity(ops.len() + 1);
    let mut state_rows = Vec::with_capacity(ops.len());
    let mut peak_table_bytes = 0;
    for (k, op) in ops.iter().enumerate() {
        let id = rec.open("translate.sqlgen", pass);
        let (next, select) = step_statement(k, op, n, &cfg);
        rec.close(id);

        let id = rec.open("sqldb.table.ctas", pass);
        state_rows.push(db.create_table_as(&next, &select).map_err(sql_err)?);
        rec.close(id);
        statements.push((id, select));
        peak_table_bytes = peak_table_bytes.max(db.table_bytes());

        let id = rec.open("sqldb.table.drop", pass);
        db.drop_table_if_exists(&state_table_name(k))
            .map_err(sql_err)?;
        rec.close(id);
    }

    let last = state_table_name(ops.len());
    let readback = format!("SELECT s, r, i FROM {last} ORDER BY s");
    let id = rec.open("sqldb.table.readback", pass);
    let rows = db.execute(&readback).map_err(sql_err)?.into_rows();
    rec.close(id);
    statements.push((id, readback));

    let id = rec.open("core.collect", pass);
    let state = collect_state(n, rows, 0)?;
    rec.close(id);

    // The untraced pass reopens the directory the engine's run left behind;
    // the in-memory twin has nothing to reopen and carries on.
    let run_stats = db.stats();
    let mut budget_overshoot_bytes = db.budget().peak_overshoot();
    if let Some(dir) = dir {
        let id = rec.open("sqldb.storage.close", pass);
        drop(db);
        rec.close(id);
        let id = rec.open("sqldb.storage.open", pass);
        db = open_step_db(Some(dir), parallelism)?;
        rec.close(id);
    }
    classical_epilogue(&mut db, &last, rec, pass)?;
    let id = rec.open("sqldb.storage.close", pass);
    let stats = db.stats();
    budget_overshoot_bytes = budget_overshoot_bytes.max(db.budget().peak_overshoot());
    drop(db);
    rec.close(id);
    let dir_bytes = dir.map(dir_bytes).unwrap_or(0);
    rec.close(pass);

    let peak_mem_bytes = run_stats.peak_memory_bytes.max(stats.peak_memory_bytes);
    let out = PassOutput {
        state: SimOutput {
            memory_bytes: peak_mem_bytes,
            ..state
        },
        peak_mem_bytes,
        spill_files: run_stats.spill_files + stats.spill_files,
        spill_bytes: run_stats.spill_bytes + stats.spill_bytes,
        dir_bytes,
    };
    Ok(StepRun {
        out,
        reg,
        ops,
        statements,
        state_rows,
        peak_table_bytes,
        budget_overshoot_bytes,
    })
}

/// The statements after the circuit: probabilities stored transactionally,
/// a savepoint rolled back, one aborted transaction, and a check of what
/// is left.
fn classical_epilogue(
    db: &mut Database,
    final_table: &str,
    rec: &mut Recorder,
    pass: usize,
) -> Result<(), String> {
    let scratch: Vec<Vec<Value>> = (0..SCRATCH_ROWS)
        .map(|k| vec![Value::Int(-1 - k), Value::Float(0.0)])
        .collect();

    let id = rec.open("sqldb.table.results", pass);
    db.execute("CREATE TABLE results (s INTEGER, p DOUBLE)")
        .map_err(sql_err)?;
    db.execute("BEGIN").map_err(sql_err)?;
    let rows = db
        .execute(&format!("SELECT s, (r * r) + (i * i) FROM {final_table}"))
        .map_err(sql_err)?
        .into_rows();
    let expected_rows = rows.len();
    db.insert_rows("results", rows).map_err(sql_err)?;
    db.execute("SAVEPOINT scratch").map_err(sql_err)?;
    db.insert_rows("results", scratch.clone())
        .map_err(sql_err)?;
    rec.close(id);

    let id = rec.open("sqldb.txn.rollback_to", pass);
    db.execute("ROLLBACK TO scratch").map_err(sql_err)?;
    rec.close(id);

    let id = rec.open("sqldb.txn.commit", pass);
    db.execute("COMMIT").map_err(sql_err)?;
    rec.close(id);

    let id = rec.open("sqldb.table.results", pass);
    db.execute("BEGIN").map_err(sql_err)?;
    db.insert_rows("results", scratch).map_err(sql_err)?;
    rec.close(id);

    let id = rec.open("sqldb.txn.abort", pass);
    db.execute("ROLLBACK").map_err(sql_err)?;
    rec.close(id);

    let id = rec.open("sqldb.table.results", pass);
    let check = db
        .execute("SELECT COUNT(*), SUM(p) FROM results")
        .map_err(sql_err)?;
    rec.close(id);
    let row = check
        .rows()
        .first()
        .ok_or("results check returned no row")?;
    let count = row[0].as_i64().map_err(sql_err)?;
    let total = row[1].as_f64().map_err(sql_err)?;
    if count != expected_rows as i64 || (total - 1.0).abs() > 1e-9 {
        return Err(format!(
            "results table holds {count} rows summing to {total}"
        ));
    }
    Ok(())
}

pub fn sql_err(e: qymera_sqldb::Error) -> String {
    e.to_string()
}

/// Why a pass does not count as correct, if it does not.
pub fn verify(w: Workload, out: &PassOutput, reference: &SimOutput) -> Result<(), String> {
    let diff = out.state.max_amplitude_diff(reference);
    if diff.is_nan() || diff > 1e-8 {
        return Err(format!(
            "final state differs from the reference by {diff:e}"
        ));
    }
    let norm = out.state.norm_sqr();
    if (norm - 1.0).abs() > 1e-9 {
        return Err(format!("final state has norm {norm}"));
    }
    match w {
        Workload::OutOfCore if out.spill_bytes == 0 => Err("pass did not spill".into()),
        Workload::DurableSteps if out.dir_bytes == 0 => Err("pass wrote no WAL bytes".into()),
        Workload::DeepSparse | Workload::WideDense if out.spill_bytes != 0 => Err(format!(
            "in-memory workload spilled {} bytes",
            out.spill_bytes
        )),
        _ => Ok(()),
    }
}
