//! One run of one workload in this process: the end-to-end run (tracing
//! off) and the traced run that yields the per-layer numbers.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use qymera_circuit::QuantumCircuit;
use qymera_core::Engine;
use qymera_sim::{SimOptions, SimOutput, Simulator, SparseSim, StateVectorSim};
use qymera_sqldb::storage::wal::CHECKPOINT_FILE;
use qymera_translate::SqlSimulator;

use crate::metrics::{median, min, quartiles, tail, Metrics};
use crate::trace::{
    state_rows_per_gate, traced_query_pass, traced_step_pass, Counts, PassSummary, Recorder,
    STATE_ROW_BYTES,
};
use crate::workloads::{open_step_db, timed_pass, verify, PassOutput, Workload, PARALLELISM};

/// Set-ups per end-to-end run. Each is followed by its share of the timed
/// window, so they sample as many different moments of the sandbox's
/// interference. The fastest after the first is reported: the first meets a
/// cold process and is unlike the rest, a fifth faster on `deep_sparse`
/// (fresh heap) and a fifth slower on `wide_dense` (page faults), so a
/// minimum that includes it jumps between the two kinds.
const SETUPS: u32 = 12;
/// Untimed passes that end a set-up. Every pass starts a cold engine, so
/// one is enough to fault in the process's code and heap.
const WARMUP_PASSES: usize = 1;
/// Traced passes of a traced run, however short its window: with fewer the
/// fastest traced and the fastest untraced pass differ by more than the
/// overhead the shape checks allow.
const TRACED_PASSES: usize = 10;
/// Repeats of each comparison pass in the traced run.
const SIDE_PASSES: usize = 5;
/// Least share of a traced `deep_sparse` pass the planner must take.
const PLAN_SHARE_MIN: f64 = 0.7;
/// Least share of a traced `wide_dense` pass execution must take. The
/// cubic planner takes a third of the 41-gate pass today, so 0.7 is out
/// of reach until it is fixed.
const EXEC_SHARE_MIN: f64 = 0.6;
/// Most of a traced pass that may lie outside every span, and most by
/// which a traced pass may be slower than an untraced one.
pub const TRACE_SHARE_MAX: f64 = 0.05;
/// The dense simulator allocates 16 bytes << qubits.
const STATEVECTOR_MAX_QUBITS: usize = 20;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Directory for spill files and database directories, inside the
    /// checkout; also this process's `TMPDIR`.
    pub tmp: PathBuf,
}

/// Passes attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(reason) => {
                self.failed += 1;
                if self.reasons.len() < 5 {
                    self.reasons.push(reason);
                }
                None
            }
        }
    }
}

pub struct RunResult {
    pub tally: Tally,
    pub metrics: Metrics,
    /// Wall time of every timed, untraced pass, in order.
    pub pass_ms: Vec<f64>,
    /// Wall time of every set-up, in order.
    pub setup_s: Vec<f64>,
}

struct Prepared {
    circuit: QuantumCircuit,
    reference: SimOutput,
    build_ms: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

impl RunArgs {
    fn db_dir(&self, tally: &Tally) -> PathBuf {
        self.tmp.join(format!("db-{}", tally.attempted))
    }

    /// One untraced pass, verified. `None` when it failed.
    fn pass(&self, p: &Prepared, tally: &mut Tally) -> Option<(f64, PassOutput)> {
        let (ms, out) = timed_pass(self.workload, &p.circuit, &self.db_dir(tally));
        let checked = out.and_then(|out| {
            verify(self.workload, &out, &p.reference)?;
            Ok((ms, out))
        });
        tally.record(checked)
    }

    /// One set-up: the circuit from the seed, its reference state from the
    /// native simulator, and the warm-up passes.
    fn set_up(&self, tally: &mut Tally) -> Result<Prepared, String> {
        let start = Instant::now();
        let circuit = self.workload.circuit(self.seed);
        let build_ms = ms_since(start);
        let reference = self.workload.reference(&circuit)?;
        let prepared = Prepared {
            circuit,
            reference,
            build_ms,
        };
        for _ in 0..WARMUP_PASSES {
            self.pass(&prepared, tally);
        }
        Ok(prepared)
    }
}

/// `VmHWM` of this process, in bytes.
fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .map(|kb: f64| kb * 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn verified_share(tally: &Tally) -> f64 {
    (tally.attempted - tally.failed) as f64 / tally.attempted as f64
}

/// Tracing off: what the gate compares between commits.
pub fn end_to_end(args: &RunArgs) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut pass_ms = Vec::new();
    let mut peak_mem = 0;
    let share = Duration::from_secs(args.seconds) / SETUPS;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let prepared = args.set_up(&mut tally)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        loop {
            if let Some((ms, out)) = args.pass(&prepared, &mut tally) {
                pass_ms.push(ms);
                peak_mem = peak_mem.max(out.peak_mem_bytes);
            }
            if start.elapsed() >= share {
                break;
            }
        }
    }
    if pass_ms.is_empty() {
        return Err(format!("every pass failed: {:?}", tally.reasons));
    }
    let mut metrics = Metrics::default();
    metrics.set("pass_ms_min", min(&pass_ms));
    metrics.set("setup_s", min(&setup_s[1..]));
    metrics.set("peak_mem_bytes", peak_mem as f64);
    metrics.set("peak_rss_bytes", peak_rss_bytes()?);
    metrics.set("verified_share", verified_share(&tally));
    Ok(RunResult {
        tally,
        metrics,
        pass_ms,
        setup_s,
    })
}

fn median_of(passes: &[PassSummary], f: impl Fn(&PassSummary) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Fastest pass of a set. Interference only ever adds time, so where two
/// kinds of pass are compared the fastest of each is compared.
fn fastest(passes: &[PassSummary]) -> f64 {
    min(&passes.iter().map(|p| p.pass_ms).collect::<Vec<_>>())
}

/// Fastest of three runs of a native simulator, in milliseconds.
fn native_ms(sim: &dyn Simulator, circuit: &QuantumCircuit) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        sim.simulate(circuit, &SimOptions::default())
            .map_err(|e| e.to_string())?;
        times.push(ms_since(start));
    }
    Ok(min(&times))
}

/// One traced pass of either kind, verified. `durable_steps` leaves its
/// database directory behind for the caller; `durable` off runs its
/// statements in memory instead.
fn traced_pass(
    args: &RunArgs,
    p: &Prepared,
    parallelism: usize,
    durable: bool,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Option<(PassOutput, Counts, Option<PathBuf>)> {
    let w = args.workload;
    let dir = (durable && w == Workload::DurableSteps).then(|| args.db_dir(tally));
    let result = if w == Workload::DurableSteps {
        traced_step_pass(&p.circuit, dir.as_deref(), parallelism, rec)
    } else {
        traced_query_pass(w, &p.circuit, parallelism, rec)
    };
    let checked = result.and_then(|(out, counts)| {
        // The in-memory twin of the durable pass writes no WAL.
        if durable || w != Workload::DurableSteps {
            verify(w, &out, &p.reference)?;
        }
        Ok((out, counts, dir))
    });
    tally.record(checked)
}

fn remove_dir(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Reopen the directory of the last durable pass (recovery replays its
/// WAL), check the committed results survived, then checkpoint it.
fn recover_and_checkpoint(
    dir: &Path,
    expected_rows: f64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let start = Instant::now();
    let mut db = open_step_db(Some(dir), PARALLELISM)?;
    metrics.set("sqldb.storage.recover_ms", ms_since(start));
    let rows = db.table_row_count("results").map_err(|e| e.to_string())?;
    if rows as f64 != expected_rows {
        return Err(format!(
            "recovery found {rows} result rows, expected {expected_rows}"
        ));
    }
    let start = Instant::now();
    db.checkpoint().map_err(|e| e.to_string())?;
    metrics.set("sqldb.storage.checkpoint_ms", ms_since(start));
    let image = std::fs::metadata(dir.join(CHECKPOINT_FILE)).map_err(|e| e.to_string())?;
    metrics.set("sqldb.storage.checkpoint_bytes", image.len() as f64);
    Ok(())
}

/// Tracing on: ten traced passes for the per-layer split, the comparison
/// passes some layer metrics need, and untraced passes for the rest of the
/// window, against which the tracing overhead is taken.
pub fn traced(args: &RunArgs) -> Result<(RunResult, Recorder), String> {
    let w = args.workload;
    let durable = w == Workload::DurableSteps;
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let prepared = args.set_up(&mut tally)?;
    let setup_s = vec![start.elapsed().as_secs_f64()];

    let mut rec = Recorder::new();
    let mut counts: Vec<Counts> = Vec::new();
    let mut spill = (0, 0);
    let mut last_dir = None;
    // Untraced passes alternate with the traced ones, so that the tracing
    // overhead compares passes that met the same interference.
    let mut pass_ms = Vec::new();
    for _ in 0..TRACED_PASSES {
        remove_dir(last_dir.take());
        if let Some((out, c, dir)) =
            traced_pass(args, &prepared, PARALLELISM, true, &mut rec, &mut tally)
        {
            counts.push(c);
            spill = (out.spill_files, out.spill_bytes);
            last_dir = dir;
        }
        if let Some((ms, _)) = args.pass(&prepared, &mut tally) {
            pass_ms.push(ms);
        }
    }
    let paired_ms = min(&pass_ms);
    let passes = rec.summaries();
    if counts.len() != passes.len() {
        return Err(format!("a traced pass failed: {:?}", tally.reasons));
    }
    // Counts repeat exactly from pass to pass; the median says so if not.
    let count = |name: &str| {
        let values: Vec<f64> = counts
            .iter()
            .filter_map(|c| c.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        median(&values)
    };

    // Comparison passes: engine at `nproc` threads, the same statements
    // without durability, `SqlSimulator::run` without `Engine` around it.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut side = Recorder::new();
    for _ in 0..SIDE_PASSES {
        let pass = traced_pass(args, &prepared, nproc, true, &mut side, &mut tally);
        remove_dir(pass.and_then(|(_, _, dir)| dir));
    }
    let par_n = side.summaries();
    let mut durable_overhead_ms = 0.0;
    if durable {
        let mut side = Recorder::new();
        for _ in 0..SIDE_PASSES {
            traced_pass(args, &prepared, PARALLELISM, false, &mut side, &mut tally);
        }
        durable_overhead_ms = fastest(&passes) - fastest(&side.summaries());
    }
    let mut engine_overhead_ms = 0.0;
    let state_rows: Vec<u64> = if durable {
        Vec::new()
    } else {
        let (mut with_engine, mut without) = (Vec::new(), Vec::new());
        let config = w.sql_config(PARALLELISM, None);
        for _ in 0..SIDE_PASSES {
            let start = Instant::now();
            let report = Engine::new(SimOptions::default())
                .run_sql_configured(config.clone(), &prepared.circuit);
            with_engine.push(ms_since(start));
            tally.record(report.error.map_or(Ok(()), Err));
            let start = Instant::now();
            let result = SqlSimulator::new(config.clone()).run(&prepared.circuit);
            without.push(ms_since(start));
            tally.record(result.map_err(|e| e.to_string()));
        }
        engine_overhead_ms = min(&with_engine) - min(&without);
        state_rows_per_gate(w, &prepared.circuit)?
    };

    match last_dir.take() {
        Some(dir) => {
            let recovered =
                recover_and_checkpoint(&dir, count("sqldb.exec.rows_out"), &mut metrics);
            let _ = std::fs::remove_dir_all(dir);
            recovered?;
        }
        None => {
            metrics.set("sqldb.storage.recover_ms", 0.0);
            metrics.set("sqldb.storage.checkpoint_ms", 0.0);
            metrics.set("sqldb.storage.checkpoint_bytes", 0.0);
        }
    }

    let sparse_ms = native_ms(&SparseSim, &prepared.circuit)?;
    let statevector_ms = if prepared.circuit.num_qubits <= STATEVECTOR_MAX_QUBITS {
        native_ms(&StateVectorSim, &prepared.circuit)?
    } else {
        0.0
    };

    // The rest of the window, untraced.
    let window = Duration::from_secs(args.seconds);
    while start.elapsed() < window || pass_ms.len() < 10 {
        if let Some((ms, _)) = args.pass(&prepared, &mut tally) {
            pass_ms.push(ms);
        } else if tally.failed > 10 {
            return Err(format!("untraced passes keep failing: {:?}", tally.reasons));
        }
    }

    let pass_p50 = median(&pass_ms);
    let execute_ms = median_of(&passes, PassSummary::execute_ms);
    let (state_rows_sum, state_rows_peak) = if durable {
        (
            count("sqldb.exec.state_rows_sum"),
            count("sqldb.exec.state_rows_peak"),
        )
    } else {
        (
            state_rows.iter().sum::<u64>() as f64,
            state_rows.iter().copied().max().unwrap_or(0) as f64,
        )
    };
    let plan_share = median_of(&passes, |p| p.plan_ms() / p.pass_ms);
    let exec_share = median_of(&passes, |p| p.execute_ms() / p.pass_ms);
    let unattributed = median_of(&passes, |p| p.unattributed_ms() / p.pass_ms);
    let trace_overhead = fastest(&passes) / paired_ms - 1.0;

    // A workload that stops stressing its layer should be noticed, but a
    // change that makes that layer fast must not fail the benchmark for it.
    let shape = [
        (
            w == Workload::DeepSparse && plan_share < PLAN_SHARE_MIN,
            "sqldb.plan share too low",
        ),
        (
            w == Workload::WideDense && exec_share < EXEC_SHARE_MIN,
            "sqldb.exec share too low",
        ),
        (
            unattributed > TRACE_SHARE_MAX,
            "too much of the traced pass is in no span",
        ),
        (
            trace_overhead > TRACE_SHARE_MAX,
            "traced passes are too much slower than untraced",
        ),
    ];
    for (_, what) in shape.iter().filter(|(violated, _)| *violated) {
        eprintln!("shape: {}: {what}", w.name());
    }

    metrics.set("circuit.build_ms", prepared.build_ms);
    metrics.set("circuit.gates", prepared.circuit.gate_count() as f64);
    metrics.set("circuit.qubits", prepared.circuit.num_qubits as f64);
    for name in [
        "translate.ops",
        "translate.sql_bytes",
        "translate.gate_tables",
        "translate.gate_rows",
        "sqldb.parser.statements",
        "sqldb.plan.nodes",
        "sqldb.plan.depth",
        "sqldb.exec.rows_out",
        "sqldb.storage.budget_overshoot_bytes",
    ] {
        metrics.set(name, count(name));
    }
    for name in [
        "sqldb.table.rows_written",
        "sqldb.table.peak_table_bytes",
        "sqldb.storage.wal_bytes",
        "sqldb.storage.write_amp",
    ] {
        metrics.set(name, if durable { count(name) } else { 0.0 });
    }
    for (metric, span) in [
        ("translate.lower_ms", "translate.lower"),
        ("translate.load_ms", "translate.load"),
        ("translate.sqlgen_ms", "translate.sqlgen"),
        ("sqldb.table.ctas_ms", "sqldb.table.ctas"),
        ("sqldb.table.drop_ms", "sqldb.table.drop"),
        ("sqldb.table.readback_ms", "sqldb.table.readback"),
        ("sqldb.txn.commit_ms", "sqldb.txn.commit"),
        ("sqldb.txn.rollback_to_ms", "sqldb.txn.rollback_to"),
        ("sqldb.txn.abort_ms", "sqldb.txn.abort"),
        ("core.collect_ms", "core.collect"),
    ] {
        metrics.set(metric, median_of(&passes, |p| p.span(span)));
    }
    metrics.set(
        "sqldb.parser.parse_ms",
        median_of(&passes, |p| {
            p.span("sqldb.parser.parse") + p.probe("sqldb.parser.parse")
        }),
    );
    metrics.set(
        "sqldb.plan.plan_ms",
        median_of(&passes, |p| p.probe("sqldb.plan.plan")),
    );
    metrics.set(
        "sqldb.plan.optimize_ms",
        median_of(&passes, |p| p.probe("sqldb.plan.optimize")),
    );
    metrics.set("sqldb.plan.self_share", plan_share);
    metrics.set("sqldb.exec.execute_ms", execute_ms);
    metrics.set(
        "sqldb.exec.execute_ms_parN",
        median_of(&par_n, PassSummary::execute_ms),
    );
    metrics.set("sqldb.exec.state_rows_sum", state_rows_sum);
    metrics.set("sqldb.exec.state_rows_peak", state_rows_peak);
    metrics.set(
        "sqldb.exec.ns_per_state_row",
        execute_ms * 1e6 / state_rows_sum,
    );
    metrics.set("sqldb.exec.self_share", exec_share);
    metrics.set("sqldb.storage.spill_files", spill.0 as f64);
    metrics.set("sqldb.storage.spill_bytes", spill.1 as f64);
    metrics.set(
        "sqldb.storage.spill_write_amp",
        spill.1 as f64 / (state_rows_peak * STATE_ROW_BYTES),
    );
    metrics.set("sqldb.storage.durable_overhead_ms", durable_overhead_ms);
    metrics.set("sim.sparse_pass_ms", sparse_ms);
    metrics.set("sim.statevector_pass_ms", statevector_ms);
    metrics.set("sim.sql_over_sparse", pass_p50 / sparse_ms);
    metrics.set("core.engine_overhead_ms", engine_overhead_ms);
    metrics.set("core.pass_ms_p50", pass_p50);
    let (percentile, value) = tail(&pass_ms);
    metrics.set("core.pass_ms_tail", value);
    metrics.set("core.pass_tail_percentile", percentile);
    let (q1, _, q3) = quartiles(&pass_ms);
    metrics.set("core.pass_ms_iqr", q3 - q1);
    metrics.set("core.pass_samples", pass_ms.len() as f64);
    metrics.set("core.traced_pass_ms", median_of(&passes, |p| p.pass_ms));
    metrics.set("core.unattributed_share", unattributed);
    metrics.set("core.trace_overhead_share", trace_overhead);
    metrics.set(
        "core.shape_violations",
        shape.iter().filter(|(v, _)| *v).count() as f64,
    );
    metrics.set("core.traced_passes", passes.len() as f64);
    Ok((
        RunResult {
            tally,
            metrics,
            pass_ms,
            setup_s,
        },
        rec,
    ))
}
