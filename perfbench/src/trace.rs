//! The traced pass: the same work as an untraced pass, but with the calls
//! into each layer made one by one from here and a span around each.
//!
//! `Database` plans, optimizes and executes a statement inside one public
//! call, so those three cannot be separated by spans around calls. After
//! each traced pass the harness therefore repeats parse, plan and optimize
//! of every statement through the layers' own public functions, against a
//! catalog with the same schemas, and records them as *probe* spans whose
//! parent is the statement they decompose. Probes run after the pass span
//! has closed: they do not lengthen the traced pass. A span's self time is
//! its duration minus the durations of its children, probes included.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use qymera_circuit::QuantumCircuit;
use qymera_sqldb::ast::Statement;
use qymera_sqldb::catalog::Catalog;
use qymera_sqldb::parser::parse_statement;
use qymera_sqldb::plan::logical::plan_query;
use qymera_sqldb::plan::optimizer::optimize;
use qymera_sqldb::MemoryBudget;
use qymera_translate::fusion::lower_circuit;
use qymera_translate::sqlgen::{circuit_query, state_table_name};
use qymera_translate::tables::create_initial_state_table;
use qymera_translate::{GateOp, GateTableRegistry, SqlGenConfig, SqlSimulator};
use serde::{Number, Value};

use crate::workloads::{collect_state, sql_err, step_pass, PassOutput, Workload, PARALLELISM};

const GATE_COLUMNS: &str = "(in_s INTEGER, out_s INTEGER, r DOUBLE, i DOUBLE)";
const STATE_COLUMNS: &str = "(s INTEGER, r DOUBLE, i DOUBLE)";
/// Bytes of one `(s, r, i)` state row.
pub const STATE_ROW_BYTES: f64 = 24.0;
/// Bytes of one `(s, p)` row of the results table.
const RESULT_ROW_BYTES: f64 = 16.0;

pub struct Span {
    pub name: &'static str,
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub probe: bool,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans of one run, kept in memory until the run ends. A recorder that
/// is off records nothing and reads no clock: tracing off.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    passes: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            passes: 0,
        }
    }

    pub fn off() -> Self {
        Recorder {
            on: false,
            ..Self::new()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, probe: bool) -> usize {
        if !self.on {
            return 0;
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            pass: self.passes,
            parent,
            start_ns: now,
            end_ns: now,
            probe,
        });
        self.spans.len() - 1
    }

    pub fn begin_pass(&mut self) -> usize {
        self.passes += 1;
        self.push("pass", None, false)
    }

    pub fn open(&mut self, name: &'static str, parent: usize) -> usize {
        self.push(name, Some(parent), false)
    }

    fn open_probe(&mut self, name: &'static str, parent: usize) -> usize {
        self.push(name, Some(parent), true)
    }

    pub fn close(&mut self, id: usize) {
        if self.on {
            self.spans[id].end_ns = self.now();
        }
    }

    pub fn to_json(&self) -> Value {
        let int = |v: u64| Value::Num(Number::UInt(v));
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("pass".into(), int(s.pass.into())),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| int(p as u64)),
                        ),
                        ("start_ns".into(), int(s.start_ns)),
                        ("end_ns".into(), int(s.end_ns)),
                        ("probe".into(), Value::Bool(s.probe)),
                    ])
                })
                .collect(),
        )
    }

    /// Per pass: its wall time, and the summed duration of its spans and
    /// of its probes by name.
    pub fn summaries(&self) -> Vec<PassSummary> {
        let mut out: Vec<PassSummary> = (0..self.passes).map(|_| PassSummary::default()).collect();
        for span in &self.spans {
            let summary = &mut out[span.pass as usize - 1];
            match (span.parent, span.probe) {
                (None, _) => summary.pass_ms = span.ms(),
                (Some(_), false) => *summary.spans.entry(span.name).or_default() += span.ms(),
                (Some(_), true) => *summary.probes.entry(span.name).or_default() += span.ms(),
            }
        }
        out
    }
}

#[derive(Default)]
pub struct PassSummary {
    pub pass_ms: f64,
    spans: BTreeMap<&'static str, f64>,
    probes: BTreeMap<&'static str, f64>,
}

impl PassSummary {
    pub fn span(&self, name: &str) -> f64 {
        self.spans.get(name).copied().unwrap_or(0.0)
    }

    pub fn probe(&self, name: &str) -> f64 {
        self.probes.get(name).copied().unwrap_or(0.0)
    }

    /// Time of the pass inside no span at all.
    pub fn unattributed_ms(&self) -> f64 {
        self.pass_ms - self.spans.values().sum::<f64>()
    }

    pub fn plan_ms(&self) -> f64 {
        self.probe("sqldb.plan.plan") + self.probe("sqldb.plan.optimize")
    }

    /// Self time of the statement calls, that is their spans minus the
    /// parse, plan and optimize probes inside them: execution, with table
    /// and WAL writes where the statement makes them.
    pub fn execute_ms(&self) -> f64 {
        self.span("sqldb.statement")
            + self.span("sqldb.table.ctas")
            + self.span("sqldb.table.readback")
            - self.probe("sqldb.parser.parse")
            - self.plan_ms()
    }
}

/// Counts one traced pass made, under their metric names.
pub type Counts = Vec<(&'static str, f64)>;

/// A catalog with the schemas the pass's database has and no rows: what
/// `plan_query` needs to plan the pass's statements from outside.
fn shadow_catalog(reg: &GateTableRegistry, state_tables: usize) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    let gate_tables = reg
        .tables()
        .iter()
        .map(|(name, _)| (name.clone(), GATE_COLUMNS));
    let state_tables = (0..=state_tables).map(|k| (state_table_name(k), STATE_COLUMNS));
    for (name, columns) in gate_tables.chain(state_tables) {
        let ddl = format!("CREATE TABLE {name} {columns}");
        let Statement::CreateTable { name, columns, .. } =
            parse_statement(&ddl).map_err(sql_err)?
        else {
            return Err(format!("`{ddl}` is not a CREATE TABLE"));
        };
        catalog
            .create_table(&name, columns, false, MemoryBudget::unlimited())
            .map_err(sql_err)?;
    }
    Ok(catalog)
}

/// Size of the optimized plan of one statement.
struct PlanShape {
    nodes: usize,
    depth: usize,
}

/// Repeat what the engine did inside the statement span `parent` for
/// `sql`. The parse is a probe only where the statement call took text;
/// where the pass parsed the statement itself that span already exists.
fn probe_statement(
    rec: &mut Recorder,
    parent: usize,
    sql: &str,
    catalog: &Catalog,
    parse_is_probe: bool,
) -> Result<PlanShape, String> {
    let id = parse_is_probe.then(|| rec.open_probe("sqldb.parser.parse", parent));
    let statement = parse_statement(sql).map_err(sql_err)?;
    if let Some(id) = id {
        rec.close(id);
    }
    let Statement::Query(query) = statement else {
        return Err(format!("`{sql}` is not a query"));
    };
    let id = rec.open_probe("sqldb.plan.plan", parent);
    let plan = plan_query(&query, catalog).map_err(sql_err)?;
    rec.close(id);
    let id = rec.open_probe("sqldb.plan.optimize", parent);
    let plan = optimize(plan);
    rec.close(id);
    Ok(PlanShape {
        nodes: plan.explain().lines().count(),
        depth: plan.depth(),
    })
}

fn translate_counts(ops: &[GateOp], reg: &GateTableRegistry, sql_bytes: usize) -> Counts {
    vec![
        ("translate.ops", ops.len() as f64),
        ("translate.sql_bytes", sql_bytes as f64),
        ("translate.gate_tables", reg.tables().len() as f64),
        (
            "translate.gate_rows",
            reg.tables().iter().map(|(_, e)| e.len()).sum::<usize>() as f64,
        ),
    ]
}

/// One traced pass of a single-query workload: the calls `Engine::run`
/// makes through `SqlSimulator::simulate`, one by one.
pub fn traced_query_pass(
    w: Workload,
    circuit: &QuantumCircuit,
    parallelism: usize,
    rec: &mut Recorder,
) -> Result<(PassOutput, Counts), String> {
    let n = circuit.num_qubits;
    let cfg = SqlGenConfig::default();
    let pass = rec.begin_pass();

    let id = rec.open("translate.lower", pass);
    let mut reg = GateTableRegistry::new();
    let ops = lower_circuit(circuit, &mut reg, None);
    rec.close(id);

    let id = rec.open("sqldb.storage.open", pass);
    let mut db = w.open_query_db(parallelism);
    rec.close(id);

    let id = rec.open("translate.load", pass);
    reg.materialize(&mut db).map_err(sql_err)?;
    create_initial_state_table(&mut db, "T0", n, 0).map_err(sql_err)?;
    rec.close(id);

    let id = rec.open("translate.sqlgen", pass);
    let sql = circuit_query(&ops, n, "T0", &cfg);
    rec.close(id);

    let id = rec.open("sqldb.parser.parse", pass);
    let statement = parse_statement(&sql).map_err(sql_err)?;
    rec.close(id);

    let statement_span = rec.open("sqldb.statement", pass);
    let rows = db
        .execute_statement(statement)
        .map_err(sql_err)?
        .into_rows();
    rec.close(statement_span);

    let id = rec.open("sqldb.storage.close", pass);
    let stats = db.stats();
    let budget_overshoot_bytes = db.budget().peak_overshoot();
    drop(db);
    rec.close(id);

    let id = rec.open("core.collect", pass);
    let rows_out = rows.len();
    let state = collect_state(n, rows, stats.peak_memory_bytes)?;
    rec.close(id);
    rec.close(pass);

    let shape = probe_statement(rec, statement_span, &sql, &shadow_catalog(&reg, 0)?, false)?;
    let mut counts = translate_counts(&ops, &reg, sql.len());
    counts.extend([
        ("sqldb.parser.statements", 1.0),
        ("sqldb.plan.nodes", shape.nodes as f64),
        ("sqldb.plan.depth", shape.depth as f64),
        ("sqldb.exec.rows_out", rows_out as f64),
        (
            "sqldb.storage.budget_overshoot_bytes",
            budget_overshoot_bytes as f64,
        ),
    ]);
    let out = PassOutput {
        state,
        peak_mem_bytes: stats.peak_memory_bytes,
        spill_files: stats.spill_files,
        spill_bytes: stats.spill_bytes,
        dir_bytes: 0,
    };
    Ok((out, counts))
}

/// One traced pass of `durable_steps` (`dir` given) or of the same
/// statements on an in-memory database (`dir` absent).
pub fn traced_step_pass(
    circuit: &QuantumCircuit,
    dir: Option<&Path>,
    parallelism: usize,
    rec: &mut Recorder,
) -> Result<(PassOutput, Counts), String> {
    let run = step_pass(circuit, dir, parallelism, rec)?;
    let shadow = shadow_catalog(&run.reg, run.ops.len())?;
    let mut shape = PlanShape { nodes: 0, depth: 0 };
    for (span, sql) in &run.statements {
        let s = probe_statement(rec, *span, sql, &shadow, true)?;
        shape = PlanShape {
            nodes: shape.nodes + s.nodes,
            depth: shape.depth.max(s.depth),
        };
    }

    // The read-back returns the table the last gate created.
    let rows_out = run.state_rows.last().copied().unwrap_or(0);
    let state_rows_sum: usize = run.state_rows.iter().sum();
    let user_bytes = state_rows_sum as f64 * STATE_ROW_BYTES + rows_out as f64 * RESULT_ROW_BYTES;
    let sql_bytes = run.statements[..run.ops.len()]
        .iter()
        .map(|(_, sql)| sql.len())
        .sum();
    let mut counts = translate_counts(&run.ops, &run.reg, sql_bytes);
    counts.extend([
        ("sqldb.parser.statements", run.statements.len() as f64),
        ("sqldb.plan.nodes", shape.nodes as f64),
        ("sqldb.plan.depth", shape.depth as f64),
        ("sqldb.exec.rows_out", rows_out as f64),
        ("sqldb.exec.state_rows_sum", state_rows_sum as f64),
        (
            "sqldb.exec.state_rows_peak",
            run.state_rows.iter().copied().max().unwrap_or(0) as f64,
        ),
        (
            "sqldb.table.rows_written",
            (state_rows_sum + rows_out) as f64,
        ),
        ("sqldb.table.peak_table_bytes", run.peak_table_bytes as f64),
        (
            "sqldb.storage.budget_overshoot_bytes",
            run.budget_overshoot_bytes as f64,
        ),
        ("sqldb.storage.wal_bytes", run.out.dir_bytes as f64),
        (
            "sqldb.storage.write_amp",
            run.out.dir_bytes as f64 / user_bytes,
        ),
    ]);
    Ok((run.out, counts))
}

/// Rows of the state after every gate of a single-query pass, read from
/// `SqlSimulator::profile` (`EXPLAIN ANALYZE`): the aggregate that ends each
/// gate's CTE emits them.
pub fn state_rows_per_gate(w: Workload, circuit: &QuantumCircuit) -> Result<Vec<u64>, String> {
    let text = SqlSimulator::new(w.sql_config(PARALLELISM, None))
        .profile(circuit)
        .map_err(|e| e.to_string())?;
    let rows: Vec<u64> = text
        .lines()
        .filter(|line| line.contains("Aggregate"))
        .filter_map(|line| {
            line.split("rows=")
                .nth(1)?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .collect();
    if rows.len() != circuit.gate_count() {
        return Err(format!(
            "EXPLAIN ANALYZE shows {} aggregates for {} gates",
            rows.len(),
            circuit.gate_count()
        ));
    }
    Ok(rows)
}
