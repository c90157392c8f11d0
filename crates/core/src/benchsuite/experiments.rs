//! Reproductions of every quantitative artifact in the paper — one function
//! per experiment id of DESIGN.md's index (E3a/E3b, E4, E5, E7, E8, and the
//! encoding ablation). Each returns structured results plus a rendered
//! table; the `expt_*` binaries are thin wrappers.

use std::time::Instant;

use qymera_circuit::{library, QuantumCircuit};
use qymera_sim::statevector::max_dense_qubits;
use qymera_sim::SimOptions;
use qymera_sqldb::{Database, Value};
use qymera_translate::{ExecMode, SqlSimConfig, SqlSimulator};

use crate::benchsuite::{run_sweep, BenchRecord, Workload};
use crate::engine::{BackendKind, Engine};

// ---------------------------------------------------------------------------
// E3a — sparse circuits under a memory limit (the "3,118× more qubits" claim)
// ---------------------------------------------------------------------------

/// Result of the memory-limited max-qubits experiment.
#[derive(Debug, Clone)]
pub struct MaxQubitsResult {
    /// The memory budget the experiment ran under, in bytes.
    pub budget_bytes: usize,
    /// Dense state-vector cap under the budget (analytic: 16·2ⁿ ≤ budget).
    pub statevector_max: usize,
    /// Largest probed sparse (GHZ-family) register the SQL backend ran.
    pub sql_max_probed: usize,
    /// Wall time of the largest successful SQL probe.
    pub sql_probe_millis: f64,
    /// sql_max_probed / statevector_max.
    pub ratio: f64,
    /// Each probe: (n, ok, wall ms, peak engine bytes).
    pub probes: Vec<(usize, bool, f64, usize)>,
}

/// Probe how many qubits each approach reaches on *sparse* circuits under
/// `budget_bytes` (paper: 2.0 GB). `max_probe` bounds the largest GHZ
/// register attempted through the SQL backend (the probe cost grows with n,
/// so the default binary uses a ladder the CI box can afford and the paper's
/// 84k-qubit point is extrapolated by the printed model).
pub fn max_qubits_experiment(budget_bytes: usize, max_probe: usize) -> MaxQubitsResult {
    let statevector_max = max_dense_qubits(budget_bytes);

    let mut probes = Vec::new();
    let mut sql_max = 0usize;
    let mut best_ms = 0.0f64;
    // Doubling ladder, then the exact target (so the paper's 84k-qubit point
    // can be probed directly with `--max-probe 84186`).
    let mut ladder: Vec<usize> = Vec::new();
    let mut n = 64usize;
    while n <= max_probe {
        ladder.push(n);
        n *= 2;
    }
    if ladder.last() != Some(&max_probe) && max_probe >= 64 {
        ladder.push(max_probe);
    }
    for n in ladder {
        let circuit = library::ghz(n);
        let sim = SqlSimulator::new(SqlSimConfig {
            mode: ExecMode::StepTables,
            memory_limit: Some(budget_bytes),
            ..Default::default()
        });
        let start = Instant::now();
        let result = sim.run(&circuit);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        match result {
            Ok(run) => {
                let ok = run.support() == 2 && (run.norm_sqr() - 1.0).abs() < 1e-6;
                probes.push((n, ok, ms, run.stats.peak_memory_bytes));
                if ok {
                    sql_max = n;
                    best_ms = ms;
                }
            }
            Err(_) => {
                probes.push((n, false, ms, 0));
                break;
            }
        }
    }

    let ratio = if statevector_max > 0 {
        sql_max as f64 / statevector_max as f64
    } else {
        f64::INFINITY
    };
    MaxQubitsResult {
        budget_bytes,
        statevector_max,
        sql_max_probed: sql_max,
        sql_probe_millis: best_ms,
        ratio,
        probes,
    }
}

impl MaxQubitsResult {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "E3a — max qubits under a {} budget (sparse GHZ family)\n",
            super::report::human_bytes(self.budget_bytes)
        ));
        out.push_str(&format!(
            "  statevector (16·2^n bytes): caps at n = {}\n",
            self.statevector_max
        ));
        for (n, ok, ms, mem) in &self.probes {
            out.push_str(&format!(
                "  sql probe n = {n:>6}: {} in {ms:.1} ms (engine peak {})\n",
                if *ok { "ok" } else { "FAILED" },
                super::report::human_bytes(*mem)
            ));
        }
        out.push_str(&format!(
            "  sql reaches ≥ {} qubits → ratio ≥ {:.0}× (paper reports 3,118× at its probe size;\n",
            self.sql_max_probed, self.ratio
        ));
        out.push_str(
            "  state rows stay O(1) per GHZ state, so the cap is probe time, not memory)\n",
        );
        out
    }
}

// ---------------------------------------------------------------------------
// E3b — dense circuits: the RDBMS pays a constant-factor penalty
// ---------------------------------------------------------------------------

/// Dense-workload comparison rows: (n, sv ms, sql ms, slowdown factor).
#[derive(Debug, Clone)]
pub struct DenseOverheadResult {
    /// `(n, statevector ms, sql ms, slowdown factor)` per register size.
    pub rows: Vec<(usize, f64, f64, f64)>,
}

/// Time equal-superposition circuits (the paper's dense test case) on the
/// state-vector baseline vs the SQL backend.
pub fn dense_overhead_experiment(sizes: &[usize]) -> DenseOverheadResult {
    let engine = Engine::with_defaults();
    let mut rows = Vec::new();
    for &n in sizes {
        let c = library::equal_superposition(n);
        let sv = engine.run(BackendKind::StateVector, &c);
        let sql = engine.run(BackendKind::Sql, &c);
        if sv.ok() && sql.ok() {
            let sv_ms = sv.wall_micros as f64 / 1000.0;
            let sql_ms = sql.wall_micros as f64 / 1000.0;
            rows.push((n, sv_ms, sql_ms, sql_ms / sv_ms.max(1e-9)));
        }
    }
    DenseOverheadResult { rows }
}

impl DenseOverheadResult {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "E3b — dense circuits (equal superposition): SQL vs state vector\n\
                  n     sv_ms    sql_ms   slowdown\n",
        );
        for (n, sv, sql, f) in &self.rows {
            out.push_str(&format!("  {n:>4}  {sv:>8.2}  {sql:>8.2}  {f:>7.1}×\n"));
        }
        out.push_str(
            "  (paper reports ~14% slower on DuckDB's vectorized engine; this\n\
             \x20 embedded engine, vectorized too, pays a larger constant, same direction)\n",
        );
        out
    }
}

// ---------------------------------------------------------------------------
// E4 — Scenario 1: parity check across backends
// ---------------------------------------------------------------------------

/// Per-backend parity results: (backend, wall ms, measured parity, correct).
#[derive(Debug, Clone)]
pub struct ParityResult {
    /// The data bits whose parity was checked.
    pub input: Vec<bool>,
    /// `(backend, wall ms, measured parity, correct)` per backend.
    pub rows: Vec<(String, f64, Option<bool>, bool)>,
}

/// Run the parity-check algorithm on every backend and verify the ancilla.
pub fn parity_experiment(input: &[bool]) -> ParityResult {
    let expected = input.iter().filter(|&&b| b).count() % 2 == 1;
    let circuit = library::parity_check(input);
    let ancilla = input.len();
    let engine = Engine::with_defaults();
    let mut rows = Vec::new();
    for b in BackendKind::ALL {
        let r = engine.run(b, &circuit);
        let measured = r.output.as_ref().map(|o| o.qubit_one_probability(ancilla) > 0.5);
        let correct = measured == Some(expected);
        rows.push((b.name().to_string(), r.wall_micros as f64 / 1000.0, measured, correct));
    }
    ParityResult { input: input.to_vec(), rows }
}

impl ParityResult {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let bits: String = self.input.iter().map(|&b| if b { '1' } else { '0' }).collect();
        let mut out = format!("E4 — parity check of input {bits}\n");
        for (backend, ms, measured, correct) in &self.rows {
            out.push_str(&format!(
                "  {backend:>12}: parity = {} in {ms:.2} ms {}\n",
                match measured {
                    Some(true) => "odd",
                    Some(false) => "even",
                    None => "error",
                },
                if *correct { "✓" } else { "✗" }
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E5 — Scenario 2: method benchmarking on GHZ and equal superposition
// ---------------------------------------------------------------------------

/// Sweep the scenario workloads over sizes × all backends.
pub fn scenario_benchmark(sizes: &[usize], opts: SimOptions) -> Vec<BenchRecord> {
    let engine = Engine::new(opts);
    let workloads = vec![
        Workload::new("ghz", library::ghz),
        Workload::new("equal_superposition", library::equal_superposition),
    ];
    run_sweep("E5", &engine, &workloads, sizes, &BackendKind::ALL)
}

// ---------------------------------------------------------------------------
// E7 — gate fusion ablation (§3.2 Query Optimization)
// ---------------------------------------------------------------------------

/// Fusion ablation rows: (workload, n, fusion, ops, wall ms).
#[derive(Debug, Clone)]
pub struct FusionResult {
    /// `(workload, n, fusion setting, ops executed, wall ms)` per run.
    pub rows: Vec<(String, usize, String, usize, f64)>,
}

/// A named circuit family used by the fusion ablation.
type FusionWorkload<'a> = (&'a str, Box<dyn Fn(usize) -> QuantumCircuit>);

/// Compare fusion off / 2-qubit / 3-qubit / 6-qubit (the default) on QFT
/// and dense workloads.
pub fn fusion_experiment(sizes: &[usize]) -> FusionResult {
    let mut rows = Vec::new();
    let workloads: Vec<FusionWorkload> = vec![
        ("qft", Box::new(library::qft)),
        ("dense", Box::new(|n| library::dense_circuit(n, 3, 11))),
    ];
    for (name, make) in &workloads {
        for &n in sizes {
            let circuit = make(n);
            for fusion in [None, Some(2), Some(3), Some(6)] {
                let sim = SqlSimulator::new(SqlSimConfig { fusion, ..Default::default() });
                let start = Instant::now();
                let result = sim.run(&circuit);
                let ms = start.elapsed().as_secs_f64() * 1000.0;
                let (label, ops) = match (&result, fusion) {
                    (Ok(r), None) => ("off".to_string(), r.ops_executed),
                    (Ok(r), Some(k)) => (format!("≤{k}q"), r.ops_executed),
                    (Err(_), _) => ("err".to_string(), 0),
                };
                rows.push((name.to_string(), n, label, ops, ms));
            }
        }
    }
    FusionResult { rows }
}

impl FusionResult {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "E7 — gate fusion ablation (SQL backend)\n\
               workload     n  fusion   ops   wall_ms\n",
        );
        for (w, n, f, ops, ms) in &self.rows {
            out.push_str(&format!("  {w:>8}  {n:>4}  {f:>6}  {ops:>4}  {ms:>8.2}\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// E8 — out-of-core behaviour under shrinking budgets (§3.3)
// ---------------------------------------------------------------------------

/// Out-of-core rows: (budget, ok, wall ms, spill files, spill bytes, peak).
#[derive(Debug, Clone)]
pub struct OutOfCoreResult {
    /// Register width of the workload.
    pub num_qubits: usize,
    /// `(budget, ok, wall ms, spill files, spill bytes, peak bytes)` per run.
    pub rows: Vec<(usize, bool, f64, u64, u64, usize)>,
}

/// Run a dense circuit through the SQL backend under decreasing budgets and
/// record the spill behaviour.
pub fn out_of_core_experiment(n: usize, budgets: &[usize]) -> OutOfCoreResult {
    let circuit = library::equal_superposition(n);
    let mut rows = Vec::new();
    for &budget in budgets {
        let sim = SqlSimulator::new(SqlSimConfig {
            memory_limit: Some(budget),
            ..Default::default()
        });
        let start = Instant::now();
        let result = sim.run(&circuit);
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        match result {
            Ok(r) => {
                let ok = r.support() == 1usize << n;
                rows.push((
                    budget,
                    ok,
                    ms,
                    r.stats.spill_files,
                    r.stats.spill_bytes,
                    r.stats.peak_memory_bytes,
                ));
            }
            Err(_) => rows.push((budget, false, ms, 0, 0, 0)),
        }
    }
    OutOfCoreResult { num_qubits: n, rows }
}

impl OutOfCoreResult {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "E8 — out-of-core SQL simulation of equal_superposition({})\n\
                    budget  status   wall_ms  spill_files   spill_bytes    peak_mem\n",
            self.num_qubits
        );
        for (budget, ok, ms, files, bytes, peak) in &self.rows {
            out.push_str(&format!(
                "  {:>11}  {:>6}  {ms:>8.1}  {files:>11}  {bytes:>12}  {:>10}\n",
                super::report::human_bytes(*budget),
                if *ok { "ok" } else { "FAIL" },
                super::report::human_bytes(*peak)
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Encoding ablation — integer+bitwise vs string-based state encoding [6]
// ---------------------------------------------------------------------------

/// Encoding comparison rows: (n, int ms, int bytes, str ms, str bytes).
#[derive(Debug, Clone)]
pub struct EncodingResult {
    /// `(n, int ms, int bytes, string ms, string bytes)` per register size.
    pub rows: Vec<(usize, f64, usize, f64, usize)>,
}

/// Compare the paper's integer/bitwise encoding against a string-encoded
/// state table (one `'0'/'1'` character per qubit, gate application via
/// `SUBSTR`/`CONCAT`), on the GHZ family.
pub fn encoding_experiment(sizes: &[usize]) -> EncodingResult {
    let mut rows = Vec::new();
    for &n in sizes {
        let circuit = library::ghz(n);
        // Integer encoding through the normal pipeline.
        let sim = SqlSimulator::new(SqlSimConfig {
            mode: ExecMode::StepTables,
            ..Default::default()
        });
        let start = Instant::now();
        let int_run = sim.run(&circuit).expect("integer encoding run");
        let int_ms = start.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(int_run.support(), 2);

        let start = Instant::now();
        let (support, str_bytes) = run_string_encoded_ghz(n);
        let str_ms = start.elapsed().as_secs_f64() * 1000.0;
        assert_eq!(support, 2);

        rows.push((n, int_ms, int_run.stats.peak_memory_bytes, str_ms, str_bytes));
    }
    EncodingResult { rows }
}

/// GHZ(n) with TEXT-encoded basis states; returns (final support, peak bytes).
fn run_string_encoded_ghz(n: usize) -> (usize, usize) {
    let mut db = Database::new();
    db.execute("CREATE TABLE T0 (s TEXT, r DOUBLE, i DOUBLE)").unwrap();
    db.insert_rows(
        "T0",
        vec![vec![Value::Str("0".repeat(n)), Value::Float(1.0), Value::Float(0.0)]],
    )
    .unwrap();
    // String-encoded H table: single characters in/out.
    let h = std::f64::consts::FRAC_1_SQRT_2;
    db.execute("CREATE TABLE HS (in_c TEXT, out_c TEXT, r DOUBLE, i DOUBLE)").unwrap();
    db.execute(&format!(
        "INSERT INTO HS VALUES ('0','0',{h},0.0), ('0','1',{h},0.0), \
         ('1','0',{h},0.0), ('1','1',{},0.0)",
        -h
    ))
    .unwrap();
    // String-encoded CX table: two characters "t c" msb-first (control is
    // the rightmost of the pair in string order).
    db.execute("CREATE TABLE CXS (in_c TEXT, out_c TEXT, r DOUBLE, i DOUBLE)").unwrap();
    db.execute(
        "INSERT INTO CXS VALUES ('00','00',1.0,0.0), ('01','11',1.0,0.0), \
         ('10','10',1.0,0.0), ('11','01',1.0,0.0)",
    )
    .unwrap();

    // H on qubit 0 = rightmost character (position n).
    let prefix_len = n - 1;
    let new_s = format!("CONCAT(SUBSTR(T0.s, 1, {prefix_len}), HS.out_c)");
    db.create_table_as(
        "T1",
        &format!(
            "SELECT {new_s} AS s, \
             SUM((T0.r * HS.r) - (T0.i * HS.i)) AS r, \
             SUM((T0.r * HS.i) + (T0.i * HS.r)) AS i \
             FROM T0 JOIN HS ON HS.in_c = SUBSTR(T0.s, {n}, 1) \
             GROUP BY {new_s}"
        ),
    )
    .unwrap();
    db.drop_table_if_exists("T0").unwrap();

    // CX chain: gate on qubits (q, q+1) touches string positions
    // (n-q-1, n-q) — two adjacent characters.
    for q in 0..n - 1 {
        let pos = n - q - 1; // 1-based position of qubit q+1's character
        let prev = format!("T{}", q + 1);
        let next = format!("T{}", q + 2);
        let before = format!("SUBSTR({prev}.s, 1, {})", pos - 1);
        let after = format!("SUBSTR({prev}.s, {}, {})", pos + 2, n - pos - 1);
        let new_s = format!("CONCAT({before}, CXS.out_c, {after})");
        db.create_table_as(
            &next,
            &format!(
                "SELECT {new_s} AS s, \
                 SUM(({prev}.r * CXS.r) - ({prev}.i * CXS.i)) AS r, \
                 SUM(({prev}.r * CXS.i) + ({prev}.i * CXS.r)) AS i \
                 FROM {prev} JOIN CXS ON CXS.in_c = SUBSTR({prev}.s, {pos}, 2) \
                 GROUP BY {new_s}"
            ),
        )
        .unwrap();
        db.drop_table_if_exists(&prev).unwrap();
    }
    let last = format!("T{n}");
    let rs = db.execute(&format!("SELECT s, r, i FROM {last} ORDER BY s")).unwrap();
    (rs.rows().len(), db.stats().peak_memory_bytes)
}

impl EncodingResult {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Encoding ablation — integer/bitwise (paper) vs TEXT bitstrings [6], GHZ(n)\n\
                  n    int_ms   int_mem    str_ms   str_mem   mem_ratio\n",
        );
        for (n, ims, ib, sms, sb) in &self.rows {
            out.push_str(&format!(
                "  {n:>4}  {ims:>8.2}  {:>8}  {sms:>8.2}  {:>8}  {:>8.2}×\n",
                super::report::human_bytes(*ib),
                super::report::human_bytes(*sb),
                *sb as f64 / (*ib).max(1) as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3a_shape_holds_at_small_scale() {
        // 2 MiB budget: statevector caps at 17 qubits; SQL runs GHZ(256)+.
        let r = max_qubits_experiment(2 * 1024 * 1024, 256);
        assert_eq!(r.statevector_max, 17);
        assert!(r.sql_max_probed >= 256, "probes: {:?}", r.probes);
        assert!(r.ratio > 10.0, "ratio {}", r.ratio);
        assert!(r.render().contains("E3a"));
    }

    #[test]
    fn e3b_sql_slower_on_dense_but_correct() {
        let r = dense_overhead_experiment(&[6, 8]);
        assert_eq!(r.rows.len(), 2);
        for (_, _, _, slowdown) in &r.rows {
            assert!(*slowdown > 1.0, "RDBMS should not beat the dense kernel here");
        }
        assert!(r.render().contains("slowdown"));
    }

    #[test]
    fn e4_all_backends_agree_on_parity() {
        for input in [vec![true, false, true], vec![true, true], vec![false; 3]] {
            let r = parity_experiment(&input);
            for (backend, _, _, correct) in &r.rows {
                assert!(correct, "{backend} wrong for {input:?}");
            }
        }
    }

    #[test]
    fn e5_grid_runs() {
        let recs = scenario_benchmark(&[4, 6], SimOptions::default());
        assert_eq!(recs.len(), 2 * 2 * BackendKind::ALL.len());
        assert!(recs.iter().all(|r| r.ok), "{:?}",
            recs.iter().filter(|r| !r.ok).map(|r| (&r.backend, &r.error)).collect::<Vec<_>>());
    }

    #[test]
    fn e7_fusion_reduces_ops() {
        let r = fusion_experiment(&[8]);
        let ops = |w: &str, f: &str| r.rows.iter().find(|row| row.0 == w && row.2 == f).unwrap().3;
        // QFT-8: the CP ladders and swaps fuse once the support allows, and
        // a wider block never costs an op.
        assert_eq!(ops("qft", "off"), library::qft(8).gate_count());
        assert!(ops("qft", "≤6q") < ops("qft", "≤3q") && ops("qft", "≤3q") < ops("qft", "off"));
        assert!(ops("qft", "≤3q") <= ops("qft", "≤2q"));
        // The dense circuit interleaves interfering layers; fusion may only
        // shrink it.
        assert!(ops("dense", "≤6q") <= ops("dense", "off"));
        assert!(r.rows.iter().all(|row| row.2 != "err"), "{:?}", r.rows);
    }

    #[test]
    fn e8_spills_appear_under_pressure() {
        let r = out_of_core_experiment(10, &[64 * 1024, 16 * 1024 * 1024]);
        assert_eq!(r.rows.len(), 2);
        let tight = &r.rows[0];
        let loose = &r.rows[1];
        assert!(tight.1, "tight-budget run must still succeed (out-of-core)");
        assert!(loose.1);
        assert!(tight.3 > 0, "tight budget must spill");
        assert_eq!(loose.3, 0, "loose budget must not spill");
    }

    #[test]
    fn encoding_ablation_favors_integers() {
        let r = encoding_experiment(&[8, 12]);
        for (n, _, int_mem, _, str_mem) in &r.rows {
            assert!(
                str_mem > int_mem,
                "string encoding should cost more storage at n={n}: {str_mem} vs {int_mem}"
            );
        }
    }
}
