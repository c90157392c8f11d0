//! Differential fuzzing of the translate path: random circuits run
//! through the SQL backend (the fused single query, step tables fused and
//! unfused, and the unfused single query answered by the engine's reference
//! interpreter) and cross-checked against the native simulator backends
//! (statevector, sparse, MPS, decision diagram) amplitude-by-amplitude.
//!
//! Rotation angles are dyadic multiples of π/8 — enough to produce dense,
//! interfering states while keeping every backend well inside the
//! comparison tolerance.

use std::collections::BTreeMap;

use qymera_circuit::{c64, Gate, GateKind, QuantumCircuit};
use qymera_sim::{
    DdSim, MpsSim, SimError, SimOptions, SimOutput, Simulator, SparseSim, StateVectorSim,
};
use qymera_sqldb::Database;
use qymera_translate::fusion::lower_circuit;
use qymera_translate::tables::create_initial_state_table;
use qymera_translate::{
    circuit_query, ExecMode, GateTableRegistry, SqlGenConfig, SqlSimConfig, SqlSimulator,
};

use crate::generator::CaseRng;
use crate::oracle::Discrepancy;

/// Maximum |Δamplitude| tolerated between any two backends (after global
/// phase alignment). All backends are double precision; circuits are ≤ 32
/// gates (300 in the deep chain), so 1e-8 leaves at least 6 digits of slack
/// over accumulated rounding.
pub const AMPLITUDE_TOL: f64 = 1e-8;

/// A generated circuit case: the seed plus the explicit gate list (the
/// shrinker edits the list directly, so it is not re-derived from the
/// seed after generation).
#[derive(Debug, Clone)]
pub struct CircuitCase {
    /// Seed this case was generated from.
    pub seed: u64,
    /// Register width.
    pub qubits: usize,
    /// Gate sequence.
    pub gates: Vec<Gate>,
}

impl CircuitCase {
    /// Generate the case for `seed`: 2–5 qubits, 4–24 gates drawn from
    /// the full single/two/three-qubit gate table.
    pub fn generate(seed: u64) -> CircuitCase {
        let mut rng = CaseRng::new(seed ^ 0x0C1C_0C1C);
        let qubits = rng.range(2, 5) as usize;
        let ngates = rng.range(4, 24) as usize;
        let gates = (0..ngates).map(|_| gen_gate(&mut rng, qubits)).collect();
        CircuitCase { seed, qubits, gates }
    }

    /// A fixed X / CX / H chain of `gates` gates walking round 4 qubits:
    /// the translator's one-CTE-per-gate query at a depth the random cases
    /// (≤ 24 gates) never reach, over a state the H gates keep dense.
    pub fn deep_chain(gates: usize) -> CircuitCase {
        let gates = (0..gates)
            .map(|k| {
                let q = (k / 3) % 4;
                match k % 3 {
                    0 => Gate::new(GateKind::X, vec![q], vec![]),
                    1 => Gate::new(GateKind::Cx, vec![q, (q + 1) % 4], vec![]),
                    _ => Gate::new(GateKind::H, vec![q], vec![]),
                }
            })
            .collect();
        CircuitCase { seed: 0, qubits: 4, gates }
    }

    /// The shapes whose gates, Hadamards apart, cannot interfere — the
    /// optimizer streams their aggregates, and every oracle here still
    /// groups or multiplies matrices: a QFT (CP ladders on non-adjacent
    /// qubits, the reversal swaps), a parity check (X and CX fan-in on a
    /// one-row state) and Bernstein–Vazirani (CX between Hadamard layers).
    pub fn library_shapes() -> Vec<CircuitCase> {
        use qymera_circuit::library;
        [
            library::qft(5),
            library::parity_check(&[true, false, true, true, false]),
            library::bernstein_vazirani(4, 0b1011),
        ]
        .iter()
        .map(|c| CircuitCase { seed: 0, qubits: c.num_qubits, gates: c.gates().to_vec() })
        .collect()
    }

    /// Materialize as a [`QuantumCircuit`].
    pub fn circuit(&self) -> QuantumCircuit {
        let mut c = QuantumCircuit::new(self.qubits);
        for g in &self.gates {
            c.push(g.clone()).expect("generated gates are valid");
        }
        c
    }
}

/// A dyadic rotation angle: k·π/8 for k ∈ [-8, 8].
fn angle(rng: &mut CaseRng) -> f64 {
    rng.range(-8, 8) as f64 * std::f64::consts::FRAC_PI_8
}

/// `n` distinct qubit indices below `qubits`.
fn distinct_qubits(rng: &mut CaseRng, qubits: usize, n: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    while picked.len() < n {
        let q = rng.below(qubits as u64) as usize;
        if !picked.contains(&q) {
            picked.push(q);
        }
    }
    picked
}

fn gen_gate(rng: &mut CaseRng, qubits: usize) -> Gate {
    use GateKind::*;
    // Weighted pool: entangling and rotation gates dominate so states are
    // dense and phases matter.
    let pool: &[GateKind] = if qubits >= 3 {
        &[H, H, X, Y, Z, S, Sdg, T, Tdg, SqrtX, Rx, Ry, Rz, Phase, U3, Cx, Cx, Cy, Cz, Ch, CPhase, CRx, CRy, CRz, Swap, Ccx, CSwap]
    } else {
        &[H, H, X, Y, Z, S, Sdg, T, Tdg, SqrtX, Rx, Ry, Rz, Phase, U3, Cx, Cx, Cy, Cz, Ch, CPhase, CRx, CRy, CRz, Swap]
    };
    let kind = *rng.pick(pool);
    let arity = match kind {
        Ccx | CSwap => 3,
        Cx | Cy | Cz | Ch | CPhase | CRx | CRy | CRz | Swap => 2,
        _ => 1,
    };
    let nparams = match kind {
        U3 => 3,
        Rx | Ry | Rz | Phase | CPhase | CRx | CRy | CRz => 1,
        _ => 0,
    };
    let qs = distinct_qubits(rng, qubits, arity);
    let params = (0..nparams).map(|_| angle(rng)).collect();
    Gate::new(kind, qs, params)
}

/// The SQL-backend configurations a circuit case runs under: the default
/// (fused) single query, and step tables fused and one per gate.
fn sql_backends() -> Vec<(&'static str, SqlSimulator)> {
    let step =
        |fusion| SqlSimConfig { mode: ExecMode::StepTables, fusion, ..SqlSimConfig::default() };
    vec![
        ("sql-single", SqlSimulator::paper_default()),
        ("sql-step", SqlSimulator::new(step(None))),
        ("sql-step-fused", SqlSimulator::new(step(SqlSimConfig::default().fusion))),
    ]
}

/// The translator's tables and single-query text for `circuit`, answered by
/// `Database::query_reference` instead of the executor.
fn simulate_with_reference(circuit: &QuantumCircuit) -> Result<SimOutput, SimError> {
    let err = |e: qymera_sqldb::Error| SimError::Numerical(e.to_string());
    let mut reg = GateTableRegistry::new();
    let ops = lower_circuit(circuit, &mut reg, None);
    let mut db = Database::new();
    reg.materialize(&mut db).map_err(err)?;
    create_initial_state_table(&mut db, "T0", circuit.num_qubits, 0).map_err(err)?;
    let sql = circuit_query(&ops, circuit.num_qubits, "T0", &SqlGenConfig::default());
    let mut amplitudes = BTreeMap::new();
    for row in db.query_reference(&sql).map_err(err)?.rows() {
        let [s, r, i] = row.as_slice() else {
            return Err(SimError::Numerical("state row arity mismatch".into()));
        };
        let s = s.as_i64().map_err(err)? as u64;
        amplitudes.insert(s, c64(r.as_f64().map_err(err)?, i.as_f64().map_err(err)?));
    }
    Ok(SimOutput::from_map(circuit.num_qubits, amplitudes, 0))
}

/// Run `case` through every SQL mode and native backend, comparing all
/// outputs against the statevector reference within [`AMPLITUDE_TOL`].
pub fn run_circuit_case(case: &CircuitCase) -> Option<Discrepancy> {
    let circuit = case.circuit();
    let opts = SimOptions::default();
    let reference = match StateVectorSim.simulate(&circuit, &opts) {
        Ok(out) => out,
        Err(e) => {
            return Some(Discrepancy {
                seed: case.seed,
                oracle: "statevector".to_string(),
                detail: format!("reference backend errored: {e}"),
            })
        }
    };
    let check = |name: &str, out: Result<SimOutput, qymera_sim::SimError>| {
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                return Some(Discrepancy {
                    seed: case.seed,
                    oracle: name.to_string(),
                    detail: format!("backend errored: {e}"),
                })
            }
        };
        let diff = reference.max_amplitude_diff(&out);
        if diff > AMPLITUDE_TOL {
            return Some(Discrepancy {
                seed: case.seed,
                oracle: format!("statevector vs {name}"),
                detail: format!(
                    "max amplitude difference {diff:.3e} exceeds {AMPLITUDE_TOL:.0e} \
                     ({} qubits, {} gates)",
                    case.qubits,
                    case.gates.len()
                ),
            });
        }
        None
    };
    for (name, sim) in sql_backends() {
        if let Some(d) = check(name, sim.simulate(&circuit, &opts)) {
            return Some(d);
        }
    }
    if let Some(d) = check("sql-reference", simulate_with_reference(&circuit)) {
        return Some(d);
    }
    if let Some(d) = check("sparse", SparseSim.simulate(&circuit, &opts)) {
        return Some(d);
    }
    if let Some(d) = check("mps", MpsSim.simulate(&circuit, &opts)) {
        return Some(d);
    }
    if let Some(d) = check("dd", DdSim.simulate(&circuit, &opts)) {
        return Some(d);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        for seed in 0..50 {
            let a = CircuitCase::generate(seed);
            let b = CircuitCase::generate(seed);
            assert_eq!(a.gates, b.gates);
            a.circuit(); // panics if any gate is invalid
        }
    }

    #[test]
    fn backends_agree_on_a_small_sample() {
        for seed in 0..4 {
            let case = CircuitCase::generate(seed);
            if let Some(d) = run_circuit_case(&case) {
                panic!("unexpected circuit discrepancy: {d}");
            }
        }
    }
}
