//! The fusion rule's two claims, on random circuits and the generator's
//! circuit cases: the qubits lowering takes as known hold in every row of
//! the unfused state (so a block may leave out the columns no row meets),
//! and the fused run agrees with one op per gate at 1e-12.

use std::f64::consts::PI;

use qymera_check::circuits::{fusion_matches_unfused, known_qubits_hold};
use qymera_check::CircuitCase;
use qymera_circuit::{library, CircuitBuilder, QuantumCircuit};
use qymera_translate::fusion::known_after_each_gate;
use qymera_translate::{SqlSimConfig, SqlSimulator};

/// Circuits where qubits stay known through X, a CX whose control is known
/// to be 1, RY(π), SWAP and CCX, then stop being known after an H.
fn known_shapes() -> Vec<QuantumCircuit> {
    vec![
        CircuitBuilder::new(4).x(0).cx(0, 1).ry(PI, 2).cx(2, 3).swap(1, 3).ccx(0, 1, 2).build(),
        CircuitBuilder::new(4).x(0).cx(0, 1).h(2).cx(2, 3).ry(PI, 0).cx(1, 0).h(1).cx(1, 3).build(),
        CircuitBuilder::new(3).ry(PI, 0).ry(0.7, 1).cx(0, 2).cx(1, 0).x(2).build(),
    ]
}

fn random_circuits() -> impl Iterator<Item = QuantumCircuit> {
    (0..120u64).map(|seed| library::random_circuit(2 + seed as usize % 5, 20, seed))
}

#[test]
fn known_qubits_hold_in_every_row_of_the_unfused_trace() {
    // Not vacuous: X, the CX it controls and RY(π) leave qubits 0–3 known.
    let first = &known_shapes()[0];
    let known = known_after_each_gate(first);
    assert_eq!((known[3].mask, known[3].ones), (0b1111, 0b1111));
    let cases = (0..200).map(|seed| CircuitCase::generate(seed).circuit());
    for (k, c) in known_shapes().into_iter().chain(random_circuits()).chain(cases).enumerate() {
        known_qubits_hold(&c).unwrap_or_else(|e| panic!("circuit {k} ({}): {e}", c.name));
    }
}

#[test]
fn fused_amplitudes_match_unfused_at_1e_12() {
    let ops = |c: &QuantumCircuit| SqlSimulator::new(SqlSimConfig::default()).run(c).unwrap().ops_executed;
    // H·Z·H fuses into one op; on a dense state (the 2-qubit cap closes the
    // blocks that make it) two Hadamards on two qubits stay apart.
    let hzh = CircuitBuilder::new(2).h(1).h(0).z(0).h(0).build();
    assert_eq!(ops(&hzh), 1);
    let dense = CircuitBuilder::new(4).h_all().h(0).h(1).build();
    let capped = SqlSimulator::new(SqlSimConfig { fusion: Some(2), ..SqlSimConfig::default() });
    assert_eq!(capped.run(&dense).unwrap().ops_executed, 4);
    let mut circuits = vec![hzh, dense];
    circuits.extend(known_shapes());
    circuits.extend(random_circuits());
    circuits.extend((0..200).map(|seed| CircuitCase::generate(seed).circuit()));
    for (k, c) in circuits.iter().enumerate() {
        fusion_matches_unfused(c).unwrap_or_else(|e| panic!("circuit {k} ({}): {e}", c.name));
    }
}
