//! Cross-validation: all five backends must produce the same final state on
//! a broad spread of circuits — the SQL path (the paper's contribution) is
//! held to the dense state-vector oracle, and so are the other baselines.

use qymera::circuit::{library, QuantumCircuit};
use qymera::core::{BackendKind, Engine};
use qymera::sim::{SimOptions, Simulator, StateVectorSim};

fn assert_all_backends_agree(circuit: &QuantumCircuit, tol: f64) {
    let engine = Engine::with_defaults();
    let oracle = StateVectorSim.simulate(circuit, &SimOptions::default()).unwrap();
    for backend in BackendKind::ALL {
        let report = engine.run(backend, circuit);
        assert!(report.ok(), "{backend} failed on {}: {:?}", circuit.name, report.error);
        let out = report.output.unwrap();
        let diff = out.max_amplitude_diff(&oracle);
        assert!(
            diff < tol,
            "{backend} differs from oracle by {diff} on {}",
            circuit.name
        );
        assert!((out.norm_sqr() - 1.0).abs() < 1e-7, "{backend} norm on {}", circuit.name);
    }
}

#[test]
fn structured_circuits_agree() {
    for circuit in [
        library::bell(),
        library::ghz(6),
        library::w_state(5),
        library::equal_superposition(6),
        library::qft(5),
        library::parity_check(&[true, false, true, true]),
        library::parity_check_superposed(4),
    ] {
        assert_all_backends_agree(&circuit, 1e-7);
    }
}

#[test]
fn grover_agrees_and_amplifies() {
    let iters = library::grover_optimal_iterations(3);
    let circuit = library::grover(3, 6, iters);
    assert_all_backends_agree(&circuit, 1e-6);
    // And the algorithm works: the marked element dominates.
    let r = Engine::with_defaults().run(BackendKind::Sql, &circuit);
    let p = r.output.unwrap().probability(6);
    assert!(p > 0.8, "Grover via SQL should amplify |110⟩, got {p}");
}

#[test]
fn random_circuits_agree() {
    for seed in 0..8 {
        let circuit = library::random_circuit(5, 30, seed);
        assert_all_backends_agree(&circuit, 1e-6);
    }
}

#[test]
fn deep_sparse_circuits_agree() {
    for seed in [1, 2] {
        let circuit = library::sparse_circuit(8, 10, seed);
        assert_all_backends_agree(&circuit, 1e-7);
    }
}

#[test]
fn dense_random_circuits_agree() {
    let circuit = library::dense_circuit(6, 4, 9);
    assert_all_backends_agree(&circuit, 1e-6);
}

#[test]
fn sql_fusion_variants_agree_with_oracle() {
    use qymera::translate::{SqlSimConfig, SqlSimulator};
    for seed in 0..4 {
        let circuit = library::random_circuit(5, 25, seed);
        let oracle = StateVectorSim.simulate(&circuit, &SimOptions::default()).unwrap();
        for fusion in std::iter::once(None).chain((2..=6).map(Some)) {
            let sim = SqlSimulator::new(SqlSimConfig { fusion, ..Default::default() });
            let out = sim.simulate(&circuit, &SimOptions::default()).unwrap();
            let diff = out.max_amplitude_diff(&oracle);
            assert!(diff < 1e-7, "seed {seed}, fusion {fusion:?}: diff {diff}");
        }
    }
}

#[test]
fn circuit_inverse_composition_is_identity_on_all_backends() {
    let engine = Engine::with_defaults();
    for seed in [3, 7] {
        let forward = library::random_circuit(4, 15, seed);
        let mut round_trip = forward.clone();
        round_trip.append(&forward.inverse()).unwrap();
        for backend in BackendKind::ALL {
            let r = engine.run(backend, &round_trip);
            let out = r.output.unwrap_or_else(|| panic!("{backend} failed"));
            assert!(
                (out.probability(0) - 1.0).abs() < 1e-6,
                "{backend}: U†U|0⟩ must be |0⟩ (seed {seed})"
            );
        }
    }
}
