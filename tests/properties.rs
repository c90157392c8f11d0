//! Property-based tests (proptest) over the core invariants:
//!
//! * every backend preserves the state norm on arbitrary random circuits;
//! * the SQL backend agrees with the dense oracle on arbitrary circuits;
//! * the engine's spill path is semantically invisible (any memory budget
//!   produces the same answer as unlimited memory);
//! * circuit file formats round-trip arbitrary circuits;
//! * mask algebra: the generated SQL's extract/place expressions invert.

use proptest::prelude::*;

use qymera::circuit::{library, Gate, GateKind, QuantumCircuit};
use qymera::core::{BackendKind, Engine};
use qymera::sim::{SimOptions, Simulator, StateVectorSim};
use qymera::translate::{SqlSimConfig, SqlSimulator};

/// Strategy: a valid random circuit described by (qubits, gates, seed).
fn circuit_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..=5, 1usize..=25, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn norm_preserved_by_every_backend((n, gates, seed) in circuit_params()) {
        let circuit = library::random_circuit(n, gates, seed);
        let engine = Engine::with_defaults();
        for backend in BackendKind::ALL {
            let r = engine.run(backend, &circuit);
            prop_assert!(r.ok(), "{backend}: {:?}", r.error);
            prop_assert!(
                (r.norm_sqr - 1.0).abs() < 1e-6,
                "{backend} norm {} (n={n}, gates={gates}, seed={seed})",
                r.norm_sqr
            );
        }
    }

    #[test]
    fn sql_matches_dense_oracle((n, gates, seed) in circuit_params()) {
        let circuit = library::random_circuit(n, gates, seed);
        let oracle = StateVectorSim.simulate(&circuit, &SimOptions::default()).unwrap();
        let sql = SqlSimulator::paper_default()
            .simulate(&circuit, &SimOptions::default())
            .unwrap();
        prop_assert!(sql.max_amplitude_diff(&oracle) < 1e-6);
    }

    #[test]
    fn spilling_is_semantically_invisible(seed in any::<u64>(), budget_kb in 32usize..128) {
        // Budgets below ~32 KiB are under the engine's fixed floor (gate
        // tables + per-operator working sets) — no real engine runs there.
        // Dense 8-qubit circuit; tight budgets force aggregation spills.
        let circuit = library::dense_circuit(8, 2, seed);
        let unlimited = SqlSimulator::paper_default()
            .simulate(&circuit, &SimOptions::default())
            .unwrap();
        let sim = SqlSimulator::new(SqlSimConfig {
            memory_limit: Some(budget_kb * 1024),
            ..Default::default()
        });
        let limited = sim.simulate(&circuit, &SimOptions::default()).unwrap();
        prop_assert!(
            unlimited.max_amplitude_diff(&limited) < 1e-9,
            "budget {budget_kb} KiB changed the result"
        );
    }

    #[test]
    fn json_round_trip_arbitrary_circuits((n, gates, seed) in circuit_params()) {
        let circuit = library::random_circuit(n, gates, seed);
        let text = qymera::circuit::json::to_json(&circuit);
        let back = qymera::circuit::json::from_json(&text).unwrap();
        prop_assert_eq!(back.num_qubits, circuit.num_qubits);
        prop_assert_eq!(back.gate_count(), circuit.gate_count());
        for (a, b) in circuit.gates().iter().zip(back.gates()) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(&a.qubits, &b.qubits);
            for (x, y) in a.params.iter().zip(&b.params) {
                prop_assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0));
            }
        }
    }

    #[test]
    fn qasm_round_trip_arbitrary_circuits((n, gates, seed) in circuit_params()) {
        let circuit = library::random_circuit(n, gates, seed);
        let text = qymera::circuit::qasm::to_qasm(&circuit);
        let back = qymera::circuit::qasm::from_qasm(&text).unwrap();
        prop_assert_eq!(back.gate_count(), circuit.gate_count());
    }

    #[test]
    fn mask_extract_place_inverse(qubits in proptest::collection::vec(0usize..12, 1..3),
                                  s in any::<u16>()) {
        // Distinct qubit tuple → extracting then re-placing the local index
        // over a cleared state must reproduce the original bits.
        let mut qs = qubits.clone();
        qs.dedup();
        prop_assume!(qs.iter().collect::<std::collections::HashSet<_>>().len() == qs.len());
        let s = s as u64 & 0xfff;
        // local extraction (what `in_expr` computes)
        let mut local = 0u64;
        for (j, &q) in qs.iter().enumerate() {
            local |= ((s >> q) & 1) << j;
        }
        // clear + place (what `new_state_expr` computes with out_s = in_s)
        let mut cleared = s;
        for &q in &qs {
            cleared &= !(1u64 << q);
        }
        let mut placed = cleared;
        for (j, &q) in qs.iter().enumerate() {
            placed |= ((local >> j) & 1) << q;
        }
        prop_assert_eq!(placed, s);
    }

    #[test]
    fn gate_matrices_always_unitary(kind_idx in 0usize..26, p1 in -6.3f64..6.3, p2 in -6.3f64..6.3, p3 in -6.3f64..6.3) {
        use GateKind::*;
        let kinds = [I, X, Y, Z, H, S, Sdg, T, Tdg, SqrtX, Rx, Ry, Rz, Phase, U3,
                     Cx, Cy, Cz, Ch, CPhase, CRx, CRy, CRz, Swap, Ccx, CSwap];
        let kind = kinds[kind_idx % kinds.len()];
        let params: Vec<f64> =
            [p1, p2, p3].into_iter().take(kind.param_count()).collect();
        let gate = Gate::new(kind, (0..kind.arity()).collect(), params);
        prop_assert!(gate.matrix().is_unitary(1e-9), "{:?}", gate);
    }
}

// Deterministic (non-proptest) structural invariants.

#[test]
fn sql_trace_states_are_normalized_at_every_step() {
    let circuit = library::random_circuit(4, 12, 99);
    let states = SqlSimulator::paper_default().run_trace(&circuit).unwrap().states;
    for (k, state) in states.iter().enumerate() {
        let norm: f64 = state.iter().map(|a| a.amp.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "step {k} norm {norm}");
    }
}

#[test]
fn empty_and_identity_circuits() {
    let engine = Engine::with_defaults();
    let empty = QuantumCircuit::new(3);
    for backend in BackendKind::ALL {
        let r = engine.run(backend, &empty);
        assert!(r.ok(), "{backend} on empty circuit");
        assert_eq!(r.support, 1);
    }
    let mut identity = QuantumCircuit::new(2);
    identity.push(Gate::new(GateKind::I, vec![0], vec![])).unwrap();
    let r = engine.run(BackendKind::Sql, &identity);
    assert!((r.output.unwrap().probability(0) - 1.0).abs() < 1e-12);
}
