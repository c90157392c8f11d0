//! Integration tests for the paper's demonstration scenarios (E4, E5, E6)
//! and the out-of-core behaviour (E8), exercised through the public API the
//! way the demo's UI would drive them.

use qymera::circuit::library;
use qymera::core::benchsuite::experiments;
use qymera::core::{BackendKind, Engine};
use qymera::sim::{SimError, SimOptions, Simulator};
use qymera::translate::{SqlSimConfig, SqlSimulator};

// --- E4: Scenario 1 — parity check -------------------------------------

#[test]
fn parity_check_all_inputs_4bit() {
    // Exhaustive over all 4-bit inputs: the SQL backend computes parity.
    let engine = Engine::with_defaults();
    for x in 0u8..16 {
        let bits: Vec<bool> = (0..4).map(|i| (x >> i) & 1 == 1).collect();
        let expected_odd = (x.count_ones() % 2) == 1;
        let circuit = library::parity_check(&bits);
        let r = engine.run(BackendKind::Sql, &circuit);
        let p1 = r.output.expect("sql run").qubit_one_probability(4);
        assert_eq!(p1 > 0.5, expected_odd, "input {x:04b}");
    }
}

#[test]
fn parity_experiment_report_is_all_correct() {
    let r = experiments::parity_experiment(&[true, true, false, true]);
    assert_eq!(r.rows.len(), BackendKind::ALL.len());
    assert!(r.rows.iter().all(|(_, _, _, correct)| *correct));
    assert!(r.render().contains("odd"));
}

// --- E5: Scenario 2 — method benchmarking --------------------------------

#[test]
fn scenario2_benchmark_shape() {
    let records = experiments::scenario_benchmark(&[4, 12], SimOptions::default());
    // full grid: 2 workloads × 2 sizes × 5 backends
    assert_eq!(records.len(), 20);
    assert!(records.iter().all(|r| r.ok));
    // GHZ support is 2 everywhere; equal superposition is 2^n.
    for r in &records {
        match r.workload.as_str() {
            "ghz" => assert_eq!(r.support, 2, "{}", r.backend),
            "equal_superposition" => {
                assert_eq!(r.support, 1 << r.num_qubits, "{}", r.backend)
            }
            other => panic!("unexpected workload {other}"),
        }
    }
    // The sparse/SQL representations of GHZ must be far smaller than dense
    // once the register outgrows the engine's fixed overhead (n = 12: the
    // dense vector needs 64 KiB, the relational state two rows).
    let ghz12 = |backend: &str| {
        records
            .iter()
            .find(|r| r.workload == "ghz" && r.num_qubits == 12 && r.backend == backend)
            .unwrap()
            .memory_bytes
    };
    assert!(ghz12("sql") < ghz12("statevector"));
    assert!(ghz12("sparse") < ghz12("statevector"));
}

// --- E6: Scenario 3 — educational state evolution -------------------------

#[test]
fn ghz_evolution_shows_superposition_then_entanglement() {
    let states = SqlSimulator::paper_default().run_trace(&library::ghz(3)).unwrap();
    // Support sizes along the trace: 1 → 2 → 2 → 2.
    let supports: Vec<usize> = states.iter().map(Vec::len).collect();
    assert_eq!(supports, vec![1, 2, 2, 2]);
    // After H: states 0 and 1 differ only in qubit 0 (superposition).
    let s1: Vec<i64> = states[1].iter().map(|a| a.s.as_i64().unwrap()).collect();
    assert_eq!(s1[0] ^ s1[1], 1);
    // Final: components differ in all three qubits (entanglement).
    let s3: Vec<i64> = states[3].iter().map(|a| a.s.as_i64().unwrap()).collect();
    assert_eq!(s3[0] ^ s3[1], 0b111);
}

// --- E8: out-of-core -------------------------------------------------------

#[test]
fn sql_succeeds_where_in_memory_backends_fail() {
    let n = 12;
    let circuit = library::equal_superposition(n);
    let budget = 32 * 1024; // far below 2^12 amplitudes
    let opts = SimOptions::with_memory_limit(budget);
    let engine = Engine::new(opts.clone());

    // In-memory baselines: out of memory.
    for backend in [BackendKind::StateVector, BackendKind::Sparse] {
        let r = engine.run(backend, &circuit);
        assert!(!r.ok(), "{backend} should fail under {budget} bytes");
    }

    // SQL backend: succeeds by spilling.
    let sim = SqlSimulator::new(SqlSimConfig {
        memory_limit: Some(budget),
        ..Default::default()
    });
    let out = sim.simulate(&circuit, &SimOptions::default()).unwrap();
    assert_eq!(out.nonzero_count(), 1 << n);
    assert!((out.norm_sqr() - 1.0).abs() < 1e-9);
}

/// Out-of-core runs repeat exactly: the spill counters, the ledger's peak
/// and every amplitude bit are functions of the circuit and the limit (at
/// one worker; the order workers finish in is not). Until the spill merge
/// kept first-seen order, `spill_bytes` of this run moved between 949,760
/// and 1,003,520 from one run to the next.
#[test]
fn out_of_core_runs_are_deterministic_at_one_worker() {
    let circuit = library::bernstein_vazirani(12, 1234);
    let sim = SqlSimulator::new(SqlSimConfig {
        memory_limit: Some(2 * 1024 * 1024),
        parallelism: Some(1),
        ..Default::default()
    });
    let observe = || {
        let run = sim.run(&circuit).expect("sql run");
        let bits: Vec<_> = run
            .amplitudes
            .iter()
            .map(|a| (a.s.clone(), a.amp.re.to_bits(), a.amp.im.to_bits()))
            .collect();
        (run.stats.spill_files, run.stats.spill_bytes, run.stats.peak_memory_bytes, bits)
    };
    let first = observe();
    assert!(first.0 > 0 && first.1 > 0, "expected the run to spill");
    for run in 1..5 {
        let again = observe();
        assert_eq!(again.0, first.0, "run {run}: spill_files");
        assert_eq!(again.1, first.1, "run {run}: spill_bytes");
        assert_eq!(again.2, first.2, "run {run}: ledger peak");
        assert!(again.3 == first.3, "run {run}: amplitude bits");
    }
    let reference = BackendKind::StateVector.make().simulate(&circuit, &SimOptions::default());
    let out = sim.simulate(&circuit, &SimOptions::default()).unwrap();
    assert!(out.max_amplitude_diff(&reference.unwrap()) < 1e-8);
}

#[test]
fn out_of_core_sweep_spills_under_pressure_only() {
    let r = experiments::out_of_core_experiment(10, &[32 * 1024, 256 * 1024 * 1024]);
    let (tight, loose) = (&r.rows[0], &r.rows[1]);
    assert!(tight.1 && loose.1, "both budgets must succeed");
    assert!(tight.3 > 0, "tight budget spills");
    assert_eq!(loose.3, 0, "loose budget stays in memory");
    // Peak engine memory respects the budget in the tight run.
    assert!(tight.5 <= 32 * 1024, "peak {} exceeds budget", tight.5);
}

#[test]
fn statevector_error_is_the_oom_kind() {
    let opts = SimOptions::with_memory_limit(1024 * 1024);
    let engine = Engine::new(opts);
    let r = engine.run(BackendKind::StateVector, &library::ghz(24));
    assert!(!r.ok());
    // The experiment relies on this error class to find the qubit cap.
    let sim = BackendKind::StateVector.make();
    match sim.simulate(&library::ghz(24), &SimOptions::with_memory_limit(1024 * 1024)) {
        Err(SimError::OutOfMemory { requested, limit }) => {
            assert!(requested > limit);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}

// --- Method selector end-to-end -------------------------------------------

#[test]
fn selector_choices_run_successfully() {
    use qymera::core::select_method;
    let cases = vec![
        (library::ghz(10), SimOptions::default()),
        (library::equal_superposition(10), SimOptions::default()),
        (library::equal_superposition(10), SimOptions::with_memory_limit(16 * 1024)),
        (library::qft(6), SimOptions::default()),
    ];
    for (circuit, opts) in cases {
        let sel = select_method(&circuit, &opts);
        let engine = Engine::new(opts);
        let r = engine.run(sel.backend, &circuit);
        assert!(r.ok(), "selector chose {} for {} but it failed: {:?}",
            sel.backend, circuit.name, r.error);
    }
}
