//! The pinned-seed differential corpus: every generated case must agree
//! across all five oracles, survive the metamorphic rewrites, hold the
//! durability contract under seeded fault schedules, and respect the
//! batch-granular budget invariant.
//!
//! Seeds derive from `QYMERA_CHECK_SEED` (default `0xC0FFEE`), so CI runs
//! are reproducible; any failure is shrunk and written to
//! `QYMERA_CHECK_REPRO_DIR` (default `target/check-repros`) before the
//! test panics with the repro path.

use qymera_check::generator::SqlCase;
use qymera_check::oracle::{
    run_sql_case, run_sql_case_all_oracles, run_sql_case_memory_limited, SqlOracle,
};
use qymera_check::{base_seed, case_count, repro_dir, CircuitCase, Repro};
use qymera_sqldb::FaultSchedule;

/// Shrink a failing case against the full oracle set, write the repro,
/// and panic with its path.
fn report(case: &SqlCase, property: &str, detail: &str) -> ! {
    let small = qymera_check::shrink_sql_case(case, |c| run_sql_case_all_oracles(c).is_some());
    let repro = Repro::from_sql_case(&small, property, FaultSchedule::None);
    let path = repro
        .write_into(&repro_dir())
        .map(|p| p.display().to_string())
        .unwrap_or_else(|e| format!("<repro write failed: {e}>"));
    panic!(
        "{property} failed: {detail}\nshrunk to {} statements, repro: {path}",
        repro.statement_count()
    );
}

#[test]
fn pinned_seed_corpus_agrees_across_all_oracles() {
    let base = base_seed();
    let n = case_count(500);
    for i in 0..n {
        let case = SqlCase::generate(base.wrapping_add(i as u64));
        if let Some(d) = run_sql_case_all_oracles(&case) {
            report(&case, "all-oracles", &d.to_string());
        }
    }
}

#[test]
fn metamorphic_rewrites_preserve_results() {
    let base = base_seed() ^ 0x4D45_5441; // "META"
    let n = case_count(200);
    for i in 0..n {
        let case = SqlCase::generate(base.wrapping_add(i as u64));
        if let Some(d) = qymera_check::meta::run_metamorphic_case(&case) {
            // Metamorphic failures shrink against the metamorphic
            // property itself.
            let small = qymera_check::shrink_sql_case(&case, |c| {
                qymera_check::meta::run_metamorphic_case(c).is_some()
            });
            let repro = Repro::from_sql_case(&small, &d.oracle, FaultSchedule::None);
            let path = repro
                .write_into(&repro_dir())
                .map(|p| p.display().to_string())
                .unwrap_or_else(|e| format!("<repro write failed: {e}>"));
            panic!("{d}\nshrunk repro: {path}");
        }
    }
}

#[test]
fn circuit_corpus_agrees_across_sql_and_native_backends() {
    let base = base_seed() ^ 0x5149_5243; // "QIRC"
    let n = case_count(40);
    for i in 0..n {
        let case = CircuitCase::generate(base.wrapping_add(i as u64));
        if let Some(d) = qymera_check::run_circuit_case(&case) {
            let small = qymera_check::shrink_circuit_case(&case, |c| {
                qymera_check::run_circuit_case(c).is_some()
            });
            panic!(
                "{d}\nshrunk to {} gates on {} qubits",
                small.gates.len(),
                small.qubits
            );
        }
    }
}

#[test]
fn deep_gate_chain_agrees_across_sql_and_native_backends() {
    // 300 gates: a plan ~1200 levels deep, on this 2 MiB test thread.
    if let Some(d) = qymera_check::run_circuit_case(&CircuitCase::deep_chain(300)) {
        panic!("{d}");
    }
}

/// Past 63 qubits (a `HUGEINT` index) the permutations the default
/// translation joins without a `GROUP BY` — lone gates and fused blocks,
/// CSWAP among them — still leave each basis state in one row of every
/// state table, and the last two Hadamards, whose joined rows meet in
/// pairs, group them. No dense oracle reaches this width.
#[test]
fn state_keys_stay_unique_past_63_qubits() {
    let circuit = qymera_circuit::CircuitBuilder::new(70)
        .h(0).h(66).x(67).cx(66, 69).cswap(0, 66, 68).ccx(0, 66, 1)
        .h(1).cz(1, 69).swap(0, 68).cx(1, 0).cx(0, 1).cx(69, 67).h(66).h(68)
        .build();
    qymera_check::state_keys_are_unique(&circuit).unwrap();
}

#[test]
fn library_shaped_circuits_agree_across_sql_and_native_backends() {
    for case in CircuitCase::library_shapes() {
        if let Some(d) = qymera_check::run_circuit_case(&case) {
            panic!("{} qubits, {} gates: {d}", case.qubits, case.gates.len());
        }
    }
}

#[test]
fn fault_schedules_hold_the_durability_contract() {
    let base = base_seed() ^ 0xFA17;
    let n = case_count(30);
    for i in 0..n {
        if let Some(d) = qymera_check::run_fault_schedule_case(base.wrapping_add(i as u64)) {
            panic!("durability contract violated: {d}");
        }
    }
}

#[test]
fn cancellation_corpus_holds_the_governance_contract() {
    let base = base_seed() ^ 0xCA9C;
    let n = case_count(20);
    for i in 0..n {
        if let Some(d) = qymera_check::run_cancel_case(base.wrapping_add(i as u64)) {
            panic!("cancellation contract violated: {d}");
        }
    }
}

#[test]
fn transaction_corpus_holds_the_acid_contract() {
    let base = base_seed() ^ 0xAC1D;
    let n = case_count(20);
    for i in 0..n {
        if let Some(d) = qymera_check::run_txn_case(base.wrapping_add(i as u64)) {
            panic!("ACID contract violated: {d}");
        }
    }
}

#[test]
fn budget_overshoot_stays_within_one_batch() {
    let base = base_seed() ^ 0xB4D6;
    let n = case_count(30);
    for i in 0..n {
        let case = SqlCase::generate(base.wrapping_add(i as u64));
        // Tight enough that real workloads brush against it, loose enough
        // that setup INSERTs fit.
        if let Some(d) = run_sql_case_memory_limited(&case, 64 * 1024) {
            panic!("budget invariant violated: {d}");
        }
    }
}

/// End-to-end repro workflow on a healthy build: a shrunk case emits a
/// file that parses back and replays clean.
#[test]
fn repro_files_round_trip_and_replay() {
    let case = SqlCase::generate(base_seed() ^ 0x5E9D);
    let repro = Repro::from_sql_case(&case, "workflow-smoke", FaultSchedule::None);
    let dir = repro_dir().join(format!("smoke-{}", std::process::id()));
    let path = repro.write_into(&dir).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let back = Repro::parse(&text).unwrap();
    assert_eq!(back.setup, repro.setup);
    assert_eq!(back.query, repro.query);
    assert_eq!(back.replay(), None, "healthy build must replay clean");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The oracle subset API the shrinker leans on: a two-oracle re-run
/// agrees with the full run on healthy cases.
#[test]
fn oracle_subsets_agree_on_healthy_cases() {
    for i in 0..10 {
        let case = SqlCase::generate(base_seed() ^ 0x5B5E7 ^ i);
        assert!(run_sql_case(&case, &[SqlOracle::Row, SqlOracle::Batch]).is_none());
    }
}
