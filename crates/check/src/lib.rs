//! # qymera-check — deterministic differential-fuzzing harness
//!
//! Correctness tooling for the whole engine: one seed-deterministic
//! generator, four independent oracles, a metamorphic-rewrite layer, an
//! automatic shrinker, fault-schedule fuzzing over the durability paths,
//! cancellation fuzzing over the query-lifecycle governance paths
//! (seeded cancel points × spill/WAL states), and
//! transaction fuzzing over the ACID paths (seeded multi-statement
//! scripts with a shadow oracle, crash/kill-point simulation, and
//! fault/cancel composition). See `docs/TESTING.md` for the workflow.
//!
//! The four oracles every generated case can be cross-checked against:
//!
//! 1. **Row** — the reference interpreter ([`Database::query_reference`]):
//!    one recursive function over the plan, one row at a time, sharing no
//!    operator, spill or budget code with what it checks.
//! 2. **Batch** — the vectorized executor.
//! 3. **Durable** — the same statements through [`Database::open`] with a
//!    mid-run kill and reopen (WAL recovery must reconstruct the state).
//! 4. **Sim** — for circuit cases, the translated SQL run is cross-checked
//!    against the `qymera-sim` statevector / MPS / DD backends within
//!    tolerance.
//!
//! Everything is reproducible from one `u64` seed (`QYMERA_CHECK_SEED`);
//! any failure shrinks to a self-contained repro file that pins the seed,
//! statements, and fault schedule on one line each.
//!
//! [`Database::query_reference`]: qymera_sqldb::Database::query_reference
//! [`Database::open`]: qymera_sqldb::Database::open

#![warn(missing_docs)]

pub mod cancelfuzz;
pub mod circuits;
pub mod faultfuzz;
pub mod generator;
pub mod meta;
pub mod oracle;
pub mod repro;
pub mod shrink;
pub mod txnfuzz;

pub use cancelfuzz::{run_cancel_case, CancelCase};
pub use circuits::{run_circuit_case, state_keys_are_unique, CircuitCase};
pub use faultfuzz::run_fault_schedule_case;
pub use generator::{CaseRng, SqlCase};
pub use oracle::{run_sql_case_all_oracles, Discrepancy, SqlOracle};
pub use repro::Repro;
pub use shrink::{shrink_circuit_case, shrink_sql_case};
pub use txnfuzz::{run_txn_case, TxnCase};

/// Base seed for pinned corpora: the `QYMERA_CHECK_SEED` environment
/// variable when set (decimal or `0x`-prefixed hex), else `0xC0FFEE`.
pub fn base_seed() -> u64 {
    match std::env::var("QYMERA_CHECK_SEED") {
        Err(_) => 0xC0_FFEE,
        Ok(raw) => {
            let raw = raw.trim();
            let parsed = match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => raw.parse(),
            };
            parsed.unwrap_or_else(|_| {
                panic!("QYMERA_CHECK_SEED must be a u64, got `{raw}`")
            })
        }
    }
}

/// Case count for pinned corpora: `QYMERA_CHECK_CASES` when set, else
/// `default`.
pub fn case_count(default: usize) -> usize {
    match std::env::var("QYMERA_CHECK_CASES") {
        Err(_) => default,
        Ok(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("QYMERA_CHECK_CASES must be a usize, got `{raw}`")),
    }
}

/// Directory failing repros are written to: `QYMERA_CHECK_REPRO_DIR` when
/// set, else `target/check-repros` relative to the current directory.
pub fn repro_dir() -> std::path::PathBuf {
    match std::env::var("QYMERA_CHECK_REPRO_DIR") {
        Ok(dir) => std::path::PathBuf::from(dir),
        Err(_) => std::path::PathBuf::from("target/check-repros"),
    }
}
