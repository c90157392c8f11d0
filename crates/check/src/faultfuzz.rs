//! Fault-schedule fuzzing: the generator composed with seeded fault
//! injection over every durability fault site.
//!
//! Each case derives a workload and a [`FaultSchedule::Seeded`] from one
//! seed, runs the workload against a durable database with the schedule
//! armed, treats the first injected error as a crash (drop, reopen with a
//! clean injector), and checks the WAL contract at every step: the
//! recovered state must equal exactly the acknowledged statement prefix —
//! nothing lost, nothing torn, nothing half-applied. The one exception is a
//! statement that failed with [`Error::CommitInDoubt`]: the engine said it
//! cannot tell, so recovery may hold that statement whole or not at all.
//! After the workload
//! completes, a final reopen re-verifies the state and the accounting
//! invariants (`budget.used() == table_bytes()`, no leaked spill files).
//!
//! The injector only fires in debug builds; in release the same function
//! still runs the workload and recovery checks, just without faults.

use std::path::PathBuf;
use std::sync::Arc;

use qymera_sqldb::{
    Database, DurabilityOptions, Error, FaultInjector, FaultKind, FaultSchedule, FsyncPolicy,
};

use crate::generator::{CaseRng, SqlCase};
use crate::oracle::{canon_multiset, Discrepancy};

/// Deterministic dump of every table: `(name, sorted canonical rows)`,
/// sorted by name — physical chunk order does not matter.
fn dump(db: &mut Database) -> Result<Vec<(String, Vec<String>)>, String> {
    let mut names = db.table_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let rs = db
                .execute(&format!("SELECT * FROM {name}"))
                .map_err(|e| format!("dump of {name} failed: {e}"))?;
            Ok((name, canon_multiset(rs.rows())))
        })
        .collect()
}

/// Shadow state: replay `statements` in a fresh in-memory database and
/// dump it.
fn shadow_dump(statements: &[String]) -> Result<Vec<(String, Vec<String>)>, String> {
    let mut db = Database::new();
    for st in statements {
        db.execute(st).map_err(|e| format!("shadow replay of `{st}` failed: {e}"))?;
    }
    dump(&mut db)
}

fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("qymera-faultfuzz-{}-{seed:x}", std::process::id()))
}

fn opts(injector: &Arc<FaultInjector>) -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::Commit,
        // Tiny threshold: the workload crosses several checkpoint
        // boundaries, so checkpoint-site faults get real chances to fire.
        checkpoint_every_bytes: 4096,
        injector: Arc::clone(injector),
        ..DurabilityOptions::default()
    }
}

/// The seeded schedule a fuzz seed derives (exposed so a failure report
/// can name it — it round-trips through one repro line).
pub fn derived_schedule(seed: u64) -> FaultSchedule {
    let mut rng = CaseRng::new(seed ^ 0xFA17_FA17);
    let one_in = *rng.pick(&[6u64, 12, 24]);
    let kind = if rng.chance(1, 2) { FaultKind::Error } else { FaultKind::Torn };
    FaultSchedule::Seeded { seed: rng.next_u64(), one_in, kind }
}

/// Run one fault-schedule case. Returns `None` when the durability
/// contract held throughout, `Some` describing the violation otherwise.
pub fn run_fault_schedule_case(seed: u64) -> Option<Discrepancy> {
    let schedule = derived_schedule(seed);
    let fail = |oracle: &str, detail: String| {
        Some(Discrepancy {
            seed,
            oracle: format!("fault[{schedule}]:{oracle}"),
            detail,
        })
    };
    let workload = SqlCase::generate(seed).setup_statements();
    let dir = scratch_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: armed run until the first injected error ("the crash").
    let armed = FaultInjector::none();
    armed.arm(schedule);
    let mut db = match Database::open_with(&dir, opts(&armed)) {
        Ok(db) => db,
        // An injected fault during the initial (empty) open is a legal
        // crash point; retry once with a clean injector.
        Err(_) => {
            armed.disarm();
            let _ = std::fs::remove_dir_all(&dir);
            match Database::open_with(&dir, opts(&armed)) {
                Ok(db) => db,
                Err(e) => return fail("open", format!("clean open failed: {e}")),
            }
        }
    };
    let mut acked: Vec<String> = Vec::new();
    let mut crashed_at: Option<usize> = None;
    let mut in_doubt = false;
    for (i, st) in workload.iter().enumerate() {
        match db.execute(st) {
            Ok(_) => acked.push(st.clone()),
            Err(e) => {
                crashed_at = Some(i);
                in_doubt = matches!(e, Error::CommitInDoubt { .. });
                break;
            }
        }
    }
    armed.disarm();
    drop(db);

    // Phase 2: recover with a clean injector. The recovered state must be
    // exactly the acknowledged prefix — or, after an in-doubt commit, that
    // prefix plus the whole in-doubt statement.
    let clean = FaultInjector::none();
    let mut db = match Database::open_with(&dir, opts(&clean)) {
        Ok(db) => db,
        Err(e) => return fail("recovery", format!("reopen after crash failed: {e}")),
    };
    let expected = match shadow_dump(&acked) {
        Ok(d) => d,
        Err(e) => return fail("shadow", e),
    };
    let got = match dump(&mut db) {
        Ok(got) => got,
        Err(e) => return fail("recovery", e),
    };
    if got != expected {
        let prefix = acked.len();
        let survived_in_doubt = match crashed_at {
            Some(i) if in_doubt => {
                acked.push(workload[i].clone());
                crashed_at = Some(i + 1);
                shadow_dump(&acked).is_ok_and(|with_it| with_it == got)
            }
            _ => false,
        };
        if !survived_in_doubt {
            return fail(
                "recovery",
                format!(
                    "recovered state differs from the {prefix}-statement acknowledged \
                     prefix: {} tables vs {} expected",
                    got.len(),
                    expected.len()
                ),
            );
        }
    }

    // Phase 3: finish the workload fault-free; every statement must now
    // succeed.
    if let Some(i) = crashed_at {
        for st in &workload[i..] {
            match db.execute(st) {
                Ok(_) => acked.push(st.clone()),
                Err(e) => return fail("resume", format!("`{st}` failed after recovery: {e}")),
            }
        }
    }
    drop(db);

    // Phase 4: final reopen — complete state, clean accounting.
    let mut db = match Database::open_with(&dir, opts(&clean)) {
        Ok(db) => db,
        Err(e) => return fail("final-open", format!("{e}")),
    };
    let expected = match shadow_dump(&acked) {
        Ok(d) => d,
        Err(e) => return fail("shadow", e),
    };
    match dump(&mut db) {
        Ok(got) if got == expected => {}
        Ok(_) => return fail("final", "final state differs from the full workload".to_string()),
        Err(e) => return fail("final", e),
    }
    if db.budget().used() != db.table_bytes() {
        return fail(
            "accounting",
            format!(
                "budget.used() = {} but table_bytes() = {} after quiescent reopen",
                db.budget().used(),
                db.table_bytes()
            ),
        );
    }
    if db.live_spill_files() != 0 {
        return fail(
            "accounting",
            format!("{} spill files leaked", db.live_spill_files()),
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_schedules_are_deterministic_and_round_trip() {
        for seed in 0..20 {
            let a = derived_schedule(seed);
            let b = derived_schedule(seed);
            assert_eq!(a.to_string(), b.to_string());
            let parsed: FaultSchedule = a.to_string().parse().unwrap();
            assert_eq!(parsed.to_string(), a.to_string());
        }
    }

    /// Fault seed 64822 (`qymera-fuzz --seed 777 --faults 100`): the commit's
    /// fsync fails, then the repair's truncate fails too, leaving the
    /// `Commit` record on disk behind a poisoned log while memory is rolled
    /// back. The commit must heal the log before it answers, or answer
    /// [`Error::CommitInDoubt`]; an ordinary error for a statement that a
    /// crash then recovers is the bug this seed found.
    #[cfg(debug_assertions)]
    #[test]
    fn double_fault_at_commit_never_recovers_a_plainly_failed_statement() {
        if let Some(d) = run_fault_schedule_case(64822) {
            panic!("durability contract violated: {d}");
        }
    }

    #[test]
    fn a_few_fault_schedules_hold_the_contract() {
        for seed in 0..6 {
            if let Some(d) = run_fault_schedule_case(seed) {
                panic!("durability contract violated: {d}");
            }
        }
    }
}
