//! Cancellation fuzzing: seeded random cancel points composed with the
//! spill/WAL workload generator and (optionally) seeded fault injection.
//!
//! Each case derives a full scenario from one seed — table size, a
//! spilling query (external sort, out-of-core aggregation, or
//! join+aggregation), in-memory vs. durable engine, the cancellation trigger
//! (deterministic poll-armed cancel, a 1 ms deadline, or a concurrent
//! [`qymera_sqldb::CancelHandle`]), and whether a seeded fault schedule
//! rides along. The
//! case then checks the governance contract, which is the fault-injection
//! contract word for word:
//!
//! 1. the interrupted statement fails with a *typed* error
//!    ([`Error::Cancelled`] / [`Error::Timeout`] / injected `Io`);
//! 2. the memory ledger holds exactly the base tables, the spill directory
//!    is empty, and the budget peak stayed within the documented one-batch
//!    overshoot bound;
//! 3. in debug builds, at most one work unit per operator on the stack
//!    (plus the one in flight) completed after the cancel was visible — the
//!    cancellation-latency meter;
//! 4. an immediate retry with the trigger cleared succeeds and returns
//!    exactly the clean run's rows;
//! 5. for durable engines, a cancel armed at the WAL pre-commit checkpoint
//!    rolls the mutation back, and a reopen recovers exactly the
//!    acknowledged prefix.
//!
//! Everything reproduces from the one `u64` seed.

use qymera_sqldb::{Database, DurabilityOptions, Error, MemoryBudget, QueryContext, Value};

use crate::faultfuzz::derived_schedule;
use crate::generator::CaseRng;
use crate::oracle::{canon_multiset, Discrepancy, OVERSHOOT_SLACK_BYTES};

/// Seed-space offset separating cancel cases from the other fuzz loops.
const CANCEL_SALT: u64 = 0x00CA_9CE1_00CA_9CE1;

/// Plan-depth allowance for the latency bound; every scenario query here
/// is far shallower.
const PLAN_DEPTH_ALLOWANCE: usize = 16;

/// How one fuzz case triggers cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Deterministic: latch at the n-th governance poll of the statement.
    PollArmed,
    /// A 1 ms statement deadline over a many-ms spilling query.
    Deadline,
    /// A concurrent thread trips the session [`CancelHandle`] mid-query.
    Handle,
}

/// The seed-derived scenario (exposed for failure reports).
#[derive(Debug, Clone)]
pub struct CancelCase {
    /// The driving seed.
    pub seed: u64,
    /// Rows in the `big` table (the spill driver).
    pub rows: usize,
    /// The spilling query under test.
    pub query: &'static str,
    /// Durable (WAL) engine vs. in-memory.
    pub durable: bool,
    /// Whether a seeded fault schedule is armed alongside the cancel.
    pub with_faults: bool,
    trigger: Trigger,
}

const SORT_SQL: &str = "SELECT k, v FROM big ORDER BY v";
const AGG_SQL: &str = "SELECT k, SUM(v) AS t FROM big GROUP BY k ORDER BY k";
const JOIN_SQL: &str = "SELECT b.k, SUM(b.v * d.w) AS t FROM big AS b \
                        JOIN dim AS d ON d.k = (b.k & 63) GROUP BY b.k ORDER BY b.k";

impl CancelCase {
    /// Derive the scenario for `seed` (deterministic).
    pub fn generate(seed: u64) -> CancelCase {
        let mut rng = CaseRng::new(seed ^ CANCEL_SALT);
        CancelCase {
            seed,
            rows: *rng.pick(&[30_000usize, 60_000]),
            query: [SORT_SQL, AGG_SQL, JOIN_SQL][rng.below(3) as usize],
            durable: rng.chance(1, 2),
            // Fault schedules only compose with deterministic triggers —
            // and never with durable engines, whose fault story (crash +
            // recover) is the fault-schedule fuzzer's own contract.
            with_faults: rng.chance(1, 3),
            trigger: *rng.pick(&[Trigger::PollArmed, Trigger::Deadline, Trigger::Handle]),
        }
    }
}

fn scratch_dir(seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qymera-cancelfuzz-{}-{seed:x}", std::process::id()))
}

/// Build the scenario database: memory-limited so every scenario query is
/// forced through the spill paths, populated with the seeded row count.
/// Fault schedules arm on [`Database::fault_injector`] afterwards.
fn build_db(case: &CancelCase) -> Result<Database, Error> {
    let limit = 2 * 1024 * 1024;
    let mut db = if case.durable {
        let dir = scratch_dir(case.seed);
        let _ = std::fs::remove_dir_all(&dir);
        Database::open_with(
            &dir,
            DurabilityOptions {
                budget: MemoryBudget::with_limit(limit),
                ..DurabilityOptions::default()
            },
        )?
    } else {
        Database::with_budget(MemoryBudget::with_limit(limit))
    };
    db.execute("CREATE TABLE big (k INTEGER, v DOUBLE)")?;
    let rows: Vec<Vec<Value>> = (0..case.rows as i64)
        .map(|i| vec![Value::Int((i * 7919) % 20_000), Value::Float((i % 97) as f64 / 8.0)])
        .collect();
    db.insert_rows("big", rows)?;
    db.execute("CREATE TABLE dim (k INTEGER, w DOUBLE)")?;
    let dim: Vec<Vec<Value>> =
        (0..64).map(|k| vec![Value::Int(k as i64), Value::Float(2.0)]).collect();
    db.insert_rows("dim", dim)?;
    Ok(db)
}

/// The shared postcondition after a cancelled/failed statement.
fn clean_after_error(db: &Database, what: &str) -> Result<(), String> {
    if db.budget().used() != db.table_bytes() {
        return Err(format!(
            "{what}: ledger residue — used {} vs base tables {}",
            db.budget().used(),
            db.table_bytes()
        ));
    }
    if db.live_spill_files() != 0 {
        return Err(format!("{what}: {} orphan spill files", db.live_spill_files()));
    }
    if db.budget().peak_overshoot() > OVERSHOOT_SLACK_BYTES {
        return Err(format!(
            "{what}: peak overshoot {} exceeds the one-batch bound",
            db.budget().peak_overshoot()
        ));
    }
    let units = db.last_query_context().units_after_cancel();
    let bound = QueryContext::latency_bound(PLAN_DEPTH_ALLOWANCE);
    if units > bound {
        return Err(format!(
            "{what}: {units} work units completed after cancel (bound {bound})"
        ));
    }
    Ok(())
}

/// Run one cancellation fuzz case. `None` = the governance contract held.
pub fn run_cancel_case(seed: u64) -> Option<Discrepancy> {
    let case = CancelCase::generate(seed);
    let fail = |oracle: &str, detail: String| {
        Some(Discrepancy {
            seed,
            oracle: format!(
                "cancel[rows={} durable={} faults={} {:?}]:{oracle}",
                case.rows, case.durable, case.with_faults, case.trigger
            ),
            detail,
        })
    };

    let mut db = match build_db(&case) {
        Ok(db) => db,
        Err(e) => return fail("setup", format!("scenario setup failed: {e}")),
    };

    // Clean run: the reference rows and the governance poll count.
    let expected = match db.execute(case.query) {
        Ok(rs) => canon_multiset(rs.rows()),
        Err(e) => return fail("clean-run", format!("clean run failed: {e}")),
    };
    let polls = db.last_query_context().polls();
    if polls < 4 {
        return fail("clean-run", format!("only {polls} governance polls observed"));
    }

    // Armed run: trigger + (optionally) a seeded fault schedule.
    let compose_faults = case.with_faults && !case.durable && case.trigger == Trigger::PollArmed;
    if compose_faults {
        db.fault_injector().arm(derived_schedule(seed ^ CANCEL_SALT));
    }
    let mut rng = CaseRng::new(seed ^ CANCEL_SALT ^ 0x51);
    let armed_at = 1 + rng.below(polls);
    let mut canceller = None;
    match case.trigger {
        Trigger::PollArmed => db.arm_cancel_after_polls(Some(armed_at)),
        Trigger::Deadline => db.set_statement_timeout_ms(Some(1)),
        Trigger::Handle => {
            let handle = db.cancel_handle();
            canceller = Some(std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                handle.cancel();
            }));
        }
    }
    let armed_result = db.execute(case.query);
    if let Some(t) = canceller {
        let _ = t.join();
    }
    db.fault_injector().disarm();
    db.arm_cancel_after_polls(None);
    db.set_statement_timeout_ms(None);
    db.cancel_handle().reset();

    match armed_result {
        Err(Error::Cancelled) => {}
        Err(Error::Timeout { .. }) if case.trigger == Trigger::Deadline => {}
        Err(Error::Io(ref m)) if compose_faults && m.contains("injected") => {}
        Err(e) => return fail("typed-error", format!("unexpected error class: {e:?}")),
        // Deadline and handle races may legitimately let the query finish
        // first; a poll-armed cancel always lands, the poll count of a
        // statement being the same every run.
        Ok(_) if case.trigger != Trigger::PollArmed => {}
        Ok(_) => {
            return fail("typed-error", format!("ran to completion past the armed poll {armed_at}"))
        }
    }
    if let Err(e) = clean_after_error(&db, "armed-run") {
        return fail("invariants", e);
    }

    // Immediate retry, fully disarmed: must succeed and match the clean run.
    match db.execute(case.query) {
        Ok(rs) => {
            if canon_multiset(rs.rows()) != expected {
                return fail("retry", "retry rows differ from the clean run".to_string());
            }
        }
        Err(e) => return fail("retry", format!("retry failed: {e}")),
    }
    if let Err(e) = clean_after_error(&db, "retry") {
        return fail("invariants", e);
    }

    // Durable engines: cancel at the WAL pre-commit checkpoint, then prove
    // the reopen recovers exactly the acknowledged prefix.
    if case.durable {
        let before = match db.execute("SELECT COUNT(*) AS n FROM dim") {
            Ok(rs) => canon_multiset(rs.rows()),
            Err(e) => return fail("durable", format!("count failed: {e}")),
        };
        // INSERT polls: statement entry (1), then the pre-commit check (2).
        db.arm_cancel_after_polls(Some(2));
        match db.execute("INSERT INTO dim VALUES (999, 9.0)") {
            Err(Error::Cancelled) => {}
            Err(e) => return fail("durable", format!("expected Cancelled, got {e:?}")),
            Ok(_) => return fail("durable", "pre-commit cancel did not fire".to_string()),
        }
        db.arm_cancel_after_polls(None);
        if let Err(e) = clean_after_error(&db, "durable-cancel") {
            return fail("invariants", e);
        }
        drop(db);
        let mut db = match Database::open(scratch_dir(case.seed)) {
            Ok(db) => db,
            Err(e) => return fail("durable", format!("reopen failed: {e}")),
        };
        match db.execute("SELECT COUNT(*) AS n FROM dim") {
            Ok(rs) if canon_multiset(rs.rows()) == before => {}
            Ok(rs) => {
                return fail(
                    "durable",
                    format!(
                        "cancelled INSERT leaked into the recovered state: {:?}",
                        rs.rows()
                    ),
                )
            }
            Err(e) => return fail("durable", format!("post-reopen count failed: {e}")),
        }
        // The retried mutation commits and survives a second reopen.
        if let Err(e) = db.execute("INSERT INTO dim VALUES (999, 9.0)") {
            return fail("durable", format!("retried INSERT failed: {e}"));
        }
        drop(db);
        let mut db = match Database::open(scratch_dir(case.seed)) {
            Ok(db) => db,
            Err(e) => return fail("durable", format!("final reopen failed: {e}")),
        };
        match db.execute("SELECT COUNT(*) AS n FROM dim GROUP BY k HAVING k = 999") {
            Ok(rs) if rs.rows() == [vec![Value::Int(1)]] => {}
            Ok(rs) => return fail("durable", format!("retried INSERT lost: {:?}", rs.rows())),
            Err(e) => return fail("durable", format!("final count failed: {e}")),
        }
        drop(db);
        let _ = std::fs::remove_dir_all(scratch_dir(case.seed));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_seed_deterministic() {
        for seed in 0..32 {
            let a = CancelCase::generate(seed);
            let b = CancelCase::generate(seed);
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.query, b.query);
            assert_eq!(a.durable, b.durable);
            assert_eq!(a.with_faults, b.with_faults);
            assert_eq!(a.trigger, b.trigger);
        }
    }

    #[test]
    fn case_space_covers_all_triggers() {
        let mut triggers = std::collections::BTreeSet::new();
        for seed in 0..64 {
            triggers.insert(format!("{:?}", CancelCase::generate(seed).trigger));
        }
        assert_eq!(triggers.len(), 3, "all triggers reachable");
    }

    #[test]
    fn a_few_cancel_cases_hold_the_contract() {
        for seed in 0..4 {
            if let Some(d) = run_cancel_case(seed) {
                panic!("cancellation contract violated: {d}");
            }
        }
    }
}
