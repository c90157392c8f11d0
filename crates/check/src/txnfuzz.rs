//! Transaction fuzzing: seeded multi-statement transaction scripts with a
//! shadow in-memory oracle, crash (kill-point) simulation over the
//! transaction-scoped WAL, and fault/cancellation composition.
//!
//! Each case derives a full scenario from one seed — durable (WAL) vs.
//! in-memory engine, and a script of `BEGIN` / DML / DDL (`CREATE TABLE
//! … AS` included) / `SAVEPOINT` /
//! `ROLLBACK TO` / `ROLLBACK` / `COMMIT` / checkpoint actions with seeded
//! poll-armed cancellations and (debug builds) injected WAL faults riding
//! along, run on one `Database` (one session). Nothing of an open
//! transaction reaches the log — `COMMIT` writes its frame, derived from the
//! undo stack, and a rollback (whole or to a savepoint) writes nothing — so a
//! checkpoint inside the open transaction images the committed state and
//! empties the log.
//!
//! The case checks the ACID contract:
//!
//! 1. a **shadow** in-memory database applies each transaction's
//!    statements only at its `COMMIT` — after the script the live state
//!    must equal the shadow exactly (atomicity of rollback);
//! 2. any statement failure inside a transaction (cancellation, injected
//!    fault) aborts the whole transaction with a *typed* error, and the
//!    live state still matches the shadow;
//! 3. the memory ledger holds exactly the base tables and the spill
//!    directory is empty once the transaction resolves;
//! 4. for durable engines, a simulated crash (snapshot of the WAL +
//!    checkpoint files) recovers exactly the committed state — an
//!    in-flight transaction at the crash point leaves zero trace;
//! 5. for durable engines, truncating the WAL snapshot at seeded byte
//!    offsets (kill points) always recovers one of the committed-prefix
//!    states observed at the script's commit boundaries.
//!
//! Everything reproduces from the one `u64` seed.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use qymera_sqldb::storage::wal::{CHECKPOINT_FILE, WAL_FILE};
use qymera_sqldb::{Database, DurabilityOptions, Error};

use crate::generator::CaseRng;
use crate::oracle::Discrepancy;

/// Seed-space offset separating transaction cases from the other fuzz
/// loops.
const TXN_SALT: u64 = 0xAC1D_7861_AC1D_7861;

/// The seed-derived scenario (exposed for failure reports).
#[derive(Debug, Clone)]
pub struct TxnCase {
    /// The driving seed.
    pub seed: u64,
    /// Durable (WAL) engine vs. in-memory.
    pub durable: bool,
    /// Script length in actions.
    pub steps: usize,
}

impl TxnCase {
    /// Derive the scenario for `seed` (deterministic).
    pub fn generate(seed: u64) -> TxnCase {
        let mut rng = CaseRng::new(seed ^ TXN_SALT);
        // Durable engines are the point of the exercise; keep a slice
        // of in-memory cases for the pure rollback machinery.
        let durable = !rng.chance(1, 4);
        let steps = 30 + rng.below(30) as usize;
        TxnCase { seed, durable, steps }
    }
}

fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("qymera-txnfuzz-{}-{seed:x}", std::process::id()))
}

type Dump = Vec<(String, Vec<String>)>;

/// Run one scripted statement. The engine's SQL has no `CREATE TABLE …
/// AS`, so the script writes `CREATE TABLE x AS <query>` and it goes
/// through [`Database::create_table_as`]; everything else through
/// [`Database::execute`].
fn execute(db: &mut Database, sql: &str) -> Result<(), Error> {
    match sql.strip_prefix("CREATE TABLE ").and_then(|rest| rest.split_once(" AS ")) {
        Some((name, query)) => db.create_table_as(name, query).map(drop),
        None => db.execute(sql).map(drop),
    }
}

fn rows_of(db: &mut Database, sql: &str) -> Vec<String> {
    let rs = db.execute(sql).expect("dump query");
    rs.rows().iter().map(|r| format!("{r:?}")).collect()
}

/// Deterministic dump: every table's name and rows, both sorted. Every
/// table the scripts create has the one column `k`.
fn dump(db: &mut Database) -> Dump {
    let mut names = db.table_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let mut rows = rows_of(db, &format!("SELECT k FROM {name}"));
            rows.sort();
            (name, rows)
        })
        .collect()
}

/// What one scripted statement does to the shadow (for rewinding the
/// pending set at savepoints and computing the visible tables).
#[derive(Debug, Clone)]
enum Effect {
    Dml,
    Create(String),
    Drop(String),
}

/// Script state of the open transaction: its pending statements (applied
/// to the shadow only at `COMMIT`) and its savepoint marks.
#[derive(Default)]
struct ScriptTxn {
    open: bool,
    pending: Vec<(String, Effect)>,
    savepoints: Vec<(String, usize)>,
    sp_counter: usize,
}

/// Tables the script may run DML against right now: the shadow's
/// committed tables, adjusted by the pending creates/drops.
fn visible(shadow: &Database, txn: &ScriptTxn) -> Vec<String> {
    let mut set: BTreeSet<String> = shadow.table_names().into_iter().collect();
    for (_, eff) in &txn.pending {
        match eff {
            Effect::Create(n) => {
                set.insert(n.clone());
            }
            Effect::Drop(n) => {
                set.remove(n);
            }
            Effect::Dml => {}
        }
    }
    set.into_iter().collect()
}

struct Runner {
    db: Database,
    txn: ScriptTxn,
    shadow: Database,
    /// Shadow dumps at every commit boundary, in commit order — the set
    /// of states any kill point is allowed to recover.
    states: Vec<Dump>,
    case: TxnCase,
    rng: CaseRng,
    created: usize,
    /// Script position for failure reports (`usize::MAX` = resolution).
    step: usize,
    /// `QYMERA_TXNFUZZ_TRACE` is set: print every executed statement.
    tracing: bool,
}

impl Runner {
    fn fail(&self, what: &str, detail: String) -> Discrepancy {
        Discrepancy {
            seed: self.case.seed,
            oracle: format!(
                "txn[durable={} steps={}]:{what}",
                self.case.durable, self.case.steps
            ),
            detail,
        }
    }

    fn trace(&self, what: &str) {
        if self.tracing {
            eprintln!("TRACE step {} : {what}", self.step);
        }
    }

    fn snap(&mut self) {
        let d = dump(&mut self.shadow);
        if self.states.last() != Some(&d) {
            self.states.push(d);
        }
    }

    /// Execute a statement that the script expects to succeed.
    fn exec_ok(&mut self, sql: &str) -> Result<(), Discrepancy> {
        self.trace(sql);
        match execute(&mut self.db, sql) {
            Ok(()) => Ok(()),
            Err(e) => {
                Err(self.fail("script", format!("step {}: `{sql}` failed: {e}", self.step)))
            }
        }
    }

    /// Generate one statement. `None` when no table is visible and the
    /// dice said DML.
    fn gen_stmt(&mut self, ddl_ok: bool) -> Option<(String, Effect)> {
        let vis = visible(&self.shadow, &self.txn);
        let roll = self.rng.below(10);
        if ddl_ok && roll == 9 {
            self.created += 1;
            let name = format!("x{}", self.created);
            // Half the creates copy a visible table: the new table's rows
            // reach the log only at COMMIT, whole.
            let sql = if !vis.is_empty() && self.rng.chance(1, 2) {
                format!("CREATE TABLE {name} AS SELECT k FROM {}", self.rng.pick(&vis))
            } else {
                format!("CREATE TABLE {name} (k INTEGER)")
            };
            return Some((sql, Effect::Create(name)));
        }
        if ddl_ok && roll == 8 && !vis.is_empty() {
            let name = self.rng.pick(&vis).clone();
            return Some((format!("DROP TABLE {name}"), Effect::Drop(name)));
        }
        if vis.is_empty() {
            return None;
        }
        let table = self.rng.pick(&vis).clone();
        let (a, b) = (self.rng.range(-50, 50), self.rng.range(-50, 50));
        Some((format!("INSERT INTO {table} VALUES ({a}), ({b})"), Effect::Dml))
    }

    /// Run one generated statement, inside the open transaction or
    /// auto-commit.
    fn run_stmt(&mut self, (sql, effect): (String, Effect)) -> Result<(), Discrepancy> {
        self.exec_ok(&sql)?;
        if self.txn.open {
            self.txn.pending.push((sql, effect));
        } else {
            if let Err(e) = execute(&mut self.shadow, &sql) {
                return Err(self.fail("shadow", format!("auto-commit `{sql}`: {e}")));
            }
            self.snap();
        }
        Ok(())
    }

    fn begin(&mut self) -> Result<(), Discrepancy> {
        self.exec_ok("BEGIN")?;
        self.txn.open = true;
        Ok(())
    }

    fn savepoint(&mut self) -> Result<(), Discrepancy> {
        self.txn.sp_counter += 1;
        let name = format!("sp{}", self.txn.sp_counter);
        self.exec_ok(&format!("SAVEPOINT {name}"))?;
        let depth = self.txn.pending.len();
        self.txn.savepoints.push((name, depth));
        Ok(())
    }

    /// `ROLLBACK TO` the `idx`-th active savepoint.
    fn rollback_to(&mut self, idx: usize) -> Result<(), Discrepancy> {
        let (name, depth) = self.txn.savepoints[idx].clone();
        self.exec_ok(&format!("ROLLBACK TO {name}"))?;
        self.txn.pending.truncate(depth);
        self.txn.savepoints.truncate(idx + 1);
        Ok(())
    }

    fn rollback(&mut self) -> Result<(), Discrepancy> {
        self.exec_ok("ROLLBACK")?;
        self.txn = ScriptTxn::default();
        Ok(())
    }

    /// `COMMIT` the transaction and, if the engine accepted it, replay its
    /// pending statements into the shadow and snapshot the new committed
    /// state. A refusal with an accepted typed abort (an injected fault at
    /// the frame fsync, or the log was crash-repaired while the transaction
    /// was open) drops the pending statements instead.
    fn commit(&mut self) -> Result<(), Discrepancy> {
        self.trace("COMMIT");
        let txn = std::mem::take(&mut self.txn);
        match self.db.execute("COMMIT") {
            Ok(_) => {}
            Err(Error::Io(ref m)) if m.contains("injected") || m.contains("repaired") => {
                if self.db.in_transaction() {
                    return Err(self.fail(
                        "commit",
                        format!("step {}: refused COMMIT left the txn open ({m})", self.step),
                    ));
                }
                return Ok(());
            }
            Err(e) => {
                return Err(
                    self.fail("commit", format!("step {}: COMMIT failed: {e}", self.step))
                )
            }
        }
        for (sql, _) in txn.pending {
            if let Err(e) = execute(&mut self.shadow, &sql) {
                return Err(
                    self.fail("shadow", format!("shadow diverged replaying `{sql}`: {e}"))
                );
            }
        }
        self.snap();
        Ok(())
    }

    /// Durable engines: an engine-level checkpoint. With a transaction open
    /// it images the committed state and empties the log, so a crash right
    /// after it must still recover exactly the committed state.
    fn checkpoint(&mut self) -> Result<(), Discrepancy> {
        if !self.case.durable {
            return Ok(());
        }
        self.trace("CHECKPOINT");
        self.db.checkpoint().map_err(|e| self.fail("checkpoint", format!("{e}")))
    }

    /// Durable engines: a point-in-time copy of the WAL + checkpoint files
    /// must recover exactly the last commit-boundary state — in-flight and
    /// rolled-back frames leave zero trace.
    fn check_crash_recovery(&mut self, dir: &Path) -> Result<(), Discrepancy> {
        if !self.case.durable {
            return Ok(());
        }
        let snap = snapshot_dir(dir, self.case.seed);
        let mut rec = reopen(&snap, self, "crash-reopen")?;
        let crash = dump(&mut rec);
        drop(rec);
        let _ = std::fs::remove_dir_all(&snap);
        let committed = self.states.last().cloned().unwrap_or_default();
        if crash != committed {
            return Err(self.fail(
                "crash",
                format!(
                    "step {}: crash recovery diverged from the committed state:\n \
                     got: {crash:?}\n want: {committed:?}",
                    self.step
                ),
            ));
        }
        Ok(())
    }

    /// One seeded script action.
    fn random_step(&mut self, dir: &Path) -> Result<(), Discrepancy> {
        if !self.txn.open {
            match self.rng.below(10) {
                0..=3 => self.begin()?,
                4..=7 => {
                    if let Some(stmt) = self.gen_stmt(true) {
                        self.run_stmt(stmt)?;
                    }
                }
                8 => self.checkpoint()?,
                _ => {
                    // Bookkeeping misuse outside a transaction: typed plan
                    // error, nothing changes.
                    let sql = *self.rng.pick(&["COMMIT", "ROLLBACK", "SAVEPOINT ghost"]);
                    match self.db.execute(sql) {
                        Err(Error::Plan(_)) => {}
                        other => {
                            return Err(self.fail(
                                "bookkeeping",
                                format!("{sql} outside txn: {other:?}"),
                            ))
                        }
                    }
                }
            }
            return Ok(());
        }

        // Inside an open transaction.
        match self.rng.below(21) {
            0..=9 => {
                if let Some(stmt) = self.gen_stmt(true) {
                    self.run_stmt(stmt)?;
                }
            }
            10 | 11 => self.savepoint()?,
            12 | 13 => {
                if self.txn.savepoints.is_empty() {
                    // Unknown savepoint: bookkeeping error, txn untouched.
                    match self.db.execute("ROLLBACK TO nosuch") {
                        Err(Error::Plan(_)) => {}
                        other => {
                            return Err(self.fail(
                                "bookkeeping",
                                format!("ROLLBACK TO unknown: {other:?}"),
                            ))
                        }
                    }
                    if !self.db.in_transaction() {
                        return Err(self.fail(
                            "bookkeeping",
                            "unknown savepoint aborted the transaction".into(),
                        ));
                    }
                } else {
                    let idx = self.rng.below(self.txn.savepoints.len() as u64) as usize;
                    self.rollback_to(idx)?;
                }
            }
            14 | 15 => self.rollback()?,
            16 | 17 => self.commit()?,
            18 => {
                // Poll-armed cancellation of the next statement: the
                // statement fails typed and the WHOLE transaction aborts.
                let Some((sql, _)) = self.gen_stmt(false) else { return Ok(()) };
                self.trace(&format!("CANCEL-ARMED {sql}"));
                self.db.arm_cancel_after_polls(Some(1));
                let got = self.db.execute(&sql);
                self.db.arm_cancel_after_polls(None);
                match got {
                    Err(Error::Cancelled) => {}
                    other => {
                        return Err(
                            self.fail("cancel", format!("expected Cancelled, got {other:?}"))
                        )
                    }
                }
                if self.db.in_transaction() {
                    return Err(
                        self.fail("cancel", "cancelled statement left the txn open".into())
                    );
                }
                self.txn = ScriptTxn::default();
            }
            19 => {
                // Debug builds: an injected WAL fault at COMMIT. The
                // commit either fails typed (frame fsync) and aborts, or
                // succeeds because the (read-only / fully rewound) frame
                // never touched the log.
                if !cfg!(debug_assertions) || !self.case.durable {
                    return Ok(());
                }
                use qymera_sqldb::storage::fault::{FaultKind, FaultSite};
                let inj = std::sync::Arc::clone(self.db.fault_injector());
                inj.arm_nth(Some(FaultSite::WalFsync), 1, FaultKind::Error);
                let committed = self.commit();
                inj.disarm();
                committed?;
            }
            _ => {
                self.checkpoint()?;
                self.check_crash_recovery(dir)?;
            }
        }
        Ok(())
    }
}

/// Run one transaction fuzz case. `None` = the ACID contract held.
pub fn run_txn_case(seed: u64) -> Option<Discrepancy> {
    run_txn_case_inner(seed).err()
}

fn run_txn_case_inner(seed: u64) -> Result<(), Discrepancy> {
    let case = TxnCase::generate(seed);
    let dir = scratch_dir(seed);
    let db = if case.durable {
        let _ = std::fs::remove_dir_all(&dir);
        Database::open_with(
            &dir,
            DurabilityOptions {
                checkpoint_every_bytes: 0,
                ..DurabilityOptions::default()
            },
        )
        .map_err(|e| Discrepancy {
            seed,
            oracle: "txn:setup".into(),
            detail: format!("open failed: {e}"),
        })?
    } else {
        Database::new()
    };

    let mut r = Runner {
        db,
        txn: ScriptTxn::default(),
        shadow: Database::new(),
        states: Vec::new(),
        rng: CaseRng::new(seed ^ TXN_SALT ^ 0x7C),
        created: 0,
        step: 0,
        tracing: std::env::var_os("QYMERA_TXNFUZZ_TRACE").is_some(),
        case,
    };

    // A fixed base table, created auto-commit. A kill point may land
    // inside the setup frame, so the empty state is a committed prefix too.
    r.snap();
    let sql = "CREATE TABLE t0 (k INTEGER)";
    r.exec_ok(sql)?;
    r.shadow.execute(sql).expect("shadow create");
    r.snap();

    for step in 0..r.case.steps {
        r.step = step;
        r.random_step(&dir)?;
    }
    r.step = usize::MAX;

    // Crash simulation BEFORE resolving: a transaction still open here
    // has its in-flight frame in the snapshot.
    r.check_crash_recovery(&dir)?;

    // Resolve the open transaction (seeded commit vs. rollback), then the
    // live state must equal the shadow.
    if r.txn.open {
        if r.rng.chance(1, 2) {
            // May be refused typed (e.g. the log was repaired under it),
            // in which case the engine already aborted.
            r.commit()?;
        } else {
            r.rollback()?;
        }
    }
    let live = dump(&mut r.db);
    let expected = dump(&mut r.shadow);
    if live != expected {
        return Err(r.fail(
            "atomicity",
            format!("live state diverged from shadow:\n live: {live:?}\n want: {expected:?}"),
        ));
    }

    // Ledger + spill cleanliness once everything resolved.
    let (used, tables, spills) =
        (r.db.budget().used(), r.db.table_bytes(), r.db.live_spill_files());
    if used != tables {
        return Err(r.fail("ledger", format!("used {used} != base tables {tables}")));
    }
    if spills != 0 {
        return Err(r.fail("ledger", format!("{spills} orphan spill files")));
    }

    if r.case.durable {
        // Seeded kill points: truncate the WAL snapshot at random byte
        // offsets; recovery must always succeed and always land on a
        // commit-boundary state.
        let full = std::fs::read(dir.join(WAL_FILE)).unwrap_or_default();
        for _ in 0..4 {
            let cut = r.rng.below(full.len() as u64 + 1) as usize;
            let kp = scratch_dir(seed).with_extension(format!("kp{cut}"));
            let _ = std::fs::remove_dir_all(&kp);
            std::fs::create_dir_all(&kp).expect("killpoint dir");
            std::fs::write(kp.join(WAL_FILE), &full[..cut]).expect("killpoint wal");
            let ckpt = dir.join(CHECKPOINT_FILE);
            if ckpt.exists() {
                std::fs::copy(&ckpt, kp.join(CHECKPOINT_FILE)).expect("killpoint ckpt");
            }
            let mut rec = reopen(&kp, &r, "killpoint-reopen")?;
            let got = dump(&mut rec);
            drop(rec);
            let _ = std::fs::remove_dir_all(&kp);
            if !r.states.contains(&got) {
                return Err(r.fail(
                    "killpoint",
                    format!("cut at byte {cut}/{}: recovered a never-committed state: {got:?}",
                        full.len()),
                ));
            }
        }
    }

    drop(r);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Copy the durable files into a fresh directory — a point-in-time crash
/// image taken while the source stays open.
fn snapshot_dir(src: &Path, seed: u64) -> PathBuf {
    let dst = scratch_dir(seed).with_extension("crash");
    let _ = std::fs::remove_dir_all(&dst);
    std::fs::create_dir_all(&dst).expect("snapshot dir");
    for name in [WAL_FILE, CHECKPOINT_FILE] {
        let from = src.join(name);
        if from.exists() {
            std::fs::copy(&from, dst.join(name)).expect("snapshot copy");
        }
    }
    dst
}

fn reopen(dir: &Path, r: &Runner, what: &str) -> Result<Database, Discrepancy> {
    Database::open_with(
        dir,
        DurabilityOptions {
            checkpoint_every_bytes: 0,
            ..DurabilityOptions::default()
        },
    )
    .map_err(|e| r.fail(what, format!("{e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_seed_deterministic() {
        for seed in 0..32 {
            let a = TxnCase::generate(seed);
            let b = TxnCase::generate(seed);
            assert_eq!(a.durable, b.durable);
            assert_eq!(a.steps, b.steps);
        }
    }

    #[test]
    fn case_space_covers_both_engines() {
        let durable: BTreeSet<bool> = (0..64).map(|seed| TxnCase::generate(seed).durable).collect();
        assert_eq!(durable.len(), 2);
    }

    #[test]
    fn a_few_txn_cases_hold_the_contract() {
        for seed in 0..6 {
            if let Some(d) = run_txn_case(seed) {
                panic!("ACID contract violated: {d}");
            }
        }
    }
}
