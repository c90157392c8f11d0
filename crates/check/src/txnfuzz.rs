//! Transaction fuzzing: seeded multi-statement transaction scripts with a
//! shadow in-memory oracle, crash (kill-point) simulation over the
//! transaction-scoped WAL, and fault/cancellation composition.
//!
//! Each case derives a full scenario from one seed — durable (WAL) vs.
//! in-memory engine, one session or two interleaved sessions, and a script
//! of `BEGIN` / DML / DDL / `SAVEPOINT` / `ROLLBACK TO` / `ROLLBACK` /
//! `COMMIT` / checkpoint actions with seeded poll-armed cancellations and
//! (debug builds) injected WAL faults riding along. Every rollback is a
//! logical `Abort` / `RollbackSp` record in the log, and interleaving puts
//! those records inside other sessions' open frames.
//!
//! Interleaved sessions write only their own table but **read each
//! other's** (shared locks). The script is one thread, so a lock wait can
//! only time out: the runner models which table locks each open
//! transaction holds and expects a typed lock error — and the waiter's
//! transaction aborted — exactly when the model says the request
//! conflicts. A slice of the interleaved cases opens with a fixed
//! [`Prologue`] that places one session's rollback or commit at a chosen
//! point of the other's savepoint scope — the orderings behind the two
//! stale-savepoint data losses — before the seeded script takes over.
//!
//! The case checks the ACID contract:
//!
//! 1. a **shadow** in-memory database applies each transaction's
//!    statements only at its `COMMIT` — after the script the live state
//!    must equal the shadow exactly (atomicity + isolation of rollback);
//! 2. any statement failure inside a transaction (cancellation, injected
//!    fault, lock timeout) aborts the whole transaction with a *typed*
//!    error, and the live state still matches the shadow;
//! 3. a read of the other session's table returns exactly the shadow's
//!    committed rows (strict 2PL: no dirty reads);
//! 4. the memory ledger holds exactly the base tables and the spill
//!    directory is empty once every transaction resolves;
//! 5. for durable engines, a simulated crash (snapshot of the WAL +
//!    checkpoint files) recovers exactly the committed state — an
//!    in-flight transaction at the crash point leaves zero trace;
//! 6. for durable engines, truncating the WAL snapshot at seeded byte
//!    offsets (kill points) always recovers one of the committed-prefix
//!    states observed at the script's commit boundaries.
//!
//! Everything reproduces from the one `u64` seed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use qymera_sqldb::storage::wal::{CHECKPOINT_FILE, WAL_FILE};
use qymera_sqldb::{
    Database, DurabilityOptions, Error, FsyncPolicy, ResultSet, Session, SharedDb,
};

use crate::generator::CaseRng;
use crate::oracle::Discrepancy;

/// Seed-space offset separating transaction cases from the other fuzz
/// loops.
const TXN_SALT: u64 = 0xAC1D_7861_AC1D_7861;

/// Bounded lock wait during a case. The script is single-threaded, so a
/// blocked request can never be granted: waiting longer only costs time.
const LOCK_TIMEOUT_MS: u64 = 1;

/// A fixed opening that interleaves the two sessions at a chosen point of
/// session 0's savepoint scope, run before the seeded script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Prologue {
    /// No opening: the seeded script from the first step.
    None,
    /// Session 1 opens a frame on the log's tail and rolls it back between
    /// session 0's `SAVEPOINT` and its `ROLLBACK TO`.
    ForeignAbort,
    /// Session 1 commits a whole frame between session 0's `BEGIN` and its
    /// `SAVEPOINT`.
    ForeignCommit,
}

/// The seed-derived scenario (exposed for failure reports).
#[derive(Debug, Clone)]
pub struct TxnCase {
    /// The driving seed.
    pub seed: u64,
    /// Durable (WAL) engine vs. in-memory.
    pub durable: bool,
    /// Two interleaved sessions (own-table writes, shared reads of the
    /// other's table) vs. one session.
    pub interleaved: bool,
    /// Fixed opening before the seeded script (interleaved cases only).
    pub prologue: Prologue,
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
        let interleaved = rng.chance(1, 2);
        let steps = 30 + rng.below(30) as usize;
        let prologue = match rng.below(4) {
            0 if interleaved => Prologue::ForeignAbort,
            1 if interleaved => Prologue::ForeignCommit,
            _ => Prologue::None,
        };
        TxnCase { seed, durable, interleaved, prologue, steps }
    }
}

fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("qymera-txnfuzz-{}-{seed:x}", std::process::id()))
}

type Dump = Vec<(String, Vec<String>)>;

fn fmt_rows(rs: &ResultSet) -> Vec<String> {
    rs.rows().iter().map(|r| format!("{r:?}")).collect()
}

fn rows_of(db: &mut Database, sql: &str) -> Vec<String> {
    fmt_rows(&db.execute(sql).expect("dump query"))
}

/// Deterministic dump: every table's name and rows, both sorted.
fn dump(db: &mut Database) -> Dump {
    let mut names = db.table_names();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let mut rows = rows_of(db, &format!("SELECT * FROM {name}"));
            rows.sort();
            (name, rows)
        })
        .collect()
}

/// What one scripted statement does to the shadow (for rewinding the
/// pending set at savepoints and computing the visible-table model).
#[derive(Debug, Clone)]
enum Effect {
    Dml,
    Create(String),
    Drop(String),
    /// A query: nothing to replay, its result is checked on the spot.
    Read,
}

/// One generated statement with the table lock it takes.
struct Stmt {
    sql: String,
    effect: Effect,
    table: String,
    exclusive: bool,
}

/// Per-session script state: the open transaction's pending statements
/// (applied to the shadow only at `COMMIT`), its savepoint marks, and the
/// table locks it holds (table → exclusive), kept until it resolves.
#[derive(Default)]
struct ScriptTxn {
    open: bool,
    pending: Vec<(String, Effect)>,
    savepoints: Vec<(String, usize)>,
    sp_counter: usize,
    held: BTreeMap<String, bool>,
}

/// Tables this session may run DML against right now: the shadow's
/// committed tables, adjusted by the pending creates/drops.
fn visible(shadow: &Database, txn: &ScriptTxn, own: Option<&str>) -> Vec<String> {
    let mut set: BTreeSet<String> = shadow.table_names().into_iter().collect();
    for (_, eff) in &txn.pending {
        match eff {
            Effect::Create(n) => {
                set.insert(n.clone());
            }
            Effect::Drop(n) => {
                set.remove(n);
            }
            Effect::Dml | Effect::Read => {}
        }
    }
    match own {
        // Interleaved sessions write only their own table.
        Some(t) => set.into_iter().filter(|n| n.as_str() == t).collect(),
        None => set.into_iter().collect(),
    }
}

struct Runner {
    shared: SharedDb,
    sessions: Vec<Session>,
    txns: Vec<ScriptTxn>,
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
                "txn[durable={} interleaved={} prologue={:?} steps={}]:{what}",
                self.case.durable, self.case.interleaved, self.case.prologue, self.case.steps
            ),
            detail,
        }
    }

    fn trace(&self, i: usize, what: &str) {
        if self.tracing {
            eprintln!("TRACE step {} session {} : {what}", self.step, self.sessions[i].id());
        }
    }

    fn snap(&mut self) {
        let d = dump(&mut self.shadow);
        if self.states.last() != Some(&d) {
            self.states.push(d);
        }
    }

    /// Execute a statement that the script expects to succeed.
    fn exec_ok(&mut self, i: usize, sql: &str) -> Result<(), Discrepancy> {
        self.trace(i, sql);
        match self.sessions[i].execute(sql) {
            Ok(_) => Ok(()),
            Err(e) => {
                Err(self.fail("script", format!("step {}: `{sql}` failed: {e}", self.step)))
            }
        }
    }

    /// Session `i`'s own table in an interleaved case.
    fn own_table(&self, i: usize) -> Option<String> {
        self.case.interleaved.then(|| format!("t{i}"))
    }

    fn insert_into(&mut self, table: &str) -> Stmt {
        let a = self.rng.range(-50, 50);
        let b = self.rng.range(-50, 50);
        Stmt {
            sql: format!("INSERT INTO {table} VALUES ({a}), ({b})"),
            effect: Effect::Dml,
            table: table.to_string(),
            exclusive: true,
        }
    }

    /// Generate one statement for session `i`. `None` when no table is
    /// visible and the dice said DML.
    fn gen_stmt(&mut self, i: usize, ddl_ok: bool, reads_ok: bool) -> Option<Stmt> {
        if reads_ok && self.case.interleaved && self.rng.chance(1, 5) {
            let table = format!("t{}", 1 - i);
            return Some(Stmt {
                sql: format!("SELECT k FROM {table} ORDER BY k"),
                effect: Effect::Read,
                table,
                exclusive: false,
            });
        }
        let vis = visible(&self.shadow, &self.txns[i], self.own_table(i).as_deref());
        let roll = self.rng.below(10);
        if ddl_ok && roll == 9 {
            self.created += 1;
            let name = format!("x{}", self.created);
            return Some(Stmt {
                sql: format!("CREATE TABLE {name} (k INTEGER)"),
                effect: Effect::Create(name.clone()),
                table: name,
                exclusive: true,
            });
        }
        if ddl_ok && roll == 8 && !vis.is_empty() {
            let name = self.rng.pick(&vis).clone();
            return Some(Stmt {
                sql: format!("DROP TABLE {name}"),
                effect: Effect::Drop(name.clone()),
                table: name,
                exclusive: true,
            });
        }
        if vis.is_empty() {
            return None;
        }
        let table = self.rng.pick(&vis).clone();
        if roll < 6 {
            Some(self.insert_into(&table))
        } else {
            let m = 2 + self.rng.below(5) as i64;
            let r = self.rng.range(0, m - 1);
            Some(Stmt {
                sql: format!("DELETE FROM {table} WHERE (k % {m} + {m}) % {m} = {r}"),
                effect: Effect::Dml,
                table,
                exclusive: true,
            })
        }
    }

    /// Whether another session's open transaction holds a lock that
    /// `stmt`'s request conflicts with.
    fn blocked(&self, i: usize, stmt: &Stmt) -> bool {
        self.txns.iter().enumerate().any(|(j, t)| {
            j != i && t.held.get(&stmt.table).is_some_and(|&theirs| theirs || stmt.exclusive)
        })
    }

    /// Run one generated statement for session `i`, inside its open
    /// transaction or auto-commit.
    fn run_stmt(&mut self, i: usize, stmt: Stmt) -> Result<(), Discrepancy> {
        if self.blocked(i, &stmt) {
            // Nobody can release the lock while this thread waits: the
            // request times out typed, and a waiter inside a transaction
            // loses the whole transaction.
            self.trace(i, &format!("LOCK-CONFLICT {}", stmt.sql));
            match self.sessions[i].execute(&stmt.sql) {
                Err(Error::LockTimeout { .. } | Error::Deadlock { .. }) => {}
                other => {
                    return Err(self.fail(
                        "lock",
                        format!("`{}` should have hit a held lock: {other:?}", stmt.sql),
                    ))
                }
            }
            if self.sessions[i].in_transaction() {
                return Err(self.fail("lock", "lock failure left the txn open".into()));
            }
            self.txns[i] = ScriptTxn::default();
            return Ok(());
        }
        let is_read = matches!(stmt.effect, Effect::Read);
        if is_read {
            // The writer's exclusive lock would have blocked this read, so
            // the table holds committed rows only — the shadow's.
            self.trace(i, &stmt.sql);
            let got = match self.sessions[i].execute(&stmt.sql) {
                Ok(rs) => fmt_rows(&rs),
                Err(e) => {
                    return Err(self.fail("script", format!("`{}` failed: {e}", stmt.sql)))
                }
            };
            let want = rows_of(&mut self.shadow, &stmt.sql);
            if got != want {
                return Err(self.fail(
                    "isolation",
                    format!("`{}` saw {got:?}, committed state is {want:?}", stmt.sql),
                ));
            }
        } else {
            self.exec_ok(i, &stmt.sql)?;
        }
        if self.txns[i].open {
            *self.txns[i].held.entry(stmt.table).or_insert(false) |= stmt.exclusive;
            if !is_read {
                self.txns[i].pending.push((stmt.sql, stmt.effect));
            }
        } else if !is_read {
            if let Err(e) = self.shadow.execute(&stmt.sql) {
                return Err(self.fail("shadow", format!("auto-commit `{}`: {e}", stmt.sql)));
            }
            self.snap();
        }
        Ok(())
    }

    fn begin(&mut self, i: usize) -> Result<(), Discrepancy> {
        self.exec_ok(i, "BEGIN")?;
        self.txns[i].open = true;
        Ok(())
    }

    fn savepoint(&mut self, i: usize) -> Result<(), Discrepancy> {
        self.txns[i].sp_counter += 1;
        let name = format!("sp{}", self.txns[i].sp_counter);
        self.exec_ok(i, &format!("SAVEPOINT {name}"))?;
        let depth = self.txns[i].pending.len();
        self.txns[i].savepoints.push((name, depth));
        Ok(())
    }

    /// `ROLLBACK TO` session `i`'s `idx`-th active savepoint. Locks stay.
    fn rollback_to(&mut self, i: usize, idx: usize) -> Result<(), Discrepancy> {
        let (name, depth) = self.txns[i].savepoints[idx].clone();
        self.exec_ok(i, &format!("ROLLBACK TO {name}"))?;
        self.txns[i].pending.truncate(depth);
        self.txns[i].savepoints.truncate(idx + 1);
        Ok(())
    }

    fn rollback(&mut self, i: usize) -> Result<(), Discrepancy> {
        self.exec_ok(i, "ROLLBACK")?;
        self.txns[i] = ScriptTxn::default();
        Ok(())
    }

    /// `COMMIT` session `i`'s transaction and, if the engine accepted it,
    /// replay its pending statements into the shadow and snapshot the new
    /// committed state. A refusal with an accepted typed abort (an injected
    /// fault at the frame fsync, or the log was crash-repaired while the
    /// transaction was open — a repair in one session dooms the frames of
    /// every other open transaction) drops the pending statements instead.
    fn commit(&mut self, i: usize) -> Result<(), Discrepancy> {
        self.trace(i, "COMMIT");
        let txn = std::mem::take(&mut self.txns[i]);
        match self.sessions[i].execute("COMMIT") {
            Ok(_) => {}
            Err(Error::Io(ref m)) if m.contains("injected") || m.contains("repaired") => {
                if self.sessions[i].in_transaction() {
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
            if let Err(e) = self.shadow.execute(&sql) {
                return Err(
                    self.fail("shadow", format!("shadow diverged replaying `{sql}`: {e}"))
                );
            }
        }
        self.snap();
        Ok(())
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

    /// The case's fixed opening (see [`Prologue`]).
    fn prologue(&mut self) -> Result<(), Discrepancy> {
        let insert = |r: &mut Self, i: usize| {
            let stmt = r.insert_into(&format!("t{i}"));
            r.run_stmt(i, stmt)
        };
        match self.case.prologue {
            Prologue::None => return Ok(()),
            Prologue::ForeignAbort => {
                self.begin(0)?;
                insert(self, 0)?;
                // Auto-commit: the committed boundary moves past session
                // 0's bytes, so session 1's next frame is alone on the tail.
                insert(self, 1)?;
                self.begin(1)?;
                insert(self, 1)?;
                self.savepoint(0)?;
                self.rollback(1)?;
            }
            Prologue::ForeignCommit => {
                self.begin(0)?;
                insert(self, 0)?;
                self.begin(1)?;
                insert(self, 1)?;
                self.commit(1)?;
                self.savepoint(0)?;
            }
        }
        // Session 0 logs past wherever session 1's bytes were, rewinds to
        // the savepoint, and commits; one more commit lands behind it.
        for _ in 0..1 + self.rng.below(12) {
            insert(self, 0)?;
        }
        self.rollback_to(0, 0)?;
        insert(self, 0)?;
        self.commit(0)?;
        insert(self, 1)
    }

    /// One seeded script action for a randomly chosen session.
    fn random_step(&mut self) -> Result<(), Discrepancy> {
        let i = if self.case.interleaved { self.rng.below(2) as usize } else { 0 };
        // Interleaved sessions skip DDL: catalog changes would couple
        // their lock footprints beyond what the lock model tracks.
        let ddl_ok = !self.case.interleaved;

        if !self.txns[i].open {
            match self.rng.below(10) {
                0..=3 => self.begin(i)?,
                4..=7 => {
                    if let Some(stmt) = self.gen_stmt(i, ddl_ok, true) {
                        self.run_stmt(i, stmt)?;
                    }
                }
                8 => {
                    if self.case.durable {
                        self.trace(i, "CHECKPOINT");
                        // Engine-level checkpoint; with an open frame in
                        // the other session this takes the keep-tail path.
                        self.shared
                            .with(|db| db.checkpoint())
                            .map_err(|e| self.fail("checkpoint", format!("{e}")))?;
                    }
                }
                _ => {
                    // Bookkeeping misuse outside a transaction: typed plan
                    // error, nothing changes.
                    let sql = *self.rng.pick(&["COMMIT", "ROLLBACK", "SAVEPOINT ghost"]);
                    match self.sessions[i].execute(sql) {
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
        match self.rng.below(20) {
            0..=9 => {
                if let Some(stmt) = self.gen_stmt(i, ddl_ok, true) {
                    self.run_stmt(i, stmt)?;
                }
            }
            10 | 11 => self.savepoint(i)?,
            12 | 13 => {
                if self.txns[i].savepoints.is_empty() {
                    // Unknown savepoint: bookkeeping error, txn untouched.
                    match self.sessions[i].execute("ROLLBACK TO nosuch") {
                        Err(Error::Plan(_)) => {}
                        other => {
                            return Err(self.fail(
                                "bookkeeping",
                                format!("ROLLBACK TO unknown: {other:?}"),
                            ))
                        }
                    }
                    if !self.sessions[i].in_transaction() {
                        return Err(self.fail(
                            "bookkeeping",
                            "unknown savepoint aborted the transaction".into(),
                        ));
                    }
                } else {
                    let idx = self.rng.below(self.txns[i].savepoints.len() as u64) as usize;
                    self.rollback_to(i, idx)?;
                }
            }
            14 | 15 => self.rollback(i)?,
            16 | 17 => self.commit(i)?,
            18 => {
                // Poll-armed cancellation of the next statement: the
                // statement fails typed and the WHOLE transaction aborts.
                // (A request the lock model says would block never reaches
                // the engine's polls, so it is not a cancellation case.)
                let Some(stmt) = self.gen_stmt(i, false, false) else { return Ok(()) };
                if self.blocked(i, &stmt) {
                    return Ok(());
                }
                self.trace(i, &format!("CANCEL-ARMED {}", stmt.sql));
                self.shared.with(|db| db.arm_cancel_after_polls(Some(1)));
                let got = self.sessions[i].execute(&stmt.sql);
                self.shared.with(|db| db.arm_cancel_after_polls(None));
                match got {
                    Err(Error::Cancelled) => {}
                    other => {
                        return Err(
                            self.fail("cancel", format!("expected Cancelled, got {other:?}"))
                        )
                    }
                }
                if self.sessions[i].in_transaction() {
                    return Err(
                        self.fail("cancel", "cancelled statement left the txn open".into())
                    );
                }
                self.txns[i] = ScriptTxn::default();
            }
            _ => {
                // Debug builds: an injected WAL fault at COMMIT. The
                // commit either fails typed (frame fsync) and aborts, or
                // succeeds because the (read-only / fully rewound) frame
                // never touched the log.
                if !cfg!(debug_assertions) || !self.case.durable {
                    return Ok(());
                }
                use qymera_sqldb::storage::fault::{FaultKind, FaultSite};
                let inj = self.shared.with(|db| std::sync::Arc::clone(db.fault_injector()));
                inj.arm_nth(Some(FaultSite::WalFsync), 1, FaultKind::Error);
                let committed = self.commit(i);
                inj.disarm();
                committed?;
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
                fsync: FsyncPolicy::Commit,
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
    db.lock_table().set_timeout_ms(LOCK_TIMEOUT_MS);

    let shared = SharedDb::new(db);
    let session_count = if case.interleaved { 2 } else { 1 };
    let mut r = Runner {
        sessions: (0..session_count).map(|_| shared.session()).collect(),
        txns: (0..session_count).map(|_| ScriptTxn::default()).collect(),
        shared,
        shadow: Database::new(),
        states: Vec::new(),
        rng: CaseRng::new(seed ^ TXN_SALT ^ 0x7C),
        created: 0,
        step: 0,
        tracing: std::env::var_os("QYMERA_TXNFUZZ_TRACE").is_some(),
        case,
    };

    // Fixed base tables, created auto-commit (session i owns t{i}). A
    // kill point may land inside the setup frames, so the empty state and
    // every intermediate one are committed prefixes too.
    r.snap();
    for i in 0..session_count {
        let sql = format!("CREATE TABLE t{i} (k INTEGER)");
        r.exec_ok(i, &sql)?;
        r.shadow.execute(&sql).expect("shadow create");
        r.snap();
    }

    r.prologue()?;
    // Checked here too: a checkpoint later in the script would paper over
    // whatever the prologue did to the log.
    r.check_crash_recovery(&dir)?;
    for step in 0..r.case.steps {
        r.step = step;
        r.random_step()?;
    }
    r.step = usize::MAX;

    // Crash simulation BEFORE resolving: a transaction still open here
    // has its in-flight frame in the snapshot.
    r.check_crash_recovery(&dir)?;

    // Resolve every open transaction (seeded commit vs. rollback), then
    // the live state must equal the shadow.
    for i in 0..session_count {
        if !r.txns[i].open {
            continue;
        }
        if r.rng.chance(1, 2) {
            // May be refused typed (e.g. the log was repaired under it),
            // in which case the engine already aborted.
            r.commit(i)?;
        } else {
            r.rollback(i)?;
        }
    }
    let live = r.shared.with(dump);
    let expected = dump(&mut r.shadow);
    if live != expected {
        return Err(r.fail(
            "atomicity",
            format!("live state diverged from shadow:\n live: {live:?}\n want: {expected:?}"),
        ));
    }

    // Ledger + spill cleanliness once everything resolved.
    let (used, tables, spills) = r
        .shared
        .with(|db| (db.budget().used(), db.table_bytes(), db.live_spill_files()));
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
            fsync: FsyncPolicy::Commit,
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
            assert_eq!(a.interleaved, b.interleaved);
            assert_eq!(a.prologue, b.prologue);
            assert_eq!(a.steps, b.steps);
        }
    }

    #[test]
    fn case_space_covers_both_engines_both_shapes_and_every_prologue() {
        let mut durable = std::collections::BTreeSet::new();
        let mut shapes = std::collections::BTreeSet::new();
        let mut durable_prologues = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let c = TxnCase::generate(seed);
            durable.insert(c.durable);
            shapes.insert(c.interleaved);
            assert!(c.interleaved || c.prologue == Prologue::None);
            if c.durable {
                durable_prologues.insert(c.prologue);
            }
        }
        assert_eq!(durable.len(), 2);
        assert_eq!(shapes.len(), 2);
        assert_eq!(durable_prologues.len(), 3);
    }

    /// CI's `qymera-fuzz --txns 50` corpus at the default seed must keep
    /// scheduling both deliberate interleavings against a durable engine.
    #[test]
    fn pinned_corpus_schedules_both_prologues_on_durable_engines() {
        let count = |p: Prologue| {
            (0..50u64)
                .map(|i| TxnCase::generate(0xC0_FFEE + 0xAC1D + i))
                .filter(|c| c.durable && c.prologue == p)
                .count()
        };
        assert!(count(Prologue::ForeignAbort) >= 3, "{}", count(Prologue::ForeignAbort));
        assert!(count(Prologue::ForeignCommit) >= 3, "{}", count(Prologue::ForeignCommit));
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
