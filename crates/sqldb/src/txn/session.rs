//! Concurrent sessions over one database: [`SharedDb`] / [`Session`].
//!
//! The engine itself ([`Database`]) is single-threaded behind a mutex.
//! What makes concurrent *writers* safe and useful is the protocol here:
//! a session acquires every table lock its next statement needs **before**
//! taking the engine mutex. Statements therefore only ever hold the mutex
//! while doing bounded work — a lock *wait* (possibly seconds, under the
//! wound-or-die policy of [`LockTable`]) never blocks other sessions from
//! executing against tables they own.
//!
//! Lock lifetime follows strict two-phase locking:
//!
//! * auto-commit statement — locks held for the statement, released when
//!   it returns;
//! * open transaction — locks accumulate in the transaction's state
//!   inside the database and release only at `COMMIT` / `ROLLBACK` /
//!   abort.
//!
//! Any lock failure (deadlock victim, bounded-wait timeout, cancellation
//! while waiting) inside an open transaction **aborts the transaction**
//! with the engine's full cleanup contract — memory ledger restored, no
//! partial WAL frame, locks released — so an immediate retry is always
//! valid.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::ast::Statement;
use crate::db::{Database, ResultSet};
use crate::error::Result;
use crate::exec::govern::{CancelHandle, QueryContext};
use crate::parser::{parse_script, parse_statement};
use crate::txn::lock::{LockGuard, LockTable};
use crate::txn::locks_for_statement;

/// A database shared by concurrent sessions. Cheap to clone (all `Arc`s).
#[derive(Clone)]
pub struct SharedDb {
    db: Arc<Mutex<Database>>,
    locks: Arc<LockTable>,
    next_session: Arc<AtomicU64>,
}

impl SharedDb {
    /// Wrap `db` for shared use. The lock table is the one the database
    /// already owns, so plain [`Database`] transactions and sessions agree
    /// on lock state.
    pub fn new(db: Database) -> Self {
        let locks = db.lock_table();
        SharedDb {
            db: Arc::new(Mutex::new(db)),
            locks,
            next_session: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Open a new session. Sessions are independent: each has its own
    /// transaction scope, cancel handle, and statement timeout.
    pub fn session(&self) -> Session {
        Session {
            shared: self.clone(),
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            owner: None,
            cancel: CancelHandle::new(),
            timeout_ms: None,
        }
    }

    /// Run `f` with the engine mutex held (state inspection in tests and
    /// maintenance tasks like an explicit checkpoint).
    pub fn with<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.lock_db())
    }

    fn lock_db(&self) -> MutexGuard<'_, Database> {
        // A panic while holding the engine mutex poisons it; the engine's
        // own invariants are checked internally, so keep serving sessions.
        self.db.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One client's view of a [`SharedDb`]: a transaction scope plus the
/// governance knobs of a connection.
pub struct Session {
    shared: SharedDb,
    id: u64,
    /// Lock-table owner id of the open transaction (`None` between
    /// transactions; auto-commit statements use a throwaway owner).
    owner: Option<u64>,
    cancel: CancelHandle,
    timeout_ms: Option<u64>,
}

impl Session {
    /// The session id (diagnostics; also the transaction key inside the
    /// database).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Handle that cancels this session's in-flight statement — including
    /// a lock wait — from another thread. Cancellation inside an open
    /// transaction aborts it.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.cancel.clone()
    }

    /// Per-statement deadline in milliseconds (`None` = none). Applies to
    /// lock waits and execution alike.
    pub fn set_statement_timeout_ms(&mut self, ms: Option<u64>) {
        self.timeout_ms = ms;
    }

    /// Whether this session currently has an open transaction.
    pub fn in_transaction(&self) -> bool {
        self.owner.is_some()
    }

    /// Execute one SQL statement in this session.
    pub fn execute(&mut self, sql: &str) -> Result<ResultSet> {
        let st = parse_statement(sql)?;
        self.execute_statement(st)
    }

    /// Execute a `;`-separated script; returns the last statement's result.
    /// Stops at the first error (which, inside an open transaction, has
    /// already aborted it).
    pub fn execute_script(&mut self, sql: &str) -> Result<ResultSet> {
        let statements = parse_script(sql)?;
        let mut last = ResultSet::dml(0);
        for st in statements {
            last = self.execute_statement(st)?;
        }
        Ok(last)
    }

    /// Execute an already-parsed statement: acquire its table locks (off
    /// the engine mutex), then run it in the engine under this session's
    /// governance.
    pub fn execute_statement(&mut self, st: Statement) -> Result<ResultSet> {
        let needed = locks_for_statement(&st);
        let in_txn = self.owner.is_some();
        let owner = match self.owner {
            Some(o) => o,
            None => self.shared.locks.allocate_owner(),
        };

        // The wait-side governance token: carries the session's cancel
        // flag and deadline into the lock table's poll loop.
        let wait_q =
            QueryContext::begin(self.timeout_ms, self.cancel.flag(), None);
        let mut guards: Vec<LockGuard> = Vec::with_capacity(needed.len());
        for (table, mode) in needed {
            match self.shared.locks.acquire(owner, &table, mode, &wait_q) {
                Ok(g) => guards.push(g),
                Err(e) => {
                    // Deadlock victim / lock timeout / cancelled while
                    // waiting: inside a transaction this aborts it (strict
                    // 2PL releases everything so the winner can proceed).
                    drop(guards);
                    if in_txn {
                        let mut db = self.shared.lock_db();
                        db.abort_session_txn(self.id);
                        self.owner = None;
                    }
                    self.shared.locks.forget(owner);
                    if !in_txn {
                        self.owner = None;
                    }
                    return Err(e);
                }
            }
        }

        let mut db = self.shared.lock_db();
        db.set_cancel_handle(self.cancel.clone());
        db.set_statement_timeout_ms(self.timeout_ms);
        let result = db.execute_for_session(self.id, st, guards);
        let open_after = db.session_in_txn(self.id);
        drop(db);

        if open_after {
            self.owner = Some(owner);
        } else {
            // Transaction resolved (or the statement was auto-commit):
            // clear any wound/wait residue for this owner.
            self.shared.locks.forget(owner);
            self.owner = None;
        }
        result
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(owner) = self.owner {
            let mut db = self.shared.lock_db();
            db.abort_session_txn(self.id);
            drop(db);
            self.shared.locks.forget(owner);
        }
    }
}
