//! Per-table lock manager for concurrent writer sessions.
//!
//! Strict two-phase locking at table granularity: a statement acquires
//! shared locks on every table it reads and exclusive locks on every table
//! it mutates, and a transaction holds its locks until `COMMIT` or
//! `ROLLBACK` (auto-commit statements release at statement end). Locks are
//! RAII [`LockGuard`]s — dropping the guard releases the lock, so abort
//! paths cannot leak one.
//!
//! Conflicts resolve two ways, both surfacing as typed errors the loser
//! can respond to by retrying its whole transaction:
//!
//! * **Deadlock detection** — before blocking, the requester walks the
//!   waits-for graph (owner → table it waits on → holders of that table).
//!   If the edge it is about to add closes a cycle, the *youngest*
//!   transaction in the cycle (highest id — ids are allocation-ordered)
//!   is chosen as victim. A victim that is the requester returns
//!   [`Error::Deadlock`] immediately; otherwise the victim is wounded and
//!   notices at its next wakeup, so the elder requester keeps waiting and
//!   wins the lock once the victim's session aborts and releases.
//! * **Bounded wait** — a lock not granted within the timeout
//!   ([`DEFAULT_LOCK_TIMEOUT_MS`]) returns [`Error::LockTimeout`]. This also backstops any cycle the detector
//!   cannot see (e.g. through resources it does not manage).
//!
//! Waiters poll their [`QueryContext`] while blocked, so cancellation and
//! deadline expiry interrupt a lock wait with the same typed errors as any
//! other cooperative cancel point.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::exec::govern::QueryContext;

/// Default bounded lock wait before [`Error::LockTimeout`].
pub const DEFAULT_LOCK_TIMEOUT_MS: u64 = 5_000;

/// Wake-up granularity while blocked: each slice re-checks wounds,
/// grantability, the query context, and the deadline.
const WAIT_SLICE_MS: u64 = 10;

/// Lock strength. `Ord`: `Exclusive > Shared`, so an upgrade keeps the max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockMode {
    /// Concurrent readers: compatible with other shared holders.
    Shared,
    /// Single writer: compatible with nothing but itself.
    Exclusive,
}

#[derive(Debug)]
struct Held {
    mode: LockMode,
    /// Re-entrant acquisitions by the same owner (a transaction touching a
    /// table in several statements holds one guard per statement).
    count: u32,
}

#[derive(Debug, Default)]
struct LockState {
    /// Lock word per table (lowercased name): current holders and their
    /// modes. A table with no holders has no entry.
    tables: HashMap<String, HashMap<u64, Held>>,
    /// owner → table it is currently blocked on (the waits-for edges).
    waits: HashMap<u64, String>,
    /// Deadlock victims chosen by another waiter's cycle detection; each
    /// notices at its next wakeup and returns [`Error::Deadlock`].
    wounded: HashSet<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    state: Mutex<LockState>,
    cv: Condvar,
}

fn lock_state(inner: &Inner) -> MutexGuard<'_, LockState> {
    // A panic while holding the state mutex leaves only bookkeeping that
    // the panicking session's guards will clean up; don't cascade it.
    inner.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared lock manager. One per [`Database`](crate::db::Database);
/// cloned into every [`Session`](crate::txn::Session) handle.
#[derive(Debug)]
pub struct LockTable {
    inner: Arc<Inner>,
    timeout_ms: AtomicU64,
    /// Owner ids for auto-commit statements (transactions use their WAL
    /// allocation order; both draw from this counter so ids stay unique
    /// and age-ordered across the process).
    next_owner: AtomicU64,
}

impl Default for LockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LockTable {
    /// Fresh lock table waiting up to [`DEFAULT_LOCK_TIMEOUT_MS`].
    pub fn new() -> Self {
        LockTable {
            inner: Arc::new(Inner::default()),
            timeout_ms: AtomicU64::new(DEFAULT_LOCK_TIMEOUT_MS),
            next_owner: AtomicU64::new(1),
        }
    }

    /// Override the bounded lock wait (tests use tiny values).
    pub fn set_timeout_ms(&self, ms: u64) {
        self.timeout_ms.store(ms, Ordering::Relaxed);
    }

    /// Allocate a fresh owner id. Ids are never reused, and larger means
    /// younger — the deadlock victim ordering.
    pub fn allocate_owner(&self) -> u64 {
        self.next_owner.fetch_add(1, Ordering::Relaxed)
    }

    /// Acquire `mode` on `table` for `owner`, blocking up to the
    /// configured timeout. Re-entrant: an owner already holding the table
    /// stacks another guard (upgrading shared → exclusive when it is the
    /// sole holder). `query` is polled while blocked so cancellation and
    /// deadlines interrupt the wait.
    pub fn acquire(
        &self,
        owner: u64,
        table: &str,
        mode: LockMode,
        query: &QueryContext,
    ) -> Result<LockGuard> {
        let key = table.to_ascii_lowercase();
        let timeout_ms = self.timeout_ms.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let mut state = lock_state(&self.inner);
        loop {
            if state.wounded.remove(&owner) {
                state.waits.remove(&owner);
                drop(state);
                self.inner.cv.notify_all();
                return Err(Error::Deadlock { table: table.to_string() });
            }
            if grantable(&state, &key, owner, mode) {
                let holders = state.tables.entry(key.clone()).or_default();
                match holders.get_mut(&owner) {
                    Some(held) => {
                        held.count += 1;
                        held.mode = held.mode.max(mode);
                    }
                    None => {
                        holders.insert(owner, Held { mode, count: 1 });
                    }
                }
                state.waits.remove(&owner);
                return Ok(LockGuard {
                    inner: Arc::clone(&self.inner),
                    owner,
                    key,
                });
            }
            // Blocked: publish the waits-for edge and look for a cycle the
            // edge would close.
            state.waits.insert(owner, key.clone());
            if let Some(victim) = deadlock_victim(&state, owner, &key) {
                if victim == owner {
                    state.waits.remove(&owner);
                    drop(state);
                    self.inner.cv.notify_all();
                    return Err(Error::Deadlock { table: table.to_string() });
                }
                state.wounded.insert(victim);
                self.inner.cv.notify_all();
                // The elder keeps waiting; the wounded victim aborts and
                // releases at its next wakeup.
            }
            if let Err(e) = query.check() {
                state.waits.remove(&owner);
                return Err(e);
            }
            let now = Instant::now();
            if now >= deadline {
                state.waits.remove(&owner);
                return Err(Error::LockTimeout { table: table.to_string(), ms: timeout_ms });
            }
            let slice = (deadline - now).min(Duration::from_millis(WAIT_SLICE_MS));
            state = self
                .inner
                .cv
                .wait_timeout(state, slice)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Drop any residual wound/wait bookkeeping for an owner whose
    /// transaction ended. Guards themselves are RAII; this only clears the
    /// advisory sets.
    pub fn forget(&self, owner: u64) {
        let mut state = lock_state(&self.inner);
        state.wounded.remove(&owner);
        state.waits.remove(&owner);
    }

    /// Number of tables currently holding at least one lock (test hook).
    pub fn locked_tables(&self) -> usize {
        lock_state(&self.inner).tables.len()
    }
}

/// Can `owner` take `mode` on `key` right now?
fn grantable(state: &LockState, key: &str, owner: u64, mode: LockMode) -> bool {
    let Some(holders) = state.tables.get(key) else { return true };
    match mode {
        LockMode::Shared => holders
            .iter()
            .all(|(&h, held)| h == owner || held.mode == LockMode::Shared),
        LockMode::Exclusive => holders.keys().all(|&h| h == owner),
    }
}

/// If the edge `start → key` closes a waits-for cycle, return the youngest
/// participant (highest id) as victim. The first hop skips `start`'s own
/// holding of `key` — holding a table never blocks upgrading it (only the
/// *other* holders do), so it is not a waits-for edge.
fn deadlock_victim(state: &LockState, start: u64, key: &str) -> Option<u64> {
    let mut path: Vec<u64> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let holders = state.tables.get(key)?;
    for &holder in holders.keys() {
        if holder == start || !seen.insert(holder) {
            continue;
        }
        if let Some(next) = state.waits.get(&holder) {
            path.push(holder);
            if walk(state, start, next, &mut path, &mut seen) {
                return Some(path.iter().copied().fold(start, u64::max));
            }
            path.pop();
        }
    }
    None
}

/// DFS from the holders of `table` along waits edges, looking for `start`.
/// On success `path` holds the cycle's intermediate owners.
fn walk(
    state: &LockState,
    start: u64,
    table: &str,
    path: &mut Vec<u64>,
    seen: &mut HashSet<u64>,
) -> bool {
    let Some(holders) = state.tables.get(table) else { return false };
    for &holder in holders.keys() {
        if holder == start {
            return true;
        }
        if !seen.insert(holder) {
            continue;
        }
        if let Some(next) = state.waits.get(&holder) {
            path.push(holder);
            if walk(state, start, next, path, seen) {
                return true;
            }
            path.pop();
        }
    }
    false
}

/// RAII table lock: releasing is dropping. Held by the transaction state
/// for multi-statement transactions, or for the statement's duration in
/// auto-commit mode.
#[derive(Debug)]
pub struct LockGuard {
    inner: Arc<Inner>,
    owner: u64,
    key: String,
}

impl LockGuard {
    /// The lowercased table name this guard locks (test hook).
    pub fn table(&self) -> &str {
        &self.key
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let mut state = lock_state(&self.inner);
        if let Some(holders) = state.tables.get_mut(&self.key) {
            if let Some(held) = holders.get_mut(&self.owner) {
                held.count -= 1;
                if held.count == 0 {
                    holders.remove(&self.owner);
                }
            }
            if holders.is_empty() {
                state.tables.remove(&self.key);
            }
        }
        drop(state);
        self.inner.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    fn table() -> LockTable {
        let t = LockTable::new();
        t.set_timeout_ms(2_000);
        t
    }

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let lt = table();
        let ctx = QueryContext::unbounded();
        let g1 = lt.acquire(1, "t", LockMode::Shared, &ctx).unwrap();
        let _g2 = lt.acquire(2, "t", LockMode::Shared, &ctx).unwrap();
        lt.set_timeout_ms(30);
        let err = lt.acquire(3, "t", LockMode::Exclusive, &ctx).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { .. }));
        drop(g1);
        // Still blocked by g2.
        let err = lt.acquire(3, "t", LockMode::Exclusive, &ctx).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { .. }));
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lt = table();
        let ctx = QueryContext::unbounded();
        let g1 = lt.acquire(1, "t", LockMode::Shared, &ctx).unwrap();
        // Same owner stacks; sole holder may upgrade.
        let g2 = lt.acquire(1, "t", LockMode::Exclusive, &ctx).unwrap();
        lt.set_timeout_ms(30);
        let err = lt.acquire(2, "t", LockMode::Shared, &ctx).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { .. }));
        drop(g1);
        drop(g2);
        assert_eq!(lt.locked_tables(), 0);
        lt.set_timeout_ms(2_000);
        let _ = lt.acquire(2, "t", LockMode::Exclusive, &ctx).unwrap();
    }

    #[test]
    fn upgrade_blocked_by_other_shared_holder() {
        let lt = table();
        let ctx = QueryContext::unbounded();
        let _g1 = lt.acquire(1, "t", LockMode::Shared, &ctx).unwrap();
        let _g2 = lt.acquire(2, "t", LockMode::Shared, &ctx).unwrap();
        lt.set_timeout_ms(30);
        let err = lt.acquire(1, "t", LockMode::Exclusive, &ctx).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { .. }));
    }

    #[test]
    fn deadlock_youngest_dies_elder_wins() {
        let lt = Arc::new(table());
        let ctx = QueryContext::unbounded();
        // Owner 1 (elder) holds a; owner 2 (younger) holds b.
        let _g1a = lt.acquire(1, "a", LockMode::Exclusive, &ctx).unwrap();
        let g2b = lt.acquire(2, "b", LockMode::Exclusive, &ctx).unwrap();

        // Younger blocks on a in a thread, then elder requests b, closing
        // the cycle. The younger must get Deadlock; the elder must win.
        let (tx, rx) = mpsc::channel();
        let lt2 = Arc::clone(&lt);
        let younger = thread::spawn(move || {
            let ctx = QueryContext::unbounded();
            let r = lt2.acquire(2, "a", LockMode::Exclusive, &ctx);
            // On deadlock the session would abort, releasing b.
            drop(g2b);
            tx.send(()).unwrap();
            r
        });
        // Wait until owner 2 is actually blocked on a.
        loop {
            if lock_state(&lt.inner).waits.contains_key(&2) {
                break;
            }
            thread::yield_now();
        }
        let g1b = lt.acquire(1, "b", LockMode::Exclusive, &ctx);
        rx.recv().unwrap();
        let younger_result = younger.join().unwrap();
        assert!(matches!(younger_result, Err(Error::Deadlock { .. })), "{younger_result:?}");
        assert!(g1b.is_ok(), "{g1b:?}");
        lt.forget(1);
        lt.forget(2);
    }

    #[test]
    fn cancellation_interrupts_lock_wait() {
        let lt = table();
        let ctx = QueryContext::unbounded();
        let _g1 = lt.acquire(1, "t", LockMode::Exclusive, &ctx).unwrap();
        let waiting = QueryContext::unbounded();
        waiting.cancel();
        let err = lt.acquire(2, "t", LockMode::Exclusive, &waiting).unwrap_err();
        assert!(matches!(err, Error::Cancelled));
    }
}
