//! Query-lifecycle governance: cooperative cancellation, deadlines, memory
//! grants, and admission control.
//!
//! Every statement executes under a [`QueryContext`] — a shared token
//! carrying the cancel flag, the optional deadline, and the optional memory
//! grant carved from the global [`crate::MemoryBudget`] ledger. Operators
//! call [`QueryContext::check`] at every unit boundary (one batch, one
//! morsel, one spill run, one build block); the first failing check latches
//! the outcome so every worker and operator surfaces the *same* typed error
//! ([`Error::Cancelled`] or [`Error::Timeout`]) no matter which one observed
//! it first. Cancellation is cooperative: nothing is killed mid-write, so
//! the ordinary cleanup (spill files, ledger reservations, WAL `Abort`
//! record + `TableUndo` rollback) runs exactly as it does for any
//! other statement error.
//!
//! Admission control is two-layered:
//! - [`AdmissionController`]: in-process bounded concurrent query grants
//!   with a small retry/backoff queue, shared across `Database` handles via
//!   [`crate::Database::set_admission_controller`].
//! - process slots (`QYMERA_DB_SLOTS`): bounded concurrent *processes* on
//!   one durable database directory, implemented as `create_new` lock files
//!   under `<dir>/slots/` and released on drop.
//!
//! Both reject with a typed [`Error::Overloaded`] once the backoff budget is
//! exhausted, without starting the statement.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

/// No outcome latched; the query is live.
const KIND_NONE: u8 = 0;
/// Latched: cooperative cancel (handle, injection point, or `cancel()`).
const KIND_CANCELLED: u8 = 1;
/// Latched: the deadline passed.
const KIND_TIMEOUT: u8 = 2;

/// Poll-count sentinel meaning "deterministic cancel injection disarmed".
const POLL_DISARMED: u64 = u64::MAX;

#[derive(Debug)]
struct QueryInner {
    /// First failure wins: 0 = live, 1 = cancelled, 2 = timed out.
    kind: AtomicU8,
    /// Absolute deadline, if the statement runs under a timeout.
    deadline: Option<Instant>,
    /// The configured timeout in ms, reported in [`Error::Timeout`].
    timeout_ms: u64,
    /// External interrupt flag shared with [`CancelHandle`] (CLI Ctrl-C).
    interrupt: Arc<AtomicBool>,
    /// Per-query memory grant in bytes; `None` = the full global budget.
    grant: Option<usize>,
    /// Deterministic injection: latch a cancel once `polls` reaches this.
    cancel_at_poll: u64,
    /// Checkpoint polls so far (every `check()` call counts one).
    polls: AtomicU64,
    /// Work units (batch/morsel/spill-run/build-block) that *completed*
    /// after the cancel flag was already set — the cancellation-latency
    /// meter. Debug builds only; asserted ≤ in-flight bound by the tests.
    #[cfg(debug_assertions)]
    units_after_cancel: AtomicU64,
}

/// Per-statement governance token: cancellation + deadline + memory grant.
///
/// Cheap to clone (`Arc` inside) and `Send + Sync`, so parallel workers
/// share one token. Created by `Database` for every statement; tests and
/// standalone operators use [`QueryContext::unbounded`].
#[derive(Debug, Clone)]
pub struct QueryContext {
    inner: Arc<QueryInner>,
}

impl QueryContext {
    fn build(
        timeout_ms: Option<u64>,
        grant: Option<usize>,
        interrupt: Arc<AtomicBool>,
        cancel_at_poll: Option<u64>,
    ) -> Self {
        let timeout_ms = timeout_ms.unwrap_or(0);
        QueryContext {
            inner: Arc::new(QueryInner {
                kind: AtomicU8::new(KIND_NONE),
                deadline: (timeout_ms > 0)
                    .then(|| Instant::now() + Duration::from_millis(timeout_ms)),
                timeout_ms,
                interrupt,
                grant,
                cancel_at_poll: cancel_at_poll.unwrap_or(POLL_DISARMED),
                polls: AtomicU64::new(0),
                #[cfg(debug_assertions)]
                units_after_cancel: AtomicU64::new(0),
            }),
        }
    }

    /// A token with no deadline, no grant, and a private interrupt flag —
    /// the identity element of governance. Used by operator unit tests and
    /// as the default for contexts built outside a statement.
    pub fn unbounded() -> Self {
        Self::build(None, None, Arc::new(AtomicBool::new(false)), None)
    }

    /// Token for one statement. `interrupt` is the database's session flag
    /// (shared with [`CancelHandle`]); `cancel_at_poll` arms deterministic
    /// cancel injection at the n-th checkpoint poll.
    pub(crate) fn begin(
        timeout_ms: Option<u64>,
        grant: Option<usize>,
        interrupt: Arc<AtomicBool>,
        cancel_at_poll: Option<u64>,
    ) -> Self {
        Self::build(timeout_ms, grant, interrupt, cancel_at_poll)
    }

    /// Latch `kind` as the query outcome unless one is already latched.
    fn latch(&self, kind: u8) {
        let _ = self.inner.kind.compare_exchange(
            KIND_NONE,
            kind,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Request cooperative cancellation of this query directly.
    pub fn cancel(&self) {
        self.latch(KIND_CANCELLED);
    }

    /// Whether a cancel/interrupt is already visible (latched outcome or the
    /// external interrupt flag). Does not consult the deadline.
    pub fn is_cancelled(&self) -> bool {
        self.inner.kind.load(Ordering::Relaxed) != KIND_NONE
            || self.inner.interrupt.load(Ordering::Relaxed)
    }

    /// The latched typed error, if any.
    fn latched(&self) -> Option<Error> {
        match self.inner.kind.load(Ordering::Relaxed) {
            KIND_CANCELLED => Some(Error::Cancelled),
            KIND_TIMEOUT => Some(Error::Timeout { ms: self.inner.timeout_ms }),
            _ => None,
        }
    }

    /// Checkpoint poll. Operators call this before starting each unit of
    /// work (batch, morsel, spill run, build block). Returns the latched
    /// typed error once the query is cancelled or past its deadline; the
    /// first failing check decides which error every later check repeats.
    #[inline]
    pub fn check(&self) -> Result<()> {
        let inner = &self.inner;
        let poll = inner.polls.fetch_add(1, Ordering::Relaxed) + 1;
        if poll >= inner.cancel_at_poll {
            self.latch(KIND_CANCELLED);
        }
        if let Some(e) = self.latched() {
            return Err(e);
        }
        if inner.interrupt.load(Ordering::Relaxed) {
            self.latch(KIND_CANCELLED);
            return Err(self.latched().unwrap_or(Error::Cancelled));
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                self.latch(KIND_TIMEOUT);
                return Err(self.latched().unwrap_or(Error::Timeout {
                    ms: inner.timeout_ms,
                }));
            }
        }
        Ok(())
    }

    /// Record that one unit of work finished. In debug builds this counts
    /// units completed *after* cancellation became visible — the latency
    /// meter behind the "every operator observes cancel within one
    /// batch/morsel/spill-run" invariant. Free in release builds.
    #[inline]
    pub fn note_unit(&self) {
        #[cfg(debug_assertions)]
        if self.is_cancelled() {
            self.inner.units_after_cancel.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Units of work that completed after the cancel flag was set. Always 0
    /// in release builds (the meter is debug-only) and for queries that were
    /// never cancelled. Bounded by one in-flight unit per worker plus one
    /// per operator on the executing stack; the cancellation tests assert
    /// this against [`QueryContext::latency_bound`].
    pub fn units_after_cancel(&self) -> u64 {
        #[cfg(debug_assertions)]
        {
            self.inner.units_after_cancel.load(Ordering::Relaxed)
        }
        #[cfg(not(debug_assertions))]
        {
            0
        }
    }

    /// Checkpoint polls observed so far.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }

    /// Debug-mode ceiling on [`QueryContext::units_after_cancel`]: when the
    /// flag flips, each of the `parallelism` workers may finish the morsel
    /// it already started, and each operator on the in-flight call stack
    /// (bounded by plan depth, itself capped well under
    /// `crate::db`'s big-stack threshold) may finish its current unit.
    pub fn latency_bound(parallelism: usize, plan_depth: usize) -> u64 {
        (parallelism + plan_depth + 1) as u64
    }

    /// Fail-fast grant admission: reject a reservation request that could
    /// never fit this query's memory grant, *before* any allocation or
    /// spill. `requested` is the would-be total holding of the requesting
    /// operator, not the increment.
    #[inline]
    pub fn admit(&self, requested: usize) -> Result<()> {
        match self.inner.grant {
            Some(grant) if requested > grant => {
                Err(Error::OutOfMemory { requested, budget: grant })
            }
            _ => Ok(()),
        }
    }

    /// The per-query memory grant in bytes, if one was carved.
    pub fn grant(&self) -> Option<usize> {
        self.inner.grant
    }
}

impl Default for QueryContext {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// External cancellation handle for a database session.
///
/// Returned by [`crate::Database::cancel_handle`]; clone it into any thread
/// (a Ctrl-C handler, a future async server's reaper) and call
/// [`CancelHandle::cancel`] to interrupt the statement in flight *and* any
/// statement started before [`CancelHandle::reset`] is called — the flag is
/// sticky by design so a cancel delivered between statements is not lost.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// A fresh, un-cancelled handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cooperative cancellation (async-signal-safe: one atomic store).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether a cancel has been requested and not yet [`CancelHandle::reset`].
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Clear the flag so the session can execute statements again.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }

    /// The shared flag, for wiring into per-statement [`QueryContext`]s.
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Retry/backoff schedule shared by the admission queue and process slots:
/// exponential from 1 ms, capped at 25 ms per wait, 8 attempts (~100 ms of
/// queueing total) before the typed [`Error::Overloaded`] rejection.
const ADMIT_ATTEMPTS: u32 = 8;

fn backoff(attempt: u32) -> Duration {
    Duration::from_millis((1u64 << attempt.min(6)).min(25))
}

#[derive(Debug)]
struct AdmissionInner {
    max: usize,
    active: AtomicUsize,
}

/// Bounded concurrent-query admission: at most `max` statements hold a
/// grant at once. Cheap to clone; clones share one ledger, so several
/// `Database` handles (one per session thread) can share one controller.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    inner: Arc<AdmissionInner>,
}

impl AdmissionController {
    /// A controller admitting up to `max` concurrent statements (min 1).
    pub fn new(max: usize) -> Self {
        AdmissionController {
            inner: Arc::new(AdmissionInner {
                max: max.max(1),
                active: AtomicUsize::new(0),
            }),
        }
    }

    /// The configured concurrency limit.
    pub fn max_concurrent(&self) -> usize {
        self.inner.max
    }

    /// Grants currently held.
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::Relaxed)
    }

    /// Try to take a grant without queueing.
    pub fn try_admit(&self) -> Option<AdmissionGrant> {
        let mut cur = self.inner.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.inner.max {
                return None;
            }
            match self.inner.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(AdmissionGrant { inner: Arc::clone(&self.inner) })
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Take a grant, queueing through the bounded retry/backoff schedule;
    /// rejects with [`Error::Overloaded`] once the schedule is exhausted.
    pub fn admit(&self) -> Result<AdmissionGrant> {
        for attempt in 0..ADMIT_ATTEMPTS {
            if let Some(grant) = self.try_admit() {
                return Ok(grant);
            }
            std::thread::sleep(backoff(attempt));
        }
        Err(Error::Overloaded { active: self.active(), max: self.inner.max })
    }
}

impl Default for AdmissionController {
    /// Generous default: governance is opt-in, so a lone embedded `Database`
    /// never queues, but a runaway fan-out still hits a hard ceiling.
    fn default() -> Self {
        Self::new(64)
    }
}

/// RAII admission grant; releasing (drop) frees the slot for the queue.
#[derive(Debug)]
pub struct AdmissionGrant {
    inner: Arc<AdmissionInner>,
}

impl Drop for AdmissionGrant {
    fn drop(&mut self) {
        self.inner.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// RAII process slot on a durable database directory (see
/// [`acquire_process_slot`]); removes its lock file on drop.
#[derive(Debug)]
pub(crate) struct SlotGuard {
    path: PathBuf,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Bound the number of processes concurrently opening one durable database
/// directory: try to `create_new` one of `slots` lock files under
/// `<dir>/slots/`, retrying on the shared backoff schedule, then reject
/// with [`Error::Overloaded`]. `slots == 0` disables the mechanism
/// (`Ok(None)`). A process killed without running drop leaves its lock
/// behind; deleting `<dir>/slots/` clears stale slots (the files carry no
/// state beyond existence).
pub(crate) fn acquire_process_slot(dir: &Path, slots: usize) -> Result<Option<SlotGuard>> {
    if slots == 0 {
        return Ok(None);
    }
    let slot_dir = dir.join("slots");
    fs::create_dir_all(&slot_dir)?;
    for attempt in 0..ADMIT_ATTEMPTS {
        for i in 0..slots {
            let path = slot_dir.join(format!("slot-{i}.lock"));
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => return Ok(Some(SlotGuard { path })),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e.into()),
            }
        }
        std::thread::sleep(backoff(attempt));
    }
    Err(Error::Overloaded { active: slots, max: slots })
}

/// `QYMERA_DB_SLOTS` — process-slot count for durable opens; 0 (default)
/// disables. Panics on an unparsable value, matching the other env knobs.
pub(crate) fn env_db_slots() -> usize {
    match std::env::var("QYMERA_DB_SLOTS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("QYMERA_DB_SLOTS must be an integer, got {v:?}")),
        Err(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_checks_pass_and_count_polls() {
        let q = QueryContext::unbounded();
        for _ in 0..5 {
            q.check().unwrap();
        }
        assert_eq!(q.polls(), 5);
        assert_eq!(q.units_after_cancel(), 0);
    }

    #[test]
    fn cancel_latches_and_repeats() {
        let q = QueryContext::unbounded();
        q.check().unwrap();
        q.cancel();
        assert!(matches!(q.check(), Err(Error::Cancelled)));
        assert!(matches!(q.check(), Err(Error::Cancelled)));
        assert!(q.is_cancelled());
    }

    #[test]
    fn poll_armed_cancel_fires_at_nth_check() {
        let interrupt = Arc::new(AtomicBool::new(false));
        let q = QueryContext::begin(None, None, interrupt, Some(3));
        q.check().unwrap();
        q.check().unwrap();
        assert!(matches!(q.check(), Err(Error::Cancelled)));
    }

    #[test]
    fn expired_deadline_latches_timeout_over_later_cancel() {
        let interrupt = Arc::new(AtomicBool::new(false));
        let q = QueryContext::begin(Some(1), None, interrupt, None);
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(q.check(), Err(Error::Timeout { ms: 1 })));
        q.cancel();
        // First latched outcome wins.
        assert!(matches!(q.check(), Err(Error::Timeout { ms: 1 })));
    }

    #[test]
    fn interrupt_flag_cancels_and_reset_restores() {
        let handle = CancelHandle::new();
        let q = QueryContext::begin(None, None, handle.flag(), None);
        q.check().unwrap();
        handle.cancel();
        assert!(matches!(q.check(), Err(Error::Cancelled)));
        handle.reset();
        // The outcome stays latched for this statement even after reset.
        assert!(matches!(q.check(), Err(Error::Cancelled)));
        let q2 = QueryContext::begin(None, None, handle.flag(), None);
        q2.check().unwrap();
    }

    #[test]
    fn units_after_cancel_counts_only_post_cancel_units() {
        let q = QueryContext::unbounded();
        q.note_unit();
        q.note_unit();
        assert_eq!(q.units_after_cancel(), 0);
        q.cancel();
        q.note_unit();
        if cfg!(debug_assertions) {
            assert_eq!(q.units_after_cancel(), 1);
        } else {
            assert_eq!(q.units_after_cancel(), 0);
        }
    }

    #[test]
    fn grant_admission_fails_fast() {
        let interrupt = Arc::new(AtomicBool::new(false));
        let q = QueryContext::begin(None, Some(1000), interrupt, None);
        q.admit(1000).unwrap();
        let err = q.admit(1001).unwrap_err();
        assert!(
            matches!(err, Error::OutOfMemory { requested: 1001, budget: 1000 }),
            "got {err:?}"
        );
        QueryContext::unbounded().admit(usize::MAX).unwrap();
    }

    #[test]
    fn admission_controller_bounds_and_releases() {
        let ctl = AdmissionController::new(2);
        let g1 = ctl.try_admit().unwrap();
        let _g2 = ctl.try_admit().unwrap();
        assert!(ctl.try_admit().is_none());
        assert_eq!(ctl.active(), 2);
        let err = ctl.admit().unwrap_err();
        assert!(matches!(err, Error::Overloaded { active: 2, max: 2 }));
        drop(g1);
        let _g3 = ctl.admit().unwrap();
        assert_eq!(ctl.active(), 2);
    }

    #[test]
    fn process_slots_bound_concurrent_opens() {
        let dir = std::env::temp_dir().join(format!(
            "qymera-govern-slots-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert!(acquire_process_slot(&dir, 0).unwrap().is_none());
        let g1 = acquire_process_slot(&dir, 2).unwrap().unwrap();
        let g2 = acquire_process_slot(&dir, 2).unwrap().unwrap();
        let err = acquire_process_slot(&dir, 2).unwrap_err();
        assert!(matches!(err, Error::Overloaded { active: 2, max: 2 }));
        drop(g1);
        let _g3 = acquire_process_slot(&dir, 2).unwrap().unwrap();
        drop(g2);
        drop(_g3);
        assert_eq!(fs::read_dir(dir.join("slots")).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
