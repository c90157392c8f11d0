//! Query-lifecycle governance: cooperative cancellation and deadlines.
//!
//! Every statement executes under a [`QueryContext`] — a shared token
//! carrying the cancel flag and the optional deadline. Operators call
//! [`QueryContext::check`] at every unit boundary (one batch, one spill
//! run); the first failing check latches the outcome so every operator
//! surfaces the *same* typed error ([`Error::Cancelled`] or
//! [`Error::Timeout`]) no matter which one observed it first. Cancellation
//! is cooperative: nothing is killed mid-write, so the ordinary cleanup
//! (spill files, ledger reservations, `TableUndo` rollback — the log holds
//! nothing before `COMMIT`) runs exactly as it does for any other
//! statement error.
//!
//! There is no admission queue: the engine is embedded, and one `Database`
//! is one session that runs one statement at a time.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
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
    /// Deterministic injection: latch a cancel once `polls` reaches this.
    cancel_at_poll: u64,
    /// Checkpoint polls so far (every `check()` call counts one).
    polls: AtomicU64,
    /// Work units (batch/spill-run) that *completed* after the cancel flag
    /// was already set — the cancellation-latency meter. Debug builds only;
    /// asserted ≤ in-flight bound by the tests.
    #[cfg(debug_assertions)]
    units_after_cancel: AtomicU64,
}

/// Per-statement governance token: cancellation + deadline.
///
/// Cheap to clone (`Arc` inside) and `Send + Sync`: a statement may run on
/// the big-stack execution thread (a plan over the caller's stack budget)
/// while another thread cancels it.
/// Created by `Database` for every statement; tests and standalone
/// operators use [`QueryContext::unbounded`].
#[derive(Debug, Clone)]
pub struct QueryContext {
    inner: Arc<QueryInner>,
}

impl QueryContext {
    /// Token for one statement. `interrupt` is the database's session flag
    /// (shared with [`CancelHandle`]); `cancel_at_poll` arms deterministic
    /// cancel injection at the n-th checkpoint poll.
    pub(crate) fn begin(
        timeout_ms: Option<u64>,
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
                cancel_at_poll: cancel_at_poll.unwrap_or(POLL_DISARMED),
                polls: AtomicU64::new(0),
                #[cfg(debug_assertions)]
                units_after_cancel: AtomicU64::new(0),
            }),
        }
    }

    /// A token with no deadline and a private interrupt flag — the identity
    /// element of governance. Used by operator unit tests and as the default
    /// for contexts built outside a statement.
    pub fn unbounded() -> Self {
        Self::begin(None, Arc::new(AtomicBool::new(false)), None)
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
    /// work (batch, spill run). Returns the latched typed error once the
    /// query is cancelled or past its deadline; the first failing check
    /// decides which error every later check repeats.
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
    /// batch/spill-run" invariant. Free in release builds.
    #[inline]
    pub fn note_unit(&self) {
        #[cfg(debug_assertions)]
        if self.is_cancelled() {
            self.inner.units_after_cancel.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Units of work that completed after the cancel flag was set. Always 0
    /// in release builds (the meter is debug-only) and for queries that were
    /// never cancelled. Bounded by one unit per operator on the executing
    /// stack; the cancellation tests assert this against
    /// [`QueryContext::latency_bound`].
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
    /// flag flips, the executing thread may finish the unit it started, and
    /// each operator on its call stack (at most one per plan level, so the
    /// bound grows with the plan: a gate chain adds a few levels per gate)
    /// may finish its current unit.
    pub fn latency_bound(plan_depth: usize) -> u64 {
        (plan_depth + 1) as u64
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
        let q = QueryContext::begin(None, interrupt, Some(3));
        q.check().unwrap();
        q.check().unwrap();
        assert!(matches!(q.check(), Err(Error::Cancelled)));
    }

    #[test]
    fn expired_deadline_latches_timeout_over_later_cancel() {
        let interrupt = Arc::new(AtomicBool::new(false));
        let q = QueryContext::begin(Some(1), interrupt, None);
        let past = Instant::now() + Duration::from_millis(2);
        while Instant::now() < past {
            std::hint::spin_loop();
        }
        assert!(matches!(q.check(), Err(Error::Timeout { ms: 1 })));
        q.cancel();
        // First latched outcome wins.
        assert!(matches!(q.check(), Err(Error::Timeout { ms: 1 })));
    }

    #[test]
    fn interrupt_flag_cancels_and_reset_restores() {
        let handle = CancelHandle::new();
        let q = QueryContext::begin(None, handle.flag(), None);
        q.check().unwrap();
        handle.cancel();
        assert!(matches!(q.check(), Err(Error::Cancelled)));
        handle.reset();
        // The outcome stays latched for this statement even after reset.
        assert!(matches!(q.check(), Err(Error::Cancelled)));
        let q2 = QueryContext::begin(None, handle.flag(), None);
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
}
