//! Byte-accurate memory accounting.
//!
//! The paper's headline experiment runs both simulators under a fixed memory
//! limit (2.0 GB) and measures how many qubits each can reach. To make that
//! experiment reproducible in software, every operator and base table in this
//! engine charges its storage against a shared [`MemoryBudget`] — operators
//! per row of transient state, base tables per column chunk (see
//! [`crate::table`]). When a reservation fails, operators spill to disk
//! (hash aggregation, sorting) or abort with
//! [`crate::error::Error::OutOfMemory`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared memory ledger. Cheap to clone (`Arc` inside).
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// Total bytes permitted; `usize::MAX` means unlimited.
    limit: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
}

impl MemoryBudget {
    /// A budget capped at `limit` bytes.
    pub fn with_limit(limit: usize) -> Self {
        MemoryBudget {
            inner: Arc::new(Inner {
                limit,
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
            }),
        }
    }

    /// An effectively unlimited budget (still tracks usage and peak).
    pub fn unlimited() -> Self {
        Self::with_limit(usize::MAX)
    }

    /// Configured limit in bytes.
    pub fn limit(&self) -> usize {
        self.inner.limit
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// High-water mark of reserved bytes.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// High-water mark of bytes reserved **past the limit**. Every
    /// reservation is refused past the limit (an operator's working-set
    /// floor goes uncharged instead), so this stays 0; the differential-fuzz
    /// harness asserts it on memory-limited cases. Meaningless for an
    /// unlimited budget.
    pub fn peak_overshoot(&self) -> usize {
        let limit = self.inner.limit;
        if limit == usize::MAX {
            return 0;
        }
        self.peak().saturating_sub(limit)
    }

    /// Try to reserve `bytes`; returns `false` if it would exceed the limit.
    #[must_use]
    pub fn try_reserve(&self, bytes: usize) -> bool {
        let mut cur = self.inner.used.load(Ordering::Relaxed);
        loop {
            let Some(next) = cur.checked_add(bytes) else { return false };
            if next > self.inner.limit {
                return false;
            }
            match self.inner.used.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(next, Ordering::Relaxed);
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Release previously reserved bytes.
    pub fn release(&self, bytes: usize) {
        let prev = self.inner.used.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "memory ledger underflow: released {bytes} of {prev}");
    }

    /// Reset usage to zero (used between benchmark iterations).
    pub fn reset(&self) {
        self.inner.used.store(0, Ordering::Relaxed);
        self.inner.peak.store(0, Ordering::Relaxed);
    }
}

/// RAII guard holding a reservation; releases on drop.
#[derive(Debug)]
pub struct Reservation {
    budget: MemoryBudget,
    bytes: usize,
}

impl Reservation {
    /// Reserve `bytes` against `budget`, or `None` if over limit.
    pub fn try_new(budget: &MemoryBudget, bytes: usize) -> Option<Self> {
        if budget.try_reserve(bytes) {
            Some(Reservation { budget: budget.clone(), bytes })
        } else {
            None
        }
    }

    /// An empty reservation that can grow.
    pub fn empty(budget: &MemoryBudget) -> Self {
        Reservation { budget: budget.clone(), bytes: 0 }
    }

    /// Grow this reservation by `bytes`.
    #[must_use]
    pub fn try_grow(&mut self, bytes: usize) -> bool {
        if self.budget.try_reserve(bytes) {
            self.bytes += bytes;
            true
        } else {
            false
        }
    }

    /// Shrink this reservation by `bytes` (saturating).
    pub fn shrink(&mut self, bytes: usize) {
        let b = bytes.min(self.bytes);
        self.budget.release(b);
        self.bytes -= b;
    }

    /// Release everything (also happens on drop).
    pub fn free(&mut self) {
        self.budget.release(self.bytes);
        self.bytes = 0;
    }

    /// The ledger this reservation charges (used by base tables to report
    /// the limit in out-of-memory errors).
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Bytes currently held by this reservation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.free();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let b = MemoryBudget::with_limit(100);
        assert!(b.try_reserve(60));
        assert!(!b.try_reserve(50));
        assert!(b.try_reserve(40));
        assert_eq!(b.used(), 100);
        b.release(100);
        assert_eq!(b.used(), 0);
        assert_eq!(b.peak(), 100);
    }

    #[test]
    fn reservation_guard_frees_on_drop() {
        let b = MemoryBudget::with_limit(100);
        {
            let mut r = Reservation::try_new(&b, 30).unwrap();
            assert!(r.try_grow(30));
            assert_eq!(b.used(), 60);
            r.shrink(10);
            assert_eq!(b.used(), 50);
        }
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn a_refused_reservation_leaves_no_overshoot() {
        let b = MemoryBudget::with_limit(100);
        assert!(b.try_reserve(90));
        assert!(!b.try_reserve(30));
        b.release(90);
        assert_eq!((b.peak(), b.peak_overshoot()), (90, 0));
        assert_eq!(MemoryBudget::unlimited().peak_overshoot(), 0);
    }

    #[test]
    fn unlimited_tracks_peak() {
        let b = MemoryBudget::unlimited();
        assert!(b.try_reserve(1 << 30));
        b.release(1 << 30);
        assert_eq!(b.peak(), 1 << 30);
    }

    #[test]
    fn concurrent_reservations_respect_limit() {
        let b = MemoryBudget::with_limit(1000);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let b = b.clone();
                std::thread::spawn(move || {
                    let mut got = 0usize;
                    for _ in 0..1000 {
                        if b.try_reserve(1) {
                            got += 1;
                        }
                    }
                    got
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total <= 1000);
        assert_eq!(b.used(), total);
    }
}
