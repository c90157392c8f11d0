//! The final state leaves the engine once: `SqlSimulator::simulate` on
//! `wide_dense`'s circuit shape — a 14-qubit one-layer ansatz, here with
//! fixed angles, whose final state holds all 16,384 amplitudes — stays
//! under a fixed number of heap allocations. A count, not a stopwatch, so
//! the bound holds on any machine. Copying the state into a map again, one
//! node per ~11 amplitudes, trips it.
//!
//! It counts every thread of the process, so it keeps to one test: nothing
//! else runs in this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qymera_circuit::library;
use qymera_sim::{SimOptions, Simulator};
use qymera_translate::SqlSimulator;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to `System` with its arguments unchanged,
// so `System`'s guarantees are this allocator's; counting touches only an
// atomic integer, never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn wide_state_simulate_allocations_stay_bounded() {
    // 10,612 while `simulate` copied the state into a `Vec<SqlAmplitude>`
    // and then a `BTreeMap` (one node per ~11 amplitudes: ~1,490 of them);
    // 9,107 reading the columns straight into `Amplitudes`. The bound is
    // that count + 10 %.
    const BOUND: u64 = 10_018;
    let ansatz = library::hardware_efficient_ansatz(14, 1);
    let angles: Vec<f64> = (0..ansatz.symbols().len()).map(|k| 0.3 + 0.09 * k as f64).collect();
    let circuit = ansatz.bind_values(&angles).unwrap();
    let sim = SqlSimulator::default();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = sim.simulate(&circuit, &SimOptions::default()).unwrap();
    let used = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(out.amplitudes.len(), 1 << 14);
    assert!(used <= BOUND, "SqlSimulator::simulate made {used} allocations (bound {BOUND})");
}
