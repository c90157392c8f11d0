//! Execution's cost follows the work a gate does: `SqlSimulator::run` on
//! `deep_sparse`'s circuit — translate, load, parse, plan, optimize,
//! execute, collect — stays under a fixed number of heap allocations. A
//! count, not a stopwatch, so the bound holds on any machine. A lone gate
//! that cannot interfere joined with its gate table again, or gate tables
//! created that no query reads, add thousands and trip it.
//!
//! A plan deeper than the caller's stack budget runs on a thread of its own
//! (this one does in a debug build), so this counts every thread and keeps
//! to one test: nothing else runs in this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qymera_circuit::library;
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
fn deep_sparse_run_allocations_stay_bounded() {
    // 26,433 when every gate joined its gate table; 7,296 with the 70
    // gates written as projections; 4,776 once lowering stopped building a
    // fusion block per lone gate and the SQL text went into one buffer;
    // 4,562 once the optimizer and the tables stopped deriving and copying
    // column facts. The bound is that count + 10 %.
    const BOUND: u64 = 5_018;
    // perfbench's `deep_sparse`: a parity check of 46 bits, 24 set, is 70
    // gates, one CTE each.
    let input: Vec<bool> = (0..46).map(|q| q % 2 == 0 || q == 45).collect();
    let circuit = library::parity_check(&input);
    let sim = SqlSimulator::default();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = sim.run(&circuit).unwrap();
    let used = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(result.support(), 1);
    assert!(used <= BOUND, "SqlSimulator::run made {used} allocations (bound {BOUND})");
}
