//! The front end's cost follows a query's tokens, not copies of them:
//! parse, plan and optimize of `deep_sparse`'s 70-CTE query stay under a
//! fixed number of heap allocations. A count, not a stopwatch, so the bound
//! holds on any machine. Tokens that own their text, select items cloned
//! before binding, or `Plan::schema()` handing out copies each add
//! thousands and trip it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qymera_check::circuits::translation_with_catalog;
use qymera_circuit::library;
use qymera_sqldb::ast::Statement;
use qymera_sqldb::parser::parse_statement;
use qymera_sqldb::plan::logical::plan_query;
use qymera_sqldb::plan::optimizer::optimize;
use qymera_translate::SqlGenConfig;

/// Counts the allocations (and reallocations) of the calling thread only,
/// so tests running beside this one add nothing.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the thread's slot may already be gone while it exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` with its arguments unchanged,
// so `System`'s guarantees are this allocator's; counting touches only a
// thread-local integer, never the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn deep_sparse_front_end_allocations_stay_bounded() {
    // 38,941 before tokens borrowed the text and the planner bound each
    // expression once; 14,215 after (14,781 when measured again); 13,848
    // once the optimizer stopped deriving column facts. The bound is that
    // count + 10 %.
    const BOUND: u64 = 15_233;
    // perfbench's `deep_sparse`: a parity check of 46 bits, 24 set, is 70
    // gates, one CTE each.
    let input: Vec<bool> = (0..46).map(|q| q % 2 == 0 || q == 45).collect();
    let (sql, catalog) =
        translation_with_catalog(&library::parity_check(&input), &SqlGenConfig::FIG_2C);
    let before = allocations();
    let Statement::Query(query) = parse_statement(&sql).unwrap() else {
        panic!("not a query")
    };
    let plan = optimize(plan_query(&query, &catalog).unwrap());
    let used = allocations() - before;
    assert_eq!(plan.explain().lines().count(), 353);
    assert!(used <= BOUND, "parse + plan + optimize made {used} allocations (bound {BOUND})");
}
