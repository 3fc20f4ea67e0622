//! Allocation budget of the prepared engine: once a query is prepared and
//! its cover memoized, an evaluation allocates per *run* and per buffer
//! doubling — never per row or per `Recursive-Join` call. Counts are
//! exact and repeat bit-for-bit, so a budget is a safe tier-1 assertion
//! where a time threshold would not be.
//!
//! Its own test binary because it swaps in a counting global allocator.

mod common;

use common::over_delta;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wcoj_core::nprr::PreparedQuery;
use wcoj_datagen::cycle_instance;
use wcoj_storage::{FlatIndex, Relation, SearchTree};

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local counter bump, which does not allocate (const-init
// `Cell`, no destructor) and is skipped if the thread is being torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) per output row of one warm
/// `evaluate(None)`.
///
/// Also asserts the sharper property behind the budget: the run allocates
/// fewer times than it makes case-a recursive calls, so nothing on the
/// `Recursive-Join` path allocates per call.
fn allocations_per_row<S: SearchTree>(prepared: &PreparedQuery<S>) -> f64 {
    let warm = prepared.evaluate(None).unwrap(); // memoizes the cover LP
    let before = ALLOCATIONS.with(Cell::get);
    let out = prepared.evaluate(None).unwrap();
    let spent = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(out.relation, warm.relation);
    assert!(
        out.stats.case_a > 0 && out.stats.case_b > 0,
        "both cases ran"
    );
    assert!(
        spent < out.stats.case_a,
        "{spent} allocations for {} case-a calls",
        out.stats.case_a
    );
    spent as f64 / out.relation.len() as f64
}

/// The budget on every backend the engine serves from: a bare
/// `FlatIndex`, and a `DeltaIndex` with empty and with live buffers.
fn assert_budget(rels: &[Relation], max_per_row: f64) {
    let columns = [
        (
            "flat",
            allocations_per_row(&PreparedQuery::<FlatIndex>::new_indexed(rels).unwrap()),
        ),
        ("delta", allocations_per_row(&over_delta(rels, false))),
        (
            "delta, live buffers",
            allocations_per_row(&over_delta(rels, true)),
        ),
    ];
    for (backend, per_row) in columns {
        assert!(
            per_row <= max_per_row,
            "{backend}: {per_row} allocations per output row"
        );
    }
}

#[test]
fn four_cycle_stays_under_two_allocations_per_row() {
    assert_budget(&cycle_instance(11, 4, 2000, 200), 2.0);
}

#[test]
fn wide_triangle_stays_under_one_allocation_per_row() {
    assert_budget(&cycle_instance(7, 3, 4000, 150), 1.0);
}
