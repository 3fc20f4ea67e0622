//! Allocation budget of a plan-cache **miss**: what a cold build costs
//! must depend on the query's constants alone. A constant-free atom takes
//! its relation's base and that base's shared index; a constant-bearing
//! atom indexes only its section's rows. And of a **refresh** after a
//! write: only the written relation gets a new index, and a
//! constant-bearing atom's costs its section plus the buffers. Counts are
//! exact and repeat bit-for-bit, so the budget is a safe tier-1 assertion
//! where a time threshold would not be.
//!
//! Its own test binary because it swaps in a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use wcoj_datagen::random_relation;
use wcoj_query::{execute, parse_query, Catalog};
use wcoj_storage::{Attr, Value};

thread_local! {
    /// Bytes requested by this thread.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local counter bump, which does not allocate (const-init
// `Cell`, no destructor) and is skipped if the thread is being torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` makes this thread allocate.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const ROWS: usize = 20_000;
const CONSTANTS: u64 = 100;
/// The plan cache's capacity (`plan_cache::CAPACITY`).
const CACHED_PLANS: usize = 64;

#[test]
fn a_miss_costs_its_constant_not_its_relations() {
    let mut catalog = Catalog::new();
    for (seed, name) in ["R", "S", "T"].into_iter().enumerate() {
        catalog.insert(name, random_relation(seed as u64 + 1, &[0, 1], ROWS, 1000));
    }

    let mut misses = Vec::new();
    for c in 0..CONSTANTS {
        let q = parse_query(&format!("Ans(y, z) :- R({c}, y), S(y, z), T({c}, z).")).unwrap();
        let (out, bytes) = allocated_by(|| execute(&q, &catalog).unwrap());
        // Against the scan: R's rows with first column c, joined by hand.
        let s = catalog.get("S").unwrap();
        let under_c = |name: &str| -> Vec<u64> {
            let rel = catalog.get(name).unwrap();
            let seconds = rel.iter_rows().filter(|r| r[0].0 == c).map(|r| r[1].0);
            seconds.collect()
        };
        let (ys, zs) = (under_c("R"), under_c("T"));
        let expected = s
            .iter_rows()
            .filter(|r| ys.contains(&r[0].0) && zs.contains(&r[1].0))
            .count();
        assert_eq!(out.relation.len(), expected, "constant {c}");
        misses.push(bytes);
    }
    assert_eq!(
        catalog.plan_cache_stats(),
        (0, CONSTANTS),
        "every constant is its own miss"
    );

    // The first miss indexes R, S and T; S's index alone is two
    // ROWS-long level arrays.
    assert!(
        misses[0] > ROWS * 2 * size_of::<u64>(),
        "first miss allocated {} B",
        misses[0]
    );
    // No later miss can have copied, sorted or indexed a 20 000-row
    // relation again: each of those is hundreds of KiB.
    for (c, &bytes) in misses.iter().enumerate().skip(1) {
        assert!(
            bytes < 64 << 10,
            "miss for constant {c} allocated {bytes} B"
        );
    }

    // S was indexed exactly once: the order the plans use is already
    // built (asking for it allocates next to nothing), and that one
    // index is held by S's base, by every cached plan, and by us.
    let s = catalog.delta("S").unwrap();
    let built: Vec<_> = [[0, 1], [1, 0]]
        .into_iter()
        .filter_map(|order| {
            let (index, bytes) = allocated_by(|| s.base_index(&order.map(Attr)).unwrap());
            (bytes < 1 << 10).then_some(index)
        })
        .collect();
    assert_eq!(built.len(), 1, "the plans index S under one column order");
    assert_eq!(Arc::strong_count(&built[0]), 1 + CACHED_PLANS + 1);
}

/// 64 rows for a relation over the 1 000-value domain: `(first, 1000 + i)`,
/// so none is already there.
fn write(first: impl Fn(u64) -> u64) -> Vec<Vec<Value>> {
    (0..64)
        .map(|i| vec![Value(first(i)), Value(1000 + i)])
        .collect()
}

#[test]
fn a_refresh_costs_its_changed_relation() {
    let mut catalog = Catalog::new();
    for (seed, name) in ["R", "S", "T"].into_iter().enumerate() {
        catalog.insert(name, random_relation(seed as u64 + 1, &[0, 1], ROWS, 1000));
    }
    let schema_order = [0, 1].map(Attr);
    let index = |catalog: &Catalog, name: &str| {
        let delta = catalog.delta(name).unwrap();
        delta.index(&schema_order).unwrap()
    };

    // The triangle's plan reads every relation in schema order: the
    // index the relation serves at its current version, held by the
    // relation (its base or its version), by the cached plan and by us.
    let triangle = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();
    catalog.insert_rows("R", &write(|i| i)).unwrap();
    let before = execute(&triangle, &catalog).unwrap().relation;
    let (r_old, s_idx, t_idx) = (
        index(&catalog, "R"),
        index(&catalog, "S"),
        index(&catalog, "T"),
    );
    for held in [&r_old, &s_idx, &t_idx] {
        assert_eq!(Arc::strong_count(held), 3);
    }
    let snapshot = catalog.freeze();

    // A second write to R refreshes the plan. The refreshed plan holds
    // S's and T's indexes in place of the old plan's hold on the very
    // same ones, and a new one for R.
    catalog.insert_rows("R", &write(|i| 64 + i)).unwrap();
    let after = execute(&triangle, &catalog).unwrap().relation;
    assert_eq!(catalog.plan_cache().refreshes(), 1);
    assert!(after.len() >= before.len());
    assert!(Arc::ptr_eq(&index(&catalog, "S"), &s_idx));
    assert!(Arc::ptr_eq(&index(&catalog, "T"), &t_idx));
    for held in [&s_idx, &t_idx] {
        assert_eq!(Arc::strong_count(held), 3, "the refreshed plan kept it");
    }
    let r_new = index(&catalog, "R");
    assert!(!Arc::ptr_eq(&r_new, &r_old));
    assert_eq!(Arc::strong_count(&r_new), 3, "the refreshed plan holds it");
    assert_eq!(r_new.num_rows(), catalog.delta("R").unwrap().len());

    // R's old version is superseded: the plan cache let go of it, the
    // snapshot still reads it, and it goes with the snapshot.
    let old = Arc::downgrade(&r_old);
    drop(r_old);
    assert!(old.upgrade().is_some(), "the snapshot still reads it");
    drop(snapshot);
    assert!(old.upgrade().is_none());

    // A point query's refresh after a write to its constant's section
    // merges that section with the buffers: no 20 000-row relation is
    // copied, sorted, merged or indexed again.
    let c = 7;
    let point = parse_query(&format!("Ans(y, z) :- R({c}, y), S(y, z), T({c}, z).")).unwrap();
    let cold = execute(&point, &catalog).unwrap().relation;
    catalog.insert_rows("R", &write(|_| c)).unwrap();
    let (warm, bytes) = allocated_by(|| execute(&point, &catalog).unwrap().relation);
    assert_eq!(catalog.plan_cache().refreshes(), 2);
    assert_eq!(warm, cold, "the new rows reach no z of T");
    assert!(bytes < 64 << 10, "the refresh allocated {bytes} B");
}
