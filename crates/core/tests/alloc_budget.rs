//! Allocation budget of the prepared engine: once a query is prepared and
//! its cover memoized, an evaluation allocates per *run* and per buffer
//! doubling — never per row or per `Recursive-Join` call. Counts are
//! exact and repeat bit-for-bit, so a budget is a safe tier-1 assertion
//! where a time threshold would not be.
//!
//! Its own test binary because it swaps in a counting global allocator.

mod common;

use common::{over_delta, Buffers};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wcoj_core::nprr::{AnchorRange, PreparedQuery, RootShard};
use wcoj_datagen::cycle_instance;
use wcoj_exec::{plan_shards, ExecConfig};
use wcoj_storage::{FlatIndex, Relation, RowBuf, SearchTree, Value};

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
/// `FlatIndex`, and the merged index of a relation with empty and with
/// live buffers.
fn assert_budget(rels: &[Relation], max_per_row: f64) {
    let columns = [
        (
            "flat",
            allocations_per_row(&PreparedQuery::<FlatIndex>::new_indexed(rels).unwrap()),
        ),
        (
            "delta",
            allocations_per_row(&over_delta(rels, Buffers::Empty)),
        ),
        (
            "delta, live buffers",
            allocations_per_row(&over_delta(rels, Buffers::Live)),
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

/// Allocations of one warm `run_shard` restricted to `shard`, with the
/// run's `(rows, case_a + case_b)`.
fn shard_allocations<S: SearchTree>(
    prepared: &PreparedQuery<S>,
    shard: RootShard,
) -> (u64, usize, u64) {
    let (x, bound) = prepared.resolve_cover(None).unwrap();
    let (warm, _) = prepared.run_shard(&x, bound, Some(shard));
    let before = ALLOCATIONS.with(Cell::get);
    let (rows, stats) = prepared.run_shard(&x, bound, Some(shard));
    let spent = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(rows.len(), warm.len());
    (spent, rows.len(), stats.case_a + stats.case_b)
}

/// An anchored sub-shard: one root value, a range of the second
/// attribute in the total order.
fn anchored(root: u64, lo: u64, hi: u64) -> RootShard {
    RootShard {
        lo: Value(root),
        hi: Value(root),
        anchor: Some(AnchorRange {
            lo: Value(lo),
            hi: Value(hi),
        }),
    }
}

/// The served (sharded) path: the shard plans `golden_counts_per_shard`
/// pins, anchored sub-shards included, on every backend. A shard run
/// allocates its fixed buffers and their doublings, whatever its work: the
/// same budget holds for a run of one split decision and one of 8 479, so
/// nothing on the `Recursive-Join` path — the range-filtered scans
/// included — allocates per call.
#[test]
fn shard_runs_allocate_per_run_not_per_call() {
    const BUDGET: u64 = 64;
    let cases = [
        (
            "hot_key",
            wcoj_datagen::hot_key_triangle(5, 140, 10),
            vec![
                anchored(0, 0, 19),
                anchored(0, 20, 40),
                anchored(0, 41, 60),
                anchored(0, 61, 80),
                anchored(0, 81, 101),
                anchored(0, 102, 121),
                anchored(0, 122, u64::MAX),
                RootShard::range(Value(1), Value(u64::MAX)),
            ],
        ),
        (
            // The LP cover's dear parity under the (a, b, d, c) plan: its
            // shards make the most decisions.
            "cycle4",
            cycle_instance(12, 4, 2000, 200),
            vec![
                RootShard::range(Value(0), Value(49)),
                anchored(50, 0, 99),
                anchored(50, 100, u64::MAX),
                RootShard::range(Value(51), Value(120)),
                RootShard::range(Value(121), Value(u64::MAX)),
            ],
        ),
    ];
    let mut decisions = 0;
    for (name, rels, shards) in cases {
        let flat = PreparedQuery::<FlatIndex>::new_indexed(&rels).unwrap();
        let empty = over_delta(&rels, Buffers::Empty);
        let live = over_delta(&rels, Buffers::Live);
        for shard in shards {
            let runs = [
                ("flat", shard_allocations(&flat, shard)),
                ("delta", shard_allocations(&empty, shard)),
                ("delta, live buffers", shard_allocations(&live, shard)),
            ];
            for (backend, (spent, _, calls)) in runs {
                assert!(
                    spent <= BUDGET,
                    "{name}, {backend}, {shard:?}: {spent} allocations for {calls} split decisions"
                );
                assert_eq!((runs[0].1).1, (runs[2].1).1, "{name}: rows agree");
            }
            decisions = decisions.max(runs[0].1 .2);
        }
    }
    assert!(decisions > 100 * BUDGET, "some shard outworks the budget");
}

/// Allocations of one assembly of `rels`' raw rows, split into the slots
/// of `shards` root ranges (one unrestricted slot for 0), with the rows
/// it produced.
fn assembly_allocations(rels: &[Relation], shards: usize) -> (u64, usize) {
    let prepared = PreparedQuery::<FlatIndex>::new_indexed(rels).unwrap();
    let (x, bound) = prepared.resolve_cover(None).unwrap();
    let tasks = if shards == 0 {
        vec![None]
    } else {
        let cfg = ExecConfig {
            shard_min_size: 1,
            heavy_split_factor: 0,
        };
        plan_shards(&prepared, shards, &cfg)
    };
    let slots: Vec<RowBuf> = tasks
        .iter()
        .map(|&t| prepared.run_shard(&x, bound, t).0)
        .collect();
    assert_eq!(slots.len(), shards.max(1));
    let before = ALLOCATIONS.with(Cell::get);
    let out = prepared.assemble_slots(slots).unwrap();
    let spent = ALLOCATIONS.with(Cell::get) - before;
    (spent, out.len())
}

/// The assembly allocates a fixed number of times per call and per slot,
/// whatever the row count. Every call builds the output schema (its
/// attributes and `Schema::new`'s duplicate check) and the relation's
/// `Arc`. The 4-cycle's rows ascend in (a, b) and are re-keyed within
/// each (a, b) run on (c, d): one buffer of row references for every
/// run's sort and the output buffer, however many slots and runs there
/// are. The triangle adopts one slot as it is; of several,
/// the first slot's buffer grows to take the others, at most once per
/// later slot. No row gets an allocation of its own and no sort allocates
/// scratch.
#[test]
fn assembly_allocates_per_call_not_per_row() {
    // (shape, arity, two sizes, allocations for one slot, at most for four)
    let cases = [
        ("4-cycle", 4, [(200, 40), (2000, 200)], 5, 5),
        ("triangle", 3, [(1000, 60), (4000, 150)], 3, 3 + 3),
    ];
    for (name, arity, sizes, one_slot, four_slots) in cases {
        let mut rows_seen = Vec::new();
        for (n, dom) in sizes {
            let rels = cycle_instance(11, arity, n, dom);
            let (spent, rows) = assembly_allocations(&rels, 0);
            assert_eq!(spent, one_slot, "{name}, n = {n}: {rows} rows");
            rows_seen.push(rows);
            let (spent, rows) = assembly_allocations(&rels, 4);
            assert!(
                spent <= four_slots,
                "{name}, n = {n}, 4 slots: {spent} allocations for {rows} rows"
            );
        }
        assert!(
            rows_seen[1] > 2 * rows_seen[0],
            "{name}: sizes {rows_seen:?}"
        );
    }
}
