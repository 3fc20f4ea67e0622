//! Ingest stress: writer threads append/delete rows and a compactor
//! folds delta buffers into fresh bases while reader threads submit
//! queries through the shared service pool. Every reader pins a
//! copy-on-write [`Snapshot`] at admission and asserts its streamed
//! result is bit-identical — rows *and* order — to a drained run of the
//! same plan over that snapshot, and both to an independent run over the
//! snapshot's *materialized* relations in a new catalog, which shares
//! neither the pool nor the cached plan, and exercises the base+delta
//! merge through a different code path than the merged indexes the
//! pooled plan reads.
//!
//! Sized for release (`cargo test --release --test ingest_stress`);
//! debug builds run a shrunk schedule so tier-1 stays quick.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;
use wcoj_query::{execute, parse_query, submit_query, Catalog, ParsedQuery};
use wcoj_service::{Service, ServiceConfig};
use wcoj_storage::{Relation, Schema, Value};

const DOMAIN: u64 = 40;
const BASE_ROWS: usize = 300;

const WRITER_BATCHES: usize = if cfg!(debug_assertions) { 40 } else { 160 };
const READER_QUERIES: usize = if cfg!(debug_assertions) { 12 } else { 48 };

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

fn random_rows(seed: &mut u64, n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| vec![Value(lcg(seed) % DOMAIN), Value(lcg(seed) % DOMAIN)])
        .collect()
}

fn seeded_catalog(service: &Arc<Service>) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.set_service(Some(Arc::clone(service)));
    // Low threshold so auto-compaction also races the readers, on top
    // of the explicit compactor thread.
    catalog.set_compact_threshold(64);
    let mut seed = 0x5EED_0001u64;
    for name in ["R", "S", "T"] {
        let rel = Relation::from_rows(Schema::of(&[0, 1]), random_rows(&mut seed, BASE_ROWS))
            .expect("seed relation");
        catalog.insert(name, rel);
    }
    catalog
}

fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
    rel.iter_rows().map(<[Value]>::to_vec).collect()
}

/// Streams `q` through the service against the pinned snapshot and
/// checks bit-identity against a drained run over it — two ways out of
/// one plan — and against an independent sequential run: the snapshot's
/// relations materialized (merged at `get`, not read through the
/// relations' merged indexes) into a new catalog, whose worker-less service
/// runs the query on this thread.
fn check_one(q: &ParsedQuery, snapshot: &wcoj_query::Snapshot) {
    let mut pending = submit_query(q, snapshot.catalog()).expect("submit");
    let mut streamed: Vec<Vec<Value>> = Vec::new();
    while let Some(batch) = pending.next_batch() {
        streamed.extend(rows_of(&batch.expect("stream batch")));
    }
    let drained = execute(q, snapshot.catalog()).expect("drained run");
    assert_eq!(
        streamed,
        rows_of(&drained.relation),
        "streamed rows/order diverged from the drained join over the pinned snapshot"
    );

    let mut plain = Catalog::new();
    for name in ["R", "S", "T"] {
        let rel = snapshot.catalog().get(name).expect("snapshot relation");
        plain.insert(name, rel);
    }
    let independent = execute(q, &plain).expect("materialized run");
    assert_eq!(
        rows_of(&drained.relation),
        rows_of(&independent.relation),
        "the pooled delta-view run diverged from a sequential run over materialized relations"
    );
}

#[test]
fn concurrent_ingest_never_touches_pinned_snapshots() {
    let service = Arc::new(Service::new(ServiceConfig::with_workers(2)));
    let catalog = Arc::new(RwLock::new(seeded_catalog(&service)));
    let stop = Arc::new(AtomicBool::new(false));
    let compactions = Arc::new(AtomicUsize::new(0));

    // Two writers: interleaved appends and deletes across all three
    // relations, batched so delta buffers grow and shrink.
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let catalog = Arc::clone(&catalog);
            std::thread::spawn(move || {
                let mut seed = 0xBEEF ^ (w << 17);
                for i in 0..WRITER_BATCHES {
                    let name = ["R", "S", "T"][(lcg(&mut seed) % 3) as usize];
                    let rows = random_rows(&mut seed, 8);
                    let mut cat = catalog.write().expect("catalog lock");
                    let changed = if i % 3 == 2 {
                        cat.delete_rows(name, &rows)
                    } else {
                        cat.insert_rows(name, &rows)
                    };
                    changed
                        .expect("mutation")
                        .expect("relation stays registered");
                    drop(cat);
                    if i % 8 == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        })
        .collect();

    // A compactor folding deltas into fresh bases while queries run.
    let compactor = {
        let catalog = Arc::clone(&catalog);
        let stop = Arc::clone(&stop);
        let compactions = Arc::clone(&compactions);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                {
                    let mut cat = catalog.write().expect("catalog lock");
                    for name in ["R", "S", "T"] {
                        if cat.compact(name) {
                            compactions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Two readers alternating a triangle and a two-hop path, each query
    // checked against the snapshot it pinned at admission.
    let triangle = parse_query("t(a, b, c) :- R(a, b), S(b, c), T(c, a).").expect("triangle");
    let path = parse_query("p(a, c) :- R(a, b), S(b, c).").expect("path");
    let readers: Vec<_> = (0..2usize)
        .map(|r| {
            let catalog = Arc::clone(&catalog);
            let triangle = triangle.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                for i in 0..READER_QUERIES {
                    let snapshot = { catalog.read().expect("catalog lock").freeze() };
                    let q = if (i + r) % 2 == 0 { &triangle } else { &path };
                    check_one(q, &snapshot);
                }
            })
        })
        .collect();

    for t in readers {
        t.join().expect("reader thread");
    }
    for t in writers {
        t.join().expect("writer thread");
    }
    stop.store(true, Ordering::Relaxed);
    compactor.join().expect("compactor thread");

    // The schedule must actually have raced compactions with queries —
    // otherwise the test silently stops covering what it claims to.
    assert!(
        compactions.load(Ordering::Relaxed) > 0,
        "no compaction ever ran during the stress schedule"
    );

    // After the dust settles the live catalog still answers, and a
    // fresh snapshot equals the live state.
    let final_snapshot = { catalog.read().expect("catalog lock").freeze() };
    check_one(&triangle, &final_snapshot);
}
