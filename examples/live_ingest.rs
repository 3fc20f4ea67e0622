//! Live ingest walk-through: a mutable catalog serving queries while
//! rows stream in. Appends and deletes land in per-relation delta
//! buffers, every admitted query pins a copy-on-write snapshot, and
//! compaction folds the buffers into fresh base indexes — all without
//! an in-flight query ever seeing a mutation.
//!
//! ```sh
//! cargo run --release --example live_ingest
//! ```

use std::sync::Arc;
use wcoj::query::{execute, parse_query, submit_query, Catalog};
use wcoj::service::{Service, ServiceConfig};
use wcoj::storage::Value;

fn main() {
    let service = Arc::new(Service::new(ServiceConfig::with_workers(2)));
    let mut catalog = Catalog::new();
    catalog.set_service(Some(Arc::clone(&service)));

    // --- 1. seed three relations from a random graph ------------------
    let edges = wcoj::datagen::preferential_attachment_edges(7, 1200, 5);
    catalog.insert("R", edges.clone());
    catalog.insert(
        "S",
        wcoj::storage::ops::rename(
            &edges,
            &[
                (wcoj::storage::Attr(0), wcoj::storage::Attr(1)),
                (wcoj::storage::Attr(1), wcoj::storage::Attr(2)),
            ],
        )
        .expect("rename"),
    );
    catalog.insert(
        "T",
        wcoj::storage::ops::rename(&edges, &[(wcoj::storage::Attr(1), wcoj::storage::Attr(2))])
            .expect("rename"),
    );
    let q = parse_query("tri(x, y, z) :- R(x, y), S(y, z), T(x, z).").expect("query");
    println!(
        "seeded R/S/T with {} rows each (generation R = {:?})",
        catalog.row_count("R").unwrap(),
        catalog.generation("R")
    );

    // --- 2. pin a snapshot, then mutate underneath it ------------------
    let snapshot = catalog.freeze();
    let mut pending = submit_query(&q, snapshot.catalog()).expect("submit");
    println!(
        "admitted a streaming triangle query against the pinned snapshot \
         (incremental = {})",
        pending.incremental()
    );

    // Rows arrive while the query is in flight: deltas, not rebuilds.
    let fresh: Vec<Vec<Value>> = (0..64)
        .map(|i| vec![Value(5000 + i), Value(5001 + i)])
        .collect();
    let appended = catalog
        .insert_rows("R", &fresh)
        .expect("append")
        .expect("R is registered");
    let deleted = catalog
        .delete_rows("R", &fresh[..8])
        .expect("delete")
        .expect("R is registered");
    // One append per relation completes a brand-new triangle — visible
    // to queries admitted from now on, invisible to the pinned one.
    for (name, a, b) in [("R", 9001, 9002), ("S", 9002, 9003), ("T", 9001, 9003)] {
        catalog
            .insert_rows(name, &[vec![Value(a), Value(b)]])
            .expect("append")
            .expect("registered");
    }
    println!(
        "mid-flight ingest: +{appended} −{deleted} rows on R \
         (delta buffer = {} rows, generation now {:?})",
        catalog.delta("R").unwrap().delta_len(),
        catalog.generation("R")
    );

    // --- 3. the pinned snapshot is untouched ---------------------------
    let mut streamed = 0usize;
    while let Some(batch) = pending.next_batch() {
        streamed += batch.expect("batch").len();
    }
    let sequential = execute(&q, snapshot.catalog()).expect("sequential");
    let live = execute(&q, &catalog).expect("live");
    println!(
        "streamed {streamed} rows == sequential-over-snapshot {} rows; \
         live catalog now answers {} rows",
        sequential.relation.len(),
        live.relation.len()
    );
    assert_eq!(streamed, sequential.relation.len());
    assert_eq!(
        live.relation.len(),
        sequential.relation.len() + 1,
        "exactly the one hand-built triangle is new"
    );

    // --- 4. compaction folds the buffers into a fresh base -------------
    let gen_before = catalog.base_generation("R");
    assert!(catalog.compact("R"), "R had buffered rows to fold");
    println!(
        "compacted R: delta buffer {} rows, base generation {:?} -> {:?}",
        catalog.delta("R").unwrap().delta_len(),
        gen_before,
        catalog.base_generation("R")
    );
    let compacted = execute(&q, &catalog).expect("after compaction");
    assert_eq!(compacted.relation, live.relation, "compaction is a no-op");

    // --- 5. the account the catalog kept -------------------------------
    let (hits, misses) = catalog.plan_cache_stats();
    println!(
        "plan cache: {hits} hits, {misses} misses, {} weight refreshes",
        catalog.plan_cache().refreshes()
    );
    let text = wcoj::obs::global().render_prometheus();
    for line in text.lines() {
        if line.starts_with("wcoj_catalog_") {
            println!("metrics: {line}");
        }
    }
    wcoj::obs::check_exposition(&text).expect("valid exposition");
}
