//! Observability end to end: per-query execution profiles from the
//! shared-pool service and the process-wide metrics registry rendered in
//! Prometheus text format.
//!
//! ```sh
//! cargo run --release --example observability
//! ```
//!
//! Everything here is std-only (`wcoj-obs` has no dependencies) and
//! compiled in unconditionally: timestamps are taken per shard task,
//! never per tuple.

use std::sync::Arc;

use wcoj::core::nprr::PreparedQuery;
use wcoj::obs::{check_exposition, global};
use wcoj::prelude::*;

fn main() {
    // --- 1. per-query profiles from the service -----------------------
    let mut cfg_env = ServiceConfig::from_env();
    cfg_env.workers = 2;
    let service = Arc::new(Service::new(cfg_env));
    let instances = [
        ("triangle_hard", wcoj::datagen::example_2_2(128)),
        ("cycle5", wcoj::datagen::cycle_instance(7, 5, 200, 15)),
        ("hot_key", wcoj::datagen::hot_key_triangle(17, 96, 3)),
    ];
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..service.exec_config()
    };
    for (name, rels) in &instances {
        let prepared = Arc::new(PreparedQuery::new(rels).expect("well-formed query"));
        let handle = service.submit(&prepared, &cfg).expect("admit");
        let (out, profile) = handle.wait_profiled().expect("join");
        assert!(profile.is_complete(), "every shard reports a profile");
        assert_eq!(profile.total_rows(), out.relation.len() as u64);
        println!(
            "{name}: {} rows, {} shards, admitted {:?}, planned {:?}, \
             first task {:?}, last task {:?}, reassembled {:?}",
            out.relation.len(),
            profile.total_shards,
            profile.admitted,
            profile.planned.expect("planned"),
            profile.first_dispatch.expect("dispatched"),
            profile.last_finish.expect("finished"),
            profile.reassembled.expect("reassembled"),
        );
        for shard in &profile.shards {
            println!(
                "    shard {}: queue wait {:?}, run {:?}, {} rows",
                shard.slot, shard.queue_wait, shard.run, shard.rows
            );
        }
    }

    // --- 2. profiles through the text-query catalog -------------------
    let edges = wcoj::datagen::preferential_attachment_edges(42, 500, 4);
    let mut catalog = Catalog::new();
    catalog.insert("E", edges);
    catalog.set_service(Some(Arc::clone(&service)));
    let q = parse_query("Tri(x, y, z) :- E(x, y), E(y, z), E(x, z).").expect("parse");
    let pending = submit_query(&q, &catalog).expect("submit");
    pending.wait_settled();
    let profile = pending.profile();
    assert!(profile.is_complete(), "every shard reports a profile");
    let res = pending.collect().expect("execute");
    println!(
        "catalog query: {} rows over {} shards (query id {})",
        res.relation.len(),
        profile.total_shards,
        profile.query_id,
    );
    // Repeat the same query: the prepared plan (reduction + cover LP +
    // flat indexes) is served from the catalog's plan cache, and the
    // hit/miss account is mirrored into the metrics registry.
    let repeat = execute(&q, &catalog).expect("repeat execute");
    assert_eq!(repeat.relation, res.relation, "cache hit changes nothing");
    let (hits, misses) = catalog.plan_cache_stats();
    assert!(hits >= 1, "the repeat submission hit the plan cache");
    assert_eq!(misses, 1, "only the first submission built a plan");
    println!("plan cache: {hits} hits / {misses} misses");

    // --- 3. the metrics registry, Prometheus text format --------------
    let text = global().render_prometheus();
    check_exposition(&text).expect("well-formed exposition");
    assert!(
        text.contains("wcoj_query_latency_us_count"),
        "service query latencies are exported"
    );
    assert!(
        text.contains("wcoj_plan_cache_hits_total")
            && text.contains("wcoj_plan_cache_misses_total"),
        "plan-cache counters are mirrored into the registry"
    );
    for line in text.lines() {
        if line.starts_with("# TYPE") || !line.starts_with('#') && !line.contains("_bucket") {
            println!("{line}");
        }
    }
}
