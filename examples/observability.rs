//! Observability end to end: per-query execution profiles from the
//! shared-pool service, the trace event ring, and the process-wide
//! metrics registry rendered in Prometheus text format.
//!
//! ```sh
//! cargo run --release --example observability
//! # or, to see scheduler decisions as they happen:
//! WCOJ_TRACE=summary cargo run --release --example observability
//! ```
//!
//! Everything here is std-only (`wcoj-obs` has no dependencies) and
//! compiled in unconditionally — when tracing is off and
//! `ServiceConfig::obs` is false, the hot path pays a single relaxed
//! atomic load per decision point.

use std::sync::Arc;

use wcoj::core::nprr::PreparedQuery;
use wcoj::obs::{check_exposition, global, trace};
use wcoj::prelude::*;
use wcoj::TraceLevel;

fn main() {
    // WCOJ_TRACE (off | summary | verbose) selects the trace level; for
    // a self-contained demo, default the ring to summary when unset.
    if let Some(level) = wcoj::exec::trace_level_from_env() {
        trace().set_level(level);
    } else if trace().level() == TraceLevel::Off {
        trace().set_level(TraceLevel::Summary);
    }

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
    let (res, profile) = execute_profiled(&q, &catalog).expect("execute");
    let profile = profile.expect("catalog routes through the service");
    println!(
        "catalog query: {} rows over {} shards (query id {})",
        res.relation.len(),
        profile.total_shards,
        profile.query_id,
    );
    // Repeat the same query: the prepared plan (reduction + cover LP +
    // flat indexes) is served from the catalog's plan cache, and the
    // hit/miss account is mirrored into the metrics registry.
    let (repeat, _) = execute_profiled(&q, &catalog).expect("repeat execute");
    assert_eq!(repeat.relation, res.relation, "cache hit changes nothing");
    let (hits, misses) = catalog.plan_cache_stats();
    assert!(hits >= 1, "the repeat submission hit the plan cache");
    assert_eq!(misses, 1, "only the first submission built a plan");
    println!("plan cache: {hits} hits / {misses} misses");

    // --- 3. the trace event ring --------------------------------------
    let events = trace().drain();
    println!(
        "trace ring: {} events (capacity bounded, lossy by design)",
        events.len()
    );
    for event in events.iter().take(8) {
        println!("    {event:?}");
    }
    assert!(
        !events.is_empty(),
        "summary tracing records admissions and completions"
    );

    // --- 4. the metrics registry, Prometheus text format --------------
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
