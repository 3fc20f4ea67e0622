//! The shared-pool query service, three ways: direct `submit`/`wait`
//! with prepared indexes, many concurrent submissions from client
//! threads, and a text-query catalog routed through the pool.
//!
//! ```sh
//! cargo run --release --example query_service
//! ```

use std::sync::Arc;
use std::time::Instant;
use wcoj::core::nprr::PreparedQuery;
use wcoj::prelude::*;
use wcoj::storage::ops::rename;

fn main() {
    // A triangle-dense power-law graph: skewed degrees are exactly the
    // workload the work-based shard splitter is for.
    let edges = wcoj::datagen::preferential_attachment_edges(42, 2000, 6);
    println!("graph: {} edges", edges.len());

    let r = edges.clone();
    let s = rename(&edges, &[(Attr(0), Attr(1)), (Attr(1), Attr(2))]).expect("rename");
    let t = rename(&edges, &[(Attr(1), Attr(2))]).expect("rename");
    let rels = vec![r, s, t];

    // One service for the whole process: queries share its pool instead
    // of each spinning up their own.
    let service = Arc::new(Service::new(ServiceConfig::with_workers(4)));
    println!("service: {} pool workers", service.workers());

    // --- 1. submit/wait with shared prepared indexes ------------------
    let prepared = Arc::new(PreparedQuery::new(&rels).expect("well-formed query"));
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..service.exec_config()
    };
    let start = Instant::now();
    let out = service
        .submit(&prepared, &cfg)
        .expect("plan")
        .wait()
        .expect("join");
    println!(
        "submit/wait: {} triangles in {:.1} ms ({} work-sized shards)",
        out.relation.len(),
        start.elapsed().as_secs_f64() * 1e3,
        out.stats.shards,
    );

    // --- 2. many in-flight queries from client threads ----------------
    let start = Instant::now();
    let n_clients = 8;
    let per_client = 4;
    std::thread::scope(|scope| {
        for client in 0..n_clients {
            let service = Arc::clone(&service);
            let prepared = Arc::clone(&prepared);
            let cfg = cfg.clone();
            let expect = out.relation.len();
            scope.spawn(move || {
                for _ in 0..per_client {
                    let got = service
                        .submit(&prepared, &cfg)
                        .expect("plan")
                        .wait()
                        .expect("join");
                    assert_eq!(got.relation.len(), expect, "client {client}");
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let queries = f64::from(n_clients * per_client);
    println!(
        "{n_clients} clients × {per_client} queries: {:.1} ms total, {:.0} queries/s, \
         {} submissions over the service lifetime",
        secs * 1e3,
        queries / secs,
        service.counters().submitted,
    );

    // --- 3. a catalog routed through the shared pool ------------------
    let mut catalog = Catalog::new();
    catalog.insert("E", edges);
    catalog.set_service(Some(Arc::clone(&service)));
    let q = parse_query("Tri(x, y, z) :- E(x, y), E(y, z), E(x, z).").expect("parse");
    let res = execute(&q, &catalog).expect("execute");
    println!(
        "catalog query on the service: {} rows (columns {:?})",
        res.relation.len(),
        res.columns,
    );

    // --- 4. bounded admission: shed under overload, retry later -------
    // A service with a queue bound refuses (sheds) burst submissions
    // past the bound instead of queueing without limit; admission never
    // waits, so a caller that prefers delay retries on its own clock.
    // WCOJ_QUEUE_DEPTH overrides the bound (ServiceConfig::from_env);
    // default here: 2.
    let mut bounded_cfg = ServiceConfig::from_env();
    bounded_cfg.workers = 2;
    if bounded_cfg.queue_depth == 0 {
        bounded_cfg.queue_depth = 2;
    }
    let depth = bounded_cfg.queue_depth;
    let bounded = Service::new(bounded_cfg);
    let mut shed = 0usize;
    let mut handles = Vec::new();
    for _ in 0..6 {
        match bounded.submit(&prepared, &cfg) {
            Ok(h) => handles.push(h),
            Err(SubmitError::Overloaded { .. }) => shed += 1,
            Err(e) => panic!("submit: {e}"),
        }
    }
    // a retrying caller lands its query once a slot frees up
    let retried = loop {
        match bounded.submit(&prepared, &cfg) {
            Ok(h) => break h,
            Err(SubmitError::Overloaded { .. }) => {
                shed += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => panic!("submit: {e}"),
        }
    };
    handles.push(retried);
    for h in handles {
        assert_eq!(h.wait().expect("join").relation.len(), out.relation.len());
    }
    let counters = bounded.counters();
    println!(
        "bounded service (depth {depth}): {} accepted, {shed} shed, counters {counters:?}",
        counters.submitted,
    );
}
