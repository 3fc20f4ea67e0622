//! The traced pass: where a request's time goes, layer by layer.
//!
//! Two parts, both in this process:
//!
//! * a **load phase** — the untraced closed loop of [`crate::load`] for a
//!   short round, then the same round with a span around every request.
//!   The second round's server counters (scraped from `GET /metrics`
//!   before and after) are the `server.*`/`query.plan_cache_*` counts
//!   under real traffic, and the ratio of the two rounds' medians is the
//!   tracing overhead;
//! * a **ladder** — one caller, no concurrency, the same seeded requests
//!   on every rung: `client.http` (full HTTP round trip) ⊃
//!   `query.execute` (`parse_query` + `freeze` + `submit_query` + drain on
//!   an identical catalog) ⊃ `service.submit_wait` (`Service::submit` +
//!   `wait_profiled`) ⊃ `core.evaluate` (sequential
//!   `PreparedQuery::evaluate`). A layer's own time is the median of its
//!   rung minus the median of the rung below.
//!
//! Counts (`core.*` counts, `server.bytes_out_per_req`, allocator counts)
//! are taken on the first pass over the sample set only, so they repeat
//! exactly under a fixed seed on the read-only workloads.

use crate::client::Client;
use crate::json::Json;
use crate::load::{perform, run_round, timed_set_up, Round, Tally};
use crate::single::Better;
use crate::stats::{median, sorted};
use crate::trace::{count_allocations, spans_json, Tracer};
use crate::workload::{Kind, Op, Oracle, Rng, Workload, BATCH_ROWS, CLIENTS, WINDOW_WRITES};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use wcoj_core::nprr::PreparedQuery;
use wcoj_query::{execute, load_csv, parse_query, submit_query, Catalog};
use wcoj_service::{Service, ServiceConfig};
use wcoj_storage::{DeltaRelation, FlatIndex, Relation, Value};

/// One per-layer figure.
pub struct LayerMetric {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Result of the traced pass.
pub struct Layers {
    /// Every metric of [`PER_LAYER`], in that order.
    pub metrics: Vec<LayerMetric>,
    /// Requests attempted and failed, in-process rungs included.
    pub tally: Tally,
    /// What the result line may not carry (sample counts, flags).
    pub detail: Json,
}

use Better::{Higher, Lower};

/// Name, unit and direction of every per-layer metric, in report order.
/// `BENCHMARK.json` lists exactly these (a self-test holds the two
/// together).
pub const PER_LAYER: [(&str, &str, Better); 48] = [
    ("client.http_ms", "ms", Lower),
    ("server.self_ms", "ms", Lower),
    ("server.self_us_per_row", "us", Lower),
    ("server.bytes_out_per_req", "B", Lower),
    ("server.requests", "count", Higher),
    ("server.errors", "count", Lower),
    ("server.overloaded", "count", Lower),
    ("server.reconnects", "count", Lower),
    ("query.parse_us", "us", Lower),
    ("query.freeze_us", "us", Lower),
    ("query.submit_us", "us", Lower),
    ("query.drain_ms", "ms", Lower),
    ("query.self_ms", "ms", Lower),
    ("query.plan_cache_hit_ratio", "ratio", Higher),
    ("query.plan_cache_misses", "count", Lower),
    ("query.plan_cache_refreshes", "count", Lower),
    ("query.plan_cold_build_ms", "ms", Lower),
    ("query.insert_rows_us", "us", Lower),
    ("query.delete_rows_us", "us", Lower),
    ("query.compact_ms", "ms", Lower),
    ("query.compactions", "count", Lower),
    ("query.delta_rows_at_query", "count", Lower),
    ("service.admitted_us", "us", Lower),
    ("service.queue_wait_us", "us", Lower),
    ("service.shards_per_query", "count", Lower),
    ("service.shard_run_ms_max", "ms", Lower),
    ("service.shard_imbalance", "ratio", Lower),
    ("service.reassemble_us", "us", Lower),
    ("service.shed", "count", Lower),
    ("service.overhead_ratio", "ratio", Lower),
    ("exec.plan_shards_us", "us", Lower),
    ("exec.shard_layout_us", "us", Lower),
    ("core.evaluate_ms", "ms", Lower),
    ("core.prepare_ms", "ms", Lower),
    ("core.rows_out", "count", Lower),
    ("core.intermediate_tuples", "count", Lower),
    ("core.case_a", "count", Lower),
    ("core.case_b", "count", Lower),
    ("core.agm_ratio", "ratio", Lower),
    ("core.ns_per_intermediate_tuple", "ns", Lower),
    ("core.allocs_per_row", "count", Lower),
    ("core.alloc_bytes_per_row", "B", Lower),
    ("storage.flat_build_ms", "ms", Lower),
    ("storage.delta_insert_us", "us", Lower),
    ("storage.delta_compact_ms", "ms", Lower),
    ("storage.delta_scan_ratio", "ratio", Lower),
    ("hypergraph.cover_lp_us", "us", Lower),
    ("obs.tracing_overhead_frac", "ratio", Lower),
];

/// Requests per pass over the sample set: sized so that one pass of the
/// slowest rung takes well under half a second (a rung always makes one
/// pass, however short the run). The full-join workloads repeat one
/// query, so a few requests are a fair sample; `point_lookup` needs
/// enough to hold ~40 cold constants.
fn sample_size(kind: Kind) -> usize {
    match kind {
        Kind::Cycle4Engine | Kind::TriangleWide => 4,
        Kind::IngestMixed => 8,
        Kind::PointLookup => 400,
    }
}

/// Repetitions of each one-off measurement (index builds, cold plans,
/// compactions); the median is reported.
const REPS: usize = 5;
/// Repetitions of the two whole-query scans behind `storage.delta_scan_ratio`.
const SCAN_REPS: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

fn values(rows: &[[u64; 2]]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|r| vec![Value(r[0]), Value(r[1])])
        .collect()
}

/// A catalog loaded exactly as set-up loads the server's: the same CSV
/// through `load_csv`, `ingest_mixed`'s window fill applied, routed
/// through `service` when given.
fn catalog_like_the_servers(w: &Workload, service: Option<Arc<Service>>) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.set_service(service);
    for named in &w.relations {
        let rel = load_csv(&named.csv, catalog.dictionary()).expect("generated CSV");
        catalog.insert(named.name, rel);
    }
    if w.kind == Kind::IngestMixed {
        for i in 0..WINDOW_WRITES {
            for client in 0..CLIENTS {
                apply_write(&mut catalog, w, &w.write(client, i));
            }
        }
    }
    catalog
}

/// Applies a write the way the server's handlers do.
fn apply_write(catalog: &mut Catalog, w: &Workload, op: &Op) {
    let Op::Write {
        rel,
        append,
        delete,
    } = op
    else {
        unreachable!("callers pass writes");
    };
    let name = w.relations[*rel].name;
    catalog.insert_rows(name, &values(append)).expect("arity 2");
    if !delete.is_empty() {
        catalog.delete_rows(name, &values(delete)).expect("arity 2");
    }
}

/// Counter deltas between two `GET /metrics` scrapes.
struct Scrape(HashMap<String, f64>);

impl Scrape {
    fn parse(text: &str) -> Scrape {
        Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (name, value) = l.rsplit_once(' ')?;
                    Some((name.to_owned(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0) - before.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Samples collected while climbing down the ladder.
#[derive(Default)]
struct Samples {
    http_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    parse_us: Vec<f64>,
    freeze_us: Vec<f64>,
    submit_hit_us: Vec<f64>,
    submit_any_us: Vec<f64>,
    drain_ms: Vec<f64>,
    delta_rows: Vec<f64>,
    submit_wait_ms: Vec<f64>,
    admitted_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    shards: Vec<f64>,
    shard_run_max_ms: Vec<f64>,
    shard_imbalance: Vec<f64>,
    reassemble_us: Vec<f64>,
    plan_shards_us: Vec<f64>,
    shard_layout_us: Vec<f64>,
    evaluate_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
}

/// Exact counts of the first pass.
#[derive(Default)]
struct Counts {
    queries: u64,
    http_bytes: u64,
    http_rows: u64,
    rows_out: u64,
    intermediate: u64,
    case_a: u64,
    case_b: u64,
    agm_bound: f64,
    allocs: u64,
    alloc_bytes: u64,
    evaluate_ns_all: f64,
    intermediate_all: u64,
}

type Plan = Arc<PreparedQuery<FlatIndex>>;

struct Ladder<'a> {
    w: &'a Workload,
    oracle: &'a Oracle,
    tracer: &'a Tracer,
    samples: Samples,
    counts: Counts,
    tally: Tally,
}

impl Ladder<'_> {
    /// Pass `pass` of client 0's request sequence, each request with the
    /// identifier its spans share on every rung.
    fn ops(&self, pass: usize) -> Vec<(u64, Op)> {
        let n = sample_size(self.w.kind);
        let ids = (pass * n) as u64..;
        ids.zip(self.w.sequence(0).skip(pass * n).take(n)).collect()
    }

    /// The queries of [`Ladder::ops`]: `(request, oracle key)`.
    fn queries(&self, pass: usize) -> Vec<(u64, Option<u64>)> {
        self.ops(pass)
            .into_iter()
            .filter_map(|(request, op)| match op {
                Op::Query { key, .. } => Some((request, key)),
                Op::Write { .. } => None,
            })
            .collect()
    }

    /// Runs `one_pass` for passes 0, 1, … until `budget` is spent (always
    /// at least once).
    fn passes(&mut self, budget: Duration, mut one_pass: impl FnMut(&mut Self, usize)) {
        let t0 = Instant::now();
        let mut pass = 0;
        while pass == 0 || t0.elapsed() < budget {
            one_pass(self, pass);
            pass += 1;
        }
    }

    /// Rung 1: the full HTTP round trip, one client, a fresh server.
    fn http_rung(&mut self, budget: Duration) -> Result<(), String> {
        let (server, _, tally) = timed_set_up(self.w, self.oracle)?;
        self.tally.absorb(tally);
        let mut client = Client::new(server.addr());
        self.passes(budget, |l, pass| {
            for (request, op) in l.ops(pass) {
                let out = perform(&mut client, l.w, l.oracle, &op);
                l.tally.count(out.ok);
                if matches!(op, Op::Query { .. }) {
                    l.tracer
                        .record("client.http", out.start, out.end, None, request);
                    l.samples.http_ms.push(ms(out.end - out.start));
                    if pass == 0 {
                        l.counts.queries += 1;
                        l.counts.http_bytes += out.wire_bytes as u64;
                        l.counts.http_rows += out.rows as u64;
                    }
                } else {
                    l.tracer
                        .record("client.write", out.start, out.end, None, request);
                }
            }
        });
        // close the connection first: a connection thread notices the
        // shutdown only between requests
        drop(client);
        drop(server);
        Ok(())
    }

    /// Rung 2: what the `POST /query` and `/rows` handlers call, without
    /// the sockets, the job table or the CSV serialisation.
    fn execute_rung(&mut self, budget: Duration, catalog: &RwLock<Catalog>) {
        self.passes(budget, |l, pass| {
            for (request, op) in l.ops(pass) {
                match &op {
                    Op::Write { .. } => {
                        let root = l.tracer.reserve("query.write", None, request);
                        let mut guard = catalog.write().expect("catalog lock");
                        apply_write(&mut guard, l.w, &op);
                        drop(guard);
                        l.tracer.close(root);
                    }
                    Op::Query { text, key } => l.execute_one(catalog, text, *key, request),
                }
            }
        });
    }

    fn execute_one(
        &mut self,
        catalog: &RwLock<Catalog>,
        text: &str,
        key: Option<u64>,
        request: u64,
    ) {
        let t = self.tracer;
        if self.w.kind == Kind::IngestMixed {
            let guard = catalog.read().expect("catalog lock");
            let delta: usize = self
                .w
                .relations
                .iter()
                .map(|n| guard.delta(n.name).map_or(0, DeltaRelation::delta_len))
                .sum();
            self.samples.delta_rows.push(delta as f64);
        }
        let root = t.reserve("query.execute", None, request);
        let (parsed, parse_ms) = t.time("query.parse", Some(root), request, || parse_query(text));
        let parsed = parsed.expect("generated queries parse");
        let (snapshot, freeze_ms) = t.time("query.freeze", Some(root), request, || {
            catalog.read().expect("catalog lock").freeze()
        });
        let cache = snapshot.catalog().plan_cache().clone();
        let hits_before = cache.stats().0;
        let (pending, submit_ms) = t.time("query.submit", Some(root), request, || {
            submit_query(&parsed, snapshot.catalog())
        });
        let hit = cache.stats().0 > hits_before;
        let (rows, drain_ms) = t.time("query.drain", Some(root), request, || {
            let mut rows = 0usize;
            if let Ok(mut pending) = pending {
                while let Some(Ok(batch)) = pending.next_batch() {
                    rows += batch.len();
                }
                Some(rows)
            } else {
                None
            }
        });
        let total_ms = t.close(root);
        self.samples.execute_ms.push(total_ms);
        self.samples.parse_us.push(parse_ms * 1e3);
        self.samples.freeze_us.push(freeze_ms * 1e3);
        self.samples.submit_any_us.push(submit_ms * 1e3);
        if hit {
            self.samples.submit_hit_us.push(submit_ms * 1e3);
        }
        self.samples.drain_ms.push(drain_ms);
        let expected = key.and_then(|k| self.oracle.get(k)).map(|e| e.rows);
        self.tally
            .count(rows.is_some() && expected.is_none_or(|e| Some(e) == rows));
    }

    /// The prepared plan for a sampled query, built (and timed) on first
    /// use: sequential `new_indexed` + `resolve_cover`.
    fn plan(
        &mut self,
        plans: &mut HashMap<Option<u64>, Plan>,
        inputs: &[Relation],
        key: Option<u64>,
    ) -> Plan {
        if let Some(p) = plans.get(&key) {
            return Arc::clone(p);
        }
        let owned;
        let rels: &[Relation] = if self.w.kind == Kind::PointLookup {
            owned = self.w.join_inputs(key);
            &owned
        } else {
            inputs
        };
        let (plan, prepare_ms) = self.tracer.time("core.prepare", None, u64::MAX, || {
            let plan = PreparedQuery::<FlatIndex>::new_indexed(rels).expect("well-formed inputs");
            plan.resolve_cover(None).expect("cover LP");
            plan
        });
        self.samples.prepare_ms.push(prepare_ms);
        let plan = Arc::new(plan);
        plans.insert(key, Arc::clone(&plan));
        plan
    }

    /// Rungs 3 and 4 over the sampled queries' plans.
    fn service_and_core_rungs(&mut self, budget: Duration, service: &Service, inputs: &[Relation]) {
        let mut plans: HashMap<Option<u64>, Plan> = HashMap::new();
        let cfg = service.exec_config();
        // Rung 3: the shared pool, as `submit_query` drives it.
        self.passes(budget / 2, |l, pass| {
            for (request, key) in l.queries(pass) {
                let plan = l.plan(&mut plans, inputs, key);
                let (layout, layout_ms) = l.tracer.time("exec.shard_layout", None, request, || {
                    service.shard_layout(&plan, &cfg)
                });
                l.samples.shard_layout_us.push(layout_ms * 1e3);
                std::hint::black_box(layout);
                let (done, wait_ms) = l.tracer.time("service.submit_wait", None, request, || {
                    service
                        .submit(&plan, &cfg)
                        .map(wcoj_service::QueryHandle::wait_profiled)
                });
                let Ok(Ok((out, profile))) = done else {
                    l.tally.count(false);
                    continue;
                };
                let expected = key.and_then(|k| l.oracle.get(k)).map(|e| e.rows);
                l.tally
                    .count(expected.is_none_or(|e| e == out.relation.len()));
                l.samples.submit_wait_ms.push(wait_ms);
                l.samples.admitted_us.push(us(profile.admitted));
                l.samples.shards.push(profile.total_shards as f64);
                if let Some(planned) = profile.planned {
                    l.samples
                        .plan_shards_us
                        .push(us(planned.saturating_sub(profile.admitted)));
                }
                if let (Some(fin), Some(re)) = (profile.last_finish, profile.reassembled) {
                    l.samples.reassemble_us.push(us(re.saturating_sub(fin)));
                }
                let runs: Vec<f64> = profile.shards.iter().map(|s| ms(s.run)).collect();
                if !runs.is_empty() {
                    let max = runs.iter().copied().fold(0.0, f64::max);
                    let mean = runs.iter().sum::<f64>() / runs.len() as f64;
                    l.samples.shard_run_max_ms.push(max);
                    if mean > 0.0 {
                        l.samples.shard_imbalance.push(max / mean);
                    }
                    let waits: f64 = profile.shards.iter().map(|s| us(s.queue_wait)).sum();
                    l.samples.queue_wait_us.push(waits / runs.len() as f64);
                }
            }
        });
        // Rung 4: the engine alone, sequentially, on the same plans.
        self.passes(budget / 2, |l, pass| {
            for (request, key) in l.queries(pass) {
                let plan = l.plan(&mut plans, inputs, key);
                let start = Instant::now();
                let (out, allocs, bytes) = if pass == 0 {
                    count_allocations(|| plan.evaluate(None))
                } else {
                    (plan.evaluate(None), 0, 0)
                };
                let end = Instant::now();
                l.tracer.record("core.evaluate", start, end, None, request);
                l.tally.count(out.is_ok());
                let Ok(out) = out else { continue };
                l.samples.evaluate_ms.push(ms(end - start));
                l.counts.evaluate_ns_all += (end - start).as_nanos() as f64;
                l.counts.intermediate_all += out.stats.intermediate_tuples;
                if pass == 0 {
                    l.counts.rows_out += out.relation.len() as u64;
                    l.counts.intermediate += out.stats.intermediate_tuples;
                    l.counts.case_a += out.stats.case_a;
                    l.counts.case_b += out.stats.case_b;
                    l.counts.agm_bound += out.stats.log2_agm_bound.exp2();
                    l.counts.allocs += allocs;
                    l.counts.alloc_bytes += bytes;
                }
            }
        });
    }
}

/// Timings of one-off operations, each the median of [`REPS`] repetitions.
struct OneOffs {
    plan_cold_build_ms: f64,
    insert_rows_us: f64,
    delete_rows_us: f64,
    compact_ms: f64,
    flat_build_ms: f64,
    delta_insert_us: f64,
    delta_compact_ms: f64,
    delta_scan_ratio: f64,
    cover_lp_us: f64,
}

/// 64-row batches in the value range of `w`'s first relation, for the
/// write-path measurements on workloads that do not write themselves.
fn synthetic_batches(w: &Workload, n: usize) -> Vec<Vec<Vec<Value>>> {
    let dom = w.relations[0]
        .relation
        .iter_rows()
        .map(|r| r[0].0.max(r[1].0))
        .max()
        .unwrap_or(0)
        + 1;
    let mut rng = Rng::new(w.seed, &[0x6c_6164]);
    (0..n)
        .map(|_| {
            (0..BATCH_ROWS)
                .map(|_| vec![Value(rng.below(dom)), Value(rng.below(dom))])
                .collect()
        })
        .collect()
}

fn one_offs(w: &Workload, tracer: &Tracer, service: &Arc<Service>, inputs: &[Relation]) -> OneOffs {
    let timed = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let ((), ms) = tracer.time(name, None, u64::MAX, f);
        ms
    };
    // sixteen batches are the 1024 delta rows at which the catalog compacts
    let batches = synthetic_batches(w, 16);
    let first = w.relations[0].name;
    let parsed = parse_query(&w.representative_query().0).expect("generated queries parse");

    // query layer: cold plan build, write path, service-backed compaction
    let mut catalog = catalog_like_the_servers(w, Some(Arc::clone(service)));
    catalog.set_compact_threshold(usize::MAX);
    let mut cold = Vec::new();
    let mut inserts = Vec::new();
    let mut deletes = Vec::new();
    let mut compacts = Vec::new();
    for _ in 0..REPS {
        // re-registering a relation changes its base generation, so the
        // next submission misses the plan cache and builds from scratch
        let rel = catalog.get(first).expect("registered");
        catalog.insert(first, rel);
        let mut pending = None;
        cold.push(timed("query.plan_cold_build", &mut || {
            pending = submit_query(&parsed, &catalog).ok();
        }));
        drop(pending.map(wcoj_query::PendingQuery::collect));
        for b in &batches {
            inserts.push(
                1e3 * timed("query.insert_rows", &mut || {
                    catalog.insert_rows(first, b).expect("arity 2");
                }),
            );
        }
        compacts.push(timed("query.compact", &mut || {
            catalog.compact(first);
        }));
        for b in &batches {
            deletes.push(
                1e3 * timed("query.delete_rows", &mut || {
                    catalog.delete_rows(first, b).expect("arity 2");
                }),
            );
        }
        catalog.compact(first);
    }

    // storage layer: index builds and the raw delta store
    let mut flat = Vec::new();
    let mut delta_inserts = Vec::new();
    let mut delta_compacts = Vec::new();
    for _ in 0..REPS {
        flat.push(timed("storage.flat_build", &mut || {
            for rel in inputs {
                std::hint::black_box(FlatIndex::build(rel, rel.schema().attrs()).expect("index"));
            }
        }));
        let mut store = DeltaRelation::new(w.relations[0].relation.clone());
        for b in &batches {
            delta_inserts.push(
                1e3 * timed("storage.delta_insert", &mut || {
                    store.insert_rows(b).expect("arity 2");
                }),
            );
        }
        delta_compacts.push(timed("storage.delta_compact", &mut || {
            store.compact();
        }));
    }

    // the same rows scanned through fresh delta buffers, then compacted
    let mut plain = catalog_like_the_servers(w, None);
    plain.set_compact_threshold(usize::MAX);
    for named in &w.relations {
        for b in &batches {
            plain.insert_rows(named.name, b).expect("arity 2");
        }
    }
    let scan = |catalog: &Catalog, name: &'static str| -> f64 {
        execute(&parsed, catalog).expect("sequential execution"); // refresh or build the plan
        let runs: Vec<f64> = (0..SCAN_REPS)
            .map(|_| {
                timed(name, &mut || {
                    drop(std::hint::black_box(execute(&parsed, catalog)))
                })
            })
            .collect();
        med(&runs)
    };
    let fresh = scan(&plain, "storage.scan_fresh_deltas");
    for named in &w.relations {
        plain.compact(named.name);
    }
    let compacted = scan(&plain, "storage.scan_compacted");

    // hypergraph layer: the fractional-cover LP on the workload's query
    let plan = PreparedQuery::<FlatIndex>::new_indexed(inputs).expect("well-formed inputs");
    let lp: Vec<f64> = (0..4 * REPS)
        .map(|_| {
            1e3 * timed("hypergraph.cover_lp", &mut || {
                let h = plan.query().hypergraph();
                std::hint::black_box(
                    wcoj_hypergraph::agm::optimal_cover(h, plan.input_sizes()).expect("LP"),
                );
            })
        })
        .collect();

    OneOffs {
        plan_cold_build_ms: med(&cold),
        insert_rows_us: med(&inserts),
        delete_rows_us: med(&deletes),
        compact_ms: med(&compacts),
        flat_build_ms: med(&flat),
        delta_insert_us: med(&delta_inserts),
        delta_compact_ms: med(&delta_compacts),
        delta_scan_ratio: if compacted > 0.0 {
            fresh / compacted
        } else {
            0.0
        },
        cover_lp_us: med(&lp),
    }
}

/// The relations the in-process `service`/`core` rungs join: the
/// workload's relations under the query's attribute ids — for
/// `ingest_mixed`, with the window fill merged in and compacted, so the
/// rungs below `query` see the same rows without the delta buffers.
fn engine_inputs(w: &Workload, catalog: &Catalog) -> Vec<Relation> {
    if w.kind == Kind::PointLookup {
        // lookups are reduced per constant; this is the shape for the LP
        return w.join_inputs(w.representative_query().1);
    }
    w.relations
        .iter()
        .map(|named| {
            let merged = catalog.get(named.name).expect("registered");
            let rows = merged.iter_rows().map(<[Value]>::to_vec).collect();
            Relation::from_rows(named.relation.schema().clone(), rows).expect("same arity")
        })
        .collect()
}

/// Runs the traced pass in about `seconds` of measurement.
///
/// # Errors
/// Server start or set-up failures, or an unwritable `results_dir`.
pub fn run(
    w: &Workload,
    oracle: &Oracle,
    seconds: f64,
    results_dir: Option<&Path>,
) -> Result<Layers, String> {
    let tracer = Tracer::new();
    let slice = |share: f64| Duration::from_secs_f64(seconds * share);

    // Load phase: the same short round, untraced and traced.
    let warm_up = slice(0.04).min(Duration::from_secs(1));
    let untraced = run_round(w, oracle, warm_up, slice(0.16), None, false)?;
    let traced = run_round(w, oracle, warm_up, slice(0.16), Some(&tracer), true)?;
    let p50 = |r: &Round| {
        let mut v = r.query_ms.clone();
        med(sorted(&mut v))
    };
    let (before, after) = traced
        .scrapes
        .as_ref()
        .ok_or("the traced round did not scrape /metrics")?;
    let (before, after) = (Scrape::parse(before), Scrape::parse(after));
    let counter = |name: &str| after.delta(&before, name);
    let hits = counter("wcoj_plan_cache_hits_total");
    let misses = counter("wcoj_plan_cache_misses_total");
    let refreshes = counter("wcoj_plan_cache_refreshes_total");

    // Ladder: one caller, the same requests on every rung.
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let catalog = catalog_like_the_servers(w, Some(Arc::clone(&service)));
    let inputs = engine_inputs(w, &catalog);
    let catalog = RwLock::new(catalog);
    for op in w.warm_queries() {
        let Op::Query { text, .. } = op else { continue };
        let parsed = parse_query(&text).expect("generated queries parse");
        let guard = catalog.read().expect("catalog lock");
        submit_query(&parsed, &guard)
            .and_then(wcoj_query::PendingQuery::collect)
            .map_err(|e| e.to_string())?;
    }
    let mut ladder = Ladder {
        w,
        oracle,
        tracer: &tracer,
        samples: Samples::default(),
        counts: Counts::default(),
        tally: Tally::default(),
    };
    ladder.tally.absorb(untraced.tally);
    ladder.tally.absorb(traced.tally);
    ladder.http_rung(slice(0.15))?;
    ladder.execute_rung(slice(0.15), &catalog);
    ladder.service_and_core_rungs(slice(0.2), &service, &inputs);
    let shed = service.counters().shed;
    let one = one_offs(w, &tracer, &service, &inputs);
    drop(catalog);

    let s = &ladder.samples;
    let c = &ladder.counts;
    let queries = c.queries.max(1) as f64;
    let server_self_ms = med(&s.http_ms) - med(&s.execute_ms);
    let rows_per_query = (c.http_rows as f64 / queries).max(1.0);
    let submit_us = if s.submit_hit_us.is_empty() {
        &s.submit_any_us
    } else {
        &s.submit_hit_us
    };
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let values = [
        ("client.http_ms", med(&s.http_ms)),
        ("server.self_ms", server_self_ms),
        (
            "server.self_us_per_row",
            server_self_ms * 1e3 / rows_per_query,
        ),
        ("server.bytes_out_per_req", c.http_bytes as f64 / queries),
        // minus the closing scrape itself
        (
            "server.requests",
            counter("wcoj_server_http_requests_total") - 1.0,
        ),
        ("server.errors", counter("wcoj_server_http_errors_total")),
        (
            "server.overloaded",
            counter("wcoj_server_http_overloaded_total"),
        ),
        ("server.reconnects", traced.reconnects as f64),
        ("query.parse_us", med(&s.parse_us)),
        ("query.freeze_us", med(&s.freeze_us)),
        ("query.submit_us", med(submit_us)),
        ("query.drain_ms", med(&s.drain_ms)),
        ("query.self_ms", med(&s.execute_ms) - med(&s.submit_wait_ms)),
        (
            "query.plan_cache_hit_ratio",
            ratio(hits, hits + misses + refreshes),
        ),
        ("query.plan_cache_misses", misses),
        ("query.plan_cache_refreshes", refreshes),
        ("query.plan_cold_build_ms", one.plan_cold_build_ms),
        ("query.insert_rows_us", one.insert_rows_us),
        ("query.delete_rows_us", one.delete_rows_us),
        ("query.compact_ms", one.compact_ms),
        (
            "query.compactions",
            counter("wcoj_catalog_compactions_total"),
        ),
        ("query.delta_rows_at_query", mean(&s.delta_rows)),
        ("service.admitted_us", med(&s.admitted_us)),
        ("service.queue_wait_us", med(&s.queue_wait_us)),
        ("service.shards_per_query", mean(&s.shards)),
        ("service.shard_run_ms_max", med(&s.shard_run_max_ms)),
        ("service.shard_imbalance", med(&s.shard_imbalance)),
        ("service.reassemble_us", med(&s.reassemble_us)),
        ("service.shed", shed as f64),
        (
            "service.overhead_ratio",
            ratio(med(&s.submit_wait_ms), med(&s.evaluate_ms)),
        ),
        ("exec.plan_shards_us", med(&s.plan_shards_us)),
        ("exec.shard_layout_us", med(&s.shard_layout_us)),
        ("core.evaluate_ms", med(&s.evaluate_ms)),
        ("core.prepare_ms", med(&s.prepare_ms)),
        ("core.rows_out", c.rows_out as f64),
        ("core.intermediate_tuples", c.intermediate as f64),
        ("core.case_a", c.case_a as f64),
        ("core.case_b", c.case_b as f64),
        ("core.agm_ratio", ratio(c.intermediate as f64, c.agm_bound)),
        (
            "core.ns_per_intermediate_tuple",
            ratio(c.evaluate_ns_all, c.intermediate_all as f64),
        ),
        (
            "core.allocs_per_row",
            ratio(c.allocs as f64, c.rows_out as f64),
        ),
        (
            "core.alloc_bytes_per_row",
            ratio(c.alloc_bytes as f64, c.rows_out as f64),
        ),
        ("storage.flat_build_ms", one.flat_build_ms),
        ("storage.delta_insert_us", one.delta_insert_us),
        ("storage.delta_compact_ms", one.delta_compact_ms),
        ("storage.delta_scan_ratio", one.delta_scan_ratio),
        ("hypergraph.cover_lp_us", one.cover_lp_us),
        (
            "obs.tracing_overhead_frac",
            ratio(p50(&traced), p50(&untraced)) - 1.0,
        ),
    ];
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let found = values.iter().find(|(n, _)| *n == name);
            LayerMetric {
                name,
                unit,
                value: found.expect("every listed metric is computed above").1,
            }
        })
        .collect();

    let spans = tracer.spans();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let detail = Json::obj([
        (
            "sample_requests_per_pass",
            Json::Num(sample_size(w.kind) as f64),
        ),
        ("http_samples", Json::Num(s.http_ms.len() as f64)),
        ("execute_samples", Json::Num(s.execute_ms.len() as f64)),
        (
            "submit_wait_samples",
            Json::Num(s.submit_wait_ms.len() as f64),
        ),
        ("evaluate_samples", Json::Num(s.evaluate_ms.len() as f64)),
        (
            "load_samples_untraced",
            Json::Num(untraced.query_ms.len() as f64),
        ),
        (
            "load_samples_traced",
            Json::Num(traced.query_ms.len() as f64),
        ),
        ("query_execute_p50_ms", Json::Num(med(&s.execute_ms))),
        (
            "service_submit_wait_p50_ms",
            Json::Num(med(&s.submit_wait_ms)),
        ),
        // service figures are one core's view until measured on more
        ("multi_core_pending", Json::Bool(cores <= 2)),
        ("spans", Json::Num(spans.len() as f64)),
        ("available_parallelism", Json::Num(cores as f64)),
    ]);
    if let Some(dir) = results_dir {
        let path = dir.join(format!("trace-{}.json", w.name()));
        let dump = Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::Num(w.seed as f64)),
            ("spans", spans_json(&spans)),
        ]);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, dump.compact()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Layers {
        metrics,
        tally: ladder.tally,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::EXACT_COUNTS;

    #[test]
    fn traced_pass_reports_every_metric_and_repeats_its_counts() {
        let w = Workload::new(Kind::PointLookup, 3);
        let oracle = Oracle::build(&w);
        let value = |layers: &Layers, name: &str| {
            let m = layers.metrics.iter().find(|m| m.name == name);
            m.unwrap_or_else(|| panic!("{name} is reported")).value
        };
        let a = run(&w, &oracle, 0.5, None).unwrap();
        let b = run(&w, &oracle, 0.5, None).unwrap();
        assert_eq!(a.tally.failed, 0);
        assert_eq!(a.metrics.len(), PER_LAYER.len());
        for (name, _, _) in PER_LAYER {
            assert!(value(&a, name).is_finite(), "{name}");
        }
        for name in EXACT_COUNTS {
            // the first evaluation in a process also pays a handful of
            // once-per-process allocations, so the allocator counts repeat
            // between processes (see `compare`), not between two passes of one
            if !name.contains("alloc") {
                assert_eq!(value(&a, name), value(&b, name), "{name} repeats exactly");
            }
        }
        assert!(value(&a, "core.rows_out") > 0.0);
        assert!(
            value(&a, "core.allocs_per_row") > 0.0,
            "the counting allocator is installed"
        );
        let hit_ratio = value(&a, "query.plan_cache_hit_ratio");
        assert!((0.8..1.0).contains(&hit_ratio), "{hit_ratio}");
    }

    #[test]
    fn scrapes_are_parsed_into_counter_deltas() {
        let before =
            Scrape::parse("# HELP x y\n# TYPE x counter\nx_total 3\nh_bucket{le=\"1\"} 2\n");
        let after = Scrape::parse("x_total 10\nh_bucket{le=\"1\"} 5\nnew_total 4\n");
        assert_eq!(after.delta(&before, "x_total"), 7.0);
        assert_eq!(after.delta(&before, "new_total"), 4.0);
        assert_eq!(after.delta(&before, "absent"), 0.0);
    }
}
