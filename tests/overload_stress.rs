//! Overload, backpressure, fairness, and cancellation tests for the
//! shared-pool query service (`wcoj-service`).
//!
//! `tests/service_stress.rs` pins the scheduler's *correctness* contract
//! (bit-identical outputs under arbitrary interleaving); this suite pins
//! its *overload* contract:
//!
//! * **bounded admission** — a flood past `ServiceConfig::queue_depth`
//!   is shed with `SubmitError::Overloaded`, and every shed is reported
//!   in the counters, never silently dropped;
//! * **no correctness under pressure trade-off** — every *accepted*
//!   handle still resolves bit-identically (including row order) to the
//!   sequential `join_nprr`;
//! * **round-robin fairness** — a small query submitted right after a
//!   huge one completes long before the huge one finishes, instead of
//!   head-of-line-blocking behind its thousands of tasks;
//! * **admission only sheds** — `Service::submit` never waits for a
//!   slot; a submitter that retries on `Overloaded` lands every query, on
//!   on shared and owned `FlatIndex`es alike;
//! * **cancellation** — dropping handles mid-flood skips the abandoned
//!   work and frees admission slots.
//!
//! Scheduling races only really surface with optimizations on; CI runs
//! this suite again in release mode (`cargo test --release --test
//! overload_stress`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wcoj::core::nprr::PreparedQuery;
use wcoj::core::JoinStats;
use wcoj::datagen as gen;
use wcoj::prelude::*;
use wcoj::storage::{FlatIndex, SearchTree};
use wcoj::SubmitError;

/// Asserts rows are identical *including order* — `Relation` equality
/// already covers it (schema + row vector), the explicit row-by-row
/// check documents the bit-identical claim.
fn assert_bit_identical(got: &Relation, want: &Relation, ctx: &str) {
    assert_eq!(got.schema(), want.schema(), "{ctx}: schema");
    assert_eq!(got.len(), want.len(), "{ctx}: cardinality");
    for (i, (g, w)) in got.iter_rows().zip(want.iter_rows()).enumerate() {
        assert_eq!(g, w, "{ctx}: row {i} (order matters)");
    }
    assert_eq!(got, want, "{ctx}");
}

/// Accepted-under-overload queries still carry complete, internally
/// consistent profiles: every shard reported, phase
/// timestamps monotone, and per-shard rows/stats summing exactly to the
/// final output — admission pressure must not corrupt observability.
fn assert_profile_consistent(
    profile: &wcoj::service::QueryProfile,
    out: &wcoj::core::JoinOutput,
    ctx: &str,
) {
    assert!(profile.is_complete(), "{ctx}: every shard reported");
    for (slot, shard) in profile.shards.iter().enumerate() {
        assert_eq!(shard.slot, slot, "{ctx}: slot order");
    }
    assert_eq!(
        profile.total_rows(),
        out.relation.len() as u64,
        "{ctx}: per-shard rows sum to the output"
    );
    let mut stats = JoinStats::default();
    for shard in &profile.shards {
        stats.absorb(&shard.stats);
    }
    assert_eq!(
        stats.case_a + stats.case_b,
        out.stats.case_a + out.stats.case_b,
        "{ctx}: per-shard stats absorb to the total"
    );
    if profile.total_shards > 0 {
        let planned = profile.planned.unwrap_or_else(|| panic!("{ctx}: planned"));
        let first = profile
            .first_dispatch
            .unwrap_or_else(|| panic!("{ctx}: first_dispatch"));
        let last = profile
            .last_finish
            .unwrap_or_else(|| panic!("{ctx}: last_finish"));
        let reassembled = profile
            .reassembled
            .unwrap_or_else(|| panic!("{ctx}: reassembled"));
        assert!(
            profile.admitted <= planned && planned <= first && first <= last && last <= reassembled,
            "{ctx}: monotone phases: {profile:?}"
        );
    }
}

/// A small mixed workload: name, relations, sequential oracle.
fn flood_instances() -> Vec<(String, Vec<Relation>, Relation)> {
    let mut out: Vec<(String, Vec<Relation>)> = Vec::new();
    for i in 0..2u64 {
        out.push((format!("triangle_hard/{i}"), gen::example_2_2(32 + 16 * i)));
        out.push((format!("agm_tight/{i}"), gen::agm_tight_triangle(4 + i)));
        out.push((format!("lw4/{i}"), gen::random_lw(11 + i, 4, 80, 8)));
        out.push((format!("figure2/{i}"), gen::worked_example(31 + i, 60, 6)));
        out.push((
            format!("zipf_triangle/{i}"),
            vec![
                gen::zipf_relation(71 + i, &[0, 1], 120, 20, 1.3),
                gen::zipf_relation(81 + i, &[1, 2], 120, 20, 1.3),
                gen::zipf_relation(91 + i, &[0, 2], 120, 20, 1.3),
            ],
        ));
    }
    out.into_iter()
        .map(|(name, rels)| {
            let oracle = join(&rels).expect("sequential oracle");
            (name, rels, oracle)
        })
        .collect()
}

/// Satellite (a) + (b): 8 submitter threads flood a 2-worker pool with a
/// queue bound far below the offered load. Every submission either yields
/// a handle that resolves bit-identically to `join_nprr`, or a reported
/// `Overloaded` shed that the submitter retries — and the service's own
/// counters agree exactly with what the submitters observed.
#[test]
fn flood_past_queue_bound_sheds_and_stays_correct() {
    const QUEUE_DEPTH: usize = 6;
    const SUBMITTERS: usize = 8;
    const PER_SUBMITTER: usize = 12;
    let instances = flood_instances();
    let prepared: Vec<Arc<PreparedQuery>> = instances
        .iter()
        .map(|(_, rels, _)| Arc::new(PreparedQuery::new(rels).expect("well-formed instance")))
        .collect();

    let service = Arc::new(Service::new(
        ServiceConfig::with_workers(2).with_queue_depth(QUEUE_DEPTH),
    ));
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..service.exec_config()
    };

    // Phase 1 — deterministic overload: pin every admission slot with a
    // long-running blocker (its cover solved and memoized up front:
    // submission itself is microseconds, the engine run tens of
    // milliseconds), then flood from 8 threads. The first wave of flood
    // submissions is *guaranteed* to be shed — and shed loudly, not
    // dropped.
    let blocker_rels = gen::cycle_instance(43, 5, 300, 15);
    let blocker = Arc::new(PreparedQuery::new(&blocker_rels).expect("well-formed"));
    blocker.resolve_cover(None).expect("cover");
    let blocker_seq = join(&blocker_rels).unwrap();
    let blockers: Vec<QueryHandle> = (0..QUEUE_DEPTH)
        .map(|_| {
            service
                .submit(&blocker, &cfg)
                .expect("blockers fill the queue exactly")
        })
        .collect();
    match service.submit(&blocker, &cfg) {
        Err(SubmitError::Overloaded {
            in_flight,
            queue_depth,
        }) => {
            assert_eq!(in_flight, QUEUE_DEPTH);
            assert_eq!(queue_depth, QUEUE_DEPTH);
        }
        other => panic!("full queue must shed: {other:?}"),
    }

    // Phase 2 — the flood: each submitter pushes its queries with
    // shed-and-retry, so overload slows it down but loses nothing.
    let shed_seen = AtomicU64::new(1); // the probe shed above
    let accepted_seen = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for submitter in 0..SUBMITTERS {
            let service = Arc::clone(&service);
            let cfg = cfg.clone();
            let prepared = &prepared;
            let instances = &instances;
            let shed_seen = &shed_seen;
            let accepted_seen = &accepted_seen;
            scope.spawn(move || {
                for j in 0..PER_SUBMITTER {
                    let q = (submitter + j * SUBMITTERS) % prepared.len();
                    let handle = loop {
                        match service.submit(&prepared[q], &cfg) {
                            Ok(handle) => break handle,
                            Err(SubmitError::Overloaded {
                                in_flight,
                                queue_depth,
                            }) => {
                                // The shed is *reported*, with a coherent
                                // snapshot, not silently dropped.
                                assert_eq!(queue_depth, QUEUE_DEPTH);
                                assert!(in_flight >= QUEUE_DEPTH, "shed only at the bound");
                                shed_seen.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    };
                    accepted_seen.fetch_add(1, Ordering::Relaxed);
                    let (out, profile) = handle.wait_profiled().expect("accepted query evaluates");
                    let ctx = format!("{} by submitter {submitter}", instances[q].0);
                    assert_bit_identical(&out.relation, &instances[q].2, &ctx);
                    assert_profile_consistent(&profile, &out, &ctx);
                }
            });
        }
    });
    for b in blockers {
        assert_bit_identical(&b.wait().unwrap().relation, &blocker_seq, "blocker");
    }

    let shed = shed_seen.load(Ordering::Relaxed);
    let accepted = accepted_seen.load(Ordering::Relaxed) + QUEUE_DEPTH as u64;
    assert_eq!(
        accepted,
        (SUBMITTERS * PER_SUBMITTER + QUEUE_DEPTH) as u64,
        "retries land every query despite the overload"
    );
    let counters = service.counters();
    assert_eq!(counters.shed, shed, "service agrees on the shed count");
    assert_eq!(counters.submitted, accepted, "shed submissions don't count");
    assert_eq!(
        counters.completed, accepted,
        "every accepted query finished"
    );
    assert_eq!(counters.in_flight, 0);
    assert_eq!(counters.queued_tasks, 0);
    assert!(shed >= 1, "the flood actually overloaded the service");
}

/// Admission never waits: under the same flood with a tighter bound,
/// every submitter retries its shed submissions on its own clock, all
/// queries land bit-identical, and the service counts exactly the sheds
/// the submitters saw. Generic over the index backend so the flat
/// columnar layout takes the same beating owned as shared.
fn retry_flood_lands_every_query_impl<S>()
where
    S: SearchTree + Send + Sync + 'static,
{
    let instances = flood_instances();
    let prepared: Vec<Arc<PreparedQuery<S>>> = instances
        .iter()
        .map(|(_, rels, _)| {
            Arc::new(PreparedQuery::<S>::new_indexed(rels).expect("well-formed instance"))
        })
        .collect();
    let service = Arc::new(Service::new(
        ServiceConfig::with_workers(2).with_queue_depth(3),
    ));
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..service.exec_config()
    };
    const SUBMITTERS: usize = 8;
    const PER_SUBMITTER: usize = 6;
    let shed_seen = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for submitter in 0..SUBMITTERS {
            let service = Arc::clone(&service);
            let cfg = cfg.clone();
            let prepared = &prepared;
            let instances = &instances;
            let shed_seen = &shed_seen;
            scope.spawn(move || {
                for j in 0..PER_SUBMITTER {
                    let q = (submitter * PER_SUBMITTER + j) % prepared.len();
                    let handle = loop {
                        match service.submit(&prepared[q], &cfg) {
                            Ok(handle) => break handle,
                            Err(SubmitError::Overloaded { .. }) => {
                                shed_seen.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected submit error: {e}"),
                        }
                    };
                    let (out, profile) = handle.wait_profiled().expect("query evaluates");
                    let ctx = format!("{} retrying submitter {submitter}", instances[q].0);
                    assert_bit_identical(&out.relation, &instances[q].2, &ctx);
                    assert_profile_consistent(&profile, &out, &ctx);
                }
            });
        }
    });
    let counters = service.counters();
    assert_eq!(counters.shed, shed_seen.load(Ordering::Relaxed));
    assert_eq!(counters.submitted, (SUBMITTERS * PER_SUBMITTER) as u64);
    assert_eq!(counters.completed, counters.submitted);
    assert_eq!(counters.in_flight, 0);
}

#[test]
fn retry_flood_lands_every_query() {
    retry_flood_lands_every_query_impl::<Arc<FlatIndex>>();
}

#[test]
fn retry_flood_lands_every_query_flat() {
    retry_flood_lands_every_query_impl::<FlatIndex>();
}

/// Satellite (c): round-robin dispatch. A huge multi-task query is
/// submitted first, a tiny triangle right behind it; under the old FIFO
/// injector the triangle would wait for *every* huge task, under
/// round-robin it completes while the huge query still has most of its
/// tasks outstanding — and both outputs stay bit-identical.
#[test]
fn small_query_behind_huge_one_finishes_first() {
    for workers in [1usize, 2] {
        let service = Service::new(ServiceConfig::with_workers(workers));
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };

        // Gate: a moderate query that pins the whole pool while the two
        // rings below are enqueued. Without it, a single-core host can
        // schedule the worker for a full timeslice right after the huge
        // submission and drain its entire ring before the small query is
        // even submitted — the race this test exists to rule out must
        // not sneak back in through the test harness itself.
        let gate_rels = gen::cycle_instance(43, 5, 300, 15);
        let gate_prepared = Arc::new(PreparedQuery::new(&gate_rels).expect("well-formed"));
        gate_prepared.resolve_cover(None).expect("cover");

        // Huge: a 5-cycle with a multi-task plan and ~100 ms of engine
        // work (release mode) — after the small query lands, several
        // tasks' worth of work remain, orders of magnitude more than the
        // waiter's wake-up latency. Its cover is solved up front (and
        // memoized), so the small query can chase it within microseconds.
        let huge_rels = gen::cycle_instance(47, 5, 500, 22);
        let huge_prepared = Arc::new(PreparedQuery::new(&huge_rels).expect("well-formed"));
        huge_prepared.resolve_cover(None).expect("cover");
        let huge_seq = join(&huge_rels).unwrap();
        let huge_tasks = service.shard_layout(&*huge_prepared, &cfg).len();
        assert!(
            huge_tasks >= 4,
            "huge query is multi-task ({huge_tasks} tasks at {workers} workers)"
        );

        // Small: the 3-row triangle (a single-task plan).
        let small_rels = vec![
            Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[1, 3]]),
            Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[2, 4], &[3, 4]]),
            Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[1, 4]]),
        ];
        let small_prepared = Arc::new(PreparedQuery::new(&small_rels).expect("well-formed"));
        small_prepared.resolve_cover(None).expect("cover");
        let small_seq = join(&small_rels).unwrap();

        let gate = service.submit(&gate_prepared, &cfg).unwrap();
        let huge = service.submit(&huge_prepared, &cfg).unwrap();
        let small = service.submit(&small_prepared, &cfg).unwrap();

        // Round-robin across the three rings reaches the small query's
        // single task within a couple of turns; the huge ring still holds
        // most of its tasks when the small result lands.
        let small_out = small.wait().expect("small query evaluates");
        assert!(
            !huge.is_finished(),
            "round-robin: the small query finished while the huge one \
             ({huge_tasks} tasks) still runs ({workers} workers)"
        );
        assert_bit_identical(
            &small_out.relation,
            &small_seq,
            &format!("small @ {workers} workers"),
        );
        // Fairness never costs correctness: the huge query's output is
        // still bit-identical after the interleaving.
        let huge_out = huge.wait().expect("huge query evaluates");
        assert_bit_identical(
            &huge_out.relation,
            &huge_seq,
            &format!("huge @ {workers} workers"),
        );
        gate.wait().expect("gate query evaluates");
    }
}

/// Dropping handles mid-flood cancels their queries: the pool skips the
/// abandoned tasks, admission slots free up for later submissions, and
/// surviving queries stay bit-identical.
#[test]
fn cancellation_under_load_frees_the_pool() {
    // Runs on the flat columnar backend: cancellation mid-flood must
    // behave identically regardless of index layout.
    let instances = flood_instances();
    let prepared: Vec<Arc<PreparedQuery<FlatIndex>>> = instances
        .iter()
        .map(|(_, rels, _)| {
            Arc::new(PreparedQuery::<FlatIndex>::new_indexed(rels).expect("well-formed instance"))
        })
        .collect();
    let service = Arc::new(Service::new(ServiceConfig::with_workers(2)));
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..service.exec_config()
    };

    // Submit everything twice; keep every other handle, drop the rest.
    let kept: Mutex<Vec<(usize, QueryHandle)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for submitter in 0..4usize {
            let service = Arc::clone(&service);
            let cfg = cfg.clone();
            let prepared = &prepared;
            let kept = &kept;
            scope.spawn(move || {
                for j in 0..prepared.len() {
                    let q = (submitter + j) % prepared.len();
                    let handle = service.submit(&prepared[q], &cfg).expect("unbounded");
                    if j % 2 == 0 {
                        kept.lock().unwrap().push((q, handle));
                    } // else: dropped right here — cancelled
                }
            });
        }
    });

    let kept = kept.into_inner().unwrap();
    assert!(!kept.is_empty());
    for (q, handle) in kept {
        let (out, profile) = handle.wait_profiled().expect("kept query evaluates");
        let ctx = format!("kept {}", instances[q].0);
        assert_bit_identical(&out.relation, &instances[q].2, &ctx);
        // Cancellations of *other* queries must not leak into the kept
        // queries' profiles.
        assert_profile_consistent(&profile, &out, &ctx);
    }
    // Every query (kept or cancelled) eventually drains and releases its
    // admission slot.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let c = service.counters();
        if c.in_flight == 0 && c.queued_tasks == 0 {
            assert_eq!(c.completed, c.submitted, "cancelled queries drain too");
            assert!(c.cancelled > 0, "some handles were dropped: {c:?}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "cancelled queries never drained: {c:?}"
        );
        std::thread::yield_now();
    }
}
