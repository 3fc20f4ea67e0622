//! Concurrency, determinism, and differential tests for the shared-pool
//! query service (`wcoj-service`).
//!
//! The scheduler's contract is brutal and simple: no matter how many
//! queries are in flight, how many workers the pool has, which index
//! backend a query prepared, or how the injector interleaves shard
//! tasks, every query's output is **bit-identical** to the sequential
//! `join_nprr` — same rows, same order — and its absorbed `JoinStats`
//! match a shard-by-shard sequential re-run of the same plan. These
//! tests pin all of that down across every seed query family.
//!
//! Interleavings only really shake out with optimizations on; CI runs
//! this suite in release mode (`cargo test --release --test
//! service_stress`) in addition to the plain debug `cargo test`.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wcoj::core::nprr::PreparedQuery;
use wcoj::core::JoinStats;
use wcoj::datagen as gen;
use wcoj::prelude::*;
use wcoj::storage::{FlatIndex, SearchTree};

/// The seed query families, `variants` instances each, with sizes small
/// enough that the full matrix stays debug-mode friendly.
fn seed_family_instances(variants: u64) -> Vec<(String, Vec<Relation>)> {
    let mut out = Vec::new();
    for i in 0..variants {
        out.push((format!("triangle_hard/{i}"), gen::example_2_2(32 + 16 * i)));
        out.push((format!("agm_tight/{i}"), gen::agm_tight_triangle(4 + i)));
        out.push((format!("lw4/{i}"), gen::random_lw(11 + i, 4, 80, 8)));
        out.push((
            format!("cycle5/{i}"),
            gen::cycle_instance(23 + i, 5, 50, 10),
        ));
        out.push((format!("figure2/{i}"), gen::worked_example(31 + i, 60, 6)));
        out.push((
            format!("random_triangle/{i}"),
            vec![
                gen::random_relation(41 + i, &[0, 1], 100, 12),
                gen::random_relation(51 + i, &[1, 2], 100, 12),
                gen::random_relation(61 + i, &[0, 2], 100, 12),
            ],
        ));
        out.push((
            format!("zipf_triangle/{i}"),
            vec![
                gen::zipf_relation(71 + i, &[0, 1], 120, 20, 1.3),
                gen::zipf_relation(81 + i, &[1, 2], 120, 20, 1.3),
                gen::zipf_relation(91 + i, &[0, 2], 120, 20, 1.3),
            ],
        ));
        out.push((
            format!("mixed_hypergraph/{i}"),
            vec![
                gen::random_relation(101 + i, &[0, 1, 2], 60, 7),
                gen::random_relation(111 + i, &[2, 3], 60, 7),
                gen::random_relation(121 + i, &[0, 3], 60, 7),
                gen::random_relation(131 + i, &[1, 3], 60, 7),
            ],
        ));
    }
    out
}

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

/// The observability contract for a finished query: the
/// profile covers every scheduled shard in slot order, lifecycle phases
/// are monotone, per-shard rows sum to the output's cardinality, and
/// per-shard `JoinStats` absorb to the output's engine totals.
fn assert_profile_consistent(
    profile: &wcoj::service::QueryProfile,
    out: &wcoj::core::JoinOutput,
    ctx: &str,
) {
    assert!(profile.is_complete(), "{ctx}: every shard reported");
    assert_eq!(profile.shards.len(), profile.total_shards, "{ctx}");
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
    assert_eq!(stats.shards, out.stats.shards, "{ctx}: shard count");
    assert_eq!(
        stats.case_a + stats.case_b,
        out.stats.case_a + out.stats.case_b,
        "{ctx}: per-shard stats absorb to the total"
    );
    assert_eq!(
        stats.intermediate_tuples, out.stats.intermediate_tuples,
        "{ctx}: intermediate tuples"
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

/// 32+ queries across all seed families, submitted concurrently from
/// multiple client threads onto small shared pools, every result
/// bit-identical to sequential `join_nprr` — repeated over shuffle
/// seeds so submission order (and hence injector interleaving) varies.
#[test]
fn stress_concurrent_mixed_queries_match_sequential() {
    let instances = seed_family_instances(4);
    assert!(instances.len() >= 32, "all seed families represented");
    let prepared: Vec<(String, Arc<PreparedQuery>)> = instances
        .iter()
        .map(|(name, rels)| {
            (
                name.clone(),
                Arc::new(PreparedQuery::new(rels).expect("well-formed instance")),
            )
        })
        .collect();
    let expected: Vec<Relation> = instances
        .iter()
        .map(|(_, rels)| join(rels).expect("sequential oracle"))
        .collect();

    for workers in [2usize, 4, 8] {
        let service = Arc::new(Service::new(ServiceConfig::with_workers(workers)));
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        for round in 0..2u64 {
            // Deterministically shuffled submission order per round.
            let mut order: Vec<usize> = (0..prepared.len()).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(round * 1000 + workers as u64);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let submitters = 4;
            std::thread::scope(|scope| {
                for s in 0..submitters {
                    let order = &order;
                    let prepared = &prepared;
                    let expected = &expected;
                    let service = Arc::clone(&service);
                    let cfg = cfg.clone();
                    scope.spawn(move || {
                        // Submit this thread's whole slice first, then
                        // wait: keeps many queries in flight at once.
                        let mine: Vec<usize> =
                            order.iter().copied().skip(s).step_by(submitters).collect();
                        let handles: Vec<(usize, QueryHandle)> = mine
                            .iter()
                            .map(|&q| (q, service.submit(&prepared[q].1, &cfg).expect("submit")))
                            .collect();
                        for (q, handle) in handles {
                            let (out, profile) = handle.wait_profiled().expect("join");
                            let ctx =
                                format!("{} @ {workers} workers, round {round}", prepared[q].0);
                            assert_bit_identical(&out.relation, &expected[q], &ctx);
                            // Profiles stay consistent under full
                            // concurrency, not just in isolation.
                            assert_profile_consistent(&profile, &out, &ctx);
                        }
                    });
                }
            });
        }
        assert_eq!(service.counters().submitted, 2 * prepared.len() as u64);
    }
}

/// Submitting a query concurrently with itself (plus background noise)
/// yields identical row order: the deterministic root-order merge must
/// survive the shared injector.
#[test]
fn determinism_same_query_twice_concurrently() {
    let rels = vec![
        gen::zipf_relation(5, &[0, 1], 150, 18, 1.2),
        gen::zipf_relation(6, &[1, 2], 150, 18, 1.2),
        gen::zipf_relation(7, &[0, 2], 150, 18, 1.2),
    ];
    let seq = join(&rels).unwrap();
    let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
    let noise = Arc::new(PreparedQuery::new(&gen::example_2_2(48)).unwrap());
    let service = Service::new(ServiceConfig::with_workers(3));
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..service.exec_config()
    };
    for _ in 0..8 {
        let n1 = service.submit(&noise, &cfg).unwrap();
        let a = service.submit(&prepared, &cfg).unwrap();
        let b = service.submit(&prepared, &cfg).unwrap();
        let n2 = service.submit(&noise, &cfg).unwrap();
        let (a, b) = (a.wait().unwrap(), b.wait().unwrap());
        assert_bit_identical(&a.relation, &b.relation, "self-race");
        assert_bit_identical(&a.relation, &seq, "vs sequential");
        assert_eq!(a.stats.shards, b.stats.shards, "same plan both times");
        n1.wait().unwrap();
        n2.wait().unwrap();
    }
}

/// Zero-shard plans through the service path: empty inputs and an empty
/// root-candidate intersection return cleanly, with no shard ever run.
/// (The planner-side twin lives in `wcoj-exec`'s unit tests.)
#[test]
fn zero_shard_plans_resolve_cleanly() {
    let service = Service::new(ServiceConfig::with_workers(4));
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..service.exec_config()
    };

    // Empty root domain: π_root intersection is empty though every
    // relation is populated (the root is attribute 0, in R and T).
    let rels = vec![
        Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[10, 1], &[10, 2], &[11, 3]]),
        Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[1, 20], &[2, 20], &[3, 21]]),
        Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[12, 20], &[13, 21]]),
    ];
    assert_eq!(PreparedQuery::new(&rels).unwrap().total_order()[0], 0);
    let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
    assert!(service.shard_layout(&*prepared, &cfg).is_empty());
    let out = service.submit(&prepared, &cfg).unwrap().wait().unwrap();
    let seq = join(&rels).unwrap();
    assert_bit_identical(&out.relation, &seq, "empty root domain");
    assert!(out.relation.is_empty());
    assert_eq!(out.stats.shards, 0, "no shard task scheduled");
    assert_eq!(out.stats.case_a + out.stats.case_b, 0, "engine never ran");

    // All-empty / one-empty relations.
    let rels = vec![
        Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2]]),
        Relation::empty(Schema::of(&[1, 2])),
    ];
    let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
    let out = service.submit(&prepared, &cfg).unwrap().wait().unwrap();
    assert!(out.relation.is_empty());
    assert_eq!(out.relation.arity(), 3);
    assert_eq!(out.stats.shards, 0);
}

/// Repeat-submission rounds through the catalog front end on a live
/// service: the prepared plan (cover LP + flat indexes) is built exactly
/// once, every later round is a plan-cache hit, outputs stay
/// bit-identical across rounds, and replacing a relation mid-stream
/// forces a rebuild with zero stale hits.
#[test]
fn repeat_submissions_reuse_cached_plans_through_the_service() {
    let rels = vec![
        gen::zipf_relation(301, &[0, 1], 140, 18, 1.3),
        gen::zipf_relation(302, &[1, 2], 140, 18, 1.3),
        gen::zipf_relation(303, &[0, 2], 140, 18, 1.3),
    ];
    let seq = join(&rels).unwrap();
    let mut catalog = Catalog::new();
    for (name, rel) in ["R", "S", "T"].iter().zip(rels.iter().cloned()) {
        catalog.insert(*name, rel);
    }
    let service = Arc::new(Service::new(ServiceConfig::with_workers(4)));
    catalog.set_service(Some(Arc::clone(&service)));
    let q = parse_query("Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).").unwrap();

    let first = execute(&q, &catalog).unwrap();
    assert_bit_identical(&first.relation, &seq, "first round vs sequential");
    assert_eq!(catalog.plan_cache_stats(), (0, 1), "first round builds");
    for round in 1..=5u64 {
        let out = execute(&q, &catalog).unwrap();
        assert_bit_identical(&out.relation, &seq, &format!("round {round}"));
        assert_eq!(
            catalog.plan_cache_stats(),
            (round, 1),
            "round {round} served from the plan cache"
        );
    }
    assert_eq!(
        service.counters().submitted,
        6,
        "every round still hit the pool"
    );

    // Replace a relation mid-stream: the next round must rebuild (no
    // stale hit) and reflect the new contents.
    catalog.insert("R", gen::zipf_relation(999, &[0, 1], 140, 18, 1.3));
    let replaced = execute(&q, &catalog).unwrap();
    assert_eq!(
        catalog.plan_cache_stats(),
        (5, 2),
        "replacement invalidated the cached plan"
    );
    let oracle_rels = vec![
        catalog.get("R").unwrap().clone(),
        catalog.get("S").unwrap().clone(),
        catalog.get("T").unwrap().clone(),
    ];
    let oracle = join(&oracle_rels).unwrap();
    assert_bit_identical(&replaced.relation, &oracle, "post-replace round");
}

/// A random query instance in the style of the exec proptests: 2–5
/// relations of arity ≤ 3 over 2–5 attributes.
fn random_instance(seed: u64) -> Vec<Relation> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_attr = rng.gen_range(2..6u32);
    let n_rel = rng.gen_range(2..5usize);
    let mut rels = Vec::new();
    for i in 0..n_rel {
        let arity = rng.gen_range(1..=3.min(n_attr));
        let mut attrs: Vec<u32> = (0..n_attr).collect();
        for j in (1..attrs.len()).rev() {
            attrs.swap(j, rng.gen_range(0..=j));
        }
        attrs.truncate(arity as usize);
        attrs.sort_unstable();
        let count = rng.gen_range(5..40);
        let dom = rng.gen_range(2..8u64);
        rels.push(gen::random_relation(
            seed.wrapping_mul(31).wrapping_add(i as u64),
            &attrs,
            count,
            dom,
        ));
    }
    rels
}

/// Service output and stats for one prepared query, checked against the
/// sequential oracle and a shard-by-shard sequential re-run of the same
/// plan (`JoinStats::absorb` totals must not depend on pool
/// interleaving).
fn check_service_run<S>(
    service: &Service,
    rels: &[Relation],
    seq: &Relation,
    cfg: &ExecConfig,
    ctx: &str,
) where
    S: SearchTree + Send + Sync + 'static,
{
    let prepared = Arc::new(PreparedQuery::<S>::new_indexed(rels).expect("prepare"));
    let (out, profile) = service
        .submit(&prepared, cfg)
        .expect("submit")
        .wait_profiled()
        .expect("join");
    assert_bit_identical(&out.relation, seq, ctx);
    assert_profile_consistent(&profile, &out, ctx);

    if rels.iter().any(Relation::is_empty) {
        return; // degenerate: resolved at submit, no stats to re-run
    }
    // Re-run the exact shard layout sequentially and fold stats the way
    // the service does.
    let (x, log2_bound) = prepared.resolve_cover(None).expect("cover");
    let mut expect_stats = JoinStats {
        algorithm_used: "nprr-service",
        log2_agm_bound: log2_bound,
        cover: x.clone(),
        ..JoinStats::default()
    };
    for shard in service.shard_layout(&*prepared, cfg) {
        let (_, shard_stats) = prepared.run_shard(&x, log2_bound, shard);
        expect_stats.absorb(&shard_stats);
    }
    assert_eq!(
        out.stats.algorithm_used, expect_stats.algorithm_used,
        "{ctx}"
    );
    assert_eq!(out.stats.shards, expect_stats.shards, "{ctx}: shards");
    assert_eq!(out.stats.case_a, expect_stats.case_a, "{ctx}: case_a");
    assert_eq!(out.stats.case_b, expect_stats.case_b, "{ctx}: case_b");
    assert_eq!(
        out.stats.intermediate_tuples, expect_stats.intermediate_tuples,
        "{ctx}: intermediate_tuples"
    );
    assert_eq!(out.stats.cover, expect_stats.cover, "{ctx}: cover");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random query mixes × pool sizes × both index backends: the
    /// service always equals the sequential engine, and absorbed stats
    /// equal a sequential shard-by-shard re-run.
    #[test]
    fn prop_service_equals_sequential(seed in 0u64..10_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(7919));
        let mix: Vec<Vec<Relation>> = (0..3)
            .map(|i| random_instance(seed.wrapping_add(i * 1009)))
            .collect();
        let oracles: Vec<Relation> = mix
            .iter()
            .map(|rels| join(rels).unwrap())
            .collect();
        let workers = [1usize, 2, 4, 8][rng.gen_range(0..4usize)];
        let service = Service::new(ServiceConfig::with_workers(workers));
        let cfg = ExecConfig { shard_min_size: 1, ..service.exec_config() };
        for (rels, seq) in mix.iter().zip(&oracles) {
            let ctx = format!("seed {seed}, {workers} workers");
            check_service_run::<FlatIndex>(&service, rels, seq, &cfg, &format!("{ctx}, flat"));
            check_service_run::<Arc<FlatIndex>>(&service, rels, seq, &cfg, &format!("{ctx}, shared"));
        }
    }

    /// Zipf-skewed data across pool sizes: the work-based splitter's
    /// heavy-hitter isolation must stay invisible in the output.
    #[test]
    fn prop_service_zipf_skew(seed in 0u64..2_000) {
        let rels = vec![
            gen::zipf_relation(seed, &[0, 1], 120, 16, 1.4),
            gen::zipf_relation(seed + 1, &[1, 2], 120, 16, 1.4),
            gen::zipf_relation(seed + 2, &[0, 2], 120, 16, 1.4),
        ];
        let seq = join(&rels).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let service = Service::new(ServiceConfig::with_workers(workers));
            let cfg = ExecConfig { shard_min_size: 1, ..service.exec_config() };
            let ctx = format!("zipf seed {seed}, {workers} workers");
            check_service_run::<FlatIndex>(&service, &rels, &seq, &cfg, &format!("{ctx}, flat"));
            check_service_run::<Arc<FlatIndex>>(&service, &rels, &seq, &cfg, &format!("{ctx}, shared"));
        }
    }
}
