//! Skew-focused stress/property suite for intra-value parallelism.
//!
//! NPRR's worst-case optimality hinges on handling skew; this suite pins
//! the runtime's side of that bargain. A Zipf or single-hot-key workload
//! must not change *anything* observable: across pool sizes
//! {1, 2, 4, 8}, both index backends (owned and shared `FlatIndex`es),
//! and any `heavy_split_factor`,
//! the shared service pool produces rows bit-identical (including row
//! order) to the sequential `join_nprr`, and the absorbed `JoinStats` are
//! bit-identical to a deterministic shard-by-shard sequential re-run of
//! the same layout — i.e. independent of pool size, scheduling, and
//! interleaving. A heavy-keyed query racing itself through the pool is
//! the regression for the latter.
//!
//! Interleavings only really shake out with optimizations on; CI runs
//! this suite in release mode (`cargo test --release --test skew_stress`)
//! in addition to the plain debug `cargo test`.

use std::sync::Arc;

use proptest::prelude::*;
use wcoj::core::nprr::PreparedQuery;
use wcoj::core::JoinStats;
use wcoj::datagen as gen;
use wcoj::prelude::*;
use wcoj::storage::{FlatIndex, SearchTree};

/// The skewed instance families: high-exponent Zipf triangles (many
/// moderately hot keys) and the single-hot-key triangle (one root value
/// carrying ≥ 90% of the estimated work — the shape intra-value
/// parallelism exists for).
fn skewed_instances() -> Vec<(String, Vec<Relation>)> {
    let mut out = Vec::new();
    for i in 0..2u64 {
        out.push((
            format!("zipf_hot/{i}"),
            vec![
                gen::zipf_relation(201 + i, &[0, 1], 150, 16, 1.6),
                gen::zipf_relation(211 + i, &[1, 2], 150, 16, 1.6),
                gen::zipf_relation(221 + i, &[0, 2], 150, 16, 1.6),
            ],
        ));
        out.push((
            format!("single_hot_key/{i}"),
            gen::hot_key_triangle(231 + i, 80 + 16 * i as usize, 5),
        ));
    }
    out
}

/// Asserts rows are identical *including order* — `Relation` equality
/// already covers it (schema + row vector); the explicit row-by-row
/// check documents the bit-identical claim.
fn assert_bit_identical(got: &Relation, want: &Relation, ctx: &str) {
    assert_eq!(got.schema(), want.schema(), "{ctx}: schema");
    assert_eq!(got.len(), want.len(), "{ctx}: cardinality");
    for (i, (g, w)) in got.iter_rows().zip(want.iter_rows()).enumerate() {
        assert_eq!(g, w, "{ctx}: row {i} (order matters)");
    }
    assert_eq!(got, want, "{ctx}");
}

/// The observability contract under skew: even when a hot root value is
/// split into anchor sub-shards, the profile covers every task, phases
/// are monotone, and per-shard rows/stats reassemble exactly — the
/// sub-shards partition the hot key's output, so nothing double-counts.
fn assert_profile_consistent(
    profile: &wcoj::service::QueryProfile,
    out: &wcoj::core::JoinOutput,
    ctx: &str,
) {
    assert!(profile.is_complete(), "{ctx}: every shard reported");
    assert_eq!(
        profile.total_rows(),
        out.relation.len() as u64,
        "{ctx}: sub-shard rows sum to the output without double counting"
    );
    let mut stats = JoinStats::default();
    for shard in &profile.shards {
        stats.absorb(&shard.stats);
    }
    assert_eq!(stats.shards, out.stats.shards, "{ctx}: shard count");
    assert_eq!(stats.case_a, out.stats.case_a, "{ctx}: case_a");
    assert_eq!(stats.case_b, out.stats.case_b, "{ctx}: case_b");
    if profile.total_shards > 0 {
        let planned = profile.planned.expect("planned");
        let first = profile.first_dispatch.expect("first_dispatch");
        let last = profile.last_finish.expect("last_finish");
        let reassembled = profile.reassembled.expect("reassembled");
        assert!(
            profile.admitted <= planned && planned <= first && first <= last && last <= reassembled,
            "{ctx}: monotone phases: {profile:?}"
        );
    }
}

/// Field-by-field `JoinStats` equality (`JoinStats` has no `PartialEq`;
/// the explicit fields document exactly what must be deterministic).
fn assert_stats_identical(got: &JoinStats, want: &JoinStats, ctx: &str) {
    assert_eq!(got.algorithm_used, want.algorithm_used, "{ctx}: algorithm");
    assert_eq!(got.shards, want.shards, "{ctx}: shards");
    assert_eq!(got.case_a, want.case_a, "{ctx}: case_a");
    assert_eq!(got.case_b, want.case_b, "{ctx}: case_b");
    assert_eq!(
        got.intermediate_tuples, want.intermediate_tuples,
        "{ctx}: intermediate_tuples"
    );
    assert_eq!(got.cover, want.cover, "{ctx}: cover");
    assert!(
        (got.log2_agm_bound - want.log2_agm_bound).abs() < 1e-12,
        "{ctx}: log2_agm_bound"
    );
}

/// The `JoinStats` a service run must report: a sequential
/// shard-by-shard re-run of exactly the layout `Service::submit`
/// schedules for `cfg` — fully deterministic, so pool interleaving can
/// never show through in the absorbed totals.
fn expected_service_stats<S: SearchTree>(
    service: &Service,
    prepared: &PreparedQuery<S>,
    cfg: &ExecConfig,
) -> JoinStats {
    let (x, log2_bound) = prepared.resolve_cover(None).expect("cover");
    let mut stats = JoinStats {
        algorithm_used: "nprr-service",
        log2_agm_bound: log2_bound,
        cover: x.clone(),
        ..JoinStats::default()
    };
    for shard in service.shard_layout(prepared, cfg) {
        let (_, run) = prepared.run_shard(&x, log2_bound, shard);
        stats.absorb(&run);
    }
    stats
}

/// One prepared query through `Service::submit`, checked for
/// bit-identical rows against the sequential oracle and bit-identical
/// stats against the deterministic shard-by-shard re-run — twice, so a
/// scheduling-dependent wobble between repeat runs also fails.
fn check_service_run<S>(
    service: &Service,
    prepared: &Arc<PreparedQuery<S>>,
    seq: &Relation,
    cfg: &ExecConfig,
    ctx: &str,
) where
    S: SearchTree + Send + Sync + 'static,
{
    let expect_stats = expected_service_stats(service, prepared, cfg);
    let run = || {
        service
            .submit(prepared, cfg)
            .expect("submit")
            .wait()
            .expect("join")
    };
    let first = run();
    assert_bit_identical(&first.relation, seq, ctx);
    assert_stats_identical(&first.stats, &expect_stats, ctx);
    let again = run();
    assert_bit_identical(&again.relation, &first.relation, &format!("{ctx}: repeat"));
    assert_stats_identical(&again.stats, &expect_stats, &format!("{ctx}: repeat"));
}

/// The full matrix: skewed families × pool sizes {1, 2, 4, 8} × both
/// index backends × intra-value splitting off and on, rows and stats
/// bit-identical.
#[test]
fn skew_matrix_matches_sequential() {
    let instances: Vec<_> = skewed_instances()
        .into_iter()
        .map(|(name, rels)| {
            let seq = join(&rels).expect("sequential oracle");
            let flat = Arc::new(PreparedQuery::new(&rels).expect("prepare"));
            let delta =
                Arc::new(PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).expect("prepare"));
            (name, seq, flat, delta)
        })
        .collect();
    for workers in [1usize, 2, 4, 8] {
        let service = Service::new(ServiceConfig::with_workers(workers));
        for (name, seq, flat, delta) in &instances {
            for factor in [0, service.exec_config().heavy_split_factor] {
                let cfg = ExecConfig {
                    shard_min_size: 1,
                    heavy_split_factor: factor,
                };
                let ctx = format!("{name}, {workers} workers, factor {factor}");
                check_service_run(&service, flat, seq, &cfg, &format!("{ctx}, flat"));
                check_service_run(&service, delta, seq, &cfg, &format!("{ctx}, delta"));
            }
        }
    }
}

/// Acceptance shape: a single-hot-key workload (one root value with
/// ≥ 90% of the estimated work) through `Service::submit` schedules its
/// anchor sub-shards as ordinary injector tasks and reassembles
/// bit-identically across pool sizes.
#[test]
fn single_hot_key_produces_multi_task_plan_service() {
    let rels = gen::hot_key_triangle(78, 120, 6);
    let prepared = Arc::new(PreparedQuery::new(&rels).expect("prepare"));
    let weights = prepared.root_candidate_weights();
    let total: u64 = weights.iter().map(|&(_, w)| w).sum();
    let hot = weights.iter().map(|&(_, w)| w).max().expect("non-empty");
    assert!(
        hot as f64 / total as f64 >= 0.9,
        "one root value carries ≥ 90% of the work: {hot}/{total}"
    );
    let seq = join(&rels).expect("sequential oracle");
    for workers in [1usize, 2, 4, 8] {
        let service = Service::new(ServiceConfig::with_workers(workers));
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let layout = service.shard_layout(&*prepared, &cfg);
        assert!(layout.len() > 1, "multi-task layout @ {workers} workers");
        assert!(
            layout
                .iter()
                .filter(|t| t.is_some_and(|s| s.anchor.is_some()))
                .count()
                >= 2,
            "sub-shard tasks on the injector @ {workers} workers"
        );
        let (out, profile) = service
            .submit(&prepared, &cfg)
            .expect("submit")
            .wait_profiled()
            .expect("join");
        assert_bit_identical(&out.relation, &seq, &format!("service @ {workers} workers"));
        // One task per layout entry, including the anchor sub-shards.
        assert_eq!(
            profile.total_shards,
            layout.len(),
            "profile covers the whole layout @ {workers} workers"
        );
        assert_profile_consistent(&profile, &out, &format!("service @ {workers} workers"));

        // absorbed stats equal a shard-by-shard sequential re-run of the
        // exact layout the pool interleaved
        assert_stats_identical(
            &out.stats,
            &expected_service_stats(&service, &prepared, &cfg),
            &format!("service @ {workers} workers"),
        );
    }
}

/// A 4-cycle `R(a,b) S(b,c) T(c,d) U(d,a)` whose root value `a = 0`
/// pairs with every `b` and every `d` in `[0, hot)`, beside `light` root
/// values with one extension each. Under the plan's total order
/// (a, b, d, c) that value carries most of the work, so the planner
/// splits it into anchor sub-shards over `b`.
fn hot_key_cycle4(seed: u64, hot: u64, light: u64) -> Vec<Relation> {
    let hot_edge = |schema: &[u32], step: u64| {
        let rows = (0..hot)
            .map(|v| vec![Value(0), Value(v)])
            .chain((1..=light).map(|a| vec![Value(a), Value(a * step % hot)]))
            .collect();
        Relation::from_rows(Schema::of(schema), rows).expect("arity 2")
    };
    vec![
        hot_edge(&[0, 1], 7),
        gen::random_relation(seed, &[1, 2], 4 * hot as usize, hot),
        gen::random_relation(seed + 1, &[2, 3], 4 * hot as usize, hot),
        hot_edge(&[0, 3], 11),
    ]
}

/// The 4-cycle streams: its total order (a, b, d, c) starts like the
/// schema, so the slots — the hot root value's anchor sub-shards
/// included — come out in schema order, each re-keyed inside its (a, b)
/// runs. Their `next_batch` batches concatenate, with no merge, to the
/// sequential `join_nprr` output bit for bit, across pool sizes
/// {1, 2, 4, 8} and on both index backends.
#[test]
fn hot_key_four_cycle_streams_bit_identically() {
    let rels = hot_key_cycle4(91, 60, 8);
    let seq = join(&rels).unwrap();
    assert!(seq.len() > 100, "a non-trivial answer: {} rows", seq.len());
    let flat = Arc::new(PreparedQuery::new(&rels).unwrap());
    let delta = Arc::new(PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).unwrap());
    assert_eq!(flat.total_order(), [0, 1, 3, 2]);
    for workers in [1usize, 2, 4, 8] {
        let service = Service::new(ServiceConfig::with_workers(workers));
        let cfg = ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let layout = service.shard_layout(&*flat, &cfg);
        assert!(
            layout
                .iter()
                .filter(|t| t.is_some_and(|s| s.anchor.is_some()))
                .count()
                >= 2,
            "the hot root value is split @ {workers} workers: {layout:?}"
        );
        let ctx = format!("{workers} workers");
        let streamed = streamed_batches(&service, &flat, &cfg, seq.schema());
        assert_bit_identical(&streamed, &seq, &format!("{ctx}, flat"));
        let streamed = streamed_batches(&service, &delta, &cfg, seq.schema());
        assert_bit_identical(&streamed, &seq, &format!("{ctx}, delta"));
    }
}

/// One submission's `next_batch` batches, concatenated in slot order with
/// no merge; the handle must say that this is the output.
fn streamed_batches<S>(
    service: &Service,
    prepared: &Arc<PreparedQuery<S>>,
    cfg: &ExecConfig,
    schema: &Schema,
) -> Relation
where
    S: SearchTree + Send + Sync + 'static,
{
    let mut handle = service.submit(prepared, cfg).expect("submit");
    assert!(handle.ordered(), "the slots stream");
    assert!(handle.total_slots() > 1, "{} slots", handle.total_slots());
    let mut out = Relation::empty(schema.clone());
    while let Some(batch) = handle.next_batch() {
        for row in batch.expect("join").relation.iter_rows() {
            out.push_row(row).unwrap();
        }
    }
    out
}

/// Determinism regression: a heavy-keyed query racing itself through the
/// shared pool (with noise queries around it) must come back with
/// identical rows, row order, and stats every time.
#[test]
fn heavy_key_query_racing_itself_is_deterministic() {
    let rels = gen::hot_key_triangle(79, 100, 5);
    let seq = join(&rels).unwrap();
    let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
    let noise = Arc::new(
        PreparedQuery::new(&[
            gen::zipf_relation(301, &[0, 1], 120, 14, 1.5),
            gen::zipf_relation(302, &[1, 2], 120, 14, 1.5),
            gen::zipf_relation(303, &[0, 2], 120, 14, 1.5),
        ])
        .unwrap(),
    );
    let service = Service::new(ServiceConfig::with_workers(3));
    let cfg = ExecConfig {
        shard_min_size: 1,
        ..service.exec_config()
    };
    for round in 0..8 {
        let n1 = service.submit(&noise, &cfg).unwrap();
        let a = service.submit(&prepared, &cfg).unwrap();
        let b = service.submit(&prepared, &cfg).unwrap();
        let n2 = service.submit(&noise, &cfg).unwrap();
        let (a, b) = (a.wait().unwrap(), b.wait().unwrap());
        assert_bit_identical(&a.relation, &b.relation, &format!("self-race {round}"));
        assert_bit_identical(&a.relation, &seq, &format!("vs sequential {round}"));
        assert_stats_identical(&a.stats, &b.stats, &format!("self-race stats {round}"));
        n1.wait().unwrap();
        n2.wait().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random Zipf exponents, hot-key widths, pool sizes, and
    /// `heavy_split_factor` values (including the degenerate 0, 1, and
    /// huge): the service output stays bit-identical to `join_nprr`.
    #[test]
    fn prop_skewed_service_with_random_split_factor(seed in 0u64..2_000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(9973));
        let rels = if seed % 2 == 0 {
            let s = 1.1 + f64::from(rng.gen_range(0..8u32)) / 10.0;
            vec![
                gen::zipf_relation(seed, &[0, 1], 120, 14, s),
                gen::zipf_relation(seed + 1, &[1, 2], 120, 14, s),
                gen::zipf_relation(seed + 2, &[0, 2], 120, 14, s),
            ]
        } else {
            gen::hot_key_triangle(seed, rng.gen_range(16..96), rng.gen_range(0..8))
        };
        let seq = join(&rels).unwrap();
        let prepared = Arc::new(PreparedQuery::new(&rels).unwrap());
        let workers = [1usize, 2, 4, 8][rng.gen_range(0..4usize)];
        let factor = [0usize, 1, 2, 8, 1 << 30][rng.gen_range(0..5usize)];
        let service = Service::new(ServiceConfig::with_workers(workers));
        let cfg = ExecConfig {
            shard_min_size: 1,
            heavy_split_factor: factor,
        };
        let (out, profile) = service.submit(&prepared, &cfg).unwrap().wait_profiled().unwrap();
        let ctx = format!("seed {seed}, {workers} workers, factor {factor}");
        assert_bit_identical(&out.relation, &seq, &ctx);
        assert_profile_consistent(&profile, &out, &ctx);
        // Same instance through shared indexes: still bit-identical
        // under random split factors and pool sizes.
        let delta = Arc::new(PreparedQuery::<Arc<FlatIndex>>::new_indexed(&rels).unwrap());
        let (out, profile) = service.submit(&delta, &cfg).unwrap().wait_profiled().unwrap();
        assert_bit_identical(&out.relation, &seq, &format!("{ctx}, delta"));
        assert_profile_consistent(&profile, &out, &format!("{ctx}, delta"));
    }
}
