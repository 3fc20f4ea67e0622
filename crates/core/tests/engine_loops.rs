//! Differential property test for `Recursive-Join`'s two per-tuple loops:
//! case a's anchor filter, which resumes the previous row's descent, and
//! case b's anchor walk, which probes each check edge at the level where
//! it binds.
//!
//! Both loops read the search tree through `child_slice` when a backend
//! has a contiguous level and through `for_each_extension` when it does
//! not (a `DeltaIndex` node merged from live buffers). So every instance
//! runs on three backends and under the shard plans of `wcoj-exec`, and
//! each run must reproduce `join_nprr` (the flat backend) exactly: the
//! same raw rows in the same order and the same `JoinStats` counters. The
//! output must also equal the naive join.
//!
//! Shapes are random hypergraphs with relations of arity ≤ 3, so some
//! nodes have `|W⁻| ≥ 2`, plus one fixed shape whose check edge binds the
//! walk's levels 0 and 2 but not 1. Data is uniform, Zipf-skewed, or
//! Example 2.2's.

mod common;

use common::over_delta;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wcoj_core::nprr::{join_nprr, PreparedQuery, RootShard};
use wcoj_core::{naive, JoinQuery, JoinStats};
use wcoj_exec::{plan_shards, ExecConfig};
use wcoj_storage::ops::reorder;
use wcoj_storage::{FlatIndex, HashTrieIndex, Relation, RowBuf, SearchTree, Value};

/// `(intermediate_tuples, case_a, case_b)`.
fn counters(s: &JoinStats) -> (u64, u64, u64) {
    (s.intermediate_tuples, s.case_a, s.case_b)
}

/// A random hypergraph over 2–5 attributes: 2–4 relations of arity ≤ 3,
/// every attribute used.
fn random_shape(rng: &mut rand::rngs::StdRng) -> Vec<Vec<u32>> {
    loop {
        let n_attr = rng.gen_range(2..6u32);
        let shape: Vec<Vec<u32>> = (0..rng.gen_range(2..5usize))
            .map(|_| {
                let mut attrs: Vec<u32> = (0..n_attr).collect();
                for j in (1..attrs.len()).rev() {
                    attrs.swap(j, rng.gen_range(0..=j));
                }
                attrs.truncate(rng.gen_range(1..=3.min(n_attr)) as usize);
                attrs.sort_unstable();
                attrs
            })
            .collect();
        if (0..n_attr).all(|a| shape.iter().any(|e| e.contains(&a))) {
            return shape;
        }
    }
}

/// The instances one case checks.
fn instances(seed: u64) -> Vec<(&'static str, Vec<Relation>)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let shape = random_shape(&mut rng);
    let dom = rng.gen_range(2..17u64);
    let uniform = shape
        .iter()
        .enumerate()
        .map(|(i, attrs)| {
            let n = rng.gen_range(5..80);
            wcoj_datagen::random_relation(seed * 31 + i as u64, attrs, n, dom)
        })
        .collect();
    let s = 1.1 + f64::from(rng.gen_range(0..8u32)) / 10.0;
    let skewed = shape
        .iter()
        .enumerate()
        .map(|(i, attrs)| wcoj_datagen::zipf_relation(seed * 37 + i as u64, attrs, 60, 12, s))
        .collect();
    // R(0,2), U(2), S(0,1,2): R is probed at walk levels 0 and 2.
    let non_adjacent = [&[0u32, 2][..], &[2], &[0, 1, 2]]
        .iter()
        .enumerate()
        .map(|(i, attrs)| wcoj_datagen::random_relation(seed * 41 + i as u64, attrs, 40, 5))
        .collect();
    vec![
        ("uniform", uniform),
        ("skewed", skewed),
        ("non-adjacent", non_adjacent),
        (
            "example 2.2",
            wcoj_datagen::example_2_2(2 * (seed % 24 + 1)),
        ),
    ]
}

/// One backend's run of one task: raw rows and counters.
fn run<S: SearchTree>(
    prepared: &PreparedQuery<S>,
    x: &[f64],
    bound: f64,
    shard: Option<RootShard>,
) -> (Vec<Vec<Value>>, (u64, u64, u64)) {
    let (rows, stats) = prepared.run_shard(x, bound, shard);
    (
        rows.rows().map(<[Value]>::to_vec).collect(),
        counters(&stats),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_engine_loops_match_join_nprr(seed in 0u64..100_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        for (family, rels) in instances(seed) {
            let ctx = format!("{family}, seed {seed}");
            let q = JoinQuery::new(&rels).unwrap();
            let sol = q.optimal_cover().unwrap();
            let (x, bound) = (&sol.x[..], sol.log2_bound);
            let oracle = join_nprr(&q, x).unwrap();
            let naive = reorder(&naive::join(&rels), oracle.relation.schema()).unwrap();
            prop_assert_eq!(&oracle.relation, &naive, "{}: naive", ctx);

            let flat = PreparedQuery::<FlatIndex>::new_indexed(&rels).unwrap();
            let hashed = PreparedQuery::<HashTrieIndex>::new_indexed(&rels).unwrap();
            let delta = over_delta(&rels, true);
            let want = run(&flat, x, bound, None);
            prop_assert_eq!(want.1, counters(&oracle.stats), "{}: flat", ctx);
            let mut rows = RowBuf::new(flat.total_order().len());
            want.0.iter().for_each(|r| rows.push_row(r));
            let assembled = flat.assemble(rows, JoinStats::default()).unwrap();
            prop_assert_eq!(&assembled.relation, &oracle.relation, "{}: assembled", ctx);
            prop_assert_eq!(&run(&hashed, x, bound, None), &want, "{}: hash", ctx);
            prop_assert_eq!(&run(&delta, x, bound, None), &want, "{}: delta", ctx);

            // Shard plans, anchored sub-shards included: per shard the
            // backends agree on rows and counters, and the shards' rows
            // in slot order are the unrestricted run's rows in order.
            let cfg = ExecConfig {
                shard_min_size: 1,
                heavy_split_factor: [0usize, 2, 8][rng.gen_range(0..3usize)],
            };
            // A zero-task plan (empty root domain) yields no rows at all.
            let plan = plan_shards(&flat, [2usize, 8, 32][rng.gen_range(0..3usize)], &cfg);
            let mut slots = Vec::new();
            for &task in &plan {
                let shard = run(&flat, x, bound, task);
                prop_assert_eq!(&run(&hashed, x, bound, task), &shard, "{}: hash {:?}", ctx, task);
                prop_assert_eq!(&run(&delta, x, bound, task), &shard, "{}: delta {:?}", ctx, task);
                slots.extend(shard.0);
            }
            prop_assert_eq!(&slots, &want.0, "{}: {} shards in slot order", ctx, plan.len());
        }
    }
}
