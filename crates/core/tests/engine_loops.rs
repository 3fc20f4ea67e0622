//! Differential property test for `Recursive-Join`'s per-tuple loops:
//! case a's right subtree, which drops the rows its anchor lacks while it
//! builds them (the anchor is pushed into every node below as a filter),
//! and case b's anchor walk, a leapfrog that intersects the anchor's
//! children with those of every check and filter binding the level.
//!
//! The leapfrog reads every search tree through its own child scan
//! (`SearchTree::children` / `seek` / `child`): a gallop over a contiguous
//! level on a flat or hashed node and on a base-only `DeltaIndex` node, a
//! merge of the base with the buffers on a node touched by live buffers.
//! So every instance runs on four backends — flat, hashed, a `DeltaIndex`
//! whose every node is merged, and one whose buffers touch only a few
//! paths, so merged and base-only nodes meet in one query — and under the
//! shard plans of `wcoj-exec`. Each run must reproduce `join_nprr` (the
//! flat backend) exactly: the same raw rows in the same order and the same
//! `JoinStats` counters. The output must also equal the naive join.
//!
//! Shapes are random hypergraphs with relations of arity ≤ 3, so some
//! nodes have `|W⁻| ≥ 2`, plus fixed ones: a check edge that binds the
//! walk's levels 0 and 2 but not 1; the pure star `R(0,1) S(0,2) T(0,3)`,
//! where every split is case b; and Loomis–Whitney on four attributes,
//! whose nested case a stacks two pushed filters on one node. Data is
//! uniform, Zipf-skewed, or Example 2.2's.

mod common;

use common::{over_delta, Buffers};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wcoj_core::nprr::{join_nprr, PreparedQuery, RootShard};
use wcoj_core::{naive, JoinQuery, JoinStats};
use wcoj_exec::{plan_shards, ExecConfig};
use wcoj_storage::ops::reorder;
use wcoj_storage::{DeltaChildren, FlatIndex, HashTrieIndex, Relation, RowBuf, SearchTree, Value};

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
    // R(0,1), S(0,2), T(0,3): the center is bound after the leaves.
    let star = [&[0u32, 1][..], &[0, 2], &[0, 3]]
        .iter()
        .enumerate()
        .map(|(i, attrs)| wcoj_datagen::random_relation(seed * 43 + i as u64, attrs, 40, 6))
        .collect();
    vec![
        ("uniform", uniform),
        ("skewed", skewed),
        ("non-adjacent", non_adjacent),
        ("star", star),
        ("lw4", wcoj_datagen::random_lw(seed * 47, 4, 90, 5)),
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
            let delta = over_delta(&rels, Buffers::Live);
            let sparse = over_delta(&rels, Buffers::Sparse);
            let want = run(&flat, x, bound, None);
            prop_assert_eq!(want.1, counters(&oracle.stats), "{}: flat", ctx);
            let mut rows = RowBuf::new(flat.total_order().len());
            want.0.iter().for_each(|r| rows.push_row(r));
            let assembled = flat.assemble(rows, JoinStats::default()).unwrap();
            prop_assert_eq!(&assembled.relation, &oracle.relation, "{}: assembled", ctx);
            prop_assert_eq!(&run(&hashed, x, bound, None), &want, "{}: hash", ctx);
            prop_assert_eq!(&run(&delta, x, bound, None), &want, "{}: delta", ctx);
            prop_assert_eq!(&run(&sparse, x, bound, None), &want, "{}: sparse delta", ctx);

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
                prop_assert_eq!(&run(&sparse, x, bound, task), &shard, "{}: sparse {:?}", ctx, task);
                slots.extend(shard.0);
            }
            prop_assert_eq!(&slots, &want.0, "{}: {} shards in slot order", ctx, plan.len());
        }
    }
}

/// The fixed shapes exercise what they are here for: every split of the
/// star is case b, LW4's case a recurses through a node with two pushed
/// filters, and the sparse `DeltaIndex` mixes merged nodes, whose child
/// scan merges the base with the buffers, with base-only ones, whose scan
/// is the base's.
#[test]
fn fixed_shapes_reach_their_paths() {
    let star = instances(7).remove(3);
    assert_eq!(star.0, "star");
    let out = join_nprr(&JoinQuery::new(&star.1).unwrap(), &[1.0; 3]).unwrap();
    assert!(out.stats.case_b > 0 && out.stats.case_a == 0);

    let lw4 = wcoj_datagen::random_lw(3, 4, 300, 12);
    let q = JoinQuery::new(&lw4).unwrap();
    let sol = q.optimal_cover().unwrap();
    assert!(join_nprr(&q, &sol.x).unwrap().stats.case_a > 0);

    for (_, rels) in instances(7) {
        let sparse = over_delta(&rels, Buffers::Sparse);
        for index in sparse.indexes() {
            let root = index.root();
            let merged = |n| matches!(index.children(n), DeltaChildren::Merged(_));
            assert!(merged(root), "the root is merged");
            let children = index.child_values(root);
            let base_only = children
                .iter()
                .filter_map(|&v| index.descend(root, v))
                .filter(|&n| !merged(n))
                .count();
            assert!(
                base_only > 0 || children.len() <= 2,
                "some root child is base-only"
            );
        }
    }
}
