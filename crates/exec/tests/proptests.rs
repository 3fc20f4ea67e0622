//! Property tests for the shard planner (mirrors the style of
//! `crates/storage/src/proptests.rs`). The contract the `wcoj-service`
//! pool relies on, checked without threads: every task of
//! `plan_shards(..)` run in slot order, the slots assembled together,
//! equals the sequential `join_nprr` output **bit for bit
//! — rows and order** — for every `heavy_split_factor` (0, 1, sensible,
//! huge) on random, Zipf and single-hot-key instances. Alongside it,
//! every planned sub-shard family tiles the anchor domain exactly once —
//! no gap, no overlap — against the
//! [`PreparedQuery::anchor_candidates`] slices.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wcoj_core::nprr::{PreparedQuery, RootShard};
use wcoj_core::JoinQuery;
use wcoj_exec::{plan_shards, ExecConfig, OVERSPLIT};
use wcoj_storage::{FlatIndex, Relation, SearchTree, Value};

/// What the service does with a plan, minus its threads: every task run,
/// then the slots assembled together in slot order.
fn run_plan<S: SearchTree>(prepared: &PreparedQuery<S>, tasks: &[Option<RootShard>]) -> Relation {
    let (x, log2_bound) = prepared.resolve_cover(None).unwrap();
    let slots = tasks
        .iter()
        .map(|&task| prepared.run_shard(&x, log2_bound, task).0);
    prepared.assemble_slots(slots).unwrap()
}

/// A random multi-relation query instance: shapes drawn like the core
/// crate's `prop_nprr_matches_naive`, data from `wcoj-datagen`.
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
        rels.push(wcoj_datagen::random_relation(
            seed.wrapping_mul(31).wrapping_add(i as u64),
            &attrs,
            count,
            dom,
        ));
    }
    rels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `heavy_split_factor` is a pure performance knob, and so is the
    /// pool size the plan is sized for: on random instances, on Zipf skew
    /// and on the single-hot-key family, over flat tries and over
    /// shared ones, the merged shard runs equal sequential
    /// `join_nprr` bit for bit.
    #[test]
    fn heavy_split_factor_never_changes_output(seed in 0u64..10_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(6151));
        let s = 1.1 + f64::from(rng.gen_range(0..6u32)) / 10.0;
        let instances: [Vec<Relation>; 3] = [
            random_instance(seed),
            vec![
                wcoj_datagen::zipf_relation(seed, &[0, 1], 150, 20, s),
                wcoj_datagen::zipf_relation(seed + 1, &[1, 2], 150, 20, s),
                wcoj_datagen::zipf_relation(seed + 2, &[0, 2], 150, 20, s),
            ],
            wcoj_datagen::hot_key_triangle(seed, rng.gen_range(16..96), rng.gen_range(0..8)),
        ];
        for (which, rels) in instances.iter().enumerate() {
            let q = JoinQuery::new(rels).unwrap();
            let sol = q.optimal_cover().unwrap();
            let seq = wcoj_core::nprr::join_nprr(&q, &sol.x).unwrap().relation;
            let flat = PreparedQuery::new(rels).unwrap();
            let delta = PreparedQuery::<Arc<FlatIndex>>::new_indexed(rels).unwrap();
            let workers = [1usize, 2, 4, 8][rng.gen_range(0..4usize)];
            for factor in [0usize, 1, 2, 8, 1 << 20, usize::MAX] {
                let cfg = ExecConfig { shard_min_size: 1, heavy_split_factor: factor };
                let ctx = format!("instance {which}, {workers} workers, factor {factor}, seed {seed}");
                let plan = plan_shards(&flat, workers * OVERSPLIT, &cfg);
                prop_assert_eq!(&run_plan(&flat, &plan), &seq, "flat, {}", ctx);
                let plan = plan_shards(&delta, workers * OVERSPLIT, &cfg);
                prop_assert_eq!(&run_plan(&delta, &plan), &seq, "delta, {}", ctx);
            }
        }
    }

    /// Planner soundness: every plan tiles root × anchor space exactly
    /// once. Root ranges are gap-free over `[0, u64::MAX]`; within a run
    /// of sub-shards sharing a root range the anchor ranges are gap-free
    /// over `[0, u64::MAX]`; and every `PreparedQuery::anchor_candidates`
    /// slice value of every root candidate in a sub-split range falls in
    /// exactly one sub-shard.
    #[test]
    fn sub_shard_plans_tile_the_anchor_domain(seed in 0u64..2_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed.wrapping_mul(3571));
        let rels = if seed % 3 == 0 {
            random_instance(seed)
        } else {
            wcoj_datagen::hot_key_triangle(seed, 16 + (seed % 97) as usize, (seed % 9) as usize)
        };
        let prepared = PreparedQuery::new(&rels).unwrap();
        let factor = [2usize, 4, 8, 64][rng.gen_range(0..4usize)];
        let threads = [2usize, 4, 8][rng.gen_range(0..3usize)];
        let cfg = ExecConfig {
            shard_min_size: 1,
            heavy_split_factor: factor,
        };
        let shards: Vec<RootShard> =
            plan_shards(&prepared, threads * OVERSPLIT, &cfg).into_iter().flatten().collect();
        // degenerate single-run plans have nothing to tile
        if !shards.is_empty() {
        // task budget: never more than 3 × requested + 1
        prop_assert!(shards.len() <= 3 * threads * OVERSPLIT + 1, "{:?}", shards);
        // root ranges tile [0, u64::MAX]
        prop_assert_eq!(shards[0].lo, Value(0));
        prop_assert_eq!(shards.last().unwrap().hi, Value(u64::MAX));
        let mut i = 0;
        while i < shards.len() {
            let s = shards[i];
            let mut j = i + 1;
            while j < shards.len() && shards[j].lo == s.lo {
                prop_assert_eq!(shards[j].hi, s.hi, "run shares root range");
                j += 1;
            }
            if s.anchor.is_some() || j - i > 1 {
                // a run of anchor sub-shards: tiles [0, u64::MAX]
                prop_assert!(j - i >= 2, "anchored run has ≥ 2 sub-shards");
                let mut alo = 0u64;
                for sub in &shards[i..j] {
                    let a = sub.anchor.expect("run fully anchored");
                    prop_assert_eq!(a.lo.0, alo, "anchor ranges gap-free");
                    prop_assert!(a.lo <= a.hi);
                    alo = a.hi.0.wrapping_add(1);
                }
                prop_assert_eq!(shards[j - 1].anchor.unwrap().hi, Value(u64::MAX));
                // every anchor candidate of every root candidate in the
                // range is owned by exactly one sub-shard
                for v in prepared
                    .root_candidates()
                    .into_iter()
                    .filter(|&v| s.contains(v))
                {
                    for a in prepared.anchor_candidates(v) {
                        let owners = shards[i..j]
                            .iter()
                            .filter(|sub| sub.anchor_contains(a))
                            .count();
                        prop_assert_eq!(
                            owners, 1,
                            "anchor candidate {:?} under root {:?} owned once", a, v
                        );
                    }
                }
            }
            if j < shards.len() {
                prop_assert_eq!(shards[j].lo.0, s.hi.0.wrapping_add(1), "root gap-free");
            }
            i = j;
        }
        // differential backstop: summing the per-shard runs re-creates the
        // unrestricted row set exactly (no row lost or double-counted)
        let (x, b) = prepared.resolve_cover(None).unwrap();
        let (expect, _) = prepared.run_shard(&x, b, None);
        let mut expect: Vec<Vec<Value>> = expect.rows().map(<[Value]>::to_vec).collect();
        let mut got: Vec<Vec<Value>> = Vec::new();
        for &shard in &shards {
            let (rows, _) = prepared.run_shard(&x, b, Some(shard));
            got.extend(rows.rows().map(<[Value]>::to_vec));
        }
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expect, "shard row sets partition the output");
        }
    }
}
