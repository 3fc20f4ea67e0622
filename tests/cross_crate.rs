//! Cross-crate integration tests: the full pipeline from text query or
//! generator output down to verified join results, exercising every crate
//! through the facade.

use wcoj::baselines::graph_join::join_graph;
use wcoj::baselines::lw::join_lw;
use wcoj::baselines::pairwise::{hash_join, nested_loop_join, sort_merge_join};
use wcoj::baselines::plan::{execute, JoinImpl, JoinPlan};
use wcoj::core::{naive, relaxed};
use wcoj::hypergraph::agm;
use wcoj::prelude::*;
use wcoj::storage::ops::reorder;

#[test]
fn facade_quickstart_compiles_and_runs() {
    let r = Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[1, 3]]);
    let s = Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[2, 4], &[3, 4]]);
    let t = Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[1, 4]]);
    let out = join(&[r, s, t]).unwrap();
    assert_eq!(out.len(), 2);
}

#[test]
fn all_algorithms_and_all_baselines_agree() {
    for seed in 0..5u64 {
        let rels = [
            wcoj::datagen::random_relation(seed, &[0, 1], 60, 8),
            wcoj::datagen::random_relation(seed + 10, &[1, 2], 60, 8),
            wcoj::datagen::random_relation(seed + 20, &[0, 2], 60, 8),
        ];
        let expected = naive::join(&rels);

        let q = JoinQuery::new(&rels).unwrap();
        for (name, out) in [
            ("nprr", join_with(&rels, Algorithm::Nprr, None)),
            ("join_lw", join_lw(&q)),
            ("join_graph", join_graph(&q)),
        ] {
            let out = out.unwrap();
            let exp = reorder(&expected, out.relation.schema()).unwrap();
            assert_eq!(out.relation, exp, "seed {seed}, {name}");
        }
        for imp in [JoinImpl::Hash, JoinImpl::SortMerge, JoinImpl::NestedLoop] {
            let (out, _) = execute(&JoinPlan::left_deep(&[0, 1, 2]), &rels, imp).unwrap();
            let exp = reorder(&expected, out.schema()).unwrap();
            assert_eq!(out, exp, "seed {seed}, {imp:?}");
        }
    }
}

#[test]
fn agm_bound_invariant_across_generators() {
    // Every generated instance obeys |J| ≤ AGM bound, with equality for the
    // tight generator.
    let tight = wcoj::datagen::agm_tight_triangle(6);
    let q = JoinQuery::new(&tight).unwrap();
    let sol = q.optimal_cover().unwrap();
    let out = join(&tight).unwrap();
    assert!((out.len() as f64 - sol.bound()).abs() / sol.bound() < 1e-6);

    let hard = wcoj::datagen::example_2_2(64);
    let out = join(&hard).unwrap();
    assert!(out.is_empty());

    for seed in 0..3u64 {
        let rels = wcoj::datagen::random_lw(seed, 4, 200, 8);
        let q = JoinQuery::new(&rels).unwrap();
        let sol = q.optimal_cover().unwrap();
        let out = join(&rels).unwrap();
        if !out.is_empty() {
            assert!((out.len() as f64).log2() <= sol.log2_bound + 1e-6);
        }
    }
}

#[test]
fn csv_to_datalog_to_join_pipeline() {
    let mut catalog = Catalog::new();
    let csv = "\
alice,bob\n\
bob,carol\n\
alice,carol\n\
carol,dave\n\
bob,dave\n\
carol,bob\n";
    let edges = load_csv(csv, catalog.dictionary()).unwrap();
    catalog.insert("follows", edges);

    let q = parse_query("Mutual(a, b) :- follows(a, b), follows(b, a)").unwrap();
    let out = wcoj::query::execute(&q, &catalog).unwrap();
    // bob↔carol both directions
    assert_eq!(out.relation.len(), 2);

    let q2 = parse_query("Tri(x, y, z) :- follows(x, y), follows(y, z), follows(x, z)").unwrap();
    let out2 = wcoj::query::execute(&q2, &catalog).unwrap();
    let decoded = out2.decoded_rows(&catalog);
    assert!(decoded.contains(&vec![
        Datum::str("alice"),
        Datum::str("bob"),
        Datum::str("carol")
    ]));
}

#[test]
fn lower_bound_gap_is_visible_at_small_scale() {
    // Lemma 6.1 at N = 256, n = 3: the best binary plan materialises a
    // quadratic intermediate; NPRR's working set stays linear.
    let rels = wcoj::datagen::simple_lw(3, 256);
    let (_, stats) = wcoj::baselines::best_actual_left_deep(&rels);
    let out = join_with(&rels, Algorithm::Nprr, None).unwrap();
    let d = (256 - 1) / 2;
    assert!(stats.max_intermediate as u64 >= (d + 1) * (d + 1));
    assert!(
        out.stats.intermediate_tuples < stats.max_intermediate as u64 / 4,
        "NPRR intermediates ({}) should be far below the binary blow-up ({})",
        out.stats.intermediate_tuples,
        stats.max_intermediate
    );
}

#[test]
fn pairwise_joins_commute_with_wcoj_on_two_relations() {
    for seed in 0..4u64 {
        let l = wcoj::datagen::random_relation(seed, &[0, 1], 50, 6);
        let r = wcoj::datagen::random_relation(seed + 5, &[1, 2], 50, 6);
        let h = hash_join(&l, &r);
        let s = reorder(&sort_merge_join(&l, &r), h.schema()).unwrap();
        let n = reorder(&nested_loop_join(&l, &r), h.schema()).unwrap();
        let w = join(&[l, r]).unwrap();
        let w = reorder(&w, h.schema()).unwrap();
        assert_eq!(h, s);
        assert_eq!(h, n);
        assert_eq!(h, w);
    }
}

#[test]
fn relaxed_join_tightness_instance() {
    let rels = wcoj::datagen::relaxed_tight(3, 5);
    let out = relaxed::relaxed_join(&rels, 3).unwrap();
    assert_eq!(out.relation.len() as u64, 5 + 5u64.pow(3));
}

#[test]
fn cover_lp_agrees_with_hand_computed_bounds() {
    // path query: bound = N·M (integral cover)
    let r = wcoj::datagen::random_relation_exact(1, &[0, 1], 100, 50);
    let s = wcoj::datagen::random_relation_exact(2, &[1, 2], 80, 50);
    let q = JoinQuery::new(&[r, s]).unwrap();
    let sol = q.optimal_cover().unwrap();
    assert!((sol.bound() - 8000.0).abs() < 1.0);

    // LW(4) uniform: bound = N^{4/3}
    let rels = wcoj::datagen::random_lw(3, 4, 100, 64);
    let rels: Vec<Relation> = rels;
    let sizes: Vec<usize> = rels.iter().map(Relation::len).collect();
    let q = JoinQuery::new(&rels).unwrap();
    let sol = q.optimal_cover().unwrap();
    let expect: f64 = sizes.iter().map(|&s| (s as f64).ln()).sum::<f64>() / 3.0;
    assert!((sol.log2_bound * std::f64::consts::LN_2 - expect).abs() < 1e-6);
}

#[test]
fn agm_module_reachable_through_facade() {
    let h = wcoj::hypergraph::Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
    let b = agm::best_bound(&h, &[100, 100, 100]).unwrap();
    assert!((b - 1000.0).abs() < 1e-6);
}
