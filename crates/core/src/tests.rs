//! Consistency tests: NPRR must agree with the naive oracle on every query
//! shape, and outputs must respect the AGM bound. (`wcoj-baselines`' tests
//! run the paper's shape-specific reproductions on the same seeded
//! instances.)

use crate::nprr::{join_nprr, PreparedQuery};
use crate::query::JoinQuery;
use crate::{agm_cover, join, join_with, naive, Algorithm, QueryError};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wcoj_storage::ops::reorder;
use wcoj_storage::{DeltaIndex, DeltaRelation, Relation, Schema, Value};

fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
    Relation::from_u32_rows(Schema::of(schema), rows)
}

fn random_rel(rng: &mut rand::rngs::StdRng, attrs: &[u32], n: usize, dom: u64) -> Relation {
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| attrs.iter().map(|_| Value(rng.gen_range(0..dom))).collect())
        .collect();
    Relation::from_rows(Schema::of(attrs), rows).unwrap()
}

fn assert_matches_naive(rels: &[Relation], algo: Algorithm, ctx: &str) {
    let out = join_with(rels, algo, None).unwrap_or_else(|e| panic!("{ctx}: {algo:?} failed: {e}"));
    let expect = naive::join(rels);
    let expect = reorder(&expect, out.relation.schema()).unwrap();
    assert_eq!(out.relation, expect, "{ctx}: {algo:?} disagrees with naive");
}

#[test]
fn doc_example_triangle() {
    let r = rel(&[0, 1], &[&[1, 2], &[1, 3]]);
    let s = rel(&[1, 2], &[&[2, 4], &[3, 4]]);
    let t = rel(&[0, 2], &[&[1, 4]]);
    let out = join(&[r, s, t]).unwrap();
    assert_eq!(out.len(), 2);
    assert!(out.contains_row(&[Value(1), Value(2), Value(4)]));
    assert!(out.contains_row(&[Value(1), Value(3), Value(4)]));
}

#[test]
fn all_algorithms_agree_on_triangles() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(100);
    for trial in 0..10 {
        let r = random_rel(&mut rng, &[0, 1], 50, 9);
        let s = random_rel(&mut rng, &[1, 2], 50, 9);
        let t = random_rel(&mut rng, &[0, 2], 50, 9);
        let rels = [r, s, t];
        let ctx = format!("triangle trial {trial}");
        assert_matches_naive(&rels, Algorithm::Nprr, &ctx);
    }
}

#[test]
fn nprr_handles_figure2_query() {
    // The paper's §5.2 worked example: 6 attributes, 5 relations.
    let mut rng = rand::rngs::StdRng::seed_from_u64(200);
    for trial in 0..5 {
        let rels = [
            random_rel(&mut rng, &[0, 1, 3, 4], 40, 4),
            random_rel(&mut rng, &[0, 2, 3, 5], 40, 4),
            random_rel(&mut rng, &[0, 1, 2], 40, 4),
            random_rel(&mut rng, &[1, 3, 5], 40, 4),
            random_rel(&mut rng, &[2, 4, 5], 40, 4),
        ];
        assert_matches_naive(&rels, Algorithm::Nprr, &format!("figure2 trial {trial}"));
    }
}

#[test]
fn example_2_2_instance_is_empty_everywhere() {
    // The paper's pathological triangle family: any pairwise join is
    // Θ(N²/4) but the triangle is empty.
    let n = 8u64;
    let rows: Vec<Vec<Value>> = (1..=n / 2)
        .map(|j| vec![Value(0), Value(j)])
        .chain((1..=n / 2).map(|j| vec![Value(j), Value(0)]))
        .collect();
    let r = Relation::from_rows(Schema::of(&[0, 1]), rows.clone()).unwrap();
    let s = Relation::from_rows(Schema::of(&[1, 2]), rows.clone()).unwrap();
    let t = Relation::from_rows(Schema::of(&[0, 2]), rows).unwrap();
    assert_eq!(r.len(), n as usize);
    let rels = [r.clone(), s.clone(), t.clone()];
    for algo in [Algorithm::Nprr, Algorithm::Naive] {
        let out = join_with(&rels, algo, None).unwrap();
        assert!(out.relation.is_empty(), "{algo:?} must report empty");
    }
    // while the pairwise join is quadratic:
    let pairwise = wcoj_storage::ops::natural_join(&r, &s);
    assert_eq!(pairwise.len(), (n * n / 4 + n / 2) as usize);
}

#[test]
fn nprr_output_within_agm_bound_random_queries() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(300);
    for trial in 0..12 {
        let shapes: &[&[&[u32]]] = &[
            &[&[0, 1], &[1, 2], &[0, 2]],
            &[&[0, 1, 2], &[2, 3], &[0, 3]],
            &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]],
            &[&[0, 1, 2], &[1, 2, 3], &[0, 3]],
        ];
        let shape = shapes[trial % shapes.len()];
        let rels: Vec<Relation> = shape
            .iter()
            .map(|attrs| random_rel(&mut rng, attrs, 60, 6))
            .collect();
        let out = join_with(&rels, Algorithm::Nprr, None).unwrap();
        let bound = out.stats.log2_agm_bound;
        if !out.relation.is_empty() {
            assert!(
                (out.relation.len() as f64).log2() <= bound + 1e-6,
                "trial {trial}: output {} exceeds AGM bound 2^{bound}",
                out.relation.len()
            );
        }
        assert_matches_naive(&rels, Algorithm::Nprr, &format!("agm trial {trial}"));
    }
}

#[test]
fn nprr_with_explicit_cover() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(400);
    let r = random_rel(&mut rng, &[0, 1], 30, 6);
    let s = random_rel(&mut rng, &[1, 2], 30, 6);
    let t = random_rel(&mut rng, &[0, 2], 30, 6);
    let rels = [r, s, t];
    // the all-ones cover is valid but loose
    let out = join_with(&rels, Algorithm::Nprr, Some(&[1.0, 1.0, 1.0])).unwrap();
    let expect = naive::join(&rels);
    let expect = reorder(&expect, out.relation.schema()).unwrap();
    assert_eq!(out.relation, expect);
    // the half cover
    let out2 = join_with(&rels, Algorithm::Nprr, Some(&[0.5, 0.5, 0.5])).unwrap();
    assert_eq!(out2.relation, expect);
    // a non-cover is rejected
    assert!(matches!(
        join_with(&rels, Algorithm::Nprr, Some(&[0.1, 0.1, 0.1])),
        Err(QueryError::BadCover(_))
    ));
}

fn small_triangle() -> JoinQuery {
    let r = rel(&[0, 1], &[&[1, 2], &[1, 3]]);
    let s = rel(&[1, 2], &[&[2, 4], &[3, 4]]);
    let t = rel(&[0, 2], &[&[1, 4]]);
    JoinQuery::new(&[r, s, t]).unwrap()
}

#[test]
fn join_nprr_rejects_a_wrong_length_cover() {
    // A cover with one weight too few or too many is a `BadCover`, never
    // an index past the end of it while the plan resolves node covers.
    let q = small_triangle();
    for x in [&[1.0, 1.0][..], &[1.0; 4], &[]] {
        assert!(
            matches!(join_nprr(&q, x), Err(QueryError::BadCover(_))),
            "{x:?}"
        );
    }
    assert_eq!(join_nprr(&q, &[1.0; 3]).unwrap().relation.len(), 2);
}

#[test]
fn join_nprr_rejects_a_non_cover() {
    let q = small_triangle();
    // (1, 0, 0) leaves attribute 2 (in S and T only) uncovered, 0.1
    // weights cover nothing, and a negative weight is never a cover.
    for x in [[1.0, 0.0, 0.0], [0.1, 0.1, 0.1], [-1.0, 1.0, 1.0]] {
        assert!(
            matches!(join_nprr(&q, &x), Err(QueryError::BadCover(_))),
            "{x:?}"
        );
    }
}

#[test]
fn empty_input_short_circuits() {
    let r = rel(&[0, 1], &[&[1, 2]]);
    let e = Relation::empty(Schema::of(&[1, 2]));
    let out = join_with(&[r, e], Algorithm::Nprr, None).unwrap();
    assert!(out.relation.is_empty());
    assert_eq!(out.relation.arity(), 3);
    assert_eq!(out.stats.algorithm_used, "nprr");
    assert!(out.stats.cover.is_empty(), "no cover is resolved");
}

#[test]
fn empty_query_rejected() {
    assert!(matches!(join(&[]), Err(QueryError::EmptyQuery)));
}

#[test]
fn single_relation_query() {
    let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
    let out = join(std::slice::from_ref(&r)).unwrap();
    assert_eq!(out, r);
    let out2 = join_with(std::slice::from_ref(&r), Algorithm::Nprr, None).unwrap();
    assert_eq!(out2.relation, r);
}

#[test]
fn nullary_relations() {
    let t = Relation::nullary_true();
    let r = rel(&[0], &[&[1], &[2]]);
    let out = join(&[t.clone(), r.clone()]).unwrap();
    assert_eq!(out, r);
    let out2 = join(&[t.clone(), t]).unwrap();
    assert_eq!(out2.len(), 1);
}

#[test]
fn disconnected_query_is_cross_product() {
    let r = rel(&[0], &[&[1], &[2]]);
    let s = rel(&[1], &[&[5], &[6], &[7]]);
    let out = join_with(&[r, s], Algorithm::Nprr, None).unwrap();
    assert_eq!(out.relation.len(), 6);
}

#[test]
fn chain_and_star_queries_match_naive() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(500);
    for trial in 0..6 {
        // chain R(0,1) ⋈ S(1,2) ⋈ T(2,3)
        let chain = [
            random_rel(&mut rng, &[0, 1], 40, 7),
            random_rel(&mut rng, &[1, 2], 40, 7),
            random_rel(&mut rng, &[2, 3], 40, 7),
        ];
        assert_matches_naive(&chain, Algorithm::Nprr, &format!("chain {trial}"));
        // star
        let star = [
            random_rel(&mut rng, &[0, 1], 40, 7),
            random_rel(&mut rng, &[0, 2], 40, 7),
            random_rel(&mut rng, &[0, 3], 40, 7),
        ];
        assert_matches_naive(&star, Algorithm::Nprr, &format!("star {trial}"));
    }
}

#[test]
fn hypergraph_shapes_with_overlapping_big_edges() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(600);
    for trial in 0..6 {
        let rels = [
            random_rel(&mut rng, &[0, 1, 2, 3], 35, 3),
            random_rel(&mut rng, &[2, 3, 4], 35, 3),
            random_rel(&mut rng, &[0, 4], 35, 3),
            random_rel(&mut rng, &[1, 4], 35, 3),
        ];
        assert_matches_naive(&rels, Algorithm::Nprr, &format!("overlap {trial}"));
    }
}

#[test]
fn repeated_identical_schemas() {
    // Two relations over the same attributes: join = intersection.
    let a = rel(&[0, 1], &[&[1, 2], &[3, 4], &[5, 6]]);
    let b = rel(&[0, 1], &[&[3, 4], &[5, 6], &[7, 8]]);
    let out = join_with(&[a, b], Algorithm::Nprr, None).unwrap();
    assert_eq!(out.relation.len(), 2);
}

#[test]
fn lw5_matches_naive() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(700);
    let rels: Vec<Relation> = (0..5u32)
        .map(|omit| {
            let attrs: Vec<u32> = (0..5).filter(|&v| v != omit).collect();
            random_rel(&mut rng, &attrs, 25, 3)
        })
        .collect();
    assert_matches_naive(&rels, Algorithm::Nprr, "lw5");
}

#[test]
fn join_runs_nprr_on_every_shape() {
    // One engine behind `join()`, whatever the shape: an LW instance, a
    // graph query and a hypergraph query all run NPRR, and `join()` is
    // bit-identical (rows and order) to `join_nprr` and to
    // `PreparedQuery::evaluate`, the pipeline every served query runs.
    let mut rng = rand::rngs::StdRng::seed_from_u64(800);
    let triangle = vec![
        random_rel(&mut rng, &[0, 1], 30, 5),
        random_rel(&mut rng, &[1, 2], 30, 5),
        random_rel(&mut rng, &[0, 2], 30, 5),
    ];
    let chain = vec![
        random_rel(&mut rng, &[0, 1], 30, 5),
        random_rel(&mut rng, &[1, 2], 30, 5),
    ];
    let lw5: Vec<Relation> = (0..5u32)
        .map(|omit| {
            let attrs: Vec<u32> = (0..5).filter(|&v| v != omit).collect();
            random_rel(&mut rng, &attrs, 70, 3)
        })
        .collect();
    let hyper = vec![
        random_rel(&mut rng, &[0, 1, 2], 30, 4),
        random_rel(&mut rng, &[2, 3], 30, 4),
        random_rel(&mut rng, &[0, 3], 30, 4),
    ];
    for (name, rels) in [
        ("triangle", triangle),
        ("chain", chain),
        ("lw5", lw5),
        ("hyperedge", hyper),
    ] {
        let out = join_with(&rels, Algorithm::Nprr, None).unwrap();
        assert_eq!(out.stats.algorithm_used, "nprr", "{name}");
        assert!(!out.relation.is_empty(), "{name}: a non-empty instance");
        let joined = join(&rels).unwrap();
        assert_eq!(joined, out.relation, "{name}: join() = join_with(Nprr)");
        let q = JoinQuery::new(&rels).unwrap();
        let direct = join_nprr(&q, &q.optimal_cover().unwrap().x).unwrap();
        assert_eq!(joined, direct.relation, "{name}: join() = join_nprr");
        let prepared = PreparedQuery::new(&rels).unwrap().evaluate(None).unwrap();
        assert_eq!(joined, prepared.relation, "{name}: join() = PreparedQuery");
        assert_eq!(joined.schema(), &q.output_schema(), "{name}: output schema");
    }
}

#[test]
fn agm_cover_convenience() {
    let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
    let s = rel(&[1, 2], &[&[2, 4], &[4, 5]]);
    let t = rel(&[0, 2], &[&[1, 4], &[3, 5]]);
    let sol = agm_cover(&[r, s, t]).unwrap();
    for v in &sol.x {
        assert!((v - 0.5).abs() < 1e-6);
    }
    assert!((sol.bound() - 2f64.powf(1.5)).abs() < 1e-6);
}

#[test]
fn stats_are_populated() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(900);
    let rels = [
        random_rel(&mut rng, &[0, 1, 2], 50, 4),
        random_rel(&mut rng, &[2, 3], 50, 4),
        random_rel(&mut rng, &[0, 3], 50, 4),
    ];
    let out = join_with(&rels, Algorithm::Nprr, None).unwrap();
    assert_eq!(out.stats.algorithm_used, "nprr");
    assert_eq!(out.stats.cover.len(), 3);
    assert!(out.stats.log2_agm_bound > 0.0);
    assert!(out.stats.case_a + out.stats.case_b > 0);
}

#[test]
fn query_accessors() {
    let r = rel(&[3, 7], &[&[1, 2]]);
    let s = rel(&[7, 9], &[&[2, 3]]);
    let q = JoinQuery::new(&[r, s]).unwrap();
    use wcoj_storage::Attr;
    assert_eq!(q.attrs(), &[Attr(3), Attr(7), Attr(9)]);
    assert_eq!(q.vertex_of_attr(Attr(7)), Some(1));
    assert_eq!(q.attr_of_vertex(2), Attr(9));
    assert_eq!(q.sizes(), vec![1, 1]);
    assert_eq!(q.hypergraph().num_edges(), 2);
    assert_eq!(q.relations().len(), 2);
    assert_eq!(q.output_schema(), Schema::of(&[3, 7, 9]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NPRR equals the oracle on random small hypergraph queries.
    #[test]
    fn prop_nprr_matches_naive(seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n_attr = rng.gen_range(2..6u32);
        let n_rel = rng.gen_range(2..5usize);
        let mut rels = Vec::new();
        for _ in 0..n_rel {
            let arity = rng.gen_range(1..=3.min(n_attr));
            let mut attrs: Vec<u32> = (0..n_attr).collect();
            for i in (1..attrs.len()).rev() {
                attrs.swap(i, rng.gen_range(0..=i));
            }
            attrs.truncate(arity as usize);
            attrs.sort_unstable();
            let count = rng.gen_range(5..30);
            rels.push(random_rel(&mut rng, &attrs, count, 4));
        }
        let out = join_with(&rels, Algorithm::Nprr, None).unwrap();
        let expect = naive::join(&rels);
        let expect = reorder(&expect, out.relation.schema()).unwrap();
        prop_assert_eq!(out.relation, expect);
    }

    /// The AGM inequality holds on every random instance.
    #[test]
    fn prop_output_obeys_agm(seed in 0u64..400) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let r = random_rel(&mut rng, &[0, 1], 40, 8);
        let s = random_rel(&mut rng, &[1, 2], 40, 8);
        let t = random_rel(&mut rng, &[0, 2], 40, 8);
        let sizes = [r.len(), s.len(), t.len()];
        let out = join(&[r, s, t]).unwrap();
        let bound = sizes.iter().map(|&x| x as f64).product::<f64>().sqrt();
        prop_assert!((out.len() as f64) <= bound + 1e-9);
    }
}

#[test]
fn hash_indexed_nprr_matches_sorted_trie() {
    use wcoj_storage::HashTrieIndex;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    for trial in 0..6 {
        let rels = [
            random_rel(&mut rng, &[0, 1, 2], 50, 5),
            random_rel(&mut rng, &[2, 3], 50, 5),
            random_rel(&mut rng, &[0, 3], 50, 5),
        ];
        let q = JoinQuery::new(&rels).unwrap();
        let sol = q.optimal_cover().unwrap();
        let a = join_nprr(&q, &sol.x).unwrap();
        let b = PreparedQuery::<HashTrieIndex>::from_query(q)
            .unwrap()
            .evaluate(Some(&sol.x))
            .unwrap();
        assert_eq!(a.relation, b.relation, "trial {trial}");
        // same per-tuple decisions: the size checks see identical counts
        assert_eq!(a.stats.case_a, b.stats.case_a, "trial {trial}");
        assert_eq!(a.stats.case_b, b.stats.case_b, "trial {trial}");
    }
}

#[test]
fn zero_weight_edges_still_filter() {
    // With skewed sizes the optimal cover drops T (x_T = 0), but T's
    // constraint must still be enforced by the evaluation structure.
    let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
    let s = rel(&[1, 2], &[&[2, 5], &[4, 6]]);
    // huge T missing the (3, 6) combination
    let mut t_rows: Vec<Vec<Value>> = (10..200u64).map(|i| vec![Value(i), Value(i)]).collect();
    t_rows.push(vec![Value(1), Value(5)]);
    let t = Relation::from_rows(Schema::of(&[0, 2]), t_rows).unwrap();
    let rels = [r, s, t];
    let cover = agm_cover(&rels).unwrap();
    assert!(cover.x[2].abs() < 1e-6, "T should get weight 0");
    let out = join_with(&rels, Algorithm::Nprr, None).unwrap();
    assert_eq!(out.relation.len(), 1);
    assert!(out.relation.contains_row(&[Value(1), Value(2), Value(5)]));
}

#[test]
fn contained_edges() {
    // R(0,1,2) ⊇ S(1,2) ⊇ U(1): nested attribute sets.
    let r = rel(&[0, 1, 2], &[&[1, 2, 3], &[4, 5, 6], &[7, 2, 3]]);
    let s = rel(&[1, 2], &[&[2, 3], &[5, 6]]);
    let u = rel(&[1], &[&[2]]);
    let rels = [r, s, u];
    assert_matches_naive(&rels, Algorithm::Nprr, "contained edges");
    let out = join_with(&rels, Algorithm::Nprr, None).unwrap();
    assert_eq!(out.relation.len(), 2); // (1,2,3) and (7,2,3)
}

#[test]
fn duplicate_relations_as_parallel_edges() {
    // The same relation twice (multiset hypergraph, needed by §7.3).
    let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
    let out = join_with(&[r.clone(), r.clone()], Algorithm::Nprr, None).unwrap();
    assert_eq!(out.relation, r);
    // and a triangle where two edges coincide
    let s = rel(&[1, 2], &[&[2, 9], &[4, 8]]);
    let rels = [r.clone(), r, s];
    assert_matches_naive(&rels, Algorithm::Nprr, "parallel edges");
}

#[test]
fn wide_relation_with_many_attributes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let wide = random_rel(&mut rng, &[0, 1, 2, 3, 4, 5], 40, 3);
    let narrow = random_rel(&mut rng, &[2, 3], 40, 3);
    let rels = [wide, narrow];
    assert_matches_naive(&rels, Algorithm::Nprr, "wide + narrow");
}

#[test]
fn skew_forces_both_cases() {
    // Heavy-hitter key in R forces per-tuple decisions to diverge: some
    // prefixes take case a, others case b.
    let mut rows: Vec<Vec<Value>> = (0..100u64).map(|i| vec![Value(0), Value(i)]).collect();
    rows.extend((1..30u64).map(|i| vec![Value(i), Value(1000 + i)]));
    let r = Relation::from_rows(Schema::of(&[0, 1]), rows.clone()).unwrap();
    let s = Relation::from_rows(
        Schema::of(&[1, 2]),
        (0..100u64).map(|i| vec![Value(i), Value(i % 7)]).collect(),
    )
    .unwrap();
    let t = Relation::from_rows(
        Schema::of(&[0, 2]),
        (0..40u64)
            .map(|i| vec![Value(i % 20), Value(i % 7)])
            .collect(),
    )
    .unwrap();
    let rels = [r, s, t];
    let out = join_with(&rels, Algorithm::Nprr, None).unwrap();
    assert!(out.stats.case_a > 0, "expected some case-a decisions");
    assert!(out.stats.case_b > 0, "expected some case-b decisions");
    assert_matches_naive(&rels, Algorithm::Nprr, "skewed triangle");
}

// --- Golden counts -------------------------------------------------------
//
// Captured from the `Vec<Vec<Value>>` engine this crate shipped before
// `Recursive-Join` was compiled into a `NodePlan` and moved onto flat row
// buffers. That engine is gone, so these numbers are what "same decisions
// as before" means: every case-a/case-b choice, every intermediate tuple
// and every output row (FNV-1a over the sorted output) must reproduce
// exactly, on every index backend — including the served one, a
// `DeltaIndex` whose insert/delete buffers are live.
//
// The triangle and Loomis–Whitney counts were re-captured once since, when
// the plan started choosing Algorithm 3's edge order so that the total
// order is the output schema: another QP tree makes other decisions, while
// the output (its FNV) stays the same. The 4-cycle has no such order and
// keeps its plan and counts.

/// `(rows, intermediate_tuples, case_a, case_b)`.
type Counts = (usize, u64, u64, u64);

fn fnv1a(rel: &Relation) -> u64 {
    rel.raw_data().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.0).wrapping_mul(0x0100_0000_01b3)
    })
}

fn assert_golden<S: wcoj_storage::SearchTree>(
    name: &str,
    prepared: &PreparedQuery<S>,
    fnv: u64,
    golden: [(Option<f64>, Counts); 3],
) {
    let edges = prepared.query().relations().len();
    for (weight, (rows, inter, a, b)) in golden {
        let cover = weight.map(|w| vec![w; edges]);
        let out = prepared.evaluate(cover.as_deref()).unwrap();
        let s = &out.stats;
        assert_eq!(
            (
                out.relation.len(),
                s.intermediate_tuples,
                s.case_a,
                s.case_b
            ),
            (rows, inter, a, b),
            "{name}, cover {weight:?}"
        );
        assert_eq!(fnv1a(&out.relation), fnv, "{name}, cover {weight:?}");
    }
}

/// `rels` prepared the way the server serves them: one `DeltaIndex` per
/// relation over its base's shared index, with live buffers. Each base
/// holds every other row plus a few rows outside the value domain, `ins`
/// the remaining rows and `del` the outsiders, so the merged view is
/// exactly `rels` while every component is non-empty.
fn prepared_over_live_buffers(rels: &[Relation]) -> PreparedQuery<DeltaIndex> {
    let deltas: Vec<DeltaRelation> = rels
        .iter()
        .map(|rel| {
            let rows: Vec<Vec<Value>> = rel.iter_rows().map(<[Value]>::to_vec).collect();
            let outsiders: Vec<Vec<Value>> = (0..4u64)
                .map(|j| {
                    let mut row = rows[j as usize * rows.len() / 4].clone();
                    let at = j as usize % row.len();
                    row[at] = Value(u64::MAX - j);
                    row
                })
                .collect();
            let base = rows.iter().step_by(2).chain(&outsiders).cloned().collect();
            let mut d =
                DeltaRelation::new(Relation::from_rows(rel.schema().clone(), base).unwrap());
            d.insert_rows(&rows).unwrap();
            d.delete_rows(&outsiders).unwrap();
            assert!(d.ins().len() >= rows.len() / 2 && d.del().len() == outsiders.len());
            assert_eq!(d.materialize(), rel.clone().into_sorted());
            d
        })
        .collect();
    let stale: Vec<Relation> = deltas.iter().map(|d| (**d.base()).clone()).collect();
    let sizes = deltas.iter().map(DeltaRelation::len).collect();
    let q = std::sync::Arc::new(JoinQuery::new(&stale).unwrap());
    PreparedQuery::from_shared(q, Some(sizes), |i, order| {
        let d = &deltas[i];
        DeltaIndex::over(d.base_index(order)?, d.ins(), d.del(), order)
    })
    .unwrap()
}

fn assert_golden_all_backends(
    name: &str,
    rels: &[Relation],
    fnv: u64,
    golden: [(Option<f64>, Counts); 3],
) {
    use wcoj_storage::HashTrieIndex;
    let flat = PreparedQuery::new(rels).unwrap();
    assert_golden(&format!("{name}, flat"), &flat, fnv, golden);
    let hashed = PreparedQuery::<HashTrieIndex>::new_indexed(rels).unwrap();
    assert_golden(&format!("{name}, hash"), &hashed, fnv, golden);
    let delta = prepared_over_live_buffers(rels);
    assert_golden(&format!("{name}, delta"), &delta, fnv, golden);
    let canonical = JoinQuery::new(rels).unwrap().output_schema();
    let expect = reorder(&naive::join(rels), &canonical).unwrap();
    assert_eq!(fnv1a(&expect), fnv, "{name}: naive oracle");
}

#[test]
fn golden_counts_cycle4() {
    assert_golden_all_backends(
        "cycle4",
        &wcoj_datagen::cycle_instance(11, 4, 2000, 200),
        0x84eb_2a44_8dd4_226e,
        [
            (None, (9222, 242_230, 1949, 19_195)),
            (Some(1.0), (9222, 2349, 0, 2149)),
            (Some(0.5), (9222, 246_128, 2149, 18_995)),
        ],
    );
}

#[test]
fn golden_counts_triangle() {
    assert_golden_all_backends(
        "triangle",
        &wcoj_datagen::cycle_instance(7, 3, 1200, 100),
        0xec30_59e6_5c96_df58,
        [
            (None, (1436, 15_334, 100, 1133)),
            (Some(1.0), (1436, 200, 0, 100)),
            (Some(0.5), (1436, 15_334, 100, 1133)),
        ],
    );
}

#[test]
fn golden_counts_hot_key_triangle() {
    assert_golden_all_backends(
        "hot_key",
        &wcoj_datagen::hot_key_triangle(5, 140, 10),
        0x4078_9dd6_af3f_b3ef,
        [
            (None, (551, 52, 10, 11)),
            (Some(1.0), (551, 22, 0, 11)),
            (Some(0.5), (551, 52, 10, 11)),
        ],
    );
}

#[test]
fn golden_counts_loomis_whitney() {
    assert_golden_all_backends(
        "lw4",
        &wcoj_datagen::random_lw(3, 4, 300, 12),
        0x5f99_e6c5_f5dd_91bd,
        [
            (None, (11, 1374, 122, 247)),
            (Some(1.0), (11, 24, 0, 12)),
            (Some(0.5), (11, 24, 0, 12)),
        ],
    );
}

#[test]
fn golden_counts_per_shard() {
    use crate::nprr::{AnchorRange, RootShard};
    const MAX: u64 = u64::MAX;
    let anchored = |root: u64, lo: u64, hi: u64| RootShard {
        lo: Value(root),
        hi: Value(root),
        anchor: Some(AnchorRange {
            lo: Value(lo),
            hi: Value(hi),
        }),
    };
    let check = |name: &str, rels: &[Relation], plan: &[(RootShard, Counts)]| {
        let prepared = PreparedQuery::new(rels).unwrap();
        let (x, bound) = prepared.resolve_cover(None).unwrap();
        let mut total = 0;
        for (i, &(shard, (rows, inter, a, b))) in plan.iter().enumerate() {
            let (out, s) = prepared.run_shard(&x, bound, Some(shard));
            assert_eq!(
                (out.len(), s.intermediate_tuples, s.case_a, s.case_b),
                (rows, inter, a, b),
                "{name}, shard {i}"
            );
            total += out.len();
        }
        let full = prepared.evaluate(None).unwrap();
        assert_eq!(total, full.relation.len(), "{name}: shards partition");
    };
    // The 8-shard plan `ShardPlan::plan(.., 8, {min size 1, Work, heavy
    // split 8})` cuts for the hot-key triangle: seven anchor sub-shards of
    // the hot root value, then everything else.
    check(
        "hot_key",
        &wcoj_datagen::hot_key_triangle(5, 140, 10),
        &[
            (anchored(0, 0, 19), (81, 2, 0, 1)),
            (anchored(0, 20, 40), (84, 2, 0, 1)),
            (anchored(0, 41, 60), (75, 2, 0, 1)),
            (anchored(0, 61, 80), (83, 2, 0, 1)),
            (anchored(0, 81, 101), (80, 2, 0, 1)),
            (anchored(0, 102, 121), (86, 2, 0, 1)),
            (anchored(0, 122, MAX), (62, 2, 0, 1)),
            (RootShard::range(Value(1), Value(MAX)), (0, 50, 10, 10)),
        ],
    );
    // Hand-cut plan over the 4-cycle: anchored sub-shards whose runs take
    // both cases.
    check(
        "cycle4",
        &wcoj_datagen::cycle_instance(11, 4, 2000, 200),
        &[
            (
                RootShard::range(Value(0), Value(49)),
                (2348, 63_828, 488, 5065),
            ),
            (anchored(50, 0, 99), (23, 657, 7, 57)),
            (anchored(50, 100, MAX), (22, 487, 5, 41)),
            (
                RootShard::range(Value(51), Value(120)),
                (2974, 76_629, 675, 6063),
            ),
            (
                RootShard::range(Value(121), Value(MAX)),
                (3855, 100_631, 774, 7970),
            ),
        ],
    );
}
