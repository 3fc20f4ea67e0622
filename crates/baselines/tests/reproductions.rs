//! The paper's shape-specific reproductions (`lw::join_lw`,
//! `graph_join::join_graph`), which `wcoj_core::join` does not dispatch
//! to, against the naive oracle on the seeded instances `wcoj-core`'s
//! own tests run NPRR on.

use rand::{Rng, SeedableRng};
use wcoj_baselines::graph_join::join_graph;
use wcoj_baselines::lw::join_lw;
use wcoj_core::{naive, JoinOutput, JoinQuery, QueryError};
use wcoj_storage::ops::reorder;
use wcoj_storage::{Relation, Schema, Value};

fn random_rel(rng: &mut rand::rngs::StdRng, attrs: &[u32], n: usize, dom: u64) -> Relation {
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| attrs.iter().map(|_| Value(rng.gen_range(0..dom))).collect())
        .collect();
    Relation::from_rows(Schema::of(attrs), rows).unwrap()
}

/// A reproduction the library does not dispatch to, called directly.
type Reproduction = fn(&JoinQuery) -> Result<JoinOutput, QueryError>;

fn assert_reproduction_matches_naive(rels: &[Relation], run: Reproduction, ctx: &str) {
    let out = run(&JoinQuery::new(rels).unwrap()).unwrap_or_else(|e| panic!("{ctx} failed: {e}"));
    let expect = naive::join(rels);
    let expect = reorder(&expect, out.relation.schema()).unwrap();
    assert_eq!(out.relation, expect, "{ctx} disagrees with naive");
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
        assert_reproduction_matches_naive(&rels, join_lw, &format!("{ctx}: join_lw"));
        assert_reproduction_matches_naive(&rels, join_graph, &format!("{ctx}: join_graph"));
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
    let q = JoinQuery::new(&[r, s, t]).unwrap();
    assert!(join_lw(&q).unwrap().relation.is_empty(), "join_lw");
    assert!(join_graph(&q).unwrap().relation.is_empty(), "join_graph");
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
        assert_reproduction_matches_naive(&chain, join_graph, &format!("chain {trial}"));
        // star
        let star = [
            random_rel(&mut rng, &[0, 1], 40, 7),
            random_rel(&mut rng, &[0, 2], 40, 7),
            random_rel(&mut rng, &[0, 3], 40, 7),
        ];
        assert_reproduction_matches_naive(&star, join_graph, &format!("star {trial}"));
    }
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
    assert_reproduction_matches_naive(&rels, join_lw, "lw5: join_lw");
}
