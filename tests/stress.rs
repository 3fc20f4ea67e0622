//! Long-running randomized differential tests, `#[ignore]`d by default
//! and run by CI in release (a couple of seconds there):
//!
//! ```sh
//! cargo test --release --test stress -- --ignored
//! ```
//!
//! Hundreds of random queries per shape class, every algorithm against the
//! pairwise oracle, plus AGM-bound auditing on every instance. `join()` must
//! also equal `join_nprr` bit for bit (rows and order) on every shape; the
//! paper's shape-specific reproductions in `wcoj-baselines` (`join_lw`,
//! `join_graph`), which `join()` does not dispatch to, are called directly
//! on their shapes.

use rand::{Rng, SeedableRng};
use wcoj::baselines::graph_join::join_graph;
use wcoj::baselines::lw::{is_lw_instance, join_lw};
use wcoj::core::naive;
use wcoj::core::nprr::join_nprr;
use wcoj::core::QueryError;
use wcoj::prelude::*;
use wcoj::storage::ops::reorder;
use wcoj::JoinOutput;

fn random_rel(rng: &mut rand::rngs::StdRng, attrs: &[u32], n: usize, dom: u64) -> Relation {
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|_| attrs.iter().map(|_| Value(rng.gen_range(0..dom))).collect())
        .collect();
    Relation::from_rows(Schema::of(attrs), rows).unwrap()
}

/// `out` equals the pairwise oracle and stays within its own AGM bound.
fn check_output(rels: &[Relation], out: &JoinOutput, ctx: &str) {
    let expect = naive::join(rels);
    let expect = reorder(&expect, out.relation.schema()).unwrap();
    assert_eq!(out.relation, expect, "{ctx}");
    if !out.relation.is_empty() && out.stats.log2_agm_bound > 0.0 {
        assert!(
            (out.relation.len() as f64).log2() <= out.stats.log2_agm_bound + 1e-6,
            "{ctx}: AGM bound violated"
        );
    }
}

/// `PreparedQuery::evaluate` against the oracle, and `join()` against
/// `join_nprr` under the LP cover: the same rows in the same order.
fn check_join(rels: &[Relation], ctx: &str) {
    let out = PreparedQuery::new(rels)
        .and_then(|p| p.evaluate(None))
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    check_output(rels, &out, &format!("{ctx} (nprr)"));
    let q = JoinQuery::new(rels).unwrap();
    let direct = join_nprr(&q, &q.optimal_cover().unwrap().x).unwrap();
    assert_eq!(
        join(rels).unwrap(),
        direct.relation,
        "{ctx}: join() vs join_nprr"
    );
}

/// A reproduction the library does not dispatch to, called directly.
type Reproduction = fn(&JoinQuery) -> Result<JoinOutput, QueryError>;

fn check_reproduction(rels: &[Relation], run: Reproduction, ctx: &str) {
    let out = run(&JoinQuery::new(rels).unwrap()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    check_output(rels, &out, ctx);
}

#[test]
#[ignore = "stress: run with --ignored in release"]
fn stress_random_hypergraph_queries() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xDEC0DE);
    for trial in 0..300 {
        let n_attr = rng.gen_range(2..7u32);
        let n_rel = rng.gen_range(2..6usize);
        let mut rels = Vec::new();
        for _ in 0..n_rel {
            let arity = rng.gen_range(1..=n_attr.min(4));
            let mut attrs: Vec<u32> = (0..n_attr).collect();
            for i in (1..attrs.len()).rev() {
                attrs.swap(i, rng.gen_range(0..=i));
            }
            attrs.truncate(arity as usize);
            attrs.sort_unstable();
            let rows = rng.gen_range(1..60);
            let dom = rng.gen_range(2..8u64);
            rels.push(random_rel(&mut rng, &attrs, rows, dom));
        }
        let ctx = format!("hyper trial {trial}");
        check_join(&rels, &ctx);
        // LW and arity-≤2 shapes also run their reproduction.
        let q = JoinQuery::new(&rels).unwrap();
        let h = q.hypergraph();
        if is_lw_instance(h) {
            check_reproduction(&rels, join_lw, &format!("{ctx} (join_lw)"));
        } else if h.is_graph() {
            check_reproduction(&rels, join_graph, &format!("{ctx} (join_graph)"));
        }
    }
}

#[test]
#[ignore = "stress: run with --ignored in release"]
fn stress_graph_queries_all_algorithms() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF);
    for trial in 0..300 {
        let n_attr = rng.gen_range(2..8u32);
        let n_rel = rng.gen_range(2..8usize);
        let mut rels = Vec::new();
        for _ in 0..n_rel {
            let a = rng.gen_range(0..n_attr);
            let unary = rng.gen_bool(0.15);
            let attrs: Vec<u32> = if unary {
                vec![a]
            } else {
                let mut b = rng.gen_range(0..n_attr);
                if b == a {
                    b = (b + 1) % n_attr;
                }
                let mut v = vec![a, b];
                v.sort_unstable();
                v
            };
            let rows = rng.gen_range(1..50);
            rels.push(random_rel(&mut rng, &attrs, rows, 6));
        }
        check_reproduction(&rels, join_graph, &format!("graph trial {trial}"));
        check_join(&rels, &format!("graph trial {trial}"));
    }
}

#[test]
#[ignore = "stress: run with --ignored in release"]
fn stress_lw_instances() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFACE);
    for trial in 0..150 {
        let n = rng.gen_range(2..6usize);
        let rows = rng.gen_range(1..80);
        let dom = rng.gen_range(2..7u64);
        let rels: Vec<Relation> = (0..n)
            .map(|omit| {
                let attrs: Vec<u32> = (0..n as u32).filter(|&v| v != omit as u32).collect();
                random_rel(&mut rng, &attrs, rows, dom)
            })
            .collect();
        check_reproduction(&rels, join_lw, &format!("lw trial {trial}"));
        check_join(&rels, &format!("lw trial {trial}"));
    }
}

#[test]
#[ignore = "stress: run with --ignored in release"]
fn stress_cycles_odd_and_even() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1C1E);
    for trial in 0..80 {
        let m = rng.gen_range(3..9usize);
        let rows = rng.gen_range(5..60);
        let dom = rng.gen_range(3..8u64);
        let rels: Vec<Relation> = (0..m)
            .map(|i| {
                let mut attrs = vec![i as u32, ((i + 1) % m) as u32];
                attrs.sort_unstable();
                random_rel(&mut rng, &attrs, rows, dom)
            })
            .collect();
        let ctx = format!("cycle m={m} trial {trial}");
        check_reproduction(&rels, join_graph, &ctx);
        check_join(&rels, &ctx);
    }
}

#[test]
#[ignore = "stress: run with --ignored in release"]
fn stress_relaxed_joins() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E1A);
    for trial in 0..40 {
        let shapes: Vec<Vec<u32>> = vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![1, 3]];
        let rels: Vec<Relation> = shapes
            .iter()
            .map(|attrs| {
                let rows = rng.gen_range(3..20);
                random_rel(&mut rng, attrs, rows, 5)
            })
            .collect();
        for r in 0..=2usize {
            let fast = wcoj::baselines::relaxed::relaxed_join(&rels, r).unwrap();
            let brute = wcoj::baselines::relaxed::relaxed_join_bruteforce(&rels, r).unwrap();
            assert_eq!(fast.relation, brute, "trial {trial}, r = {r}");
        }
    }
}
