//! Property test for the plan's one free choice: Algorithm 3's edge order.
//!
//! `JoinPlan::compile` tries edge orders in lexicographic order, input
//! order first, and takes the first whose Algorithm-4 total order is the
//! output schema (ascending vertex order). Over random hypergraphs with up
//! to six edges this checks, against brute force over all `m!` orders:
//!
//! * the chosen order's QP tree yields the preparation's total order, and
//!   that order satisfies (TO1) and (TO2);
//! * the chooser finds an output-ordered plan iff some order is one, and
//!   then the lexicographically first; otherwise it keeps input order;
//! * `join_nprr` equals the naive join, rows and order, and the same
//!   relations listed in the chosen order make the same decisions under
//!   the correspondingly permuted cover (covers and search trees are
//!   indexed by input edge, the QP tree by position in the chosen order);
//! * when `slots_stream_sorted()`, the per-slot assemblies of every
//!   `wcoj-exec` shard plan, anchored sub-shards included, concatenate to
//!   `assemble`'s output with no merge.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wcoj_core::nprr::qptree::build_qp_tree;
use wcoj_core::nprr::total_order::{check_to1, check_to2, total_order};
use wcoj_core::nprr::{join_nprr, PreparedQuery};
use wcoj_core::{naive, JoinQuery};
use wcoj_exec::{plan_shards, ExecConfig};
use wcoj_hypergraph::Hypergraph;
use wcoj_storage::ops::reorder;
use wcoj_storage::{Relation, RowBuf};

/// A random hypergraph over 2–6 attributes: 2–6 relations of arity ≤ 3.
fn random_shape(rng: &mut rand::rngs::StdRng) -> Vec<Vec<u32>> {
    let n_attr = rng.gen_range(2..7u32);
    (0..rng.gen_range(2..7usize))
        .map(|_| {
            let mut attrs: Vec<u32> = (0..n_attr).collect();
            for j in (1..attrs.len()).rev() {
                attrs.swap(j, rng.gen_range(0..=j));
            }
            attrs.truncate(rng.gen_range(1..=3.min(n_attr)) as usize);
            attrs.sort_unstable();
            attrs
        })
        .collect()
}

/// `h` with its edges in `edge_order`: its QP tree and total order.
fn tree_under(h: &Hypergraph, edge_order: &[usize]) -> (Hypergraph, Vec<usize>) {
    let edges = edge_order.iter().map(|&e| h.edge(e).to_vec()).collect();
    let qp_h = Hypergraph::new(h.num_vertices(), edges).unwrap();
    let order = build_qp_tree(&qp_h)
        .as_deref()
        .map(total_order)
        .unwrap_or_default();
    (qp_h, order)
}

/// Every permutation of `0..m`, in lexicographic order.
fn permutations(m: usize) -> Vec<Vec<usize>> {
    if m == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for first in 0..m {
        for rest in permutations(m - 1) {
            let mut p = vec![first];
            p.extend(rest.into_iter().map(|e| e + usize::from(e >= first)));
            out.push(p);
        }
    }
    out
}

fn ascending(order: &[usize]) -> bool {
    order.windows(2).all(|w| w[0] < w[1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_plan_choice_is_output_ordered_and_correct(seed in 0u64..100_000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shape = random_shape(&mut rng);
        let dom = rng.gen_range(2..9u64);
        let zipf = rng.gen_bool(0.5);
        let rels: Vec<Relation> = shape
            .iter()
            .enumerate()
            .map(|(i, attrs)| {
                let seed = seed * 31 + i as u64;
                if zipf {
                    wcoj_datagen::zipf_relation(seed, attrs, 40, dom, 1.5)
                } else {
                    wcoj_datagen::random_relation(seed, attrs, rng.gen_range(3..40), dom)
                }
            })
            .collect();
        let ctx = format!("seed {seed}, shape {shape:?}");
        let q = JoinQuery::new(&rels).unwrap();
        let h = q.hypergraph();
        let prepared = PreparedQuery::new(&rels).unwrap();
        let chosen = prepared.edge_order();

        // The chosen order's tree is the plan's, and a valid one.
        let (qp_h, order) = tree_under(h, chosen);
        prop_assert_eq!(&order[..], prepared.total_order(), "{}", ctx);
        if let Some(tree) = build_qp_tree(&qp_h) {
            prop_assert!(check_to1(&tree, &order), "{}: TO1", ctx);
            prop_assert!(check_to2(&tree, &order), "{}: TO2", ctx);
        }

        // Brute force: the first output-ordered order, if any.
        let first = permutations(h.num_edges())
            .into_iter()
            .find(|p| ascending(&tree_under(h, p).1));
        let input: Vec<usize> = (0..h.num_edges()).collect();
        prop_assert_eq!(chosen, first.as_deref().unwrap_or(&input), "{}", ctx);
        prop_assert_eq!(prepared.slots_stream_sorted(), first.is_some(), "{}", ctx);

        // The engine under the chosen plan is still the join.
        let sol = q.optimal_cover().unwrap();
        let out = join_nprr(&q, &sol.x).unwrap();
        let expect = reorder(&naive::join(&rels), out.relation.schema()).unwrap();
        prop_assert_eq!(&out.relation, &expect, "{}: naive", ctx);
        let full = prepared.evaluate(None).unwrap().relation;
        prop_assert_eq!(&full, &expect, "{}: prepared", ctx);

        // Covers and tries are indexed by input edge, the tree by QP
        // position: listing the relations in the chosen order (which the
        // chooser then keeps) must make the same decisions on the same
        // cover, permuted to match.
        let listed: Vec<Relation> = chosen.iter().map(|&e| rels[e].clone()).collect();
        let relisted = PreparedQuery::new(&listed).unwrap();
        prop_assert_eq!(relisted.edge_order(), &input[..], "{}", ctx);
        let x_listed: Vec<f64> = chosen.iter().map(|&e| sol.x[e]).collect();
        let (rows, stats) = prepared.run_shard(&sol.x, sol.log2_bound, None);
        let (rows_l, stats_l) = relisted.run_shard(&x_listed, sol.log2_bound, None);
        prop_assert_eq!(rows.into_data(), rows_l.into_data(), "{}: relisted rows", ctx);
        prop_assert_eq!(
            (stats.intermediate_tuples, stats.case_a, stats.case_b),
            (stats_l.intermediate_tuples, stats_l.case_a, stats_l.case_b),
            "{}: relisted decisions",
            ctx
        );
        prop_assert_eq!(&stats.cover, &sol.x, "{}: stats keep input order", ctx);

        // Streaming order: slots concatenate to the output, no merge.
        if prepared.slots_stream_sorted() {
            let (x, bound) = prepared.resolve_cover(None).unwrap();
            for factor in [0usize, 2, 8] {
                for shards in [2usize, 8, 32] {
                    let cfg = ExecConfig { shard_min_size: 1, heavy_split_factor: factor };
                    // A zero-task plan (empty root domain) streams nothing.
                    let plan = plan_shards(&prepared, shards, &cfg);
                    let mut streamed = RowBuf::new(full.arity());
                    for &task in &plan {
                        let (rows, _) = prepared.run_shard(&x, bound, task);
                        let slot = prepared.assemble_slot(rows).unwrap();
                        slot.iter_rows().for_each(|row| streamed.push_row(row));
                    }
                    prop_assert_eq!(
                        streamed.into_data(),
                        full.raw_data(),
                        "{}: {} shards, factor {}",
                        ctx,
                        plan.len(),
                        factor
                    );
                }
            }
        }
    }
}
