//! Property test for the plan's one free choice: Algorithm 3's edge order.
//!
//! `JoinPlan::compile` tries edge orders in lexicographic order, input
//! order first, and takes the first whose Algorithm-4 total order is the
//! output schema (ascending vertex order); failing that, the first whose
//! total order starts with the schema's first `min(2, n)` attributes (the
//! ones shard slots cut); failing that, input order. Over random
//! hypergraphs with up to six edges this checks, against brute force over
//! all `m!` orders:
//!
//! * the chosen order's QP tree yields the preparation's total order, and
//!   that order satisfies (TO1) and (TO2);
//! * the chooser picks an output-ordered plan iff some order is one, and
//!   then the lexicographically first; failing that, a prefix-ordered
//!   plan iff some order is one, and then the first; otherwise it keeps
//!   input order. `slots_stream_sorted()` holds iff either was picked;
//! * `join_nprr` equals the naive join, rows and order, and the same
//!   relations listed in the chosen order make the same decisions under
//!   the correspondingly permuted cover (covers and search trees are
//!   indexed by input edge, the QP tree by position in the chosen order);
//! * under every `wcoj-exec` shard plan, anchored sub-shards included, on
//!   the flat backend and on the merged indexes of live buffers, the one
//!   assembly (`assemble_slots`) of one slot (what `next_batch` yields),
//!   of the slots after a mid-stream cut (`next_merged`) and of every
//!   slot (`wait`) equals, bit for bit, what it replaced: the raw rows
//!   as a relation over the total order, reordered into the schema,
//!   sorted and deduplicated. Shapes with no output-ordered plan re-key
//!   the rows (a prefix-ordered plan within each run of the prefix); the
//!   others adopt them;
//! * when `slots_stream_sorted()`, the per-slot assemblies concatenate to
//!   the output with no merge, anchored sub-shards included.

mod common;

use common::{over_delta, Buffers};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wcoj_core::nprr::qptree::build_qp_tree;
use wcoj_core::nprr::total_order::{check_to1, check_to2, total_order};
use wcoj_core::nprr::{join_nprr, PreparedQuery};
use wcoj_core::{naive, JoinQuery};
use wcoj_exec::{plan_shards, ExecConfig};
use wcoj_hypergraph::Hypergraph;
use wcoj_storage::ops::reorder;
use wcoj_storage::{Relation, RowBuf, Schema, SearchTree};

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

/// `true` iff `order` starts with the schema's first `min(2, n)`
/// attributes (vertices 0 and 1).
fn starts_like_the_schema(order: &[usize], n: usize) -> bool {
    (0..2.min(n)).all(|v| order.get(v) == Some(&v))
}

/// The assembly `assemble_slots` replaced: the slots' raw rows as one
/// relation over the total order, its columns permuted into the output
/// schema, then sorted and deduplicated.
fn reorder_then_sort<S: SearchTree>(prepared: &PreparedQuery<S>, slots: &[RowBuf]) -> Relation {
    let q = prepared.query();
    let order: Vec<_> = prepared
        .total_order()
        .iter()
        .map(|&v| q.attr_of_vertex(v))
        .collect();
    let data = slots.iter().flat_map(|s| s.clone().into_data()).collect();
    let mut rel = Relation::from_flat(Schema::new(order).unwrap(), data).unwrap();
    rel.reorder_columns(&q.output_schema()).unwrap();
    rel.sort_dedup();
    rel
}

/// Runs every shard plan of `prepared` and checks each way its slots are
/// assembled against [`reorder_then_sort`] and against `full`.
fn assembly_matches_the_old_merge<S: SearchTree>(
    prepared: &PreparedQuery<S>,
    full: &Relation,
    ctx: &str,
) {
    let (x, bound) = prepared.resolve_cover(None).unwrap();
    for factor in [0usize, 2, 8] {
        for shards in [2usize, 8, 32] {
            let cfg = ExecConfig {
                shard_min_size: 1,
                heavy_split_factor: factor,
            };
            // A zero-task plan (empty root domain) has no slots and no rows.
            let plan = plan_shards(prepared, shards, &cfg);
            let ctx = format!("{ctx}: {} shards, factor {factor}", plan.len());
            let slots: Vec<RowBuf> = plan
                .iter()
                .map(|&t| prepared.run_shard(&x, bound, t).0)
                .collect();
            // wait: every slot at once is the output.
            let all = prepared.assemble_slots(slots.clone()).unwrap();
            assert_eq!(&all, &reorder_then_sort(prepared, &slots), "{}: wait", ctx);
            assert_eq!(&all, full, "{}: wait is the output", ctx);
            // next_batch: one slot at a time.
            let mut streamed = RowBuf::new(full.arity());
            for (i, slot) in slots.iter().enumerate() {
                let batch = prepared.assemble_slots(vec![slot.clone()]).unwrap();
                let want = reorder_then_sort(prepared, std::slice::from_ref(slot));
                assert_eq!(&batch, &want, "{}: next_batch {}", ctx, i);
                batch.iter_rows().for_each(|row| streamed.push_row(row));
            }
            // Streaming order: the batches concatenate to the output.
            if prepared.slots_stream_sorted() {
                assert_eq!(streamed.into_data(), full.raw_data(), "{}: streamed", ctx);
            }
            // next_merged after a mid-stream cut: the rest at once.
            for cut in [1, slots.len() / 2, slots.len().saturating_sub(1)] {
                if (1..slots.len()).contains(&cut) {
                    let rest = prepared.assemble_slots(slots[cut..].to_vec()).unwrap();
                    let want = reorder_then_sort(prepared, &slots[cut..]);
                    assert_eq!(&rest, &want, "{}: next_merged from slot {}", ctx, cut);
                }
            }
        }
    }
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

        // Brute force: the first output-ordered order, else the first
        // prefix-ordered one, if any.
        let orders = permutations(h.num_edges());
        let first = orders.iter().find(|p| ascending(&tree_under(h, p).1));
        let n = h.num_vertices();
        let prefixed = orders
            .iter()
            .find(|p| starts_like_the_schema(&tree_under(h, p).1, n));
        let input: Vec<usize> = (0..h.num_edges()).collect();
        let want = first.or(prefixed).unwrap_or(&input);
        prop_assert_eq!(chosen, &want[..], "{}", ctx);
        prop_assert_eq!(prepared.slots_stream_sorted(), prefixed.is_some(), "{}", ctx);

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

        // Every shard plan on the flat backend and on live buffers.
        assembly_matches_the_old_merge(&prepared, &full, &format!("{ctx}, flat"));
        let live = over_delta(&rels, Buffers::Live);
        assembly_matches_the_old_merge(&live, &full, &format!("{ctx}, live delta"));
    }
}

/// The shapes with no output-ordered plan that the served workloads and
/// e10 run, at a size where slots hold many rows, and their assemblies
/// match the old merge under every shard plan, on both backends. The
/// 4-cycle's total order (a, b, d, c) starts like the schema: its slots
/// stream, each (a, b) run re-keyed by c. The star binds its center last
/// under every edge order: it re-keys on that one column and merges.
#[test]
fn shapes_without_an_output_ordered_plan_assemble_like_the_old_merge() {
    let star = [&[0u32, 1][..], &[0, 2], &[0, 3]]
        .iter()
        .enumerate()
        .map(|(i, attrs)| wcoj_datagen::random_relation(90 + i as u64, attrs, 60, 7))
        .collect();
    for (name, rels) in [
        ("4-cycle", wcoj_datagen::cycle_instance(11, 4, 300, 30)),
        ("star", star),
    ] {
        let prepared = PreparedQuery::new(&rels).unwrap();
        assert_eq!(prepared.slots_stream_sorted(), name == "4-cycle", "{name}");
        let full = prepared.evaluate(None).unwrap().relation;
        assert!(full.len() > 100, "{name}: {} rows", full.len());
        assembly_matches_the_old_merge(&prepared, &full, name);
        assembly_matches_the_old_merge(&over_delta(&rels, Buffers::Live), &full, name);
    }
}
