//! Property-based tests: the served search tree ([`FlatIndex`]) must agree
//! with the relational algebra on every section/projection query, for
//! random relations and random attribute orders — this is the
//! load-bearing equivalence behind `Recursive-Join`'s (ST1)–(ST3) usage —
//! and pointwise with the trie's definition: the relation's distinct rows,
//! sorted, and their prefixes.

use crate::ops::{project, select_eq};
use crate::{
    gallop, Attr, DeltaRelation, FlatIndex, FlatNode, Relation, Schema, SearchTree, Value,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_rel(arity: usize, max_rows: usize, dom: u64) -> impl Strategy<Value = Relation> {
    let attrs: Vec<u32> = (0..arity as u32).collect();
    prop::collection::vec(prop::collection::vec(0..dom, arity), 0..max_rows).prop_map(move |rows| {
        let vrows: Vec<Vec<Value>> = rows
            .into_iter()
            .map(|r| r.into_iter().map(Value).collect())
            .collect();
        Relation::from_rows(Schema::of(&attrs), vrows).expect("arity consistent")
    })
}

/// Applies `σ` for each prefix value and `π` for the remaining columns —
/// the relational-algebra definition of a section.
fn section_by_ops(rel: &Relation, order: &[Attr], prefix: &[Value], extra: usize) -> Relation {
    let mut cur = rel.clone();
    for (a, v) in order.iter().zip(prefix) {
        cur = select_eq(&cur, *a, *v).expect("attr present");
    }
    let keep: Vec<Attr> = order[prefix.len()..prefix.len() + extra].to_vec();
    project(&cur, &keep).expect("attrs present")
}

/// The relation's rows with columns in `order`, sorted and distinct — an
/// oracle built without any index.
fn sorted_rows(rel: &Relation, order: &[Attr]) -> BTreeSet<Vec<Value>> {
    let positions = rel.schema().positions_of(order).expect("permutation");
    rel.iter_rows()
        .map(|r| positions.iter().map(|&p| r[p]).collect())
        .collect()
}

/// The distinct length-`extra` extensions of `prefix` among `rows`, in
/// ascending order: what (ST3) must list under the node `prefix` reaches.
fn extensions(rows: &BTreeSet<Vec<Value>>, prefix: &[Value], extra: usize) -> Vec<Vec<Value>> {
    let k = prefix.len();
    let set: BTreeSet<Vec<Value>> = rows
        .iter()
        .filter(|r| r.starts_with(prefix))
        .map(|r| r[k..k + extra].to_vec())
        .collect();
    set.into_iter().collect()
}

/// The labels of `extensions(rows, prefix, 1)`.
fn child_labels(rows: &BTreeSet<Vec<Value>>, prefix: &[Value]) -> Vec<Value> {
    extensions(rows, prefix, 1)
        .into_iter()
        .map(|t| t[0])
        .collect()
}

/// (ST3) as a list: every length-`extra` extension of `node`, in order.
fn listed<S: SearchTree>(index: &S, node: S::Node, extra: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    index.for_each_extension(node, extra, |t| out.push(t.to_vec()));
    out
}

/// Every seek of an ascending run over `node`'s children lands on the
/// first child `≥` its target, on the node `descend` reaches, and on the
/// same subtree. The scan lends the listed children it has not passed
/// (`labels`), each child at its offset (`child_at`) being the node
/// `descend` reaches.
fn check_seeks<S: SearchTree>(index: &S, node: S::Node, rem: usize, targets: &[u64])
where
    S::Node: PartialEq + std::fmt::Debug,
{
    let children: Vec<Value> = listed(index, node, 1).into_iter().map(|t| t[0]).collect();
    let mut scan = index.children(node);
    let labels = index.labels(&scan);
    prop_assert_eq!(labels, &children[..]);
    for (i, &v) in labels.iter().enumerate() {
        prop_assert_eq!(
            index.child_at(&scan, i),
            index.descend(node, v).expect("a child")
        );
    }
    for &t in targets {
        let want = children.iter().copied().find(|&c| c >= Value(t));
        let got = index.seek(&mut scan, Value(t));
        prop_assert_eq!(got, want, "seek {}", t);
        if let Some(w) = got {
            let child = index.child(&scan);
            let direct = index.descend(node, w).expect("a child");
            prop_assert_eq!(child, direct);
            prop_assert_eq!(
                listed(index, child, rem - 1),
                listed(index, direct, rem - 1)
            );
            prop_assert_eq!(index.labels(&scan).first(), Some(&w));
            prop_assert_eq!(index.child_at(&scan, 0), direct);
        }
    }
}

/// [`check_seeks`] at the root and under every root child, and a node at
/// full depth has no children.
fn check_seeks_two_levels<S: SearchTree>(index: &S, arity: usize, targets: &[u64])
where
    S::Node: PartialEq + std::fmt::Debug,
{
    check_seeks(index, index.root(), arity, targets);
    for t in listed(index, index.root(), 1) {
        let child = index.descend(index.root(), t[0]).expect("listed");
        check_seeks(index, child, arity - 1, targets);
    }
    if let Some(row) = listed(index, index.root(), arity).first() {
        let leaf = index
            .descend_tuple(index.root(), row)
            .expect("a listed row");
        prop_assert_eq!(index.seek(&mut index.children(leaf), Value(0)), None);
    }
}

/// Every order of `attrs`.
fn permutations(attrs: &[u32]) -> Vec<Vec<Attr>> {
    if attrs.is_empty() {
        return vec![Vec::new()];
    }
    (0..attrs.len())
        .flat_map(|i| {
            let mut rest = attrs.to_vec();
            let first = Attr(rest.remove(i));
            permutations(&rest).into_iter().map(move |mut tail| {
                tail.insert(0, first);
                tail
            })
        })
        .collect()
}

/// `got` and `want` agree at `g` and `w` and at every node below: the
/// same child slice, the same count at every depth, and the same children.
fn check_level_by_level(got: &FlatIndex, g: FlatNode, want: &FlatIndex, w: FlatNode, rem: usize) {
    prop_assert_eq!(got.child_slice(g), want.child_slice(w));
    for extra in 0..=rem {
        prop_assert_eq!(got.distinct_count(g, extra), want.distinct_count(w, extra));
    }
    for &v in want.child_slice(w) {
        let (gc, wc) = (got.descend(g, v), want.descend(w, v));
        check_level_by_level(
            got,
            gc.expect("a child"),
            want,
            wc.expect("a child"),
            rem - 1,
        );
    }
}

/// Runs `gallop::leapfrog` over strictly ascending `sides` from `starts`
/// in `[lo, hi]` and checks it against a `BTreeSet` intersection of what
/// each side holds from its start inside the window: the same values, in
/// ascending order, with every lane standing on the value.
fn check_leapfrog(sides: &[Vec<Value>], starts: &[usize], lo: Value, hi: Value) {
    let want: Vec<Value> = sides
        .iter()
        .zip(starts)
        .map(|(s, &at)| {
            s[at..]
                .iter()
                .copied()
                .filter(|v| (lo..=hi).contains(v))
                .collect()
        })
        .reduce(|acc: BTreeSet<Value>, next| acc.intersection(&next).copied().collect())
        .expect("at least one side")
        .into_iter()
        .collect();
    let mut lanes: Vec<gallop::Lane<'_>> = sides
        .iter()
        .zip(starts)
        .map(|(s, &at)| gallop::Lane { labels: s, at })
        .collect();
    let mut got = Vec::new();
    gallop::leapfrog(&mut lanes, lo, hi, |v, lanes| {
        for lane in lanes {
            assert_eq!(lane.labels[lane.at], v, "every lane stands on the value");
        }
        got.push(v);
    });
    assert_eq!(
        got, want,
        "sides {sides:?} from {starts:?} in [{lo:?}, {hi:?}]"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The child scan agrees with the listed children and with `descend`
    /// over an ascending run of targets (repeats and targets past the end
    /// included), on a batch-built index and on a relation's merged index
    /// over live buffers.
    #[test]
    fn seek_runs_match_listed_children(
        rel in arb_rel(3, 40, 6),
        targets in prop::collection::vec(0..9u64, 0..12),
        split in any::<u64>(),
    ) {
        let mut targets = targets;
        targets.sort_unstable();
        let order: Vec<Attr> = rel.schema().attrs().to_vec();
        let flat = FlatIndex::build(&rel, &order).expect("permutation");
        check_seeks_two_levels(&flat, 3, &targets);
        // The same rows through live buffers: `split`'s bits put each row
        // in the base or the insert buffer, and rows with a value past the
        // domain sit in the base and are deleted again.
        let rows: Vec<Vec<Value>> = rel.iter_rows().map(<[Value]>::to_vec).collect();
        let outsiders: Vec<Vec<Value>> = rows
            .iter()
            .take(1)
            .flat_map(|r| [vec![Value(7), r[1], r[2]], vec![r[0], Value(7), r[2]]])
            .collect();
        let base: Vec<Vec<Value>> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| split >> (i % 64) & 1 == 1)
            .map(|(_, r)| r.clone())
            .chain(outsiders.iter().cloned())
            .collect();
        let mut d = DeltaRelation::new(Relation::from_rows(rel.schema().clone(), base).expect("arity"));
        d.insert_rows(&rows).expect("arity");
        d.delete_rows(&outsiders).expect("arity");
        let merged = d.index(&order).expect("order");
        prop_assert_eq!(listed(&merged, merged.root(), 3), listed(&flat, flat.root(), 3));
        check_seeks_two_levels(&merged, 3, &targets);
    }

    /// A relation's merged index under every column order, level by level
    /// against a batch build over its materialized view: the same child
    /// slice at every node and the same count at every depth below it.
    /// Arity 1–3, an empty base allowed, a whole subtree of the base
    /// deleted (`wipe`), and labels 0 and `u64::MAX` in the domain.
    #[test]
    fn merged_index_matches_build_over_materialized(
        arity in 1..4usize,
        base in prop::collection::vec(prop::collection::vec(0..6u64, 3), 0..30),
        ins in prop::collection::vec(prop::collection::vec(0..6u64, 3), 0..20),
        del in prop::collection::vec(prop::collection::vec(0..6u64, 3), 0..20),
        wipe in 0..7u64,
    ) {
        let label = |x: u64| if x == 5 { Value(u64::MAX) } else { Value(x) };
        let rows = |draws: &[Vec<u64>]| -> Vec<Vec<Value>> {
            draws.iter().map(|r| r[..arity].iter().map(|&x| label(x)).collect()).collect()
        };
        let attrs: Vec<u32> = (0..arity as u32).collect();
        let base = Relation::from_rows(Schema::of(&attrs), rows(&base)).expect("arity");
        let mut d = DeltaRelation::new(base.clone());
        d.insert_rows(&rows(&ins)).expect("arity");
        d.delete_rows(&rows(&del)).expect("arity");
        let wiped: Vec<Vec<Value>> = base
            .iter_rows()
            .filter(|r| r[0] == label(wipe))
            .map(<[Value]>::to_vec)
            .collect();
        d.delete_rows(&wiped).expect("arity");
        let view = d.materialize();
        for order in permutations(&attrs) {
            let merged = d.index(&order).expect("permutation");
            let want = FlatIndex::build(&view, &order).expect("permutation");
            prop_assert_eq!(merged.num_rows(), view.len());
            check_level_by_level(&merged, merged.root(), &want, want.root(), arity);
        }
    }

    /// Root-level distinct counts equal projection cardinalities for every
    /// prefix depth, under both the identity and the reversed order.
    #[test]
    fn trie_counts_match_projections(rel in arb_rel(3, 40, 5), reversed in any::<bool>()) {
        let mut order: Vec<Attr> = rel.schema().attrs().to_vec();
        if reversed {
            order.reverse();
        }
        let trie = FlatIndex::build(&rel, &order).expect("permutation");
        for depth in 1..=3usize {
            let keep: Vec<Attr> = order[..depth].to_vec();
            let p = project(&rel, &keep).expect("attrs");
            prop_assert_eq!(trie.distinct_count(trie.root(), depth), p.len());
        }
    }

    /// Sections reached by descent equal σ+π by the algebra, including
    /// their enumerations (ST3).
    #[test]
    fn trie_sections_match_algebra(rel in arb_rel(3, 40, 4)) {
        let order: Vec<Attr> = rel.schema().attrs().to_vec();
        let trie = FlatIndex::build(&rel, &order).expect("permutation");
        for v0 in 0..4u64 {
            let node = trie.descend(trie.root(), Value(v0));
            let expect1 = section_by_ops(&rel, &order, &[Value(v0)], 1);
            let expect2 = section_by_ops(&rel, &order, &[Value(v0)], 2);
            match node {
                None => prop_assert!(expect1.is_empty()),
                Some(n) => {
                    prop_assert_eq!(trie.distinct_count(n, 1), expect1.len());
                    prop_assert_eq!(trie.distinct_count(n, 2), expect2.len());
                    // enumeration must list exactly the projection
                    let listed = listed(&trie, n, 2);
                    prop_assert_eq!(listed.len(), expect2.len());
                    for row in &listed {
                        prop_assert!(expect2.contains_row(row));
                    }
                }
            }
        }
    }

    /// (ST1) membership of full tuples agrees with the relation.
    #[test]
    fn trie_membership_matches(rel in arb_rel(2, 30, 4)) {
        let order: Vec<Attr> = rel.schema().attrs().to_vec();
        let trie = FlatIndex::build(&rel, &order).expect("permutation");
        for a in 0..4u64 {
            for b in 0..4u64 {
                let row = [Value(a), Value(b)];
                prop_assert_eq!(
                    trie.descend_tuple(trie.root(), &row).is_some(),
                    rel.contains_row(&row)
                );
            }
        }
    }

    /// The flat counted trie is pointwise equivalent to its definition
    /// over the relation's sorted, distinct rows: same counts, same
    /// descents, same enumerations in the same order, same children — for
    /// random relations and both orders.
    #[test]
    fn flat_index_matches_trie(rel in arb_rel(3, 40, 4), reversed in any::<bool>()) {
        let mut order: Vec<Attr> = rel.schema().attrs().to_vec();
        if reversed {
            order.reverse();
        }
        let rows = sorted_rows(&rel, &order);
        let flat = FlatIndex::build(&rel, &order).expect("permutation");
        for depth in 1..=3usize {
            prop_assert_eq!(
                flat.distinct_count(flat.root(), depth),
                extensions(&rows, &[], depth).len()
            );
        }
        prop_assert_eq!(flat.child_slice(flat.root()).to_vec(), child_labels(&rows, &[]));
        prop_assert_eq!(flat.child_values(flat.root()), child_labels(&rows, &[]));
        for v0 in 0..4u64 {
            let prefix = [Value(v0)];
            let fnode = flat.descend(flat.root(), Value(v0));
            prop_assert_eq!(fnode.is_some(), !extensions(&rows, &prefix, 0).is_empty());
            let Some(fnode) = fnode else { continue };
            prop_assert_eq!(flat.distinct_count(fnode, 1), extensions(&rows, &prefix, 1).len());
            prop_assert_eq!(flat.distinct_count(fnode, 2), extensions(&rows, &prefix, 2).len());
            prop_assert_eq!(flat.child_slice(fnode).to_vec(), child_labels(&rows, &prefix));
            prop_assert_eq!(flat.child_values(fnode), child_labels(&rows, &prefix));
            prop_assert_eq!(listed(&flat, fnode, 2), extensions(&rows, &prefix, 2));
        }
        // full-depth enumeration, including order
        prop_assert_eq!(listed(&flat, flat.root(), 3), rows.into_iter().collect::<Vec<_>>());
    }

    /// Galloping lower bound agrees with std's `partition_point` from
    /// every start cursor, on sorted slices with duplicates — covering
    /// empty slices, singletons, boundary duplicates, and needles past
    /// the end (overshoot clamping).
    #[test]
    fn gallop_lower_bound_matches_partition_point(
        xs in prop::collection::vec(0..12u64, 0..40),
        start in 0..45usize,
        needle in 0..14u64,
    ) {
        let mut xs = xs;
        xs.sort_unstable();
        let s: Vec<Value> = xs.into_iter().map(Value).collect();
        let got = gallop::lower_bound_from(&s, start, Value(needle));
        let base = start.min(s.len());
        let want = base + s[base..].partition_point(|&x| x < Value(needle));
        prop_assert_eq!(got, want);
    }

    /// Galloping intersection is a drop-in for the naive two-pointer
    /// merge, including
    /// duplicate multiplicities, on arbitrary sorted inputs.
    #[test]
    fn gallop_intersect_matches_naive_merge(
        a in prop::collection::vec(0..30u64, 0..60),
        b in prop::collection::vec(0..30u64, 0..400),
    ) {
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        b.sort_unstable();
        let av: Vec<Value> = a.into_iter().map(Value).collect();
        let bv: Vec<Value> = b.into_iter().map(Value).collect();
        // the naive merge oracle
        let mut want = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < av.len() && j < bv.len() {
            match av[i].cmp(&bv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    want.push(av[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        prop_assert_eq!(gallop::intersect(&av, &bv), want.clone());
        prop_assert_eq!(gallop::intersect(&bv, &av), want);
    }

    /// The k-way `gallop::leapfrog` over 1–4 strictly ascending sides
    /// visits, in ascending order, exactly the values inside `[lo, hi]`
    /// that every side holds at or after its start offset, with every
    /// lane standing on the value. Labels 0, `u64::MAX − 1` and
    /// `u64::MAX` are in the domain, and the window may end on them.
    #[test]
    fn leapfrog_matches_btreeset_intersection(
        sides in prop::collection::vec(prop::collection::vec(0..12u64, 0..24), 1..5),
        starts in prop::collection::vec(0..26usize, 4),
        window in prop::collection::vec(0..12u64, 2),
    ) {
        // Small draws, spread to the ends of the label domain.
        let label = |x: u64| match x {
            10 => Value(u64::MAX - 1),
            11 => Value(u64::MAX),
            x => Value(x),
        };
        let sides: Vec<Vec<Value>> = sides
            .iter()
            .map(|s| s.iter().map(|&x| label(x)).collect::<BTreeSet<_>>().into_iter().collect())
            .collect();
        let starts: Vec<usize> = sides.iter().zip(&starts).map(|(s, &at)| at % (s.len() + 1)).collect();
        let (lo, hi) = (label(window[0].min(window[1])), label(window[0].max(window[1])));
        check_leapfrog(&sides, &starts, lo, hi);
    }

    /// Two-lane `gallop::leapfrog` at its merge switch: sides of `n` and
    /// `8n` labels (merged when both are whole) and of `n` and `8n + 1`
    /// (galloped), in both argument orders, either whole or from random
    /// starts inside a random window, which may end mid-slice or on
    /// labels 0 and `u64::MAX`. Checked as
    /// `leapfrog_matches_btreeset_intersection` is.
    #[test]
    fn two_lane_leapfrog_matches_btreeset_at_the_merge_switch(
        n in 0..6usize,
        past in any::<bool>(),
        gaps in prop::collection::vec(0..3u64, 41),
        short_gaps in prop::collection::vec(0..24u64, 5),
        tops in prop::collection::vec(any::<bool>(), 2),
        whole in any::<bool>(),
        starts in prop::collection::vec(0..48usize, 2),
        window in prop::collection::vec(0..140u64, 2),
    ) {
        // Strictly ascending from a gap each; a side may end on u64::MAX.
        let side = |gaps: &[u64], top: bool| {
            let mut labels: Vec<Value> = gaps
                .iter()
                .scan(0u64, |at, &g| {
                    *at += g;
                    let v = *at;
                    *at += 1;
                    Some(Value(v))
                })
                .collect();
            if let (true, Some(last)) = (top, labels.last_mut()) {
                *last = Value(u64::MAX);
            }
            labels
        };
        let short = side(&short_gaps[..n], tops[0]);
        let long = side(&gaps[..8 * n + usize::from(past)], tops[1]);
        let label = |x: u64| if x >= 130 { Value(u64::MAX) } else { Value(x) };
        for sides in [[short.clone(), long.clone()], [long.clone(), short.clone()]] {
            let (starts, lo, hi) = if whole {
                (vec![0, 0], Value(0), Value(u64::MAX))
            } else {
                let starts = sides.iter().zip(&starts).map(|(s, &at)| at % (s.len() + 1)).collect();
                (starts, label(window[0].min(window[1])), label(window[0].max(window[1])))
            };
            check_leapfrog(&sides, &starts, lo, hi);
        }
    }

    /// `FlatIndex::descend` (galloping) hits exactly the values that
    /// start a row and lands on a node whose children are that value's
    /// extensions, for needles inside and past the key range.
    #[test]
    fn descend_lookup_sweep(rel in arb_rel(2, 30, 6)) {
        let order: Vec<Attr> = rel.schema().attrs().to_vec();
        let rows = sorted_rows(&rel, &order);
        let flat = FlatIndex::build(&rel, &order).expect("permutation");
        for v in 0..9u64 { // domain is 0..6: values 6..9 probe past the end
            let prefix = [Value(v)];
            let fnode = flat.descend(flat.root(), Value(v));
            prop_assert_eq!(fnode.is_some(), !extensions(&rows, &prefix, 0).is_empty());
            if let Some(fnode) = fnode {
                prop_assert_eq!(flat.child_slice(fnode).to_vec(), child_labels(&rows, &prefix));
            }
        }
    }

    /// Deep enumeration from the root reproduces the sorted relation.
    #[test]
    fn trie_full_enumeration_roundtrip(rel in arb_rel(3, 40, 5)) {
        let order: Vec<Attr> = rel.schema().attrs().to_vec();
        let trie = FlatIndex::build(&rel, &order).expect("permutation");
        let listed = listed(&trie, trie.root(), 3);
        prop_assert_eq!(listed.len(), rel.len());
        for row in &listed {
            prop_assert!(rel.contains_row(row));
        }
        // sortedness
        for w in listed.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }
}
