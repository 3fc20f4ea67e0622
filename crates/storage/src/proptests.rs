//! Property-based tests: the served search tree ([`FlatIndex`]) must agree
//! with the relational algebra on every section/projection query, for
//! random relations and random attribute orders — this is the
//! load-bearing equivalence behind `Recursive-Join`'s (ST1)–(ST3) usage —
//! and the hash alternative ([`HashTrieIndex`]) must agree with it
//! pointwise.

use crate::ops::{project, select_eq};
use crate::{
    gallop, Attr, Cursor, DeltaIndex, DeltaRelation, FlatIndex, HashTrieIndex, Relation, Schema,
    SearchTree, StorageError, Value,
};
use proptest::prelude::*;

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

/// (ST3) as a list: every length-`extra` extension of `node`, in order.
fn listed<S: SearchTree>(index: &S, node: S::Node, extra: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    index.for_each_extension(node, extra, |t| out.push(t.to_vec()));
    out
}

/// A backend with only the required methods and a child slice: runs
/// [`SearchTree::seek`]'s default.
struct Plain(FlatIndex);

impl SearchTree for Plain {
    type Node = crate::FlatNode;

    fn build(rel: &Relation, order: &[Attr]) -> Result<Self, StorageError> {
        FlatIndex::build(rel, order).map(Plain)
    }
    fn root(&self) -> Self::Node {
        self.0.root()
    }
    fn descend(&self, node: Self::Node, v: Value) -> Option<Self::Node> {
        self.0.descend(node, v)
    }
    fn distinct_count(&self, node: Self::Node, extra: usize) -> usize {
        self.0.distinct_count(node, extra)
    }
    fn for_each_extension(&self, node: Self::Node, extra: usize, f: impl FnMut(&[Value])) {
        self.0.for_each_extension(node, extra, f);
    }
    fn child_slice(&self, node: Self::Node) -> Option<&[Value]> {
        Some(self.0.child_slice(node))
    }
}

/// Every seek of an ascending run over `node`'s children lands on the
/// first child `≥` its target, and on the same subtree `descend` reaches.
fn check_seeks<S: SearchTree>(index: &S, node: S::Node, rem: usize, targets: &[u64]) {
    let children: Vec<Value> = listed(index, node, 1).into_iter().map(|t| t[0]).collect();
    let mut cursor = Cursor::default();
    for &t in targets {
        let want = children.iter().copied().find(|&c| c >= Value(t));
        let got = index.seek(node, &mut cursor, Value(t));
        prop_assert_eq!(got.map(|g| g.0), want, "seek {}", t);
        if let Some((w, child)) = got {
            let direct = index.descend(node, w).expect("a child");
            prop_assert_eq!(
                listed(index, child, rem - 1),
                listed(index, direct, rem - 1)
            );
        }
    }
}

/// [`check_seeks`] at the root and under every root child.
fn check_seeks_two_levels<S: SearchTree>(index: &S, arity: usize, targets: &[u64]) {
    check_seeks(index, index.root(), arity, targets);
    for t in listed(index, index.root(), 1) {
        let child = index.descend(index.root(), t[0]).expect("listed");
        check_seeks(index, child, arity - 1, targets);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `seek` on every backend — flat, hashed, the trait's default, and a
    /// `DeltaIndex` whose nodes are merged from live buffers or base-only —
    /// agrees with the listed children over an ascending run of targets
    /// (repeats and targets past the end included).
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
        let hash = HashTrieIndex::build(&rel, &order).expect("permutation");
        check_seeks_two_levels(&hash, 3, &targets);
        check_seeks_two_levels(&Plain(flat.clone()), 3, &targets);
        // The merged view of the same rows: `split`'s bits put each row in
        // the base or the insert buffer, and rows with a value past the
        // domain sit in the base and are deleted again, so the first two
        // levels hold children whose every row is deleted.
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
        let delta = DeltaIndex::over(d.base_index(&order).expect("order"), d.ins(), d.del(), &order)
            .expect("order");
        prop_assert_eq!(listed(&delta, delta.root(), 3), listed(&flat, flat.root(), 3));
        check_seeks_two_levels(&delta, 3, &targets);
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

    /// The hash trie is pointwise equivalent to the flat counted trie:
    /// same counts, same descents, same enumerations in the same order,
    /// same child slices — for random relations and both orders.
    #[test]
    fn flat_index_matches_trie(rel in arb_rel(3, 40, 4), reversed in any::<bool>()) {
        let mut order: Vec<Attr> = rel.schema().attrs().to_vec();
        if reversed {
            order.reverse();
        }
        let hash = HashTrieIndex::build(&rel, &order).expect("permutation");
        let flat = FlatIndex::build(&rel, &order).expect("permutation");
        for depth in 1..=3usize {
            prop_assert_eq!(
                hash.distinct_count(hash.root(), depth),
                flat.distinct_count(flat.root(), depth)
            );
        }
        prop_assert_eq!(hash.child_slice(hash.root()), Some(flat.child_slice(flat.root())));
        for v0 in 0..4u64 {
            let hn = hash.descend(hash.root(), Value(v0));
            let fnode = flat.descend(flat.root(), Value(v0));
            prop_assert_eq!(hn.is_some(), fnode.is_some());
            let (Some(hn), Some(fnode)) = (hn, fnode) else { continue };
            prop_assert_eq!(hash.distinct_count(hn, 1), flat.distinct_count(fnode, 1));
            prop_assert_eq!(hash.distinct_count(hn, 2), flat.distinct_count(fnode, 2));
            prop_assert_eq!(hash.child_slice(hn), Some(flat.child_slice(fnode)));
            prop_assert_eq!(listed(&hash, hn, 2), listed(&flat, fnode, 2));
        }
        // full-depth enumerations agree, including order
        prop_assert_eq!(listed(&hash, hash.root(), 3), listed(&flat, flat.root(), 3));
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
    /// merge (the engine's original `intersect_sorted`), including
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

    /// `HashTrieIndex::descend` (hash probe) and `FlatIndex::descend`
    /// (galloping) agree on hit/miss and land on nodes with identical
    /// sections, for needles inside and past the key range.
    #[test]
    fn descend_lookup_sweep(rel in arb_rel(2, 30, 6)) {
        let order: Vec<Attr> = rel.schema().attrs().to_vec();
        let hash = HashTrieIndex::build(&rel, &order).expect("permutation");
        let flat = FlatIndex::build(&rel, &order).expect("permutation");
        for v in 0..9u64 { // domain is 0..6: values 6..9 probe past the end
            let hn = hash.descend(hash.root(), Value(v));
            let fnode = flat.descend(flat.root(), Value(v));
            prop_assert_eq!(hn.is_some(), fnode.is_some());
            if let (Some(hn), Some(fnode)) = (hn, fnode) {
                prop_assert_eq!(hash.child_slice(hn), Some(flat.child_slice(fnode)));
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
