//! The search-tree abstraction of paper §5.1 (first ingredient):
//!
//! > "We first build a 'search tree' for each relation `R_e` … We can also
//! > build a collection of hash indices which functionally can serve the
//! > same purpose."
//!
//! [`SearchTree`] captures the operations `Recursive-Join` needs
//! ((ST1)–(ST3) of §5.3.2). (ST1) comes in two forms: a one-step
//! `descend`, and a child scan in the style of a Leapfrog Triejoin trie
//! iterator — opened on a node once ([`SearchTree::children`]), it keeps
//! its place and seeks forward ([`SearchTree::seek`],
//! [`SearchTree::child`]). Each backend owns its scan type, so what a
//! scan holds (a borrowed level slice, a sorted label list, a merge of
//! three components) never leaks into the engine. Three implementations
//! are provided:
//!
//! * [`FlatIndex`](crate::FlatIndex) — the sorted counted trie (comparison
//!   based, `O(log N)` per descent step, cache-friendly flat levels);
//! * [`DeltaIndex`](crate::DeltaIndex) — a `FlatIndex` base merged with
//!   insert/delete buffers at scan time, the index the server reads;
//! * [`HashTrieIndex`] — a node-arena trie with hash children (`O(1)`
//!   expected per descent step, more memory traffic).
//!
//! The NPRR engine is generic over this trait, and the
//! `ablation_index` bench compares the sorted and hashed tries.

use crate::hash::{map_with_capacity, FxHashMap};
use crate::{gallop, Attr, Relation, Schema, StorageError, Value};
use std::ops::RangeInclusive;

/// Index interface required by the join algorithms: prefix descent,
/// O(1)-ish distinct-extension counts, output-linear enumeration, and a
/// resumable scan over a node's children.
pub trait SearchTree: Sized {
    /// Handle to a trie position (a tuple prefix).
    type Node: Copy;

    /// A scan over one node's children, opened by
    /// [`SearchTree::children`]: what the backend resolved about the node
    /// once (its child range), and where the last [`SearchTree::seek`]
    /// landed. `Default` is a scan with no children.
    type Children<'a>: Copy + Default
    where
        Self: 'a;

    /// Builds the index for `rel` under attribute order `order` (must be a
    /// permutation of the relation's schema).
    ///
    /// # Errors
    /// [`StorageError::SchemaMismatch`] when `order` is not a permutation.
    fn build(rel: &Relation, order: &[Attr]) -> Result<Self, StorageError>;

    /// The empty-prefix node.
    fn root(&self) -> Self::Node;

    /// (ST1, one step) child labelled `v`, if present.
    fn descend(&self, node: Self::Node, v: Value) -> Option<Self::Node>;

    /// (ST1) descend along a whole prefix.
    fn descend_tuple(&self, node: Self::Node, prefix: &[Value]) -> Option<Self::Node> {
        prefix.iter().try_fold(node, |n, &v| self.descend(n, v))
    }

    /// (ST2) number of distinct length-`extra` extensions of `node`.
    fn distinct_count(&self, node: Self::Node, extra: usize) -> usize;

    /// (ST3) visit each distinct length-`extra` extension, in a
    /// deterministic (sorted) order.
    fn for_each_extension(&self, node: Self::Node, extra: usize, f: impl FnMut(&[Value]));

    /// Branch labels of `node` (its distinct one-step extensions), sorted
    /// ascending. At the root this is the **level-0 view** the
    /// shard planner (`wcoj-exec`) splits on: the subtree under each label
    /// is the search tree of that section (paper §5.2, step 2a), so
    /// disjoint label ranges denote fully independent sub-joins.
    fn child_values(&self, node: Self::Node) -> Vec<Value> {
        let mut out = Vec::new();
        for_each_child(self, node, ALL_LABELS, |v, _| out.push(v));
        out
    }

    /// Opens a scan over `node`'s children, before the first one. A node
    /// at full depth has none.
    fn children(&self, node: Self::Node) -> Self::Children<'_>;

    /// (ST1), resumable for sorted scans: moves `children` to the first
    /// child labelled `≥ v` and returns its label; `None` when every child
    /// is `< v`.
    ///
    /// The search starts where the previous seek on the same scan landed,
    /// so a run of seeks with ascending `v` (a leapfrog intersection) costs
    /// `O(log gap)` per step instead of a search from the first child.
    /// Never seek a `v` below the previous one on the same scan.
    ///
    /// [`FlatIndex`](crate::FlatIndex) and [`HashTrieIndex`] gallop their
    /// sorted child lists. [`DeltaIndex`](crate::DeltaIndex) gallops the
    /// base's and the insert buffer's children together on a merged node,
    /// takes the smaller label and steps over children whose rows are all
    /// deleted, so the merged view seeks without listing a level.
    fn seek(&self, children: &mut Self::Children<'_>, v: Value) -> Option<Value>;

    /// The child the last [`SearchTree::seek`] on `children` found; call it
    /// only after that seek returned a label.
    fn child(&self, children: &Self::Children<'_>) -> Self::Node;
}

/// Every label: [`for_each_child`] over it lists all of a node's children.
pub const ALL_LABELS: RangeInclusive<Value> = Value(0)..=Value(u64::MAX);

/// Visits the children of `node` labelled inside `labels`, in ascending
/// order, each with its node: one scan ([`SearchTree::children`]), so it
/// needs neither a contiguous child level nor a copy of one.
pub fn for_each_child<S: SearchTree>(
    trie: &S,
    node: S::Node,
    labels: RangeInclusive<Value>,
    mut f: impl FnMut(Value, S::Node),
) {
    let mut children = trie.children(node);
    let mut v = *labels.start();
    while let Some(w) = trie.seek(&mut children, v) {
        if w > *labels.end() {
            return;
        }
        f(w, trie.child(&children));
        let Some(next) = w.0.checked_add(1) else {
            return;
        };
        v = Value(next);
    }
}

/// Runs `f` on a scratch tuple of `len` values — on the stack for every
/// arity a query realistically has, so an (ST3) enumeration performs no
/// allocation per call (the engine issues one per partial tuple).
pub fn with_tuple_scratch<R>(len: usize, f: impl FnOnce(&mut [Value]) -> R) -> R {
    const INLINE: usize = 8;
    if len <= INLINE {
        f(&mut [Value(0); INLINE][..len])
    } else {
        f(&mut vec![Value(0); len])
    }
}

/// A trie with per-node hash child maps (the paper's "collection of hash
/// indices" realisation). Children are also kept as a sorted list so that
/// enumeration order is deterministic and matches [`crate::FlatIndex`].
#[derive(Debug, Clone)]
pub struct HashTrieIndex {
    order: Vec<Attr>,
    nodes: Vec<HashNode>,
    root: u32,
}

#[derive(Debug, Clone)]
struct HashNode {
    children: FxHashMap<Value, u32>,
    /// Child labels in sorted order (for deterministic enumeration).
    sorted: Vec<Value>,
    /// `counts[j]` = number of distinct length-`(j+1)` extensions.
    counts: Vec<u32>,
}

/// A scan over one [`HashTrieIndex`] node's children
/// ([`SearchTree::children`]): the node's sorted labels and where the last
/// seek landed among them.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashChildren<'a> {
    labels: &'a [Value],
    node: u32,
    at: usize,
}

impl HashTrieIndex {
    /// The attribute order this index honours.
    #[must_use]
    pub fn order(&self) -> &[Attr] {
        &self.order
    }

    /// Number of full tuples.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.nodes[self.root as usize]
            .counts
            .last()
            .copied()
            .unwrap_or(0) as usize
    }

    /// Recursively builds nodes from a sorted, deduplicated row range.
    fn build_node(
        nodes: &mut Vec<HashNode>,
        rows: &[Vec<Value>],
        depth: usize,
        lo: usize,
        hi: usize,
    ) -> u32 {
        let arity = rows.first().map_or(depth, Vec::len);
        let levels_below = arity - depth;
        let id = nodes.len() as u32;
        nodes.push(HashNode {
            children: FxHashMap::default(),
            sorted: Vec::new(),
            counts: vec![0; levels_below],
        });
        if levels_below == 0 || lo >= hi {
            return id;
        }
        // Partition [lo, hi) into runs sharing rows[_][depth].
        let mut children = Vec::new();
        let mut run_start = lo;
        let mut i = lo + 1;
        while i <= hi {
            if i == hi || rows[i][depth] != rows[run_start][depth] {
                let v = rows[run_start][depth];
                let child = Self::build_node(nodes, rows, depth + 1, run_start, i);
                children.push((v, child));
                run_start = i;
            }
            i += 1;
        }
        // Aggregate counts.
        let mut counts = vec![0u32; levels_below];
        counts[0] = children.len() as u32;
        for (j, slot) in counts.iter_mut().enumerate().skip(1) {
            *slot = children
                .iter()
                .map(|&(_, c)| nodes[c as usize].counts[j - 1])
                .sum();
        }
        let node = &mut nodes[id as usize];
        node.counts = counts;
        node.children = map_with_capacity(children.len());
        for &(v, c) in &children {
            node.children.insert(v, c);
            node.sorted.push(v);
        }
        id
    }

    /// Fills `buf[at..]` with every extension of `node`, visiting `f`.
    fn visit(&self, node: u32, at: usize, buf: &mut [Value], f: &mut impl FnMut(&[Value])) {
        if at == buf.len() {
            f(buf);
            return;
        }
        let n = &self.nodes[node as usize];
        for &v in &n.sorted {
            buf[at] = v;
            self.visit(n.children[&v], at + 1, buf, f);
        }
    }
}

impl SearchTree for HashTrieIndex {
    type Node = u32;
    type Children<'a> = HashChildren<'a>;

    fn build(rel: &Relation, order: &[Attr]) -> Result<HashTrieIndex, StorageError> {
        let target = Schema::new(order.to_vec()).map_err(|_| StorageError::SchemaMismatch)?;
        if !rel.schema().same_set(&target) {
            return Err(StorageError::SchemaMismatch);
        }
        let positions = rel
            .schema()
            .positions_of(order)
            .expect("same_set implies positions exist");
        let mut rows: Vec<Vec<Value>> = rel
            .iter_rows()
            .map(|r| positions.iter().map(|&p| r[p]).collect())
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let mut nodes = Vec::new();
        let n_rows = rows.len();
        let root = HashTrieIndex::build_node(&mut nodes, &rows, 0, 0, n_rows);
        Ok(HashTrieIndex {
            order: order.to_vec(),
            nodes,
            root,
        })
    }

    fn root(&self) -> u32 {
        self.root
    }

    fn descend(&self, node: u32, v: Value) -> Option<u32> {
        self.nodes[node as usize].children.get(&v).copied()
    }

    fn distinct_count(&self, node: u32, extra: usize) -> usize {
        if extra == 0 {
            return 1;
        }
        self.nodes[node as usize]
            .counts
            .get(extra - 1)
            .copied()
            .unwrap_or(0) as usize
    }

    fn for_each_extension(&self, node: u32, extra: usize, mut f: impl FnMut(&[Value])) {
        with_tuple_scratch(extra, |buf| self.visit(node, 0, buf, &mut f));
    }

    fn children(&self, node: u32) -> HashChildren<'_> {
        HashChildren {
            labels: &self.nodes[node as usize].sorted,
            node,
            at: 0,
        }
    }

    fn seek(&self, children: &mut HashChildren<'_>, v: Value) -> Option<Value> {
        children.at = gallop::lower_bound_from(children.labels, children.at, v);
        children.labels.get(children.at).copied()
    }

    fn child(&self, children: &HashChildren<'_>) -> u32 {
        self.nodes[children.node as usize].children[&children.labels[children.at]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    fn attrs(ids: &[u32]) -> Vec<Attr> {
        ids.iter().map(|&v| Attr(v)).collect()
    }

    #[test]
    fn hash_trie_basics() {
        let r = rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 10]]);
        let t = HashTrieIndex::build(&r, &attrs(&[0, 1])).unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.distinct_count(t.root(), 1), 2);
        assert_eq!(t.distinct_count(t.root(), 2), 3);
        let n1 = t.descend(t.root(), Value(1)).unwrap();
        assert_eq!(t.distinct_count(n1, 1), 2);
        assert!(t.descend(t.root(), Value(9)).is_none());
        assert!(t.descend_tuple(t.root(), &[Value(2), Value(10)]).is_some());
        assert!(t.descend_tuple(t.root(), &[Value(2), Value(20)]).is_none());
    }

    #[test]
    fn hash_trie_rejects_non_permutation() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        assert!(HashTrieIndex::build(&r, &attrs(&[0, 2])).is_err());
        assert!(HashTrieIndex::build(&r, &attrs(&[0])).is_err());
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(Schema::of(&[0, 1]));
        let t = HashTrieIndex::build(&r, &attrs(&[0, 1])).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.distinct_count(t.root(), 1), 0);
        assert!(t.descend(t.root(), Value(0)).is_none());
    }

    #[test]
    fn hash_and_sorted_tries_agree_exhaustively() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for trial in 0..10 {
            let rows: Vec<Vec<Value>> = (0..60)
                .map(|_| (0..3).map(|_| Value(rng.gen_range(0..5u64))).collect())
                .collect();
            let r = Relation::from_rows(Schema::of(&[0, 1, 2]), rows).unwrap();
            let order = attrs(&[2, 0, 1]);
            let sorted = FlatIndex::build(&r, &order).unwrap();
            let hashed = HashTrieIndex::build(&r, &order).unwrap();
            // root counts at all depths
            for d in 1..=3usize {
                assert_eq!(
                    sorted.distinct_count(sorted.root(), d),
                    hashed.distinct_count(hashed.root(), d),
                    "trial {trial}, depth {d}"
                );
            }
            // sections and enumerations agree, in the same order
            for v in 0..5u64 {
                let sn = sorted.descend(sorted.root(), Value(v));
                let hn = hashed.descend(hashed.root(), Value(v));
                assert_eq!(sn.is_some(), hn.is_some(), "trial {trial}, v {v}");
                let (Some(sn), Some(hn)) = (sn, hn) else {
                    continue;
                };
                let mut s_rows = Vec::new();
                sorted.for_each_extension(sn, 2, |t| s_rows.push(t.to_vec()));
                let mut h_rows = Vec::new();
                hashed.for_each_extension(hn, 2, |t| h_rows.push(t.to_vec()));
                assert_eq!(s_rows, h_rows, "trial {trial}, v {v}");
            }
        }
    }

    #[test]
    fn extension_zero_is_unit() {
        let r = rel(&[0], &[&[1]]);
        let t = HashTrieIndex::build(&r, &attrs(&[0])).unwrap();
        assert_eq!(t.distinct_count(t.root(), 0), 1);
        let mut count = 0;
        t.for_each_extension(t.root(), 0, |row| {
            assert!(row.is_empty());
            count += 1;
        });
        assert_eq!(count, 1);
    }
}
