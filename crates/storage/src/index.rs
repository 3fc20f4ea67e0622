//! The search-tree abstraction of paper §5.1 (first ingredient):
//!
//! > "We first build a 'search tree' for each relation `R_e` … We can also
//! > build a collection of hash indices which functionally can serve the
//! > same purpose."
//!
//! [`SearchTree`] captures the operations `Recursive-Join` needs
//! ((ST1)–(ST3) of §5.3.2); three implementations are provided:
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

/// Index interface required by the join algorithms: prefix descent,
/// O(1)-ish distinct-extension counts, and output-linear enumeration.
pub trait SearchTree: Sized {
    /// Handle to a trie position (a tuple prefix).
    type Node: Copy;

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
        let mut out = Vec::with_capacity(self.distinct_count(node, 1));
        self.for_each_extension(node, 1, |t| out.push(t[0]));
        out
    }

    /// Branch labels of `node` as a **borrowed** sorted slice, when the
    /// backend stores them contiguously; `None` means the caller must fall
    /// back to [`SearchTree::child_values`]. Hot-path scan sites prefer
    /// this to avoid copying a level out before intersecting it.
    fn child_slice(&self, node: Self::Node) -> Option<&[Value]> {
        let _ = node;
        None
    }

    /// (ST1), resumable for sorted scans: the first child of `node`
    /// labelled `≥ v`, with its label; `None` when every child is `< v`.
    ///
    /// `cursor` remembers where the previous seek on the same node landed,
    /// and the search starts there, so a run of seeks with ascending `v`
    /// (a leapfrog intersection) costs `O(log gap)` per step instead of a
    /// search from the first child. Start every run on a node with
    /// `Cursor::default()`, and never seek a `v` below the previous one
    /// on the same cursor.
    ///
    /// [`FlatIndex`](crate::FlatIndex) and [`HashTrieIndex`] gallop their
    /// sorted child lists. [`DeltaIndex`](crate::DeltaIndex) gallops the
    /// base's and the insert buffer's children together on a merged node,
    /// takes the smaller label and steps over children whose rows are all
    /// deleted, so the merged view seeks without listing a level. The
    /// default gallops [`SearchTree::child_slice`] and takes the child by
    /// [`SearchTree::descend`].
    ///
    /// # Panics
    /// The default panics on a node without a child slice: a backend that
    /// does not store every level contiguously overrides `seek`.
    fn seek(&self, node: Self::Node, cursor: &mut Cursor, v: Value) -> Option<(Value, Self::Node)> {
        let children = self
            .child_slice(node)
            .expect("a backend without child slices overrides `seek`");
        let label = *children.get(cursor.gallop(0, children, v))?;
        Some((
            label,
            self.descend(node, label).expect("a listed child exists"),
        ))
    }
}

/// Where [`SearchTree::seek`] left off among one node's children: an
/// offset into each of up to three sorted child lists (a
/// [`DeltaIndex`](crate::DeltaIndex) merges its base, insert and delete
/// buffers). Opaque to callers; `Cursor::default()` is the first child.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cursor([u32; 3]);

impl Cursor {
    /// Gallops list `i`'s offset forward to the first element of `slice`
    /// that is `≥ v` and returns it (`slice.len()` when there is none).
    #[inline]
    pub(crate) fn gallop(&mut self, i: usize, slice: &[Value], v: Value) -> usize {
        let at = gallop::lower_bound_from(slice, self.0[i] as usize, v);
        self.0[i] = at as u32;
        at
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

    fn child_values(&self, node: u32) -> Vec<Value> {
        self.nodes[node as usize].sorted.clone()
    }

    fn child_slice(&self, node: u32) -> Option<&[Value]> {
        Some(&self.nodes[node as usize].sorted)
    }

    fn seek(&self, node: u32, cursor: &mut Cursor, v: Value) -> Option<(Value, u32)> {
        let n = &self.nodes[node as usize];
        let label = *n.sorted.get(cursor.gallop(0, &n.sorted, v))?;
        Some((label, n.children[&label]))
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
