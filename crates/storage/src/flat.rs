//! The paper's per-relation **search tree** (§5.3.2): a *counted trie*
//! over sorted, deduplicated rows, laid out as nothing but contiguous
//! sorted value arrays plus offset ranges.
//!
//! Given a relation `Rₑ` and an ordering `a₁, …, a_k` of its attributes
//! (induced by the global *total order* of Algorithm 4), level `d` holds
//! the distinct length-`(d+1)` prefixes of the reordered tuples, in
//! lexicographic order, as two arrays:
//!
//! * `values[i]` — the last value of the `i`-th distinct length-`(d+1)`
//!   prefix;
//! * `child_start[i]..child_start[i+1]` — entry `i`'s contiguous range at
//!   level `d+1` (absent at the deepest level).
//!
//! That is all: **no parent pointers, no node objects**. A node is a pair
//! `(depth, idx)`; because rows are sorted, every subtree occupies a
//! contiguous range at every deeper level, so each operation the paper
//! requires resolves to slice arithmetic over the two arrays:
//!
//! * **(ST1)** `descend` finds the child by *galloping* (exponential
//!   search, [`crate::gallop`]) from the start of the child slice —
//!   `O(log d)` for a child at offset `d` (footnote 3 allows the `log`
//!   factor). Its resumable form is a [`FlatChildren`] scan: opened on a
//!   node, it borrows the node's child slice once, and each seek for the
//!   first child `≥ v` gallops from where the previous one landed, so a
//!   sorted run of probes (`Recursive-Join`'s leapfrog over a case-b
//!   level) costs `O(log gap)` per step;
//! * **(ST2)** `|π_{aᵢ₊₁..aⱼ}(Rₑ[t])|` is the width of the offset range the
//!   prefix spans at level `j`, `O(j − i)` lookups after the descent;
//! * **(ST3)** enumeration walks the level arrays **forward** through the
//!   offset ranges (a nested range scan, sequential at every level):
//!   output-linear.
//!
//! Crucially (paper §5.2, step 2a): the subtree under the branch for a
//! tuple prefix `t` **is** the search tree of the section `Rₑ[t]`, so the
//! recursive sub-problems of `Recursive-Join` need no re-indexing.

use crate::index::{with_tuple_scratch, SearchTree};
use crate::relation::{sort_dedup_flat, strictly_sorted};
use crate::{gallop, Attr, Relation, Schema, StorageError, Value};

/// The schema position of each attribute of `order`, which must be a
/// permutation of `schema`.
pub(crate) fn permutation_of(schema: &Schema, order: &[Attr]) -> Result<Vec<usize>, StorageError> {
    let target = Schema::new(order.to_vec()).map_err(|_| StorageError::SchemaMismatch)?;
    if !schema.same_set(&target) {
        return Err(StorageError::SchemaMismatch);
    }
    Ok(schema
        .positions_of(order)
        .expect("same_set implies positions exist"))
}

/// One flat level: contiguous sorted values plus child offset ranges.
#[derive(Debug, Clone)]
struct FlatLevel {
    /// Last value of each distinct prefix at this level, sorted.
    values: Vec<Value>,
    /// `child_start[i]..child_start[i+1]` is entry `i`'s range at the
    /// next level; length `len + 1`. Empty at the deepest level.
    child_start: Vec<u32>,
}

/// A position in the flat index: the root (empty prefix) or an entry at
/// some level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatNode {
    /// Depth = prefix length; 0 is the root.
    depth: u32,
    /// Entry index at level `depth − 1` (unused for the root).
    idx: u32,
}

impl FlatNode {
    /// Prefix length represented by this node.
    #[must_use]
    pub fn depth(self) -> usize {
        self.depth as usize
    }
}

/// A scan over one [`FlatIndex`] node's children
/// ([`SearchTree::children`]): their contiguous slice of the level below,
/// where that slice starts in its level, and where the last seek landed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatChildren<'a> {
    labels: &'a [Value],
    /// The children's depth.
    depth: u32,
    /// Level offset of `labels[0]`.
    lo: u32,
    /// Where the last seek landed in `labels`.
    at: usize,
}

impl FlatChildren<'_> {
    /// The first child labelled `≥ v`, galloping from where the last seek
    /// landed ([`SearchTree::seek`]).
    #[inline]
    pub(crate) fn seek(&mut self, v: Value) -> Option<Value> {
        self.at = gallop::lower_bound_from(self.labels, self.at, v);
        self.label()
    }

    /// The label the scan stands on; `None` past the last child.
    #[inline]
    pub(crate) fn label(&self) -> Option<Value> {
        self.labels.get(self.at).copied()
    }

    /// The child the scan stands on.
    #[inline]
    pub(crate) fn child(&self) -> FlatNode {
        debug_assert!(self.at < self.labels.len(), "a seek found this child");
        FlatNode {
            depth: self.depth,
            idx: self.lo + self.at as u32,
        }
    }
}

/// The flat columnar search tree for one relation under one attribute
/// order.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    order: Vec<Attr>,
    levels: Vec<FlatLevel>,
}

impl FlatIndex {
    /// Builds the index for `rel` under attribute order `order` (a
    /// permutation of the relation's schema). Rows are reordered, sorted,
    /// and deduplicated; construction is `O(k · N log N)` time,
    /// `O(k · N)` space, and `O(k · N)` time when the rows are already a
    /// sorted set under `order`.
    ///
    /// # Errors
    /// [`StorageError::SchemaMismatch`] if `order` is not a permutation
    /// of the relation's attributes.
    pub fn build(rel: &Relation, order: &[Attr]) -> Result<FlatIndex, StorageError> {
        let positions = permutation_of(rel.schema(), order)?;
        let k = order.len();

        // The rows under `order`, in one flat buffer: borrowed when `order`
        // is the schema's own and the rows are a sorted set (every catalog
        // base), so nothing is copied or sorted; otherwise permuted column
        // by column, and sorted only if that left them out of order.
        let in_schema_order = positions.iter().enumerate().all(|(i, &p)| i == p);
        let mut permuted = Vec::new();
        let rows: &[Value] = if in_schema_order && strictly_sorted(rel.raw_data(), k) {
            rel.raw_data()
        } else {
            permuted.reserve_exact(rel.raw_data().len());
            for row in rel.iter_rows() {
                permuted.extend(positions.iter().map(|&p| row[p]));
            }
            if !strictly_sorted(&permuted, k) {
                sort_dedup_flat(&mut permuted, k);
            }
            &permuted
        };

        // A new entry at level d whenever the length-(d+1) prefix changes;
        // rows are sorted, so comparing with the previous row suffices.
        let mut levels: Vec<FlatLevel> = (0..k)
            .map(|_| FlatLevel {
                values: Vec::new(),
                child_start: Vec::new(),
            })
            .collect();
        let mut prev: Option<&[Value]> = None;
        for row in rows.chunks_exact(k.max(1)) {
            let split = prev.map_or(0, |prev| (0..k).find(|&d| row[d] != prev[d]).unwrap_or(k));
            for d in split..k {
                if d + 1 < k {
                    let next_len = levels[d + 1].values.len() as u32;
                    levels[d].child_start.push(next_len);
                }
                levels[d].values.push(row[d]);
            }
            prev = Some(row);
        }
        for d in 0..k.saturating_sub(1) {
            let end = levels[d + 1].values.len() as u32;
            levels[d].child_start.push(end);
            debug_assert_eq!(levels[d].child_start.len(), levels[d].values.len() + 1);
        }

        Ok(FlatIndex {
            order: order.to_vec(),
            levels,
        })
    }

    /// The attribute order this index honours.
    #[must_use]
    pub fn order(&self) -> &[Attr] {
        &self.order
    }

    /// Index arity (number of levels).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.order.len()
    }

    /// Number of source rows (distinct full tuples).
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.levels.last().map_or(0, |l| l.values.len())
    }

    /// The root node (empty prefix).
    #[must_use]
    pub fn root(&self) -> FlatNode {
        FlatNode { depth: 0, idx: 0 }
    }

    /// The contiguous entry range `[lo, hi)` at level `target_depth − 1`
    /// (prefixes of length `target_depth`) extending `node` — pure
    /// offset-range composition, the arithmetic every count and
    /// enumeration reduces to.
    #[inline]
    fn range_at(&self, node: FlatNode, target_depth: usize) -> (u32, u32) {
        let depth = node.depth as usize;
        debug_assert!(depth <= target_depth && target_depth <= self.arity());
        if target_depth == depth {
            return if depth == 0 {
                (0, 1)
            } else {
                (node.idx, node.idx + 1)
            };
        }
        let (mut lo, mut hi) = if depth == 0 {
            (0, self.levels[0].values.len() as u32)
        } else {
            let cs = &self.levels[depth - 1].child_start;
            (cs[node.idx as usize], cs[node.idx as usize + 1])
        };
        for d in depth + 1..target_depth {
            let cs = &self.levels[d - 1].child_start;
            lo = cs[lo as usize];
            hi = cs[hi as usize];
        }
        (lo, hi)
    }

    /// (ST1, one step) The child of `node` labelled `v`, found by
    /// galloping over the child slice.
    #[must_use]
    pub fn descend(&self, node: FlatNode, v: Value) -> Option<FlatNode> {
        let mut children = self.children(node);
        (children.seek(v)? == v).then(|| children.child())
    }

    /// A scan over `node`'s children ([`SearchTree::children`]): their
    /// slice of the level below, resolved once. Empty at full depth.
    #[inline]
    #[must_use]
    pub fn children(&self, node: FlatNode) -> FlatChildren<'_> {
        if node.depth as usize >= self.arity() {
            return FlatChildren::default();
        }
        let (lo, hi) = self.range_at(node, node.depth as usize + 1);
        FlatChildren {
            labels: &self.levels[node.depth as usize].values[lo as usize..hi as usize],
            depth: node.depth + 1,
            lo,
            at: 0,
        }
    }

    /// (ST1) Descends along a whole tuple prefix.
    #[must_use]
    pub fn descend_tuple(&self, node: FlatNode, prefix: &[Value]) -> Option<FlatNode> {
        prefix.iter().try_fold(node, |n, &v| self.descend(n, v))
    }

    /// (ST2) The number of distinct length-`extra` extensions of `node`:
    /// the width of the offset range it spans at the target level.
    #[must_use]
    pub fn distinct_count(&self, node: FlatNode, extra: usize) -> usize {
        if extra == 0 {
            return 1;
        }
        let target = node.depth as usize + extra;
        debug_assert!(target <= self.arity(), "projection beyond index arity");
        let (lo, hi) = self.range_at(node, target);
        (hi - lo) as usize
    }

    /// Branch labels of `node`, as a borrowed slice of the level's
    /// contiguous value array. Empty at full depth.
    #[must_use]
    pub fn child_slice(&self, node: FlatNode) -> &[Value] {
        self.children(node).labels
    }

    /// (ST3), visitor form: calls `f` with each distinct length-`extra`
    /// extension of `node`, in lexicographic order. A forward nested
    /// range scan — each level is read sequentially, no parent hops.
    pub fn for_each_extension(&self, node: FlatNode, extra: usize, mut f: impl FnMut(&[Value])) {
        if extra == 0 {
            f(&[]);
            return;
        }
        let depth = node.depth as usize;
        debug_assert!(depth + extra <= self.arity());
        let (lo, hi) = self.range_at(node, depth + 1);
        with_tuple_scratch(extra, |buf| self.walk(depth, lo, hi, 0, buf, &mut f));
    }

    /// The section `R[prefix]` (paper §5.1) as a relation over `schema`:
    /// every full-depth extension of `prefix`, found by one (ST1) descent
    /// and listed by (ST3) in lexicographic order — so the result is a
    /// sorted set, at a cost independent of the rows outside the section.
    /// Empty when `prefix` does not occur. With `prefix` over the index's
    /// leading columns this is §7.3's constant selection without the
    /// scan.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] unless `prefix` and `schema`
    /// together are as wide as the index.
    pub fn section(&self, prefix: &[Value], schema: Schema) -> Result<Relation, StorageError> {
        if prefix.len() + schema.arity() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                got: prefix.len() + schema.arity(),
            });
        }
        let mut out = Relation::empty(schema);
        if let Some(node) = self.descend_tuple(self.root(), prefix) {
            self.for_each_extension(node, out.arity(), |row| {
                out.push_row(row).expect("extension as wide as the schema");
            });
        }
        Ok(out)
    }

    /// Forward walk: enumerate entries `[lo, hi)` at level `level` into
    /// `buf[at]`, recursing into each entry's child range until `buf` is
    /// full.
    fn walk(
        &self,
        level: usize,
        lo: u32,
        hi: u32,
        at: usize,
        buf: &mut [Value],
        f: &mut impl FnMut(&[Value]),
    ) {
        let l = &self.levels[level];
        if at + 1 == buf.len() {
            for &v in &l.values[lo as usize..hi as usize] {
                buf[at] = v;
                f(buf);
            }
            return;
        }
        for i in lo..hi {
            buf[at] = l.values[i as usize];
            let cl = l.child_start[i as usize];
            let ch = l.child_start[i as usize + 1];
            self.walk(level + 1, cl, ch, at + 1, buf, f);
        }
    }
}

impl SearchTree for FlatIndex {
    type Node = FlatNode;
    type Children<'a> = FlatChildren<'a>;

    fn build(rel: &Relation, order: &[Attr]) -> Result<Self, StorageError> {
        FlatIndex::build(rel, order)
    }
    fn root(&self) -> FlatNode {
        FlatIndex::root(self)
    }
    fn descend(&self, node: FlatNode, v: Value) -> Option<FlatNode> {
        FlatIndex::descend(self, node, v)
    }
    fn distinct_count(&self, node: FlatNode, extra: usize) -> usize {
        FlatIndex::distinct_count(self, node, extra)
    }
    fn for_each_extension(&self, node: FlatNode, extra: usize, f: impl FnMut(&[Value])) {
        FlatIndex::for_each_extension(self, node, extra, f);
    }
    fn child_values(&self, node: FlatNode) -> Vec<Value> {
        FlatIndex::child_slice(self, node).to_vec()
    }
    #[inline]
    fn children(&self, node: FlatNode) -> FlatChildren<'_> {
        FlatIndex::children(self, node)
    }
    #[inline]
    fn seek(&self, children: &mut FlatChildren<'_>, v: Value) -> Option<Value> {
        children.seek(v)
    }
    #[inline]
    fn child(&self, children: &FlatChildren<'_>) -> FlatNode {
        children.child()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    fn attrs(ids: &[u32]) -> Vec<Attr> {
        ids.iter().map(|&v| Attr(v)).collect()
    }

    #[test]
    fn build_rejects_non_permutation() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        assert!(FlatIndex::build(&r, &attrs(&[0, 2])).is_err());
        assert!(FlatIndex::build(&r, &attrs(&[0])).is_err());
        assert!(FlatIndex::build(&r, &attrs(&[0, 0])).is_err());
    }

    #[test]
    fn basic_structure_and_slices() {
        let r = rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 10]]);
        let t = FlatIndex::build(&r, &attrs(&[0, 1])).unwrap();
        assert_eq!(t.arity(), 2);
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.distinct_count(t.root(), 1), 2);
        assert_eq!(t.distinct_count(t.root(), 2), 3);
        assert_eq!(t.child_slice(t.root()), &[Value(1), Value(2)]);
        let n1 = t.descend(t.root(), Value(1)).unwrap();
        assert_eq!(t.child_slice(n1), &[Value(10), Value(20)]);
        assert_eq!(t.distinct_count(n1, 1), 2);
        let n2 = t.descend(t.root(), Value(2)).unwrap();
        assert_eq!(t.child_slice(n2), &[Value(10)]);
        // full depth: no children
        let leaf = t.descend(n2, Value(10)).unwrap();
        assert!(t.child_slice(leaf).is_empty());
        assert!(t.descend(t.root(), Value(3)).is_none());
        assert!(t.descend(n1, Value(30)).is_none());
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(Schema::of(&[0, 1]));
        let t = FlatIndex::build(&r, &attrs(&[0, 1])).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.distinct_count(t.root(), 1), 0);
        assert!(t.descend(t.root(), Value(0)).is_none());
        assert!(t.child_slice(t.root()).is_empty());
        let mut seen = 0;
        t.for_each_extension(t.root(), 2, |_| seen += 1);
        assert_eq!(seen, 0);
    }

    #[test]
    fn enumeration_is_forward_and_lexicographic() {
        let r = rel(
            &[0, 1, 2],
            &[&[1, 2, 3], &[1, 2, 4], &[2, 0, 0], &[1, 5, 6]],
        );
        let t = FlatIndex::build(&r, &attrs(&[0, 1, 2])).unwrap();
        let mut all = Vec::new();
        t.for_each_extension(t.root(), 3, |row| all.push(row.to_vec()));
        assert_eq!(
            all,
            vec![
                vec![Value(1), Value(2), Value(3)],
                vec![Value(1), Value(2), Value(4)],
                vec![Value(1), Value(5), Value(6)],
                vec![Value(2), Value(0), Value(0)],
            ]
        );
        // skip-level enumeration: distinct (A, B) pairs
        let mut pairs = Vec::new();
        t.for_each_extension(t.root(), 2, |row| pairs.push(row.to_vec()));
        assert_eq!(pairs.len(), 3);
        // zero-length extension is the unit
        let mut unit = 0;
        t.for_each_extension(t.root(), 0, |row| {
            assert!(row.is_empty());
            unit += 1;
        });
        assert_eq!(unit, 1);
    }

    #[test]
    fn descend_tuple_prefixes() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 3], &[4, 5, 6]]);
        let t = FlatIndex::build(&r, &attrs(&[0, 1, 2])).unwrap();
        assert!(t.descend_tuple(t.root(), &[]).is_some());
        assert!(t.descend_tuple(t.root(), &[Value(1), Value(2)]).is_some());
        assert!(t
            .descend_tuple(t.root(), &[Value(1), Value(2), Value(3)])
            .is_some());
        assert!(t.descend_tuple(t.root(), &[Value(1), Value(5)]).is_none());
        assert!(t.descend_tuple(t.root(), &[Value(9)]).is_none());
    }

    #[test]
    fn section_is_the_selection_without_the_scan() {
        let r = rel(
            &[0, 1, 2],
            &[&[1, 2, 3], &[1, 2, 4], &[1, 5, 6], &[2, 0, 0]],
        );
        let t = FlatIndex::build(&r, &attrs(&[0, 1, 2])).unwrap();
        assert_eq!(
            t.section(&[Value(1)], Schema::of(&[7, 8])).unwrap(),
            rel(&[7, 8], &[&[2, 3], &[2, 4], &[5, 6]])
        );
        assert_eq!(
            t.section(&[Value(1), Value(2)], Schema::of(&[8])).unwrap(),
            rel(&[8], &[&[3], &[4]])
        );
        // the empty prefix selects everything, an absent one nothing
        assert_eq!(t.section(&[], r.schema().clone()).unwrap(), r);
        assert!(t
            .section(&[Value(9)], Schema::of(&[7, 8]))
            .unwrap()
            .is_empty());
        // a full-depth prefix is a membership test: nullary true / false
        let all = [Value(2), Value(0), Value(0)];
        assert_eq!(
            t.section(&all, Schema::of(&[])).unwrap(),
            Relation::nullary_true()
        );
        let none = [Value(2), Value(0), Value(1)];
        assert_eq!(t.section(&none, Schema::of(&[])).unwrap(), Relation::unit());
        assert!(t.section(&[Value(1)], Schema::of(&[7])).is_err());
    }

    #[test]
    fn build_sorts_only_what_the_order_unsorts() {
        // Rows already a sorted set under the order (here: the schema's
        // own, and a permutation that happens to keep them sorted) take
        // the no-sort path; either way the index is the sorted one.
        let r = rel(&[0, 1], &[&[1, 1], &[2, 2], &[3, 3]]);
        for order in [attrs(&[0, 1]), attrs(&[1, 0])] {
            let t = FlatIndex::build(&r, &order).unwrap();
            assert_eq!(t.child_slice(t.root()), &[1, 2, 3].map(Value));
            assert_eq!(t.num_rows(), 3);
        }
        let r = rel(&[0, 1], &[&[1, 9], &[2, 8], &[3, 8]]);
        let t = FlatIndex::build(&r, &attrs(&[1, 0])).unwrap();
        assert_eq!(t.child_slice(t.root()), &[8, 9].map(Value));
        let eight = t.descend(t.root(), Value(8)).unwrap();
        assert_eq!(t.child_slice(eight), &[2, 3].map(Value));
    }

    #[test]
    fn dedup_during_build() {
        let mut raw = Relation::empty(Schema::of(&[0, 1]));
        raw.push_row(&[Value(1), Value(1)]).unwrap();
        raw.push_row(&[Value(1), Value(1)]).unwrap();
        let t = FlatIndex::build(&raw, &attrs(&[0, 1])).unwrap();
        assert_eq!(t.num_rows(), 1);
    }
}
