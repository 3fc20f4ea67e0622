//! The paper's per-relation **search tree** (§5.3.2), realised as a
//! *counted trie* over sorted, deduplicated rows.
//!
//! Given a relation `Rₑ` and an ordering `a₁, …, a_k` of its attributes
//! (induced by the global *total order* of Algorithm 4), the trie's level
//! `d` contains the distinct length-`(d+1)` prefixes of the reordered
//! tuples, in lexicographic order. Each entry stores its value, its parent
//! at the previous level, and the start of its child range at the next
//! level; because rows are sorted, every subtree occupies a contiguous
//! range at *every* deeper level.
//!
//! This gives exactly the three operations the paper requires:
//!
//! * **(ST1)** `t ∈ π_{a₁..aᵢ}(Rₑ)` — descend with binary search, `O(i log N)`
//!   (the paper's footnote 3 allows the `log` factor of sorting-based
//!   structures);
//! * **(ST2)** `|π_{aᵢ₊₁..aⱼ}(Rₑ[t])|` — range-width composition,
//!   `O(j − i)` child-start lookups after the descent;
//! * **(ST3)** listing `π_{aᵢ₊₁..aⱼ}(Rₑ[t])` — walk the contiguous range at
//!   level `j`, reconstructing each tuple through `j − i − 1` parent hops:
//!   output-linear.
//!
//! Crucially (paper §5.2, step 2a): the subtree under the branch for a
//! tuple prefix `t` **is** the search tree of the section `Rₑ[t]`, so the
//! recursive sub-problems of `Recursive-Join` need no re-indexing.

use crate::index::with_tuple_scratch;
use crate::{Attr, Relation, Schema, StorageError, Value};

/// One trie level: entry `i` is the `i`-th distinct prefix of length
/// `level + 1` in sorted order.
#[derive(Debug, Clone)]
struct Level {
    /// Last value of each prefix.
    values: Vec<Value>,
    /// Index of the parent entry at the previous level (`0` at level 0 —
    /// unused there).
    parent: Vec<u32>,
    /// `child_start[i]..child_start[i+1]` is entry `i`'s range at the next
    /// level. Present for all but the deepest level; length `len + 1`.
    child_start: Vec<u32>,
}

/// A node: either the root (the empty prefix) or an entry at some level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    /// Depth = prefix length; 0 is the root.
    depth: usize,
    /// Entry index at level `depth − 1` (unused for the root).
    idx: u32,
}

impl NodeRef {
    /// Prefix length represented by this node.
    #[must_use]
    pub fn depth(self) -> usize {
        self.depth
    }
}

/// The counted-trie search tree for one relation under one attribute order.
#[derive(Debug, Clone)]
pub struct TrieIndex {
    /// Attribute order the trie is built over (a permutation of the source
    /// relation's schema).
    order: Vec<Attr>,
    levels: Vec<Level>,
}

impl TrieIndex {
    /// Builds the trie for `rel` under attribute order `order`.
    ///
    /// `order` must be a permutation of `rel`'s schema. Rows are reordered,
    /// sorted, and deduplicated during construction
    /// (`O(k · N log N)` time, `O(k · N)` space).
    ///
    /// # Errors
    /// [`StorageError::SchemaMismatch`] if `order` is not a permutation of
    /// the relation's attributes.
    pub fn build(rel: &Relation, order: &[Attr]) -> Result<TrieIndex, StorageError> {
        let target = Schema::new(order.to_vec()).map_err(|_| StorageError::SchemaMismatch)?;
        if !rel.schema().same_set(&target) {
            return Err(StorageError::SchemaMismatch);
        }
        let positions = rel
            .schema()
            .positions_of(order)
            .expect("same_set implies positions exist");
        let k = order.len();

        // Reorder and sort rows.
        let mut rows: Vec<Vec<Value>> = rel
            .iter_rows()
            .map(|r| positions.iter().map(|&p| r[p]).collect())
            .collect();
        rows.sort_unstable();
        rows.dedup();

        // Build levels: a new entry at level d whenever the length-(d+1)
        // prefix changes; by sortedness it suffices to compare with the
        // previous row.
        let mut levels: Vec<Level> = (0..k)
            .map(|_| Level {
                values: Vec::new(),
                parent: Vec::new(),
                child_start: Vec::new(),
            })
            .collect();
        for (ri, row) in rows.iter().enumerate() {
            // First level where this row differs from the previous one.
            let split = if ri == 0 {
                0
            } else {
                let prev = &rows[ri - 1];
                (0..k).find(|&d| row[d] != prev[d]).unwrap_or(k)
            };
            for d in split..k {
                let parent = if d == 0 {
                    0
                } else {
                    (levels[d - 1].values.len() - 1) as u32
                };
                // Close the child range of the previous entry chain lazily:
                // child_start is emitted when an entry is created, pointing
                // at the next level's current length.
                if d + 1 < k {
                    let next_len = levels[d + 1].values.len() as u32;
                    levels[d].child_start.push(next_len);
                }
                levels[d].values.push(row[d]);
                levels[d].parent.push(parent);
            }
        }
        // Seal child_start with sentinels.
        for d in 0..k.saturating_sub(1) {
            let end = levels[d + 1].values.len() as u32;
            levels[d].child_start.push(end);
            debug_assert_eq!(levels[d].child_start.len(), levels[d].values.len() + 1);
        }

        Ok(TrieIndex {
            order: order.to_vec(),
            levels,
        })
    }

    /// The attribute order this trie honours.
    #[must_use]
    pub fn order(&self) -> &[Attr] {
        &self.order
    }

    /// Trie arity (number of levels).
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
    pub fn root(&self) -> NodeRef {
        NodeRef { depth: 0, idx: 0 }
    }

    /// The contiguous entry range `[lo, hi)` at level `target_depth − 1`
    /// (prefixes of length `target_depth`) extending `node`.
    fn range_at(&self, node: NodeRef, target_depth: usize) -> (u32, u32) {
        debug_assert!(node.depth <= target_depth && target_depth <= self.arity());
        if target_depth == node.depth {
            // The node itself (or the root, which we represent as (0,1)).
            return if node.depth == 0 {
                (0, 1)
            } else {
                (node.idx, node.idx + 1)
            };
        }
        let (mut lo, mut hi) = if node.depth == 0 {
            (0, self.levels[0].values.len() as u32)
        } else {
            let cs = &self.levels[node.depth - 1].child_start;
            (cs[node.idx as usize], cs[node.idx as usize + 1])
        };
        for d in node.depth + 1..target_depth {
            let cs = &self.levels[d - 1].child_start;
            lo = cs[lo as usize];
            hi = cs[hi as usize];
        }
        (lo, hi)
    }

    /// (ST1, one step) The child of `node` labelled `v`, if present
    /// (binary search over the sorted child range).
    #[must_use]
    pub fn descend(&self, node: NodeRef, v: Value) -> Option<NodeRef> {
        if node.depth >= self.arity() {
            return None;
        }
        let (lo, hi) = self.range_at(node, node.depth + 1);
        let vals = &self.levels[node.depth].values[lo as usize..hi as usize];
        let off = vals.binary_search(&v).ok()?;
        Some(NodeRef {
            depth: node.depth + 1,
            idx: lo + off as u32,
        })
    }

    /// (ST1) Descends along a whole tuple prefix.
    #[must_use]
    pub fn descend_tuple(&self, node: NodeRef, prefix: &[Value]) -> Option<NodeRef> {
        prefix.iter().try_fold(node, |n, &v| self.descend(n, v))
    }

    /// (ST1) Is `prefix` a prefix of some tuple?
    #[must_use]
    pub fn contains_prefix(&self, prefix: &[Value]) -> bool {
        self.descend_tuple(self.root(), prefix).is_some()
    }

    /// (ST2) `|π` over the next `extra` attributes of the section at
    /// `node` `|` — the number of distinct length-`extra` extensions.
    #[must_use]
    pub fn distinct_count(&self, node: NodeRef, extra: usize) -> usize {
        if extra == 0 {
            return 1;
        }
        let target = node.depth + extra;
        debug_assert!(target <= self.arity(), "projection beyond trie arity");
        let (lo, hi) = self.range_at(node, target);
        (hi - lo) as usize
    }

    /// (ST3) Lists the distinct length-`extra` extensions of `node`, in
    /// lexicographic order. Output-linear (each tuple costs `O(extra)`
    /// parent hops).
    #[must_use]
    pub fn enumerate(&self, node: NodeRef, extra: usize) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        self.for_each_extension(node, extra, |t| out.push(t.to_vec()));
        out
    }

    /// (ST3), visitor form: calls `f` with each distinct length-`extra`
    /// extension of `node` without allocating per tuple.
    pub fn for_each_extension(&self, node: NodeRef, extra: usize, mut f: impl FnMut(&[Value])) {
        if extra == 0 {
            f(&[]);
            return;
        }
        let target = node.depth + extra;
        let (lo, hi) = self.range_at(node, target);
        with_tuple_scratch(extra, |buf| {
            for e in lo..hi {
                let mut idx = e;
                for back in (0..extra).rev() {
                    let level = &self.levels[node.depth + back];
                    buf[back] = level.values[idx as usize];
                    idx = level.parent[idx as usize];
                }
                f(buf);
            }
        });
    }

    /// Children values of `node` (its branch labels), in sorted order.
    #[must_use]
    pub fn child_values(&self, node: NodeRef) -> Vec<Value> {
        self.child_slice(node).to_vec()
    }

    /// Branch labels of `node` as a borrowed slice of the level's value
    /// array (trie levels are contiguous, so no copy is needed). Empty at
    /// full depth.
    #[must_use]
    pub fn child_slice(&self, node: NodeRef) -> &[Value] {
        if node.depth >= self.arity() {
            return &[];
        }
        let (lo, hi) = self.range_at(node, node.depth + 1);
        &self.levels[node.depth].values[lo as usize..hi as usize]
    }

    /// Materialises the subtree at `node` over the next `extra` attributes
    /// as a relation (schema = the corresponding slice of the order).
    #[must_use]
    pub fn section_relation(&self, node: NodeRef, extra: usize) -> Relation {
        let attrs: Vec<Attr> = self.order[node.depth..node.depth + extra].to_vec();
        let schema = Schema::new(attrs).expect("order attrs are distinct");
        let mut rel = Relation::empty(schema);
        self.for_each_extension(node, extra, |t| {
            rel.push_row(t).expect("extension arity consistent");
        });
        // Already sorted and distinct by construction.
        rel
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
        assert!(TrieIndex::build(&r, &attrs(&[0, 2])).is_err());
        assert!(TrieIndex::build(&r, &attrs(&[0])).is_err());
        assert!(TrieIndex::build(&r, &attrs(&[0, 0])).is_err());
    }

    #[test]
    fn basic_structure() {
        // R(A,B) = {(1,10),(1,20),(2,10)} ordered (A,B)
        let r = rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 10]]);
        let t = TrieIndex::build(&r, &attrs(&[0, 1])).unwrap();
        assert_eq!(t.arity(), 2);
        assert_eq!(t.num_rows(), 3);
        // level 0: distinct A values {1, 2}
        assert_eq!(t.distinct_count(t.root(), 1), 2);
        // level 1: full tuples
        assert_eq!(t.distinct_count(t.root(), 2), 3);
        assert_eq!(t.child_values(t.root()), vec![Value(1), Value(2)]);
    }

    #[test]
    fn descend_and_sections() {
        let r = rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 10]]);
        let t = TrieIndex::build(&r, &attrs(&[0, 1])).unwrap();
        let n1 = t.descend(t.root(), Value(1)).unwrap();
        assert_eq!(t.distinct_count(n1, 1), 2); // section R[1] = {10, 20}
        let n2 = t.descend(t.root(), Value(2)).unwrap();
        assert_eq!(t.distinct_count(n2, 1), 1);
        assert!(t.descend(t.root(), Value(3)).is_none());
        assert!(t.descend(n1, Value(10)).is_some());
        assert!(t.descend(n1, Value(30)).is_none());
    }

    #[test]
    fn order_matters() {
        // Same data ordered (B, A): level 0 = distinct Bs {10, 20}.
        let r = rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 10]]);
        let t = TrieIndex::build(&r, &attrs(&[1, 0])).unwrap();
        assert_eq!(t.distinct_count(t.root(), 1), 2);
        let b10 = t.descend(t.root(), Value(10)).unwrap();
        assert_eq!(t.distinct_count(b10, 1), 2); // A ∈ {1, 2}
        assert_eq!(t.enumerate(b10, 1), vec![vec![Value(1)], vec![Value(2)]]);
    }

    #[test]
    fn enumerate_full_tuples() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 3], &[1, 2, 4], &[2, 0, 0]]);
        let t = TrieIndex::build(&r, &attrs(&[0, 1, 2])).unwrap();
        let all = t.enumerate(t.root(), 3);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0], vec![Value(1), Value(2), Value(3)]);
        assert_eq!(all[2], vec![Value(2), Value(0), Value(0)]);
        // skipping a level: distinct (A,B) pairs
        assert_eq!(t.distinct_count(t.root(), 2), 2);
        let pairs = t.enumerate(t.root(), 2);
        assert_eq!(
            pairs,
            vec![vec![Value(1), Value(2)], vec![Value(2), Value(0)]]
        );
    }

    #[test]
    fn contains_prefix_and_descend_tuple() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 3], &[4, 5, 6]]);
        let t = TrieIndex::build(&r, &attrs(&[0, 1, 2])).unwrap();
        assert!(t.contains_prefix(&[]));
        assert!(t.contains_prefix(&[Value(1)]));
        assert!(t.contains_prefix(&[Value(1), Value(2)]));
        assert!(t.contains_prefix(&[Value(1), Value(2), Value(3)]));
        assert!(!t.contains_prefix(&[Value(1), Value(5)]));
        assert!(!t.contains_prefix(&[Value(9)]));
    }

    #[test]
    fn dedup_during_build() {
        let mut raw = Relation::empty(Schema::of(&[0, 1]));
        raw.push_row(&[Value(1), Value(1)]).unwrap();
        raw.push_row(&[Value(1), Value(1)]).unwrap();
        let t = TrieIndex::build(&raw, &attrs(&[0, 1])).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn empty_relation_trie() {
        let r = Relation::empty(Schema::of(&[0, 1]));
        let t = TrieIndex::build(&r, &attrs(&[0, 1])).unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.distinct_count(t.root(), 1), 0);
        assert!(t.descend(t.root(), Value(0)).is_none());
        assert!(t.enumerate(t.root(), 2).is_empty());
    }

    #[test]
    fn section_relation_matches_manual_projection() {
        let r = rel(
            &[0, 1, 2],
            &[&[1, 2, 3], &[1, 2, 4], &[1, 5, 6], &[2, 2, 2]],
        );
        let t = TrieIndex::build(&r, &attrs(&[0, 1, 2])).unwrap();
        let n1 = t.descend(t.root(), Value(1)).unwrap();
        let sec = t.section_relation(n1, 2);
        assert_eq!(sec.schema(), &Schema::of(&[1, 2]));
        assert_eq!(sec.len(), 3);
        assert!(sec.contains_row(&[Value(2), Value(3)]));
        assert!(sec.contains_row(&[Value(5), Value(6)]));
        // projection onto just the next attribute
        let proj = t.section_relation(n1, 1);
        assert_eq!(proj.len(), 2); // {2, 5}
    }

    #[test]
    fn distinct_counts_compose_like_projections() {
        use crate::ops::project;
        let rows: Vec<Vec<Value>> = (0..50u64)
            .map(|i| vec![Value(i % 3), Value(i % 7), Value(i % 11)])
            .collect();
        let r = Relation::from_rows(Schema::of(&[0, 1, 2]), rows).unwrap();
        let t = TrieIndex::build(&r, &attrs(&[0, 1, 2])).unwrap();
        assert_eq!(
            t.distinct_count(t.root(), 1),
            project(&r, &[Attr(0)]).unwrap().len()
        );
        assert_eq!(
            t.distinct_count(t.root(), 2),
            project(&r, &[Attr(0), Attr(1)]).unwrap().len()
        );
        assert_eq!(t.distinct_count(t.root(), 3), r.len());
        // per-section counts
        for a in t.child_values(t.root()) {
            let n = t.descend(t.root(), a).unwrap();
            let manual = r
                .iter_rows()
                .filter(|row| row[0] == a)
                .map(|row| row[1])
                .collect::<std::collections::BTreeSet<_>>()
                .len();
            assert_eq!(t.distinct_count(n, 1), manual);
        }
    }

    #[test]
    fn subtree_is_section_search_tree() {
        // The property §5.2 step 2a relies on: descending t1 gives a node
        // whose subtree behaves exactly like the trie of R[t1].
        let r = rel(
            &[0, 1, 2],
            &[&[1, 2, 3], &[1, 2, 4], &[1, 5, 6], &[2, 7, 8]],
        );
        let t = TrieIndex::build(&r, &attrs(&[0, 1, 2])).unwrap();
        let n = t.descend(t.root(), Value(1)).unwrap();

        use crate::ops::{project, select_eq};
        let section = project(
            &select_eq(&r, Attr(0), Value(1)).unwrap(),
            &[Attr(1), Attr(2)],
        )
        .unwrap();
        let t2 = TrieIndex::build(&section, &attrs(&[1, 2])).unwrap();
        assert_eq!(t.distinct_count(n, 1), t2.distinct_count(t2.root(), 1));
        assert_eq!(t.distinct_count(n, 2), t2.distinct_count(t2.root(), 2));
        assert_eq!(t.enumerate(n, 2), t2.enumerate(t2.root(), 2));
    }
}
