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
//! scan holds never leaks into the engine; a scan also hands its level
//! out as a borrowed sorted slice ([`SearchTree::labels`],
//! [`SearchTree::child_at`]), which the engine intersects directly. NPRR
//! needs one realisation of the search tree, and the served path has
//! one: [`FlatIndex`](crate::FlatIndex), the sorted counted trie
//! (comparison based, `O(log N)` per descent step, cache-friendly flat
//! levels). A relation with live insert/delete buffers is served the
//! `FlatIndex` over its merged view
//! ([`DeltaRelation::index`](crate::DeltaRelation::index)); a plan holds
//! each index by `Arc`, which reads as the index itself.
//!
//! The NPRR engine is generic over this trait; the service's tests add
//! two wrappers around a `FlatIndex`, one that panics on one label and
//! one that parks a worker. §5.1's "collection of hash indices" is an
//! interchangeable alternative the engine does not need.

use crate::{Attr, Relation, StorageError, Value};
use std::ops::RangeInclusive;
use std::sync::Arc;

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
    /// [`FlatIndex`](crate::FlatIndex) gallops its sorted child level.
    fn seek(&self, children: &mut Self::Children<'_>, v: Value) -> Option<Value>;

    /// The child the last [`SearchTree::seek`] on `children` found; call it
    /// only after that seek returned a label.
    fn child(&self, children: &Self::Children<'_>) -> Self::Node;

    /// The labels of the children `children` has not passed yet, as one
    /// borrowed sorted slice. Case b's walk intersects these slices
    /// ([`gallop::leapfrog`](crate::gallop::leapfrog)) instead of seeking
    /// each scan.
    fn labels<'a>(&self, children: &Self::Children<'a>) -> &'a [Value]
    where
        Self: 'a;

    /// The child at offset `i` into [`SearchTree::labels`]'s slice of
    /// `children`.
    fn child_at(&self, children: &Self::Children<'_>, i: usize) -> Self::Node;
}

/// A shared index reads as the index itself, so a plan holds a base's or
/// a content version's index by reference
/// ([`DeltaRelation::index`](crate::DeltaRelation::index)) and builds a
/// fresh one only for what its own constants select.
impl<S: SearchTree> SearchTree for Arc<S> {
    type Node = S::Node;
    type Children<'a>
        = S::Children<'a>
    where
        Self: 'a;

    fn build(rel: &Relation, order: &[Attr]) -> Result<Self, StorageError> {
        S::build(rel, order).map(Arc::new)
    }
    #[inline]
    fn root(&self) -> Self::Node {
        S::root(self)
    }
    #[inline]
    fn descend(&self, node: Self::Node, v: Value) -> Option<Self::Node> {
        S::descend(self, node, v)
    }
    #[inline]
    fn distinct_count(&self, node: Self::Node, extra: usize) -> usize {
        S::distinct_count(self, node, extra)
    }
    #[inline]
    fn for_each_extension(&self, node: Self::Node, extra: usize, f: impl FnMut(&[Value])) {
        S::for_each_extension(self, node, extra, f);
    }
    fn child_values(&self, node: Self::Node) -> Vec<Value> {
        S::child_values(self, node)
    }
    #[inline]
    fn children(&self, node: Self::Node) -> Self::Children<'_> {
        S::children(self, node)
    }
    #[inline]
    fn seek(&self, children: &mut Self::Children<'_>, v: Value) -> Option<Value> {
        S::seek(self, children, v)
    }
    #[inline]
    fn child(&self, children: &Self::Children<'_>) -> Self::Node {
        S::child(self, children)
    }
    #[inline]
    fn labels<'a>(&self, children: &Self::Children<'a>) -> &'a [Value]
    where
        Self: 'a,
    {
        S::labels(self, children)
    }
    #[inline]
    fn child_at(&self, children: &Self::Children<'_>, i: usize) -> Self::Node {
        S::child_at(self, children, i)
    }
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

/// Runs `f` on `len` scratch values — on the stack for every arity a
/// query realistically has, so an (ST3) enumeration's tuple or case b's
/// walk lanes cost no allocation per call (the engine issues one per
/// partial tuple).
pub fn with_scratch<T: Copy + Default, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    const INLINE: usize = 8;
    if len <= INLINE {
        f(&mut [T::default(); INLINE][..len])
    } else {
        f(&mut vec![T::default(); len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlatIndex, Schema};

    fn attrs(ids: &[u32]) -> Vec<Attr> {
        ids.iter().map(|&v| Attr(v)).collect()
    }

    fn check_empty<S: SearchTree>() {
        let r = Relation::empty(Schema::of(&[0, 1]));
        let t = S::build(&r, &attrs(&[0, 1])).unwrap();
        assert_eq!(t.distinct_count(t.root(), 1), 0);
        assert_eq!(t.distinct_count(t.root(), 2), 0);
        assert!(t.descend(t.root(), Value(0)).is_none());
        assert!(t.child_values(t.root()).is_empty());
    }

    #[test]
    fn empty_relation() {
        check_empty::<FlatIndex>();
        check_empty::<Arc<FlatIndex>>();
    }

    fn check_extension_zero<S: SearchTree>() {
        let r = Relation::from_u32_rows(Schema::of(&[0]), &[&[1]]);
        let t = S::build(&r, &attrs(&[0])).unwrap();
        assert_eq!(t.distinct_count(t.root(), 0), 1);
        let mut count = 0;
        t.for_each_extension(t.root(), 0, |row| {
            assert!(row.is_empty());
            count += 1;
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn extension_zero_is_unit() {
        check_extension_zero::<FlatIndex>();
        check_extension_zero::<Arc<FlatIndex>>();
    }
}
