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
//! scan holds (a borrowed level slice, or a merge of three components)
//! never leaks into the engine; a scan over a stored level also hands
//! that level out as a borrowed sorted slice ([`SearchTree::labels`],
//! [`SearchTree::child_at`]), which the engine intersects directly. NPRR needs one realisation of the search
//! tree, and two implement the trait on the served path:
//!
//! * [`FlatIndex`](crate::FlatIndex) — the sorted counted trie (comparison
//!   based, `O(log N)` per descent step, cache-friendly flat levels);
//! * [`DeltaIndex`](crate::DeltaIndex) — a `FlatIndex` base merged with
//!   insert/delete buffers at scan time, the index the server reads.
//!
//! The NPRR engine is generic over this trait; the service's tests add a
//! third implementation, a `FlatIndex` wrapper that panics on one label.
//! §5.1's "collection of hash indices" is an interchangeable alternative
//! the engine does not need.

use crate::{Attr, Relation, StorageError, Value};
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
    /// [`FlatIndex`](crate::FlatIndex) gallops its sorted child level.
    /// [`DeltaIndex`](crate::DeltaIndex) gallops the
    /// base's and the insert buffer's children together on a merged node,
    /// takes the smaller label and steps over children whose rows are all
    /// deleted, so the merged view seeks without listing a level.
    fn seek(&self, children: &mut Self::Children<'_>, v: Value) -> Option<Value>;

    /// The child the last [`SearchTree::seek`] on `children` found; call it
    /// only after that seek returned a label.
    fn child(&self, children: &Self::Children<'_>) -> Self::Node;

    /// The labels of the children `children` has not passed yet, as one
    /// borrowed sorted slice — or `None` when the scan does not read a
    /// stored level. Where every side of a leapfrog hands one out, the
    /// engine intersects the slices ([`gallop::leapfrog`](crate::gallop::leapfrog))
    /// instead of seeking each scan.
    ///
    /// [`FlatIndex`](crate::FlatIndex) always hands out its child slice;
    /// [`DeltaIndex`](crate::DeltaIndex) does on a base-only node and not
    /// on one merged from live buffers.
    fn labels<'a>(&self, children: &Self::Children<'a>) -> Option<&'a [Value]>
    where
        Self: 'a;

    /// The child at offset `i` into [`SearchTree::labels`]'s slice of
    /// `children`; call it only on a scan that handed one out.
    fn child_at(&self, children: &Self::Children<'_>, i: usize) -> Self::Node;
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
    use crate::{DeltaIndex, FlatIndex, Schema};

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
        check_empty::<DeltaIndex>();
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
        check_extension_zero::<DeltaIndex>();
    }
}
