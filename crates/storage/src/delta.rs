//! Delta-aware relation storage: a frozen, `Arc`-shared **base** plus
//! small sorted **insert/delete buffers**, merged at scan time.
//!
//! The paper's search tree ([`FlatIndex`]) is batch-built and immutable —
//! the right shape for the join's hot path, the wrong shape for a
//! workload that ingests while it queries.
//! [`DeltaRelation`] makes the write path incremental without giving up
//! the frozen index:
//!
//! * the **base** is an `Arc<Relation>` (sorted, deduplicated) that
//!   queries share, and that owns its indexes: one [`FlatIndex`] per
//!   column order a query has asked for
//!   ([`DeltaRelation::base_index`]), built at most once and dropped
//!   with the base;
//! * **`ins`** holds rows present in the view but not in the base;
//! * **`del`** holds rows present in the base but removed from the view.
//!
//! The two invariants `del ⊆ base` and `ins ∩ base = ∅` make the merge
//! arithmetic exact: the effective relation is `(base ∖ del) ∪ ins` and
//! its cardinality is `|base| − |del| + |ins|` — no overlap terms.
//! Cloning a `DeltaRelation` is the copy-on-write snapshot: `Arc` bumps
//! for the base, its indexes and the buffers' rows ([`Relation`] clones
//! share their rows until one side changes them).
//!
//! [`DeltaIndex`] is the read side: a [`SearchTree`] over the *merged*
//! view, composed from the shared base [`FlatIndex`] plus two small
//! [`FlatIndex`]es over the buffers. Every (ST1)–(ST3) operation resolves
//! by counted-trie arithmetic on the three components:
//!
//! * a prefix exists in the merged view iff its **effective full count**
//!   `base − del + ins` (each at full remaining depth, an O(1) offset
//!   lookup per component) is positive;
//! * a node's children are one scan ([`DeltaChildren`]): a node no
//!   buffer touches scans the base's children alone, and a merged node
//!   gallops the base's and the insert buffer's children together,
//!   stepping over children whose rows are all deleted;
//! * enumeration walks that scan, delegating to the pure base (or pure
//!   ins) fast path whenever the other two components are empty below
//!   the node.
//!
//! **Minor compaction** folds the buffers into a fresh base once they
//! grow past a policy threshold (the caller's decision): either in one
//! call ([`DeltaRelation::compact`]) or shard-parallel through
//! [`DeltaRelation::merge_plan`] / [`DeltaRelation::merge_chunk`] /
//! [`DeltaRelation::apply_merged`], whose chunks an executor pool can
//! run independently (each chunk's output is sorted and chunk ranges are
//! disjoint, so concatenation is the sorted merge).

use crate::flat::permutation_of;
use crate::flat::FlatChildren;
use crate::index::{for_each_child, with_tuple_scratch, SearchTree, ALL_LABELS};
use crate::{Attr, FlatIndex, FlatNode, Relation, Schema, StorageError, Value};
use std::sync::{Arc, Mutex, OnceLock};

/// Index of the first row in sorted `rel` that is `>= row`
/// (lower bound over the row-major buffer).
fn lower_bound(rel: &Relation, row: &[Value]) -> usize {
    let k = rel.arity();
    debug_assert_eq!(k, row.len());
    let data = rel.raw_data();
    let (mut lo, mut hi) = (0usize, data.len() / k.max(1));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if data[mid * k..mid * k + k] < *row {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Binary-search membership in a sorted relation (positive arity).
fn sorted_contains(rel: &Relation, row: &[Value]) -> bool {
    let k = rel.arity();
    if k == 0 {
        return !rel.is_empty();
    }
    let i = lower_bound(rel, row);
    i < rel.len() && rel.row(i) == row
}

/// One chunk of a shard-parallel compaction: half-open row ranges into
/// the base, ins, and del buffers that merge independently of every
/// other chunk (see [`DeltaRelation::merge_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeChunk {
    base: (usize, usize),
    ins: (usize, usize),
    del: (usize, usize),
}

/// The indexes of one frozen base: attribute order → the cell that
/// order's index is built in. The mutex guards the list alone; a build
/// runs inside its own cell, so racing callers of one order wait for a
/// single build while other orders proceed.
type BaseIndexes = Mutex<Vec<(Vec<Attr>, Arc<OnceLock<Arc<FlatIndex>>>)>>;

/// A relation as a frozen shared base plus sorted insert/delete buffers.
///
/// Invariants (maintained by every mutator): `del ⊆ base`,
/// `ins ∩ base = ∅`, and all three components sorted + deduplicated.
#[derive(Clone)]
pub struct DeltaRelation {
    base: Arc<Relation>,
    /// Indexes over `base`, shared by every clone of this store that
    /// still has this base. A new base (compaction) starts a new set, so
    /// the indexes live exactly as long as something can still read the
    /// base they were built over.
    base_indexes: Arc<BaseIndexes>,
    ins: Relation,
    del: Relation,
}

impl DeltaRelation {
    /// Wraps `base` (sorted and deduplicated here) with empty buffers.
    #[must_use]
    pub fn new(base: Relation) -> DeltaRelation {
        let base = base.into_sorted();
        let schema = base.schema().clone();
        DeltaRelation {
            base: Arc::new(base),
            base_indexes: Arc::default(),
            ins: Relation::empty(schema.clone()),
            del: Relation::empty(schema),
        }
    }

    /// The schema (shared by base and both buffers).
    #[must_use]
    pub fn schema(&self) -> &Schema {
        self.base.schema()
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.base.arity()
    }

    /// The frozen base (share it with `Arc::clone`).
    #[must_use]
    pub fn base(&self) -> &Arc<Relation> {
        &self.base
    }

    /// The index over the frozen base under attribute order `order` (a
    /// permutation of the schema), built on first request and shared from
    /// then on: by every query, every clone and every snapshot that still
    /// has this base. Compaction installs a new base with no indexes; the
    /// old ones are freed with the last reader of the old base.
    ///
    /// # Errors
    /// [`StorageError::SchemaMismatch`] if `order` is not a permutation
    /// of the schema.
    pub fn base_index(&self, order: &[Attr]) -> Result<Arc<FlatIndex>, StorageError> {
        // Checked before the cell is made, so a build cannot fail.
        permutation_of(self.schema(), order)?;
        let cell = {
            // Recovering a poisoned guard is sound: the list is only ever
            // pushed to, so it is valid at every step.
            let mut cells = self.base_indexes.lock().unwrap_or_else(|e| e.into_inner());
            match cells.iter().find(|(o, _)| o == order) {
                Some((_, cell)) => Arc::clone(cell),
                None => {
                    let cell = Arc::default();
                    cells.push((order.to_vec(), Arc::clone(&cell)));
                    cell
                }
            }
        };
        let index = cell.get_or_init(|| {
            Arc::new(FlatIndex::build(&self.base, order).expect("order checked above"))
        });
        Ok(Arc::clone(index))
    }

    /// The insert buffer (rows in the view, not in the base).
    #[must_use]
    pub fn ins(&self) -> &Relation {
        &self.ins
    }

    /// The delete buffer (base rows removed from the view).
    #[must_use]
    pub fn del(&self) -> &Relation {
        &self.del
    }

    /// Rows in the merged view: `|base| − |del| + |ins|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len() - self.del.len() + self.ins.len()
    }

    /// `true` iff the merged view has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffered rows pending compaction (`|ins| + |del|`) — the input to
    /// any compaction threshold policy.
    #[must_use]
    pub fn delta_len(&self) -> usize {
        self.ins.len() + self.del.len()
    }

    /// Membership in the merged view.
    #[must_use]
    pub fn contains_row(&self, row: &[Value]) -> bool {
        if row.len() != self.arity() {
            return false;
        }
        if self.arity() == 0 {
            return !self.is_empty();
        }
        sorted_contains(&self.ins, row)
            || (sorted_contains(&self.base, row) && !sorted_contains(&self.del, row))
    }

    /// Inserts `rows` into the view: a row already deleted is
    /// *resurrected* out of `del`, a row already present is a no-op, and
    /// anything new lands in `ins`. Returns how many rows actually became
    /// present.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] on any wrong-arity row (the view
    /// is left unchanged).
    pub fn insert_rows(&mut self, rows: &[Vec<Value>]) -> Result<usize, StorageError> {
        let incoming = self.check_sort(rows)?;
        if self.arity() == 0 {
            let was = !self.is_empty();
            if !incoming.is_empty() && !was {
                if self.base.is_empty() {
                    self.ins = Relation::nullary_true();
                } else {
                    self.del = Relation::unit();
                }
                return Ok(1);
            }
            return Ok(0);
        }
        let mut resurrect = Relation::empty(self.schema().clone());
        let mut additions = Relation::empty(self.schema().clone());
        for row in incoming.iter_rows() {
            if sorted_contains(&self.del, row) {
                resurrect.push_row(row)?;
            } else if !sorted_contains(&self.base, row) && !sorted_contains(&self.ins, row) {
                additions.push_row(row)?;
            }
        }
        let changed = resurrect.len() + additions.len();
        if !resurrect.is_empty() {
            self.del = filter_rows(&self.del, |r| !sorted_contains(&resurrect, r));
        }
        if !additions.is_empty() {
            for row in additions.iter_rows() {
                self.ins.push_row(row)?;
            }
            self.ins.sort_dedup();
        }
        self.check_invariants();
        Ok(changed)
    }

    /// Deletes `rows` from the view: a buffered insert is dropped from
    /// `ins`, a base row is recorded in `del`, an absent row is a no-op.
    /// Returns how many rows actually left the view.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] on any wrong-arity row.
    pub fn delete_rows(&mut self, rows: &[Vec<Value>]) -> Result<usize, StorageError> {
        let incoming = self.check_sort(rows)?;
        if self.arity() == 0 {
            let was = !self.is_empty();
            if !incoming.is_empty() && was {
                if !self.ins.is_empty() {
                    self.ins = Relation::unit();
                } else {
                    self.del = Relation::nullary_true();
                }
                return Ok(1);
            }
            return Ok(0);
        }
        let mut unbuffer = Relation::empty(self.schema().clone());
        let mut tombstones = Relation::empty(self.schema().clone());
        for row in incoming.iter_rows() {
            if sorted_contains(&self.ins, row) {
                unbuffer.push_row(row)?;
            } else if sorted_contains(&self.base, row) && !sorted_contains(&self.del, row) {
                tombstones.push_row(row)?;
            }
        }
        let changed = unbuffer.len() + tombstones.len();
        if !unbuffer.is_empty() {
            self.ins = filter_rows(&self.ins, |r| !sorted_contains(&unbuffer, r));
        }
        if !tombstones.is_empty() {
            for row in tombstones.iter_rows() {
                self.del.push_row(row)?;
            }
            self.del.sort_dedup();
        }
        self.check_invariants();
        Ok(changed)
    }

    /// The merged view `(base ∖ del) ∪ ins`, materialized (sorted).
    #[must_use]
    pub fn materialize(&self) -> Relation {
        if self.arity() == 0 {
            return if !self.is_empty() {
                Relation::nullary_true()
            } else {
                Relation::unit()
            };
        }
        let whole = self.merge_plan(1).pop().expect("a plan has a chunk");
        Relation::from_flat(self.schema().clone(), self.merge_chunk(whole))
            .expect("merged rows share the schema")
    }

    /// Folds the buffers into a fresh base (single-threaded). Returns
    /// `false` (and does nothing) when the buffers are already empty.
    pub fn compact(&mut self) -> bool {
        if self.delta_len() == 0 {
            return false;
        }
        let merged = self.materialize();
        *self = DeltaRelation::new(merged);
        true
    }

    /// Splits the compaction merge into at most `n` independent chunks:
    /// the base is cut into contiguous row ranges, and each cut row also
    /// partitions `ins`/`del` by binary search (the buffers are sorted,
    /// so rows ordered below a cut row merge strictly left of it). Chunk
    /// outputs are sorted and range-disjoint — concatenating them in
    /// order **is** the sorted merge, so chunks can run on any pool.
    ///
    /// Always returns at least one chunk; nullary relations and empty
    /// bases return exactly one.
    #[must_use]
    pub fn merge_plan(&self, n: usize) -> Vec<MergeChunk> {
        let whole = MergeChunk {
            base: (0, self.base.len()),
            ins: (0, self.ins.len()),
            del: (0, self.del.len()),
        };
        let n = n.max(1);
        if self.arity() == 0 || n == 1 || self.base.len() < 2 {
            return vec![whole];
        }
        let per = self.base.len().div_ceil(n);
        let mut chunks = Vec::new();
        let mut prev = MergeChunk {
            base: (0, 0),
            ins: (0, 0),
            del: (0, 0),
        };
        let mut lo = 0usize;
        while lo < self.base.len() {
            let hi = (lo + per).min(self.base.len());
            let (ins_hi, del_hi) = if hi == self.base.len() {
                (self.ins.len(), self.del.len())
            } else {
                let cut = self.base.row(hi);
                (lower_bound(&self.ins, cut), lower_bound(&self.del, cut))
            };
            chunks.push(MergeChunk {
                base: (lo, hi),
                ins: (prev.ins.1, ins_hi),
                del: (prev.del.1, del_hi),
            });
            prev = *chunks.last().expect("just pushed");
            lo = hi;
        }
        chunks
    }

    /// Merges one [`MergeChunk`]: `(base[range] ∖ del[range]) ∪
    /// ins[range]` as sorted row-major data. Pure — safe to run
    /// concurrently for distinct chunks of one plan.
    #[must_use]
    pub fn merge_chunk(&self, chunk: MergeChunk) -> Vec<Value> {
        let k = self.arity();
        if k == 0 {
            return Vec::new();
        }
        let mut out =
            Vec::with_capacity((chunk.base.1 - chunk.base.0 + chunk.ins.1 - chunk.ins.0) * k);
        let (mut b, mut i, mut d) = (chunk.base.0, chunk.ins.0, chunk.del.0);
        while b < chunk.base.1 || i < chunk.ins.1 {
            let take_base = if b < chunk.base.1 && i < chunk.ins.1 {
                self.base.row(b) < self.ins.row(i)
            } else {
                b < chunk.base.1
            };
            if take_base {
                let row = self.base.row(b);
                if d < chunk.del.1 && self.del.row(d) == row {
                    d += 1; // tombstoned
                } else {
                    out.extend_from_slice(row);
                }
                b += 1;
            } else {
                out.extend_from_slice(self.ins.row(i));
                i += 1;
            }
        }
        out
    }

    /// Installs the concatenation of a full plan's [`Self::merge_chunk`]
    /// outputs (in plan order) as the new base and clears the buffers —
    /// the commit step of a shard-parallel compaction.
    ///
    /// # Panics
    /// Debug-asserts the concatenation is sorted (it is, for a complete
    /// plan applied in order).
    pub fn apply_merged(&mut self, parts: Vec<Vec<Value>>) {
        if self.arity() == 0 {
            self.compact();
            return;
        }
        let merged = Relation::from_flat(self.schema().clone(), parts.concat())
            .expect("merged rows share the schema");
        debug_assert!(
            merged
                .iter_rows()
                .zip(merged.iter_rows().skip(1))
                .all(|(a, b)| a < b),
            "plan concatenation must be sorted and duplicate-free"
        );
        *self = DeltaRelation {
            base: Arc::new(merged),
            base_indexes: Arc::default(),
            ins: Relation::empty(self.schema().clone()),
            del: Relation::empty(self.schema().clone()),
        };
    }

    /// Arity-checks, sorts, and dedups an incoming batch.
    fn check_sort(&self, rows: &[Vec<Value>]) -> Result<Relation, StorageError> {
        Relation::from_rows(self.schema().clone(), rows.to_vec())
    }

    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        for row in self.del.iter_rows() {
            debug_assert!(sorted_contains(&self.base, row), "del ⊆ base");
        }
        for row in self.ins.iter_rows() {
            debug_assert!(!sorted_contains(&self.base, row), "ins ∩ base = ∅");
        }
    }

    #[cfg(not(debug_assertions))]
    fn check_invariants(&self) {}
}

impl std::fmt::Debug for DeltaRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeltaRelation{} [base {} −{} +{}]",
            self.schema(),
            self.base.len(),
            self.del.len(),
            self.ins.len()
        )
    }
}

/// Rows of `rel` satisfying `keep`, as a new relation.
fn filter_rows(rel: &Relation, mut keep: impl FnMut(&[Value]) -> bool) -> Relation {
    let mut out = Relation::empty(rel.schema().clone());
    for row in rel.iter_rows() {
        if keep(row) {
            out.push_row(row).expect("same schema");
        }
    }
    out
}

/// A position in a [`DeltaIndex`]: the component positions for one merged
/// prefix. A component is `None` when the prefix does not occur in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaNode {
    depth: u32,
    base: Option<FlatNode>,
    ins: Option<FlatNode>,
    del: Option<FlatNode>,
}

impl DeltaNode {
    /// Prefix length represented by this node.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// The node at `base` when no buffer touches it.
    #[inline]
    fn base_only(base: FlatNode) -> DeltaNode {
        DeltaNode {
            depth: base.depth() as u32,
            base: Some(base),
            ins: None,
            del: None,
        }
    }
}

/// A scan over one [`DeltaIndex`] node's children
/// ([`SearchTree::children`]).
#[derive(Debug, Clone, Copy)]
pub enum DeltaChildren<'a> {
    /// A node only the base holds: the base's scan.
    Base(FlatChildren<'a>),
    /// A node merged from the base and live buffers.
    Merged(MergedChildren<'a>),
}

impl Default for DeltaChildren<'_> {
    fn default() -> Self {
        DeltaChildren::Base(FlatChildren::default())
    }
}

/// A merged node's scan: one scan per component, and the label of the
/// child the last seek found.
#[derive(Debug, Clone, Copy)]
pub struct MergedChildren<'a> {
    depth: u32,
    base: FlatChildren<'a>,
    ins: FlatChildren<'a>,
    del: FlatChildren<'a>,
    label: Value,
}

impl MergedChildren<'_> {
    /// The child labelled `label`: each component that holds it.
    #[inline]
    fn child(&self) -> DeltaNode {
        let at = |c: &FlatChildren<'_>| (c.label() == Some(self.label)).then(|| c.child());
        DeltaNode {
            depth: self.depth,
            base: at(&self.base),
            ins: at(&self.ins),
            del: at(&self.del),
        }
    }
}

/// A [`SearchTree`] over the merged view of a [`DeltaRelation`]: a
/// shared frozen base [`FlatIndex`] plus [`FlatIndex`]es over the
/// insert/delete buffers, merged by counted-trie arithmetic (see the module docs).
///
/// An empty buffer never enters a node, so on a never-mutated relation a
/// descent is the base's descent plus a depth check, and every other
/// operation delegates to the base after two O(1) checks: serving through
/// a `DeltaIndex` costs little over the base index itself — the uniform
/// read path the plan cache relies on.
#[derive(Debug, Clone)]
pub struct DeltaIndex {
    base: Arc<FlatIndex>,
    ins: FlatIndex,
    del: FlatIndex,
    arity: usize,
}

impl DeltaIndex {
    /// Composes a merged view from an existing (shared) base index and
    /// the two buffers, all under attribute order `order`. The caller
    /// guarantees `base` was built under the same order and that the
    /// buffers satisfy the [`DeltaRelation`] invariants.
    ///
    /// # Errors
    /// [`StorageError::SchemaMismatch`] if a buffer does not match
    /// `order`.
    pub fn over(
        base: Arc<FlatIndex>,
        ins: &Relation,
        del: &Relation,
        order: &[Attr],
    ) -> Result<DeltaIndex, StorageError> {
        Ok(DeltaIndex {
            base,
            ins: FlatIndex::build(ins, order)?,
            del: FlatIndex::build(del, order)?,
            arity: order.len(),
        })
    }

    /// The shared base index.
    #[must_use]
    pub fn base_index(&self) -> &Arc<FlatIndex> {
        &self.base
    }

    /// Effective number of full tuples below `node`:
    /// `base − del + ins`, each at full remaining depth (O(1) per
    /// component).
    #[inline]
    fn effective_full(&self, node: &DeltaNode) -> usize {
        let rem = self.arity - node.depth as usize;
        let b = node.base.map_or(0, |n| self.base.distinct_count(n, rem));
        let d = node.del.map_or(0, |n| self.del.distinct_count(n, rem));
        let i = node.ins.map_or(0, |n| self.ins.distinct_count(n, rem));
        debug_assert!(d <= b, "del ⊆ base");
        b - d + i
    }

    /// Full-depth count of the ins component below `node`.
    #[inline]
    fn ins_below(&self, node: &DeltaNode) -> usize {
        let rem = self.arity - node.depth as usize;
        node.ins.map_or(0, |n| self.ins.distinct_count(n, rem))
    }

    /// Full-depth count of the del component below `node`.
    #[inline]
    fn del_below(&self, node: &DeltaNode) -> usize {
        let rem = self.arity - node.depth as usize;
        node.del.map_or(0, |n| self.del.distinct_count(n, rem))
    }

    /// Recursive (ST3) walk over merged children, filling `buf[at..]`.
    fn walk_merged(
        &self,
        node: &DeltaNode,
        at: usize,
        buf: &mut [Value],
        f: &mut impl FnMut(&[Value]),
    ) {
        let remaining = buf.len() - at;
        // Pure-component fast paths: when the other two components are
        // empty below `node`, the merged subtree IS that component's.
        if self.ins_below(node) == 0 && self.del_below(node) == 0 {
            if let Some(b) = node.base {
                self.base.for_each_extension(b, remaining, |ext| {
                    buf[at..].copy_from_slice(ext);
                    f(buf);
                });
            }
            return;
        }
        if node.base.map_or(0, |b| {
            self.base
                .distinct_count(b, self.arity - node.depth as usize)
        }) == self.del_below(node)
        {
            if let Some(i) = node.ins {
                self.ins.for_each_extension(i, remaining, |ext| {
                    buf[at..].copy_from_slice(ext);
                    f(buf);
                });
            }
            return;
        }
        for_each_child(self, *node, ALL_LABELS, |v, child| {
            buf[at] = v;
            if remaining == 1 {
                f(buf);
            } else {
                self.walk_merged(&child, at + 1, buf, f);
            }
        });
    }
}

// `#[inline]` on the per-tuple operations: the engine calls them from
// other crates, and a non-generic method is otherwise compiled only here,
// out of reach of the engine's inlining.
impl SearchTree for DeltaIndex {
    type Node = DeltaNode;
    type Children<'a> = DeltaChildren<'a>;

    /// Batch build: a fresh base index plus empty buffers — a valid
    /// drop-in for any other backend.
    fn build(rel: &Relation, order: &[Attr]) -> Result<Self, StorageError> {
        let schema = Schema::new(order.to_vec()).map_err(|_| StorageError::SchemaMismatch)?;
        let empty = Relation::empty(schema);
        DeltaIndex::over(
            Arc::new(FlatIndex::build(rel, order)?),
            &empty,
            &empty,
            order,
        )
    }

    /// An empty buffer is left out of the root, so every descent on a
    /// never-mutated relation takes [`SearchTree::descend`]'s base-only
    /// path.
    #[inline]
    fn root(&self) -> Self::Node {
        let present = |buf: &FlatIndex| (buf.num_rows() > 0).then(|| buf.root());
        DeltaNode {
            depth: 0,
            base: Some(self.base.root()),
            ins: present(&self.ins),
            del: present(&self.del),
        }
    }

    #[inline]
    fn descend(&self, node: Self::Node, v: Value) -> Option<Self::Node> {
        if node.depth as usize >= self.arity {
            return None;
        }
        if node.ins.is_none() && node.del.is_none() {
            // Base only: a present `FlatIndex` child is never empty.
            return self.base.descend(node.base?, v).map(DeltaNode::base_only);
        }
        let child = DeltaNode {
            depth: node.depth + 1,
            base: node.base.and_then(|b| self.base.descend(b, v)),
            ins: node.ins.and_then(|i| self.ins.descend(i, v)),
            del: node.del.and_then(|d| self.del.descend(d, v)),
        };
        (self.effective_full(&child) > 0).then_some(child)
    }

    #[inline]
    fn distinct_count(&self, node: Self::Node, extra: usize) -> usize {
        if extra == 0 {
            return 1;
        }
        let rem = self.arity - node.depth as usize;
        debug_assert!(extra <= rem, "projection beyond index arity");
        if extra == rem {
            return self.effective_full(&node);
        }
        // Partial depth: exact by merged-children recursion. The engine's
        // counts are full-depth; this path serves level-1 fanout reads
        // (shard weights) and completeness.
        if self.ins_below(&node) == 0 && self.del_below(&node) == 0 {
            return node.base.map_or(0, |b| self.base.distinct_count(b, extra));
        }
        if node.base.map_or(0, |b| self.base.distinct_count(b, rem)) == self.del_below(&node) {
            return node.ins.map_or(0, |i| self.ins.distinct_count(i, extra));
        }
        let mut total = 0usize;
        for_each_child(self, node, ALL_LABELS, |_, child| {
            total += if extra == 1 {
                1
            } else {
                self.distinct_count(child, extra - 1)
            };
        });
        total
    }

    fn for_each_extension(&self, node: Self::Node, extra: usize, mut f: impl FnMut(&[Value])) {
        if extra == 0 {
            f(&[]);
            return;
        }
        debug_assert!(node.depth as usize + extra <= self.arity);
        with_tuple_scratch(extra, |buf| self.walk_merged(&node, 0, buf, &mut f));
    }

    /// A base-only node scans the base's children. A merged node scans
    /// the base's, the insert buffer's and the delete buffer's.
    #[inline]
    fn children(&self, node: Self::Node) -> DeltaChildren<'_> {
        fn scan(index: &FlatIndex, n: Option<FlatNode>) -> FlatChildren<'_> {
            n.map_or_else(FlatChildren::default, |n| index.children(n))
        }
        if node.ins.is_none() && node.del.is_none() {
            return DeltaChildren::Base(scan(&self.base, node.base));
        }
        DeltaChildren::Merged(MergedChildren {
            depth: node.depth + 1,
            base: scan(&self.base, node.base),
            ins: scan(&self.ins, node.ins),
            del: scan(&self.del, node.del),
            label: Value(0),
        })
    }

    /// A merged node gallops the base and insert children forward and
    /// takes the smaller label; the delete buffer follows that label, and
    /// a child whose every row is deleted is stepped over. No merged level
    /// is ever listed, so a leapfrog over a node merged from live buffers
    /// gallops as it does over a base node.
    #[inline]
    fn seek(&self, children: &mut DeltaChildren<'_>, mut v: Value) -> Option<Value> {
        let m = match children {
            DeltaChildren::Base(base) => return base.seek(v),
            DeltaChildren::Merged(m) => m,
        };
        loop {
            m.label = match (m.base.seek(v), m.ins.seek(v)) {
                (None, None) => return None,
                (Some(b), None) => b,
                (None, Some(i)) => i,
                (Some(b), Some(i)) => b.min(i),
            };
            m.del.seek(m.label);
            if self.effective_full(&m.child()) > 0 {
                return Some(m.label);
            }
            v = Value(m.label.0.checked_add(1)?);
        }
    }

    #[inline]
    fn child(&self, children: &DeltaChildren<'_>) -> DeltaNode {
        match children {
            DeltaChildren::Base(base) => DeltaNode::base_only(base.child()),
            DeltaChildren::Merged(m) => m.child(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    fn vrows(rows: &[&[u32]]) -> Vec<Vec<Value>> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::from(v)).collect())
            .collect()
    }

    fn attrs(ids: &[u32]) -> Vec<Attr> {
        ids.iter().map(|&v| Attr(v)).collect()
    }

    #[test]
    fn insert_delete_resurrect_lifecycle() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 2], &[3, 4]]));
        assert_eq!(d.len(), 2);
        // insert: one new, one already in base
        assert_eq!(d.insert_rows(&vrows(&[&[5, 6], &[1, 2]])).unwrap(), 1);
        assert_eq!(d.len(), 3);
        assert_eq!(d.ins().len(), 1);
        assert!(d.contains_row(&[Value(5), Value(6)]));
        // delete a base row and the buffered insert
        assert_eq!(
            d.delete_rows(&vrows(&[&[1, 2], &[5, 6], &[9, 9]])).unwrap(),
            2
        );
        assert_eq!(d.len(), 1);
        assert_eq!((d.ins().len(), d.del().len()), (0, 1));
        assert!(!d.contains_row(&[Value(1), Value(2)]));
        // resurrect the deleted base row: comes back via del, not ins
        assert_eq!(d.insert_rows(&vrows(&[&[1, 2]])).unwrap(), 1);
        assert_eq!((d.ins().len(), d.del().len()), (0, 0));
        assert!(d.contains_row(&[Value(1), Value(2)]));
        // idempotent re-insert / re-delete of absent rows
        assert_eq!(d.insert_rows(&vrows(&[&[1, 2]])).unwrap(), 0);
        assert_eq!(d.delete_rows(&vrows(&[&[9, 9]])).unwrap(), 0);
        // arity mismatch rejected
        assert!(d.insert_rows(&[vec![Value(1)]]).is_err());
    }

    #[test]
    fn materialize_and_compact() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 2], &[3, 4], &[5, 6]]));
        d.insert_rows(&vrows(&[&[0, 0], &[9, 9]])).unwrap();
        d.delete_rows(&vrows(&[&[3, 4]])).unwrap();
        let merged = d.materialize();
        assert_eq!(merged, rel(&[0, 1], &[&[0, 0], &[1, 2], &[5, 6], &[9, 9]]));
        assert_eq!(d.delta_len(), 3);
        assert!(d.compact());
        assert_eq!(d.delta_len(), 0);
        assert_eq!(**d.base(), merged);
        assert_eq!(d.len(), 4);
        assert!(!d.compact(), "nothing left to fold");
    }

    #[test]
    fn cow_clone_is_a_snapshot() {
        let mut d = DeltaRelation::new(rel(&[0], &[&[1], &[2]]));
        let snap = d.clone();
        assert!(Arc::ptr_eq(snap.base(), d.base()), "base is shared");
        d.insert_rows(&vrows(&[&[3]])).unwrap();
        d.delete_rows(&vrows(&[&[1]])).unwrap();
        assert_eq!(snap.len(), 2, "snapshot unaffected by later writes");
        assert!(snap.contains_row(&[Value(1)]));
        assert!(!snap.contains_row(&[Value(3)]));
    }

    #[test]
    fn merge_plan_chunks_equal_materialize() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let base_rows: Vec<Vec<Value>> = (0..rng.gen_range(0..60))
                .map(|_| (0..2).map(|_| Value(rng.gen_range(0..9u64))).collect())
                .collect();
            let base = Relation::from_rows(Schema::of(&[0, 1]), base_rows).unwrap();
            let mut d = DeltaRelation::new(base.clone());
            let muts: Vec<Vec<Value>> = (0..rng.gen_range(0..30))
                .map(|_| (0..2).map(|_| Value(rng.gen_range(0..9u64))).collect())
                .collect();
            d.insert_rows(&muts[..muts.len() / 2]).unwrap();
            d.delete_rows(&muts[muts.len() / 3..]).unwrap();
            let want = d.materialize();
            for n in [1usize, 2, 3, 7, 64] {
                let plan = d.merge_plan(n);
                assert!(!plan.is_empty());
                let parts: Vec<Vec<Value>> = plan.iter().map(|&c| d.merge_chunk(c)).collect();
                let mut clone = d.clone();
                clone.apply_merged(parts);
                assert_eq!(**clone.base(), want, "trial {trial}, {n} chunks");
                assert_eq!(clone.delta_len(), 0);
            }
        }
    }

    #[test]
    fn nullary_delta_relation() {
        let mut d = DeltaRelation::new(Relation::unit());
        assert_eq!(d.len(), 0);
        assert_eq!(d.insert_rows(&[vec![]]).unwrap(), 1);
        assert_eq!(d.len(), 1);
        assert!(d.contains_row(&[]));
        assert_eq!(d.insert_rows(&[vec![]]).unwrap(), 0);
        assert_eq!(d.delete_rows(&[vec![]]).unwrap(), 1);
        assert_eq!(d.len(), 0);
        assert_eq!(d.materialize().len(), 0);

        let mut t = DeltaRelation::new(Relation::nullary_true());
        assert_eq!(t.delete_rows(&[vec![]]).unwrap(), 1);
        assert_eq!(t.len(), 0);
        assert!(t.compact(), "tombstone folds into an empty base");
        assert_eq!(t.len(), 0);
        assert_eq!(t.insert_rows(&[vec![]]).unwrap(), 1);
        assert_eq!(t.materialize().len(), 1);
        assert!(t.compact());
        assert_eq!(t.len(), 1);
        // resurrect path: delete then insert cancels the tombstone in place
        t.delete_rows(&[vec![]]).unwrap();
        assert_eq!(t.insert_rows(&[vec![]]).unwrap(), 1);
        assert_eq!(t.delta_len(), 0, "resurrection leaves nothing buffered");
    }

    #[test]
    fn base_indexes_are_built_once_and_leave_with_the_base() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 2], &[2, 1], &[3, 3]]));
        // Racing submitters of one order get one index; the barrier puts
        // them all at the cell before any can have finished a build.
        let barrier = std::sync::Barrier::new(4);
        let raced: Vec<Arc<FlatIndex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        d.base_index(&attrs(&[1, 0])).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(raced.iter().all(|ix| Arc::ptr_eq(ix, &raced[0])));
        // Another order is another index; a clone (a snapshot) shares both.
        let schema_order = d.base_index(&attrs(&[0, 1])).unwrap();
        assert!(!Arc::ptr_eq(&schema_order, &raced[0]));
        assert_eq!(raced[0].child_slice(raced[0].root()), &[1, 2, 3].map(Value));
        let snapshot = d.clone();
        assert!(Arc::ptr_eq(
            &snapshot.base_index(&attrs(&[1, 0])).unwrap(),
            &raced[0]
        ));
        assert!(d.base_index(&attrs(&[0, 2])).is_err());
        assert!(d.base_index(&attrs(&[0])).is_err());

        // Row mutations leave the base, so its indexes, alone; compaction
        // installs a new base that starts with none.
        d.insert_rows(&vrows(&[&[0, 9]])).unwrap();
        assert!(Arc::ptr_eq(
            &d.base_index(&attrs(&[1, 0])).unwrap(),
            &raced[0]
        ));
        assert!(d.compact());
        let fresh = d.base_index(&attrs(&[1, 0])).unwrap();
        assert!(!Arc::ptr_eq(&fresh, &raced[0]));
        assert_eq!(fresh.num_rows(), 4);
        // The old ones live exactly as long as a reader of the old base.
        let old = Arc::downgrade(&raced[0]);
        drop((raced, schema_order));
        assert!(
            old.upgrade().is_some(),
            "the snapshot still has the old base"
        );
        drop(snapshot);
        assert!(old.upgrade().is_none());
    }

    /// Builds the DeltaIndex for `d` under `order`, sharing `d`'s base.
    fn index_of(d: &DeltaRelation, order: &[Attr]) -> DeltaIndex {
        let base = Arc::new(FlatIndex::build(d.base(), order).unwrap());
        DeltaIndex::over(base, d.ins(), d.del(), order).unwrap()
    }

    #[test]
    fn delta_index_matches_flat_over_materialized() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..15 {
            let base_rows: Vec<Vec<Value>> = (0..rng.gen_range(1..50))
                .map(|_| (0..3).map(|_| Value(rng.gen_range(0..5u64))).collect())
                .collect();
            let mut d =
                DeltaRelation::new(Relation::from_rows(Schema::of(&[0, 1, 2]), base_rows).unwrap());
            let muts: Vec<Vec<Value>> = (0..rng.gen_range(0..40))
                .map(|_| (0..3).map(|_| Value(rng.gen_range(0..5u64))).collect())
                .collect();
            d.insert_rows(&muts[..muts.len() / 2]).unwrap();
            d.delete_rows(&muts[muts.len() / 4..]).unwrap();

            let order = attrs(&[2, 0, 1]);
            let merged = d.materialize();
            let flat = FlatIndex::build(&merged, &order).unwrap();
            let delta = index_of(&d, &order);

            // Counts at every depth from the root.
            for extra in 1..=3usize {
                assert_eq!(
                    SearchTree::distinct_count(&delta, SearchTree::root(&delta), extra),
                    flat.distinct_count(flat.root(), extra),
                    "trial {trial}, extra {extra}"
                );
            }
            // Full enumerations at every extension length.
            for extra in 1..=3usize {
                let mut want = Vec::new();
                flat.for_each_extension(flat.root(), extra, |t| want.push(t.to_vec()));
                let mut got = Vec::new();
                SearchTree::for_each_extension(&delta, SearchTree::root(&delta), extra, |t| {
                    got.push(t.to_vec());
                });
                assert_eq!(got, want, "trial {trial}, extra {extra}");
            }
            // Descents + per-node agreement, exhaustively over the domain.
            for v0 in 0..5u64 {
                let fnode = flat.descend(flat.root(), Value(v0));
                let dnode = SearchTree::descend(&delta, SearchTree::root(&delta), Value(v0));
                assert_eq!(fnode.is_some(), dnode.is_some(), "trial {trial}, v {v0}");
                let (Some(fnode), Some(dnode)) = (fnode, dnode) else {
                    continue;
                };
                assert_eq!(
                    SearchTree::child_values(&delta, dnode),
                    flat.child_slice(fnode).to_vec(),
                    "trial {trial}, v {v0}: children"
                );
                // the child scan lists what the (ST3) walk lists
                let mut walked = Vec::new();
                SearchTree::for_each_extension(&delta, dnode, 1, |t| walked.push(t[0]));
                assert_eq!(walked, SearchTree::child_values(&delta, dnode));
                for extra in 1..=2usize {
                    assert_eq!(
                        SearchTree::distinct_count(&delta, dnode, extra),
                        flat.distinct_count(fnode, extra),
                        "trial {trial}, v {v0}, extra {extra}"
                    );
                }
                // ghost-children check: every listed child descends
                for v1 in SearchTree::child_values(&delta, dnode) {
                    let c = SearchTree::descend(&delta, dnode, v1).expect("listed child exists");
                    assert!(SearchTree::distinct_count(&delta, c, 1) > 0);
                }
                // descend_tuple probes agree on full rows
                for v1 in 0..5u64 {
                    for v2 in 0..5u64 {
                        let probe = [Value(v1), Value(v2)];
                        assert_eq!(
                            SearchTree::descend_tuple(&delta, dnode, &probe).is_some(),
                            flat.descend_tuple(fnode, &probe).is_some(),
                            "trial {trial}, probe ({v0},{v1},{v2})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_buffers_borrow_the_base_slice() {
        let base = rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 10]]);
        let d = DeltaRelation::new(base);
        let order = attrs(&[0, 1]);
        let idx = index_of(&d, &order);
        let root = SearchTree::root(&idx);
        // No deltas: every node scans the base's children alone.
        assert!(matches!(idx.children(root), DeltaChildren::Base(_)));
        assert_eq!(idx.child_values(root), vec![Value(1), Value(2)]);
        let n1 = SearchTree::descend(&idx, root, Value(1)).unwrap();
        assert!(matches!(idx.children(n1), DeltaChildren::Base(_)));
        assert_eq!(idx.child_values(n1), vec![Value(10), Value(20)]);
    }

    #[test]
    fn fully_deleted_subtree_disappears() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 30]]));
        d.delete_rows(&vrows(&[&[1, 10], &[1, 20]])).unwrap();
        let order = attrs(&[0, 1]);
        let idx = index_of(&d, &order);
        let root = SearchTree::root(&idx);
        assert_eq!(SearchTree::distinct_count(&idx, root, 1), 1);
        assert_eq!(SearchTree::child_values(&idx, root), vec![Value(2)]);
        assert!(SearchTree::descend(&idx, root, Value(1)).is_none());
        // the root is merged; the surviving subtree no buffer touches
        // scans the base alone
        assert!(matches!(idx.children(root), DeltaChildren::Merged(_)));
        let n2 = SearchTree::descend(&idx, root, Value(2)).unwrap();
        assert!(matches!(idx.children(n2), DeltaChildren::Base(_)));
        assert_eq!(idx.child_values(n2), vec![Value(30)]);
    }

    #[test]
    fn build_as_a_plain_backend() {
        // SearchTree::build gives empty buffers over a fresh base.
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        let idx = <DeltaIndex as SearchTree>::build(&r, &attrs(&[1, 0])).unwrap();
        let root = SearchTree::root(&idx);
        assert_eq!(SearchTree::distinct_count(&idx, root, 2), 2);
        assert_eq!(
            SearchTree::child_values(&idx, root),
            vec![Value(2), Value(4)]
        );
    }
}
