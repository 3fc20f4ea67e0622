//! Delta-aware relation storage: a frozen, `Arc`-shared **base** plus
//! small sorted **insert/delete buffers**, merged into one index per
//! content version.
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
//! for the base, its indexes, the current version's indexes and the
//! buffers' rows ([`Relation`] clones share their rows until one side
//! changes them).
//!
//! The read side is one search tree per column order, as §5.1 asks:
//! [`DeltaRelation::index`] is the [`FlatIndex`] over the merged view.
//! With empty buffers it *is* the base's index. With live buffers it is
//! built once per content version and order, by one linear merge of the
//! base index's rows with the sorted buffers ([`FlatIndex::merged`]), and
//! shared by every query, clone and snapshot of that version. Every
//! mutation that changes data starts the writer's copy on a new version
//! with no indexes; snapshots keep theirs. So a query over a changed
//! relation pays one `O(|R|)` merge per version, shared by every query of
//! that version, and then reads the merged rows at the base's speed — the
//! LSM tree's merge on the read side, once per version rather than once
//! per probe.
//!
//! **Minor compaction** ([`DeltaRelation::compact`]) folds the buffers
//! into a fresh base once they grow past a policy threshold (the
//! caller's decision): one sequential sorted merge of the three
//! components, run by whoever holds the store.

use crate::flat::permutation_of;
use crate::{Attr, FlatIndex, Relation, Schema, StorageError, Value};
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

/// The indexes over one set of rows: attribute order → the cell that
/// order's index is built in. The mutex guards the list alone; a build
/// runs inside its own cell, so racing callers of one order wait for a
/// single build while other orders proceed.
type Indexes = Mutex<Vec<(Vec<Attr>, Arc<OnceLock<Arc<FlatIndex>>>)>>;

/// The index under `order` in `indexes`, built by `build` on first
/// request; racing callers wait for that one build.
fn index_in(
    indexes: &Indexes,
    order: &[Attr],
    build: impl FnOnce() -> FlatIndex,
) -> Arc<FlatIndex> {
    let cell = {
        // Recovering a poisoned guard is sound: the list is only ever
        // pushed to, so it is valid at every step.
        let mut cells = indexes.lock().unwrap_or_else(|e| e.into_inner());
        match cells.iter().find(|(o, _)| o == order) {
            Some((_, cell)) => Arc::clone(cell),
            None => {
                let cell = Arc::default();
                cells.push((order.to_vec(), Arc::clone(&cell)));
                cell
            }
        }
    };
    Arc::clone(cell.get_or_init(|| Arc::new(build())))
}

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
    base_indexes: Arc<Indexes>,
    /// Indexes over the merged view of this content version, shared by
    /// every clone of it; unused while the buffers are empty. A mutation
    /// that changes data starts a new set, so they live as long as a
    /// snapshot or a plan still reads this version.
    version_indexes: Arc<Indexes>,
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
            version_indexes: Arc::default(),
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
        Ok(index_in(&self.base_indexes, order, || {
            FlatIndex::build(&self.base, order).expect("order checked above")
        }))
    }

    /// The index over the merged view `(base ∖ del) ∪ ins` under
    /// attribute order `order` (a permutation of the schema). With empty
    /// buffers it is [`DeltaRelation::base_index`], the same `Arc`. With
    /// live ones it is built on first request for this content version
    /// — one linear merge of the base index's rows with the buffers
    /// ([`FlatIndex::merged`]) — and shared from then on by every query,
    /// clone and snapshot of the version. The next mutation that changes
    /// data leaves it to the readers that still hold it.
    ///
    /// # Errors
    /// [`StorageError::SchemaMismatch`] if `order` is not a permutation
    /// of the schema.
    pub fn index(&self, order: &[Attr]) -> Result<Arc<FlatIndex>, StorageError> {
        let base = self.base_index(order)?;
        if self.delta_len() == 0 {
            return Ok(base);
        }
        Ok(index_in(&self.version_indexes, order, || {
            base.merged(&self.ins, &self.del)
                .expect("the buffers share the base's schema")
        }))
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
                self.version_indexes = Arc::default();
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
        if changed > 0 {
            self.version_indexes = Arc::default();
        }
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
                self.version_indexes = Arc::default();
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
        if changed > 0 {
            self.version_indexes = Arc::default();
        }
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
        Relation::from_flat(self.schema().clone(), self.merge())
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

    /// `(base ∖ del) ∪ ins` as sorted row-major data, in one pass over the
    /// three sorted components (positive arity).
    fn merge(&self) -> Vec<Value> {
        let k = self.arity();
        let mut out = Vec::with_capacity((self.base.len() + self.ins.len()) * k);
        let (mut b, mut i, mut d) = (0, 0, 0);
        while b < self.base.len() || i < self.ins.len() {
            let take_base = if b < self.base.len() && i < self.ins.len() {
                self.base.row(b) < self.ins.row(i)
            } else {
                b < self.base.len()
            };
            if take_base {
                let row = self.base.row(b);
                if d < self.del.len() && self.del.row(d) == row {
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
    fn materialize_and_compact_match_a_set_model() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let base_rows: Vec<Vec<Value>> = (0..rng.gen_range(0..60))
                .map(|_| (0..2).map(|_| Value(rng.gen_range(0..9u64))).collect())
                .collect();
            let base = Relation::from_rows(Schema::of(&[0, 1]), base_rows.clone()).unwrap();
            let mut d = DeltaRelation::new(base);
            let muts: Vec<Vec<Value>> = (0..rng.gen_range(0..30))
                .map(|_| (0..2).map(|_| Value(rng.gen_range(0..9u64))).collect())
                .collect();
            let (ins, del) = (&muts[..muts.len() / 2], &muts[muts.len() / 3..]);
            d.insert_rows(ins).unwrap();
            d.delete_rows(del).unwrap();
            // The model applies the same inserts, then the same deletes.
            let mut model: BTreeSet<Vec<Value>> = base_rows.into_iter().collect();
            model.extend(ins.iter().cloned());
            for row in del {
                model.remove(row);
            }
            let want =
                Relation::from_rows(Schema::of(&[0, 1]), model.into_iter().collect()).unwrap();
            assert_eq!(d.materialize(), want, "trial {trial}: materialize");
            let buffered = d.delta_len();
            assert_eq!(d.compact(), buffered > 0, "trial {trial}");
            assert_eq!(**d.base(), want, "trial {trial}: base after compact");
            assert_eq!(d.delta_len(), 0, "trial {trial}");
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

    #[test]
    fn empty_buffers_borrow_the_base_slice() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 10]]));
        let order = attrs(&[1, 0]);
        // No deltas: the merged view's index is the base's, the same Arc.
        let index = d.index(&order).unwrap();
        assert!(Arc::ptr_eq(&index, &d.base_index(&order).unwrap()));
        assert_eq!(index.child_slice(index.root()), &[10, 20].map(Value));
        // Buffers that cancel out leave the base's index in place too.
        d.insert_rows(&vrows(&[&[5, 5]])).unwrap();
        assert!(!Arc::ptr_eq(&d.index(&order).unwrap(), &index));
        d.delete_rows(&vrows(&[&[5, 5]])).unwrap();
        assert!(Arc::ptr_eq(&d.index(&order).unwrap(), &index));
    }

    #[test]
    fn fully_deleted_subtree_disappears() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 10], &[1, 20], &[2, 30]]));
        d.delete_rows(&vrows(&[&[1, 10], &[1, 20]])).unwrap();
        let index = d.index(&attrs(&[0, 1])).unwrap();
        let root = index.root();
        assert_eq!(index.distinct_count(root, 1), 1);
        assert_eq!(index.child_slice(root), &[Value(2)]);
        assert!(index.descend(root, Value(1)).is_none());
        let n2 = index.descend(root, Value(2)).unwrap();
        assert_eq!(index.child_slice(n2), &[Value(30)]);
        assert_eq!(index.num_rows(), 1);
    }

    #[test]
    fn racing_readers_of_one_version_share_one_merge() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 2], &[2, 1], &[3, 3]]));
        d.insert_rows(&vrows(&[&[0, 9]])).unwrap();
        d.delete_rows(&vrows(&[&[2, 1]])).unwrap();
        // The barrier puts every reader at the cell before any can have
        // finished the merge.
        let barrier = std::sync::Barrier::new(4);
        let raced: Vec<Arc<FlatIndex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        d.index(&attrs(&[1, 0])).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(raced.iter().all(|ix| Arc::ptr_eq(ix, &raced[0])));
        let want = FlatIndex::build(&d.materialize(), &attrs(&[1, 0])).unwrap();
        assert_eq!(raced[0].child_slice(raced[0].root()), &[2, 3, 9].map(Value));
        assert_eq!(raced[0].num_rows(), want.num_rows());
        // Another order is another merge; a bad order is refused.
        assert!(!Arc::ptr_eq(&d.index(&attrs(&[0, 1])).unwrap(), &raced[0]));
        assert!(d.index(&attrs(&[0, 2])).is_err());
    }

    #[test]
    fn a_snapshot_keeps_its_version_while_the_writer_moves_on() {
        let mut d = DeltaRelation::new(rel(&[0, 1], &[&[1, 2], &[2, 1]]));
        let order = attrs(&[0, 1]);
        d.insert_rows(&vrows(&[&[3, 3]])).unwrap();
        let before = d.index(&order).unwrap();
        let snapshot = d.clone();
        assert!(Arc::ptr_eq(&snapshot.index(&order).unwrap(), &before));

        // A no-op mutation changes no data and keeps the version's index.
        assert_eq!(d.insert_rows(&vrows(&[&[3, 3], &[1, 2]])).unwrap(), 0);
        assert_eq!(d.delete_rows(&vrows(&[&[7, 7]])).unwrap(), 0);
        assert!(Arc::ptr_eq(&d.index(&order).unwrap(), &before));

        // A real one starts a new version: the writer merges again, the
        // snapshot keeps the index of the rows it reads.
        assert_eq!(d.delete_rows(&vrows(&[&[1, 2]])).unwrap(), 1);
        let after = d.index(&order).unwrap();
        assert!(!Arc::ptr_eq(&after, &before));
        assert_eq!(after.child_slice(after.root()), &[2, 3].map(Value));
        assert!(Arc::ptr_eq(&snapshot.index(&order).unwrap(), &before));
        assert_eq!(before.child_slice(before.root()), &[1, 2, 3].map(Value));

        // The old version's index goes with its last reader.
        let old = Arc::downgrade(&before);
        drop(before);
        assert!(old.upgrade().is_some(), "the snapshot still reads it");
        drop(snapshot);
        assert!(old.upgrade().is_none());
    }
}
