//! Row-major relations with set semantics.

use crate::hash::{set_with_capacity, FxHashSet};
use crate::{Schema, StorageError, Value};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A relation instance: a set of tuples over a [`Schema`].
///
/// Rows are stored row-major in one flat buffer, so iteration touches
/// contiguous memory. The buffer is shared copy-on-write: cloning a
/// relation, or viewing it under other attribute names
/// ([`Relation::with_schema`]), copies no rows, and the first mutation of
/// a shared buffer copies it once. Duplicate rows may transiently exist
/// while loading; [`Relation::sort_dedup`] restores set semantics and
/// every constructor that finalises a relation calls it.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    data: Arc<Vec<Value>>,
    /// Whether a *nullary* relation contains its single possible (empty)
    /// tuple; ignored for positive arities.
    nullary_present: bool,
}

impl Relation {
    /// An empty relation over `schema`.
    #[must_use]
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            data: Arc::default(),
            nullary_present: false,
        }
    }

    /// The *empty* nullary relation (logical `false`); see
    /// [`Relation::nullary_true`] for the join identity.
    #[must_use]
    pub fn unit() -> Relation {
        Relation::empty(Schema::of(&[]))
    }

    /// Builds from explicit rows, sorting and deduplicating.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] if any row has the wrong length.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Result<Relation, StorageError> {
        let mut rel = Relation::empty(schema);
        let values = rows.len() * rel.arity();
        Arc::make_mut(&mut rel.data).reserve(values);
        for row in rows {
            rel.push_row(&row)?;
        }
        rel.sort_dedup();
        Ok(rel)
    }

    /// Adopts a flat row-major buffer (`arity` values per row, e.g. a
    /// [`RowBuf`](crate::RowBuf)'s data) **without copying, sorting or
    /// deduplicating it** — like a series of [`Relation::push_row`]s, the
    /// caller finishes with [`Relation::sort_dedup`]. A nullary schema
    /// admits only the empty buffer and yields the empty relation (its
    /// single possible row carries no data; see
    /// [`Relation::nullary_true`]).
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] if `data.len()` is not a multiple
    /// of the arity (`got` is the length of the ragged last row).
    pub fn from_flat(schema: Schema, data: Vec<Value>) -> Result<Relation, StorageError> {
        let arity = schema.arity();
        let ragged = if arity == 0 {
            data.len()
        } else {
            data.len() % arity
        };
        if ragged != 0 {
            return Err(StorageError::ArityMismatch {
                expected: arity,
                got: ragged,
            });
        }
        Ok(Relation {
            schema,
            data: Arc::new(data),
            nullary_present: false,
        })
    }

    /// The same rows under other attribute names, column by column: the
    /// §7.3 reduction of a subgoal whose terms are distinct variables.
    /// Shares the row buffer, so it costs one schema, however many rows
    /// there are; sortedness carries over because columns keep their
    /// places.
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] if `schema` is not as wide as this
    /// relation's.
    pub fn with_schema(&self, schema: Schema) -> Result<Relation, StorageError> {
        if schema.arity() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                got: schema.arity(),
            });
        }
        Ok(Relation {
            schema,
            data: Arc::clone(&self.data),
            nullary_present: self.nullary_present,
        })
    }

    /// Test/generator convenience: rows of `u32`s.
    ///
    /// # Panics
    /// Panics on arity mismatch (test helper).
    #[must_use]
    pub fn from_u32_rows(schema: Schema, rows: &[&[u32]]) -> Relation {
        let vrows = rows
            .iter()
            .map(|r| r.iter().map(|&v| Value::from(v)).collect())
            .collect();
        Relation::from_rows(schema, vrows).expect("arity mismatch in from_u32_rows")
    }

    /// Appends one row (no deduplication; call [`Relation::sort_dedup`]
    /// when done loading).
    ///
    /// # Errors
    /// [`StorageError::ArityMismatch`] on wrong arity.
    pub fn push_row(&mut self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                got: row.len(),
            });
        }
        if self.arity() == 0 {
            self.nullary_present = true;
        } else {
            Arc::make_mut(&mut self.data).extend_from_slice(row);
        }
        Ok(())
    }

    /// The schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of rows.
    ///
    /// For the nullary schema this is 0 or 1 ("false"/"true"): the unit
    /// relation is represented with an empty buffer, so nullary relations
    /// track their single logical row via an internal presence flag.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.arity() == 0 {
            usize::from(self.nullary_present)
        } else {
            self.data.len() / self.arity()
        }
    }

    /// `true` iff there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as a value slice.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the relation is nullary.
    #[must_use]
    pub fn row(&self, i: usize) -> &[Value] {
        let k = self.arity();
        assert!(k > 0, "nullary relation has no addressable rows");
        &self.data[i * k..(i + 1) * k]
    }

    /// Iterates rows as value slices. Nullary relations yield their single
    /// empty row if present.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let k = self.arity();
        let n = self.len();
        let data = self.data.as_slice();
        (0..n).map(move |i| {
            if k == 0 {
                &[] as &[Value]
            } else {
                &data[i * k..(i + 1) * k]
            }
        })
    }

    /// Permutes the columns of every row, in place, into `target`'s
    /// attribute order. Row order is left as it was, so the relation is in
    /// general no longer sorted: follow with [`Relation::sort_dedup`].
    ///
    /// # Errors
    /// [`StorageError::SchemaMismatch`] if the attribute sets differ.
    pub fn reorder_columns(&mut self, target: &Schema) -> Result<(), StorageError> {
        if !self.schema.same_set(target) {
            return Err(StorageError::SchemaMismatch);
        }
        if &self.schema == target {
            return Ok(());
        }
        let positions = self
            .schema
            .positions_of(target.attrs())
            .expect("same_set implies all present");
        let mut row = vec![Value(0); positions.len()];
        for chunk in Arc::make_mut(&mut self.data).chunks_exact_mut(positions.len()) {
            row.copy_from_slice(chunk);
            for (slot, &p) in chunk.iter_mut().zip(&positions) {
                *slot = row[p];
            }
        }
        self.schema = target.clone();
        Ok(())
    }

    /// Sorts rows lexicographically and removes duplicates.
    pub fn sort_dedup(&mut self) {
        let k = self.arity();
        // Already a set in order (what an index scan along the schema's
        // own attribute order produces): nothing to move — and a shared
        // buffer stays shared.
        if strictly_sorted(&self.data, k) {
            return;
        }
        sort_dedup_flat(Arc::make_mut(&mut self.data), k);
    }

    /// Membership test via linear scan of sorted data (binary search when
    /// sorted); for repeated probes build a [`RowSet`].
    #[must_use]
    pub fn contains_row(&self, row: &[Value]) -> bool {
        if row.len() != self.arity() {
            return false;
        }
        if self.arity() == 0 {
            return self.nullary_present;
        }
        self.iter_rows().any(|r| r == row)
    }

    /// Builds a hash set over the rows for O(1) membership probes.
    #[must_use]
    pub fn row_set(&self) -> RowSet {
        let mut set = set_with_capacity(self.len());
        for r in self.iter_rows() {
            set.insert(r.to_vec().into_boxed_slice());
        }
        RowSet {
            arity: self.arity(),
            set,
        }
    }

    /// Consumes and returns the sorted/deduplicated relation.
    #[must_use]
    pub fn into_sorted(mut self) -> Relation {
        self.sort_dedup();
        self
    }

    /// Direct access to the flat row-major buffer (row length =
    /// [`Relation::arity`]).
    #[must_use]
    pub fn raw_data(&self) -> &[Value] {
        &self.data
    }
}

// The nullary-presence flag lives outside the main struct body above purely
// for documentation flow; define it here.
impl Relation {
    /// Builds a nullary relation representing logical `true` (one empty
    /// tuple).
    #[must_use]
    pub fn nullary_true() -> Relation {
        let mut r = Relation::unit();
        r.nullary_present = true;
        r
    }
}

/// Sorts the `k`-wide rows of non-empty row-major `data`
/// lexicographically and removes duplicates — [`Relation::sort_dedup`]
/// past its already-sorted check, shared with [`crate::FlatIndex::build`].
/// Narrow rows (every join output in practice) sort in place as
/// fixed-size arrays; wider ones through a row-index permutation.
pub(crate) fn sort_dedup_flat(data: &mut Vec<Value>, k: usize) {
    match k {
        1 => sort_dedup_rows::<1>(data),
        2 => sort_dedup_rows::<2>(data),
        3 => sort_dedup_rows::<3>(data),
        4 => sort_dedup_rows::<4>(data),
        5 => sort_dedup_rows::<5>(data),
        6 => sort_dedup_rows::<6>(data),
        _ => {
            let mut idx: Vec<usize> = (0..data.len() / k).collect();
            idx.sort_unstable_by(|&a, &b| {
                cmp_rows(&data[a * k..a * k + k], &data[b * k..b * k + k])
            });
            idx.dedup_by(|&mut a, &mut b| data[a * k..a * k + k] == data[b * k..b * k + k]);
            let mut out = Vec::with_capacity(idx.len() * k);
            for i in idx {
                out.extend_from_slice(&data[i * k..i * k + k]);
            }
            *data = out;
        }
    }
}

/// `true` iff the `k`-wide rows of row-major `data` are strictly
/// ascending: a set, in lexicographic order (`k = 0` rows carry no data).
pub(crate) fn strictly_sorted(data: &[Value], k: usize) -> bool {
    let mut rows = data.chunks_exact(k.max(1));
    let Some(mut prev) = rows.next() else {
        return true;
    };
    rows.all(|row| std::mem::replace(&mut prev, row) < row)
}

/// [`sort_dedup_flat`] for `K`-wide rows: sorts the rows themselves, then
/// compacts duplicates away.
fn sort_dedup_rows<const K: usize>(data: &mut Vec<Value>) {
    let (rows, rest) = data.as_chunks_mut::<K>();
    debug_assert!(rest.is_empty());
    rows.sort_unstable();
    let mut kept = 1;
    for i in 1..rows.len() {
        if rows[i] != rows[kept - 1] {
            rows[kept] = rows[i];
            kept += 1;
        }
    }
    data.truncate(kept * K);
}

/// Lexicographic comparison of two equal-length rows.
#[must_use]
pub(crate) fn cmp_rows(a: &[Value], b: &[Value]) -> Ordering {
    a.cmp(b)
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation{} [{} rows]", self.schema, self.len())?;
        for (i, r) in self.iter_rows().enumerate() {
            if i >= 20 {
                writeln!(f, "  …")?;
                break;
            }
            writeln!(
                f,
                "  ({})",
                r.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        Ok(())
    }
}

/// Hash set over rows for O(1) membership probes during pruning steps.
pub struct RowSet {
    arity: usize,
    set: FxHashSet<Box<[Value]>>,
}

impl RowSet {
    /// `true` iff the row is present (arity mismatches are simply absent).
    #[must_use]
    pub fn contains(&self, row: &[Value]) -> bool {
        row.len() == self.arity && self.set.contains(row)
    }

    /// Number of distinct rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` iff empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        Relation::from_u32_rows(Schema::of(schema), rows)
    }

    #[test]
    fn from_rows_sorts_and_dedups() {
        let r = rel(&[0, 1], &[&[2, 2], &[1, 1], &[2, 2], &[1, 0]]);
        assert_eq!(r.len(), 3);
        let rows: Vec<Vec<Value>> = r.iter_rows().map(<[Value]>::to_vec).collect();
        assert_eq!(
            rows,
            vec![
                vec![Value(1), Value(0)],
                vec![Value(1), Value(1)],
                vec![Value(2), Value(2)]
            ]
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::empty(Schema::of(&[0, 1]));
        assert_eq!(
            r.push_row(&[Value(1)]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn unit_and_nullary_true() {
        let f = Relation::unit();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        let t = Relation::nullary_true();
        assert_eq!(t.len(), 1);
        assert!(t.contains_row(&[]));
        assert!(!f.contains_row(&[]));
        assert_eq!(t.iter_rows().count(), 1);
        assert_eq!(f.iter_rows().count(), 0);
    }

    #[test]
    fn contains_and_rowset() {
        let r = rel(&[0, 1], &[&[1, 2], &[3, 4]]);
        assert!(r.contains_row(&[Value(1), Value(2)]));
        assert!(!r.contains_row(&[Value(2), Value(1)]));
        assert!(!r.contains_row(&[Value(1)]));
        let s = r.row_set();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&[Value(3), Value(4)]));
        assert!(!s.contains(&[Value(3)]));
        assert!(!s.is_empty());
    }

    #[test]
    fn row_access() {
        let r = rel(&[0], &[&[5], &[3]]);
        assert_eq!(r.row(0), &[Value(3)]);
        assert_eq!(r.row(1), &[Value(5)]);
    }

    #[test]
    fn debug_format_truncates() {
        let rows: Vec<Vec<Value>> = (0..30).map(|i| vec![Value(i)]).collect();
        let r = Relation::from_rows(Schema::of(&[0]), rows).unwrap();
        let s = format!("{r:?}");
        assert!(s.contains("[30 rows]"));
        assert!(s.contains('…'));
    }

    #[test]
    fn from_flat_adopts_the_buffer_as_is() {
        let data: Vec<Value> = [3, 4, 1, 2, 3, 4].map(Value).to_vec();
        let ptr = data.as_ptr();
        let mut r = Relation::from_flat(Schema::of(&[0, 1]), data.clone()).unwrap();
        // round trip: same values, same order, same allocation
        assert_eq!(r.raw_data(), data.as_slice());
        assert_eq!(r.len(), 3);
        let moved = Relation::from_flat(Schema::of(&[0, 1]), data).unwrap();
        assert_eq!(moved.raw_data().as_ptr(), ptr);
        // not yet a set; sort_dedup finishes it like after push_row
        r.sort_dedup();
        assert_eq!(r, rel(&[0, 1], &[&[1, 2], &[3, 4]]));
        let back = Relation::from_flat(r.schema().clone(), r.raw_data().to_vec()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_flat_rejects_ragged_buffers() {
        assert_eq!(
            Relation::from_flat(Schema::of(&[0, 1]), vec![Value(1); 5]),
            Err(StorageError::ArityMismatch {
                expected: 2,
                got: 1
            })
        );
        // arity 0: rows carry no data, so only the empty buffer fits, and
        // it is the empty ("false") relation
        assert_eq!(
            Relation::from_flat(Schema::of(&[]), Vec::new()),
            Ok(Relation::unit())
        );
        assert_eq!(
            Relation::from_flat(Schema::of(&[]), vec![Value(1)]),
            Err(StorageError::ArityMismatch {
                expected: 0,
                got: 1
            })
        );
    }

    #[test]
    fn reorder_columns_permutes_in_place() {
        let mut r = rel(&[0, 1, 2], &[&[1, 20, 300], &[2, 10, 100]]);
        r.reorder_columns(&Schema::of(&[2, 0, 1])).unwrap();
        assert_eq!(r.schema(), &Schema::of(&[2, 0, 1]));
        // row order untouched: the caller re-sorts
        assert_eq!(r.raw_data(), [300, 1, 20, 100, 2, 10].map(Value).as_slice());
        r.sort_dedup();
        assert_eq!(r.row(0), [100, 2, 10].map(Value).as_slice());
        assert_eq!(
            r.reorder_columns(&Schema::of(&[0, 1, 3])),
            Err(StorageError::SchemaMismatch)
        );
        let before = r.clone();
        r.reorder_columns(&Schema::of(&[2, 0, 1])).unwrap();
        assert_eq!(r, before);
    }

    #[test]
    fn sort_dedup_leaves_a_sorted_set_alone_and_fixes_near_misses() {
        let sorted = rel(&[0, 1], &[&[1, 1], &[1, 2], &[2, 0]]);
        for data in [
            vec![1, 1, 1, 2, 2, 0],       // already strictly sorted
            vec![1, 1, 1, 2, 1, 2, 2, 0], // sorted with a duplicate
            vec![1, 1, 2, 0, 1, 2],       // one inversion
        ] {
            let data = data.into_iter().map(Value).collect();
            let mut r = Relation::from_flat(Schema::of(&[0, 1]), data).unwrap();
            r.sort_dedup();
            assert_eq!(r, sorted);
        }
    }

    #[test]
    fn sort_dedup_agrees_with_a_btreeset_at_every_arity() {
        // Arities 1..=6 sort in place as arrays, wider rows by index.
        for arity in 1..=8usize {
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ arity as u64;
            let data: Vec<Value> = (0..arity * 200)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    Value((x >> 33) % 3)
                })
                .collect();
            let expect: std::collections::BTreeSet<Vec<Value>> =
                data.chunks_exact(arity).map(<[Value]>::to_vec).collect();
            let attrs: Vec<u32> = (0..arity as u32).collect();
            let mut r = Relation::from_flat(Schema::of(&attrs), data).unwrap();
            r.sort_dedup();
            let got: Vec<Vec<Value>> = r.iter_rows().map(<[Value]>::to_vec).collect();
            assert_eq!(got, expect.into_iter().collect::<Vec<_>>(), "arity {arity}");
        }
    }

    #[test]
    fn sort_dedup_idempotent() {
        let mut r = rel(&[0, 1], &[&[1, 1], &[0, 0]]);
        let before = r.clone();
        r.sort_dedup();
        assert_eq!(r, before);
    }
}
