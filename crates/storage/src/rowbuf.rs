//! Flat, arity-strided row buffers.

use crate::Value;

/// A bag of equal-arity rows stored back to back in one `Vec<Value>` —
/// the layout [`Relation`](crate::Relation) uses, without a schema or set
/// semantics. This is what `Recursive-Join` reads and writes at every
/// level and what a shard run hands back: appending a row is an
/// `extend_from_slice`, concatenating shard outputs is one `memcpy` per
/// shard, and [`RowBuf::into_data`] moves the finished buffer into
/// [`Relation::from_flat`](crate::Relation::from_flat) without touching
/// the rows.
///
/// Arity-0 rows occupy no data, so the row count is tracked separately:
/// the unit row of a nullary join is `len == 1` over an empty buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowBuf {
    arity: usize,
    len: usize,
    data: Vec<Value>,
}

impl RowBuf {
    /// An empty buffer of `arity`-wide rows.
    #[must_use]
    pub fn new(arity: usize) -> RowBuf {
        RowBuf::with_capacity(arity, 0)
    }

    /// An empty buffer with room for `rows` rows.
    #[must_use]
    pub fn with_capacity(arity: usize, rows: usize) -> RowBuf {
        RowBuf {
            arity,
            len: 0,
            data: Vec::with_capacity(arity * rows),
        }
    }

    /// Empties the buffer and sets its row width, keeping the allocation.
    pub fn reset(&mut self, arity: usize) {
        self.arity = arity;
        self.len = 0;
        self.data.clear();
    }

    /// Row width.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends the row `head ++ tail`.
    ///
    /// # Panics
    /// If the two parts do not add up to the buffer's arity.
    #[inline]
    pub fn push_concat(&mut self, head: &[Value], tail: &[Value]) {
        assert_eq!(head.len() + tail.len(), self.arity, "row width");
        self.data.extend_from_slice(head);
        self.data.extend_from_slice(tail);
        self.len += 1;
    }

    /// Appends one row.
    ///
    /// # Panics
    /// If `row` is not `arity` wide.
    #[inline]
    pub fn push_row(&mut self, row: &[Value]) {
        self.push_concat(row, &[]);
    }

    /// Appends every row of `other`.
    ///
    /// # Panics
    /// If the arities differ.
    pub fn append(&mut self, other: &RowBuf) {
        assert_eq!(self.arity, other.arity, "row width");
        self.data.extend_from_slice(&other.data);
        self.len += other.len;
    }

    /// Row `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row index out of range");
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates the rows in insertion order (arity-0 buffers yield `len`
    /// empty slices).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(move |i| &self.data[i * self.arity..(i + 1) * self.arity])
    }

    /// Returns the spare capacity that growth by doubling left (up to half
    /// the buffer) to the allocator, when it spans at least a page: a
    /// finished buffer that waits to be read then holds only its rows.
    pub fn release_slack(&mut self) {
        const PAGE_VALUES: usize = 4096 / std::mem::size_of::<Value>();
        if self.data.capacity() - self.data.len() >= PAGE_VALUES {
            self.data.shrink_to_fit();
        }
    }

    /// Consumes the buffer, returning the flat row-major data.
    #[must_use]
    pub fn into_data(self) -> Vec<Value> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(vs: &[u64]) -> Vec<Value> {
        vs.iter().copied().map(Value).collect()
    }

    #[test]
    fn released_slack_keeps_the_rows() {
        // 2200 values: doubling leaves the buffer at 4096.
        let mut b = RowBuf::new(2);
        for i in 0..1100u64 {
            b.push_row(&vals(&[i, i + 1]));
        }
        let rows: Vec<Vec<Value>> = b.rows().map(<[Value]>::to_vec).collect();
        b.release_slack();
        assert!(b.rows().map(<[Value]>::to_vec).eq(rows));
        let data = b.into_data();
        assert!(data.capacity() - data.len() < 512, "the slack went back");
        // Less than a page of slack stays.
        let mut small = RowBuf::new(1);
        small.push_row(&vals(&[7]));
        small.release_slack();
        assert_eq!(small.row(0), vals(&[7]).as_slice());
    }

    #[test]
    fn rows_are_strided() {
        let mut b = RowBuf::new(3);
        b.push_row(&vals(&[1, 2, 3]));
        b.push_concat(&vals(&[4]), &vals(&[5, 6]));
        assert_eq!((b.arity(), b.len()), (3, 2));
        assert_eq!(b.row(1), vals(&[4, 5, 6]).as_slice());
        let rows: Vec<&[Value]> = b.rows().collect();
        assert_eq!(rows, [&vals(&[1, 2, 3])[..], &vals(&[4, 5, 6])[..]]);
        assert_eq!(b.data, vals(&[1, 2, 3, 4, 5, 6]));
        assert_eq!(b.into_data(), vals(&[1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn nullary_rows_are_counted_not_stored() {
        let mut b = RowBuf::new(0);
        assert!(b.is_empty());
        b.push_row(&[]);
        b.push_row(&[]);
        assert_eq!(b.len(), 2);
        assert!(b.data.is_empty());
        assert_eq!(b.rows().count(), 2);
        assert!(b.rows().all(<[Value]>::is_empty));
    }

    #[test]
    fn reset_keeps_the_allocation_and_append_concatenates() {
        let mut a = RowBuf::with_capacity(2, 4);
        a.push_row(&vals(&[1, 2]));
        let mut b = RowBuf::new(2);
        b.push_row(&vals(&[3, 4]));
        a.append(&b);
        assert_eq!(a.data, vals(&[1, 2, 3, 4]));
        let cap = a.data.capacity();
        a.reset(1);
        assert_eq!((a.arity(), a.len(), a.data.capacity()), (1, 0, cap));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_is_rejected() {
        RowBuf::new(2).push_row(&vals(&[1]));
    }
}
