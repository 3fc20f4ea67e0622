//! Flat, arity-strided row buffers.

use crate::Value;

/// How many times the row count a key's value range may span for
/// [`RowBuf::rekey`] to place rows by counting: a counting pass keeps one
/// counter per value in the range.
const COUNTING_SPAN: u64 = 4;

/// A bag of equal-arity rows stored back to back in one `Vec<Value>` —
/// the layout [`Relation`](crate::Relation) uses, without a schema or set
/// semantics. This is what `Recursive-Join` reads and writes at every
/// level and what a shard run hands back: appending a row is an
/// `extend_from_slice`, [`RowBuf::rekey`] lays shard outputs out in
/// another column order with one write per value, and
/// [`RowBuf::into_data`] moves the finished buffer into
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

    /// Lays out rows that ascend strictly in one column order T in
    /// another column order S, sorted in S: the join engine's raw rows
    /// (T its total order) as the output schema wants them. `slots` are
    /// consecutive pieces of one T-ascending sequence, in order. Output
    /// column `s` is input column `columns[s]`. The two orders share their
    /// first `prefix` columns (`columns[..prefix]` is `0..prefix`), and
    /// `key` is the length of the shortest prefix of S whose removal from
    /// T leaves the rest of S in order: `columns[key..]` ascends.
    ///
    /// `key ≤ prefix` means T is S: the rows are adopted as they are, the
    /// first slot's buffer growing to take each later one as `slots`
    /// yields it. Otherwise the rows already ascend in `S[..prefix]`, so
    /// only each run of rows equal there is reordered. With `key == 1`
    /// (so no shared prefix), rows that agree on `S[0]` already follow S
    /// among themselves, so when that column's values span less than
    /// `COUNTING_SPAN` times the row count one stable counting pass on it
    /// places every row. Any other case sorts each run in S order; the
    /// rows are distinct, so that order is total and an unstable sort,
    /// which needs no scratch buffer, is exact. That takes one buffer of
    /// row references per call, however many runs there are: the
    /// 4-cycle's (a, b, d, c) sorts each (a, b) run on (c, d). Either way
    /// each permuted row is written once, straight from the slots, and
    /// none is deduplicated.
    ///
    /// # Panics
    /// If a slot is not `columns.len()` wide, `prefix` or `key` exceeds
    /// it, `columns[..prefix]` is not `0..prefix` or `columns[key..]` does
    /// not ascend. Debug builds also check that the rows ascend strictly
    /// in T, across slot boundaries too.
    #[must_use]
    pub fn rekey(
        slots: impl IntoIterator<Item = RowBuf>,
        columns: &[usize],
        prefix: usize,
        key: usize,
    ) -> RowBuf {
        let arity = columns.len();
        assert!(
            columns[..prefix].iter().enumerate().all(|(t, &c)| t == c),
            "S[..prefix] is T[..prefix]"
        );
        assert!(columns[key..].is_sorted(), "S[key..] keeps its T order");
        let mut slots = slots
            .into_iter()
            .inspect(|s| assert_eq!(s.arity, arity, "row width"));
        if key <= prefix {
            let mut out = slots.next().unwrap_or_else(|| RowBuf::new(arity));
            for slot in slots {
                out.data.extend_from_slice(&slot.data);
                out.len += slot.len;
            }
            debug_assert!(
                strictly_ascending(std::slice::from_ref(&out)),
                "rows ascend strictly in T, across slots too"
            );
            return out;
        }
        let slots: Vec<RowBuf> = slots.collect();
        debug_assert!(
            strictly_ascending(&slots),
            "rows ascend strictly in T, across slots too"
        );
        let len = slots.iter().map(RowBuf::len).sum();
        if len == 0 {
            return RowBuf::new(arity);
        }
        let rows = || slots.iter().flat_map(|s| s.data.chunks_exact(arity));
        let mut out = RowBuf {
            arity,
            len,
            data: vec![Value(0); len * arity],
        };
        if key == 1 {
            // The one key column, packed: one pass over the rows, and
            // every later pass reads it instead of the rows.
            let mut keys = Vec::with_capacity(len);
            keys.extend(rows().map(|row| row[columns[0]]));
            let widen = |(lo, hi): (u64, u64), v: &Value| (lo.min(v.0), hi.max(v.0));
            let (lo, hi) = keys.iter().fold((u64::MAX, 0), widen);
            if hi - lo < COUNTING_SPAN.saturating_mul(len as u64) {
                // next[v - lo]: where the next row keyed v goes.
                let mut next = vec![0usize; (hi - lo) as usize + 1];
                for v in &keys {
                    next[(v.0 - lo) as usize] += 1;
                }
                let mut at = 0;
                for n in &mut next {
                    (*n, at) = (at, at + *n);
                }
                for (row, v) in rows().zip(&keys) {
                    let n = &mut next[(v.0 - lo) as usize];
                    put(&mut out.data, *n, row, columns);
                    *n += 1;
                }
                return out;
            }
        }
        let mut sorted = Vec::with_capacity(len);
        sorted.extend(rows());
        let rest = &columns[prefix..];
        for run in sorted.chunk_by_mut(|a, b| a[..prefix] == b[..prefix]) {
            run.sort_unstable_by(|a, b| rest.iter().map(|&c| a[c]).cmp(rest.iter().map(|&c| b[c])));
        }
        for (at, row) in sorted.into_iter().enumerate() {
            put(&mut out.data, at, row, columns);
        }
        out
    }
}

/// Writes `row`, its columns permuted by `columns`, to output row `at`
/// of `out` (arity ≥ 1).
fn put(out: &mut [Value], at: usize, row: &[Value], columns: &[usize]) {
    let arity = columns.len();
    for (o, &c) in out[at * arity..][..arity].iter_mut().zip(columns) {
        *o = row[c];
    }
}

/// `true` iff the rows of `slots`, taken in order, ascend strictly.
fn strictly_ascending(slots: &[RowBuf]) -> bool {
    let mut rows = slots.iter().flat_map(RowBuf::rows);
    let Some(mut prev) = rows.next() else {
        return true;
    };
    rows.all(|row| std::mem::replace(&mut prev, row) < row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Relation, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

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
    fn reset_keeps_the_allocation_and_rekey_concatenates() {
        let mut a = RowBuf::with_capacity(2, 4);
        a.push_row(&vals(&[1, 2]));
        let mut b = RowBuf::new(2);
        b.push_row(&vals(&[3, 4]));
        // Key 0: the columns stay, the slots are concatenated.
        let mut a = RowBuf::rekey(vec![a, b], &[0, 1], 0, 0);
        assert_eq!(a.data, vals(&[1, 2, 3, 4]));
        let cap = a.data.capacity();
        a.reset(1);
        assert_eq!((a.arity(), a.len(), a.data.capacity()), (1, 0, cap));
    }

    /// What [`RowBuf::rekey`] replaces: the rows as a relation over T,
    /// its columns permuted into S, then sorted and deduplicated.
    fn reorder_then_sort(slots: &[RowBuf], columns: &[usize]) -> Vec<Value> {
        let mut t_attrs = vec![0; columns.len()];
        for (s, &t) in columns.iter().enumerate() {
            t_attrs[t] = s as u32;
        }
        let data = slots.iter().flat_map(|b| b.data.iter().copied()).collect();
        let mut rel = Relation::from_flat(Schema::of(&t_attrs), data).unwrap();
        let s_attrs: Vec<u32> = (0..columns.len() as u32).collect();
        rel.reorder_columns(&Schema::of(&s_attrs)).unwrap();
        rel.sort_dedup();
        rel.raw_data().to_vec()
    }

    /// `n` distinct rows of `arity` values drawn by `value`, ascending,
    /// cut into up to four slots at random.
    fn t_sorted_slots(
        rng: &mut StdRng,
        arity: usize,
        n: usize,
        mut value: impl FnMut(&mut StdRng) -> u64,
    ) -> Vec<RowBuf> {
        let rows: BTreeSet<Vec<Value>> = (0..n)
            .map(|_| (0..arity).map(|_| Value(value(rng))).collect())
            .collect();
        let rows: Vec<Vec<Value>> = rows.into_iter().collect();
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..4))
            .map(|_| rng.gen_range(0..=rows.len()))
            .collect();
        cuts.extend([0, rows.len()]);
        cuts.sort_unstable();
        cuts.windows(2)
            .map(|w| {
                let mut slot = RowBuf::new(arity);
                rows[w[0]..w[1]].iter().for_each(|r| slot.push_row(r));
                slot
            })
            .collect()
    }

    /// A random column map and a key it admits: the shortest one, or any
    /// longer one (`columns[key..]` ascends for every `key` past it).
    fn column_map(rng: &mut StdRng, arity: usize) -> (Vec<usize>, usize) {
        let mut columns: Vec<usize> = (0..arity).collect();
        for j in (1..arity).rev() {
            columns.swap(j, rng.gen_range(0..=j));
        }
        let shortest = (0..=arity)
            .find(|&j| columns[j..].is_sorted())
            .expect("an empty tail ascends");
        (columns, rng.gen_range(shortest..=arity))
    }

    fn check(slots: Vec<RowBuf>, columns: &[usize], prefix: usize, key: usize, ctx: &str) {
        let want = reorder_then_sort(&slots, columns);
        let n = slots.iter().map(RowBuf::len).sum();
        let got = RowBuf::rekey(slots, columns, prefix, key);
        assert_eq!((got.arity(), got.len()), (columns.len(), n), "{ctx}");
        assert_eq!(got.into_data(), want, "{ctx}");
    }

    #[test]
    fn counting_rekey_matches_reorder_then_sort() {
        // One key column over a small domain: the counting pass.
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..300 {
            let arity = rng.gen_range(2..6);
            // S[0] anywhere in T, the rest in order: key 1.
            let first = rng.gen_range(0..arity);
            let columns: Vec<usize> = [first]
                .into_iter()
                .chain((0..arity).filter(|&t| t != first))
                .collect();
            let dom = rng.gen_range(1..12u64);
            let base = rng.gen_range(0..3u64) * 1_000_000;
            let n = rng.gen_range(0..200);
            let slots = t_sorted_slots(&mut rng, arity, n, |r| base + r.gen_range(0..dom));
            check(
                slots,
                &columns,
                0,
                1,
                &format!("trial {trial}, {columns:?}"),
            );
        }
    }

    #[test]
    fn index_sort_rekey_matches_reorder_then_sort() {
        // Keys of any length, values spread over the whole u64 range.
        let mut rng = StdRng::seed_from_u64(2);
        for trial in 0..300 {
            let arity = rng.gen_range(1..6);
            let (columns, key) = column_map(&mut rng, arity);
            let n = rng.gen_range(0..200);
            let wide = rng.gen_bool(0.5);
            let slots = t_sorted_slots(&mut rng, arity, n, |r| {
                if wide {
                    r.gen_range(0..4u64) * (u64::MAX / 3)
                } else {
                    r.gen_range(0..5u64)
                }
            });
            check(
                slots,
                &columns,
                0,
                key,
                &format!("trial {trial}, {columns:?} key {key}"),
            );
        }
    }

    #[test]
    fn rekey_edge_cases() {
        // Empty: no slots at all, and one empty slot, on either path.
        for key in 0..=2 {
            let columns = if key == 0 { [0, 1] } else { [1, 0] };
            assert!(RowBuf::rekey(Vec::new(), &columns, 0, key).is_empty());
            let got = RowBuf::rekey(vec![RowBuf::new(2)], &columns, 0, key);
            assert_eq!((got.arity(), got.len()), (2, 0));
        }
        // One row.
        let mut one = RowBuf::new(3);
        one.push_row(&vals(&[7, 8, 9]));
        check(vec![one], &[2, 0, 1], 0, 1, "one row");
        // Arity 1: the key is the row.
        let mut unary = RowBuf::new(1);
        (0..10).for_each(|v| unary.push_row(&vals(&[v * 3])));
        check(vec![unary.clone()], &[0], 0, 0, "arity 1, key 0");
        check(vec![unary], &[0], 0, 1, "arity 1, key 1");
        // key = arity: every column is key.
        let mut rng = StdRng::seed_from_u64(3);
        let slots = t_sorted_slots(&mut rng, 3, 50, |r| r.gen_range(0..4u64));
        check(slots, &[2, 1, 0], 0, 3, "key = arity");
        // A key column holding both 0 and u64::MAX spans the whole range:
        // its width must not overflow, and it takes the sort.
        let mut rows = RowBuf::new(2);
        for r in [[0, 5], [0, u64::MAX], [1, 0], [u64::MAX, 0], [u64::MAX, 3]] {
            rows.push_row(&vals(&r));
        }
        let got = RowBuf::rekey(vec![rows], &[1, 0], 0, 1);
        let want = [[0, 1], [0, u64::MAX], [3, u64::MAX], [5, 0], [u64::MAX, 0]];
        assert_eq!(got.into_data(), vals(&want.concat()));
    }

    /// A column map that keeps T's first `prefix` columns in place and
    /// shuffles the rest, and a key it admits.
    fn prefixed_column_map(rng: &mut StdRng, arity: usize, prefix: usize) -> (Vec<usize>, usize) {
        let (tail, _) = column_map(rng, arity - prefix);
        let columns: Vec<usize> = (0..prefix).chain(tail.iter().map(|t| t + prefix)).collect();
        let shortest = (0..=arity)
            .find(|&j| columns[j..].is_sorted())
            .expect("an empty tail ascends");
        (columns, rng.gen_range(shortest..=arity))
    }

    #[test]
    fn prefix_rekey_matches_reorder_then_sort() {
        // Rows that already ascend in S[..prefix], re-keyed run by run:
        // small domains make long runs, wide ones runs of length 1.
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..600 {
            let prefix = trial % 3;
            let arity = rng.gen_range(prefix.max(1)..6);
            let (columns, key) = prefixed_column_map(&mut rng, arity, prefix);
            let dom = [2u64, 5, 1000][rng.gen_range(0..3usize)];
            let extremes = rng.gen_bool(0.3);
            let n = rng.gen_range(0..200);
            let slots = t_sorted_slots(&mut rng, arity, n, |r| {
                if extremes && r.gen_bool(0.5) {
                    [0, u64::MAX][r.gen_range(0..2usize)]
                } else {
                    r.gen_range(0..dom)
                }
            });
            let ctx = format!("trial {trial}, {columns:?} prefix {prefix} key {key}");
            check(slots, &columns, prefix, key, &ctx);
        }
    }

    #[test]
    fn prefix_rekey_edge_cases() {
        // Prefix 0: the whole buffer is one run, sorted on S[..key].
        let mut rows = RowBuf::new(3);
        for r in [
            [0, 0, u64::MAX],
            [0, 5, 0],
            [0, u64::MAX, 1],
            [u64::MAX, 0, 0],
        ] {
            rows.push_row(&vals(&r));
        }
        check(vec![rows.clone()], &[2, 0, 1], 0, 1, "prefix 0");
        // Prefix 1, S = (t0, t2, t1): each t0 run is sorted on t2, its
        // rows keeping their T order (t1 ascending) on equal t2. The run
        // of u64::MAX has length 1.
        let mut rows = RowBuf::new(3);
        for r in [
            [0, 0, u64::MAX],
            [0, 5, 0],
            [0, 5, u64::MAX],
            [1, 0, 0],
            [1, 3, 0],
            [u64::MAX, 1, 2],
        ] {
            rows.push_row(&vals(&r));
        }
        let mut second = RowBuf::new(3);
        second.push_row(&vals(&[u64::MAX, 2, 1]));
        let got = RowBuf::rekey(vec![rows, second], &[0, 2, 1], 1, 2);
        let want = [
            [0, 0, 5],
            [0, u64::MAX, 0],
            [0, u64::MAX, 5],
            [1, 0, 0],
            [1, 0, 3],
            [u64::MAX, 1, 2],
            [u64::MAX, 2, 1],
        ];
        assert_eq!(got.into_data(), vals(&want.concat()));
        // Prefix 2, the 4-cycle's (a, b, d, c): every (a, b) run sorted on
        // c, one run cut across two slots, runs of length 1 at both ends.
        let t_rows = [
            [0, 0, 7, 0],
            [0, 1, 0, u64::MAX],
            [0, 1, 3, 0],
            [0, 1, u64::MAX, 2],
            [2, u64::MAX, 1, 1],
        ];
        let mut slots = vec![RowBuf::new(4), RowBuf::new(4)];
        for (i, r) in t_rows.iter().enumerate() {
            slots[usize::from(i >= 2)].push_row(&vals(r));
        }
        let got = RowBuf::rekey(slots.clone(), &[0, 1, 3, 2], 2, 3);
        let want = [
            [0, 0, 0, 7],
            [0, 1, 0, 3],
            [0, 1, 2, u64::MAX],
            [0, 1, u64::MAX, 0],
            [2, u64::MAX, 1, 1],
        ];
        assert_eq!(got.into_data(), vals(&want.concat()));
        check(slots, &[0, 1, 3, 2], 2, 3, "prefix 2");
        // A prefix as long as the key: T is S, the rows are adopted.
        let mut one = RowBuf::new(2);
        one.push_row(&vals(&[0, u64::MAX]));
        check(vec![one], &[0, 1], 2, 0, "prefix 2, key 0");
    }

    #[test]
    #[should_panic(expected = "S[..prefix] is T[..prefix]")]
    fn rekey_rejects_a_prefix_t_does_not_share() {
        let _ = RowBuf::rekey(Vec::new(), &[1, 0], 1, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rows ascend strictly in T")]
    fn rekey_rejects_a_repeated_row_across_slots() {
        let mut a = RowBuf::new(2);
        a.push_row(&vals(&[1, 2]));
        let b = a.clone();
        let _ = RowBuf::rekey(vec![a, b], &[1, 0], 0, 1);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_is_rejected() {
        RowBuf::new(2).push_row(&vals(&[1]));
    }
}
