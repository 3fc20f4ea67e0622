//! Galloping (exponential) search and intersection over sorted slices.
//!
//! The flat columnar index ([`crate::FlatIndex`]) stores every trie level
//! as one contiguous sorted array, so all of its point lookups reduce to
//! "find `v` in a sorted slice". Plain binary search pays `log n`
//! comparisons scattered across the whole slice; *galloping* first probes
//! exponentially from a known cursor (`+1, +2, +4, …`), bracketing the
//! target in a window whose width is proportional to the **distance
//! moved**, then binary-searches that window. For the access patterns the
//! join engine generates — repeated lookups at nearby, ascending
//! positions (level intersections, ordered descents) — this is
//! `O(log gap)` instead of `O(log n)` per step, and degrades gracefully
//! to `≈ 2·log n` in the worst case, preserving the paper's footnote-3
//! budget for sorting-based structures.
//!
//! [`leapfrog`] is the one intersection kernel built on it: `k` sorted
//! slices, each side galloping to the others' largest label.
//! `Recursive-Join`'s case-b walk runs it over the borrowed child levels
//! of its sides, and [`intersect`] is its two-sided form.
//!
//! Two sides within a factor of 8 in length are merged instead, with no
//! gallop and no branch but the match's (Demaine–López-Ortiz–Munro
//! adaptive intersection); ratios 2 to 16 ran alike, 32 or always merging
//! slowed a 4-cycle 30 %. Its `(1 + 8)·min(n_a, n_b)` steps keep Theorem
//! 5.1's one lookup per checking edge per case-b candidate up to a constant.
//!
//! Edge cases these helpers must (and are tested to) get right:
//!
//! * the empty slice and the singleton slice;
//! * a needle smaller than everything / larger than everything (the
//!   galloping probe **overshoots** the end and must clamp to `len`, not
//!   index out of bounds);
//! * duplicates, including runs that straddle the probe boundary:
//!   [`lower_bound`] always returns the *first* admissible index, so
//!   intersections emit the same multiplicity as a naive sorted merge.

use crate::Value;

/// First index `i ≥ start` in sorted `slice` with `slice[i] >= v`, found
/// by galloping from `start`; `slice.len()` when no such index exists.
///
/// Requires `slice` sorted ascending (duplicates allowed). `start` past
/// the end is clamped.
#[inline]
#[must_use]
pub fn lower_bound_from(slice: &[Value], start: usize, v: Value) -> usize {
    let n = slice.len();
    if start >= n {
        return n;
    }
    if slice[start] >= v {
        return start;
    }
    // Invariant: slice[lo] < v. Gallop until the probe passes v (or the
    // end — the overshoot case: offset saturates rather than wrapping,
    // and the window is clamped to n below).
    let mut lo = start;
    let mut offset = 1usize;
    loop {
        let probe = start.saturating_add(offset);
        if probe >= n {
            break;
        }
        if slice[probe] >= v {
            break;
        }
        lo = probe;
        offset = offset.saturating_mul(2);
    }
    let hi = start.saturating_add(offset).min(n);
    // Binary search in (lo, hi]: first element ≥ v.
    lo + 1 + slice[lo + 1..hi].partition_point(|&x| x < v)
}

/// First index `i` in sorted `slice` with `slice[i] >= v` (the insertion
/// point); `slice.len()` when every element is `< v`.
#[must_use]
pub fn lower_bound(slice: &[Value], v: Value) -> usize {
    lower_bound_from(slice, 0, v)
}

/// Index of the **first** occurrence of `v` in sorted `slice`, if any.
#[must_use]
pub fn find(slice: &[Value], v: Value) -> Option<usize> {
    let i = lower_bound(slice, v);
    (i < slice.len() && slice[i] == v).then_some(i)
}

/// One side of a [`leapfrog`] intersection: a sorted slice and where the
/// side stands in it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lane<'a> {
    /// The side's labels, ascending.
    pub labels: &'a [Value],
    /// Where the side stands in `labels`; [`leapfrog`] starts the side
    /// here.
    pub at: usize,
}

impl<'a> Lane<'a> {
    /// A side standing on the first of `labels`.
    #[inline]
    #[must_use]
    pub fn new(labels: &'a [Value]) -> Lane<'a> {
        Lane { labels, at: 0 }
    }

    /// The offsets of the side's labels in `[lo, hi]` from `at` on.
    fn window(&self, lo: Value, hi: Value) -> std::ops::Range<usize> {
        let start = lower_bound_from(self.labels, self.at, lo);
        start..match hi {
            Value(u64::MAX) => self.labels.len(),
            _ => start + self.labels[start..].partition_point(|&x| x <= hi),
        }
    }
}

/// Two lanes within this length ratio are merged, not galloped.
const MERGE_RATIO: usize = 8;

/// The k-way leapfrog intersection of sorted slices (one level of
/// Veldhuizen's Leapfrog Triejoin, the Generic Join loop of
/// Ngo–Ré–Rudra): calls `f(v, lanes)` for each value `v` in `[lo, hi]`
/// that every lane holds at or after where it starts, in ascending
/// order, with every lane standing on `v` (so `lanes[i].at` is `v`'s
/// offset in side `i`). Nothing happens without lanes.
///
/// The sides take turns: each gallops forward ([`lower_bound_from`]) to
/// the largest label the others stood on, so a value one side lacks lets
/// the others skip to its next one at `O(log gap)` a step. After a match
/// every lane steps past one occurrence, so a value common to all sides
/// is visited `min` of its multiplicities times — once on strictly
/// ascending sides — and no `v + 1` is ever formed: a label `u64::MAX`
/// needs no guard.
///
/// Two lanes within a factor of 8 in length (from `at`, inside `[lo, hi]`)
/// are merged instead; see the [module docs](self).
#[inline]
pub fn leapfrog(
    lanes: &mut [Lane<'_>],
    lo: Value,
    hi: Value,
    mut f: impl FnMut(Value, &[Lane<'_>]),
) {
    if let [a, b] = &mut *lanes {
        let (wa, wb) = (a.window(lo, hi), b.window(lo, hi));
        (a.at, b.at) = (wa.start, wb.start);
        let (na, nb) = (wa.len(), wb.len());
        if na.max(nb) <= na.min(nb).saturating_mul(MERGE_RATIO) {
            let (a, b) = (&a.labels[..wa.end], &b.labels[..wb.end]);
            let (mut i, mut j) = (wa.start, wb.start);
            while i < a.len() && j < b.len() {
                let (x, y) = (a[i], b[j]);
                if x == y {
                    (lanes[0].at, lanes[1].at) = (i, j);
                    f(x, lanes);
                }
                i += usize::from(x <= y);
                j += usize::from(y <= x);
            }
            return;
        }
    }
    let k = lanes.len();
    let mut v = lo;
    // How many lanes in a row stand on `v`.
    let mut agree = 0;
    let mut i = 0;
    while i < k {
        let lane = &mut lanes[i];
        lane.at = lower_bound_from(lane.labels, lane.at, v);
        let Some(&w) = lane.labels.get(lane.at) else {
            return;
        };
        if w > hi {
            return;
        }
        if w != v {
            v = w;
            agree = 0;
        }
        agree += 1;
        if agree == k {
            f(v, lanes);
            for lane in lanes.iter_mut() {
                lane.at += 1;
            }
            agree = 0;
        }
        i += 1;
        if i == k {
            i = 0;
        }
    }
}

/// The sorted intersection of `a` and `b`: a two-lane [`leapfrog`], so
/// lopsided sizes gallop the smaller side through the larger and
/// comparable ones (within a factor of 8) are merged.
///
/// Both inputs must be sorted ascending; duplicates are allowed and a
/// common value is emitted `min(count_a, count_b)` times — exactly what a
/// naive two-pointer merge produces (the proptest differential pins
/// this).
#[must_use]
pub fn intersect(a: &[Value], b: &[Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    leapfrog(
        &mut [Lane::new(a), Lane::new(b)],
        Value(0),
        Value(u64::MAX),
        |v, _| out.push(v),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(xs: &[u64]) -> Vec<Value> {
        xs.iter().copied().map(Value).collect()
    }

    #[test]
    fn lower_bound_empty_and_singleton() {
        assert_eq!(lower_bound(&[], Value(5)), 0);
        let one = vals(&[7]);
        assert_eq!(lower_bound(&one, Value(6)), 0);
        assert_eq!(lower_bound(&one, Value(7)), 0);
        assert_eq!(lower_bound(&one, Value(8)), 1);
    }

    #[test]
    fn lower_bound_is_first_occurrence_of_duplicates() {
        let s = vals(&[1, 3, 3, 3, 5, 5, 9]);
        assert_eq!(lower_bound(&s, Value(3)), 1);
        assert_eq!(lower_bound(&s, Value(5)), 4);
        assert_eq!(lower_bound(&s, Value(4)), 4);
        assert_eq!(lower_bound(&s, Value(0)), 0);
        assert_eq!(lower_bound(&s, Value(10)), 7);
    }

    #[test]
    fn lower_bound_overshoot_clamps() {
        // Needle past the end: galloping probes 1, 2, 4, 8, … overshoot
        // the slice; the answer must be len, never an out-of-bounds index.
        for n in [1usize, 2, 3, 5, 7, 8, 9, 100] {
            let s: Vec<Value> = (0..n as u64).map(Value).collect();
            assert_eq!(lower_bound(&s, Value(n as u64 + 1)), n, "len {n}");
            assert_eq!(lower_bound_from(&s, n / 2, Value(n as u64 + 1)), n);
            // start clamped past the end
            assert_eq!(lower_bound_from(&s, n + 3, Value(0)), n);
        }
    }

    #[test]
    fn lower_bound_matches_partition_point_exhaustively() {
        // Every (slice length ≤ 9 over a tiny domain, start, needle):
        // galloping from any cursor agrees with std's partition_point.
        for len in 0..=9usize {
            let s: Vec<Value> = (0..len as u64).map(|i| Value(i / 2 + 1)).collect();
            for start in 0..=len + 1 {
                for v in 0..=(len as u64 / 2 + 2) {
                    let got = lower_bound_from(&s, start, Value(v));
                    let want = (start.min(len)
                        + s[start.min(len)..].partition_point(|&x| x < Value(v)))
                    .min(len);
                    assert_eq!(got, want, "len {len}, start {start}, v {v}");
                }
            }
        }
    }

    #[test]
    fn find_hits_and_misses() {
        let s = vals(&[2, 4, 4, 8]);
        assert_eq!(find(&s, Value(2)), Some(0));
        assert_eq!(find(&s, Value(4)), Some(1), "first occurrence");
        assert_eq!(find(&s, Value(8)), Some(3));
        assert_eq!(find(&s, Value(5)), None);
        assert_eq!(find(&s, Value(9)), None);
        assert_eq!(find(&[], Value(0)), None);
    }

    /// The naive two-pointer merge, kept as the oracle.
    fn naive_merge(a: &[Value], b: &[Value]) -> Vec<Value> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    #[test]
    fn intersect_edge_cases() {
        let e: Vec<Value> = Vec::new();
        assert_eq!(intersect(&e, &e), e);
        assert_eq!(intersect(&vals(&[1, 2]), &e), e);
        assert_eq!(intersect(&e, &vals(&[1, 2])), e);
        assert_eq!(intersect(&vals(&[5]), &vals(&[5])), vals(&[5]));
        assert_eq!(intersect(&vals(&[5]), &vals(&[6])), e);
        // duplicate at the boundary between merge windows
        assert_eq!(
            intersect(&vals(&[3, 3]), &vals(&[1, 2, 3, 3, 3, 4])),
            vals(&[3, 3])
        );
        // lopsided sizes: the larger side gallops
        let big: Vec<Value> = (0..200u64).map(Value).collect();
        assert_eq!(
            intersect(&vals(&[0, 99, 199, 500]), &big),
            vals(&[0, 99, 199])
        );
        assert_eq!(
            intersect(&big, &vals(&[0, 99, 199, 500])),
            vals(&[0, 99, 199])
        );
        // smaller side entirely past the larger side's end
        assert_eq!(intersect(&vals(&[900, 901]), &big), e);
    }

    #[test]
    fn intersect_matches_naive_merge_on_lopsided_inputs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for trial in 0..200 {
            let n_small = rng.gen_range(0..6usize);
            let n_large = rng.gen_range(50..120usize);
            let mut small: Vec<Value> =
                (0..n_small).map(|_| Value(rng.gen_range(0..150))).collect();
            let mut large: Vec<Value> =
                (0..n_large).map(|_| Value(rng.gen_range(0..150))).collect();
            small.sort_unstable();
            large.sort_unstable();
            assert_eq!(
                intersect(&small, &large),
                naive_merge(&small, &large),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn intersect_matches_naive_merge_on_comparable_inputs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        for trial in 0..200 {
            // Sizes within a factor of 8 of each other, over a domain
            // small enough for runs of duplicates on both sides.
            let n_a = rng.gen_range(6..48usize);
            let n_b = rng.gen_range(6..48usize);
            let mut a: Vec<Value> = (0..n_a).map(|_| Value(rng.gen_range(0..30))).collect();
            let mut b: Vec<Value> = (0..n_b).map(|_| Value(rng.gen_range(0..30))).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(intersect(&a, &b), naive_merge(&a, &b), "trial {trial}");
            assert_eq!(intersect(&b, &a), naive_merge(&b, &a), "trial {trial}");
        }
    }
}
