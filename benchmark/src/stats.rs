//! Order statistics and hashing shared by the load generator, the tracer
//! and `compare`.

/// 64-bit FNV-1a. Used to compare response bodies against the oracle and
/// to fingerprint request sequences.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash over more bytes.
#[must_use]
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why [`percentile`] refused to answer.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// Samples supplied.
    pub have: usize,
    /// Smallest sample count at which `q` has ten samples beyond it.
    pub need: usize,
}

/// Samples that must lie beyond a reported percentile (choosing-metrics §1).
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice (the definition
/// `wcoj_obs::percentile_f64` uses), refused unless at least
/// [`SAMPLES_BEYOND`] samples lie strictly beyond the chosen rank.
///
/// # Errors
/// [`TooFewSamples`] when the tail is too thin to support `q`.
pub fn percentile(sorted: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + SAMPLES_BEYOND {
        let need = (SAMPLES_BEYOND as f64 / (1.0 - q.min(0.999))).ceil() as usize;
        return Err(TooFewSamples { have: n, need });
    }
    Ok(wcoj_obs::percentile_f64(sorted, q))
}

/// The highest of a fixed ladder of percentiles that `sorted` supports,
/// with the value there: `(q, value)`. Falls back to the maximum (`q = 1`)
/// for samples too few to support even the median, and to `(1, 0)` for none.
#[must_use]
pub fn highest_supported_percentile(sorted: &[f64], wanted: f64) -> (f64, f64) {
    for q in [wanted, 0.9, 0.75, 0.5] {
        if q <= wanted {
            if let Ok(v) = percentile(sorted, q) {
                return (q, v);
            }
        }
    }
    (1.0, sorted.last().copied().unwrap_or(0.0))
}

/// Median of unsorted values (mean of the middle pair for even counts);
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q.1)
}

/// `(q1, median, q3)` with the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` — the driver's definition of
/// spread. One value yields that value three times; `None` when empty.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let at = |k: usize| {
        // position k·(n+1)/4, 1-based, clamped into the sample
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Sorts ascending in place and returns the slice, for percentile calls.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // p95 of 199: rank 190, 9 beyond → refused
        let err = percentile(&v, 0.95).unwrap_err();
        assert_eq!(err.have, 199);
        assert_eq!(err.need, 200);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank ⌈190⌉ = 190, exactly 10 beyond
        assert_eq!(percentile(&v, 0.95), Ok(190.0));
        // the median needs 20
        assert!(percentile(&v[..19], 0.5).is_err());
        assert_eq!(percentile(&v[..20], 0.5), Ok(10.0));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn falls_back_to_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        // p95 needs 200, p90 needs 100
        assert_eq!(highest_supported_percentile(&v, 0.95), (0.9, 108.0));
        assert_eq!(highest_supported_percentile(&v[..5], 0.95), (1.0, 5.0));
        assert_eq!(highest_supported_percentile(&[], 0.95), (1.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
