//! # wcoj-obs — std-only observability primitives
//!
//! The worst-case-optimal guarantees of the NPRR engine (PODS 2012) are
//! *work bounds*; this crate makes the work **visible**. It sits at the
//! bottom of the workspace dependency graph — no dependencies at all,
//! `std` only — so every layer (`wcoj-exec`'s planner, `wcoj-service`'s
//! scheduler, the repo's `benchmark/`) can instrument itself without cycles,
//! and a future network server can link it alone for a `/metrics`
//! endpoint.
//!
//! Two pieces:
//!
//! * `metrics` — a process-wide [`Registry`] of atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log2 [`Histogram`]s, with a
//!   [`Registry::render_prometheus`] text exposition (validated by
//!   [`check_exposition`]). Hot-path cost is one atomic RMW per update;
//!   registration (the only lock) happens once per metric name.
//! * [`percentile_f64`] / [`percentile_u64`] — the **one** percentile
//!   definition (nearest-rank) shared by raw-sample consumers (the
//!   benchmark's latency percentiles) and [`Histogram::quantile`] (the
//!   service's `wcoj_task_queue_wait_us`, which the benchmark reads as
//!   `service.queue_wait_us`), so the two can never disagree about what
//!   "p99" means.
//!
//! Instrumentation contract (enforced by the users of this crate, stated
//! here as the design rule): *zero allocation on the hot path, timestamps
//! at task granularity only — never per tuple.*

mod metrics;

pub use metrics::{
    check_exposition, global, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    HISTOGRAM_BUCKETS,
};

/// Nearest-rank percentile of an **ascending-sorted** slice: the smallest
/// element whose rank is ≥ `⌈q·n⌉` (with `q` in `[0, 1]`). This is the
/// workspace-wide percentile definition — [`Histogram::quantile`] computes
/// the same rank over bucket counts, so histogram and raw-sample
/// percentiles agree up to bucket resolution.
///
/// Unlike the interpolating `(n-1)·q` floor-index formula it replaced in
/// the bench harness, nearest-rank is unbiased at small `n`: the p99 of 10
/// samples is the maximum (rank `⌈9.9⌉ = 10`), not the second-largest.
///
/// Returns `0.0` for an empty slice; `q ≤ 0` yields the minimum, `q ≥ 1`
/// the maximum.
#[must_use]
pub fn percentile_f64(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    if q >= 1.0 {
        return last;
    }
    let rank = (q.max(0.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile_f64`] for integer samples (same nearest-rank definition).
#[must_use]
pub fn percentile_u64(sorted: &[u64], q: f64) -> u64 {
    let Some(&last) = sorted.last() else {
        return 0;
    };
    if q >= 1.0 {
        return last;
    }
    let rank = (q.max(0.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_small_n() {
        let v: Vec<u64> = (1..=10).collect();
        // the historical bias case: p99 of 10 samples is the max
        assert_eq!(percentile_u64(&v, 0.99), 10);
        assert_eq!(percentile_u64(&v, 0.50), 5); // ⌈5.0⌉ = rank 5
        assert_eq!(percentile_u64(&v, 0.51), 6); // ⌈5.1⌉ = rank 6
        assert_eq!(percentile_u64(&v, 0.0), 1);
        assert_eq!(percentile_u64(&v, 1.0), 10);
        assert_eq!(percentile_u64(&[], 0.5), 0);
        assert_eq!(percentile_u64(&[7], 0.99), 7);
        let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
        assert_eq!(percentile_f64(&f, 0.99), 10.0);
        assert_eq!(percentile_f64(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_and_raw_percentile_agree() {
        // Samples placed exactly on bucket upper bounds: the histogram
        // quantile must reproduce the raw nearest-rank percentile.
        let samples: Vec<u64> = vec![0, 1, 1, 3, 3, 3, 7, 7, 15, 31];
        let h = Histogram::new();
        for &s in &samples {
            h.observe(s);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(
                h.quantile(q),
                percentile_u64(&samples, q),
                "q={q} disagrees"
            );
        }
    }
}
