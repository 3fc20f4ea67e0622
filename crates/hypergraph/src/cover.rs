//! Fractional edge covers (paper §2).
//!
//! A point `x = (x_e)` in the fractional edge-cover polytope satisfies
//! `Σ_{e∋v} x_e ≥ 1` for every vertex `v` and `x ≥ 0`. The all-ones vector
//! is always feasible for query hypergraphs (every attribute appears in
//! some relation).

use crate::{HgError, Hypergraph};
use wcoj_rational::Rational;

/// Tolerance for `f64` cover feasibility checks.
pub const COVER_EPS: f64 = 1e-7;

/// Checks that `x` is a fractional edge cover of `h` (`f64`, tolerant).
///
/// # Errors
/// [`HgError::CoverArityMismatch`] or [`HgError::NotACover`].
pub fn validate_cover(h: &Hypergraph, x: &[f64]) -> Result<(), HgError> {
    if x.len() != h.num_edges() {
        return Err(HgError::CoverArityMismatch);
    }
    if x.iter().any(|&v| v < -COVER_EPS) {
        return Err(HgError::NotACover { vertex: usize::MAX });
    }
    for v in 0..h.num_vertices() {
        let total: f64 = (0..h.num_edges())
            .filter(|&e| h.edge_contains(e, v))
            .map(|e| x[e])
            .sum();
        if total < 1.0 - COVER_EPS {
            return Err(HgError::NotACover { vertex: v });
        }
    }
    Ok(())
}

/// The always-feasible all-ones cover (`x_e = 1`), paper §2.
#[must_use]
pub fn all_ones(h: &Hypergraph) -> Vec<f64> {
    vec![1.0; h.num_edges()]
}

/// Converts an exact cover to `f64`.
#[must_use]
pub fn to_f64(x: &[Rational]) -> Vec<f64> {
    x.iter().map(|r| r.to_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn all_ones_is_a_cover() {
        let h = triangle();
        assert!(validate_cover(&h, &all_ones(&h)).is_ok());
    }

    #[test]
    fn short_vectors_rejected() {
        let h = triangle();
        assert_eq!(validate_cover(&h, &[1.0]), Err(HgError::CoverArityMismatch));
    }

    #[test]
    fn insufficient_cover_rejected() {
        let h = triangle();
        assert_eq!(
            validate_cover(&h, &[0.4, 0.4, 0.4]),
            Err(HgError::NotACover { vertex: 0 })
        );
    }

    #[test]
    fn negative_entries_rejected() {
        let h = triangle();
        assert!(validate_cover(&h, &[-0.5, 2.0, 2.0]).is_err());
    }

    #[test]
    fn conversions() {
        let x = vec![Rational::ONE_HALF, Rational::ONE];
        let f = to_f64(&x);
        assert_eq!(f, vec![0.5, 1.0]);
    }
}
