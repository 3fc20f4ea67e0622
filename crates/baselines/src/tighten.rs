//! The constructive tight-cover transformation of **Lemma 3.2**.
//!
//! Given a hypergraph `H = (V, E)` and a fractional cover `x`, produce
//! `H' = (V, E')`, cover `x'` such that:
//!
//! * **(a)** `x'` is *tight*: `Σ_{e∋v} x'_e = 1` for every vertex `v`;
//! * **(b)** the joins agree: new edges are projections `π_{f_t}(R_f)` of
//!   original relations, so `⋈_{e∈E} R_e = ⋈_{e∈E'} R'_e`;
//! * **(c)** the AGM bound does not get worse:
//!   `∏_{e∈E'} |R'_e|^{x'_e} ≤ ∏_{e∈E} |R_e|^{x_e}` (projections are no
//!   larger than their sources).
//!
//! The implementation follows the paper's proof step-for-step, in exact
//! rational arithmetic: while some vertex is slack, pick an edge `f`
//! containing it with `x_f > 0`, split `f` into its tight part `f_t` and
//! slack part `f_{¬t}`, move `ρ = min(x_f, min_slack)` of `f`'s weight onto
//! the new edge `f_t`. Each step either zeroes a variable or tightens a
//! vertex, so at most `|V| + |E|` steps occur.
//!
//! The exact-rational cover checks it needs ([`validate_cover_exact`],
//! [`is_tight_cover`]) and the uniform Loomis–Whitney cover
//! ([`lw_uniform`]) live here too: a served query checks its cover in
//! `f64` only (`wcoj_hypergraph::cover::validate_cover`).

use wcoj_hypergraph::{HgError, Hypergraph};
use wcoj_rational::Rational;

/// Where each edge of the tightened instance came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Edge `i` of the original hypergraph, unchanged.
    Original(usize),
    /// A new edge whose relation is the projection of original relation
    /// `source` onto the new edge's vertex set.
    Projection {
        /// Original edge index to project.
        source: usize,
    },
}

/// Output of the Lemma 3.2 transformation.
#[derive(Debug, Clone)]
pub struct TightInstance {
    /// The enlarged hypergraph `H' = (V, E ∪ {new projection edges})`.
    pub hypergraph: Hypergraph,
    /// The tight cover `x'` (indexed like `hypergraph.edges()`).
    pub cover: Vec<Rational>,
    /// Provenance per edge of `hypergraph`.
    pub provenance: Vec<Provenance>,
}

/// Runs the transformation.
///
/// # Errors
/// * cover validation errors if `x` is not a cover of `h`;
/// * [`HgError::Lp`] on rational overflow (not expected for real covers).
pub fn tighten(h: &Hypergraph, x: &[Rational]) -> Result<TightInstance, HgError> {
    validate_cover_exact(h, x)?;
    let n = h.num_vertices();

    // Working state: edges + weights + provenance, extended as we split.
    let mut edges: Vec<Vec<usize>> = h.edges().to_vec();
    let mut weights: Vec<Rational> = x.to_vec();
    let mut prov: Vec<Provenance> = (0..edges.len()).map(Provenance::Original).collect();
    // Which original relation each working edge projects from (for new
    // edges created by splitting an edge that is itself new).
    let mut source: Vec<usize> = (0..edges.len()).collect();

    let slack = |edges: &[Vec<usize>], weights: &[Rational], v: usize| -> Rational {
        let mut s = -Rational::ONE;
        for (e, w) in edges.iter().zip(weights) {
            if e.binary_search(&v).is_ok() {
                s += *w;
            }
        }
        s
    };

    let max_steps = 4 * (n + edges.len()) + 8;
    for _ in 0..max_steps {
        // A vertex whose constraint is not tight?
        let Some(v) = (0..n).find(|&v| slack(&edges, &weights, v).is_positive()) else {
            break;
        };
        // An edge with positive weight containing v (exists: the constraint
        // sum is ≥ 1 > 0).
        let f = (0..edges.len())
            .find(|&f| weights[f].is_positive() && edges[f].binary_search(&v).is_ok())
            .ok_or_else(|| {
                HgError::StructureViolation("slack vertex with no positive edge".into())
            })?;

        // Partition f into tight and non-tight vertices.
        let (ft, fnt): (Vec<usize>, Vec<usize>) = edges[f]
            .iter()
            .copied()
            .partition(|&u| slack(&edges, &weights, u).is_zero());
        debug_assert!(fnt.contains(&v));
        let min_slack = fnt
            .iter()
            .map(|&u| slack(&edges, &weights, u))
            .min()
            .expect("fnt contains v");
        let rho = weights[f].min(min_slack);
        debug_assert!(rho.is_positive());

        if !ft.is_empty() {
            // New edge f_t carries weight ρ, relation π_{f_t}(R_{source(f)}).
            edges.push(ft);
            weights.push(rho);
            prov.push(Provenance::Projection { source: source[f] });
            source.push(source[f]);
        }
        // (f_t empty ⇒ no tight vertex loses weight; just shrink x_f.)
        weights[f] -= rho;
    }

    let hypergraph = Hypergraph::new(n, edges).expect("vertices unchanged");
    if !is_tight_cover(&hypergraph, &weights) {
        return Err(HgError::StructureViolation(
            "tightening did not converge".into(),
        ));
    }
    Ok(TightInstance {
        hypergraph,
        cover: weights,
        provenance: prov,
    })
}

/// Property (c) of the lemma as a checkable statement: the tightened
/// instance's AGM bound (using projected sizes) is no worse.
///
/// `orig_sizes[i]` is `|R_{e_i}|`; `proj_size(source, edge_vertices)` must
/// return `|π_{edge}(R_source)|`.
#[must_use]
pub fn bound_not_worse(
    t: &TightInstance,
    orig_sizes: &[usize],
    orig_cover: &[Rational],
    proj_size: impl Fn(usize, &[usize]) -> usize,
) -> bool {
    let mut new_log = 0f64;
    for (i, p) in t.provenance.iter().enumerate() {
        let size = match p {
            Provenance::Original(j) => orig_sizes[*j],
            Provenance::Projection { source } => proj_size(*source, t.hypergraph.edge(i)),
        };
        new_log += t.cover[i].to_f64() * (size.max(1) as f64).log2();
    }
    let old_log: f64 = orig_sizes
        .iter()
        .zip(orig_cover)
        .map(|(&n, x)| x.to_f64() * (n.max(1) as f64).log2())
        .sum();
    new_log <= old_log + 1e-6
}

/// Exact-rational cover check.
///
/// # Errors
/// [`HgError::CoverArityMismatch`] or [`HgError::NotACover`].
pub fn validate_cover_exact(h: &Hypergraph, x: &[Rational]) -> Result<(), HgError> {
    if x.len() != h.num_edges() {
        return Err(HgError::CoverArityMismatch);
    }
    if x.iter().any(|v| v.is_negative()) {
        return Err(HgError::NotACover { vertex: usize::MAX });
    }
    for v in 0..h.num_vertices() {
        let mut total = Rational::ZERO;
        for (e, xe) in x.iter().enumerate() {
            if h.edge_contains(e, v) {
                total = total
                    .checked_add(*xe)
                    .ok_or_else(|| HgError::Lp("overflow summing cover".into()))?;
            }
        }
        if total < Rational::ONE {
            return Err(HgError::NotACover { vertex: v });
        }
    }
    Ok(())
}

/// `true` iff every vertex's constraint holds with *equality* — the "tight"
/// covers produced by Lemma 3.2.
#[must_use]
pub fn is_tight_cover(h: &Hypergraph, x: &[Rational]) -> bool {
    if validate_cover_exact(h, x).is_err() {
        return false;
    }
    (0..h.num_vertices()).all(|v| {
        let mut total = Rational::ZERO;
        for (e, xe) in x.iter().enumerate() {
            if h.edge_contains(e, v) {
                total += *xe;
            }
        }
        total == Rational::ONE
    })
}

/// The uniform LW cover `x_e = 1/(n−1)` for a Loomis–Whitney instance.
#[must_use]
pub fn lw_uniform(h: &Hypergraph) -> Vec<Rational> {
    let n = h.num_vertices() as i128;
    vec![Rational::new(1, n - 1); h.num_edges()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn half_cover_is_tight_for_triangle() {
        let h = triangle();
        let half = vec![Rational::ONE_HALF; 3];
        assert!(validate_cover_exact(&h, &half).is_ok());
        assert!(is_tight_cover(&h, &half));
        // all-ones is a cover but not tight
        let ones = vec![Rational::ONE; 3];
        assert!(validate_cover_exact(&h, &ones).is_ok());
        assert!(!is_tight_cover(&h, &ones));
    }

    #[test]
    fn insufficient_cover_rejected() {
        let h = triangle();
        let third = Rational::new(1, 3);
        assert_eq!(
            validate_cover_exact(&h, &[third, third, third]),
            Err(HgError::NotACover { vertex: 0 })
        );
    }

    #[test]
    fn negative_entries_rejected() {
        let h = triangle();
        assert!(validate_cover_exact(
            &h,
            &[-Rational::ONE, Rational::from_int(2), Rational::from_int(2)]
        )
        .is_err());
    }

    #[test]
    fn lw_uniform_covers_lw_instances() {
        // n = 4 LW instance
        let h = Hypergraph::new(
            4,
            vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]],
        )
        .unwrap();
        let x = lw_uniform(&h);
        assert_eq!(x[0], Rational::new(1, 3));
        assert!(validate_cover_exact(&h, &x).is_ok());
        assert!(is_tight_cover(&h, &x));
    }

    #[test]
    fn already_tight_is_untouched() {
        let h = triangle();
        let x = vec![Rational::ONE_HALF; 3];
        let t = tighten(&h, &x).unwrap();
        assert_eq!(t.hypergraph.num_edges(), 3);
        assert_eq!(t.cover, x);
        assert!(t
            .provenance
            .iter()
            .all(|p| matches!(p, Provenance::Original(_))));
    }

    #[test]
    fn all_ones_triangle_tightens() {
        let h = triangle();
        let x = vec![Rational::ONE; 3];
        let t = tighten(&h, &x).unwrap();
        assert!(is_tight_cover(&t.hypergraph, &t.cover));
        // join unchanged structurally: original edges all kept (weights may
        // drop to zero).
        for i in 0..3 {
            assert_eq!(t.hypergraph.edge(i), h.edge(i));
        }
        // bound not worse with the worst-case projection size (= source).
        assert!(bound_not_worse(&t, &[100, 100, 100], &x, |s, _| [
            100, 100, 100
        ][s]));
    }

    #[test]
    fn path_with_slack_middle_vertex() {
        // R(A,B), S(B,C) with x = (1, 1): B has slack 1.
        let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2]]).unwrap();
        let t = tighten(&h, &[Rational::ONE, Rational::ONE]).unwrap();
        assert!(is_tight_cover(&t.hypergraph, &t.cover));
        // Expect a projection edge {0} or {2} (the tight part of an edge).
        assert!(t.hypergraph.num_edges() >= 3);
        assert!(t
            .provenance
            .iter()
            .any(|p| matches!(p, Provenance::Projection { .. })));
    }

    #[test]
    fn lw_uniform_already_tight() {
        for n in 3..6usize {
            let edges: Vec<Vec<usize>> = (0..n)
                .map(|omit| (0..n).filter(|&v| v != omit).collect())
                .collect();
            let h = Hypergraph::new(n, edges).unwrap();
            let x = lw_uniform(&h);
            let t = tighten(&h, &x).unwrap();
            assert_eq!(t.cover, x, "LW uniform cover is already tight");
        }
    }

    #[test]
    fn rejects_non_cover() {
        let h = triangle();
        assert!(tighten(&h, &[Rational::ZERO; 3]).is_err());
    }

    #[test]
    fn random_covers_tighten_correctly() {
        // Deterministic pseudo-random overweight covers on assorted shapes.
        let shapes: Vec<Hypergraph> = vec![
            triangle(),
            Hypergraph::new(4, vec![vec![0, 1, 2], vec![2, 3], vec![0, 3], vec![1, 3]]).unwrap(),
            Hypergraph::new(
                5,
                vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![0, 4]],
            )
            .unwrap(),
        ];
        for (si, h) in shapes.iter().enumerate() {
            for k in 1..6i128 {
                // overweight cover: 1 + k/7 on every edge
                let x = vec![Rational::ONE + Rational::new(k, 7); h.num_edges()];
                let t = tighten(h, &x).unwrap();
                assert!(is_tight_cover(&t.hypergraph, &t.cover), "shape {si}, k={k}");
                // every original edge kept, with weight ≤ original
                for (i, xi) in x.iter().enumerate().take(h.num_edges()) {
                    assert_eq!(t.hypergraph.edge(i), h.edge(i));
                    assert!(t.cover[i] <= *xi);
                }
                // provenance sources are valid original edges
                for p in &t.provenance {
                    match p {
                        Provenance::Original(j) => assert!(*j < h.num_edges()),
                        Provenance::Projection { source } => assert!(*source < h.num_edges()),
                    }
                }
                // projection edges are subsets of their source edge
                for (i, p) in t.provenance.iter().enumerate() {
                    if let Provenance::Projection { source } = p {
                        let e = t.hypergraph.edge(i);
                        // subset of source edge's *original* vertex set is
                        // not guaranteed after recursive splits, but it is
                        // always a subset of the source's closure here
                        // because splits only shrink vertex sets:
                        assert!(e.iter().all(|v| h.edge(*source).contains(v)));
                    }
                }
            }
        }
    }
}
