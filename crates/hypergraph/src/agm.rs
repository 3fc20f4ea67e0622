//! The AGM fractional-cover bound and its optimising LP (paper §2).
//!
//! For a query hypergraph `H = (V, E)`, relation sizes `N_e`, and any
//! fractional edge cover `x`, inequality (2) of the paper bounds the join:
//!
//! ```text
//! |⋈_{e∈E} R_e|  ≤  ∏_{e∈E} N_e^{x_e}
//! ```
//!
//! The best bound minimises `Σ_e (log N_e)·x_e` over the cover polytope.
//! This module builds that LP and solves it once, with the `f64` simplex;
//! the engine runs that vertex. On demand ([`CoverSolution::exact`]) the
//! same vertex is recovered exactly from the simplex's final basis (the
//! constraints are 0/1 with right-hand side 1, so that basis system is
//! exact), so its support and half-integrality are exact facts about the
//! cover the engine runs. Planning never asks for it.

use crate::cover::{validate_cover, COVER_EPS};
use crate::{HgError, Hypergraph};
use wcoj_lp::{solve, LinearProgram, Solution, Status};
use wcoj_rational::Rational;

/// An optimal fractional cover with its AGM bound.
#[derive(Debug, Clone)]
pub struct CoverSolution {
    /// Cover weights per edge (`f64`).
    pub x: Vec<f64>,
    /// `log₂` of the AGM bound `∏ N_e^{x_e}`.
    pub log2_bound: f64,
    /// The simplex's solution, whose final basis [`CoverSolution::exact`]
    /// solves again in exact arithmetic.
    lp: Solution,
}

impl CoverSolution {
    /// The AGM bound as an `f64` (may be `inf` for astronomically large
    /// bounds; prefer [`CoverSolution::log2_bound`] for comparisons).
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.log2_bound.exp2()
    }

    /// The vertex `x` in exact arithmetic, solved from the simplex's final
    /// basis when asked for: a vertex of the cover polytope with `x` as
    /// its `f64` image, so the same vertex the engine runs.
    ///
    /// # Errors
    /// [`HgError::Lp`] if the basis solve overflows or the basis is not an
    /// exact vertex.
    pub fn exact(&self) -> Result<Vec<Rational>, HgError> {
        self.lp
            .exact_vertex()
            .map_err(|e| HgError::Lp(e.to_string()))
    }

    /// Support of the exact vertex — `BFS(S)` in the paper's §7.2 notation.
    ///
    /// # Errors
    /// As [`CoverSolution::exact`].
    pub fn support(&self) -> Result<Vec<usize>, HgError> {
        Ok(self
            .exact()?
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_positive())
            .map(|(i, _)| i)
            .collect())
    }
}

/// Builds the fractional-edge-cover LP `min Σ (log₂ N_e)·x_e` for `h`.
///
/// Sizes `N_e` are clamped to ≥ 1 (the paper assumes non-empty relations;
/// an empty relation makes the whole join empty and is handled upstream).
#[must_use]
pub fn cover_lp(h: &Hypergraph, sizes: &[usize]) -> LinearProgram {
    let weights: Vec<f64> = sizes.iter().map(|&n| (n.max(1) as f64).log2()).collect();
    let mut lp = LinearProgram::minimize(weights);
    for v in 0..h.num_vertices() {
        let coeffs: Vec<f64> = (0..h.num_edges())
            .map(|e| if h.edge_contains(e, v) { 1.0 } else { 0.0 })
            .collect();
        lp.ge(coeffs, 1.0);
    }
    lp
}

/// Solves the cover LP for `h` with sizes `N_e`, returning the optimal
/// cover and the AGM bound.
///
/// # Errors
/// * [`HgError::CoverArityMismatch`] if `sizes` has the wrong length;
/// * [`HgError::UncoveredVertex`] if some vertex is in no edge (the LP
///   would be infeasible);
/// * [`HgError::Lp`] on solver failure.
pub fn optimal_cover(h: &Hypergraph, sizes: &[usize]) -> Result<CoverSolution, HgError> {
    if sizes.len() != h.num_edges() {
        return Err(HgError::CoverArityMismatch);
    }
    if let Some(&v) = h.uncovered_vertices().first() {
        return Err(HgError::UncoveredVertex(v));
    }
    let lp = cover_lp(h, sizes);
    let sol = solve(&lp).map_err(|e| HgError::Lp(e.to_string()))?;
    if sol.status != Status::Optimal {
        return Err(HgError::Lp(format!("unexpected status {:?}", sol.status)));
    }
    debug_assert!(validate_cover(h, &sol.x).is_ok());
    Ok(CoverSolution {
        x: sol.x.clone(),
        log2_bound: log2_bound(sizes, &sol.x),
        lp: sol,
    })
}

/// `log₂ ∏ N_e^{x_e} = Σ x_e log₂ N_e` for an arbitrary cover vector.
#[must_use]
pub fn log2_bound(sizes: &[usize], x: &[f64]) -> f64 {
    sizes
        .iter()
        .zip(x)
        .map(|(&n, &xe)| xe * (n.max(1) as f64).log2())
        .sum()
}

/// The AGM bound `∏ N_e^{x_e}` for a given cover (validates the cover).
///
/// # Errors
/// Propagates cover validation failures.
pub fn agm_bound(h: &Hypergraph, sizes: &[usize], x: &[f64]) -> Result<f64, HgError> {
    if sizes.len() != h.num_edges() {
        return Err(HgError::CoverArityMismatch);
    }
    validate_cover(h, x)?;
    Ok(log2_bound(sizes, x).exp2())
}

/// Convenience: the best AGM bound for `h` with sizes `N_e`.
///
/// # Errors
/// Same as [`optimal_cover`].
pub fn best_bound(h: &Hypergraph, sizes: &[usize]) -> Result<f64, HgError> {
    Ok(optimal_cover(h, sizes)?.bound())
}

/// Checks the AGM inequality for a concrete output size: `out ≤ ∏N^x`
/// (with a small multiplicative tolerance for `f64` rounding).
#[must_use]
pub fn within_bound(out_size: usize, log2_bound: f64) -> bool {
    if out_size == 0 {
        return true;
    }
    (out_size as f64).log2() <= log2_bound + COVER_EPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_lp::F64_EPS;

    fn triangle() -> Hypergraph {
        Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn triangle_bound_is_n_to_three_halves() {
        let h = triangle();
        let n = 10_000usize;
        let sol = optimal_cover(&h, &[n, n, n]).unwrap();
        // optimal cover (1/2, 1/2, 1/2); bound N^{3/2} = 10^6.
        for v in &sol.x {
            assert!((v - 0.5).abs() < 1e-6);
        }
        assert_eq!(sol.exact().unwrap(), vec![Rational::ONE_HALF; 3]);
        assert!((sol.bound() - 1e6).abs() / 1e6 < 1e-6);
        assert_eq!(sol.support().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn skewed_sizes_drop_expensive_edge() {
        // |R|=|S|=10, |T|=10^6: cheaper to take x_R = x_S = 1, x_T = 0
        // (bound 100) than to use T at all.
        let h = triangle();
        let sol = optimal_cover(&h, &[10, 10, 1_000_000]).unwrap();
        assert!((sol.bound() - 100.0).abs() < 1e-6);
        assert_eq!(sol.support().unwrap(), vec![0, 1]);
        assert_eq!(sol.exact().unwrap()[2], Rational::ZERO);
    }

    #[test]
    fn lw4_bound() {
        // n=4 LW, all sizes N: bound N^{4/3}.
        let h = Hypergraph::new(
            4,
            vec![vec![1, 2, 3], vec![0, 2, 3], vec![0, 1, 3], vec![0, 1, 2]],
        )
        .unwrap();
        let n = 1000usize;
        let sol = optimal_cover(&h, &[n, n, n, n]).unwrap();
        assert_eq!(sol.exact().unwrap(), vec![Rational::new(1, 3); 4]);
        let expect = (n as f64).powf(4.0 / 3.0);
        assert!((sol.bound() - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn size_one_relations_cost_nothing() {
        let h = triangle();
        let sol = optimal_cover(&h, &[1, 1, 1]).unwrap();
        assert!((sol.bound() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn errors_on_bad_input() {
        let h = triangle();
        assert!(matches!(
            optimal_cover(&h, &[1, 2]),
            Err(HgError::CoverArityMismatch)
        ));
        let disconnected = Hypergraph::new(3, vec![vec![0, 1]]).unwrap();
        assert!(matches!(
            optimal_cover(&disconnected, &[5]),
            Err(HgError::UncoveredVertex(2))
        ));
    }

    #[test]
    fn agm_bound_validates_cover() {
        let h = triangle();
        assert!(agm_bound(&h, &[10, 10, 10], &[0.1, 0.1, 0.1]).is_err());
        let b = agm_bound(&h, &[10, 10, 10], &[1.0, 1.0, 0.0]).unwrap();
        assert!((b - 100.0).abs() < 1e-9);
    }

    #[test]
    fn within_bound_tolerances() {
        assert!(within_bound(0, -100.0));
        assert!(within_bound(1000, 3.0f64.log2() + 10.0));
        assert!(!within_bound(1000, 5.0));
        assert!(within_bound(1024, 10.0)); // exactly 2^10
    }

    #[test]
    fn cover_lp_shape() {
        let h = triangle();
        let lp = cover_lp(&h, &[4, 4, 4]);
        assert_eq!(lp.num_vars(), 3);
        assert_eq!(lp.num_constraints(), 3);
        assert_eq!(lp.objective(), &[2.0, 2.0, 2.0]); // log2(4) = 2
    }

    #[test]
    fn path_query_integral_cover() {
        // R(A,B) ⋈ S(B,C): optimal cover is x=(1,1) … but wait, B is
        // covered twice; x=(1,1) has bound N². Can we do better? No cover
        // with x_R + x_S < 2 covers both A (only R) and C (only S) — both
        // constraints force x_R ≥ 1 and x_S ≥ 1. AGM bound N·M.
        let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2]]).unwrap();
        let sol = optimal_cover(&h, &[100, 50]).unwrap();
        assert_eq!(sol.exact().unwrap(), vec![Rational::ONE, Rational::ONE]);
        assert!((sol.bound() - 5000.0).abs() < 1e-6);
    }

    /// `sol.exact()` is an exactly feasible cover, equals `x` within the
    /// simplex's tolerance, has `x`'s support and gives `x`'s bound.
    fn assert_exact_is_x(h: &Hypergraph, sizes: &[usize], sol: &CoverSolution, case: &str) {
        let exact = sol.exact().unwrap();
        assert!(exact.iter().all(|v| !v.is_negative()), "{case}");
        for v in 0..h.num_vertices() {
            let covered = (0..h.num_edges())
                .filter(|&e| h.edge_contains(e, v))
                .fold(Rational::ZERO, |acc, e| acc + exact[e]);
            assert!(covered >= Rational::ONE, "{case}: vertex {v} uncovered");
        }
        let exact = crate::cover::to_f64(&exact);
        for (a, b) in exact.iter().zip(&sol.x) {
            assert!((a - b).abs() <= F64_EPS, "{case}: {exact:?} vs {:?}", sol.x);
        }
        let x_support: Vec<usize> = (0..sol.x.len()).filter(|&e| sol.x[e] > F64_EPS).collect();
        assert_eq!(sol.support().unwrap(), x_support, "{case}");
        assert!(
            (log2_bound(sizes, &exact) - sol.log2_bound).abs() < 1e-9,
            "{case}"
        );
    }

    #[test]
    fn five_cycle_tie_exact_is_the_engine_vertex() {
        // 2000 · 4000 = 200³, so all-½ and (1, 0, 1, 0, 1) tie at 3·log₂ 200.
        // The exact vertex must be the one the simplex (and the engine) took.
        let h = Hypergraph::new(5, (0..5).map(|i| vec![i, (i + 1) % 5]).collect()).unwrap();
        let sizes = [200, 2000, 200, 4000, 200];
        let sol = optimal_cover(&h, &sizes).unwrap();
        assert_exact_is_x(&h, &sizes, &sol, "5-cycle tie");
    }

    #[test]
    fn exact_vertex_is_x_on_random_hypergraphs() {
        use rand::{Rng, SeedableRng};
        // Sizes whose products coincide (200³ = 2000·4000, 200² = 20·2000,
        // 8000 = 20·400) make ties between optimal vertices common.
        const TIE_SIZES: [usize; 10] = [1, 2, 16, 20, 200, 400, 2000, 4000, 8000, 40_000];
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for case in 0..10_000 {
            let n = rng.gen_range(2..=7usize);
            let m = rng.gen_range(2..=7usize);
            let mut edges: Vec<Vec<usize>> = if rng.gen_bool(0.4) {
                // A graph: pairs along a shuffled vertex order cover every
                // vertex, then random pairs up to m edges.
                let mut order: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let mut edges: Vec<Vec<usize>> = order
                    .chunks(2)
                    .map(|c| vec![c[0], *c.get(1).unwrap_or(&order[0])])
                    .collect();
                while edges.len() < m {
                    let a = rng.gen_range(0..n);
                    edges.push(vec![a, (a + rng.gen_range(1..n)) % n]);
                }
                edges
            } else {
                let mut edges: Vec<Vec<usize>> = (0..m)
                    .map(|_| (0..n).filter(|_| rng.gen_bool(0.5)).collect())
                    .collect();
                for v in 0..n {
                    if !edges.iter().any(|e| e.contains(&v)) {
                        edges[rng.gen_range(0..m)].push(v);
                    }
                }
                edges
            };
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..=i));
            }
            let h = Hypergraph::new(n, edges).unwrap();
            let tie_heavy = rng.gen_bool(0.5);
            let sizes: Vec<usize> = (0..h.num_edges())
                .map(|_| {
                    if tie_heavy {
                        TIE_SIZES[rng.gen_range(0..TIE_SIZES.len())]
                    } else {
                        rng.gen_range(1..100_000)
                    }
                })
                .collect();
            let sol = optimal_cover(&h, &sizes).unwrap();
            assert_exact_is_x(&h, &sizes, &sol, &format!("case {case}: {h:?} {sizes:?}"));
        }
    }
}

#[cfg(test)]
mod dual_tests {
    use super::*;

    /// The dual of the cover LP: `max Σ_v y_v` subject to
    /// `Σ_{v∈e} y_v ≤ log₂ N_e` and `y ≥ 0` — Gottlob–Lee–Valiant's
    /// **coloring number** in the uniform-size case (the paper's related
    /// work). By LP duality its optimum equals the optimal cover objective,
    /// so `2^{coloring}` is again the AGM bound; the tests below
    /// use it as a strong-duality cross-check.
    fn dual_assignment(h: &Hypergraph, sizes: &[usize]) -> Result<DualSolution, HgError> {
        if sizes.len() != h.num_edges() {
            return Err(HgError::CoverArityMismatch);
        }
        if let Some(&v) = h.uncovered_vertices().first() {
            return Err(HgError::UncoveredVertex(v));
        }
        // maximise Σ y_v  ⇔  minimise Σ (−1)·y_v
        let n = h.num_vertices();
        let mut lp = wcoj_lp::LinearProgram::minimize(vec![-1.0; n]);
        debug_assert_eq!(sizes.len(), h.num_edges());
        for (e, &size) in sizes.iter().enumerate() {
            let coeffs: Vec<f64> = (0..n)
                .map(|v| if h.edge_contains(e, v) { 1.0 } else { 0.0 })
                .collect();
            lp.le(coeffs, (size.max(1) as f64).log2());
        }
        let sol = solve(&lp).map_err(|e| HgError::Lp(e.to_string()))?;
        if sol.status != Status::Optimal {
            return Err(HgError::Lp(format!(
                "dual: unexpected status {:?}",
                sol.status
            )));
        }
        Ok(DualSolution {
            y: sol.x,
            coloring_number_log2: -sol.objective,
        })
    }

    /// Optimal dual (vertex) weights for the cover LP.
    struct DualSolution {
        /// Per-vertex dual weight `y_v ≥ 0`.
        y: Vec<f64>,
        /// `Σ y_v` = the GLV coloring number (in `log₂` scale) = `log₂` of the
        /// AGM bound, by strong duality.
        coloring_number_log2: f64,
    }

    fn triangle() -> Hypergraph {
        Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn strong_duality_on_triangle() {
        let h = triangle();
        let sizes = [64usize, 64, 64];
        let primal = optimal_cover(&h, &sizes).unwrap();
        let dual = dual_assignment(&h, &sizes).unwrap();
        assert!(
            (primal.log2_bound - dual.coloring_number_log2).abs() < 1e-6,
            "strong duality: {} vs {}",
            primal.log2_bound,
            dual.coloring_number_log2
        );
        // uniform triangle: y = (log N)/2 per vertex
        for y in &dual.y {
            assert!((y - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn strong_duality_random_shapes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for trial in 0..20 {
            let n = rng.gen_range(2..6usize);
            let m = rng.gen_range(2..6usize);
            let mut edges: Vec<Vec<usize>> = (0..m)
                .map(|_| (0..n).filter(|_| rng.gen_bool(0.5)).collect())
                .collect();
            for v in 0..n {
                if !edges.iter().any(|e| e.contains(&v)) {
                    let k = rng.gen_range(0..m);
                    edges[k].push(v);
                }
            }
            let h = Hypergraph::new(n, edges).unwrap();
            let sizes: Vec<usize> = (0..m).map(|_| rng.gen_range(1..1000)).collect();
            let primal = optimal_cover(&h, &sizes).unwrap();
            let dual = dual_assignment(&h, &sizes).unwrap();
            assert!(
                (primal.log2_bound - dual.coloring_number_log2).abs() < 1e-6,
                "trial {trial}: strong duality violated"
            );
            // dual feasibility
            for (e, &size) in sizes.iter().enumerate().take(m) {
                let lhs: f64 = h.edge(e).iter().map(|&v| dual.y[v]).sum();
                assert!(lhs <= (size.max(1) as f64).log2() + 1e-6, "trial {trial}");
            }
        }
    }

    #[test]
    fn dual_errors_mirror_primal() {
        let h = triangle();
        assert!(matches!(
            dual_assignment(&h, &[1, 2]),
            Err(HgError::CoverArityMismatch)
        ));
        let disc = Hypergraph::new(3, vec![vec![0, 1]]).unwrap();
        assert!(matches!(
            dual_assignment(&disc, &[5]),
            Err(HgError::UncoveredVertex(2))
        ));
    }
}
