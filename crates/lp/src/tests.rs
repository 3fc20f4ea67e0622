use crate::*;
use proptest::prelude::*;
use wcoj_rational::Rational;

/// `Σ_i x_i` in exact arithmetic.
fn exact_sum(x: &[Rational]) -> Rational {
    x.iter().fold(Rational::ZERO, |acc, &v| acc + v)
}

fn r(n: i128, d: i128) -> Rational {
    Rational::new(n, d)
}

#[test]
fn doc_example() {
    let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
    lp.ge(vec![1.0, 2.0], 2.0);
    lp.ge(vec![3.0, 1.0], 3.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 1.4).abs() < 1e-9);
    assert!((sol.x[0] - 0.8).abs() < 1e-9);
    assert!((sol.x[1] - 0.6).abs() < 1e-9);
}

#[test]
fn triangle_cover_lp_f64() {
    // The motivating example of the paper: triangle query, equal sizes.
    // min x_R + x_S + x_T  s.t. each attribute covered:
    //   A: x_R + x_T ≥ 1, B: x_R + x_S ≥ 1, C: x_S + x_T ≥ 1.
    // Optimum (1/2, 1/2, 1/2), objective 3/2.
    let mut lp = LinearProgram::minimize(vec![1.0, 1.0, 1.0]);
    lp.ge(vec![1.0, 0.0, 1.0], 1.0);
    lp.ge(vec![1.0, 1.0, 0.0], 1.0);
    lp.ge(vec![0.0, 1.0, 1.0], 1.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 1.5).abs() < 1e-9);
    for v in &sol.x {
        assert!((v - 0.5).abs() < 1e-9);
    }
}

#[test]
fn triangle_cover_lp_exact() {
    // The same LP's vertex recovered exactly from the f64 basis: exactly
    // (1/2, 1/2, 1/2) — the half-integrality of Lemma 7.2 witnessed exactly.
    let mut lp = LinearProgram::minimize(vec![1.0, 1.0, 1.0]);
    lp.ge(vec![1.0, 0.0, 1.0], 1.0);
    lp.ge(vec![1.0, 1.0, 0.0], 1.0);
    lp.ge(vec![0.0, 1.0, 1.0], 1.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    let exact = sol.exact_vertex().unwrap();
    assert_eq!(exact, vec![Rational::ONE_HALF; 3]);
    assert_eq!(exact_sum(&exact), r(3, 2));
    assert_eq!(sol.support(), vec![0, 1, 2]);
}

#[test]
fn le_constraints_and_degenerate_start() {
    // min -x - y s.t. x ≤ 2, y ≤ 3, x + y ≤ 4  → optimum -4 on a face.
    let mut lp = LinearProgram::minimize(vec![-1.0, -1.0]);
    lp.le(vec![1.0, 0.0], 2.0);
    lp.le(vec![0.0, 1.0], 3.0);
    lp.le(vec![1.0, 1.0], 4.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective + 4.0).abs() < 1e-9);
    assert!((sol.x[0] + sol.x[1] - 4.0).abs() < 1e-9);
}

#[test]
fn equality_constraints() {
    // min x + 2y s.t. x + y = 3, x ≤ 1 → x=1, y=2, obj 5.
    let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
    lp.equals(vec![1.0, 1.0], 3.0);
    lp.le(vec![1.0, 0.0], 1.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 5.0).abs() < 1e-9);
    assert!((sol.x[0] - 1.0).abs() < 1e-9);
    assert!((sol.x[1] - 2.0).abs() < 1e-9);
}

#[test]
fn infeasible_detected() {
    // x ≥ 2 and x ≤ 1 cannot both hold.
    let mut lp = LinearProgram::minimize(vec![1.0]);
    lp.ge(vec![1.0], 2.0);
    lp.le(vec![1.0], 1.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Infeasible);
    assert_eq!(sol.exact_vertex(), Ok(vec![])); // no vertex, like `x`
}

#[test]
fn unbounded_detected() {
    // min -x with only x ≥ 1 → unbounded below.
    let mut lp = LinearProgram::minimize(vec![-1.0]);
    lp.ge(vec![1.0], 1.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Unbounded);
}

#[test]
fn negative_rhs_normalised() {
    // -x ≤ -2 is x ≥ 2.
    let mut lp = LinearProgram::minimize(vec![1.0]);
    lp.le(vec![-1.0], -2.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.x[0] - 2.0).abs() < 1e-9);
}

#[test]
fn no_variables_is_bad_problem() {
    let lp = LinearProgram::minimize(vec![]);
    assert_eq!(solve(&lp), Err(LpError::BadProblem("no variables")));
}

#[test]
fn weighted_cover_prefers_cheap_edges() {
    // Triangle cover where edge T is very expensive (large relation):
    // objective weights ln N: (ln 10, ln 10, ln 1000). Optimal cover puts
    // weight 1 on R and S and 0 on T: A covered by R, B by both, C by S.
    let w = [10f64.ln(), 10f64.ln(), 1000f64.ln()];
    let mut lp = LinearProgram::minimize(w.to_vec());
    lp.ge(vec![1.0, 0.0, 1.0], 1.0); // A ∈ R, T
    lp.ge(vec![1.0, 1.0, 0.0], 1.0); // B ∈ R, S
    lp.ge(vec![0.0, 1.0, 1.0], 1.0); // C ∈ S, T
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.x[0] - 1.0).abs() < 1e-9);
    assert!((sol.x[1] - 1.0).abs() < 1e-9);
    assert!(sol.x[2].abs() < 1e-9);
}

#[test]
fn lw4_cover_exact_thirds() {
    // LW instance n=4: attributes {0,1,2,3}, edges all 3-subsets; optimal
    // cover is uniform 1/3 (so the vertex has denominators 3 — a case f64
    // cannot certify exactly, but its basis can).
    let mut lp = LinearProgram::minimize(vec![1.0; 4]);
    // edges: {1,2,3},{0,2,3},{0,1,3},{0,1,2}; attr v covered by all edges not
    // omitting v.
    for v in 0..4usize {
        let coeffs: Vec<f64> = (0..4).map(|e| if e == v { 0.0 } else { 1.0 }).collect();
        lp.ge(coeffs, 1.0);
    }
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    let exact = sol.exact_vertex().unwrap();
    assert_eq!(exact, vec![r(1, 3); 4]);
    assert_eq!(exact_sum(&exact), r(4, 3));
}

#[test]
fn exact_vertex_refuses_non_integral_coefficients() {
    // min x + y/10 s.t. x + y/2 ≥ 1: the f64 solve picks y = 2, but y's
    // basis column is 1/2, so no exact vertex is claimed.
    let mut lp = LinearProgram::minimize(vec![1.0, 0.1]);
    lp.ge(vec![1.0, 0.5], 1.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(matches!(sol.exact_vertex(), Err(LpError::BadProblem(_))));
}

#[test]
fn is_feasible_checks() {
    let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
    lp.ge(vec![1.0, 1.0], 1.0);
    lp.le(vec![1.0, 0.0], 2.0);
    assert!(lp.is_feasible(&[0.5, 0.5]));
    assert!(!lp.is_feasible(&[0.2, 0.2])); // violates ≥
    assert!(!lp.is_feasible(&[3.0, 0.0])); // violates ≤
    assert!(!lp.is_feasible(&[-0.5, 2.0])); // negative variable
    assert!(!lp.is_feasible(&[1.0])); // arity mismatch
}

#[test]
fn redundant_equality_rows() {
    // x + y = 2 listed twice: phase 1 must cope with the redundant artificial.
    let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
    lp.equals(vec![1.0, 1.0], 2.0);
    lp.equals(vec![1.0, 1.0], 2.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 2.0).abs() < 1e-9);
    // The artificial left basic in the redundant row is exactly zero.
    assert_eq!(exact_sum(&sol.exact_vertex().unwrap()), Rational::from(2));
}

#[test]
fn all_ones_cover_always_feasible() {
    // For every hypergraph where each vertex is in ≥ 1 edge, x = 1 is
    // feasible (paper §2); sanity-check on a random-ish 5-edge structure.
    let edges: Vec<Vec<usize>> = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![4, 0]];
    let n_attrs = 5;
    let mut lp = LinearProgram::minimize(vec![1.0; edges.len()]);
    for v in 0..n_attrs {
        let coeffs: Vec<f64> = edges
            .iter()
            .map(|e| if e.contains(&v) { 1.0 } else { 0.0 })
            .collect();
        lp.ge(coeffs, 1.0);
    }
    assert!(lp.is_feasible(&vec![1.0; edges.len()]));
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    // odd 5-cycle: optimal fractional cover is 1/2 each, objective 5/2.
    assert!((sol.objective - 2.5).abs() < 1e-9);
}

proptest! {
    /// Random small covers: simplex optimum is feasible and no worse than the
    /// all-ones cover.
    #[test]
    fn prop_cover_lp_optimum_feasible(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n_attr = rng.gen_range(2..6usize);
        let n_edge = rng.gen_range(2..6usize);
        // random edges, then patch so every attribute is covered
        let mut edges: Vec<Vec<usize>> = (0..n_edge)
            .map(|_| (0..n_attr).filter(|_| rng.gen_bool(0.5)).collect())
            .collect();
        for v in 0..n_attr {
            if !edges.iter().any(|e| e.contains(&v)) {
                let k = rng.gen_range(0..n_edge);
                edges[k].push(v);
            }
        }
        let weights: Vec<f64> = (0..n_edge).map(|_| rng.gen_range(0.1..5.0f64)).collect();
        let mut lp = LinearProgram::minimize(weights.clone());
        for v in 0..n_attr {
            let coeffs: Vec<f64> = edges.iter().map(|e| if e.contains(&v) {1.0} else {0.0}).collect();
            lp.ge(coeffs, 1.0);
        }
        let sol = solve(&lp).unwrap();
        prop_assert_eq!(sol.status, Status::Optimal);
        prop_assert!(lp.is_feasible(&sol.x));
        let all_ones_obj: f64 = weights.iter().sum();
        prop_assert!(sol.objective <= all_ones_obj + 1e-9);
    }

    /// The exact vertex of integral LPs (objective coefficients are small
    /// integers) is feasible, matches `x`, and attains `sol.objective`
    /// exactly.
    #[test]
    fn prop_f64_and_exact_agree(seed in 0u64..300) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n_attr = rng.gen_range(2..5usize);
        let n_edge = rng.gen_range(2..5usize);
        let mut edges: Vec<Vec<usize>> = (0..n_edge)
            .map(|_| (0..n_attr).filter(|_| rng.gen_bool(0.6)).collect())
            .collect();
        for v in 0..n_attr {
            if !edges.iter().any(|e| e.contains(&v)) {
                let k = rng.gen_range(0..n_edge);
                edges[k].push(v);
            }
        }
        let weights: Vec<i64> = (0..n_edge).map(|_| rng.gen_range(1..10i64)).collect();
        let mut lp = LinearProgram::minimize(weights.iter().map(|&w| w as f64).collect());
        for v in 0..n_attr {
            let coeffs: Vec<f64> = edges.iter().map(|e| if e.contains(&v) {1.0} else {0.0}).collect();
            lp.ge(coeffs, 1.0);
        }
        let sol = solve(&lp).unwrap();
        prop_assert_eq!(sol.status, Status::Optimal);
        let exact = sol.exact_vertex().unwrap();
        for (v, xe) in exact.iter().zip(&sol.x) {
            prop_assert!((v.to_f64() - xe).abs() <= F64_EPS);
        }
        for c in lp.constraints() {
            let lhs = exact_sum(&exact.iter().zip(&c.coeffs).filter(|(_, &a)| a == 1.0).map(|(&v, _)| v).collect::<Vec<_>>());
            prop_assert!(lhs >= Rational::ONE);
        }
        let objective = exact.iter().zip(&weights).fold(Rational::ZERO, |acc, (&v, &w)| acc + v * Rational::from(w));
        prop_assert_eq!(objective.to_f64(), sol.objective);
    }
}

#[test]
fn exact_overflow_reported_not_panicked() {
    // Huge integral coefficients: the f64 solve finishes, but the exact
    // basis solve leaves i128 and must surface LpError::Overflow instead
    // of panicking.
    let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
    lp.ge(vec![1e39, 1.0], 1.0);
    lp.ge(vec![1.0, 1e39], 1.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(sol.exact_vertex(), Err(LpError::Overflow));
    // Exactly representable coefficients near 2^50: every pivot is in
    // range, but the 3 × 3 basis's determinant (≈ 2^152) is not.
    let n = f64::from(1u32 << 25).powi(2);
    let mut lp = LinearProgram::minimize(vec![1.0; 3]);
    lp.ge(vec![2.0 * n + 1.0, n + 3.0, n + 5.0], 4.0 * n);
    lp.ge(vec![n + 7.0, 2.0 * n + 11.0, n + 13.0], 4.0 * n);
    lp.ge(vec![n + 17.0, n + 19.0, 2.0 * n + 23.0], 4.0 * n);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(sol.basic_structural, vec![0, 1, 2]);
    assert_eq!(sol.exact_vertex(), Err(LpError::Overflow));
}

#[test]
fn degenerate_lp_terminates_with_blands_rule() {
    // A highly degenerate LP (many redundant constraints through one
    // vertex); Bland's rule must terminate.
    let mut lp = LinearProgram::minimize(vec![1.0, 1.0, 1.0]);
    for _ in 0..6 {
        lp.ge(vec![1.0, 1.0, 1.0], 1.0);
    }
    lp.ge(vec![1.0, 0.0, 0.0], 0.0);
    lp.ge(vec![0.0, 1.0, 0.0], 0.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 1.0).abs() < 1e-9);
}

#[test]
fn zero_objective_feasibility_check() {
    // All-zero objective: simplex acts as a pure feasibility oracle.
    let mut lp = LinearProgram::minimize(vec![0.0, 0.0]);
    lp.ge(vec![1.0, 1.0], 2.0);
    lp.le(vec![1.0, 0.0], 5.0);
    let sol = solve(&lp).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(lp.is_feasible(&sol.x));
}

#[test]
fn basic_structural_reported() {
    let mut lp = LinearProgram::minimize(vec![1.0, 10.0]);
    lp.ge(vec![1.0, 1.0], 1.0);
    let sol = solve(&lp).unwrap();
    // only x0 should be basic with positive value
    assert_eq!(sol.support(), vec![0]);
    assert!(sol.basic_structural.contains(&0));
}
