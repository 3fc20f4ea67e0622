//! The algorithmic Bollobás–Thomason / Loomis–Whitney inequality
//! (paper §3, Theorem 3.1/3.4 and Corollary 5.3).
//!
//! Setting: a finite set `S ⊂ ℤⁿ` is known only through its projections
//! `S_F` onto a family `F` of coordinate subsets in which every coordinate
//! occurs in exactly `d` members. The discrete BT inequality bounds
//! `|S|^d ≤ ∏_F |S_F|`; Corollary 5.3 makes it *algorithmic*: the join of
//! the projections — a superset of `S` that attains the bound — is
//! computable in time `Õ((∏|S_F|)^{1/d})` by running the NPRR algorithm
//! with the uniform cover `x_F = 1/d`.

use crate::lw::bt_regularity;
use wcoj_core::nprr::join_nprr;
use wcoj_core::{JoinQuery, QueryError};
use wcoj_storage::Relation;

/// Result of a BT reconstruction.
#[derive(Debug, Clone)]
pub struct BtOutput {
    /// `⋈_F S_F` — the certified superset of `S` whose size obeys the BT
    /// bound.
    pub relation: Relation,
    /// The regularity degree `d`.
    pub d: usize,
    /// `log₂ ∏_F |S_F|^{1/d}` — the BT bound.
    pub log2_bound: f64,
}

/// Joins the projections of a `d`-regular family with the uniform cover
/// `1/d` (Corollary 5.3).
///
/// # Errors
/// [`QueryError::AlgorithmMismatch`] if the family is not `d`-regular for
/// any `d ≥ 1`.
pub fn reconstruct(projections: &[Relation]) -> Result<BtOutput, QueryError> {
    let q = JoinQuery::new(projections)?;
    let Some(d) = bt_regularity(q.hypergraph()) else {
        return Err(QueryError::AlgorithmMismatch(
            "BT reconstruction needs every coordinate in exactly d projections",
        ));
    };
    let x = vec![1.0 / d as f64; projections.len()];
    let log2_bound: f64 = projections
        .iter()
        .map(|r| (r.len().max(1) as f64).log2())
        .sum::<f64>()
        / d as f64;
    let out = join_nprr(&q, &x)?;
    Ok(BtOutput {
        relation: out.relation,
        d,
        log2_bound,
    })
}

/// Checks the BT inequality `|S|^d ≤ ∏ |S_F|` for a concrete point set and
/// its projections (tested against the reconstruction).
#[must_use]
pub fn inequality_holds(s_size: usize, d: usize, projection_sizes: &[usize]) -> bool {
    // compare in log space: d·log|S| ≤ Σ log|S_F|
    if s_size == 0 {
        return true;
    }
    let lhs = d as f64 * (s_size as f64).ln();
    let rhs: f64 = projection_sizes
        .iter()
        .map(|&p| (p.max(1) as f64).ln())
        .sum();
    lhs <= rhs + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::ops::project;
    use wcoj_storage::{Attr, Relation, Schema, Value};

    /// Builds a point set in ℤⁿ and its projections onto the LW family.
    fn lw_projections(points: &Relation) -> Vec<Relation> {
        let n = points.arity();
        (0..n)
            .map(|omit| {
                let keep: Vec<Attr> = points
                    .schema()
                    .attrs()
                    .iter()
                    .copied()
                    .filter(|a| a.index() != omit)
                    .collect();
                project(points, &keep).unwrap()
            })
            .collect()
    }

    fn random_points(seed: u64, n_dims: usize, count: usize, dom: u64) -> Relation {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let schema = Schema::new((0..n_dims as u32).map(Attr).collect()).unwrap();
        let rows: Vec<Vec<Value>> = (0..count)
            .map(|_| (0..n_dims).map(|_| Value(rng.gen_range(0..dom))).collect())
            .collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn lw3_reconstruction_contains_s_and_obeys_bound() {
        let s = random_points(1, 3, 50, 6);
        let projs = lw_projections(&s);
        let out = reconstruct(&projs).unwrap();
        assert_eq!(out.d, 2);
        // S ⊆ ⋈ of its projections
        for row in s.iter_rows() {
            assert!(out.relation.contains_row(row));
        }
        // |⋈|^d ≤ ∏|S_F| (the join attains the bound; S itself also obeys)
        let sizes: Vec<usize> = projs.iter().map(Relation::len).collect();
        assert!(inequality_holds(out.relation.len(), out.d, &sizes));
        assert!(inequality_holds(s.len(), out.d, &sizes));
    }

    #[test]
    fn lw4_reconstruction() {
        let s = random_points(2, 4, 40, 4);
        let projs = lw_projections(&s);
        let out = reconstruct(&projs).unwrap();
        assert_eq!(out.d, 3);
        for row in s.iter_rows() {
            assert!(out.relation.contains_row(row));
        }
        let sizes: Vec<usize> = projs.iter().map(Relation::len).collect();
        assert!(inequality_holds(out.relation.len(), out.d, &sizes));
    }

    #[test]
    fn grid_attains_the_bound_exactly() {
        // S = full k×k×k grid: projections are k² each, |S| = k³ = (k²)^{3/2}
        // … i.e. |S|² = ∏|S_F| with equality.
        let k = 4u64;
        let schema = Schema::of(&[0, 1, 2]);
        let rows: Vec<Vec<Value>> = (0..k)
            .flat_map(|a| {
                (0..k).flat_map(move |b| (0..k).map(move |c| vec![Value(a), Value(b), Value(c)]))
            })
            .collect();
        let s = Relation::from_rows(schema, rows).unwrap();
        let projs = lw_projections(&s);
        let out = reconstruct(&projs).unwrap();
        assert_eq!(out.relation.len(), (k * k * k) as usize);
        let prod: usize = projs.iter().map(Relation::len).product();
        assert_eq!(out.relation.len().pow(2), prod);
    }

    #[test]
    fn regular_non_lw_family() {
        // F = {{0,1},{1,2},{2,3},{3,0}} — the 4-cycle, 2-regular.
        let s = random_points(3, 4, 30, 4);
        let fam = [[0u32, 1], [1, 2], [2, 3], [3, 0]];
        let projs: Vec<Relation> = fam
            .iter()
            .map(|pair| project(&s, &[Attr(pair[0]), Attr(pair[1])]).unwrap())
            .collect();
        let out = reconstruct(&projs).unwrap();
        assert_eq!(out.d, 2);
        for row in s.iter_rows() {
            assert!(out.relation.contains_row(row));
        }
        let sizes: Vec<usize> = projs.iter().map(Relation::len).collect();
        assert!(inequality_holds(out.relation.len(), out.d, &sizes));
    }

    #[test]
    fn irregular_family_rejected() {
        let s = random_points(4, 3, 10, 4);
        let projs = vec![
            project(&s, &[Attr(0), Attr(1)]).unwrap(),
            project(&s, &[Attr(1), Attr(2)]).unwrap(),
        ];
        assert!(matches!(
            reconstruct(&projs),
            Err(QueryError::AlgorithmMismatch(_))
        ));
    }

    #[test]
    fn inequality_helper_edges() {
        assert!(inequality_holds(0, 2, &[0, 0, 0]));
        assert!(inequality_holds(8, 2, &[4, 4, 4]));
        assert!(!inequality_holds(9, 2, &[4, 4, 4]));
    }
}
