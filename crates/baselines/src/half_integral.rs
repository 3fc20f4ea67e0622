//! **Lemma 7.2**: basic feasible solutions of the fractional cover
//! polyhedron of a *graph* (every edge has ≤ 2 vertices) are half-integral
//! — `x_e ∈ {0, 1/2, 1}` — and decompose structurally:
//!
//! * edges with `x_e = 1` form a vertex-disjoint union of **stars**, and
//! * edges with `x_e = 1/2` form vertex-disjoint **odd cycles**, also
//!   disjoint from the stars.
//!
//! This module *verifies and extracts* that structure from an exact cover
//! vector (as produced by the exact simplex in `wcoj-lp`), returning a
//! [`HalfIntegralDecomposition`] that [`crate::graph_join`] evaluates via
//! Theorem 7.3: odd cycles via the Cycle Lemma 7.1, stars via hash joins,
//! glued with cross products.

use wcoj_hypergraph::{HgError, Hypergraph};
use wcoj_rational::Rational;

/// A star component of weight-1 edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Star {
    /// The common vertex of the star's edges. For a single-edge star with
    /// two vertices either endpoint works; we pick the smaller.
    /// Single-vertex (arity-1) edges are their own center.
    pub center: usize,
    /// Edge indices of the star.
    pub edges: Vec<usize>,
}

/// An odd cycle of weight-1/2 edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// Cycle vertices in traversal order: `edges[i]` joins `vertices[i]`
    /// and `vertices[(i+1) % len]`.
    pub vertices: Vec<usize>,
    /// Edge indices in traversal order.
    pub edges: Vec<usize>,
}

/// The Lemma 7.2 structure of a half-integral cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalfIntegralDecomposition {
    /// Components of `x_e = 1` edges.
    pub stars: Vec<Star>,
    /// Odd cycles of `x_e = 1/2` edges.
    pub cycles: Vec<Cycle>,
    /// Edges with `x_e = 0`.
    pub zero_edges: Vec<usize>,
}

/// Verifies half-integrality and extracts the star/odd-cycle structure.
///
/// # Errors
/// [`HgError::StructureViolation`] if some edge has more than two
/// vertices, if `x` is not half-integral, or if the positive edges do not
/// form the Lemma 7.2 shape (which would mean `x` is not a basic feasible
/// solution).
pub fn decompose(h: &Hypergraph, x: &[Rational]) -> Result<HalfIntegralDecomposition, HgError> {
    if x.len() != h.num_edges() {
        return Err(HgError::CoverArityMismatch);
    }
    if let Some(i) = (0..h.num_edges()).find(|&i| h.edge(i).len() > 2) {
        return Err(HgError::StructureViolation(format!(
            "edge {i} has arity > 2"
        )));
    }

    let mut ones = Vec::new();
    let mut halves = Vec::new();
    let mut zeros = Vec::new();
    for (i, &xe) in x.iter().enumerate() {
        if xe == Rational::ZERO {
            zeros.push(i);
        } else if xe == Rational::ONE_HALF {
            halves.push(i);
        } else if xe == Rational::ONE {
            ones.push(i);
        } else {
            return Err(HgError::StructureViolation(format!(
                "x[{i}] = {xe} is not in {{0, 1/2, 1}}"
            )));
        }
    }

    // --- weight-1/2 edges must form vertex-disjoint odd cycles ----------
    let n = h.num_vertices();
    let mut half_adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (neighbour, edge)
    for &e in &halves {
        let ev = h.edge(e);
        if ev.len() != 2 {
            return Err(HgError::StructureViolation(format!(
                "half-weight edge {e} is not binary"
            )));
        }
        half_adj[ev[0]].push((ev[1], e));
        half_adj[ev[1]].push((ev[0], e));
    }
    for (v, adj) in half_adj.iter().enumerate() {
        let d = adj.len();
        if d != 0 && d != 2 {
            return Err(HgError::StructureViolation(format!(
                "vertex {v} has degree {d} in the half-edge graph (cycles need 2)"
            )));
        }
    }
    let mut cycles = Vec::new();
    let mut visited_edge = vec![false; h.num_edges()];
    for start in 0..n {
        if half_adj[start].is_empty() || half_adj[start].iter().all(|&(_, e)| visited_edge[e]) {
            continue;
        }
        // walk the cycle
        let mut vertices = vec![start];
        let mut edges = Vec::new();
        let mut cur = start;
        loop {
            let Some(&(next, e)) = half_adj[cur].iter().find(|&&(_, e)| !visited_edge[e]) else {
                return Err(HgError::StructureViolation(
                    "half-edge walk dead-ended: not a cycle".into(),
                ));
            };
            visited_edge[e] = true;
            edges.push(e);
            if next == start {
                break;
            }
            vertices.push(next);
            cur = next;
        }
        if edges.len() % 2 == 0 {
            return Err(HgError::StructureViolation(format!(
                "half-weight cycle through vertex {start} has even length {}",
                edges.len()
            )));
        }
        cycles.push(Cycle { vertices, edges });
    }

    // --- weight-1 edges must form vertex-disjoint stars ------------------
    // Components of the 1-edge graph; each must have a vertex common to all
    // its edges.
    let mut one_adj: Vec<Vec<usize>> = vec![Vec::new(); n]; // vertex -> one-edges
    for &e in &ones {
        for &v in h.edge(e) {
            one_adj[v].push(e);
        }
    }
    // stars must avoid cycle vertices
    let mut on_cycle = vec![false; n];
    for c in &cycles {
        for &v in &c.vertices {
            on_cycle[v] = true;
        }
    }
    let mut star_of_edge = vec![usize::MAX; h.num_edges()];
    let mut stars: Vec<Star> = Vec::new();
    for &e in &ones {
        if star_of_edge[e] != usize::MAX {
            continue;
        }
        // flood the component
        let mut comp_edges = vec![e];
        star_of_edge[e] = stars.len();
        let mut queue = vec![e];
        while let Some(f) = queue.pop() {
            for &v in h.edge(f) {
                for &g in &one_adj[v] {
                    if star_of_edge[g] == usize::MAX {
                        star_of_edge[g] = stars.len();
                        comp_edges.push(g);
                        queue.push(g);
                    }
                }
            }
        }
        comp_edges.sort_unstable();
        // a center = vertex present in all component edges
        let first = h.edge(comp_edges[0]);
        let center = first
            .iter()
            .copied()
            .find(|&v| comp_edges.iter().all(|&g| h.edge_contains(g, v)))
            .ok_or_else(|| {
                HgError::StructureViolation(format!(
                    "weight-1 component {comp_edges:?} is not a star"
                ))
            })?;
        for &g in &comp_edges {
            for &v in h.edge(g) {
                if on_cycle[v] {
                    return Err(HgError::StructureViolation(format!(
                        "star edge {g} touches a cycle vertex {v}"
                    )));
                }
            }
        }
        stars.push(Star {
            center,
            edges: comp_edges,
        });
    }

    Ok(HalfIntegralDecomposition {
        stars,
        cycles,
        zero_edges: zeros,
    })
}

/// Every vertex incident only to zero-weight edges is uncovered; for a
/// valid cover this set must be empty. Convenience for tests.
#[must_use]
pub fn uncovered_by_positive(h: &Hypergraph, x: &[Rational]) -> Vec<usize> {
    (0..h.num_vertices())
        .filter(|&v| !(0..h.num_edges()).any(|e| h.edge_contains(e, v) && x[e].is_positive()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_hypergraph::agm::optimal_cover;

    #[test]
    fn triangle_cover_is_one_odd_cycle() {
        let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        let sol = optimal_cover(&h, &[100, 100, 100]).unwrap();
        let d = decompose(&h, &sol.exact).unwrap();
        assert!(d.stars.is_empty());
        assert_eq!(d.cycles.len(), 1);
        assert_eq!(d.cycles[0].edges.len(), 3);
        assert!(d.zero_edges.is_empty());
    }

    #[test]
    fn skewed_triangle_is_a_star_pair() {
        // expensive T dropped: x = (1, 1, 0); edges R={0,1}, S={1,2} share
        // vertex 1 → a single star centered at 1.
        let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        let sol = optimal_cover(&h, &[10, 10, 1_000_000]).unwrap();
        let d = decompose(&h, &sol.exact).unwrap();
        assert_eq!(d.cycles.len(), 0);
        assert_eq!(d.zero_edges, vec![2]);
        assert_eq!(d.stars.len(), 1);
        assert_eq!(d.stars[0].center, 1);
        assert_eq!(d.stars[0].edges, vec![0, 1]);
    }

    #[test]
    fn five_cycle_decomposes_as_one_cycle() {
        let h = Hypergraph::new(
            5,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4], vec![0, 4]],
        )
        .unwrap();
        let sol = optimal_cover(&h, &[50; 5]).unwrap();
        let d = decompose(&h, &sol.exact).unwrap();
        assert_eq!(d.cycles.len(), 1);
        assert_eq!(d.cycles[0].edges.len(), 5);
        assert_eq!(d.cycles[0].vertices.len(), 5);
        // traversal order consistency: edges[i] joins vertices[i], v[i+1]
        let c = &d.cycles[0];
        for i in 0..5 {
            let a = c.vertices[i];
            let b = c.vertices[(i + 1) % 5];
            let e = h.edge(c.edges[i]);
            assert!(
                (e[0] == a && e[1] == b) || (e[0] == b && e[1] == a),
                "edge {i} does not join consecutive cycle vertices"
            );
        }
    }

    #[test]
    fn even_cycle_cover_is_integral_matching() {
        // A 4-cycle's optimal cover is x = (1, 0, 1, 0) (a perfect
        // matching), not half-integral halves — an even cycle is NOT an
        // extreme point at 1/2 (Lemma 7.2's proof).
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]]).unwrap();
        let sol = optimal_cover(&h, &[70; 4]).unwrap();
        let d = decompose(&h, &sol.exact).unwrap();
        assert!(d.cycles.is_empty());
        assert_eq!(d.stars.len(), 2);
        assert_eq!(d.zero_edges.len(), 2);
    }

    #[test]
    fn arity_one_edges_are_their_own_stars() {
        // R(A), S(A,B): A coverable by the unary edge; B needs S.
        let h = Hypergraph::new(2, vec![vec![0], vec![0, 1]]).unwrap();
        let sol = optimal_cover(&h, &[5, 1000]).unwrap();
        let d = decompose(&h, &sol.exact).unwrap();
        // x = (1 on S) suffices? S covers both A and B with x_S = 1 and
        // that costs log 1000; using R for A doesn't help since B still
        // needs x_S ≥ 1. So x = (0, 1): one star = {S}.
        assert_eq!(d.stars.len(), 1);
        assert_eq!(d.stars[0].edges, vec![1]);
        assert_eq!(d.zero_edges, vec![0]);
    }

    #[test]
    fn rejects_non_half_integral() {
        let h = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        let third = Rational::new(1, 3);
        assert!(matches!(
            decompose(&h, &[third, third, third]),
            Err(HgError::StructureViolation(_))
        ));
    }

    #[test]
    fn rejects_hyperedges() {
        let h = Hypergraph::new(3, vec![vec![0, 1, 2]]).unwrap();
        assert_eq!(
            decompose(&h, &[Rational::ONE]),
            Err(HgError::StructureViolation("edge 0 has arity > 2".into()))
        );
    }

    #[test]
    fn rejects_even_half_cycle() {
        // Force halves on a 4-cycle: structurally invalid for a BFS.
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]]).unwrap();
        let halves = vec![Rational::ONE_HALF; 4];
        assert!(matches!(
            decompose(&h, &halves),
            Err(HgError::StructureViolation(_))
        ));
    }

    #[test]
    fn rejects_non_star_ones() {
        // A path of three 1-edges is not a star.
        let h = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]).unwrap();
        let ones = vec![Rational::ONE; 3];
        assert!(matches!(
            decompose(&h, &ones),
            Err(HgError::StructureViolation(_))
        ));
    }

    #[test]
    fn random_graph_covers_decompose() {
        // Lemma 7.2 end-to-end: for random graphs, the exact optimal BFS
        // always decomposes.
        let cases: Vec<(usize, Vec<Vec<usize>>)> = vec![
            (
                6,
                vec![
                    vec![0, 1],
                    vec![1, 2],
                    vec![0, 2],
                    vec![3, 4],
                    vec![4, 5],
                    vec![3, 5],
                ],
            ),
            (
                7,
                vec![
                    vec![0, 1],
                    vec![1, 2],
                    vec![2, 0],
                    vec![3, 4],
                    vec![4, 5],
                    vec![5, 6],
                    vec![6, 3],
                    vec![2, 3],
                ],
            ),
            (4, vec![vec![0, 1], vec![0, 2], vec![0, 3]]),
            (
                5,
                vec![
                    vec![0, 1],
                    vec![1, 2],
                    vec![2, 3],
                    vec![3, 4],
                    vec![4, 0],
                    vec![0, 2],
                ],
            ),
        ];
        for (i, (n, edges)) in cases.into_iter().enumerate() {
            let h = Hypergraph::new(n, edges).unwrap();
            let m = h.num_edges();
            let sol = optimal_cover(&h, &vec![32; m]).unwrap();
            let d = decompose(&h, &sol.exact);
            assert!(d.is_ok(), "case {i}: {:?} → {:?}", sol.exact, d.err());
            // all positive vertices covered
            assert!(uncovered_by_positive(&h, &sol.exact).is_empty(), "case {i}");
        }
    }

    #[test]
    fn uncovered_by_positive_reports() {
        let h = Hypergraph::new(2, vec![vec![0], vec![1]]).unwrap();
        let x = vec![Rational::ONE, Rational::ZERO];
        assert_eq!(uncovered_by_positive(&h, &x), vec![1]);
    }
}
