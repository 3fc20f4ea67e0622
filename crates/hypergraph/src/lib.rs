//! Query hypergraphs and the AGM fractional-cover machinery (paper §2–§3).
//!
//! A natural join query `⋈_{e∈E} R_e` is viewed as a hypergraph
//! `H = (V, E)`: vertices are attributes, each relation contributes the
//! hyperedge of its attributes. This crate provides:
//!
//! * [`Hypergraph`] — vertices `0..n` and hyperedges as sorted vertex sets;
//! * [`cover`] — fractional edge covers (`Σ_{e∋v} x_e ≥ 1`) and their
//!   feasibility check;
//! * [`agm`] — the cover LP `min Σ (log N_e)·x_e` and the **AGM bound**
//!   `∏ N_e^{x_e}` (paper inequality (2)).
//!
//! That is all a served query uses. Lemma 3.2's tightening (with the
//! exact-rational cover checks), the Loomis–Whitney / Bollobás–Thomason
//! instance shapes and Lemma 7.2's half-integral decomposition of graph
//! covers serve only the paper's reproductions and live beside them in
//! `wcoj-baselines`.

pub mod agm;
pub mod cover;

use std::fmt;

/// A hypergraph `(V, E)` with `V = {0, …, n−1}` and hyperedges stored as
/// sorted, duplicate-free vertex lists. Parallel (repeated) edges are
/// allowed — §7.3 needs multiset hypergraphs for full conjunctive queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    n: usize,
    edges: Vec<Vec<usize>>,
}

/// Errors from hypergraph construction and cover handling.
#[derive(Debug, Clone, PartialEq)]
pub enum HgError {
    /// An edge mentions a vertex `≥ n`.
    VertexOutOfRange {
        /// Offending edge index.
        edge: usize,
        /// Offending vertex.
        vertex: usize,
    },
    /// A vertex belongs to no edge, so no fractional cover exists.
    UncoveredVertex(usize),
    /// A cover vector's length differs from the edge count.
    CoverArityMismatch,
    /// The supplied vector is not a fractional edge cover.
    NotACover {
        /// First violated vertex.
        vertex: usize,
    },
    /// The LP solver failed (overflow in exact mode).
    Lp(String),
    /// A claimed structural property (arity ≤ 2, half-integrality,
    /// star/cycle shape) does not hold.
    StructureViolation(String),
}

impl fmt::Display for HgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HgError::VertexOutOfRange { edge, vertex } => {
                write!(f, "edge {edge} mentions out-of-range vertex {vertex}")
            }
            HgError::UncoveredVertex(v) => write!(f, "vertex {v} belongs to no edge"),
            HgError::CoverArityMismatch => write!(f, "cover length differs from edge count"),
            HgError::NotACover { vertex } => {
                write!(
                    f,
                    "vector is not a fractional cover: vertex {vertex} uncovered"
                )
            }
            HgError::Lp(m) => write!(f, "cover LP failed: {m}"),
            HgError::StructureViolation(m) => write!(f, "structure violation: {m}"),
        }
    }
}

impl std::error::Error for HgError {}

impl Hypergraph {
    /// Builds a hypergraph over vertices `0..n`; edge vertex lists are
    /// sorted and deduplicated.
    ///
    /// # Errors
    /// [`HgError::VertexOutOfRange`] if an edge mentions a vertex `≥ n`.
    pub fn new(n: usize, edges: Vec<Vec<usize>>) -> Result<Hypergraph, HgError> {
        let mut norm = Vec::with_capacity(edges.len());
        for (i, mut e) in edges.into_iter().enumerate() {
            e.sort_unstable();
            e.dedup();
            if let Some(&v) = e.iter().find(|&&v| v >= n) {
                return Err(HgError::VertexOutOfRange { edge: i, vertex: v });
            }
            norm.push(e);
        }
        Ok(Hypergraph { n, edges: norm })
    }

    /// Number of vertices (`|V|`, the paper's `n`).
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges (`|E|`, the paper's `m`).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges, each a sorted vertex list.
    #[must_use]
    pub fn edges(&self) -> &[Vec<usize>] {
        &self.edges
    }

    /// Edge `i`'s vertex list.
    #[must_use]
    pub fn edge(&self, i: usize) -> &[usize] {
        &self.edges[i]
    }

    /// `true` iff vertex `v` belongs to edge `i`.
    #[must_use]
    pub fn edge_contains(&self, i: usize, v: usize) -> bool {
        self.edges[i].binary_search(&v).is_ok()
    }

    /// Vertices not covered by any edge (a cover exists iff this is empty).
    #[must_use]
    pub fn uncovered_vertices(&self) -> Vec<usize> {
        let mut covered = vec![false; self.n];
        for e in &self.edges {
            for &v in e {
                covered[v] = true;
            }
        }
        covered
            .iter()
            .enumerate()
            .filter(|(_, &c)| !c)
            .map(|(v, _)| v)
            .collect()
    }

    /// `true` iff every edge has at most two vertices (a *graph*, §7.1).
    #[must_use]
    pub fn is_graph(&self) -> bool {
        self.edges.iter().all(|e| e.len() <= 2)
    }

    /// The restriction of this hypergraph to a vertex subset `u`: every
    /// edge is intersected with `u`; empty intersections are kept (their
    /// cover variables are vacuous), preserving edge indices.
    #[must_use]
    pub fn restrict(&self, u: &[usize]) -> Hypergraph {
        let in_u: Vec<bool> = {
            let mut b = vec![false; self.n];
            for &v in u {
                b[v] = true;
            }
            b
        };
        let edges = self
            .edges
            .iter()
            .map(|e| e.iter().copied().filter(|&v| in_u[v]).collect())
            .collect();
        Hypergraph { n: self.n, edges }
    }
}

impl fmt::Display for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H(n={}; ", self.n)?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "e{i}={{")?;
            for (j, v) in e.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn triangle() -> Hypergraph {
        // R(A,B), S(B,C), T(A,C) with A=0, B=1, C=2
        Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn construction_normalises() {
        let h = Hypergraph::new(3, vec![vec![1, 0, 1]]).unwrap();
        assert_eq!(h.edge(0), &[0, 1]);
        assert!(Hypergraph::new(2, vec![vec![0, 5]]).is_err());
    }

    #[test]
    fn membership_queries() {
        let h = triangle();
        assert!(h.edge_contains(0, 0));
        assert!(!h.edge_contains(1, 0));
        assert!(h.uncovered_vertices().is_empty());
        assert!(h.is_graph());
    }

    #[test]
    fn uncovered_vertices_detected() {
        let h = Hypergraph::new(4, vec![vec![0, 1]]).unwrap();
        assert_eq!(h.uncovered_vertices(), vec![2, 3]);
    }

    #[test]
    fn restriction_keeps_edge_indices() {
        let h = triangle();
        let r = h.restrict(&[0, 1]);
        assert_eq!(r.num_edges(), 3);
        assert_eq!(r.edge(0), &[0, 1]);
        assert_eq!(r.edge(1), &[1]);
        assert_eq!(r.edge(2), &[0]);
    }

    #[test]
    fn non_graph_detected() {
        let h = Hypergraph::new(3, vec![vec![0, 1, 2]]).unwrap();
        assert!(!h.is_graph());
    }

    #[test]
    fn display_form() {
        let h = Hypergraph::new(2, vec![vec![0], vec![0, 1]]).unwrap();
        assert_eq!(format!("{h}"), "H(n=2; e0={0}, e1={0,1})");
    }
}
