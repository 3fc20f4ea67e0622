//! Query assembly: from a list of relations to a hypergraph and a cover.

use std::fmt;
use wcoj_hypergraph::agm::{self, CoverSolution};
use wcoj_hypergraph::{HgError, Hypergraph};
use wcoj_storage::{Attr, Relation, Schema, StorageError};

/// Errors from query assembly and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A query needs at least one relation.
    EmptyQuery,
    /// Hypergraph/cover-level failure.
    Hypergraph(HgError),
    /// Storage-level failure.
    Storage(StorageError),
    /// A shape-specific algorithm (one of `wcoj-baselines`' reproductions
    /// or reductions, e.g. `bt::reconstruct`) was called on a query
    /// outside its shape.
    AlgorithmMismatch(&'static str),
    /// A user-supplied cover vector was rejected.
    BadCover(String),
    /// An executing service shed the query under overload: its admission
    /// queue was at the configured bound. The query was never scheduled;
    /// retrying later is safe.
    Overloaded,
    /// An executing service's worker panicked while running one of the
    /// query's shards: the query has no output. The pool itself keeps
    /// serving.
    ShardPanicked,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EmptyQuery => write!(f, "query has no relations"),
            QueryError::Hypergraph(e) => write!(f, "hypergraph error: {e}"),
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
            QueryError::AlgorithmMismatch(m) => write!(f, "algorithm mismatch: {m}"),
            QueryError::BadCover(m) => write!(f, "bad cover: {m}"),
            QueryError::Overloaded => {
                write!(
                    f,
                    "service overloaded: submission shed by admission control"
                )
            }
            QueryError::ShardPanicked => {
                write!(f, "a service worker panicked while running a shard")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl From<HgError> for QueryError {
    fn from(e: HgError) -> Self {
        QueryError::Hypergraph(e)
    }
}
impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// A natural-join query: relations plus the derived hypergraph view.
///
/// Vertex `i` of the hypergraph corresponds to `attrs()[i]`; attributes are
/// sorted, so vertex numbering is deterministic.
#[derive(Debug, Clone)]
pub struct JoinQuery {
    relations: Vec<Relation>,
    attrs: Vec<Attr>,
    hypergraph: Hypergraph,
}

impl JoinQuery {
    /// Assembles the query for `relations`. The query shares their row
    /// buffers (a [`Relation`] clone copies no rows), so a query over
    /// catalog bases holds the bases themselves, not copies.
    ///
    /// # Errors
    /// [`QueryError::EmptyQuery`] if no relations are given.
    pub fn new(relations: &[Relation]) -> Result<JoinQuery, QueryError> {
        if relations.is_empty() {
            return Err(QueryError::EmptyQuery);
        }
        let mut attrs: Vec<Attr> = relations
            .iter()
            .flat_map(|r| r.schema().attrs().iter().copied())
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        let vertex_of = |a: Attr| attrs.binary_search(&a).expect("attr present");
        let edges: Vec<Vec<usize>> = relations
            .iter()
            .map(|r| r.schema().attrs().iter().map(|&a| vertex_of(a)).collect())
            .collect();
        let hypergraph = Hypergraph::new(attrs.len(), edges)?;
        Ok(JoinQuery {
            relations: relations.to_vec(),
            attrs,
            hypergraph,
        })
    }

    /// The query's relations, in input order (edge `i` ↔ relation `i`).
    #[must_use]
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// All attributes of the query, sorted; `attrs()[v]` is hypergraph
    /// vertex `v`.
    #[must_use]
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// The query hypergraph (paper §2).
    #[must_use]
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hypergraph
    }

    /// The attribute for hypergraph vertex `v`.
    #[must_use]
    pub fn attr_of_vertex(&self, v: usize) -> Attr {
        self.attrs[v]
    }

    /// The hypergraph vertex for attribute `a`, if it occurs in the query.
    #[must_use]
    pub fn vertex_of_attr(&self, a: Attr) -> Option<usize> {
        self.attrs.binary_search(&a).ok()
    }

    /// Relation cardinalities `N_e`, in edge order.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.relations.iter().map(Relation::len).collect()
    }

    /// Solves the fractional-cover LP for the current sizes.
    ///
    /// # Errors
    /// Propagates LP failures.
    pub fn optimal_cover(&self) -> Result<CoverSolution, QueryError> {
        Ok(agm::optimal_cover(&self.hypergraph, &self.sizes())?)
    }

    /// The schema `(A(q))` of the join output in sorted attribute order.
    #[must_use]
    pub fn output_schema(&self) -> Schema {
        Schema::new(self.attrs.clone()).expect("attrs deduplicated")
    }
}
