//! # wcoj-core — worst-case optimal join algorithms (NPRR, PODS 2012)
//!
//! This crate implements the algorithmic contributions of
//! *Ngo, Porat, Ré, Rudra: Worst-case Optimal Join Algorithms*:
//!
//! | Module | Paper reference | Contents |
//! |--------|-----------------|----------|
//! | [`nprr`] | §5, Algorithms 2–4, Procedure 5 | the generic worst-case optimal join: query-plan tree, total order, `Recursive-Join` — the one engine behind [`join`] and every served query |
//! | [`relaxed`] | §7.2, Algorithm 6 | relaxed joins `q_r` via `BFS`-equivalence classes |
//! | [`fullcq`] | §7.3 | full conjunctive queries (constants, repeated variables) reduced to natural joins |
//! | [`fd`] | §7.3 | simple functional dependencies: closure-based relation expansion |
//! | [`bt`] | §3 + Corollary 5.3 | the algorithmic Bollobás–Thomason / Loomis–Whitney inequality |
//! | [`naive`] | baseline semantics | reference pairwise-hash-join evaluation used as the test oracle |
//!
//! The main entry point is [`join`] / [`join_with`], which assemble the
//! query hypergraph from relation schemas, solve the fractional-cover LP
//! (via `wcoj-hypergraph`), and run NPRR through
//! [`nprr::PreparedQuery`] — the same pipeline the catalog, the service
//! and the HTTP server run. Algorithm 1 (§4), Theorem 7.3 (§7.1) and
//! Lemma 7.2's half-integral covers are special cases Theorem 5.1
//! subsumes: they live in `wcoj-baselines` as reproductions, checked
//! against NPRR there, and no crate on the served path depends on them.
//!
//! ```
//! use wcoj_storage::{Relation, Schema};
//! use wcoj_core::join;
//!
//! // The paper's motivating triangle query R(A,B) ⋈ S(B,C) ⋈ T(A,C).
//! let r = Relation::from_u32_rows(Schema::of(&[0, 1]), &[&[1, 2], &[1, 3]]);
//! let s = Relation::from_u32_rows(Schema::of(&[1, 2]), &[&[2, 4], &[3, 4]]);
//! let t = Relation::from_u32_rows(Schema::of(&[0, 2]), &[&[1, 4]]);
//! let out = join(&[r, s, t]).unwrap();
//! assert_eq!(out.len(), 2); // (1,2,4) and (1,3,4)
//! ```

pub mod bt;
pub mod fd;
pub mod fullcq;
pub mod naive;
pub mod nprr;
pub mod query;
pub mod relaxed;

pub use query::{JoinQuery, QueryError};

use wcoj_hypergraph::agm::CoverSolution;
use wcoj_storage::{FlatIndex, Relation};

/// Which algorithm evaluates the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// The generic NPRR algorithm (§5) — works for every query, and is
    /// what [`join`] and every served query run.
    #[default]
    Nprr,
    /// Reference pairwise hash joins (test oracle; *not* worst-case
    /// optimal).
    Naive,
}

/// Execution statistics reported alongside a join result.
#[derive(Debug, Clone, Default)]
pub struct JoinStats {
    /// `log₂` of the AGM bound for the cover that was used.
    pub log2_agm_bound: f64,
    /// The fractional cover used (per input relation).
    pub cover: Vec<f64>,
    /// Number of per-tuple "case a" decisions (recurse into the estimated
    /// side) taken by `Recursive-Join`.
    pub case_a: u64,
    /// Number of per-tuple "case b" decisions (scan the anchor relation's
    /// section).
    pub case_b: u64,
    /// Total tuples materialised across intermediate steps (an upper bound
    /// on working-set size; the worst-case guarantee bounds this by the
    /// AGM bound times the query size).
    pub intermediate_tuples: u64,
    /// The algorithm actually run.
    pub algorithm_used: &'static str,
    /// Number of independent shards this result was computed from
    /// (0 for single-shard sequential runs).
    pub shards: u64,
}

impl JoinStats {
    /// Folds another run's counters into this one — how the service
    /// aggregates per-shard statistics. Bound/cover metadata is
    /// kept from `self` (identical across shards of one run by
    /// construction); counters add; `shards` accumulates.
    pub fn absorb(&mut self, other: &JoinStats) {
        self.case_a += other.case_a;
        self.case_b += other.case_b;
        self.intermediate_tuples += other.intermediate_tuples;
        self.shards += other.shards.max(1);
    }
}

/// Result of [`join_with`].
#[derive(Debug, Clone)]
pub struct JoinOutput {
    /// The join result. [`Algorithm::Nprr`] returns it over
    /// [`JoinQuery::output_schema`] (attributes ascending), rows sorted
    /// and duplicate-free, bit-identical to [`nprr::join_nprr`] and to
    /// [`nprr::PreparedQuery::evaluate`]. [`Algorithm::Naive`] returns the
    /// pairwise plan's layout instead: attributes in order of first
    /// appearance, rows in hash-join order (use `ops::reorder` to compare).
    pub relation: Relation,
    /// Execution statistics.
    pub stats: JoinStats,
}

/// Computes the natural join of `relations`: runs NPRR under the
/// LP-optimal fractional cover, over [`JoinQuery::output_schema`] with
/// sorted rows.
///
/// # Errors
/// Propagates [`QueryError`] for malformed inputs (duplicate attributes
/// within a relation are impossible by construction of
/// [`wcoj_storage::Schema`]; errors arise from empty queries and LP
/// failures).
pub fn join(relations: &[Relation]) -> Result<Relation, QueryError> {
    Ok(join_with(relations, Algorithm::Nprr, None)?.relation)
}

/// Computes the natural join with an explicit algorithm and, optionally, an
/// explicit fractional cover (one weight per relation, in input order).
/// [`Algorithm::Nprr`] runs `PreparedQuery::from_query(..).evaluate(cover)`
/// and reports `"nprr"`; [`Algorithm::Naive`] ignores `cover` and reports
/// `"naive"`.
///
/// # Errors
/// [`QueryError`] on malformed input or a `cover` that is the wrong length
/// or not a fractional edge cover ([`QueryError::BadCover`]).
pub fn join_with(
    relations: &[Relation],
    algorithm: Algorithm,
    cover: Option<&[f64]>,
) -> Result<JoinOutput, QueryError> {
    let q = JoinQuery::new(relations)?;
    match algorithm {
        Algorithm::Nprr => nprr::PreparedQuery::<FlatIndex>::from_query(q)?.evaluate(cover),
        Algorithm::Naive => Ok(JoinOutput {
            relation: naive::join(q.relations()),
            stats: JoinStats {
                algorithm_used: "naive",
                ..JoinStats::default()
            },
        }),
    }
}

/// Convenience: the optimal fractional cover and AGM bound for the query
/// formed by `relations` (sizes = current cardinalities).
///
/// # Errors
/// [`QueryError`] on malformed input or LP failure.
pub fn agm_cover(relations: &[Relation]) -> Result<CoverSolution, QueryError> {
    let q = JoinQuery::new(relations)?;
    q.optimal_cover()
}

#[cfg(test)]
mod tests;
