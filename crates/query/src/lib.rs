//! Text front-end: Datalog-style conjunctive queries and a CSV loader.
//!
//! ```text
//! Ans(x, y, z) :- R(x, y), S(y, z), T(x, z).
//! ```
//!
//! Queries are parsed into [`ParsedQuery`], bound against a [`Catalog`] of
//! named relations, reduced per §7.3 (constants and repeated variables are
//! allowed), evaluated with the worst-case-optimal join from `wcoj-core`,
//! and finally projected onto the head variables. The paper's machinery is
//! worst-case optimal for *full* queries (head = all body variables); a
//! narrower head is supported as a post-projection for usability.

mod catalog;
mod csv;
mod exec;
mod parser;
mod plan_cache;
mod program;

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::Arc;
    use wcoj_service::{QueryHandle, Service, ServiceConfig};

    /// A 1-worker service with both of its two admission slots pinned by
    /// long-running 5-cycle blockers. The blockers' cover is solved (and
    /// memoized) before they are submitted, so submission costs
    /// microseconds while each engine run takes tens of milliseconds —
    /// the service is reliably still overloaded when the caller routes its
    /// next query. Wait the returned handles to drain the queue again.
    pub(crate) fn overloaded_service(seed: u64) -> (Arc<Service>, Vec<QueryHandle>) {
        let service = Arc::new(Service::new(
            ServiceConfig::with_workers(1).with_queue_depth(2),
        ));
        let rels = wcoj_datagen::cycle_instance(seed, 5, 400, 20);
        let prepared =
            Arc::new(wcoj_core::nprr::PreparedQuery::new(&rels).expect("well-formed blocker"));
        prepared.resolve_cover(None).expect("cover");
        let cfg = wcoj_exec::ExecConfig {
            shard_min_size: 1,
            ..service.exec_config()
        };
        let blockers = (0..2)
            .map(|_| service.submit(&prepared, &cfg).expect("within the bound"))
            .collect();
        (service, blockers)
    }
}

pub use catalog::{Catalog, Snapshot};
pub use csv::load_csv;
pub use exec::{execute, submit_query, PendingQuery, QueryResult};
pub use parser::{parse_query, ParsedAtom, ParsedQuery, ParsedTerm};
pub use plan_cache::{CachedPlan, PlanCache};
pub use program::{parse_program, run_program, Program};
// Re-export so front-end users can tune a service's shard planning
// (`ServiceConfig::exec`, `Service::submit`) without naming wcoj-exec.
pub use wcoj_exec::ExecConfig;

use std::fmt;

/// Errors from parsing, binding, or executing a text query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryTextError {
    /// Syntax error with a human-readable description and byte offset.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset into the input.
        at: usize,
    },
    /// The query references a relation the catalog does not contain.
    UnknownRelation(String),
    /// An atom's arity differs from its relation's.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity in the catalog.
        expected: usize,
        /// Arity written in the query.
        got: usize,
    },
    /// A head variable does not occur in the body.
    UnboundHeadVariable(String),
    /// The catalog's shared query service shed the query under overload
    /// (its admission queue was full) — the 429 of this front end. The
    /// query was never evaluated; retrying later is safe.
    Overloaded,
    /// Evaluation failure from the join engine.
    Eval(String),
}

impl QueryTextError {
    /// The HTTP status an HTTP front end should answer with: client
    /// mistakes map to `4xx` (`400` malformed query, `404` unknown
    /// relation, `429` shed by admission control — retry later), engine
    /// failures to `500`.
    #[must_use]
    pub fn http_status(&self) -> u16 {
        match self {
            QueryTextError::Parse { .. }
            | QueryTextError::ArityMismatch { .. }
            | QueryTextError::UnboundHeadVariable(_) => 400,
            QueryTextError::UnknownRelation(_) => 404,
            QueryTextError::Overloaded => 429,
            QueryTextError::Eval(_) => 500,
        }
    }
}

impl fmt::Display for QueryTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryTextError::Parse { message, at } => {
                write!(f, "parse error at byte {at}: {message}")
            }
            QueryTextError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            QueryTextError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation} has arity {expected}, used with {got} terms"
            ),
            QueryTextError::UnboundHeadVariable(v) => {
                write!(f, "head variable {v} does not occur in the body")
            }
            QueryTextError::Overloaded => {
                write!(
                    f,
                    "service overloaded: query shed by admission control, retry later"
                )
            }
            QueryTextError::Eval(m) => write!(f, "evaluation failed: {m}"),
        }
    }
}

impl std::error::Error for QueryTextError {}
