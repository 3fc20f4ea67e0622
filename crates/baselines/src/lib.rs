//! Reference implementations: the classical join plans NPRR §1/§6
//! compares against, and the paper's special-case algorithms that its
//! Theorem 5.1 subsumes. Nothing on the served path (`wcoj-core`'s
//! `join`, the service, the catalog, the server) depends on this crate;
//! the experiment harness and the differential tests call it directly.
//!
//! Pairwise plans:
//!
//! * [`pairwise`] — the textbook binary join algorithms: hash join (via the
//!   storage layer), **sort-merge join**, and **block nested-loop join**,
//!   each implemented independently so they can cross-check each other;
//! * [`plan`] — binary join-plan trees (with optional projections — the
//!   "join-project plans" of §6) and an instrumented executor reporting
//!   the maximum intermediate cardinality, the quantity §6's lower bounds
//!   constrain;
//! * [`optimizer`] — a System-R-style enumerator: exhaustive left-deep
//!   search under independence-assumption cardinality estimates for small
//!   queries, greedy otherwise, plus an *oracle* mode that executes every
//!   left-deep order and reports the best **actual** max-intermediate (used
//!   by experiment E7 to show that even the best possible binary plan pays
//!   `Ω(N²/n²)` on Lemma 6.1 instances).
//!
//! The paper's special cases, each checked against NPRR on the same
//! instances:
//!
//! * [`lw`] — §4, Algorithm 1: the Loomis–Whitney join with heavy/light
//!   key partitioning (Theorem 4.1);
//! * [`graph_join`] — §7.1, Lemma 7.1 + Theorem 7.3: arity-≤2 queries as
//!   stars and odd cycles (the Cycle Lemma);
//! * [`half_integral`] — Lemma 7.2: basic feasible covers of graphs are
//!   half-integral and decompose into vertex-disjoint stars and odd
//!   cycles, the structure [`graph_join`] evaluates.

pub mod graph_join;
pub mod half_integral;
pub mod lw;
pub mod optimizer;
pub mod pairwise;
pub mod plan;

pub use optimizer::{best_actual_left_deep, estimate_join_size, optimize_left_deep};
pub use plan::{execute, execute_left_deep, ExecStats, JoinPlan};
