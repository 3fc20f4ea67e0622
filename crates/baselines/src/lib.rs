//! Reference implementations: the classical join plans NPRR §1/§6
//! compares against, the paper's special-case algorithms that its
//! Theorem 5.1 subsumes, and the reductions built on top of the join.
//! Nothing on the served path (`wcoj-core`'s `join`, the service, the
//! catalog, the server) depends on this crate; the experiment harness
//! and the differential tests call it directly.
//!
//! Binary join plans:
//!
//! * [`plan`] — binary join-plan trees (with optional projections — the
//!   "join-project plans" of §6) and an instrumented executor reporting
//!   the maximum intermediate cardinality, the quantity §6's lower bounds
//!   constrain. Every binary join is `wcoj_storage::ops::natural_join`,
//!   the hash join `wcoj_core::naive` folds too;
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
//!   key partitioning (Theorem 4.1), plus the LW and Bollobás–Thomason
//!   instance shapes (builders and recognisers);
//! * [`graph_join`] — §7.1, Lemma 7.1 + Theorem 7.3: arity-≤2 queries as
//!   stars and odd cycles (the Cycle Lemma);
//! * [`half_integral`] — Lemma 7.2: basic feasible covers of graphs are
//!   half-integral and decompose into vertex-disjoint stars and odd
//!   cycles, the structure [`graph_join`] evaluates.
//!
//! And the paper's reductions that *call* the worst-case optimal join
//! rather than being one (no served query runs them):
//!
//! * [`relaxed`] — §7.2, Algorithm 6: relaxed joins `q_r` via
//!   `BFS`-equivalence classes of covering subsets;
//! * [`fd`] — §7.3: simple functional dependencies, closure-based
//!   relation expansion before the join;
//! * [`bt`] — §3 + Corollary 5.3: the algorithmic Bollobás–Thomason /
//!   Loomis–Whitney inequality (reconstruct a set from its projections);
//! * [`tighten`] — Lemma 3.2: the constructive transformation to a
//!   *tight* cover on an enlarged edge set, with the exact-rational cover
//!   checks it needs.

pub mod bt;
pub mod fd;
pub mod graph_join;
pub mod half_integral;
pub mod lw;
pub mod optimizer;
pub mod plan;
pub mod relaxed;
pub mod tighten;

pub use optimizer::{best_actual_left_deep, estimate_join_size, optimize_left_deep};
pub use plan::{execute, execute_left_deep, ExecStats, JoinPlan};
