//! A small, self-contained linear-programming toolkit.
//!
//! The NPRR paper treats "solve the fractional edge-cover linear program" as
//! a black-box preprocessing step (§2, Remark 5.2). No LP solver is in the
//! allowed dependency set, so this crate implements one from scratch:
//!
//! * [`LinearProgram`] — a minimisation problem `min c·x` subject to linear
//!   constraints with `≤ / ≥ / =` senses and `x ≥ 0`;
//! * [`simplex::solve`] — a dense `f64` **two-phase primal simplex** with
//!   Bland's anti-cycling rule;
//! * [`Solution::exact_vertex`] — the same optimal vertex in exact
//!   [`wcoj_rational::Rational`]s, solved from the simplex's final basis,
//!   for wherever the *vertex structure* of the cover polytope matters
//!   (e.g. the half-integrality of Lemma 7.2 and the `BFS(S)`
//!   equivalence classes of §7.2).
//!
//! The solver returns not just an optimal point but the final **basis**,
//! because the paper's relaxed join algorithm (Algorithm 6) groups edge
//! subsets by the *support of an optimal basic feasible solution*, and
//! Lemma 7.2's proof is about extreme points, not merely optimal values.
//!
//! Determinism: given the same problem the solver performs the same pivots
//! (Bland's rule is deterministic), so `BFS(S)` is computed "in a consistent
//! manner" as §7.2 requires.

mod problem;
pub mod simplex;

pub use problem::{Constraint, LinearProgram, Sense};
pub use simplex::{solve, LpError, Solution, Status, F64_EPS};

#[cfg(test)]
mod tests;
