//! Problem representation: `min c·x` subject to linear constraints, `x ≥ 0`.

use crate::scalar::Scalar;

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// One linear constraint `coeffs · x  <sense>  rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint<S> {
    /// Dense coefficient row, one entry per variable.
    pub coeffs: Vec<S>,
    /// Constraint direction.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: S,
}

/// A minimisation LP over non-negative variables.
///
/// ```
/// use wcoj_lp::{LinearProgram, Sense, solve, Status};
/// // min x + y  s.t.  x + 2y ≥ 2,  3x + y ≥ 3
/// let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
/// lp.ge(vec![1.0, 2.0], 2.0);
/// lp.ge(vec![3.0, 1.0], 3.0);
/// let sol = solve(&lp).unwrap();
/// assert_eq!(sol.status, Status::Optimal);
/// assert!((sol.objective - 1.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram<S> {
    objective: Vec<S>,
    constraints: Vec<Constraint<S>>,
}

impl<S: Scalar> LinearProgram<S> {
    /// Starts a minimisation problem with the given objective coefficients.
    #[must_use]
    pub fn minimize(objective: Vec<S>) -> Self {
        LinearProgram {
            objective,
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The objective coefficient vector.
    #[must_use]
    pub fn objective(&self) -> &[S] {
        &self.objective
    }

    /// The constraint rows.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint<S>] {
        &self.constraints
    }

    /// Adds a fully specified constraint.
    ///
    /// # Panics
    /// Panics if the coefficient row's length differs from the variable
    /// count (a programming error, not a data error).
    pub fn add_constraint(&mut self, c: Constraint<S>) {
        assert_eq!(c.coeffs.len(), self.num_vars(), "constraint arity mismatch");
        self.constraints.push(c);
    }

    /// Adds `coeffs · x ≤ rhs`.
    pub fn le(&mut self, coeffs: Vec<S>, rhs: S) {
        self.add_constraint(Constraint {
            coeffs,
            sense: Sense::Le,
            rhs,
        });
    }

    /// Adds `coeffs · x ≥ rhs`.
    pub fn ge(&mut self, coeffs: Vec<S>, rhs: S) {
        self.add_constraint(Constraint {
            coeffs,
            sense: Sense::Ge,
            rhs,
        });
    }

    /// Adds `coeffs · x = rhs`. (Named `equals` to avoid clashing with `PartialEq::eq`.)
    pub fn equals(&mut self, coeffs: Vec<S>, rhs: S) {
        self.add_constraint(Constraint {
            coeffs,
            sense: Sense::Eq,
            rhs,
        });
    }

    /// Checks feasibility of `x` (with the scalar's own tolerance).
    #[must_use]
    pub fn is_feasible(&self, x: &[S]) -> bool {
        if x.len() != self.num_vars() || x.iter().any(Scalar::is_negative) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let Some(lhs) = dot(&c.coeffs, x) else {
                return false;
            };
            match c.sense {
                Sense::Le => !c.rhs.lt(&lhs),
                Sense::Ge => !lhs.lt(&c.rhs),
                Sense::Eq => {
                    let Some(d) = lhs.sub(&c.rhs) else {
                        return false;
                    };
                    d.is_zero()
                }
            }
        })
    }
}

/// Dense dot product; `None` on arithmetic overflow.
pub(crate) fn dot<S: Scalar>(a: &[S], b: &[S]) -> Option<S> {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = S::zero();
    for (x, y) in a.iter().zip(b) {
        acc = acc.add(&x.mul(y)?)?;
    }
    Some(acc)
}
