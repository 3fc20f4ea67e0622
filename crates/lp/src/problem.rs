//! Problem representation: `min c·x` subject to linear constraints, `x ≥ 0`.

use crate::simplex::F64_EPS;

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
pub struct Constraint {
    /// Dense coefficient row, one entry per variable.
    pub coeffs: Vec<f64>,
    /// Constraint direction.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
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
pub struct LinearProgram {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Starts a minimisation problem with the given objective coefficients.
    #[must_use]
    pub fn minimize(objective: Vec<f64>) -> Self {
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
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraint rows.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a fully specified constraint.
    ///
    /// # Panics
    /// Panics if the coefficient row's length differs from the variable
    /// count (a programming error, not a data error).
    pub fn add_constraint(&mut self, c: Constraint) {
        assert_eq!(c.coeffs.len(), self.num_vars(), "constraint arity mismatch");
        self.constraints.push(c);
    }

    /// Adds `coeffs · x ≤ rhs`.
    pub fn le(&mut self, coeffs: Vec<f64>, rhs: f64) {
        self.add_constraint(Constraint {
            coeffs,
            sense: Sense::Le,
            rhs,
        });
    }

    /// Adds `coeffs · x ≥ rhs`.
    pub fn ge(&mut self, coeffs: Vec<f64>, rhs: f64) {
        self.add_constraint(Constraint {
            coeffs,
            sense: Sense::Ge,
            rhs,
        });
    }

    /// Adds `coeffs · x = rhs`. (Named `equals` to avoid clashing with `PartialEq::eq`.)
    pub fn equals(&mut self, coeffs: Vec<f64>, rhs: f64) {
        self.add_constraint(Constraint {
            coeffs,
            sense: Sense::Eq,
            rhs,
        });
    }

    /// Checks feasibility of `x` up to [`F64_EPS`].
    #[must_use]
    pub fn is_feasible(&self, x: &[f64]) -> bool {
        if x.len() != self.num_vars() || x.iter().any(|&v| v < -F64_EPS) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs = dot(&c.coeffs, x);
            match c.sense {
                Sense::Le => lhs <= c.rhs + F64_EPS,
                Sense::Ge => lhs >= c.rhs - F64_EPS,
                Sense::Eq => (lhs - c.rhs).abs() <= F64_EPS,
            }
        })
    }
}

/// Dense dot product.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}
