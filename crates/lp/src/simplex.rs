//! Dense two-phase primal simplex with Bland's anti-cycling rule, and an
//! exact solve of its final basis.
//!
//! Cover LPs are tiny (one variable per hyperedge, one constraint per
//! attribute), so a dense `f64` tableau recomputing reduced costs per
//! iteration is both simple and plenty fast. Bland's rule guarantees
//! termination on the degenerate vertices common in cover polytopes (e.g.
//! every LW instance is degenerate).
//!
//! The tableau's vertex is only as exact as `f64`. [`Solution::exact_vertex`]
//! recovers it exactly: it keeps the optimal basis's columns of the
//! original standard-form rows and solves `B·x_B = b` over [`Rational`]s.
//! That system is exact whenever the constraints are integral, as a cover
//! LP's 0/1 rows with right-hand side 1 are; the objective (`log₂ N_e`,
//! irrational) is never read.

use crate::problem::{dot, LinearProgram, Sense};
use std::fmt;
use wcoj_rational::Rational;

/// Absolute tolerance for `f64` pivoting and feasibility checks — ample
/// for cover LPs whose coefficients are `{0, 1}` and whose objective
/// weights are `log N_e` with `N_e ≤ 2^63`.
pub const F64_EPS: f64 = 1e-9;

fn is_zero(v: f64) -> bool {
    v.abs() <= F64_EPS
}

fn is_negative(v: f64) -> bool {
    v < -F64_EPS
}

fn is_positive(v: f64) -> bool {
    v > F64_EPS
}

/// `a < b` beyond the tolerance.
fn lt(a: f64, b: f64) -> bool {
    a < b - F64_EPS
}

/// Outcome classification of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
}

/// Solver failures that are *errors*, not problem classifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The exact basis solve overflowed `i128`.
    Overflow,
    /// The `f64` simplex's final basis is singular, or its vertex is not
    /// feasible, in exact arithmetic.
    InexactBasis,
    /// Safety iteration cap hit (should not happen with Bland's rule).
    IterationLimit,
    /// Structurally malformed input (e.g. no variables).
    BadProblem(&'static str),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Overflow => write!(f, "exact arithmetic overflow in the basis solve"),
            LpError::InexactBasis => write!(f, "the final basis is not an exact vertex"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::BadProblem(m) => write!(f, "malformed linear program: {m}"),
        }
    }
}
impl std::error::Error for LpError {}

/// Result of a solve: status plus (when optimal) the optimal vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Problem classification.
    pub status: Status,
    /// Values of the structural variables (empty unless [`Status::Optimal`]).
    pub x: Vec<f64>,
    /// Objective value at `x` (zero unless optimal).
    pub objective: f64,
    /// Structural variables that are **basic** in the final tableau.
    ///
    /// The support of the returned vertex is a subset of this set; §7.2's
    /// `BFS(S)` uses the *positive-value* support, see [`Solution::support`].
    pub basic_structural: Vec<usize>,
    /// The final basis (empty unless optimal), for [`Solution::exact_vertex`].
    basis: Basis,
}

/// The optimal basis in the original standard-form rows: enough to solve
/// `B·x_B = b` again in exact arithmetic.
#[derive(Debug, Clone, Default, PartialEq)]
struct Basis {
    /// The kind of each basic column, in basis order.
    cols: Vec<Col>,
    /// `B`, row-major: `matrix[i][k]` is basic column `k`'s coefficient in
    /// standard-form row `i`.
    matrix: Vec<Vec<f64>>,
    /// `b`, the standard-form right-hand side.
    rhs: Vec<f64>,
}

impl Solution {
    fn without_vertex(status: Status) -> Solution {
        Solution {
            status,
            x: Vec::new(),
            objective: 0.0,
            basic_structural: Vec::new(),
            basis: Basis::default(),
        }
    }

    /// Indices of structural variables with value above [`F64_EPS`] — the
    /// support of the basic feasible solution (paper §7.2, `BFS(S)`).
    #[must_use]
    pub fn support(&self) -> Vec<usize> {
        self.x
            .iter()
            .enumerate()
            .filter(|(_, &v)| is_positive(v))
            .map(|(i, _)| i)
            .collect()
    }

    /// The vertex `x` exactly: `B·x_B = b` solved by Gauss–Jordan
    /// elimination over [`Rational`]s at the final basis, nonbasic
    /// variables zero. The result is checked to be a feasible vertex.
    /// Empty unless [`Status::Optimal`], like `x`.
    ///
    /// # Errors
    /// * [`LpError::BadProblem`] if a coefficient or right-hand side of
    ///   `B·x_B = b` is not an integer;
    /// * [`LpError::Overflow`] if a value leaves `i128`;
    /// * [`LpError::InexactBasis`] if `B` is singular or the exact vertex
    ///   is infeasible (the `f64` pivots chose a wrong basis).
    pub fn exact_vertex(&self) -> Result<Vec<Rational>, LpError> {
        let b = &self.basis;
        let m = b.rhs.len();
        // The augmented matrix [B | b].
        let mut a = b
            .matrix
            .iter()
            .zip(&b.rhs)
            .map(|(row, rhs)| row.iter().chain([rhs]).map(|&v| integer(v)).collect())
            .collect::<Result<Vec<Vec<Rational>>, LpError>>()?;
        for c in 0..m {
            let p = (c..m)
                .find(|&i| !a[i][c].is_zero())
                .ok_or(LpError::InexactBasis)?;
            a.swap(c, p);
            // B is mostly 0/1: skip the zeros and unit pivots, which would
            // leave every value as it is.
            if a[c][c] != Rational::ONE {
                let inv = Rational::ONE
                    .checked_div(a[c][c])
                    .ok_or(LpError::Overflow)?;
                for v in a[c][c..].iter_mut().filter(|v| !v.is_zero()) {
                    *v = v.checked_mul(inv).ok_or(LpError::Overflow)?;
                }
            }
            let pivot = a[c].clone();
            for (i, row) in a.iter_mut().enumerate() {
                let f = row[c];
                if i == c || f.is_zero() {
                    continue;
                }
                for (v, p) in row[c..].iter_mut().zip(&pivot[c..]) {
                    if !p.is_zero() {
                        *v = f
                            .checked_mul(*p)
                            .and_then(|fp| v.checked_sub(fp))
                            .ok_or(LpError::Overflow)?;
                    }
                }
            }
        }
        let mut x = vec![Rational::ZERO; self.x.len()];
        for (&col, row) in b.cols.iter().zip(&a) {
            let v = row[m];
            if v.is_negative() || (col == Col::Artificial && !v.is_zero()) {
                return Err(LpError::InexactBasis);
            }
            if let Col::Structural(j) = col {
                x[j] = v;
            }
        }
        Ok(x)
    }
}

/// An integral `f64` as a [`Rational`].
fn integer(v: f64) -> Result<Rational, LpError> {
    if v.fract() != 0.0 {
        return Err(LpError::BadProblem(
            "exact solve needs integral constraint coefficients",
        ));
    }
    // `i128::MAX as f64` rounds up to 2^127, the first value out of range.
    if v.abs() >= i128::MAX as f64 {
        return Err(LpError::Overflow);
    }
    Ok(Rational::from_int(v as i128))
}

/// Column classification in the standard-form tableau.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Col {
    Structural(usize),
    Slack,
    Artificial,
}

struct Tableau {
    /// `rows × (cols + 1)`; last entry of each row is the RHS.
    rows: Vec<Vec<f64>>,
    /// Basis: for each row, the index of its basic column.
    basis: Vec<usize>,
    kind: Vec<Col>,
    /// Columns barred from entering (artificials in phase 2).
    banned: Vec<bool>,
    cols: usize,
}

impl Tableau {
    fn rhs(&self, i: usize) -> f64 {
        self.rows[i][self.cols]
    }

    /// Reduced cost of column `j` under costs `c`: `c_j − c_B · B⁻¹A_j`.
    fn reduced_cost(&self, c: &[f64], j: usize) -> f64 {
        let mut acc = c[j];
        for (i, row) in self.rows.iter().enumerate() {
            let cb = c[self.basis[i]];
            if !is_zero(cb) && !is_zero(row[j]) {
                acc -= cb * row[j];
            }
        }
        acc
    }

    /// Performs one pivot on `(row, col)`; the caller picks `|a_rc| > ε`.
    fn pivot(&mut self, r: usize, c: usize) {
        let inv = 1.0 / self.rows[r][c];
        for v in &mut self.rows[r] {
            if !is_zero(*v) {
                *v *= inv;
            }
        }
        self.rows[r][c] = 1.0;
        let pivot_row = self.rows[r].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i == r || is_zero(row[c]) {
                continue;
            }
            let factor = row[c];
            for (v, &p) in row.iter_mut().zip(&pivot_row) {
                if !is_zero(p) {
                    *v -= factor * p;
                }
            }
            row[c] = 0.0;
        }
        self.basis[r] = c;
    }

    /// Runs simplex iterations to optimality for costs `c` (minimisation).
    /// Returns `Ok(true)` if optimal, `Ok(false)` if unbounded.
    fn optimize(&mut self, c: &[f64], max_iters: usize) -> Result<bool, LpError> {
        for _ in 0..max_iters {
            // Bland's rule: entering = smallest-index column with negative
            // reduced cost.
            let entering = (0..self.cols).find(|&j| {
                !self.banned[j] && !self.basis.contains(&j) && is_negative(self.reduced_cost(c, j))
            });
            let Some(j) = entering else {
                return Ok(true); // optimal
            };
            // Ratio test; Bland tie-break on smallest basic variable index.
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.rows.len() {
                let a = self.rows[i][j];
                if !is_positive(a) {
                    continue;
                }
                let ratio = self.rhs(i) / a;
                let better = match leave {
                    None => true,
                    Some((li, lr)) => {
                        lt(ratio, lr) || (!lt(lr, ratio) && self.basis[i] < self.basis[li])
                    }
                };
                if better {
                    leave = Some((i, ratio));
                }
            }
            let Some((r, _)) = leave else {
                return Ok(false); // unbounded direction
            };
            self.pivot(r, j);
        }
        Err(LpError::IterationLimit)
    }
}

/// Solves `lp` with the two-phase primal simplex.
///
/// # Errors
/// Returns [`LpError`] on the safety iteration cap or a malformed problem.
/// Infeasibility and unboundedness are reported via [`Solution::status`],
/// not as errors.
pub fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    let n = lp.num_vars();
    if n == 0 {
        return Err(LpError::BadProblem("no variables"));
    }
    let m = lp.num_constraints();

    // ---- standard form -------------------------------------------------
    // Count extra columns: one slack/surplus per inequality, one artificial
    // per Ge/Eq row (and per Le row with negative rhs, which flips to Ge).
    let mut kind: Vec<Col> = (0..n).map(Col::Structural).collect();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut senses = Vec::with_capacity(m);
    for c in lp.constraints() {
        let mut row = c.coeffs.clone();
        let mut rhs = c.rhs;
        let mut sense = c.sense;
        if is_negative(rhs) {
            for v in &mut row {
                *v = -*v;
            }
            rhs = -rhs;
            sense = match sense {
                Sense::Le => Sense::Ge,
                Sense::Ge => Sense::Le,
                Sense::Eq => Sense::Eq,
            };
        }
        row.push(rhs);
        rows.push(row);
        senses.push(sense);
    }

    // Allocate slack/surplus columns.
    let mut slack_col = vec![usize::MAX; m];
    for (i, s) in senses.iter().enumerate() {
        if matches!(s, Sense::Le | Sense::Ge) {
            slack_col[i] = kind.len();
            kind.push(Col::Slack);
        }
    }
    // Allocate artificial columns.
    let mut art_col = vec![usize::MAX; m];
    for (i, s) in senses.iter().enumerate() {
        if matches!(s, Sense::Ge | Sense::Eq) {
            art_col[i] = kind.len();
            kind.push(Col::Artificial);
        }
    }
    let cols = kind.len();

    // Widen rows: structural coeffs .. slack .. artificial .. rhs.
    let mut basis = vec![usize::MAX; m];
    let mut wide: Vec<Vec<f64>> = Vec::with_capacity(m);
    for (i, mut row) in rows.into_iter().enumerate() {
        let rhs = row.pop().expect("rhs present");
        row.resize(cols, 0.0);
        match senses[i] {
            Sense::Le => {
                row[slack_col[i]] = 1.0;
                basis[i] = slack_col[i];
            }
            Sense::Ge => {
                row[slack_col[i]] = -1.0;
                row[art_col[i]] = 1.0;
                basis[i] = art_col[i];
            }
            Sense::Eq => {
                row[art_col[i]] = 1.0;
                basis[i] = art_col[i];
            }
        }
        row.push(rhs);
        wide.push(row);
    }
    // The pivots overwrite `wide`; the exact basis solve needs the original.
    let standard_form = wide.clone();

    let mut t = Tableau {
        rows: wide,
        basis,
        banned: vec![false; cols],
        kind,
        cols,
    };
    let max_iters = 1000 * (m + cols + 1);

    // ---- phase 1: minimise the sum of artificials ----------------------
    let has_artificials = t.kind.iter().any(|k| matches!(k, Col::Artificial));
    if has_artificials {
        let c1: Vec<f64> = t
            .kind
            .iter()
            .map(|k| {
                if matches!(k, Col::Artificial) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let optimal = t.optimize(&c1, max_iters)?;
        debug_assert!(optimal, "phase 1 is bounded below by 0");
        // Phase-1 objective value = Σ artificial basic values.
        let mut p1 = 0.0;
        for (i, &b) in t.basis.iter().enumerate() {
            if matches!(t.kind[b], Col::Artificial) {
                p1 += t.rhs(i);
            }
        }
        if is_positive(p1) {
            return Ok(Solution::without_vertex(Status::Infeasible));
        }
        // Drive remaining (degenerate) artificials out of the basis.
        for i in 0..t.rows.len() {
            let b = t.basis[i];
            if !matches!(t.kind[b], Col::Artificial) {
                continue;
            }
            let pivot_col = (0..t.cols)
                .find(|&j| !matches!(t.kind[j], Col::Artificial) && !is_zero(t.rows[i][j]));
            if let Some(j) = pivot_col {
                t.pivot(i, j);
            }
            // If no pivot exists the row is all-zero (redundant); leaving the
            // artificial basic at value zero is harmless once it is banned.
        }
        for (j, k) in t.kind.iter().enumerate() {
            if matches!(k, Col::Artificial) {
                t.banned[j] = true;
            }
        }
    }

    // ---- phase 2: minimise the real objective --------------------------
    let mut c2 = vec![0.0; t.cols];
    for (j, k) in t.kind.iter().enumerate() {
        if let Col::Structural(v) = k {
            c2[j] = lp.objective()[*v];
        }
    }
    let optimal = t.optimize(&c2, max_iters)?;
    if !optimal {
        return Ok(Solution::without_vertex(Status::Unbounded));
    }

    // ---- extract --------------------------------------------------------
    let mut x = vec![0.0; n];
    let mut basic_structural = Vec::new();
    for (i, &b) in t.basis.iter().enumerate() {
        if let Col::Structural(v) = t.kind[b] {
            x[v] = t.rhs(i);
            basic_structural.push(v);
        }
    }
    basic_structural.sort_unstable();
    let objective = dot(lp.objective(), &x);
    debug_assert!(
        lp.is_feasible(&x),
        "simplex returned an infeasible point: {x:?}"
    );
    let basis = Basis {
        cols: t.basis.iter().map(|&b| t.kind[b]).collect(),
        matrix: standard_form
            .iter()
            .map(|row| t.basis.iter().map(|&b| row[b]).collect())
            .collect(),
        rhs: standard_form.iter().map(|row| row[cols]).collect(),
    };
    Ok(Solution {
        status: Status::Optimal,
        x,
        objective,
        basic_structural,
        basis,
    })
}
