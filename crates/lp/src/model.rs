//! Linear-program model builder and solution types.

use std::fmt;

/// Optimisation direction of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `a'x <= b`
    Le,
    /// `a'x >= b`
    Ge,
    /// `a'x = b`
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Relation::Le => f.write_str("<="),
            Relation::Ge => f.write_str(">="),
            Relation::Eq => f.write_str("="),
        }
    }
}

/// Handle to a decision variable (column) of a [`Model`].
///
/// All variables are non-negative; this matches the placement LP, where the
/// per-object assignment constraints `Σ_k x_{i,k} = 1` already imply
/// `x_{i,k} <= 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Col(pub(crate) usize);

impl Col {
    /// Index of this column in [`Solution::values`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a constraint (row) of a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row(pub(crate) usize);

impl Row {
    /// Index of this row in [`Solution::duals`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Error returned by the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit {
        /// Number of simplex iterations performed.
        iterations: u64,
    },
    /// The wall-clock deadline ([`SolverOptions::deadline`]) passed before
    /// convergence.
    DeadlineExceeded {
        /// Number of simplex iterations performed.
        iterations: u64,
        /// Wall-clock milliseconds elapsed since the solve started.
        elapsed_ms: u64,
        /// Milliseconds of budget the solve was granted (solve start to
        /// deadline).
        budget_ms: u64,
    },
    /// The objective made no progress for
    /// [`SolverOptions::stall_iteration_limit`] consecutive iterations —
    /// the numerical-health watchdog for cycling or crawling solves.
    Stalled {
        /// Number of simplex iterations performed.
        iterations: u64,
        /// Consecutive iterations without objective progress when the
        /// watchdog fired.
        stalled_for: u64,
    },
    /// The solver encountered numerical trouble it could not recover from.
    Numerical(String),
    /// The model itself is malformed (e.g. non-finite coefficient).
    InvalidModel(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => f.write_str("linear program is infeasible"),
            LpError::Unbounded => f.write_str("linear program is unbounded"),
            LpError::IterationLimit { iterations } => {
                write!(f, "iteration limit reached after {iterations} iterations")
            }
            LpError::DeadlineExceeded {
                iterations,
                elapsed_ms,
                budget_ms,
            } => {
                write!(
                    f,
                    "deadline exceeded after {iterations} iterations \
                     ({elapsed_ms} ms elapsed, budget {budget_ms} ms)"
                )
            }
            LpError::Stalled {
                iterations,
                stalled_for,
            } => {
                write!(
                    f,
                    "objective stalled after {iterations} iterations \
                     ({stalled_for} consecutive without progress)"
                )
            }
            LpError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            LpError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
        }
    }
}

impl std::error::Error for LpError {}

/// Options controlling the sparse revised simplex.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Cap on simplex iterations, counted over both phases of one solve: a
    /// solve that reaches its optimum within this many returns, and one
    /// that needs a further pivot fails with [`LpError::IterationLimit`].
    /// `0` means no limit.
    pub max_iterations: u64,
    /// Refactorise the basis after this many eta updates.
    pub refactor_every: usize,
    /// Wall-clock deadline; checked periodically inside the pivot loop.
    /// Past it the solve aborts with [`LpError::DeadlineExceeded`].
    pub deadline: Option<std::time::Instant>,
    /// Abort with [`LpError::Stalled`] after this many consecutive
    /// iterations without objective progress. `0` disables the watchdog.
    /// Set it well above the 200 degenerate pivots after which pricing
    /// switches to Bland's rule, so the anti-cycling rule gets a chance to
    /// break degeneracy first.
    pub stall_iteration_limit: u64,
    /// Fault injection for resilience tests: from this iteration on, the
    /// first basic value is overwritten with NaN, which the health check
    /// must catch. Ignored unless the crate is built with the `chaos`
    /// feature.
    pub chaos_poison_after: Option<u64>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            max_iterations: 0,
            refactor_every: 64,
            deadline: None,
            stall_iteration_limit: 0,
            chaos_poison_after: None,
        }
    }
}

/// Optimal solution of a linear program.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status (always [`SolveStatus::Optimal`] on success).
    pub status: SolveStatus,
    /// Objective value in the model's original sense.
    pub objective: f64,
    /// Primal values, indexed by [`Col::index`].
    pub values: Vec<f64>,
    /// Dual values (simplex multipliers), indexed by [`Row::index`].
    ///
    /// Signs follow the minimisation convention of the internal standard
    /// form; for a maximisation model they are negated back so that weak
    /// duality holds in the original sense.
    pub duals: Vec<f64>,
    /// Total simplex iterations across both phases.
    pub iterations: u64,
}

impl Solution {
    /// Primal value of variable `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` does not belong to the solved model.
    #[must_use]
    pub fn value(&self, c: Col) -> f64 {
        self.values[c.0]
    }

    /// Dual value of constraint `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not belong to the solved model.
    #[must_use]
    pub fn dual(&self, r: Row) -> f64 {
        self.duals[r.0]
    }
}

#[derive(Debug, Clone)]
pub(crate) struct ColDef {
    pub name: String,
    pub obj: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct RowDef {
    pub name: String,
    pub relation: Relation,
    pub rhs: f64,
    /// Sparse coefficients `(col, value)`, unsorted, possibly with duplicate
    /// columns (duplicates are summed during standardisation).
    pub coeffs: Vec<(usize, f64)>,
}

/// Builder for a linear program over non-negative variables.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) cols: Vec<ColDef>,
    pub(crate) rows: Vec<RowDef>,
}

impl Model {
    /// Creates an empty minimisation model.
    #[must_use]
    pub fn minimize() -> Self {
        Model {
            sense: Sense::Minimize,
            cols: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Creates an empty maximisation model.
    #[must_use]
    pub fn maximize() -> Self {
        Model {
            sense: Sense::Maximize,
            cols: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Optimisation direction of this model.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables added so far.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.cols.len()
    }

    /// Number of constraints added so far.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Number of structural non-zero coefficients added so far.
    #[must_use]
    pub fn num_nonzeros(&self) -> usize {
        self.rows.iter().map(|r| r.coeffs.len()).sum()
    }

    /// Adds a non-negative variable with objective coefficient `obj` and
    /// returns its handle.
    pub fn add_var(&mut self, name: impl Into<String>, obj: f64) -> Col {
        let id = self.cols.len();
        self.cols.push(ColDef {
            name: name.into(),
            obj,
        });
        Col(id)
    }

    /// Adds a constraint `a'x (relation) rhs` with an initially empty
    /// left-hand side and returns its handle. Populate coefficients with
    /// [`Model::set_coeff`].
    pub fn add_constraint(&mut self, name: impl Into<String>, relation: Relation, rhs: f64) -> Row {
        let id = self.rows.len();
        self.rows.push(RowDef {
            name: name.into(),
            relation,
            rhs,
            coeffs: Vec::new(),
        });
        Row(id)
    }

    /// Adds `coeff * var` to the left-hand side of `row`. Repeated calls for
    /// the same `(row, var)` pair accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `var` does not belong to this model.
    pub fn set_coeff(&mut self, row: Row, var: Col, coeff: f64) {
        assert!(var.0 < self.cols.len(), "column out of range");
        let r = &mut self.rows[row.0];
        if coeff != 0.0 {
            r.coeffs.push((var.0, coeff));
        }
    }

    /// Adds a constraint with all its coefficients in one call.
    pub fn add_constraint_with(
        &mut self,
        name: impl Into<String>,
        relation: Relation,
        rhs: f64,
        coeffs: impl IntoIterator<Item = (Col, f64)>,
    ) -> Row {
        let row = self.add_constraint(name, relation, rhs);
        for (c, v) in coeffs {
            self.set_coeff(row, c, v);
        }
        row
    }

    /// Objective coefficient of `var`.
    #[must_use]
    pub fn objective_coeff(&self, var: Col) -> f64 {
        self.cols[var.0].obj
    }

    /// Name given to `var` at creation.
    #[must_use]
    pub fn var_name(&self, var: Col) -> &str {
        &self.cols[var.0].name
    }

    /// Validates that every coefficient, objective entry and right-hand side
    /// is finite.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidModel`] naming the offending entity.
    pub fn check_finite(&self) -> Result<(), LpError> {
        for (i, c) in self.cols.iter().enumerate() {
            if !c.obj.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "objective coefficient of column {i} ({}) is not finite",
                    c.name
                )));
            }
        }
        for (i, r) in self.rows.iter().enumerate() {
            if !r.rhs.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "rhs of row {i} ({}) is not finite",
                    r.name
                )));
            }
            for &(c, v) in &r.coeffs {
                if !v.is_finite() {
                    return Err(LpError::InvalidModel(format!(
                        "coefficient of column {c} in row {i} ({}) is not finite",
                        r.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Solves with the dense two-phase tableau simplex (reference solver).
    ///
    /// Intended for small models and cross-checking; memory use is
    /// `O(rows * cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Infeasible`], [`LpError::Unbounded`], or a
    /// numerical/model error.
    pub fn solve_dense(&self) -> Result<Solution, LpError> {
        self.check_finite()?;
        crate::dense::solve(self)
    }

    /// Solves with the sparse revised simplex (production solver).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::Infeasible`], [`LpError::Unbounded`],
    /// [`LpError::IterationLimit`], or a numerical/model error.
    pub fn solve(&self, options: &SolverOptions) -> Result<Solution, LpError> {
        self.check_finite()?;
        crate::sparse::revised::solve(self, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_duplicate_coefficients() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0);
        let r = m.add_constraint("r", Relation::Ge, 3.0);
        m.set_coeff(r, x, 1.0);
        m.set_coeff(r, x, 0.5);
        // 1.5x >= 3 => x = 2 at optimum.
        let sol = m.solve_dense().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn check_finite_rejects_nan_rhs() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0);
        let r = m.add_constraint("r", Relation::Ge, f64::NAN);
        m.set_coeff(r, x, 1.0);
        assert!(matches!(m.check_finite(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0);
        let r = m.add_constraint("r", Relation::Ge, 1.0);
        m.set_coeff(r, x, 0.0);
        assert_eq!(m.num_nonzeros(), 0);
    }

    #[test]
    fn display_of_relations() {
        assert_eq!(Relation::Le.to_string(), "<=");
        assert_eq!(Relation::Ge.to_string(), ">=");
        assert_eq!(Relation::Eq.to_string(), "=");
    }

    #[test]
    fn error_display_is_nonempty() {
        for e in [
            LpError::Infeasible,
            LpError::Unbounded,
            LpError::IterationLimit { iterations: 5 },
            LpError::DeadlineExceeded {
                iterations: 5,
                elapsed_ms: 12,
                budget_ms: 10,
            },
            LpError::Stalled {
                iterations: 5,
                stalled_for: 3,
            },
            LpError::Numerical("x".into()),
            LpError::InvalidModel("y".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn budget_errors_report_elapsed_and_stall_detail() {
        let deadline = LpError::DeadlineExceeded {
            iterations: 160,
            elapsed_ms: 57,
            budget_ms: 50,
        };
        assert_eq!(
            deadline.to_string(),
            "deadline exceeded after 160 iterations (57 ms elapsed, budget 50 ms)"
        );
        let stalled = LpError::Stalled {
            iterations: 900,
            stalled_for: 64,
        };
        assert_eq!(
            stalled.to_string(),
            "objective stalled after 900 iterations (64 consecutive without progress)"
        );
    }
}
