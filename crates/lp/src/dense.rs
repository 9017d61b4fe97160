//! Dense two-phase tableau simplex: the reference solver.
//!
//! Straightforward textbook implementation kept deliberately simple so it
//! can serve as a trustworthy oracle for the sparse revised simplex. Memory
//! is `O(m * n)`, so it is only suitable for small models.

use crate::model::{LpError, Model, Solution, SolveStatus};
use crate::standard::StandardForm;
use crate::tol;

/// Result of one simplex phase on the dense tableau.
enum PhaseOutcome {
    Optimal,
    Unbounded,
}

struct Tableau {
    m: usize,
    n: usize,
    /// `m x (n + 1)` row-major tableau; the last column is the rhs.
    t: Vec<Vec<f64>>,
    basis: Vec<usize>,
    /// Columns allowed to enter the basis (artificials are barred in
    /// phase 2).
    enterable: Vec<bool>,
    /// Reduced costs `d_j = c_j - c_B' B^{-1} A_j` for the current phase.
    d: Vec<f64>,
    /// Current (internal, minimisation) objective value.
    obj: f64,
    iterations: u64,
    degenerate_streak: usize,
}

impl Tableau {
    fn new(sf: &StandardForm) -> Self {
        let mut t = vec![vec![0.0; sf.n + 1]; sf.m];
        let dense = sf.a.to_dense();
        for i in 0..sf.m {
            t[i][..sf.n].copy_from_slice(&dense[i]);
            t[i][sf.n] = sf.b[i];
        }
        Tableau {
            m: sf.m,
            n: sf.n,
            t,
            basis: sf.initial_basis.clone(),
            enterable: vec![true; sf.n],
            d: vec![0.0; sf.n],
            obj: 0.0,
            iterations: 0,
            degenerate_streak: 0,
        }
    }

    /// Recomputes reduced costs and the objective for cost vector `c`.
    /// Because the tableau rows are `B^{-1} A`, the reduced costs are
    /// `d = c - c_B' T` and the objective is `c_B' B^{-1} b`.
    fn set_costs(&mut self, c: &[f64]) {
        self.d.copy_from_slice(c);
        self.obj = 0.0;
        for i in 0..self.m {
            let cb = c[self.basis[i]];
            if cb != 0.0 {
                let row = &self.t[i];
                for j in 0..self.n {
                    self.d[j] -= cb * row[j];
                }
                self.obj += cb * row[self.n];
            }
        }
    }

    /// Chooses an entering column: Dantzig rule normally, Bland's rule after
    /// a long degenerate streak (anti-cycling).
    fn choose_entering(&self, bland: bool) -> Option<usize> {
        if bland {
            (0..self.n).find(|&j| self.enterable[j] && self.d[j] < -tol::OPT)
        } else {
            let mut best = None;
            let mut best_val = -tol::OPT;
            for j in 0..self.n {
                if self.enterable[j] && self.d[j] < best_val {
                    best_val = self.d[j];
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Ratio test: returns the leaving row, or `None` if the column is
    /// unbounded. Ties are broken by the largest pivot magnitude, then by
    /// the smallest basis index (keeps Bland's rule sound).
    fn choose_leaving(&self, entering: usize, bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64, f64)> = None; // (row, ratio, pivot)
        for i in 0..self.m {
            let a = self.t[i][entering];
            if a > tol::PIVOT {
                let ratio = self.t[i][self.n] / a;
                match best {
                    None => best = Some((i, ratio, a)),
                    Some((bi, br, bp)) => {
                        let better = if ratio < br - tol::FEAS {
                            true
                        } else if ratio > br + tol::FEAS {
                            false
                        } else if bland {
                            self.basis[i] < self.basis[bi]
                        } else {
                            a > bp
                        };
                        if better {
                            best = Some((i, ratio, a));
                        }
                    }
                }
            }
        }
        best.map(|(i, _, _)| i)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot = self.t[row][col];
        debug_assert!(pivot.abs() > tol::PIVOT);
        let inv = 1.0 / pivot;
        for v in self.t[row].iter_mut() {
            *v *= inv;
        }
        // Snapshot the pivot row to satisfy the borrow checker cheaply.
        let prow = self.t[row].clone();
        for i in 0..self.m {
            if i != row {
                let factor = self.t[i][col];
                if factor != 0.0 {
                    let dst = &mut self.t[i];
                    for (v, p) in dst.iter_mut().zip(&prow) {
                        *v -= factor * p;
                    }
                    dst[col] = 0.0; // exact zero to avoid drift
                }
            }
        }
        let dfac = self.d[col];
        if dfac != 0.0 {
            for (j, p) in prow.iter().take(self.n).enumerate() {
                self.d[j] -= dfac * p;
            }
            self.d[col] = 0.0;
            self.obj += dfac * prow[self.n];
        }
        self.basis[row] = col;
    }

    fn run_phase(&mut self) -> Result<PhaseOutcome, LpError> {
        loop {
            let bland = self.degenerate_streak > 100;
            let Some(entering) = self.choose_entering(bland) else {
                return Ok(PhaseOutcome::Optimal);
            };
            let Some(leaving) = self.choose_leaving(entering, bland) else {
                return Ok(PhaseOutcome::Unbounded);
            };
            let step = self.t[leaving][self.n] / self.t[leaving][entering];
            if step.abs() <= tol::FEAS {
                self.degenerate_streak += 1;
            } else {
                self.degenerate_streak = 0;
            }
            self.pivot(leaving, entering);
            self.iterations += 1;
        }
    }

    /// Drives basic artificial variables out of the basis after phase 1, or
    /// verifies their rows are redundant.
    fn expel_artificials(&mut self, artificial_start: usize) {
        for i in 0..self.m {
            if self.basis[i] >= artificial_start {
                // Any non-artificial column with a usable pivot in this row?
                let col = (0..artificial_start).find(|&j| self.t[i][j].abs() > tol::PIVOT);
                if let Some(j) = col {
                    self.pivot(i, j);
                    self.iterations += 1;
                }
                // Otherwise the row is redundant: the artificial stays basic
                // at value zero and every non-artificial entry of its row is
                // zero, so no later pivot can change its value.
            }
        }
    }
}

pub(crate) fn solve(model: &Model) -> Result<Solution, LpError> {
    let sf = StandardForm::from_model(model);
    let mut tab = Tableau::new(&sf);

    // Phase 1: minimise the sum of artificials (skipped when none exist).
    if sf.artificial_start < sf.n {
        tab.set_costs(&sf.phase1_obj());
        match tab.run_phase()? {
            PhaseOutcome::Optimal => {}
            PhaseOutcome::Unbounded => {
                return Err(LpError::Numerical(
                    "phase-1 objective reported unbounded; it is bounded below by 0".into(),
                ));
            }
        }
        if tab.obj > tol::FEAS * 10.0 {
            return Err(LpError::Infeasible);
        }
        tab.expel_artificials(sf.artificial_start);
        for j in sf.artificial_start..sf.n {
            tab.enterable[j] = false;
        }
    }

    // Phase 2: the real objective.
    tab.set_costs(&sf.obj);
    match tab.run_phase()? {
        PhaseOutcome::Optimal => {}
        PhaseOutcome::Unbounded => return Err(LpError::Unbounded),
    }

    // Extract the primal solution.
    let mut values = vec![0.0; sf.n_structural];
    for i in 0..sf.m {
        let j = tab.basis[i];
        if j < sf.n_structural {
            values[j] = tab.t[i][sf.n];
        }
    }

    // Recover duals from the reduced costs of each row's unit column
    // (the slack of a `<=` row, the artificial otherwise):
    // d_u = c_u - y_i = -y_i because those columns cost 0 in phase 2.
    let mut y = vec![0.0; sf.m];
    {
        // Map each row to its unit column, mirroring standard-form layout.
        let mut unit_col = vec![usize::MAX; sf.m];
        for (i, &bc) in sf.initial_basis.iter().enumerate() {
            unit_col[i] = bc;
        }
        for i in 0..sf.m {
            y[i] = -tab.d[unit_col[i]];
        }
    }

    Ok(Solution {
        status: SolveStatus::Optimal,
        objective: sf.restore_objective(tab.obj),
        values,
        duals: sf.restore_duals(&y),
        iterations: tab.iterations,
    })
}

#[cfg(test)]
mod tests {
    use crate::model::{Model, Relation};
    use crate::tol::approx_eq;

    #[test]
    fn textbook_maximisation() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x = 4, y = 0, obj 12.
        let mut m = Model::maximize();
        let x = m.add_var("x", 3.0);
        let y = m.add_var("y", 2.0);
        m.add_constraint_with("r1", Relation::Le, 4.0, [(x, 1.0), (y, 1.0)]);
        m.add_constraint_with("r2", Relation::Le, 6.0, [(x, 1.0), (y, 3.0)]);
        let sol = m.solve_dense().unwrap();
        assert!(approx_eq(sol.objective, 12.0, 1e-9));
        assert!(approx_eq(sol.value(x), 4.0, 1e-9));
        assert!(approx_eq(sol.value(y), 0.0, 1e-9));
    }

    #[test]
    fn minimisation_with_ge_rows_uses_phase1() {
        // min 2x + 3y s.t. x + y >= 10, x >= 3 -> x = 10, y = 0? No:
        // cost of x is 2 < 3 so push everything to x: x = 10, y = 0, obj 20.
        let mut m = Model::minimize();
        let x = m.add_var("x", 2.0);
        let y = m.add_var("y", 3.0);
        m.add_constraint_with("cover", Relation::Ge, 10.0, [(x, 1.0), (y, 1.0)]);
        m.add_constraint_with("xmin", Relation::Ge, 3.0, [(x, 1.0)]);
        let sol = m.solve_dense().unwrap();
        assert!(approx_eq(sol.objective, 20.0, 1e-9));
        assert!(approx_eq(sol.value(x), 10.0, 1e-9));
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> y = 1, x = 2, obj 3.
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 1.0);
        m.add_constraint_with("e1", Relation::Eq, 4.0, [(x, 1.0), (y, 2.0)]);
        m.add_constraint_with("e2", Relation::Eq, 1.0, [(x, 1.0), (y, -1.0)]);
        let sol = m.solve_dense().unwrap();
        assert!(approx_eq(sol.objective, 3.0, 1e-9));
        assert!(approx_eq(sol.value(x), 2.0, 1e-9));
        assert!(approx_eq(sol.value(y), 1.0, 1e-9));
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0);
        m.add_constraint_with("lo", Relation::Ge, 5.0, [(x, 1.0)]);
        m.add_constraint_with("hi", Relation::Le, 3.0, [(x, 1.0)]);
        assert!(matches!(m.solve_dense(), Err(crate::LpError::Infeasible)));
    }

    #[test]
    fn detects_unboundedness() {
        let mut m = Model::maximize();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 0.0);
        m.add_constraint_with("r", Relation::Ge, 1.0, [(x, 1.0), (y, -1.0)]);
        assert!(matches!(m.solve_dense(), Err(crate::LpError::Unbounded)));
    }

    #[test]
    fn degenerate_model_terminates() {
        // Classic degenerate vertex: several constraints meet at the origin.
        let mut m = Model::maximize();
        let x = m.add_var("x", 0.75);
        let y = m.add_var("y", -150.0);
        let z = m.add_var("z", 0.02);
        let w = m.add_var("w", -6.0);
        // Beale's cycling example (bounded by an extra row).
        m.add_constraint_with(
            "r1",
            Relation::Le,
            0.0,
            [(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)],
        );
        m.add_constraint_with(
            "r2",
            Relation::Le,
            0.0,
            [(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)],
        );
        m.add_constraint_with("r3", Relation::Le, 1.0, [(z, 1.0)]);
        let sol = m.solve_dense().unwrap();
        assert!(approx_eq(sol.objective, 0.05, 1e-9));
    }

    #[test]
    fn redundant_rows_are_tolerated() {
        // Second equality row is exactly the first doubled.
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 2.0);
        m.add_constraint_with("e1", Relation::Eq, 2.0, [(x, 1.0), (y, 1.0)]);
        m.add_constraint_with("e2", Relation::Eq, 4.0, [(x, 2.0), (y, 2.0)]);
        let sol = m.solve_dense().unwrap();
        assert!(approx_eq(sol.objective, 2.0, 1e-9));
        assert!(approx_eq(sol.value(x), 2.0, 1e-9));
    }

    #[test]
    fn weak_duality_holds() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 4.0);
        let y = m.add_var("y", 3.0);
        let r1 = m.add_constraint_with("r1", Relation::Ge, 10.0, [(x, 2.0), (y, 1.0)]);
        let r2 = m.add_constraint_with("r2", Relation::Ge, 8.0, [(x, 1.0), (y, 3.0)]);
        let sol = m.solve_dense().unwrap();
        // Dual objective b'y must equal the primal objective at optimality.
        let dual_obj = 10.0 * sol.dual(r1) + 8.0 * sol.dual(r2);
        assert!(approx_eq(dual_obj, sol.objective, 1e-8));
        // Duals of >= rows in a minimisation are non-negative.
        assert!(sol.dual(r1) >= -1e-9);
        assert!(sol.dual(r2) >= -1e-9);
    }
}
