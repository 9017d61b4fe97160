//! Sparse revised simplex with an LU-factorised basis.
//!
//! Two-phase primal simplex. The basis inverse is maintained as an LU
//! factorisation plus a product-form eta file; the basis is refactorised
//! every [`SolverOptions::refactor_every`] pivots (and whenever a fresh
//! factorisation is needed for numerical hygiene). Pricing is full Dantzig
//! with a Bland's-rule fallback after `BLAND_AFTER_DEGENERATE`
//! consecutive degenerate pivots, which guarantees termination.

use crate::model::{LpError, Model, Solution, SolveStatus, SolverOptions};
use crate::sparse::lu::LuFactors;
use crate::standard::StandardForm;
use crate::tol;

/// Pricing switches to Bland's rule after this many consecutive
/// degenerate pivots.
const BLAND_AFTER_DEGENERATE: usize = 200;

/// A product-form eta: basis position `pos` was replaced, with pivot column
/// `w = B^{-1} a_entering` stored sparsely.
#[derive(Debug, Clone)]
struct Eta {
    pos: usize,
    diag: f64,
    /// Off-diagonal entries `(basis position, w value)`.
    off: Vec<(usize, f64)>,
}

struct Simplex<'a> {
    sf: &'a StandardForm,
    opts: &'a SolverOptions,
    /// Solve start, for elapsed-vs-budget accounting in deadline errors.
    started: std::time::Instant,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Values of the basic variables, indexed by basis position.
    xb: Vec<f64>,
    lu: LuFactors,
    etas: Vec<Eta>,
    iterations: u64,
    degenerate_streak: usize,
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
}

impl<'a> Simplex<'a> {
    fn new(sf: &'a StandardForm, opts: &'a SolverOptions) -> Result<Self, LpError> {
        let basis = sf.initial_basis.clone();
        let mut in_basis = vec![false; sf.n];
        for &c in &basis {
            in_basis[c] = true;
        }
        let lu = LuFactors::factorize(&sf.a, &basis)?;
        let mut s = Simplex {
            sf,
            opts,
            started: std::time::Instant::now(),
            basis,
            in_basis,
            xb: vec![0.0; sf.m],
            lu,
            etas: Vec::new(),
            iterations: 0,
            degenerate_streak: 0,
        };
        s.recompute_xb();
        Ok(s)
    }

    /// Recomputes basic values from scratch: `x_B = B^{-1} b`.
    fn recompute_xb(&mut self) {
        let mut xb = self.sf.b.clone();
        self.ftran(&mut xb);
        self.xb = xb;
    }

    fn refactorize(&mut self) -> Result<(), LpError> {
        self.lu = LuFactors::factorize(&self.sf.a, &self.basis)?;
        self.etas.clear();
        self.recompute_xb();
        Ok(())
    }

    /// `v <- B^{-1} v`, applying LU then etas in order.
    fn ftran(&self, v: &mut [f64]) {
        self.lu.ftran(v);
        for eta in &self.etas {
            let vp = v[eta.pos] / eta.diag;
            if vp != 0.0 {
                for &(i, w) in &eta.off {
                    v[i] -= w * vp;
                }
            }
            v[eta.pos] = vp;
        }
    }

    /// `v <- B'^{-1} v`, applying etas in reverse then the LU.
    fn btran(&self, v: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let mut s = v[eta.pos];
            for &(i, w) in &eta.off {
                s -= w * v[i];
            }
            v[eta.pos] = s / eta.diag;
        }
        self.lu.btran(v);
    }

    /// Simplex multipliers for cost vector `c`: `y = B'^{-1} c_B`.
    fn multipliers(&self, c: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = self.basis.iter().map(|&j| c[j]).collect();
        self.btran(&mut y);
        y
    }

    /// Picks the entering column among `allowed` nonbasic columns.
    fn price(&self, c: &[f64], y: &[f64], barred_from: usize, bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..barred_from {
            if self.in_basis[j] {
                continue;
            }
            let d = c[j] - self.sf.a.col_dot(j, y);
            if d < -tol::OPT {
                if bland {
                    return Some(j);
                }
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((j, d));
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// Ratio test over `w = B^{-1} a_entering`. Returns the leaving basis
    /// position, or `None` when the column can increase without bound.
    fn ratio_test(&self, w: &[f64], bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64, f64)> = None; // (pos, ratio, |pivot|)
        for (i, &wi) in w.iter().enumerate() {
            if wi > tol::PIVOT {
                let ratio = (self.xb[i].max(0.0)) / wi;
                match best {
                    None => best = Some((i, ratio, wi)),
                    Some((bi, br, bp)) => {
                        let better = if ratio < br - tol::FEAS {
                            true
                        } else if ratio > br + tol::FEAS {
                            false
                        } else if bland {
                            self.basis[i] < self.basis[bi]
                        } else {
                            wi > bp
                        };
                        if better {
                            best = Some((i, ratio, wi));
                        }
                    }
                }
            }
        }
        best.map(|(i, _, _)| i)
    }

    /// Performs the basis change `basis[pos] <- entering` with pivot column
    /// `w`, updating basic values and the eta file.
    fn pivot(&mut self, pos: usize, entering: usize, w: Vec<f64>) -> Result<(), LpError> {
        let step = (self.xb[pos].max(0.0)) / w[pos];
        if step.abs() <= tol::FEAS {
            self.degenerate_streak += 1;
        } else {
            self.degenerate_streak = 0;
        }
        for (i, &wi) in w.iter().enumerate() {
            if i != pos && wi != 0.0 {
                self.xb[i] -= step * wi;
                if self.xb[i].abs() < tol::DROP {
                    self.xb[i] = 0.0;
                }
            }
        }
        self.xb[pos] = step;

        let leaving = self.basis[pos];
        self.in_basis[leaving] = false;
        self.in_basis[entering] = true;
        self.basis[pos] = entering;

        let off: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != pos && v.abs() > tol::DROP)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta {
            pos,
            diag: w[pos],
            off,
        });
        if self.etas.len() >= self.opts.refactor_every {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Runs the simplex loop for cost vector `c`, with columns at index
    /// `>= barred_from` barred from entering.
    fn run_phase(&mut self, c: &[f64], barred_from: usize) -> Result<PhaseOutcome, LpError> {
        let mut last_objective = f64::INFINITY;
        let mut stalled_for: u64 = 0;
        loop {
            // Deadline watchdog, amortised over 16 pivots (the first check
            // fires immediately, so a pre-expired deadline aborts before
            // any work is done).
            if let Some(deadline) = self.opts.deadline {
                if self.iterations.is_multiple_of(16) && std::time::Instant::now() >= deadline {
                    return Err(LpError::DeadlineExceeded {
                        iterations: self.iterations,
                        elapsed_ms: self.started.elapsed().as_millis() as u64,
                        budget_ms: deadline.saturating_duration_since(self.started).as_millis()
                            as u64,
                    });
                }
            }
            #[cfg(feature = "chaos")]
            if self
                .opts
                .chaos_poison_after
                .is_some_and(|n| self.iterations >= n)
                && !self.xb.is_empty()
            {
                self.xb[0] = f64::NAN;
            }
            // Numerical health: a NaN/Inf basic value would corrupt pricing
            // silently (every comparison against NaN is false, so the loop
            // would report a bogus optimum instead of failing).
            if self.xb.iter().any(|v| !v.is_finite()) {
                return Err(LpError::Numerical(
                    "basic solution contains a non-finite value".into(),
                ));
            }
            if self.opts.stall_iteration_limit > 0 {
                let obj = self.objective(c);
                if last_objective.is_finite()
                    && (obj - last_objective).abs() <= tol::FEAS * (1.0 + last_objective.abs())
                {
                    stalled_for += 1;
                    if stalled_for >= self.opts.stall_iteration_limit {
                        return Err(LpError::Stalled {
                            iterations: self.iterations,
                            stalled_for,
                        });
                    }
                } else {
                    stalled_for = 0;
                }
                last_objective = obj;
            }
            let bland = self.degenerate_streak > BLAND_AFTER_DEGENERATE;
            let y = self.multipliers(c);
            let Some(entering) = self.price(c, &y, barred_from, bland) else {
                return Ok(PhaseOutcome::Optimal);
            };
            // The cap stops only a solve that needs one more pivot.
            if self.opts.max_iterations > 0 && self.iterations >= self.opts.max_iterations {
                return Err(LpError::IterationLimit {
                    iterations: self.iterations,
                });
            }
            let mut w = vec![0.0; self.sf.m];
            self.sf.a.add_col_into(entering, 1.0, &mut w);
            self.ftran(&mut w);
            let mut pos = match self.ratio_test(&w, bland) {
                Some(p) => p,
                None => return Ok(PhaseOutcome::Unbounded),
            };
            // Numerical guard: a small pivot seen through a long eta chain
            // is untrustworthy and can silently make the next basis
            // singular. Refactorise, recompute the column with fresh
            // factors, and redo the ratio test.
            if w[pos].abs() < 1e-6 && !self.etas.is_empty() {
                self.refactorize()?;
                w.iter_mut().for_each(|v| *v = 0.0);
                self.sf.a.add_col_into(entering, 1.0, &mut w);
                self.ftran(&mut w);
                pos = match self.ratio_test(&w, bland) {
                    Some(p) => p,
                    None => return Ok(PhaseOutcome::Unbounded),
                };
            }
            self.pivot(pos, entering, w)?;
            self.iterations += 1;
        }
    }

    /// Current objective under cost vector `c`.
    fn objective(&self, c: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&j, &v)| c[j] * v)
            .sum()
    }

    /// After phase 1, pivots basic artificials out of the basis where
    /// possible. Rows whose artificial cannot be expelled are redundant and
    /// their artificial stays pinned at zero.
    fn expel_artificials(&mut self) -> Result<(), LpError> {
        for pos in 0..self.sf.m {
            if self.basis[pos] < self.sf.artificial_start {
                continue;
            }
            // Row `pos` of B^{-1}: btran of the unit vector.
            let mut e = vec![0.0; self.sf.m];
            e[pos] = 1.0;
            self.btran(&mut e);
            // Find a nonbasic non-artificial column with a usable pivot in
            // this row: (B^{-1} A_j)[pos] = e' A_j.
            let mut found = None;
            for j in 0..self.sf.artificial_start {
                if !self.in_basis[j] {
                    let v = self.sf.a.col_dot(j, &e);
                    if v.abs() > tol::PIVOT * 100.0 {
                        found = Some(j);
                        break;
                    }
                }
            }
            if let Some(j) = found {
                let mut w = vec![0.0; self.sf.m];
                self.sf.a.add_col_into(j, 1.0, &mut w);
                self.ftran(&mut w);
                if w[pos].abs() > tol::PIVOT {
                    self.pivot(pos, j, w)?;
                    self.iterations += 1;
                }
            }
        }
        Ok(())
    }
}

pub(crate) fn solve(model: &Model, opts: &SolverOptions) -> Result<Solution, LpError> {
    let sf = StandardForm::from_model(model);
    if sf.m == 0 {
        // No constraints: minimum of c'x over x >= 0 is 0 unless some
        // coefficient is negative, in which case the LP is unbounded.
        let sign = if sf.sense_flipped { -1.0 } else { 1.0 };
        if model.cols.iter().any(|c| sign * c.obj < -tol::OPT) {
            return Err(LpError::Unbounded);
        }
        return Ok(Solution {
            status: SolveStatus::Optimal,
            objective: 0.0,
            values: vec![0.0; sf.n_structural],
            duals: Vec::new(),
            iterations: 0,
        });
    }

    let mut s = Simplex::new(&sf, opts)?;

    // Phase 1.
    if sf.artificial_start < sf.n {
        let c1 = sf.phase1_obj();
        match s.run_phase(&c1, sf.n)? {
            PhaseOutcome::Optimal => {}
            PhaseOutcome::Unbounded => {
                return Err(LpError::Numerical(
                    "phase-1 objective reported unbounded; it is bounded below by 0".into(),
                ));
            }
        }
        if s.objective(&c1) > tol::FEAS * 10.0 {
            return Err(LpError::Infeasible);
        }
        s.expel_artificials()?;
    }

    // Phase 2: bar artificials from entering.
    match s.run_phase(&sf.obj, sf.artificial_start)? {
        PhaseOutcome::Optimal => {}
        PhaseOutcome::Unbounded => return Err(LpError::Unbounded),
    }

    // Refactorise once more for clean final values.
    s.refactorize()?;

    let mut values = vec![0.0; sf.n_structural];
    for (pos, &j) in s.basis.iter().enumerate() {
        if j < sf.n_structural {
            // Clamp tiny negatives arising from roundoff.
            values[j] = if s.xb[pos] < 0.0 && s.xb[pos] > -tol::FEAS {
                0.0
            } else {
                s.xb[pos]
            };
        }
    }
    let y = s.multipliers(&sf.obj);
    let objective = sf.restore_objective(s.objective(&sf.obj));

    Ok(Solution {
        status: SolveStatus::Optimal,
        objective,
        values,
        duals: sf.restore_duals(&y),
        iterations: s.iterations,
    })
}

#[cfg(test)]
mod tests {
    use crate::model::{Model, Relation, SolverOptions};
    use crate::tol::approx_eq;
    use cca_rand::rngs::StdRng;
    use cca_rand::{Rng, SeedableRng};

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn matches_dense_on_textbook_model() {
        let mut m = Model::maximize();
        let x = m.add_var("x", 3.0);
        let y = m.add_var("y", 2.0);
        m.add_constraint_with("r1", Relation::Le, 4.0, [(x, 1.0), (y, 1.0)]);
        m.add_constraint_with("r2", Relation::Le, 6.0, [(x, 1.0), (y, 3.0)]);
        let dense = m.solve_dense().unwrap();
        let sparse = m.solve(&opts()).unwrap();
        assert!(approx_eq(dense.objective, sparse.objective, 1e-8));
    }

    #[test]
    fn infeasible_and_unbounded_detection() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0);
        m.add_constraint_with("lo", Relation::Ge, 5.0, [(x, 1.0)]);
        m.add_constraint_with("hi", Relation::Le, 3.0, [(x, 1.0)]);
        assert!(matches!(m.solve(&opts()), Err(crate::LpError::Infeasible)));

        let mut m2 = Model::maximize();
        let x2 = m2.add_var("x", 1.0);
        m2.add_constraint_with("r", Relation::Ge, 0.0, [(x2, 1.0)]);
        assert!(matches!(m2.solve(&opts()), Err(crate::LpError::Unbounded)));
    }

    #[test]
    fn no_constraints_edge_cases() {
        let mut m = Model::minimize();
        m.add_var("x", 1.0);
        let sol = m.solve(&opts()).unwrap();
        assert_eq!(sol.objective, 0.0);

        let mut m2 = Model::minimize();
        m2.add_var("x", -1.0);
        assert!(matches!(m2.solve(&opts()), Err(crate::LpError::Unbounded)));
    }

    #[test]
    fn random_cross_check_against_dense() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut optimal = 0;
        for trial in 0..60 {
            let nv = 1 + rng.random_range(0..8);
            let nc = 1 + rng.random_range(0..8);
            let mut m = Model::minimize();
            let vars: Vec<_> = (0..nv)
                .map(|i| m.add_var(format!("x{i}"), rng.random_range(-4..=8) as f64))
                .collect();
            for r in 0..nc {
                let rel = match rng.random_range(0..3) {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                let rhs = rng.random_range(-5..=10) as f64;
                let row = m.add_constraint(format!("r{r}"), rel, rhs);
                for &v in &vars {
                    if rng.random::<f64>() < 0.6 {
                        m.set_coeff(row, v, rng.random_range(-3..=5) as f64);
                    }
                }
            }
            let dense = m.solve_dense();
            let sparse = m.solve(&opts());
            match (dense, sparse) {
                (Ok(d), Ok(s)) => {
                    assert!(
                        approx_eq(d.objective, s.objective, 1e-6),
                        "trial {trial}: dense {} vs sparse {}",
                        d.objective,
                        s.objective
                    );
                    optimal += 1;
                }
                (Err(crate::LpError::Infeasible), Err(crate::LpError::Infeasible)) => {}
                (Err(crate::LpError::Unbounded), Err(crate::LpError::Unbounded)) => {}
                (d, s) => panic!("trial {trial}: dense {d:?} vs sparse {s:?}"),
            }
        }
        assert!(optimal > 5, "too few optimal instances to be meaningful");
    }

    #[test]
    fn frequent_refactorisation_gives_same_answer() {
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_var(format!("x{i}"), 1.0 + i as f64))
            .collect();
        for r in 0..4 {
            let row = m.add_constraint(format!("r{r}"), Relation::Ge, 3.0 + r as f64);
            for (i, &v) in vars.iter().enumerate() {
                m.set_coeff(row, v, ((i + r) % 3 + 1) as f64);
            }
        }
        let a = m.solve(&SolverOptions::default()).unwrap();
        let b = m
            .solve(&SolverOptions {
                refactor_every: 1,
                ..SolverOptions::default()
            })
            .unwrap();
        assert!(approx_eq(a.objective, b.objective, 1e-9));
    }

    /// The cap stops only a solve that needs another pivot: a solve that
    /// is optimal after exactly `max_iterations` pivots returns.
    #[test]
    fn iteration_limit_is_honoured() {
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..10).map(|i| m.add_var(format!("x{i}"), 1.0)).collect();
        for r in 0..10 {
            let row = m.add_constraint(format!("r{r}"), Relation::Ge, 1.0 + r as f64);
            for (i, &v) in vars.iter().enumerate() {
                m.set_coeff(row, v, (1 + (i * r + i) % 5) as f64);
            }
        }
        let full = m.solve(&SolverOptions::default()).unwrap();
        let k = full.iterations;
        assert!(k >= 2, "need a multi-pivot solve, got {k}");
        let capped = |max_iterations| {
            m.solve(&SolverOptions {
                max_iterations,
                ..SolverOptions::default()
            })
        };
        let at_cap = capped(k).expect("a solve that fits the cap returns");
        assert_eq!(at_cap.iterations, k);
        assert_eq!(at_cap.objective.to_bits(), full.objective.to_bits());
        assert!(matches!(
            capped(k - 1),
            Err(crate::LpError::IterationLimit { iterations }) if iterations == k - 1
        ));
    }

    #[test]
    fn pre_expired_deadline_aborts_immediately() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 2.0);
        m.add_constraint_with("r", Relation::Ge, 3.0, [(x, 1.0), (y, 1.0)]);
        let res = m.solve(&SolverOptions {
            deadline: Some(std::time::Instant::now()),
            ..SolverOptions::default()
        });
        assert!(matches!(res, Err(crate::LpError::DeadlineExceeded { .. })));
    }

    #[test]
    fn generous_deadline_does_not_disturb_the_solve() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 4.0);
        let y = m.add_var("y", 3.0);
        m.add_constraint_with("r1", Relation::Ge, 10.0, [(x, 2.0), (y, 1.0)]);
        m.add_constraint_with("r2", Relation::Ge, 8.0, [(x, 1.0), (y, 3.0)]);
        let plain = m.solve(&SolverOptions::default()).unwrap();
        let timed = m
            .solve(&SolverOptions {
                deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(600)),
                stall_iteration_limit: 100_000,
                ..SolverOptions::default()
            })
            .unwrap();
        assert!(approx_eq(plain.objective, timed.objective, 1e-9));
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_poison_triggers_the_health_alarm() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 1.0);
        let y = m.add_var("y", 2.0);
        m.add_constraint_with("r", Relation::Ge, 3.0, [(x, 1.0), (y, 1.0)]);
        let res = m.solve(&SolverOptions {
            chaos_poison_after: Some(0),
            ..SolverOptions::default()
        });
        assert!(matches!(res, Err(crate::LpError::Numerical(_))), "{res:?}");
    }

    #[test]
    fn duality_gap_is_zero_at_optimum() {
        let mut m = Model::minimize();
        let x = m.add_var("x", 4.0);
        let y = m.add_var("y", 3.0);
        let r1 = m.add_constraint_with("r1", Relation::Ge, 10.0, [(x, 2.0), (y, 1.0)]);
        let r2 = m.add_constraint_with("r2", Relation::Ge, 8.0, [(x, 1.0), (y, 3.0)]);
        let sol = m.solve(&opts()).unwrap();
        let dual_obj = 10.0 * sol.dual(r1) + 8.0 * sol.dual(r2);
        assert!(approx_eq(dual_obj, sol.objective, 1e-8));
    }
}
