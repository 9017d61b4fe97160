//! The literal linear program of the paper's Figure 4.
//!
//! Variables `x_{i,k}`, `y_{i,j,k}` and `z_{i,j}` with constraints (4–9),
//! relaxed to `x >= 0`. This is the formulation the paper fed to LPsolve.
//! It is faithful but large — `O(|E|·|N|)` auxiliary variables — so the
//! production path uses the equivalent cutting-plane formulation in
//! [`crate::relax`]; this module exists for fidelity and as a cross-check
//! oracle (the two must agree on the optimum, and the tests verify they do).

use crate::fractional::FractionalPlacement;
use crate::problem::CcaProblem;
use cca_lp::{Col, LpError, Model, Relation, SolverOptions};

/// Adds the columns `x_{i,k}` that both LP formulations start with, one
/// per object and node, object-major, and returns them:
/// `x[i * num_nodes + k]` is `x_{i,k}`.
pub(crate) fn add_x_columns(model: &mut Model, problem: &CcaProblem) -> Vec<Col> {
    let n = problem.num_nodes();
    let mut x = Vec::with_capacity(problem.num_objects() * n);
    for i in problem.objects() {
        for k in 0..n {
            x.push(model.add_var(format!("x_{}_{k}", i.0), 0.0));
        }
    }
    x
}

/// Adds the rows both LP formulations share, over the columns of
/// [`add_x_columns`]: (5) `assign_i`, each object fully placed, then one
/// capacity row `Σ_i d(i)·x_{i,k} <= c(k)` per dimension of the capacity
/// table and node: storage's (9) as `cap_k`, then secondary resource
/// `r`'s (paper §3.3, "in a way similar to (9)") as `res{r}_cap_k`.
pub(crate) fn add_placement_rows(model: &mut Model, problem: &CcaProblem, x: &[Col]) {
    let n = problem.num_nodes();
    for i in problem.objects() {
        model.add_constraint_with(
            format!("assign_{}", i.0),
            Relation::Eq,
            1.0,
            (0..n).map(|k| (x[i.index() * n + k], 1.0)),
        );
    }
    for (d, dim) in problem.dimensions().iter().enumerate() {
        for k in 0..n {
            let name = match d {
                0 => format!("cap_{k}"),
                _ => format!("res{}_cap_{k}", d - 1),
            };
            model.add_constraint_with(
                name,
                Relation::Le,
                dim.capacity(k) as f64,
                (problem.objects()).map(|i| (x[i.index() * n + k], dim.demand(i.index()) as f64)),
            );
        }
    }
}

/// The Figure-4 LP together with handles to its `x` variables.
#[derive(Debug, Clone)]
pub struct Figure4Lp {
    /// The assembled model (minimisation).
    pub model: Model,
    /// `x_vars[i * num_nodes + k]` is the LP column of `x_{i,k}`.
    pub x_vars: Vec<Col>,
    num_objects: usize,
    num_nodes: usize,
}

impl Figure4Lp {
    /// Builds the relaxed Figure-4 LP for `problem`.
    ///
    /// Constraint (9) is included in its direct form
    /// `Σ_i x_{i,k}·s(i) <= c(k)`; constraint (8) is substituted into the
    /// objective (`z_{i,j}` replaced by `½ Σ_k y_{i,j,k}`), which is an
    /// exact reformulation.
    #[must_use]
    pub fn build(problem: &CcaProblem) -> Self {
        let t = problem.num_objects();
        let n = problem.num_nodes();
        let mut model = Model::minimize();
        let x_vars = add_x_columns(&mut model, problem);
        let x = |i: usize, k: usize| x_vars[i * n + k];

        // y variables with objective weight r·w/2 (z substituted out),
        // one block per graph edge in [`EdgeId`] order so the column
        // layout matches the pair list.
        for edge in problem.graph().edges() {
            let e = edge.id.index();
            let half_weight = edge.weight / 2.0;
            for k in 0..n {
                let y = model.add_var(format!("y_{e}_{k}"), half_weight);
                // (6): y >= x_i - x_j  <=>  y - x_i + x_j >= 0
                model.add_constraint_with(
                    format!("c6_{e}_{k}"),
                    Relation::Ge,
                    0.0,
                    [
                        (y, 1.0),
                        (x(edge.a.index(), k), -1.0),
                        (x(edge.b.index(), k), 1.0),
                    ],
                );
                // (7): y >= x_j - x_i
                model.add_constraint_with(
                    format!("c7_{e}_{k}"),
                    Relation::Ge,
                    0.0,
                    [
                        (y, 1.0),
                        (x(edge.a.index(), k), 1.0),
                        (x(edge.b.index(), k), -1.0),
                    ],
                );
            }
        }

        // (5), (9) and the secondary capacities.
        add_placement_rows(&mut model, problem, &x_vars);

        Figure4Lp {
            model,
            x_vars,
            num_objects: t,
            num_nodes: n,
        }
    }

    /// Solves the LP and extracts the fractional placement and optimal
    /// objective.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; [`LpError::Infeasible`] means the capacity
    /// constraints cannot host all objects even fractionally.
    pub fn solve(&self, options: &SolverOptions) -> Result<(FractionalPlacement, f64), LpError> {
        let sol = self.model.solve(options)?;
        let x: Vec<f64> = self.x_vars.iter().map(|&c| sol.value(c)).collect();
        let mut frac = FractionalPlacement::new(x, self.num_objects, self.num_nodes);
        frac.normalise();
        Ok((frac, sol.objective))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CcaProblem;

    /// Two perfectly correlated objects, two nodes each fitting both:
    /// the LP can co-locate them, so the optimum is 0.
    #[test]
    fn colocatable_pair_costs_zero() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 5);
        let c = b.add_object("b", 5);
        b.add_pair(a, c, 1.0, 10.0).unwrap();
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let lp = Figure4Lp::build(&p);
        let (frac, obj) = lp.solve(&Default::default()).unwrap();
        assert!(obj.abs() < 1e-7, "objective {obj}");
        assert!(frac.split_indicator(a, c) < 1e-6);
        assert!(frac.is_stochastic(1e-6));
    }

    /// The relaxation's integrality gap on capacity: two objects that
    /// cannot integrally share a node can still share **identical
    /// fractional rows** (x = ½,½ each), because constraint (9) only
    /// bounds the expected load. The LP optimum is therefore 0 even though
    /// every integral placement pays the full pair weight — exactly why
    /// Theorem 3 is an expectation statement.
    #[test]
    fn capacity_integrality_gap_is_visible() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 10);
        let c = b.add_object("b", 10);
        b.add_pair(a, c, 0.5, 6.0).unwrap(); // weight 3
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let lp = Figure4Lp::build(&p);
        let (frac, obj) = lp.solve(&Default::default()).unwrap();
        assert!(obj.abs() < 1e-6, "LP objective {obj}, expected 0");
        assert!(frac.split_indicator(a, c) < 1e-6);
        // Expected loads respect capacity (Theorem 3's guarantee)...
        for (k, load) in frac.expected_loads(&p).iter().enumerate() {
            assert!(*load <= p.capacity(k) as f64 + 1e-6);
        }
        // ...but the integral optimum must split and pay 3.
        let (_, exact_cost) =
            crate::exact::exact_placement(&p, &crate::exact::ExactOptions::default()).unwrap();
        assert!((exact_cost - 3.0).abs() < 1e-9);
    }

    /// The degeneracy in full generality: for ANY feasible instance the
    /// uniform identical rows `x_{i,k} = c(k)/Σc` are feasible and zero
    /// every `z`, so the Figure-4 LP relaxation's optimum is always 0 —
    /// here against an integral optimum of 10 (three size-10 objects on
    /// three capacity-10 nodes must pairwise split). The integrality gap is
    /// unbounded; this is the central reproduction finding recorded in
    /// DESIGN.md and the reason the LPRR pipeline includes capacity repair.
    #[test]
    fn relaxation_is_degenerate_with_unbounded_gap() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 1.0, 5.0).unwrap(); // weight 5
        b.add_pair(o[1], o[2], 1.0, 3.0).unwrap(); // weight 3
        b.add_pair(o[0], o[2], 1.0, 2.0).unwrap(); // weight 2
        let p = b.uniform_capacities(3, 10).build().unwrap();
        let lp = Figure4Lp::build(&p);
        let (_, obj) = lp.solve(&Default::default()).unwrap();
        assert!(obj.abs() < 1e-6, "LP optimum should be 0, got {obj}");
        let (_, exact) =
            crate::exact::exact_placement(&p, &crate::exact::ExactOptions::default()).unwrap();
        assert!((exact - 10.0).abs() < 1e-9, "all pairs split: {exact}");
    }

    /// Infeasible capacities are reported.
    #[test]
    fn infeasible_capacity() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 10);
        let c = b.add_object("b", 10);
        b.add_pair(a, c, 1.0, 1.0).unwrap();
        let p = b.uniform_capacities(2, 5).build().unwrap();
        let lp = Figure4Lp::build(&p);
        assert!(matches!(
            lp.solve(&Default::default()),
            Err(LpError::Infeasible)
        ));
    }

    /// Dense and sparse solvers agree on the Figure-4 LP.
    #[test]
    fn dense_sparse_agree() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..4)
            .map(|i| b.add_object(format!("o{i}"), 2 + i as u64))
            .collect();
        b.add_pair(o[0], o[1], 0.9, 4.0).unwrap();
        b.add_pair(o[1], o[2], 0.5, 2.0).unwrap();
        b.add_pair(o[2], o[3], 0.8, 3.0).unwrap();
        b.add_pair(o[0], o[3], 0.2, 1.0).unwrap();
        let p = b.uniform_capacities(3, 8).build().unwrap();
        let lp = Figure4Lp::build(&p);
        let dense = lp.model.solve_dense().unwrap();
        let (_, sparse_obj) = lp.solve(&Default::default()).unwrap();
        assert!(
            (dense.objective - sparse_obj).abs() < 1e-6,
            "dense {} vs sparse {}",
            dense.objective,
            sparse_obj
        );
    }
}
