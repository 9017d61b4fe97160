//! Fractional placements — solutions of the LP relaxation.

use crate::problem::{CcaProblem, ObjectId};

/// A fractional object placement: `x[i][k]` is the fraction of object `i`
/// placed at node `k` (paper §2.2 — "an object can be split into arbitrary
/// parts and placed at different nodes").
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalPlacement {
    x: Vec<f64>,
    num_objects: usize,
    num_nodes: usize,
}

impl FractionalPlacement {
    /// Wraps a row-major `num_objects x num_nodes` matrix.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match or any entry is non-finite.
    #[must_use]
    pub fn new(x: Vec<f64>, num_objects: usize, num_nodes: usize) -> Self {
        assert_eq!(x.len(), num_objects * num_nodes, "dimension mismatch");
        assert!(x.iter().all(|v| v.is_finite()), "non-finite entry");
        FractionalPlacement {
            x,
            num_objects,
            num_nodes,
        }
    }

    /// An integral placement viewed fractionally (used for seeding cuts and
    /// in tests).
    #[must_use]
    pub fn from_integral(assignment: &[u32], num_nodes: usize) -> Self {
        let mut x = vec![0.0; assignment.len() * num_nodes];
        for (i, &k) in assignment.iter().enumerate() {
            x[i * num_nodes + k as usize] = 1.0;
        }
        FractionalPlacement {
            x,
            num_objects: assignment.len(),
            num_nodes,
        }
    }

    /// Number of objects.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Fraction `x_{i,k}` of object `i` at node `k`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[must_use]
    pub fn fraction(&self, i: ObjectId, k: usize) -> f64 {
        assert!(k < self.num_nodes, "node out of range");
        self.x[i.index() * self.num_nodes + k]
    }

    /// Row of fractions for object `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: ObjectId) -> &[f64] {
        let s = i.index() * self.num_nodes;
        &self.x[s..s + self.num_nodes]
    }

    /// The split indicator `z_{i,j} = ½ Σ_k |x_{i,k} − x_{j,k}|` of the
    /// paper's constraint (8): 0 when the fractional rows coincide, 1 when
    /// they have disjoint support.
    #[must_use]
    pub fn split_indicator(&self, i: ObjectId, j: ObjectId) -> f64 {
        let (ri, rj) = (self.row(i), self.row(j));
        0.5 * ri.iter().zip(rj).map(|(a, b)| (a - b).abs()).sum::<f64>()
    }

    /// The LP objective value `Σ_e r·w·z_e` this fractional placement
    /// attains on `problem` — also the **expected** communication cost of
    /// rounding it with Algorithm 2.1 (paper Theorem 2).
    #[must_use]
    pub fn expected_cost(&self, problem: &CcaProblem) -> f64 {
        problem
            .graph()
            .edges()
            .map(|e| e.weight * self.split_indicator(e.a, e.b))
            .sum()
    }

    /// Expected per-node loads `Σ_i x_{i,k}·s(i)` (paper Theorem 3 bounds
    /// these by the capacities).
    #[must_use]
    pub fn expected_loads(&self, problem: &CcaProblem) -> Vec<f64> {
        let mut loads = vec![0.0; self.num_nodes];
        for i in problem.objects() {
            let s = problem.size(i) as f64;
            for (k, load) in loads.iter_mut().enumerate() {
                *load += s * self.fraction(i, k);
            }
        }
        loads
    }

    /// Checks the structural LP constraints: entries in `[0, 1]` and rows
    /// summing to 1, within `tol`.
    #[must_use]
    pub fn is_stochastic(&self, tol: f64) -> bool {
        if !self.x.iter().all(|&v| (-tol..=1.0 + tol).contains(&v)) {
            return false;
        }
        (0..self.num_objects).all(|i| {
            let s: f64 = self.row(ObjectId(i as u32)).iter().sum();
            (s - 1.0).abs() <= tol * self.num_nodes as f64
        })
    }

    /// Clamps entries into `[0, 1]` and renormalises each row to sum to 1
    /// (cleans up solver roundoff before rounding).
    ///
    /// # Panics
    ///
    /// Panics if a row sums to zero after clamping (cannot be renormalised).
    pub fn normalise(&mut self) {
        for v in &mut self.x {
            *v = v.clamp(0.0, 1.0);
        }
        for i in 0..self.num_objects {
            let s = i * self.num_nodes;
            let row = &mut self.x[s..s + self.num_nodes];
            let sum: f64 = row.iter().sum();
            assert!(sum > 0.0, "object {i} has an all-zero fractional row");
            for v in row {
                *v /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CcaProblem;

    fn problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 10);
        let c = b.add_object("b", 10);
        b.add_pair(a, c, 1.0, 4.0).unwrap();
        b.uniform_capacities(2, 20).build().unwrap()
    }

    #[test]
    fn split_indicator_extremes() {
        // Identical rows -> 0; disjoint rows -> 1.
        let same = FractionalPlacement::new(vec![0.5, 0.5, 0.5, 0.5], 2, 2);
        assert_eq!(same.split_indicator(ObjectId(0), ObjectId(1)), 0.0);
        let disjoint = FractionalPlacement::new(vec![1.0, 0.0, 0.0, 1.0], 2, 2);
        assert_eq!(disjoint.split_indicator(ObjectId(0), ObjectId(1)), 1.0);
        let half = FractionalPlacement::new(vec![1.0, 0.0, 0.5, 0.5], 2, 2);
        assert!((half.split_indicator(ObjectId(0), ObjectId(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expected_cost_uses_pair_weights() {
        let p = problem();
        let f = FractionalPlacement::new(vec![1.0, 0.0, 0.5, 0.5], 2, 2);
        // weight 4, z = 0.5 -> expected 2.
        assert!((f.expected_cost(&p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn expected_loads() {
        let p = problem();
        let f = FractionalPlacement::new(vec![1.0, 0.0, 0.5, 0.5], 2, 2);
        let loads = f.expected_loads(&p);
        assert!((loads[0] - 15.0).abs() < 1e-12);
        assert!((loads[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stochastic_check_and_normalise() {
        let mut f = FractionalPlacement::new(vec![1.2, -0.1, 0.3, 0.3], 2, 2);
        assert!(!f.is_stochastic(1e-9));
        f.normalise();
        assert!(f.is_stochastic(1e-9));
        assert!((f.fraction(ObjectId(0), 0) - 1.0).abs() < 1e-12);
        assert!((f.fraction(ObjectId(1), 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_integral_is_zero_one() {
        let f = FractionalPlacement::from_integral(&[1, 0, 1], 2);
        assert_eq!(f.fraction(ObjectId(0), 1), 1.0);
        assert_eq!(f.fraction(ObjectId(0), 0), 0.0);
        assert!(f.is_stochastic(0.0));
        assert_eq!(f.split_indicator(ObjectId(0), ObjectId(2)), 0.0);
        assert_eq!(f.split_indicator(ObjectId(0), ObjectId(1)), 1.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = FractionalPlacement::new(vec![1.0; 3], 2, 2);
    }
}
