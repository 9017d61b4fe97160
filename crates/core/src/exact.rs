//! Exact solver for small CCA instances (test oracle).
//!
//! The CCA problem is NP-hard (paper Theorem 1; minimum n-way cut embeds
//! into it), so no polynomial exact algorithm is expected. This module
//! provides a branch-and-bound search usable up to ~a dozen objects, which
//! the test suite uses to confirm that the LP relaxation lower-bounds the
//! integral optimum and that LPRR placements land close to it.

use crate::graph::CorrelationGraph;
use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use crate::resources::Loads;

/// Options for [`exact_placement`].
#[derive(Debug, Clone, Copy)]
pub struct ExactOptions {
    /// Abort after visiting this many search nodes (returns `None`).
    pub max_visited: u64,
}

impl Default for ExactOptions {
    fn default() -> Self {
        ExactOptions {
            max_visited: 50_000_000,
        }
    }
}

/// One depth-first branch-and-bound: the problem's precomputed branching
/// order, plus the search state.
struct Search<'a> {
    problem: &'a CcaProblem,
    /// Objects in branching order (heaviest pair involvement first).
    order: Vec<ObjectId>,
    /// CSR adjacency over the correlated pairs.
    graph: &'a CorrelationGraph,
    uniform_capacity: bool,
    best_cost: f64,
    best: Option<Vec<u32>>,
    current: Vec<u32>,
    /// The capacity ledger of `current` at slack 1, where every limit is
    /// the capacity.
    loads: Loads,
    visited: u64,
    max_visited: u64,
}

impl Search<'_> {
    /// Branching limit at `depth`. For uniform capacities only the used
    /// nodes plus one fresh node are worth trying (interchangeable nodes
    /// make the rest symmetric).
    fn max_node(&self, depth: usize) -> usize {
        let n = self.problem.num_nodes();
        if !self.uniform_capacity {
            return n;
        }
        let mut hi = -1i64;
        for d in 0..depth {
            hi = hi.max(i64::from(self.current[self.order[d].index()]));
        }
        ((hi + 2).min(n as i64)) as usize
    }

    fn dfs(&mut self, depth: usize, cost: f64) {
        if self.visited >= self.max_visited {
            return;
        }
        self.visited += 1;
        if cost >= self.best_cost - 1e-12 {
            return;
        }
        if depth == self.order.len() {
            self.best_cost = cost;
            self.best = Some(self.current.clone());
            return;
        }
        let obj = self.order[depth];
        // Symmetry breaking for uniform capacities: only branch on nodes
        // 0..=max_used+1.
        let max_node = self.max_node(depth);
        for k in 0..max_node {
            if !self.loads.fits(k, obj) {
                continue;
            }
            // Incremental cost: split pairs against already-assigned
            // neighbours.
            let mut extra = 0.0;
            for (other, weight) in self.graph.neighbors(obj) {
                let assigned = self.current[other.index()];
                if assigned != u32::MAX && assigned as usize != k {
                    extra += weight;
                }
            }
            self.loads.add(obj, k);
            self.current[obj.index()] = k as u32;
            self.dfs(depth + 1, cost + extra);
            self.current[obj.index()] = u32::MAX;
            self.loads.remove(obj, k);
        }
    }
}

/// Finds the minimum-communication-cost placement satisfying the
/// capacities exactly, or `None` if the instance is infeasible or the
/// search budget is exhausted.
///
/// Intended for instances with at most ~12 objects; the branching factor is
/// the node count.
///
/// ```
/// use cca_core::{exact_placement, CcaProblem, ExactOptions};
/// # fn main() -> Result<(), cca_core::ProblemError> {
/// let mut b = CcaProblem::builder();
/// let a = b.add_object("a", 5);
/// let c = b.add_object("b", 5);
/// b.add_pair(a, c, 1.0, 7.0)?;
/// let problem = b.uniform_capacities(2, 10).build()?;
/// let (placement, cost) = exact_placement(&problem, &ExactOptions::default()).unwrap();
/// assert_eq!(cost, 0.0); // the pair fits together
/// assert_eq!(placement.node_of(a), placement.node_of(c));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn exact_placement(problem: &CcaProblem, options: &ExactOptions) -> Option<(Placement, f64)> {
    let t = problem.num_objects();
    if t == 0 {
        return Some((Placement::new(Vec::new(), problem.num_nodes()), 0.0));
    }

    let graph = problem.graph();

    // Branch on objects with the most incident weight first, then larger
    // size (better pruning). Each row sums in CSR row order, the order the
    // local adjacency build used.
    let mut order: Vec<ObjectId> = problem.objects().collect();
    let incident: Vec<f64> = problem
        .objects()
        .map(|o| graph.neighbors(o).map(|(_, w)| w).sum())
        .collect();
    order.sort_unstable_by(|&x, &y| {
        incident[y.index()]
            .partial_cmp(&incident[x.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(problem.size(y).cmp(&problem.size(x)))
            .then(x.cmp(&y))
    });

    let dims = problem.dimensions();
    let uniform_capacity =
        (0..problem.num_nodes()).all(|k| dims.iter().all(|d| d.capacity(k) == d.capacity(0)));
    let mut search = Search {
        problem,
        order,
        graph,
        uniform_capacity,
        best_cost: f64::INFINITY,
        best: None,
        current: vec![u32::MAX; t],
        loads: Loads::new(problem, &[], 1.0),
        visited: 0,
        max_visited: options.max_visited,
    };
    search.dfs(0, 0.0);

    search.best.map(|assignment| {
        let placement = Placement::new(assignment, problem.num_nodes());
        let cost = placement.communication_cost(problem);
        (placement, cost)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_rand::rngs::StdRng;
    use cca_rand::{Rng, SeedableRng};

    #[test]
    fn trivial_instances() {
        // Empty problem.
        let p = CcaProblem::builder()
            .uniform_capacities(2, 10)
            .build()
            .unwrap();
        let (pl, cost) = exact_placement(&p, &ExactOptions::default()).unwrap();
        assert_eq!(pl.num_objects(), 0);
        assert_eq!(cost, 0.0);

        // One object.
        let mut b = CcaProblem::builder();
        b.add_object("a", 5);
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let (pl, cost) = exact_placement(&p, &ExactOptions::default()).unwrap();
        assert_eq!(pl.num_objects(), 1);
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn colocates_when_possible() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 5);
        let c = b.add_object("b", 5);
        b.add_pair(a, c, 1.0, 7.0).unwrap();
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let (pl, cost) = exact_placement(&p, &ExactOptions::default()).unwrap();
        assert_eq!(pl.node_of(a), pl.node_of(c));
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn splits_cheapest_edge_of_triangle() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 1.0, 5.0).unwrap();
        b.add_pair(o[1], o[2], 1.0, 3.0).unwrap();
        b.add_pair(o[0], o[2], 1.0, 2.0).unwrap();
        let p = b.uniform_capacities(2, 20).build().unwrap();
        let (pl, cost) = exact_placement(&p, &ExactOptions::default()).unwrap();
        // Optimal: o2 alone (cost 3 + 2 = 5).
        assert!((cost - 5.0).abs() < 1e-12);
        assert_eq!(pl.node_of(o[0]), pl.node_of(o[1]));
        assert_ne!(pl.node_of(o[0]), pl.node_of(o[2]));
    }

    #[test]
    fn infeasible_returns_none() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 10);
        b.add_object("b", 10);
        let p = b.uniform_capacities(2, 5).build().unwrap();
        assert!(exact_placement(&p, &ExactOptions::default()).is_none());
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..15 {
            let t = 2 + rng.random_range(0..5usize);
            let n = 2 + rng.random_range(0..2usize);
            let mut b = CcaProblem::builder();
            let objs: Vec<_> = (0..t)
                .map(|i| b.add_object(format!("o{i}"), 1 + rng.random_range(0..4)))
                .collect();
            for i in 0..t {
                for j in i + 1..t {
                    if rng.random::<f64>() < 0.6 {
                        b.add_pair(objs[i], objs[j], rng.random::<f64>(), 1.0)
                            .unwrap();
                    }
                }
            }
            let p = b.uniform_capacities(n, 6).build().unwrap();

            // Brute force over all n^t assignments.
            let mut brute_best: Option<f64> = None;
            let total = (n as u64).pow(t as u32);
            for code in 0..total {
                let mut c = code;
                let assignment: Vec<u32> = (0..t)
                    .map(|_| {
                        let k = (c % n as u64) as u32;
                        c /= n as u64;
                        k
                    })
                    .collect();
                let pl = Placement::new(assignment, n);
                if pl.within_capacity(&p, 1.0) {
                    let cost = pl.communication_cost(&p);
                    if brute_best.is_none_or(|bb| cost < bb) {
                        brute_best = Some(cost);
                    }
                }
            }

            let bb = exact_placement(&p, &ExactOptions::default());
            match (brute_best, bb) {
                (Some(want), Some((_, got))) => {
                    assert!(
                        (want - got).abs() < 1e-9,
                        "trial {trial}: brute {want} vs b&b {got}"
                    );
                }
                (None, None) => {}
                (want, got) => panic!("trial {trial}: brute {want:?} vs b&b {got:?}"),
            }
        }
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let mut b = CcaProblem::builder();
        let objs: Vec<_> = (0..10).map(|i| b.add_object(format!("o{i}"), 1)).collect();
        for i in 0..10 {
            for j in i + 1..10 {
                b.add_pair(objs[i], objs[j], 0.5, 1.0).unwrap();
            }
        }
        let p = b.uniform_capacities(4, 10).build().unwrap();
        assert!(exact_placement(&p, &ExactOptions { max_visited: 1 }).is_none());
    }
}
