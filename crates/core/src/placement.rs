//! Integral placements `f : T -> N` and their evaluation.

use crate::problem::{CcaProblem, ObjectId};
use crate::resources::{limit, within};

/// An integral object placement: every object is assigned to exactly one
/// node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    assignment: Vec<u32>,
    num_nodes: usize,
}

impl Placement {
    /// Wraps an assignment vector (`assignment[object] = node`).
    ///
    /// # Panics
    ///
    /// Panics if any entry is `>= num_nodes` or `num_nodes == 0`.
    #[must_use]
    pub fn new(assignment: Vec<u32>, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "placement needs at least one node");
        assert!(
            assignment.iter().all(|&n| (n as usize) < num_nodes),
            "assignment references a node out of range"
        );
        Placement {
            assignment,
            num_nodes,
        }
    }

    /// Number of placed objects.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.assignment.len()
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Node of object `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node_of(&self, i: ObjectId) -> usize {
        self.assignment[i.index()] as usize
    }

    /// Reassigns object `i` to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `node` is out of range.
    pub fn assign(&mut self, i: ObjectId, node: usize) {
        assert!(node < self.num_nodes, "node {node} out of range");
        self.assignment[i.index()] = node as u32;
    }

    /// The raw assignment vector (`[object] = node`).
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.assignment
    }

    /// Per-node load in dimension `d` of the problem's capacity table
    /// ([`CcaProblem::dimensions`]; 0 is storage): the summed demand of
    /// the objects on each node.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range or the placement and problem
    /// disagree on object count.
    #[must_use]
    pub fn dimension_loads(&self, problem: &CcaProblem, d: usize) -> Vec<u64> {
        assert_eq!(
            self.num_objects(),
            problem.num_objects(),
            "placement and problem disagree on object count"
        );
        let mut loads = vec![0u64; self.num_nodes];
        for (&k, &demand) in self
            .assignment
            .iter()
            .zip(problem.dimensions()[d].demands())
        {
            loads[k as usize] += demand;
        }
        loads
    }

    /// Per-node total object size under `problem`: the storage loads,
    /// dimension 0 of [`Placement::dimension_loads`].
    ///
    /// # Panics
    ///
    /// Panics if the placement and problem disagree on object count.
    #[must_use]
    pub fn loads(&self, problem: &CcaProblem) -> Vec<u64> {
        self.dimension_loads(problem, 0)
    }

    /// Total communication cost `Σ_{f(i)≠f(j)} r(i,j)·w(i,j)` — the CCA
    /// objective (paper Eq. 1). A single CSR edge walk in [`EdgeId`]
    /// (pair-storage) order, bit-identical to the historic pair-list scan.
    ///
    /// [`EdgeId`]: crate::graph::EdgeId
    #[must_use]
    pub fn communication_cost(&self, problem: &CcaProblem) -> f64 {
        problem.graph().cost(self)
    }

    /// Returns `true` if every node's storage load is within its
    /// capacity, scaled by `slack` (use `slack = 1.0` for strict
    /// adherence; the paper suggests conservative capacities so slight
    /// overshoot is tolerable): the exact load is at most the limit every
    /// mover's fit test uses, `⌊capacity · slack + 1e-9⌋`, which is the
    /// capacity at slack 1.
    #[must_use]
    pub fn within_capacity(&self, problem: &CcaProblem, slack: f64) -> bool {
        self.within_dimension(problem, 0, slack)
    }

    /// Like [`Placement::within_capacity`], in every dimension of the
    /// problem's capacity table: storage and each secondary resource.
    #[must_use]
    pub fn within_all_capacities(&self, problem: &CcaProblem, slack: f64) -> bool {
        (0..problem.dimensions().len()).all(|d| self.within_dimension(problem, d, slack))
    }

    /// Every node's load in dimension `d` against its limit at `slack`.
    fn within_dimension(&self, problem: &CcaProblem, d: usize, slack: f64) -> bool {
        (self.dimension_loads(problem, d).into_iter())
            .zip(problem.dimensions()[d].capacities())
            .all(|(load, &cap)| within(load, 0, limit(cap, slack)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CcaProblem;

    fn problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("a", 10);
        let o1 = b.add_object("b", 20);
        let o2 = b.add_object("c", 30);
        b.add_pair(o0, o1, 0.5, 10.0).unwrap(); // weight 5
        b.add_pair(o1, o2, 0.1, 10.0).unwrap(); // weight 1
        b.uniform_capacities(2, 40).build().unwrap()
    }

    #[test]
    fn cost_counts_only_split_pairs() {
        let p = problem();
        // All together: zero cost.
        let all = Placement::new(vec![0, 0, 0], 2);
        assert_eq!(all.communication_cost(&p), 0.0);
        // Split (a,b): cost 5.
        let split_ab = Placement::new(vec![0, 1, 1], 2);
        assert!((split_ab.communication_cost(&p) - 5.0).abs() < 1e-12);
        // Split both pairs: cost 6.
        let split_all = Placement::new(vec![0, 1, 0], 2);
        assert!((split_all.communication_cost(&p) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn loads_and_capacity() {
        let p = problem();
        let pl = Placement::new(vec![0, 0, 1], 2);
        assert_eq!(pl.loads(&p), vec![30, 30]);
        assert!(pl.within_capacity(&p, 1.0));
        assert!(pl.within_all_capacities(&p, 1.0));

        let overloaded = Placement::new(vec![0, 0, 0], 2);
        assert_eq!(overloaded.loads(&p), vec![60, 0]);
        assert_eq!(overloaded.dimension_loads(&p, 0), vec![60, 0]);
        assert!(!overloaded.within_capacity(&p, 1.0));
        assert!(!overloaded.within_all_capacities(&p, 1.0));
        assert!(overloaded.within_capacity(&p, 1.5));
        assert!(overloaded.within_all_capacities(&p, 1.5));
    }

    #[test]
    fn capacity_checks_are_exact_above_2_pow_53() {
        let mut b = CcaProblem::builder();
        b.add_object("big", (1 << 53) + 1);
        let p = b.capacities(vec![1 << 53]).build().unwrap();
        let pl = Placement::new(vec![0], 1);
        assert!(!pl.within_capacity(&p, 1.0));
        assert!(!pl.within_all_capacities(&p, 1.0));
        assert!(pl.within_capacity(&p, 1.0 + f64::EPSILON));
        assert_eq!(
            crate::audit::audit_placement(&p, &pl, 0).violations.len(),
            1
        );
    }

    /// The limit keeps the `f64` fit test the capacity ledger used,
    /// `load ≤ capacity · slack + 1e-9`, for every load and capacity
    /// below 2^53, at NaN, signed-zero, negative and infinite slacks too.
    /// Above 2^53 the comparison is exact, and at slack 1 the limit is
    /// the capacity, whichever way the `f64` product rounds it.
    #[test]
    fn exact_comparison_keeps_the_f64_result_below_2_pow_53() {
        let slacks = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            0.5,
            0.999_999_999_999_9,
            1.0,
            1.05,
            1.15,
            1.3,
            2.0,
            2.3,
            1e300,
        ];
        let capacities: [u64; 9] = [
            0,
            1,
            3,
            20,
            100,
            999,
            1_000_000_000_000,
            (1 << 52) - 1,
            (1 << 53) - 1,
        ];
        for c in capacities {
            for s in slacks {
                let fit = c as f64 * s + 1e-9;
                let at = fit.clamp(0.0, (1u64 << 53) as f64) as u64;
                let loads = [
                    0,
                    1,
                    c.saturating_sub(1),
                    c,
                    c + 1,
                    at.saturating_sub(1),
                    at,
                    at + 1,
                ];
                for load in loads.into_iter().filter(|&l| l < 1 << 53) {
                    assert_eq!(
                        within(load, 0, limit(c, s)),
                        load as f64 <= fit,
                        "{load} vs {c} · {s}"
                    );
                }
            }
        }
        let big = (1u64 << 53) + 1;
        for c in [big, big + 2, u64::MAX - 1, u64::MAX] {
            assert_eq!(limit(c, 1.0), Some(c));
        }
        assert_eq!((big + 2) as f64, (big + 3) as f64, "rounds up");
        assert!(!within(big, 0, limit(1 << 53, 1.0)));
        assert!(within(big, 0, limit(1 << 53, 1.0 + f64::EPSILON)));
        assert_eq!(limit(big, 0.5), Some(1 << 52));
        assert_eq!(limit(u64::MAX, 1.5), Some(u64::MAX));
        assert!(within(u64::MAX, 0, limit(1, f64::INFINITY)));
        assert!(!within(u64::MAX, 1, limit(u64::MAX, 1.0)));
        assert!(within(u64::MAX - 1, 1, limit(u64::MAX, 1.0)));
    }

    #[test]
    fn assign_moves_objects() {
        let p = problem();
        let mut pl = Placement::new(vec![0, 0, 0], 2);
        pl.assign(ObjectId(2), 1);
        assert_eq!(pl.node_of(ObjectId(2)), 1);
        assert_eq!(pl.loads(&p), vec![30, 30]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_assignment_rejected() {
        let _ = Placement::new(vec![0, 3], 2);
    }
}
