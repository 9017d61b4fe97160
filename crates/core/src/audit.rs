//! Placement auditing: independent verification and cost diagnostics.
//!
//! The solver reports a cost; an operator deciding whether to *install* a
//! placement wants the full picture — per-node loads against every
//! capacity dimension, where the residual communication comes from, and
//! which co-location decisions matter most. [`audit_placement`] recomputes
//! all of it from first principles, independent of the code paths that
//! produced the placement.

use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};

/// A capacity violation found by the audit.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityViolation {
    /// Node index.
    pub node: usize,
    /// Index of the dimension in the problem's capacity table: 0 =
    /// storage, `1 + r` = secondary resource `r`.
    pub dimension: usize,
    /// Name of the dimension (`"storage"` or the resource name).
    pub dimension_name: String,
    /// Load on the node in that dimension.
    pub load: u64,
    /// The node's capacity in that dimension.
    pub capacity: u64,
}

/// One split pair contributing residual communication.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPair {
    /// First object.
    pub a: ObjectId,
    /// Second object.
    pub b: ObjectId,
    /// Name of the first object.
    pub a_name: String,
    /// Name of the second object.
    pub b_name: String,
    /// The pair's weight `r·w`.
    pub weight: f64,
}

/// Full audit of a placement against its problem.
#[derive(Debug, Clone)]
pub struct PlacementAudit {
    /// Recomputed communication cost (`Σ_{split} r·w`).
    pub communication_cost: f64,
    /// Total pair weight (the all-split worst case).
    pub total_pair_weight: f64,
    /// Pairs kept local / total pairs.
    pub pairs_colocated: usize,
    /// Total number of pairs.
    pub pairs_total: usize,
    /// Storage load per node.
    pub loads: Vec<u64>,
    /// Max-over-mean storage imbalance (0 for an empty problem).
    pub imbalance: f64,
    /// All capacity violations, across storage and secondary resources.
    pub violations: Vec<CapacityViolation>,
    /// The split pairs with the largest weights, descending (up to the
    /// `top` limit given to [`audit_placement`]).
    pub heaviest_splits: Vec<SplitPair>,
    /// Objects per node.
    pub objects_per_node: Vec<usize>,
}

impl PlacementAudit {
    /// Fraction of the total pair weight kept local (1.0 when nothing is
    /// split; 1.0 for a problem with no pairs).
    #[must_use]
    pub fn locality(&self) -> f64 {
        if self.total_pair_weight <= 0.0 {
            1.0
        } else {
            1.0 - self.communication_cost / self.total_pair_weight
        }
    }

    /// Returns `true` if no capacity dimension is violated.
    #[must_use]
    pub fn feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the audit as a human-readable multi-line report.
    #[must_use]
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "communication cost: {:.2} of {:.2} ({:.1}% kept local)",
            self.communication_cost,
            self.total_pair_weight,
            100.0 * self.locality()
        );
        let _ = writeln!(
            out,
            "pairs co-located:   {} / {}",
            self.pairs_colocated, self.pairs_total
        );
        let _ = writeln!(out, "storage imbalance:  {:.2}x mean", self.imbalance);
        if self.violations.is_empty() {
            let _ = writeln!(out, "capacity:           all dimensions within limits");
        } else {
            for v in &self.violations {
                let _ = writeln!(
                    out,
                    "VIOLATION: node {} {} load {} > capacity {}",
                    v.node, v.dimension_name, v.load, v.capacity
                );
            }
        }
        if !self.heaviest_splits.is_empty() {
            let _ = writeln!(out, "heaviest split pairs:");
            for s in &self.heaviest_splits {
                let _ = writeln!(
                    out,
                    "  {} <-> {}  weight {:.3}",
                    s.a_name, s.b_name, s.weight
                );
            }
        }
        out
    }
}

/// Audits `placement` against `problem`, reporting at most `top` heaviest
/// split pairs.
///
/// ```
/// use cca_core::{audit_placement, place, CcaProblem, Strategy};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CcaProblem::builder();
/// let a = b.add_object("a", 5);
/// let c = b.add_object("b", 5);
/// b.add_pair(a, c, 0.8, 4.0)?;
/// let problem = b.uniform_capacities(2, 10).build()?;
/// let report = place(&problem, &Strategy::lprr())?;
/// let audit = audit_placement(&problem, &report.placement, 5);
/// assert!(audit.feasible());
/// assert_eq!(audit.communication_cost, report.cost);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if the placement and problem disagree on object count.
#[must_use]
pub fn audit_placement(problem: &CcaProblem, placement: &Placement, top: usize) -> PlacementAudit {
    assert_eq!(placement.num_objects(), problem.num_objects());
    let n = placement.num_nodes();

    let dim_loads: Vec<Vec<u64>> = (0..problem.dimensions().len())
        .map(|d| placement.dimension_loads(problem, d))
        .collect();
    let loads = dim_loads[0].clone();
    let mean = if n == 0 {
        0.0
    } else {
        loads.iter().sum::<u64>() as f64 / n as f64
    };
    let imbalance = if mean > 0.0 {
        *loads.iter().max().expect("n > 0") as f64 / mean
    } else {
        0.0
    };

    let mut violations = Vec::new();
    for (d, (dim, dim_loads)) in problem.dimensions().iter().zip(dim_loads).enumerate() {
        for (k, (load, &capacity)) in dim_loads.into_iter().zip(dim.capacities()).enumerate() {
            if load > capacity {
                violations.push(CapacityViolation {
                    node: k,
                    dimension: d,
                    dimension_name: dim.name().to_string(),
                    load,
                    capacity,
                });
            }
        }
    }

    // One CSR edge walk in EdgeId order (the historic pair-scan order, so
    // the accumulated cost is bit-identical); the heaviest-split list then
    // reuses the precomputed weight ordering instead of re-sorting — for
    // edges with equal weight the (a, b) tie-break makes both total
    // orders, so the selection matches the historic sort exactly.
    let graph = problem.graph();
    let mut communication_cost = 0.0;
    let mut colocated = 0usize;
    let mut split = vec![false; graph.num_edges()];
    for edge in graph.edges() {
        if placement.node_of(edge.a) == placement.node_of(edge.b) {
            colocated += 1;
        } else {
            communication_cost += edge.weight;
            split[edge.id.index()] = true;
        }
    }
    let splits: Vec<SplitPair> = graph
        .edges_by_weight()
        .iter()
        .filter(|e| split[e.index()])
        .take(top)
        .map(|&e| {
            let edge = graph.edge(e);
            SplitPair {
                a: edge.a,
                b: edge.b,
                a_name: problem.name(edge.a).to_string(),
                b_name: problem.name(edge.b).to_string(),
                weight: edge.weight,
            }
        })
        .collect();

    let mut objects_per_node = vec![0usize; n];
    for o in problem.objects() {
        objects_per_node[placement.node_of(o)] += 1;
    }

    PlacementAudit {
        communication_cost,
        total_pair_weight: problem.total_pair_weight(),
        pairs_colocated: colocated,
        pairs_total: problem.pairs().len(),
        loads,
        imbalance,
        violations,
        heaviest_splits: splits,
        objects_per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resource;

    fn problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..4).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 0.9, 10.0).unwrap(); // weight 9
        b.add_pair(o[2], o[3], 0.5, 10.0).unwrap(); // weight 5
        b.add_pair(o[0], o[2], 0.1, 10.0).unwrap(); // weight 1
        b.uniform_capacities(2, 25).build().unwrap()
    }

    #[test]
    fn audit_matches_placement_methods() {
        let p = problem();
        let pl = Placement::new(vec![0, 0, 1, 1], 2);
        let audit = audit_placement(&p, &pl, 10);
        assert_eq!(audit.communication_cost, pl.communication_cost(&p));
        assert_eq!(audit.loads, pl.loads(&p));
        assert_eq!(audit.pairs_total, 3);
        assert_eq!(audit.pairs_colocated, 2);
        assert!(audit.feasible());
        assert!((audit.locality() - (1.0 - 1.0 / 15.0)).abs() < 1e-12);
        assert_eq!(audit.objects_per_node, vec![2, 2]);
        // Only the weak cross pair is split.
        assert_eq!(audit.heaviest_splits.len(), 1);
        assert!((audit.heaviest_splits[0].weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn audit_flags_storage_violation() {
        let p = problem();
        let pl = Placement::new(vec![0, 0, 0, 1], 2);
        let audit = audit_placement(&p, &pl, 10);
        assert!(!audit.feasible());
        assert_eq!(audit.violations.len(), 1);
        assert_eq!(audit.violations[0].node, 0);
        assert_eq!(audit.violations[0].dimension_name, "storage");
        assert_eq!(audit.violations[0].load, 30);
        assert!(audit.report().contains("VIOLATION"));
    }

    #[test]
    fn audit_flags_resource_violation() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 1);
        let c = b.add_object("b", 1);
        b.add_pair(a, c, 0.5, 1.0).unwrap();
        b.uniform_capacities(2, 100);
        b.add_resource(Resource::new("bandwidth", vec![8, 8], vec![10, 10]));
        let p = b.build().unwrap();
        let pl = Placement::new(vec![0, 0], 2);
        let audit = audit_placement(&p, &pl, 10);
        assert!(!audit.feasible());
        assert_eq!(audit.violations[0].dimension_name, "bandwidth");
        assert_eq!(audit.violations[0].dimension, 1);
    }

    #[test]
    fn top_limit_truncates_split_list() {
        let p = problem();
        let pl = Placement::new(vec![0, 1, 0, 1], 2); // splits all three pairs
        let audit = audit_placement(&p, &pl, 2);
        assert_eq!(audit.heaviest_splits.len(), 2);
        assert!(audit.heaviest_splits[0].weight >= audit.heaviest_splits[1].weight);
        assert!((audit.heaviest_splits[0].weight - 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_problem_audits_clean() {
        let p = CcaProblem::builder()
            .uniform_capacities(2, 10)
            .build()
            .unwrap();
        let pl = Placement::new(vec![], 2);
        let audit = audit_placement(&p, &pl, 5);
        assert!(audit.feasible());
        assert_eq!(audit.locality(), 1.0);
        assert_eq!(audit.imbalance, 0.0);
        assert!(!audit.report().is_empty());
    }
}
