//! Secondary node-capacity constraints (paper §3.3).
//!
//! "In addition to the storage capacity constraint explicitly considered
//! in our problem definition, other node capacity constraints such as
//! network bandwidth and CPU processing capability may also be present. In
//! principle, we can address these problems by introducing more capacity
//! constraints into our linear programming problem in a way similar
//! to (9)."
//!
//! A [`Resource`] carries a per-object demand vector and per-node capacity
//! vector. A problem's capacity table
//! ([`CcaProblem::dimensions`](crate::CcaProblem::dimensions)) holds one
//! per dimension: storage first, then each registered resource. Every
//! placement algorithm in this crate walks that table in its fit checks,
//! and the LP builders emit one capacity row per `(dimension, node)`.

use std::fmt;

/// One capacity dimension: storage, or a secondary resource (e.g.
/// bandwidth, CPU).
///
/// Storage is a `Resource` too: entry 0 of the problem's capacity table,
/// named `"storage"`, built from the object sizes and node capacities. A
/// problem with no registered resources has that one entry and behaves
/// exactly as the paper's base formulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    name: String,
    demands: Vec<u64>,
    capacities: Vec<u64>,
}

/// Error building a [`Resource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// The demand vector length does not match the object count.
    DemandLength {
        /// Expected number of objects.
        expected: usize,
        /// Provided vector length.
        got: usize,
    },
    /// The capacity vector length does not match the node count.
    CapacityLength {
        /// Expected number of nodes.
        expected: usize,
        /// Provided vector length.
        got: usize,
    },
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::DemandLength { expected, got } => {
                write!(f, "demand vector has {got} entries, expected {expected}")
            }
            ResourceError::CapacityLength { expected, got } => {
                write!(f, "capacity vector has {got} entries, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ResourceError {}

impl Resource {
    /// Creates a resource with per-object `demands` and per-node
    /// `capacities`. Lengths are validated by
    /// [`CcaProblemBuilder::add_resource`](crate::CcaProblemBuilder::add_resource).
    #[must_use]
    pub fn new(name: impl Into<String>, demands: Vec<u64>, capacities: Vec<u64>) -> Self {
        Resource {
            name: name.into(),
            demands,
            capacities,
        }
    }

    /// Name of the resource (diagnostics only).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Demand of object `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn demand(&self, i: usize) -> u64 {
        self.demands[i]
    }

    /// Capacity of node `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn capacity(&self, k: usize) -> u64 {
        self.capacities[k]
    }

    /// Total demand over all objects.
    #[must_use]
    pub fn total_demand(&self) -> u64 {
        self.demands.iter().sum()
    }

    /// Total capacity over all nodes.
    #[must_use]
    pub fn total_capacity(&self) -> u64 {
        self.capacities.iter().sum()
    }

    /// Every object's demand, by object index.
    pub(crate) fn demands(&self) -> &[u64] {
        &self.demands
    }

    /// Every node's capacity, by node index.
    pub(crate) fn capacities(&self) -> &[u64] {
        &self.capacities
    }

    /// Replaces every node's capacity; the problem checks the length.
    pub(crate) fn set_capacities(&mut self, capacities: Vec<u64>) {
        self.capacities = capacities;
    }

    pub(crate) fn restrict(&self, keep: &[crate::problem::ObjectId]) -> Resource {
        Resource {
            name: self.name.clone(),
            demands: keep.iter().map(|&o| self.demands[o.index()]).collect(),
            capacities: self.capacities.clone(),
        }
    }

    pub(crate) fn validate(
        &self,
        num_objects: usize,
        num_nodes: usize,
    ) -> Result<(), ResourceError> {
        if self.demands.len() != num_objects {
            return Err(ResourceError::DemandLength {
                expected: num_objects,
                got: self.demands.len(),
            });
        }
        if self.capacities.len() != num_nodes {
            return Err(ResourceError::CapacityLength {
                expected: num_nodes,
                got: self.capacities.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_totals() {
        let r = Resource::new("bandwidth", vec![1, 2, 3], vec![10, 10]);
        assert_eq!(r.name(), "bandwidth");
        assert_eq!(r.demand(1), 2);
        assert_eq!(r.capacity(0), 10);
        assert_eq!(r.total_demand(), 6);
        assert_eq!(r.total_capacity(), 20);
    }

    #[test]
    fn validation_checks_lengths() {
        let r = Resource::new("cpu", vec![1, 2], vec![5]);
        assert!(r.validate(2, 1).is_ok());
        assert!(matches!(
            r.validate(3, 1),
            Err(ResourceError::DemandLength {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            r.validate(2, 2),
            Err(ResourceError::CapacityLength {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn error_display_is_nonempty() {
        let e = ResourceError::DemandLength {
            expected: 1,
            got: 2,
        };
        assert!(!e.to_string().is_empty());
    }
}
