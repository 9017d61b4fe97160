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
//!
//! "Fits" is decided here, once: `limit` turns a capacity and a slack
//! (§2.3's "conservative capacities") into the most a node may hold, and
//! every check and mover compares exact integer loads with it.

use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
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

/// `capacity · slack` as an `f64`, the one place the product is taken:
/// [`limit`] floors it, and repair ranks overloaded nodes by it.
fn scaled(capacity: u64, slack: f64) -> f64 {
    capacity as f64 * slack
}

/// The capacity rule: a load fits a node of `capacity` at `slack` iff it
/// is at most `⌊capacity · slack + 1e-9⌋` (the tolerance absorbs the
/// product's rounding: `100 · 1.15` is just under 115 in `f64`), which
/// saturates at `u64::MAX`. A NaN or negative value admits nothing, not
/// even an empty node (`None`). The product rounds capacities above 2^53
/// either way, so the limit is at least the capacity when `slack ≥ 1`
/// and at most it when `slack ≤ 1`: at slack 1 it is the capacity.
pub(crate) fn limit(capacity: u64, slack: f64) -> Option<u64> {
    let fit = scaled(capacity, slack) + 1e-9;
    // `as` floors a non-negative value and saturates at `u64::MAX`.
    (fit >= 0.0).then(|| {
        let mut limit = fit as u64;
        if slack >= 1.0 {
            limit = limit.max(capacity);
        }
        if slack <= 1.0 {
            limit = limit.min(capacity);
        }
        limit
    })
}

/// Whether `load + demand` is within `limit` ([`limit`]), compared
/// exactly: no sum is formed, so nothing wraps.
pub(crate) fn within(load: u64, demand: u64, limit: Option<u64>) -> bool {
    limit.is_some_and(|l| demand <= l && load <= l - demand)
}

/// The capacity ledger of every mover: the load of every copy on every
/// node in every dimension of the capacity table (storage, then each
/// secondary resource, paper §3.3) against its [`limit`] at one slack.
/// Each dimension is a contiguous column, so a problem without secondary
/// resources scans storage alone. Sums saturate: nothing wraps.
pub(crate) struct Loads {
    slack: f64,
    dims: Vec<Dim>,
}

/// One dimension of [`Loads`].
struct Dim {
    /// `demand[i]`: one copy of object `i`.
    demand: Vec<u64>,
    /// `load[k]`: every copy on node `k`.
    load: Vec<u64>,
    /// `limit[k]`: node `k`'s [`limit`].
    limit: Vec<Option<u64>>,
}

impl Loads {
    /// The ledger of the copies in `columns` (one column per copy; none
    /// for an empty ledger) under the problem's own demands.
    pub(crate) fn new(problem: &CcaProblem, columns: &[Placement], slack: f64) -> Self {
        let dims = problem.dimensions();
        Loads::with_demands(problem, columns, slack, |i, d| dims[d].demand(i.index()))
    }

    /// [`Loads::new`] with `demand(i, d)` as one copy of object `i`'s
    /// demand in dimension `d` of the capacity table.
    pub(crate) fn with_demands(
        problem: &CcaProblem,
        columns: &[Placement],
        slack: f64,
        demand: impl Fn(ObjectId, usize) -> u64,
    ) -> Self {
        let dims = (problem.dimensions().iter().enumerate())
            .map(|(d, dim)| {
                let demand: Vec<u64> = problem.objects().map(|i| demand(i, d)).collect();
                let mut load = vec![0u64; problem.num_nodes()];
                for column in columns {
                    for (&k, &x) in column.as_slice().iter().zip(&demand) {
                        load[k as usize] = load[k as usize].saturating_add(x);
                    }
                }
                Dim {
                    limit: (dim.capacities().iter())
                        .map(|&c| limit(c, slack))
                        .collect(),
                    demand,
                    load,
                }
            })
            .collect();
        Loads { slack, dims }
    }

    /// The fit test: one more copy of `obj` fits on `node` when, in every
    /// dimension, `load + demand` is within the limit.
    pub(crate) fn fits(&self, node: usize, obj: ObjectId) -> bool {
        (self.dims.iter()).all(|d| within(d.load[node], d.demand[obj.index()], d.limit[node]))
    }

    /// [`Loads::fits`] on every node: `out[k]` says whether one more copy
    /// of `obj` fits on node `k`.
    pub(crate) fn fit_row(&self, obj: ObjectId, out: &mut [bool]) {
        out.fill(true);
        for d in &self.dims {
            let x = d.demand[obj.index()];
            for ((ok, &load), &limit) in out.iter_mut().zip(&d.load).zip(&d.limit) {
                *ok &= within(load, x, limit);
            }
        }
    }

    /// The summed demand of one copy of each object in `group`, one entry
    /// per dimension.
    pub(crate) fn demand(&self, group: &[ObjectId]) -> Vec<u64> {
        (self.dims.iter())
            .map(|d| (group.iter()).fold(0u64, |s, o| s.saturating_add(d.demand[o.index()])))
            .collect()
    }

    /// Group fits: the fit test for a group whose summed demand is
    /// `demand` ([`Loads::demand`]).
    pub(crate) fn fits_demand(&self, node: usize, demand: &[u64]) -> bool {
        (self.dims.iter().zip(demand)).all(|(d, &x)| within(d.load[node], x, d.limit[node]))
    }

    /// The storage demand of one copy of `obj`.
    pub(crate) fn size(&self, obj: ObjectId) -> u64 {
        self.dims[0].demand[obj.index()]
    }

    /// The storage load of `node`: every copy on it.
    pub(crate) fn storage(&self, node: usize) -> u64 {
        self.dims[0].load[node]
    }

    /// The storage `node` has left under its limit, negative once it is
    /// over (and `i128::MIN` when its limit admits nothing).
    pub(crate) fn headroom(&self, node: usize) -> i128 {
        let d = &self.dims[0];
        d.limit[node].map_or(i128::MIN, |l| i128::from(l) - i128::from(d.load[node]))
    }

    /// Whether `node` is over its limit in some dimension.
    pub(crate) fn over(&self, node: usize) -> bool {
        (self.dims.iter()).any(|d| !within(d.load[node], 0, d.limit[node]))
    }

    /// The key repair ranks overloaded nodes by: `node`'s worst relative
    /// excess `(load − c) / (1 + c)` over every dimension, where `c` is
    /// the `f64` `capacity · slack` without the fit tolerance.
    pub(crate) fn overload(&self, problem: &CcaProblem, node: usize) -> f64 {
        (self.dims.iter().zip(problem.dimensions()))
            .map(|(d, dim)| {
                let c = scaled(dim.capacity(node), self.slack);
                (d.load[node] as f64 - c) / (1.0 + c)
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Places one more copy of `obj` on `node`.
    pub(crate) fn add(&mut self, obj: ObjectId, node: usize) {
        for d in &mut self.dims {
            d.load[node] = d.load[node].saturating_add(d.demand[obj.index()]);
        }
    }

    /// Takes one copy of `obj` off `node`, which holds it.
    pub(crate) fn remove(&mut self, obj: ObjectId, node: usize) {
        for d in &mut self.dims {
            d.load[node] -= d.demand[obj.index()];
        }
    }

    /// Moves one copy of `obj` from `src` to `dst`.
    pub(crate) fn apply(&mut self, obj: ObjectId, src: usize, dst: usize) {
        self.remove(obj, src);
        self.add(obj, dst);
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
