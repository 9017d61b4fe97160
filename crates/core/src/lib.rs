//! Correlation-aware object placement for multi-object operations.
//!
//! Rust reproduction of the core contribution of *Zhong, Shen, Seiferas,
//! "Correlation-Aware Object Placement for Multi-Object Operations",
//! ICDCS 2008*: the **Capacity-Constrained Assignment (CCA)** problem and a
//! polynomial-time randomized solution whose expected communication cost is
//! optimal.
//!
//! # The problem
//!
//! Given objects with sizes, nodes with capacities, and pair correlations
//! (probability two objects are requested together), find a placement
//! minimising the total communication cost of split pairs
//! (`Σ_{f(i)≠f(j)} r(i,j)·w(i,j)`) subject to per-node capacity. The
//! problem is NP-hard (it embeds minimum n-way cut).
//!
//! # The solution
//!
//! 1. Formulate the integer program of the paper's Figure 4
//!    ([`figure4::Figure4Lp`]).
//! 2. Relax to a linear program and solve it — here via an equivalent
//!    cutting-plane formulation that stays compact ([`relax`]).
//! 3. Round the fractional solution with the paper's Algorithm 2.1
//!    ([`rounding`]), whose expected cost equals the LP optimum (Theorem 2)
//!    and whose expected loads respect the capacities (Theorem 3).
//!
//! Baselines ([`greedy`], [`random`]), the important-object partial
//! optimization of §3.1 ([`scope`]), and an exact branch-and-bound oracle
//! for small instances ([`exact`]) complete the reproduction.
//!
//! # Quickstart
//!
//! ```
//! use cca_core::{place, CcaProblem, Strategy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = CcaProblem::builder();
//! let car = b.add_object("car", 100);
//! let dealer = b.add_object("dealer", 80);
//! let software = b.add_object("software", 90);
//! let download = b.add_object("download", 70);
//! b.add_pair(car, dealer, 0.30, 80.0)?;       // strongly correlated
//! b.add_pair(software, download, 0.25, 70.0)?; // strongly correlated
//! b.add_pair(car, download, 0.01, 70.0)?;      // weakly correlated
//! let problem = b.uniform_capacities(2, 200).build()?;
//!
//! let report = place(&problem, &Strategy::lprr())?;
//! // LPRR co-locates the strong pairs: only the weak pair may be split.
//! assert!(report.cost <= 0.7 + 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// Index-based loops over matrix rows/nodes are the clearest idiom for the
// numeric code in this crate; the iterator rewrites clippy suggests obscure
// the row/column arithmetic.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod audit;
pub mod cluster;
pub mod controller;
pub mod error;
pub mod exact;
pub mod figure4;
pub mod fractional;
pub mod graph;
pub mod greedy;
pub mod migrate;
pub mod persist;
pub mod placement;
pub mod problem;
pub mod random;
pub mod relax;
pub mod repair;
pub mod replica;
pub mod resilience;
pub mod resources;
pub mod rounding;
pub mod scope;
pub mod serving;
pub mod shard;
pub mod solver;

pub use audit::{audit_placement, CapacityViolation, PlacementAudit, SplitPair};
pub use cluster::{capacity_bounded_clusters, inter_cluster_weight};
pub use controller::{
    quantize_estimate, Controller, ControllerConfig, ControllerReport, EpochObservation,
    EpochOutcome, FaultRecovery,
};
pub use error::CcaError;
pub use exact::{exact_placement, ExactOptions};
pub use fractional::FractionalPlacement;
pub use graph::{CorrelationGraph, Edge, EdgeId, PlacementBatch};
pub use greedy::greedy_placement;
pub use migrate::{
    improve_in_place, improve_replicas_in_place, migration_bytes, reconcile,
    replica_migration_bytes, MigrateOptions, MigrationOutcome, MigrationSchedule, MigrationSlice,
    ReplicaMigrationOutcome,
};
pub use persist::{
    format_placement, format_replica_placement, format_report, read_placement,
    read_replica_placement, read_report,
};
pub use placement::Placement;
pub use problem::{CcaProblem, CcaProblemBuilder, ObjectId, Pair, ProblemError};
pub use random::random_hash_placement;
pub use relax::{
    construct_clustered_vertex, construct_optimal_vertex, solve_relaxation, RelaxMethod,
    RelaxOptions, RelaxOutcome, StopReason,
};
pub use repair::{repair_capacity, repair_replica_spread, RepairOutcome, ReplicaRepairOutcome};
pub use replica::{spread_copies, validate_replica_spec, DomainTree, ReplicaPlacement};
pub use resilience::{
    solve_resilient, solve_resilient_replicated, solve_resilient_with_faults, survive_domain_loss,
    survive_node_loss, DegradationReport, DomainLossReport, FaultPlan, NodeLossReport,
    ResilienceOptions, ResilientPlacement, ResilientReplicaPlacement, Rung, RungAttempt,
    RungOutcome, LADDER,
};
pub use resources::{Resource, ResourceError};
pub use rounding::{
    round_best_of, round_best_of_within, round_once, round_samples, round_samples_scored,
    RoundingOutcome,
};
pub use scope::{compose_with_hashed_rest, importance_ranking, scope_subproblem};
pub use serving::{LatencyHistogram, LiveReport, ServingReport};
pub use shard::ShardedGraph;
pub use solver::{place, place_partial, LprrOptions, PlacementReport, Strategy};
