//! Online re-optimization driver: drifting query stream → controller.
//!
//! [`run_online`] closes the loop the paper leaves open. It takes a built
//! [`Pipeline`] (whose problem was solved against the "January" query
//! model), then, epoch by epoch, drifts the query model cumulatively
//! (`cca_trace::drift`, small per-epoch σ), samples a fresh query log,
//! re-estimates pair statistics under the pipeline's
//! [`CorrelationMode`](crate::pipeline::CorrelationMode), and feeds the
//! observed co-occurrence counts to a [`Controller`] — which detects
//! drift, gates migrations on projected savings vs.
//! [`cca::algo::migration_bytes`](cca_core::migration_bytes), and
//! survives injected node loss (DESIGN.md §12).
//!
//! Determinism: with no wall-clock deadline in
//! [`ControllerConfig::deadline`], the entire run — estimates, gate
//! decisions, migrations, repairs, the final report — is a pure function
//! of `(pipeline, OnlineConfig)`; the thread count and the shard count
//! of the pipeline's problem change only how fast it runs. The drift and sampling RNG streams are seeded from
//! [`OnlineConfig::seed`] independently of the pipeline seed.

use crate::pipeline::{pair_stats, Pipeline};
use cca_core::controller::{
    Controller, ControllerConfig, ControllerReport, EpochObservation, EpochOutcome,
};
use cca_core::{greedy_placement, CcaProblem, ObjectId, Placement};
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;
use cca_trace::{DriftConfig, QueryLog};

/// Configuration of one online run.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Epochs to run.
    pub epochs: u64,
    /// Queries sampled per epoch (a power of two keeps observed
    /// correlations dyadic at the source; the controller re-quantizes
    /// either way).
    pub queries_per_epoch: usize,
    /// Per-epoch drift σ applied cumulatively to the query model. The
    /// paper's month-scale calibration is σ = 0.276 (Fig 2B); the
    /// default spreads comparable drift over ~190 epochs.
    pub drift_sigma: f64,
    /// Seed of the drift / sampling streams.
    pub seed: u64,
    /// Chaos: this many single node losses spread evenly across the run.
    pub drop_nodes: usize,
    /// Seed of the node-loss picks; loss `i` draws from `fault_seed + i`
    /// (wrapping).
    pub fault_seed: u64,
    /// Controller tuning.
    pub controller: ControllerConfig,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            epochs: 1000,
            queries_per_epoch: 64,
            drift_sigma: 0.02,
            seed: 42,
            drop_nodes: 0,
            fault_seed: 0,
            controller: ControllerConfig::default(),
        }
    }
}

/// Result of [`run_online`]: the report plus the final placement (with
/// the base problem it indexes, for persistence).
#[derive(Debug)]
pub struct OnlineOutcome {
    /// End-of-run controller account.
    pub report: ControllerReport,
    /// The final live placement.
    pub placement: Placement,
    /// The base problem the placement indexes (clone of the pipeline's).
    pub problem: CcaProblem,
}

/// Epochs (1-based) at which fault injections fire: `drop_nodes` single
/// losses spread evenly across the run.
#[must_use]
pub fn fault_epochs(epochs: u64, drop_nodes: usize) -> Vec<u64> {
    (0..drop_nodes as u64)
        .map(|i| ((i + 1) * epochs / (drop_nodes as u64 + 1)).max(1))
        .collect()
}

/// Folds one epoch's query log into the controller's estimation feed:
/// pair statistics under the pipeline's
/// [`CorrelationMode`](crate::pipeline::CorrelationMode), mapped from
/// word ids to object ids, with co-occurrence ratios recovered as integer
/// counts. Shared by the offline driver ([`run_online`]) and the live
/// runtime ([`crate::runtime::run_live`]), which feeds the *executed*
/// slice of the admitted stream through the same path — one estimator,
/// not two.
#[must_use]
pub fn epoch_observation(pipeline: &Pipeline, log: &QueryLog) -> EpochObservation {
    let stats = pair_stats(pipeline.config().correlation, log, &pipeline.index);

    let queries = stats.num_queries();
    let mut pair_counts = Vec::new();
    for (key, r) in stats.iter() {
        let (oa, ob) = (
            pipeline.object_of_word[key.0.index()],
            pipeline.object_of_word[key.1.index()],
        );
        if oa == usize::MAX || ob == usize::MAX {
            continue;
        }
        // `r` is count/num_queries with num_queries ≤ 2^53: the
        // division is exact enough to recover the integer count.
        let count = (r * queries as f64).round() as u64;
        pair_counts.push((ObjectId(oa as u32), ObjectId(ob as u32), count));
    }
    EpochObservation {
        pair_counts,
        queries,
    }
}

/// Runs the controller loop; see the module docs. Equivalent to
/// [`run_online_with`] with a no-op observer.
#[must_use]
pub fn run_online(pipeline: &Pipeline, config: &OnlineConfig) -> OnlineOutcome {
    run_online_with(pipeline, config, |_, _| {})
}

/// [`run_online`] with a per-epoch observer `(epoch, outcome)` — used by
/// tests to watch gate decisions and accumulated-loss evolution.
pub fn run_online_with(
    pipeline: &Pipeline,
    config: &OnlineConfig,
    mut observe: impl FnMut(u64, &EpochOutcome),
) -> OnlineOutcome {
    let problem = &pipeline.problem;
    let initial = greedy_placement(problem);
    let mut controller = Controller::new(problem, initial, config.controller.clone());

    let mut model = pipeline.workload.model.clone();
    let drift = DriftConfig {
        sigma: config.drift_sigma,
    };
    let mut drift_rng = StdRng::seed_from_u64(config.seed ^ 0x00d2_1f70);
    let mut sample_rng = StdRng::seed_from_u64(config.seed ^ 0x5a3b_1e00);

    let fault_at = fault_epochs(config.epochs, config.drop_nodes);
    let mut next_fault = 0usize;

    for epoch in 1..=config.epochs {
        while next_fault < fault_at.len() && fault_at[next_fault] == epoch {
            controller.inject_fault(1, config.fault_seed.wrapping_add(next_fault as u64));
            next_fault += 1;
        }

        model = model.drifted(drift, &mut drift_rng);
        let log = model.sample_log(config.queries_per_epoch, &mut sample_rng);
        let obs = epoch_observation(pipeline, &log);
        let outcome = controller.step(&obs);
        observe(epoch, &outcome);
    }

    OnlineOutcome {
        report: controller.report(),
        placement: controller.placement().clone(),
        problem: problem.clone(),
    }
}
