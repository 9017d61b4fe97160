//! Live re-optimizing runtime: serving and the drift controller in one
//! epoch-structured loop (DESIGN.md §14).
//!
//! [`run_live`] unifies the two halves that [`crate::serve`] and
//! [`crate::online`] previously exercised separately. Each epoch:
//!
//! 1. **Migrate** — if the controller has a staged migration, ship one
//!    byte-budgeted slice ([`Controller::advance_migration`]) and swap
//!    the serving cluster to the updated placement *between* admission
//!    windows (queries never observe a half-applied epoch).
//! 2. **Serve** — drift the query model, sample the epoch's offered
//!    stream, and serve it in batched admission windows
//!    ([`crate::serve::serve`]) against the current cluster. The slice's
//!    bytes are charged into the same virtual-time ledger as query
//!    traffic: every query in the epoch carries
//!    `migrated_bytes × SERVICE_BYTE_NS / offered` extra virtual
//!    nanoseconds ([`ServeConfig::overhead_ns`]), so migration traffic
//!    competes with queries for the latency budget instead of being
//!    free.
//! 3. **Estimate** — the *executed* slice of the admitted stream (the
//!    queries that actually ran; shed queries touched nothing) feeds
//!    [`crate::online::epoch_observation`] and then
//!    [`Controller::step`]: the controller estimates from exactly the
//!    stream serving answered — one EWMA path, not a parallel
//!    estimator.
//!
//! Determinism: latency is virtual and the controller is deterministic
//! (no wall-clock solve budget by default), so the end-of-run
//! [`LiveReport`] — counters, per-window histograms, digest — is a pure
//! function of `(pipeline, LiveConfig)`; `threads`, `shards` and
//! `inflight` change only how fast it runs. The digest chains every
//! epoch's migrated bytes with its serving digest, so a single
//! out-of-order byte anywhere in the interleaved run shows up.

use std::fmt::Write as _;

use crate::online::epoch_observation;
use crate::pipeline::Pipeline;
use crate::serve::{serve, ServeConfig, SERVICE_BYTE_NS};
use cca_core::controller::{Controller, ControllerConfig, ControllerReport, EpochOutcome};
use cca_core::{
    greedy_placement, spread_copies, validate_replica_spec, CcaProblem, DomainTree, LiveReport,
    Placement, ServingReport,
};
use cca_hash::md5;
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;
use cca_trace::{DriftConfig, Query, QueryLog};

/// Configuration of one live run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Epochs to run.
    pub epochs: u64,
    /// Queries offered per epoch.
    pub queries_per_epoch: usize,
    /// Per-epoch drift σ applied cumulatively to the query model (same
    /// stream discipline as [`crate::online::OnlineConfig`]).
    pub drift_sigma: f64,
    /// Apply drift only to the first this-many epochs (`None` drifts
    /// every epoch). A bounded burst leaves a stationary tail in which
    /// the post-migration window measures the re-optimized placement
    /// instead of chasing a moving target.
    pub drift_epochs: Option<u64>,
    /// Drift steps applied to the query model *before* the first epoch:
    /// the regime shift that happened while the placement was offline —
    /// the paper's "January placement, February workload" scenario. The
    /// live stream then starts already mismatched with the greedy
    /// placement, and the pre-migration window prices that mismatch.
    pub warm_drift_steps: u64,
    /// Seed of the drift / sampling streams.
    pub seed: u64,
    /// Admission-window size: each epoch's stream is served in windows
    /// of this many queries. Never changes the report.
    pub inflight: usize,
    /// Worker threads for batch execution. Never changes the report.
    pub threads: usize,
    /// Per-query virtual latency budget in milliseconds (`None` disables
    /// shedding).
    pub deadline_ms: Option<u64>,
    /// Per-epoch migration byte budget: no epoch ships more than this.
    pub migration_budget: u64,
    /// Copies of every object the serving cluster holds. `1` (the
    /// default) is the exact single-copy runtime — reports are
    /// bit-identical to builds without replication. With `r > 1` the
    /// controller still optimizes the primary column; the serving
    /// overlay re-spreads the extra copies across `domains` after every
    /// migration slice, and reads route to the cheapest replica.
    pub replicas: usize,
    /// Failure-domain tree the copies spread across (`None` = flat: one
    /// leaf domain per node).
    pub domains: Option<DomainTree>,
    /// Controller tuning. `migration_budget_per_epoch` is overwritten
    /// with [`LiveConfig::migration_budget`] — the live runtime always
    /// paces migrations.
    pub controller: ControllerConfig,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            epochs: 120,
            queries_per_epoch: 64,
            drift_sigma: 0.05,
            drift_epochs: None,
            warm_drift_steps: 0,
            seed: 42,
            inflight: 64,
            threads: 1,
            deadline_ms: None,
            migration_budget: 64 * 1024,
            replicas: 1,
            domains: None,
            controller: ControllerConfig::default(),
        }
    }
}

/// What one epoch of the live loop did — handed to the
/// [`run_live_with`] observer and folded into the [`LiveReport`].
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch number, 1-based.
    pub epoch: u64,
    /// Migration bytes shipped at the top of this epoch.
    pub migrated_bytes: u64,
    /// Virtual nanoseconds of migration interference charged to every
    /// query of this epoch.
    pub overhead_ns: u64,
    /// The epoch's serving report.
    pub report: ServingReport,
    /// What the controller decided after seeing the epoch's executed
    /// stream.
    pub outcome: EpochOutcome,
}

/// Result of [`run_live`].
#[derive(Debug)]
pub struct LiveOutcome {
    /// The headline end-of-run account (persisted as
    /// `# cca-live-report v1`).
    pub report: LiveReport,
    /// The controller's own end-of-run account.
    pub controller: ControllerReport,
    /// The final live placement.
    pub placement: Placement,
    /// The base problem the placement indexes (clone of the pipeline's).
    pub problem: CcaProblem,
}

/// Runs the live loop; see the module docs. Equivalent to
/// [`run_live_with`] with a no-op observer.
#[must_use]
pub fn run_live(pipeline: &Pipeline, config: &LiveConfig) -> LiveOutcome {
    run_live_with(pipeline, config, |_| {})
}

/// [`run_live`] with a per-epoch observer — used by tests to watch
/// migration pacing and per-epoch accounting.
///
/// # Panics
///
/// Panics if `config.replicas` cannot spread across `config.domains`
/// (validate with [`cca_core::validate_replica_spec`] first — the CLI
/// does).
pub fn run_live_with(
    pipeline: &Pipeline,
    config: &LiveConfig,
    mut observe: impl FnMut(&EpochRecord),
) -> LiveOutcome {
    let problem = &pipeline.problem;
    let tree = config
        .domains
        .clone()
        .unwrap_or_else(|| DomainTree::flat(problem.num_nodes()));
    validate_replica_spec(config.replicas.max(1), &tree).expect("replica spec must be valid");
    let replicas = config.replicas.max(1);
    // The serving overlay: the extra copies are re-spread
    // deterministically from the controller's primary placement, so the
    // overlay follows every migration without its own state. With one
    // copy, `spread_copies` wraps the primary untouched and the cluster
    // is exactly `cluster_for`'s (bit-identical reports).
    let cluster_of = |primary: &Placement| {
        let rp = spread_copies(problem, &tree, primary.clone(), replicas, replicas as f64)
            .expect("spec validated above");
        pipeline.cluster_for_replicas(&rp)
    };
    let initial = greedy_placement(problem);
    let mut controller_config = config.controller.clone();
    controller_config.migration_budget_per_epoch = Some(config.migration_budget);
    let mut controller = Controller::new(problem, initial, controller_config);
    let mut cluster = cluster_of(controller.placement());

    let mut model = pipeline.workload.model.clone();
    let drift = DriftConfig {
        sigma: config.drift_sigma,
    };
    let mut drift_rng = StdRng::seed_from_u64(config.seed ^ 0x00d2_1f70);
    let mut sample_rng = StdRng::seed_from_u64(config.seed ^ 0x5a3b_1e00);
    for _ in 0..config.warm_drift_steps {
        model = model.drifted(drift, &mut drift_rng);
    }

    let mut records: Vec<EpochRecord> = Vec::with_capacity(config.epochs as usize);

    for epoch in 1..=config.epochs {
        // 1. Ship one budgeted migration slice, then swap the serving
        // cluster before any of this epoch's queries are admitted.
        let mut migrated = 0u64;
        if let Some(slice) = controller.advance_migration() {
            migrated = slice.bytes;
            if slice.moves > 0 {
                cluster = cluster_of(controller.placement());
            }
        }

        // 2. Drift, sample, and serve the epoch's offered stream, with
        // the slice's bytes charged as per-query virtual interference.
        if config.drift_epochs.is_none_or(|k| epoch <= k) {
            model = model.drifted(drift, &mut drift_rng);
        }
        let log = model.sample_log(config.queries_per_epoch, &mut sample_rng);
        let overhead_ns = if log.queries.is_empty() {
            0
        } else {
            migrated.saturating_mul(SERVICE_BYTE_NS) / log.queries.len() as u64
        };
        let out = serve(
            &pipeline.index,
            &cluster,
            pipeline.config().aggregation,
            &log.queries,
            &ServeConfig {
                inflight: config.inflight,
                threads: config.threads,
                deadline_ms: config.deadline_ms,
                burst: None,
                overhead_ns,
            },
        );

        // 3. The executed slice of the admitted stream is the
        // controller's estimation stream.
        let executed: Vec<Query> = out
            .responses
            .iter()
            .filter(|r| r.status.executed())
            .map(|r| log.queries[r.index].clone())
            .collect();
        let executed_log = QueryLog {
            queries: executed,
            universe: log.universe,
        };
        let obs = epoch_observation(pipeline, &executed_log);
        let outcome = controller.step(&obs);

        let record = EpochRecord {
            epoch,
            migrated_bytes: migrated,
            overhead_ns,
            report: out.report,
            outcome,
        };
        observe(&record);
        records.push(record);
    }

    let controller_report = controller.report();
    let report = build_live_report(
        &records,
        &controller_report,
        controller.abandoned_migrations(),
        config.migration_budget,
    );
    debug_assert!(report.counters_consistent());
    debug_assert!(report.within_budget());
    LiveOutcome {
        report,
        controller: controller_report,
        placement: controller.placement().clone(),
        problem: problem.clone(),
    }
}

/// Folds the per-epoch records into the end-of-run [`LiveReport`]: sums
/// the serving counters, tracks migration pacing, and splits the run
/// into pre / mid / post windows around the epochs that shipped bytes.
fn build_live_report(
    records: &[EpochRecord],
    controller: &ControllerReport,
    abandoned_migrations: u64,
    migration_budget: u64,
) -> LiveReport {
    let mut report = LiveReport {
        epochs: records.len() as u64,
        evaluated: controller.evaluated,
        migrations: controller.migrations,
        abandoned_migrations,
        migration_budget,
        final_feasible: controller.final_feasible,
        ..LiveReport::default()
    };
    let first = records.iter().position(|r| r.migrated_bytes > 0);
    let last = records.iter().rposition(|r| r.migrated_bytes > 0);
    let mut hasher = md5::Md5::new();
    let mut line = String::new();
    for (i, r) in records.iter().enumerate() {
        line.clear();
        let _ = writeln!(
            line,
            "{}\t{}\t{}",
            r.epoch, r.migrated_bytes, r.report.digest
        );
        hasher.update(line.as_bytes());
        report.queries += r.report.queries;
        report.served += r.report.served;
        report.degraded += r.report.degraded;
        report.shed_admission += r.report.shed_admission;
        report.shed_overload += r.report.shed_overload;
        report.shed_deadline += r.report.shed_deadline;
        report.executed_bytes += r.report.executed_bytes;
        report.estimated_bytes += r.report.estimated_bytes;
        if r.migrated_bytes > 0 {
            report.migration_epochs += 1;
            report.migrated_bytes += r.migrated_bytes;
            report.max_epoch_migrated_bytes = report.max_epoch_migrated_bytes.max(r.migrated_bytes);
        }
        let executed = r.report.served + r.report.degraded;
        // Window: pre before the first shipping epoch, post after the
        // last; a run with no migration is all pre.
        match (first, last) {
            (Some(f), Some(_)) if i < f => {
                report.pre_epochs += 1;
                report.pre_queries += executed;
                report.pre_executed_bytes += r.report.executed_bytes;
                report.pre_histogram.merge(&r.report.histogram);
            }
            (Some(_), Some(l)) if i > l => {
                report.post_epochs += 1;
                report.post_queries += executed;
                report.post_executed_bytes += r.report.executed_bytes;
                report.post_histogram.merge(&r.report.histogram);
            }
            (Some(_), Some(_)) => {
                report.mid_histogram.merge(&r.report.histogram);
            }
            _ => {
                report.pre_epochs += 1;
                report.pre_queries += executed;
                report.pre_executed_bytes += r.report.executed_bytes;
                report.pre_histogram.merge(&r.report.histogram);
            }
        }
    }
    report.digest = md5::Md5::hex(&hasher.finalize());
    report.refresh_quantiles();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use cca_trace::TraceConfig;

    fn tiny_pipeline(shards: Option<usize>) -> Pipeline {
        let mut cfg = PipelineConfig::new(TraceConfig::tiny(), 4);
        cfg.seed = 9;
        let mut p = Pipeline::build(&cfg);
        if let Some(s) = shards {
            p.problem.set_sharding(s, 2);
        }
        p
    }

    fn drifty_config() -> LiveConfig {
        LiveConfig {
            epochs: 48,
            queries_per_epoch: 64,
            drift_sigma: 0.25,
            seed: 7,
            migration_budget: 4 * 1024,
            controller: ControllerConfig {
                evaluate_every: 4,
                horizon_epochs: 256,
                ..ControllerConfig::default()
            },
            ..LiveConfig::default()
        }
    }

    #[test]
    fn live_run_migrates_within_budget_and_accounts_exactly() {
        let p = tiny_pipeline(None);
        let config = drifty_config();
        let mut epoch_bytes = Vec::new();
        let out = run_live_with(&p, &config, |r| epoch_bytes.push(r.migrated_bytes));
        assert!(out.report.counters_consistent());
        assert!(out.report.within_budget());
        assert_eq!(out.report.epochs, config.epochs);
        assert_eq!(
            out.report.queries,
            config.epochs * config.queries_per_epoch as u64
        );
        for (i, &b) in epoch_bytes.iter().enumerate() {
            assert!(b <= config.migration_budget, "epoch {} shipped {b}", i + 1);
        }
        assert_eq!(out.report.migrated_bytes, epoch_bytes.iter().sum::<u64>());
        assert_eq!(out.report.migrated_bytes, out.controller.migrated_bytes);
        assert!(out.report.migrations > 0, "drift this size must migrate");
        assert!(
            out.report.migration_epochs > 1,
            "the budget must split the migration across epochs"
        );
    }

    #[test]
    fn report_is_identical_across_threads_shards_and_inflight() {
        let base_p = tiny_pipeline(None);
        let config = drifty_config();
        let base = run_live(&base_p, &config);
        assert!(base.report.migrations > 0, "exercise the migration path");
        for (threads, shards, inflight) in [(2, Some(2), 1), (8, Some(7), 64)] {
            let p = tiny_pipeline(shards);
            let out = run_live(
                &p,
                &LiveConfig {
                    threads,
                    inflight,
                    ..config.clone()
                },
            );
            assert_eq!(
                out.report, base.report,
                "threads {threads} shards {shards:?} inflight {inflight}"
            );
            assert_eq!(out.placement, base.placement);
        }
    }

    /// The headline scenario: the placement was built on "January", the
    /// live stream is "February" (a warm drift burst), and the workload
    /// is stationary from then on. The controller detects the mismatch,
    /// migrates under budget, and the post-migration window ships
    /// strictly fewer bytes per query than the pre-migration window.
    #[test]
    fn regime_shift_replay_improves_bytes_per_query_after_migration() {
        let p = tiny_pipeline(None);
        let out = run_live(
            &p,
            &LiveConfig {
                epochs: 80,
                queries_per_epoch: 256,
                drift_sigma: 0.25,
                drift_epochs: Some(0),
                warm_drift_steps: 24,
                seed: 7,
                migration_budget: 4 * 1024,
                controller: ControllerConfig {
                    horizon_epochs: 256,
                    ..ControllerConfig::default()
                },
                ..LiveConfig::default()
            },
        );
        assert!(out.report.counters_consistent());
        assert!(out.report.within_budget());
        assert!(out.report.migrations >= 1);
        assert!(out.report.pre_epochs > 0 && out.report.post_epochs > 0);
        assert!(
            out.report.improved(),
            "post-migration window must ship strictly fewer bytes/query: pre {:?} post {:?}",
            out.report.pre_bytes_per_query(),
            out.report.post_bytes_per_query()
        );
    }

    #[test]
    fn no_drift_means_no_migration_and_an_all_pre_run() {
        let p = tiny_pipeline(None);
        let out = run_live(
            &p,
            &LiveConfig {
                epochs: 12,
                drift_sigma: 0.0,
                ..drifty_config()
            },
        );
        assert!(out.report.counters_consistent());
        assert_eq!(out.report.migrated_bytes, 0);
        assert_eq!(out.report.migration_epochs, 0);
        assert_eq!(out.report.pre_epochs, out.report.epochs);
        assert_eq!(out.report.post_epochs, 0);
        assert!(
            !out.report.improved(),
            "no post window, no improvement claim"
        );
    }

    #[test]
    fn migration_interference_is_charged_to_the_epoch_queries() {
        let p = tiny_pipeline(None);
        let config = drifty_config();
        let mut charged = Vec::new();
        run_live_with(&p, &config, |r| {
            if r.migrated_bytes > 0 {
                charged.push((r.migrated_bytes, r.overhead_ns));
            }
        });
        assert!(!charged.is_empty());
        for (bytes, overhead) in charged {
            assert_eq!(
                overhead,
                bytes * SERVICE_BYTE_NS / config.queries_per_epoch as u64
            );
        }
    }
}
