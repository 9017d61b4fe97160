//! Integration tests for the online re-optimization controller
//! (`cca::online` + `cca_core::controller`), covering the DESIGN.md §12
//! contract end to end: determinism across thread/shard configurations,
//! the migration-counter invariant, accumulated-loss monotonicity, and
//! fault recovery under the drifting query stream.

use cca::algo::{format_placement, format_report, ControllerConfig, EpochOutcome};
use cca::online::{fault_epochs, run_online, run_online_with, OnlineConfig, OnlineOutcome};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::trace::TraceConfig;

fn pipeline(nodes: usize) -> Pipeline {
    let mut config = PipelineConfig::new(TraceConfig::tiny(), nodes);
    config.seed = 2008;
    Pipeline::build(&config)
}

fn online_config(epochs: u64, drop_nodes: usize, threads: usize) -> OnlineConfig {
    OnlineConfig {
        epochs,
        seed: 7,
        drop_nodes,
        fault_seed: 0xfa17,
        controller: ControllerConfig {
            threads,
            ..ControllerConfig::default()
        },
        ..OnlineConfig::default()
    }
}

fn render(outcome: &OnlineOutcome) -> String {
    format!(
        "{}{}",
        format_report(&outcome.report),
        format_placement(&outcome.problem, &outcome.placement)
    )
}

/// With no wall-clock deadline, the full run — report and final placement
/// — is byte-identical across every thread count × shard count of the
/// pipeline's problem.
#[test]
fn report_and_placement_are_byte_identical_across_threads_and_shards() {
    let mut p = pipeline(4);
    let reference = render(&run_online(&p, &online_config(300, 1, 1)));
    assert!(reference.contains("# cca-controller-report v1"));
    for threads in [1usize, 2, 8] {
        for shards in [1usize, 2, 7] {
            p.problem.set_sharding(shards, threads);
            let got = render(&run_online(&p, &online_config(300, 1, threads)));
            assert_eq!(
                got, reference,
                "threads={threads} shards={shards} diverged from the serial flat run"
            );
        }
    }
}

/// Every evaluation reaches exactly one gate verdict: migrated, rejected
/// as not worthwhile, or rejected as not robust.
#[test]
fn gate_counters_partition_the_evaluations() {
    let p = pipeline(4);
    let outcome = run_online(&p, &online_config(400, 1, 1));
    let r = &outcome.report;
    assert!(r.counters_consistent(), "{}", r.summary());
    assert_eq!(
        r.evaluated,
        r.migrations + r.rejected_not_worthwhile + r.rejected_not_robust
    );
    assert_eq!(r.epochs, 400);
    assert!(r.evaluated > 0, "drift never triggered an evaluation");
    assert!(r.queries > 0);
}

/// Accumulated loss never decreases between accepted migrations and
/// resets when one is accepted, observed scope-by-scope through the
/// per-epoch callback.
#[test]
fn accumulated_loss_is_monotone_between_migrations_and_resets_on_acceptance() {
    let p = pipeline(4);
    let mut config = online_config(500, 0, 1);
    // Stronger per-epoch drift so the worthwhile gate actually opens
    // within the test's horizon (σ = 0.02 stays sub-threshold on tiny).
    config.drift_sigma = 0.1;
    let mut last_loss: Vec<f64> = vec![0.0; config.controller.scope_count];
    let mut migrations = 0u64;
    let mut violations = Vec::new();
    run_online_with(&p, &config, |epoch, outcome| match outcome {
        EpochOutcome::RejectedNotWorthwhile {
            scope,
            accumulated_loss,
            ..
        } => {
            if *accumulated_loss < last_loss[*scope] {
                violations.push((epoch, *scope, last_loss[*scope], *accumulated_loss));
            }
            last_loss[*scope] = *accumulated_loss;
        }
        EpochOutcome::Migrated { scope, .. } => {
            migrations += 1;
            last_loss[*scope] = 0.0;
        }
        _ => {}
    });
    assert!(
        violations.is_empty(),
        "accumulated loss decreased without a migration: {violations:?}"
    );
    assert!(migrations > 0, "expected at least one accepted migration");
}

/// A mid-run node loss is repaired and the run ends feasible on the
/// surviving nodes, with the repair fully accounted.
#[test]
fn node_loss_mid_run_is_repaired_and_the_run_stays_feasible() {
    let p = pipeline(4);
    let outcome = run_online(&p, &online_config(300, 1, 1));
    let r = &outcome.report;
    assert_eq!(r.node_losses, 1);
    assert_eq!(r.unrecovered_losses, 0);
    assert!(r.repairs >= 1);
    assert!(r.final_feasible, "placement infeasible after repair");
    assert!(r.degraded(), "a node loss must mark the run degraded");
    // The final placement really fits the surviving capacities.
    let loads = outcome.placement.loads(&outcome.problem);
    assert!(loads.iter().filter(|&&l| l > 0).count() <= 3);
}

/// Fault epochs are spread across the run, 1-based, and within range.
#[test]
fn fault_epochs_are_spread_and_in_range() {
    assert_eq!(fault_epochs(1000, 0), Vec::<u64>::new());
    assert_eq!(fault_epochs(1000, 1), vec![500]);
    assert_eq!(fault_epochs(1000, 3), vec![250, 500, 750]);
    // Degenerate short runs still schedule valid epochs.
    let tight = fault_epochs(2, 3);
    assert!(tight.iter().all(|&e| (1..=2).contains(&e)), "{tight:?}");
}
