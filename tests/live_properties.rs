//! Live-runtime battery (DESIGN.md §14): whatever the scenario — drift
//! or none, budget large or tiny, deadlines tight or absent — the epoch
//! loop must (a) never ship more migration bytes in one epoch than the
//! configured budget, (b) account every offered query exactly once in
//! the served/degraded/shed counters, per epoch and in aggregate, and
//! (c) produce a report that round-trips bit-exactly through the v1
//! text format. Failures shrink to a minimal scenario and are pinned in
//! `live_properties.regressions`.

use cca::algo::controller::ControllerConfig;
use cca::algo::{format_report, read_report, LiveReport};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::runtime::{run_live_with, LiveConfig};
use cca::trace::TraceConfig;
use cca_check::{prop_assert, prop_assert_eq, Checker, Rng, Shrink, StdRng};

const REGRESSIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/live_properties.regressions"
);

/// Shrinkable live scenario. Codes keep every field an integer so the
/// shrinker walks toward the degenerate corner (1 epoch, 1 query, no
/// drift, no deadline) instead of bisecting floats.
#[derive(Debug, Clone)]
struct LiveCase {
    epochs: u64,
    queries_per_epoch: usize,
    budget: u64,
    /// 0 = no drift, 1 = σ 0.05, 2 = σ 0.25 (regime-shift scale).
    sigma_code: u8,
    warm_drift_steps: u64,
    seed: u64,
    /// 0 = no deadline, 1 = 0 ms (shed everything), 2 = 1 ms.
    deadline_code: u8,
}

impl LiveCase {
    fn sigma(&self) -> f64 {
        match self.sigma_code {
            0 => 0.0,
            1 => 0.05,
            _ => 0.25,
        }
    }

    fn deadline_ms(&self) -> Option<u64> {
        match self.deadline_code {
            0 => None,
            code => Some(u64::from(code) - 1),
        }
    }
}

impl Shrink for LiveCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for epochs in self.epochs.shrink() {
            if epochs >= 1 {
                out.push(LiveCase {
                    epochs,
                    ..self.clone()
                });
            }
        }
        for queries_per_epoch in self.queries_per_epoch.shrink() {
            if queries_per_epoch >= 1 {
                out.push(LiveCase {
                    queries_per_epoch,
                    ..self.clone()
                });
            }
        }
        for budget in self.budget.shrink() {
            if budget >= 1 {
                out.push(LiveCase {
                    budget,
                    ..self.clone()
                });
            }
        }
        for sigma_code in self.sigma_code.shrink() {
            out.push(LiveCase {
                sigma_code,
                ..self.clone()
            });
        }
        for warm_drift_steps in self.warm_drift_steps.shrink() {
            out.push(LiveCase {
                warm_drift_steps,
                ..self.clone()
            });
        }
        for deadline_code in self.deadline_code.shrink() {
            out.push(LiveCase {
                deadline_code,
                ..self.clone()
            });
        }
        for seed in self.seed.shrink() {
            out.push(LiveCase {
                seed,
                ..self.clone()
            });
        }
        out
    }
}

fn live_case(rng: &mut StdRng) -> LiveCase {
    LiveCase {
        epochs: rng.random_range(1u64..=20),
        queries_per_epoch: rng.random_range(1usize..=48),
        // Small budgets force multi-epoch pacing; large ones finish a
        // staged migration in one slice. Both sides of the gate matter.
        budget: rng.random_range(1u64..=8192),
        sigma_code: rng.random_range(0u8..=2),
        warm_drift_steps: rng.random_range(0u64..=16),
        seed: rng.random_range(0u64..1_000_000),
        deadline_code: rng.random_range(0u8..=2),
    }
}

fn tiny_pipeline() -> Pipeline {
    let mut cfg = PipelineConfig::new(TraceConfig::tiny(), 4);
    cfg.seed = 9;
    Pipeline::build(&cfg)
}

/// The live pacing and accounting contract, over randomized scenarios:
/// every epoch ships at most `migration_budget` migration bytes, every
/// offered query lands in exactly one of served / degraded /
/// shed_admission / shed_overload / shed_deadline (per epoch and in the
/// aggregate report), the per-epoch records reconcile exactly with the
/// report's migration totals, and the report survives a text round
/// trip.
#[test]
fn live_pacing_and_accounting_hold_for_every_scenario() {
    let p = tiny_pipeline();
    Checker::new("live_pacing_and_accounting_hold_for_every_scenario")
        .cases(32)
        .regressions(REGRESSIONS)
        .run(live_case, |c| {
            let config = LiveConfig {
                epochs: c.epochs,
                queries_per_epoch: c.queries_per_epoch,
                drift_sigma: c.sigma(),
                drift_epochs: None,
                warm_drift_steps: c.warm_drift_steps,
                seed: c.seed,
                inflight: 8,
                threads: 2,
                deadline_ms: c.deadline_ms(),
                migration_budget: c.budget,
                replicas: 1,
                domains: None,
                controller: ControllerConfig {
                    // A short cadence so even shrunk runs reach the gate.
                    evaluate_every: 4,
                    ..ControllerConfig::default()
                },
            };

            let mut records = Vec::new();
            let outcome = run_live_with(&p, &config, |r| records.push(r.clone()));
            let report = &outcome.report;

            // (a) Pacing: no epoch ships more than the budget.
            for r in &records {
                prop_assert!(
                    r.migrated_bytes <= c.budget,
                    "epoch {} shipped {} bytes over budget {}",
                    r.epoch,
                    r.migrated_bytes,
                    c.budget
                );
            }
            prop_assert!(report.within_budget(), "report budget gate");
            prop_assert_eq!(
                report.migrated_bytes,
                records.iter().map(|r| r.migrated_bytes).sum::<u64>(),
                "per-epoch slices must reconcile with the migration total"
            );
            prop_assert_eq!(
                report.max_epoch_migrated_bytes,
                records.iter().map(|r| r.migrated_bytes).max().unwrap_or(0),
                "max epoch slice"
            );
            prop_assert_eq!(
                report.migration_epochs,
                records.iter().filter(|r| r.migrated_bytes > 0).count() as u64,
                "shipping-epoch count"
            );

            // (b) Accounting: counters partition the offered stream.
            prop_assert_eq!(records.len() as u64, c.epochs, "one record per epoch");
            for r in &records {
                prop_assert_eq!(
                    r.report.queries,
                    c.queries_per_epoch as u64,
                    "epoch {} offered-query count",
                    r.epoch
                );
                prop_assert!(
                    r.report.counters_consistent(),
                    "epoch {} counters inconsistent",
                    r.epoch
                );
            }
            prop_assert_eq!(
                report.queries,
                c.epochs * c.queries_per_epoch as u64,
                "offered stream size"
            );
            prop_assert_eq!(
                report.queries,
                report.served
                    + report.degraded
                    + report.shed_admission
                    + report.shed_overload
                    + report.shed_deadline,
                "counters must partition the offered stream"
            );
            prop_assert!(report.counters_consistent(), "aggregate counters");
            prop_assert_eq!(
                report.served,
                records.iter().map(|r| r.report.served).sum::<u64>(),
                "served must sum per epoch"
            );
            prop_assert_eq!(
                report.executed_bytes,
                records.iter().map(|r| r.report.executed_bytes).sum::<u64>(),
                "executed bytes must sum per epoch"
            );

            // (c) The report survives the v1 text format bit for bit.
            let text = format_report(report);
            let parsed: LiveReport = read_report(text.as_bytes()).expect("live report parses");
            prop_assert_eq!(&parsed, report, "text round trip changed the report");
            Ok(())
        });
}
