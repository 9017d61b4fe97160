//! Budgeted migration: rolling a drifted deployment toward a re-optimized
//! placement.
//!
//! A placement computed on January's correlations slowly loses its edge as
//! the workload drifts. Re-optimizing from scratch gives a better target
//! placement — but *installing* it costs real bytes (every moved index is
//! shipped once). This example quantifies the trade-off: it re-optimizes
//! after three "months" of drift, then reconciles toward the new placement
//! under a sweep of migration budgets, reporting replayed communication at
//! each point.
//!
//! Run with: `cargo run --release --example migration`

use cca::algo::{migration_bytes, reconcile, MigrateOptions, Strategy};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::search::{AggregationPolicy, QueryEngine};
use cca::trace::{DriftConfig, TraceConfig};
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = PipelineConfig::new(TraceConfig::small(), 10);
    config.seed = 77;
    let pipeline = Pipeline::build(&config);
    let scope = 400;

    // Months of drift: compound the calibrated monthly perturbation.
    let mut rng = StdRng::seed_from_u64(777);
    let mut model = pipeline.workload.model.clone();
    for _ in 0..3 {
        model = model.drifted(DriftConfig::paper_calibrated(), &mut rng);
    }
    let spring_log = model.sample_log(pipeline.workload.queries.len(), &mut rng);

    // The running placement was optimized on the January problem.
    let january = pipeline.place(&Strategy::lprr(), Some(scope))?;

    // Re-optimize against the drifted statistics: same corpus and index,
    // correlations re-estimated from the spring log.
    let spring_problem = pipeline.problem_for_log(&spring_log);
    let target = cca::algo::place_partial(&spring_problem, scope, &Strategy::lprr())?;

    let replay = |placement: &cca::algo::Placement| {
        let cluster = pipeline.cluster_for(placement);
        QueryEngine::new(&pipeline.index, &cluster, AggregationPolicy::Intersection)
            .replay(&spring_log)
            .total_bytes
    };

    let full_migration = migration_bytes(&pipeline.problem, &january.placement, &target.placement);
    println!("drifted workload: {} queries", spring_log.len());
    println!(
        "full migration would ship {full_migration} bytes ({}% of the index)",
        100 * full_migration / pipeline.index.total_bytes()
    );
    println!();
    println!(
        "{:>14} {:>16} {:>16} {:>8}",
        "budget(bytes)", "migrated", "replayed bytes", "moves"
    );
    let start_bytes = replay(&january.placement);
    println!("{:>14} {:>16} {:>16} {:>8}", "0", 0, start_bytes, 0);
    for fraction in [0.1, 0.25, 0.5, 1.0] {
        let budget = (full_migration as f64 * fraction) as u64;
        let out = reconcile(
            &pipeline.problem,
            &january.placement,
            &target.placement,
            budget,
            &MigrateOptions::default(),
        );
        println!(
            "{:>14} {:>16} {:>16} {:>8}",
            budget,
            out.migrated_bytes,
            replay(&out.placement),
            out.moves
        );
    }
    // Alternative: no target at all — local search on the drifted problem
    // where each move must pay an amortised migration price.
    let inplace = cca::algo::improve_in_place(
        &spring_problem,
        &january.placement,
        &cca::algo::MigrateOptions {
            migration_price_per_byte: 1e-4,
            ..Default::default()
        },
    );
    println!(
        "{:>14} {:>16} {:>16} {:>8}   (in-place local search)",
        "-",
        inplace.migrated_bytes,
        replay(&inplace.placement),
        inplace.moves
    );
    println!(
        "{:>14} {:>16} {:>16} {:>8}   (install target outright)",
        "unlimited",
        full_migration,
        replay(&target.placement),
        "-"
    );
    println!();
    println!("The reconciler ships only moves that pay for themselves under the");
    println!("pair model: a few percent of the full migration bytes capture a");
    println!("large share of the re-optimization benefit; the rest of the");
    println!("placement difference is mostly node-relabelling noise whose value");
    println!("only materialises when installed wholesale.");
    Ok(())
}
