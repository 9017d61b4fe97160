//! Temporal stability: reusing January's placement in February.
//!
//! The premise of correlation-aware placement is that correlations are
//! "skewed … and yet stable over time" (paper §1, Fig 2). This example
//! optimizes a placement on a "January" query log, then replays a drifted
//! "February" log (phrase popularities perturbed per the paper's 1.2%
//! drift statistic) against the *same* placement, showing the savings
//! persist without re-optimization.
//!
//! Run with: `cargo run --release --example drift`

use cca::algo::Strategy;
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::search::{AggregationPolicy, QueryEngine};
use cca::trace::{DriftConfig, PairStats, TraceConfig};
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = PipelineConfig::new(TraceConfig::small(), 10);
    config.seed = 101;
    let pipeline = Pipeline::build(&config);

    // "February": same phrase structure, drifted popularities.
    let mut rng = StdRng::seed_from_u64(202);
    let feb_model = pipeline
        .workload
        .model
        .drifted(DriftConfig::paper_calibrated(), &mut rng);
    let feb_log = feb_model.sample_log(pipeline.workload.queries.len(), &mut rng);

    // How much did the correlations drift? (Paper Fig 2B: ~1.2%.)
    let jan_stats = PairStats::from_log(&pipeline.workload.queries);
    let feb_stats = PairStats::from_log(&feb_log);
    let changed = jan_stats.fraction_changed_beyond_2x(&feb_stats, 1000);
    println!(
        "top-1000 pairs whose correlation changed >2x or <0.5x: {:.1}%",
        100.0 * changed
    );
    println!();

    // Optimize on January.
    let scope = 400;
    let random = pipeline.place(&Strategy::RandomHash, None)?;
    let lprr = pipeline.place(&Strategy::lprr(), Some(scope))?;

    let replay_on = |placement: &cca::algo::Placement, log| {
        let cluster = pipeline.cluster_for(placement);
        QueryEngine::new(&pipeline.index, &cluster, AggregationPolicy::Intersection).replay(log)
    };

    println!(
        "{:<34} {:>14} {:>10}",
        "configuration", "bytes moved", "vs random"
    );
    let jan_rand = replay_on(&random.placement, &pipeline.workload.queries);
    let jan_lprr = replay_on(&lprr.placement, &pipeline.workload.queries);
    let feb_rand = replay_on(&random.placement, &feb_log);
    let feb_lprr = replay_on(&lprr.placement, &feb_log);
    for (name, stats, base) in [
        (
            "January log, random placement",
            &jan_rand,
            jan_rand.total_bytes,
        ),
        (
            "January log, LPRR placement",
            &jan_lprr,
            jan_rand.total_bytes,
        ),
        (
            "February log, random placement",
            &feb_rand,
            feb_rand.total_bytes,
        ),
        (
            "February log, January's LPRR placement",
            &feb_lprr,
            feb_rand.total_bytes,
        ),
    ] {
        println!(
            "{:<34} {:>14} {:>9.1}%",
            name,
            stats.total_bytes,
            100.0 * stats.total_bytes as f64 / base as f64
        );
    }
    println!();
    let jan_saving = 1.0 - jan_lprr.total_bytes as f64 / jan_rand.total_bytes as f64;
    let feb_saving = 1.0 - feb_lprr.total_bytes as f64 / feb_rand.total_bytes as f64;
    println!(
        "January saving {:.1}% vs February saving {:.1}% — a month of drift",
        100.0 * jan_saving,
        100.0 * feb_saving
    );
    println!("barely erodes the benefit, so placements can be recomputed rarely.");
    Ok(())
}
