//! Online-controller soak — the headline artifact for the drift-driven
//! re-optimization loop (DESIGN.md §12).
//!
//! Runs the full online loop (`cca::online::run_online`) on the small
//! preset for 10⁴ epochs (300 in quick mode) with two injected node
//! losses, and records:
//!
//! * controller throughput (epochs/s, wall-clock over the whole loop:
//!   drift, sampling, EWMA ingest, gate evaluations, migrations,
//!   repairs);
//! * the end-of-run gate accounting — migrations accepted, rejections by
//!   reason, bytes moved — **hard-asserting** the counter partition
//!   `evaluated == migrations + rejected_not_worthwhile +
//!   rejected_not_robust`;
//! * fault-recovery convergence: both injected losses must repair
//!   (`unrecovered_losses == 0`) and the final placement must be
//!   feasible on the surviving nodes;
//! * the §12 determinism contract: the serial flat run and a
//!   `threads 2 × shards 7` run must produce byte-identical reports and
//!   final placements.
//!
//! No throughput floor is asserted here — the committed numbers are
//! gated by `scripts/check.sh baseline` instead. Besides the TSV
//! table it writes `BENCH_controller.json` (override the path with
//! `CCA_BENCH_OUT`).

use cca::algo::{format_controller_report, format_placement, ControllerConfig, FaultPlan};
use cca::online::{run_online, OnlineConfig, OnlineOutcome};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::trace::TraceConfig;
use cca_bench::{header, quick_mode, BENCH_SEED};
use std::time::Instant;

/// Cluster size of the soak instance.
const NODES: usize = 10;

/// Node losses injected across the run.
const DROP_NODES: usize = 2;

fn online_config(epochs: u64, threads: usize, shards: usize) -> OnlineConfig {
    let mut config = OnlineConfig {
        epochs,
        seed: BENCH_SEED,
        ..OnlineConfig::default()
    };
    config.faults = FaultPlan {
        drop_nodes: DROP_NODES,
        seed: BENCH_SEED ^ 0xfa17,
        ..FaultPlan::default()
    };
    config.controller = ControllerConfig {
        threads,
        shards,
        ..ControllerConfig::default()
    };
    config
}

fn render(outcome: &OnlineOutcome) -> String {
    format!(
        "{}{}",
        format_controller_report(&outcome.report),
        format_placement(&outcome.problem, &outcome.placement)
    )
}

fn write_json(
    epochs: u64,
    elapsed_s: f64,
    outcome: &OnlineOutcome,
    reports_identical: bool,
    path: &str,
) {
    let r = &outcome.report;
    let config = OnlineConfig::default();
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"controller_soak\",\n");
    out.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str(&format!(
        "  \"instance\": {{\"preset\": \"small\", \"nodes\": {NODES}, \"epochs\": {epochs}, \
         \"queries_per_epoch\": {}, \"drift_sigma\": {}, \"drop_nodes\": {DROP_NODES}}},\n",
        config.queries_per_epoch, config.drift_sigma
    ));
    out.push_str(&format!(
        "  \"throughput\": {{\"elapsed_s\": {elapsed_s:.3}, \"epochs_per_s\": {:.1}}},\n",
        epochs as f64 / elapsed_s
    ));
    out.push_str(&format!(
        "  \"report\": {{\"queries\": {}, \"evaluated\": {}, \"migrations\": {}, \
         \"objects_moved\": {}, \"migrated_bytes\": {}, \"rejected_not_worthwhile\": {}, \
         \"rejected_not_robust\": {}, \"degradations\": {}, \"solve_retries\": {}, \
         \"node_losses\": {}, \"unrecovered_losses\": {}, \"repairs\": {}, \
         \"repair_retries\": {}, \"repair_moves\": {}, \"repair_bytes\": {}, \
         \"accumulated_loss\": {}, \"final_cost\": {}, \"final_feasible\": {}}},\n",
        r.queries,
        r.evaluated,
        r.migrations,
        r.objects_moved,
        r.migrated_bytes,
        r.rejected_not_worthwhile,
        r.rejected_not_robust,
        r.degradations,
        r.solve_retries,
        r.node_losses,
        r.unrecovered_losses,
        r.repairs,
        r.repair_retries,
        r.repair_moves,
        r.repair_bytes,
        r.accumulated_loss,
        r.final_cost,
        r.final_feasible
    ));
    out.push_str(&format!(
        "  \"invariant_ok\": {},\n",
        r.counters_consistent()
    ));
    out.push_str(&format!(
        "  \"repair_converged\": {},\n",
        r.node_losses == DROP_NODES as u64 && r.unrecovered_losses == 0
    ));
    out.push_str(&format!(
        "  \"determinism\": {{\"configs\": \"flat serial vs threads 2 x shards 7\", \
         \"reports_identical\": {reports_identical}}}\n"
    ));
    out.push_str("}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote controller baseline to {path}");
}

fn main() {
    println!("# online controller soak (drift + gated migration + chaos)");
    let epochs: u64 = if quick_mode() { 300 } else { 10_000 };

    let mut pipeline_config = PipelineConfig::new(TraceConfig::small(), NODES);
    pipeline_config.seed = BENCH_SEED;
    let t = Instant::now();
    let pipeline = Pipeline::build(&pipeline_config);
    eprintln!("built small pipeline in {:.1}s", t.elapsed().as_secs_f64());

    // The measured run: serial, flat — the §12 reference configuration.
    let t = Instant::now();
    let outcome = run_online(&pipeline, &online_config(epochs, 1, 0));
    let elapsed_s = t.elapsed().as_secs_f64();
    let r = &outcome.report;

    header(
        "controller soak",
        &["epochs", "epochs_per_s", "evaluated", "migrated", "not_worthwhile", "not_robust", "repairs"],
    );
    println!(
        "{epochs}\t{:.0}\t{}\t{}\t{}\t{}\t{}",
        epochs as f64 / elapsed_s,
        r.evaluated,
        r.migrations,
        r.rejected_not_worthwhile,
        r.rejected_not_robust,
        r.repairs
    );

    assert!(
        r.counters_consistent(),
        "gate counters do not partition the evaluations: {}",
        r.summary()
    );
    assert_eq!(r.epochs, epochs);
    assert_eq!(r.node_losses, DROP_NODES as u64, "chaos injection miscounted");
    assert_eq!(r.unrecovered_losses, 0, "a node loss failed to repair");
    assert!(r.final_feasible, "soak ended infeasible");
    assert!(r.evaluated > 0, "drift never triggered an evaluation");

    // Determinism cross-check: threads 2 x shards 7 must reproduce the
    // serial flat run to the byte (report + final placement).
    let reference = render(&outcome);
    let crosscheck = render(&run_online(&pipeline, &online_config(epochs, 2, 7)));
    let reports_identical = crosscheck == reference;
    assert!(
        reports_identical,
        "threads 2 x shards 7 diverged from the serial flat run"
    );
    println!();
    println!("# determinism: flat serial vs threads 2 x shards 7: identical {reports_identical}");

    let path = std::env::var("CCA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_controller.json").to_string()
    });
    write_json(epochs, elapsed_s, &outcome, reports_identical, &path);
}
