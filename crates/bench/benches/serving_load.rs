//! Closed-loop serving load — the headline artifact for the async
//! serving front (DESIGN.md §13).
//!
//! Drives the full `cca::serve` executor over the small preset on a
//! 10-node cluster with 10⁴ queries (2 000 in quick mode) at the
//! default admission window (64 in flight), under a 1 ms virtual
//! latency budget so the taxonomy is genuinely mixed (served +
//! degraded + shed), and records:
//!
//! * serving throughput (queries/s, wall-clock over the whole loop:
//!   admission probes, polls, home-node batching, execution, grading);
//! * the dyadic latency histogram quantiles (p50/p95/p99 upper
//!   bounds) and the full admission accounting, **hard-asserting**
//!   the counter partition `queries == served + degraded +
//!   shed_admission + shed_overload + shed_deadline`;
//! * the §13 determinism contract: the serial inflight-1 run and a
//!   `threads 8 × shards 7 × inflight 64` run must produce
//!   byte-identical serving reports.
//!
//! No throughput floor is asserted here — the committed numbers are
//! gated by `scripts/check.sh baseline` instead. Besides the TSV table
//! it writes `BENCH_serving.json` (override the path with
//! `CCA_BENCH_OUT`).

use cca::algo::{format_report, greedy_placement, ServingReport};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::serve::{serve, ServeConfig};
use cca::trace::TraceConfig;
use cca_bench::{header, quick_mode, BENCH_SEED};
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;
use std::time::Instant;

/// Cluster size of the load instance.
const NODES: usize = 10;

/// Latency budget (virtual milliseconds) — tight enough that the Zipf
/// tail sheds, loose enough that the bulk serves.
const DEADLINE_MS: u64 = 1;

/// Runs the serving loop at one configuration and returns the
/// formatted report plus the wall-clock seconds.
fn run_at(
    pipeline: &Pipeline,
    shards: usize,
    queries: usize,
    inflight: usize,
    threads: usize,
) -> (ServingReport, String, f64) {
    // Sharding enters through the placement solve, not the serving
    // loop; the report must not care either way.
    let mut problem = pipeline.problem.clone();
    if shards > 0 {
        problem.set_sharding(shards, threads.max(1));
    }
    let placement = greedy_placement(&problem);
    let cluster = pipeline.cluster_for(&placement);
    let stream = {
        let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5e12_7e00);
        pipeline
            .workload
            .model
            .sample_log(queries, &mut rng)
            .queries
    };
    let config = ServeConfig {
        inflight,
        threads,
        deadline_ms: Some(DEADLINE_MS),
        burst: None,
        overhead_ns: 0,
    };
    let t = Instant::now();
    let outcome = serve(
        &pipeline.index,
        &cluster,
        pipeline.config().aggregation,
        &stream,
        &config,
    );
    let elapsed_s = t.elapsed().as_secs_f64();
    let text = format_report(&outcome.report);
    (outcome.report, text, elapsed_s)
}

fn write_json(
    queries: usize,
    elapsed_s: f64,
    report: &ServingReport,
    reports_identical: bool,
    path: &str,
) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serving_load\",\n");
    out.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str(&format!(
        "  \"instance\": {{\"preset\": \"small\", \"nodes\": {NODES}, \"queries\": {queries}, \
         \"inflight\": 64, \"deadline_ms\": {DEADLINE_MS}}},\n"
    ));
    out.push_str(&format!(
        "  \"throughput\": {{\"elapsed_s\": {elapsed_s:.3}, \"queries_per_s\": {:.1}}},\n",
        queries as f64 / elapsed_s
    ));
    out.push_str(&format!(
        "  \"report\": {{\"queries\": {}, \"served\": {}, \"degraded\": {}, \
         \"shed_admission\": {}, \"shed_overload\": {}, \"shed_deadline\": {}, \
         \"executed_bytes\": {}, \"estimated_bytes\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
         \"p99_ns\": {}, \"digest\": \"{}\"}},\n",
        report.queries,
        report.served,
        report.degraded,
        report.shed_admission,
        report.shed_overload,
        report.shed_deadline,
        report.executed_bytes,
        report.estimated_bytes,
        report.p50_ns,
        report.p95_ns,
        report.p99_ns,
        report.digest
    ));
    out.push_str(&format!(
        "  \"invariant_ok\": {},\n",
        report.counters_consistent()
    ));
    out.push_str(&format!(
        "  \"determinism\": {{\"configs\": \"serial inflight 1 vs threads 8 x shards 7 x inflight 64\", \
         \"reports_identical\": {reports_identical}}}\n"
    ));
    out.push_str("}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote serving baseline to {path}");
}

fn main() {
    println!("# closed-loop serving load (batched admission + virtual latency budget)");
    let queries: usize = if quick_mode() { 2_000 } else { 10_000 };

    let mut pipeline_config = PipelineConfig::new(TraceConfig::small(), NODES);
    pipeline_config.seed = BENCH_SEED;
    let t = Instant::now();
    let pipeline = Pipeline::build(&pipeline_config);
    eprintln!("built small pipeline in {:.1}s", t.elapsed().as_secs_f64());

    // The measured run: the default serving configuration (window 64).
    let (report, reference, elapsed_s) = run_at(&pipeline, 0, queries, 64, 8);

    header(
        "serving load",
        &[
            "queries",
            "queries_per_s",
            "served",
            "degraded",
            "shed_admission",
            "p50_ns",
            "p99_ns",
        ],
    );
    println!(
        "{queries}\t{:.0}\t{}\t{}\t{}\t{}\t{}",
        queries as f64 / elapsed_s,
        report.served,
        report.degraded,
        report.shed_admission,
        report.p50_ns,
        report.p99_ns
    );

    assert!(
        report.counters_consistent(),
        "admission counters do not partition the stream: {}",
        report.summary()
    );
    assert_eq!(report.queries, queries as u64);
    assert!(report.served > 0, "the budget shed the whole stream");
    assert!(
        report.degraded + report.shed_admission > 0,
        "the 1ms budget never bit — recalibrate the virtual-time model"
    );
    assert_eq!(report.shed_overload, 0, "closed loop must never overflow");
    assert_eq!(report.shed_deadline, 0, "wall-clock backstop tripped");
    assert!(report.p50_ns <= report.p95_ns && report.p95_ns <= report.p99_ns);

    // Determinism cross-check: serial inflight-1 vs a sharded,
    // multi-threaded, full-window run must match to the byte.
    let serial = run_at(&pipeline, 0, queries, 1, 1).1;
    let sharded = run_at(&pipeline, 7, queries, 64, 8).1;
    let reports_identical = serial == reference && sharded == reference;
    if !reports_identical {
        eprintln!("serial == reference: {}", serial == reference);
        eprintln!("sharded == reference: {}", sharded == reference);
        for (a, b) in reference.lines().zip(sharded.lines()) {
            if a != b {
                eprintln!("  reference: {a}\n  sharded:   {b}");
            }
        }
    }
    assert!(
        reports_identical,
        "serving report diverged across inflight/threads/shards"
    );
    println!();
    println!(
        "# determinism: serial inflight 1 vs threads 8 x shards 7 x inflight 64: \
         identical {reports_identical}"
    );

    let path = cca_bench::output_path("serving");
    write_json(queries, elapsed_s, &report, reports_identical, &path);
}
