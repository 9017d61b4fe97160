//! Replicated read path — the headline artifact for DESIGN.md §15.
//!
//! Serves the 10⁴-query Zipf stream (2 000 in quick mode) of the small
//! preset on a 10-node cluster split into 5 leaf domains, at r ∈
//! {1, 2, 3} copies per object, and records per replication factor:
//!
//! * serving throughput (queries/s, wall-clock over the whole closed
//!   loop) and the executed transfer bytes — the benefit of replication
//!   is that `executed_bytes` falls as r grows, because the engine
//!   answers every probe from the cheapest copy;
//! * the full admission accounting, **hard-asserting** the counter
//!   partition and that the spread invariant holds at every r;
//! * the §15 equivalence contract: the r = 1 replicated cluster must
//!   produce a serving report byte-identical to the single-copy
//!   cluster's.
//!
//! No throughput floor is asserted here — the committed numbers are
//! gated by `scripts/check.sh baseline` instead. Besides the TSV table
//! it writes `BENCH_replica.json` (override with `CCA_BENCH_OUT`).

use cca::algo::{
    format_serving_report, greedy_placement, spread_copies, DomainTree, ServingReport,
};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::serve::{serve, ServeConfig};
use cca::trace::TraceConfig;
use cca_bench::{header, quick_mode, BENCH_SEED};
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;
use std::time::Instant;

/// Cluster size and leaf-domain count of the load instance.
const NODES: usize = 10;
const DOMAINS: usize = 5;

/// Latency budget (virtual milliseconds), matching `serving_load` so
/// the two artifacts are comparable.
const DEADLINE_MS: u64 = 1;

struct Row {
    replicas: usize,
    elapsed_s: f64,
    report: ServingReport,
    spread_valid: bool,
}

/// Serves the stream against `replicas` copies spread across the
/// domain tree and returns the report plus wall-clock seconds.
fn run_at(pipeline: &Pipeline, tree: &DomainTree, replicas: usize, queries: usize) -> Row {
    let primary = greedy_placement(&pipeline.problem);
    let rp = spread_copies(&pipeline.problem, tree, primary, replicas, replicas as f64)
        .expect("r <= domain count by construction");
    let spread_valid = rp.spread_valid(tree);
    let cluster = pipeline.cluster_for_replicas(&rp);
    let stream = {
        let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5e12_7e00);
        pipeline.workload.model.sample_log(queries, &mut rng).queries
    };
    let config = ServeConfig {
        inflight: 64,
        threads: 8,
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
    Row {
        replicas,
        elapsed_s: t.elapsed().as_secs_f64(),
        report: outcome.report,
        spread_valid,
    }
}

fn write_json(queries: usize, rows: &[Row], r1_identical: bool, path: &str) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"replica_read\",\n");
    out.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str(&format!(
        "  \"instance\": {{\"preset\": \"small\", \"nodes\": {NODES}, \"domains\": {DOMAINS}, \
         \"queries\": {queries}, \"inflight\": 64, \"deadline_ms\": {DEADLINE_MS}}},\n"
    ));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        out.push_str(&format!(
            "    {{\"replicas\": {}, \"elapsed_s\": {:.3}, \"queries_per_s\": {:.1}, \
             \"served\": {}, \"degraded\": {}, \"shed_admission\": {}, \
             \"executed_bytes\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"spread_valid\": {}, \"counters_ok\": {}}}{}\n",
            row.replicas,
            row.elapsed_s,
            queries as f64 / row.elapsed_s,
            r.served,
            r.degraded,
            r.shed_admission,
            r.executed_bytes,
            r.p50_ns,
            r.p99_ns,
            row.spread_valid,
            r.counters_consistent(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"equivalence\": {{\"r1_report_identical_to_single_copy\": {r1_identical}}}\n"
    ));
    out.push_str("}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote replica baseline to {path}");
}

fn main() {
    println!("# replicated read path (cheapest-copy serving at r = 1, 2, 3)");
    let queries: usize = if quick_mode() { 2_000 } else { 10_000 };

    let mut pipeline_config = PipelineConfig::new(TraceConfig::small(), NODES);
    pipeline_config.seed = BENCH_SEED;
    let t = Instant::now();
    let pipeline = Pipeline::build(&pipeline_config);
    eprintln!("built small pipeline in {:.1}s", t.elapsed().as_secs_f64());
    let tree = DomainTree::contiguous(NODES, DOMAINS).expect("5 domains over 10 nodes");

    header(
        "replica read",
        &["replicas", "queries_per_s", "served", "degraded", "executed_bytes", "p50_ns", "p99_ns"],
    );
    let mut rows = Vec::new();
    for replicas in [1usize, 2, 3] {
        let row = run_at(&pipeline, &tree, replicas, queries);
        let r = &row.report;
        println!(
            "{replicas}\t{:.0}\t{}\t{}\t{}\t{}\t{}",
            queries as f64 / row.elapsed_s,
            r.served,
            r.degraded,
            r.executed_bytes,
            r.p50_ns,
            r.p99_ns
        );
        assert!(row.spread_valid, "r = {replicas} spread invariant broken");
        assert!(r.counters_consistent(), "r = {replicas}: {}", r.summary());
        assert_eq!(r.queries, queries as u64);
        assert!(r.served > 0, "r = {replicas} shed the whole stream");
        rows.push(row);
    }

    // More copies must never cost more transfer: the engine reads the
    // cheapest replica, so executed bytes are monotone non-increasing.
    for pair in rows.windows(2) {
        assert!(
            pair[1].report.executed_bytes <= pair[0].report.executed_bytes,
            "executed bytes rose from r={} ({}) to r={} ({})",
            pair[0].replicas,
            pair[0].report.executed_bytes,
            pair[1].replicas,
            pair[1].report.executed_bytes
        );
    }

    // §15 equivalence: the r=1 replicated cluster serves byte-identically
    // to the single-copy cluster.
    let single = {
        let placement = greedy_placement(&pipeline.problem);
        let cluster = pipeline.cluster_for(&placement);
        let stream = {
            let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x5e12_7e00);
            pipeline.workload.model.sample_log(queries, &mut rng).queries
        };
        let outcome = serve(
            &pipeline.index,
            &cluster,
            pipeline.config().aggregation,
            &stream,
            &ServeConfig {
                inflight: 64,
                threads: 8,
                deadline_ms: Some(DEADLINE_MS),
                burst: None,
                overhead_ns: 0,
            },
        );
        format_serving_report(&outcome.report)
    };
    let r1_identical = single == format_serving_report(&rows[0].report);
    assert!(r1_identical, "r=1 replicated serving diverged from single-copy");
    println!();
    println!("# equivalence: r=1 replicated vs single-copy report identical {r1_identical}");

    let path = std::env::var("CCA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replica.json").to_string()
    });
    write_json(queries, &rows, r1_identical, &path);
}
