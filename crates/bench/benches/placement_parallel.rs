//! Parallel-rounding baseline — serial vs threaded best-of rounding.
//!
//! The parallel solve layer (`cca-par`) promises two things: byte-identical
//! placements for any thread count, and wall-clock speedup proportional to
//! the available cores. This bench measures both on the Figure-5/Figure-7
//! instance shape (scope-1000 subproblem of the paper-scaled workload, at
//! 10 and 40 nodes), timing `round_best_of_within` at 1/2/4/8 threads with
//! the LP relaxation solved once up front so only the rounding fan-out is
//! on the clock.
//!
//! Besides the TSV table it writes `BENCH_parallel.json` (override the
//! path with `CCA_BENCH_OUT`), recording the host's available parallelism
//! alongside each speedup so the numbers can be judged in context — on a
//! single-core host the speedup is ~1.0 by physics, while the determinism
//! column must hold everywhere.

use cca::algo::{
    importance_ranking, round_best_of_within, scope_subproblem, solve_relaxation, RelaxOptions,
    RoundingOutcome,
};
use cca_bench::{bench_pipeline, header, quick_mode, BENCH_SEED};
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Series {
    threads: usize,
    wall_ms: f64,
    outcome: RoundingOutcome,
    identical_to_serial: bool,
}

struct InstanceResult {
    name: String,
    nodes: usize,
    scope: usize,
    objects: usize,
    repetitions: usize,
    series: Vec<Series>,
}

fn run_instance(name: &str, nodes: usize, scope: usize, repetitions: usize) -> InstanceResult {
    let pipeline = bench_pipeline(nodes);
    let ranking = importance_ranking(&pipeline.problem);
    let keep: Vec<_> = ranking.into_iter().take(scope).collect();
    let sub = scope_subproblem(&pipeline.problem, &keep, false);
    let relax = solve_relaxation(&sub, None, &RelaxOptions::default()).expect("relaxation solves");

    let mut series = Vec::new();
    for &threads in &THREAD_COUNTS {
        // Best of three timed runs: the rounding itself is deterministic,
        // so the spread is pure scheduling noise.
        let mut best_ms = f64::INFINITY;
        let mut outcome = None;
        for _ in 0..3 {
            let t = Instant::now();
            let out = round_best_of_within(
                &relax.fractional,
                &sub,
                repetitions,
                1.05,
                None,
                BENCH_SEED,
                threads,
            )
            .expect("rounding");
            best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
            outcome = Some(out);
        }
        let outcome = outcome.expect("three runs happened");
        let identical_to_serial = series.first().is_none_or(|s: &Series| {
            s.outcome.placement == outcome.placement
                && s.outcome.cost.to_bits() == outcome.cost.to_bits()
                && s.outcome.repetitions == outcome.repetitions
        });
        assert!(
            identical_to_serial,
            "{name}: threads={threads} diverged from serial — determinism contract broken"
        );
        series.push(Series {
            threads,
            wall_ms: best_ms,
            outcome,
            identical_to_serial,
        });
    }
    InstanceResult {
        name: name.to_string(),
        nodes,
        scope,
        objects: sub.num_objects(),
        repetitions,
        series,
    }
}

/// Minimal JSON escaping for the identifiers this bench emits.
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn write_json(results: &[InstanceResult], path: &str) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"placement_parallel\",\n");
    out.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        cca_par::available_parallelism()
    ));
    out.push_str(&format!("  \"quick\": {},\n", quick_mode()));
    out.push_str("  \"instances\": [\n");
    for (i, r) in results.iter().enumerate() {
        let serial_ms = r.series[0].wall_ms;
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_str(&r.name)));
        out.push_str(&format!("      \"nodes\": {},\n", r.nodes));
        out.push_str(&format!("      \"scope\": {},\n", r.scope));
        out.push_str(&format!("      \"objects\": {},\n", r.objects));
        out.push_str(&format!("      \"repetitions\": {},\n", r.repetitions));
        out.push_str("      \"series\": [\n");
        for (j, s) in r.series.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"threads\": {}, \"wall_ms\": {:.3}, \"cost\": {:.6}, \
                 \"within_capacity\": {}, \"speedup_vs_serial\": {:.3}, \
                 \"identical_to_serial\": {}}}{}\n",
                s.threads,
                s.wall_ms,
                // `+ 0.0` normalises a negative zero.
                s.outcome.cost + 0.0,
                s.outcome.within_capacity,
                serial_ms / s.wall_ms,
                s.identical_to_serial,
                if j + 1 < r.series.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote parallel baseline to {path}");
}

fn main() {
    println!("# Parallel rounding baseline: serial vs 2/4/8 threads");
    println!(
        "# host available_parallelism = {}",
        cca_par::available_parallelism()
    );
    let (instances, repetitions): (&[(&str, usize, usize)], usize) = if quick_mode() {
        (&[("fig5-small", 5, 200), ("fig7-small", 10, 200)], 8)
    } else {
        (
            &[("fig5-scope1000", 10, 1000), ("fig7-scope1000", 40, 1000)],
            32,
        )
    };

    let mut results = Vec::new();
    for &(name, nodes, scope) in instances {
        header(
            &format!("{name}: rounding wall time ({repetitions} repetitions)"),
            &[
                "threads",
                "wall_ms",
                "speedup",
                "cost",
                "identical_to_serial",
            ],
        );
        let r = run_instance(name, nodes, scope, repetitions);
        let serial_ms = r.series[0].wall_ms;
        for s in &r.series {
            println!(
                "{}\t{:.3}\t{:.3}\t{:.4}\t{}",
                s.threads,
                s.wall_ms,
                serial_ms / s.wall_ms,
                s.outcome.cost + 0.0,
                s.identical_to_serial
            );
        }
        results.push(r);
    }

    let path = cca_bench::output_path("parallel");
    write_json(&results, &path);
    println!();
    println!("# determinism: every thread count must reproduce the serial placement");
    println!("# byte-for-byte; speedup tracks min(threads, available cores).");
}
