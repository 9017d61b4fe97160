//! Shared harness code for the benches.
//!
//! The `paper` bench regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index), prints the series the
//! paper plots as TSV and records them in `BENCH_paper.json`; the other
//! bench targets measure the substrate (cost kernels, batched and
//! sharded folds, the solve layer). This crate holds the common
//! plumbing: canonical pipeline construction, quick mode, where each
//! bench writes its JSON, table formatting and the micro-benchmark
//! timer.

pub mod timing;

use cca::pipeline::{Pipeline, PipelineConfig};
use cca::trace::TraceConfig;

/// Canonical seed for every figure harness — results in bench output are
/// deterministic.
pub const BENCH_SEED: u64 = 20080617; // ICDCS 2008 in Beijing

/// The pipeline configuration over `num_nodes` nodes at [`BENCH_SEED`]:
/// the paper-scaled workload, or the small preset in quick mode.
#[must_use]
pub fn bench_config(num_nodes: usize) -> PipelineConfig {
    let trace = if quick_mode() {
        TraceConfig::small()
    } else {
        TraceConfig::paper_scaled()
    };
    let mut config = PipelineConfig::new(trace, num_nodes);
    config.seed = BENCH_SEED;
    config
}

/// A reduced pipeline for quick smoke runs (`CCA_BENCH_QUICK=1`).
#[must_use]
pub fn quick_pipeline(num_nodes: usize) -> Pipeline {
    let mut config = PipelineConfig::new(TraceConfig::small(), num_nodes);
    config.seed = BENCH_SEED;
    Pipeline::build(&config)
}

/// Returns `true` when the environment asks for a quick smoke run.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var_os("CCA_BENCH_QUICK").is_some()
}

/// Where a bench writes its JSON ledger `BENCH_<name>.json`, creating
/// the directory if needed: `CCA_BENCH_OUT` when set, else the committed
/// ledger at the repository root in a full run, else (quick mode) a copy
/// under the gitignored `target/bench-quick/`, so a smoke run never
/// overwrites a committed full-run ledger.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn output_path(name: &str) -> String {
    let path = ledger_path(name, std::env::var("CCA_BENCH_OUT").ok(), quick_mode());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    path
}

/// The path rule of [`output_path`]: `out` (`CCA_BENCH_OUT`) wins, then
/// the mode picks the committed ledger or the quick copy.
fn ledger_path(name: &str, out: Option<String>, quick: bool) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    match (out, quick) {
        (Some(path), _) => path,
        (None, false) => format!("{root}/BENCH_{name}.json"),
        (None, true) => format!("{root}/target/bench-quick/BENCH_{name}.json"),
    }
}

/// Builds the pipeline honouring quick mode.
#[must_use]
pub fn bench_pipeline(num_nodes: usize) -> Pipeline {
    Pipeline::build(&bench_config(num_nodes))
}

/// Prints a TSV header row.
pub fn header(title: &str, columns: &[&str]) {
    println!();
    println!("## {title}");
    println!("{}", columns.join("\t"));
}

/// Formats a ratio as a fixed-precision string.
#[must_use]
pub fn ratio(n: u64, d: u64) -> String {
    if d == 0 {
        "n/a".to_string()
    } else {
        format!("{:.4}", n as f64 / d as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_builds() {
        let p = quick_pipeline(3);
        assert!(p.problem.num_objects() > 0);
        assert_eq!(p.problem.num_nodes(), 3);
    }

    #[test]
    fn quick_runs_never_write_a_committed_ledger() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let committed = format!("{root}/BENCH_paper.json");
        assert_eq!(ledger_path("paper", None, false), committed);
        let quick = ledger_path("paper", None, true);
        assert_eq!(quick, format!("{root}/target/bench-quick/BENCH_paper.json"));
        assert_ne!(quick, committed);
        for quick in [false, true] {
            let out = Some("/tmp/x.json".to_string());
            assert_eq!(ledger_path("paper", out, quick), "/tmp/x.json");
        }
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(1, 2), "0.5000");
        assert_eq!(ratio(1, 0), "n/a");
    }
}
