//! Shared harness code for the benches.
//!
//! The `paper` bench regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index), prints the series the
//! paper plots as TSV and records them in `BENCH_paper.json`; the other
//! bench targets measure the substrate (kernels, solve layer, serving,
//! live runtime). This crate holds the common plumbing: canonical
//! pipeline construction, quick mode, table formatting and the
//! micro-benchmark timer.

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
    fn ratio_formatting() {
        assert_eq!(ratio(1, 2), "0.5000");
        assert_eq!(ratio(1, 0), "n/a");
    }
}
