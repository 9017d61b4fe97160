//! Smoke-size runs of every workload with every output check on, and the
//! output contract: metric names, units and the final JSON line.

use cca_perfbench::workloads::live::LiveShift;
use cca_perfbench::workloads::place::PlaceZipf;
use cca_perfbench::workloads::replicate::ReplicateZipf;
use cca_perfbench::workloads::serve::ServePaper;
use cca_perfbench::{
    run, RunOptions, RunResult, Scale, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, MIN_REPS,
    PER_LAYER,
};

fn smoke<W: Workload>(w: &W, seed: u64, trace: bool) -> RunResult {
    let opts = RunOptions {
        seed,
        seconds: 0.0,
        trace,
        span_path: None,
    };
    let result = run(w, &opts).expect("a smoke run completes");
    assert!(
        result.correct && result.failed == 0,
        "{} seed {seed} trace {trace}: {} of {} checked operations failed",
        w.name(),
        result.failed,
        result.attempted
    );
    result
}

fn names_and_units(result: &RunResult) -> Vec<(&str, &str)> {
    result
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect()
}

/// Untraced runs on the default and the held-out seed: every check
/// passes, and the JSON metrics are exactly the end-to-end table, each a
/// positive finite number.
fn untraced_contract<W: Workload>(w: &W) {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let result = smoke(w, seed, false);
        // Warm-up plus the timed repetitions.
        assert!(result.attempted > MIN_REPS);
        assert_eq!(names_and_units(&result), END_TO_END.to_vec());
        for m in &result.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

/// A traced run reports every per-layer metric, in table order.
fn traced_contract<W: Workload>(w: &W) -> RunResult {
    let result = smoke(w, DEFAULT_SEED, true);
    assert_eq!(names_and_units(&result), PER_LAYER.to_vec());
    assert!(result.metrics.iter().all(|m| m.value.is_finite()));
    result
}

fn value(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn place_zipf_smoke() {
    let w = PlaceZipf::new(Scale::Smoke);
    untraced_contract(&w);
    let traced = traced_contract(&w);
    assert!(value(&traced, "relax.ms") > 0.0);
    assert!(value(&traced, "shard.bytes") > 0.0);
    assert_eq!(value(&traced, "resilience.selected"), 1.0);
    assert_eq!(value(&traced, "serve.batches"), 0.0);
}

#[test]
fn replicate_zipf_smoke() {
    let w = ReplicateZipf::new(Scale::Smoke);
    untraced_contract(&w);
    let traced = traced_contract(&w);
    assert!(value(&traced, "migrate.polish_ms") > 0.0);
    assert!(value(&traced, "replica.spread_ms") > 0.0);
    assert_eq!(value(&traced, "resilience.selected"), 2.0);
}

#[test]
fn serve_paper_smoke() {
    let w = ServePaper::new(Scale::Smoke);
    untraced_contract(&w);
    let traced = traced_contract(&w);
    assert!(value(&traced, "search.execute_us_p50") > 0.0);
    assert!(value(&traced, "hashing.digest_ms") > 0.0);
    assert!(value(&traced, "serve.batches") > 0.0);
}

#[test]
fn live_shift_smoke() {
    let w = LiveShift::new(Scale::Smoke);
    untraced_contract(&w);
    let traced = traced_contract(&w);
    assert!(value(&traced, "runtime.serve_epoch_ms_p50") > 0.0);
    assert!(value(&traced, "controller.evaluated") >= 1.0);
    assert!(value(&traced, "online.observation_ms") > 0.0);
}

#[test]
fn json_line_carries_exactly_the_contract_keys() {
    let result = smoke(&ServePaper::new(Scale::Smoke), DEFAULT_SEED, false);
    let json = result.json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(json.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
    for (name, unit) in END_TO_END {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(
            json.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
    assert!(json.ends_with("}}}"));
    assert!(!json.contains('\n'));
}

#[test]
fn benchmark_manifest_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = manifest.matches("\"unit\": ").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists other metrics"
    );
}
