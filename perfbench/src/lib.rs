//! End-to-end and per-layer benchmark of the CCA reproduction.
//!
//! Four workloads (see `README.md` next to this crate for why each
//! exists) run one per process, on one worker thread. A run generates its
//! inputs from the seed, sets the system up several times, runs one
//! untimed warm-up operation and then repeats the operation for the
//! requested number of seconds, checking every output. It prints a
//! human-readable table and, as its last line, one JSON object with the
//! end-to-end metrics. A traced run (`--trace 1`) instead times the
//! public calls the operation makes into each layer and prints the
//! per-layer metrics.

#![forbid(unsafe_code)]

pub mod spans;
pub mod stats;
pub mod workloads;

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use spans::Recorder;

/// Seed used when none is given; the figures in `README.md` are for it.
pub const DEFAULT_SEED: u64 = 1;

/// Seed never used while the benchmark was tuned; the output checks must
/// hold on it too.
pub const HELD_OUT_SEED: u64 = 7919;

/// Worker threads of every layer that takes a thread count.
pub const THREADS: usize = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Least number of timed operations per run, however long they take.
pub const MIN_REPS: usize = 3;

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("comm_per_op", "B"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A
/// workload that never calls a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("self_ms.problem", "ms"),
    ("self_ms.graph", "ms"),
    ("self_ms.scope", "ms"),
    ("self_ms.relax", "ms"),
    ("self_ms.rounding", "ms"),
    ("self_ms.repair", "ms"),
    ("self_ms.greedy", "ms"),
    ("self_ms.audit", "ms"),
    ("self_ms.resilience", "ms"),
    ("self_ms.replica", "ms"),
    ("self_ms.migrate", "ms"),
    ("self_ms.trace", "ms"),
    ("self_ms.online", "ms"),
    ("self_ms.search", "ms"),
    ("self_ms.hashing", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.runtime", "ms"),
    ("self_ms.controller", "ms"),
    ("problem.build_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.bytes", "B"),
    ("shard.build_ms", "ms"),
    ("shard.bytes", "B"),
    ("graph.cost_ms", "ms"),
    ("graph.batch1_ms", "ms"),
    ("graph.batch8_ms", "ms"),
    ("graph.cost_medges_per_s", "Medges/s"),
    ("graph.replica_delta_ns", "ns"),
    ("scope.ranking_ms", "ms"),
    ("scope.restrict_ms", "ms"),
    ("scope.compose_ms", "ms"),
    ("relax.ms", "ms"),
    ("relax.lp_iterations", "count"),
    ("relax.rounds", "count"),
    ("relax.cuts", "count"),
    ("relax.converged", "bool"),
    ("rounding.ms", "ms"),
    ("rounding.feasible_frac", "ratio"),
    ("greedy.ms", "ms"),
    ("audit.ms", "ms"),
    ("resilience.rung_ms.partial-lprr", "ms"),
    ("resilience.rung_ms.greedy", "ms"),
    ("resilience.selected", "rung"),
    ("resilience.other_ms", "ms"),
    ("replica.spread_ms", "ms"),
    ("migrate.polish_ms", "ms"),
    ("migrate.polish_moves", "count"),
    ("migrate.polish_bytes", "B"),
    ("trace.generate_ms", "ms"),
    ("trace.pair_stats_ms", "ms"),
    ("online.observation_ms", "ms"),
    ("search.index_build_ms", "ms"),
    ("search.probe_ms", "ms"),
    ("search.execute_us_p50", "us"),
    ("search.execute_us_p99", "us"),
    ("search.pages_per_query", "count"),
    ("hashing.digest_ms", "ms"),
    ("hashing.md5_mb_per_s", "MB/s"),
    ("serve.executor_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("runtime.serve_epoch_ms_p50", "ms"),
    ("runtime.serve_epoch_ms_p90", "ms"),
    ("runtime.eval_epoch_ms", "ms"),
    ("runtime.migrate_epoch_ms", "ms"),
    ("runtime.max_epoch_bytes", "B"),
    ("controller.evaluated", "count"),
    ("controller.migrations", "count"),
    ("controller.accept_frac", "ratio"),
];

/// Input sizes: the benchmark's own, or a seconds-long smoke size that
/// exercises the same code and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs for the benchmark's own tests.
    Smoke,
}

/// One named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Number of samples the value summarises (1 for a deterministic
    /// figure).
    pub samples: usize,
}

impl Metric {
    /// A metric summarising `samples` samples.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// What the output checks derive from one operation's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// Communication per multi-object operation: the paper's model cost
    /// `Σ r·w` of the placement (expected bytes per query) for placement
    /// workloads, executed bytes per executed query for serving ones.
    pub comm_per_op: f64,
    /// Share of the work that succeeded: queries served within budget
    /// over queries offered, or solves passing audit and spread over
    /// solves.
    pub ok_frac: f64,
    /// Queries offered per operation, for serving workloads.
    pub queries: Option<u64>,
    /// Every deterministic output of the operation; repetitions must
    /// agree on it exactly.
    pub fingerprint: String,
    /// The workload's deterministic figures, printed with the report.
    pub figures: Vec<Metric>,
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs generated from the seed, outside every timed region.
    type Input;
    /// The system the operation runs against.
    type System;
    /// What one operation returns.
    type Output;

    /// The workload's name on the command line.
    fn name(&self) -> &'static str;
    /// Instance sizes, printed with every result.
    fn instance(&self) -> String;
    /// Generates the inputs.
    fn generate(&self, seed: u64) -> Self::Input;
    /// Builds the system from the inputs (timed as `setup_s`), with spans
    /// around the calls into each layer when `rec` is enabled.
    fn setup(&self, input: &Self::Input, rec: &mut Recorder) -> Self::System;
    /// One operation, through the system's public entry point.
    fn op(&self, input: &Self::Input, system: &Self::System) -> Self::Output;
    /// Checks an output.
    ///
    /// # Errors
    ///
    /// A description of the first check that failed.
    fn check(
        &self,
        input: &Self::Input,
        system: &Self::System,
        out: &Self::Output,
    ) -> Result<Quality, String>;
    /// The same operation as [`Workload::op`], made one layer down
    /// through the public calls the entry point makes, each inside a span.
    /// Its output must check to the same fingerprint.
    fn traced_op(
        &self,
        input: &Self::Input,
        system: &Self::System,
        rec: &mut Recorder,
    ) -> Self::Output;
    /// Per-layer metrics of this workload: figures taken from the spans
    /// and counters in `rec`, from an untraced output, and from calls
    /// into single layers on the run's final state.
    fn layer_metrics(
        &self,
        input: &Self::Input,
        system: &Self::System,
        out: &Self::Output,
        rec: &Recorder,
        untraced_op_ms: f64,
    ) -> Vec<Metric>;
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Input seed.
    pub seed: u64,
    /// How long the timed repetitions run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub span_path: Option<std::path::PathBuf>,
}

/// The result of one run: the printed table and the final JSON line.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations whose output was checked.
    pub attempted: usize,
    /// Operations whose output failed a check.
    pub failed: usize,
    /// The metrics of the JSON line, in contract order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
}

impl RunResult {
    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite number in its shortest round-trip form; non-finite values
/// (which no check lets through) print as 0 so the line stays JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Tally of checked operations and the first output's quality.
struct Checks {
    attempted: usize,
    failed: usize,
    first: Option<Quality>,
}

impl Checks {
    fn new() -> Self {
        Checks {
            attempted: 0,
            failed: 0,
            first: None,
        }
    }

    /// Records one checked output; it fails if a check fails or if its
    /// deterministic outputs differ from the first output's.
    fn record(&mut self, what: &str, result: Result<Quality, String>) {
        self.attempted += 1;
        match (result, &self.first) {
            (Err(e), _) => {
                self.failed += 1;
                eprintln!("check failed ({what}): {e}");
            }
            (Ok(q), None) => self.first = Some(q),
            (Ok(q), Some(first)) => {
                if q != *first {
                    self.failed += 1;
                    eprintln!(
                        "check failed ({what}): output differs from the first repetition\n  \
                         first: {}\n  this:  {}",
                        first.fingerprint, q.fingerprint
                    );
                }
            }
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times the untraced operation until `seconds` have passed and at
/// least [`MIN_REPS`] ran, checking every output. Returns the milliseconds
/// of each operation.
fn timed_reps<W: Workload>(
    w: &W,
    input: &W::Input,
    system: &W::System,
    seconds: f64,
    checks: &mut Checks,
) -> Vec<f64> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut times = Vec::new();
    while times.len() < MIN_REPS || Instant::now() < end {
        let t = Instant::now();
        let out = black_box(w.op(black_box(input), black_box(system)));
        times.push(ms(t.elapsed()));
        checks.record("timed", w.check(input, system, &out));
    }
    times
}

fn header_lines<W: Workload>(w: &W, opts: &RunOptions, reps: usize) -> Vec<String> {
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        format!(
            "# workload {} seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) {}",
            w.name(),
            opts.seed,
            if opts.trace { "traced" } else { "untraced" }
        ),
        format!(
            "# available_parallelism {parallelism} threads {THREADS} setups {} timed_reps {reps} \
             seconds {}",
            if opts.trace { 1 } else { SETUPS },
            opts.seconds
        ),
        format!("# instance {}", w.instance()),
    ]
}

fn table_line(m: &Metric) -> String {
    format!("{}\t{}\t{}\tn={}", m.name, m.value, m.unit, m.samples)
}

/// Runs one workload and returns its result; the caller prints it.
///
/// # Errors
///
/// When the peak resident set size cannot be read or the span file
/// cannot be written.
pub fn run<W: Workload>(w: &W, opts: &RunOptions) -> Result<RunResult, String> {
    if opts.trace {
        run_traced(w, opts)
    } else {
        run_untraced(w, opts)
    }
}

fn run_untraced<W: Workload>(w: &W, opts: &RunOptions) -> Result<RunResult, String> {
    let input = w.generate(opts.seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut system = None;
    for _ in 0..SETUPS {
        // Drop the previous system first, so set-ups do not overlap in
        // memory.
        drop(system.take());
        let t = Instant::now();
        system = Some(black_box(w.setup(black_box(&input), &mut Recorder::off())));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let system = system.expect("SETUPS >= 1");

    let mut checks = Checks::new();
    let warm = black_box(w.op(black_box(&input), black_box(&system)));
    checks.record("warm-up", w.check(&input, &system, &warm));
    drop(warm);
    let op_ms = timed_reps(w, &input, &system, opts.seconds, &mut checks);
    let rss = peak_rss_mb()?;

    let quality = checks.first.clone();
    let setup = stats::median(&setup_s).expect("SETUPS >= 1");
    let op = stats::median(&op_ms).expect("MIN_REPS >= 1");
    let mut lines = header_lines(w, opts, op_ms.len());
    lines.push("metric\tvalue\tunit\tsamples".to_string());
    let mut table = vec![Metric::new("setup_s", setup, "s", setup_s.len())];
    match quality.as_ref().and_then(|q| q.queries) {
        Some(q) => table.push(Metric::new(
            "queries_per_s",
            q as f64 / (op / 1e3),
            "1/s",
            op_ms.len(),
        )),
        None => table.push(Metric::new("solve_ms", op, "ms", op_ms.len())),
    }
    if let Some(q) = &quality {
        table.extend(q.figures.iter().cloned());
    }
    table.push(Metric::new("peak_rss_mb", rss, "MB", 1));
    lines.extend(table.iter().map(table_line));

    let (comm, ok) = quality
        .as_ref()
        .map_or((0.0, 0.0), |q| (q.comm_per_op, q.ok_frac));
    let metrics = vec![
        Metric::new("setup_s", setup, "s", setup_s.len()),
        Metric::new("op_ms", op, "ms", op_ms.len()),
        Metric::new("comm_per_op", comm, "B", 1),
        Metric::new("ok_frac", ok, "ratio", 1),
        Metric::new("peak_rss_mb", rss, "MB", 1),
    ];
    Ok(RunResult {
        correct: checks.failed == 0 && quality.is_some(),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        lines,
    })
}

fn run_traced<W: Workload>(w: &W, opts: &RunOptions) -> Result<RunResult, String> {
    let input = w.generate(opts.seed);
    let mut rec = Recorder::new();
    let system = w.setup(&input, &mut rec);

    let mut checks = Checks::new();
    let warm = black_box(w.op(black_box(&input), black_box(&system)));
    checks.record("warm-up", w.check(&input, &system, &warm));
    drop(warm);
    // Untraced and traced operations alternate, so both see the same host
    // speed; both are checked, and the traced outputs must match the
    // untraced ones exactly.
    let end = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut untraced_out = None;
    while untraced_ms.len() < MIN_REPS || Instant::now() < end {
        let t = Instant::now();
        let out = black_box(w.op(black_box(&input), black_box(&system)));
        untraced_ms.push(ms(t.elapsed()));
        checks.record("untraced", w.check(&input, &system, &out));
        untraced_out = Some(out);

        rec.begin_op();
        let t = Instant::now();
        let out = black_box(w.traced_op(black_box(&input), black_box(&system), &mut rec));
        traced_ms.push(ms(t.elapsed()));
        checks.record("traced", w.check(&input, &system, &out));
    }
    let untraced_out = untraced_out.expect("at least MIN_REPS repetitions");

    let untraced = stats::median(&untraced_ms).expect("MIN_REPS >= 1");
    let traced = stats::median(&traced_ms).expect("MIN_REPS >= 1");
    let ops = rec.ops();
    let overhead: Vec<f64> = traced_ms
        .iter()
        .zip(&untraced_ms)
        .map(|(t, u)| t - u)
        .collect();
    let coverage: Vec<f64> = ops
        .iter()
        .zip(&untraced_ms)
        .map(|(&op, u)| rec.covered_ms(op) / u)
        .collect();
    let mut found = vec![
        Metric::new("trace.op_ms", traced, "ms", traced_ms.len()),
        Metric::new("trace.untraced_op_ms", untraced, "ms", untraced_ms.len()),
        Metric::new(
            "trace.overhead_ms",
            stats::median(&overhead).unwrap_or(0.0),
            "ms",
            overhead.len(),
        ),
        Metric::new(
            "trace.coverage",
            stats::median(&coverage).unwrap_or(0.0),
            "ratio",
            coverage.len(),
        ),
    ];
    let by_op: Vec<_> = ops.iter().map(|&op| rec.self_ms_by_layer(op)).collect();
    for (name, unit) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("self_ms.")) {
        let layer = &name["self_ms.".len()..];
        let samples: Vec<f64> = by_op
            .iter()
            .map(|m| m.get(layer).copied().unwrap_or(0.0))
            .collect();
        found.push(Metric::new(
            *name,
            stats::median(&samples).unwrap_or(0.0),
            unit,
            samples.len(),
        ));
    }
    found.extend(w.layer_metrics(&input, &system, &untraced_out, &rec, untraced));

    if let Some(path) = &opts.span_path {
        rec.write_tsv(path)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }

    let mut lines = header_lines(w, opts, traced_ms.len());
    lines.push(format!(
        "# spans {} kept in memory{}",
        rec.spans().len(),
        opts.span_path
            .as_ref()
            .map_or(String::new(), |p| format!(", written to {}", p.display()))
    ));
    lines.push("metric\tvalue\tunit\tsamples".to_string());
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let m = found
            .iter()
            .find(|m| m.name == *name)
            .cloned()
            .unwrap_or_else(|| Metric::new(*name, 0.0, unit, 0));
        debug_assert_eq!(m.unit, *unit, "unit of {name}");
        lines.push(table_line(&m));
        metrics.push(m);
    }
    Ok(RunResult {
        correct: checks.failed == 0 && checks.first.is_some(),
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        lines,
    })
}
